//! Overlay membership and prefix routing.

use crate::key::NodeKey;
use crate::table::{ring_walks, LeafSet, RoutingTable};
use crate::MemberId;
use desim::SimRng;
use std::collections::btree_map::{BTreeMap, Entry};

/// Network-proximity metric between two members (e.g. simulated latency in
/// milliseconds), as [`Overlay::join`] takes it. Pastry uses it to prefer
/// nearby nodes in routing tables. [`Overlay::build`] takes any such
/// closure by reference and is monomorphized over it.
pub type ProximityFn<'a> = &'a dyn Fn(MemberId, MemberId) -> f64;

/// State of one overlay node.
#[derive(Clone, Debug)]
struct NodeState {
    key: NodeKey,
    table: RoutingTable,
    leaves: LeafSet,
    alive: bool,
}

/// A Pastry overlay over a set of member nodes.
///
/// Members are identified by dense `MemberId`s assigned at insertion;
/// callers map them to transport-level node handles. Dead members keep
/// their ids (ids are never reused).
#[derive(Clone, Debug)]
pub struct Overlay {
    nodes: Vec<NodeState>,
    /// Alive members indexed by key (the "ground truth" ring used for
    /// owner queries and converged leaf-set repair).
    ring: BTreeMap<NodeKey, MemberId>,
    leaf_l: usize,
}

/// Default leaf-set size (total, both sides), as in the Pastry paper.
pub const DEFAULT_LEAF_SET: usize = 16;

/// Hard bound on route length; Pastry converges in `O(log N)` so hitting
/// this indicates a broken invariant.
const MAX_HOPS: usize = 64;

impl Overlay {
    /// Builds an overlay of `n` nodes with random distinct keys drawn from
    /// `seed`, using `proximity` for routing-table locality choices, wired
    /// up as if the nodes had joined in id order and the membership
    /// protocols had fully converged after each join.
    ///
    /// `proximity` is evaluated once per ordered pair of distinct members:
    /// before a node's candidates are offered, one reused row is filled
    /// with its proximity to every other member, and each offer compares
    /// row entries. Candidates are still offered in the one-by-one join
    /// order below, so every strict-`<` tie is settled as before and the
    /// tables are identical to evaluating `proximity` on every offer.
    pub fn build<P>(n: usize, seed: u64, proximity: &P) -> Overlay
    where
        P: Fn(MemberId, MemberId) -> f64 + ?Sized,
    {
        assert!(n > 0, "empty overlay");
        let mut rng = SimRng::new(seed ^ 0x5061_7374_7279_2131);
        let mut ring: BTreeMap<NodeKey, MemberId> = BTreeMap::new();
        let mut keys: Vec<NodeKey> = Vec::with_capacity(n);
        while keys.len() < n {
            let k = NodeKey(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128);
            if let Entry::Vacant(slot) = ring.entry(k) {
                slot.insert(keys.len());
                keys.push(k);
            }
        }
        // Flat copy of the ring: the loop below walks it once per node.
        let by_key: Vec<(NodeKey, MemberId)> = ring.iter().map(|(&k, &m)| (k, m)).collect();
        // `row[m]` is the proximity of the node being built to member `m`;
        // its own entry is never read (a table never offers its owner).
        let mut row: Vec<f64> = Vec::with_capacity(n);
        let nodes = (0..n)
            .map(|id| {
                row.clear();
                row.extend((0..n).map(|m| if m == id { f64::NAN } else { proximity(id, m) }));
                // A slot changes hands only to a strictly closer candidate,
                // so equally close ones are settled by who was offered
                // first. Joining in id order, a node is offered the members
                // already present — in key order — and then each later
                // joiner as it arrives.
                let mut table = RoutingTable::new(keys[id]);
                let earlier = by_key.iter().copied().filter(|&(_, m)| m < id);
                let later = (id + 1..n).map(|m| (keys[m], m));
                for (k, m) in earlier.chain(later) {
                    table.consider(k, m, |cand| row[cand]);
                }
                NodeState {
                    key: keys[id],
                    table,
                    leaves: LeafSet::from_ring(keys[id], DEFAULT_LEAF_SET, &ring),
                    alive: true,
                }
            })
            .collect();
        Overlay {
            nodes,
            ring,
            leaf_l: DEFAULT_LEAF_SET,
        }
    }

    /// Number of member slots ever allocated (alive or dead).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the overlay has no members at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of alive members.
    pub fn alive_count(&self) -> usize {
        self.ring.len()
    }

    /// The key of member `m`.
    pub fn key_of(&self, m: MemberId) -> NodeKey {
        self.nodes[m].key
    }

    /// Whether member `m` is alive.
    pub fn is_alive(&self, m: MemberId) -> bool {
        self.nodes[m].alive
    }

    /// Iterates over alive members in ring (key) order.
    pub fn alive_members(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.ring.values().copied()
    }

    /// The alive member whose key is numerically closest to `key` on the
    /// ring — the node responsible for storing `key`. Of two equally close
    /// members the one with the smaller key owns it.
    pub fn owner_of(&self, key: NodeKey) -> MemberId {
        self.nearest(key).next().expect("no alive members")
    }

    /// The `count` alive members nearest to `key` by ring distance (fewer
    /// when fewer are alive), nearest first, equally close ones by
    /// increasing key.
    pub fn nearest_members(&self, key: NodeKey, count: usize) -> Vec<MemberId> {
        self.nearest(key).take(count).collect()
    }

    /// Alive members by increasing ring distance from `key`: the member at
    /// `key` itself, then a merge of the ring walked clockwise and
    /// counter-clockwise from there. Each walk laps the whole ring, so the
    /// merge is cut off after one ring's worth — up to there the two walks
    /// cannot have crossed.
    fn nearest(&self, key: NodeKey) -> impl Iterator<Item = MemberId> + '_ {
        let at_key = self.ring.get(&key).copied();
        let (cw, ccw) = ring_walks(&self.ring, key);
        let (mut cw, mut ccw) = (cw.peekable(), ccw.peekable());
        let mut left = self.ring.len() - usize::from(at_key.is_some());
        let others = std::iter::from_fn(move || {
            left = left.checked_sub(1)?;
            let (&(a, _), &(b, _)) = (cw.peek()?, ccw.peek()?);
            let (da, db) = (key.clockwise_distance(a), b.clockwise_distance(key));
            let next = if da < db || (da == db && a <= b) {
                cw.next()
            } else {
                ccw.next()
            };
            next.map(|(_, m)| m)
        });
        at_key.into_iter().chain(others)
    }

    /// Routing state of member `m` (its routing table).
    pub fn table(&self, m: MemberId) -> &RoutingTable {
        &self.nodes[m].table
    }

    /// Routing state of member `m` (its leaf set).
    pub fn leaf_set(&self, m: MemberId) -> &LeafSet {
        &self.nodes[m].leaves
    }

    /// Routes from `from` toward `key` using only local state at each hop.
    ///
    /// Returns the full hop sequence starting with `from` and ending at the
    /// node that delivers the message. Panics if `from` is dead.
    pub fn route_path(&self, from: MemberId, key: NodeKey) -> Vec<MemberId> {
        assert!(self.nodes[from].alive, "routing from a dead node");
        let mut path = vec![from];
        let mut current = from;
        for _ in 0..MAX_HOPS {
            match self.next_hop(current, key) {
                None => return path,
                Some(next) => {
                    debug_assert!(self.nodes[next].alive);
                    path.push(next);
                    current = next;
                }
            }
        }
        panic!("routing loop toward {key}: path {path:?}");
    }

    /// One Pastry routing decision at `current` for `key`.
    fn next_hop(&self, current: MemberId, key: NodeKey) -> Option<MemberId> {
        let node = &self.nodes[current];
        if node.key == key {
            return None;
        }
        // Case 1: target within leaf-set range — deliver to the closest.
        if node.leaves.in_range(key) {
            return match node.leaves.closest(key) {
                Some((_, m)) if m != current && self.nodes[m].alive => Some(m),
                _ => None, // owner itself is closest: deliver here
            };
        }
        // Case 2: routing-table entry matching one more digit.
        if let Some((_, m)) = node.table.next_hop(key) {
            if self.nodes[m].alive {
                return Some(m);
            }
        }
        // Case 3 (rare): any known node at least as good prefix-wise and
        // strictly closer numerically.
        let here_prefix = node.key.shared_prefix_len(key);
        let here_dist = node.key.ring_distance(key);
        let candidates = node
            .leaves
            .members()
            .chain(node.table.entries())
            .filter(|&(_, m)| self.nodes[m].alive);
        let mut best: Option<(u128, NodeKey, MemberId)> = None;
        for (k, m) in candidates {
            let d = k.ring_distance(key);
            if k.shared_prefix_len(key) >= here_prefix && d < here_dist {
                let better = match best {
                    None => true,
                    Some((bd, bk, _)) => d < bd || (d == bd && k < bk),
                };
                if better {
                    best = Some((d, k, m));
                }
            }
        }
        best.map(|(_, _, m)| m)
    }

    /// Joins a new node with the given key through `bootstrap`, mimicking
    /// Pastry's join: route toward the new key, seed the newcomer's state
    /// from the nodes on the path, then announce it to the nodes it knows.
    ///
    /// Leaf sets across the overlay are brought to their converged state
    /// (Pastry's leaf-set protocol guarantees eventual convergence; we
    /// model the fixpoint), while routing tables are only updated at the
    /// contacted nodes — matching Pastry's lazy table maintenance.
    ///
    /// Returns the new member id and the join route.
    pub fn join(
        &mut self,
        key: NodeKey,
        bootstrap: MemberId,
        proximity: ProximityFn<'_>,
    ) -> (MemberId, Vec<MemberId>) {
        assert!(
            !self.ring.contains_key(&key),
            "key collision on join: {key}"
        );
        let path = self.route_path(bootstrap, key);
        let id = self.nodes.len();
        let mut state = NodeState {
            key,
            table: RoutingTable::new(key),
            leaves: LeafSet::new(key, self.leaf_l),
            alive: true,
        };
        // Seed from every node on the join path: hop i contributes the
        // rows it shares with the newcomer; the final hop contributes its
        // leaf set. Offering *all* their entries is a superset that the
        // table/leaf-set insertion rules trim correctly.
        for &hop in &path {
            let hop_state = &self.nodes[hop];
            state
                .table
                .consider(hop_state.key, hop, |c| proximity(id, c));
            state.leaves.consider(hop_state.key, hop);
            for (k, m) in hop_state.table.entries() {
                if self.nodes[m].alive {
                    state.table.consider(k, m, |c| proximity(id, c));
                    state.leaves.consider(k, m);
                }
            }
            for (k, m) in hop_state.leaves.members() {
                if self.nodes[m].alive {
                    state.table.consider(k, m, |c| proximity(id, c));
                    state.leaves.consider(k, m);
                }
            }
        }
        // Announce to contacted nodes (they learn the newcomer).
        let known: Vec<MemberId> = state
            .table
            .entries()
            .map(|(_, m)| m)
            .chain(state.leaves.members().map(|(_, m)| m))
            .chain(path.iter().copied())
            .collect();
        for m in known {
            let other = &mut self.nodes[m];
            other.table.consider(key, id, |c| proximity(m, c));
        }
        self.nodes.push(state);
        self.ring.insert(key, id);
        // Converged leaf sets: the newcomer sees the full ring, and the
        // nodes it is now a leaf of re-evaluate theirs.
        self.nodes[id].leaves = LeafSet::from_ring(key, self.leaf_l, &self.ring);
        self.refresh_leaf_sets_around(key);
        (id, path)
    }

    /// Removes (fails) a member. Leaf sets are repaired to the converged
    /// state; routing-table entries pointing at the dead node are evicted
    /// everywhere (Pastry detects dead entries on use; we model the
    /// post-detection state so routing never dereferences a corpse).
    pub fn remove(&mut self, member: MemberId) {
        if !self.nodes[member].alive {
            return;
        }
        let key = self.nodes[member].key;
        self.nodes[member].alive = false;
        self.ring.remove(&key);
        for node in self.nodes.iter_mut().filter(|n| n.alive) {
            node.table.evict(key, member);
        }
        self.refresh_leaf_sets_around(key);
    }

    /// Re-reads from the ring the leaf sets of the `L/2` alive members on
    /// either side of `key` — the only ones a member joining or leaving at
    /// `key` can enter or drop out of.
    fn refresh_leaf_sets_around(&mut self, key: NodeKey) {
        let half = self.leaf_l / 2;
        let (cw, ccw) = ring_walks(&self.ring, key);
        for (k, m) in cw.take(half).chain(ccw.take(half)) {
            self.nodes[m].leaves = LeafSet::from_ring(k, self.leaf_l, &self.ring);
        }
    }

    /// Average number of populated routing-table entries per alive node
    /// (diagnostic; grows with `log N`).
    pub fn mean_table_size(&self) -> f64 {
        let alive: Vec<_> = self.alive_members().collect();
        if alive.is_empty() {
            return 0.0;
        }
        alive
            .iter()
            .map(|&m| self.nodes[m].table.len())
            .sum::<usize>() as f64
            / alive.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(_: MemberId, _: MemberId) -> f64 {
        1.0
    }

    fn build(n: usize, seed: u64) -> Overlay {
        Overlay::build(n, seed, &flat)
    }

    #[test]
    fn build_assigns_distinct_keys() {
        let ov = build(32, 1);
        assert_eq!(ov.len(), 32);
        assert_eq!(ov.alive_count(), 32);
        let mut keys: Vec<_> = (0..32).map(|m| ov.key_of(m)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 32);
    }

    #[test]
    fn routes_reach_the_owner_from_everywhere() {
        let ov = build(32, 2);
        let mut rng = SimRng::new(99);
        for _ in 0..200 {
            let key = NodeKey(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128);
            let owner = ov.owner_of(key);
            for from in [0, 7, 31] {
                let path = ov.route_path(from, key);
                assert_eq!(
                    *path.last().unwrap(),
                    owner,
                    "route from {from} for {key} ended at {:?}, owner {owner}",
                    path.last()
                );
            }
        }
    }

    #[test]
    fn routing_to_own_key_is_trivial() {
        let ov = build(8, 3);
        let path = ov.route_path(3, ov.key_of(3));
        assert_eq!(path, vec![3]);
    }

    #[test]
    fn paths_are_logarithmically_short() {
        // 128 nodes, hex digits: expect ≤ ~log16(128) ≈ 1.75 + leaf hop.
        let ov = build(128, 4);
        let mut rng = SimRng::new(5);
        let mut worst = 0;
        for _ in 0..300 {
            let key = NodeKey(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128);
            let from = rng.range_usize(0, 128);
            let hops = ov.route_path(from, key).len() - 1;
            worst = worst.max(hops);
        }
        assert!(worst <= 6, "worst-case hops {worst} too long for 128 nodes");
    }

    #[test]
    fn single_node_owns_everything() {
        let ov = build(1, 6);
        assert_eq!(ov.owner_of(NodeKey(123)), 0);
        assert_eq!(ov.route_path(0, NodeKey(123)), vec![0]);
    }

    #[test]
    fn join_makes_node_routable_and_owning() {
        let mut ov = build(16, 7);
        let new_key = NodeKey(0xDEAD_BEEF_0000_0000_0000_0000_0000_0000);
        let (id, path) = ov.join(new_key, 0, &flat);
        assert!(!path.is_empty());
        assert_eq!(ov.alive_count(), 17);
        assert!(ov.is_alive(id));
        // The newcomer owns its own key and is reachable from everyone.
        assert_eq!(ov.owner_of(new_key), id);
        for from in 0..16 {
            let p = ov.route_path(from, new_key);
            assert_eq!(*p.last().unwrap(), id, "from {from}: {p:?}");
        }
        // And the newcomer can route out.
        let target = ov.key_of(3);
        assert_eq!(*ov.route_path(id, target).last().unwrap(), 3);
    }

    #[test]
    fn removal_reroutes_to_new_owner() {
        let mut ov = build(16, 8);
        let victim = 5;
        let victim_key = ov.key_of(victim);
        ov.remove(victim);
        assert_eq!(ov.alive_count(), 15);
        assert!(!ov.is_alive(victim));
        let new_owner = ov.owner_of(victim_key);
        assert_ne!(new_owner, victim);
        for from in (0..16).filter(|&m| m != victim) {
            let p = ov.route_path(from, victim_key);
            assert_eq!(*p.last().unwrap(), new_owner);
            assert!(!p.contains(&victim), "route crossed dead node: {p:?}");
        }
        // Double removal is a no-op.
        ov.remove(victim);
        assert_eq!(ov.alive_count(), 15);
    }

    #[test]
    fn churn_storm_keeps_invariants() {
        let mut ov = build(24, 9);
        let mut rng = SimRng::new(10);
        for round in 0..20 {
            if round % 3 == 0 {
                let alive: Vec<_> = ov.alive_members().collect();
                if alive.len() > 4 {
                    let v = *rng.choose(&alive);
                    ov.remove(v);
                }
            } else {
                let k = NodeKey(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128);
                let alive: Vec<_> = ov.alive_members().collect();
                let boot = *rng.choose(&alive);
                ov.join(k, boot, &flat);
            }
            // Spot-check: random lookups land on the true owner.
            let alive: Vec<_> = ov.alive_members().collect();
            for _ in 0..10 {
                let key = NodeKey(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128);
                let from = *rng.choose(&alive);
                assert_eq!(*ov.route_path(from, key).last().unwrap(), ov.owner_of(key));
            }
        }
    }

    #[test]
    fn proximity_biases_table_choices() {
        // With a proximity function that prefers member 1, nodes should
        // pick member 1 over farther candidates sharing the same slot.
        // Statistical smoke test: tables are non-empty and deterministic.
        let prox_a = |a: MemberId, b: MemberId| (a as f64 - b as f64).abs();
        let ov1 = Overlay::build(32, 11, &prox_a);
        let ov2 = Overlay::build(32, 11, &prox_a);
        assert_eq!(ov1.mean_table_size(), ov2.mean_table_size());
        assert!(ov1.mean_table_size() > 1.0);
    }

    #[test]
    fn build_evaluates_each_pair_once() {
        for n in [1usize, 2, 17, 100] {
            let evals = std::cell::Cell::new(0);
            let prox = |a: MemberId, b: MemberId| {
                evals.set(evals.get() + 1);
                ((a * 3 + b * 7) % 4) as f64
            };
            Overlay::build(n, 12, &prox);
            assert_eq!(evals.get(), n * (n - 1), "n={n}");
        }
    }
}
