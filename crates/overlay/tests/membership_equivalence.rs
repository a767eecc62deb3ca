//! Differential test of overlay membership against a from-scratch oracle.
//!
//! `Overlay::{build, join, remove, owner_of, nearest_members}` touch only
//! the state a membership change can affect. The oracle below keeps the
//! quadratic construction they replaced — insert members one by one and
//! offer each to everyone, rebuild every leaf set after a change, scan
//! every table slot on eviction, scan the ring for an owner, sort the
//! ring for a replica group — and every test asserts state-for-state
//! equality: every routing-table slot and both leaf-set sides in order.
//! The oracle evaluates proximity on every offer, so it also checks that
//! `build`'s per-node proximity row holds the same values.

use desim::SimRng;
use overlay::{MemberId, NodeKey, Overlay};
use std::collections::BTreeMap;

const ROWS: usize = 32;
const COLS: usize = 16;
const LEAF_HALF: usize = 8;

/// Asymmetric and tie-heavy: five distinct values, `prox(a, b) != prox(b, a)`.
fn prox(a: MemberId, b: MemberId) -> f64 {
    ((a * 7 + b * 13) % 5) as f64
}

fn random_key(rng: &mut SimRng) -> NodeKey {
    NodeKey(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128)
}

type Slot = Option<(NodeKey, MemberId)>;
/// One side of a leaf set, nearest first: (distance that way round, leaf).
type LeafSide = Vec<(u128, NodeKey, MemberId)>;

struct OracleNode {
    key: NodeKey,
    table: Vec<[Slot; COLS]>,
    cw: LeafSide,
    ccw: LeafSide,
    alive: bool,
}

impl OracleNode {
    fn new(key: NodeKey) -> Self {
        OracleNode {
            key,
            table: vec![[None; COLS]; ROWS],
            cw: Vec::new(),
            ccw: Vec::new(),
            alive: true,
        }
    }

    /// Pastry's leaf-set rule: each side keeps the `L/2` members nearest
    /// in its direction.
    fn offer_leaf(&mut self, key: NodeKey, member: MemberId) {
        if key != self.key {
            offer_side(&mut self.cw, self.key.clockwise_distance(key), key, member);
            offer_side(&mut self.ccw, key.clockwise_distance(self.key), key, member);
        }
    }

    fn leaves(&self) -> Vec<(NodeKey, MemberId)> {
        let both = self.cw.iter().chain(&self.ccw);
        both.map(|&(_, k, m)| (k, m)).collect()
    }

    /// Pastry's table rule: a node files under (shared prefix, next
    /// digit); an occupant yields only to a strictly closer candidate.
    fn offer(&mut self, me: MemberId, key: NodeKey, member: MemberId) {
        if key == self.key {
            return;
        }
        let row = self.key.shared_prefix_len(key);
        let slot = &mut self.table[row][key.digit(row)];
        match *slot {
            Some((_, held)) if held == member || prox(me, member) >= prox(me, held) => {}
            _ => *slot = Some((key, member)),
        }
    }

    fn entries(&self) -> Vec<(NodeKey, MemberId)> {
        self.table.iter().flatten().filter_map(|e| *e).collect()
    }
}

fn offer_side(side: &mut LeafSide, dist: u128, key: NodeKey, member: MemberId) {
    let full = side.len() == LEAF_HALF;
    if (full && dist >= side[LEAF_HALF - 1].0) || side.iter().any(|e| e.1 == key) {
        return;
    }
    let at = side.iter().position(|e| e.0 > dist).unwrap_or(side.len());
    side.insert(at, (dist, key, member));
    side.truncate(LEAF_HALF);
}

struct Oracle {
    nodes: Vec<OracleNode>,
    ring: BTreeMap<NodeKey, MemberId>,
}

impl Oracle {
    fn build(n: usize, seed: u64) -> Oracle {
        let mut rng = SimRng::new(seed ^ 0x5061_7374_7279_2131);
        let mut keys: Vec<NodeKey> = Vec::new();
        while keys.len() < n {
            let k = random_key(&mut rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let mut o = Oracle {
            nodes: Vec::new(),
            ring: BTreeMap::new(),
        };
        for key in keys {
            let id = o.nodes.len();
            let mut node = OracleNode::new(key);
            for (&k, &m) in &o.ring {
                node.offer_leaf(k, m);
                node.offer(id, k, m);
                o.nodes[m].offer_leaf(key, id);
                o.nodes[m].offer(m, key, id);
            }
            o.ring.insert(key, id);
            o.nodes.push(node);
        }
        o
    }

    fn rebuild_all_leaf_sets(&mut self) {
        for &m in self.ring.values() {
            let node = &mut self.nodes[m];
            (node.cw, node.ccw) = (Vec::new(), Vec::new());
            for (&k, &other) in &self.ring {
                node.offer_leaf(k, other);
            }
        }
    }

    fn remove(&mut self, victim: MemberId) {
        self.nodes[victim].alive = false;
        self.ring.remove(&self.nodes[victim].key);
        for node in self.nodes.iter_mut().filter(|n| n.alive) {
            for slot in node.table.iter_mut().flatten() {
                if matches!(slot, Some((_, m)) if *m == victim) {
                    *slot = None;
                }
            }
        }
        self.rebuild_all_leaf_sets();
    }

    /// `path` is the join route the overlay under test took, over state
    /// just asserted equal to this oracle's.
    fn join(&mut self, key: NodeKey, path: &[MemberId]) {
        let id = self.nodes.len();
        let mut node = OracleNode::new(key);
        for &hop in path {
            let h = &self.nodes[hop];
            let offered = [(h.key, hop)]
                .into_iter()
                .chain(h.entries())
                .chain(h.leaves());
            for (k, m) in offered.filter(|&(_, m)| self.nodes[m].alive) {
                node.offer(id, k, m);
                node.offer_leaf(k, m);
            }
        }
        let known: Vec<MemberId> = (node.entries().into_iter().chain(node.leaves()))
            .map(|(_, m)| m)
            .chain(path.iter().copied())
            .collect();
        for m in known {
            self.nodes[m].offer(m, key, id);
        }
        self.nodes.push(node);
        self.ring.insert(key, id);
        self.rebuild_all_leaf_sets();
    }

    fn owner_of(&self, key: NodeKey) -> MemberId {
        let mut best: Option<(u128, NodeKey, MemberId)> = None;
        for (&k, &m) in &self.ring {
            let d = k.ring_distance(key);
            if best.is_none_or(|(bd, bk, _)| d < bd || (d == bd && k < bk)) {
                best = Some((d, k, m));
            }
        }
        best.expect("no alive members").2
    }

    fn replica_group(&self, key: NodeKey, replicas: usize) -> Vec<MemberId> {
        let owner = self.owner_of(key);
        let owner_key = self.nodes[owner].key;
        let mut others: Vec<MemberId> = self.ring.values().copied().collect();
        others.retain(|&m| m != owner);
        others.sort_by_key(|&m| self.nodes[m].key.ring_distance(owner_key));
        others.truncate(replicas);
        [vec![owner], others].concat()
    }
}

fn assert_same_state(ov: &Overlay, o: &Oracle, ctx: &str) {
    assert_eq!(ov.len(), o.nodes.len(), "{ctx}: member count");
    let ring: Vec<MemberId> = o.ring.values().copied().collect();
    assert_eq!(ov.alive_members().collect::<Vec<_>>(), ring, "{ctx}: ring");
    for (m, want) in o.nodes.iter().enumerate() {
        assert_eq!(ov.key_of(m), want.key, "{ctx}: key of {m}");
        assert_eq!(ov.is_alive(m), want.alive, "{ctx}: liveness of {m}");
        for row in 0..ROWS {
            for col in 0..COLS {
                let got = ov.table(m).entry(row, col);
                assert_eq!(got, want.table[row][col], "{ctx}: table {m}[{row}][{col}]");
            }
        }
        let side = |s: &LeafSide| s.iter().map(|&(_, k, m)| (k, m)).collect::<Vec<_>>();
        let got = ov.leaf_set(m);
        assert_eq!(got.clockwise(), side(&want.cw), "{ctx}: cw leaves of {m}");
        assert_eq!(
            got.counter_clockwise(),
            side(&want.ccw),
            "{ctx}: ccw leaves of {m}"
        );
    }
}

/// `owner_of` and the replica group at random keys, at member keys and at
/// the midpoints between ring neighbours (where two members can tie).
fn assert_same_ownership(ov: &Overlay, o: &Oracle, rng: &mut SimRng, ctx: &str) {
    let members: Vec<NodeKey> = o.ring.keys().copied().collect();
    let mut probes: Vec<NodeKey> = (0..6).map(|_| random_key(rng)).collect();
    for _ in 0..4 {
        let i = rng.range_usize(0, members.len());
        let (a, b) = (members[i], members[(i + 1) % members.len()]);
        probes.push(a);
        probes.push(NodeKey(a.0.wrapping_add(a.clockwise_distance(b) / 2)));
    }
    for key in probes {
        let owner = o.owner_of(key);
        assert_eq!(ov.owner_of(key), owner, "{ctx}: owner of {key}");
        for replicas in [0, 1, 2, 5, 2 * LEAF_HALF, members.len(), members.len() + 3] {
            assert_eq!(
                ov.nearest_members(o.nodes[owner].key, replicas + 1),
                o.replica_group(key, replicas),
                "{ctx}: replica group of {key} at {replicas} replicas"
            );
        }
    }
}

/// Seeds are independent; one thread each keeps the quadratic oracle
/// affordable in a debug build.
#[test]
fn build_join_remove_match_the_oracle_state_for_state() {
    std::thread::scope(|s| {
        for seed in 0..6u64 {
            s.spawn(move || {
                for n in [1usize, 2, 3, 9, 16, 17, 18, 33, 64, 200, 600] {
                    churn_against_the_oracle(n, seed);
                }
            });
        }
    });
}

/// Construction alone, at a size the churn test does not build: each node's
/// proximity row must be filled for that node and read at the candidate.
#[test]
fn build_matches_the_oracle_at_300_members() {
    for seed in 0..4u64 {
        let ov = Overlay::build(300, seed, &prox);
        let o = Oracle::build(300, seed);
        assert_same_state(&ov, &o, &format!("n=300 seed={seed} build"));
    }
}

/// Builds `n` nodes, then joins and removes at random until 40 members
/// have been removed (rings of one member can only grow).
fn churn_against_the_oracle(n: usize, seed: u64) {
    let mut rng = SimRng::new(0x6d65_6d62 ^ (n as u64) << 8 ^ seed);
    let mut ov = Overlay::build(n, seed, &prox);
    let mut o = Oracle::build(n, seed);
    assert_same_state(&ov, &o, &format!("n={n} seed={seed} build"));
    assert_same_ownership(&ov, &o, &mut rng, &format!("n={n} seed={seed} build"));
    let (mut removes, mut step) = (0, 0);
    while removes < 40 {
        step += 1;
        let alive: Vec<MemberId> = ov.alive_members().collect();
        let ctx = if alive.len() == 1 || rng.chance(0.3) {
            let key = random_key(&mut rng);
            let (id, path) = ov.join(key, *rng.choose(&alive), &prox);
            o.join(key, &path);
            format!("n={n} seed={seed} step {step}: join {id}")
        } else {
            let victim = *rng.choose(&alive);
            ov.remove(victim);
            o.remove(victim);
            removes += 1;
            format!("n={n} seed={seed} step {step}: remove {victim}")
        };
        assert_same_state(&ov, &o, &ctx);
        assert_same_ownership(&ov, &o, &mut rng, &ctx);
    }
}

/// Keys placed so that distances tie exactly: pairs mirrored around a
/// member, and the antipode of a member (equally far both ways round).
#[test]
fn equidistant_members_resolve_toward_the_smaller_key() {
    for seed in 0..6u64 {
        let mut rng = SimRng::new(0x7469_6573 ^ seed);
        let mut ov = Overlay::build(1, seed, &prox);
        let mut o = Oracle::build(1, seed);
        let centre = ov.key_of(0);
        let mut offsets = vec![1u128 << 127];
        for _ in 0..5 {
            let d = random_key(&mut rng).0 >> rng.range_usize(1, 100);
            offsets.extend([d, d.wrapping_neg()]);
        }
        for (i, d) in offsets.into_iter().enumerate() {
            let key = NodeKey(centre.0.wrapping_add(d));
            let (_, path) = ov.join(key, 0, &prox);
            o.join(key, &path);
            let ctx = format!("seed={seed} mirrored join {i}");
            assert_same_state(&ov, &o, &ctx);
            assert_same_ownership(&ov, &o, &mut rng, &ctx);
            // Around the centre every mirrored pair ties.
            for count in 1..=ov.alive_count() + 1 {
                assert_eq!(
                    ov.nearest_members(centre, count),
                    o.replica_group(centre, count - 1),
                    "{ctx}: {count} nearest to the centre"
                );
            }
        }
    }
}
