//! Pastry per-node routing state: the routing table and the leaf set.

use crate::key::{NodeKey, DIGIT_BASE, NUM_DIGITS};
use crate::MemberId;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// A routing-table entry: another member and its key.
pub(crate) type Entry = Option<(NodeKey, MemberId)>;

/// Pastry routing table: up to `NUM_DIGITS` rows × `DIGIT_BASE` columns.
///
/// Row `r` holds nodes sharing exactly `r` leading digits with the owner;
/// column `c` selects the value of digit `r`. The owner's own column in
/// each row is conceptually the owner itself and stays `None`.
///
/// Rows are allocated up to the deepest one ever populated: among `n`
/// random keys nothing lands below row `⌈log₁₆ n⌉ + 1`, and 32 eager rows
/// are 24 KB per node.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    owner_key: NodeKey,
    rows: Vec<[Entry; DIGIT_BASE]>,
}

impl RoutingTable {
    /// Creates an empty table for a node with key `owner_key`.
    pub fn new(owner_key: NodeKey) -> Self {
        RoutingTable {
            owner_key,
            rows: Vec::new(),
        }
    }

    /// The key this table belongs to.
    pub fn owner_key(&self) -> NodeKey {
        self.owner_key
    }

    /// The entry at `(row, col)`, if populated.
    pub fn entry(&self, row: usize, col: usize) -> Option<(NodeKey, MemberId)> {
        self.rows.get(row).and_then(|r| r[col])
    }

    /// Offers a candidate node. It is placed at its unique `(row, col)`
    /// slot; an existing occupant is displaced only when the candidate is
    /// strictly closer by `proximity` (Pastry's locality heuristic).
    pub fn consider<P: Fn(MemberId) -> f64>(
        &mut self,
        key: NodeKey,
        member: MemberId,
        proximity: P,
    ) -> bool {
        if key == self.owner_key {
            return false;
        }
        let row = self.owner_key.shared_prefix_len(key);
        debug_assert!(row < NUM_DIGITS, "distinct keys share < 32 digits");
        let col = key.digit(row);
        if self.rows.len() <= row {
            self.rows.resize(row + 1, [None; DIGIT_BASE]);
        }
        match self.rows[row][col] {
            None => {
                self.rows[row][col] = Some((key, member));
                true
            }
            Some((_, existing))
                if existing != member && proximity(member) < proximity(existing) =>
            {
                self.rows[row][col] = Some((key, member));
                true
            }
            _ => false,
        }
    }

    /// Drops the entry referring to `member`, whose key is `key` (used on
    /// node failure). [`consider`](Self::consider) files a node only under
    /// the slot its key maps to, so that slot is the only one to check.
    pub fn evict(&mut self, key: NodeKey, member: MemberId) {
        let row = self.owner_key.shared_prefix_len(key);
        if let Some(slot) = self.rows.get_mut(row).map(|r| &mut r[key.digit(row)]) {
            if matches!(slot, Some((_, m)) if *m == member) {
                *slot = None;
            }
        }
    }

    /// The entry Pastry's main case consults for `target`: row = length of
    /// the shared prefix, column = target's next digit.
    pub fn next_hop(&self, target: NodeKey) -> Option<(NodeKey, MemberId)> {
        let row = self.owner_key.shared_prefix_len(target);
        if row >= NUM_DIGITS {
            return None; // target == owner
        }
        self.entry(row, target.digit(row))
    }

    /// Iterates over all populated entries.
    pub fn entries(&self) -> impl Iterator<Item = (NodeKey, MemberId)> + '_ {
        self.rows.iter().flatten().filter_map(|e| *e)
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// True when no entry is populated.
    pub fn is_empty(&self) -> bool {
        self.entries().next().is_none()
    }
}

/// The members of `ring` other than the one at `key`, walked clockwise and
/// counter-clockwise from `key`: each walk is a full lap, nearest first.
pub(crate) fn ring_walks(
    ring: &BTreeMap<NodeKey, MemberId>,
    key: NodeKey,
) -> (
    impl Iterator<Item = (NodeKey, MemberId)> + '_,
    impl Iterator<Item = (NodeKey, MemberId)> + '_,
) {
    let pair = |(&k, &m): (&NodeKey, &MemberId)| (k, m);
    let (below, above) = (ring.range(..key), ring.range((Excluded(key), Unbounded)));
    (
        above.clone().chain(below.clone()).map(pair),
        below.rev().chain(above.rev()).map(pair),
    )
}

/// Pastry leaf set: the `l/2` numerically closest members on each side of
/// the owner on the ring.
#[derive(Clone, Debug)]
pub struct LeafSet {
    owner_key: NodeKey,
    half: usize,
    /// Clockwise (successor) neighbors, sorted by increasing clockwise
    /// distance from the owner.
    cw: Vec<(NodeKey, MemberId)>,
    /// Counter-clockwise (predecessor) neighbors, sorted by increasing
    /// counter-clockwise distance.
    ccw: Vec<(NodeKey, MemberId)>,
}

impl LeafSet {
    /// Creates an empty leaf set holding up to `l / 2` nodes per side.
    pub fn new(owner_key: NodeKey, l: usize) -> Self {
        assert!(
            l >= 2 && l.is_multiple_of(2),
            "leaf set size must be even and ≥ 2"
        );
        LeafSet {
            owner_key,
            half: l / 2,
            cw: Vec::new(),
            ccw: Vec::new(),
        }
    }

    /// The converged leaf set of `owner_key` on `ring`: the `l / 2` nearest
    /// other members in each direction, read off the ring order (what
    /// offering every member to [`consider`](Self::consider) would keep).
    /// On a ring of at most `l / 2` others both sides hold all of them.
    pub fn from_ring(owner_key: NodeKey, l: usize, ring: &BTreeMap<NodeKey, MemberId>) -> Self {
        let mut set = LeafSet::new(owner_key, l);
        let (cw, ccw) = ring_walks(ring, owner_key);
        set.cw = cw.take(set.half).collect();
        set.ccw = ccw.take(set.half).collect();
        set
    }

    /// The key this leaf set belongs to.
    pub fn owner_key(&self) -> NodeKey {
        self.owner_key
    }

    /// Clockwise (successor) leaves, nearest first.
    pub fn clockwise(&self) -> &[(NodeKey, MemberId)] {
        &self.cw
    }

    /// Counter-clockwise (predecessor) leaves, nearest first.
    pub fn counter_clockwise(&self) -> &[(NodeKey, MemberId)] {
        &self.ccw
    }

    /// Offers a candidate; it is kept if it ranks within the closest
    /// `l/2` on either side. Returns whether the set changed.
    pub fn consider(&mut self, key: NodeKey, member: MemberId) -> bool {
        if key == self.owner_key {
            return false;
        }
        let mut changed = false;
        let dcw = self.owner_key.clockwise_distance(key);
        if Self::insert_side(
            &mut self.cw,
            key,
            member,
            dcw,
            self.half,
            |o, k| o.clockwise_distance(k),
            self.owner_key,
        ) {
            changed = true;
        }
        let dccw = key.clockwise_distance(self.owner_key);
        if Self::insert_side(
            &mut self.ccw,
            key,
            member,
            dccw,
            self.half,
            |o, k| k.clockwise_distance(o),
            self.owner_key,
        ) {
            changed = true;
        }
        changed
    }

    fn insert_side(
        side: &mut Vec<(NodeKey, MemberId)>,
        key: NodeKey,
        member: MemberId,
        dist: u128,
        cap: usize,
        dist_of: impl Fn(NodeKey, NodeKey) -> u128,
        owner: NodeKey,
    ) -> bool {
        if side.iter().any(|&(k, _)| k == key) {
            return false;
        }
        let pos = side
            .iter()
            .position(|&(k, _)| dist_of(owner, k) > dist)
            .unwrap_or(side.len());
        if pos >= cap {
            return false;
        }
        side.insert(pos, (key, member));
        side.truncate(cap);
        true
    }

    /// Whether `target` falls within the span covered by the leaf set
    /// (between the farthest counter-clockwise and farthest clockwise
    /// leaves, inclusive). With an empty set only the owner's own key is
    /// "in range".
    pub fn in_range(&self, target: NodeKey) -> bool {
        if target == self.owner_key {
            return true;
        }
        // When the two sides share a member the leaf set wraps the whole
        // ring (the network is no larger than the set): everything is in
        // range. This is the small-network case of Pastry's coverage test.
        if self
            .cw
            .iter()
            .any(|&(k, _)| self.ccw.iter().any(|&(k2, _)| k2 == k))
        {
            return !self.cw.is_empty();
        }
        let left = self.ccw.last().map(|&(k, _)| k).unwrap_or(self.owner_key);
        let right = self.cw.last().map(|&(k, _)| k).unwrap_or(self.owner_key);
        // Walk clockwise from `left`; target must appear before `right`.
        left.clockwise_distance(target) <= left.clockwise_distance(right)
    }

    /// The member (or owner, returned as `None`) numerically closest to
    /// `target` among the owner and all leaves.
    pub fn closest(&self, target: NodeKey) -> Option<(NodeKey, MemberId)> {
        let mut best: Option<(NodeKey, MemberId)> = None;
        let mut best_d = self.owner_key.ring_distance(target);
        for &(k, m) in self.cw.iter().chain(self.ccw.iter()) {
            let d = k.ring_distance(target);
            // Tie-break toward the smaller key for determinism.
            if d < best_d || (d == best_d && best.map_or(self.owner_key > k, |(bk, _)| bk > k)) {
                best = Some((k, m));
                best_d = d;
            }
        }
        best
    }

    /// All leaves (both sides, no particular global order).
    pub fn members(&self) -> impl Iterator<Item = (NodeKey, MemberId)> + '_ {
        self.cw.iter().chain(self.ccw.iter()).copied()
    }

    /// Number of leaves currently held.
    pub fn len(&self) -> usize {
        // Both sides may hold the same node (small networks); count unique.
        let mut ms: Vec<MemberId> = self.members().map(|(_, m)| m).collect();
        ms.sort_unstable();
        ms.dedup();
        ms.len()
    }

    /// True when no leaves are held.
    pub fn is_empty(&self) -> bool {
        self.cw.is_empty() && self.ccw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(x: u128) -> NodeKey {
        NodeKey(x << 96) // spread small ints across the top digits
    }

    #[test]
    fn routing_table_places_by_prefix_and_digit() {
        let mut t = RoutingTable::new(key(0xAB00));
        // Shares 0 digits (differs at digit 0 of the shifted value).
        // key(0xAB00) = 0x0000AB00…; digits: 0,0,0,0,A,B,…
        let other = key(0x1B00);
        t.consider(other, 7, |_| 0.0);
        let row = key(0xAB00).shared_prefix_len(other);
        let col = other.digit(row);
        assert_eq!(t.entry(row, col), Some((other, 7)));
        assert_eq!(t.next_hop(other), Some((other, 7)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn proximity_displaces_only_closer() {
        let mut t = RoutingTable::new(key(1));
        let a = key(0x8000_0001);
        let b = key(0x8000_0002);
        assert_eq!(key(1).shared_prefix_len(a), key(1).shared_prefix_len(b));
        assert_eq!(
            a.digit(key(1).shared_prefix_len(a)),
            b.digit(key(1).shared_prefix_len(b))
        );
        let prox = |m: MemberId| if m == 1 { 10.0 } else { 3.0 };
        assert!(t.consider(a, 1, prox));
        // b is closer (proximity 3 < 10): displaces a.
        assert!(t.consider(b, 2, prox));
        assert_eq!(t.next_hop(a).map(|(_, m)| m), Some(2));
        // Re-offering the farther node does not displace.
        assert!(!t.consider(a, 1, prox));
    }

    #[test]
    fn owner_is_never_stored() {
        let mut t = RoutingTable::new(key(5));
        assert!(!t.consider(key(5), 0, |_| 0.0));
        assert!(t.is_empty());
    }

    #[test]
    fn evict_clears_member() {
        let mut t = RoutingTable::new(key(1));
        t.consider(key(0x9000), 4, |_| 0.0);
        t.consider(key(0x00F0_0000), 9, |_| 0.0);
        assert_eq!(t.len(), 2);
        t.evict(key(0x9000), 4);
        assert_eq!(t.len(), 1);
        assert!(t.entries().all(|(_, m)| m == 9));
        // A member that lost its slot to a closer one is not there to evict.
        t.evict(key(0x00F0_0001), 5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rows_grow_to_the_deepest_populated_one() {
        let mut t = RoutingTable::new(key(1));
        assert_eq!(t.entry(31, 0), None);
        assert_eq!(t.next_hop(key(0x9000)), None);
        t.consider(key(0x9000), 4, |_| 0.0);
        assert_eq!(t.rows.len(), key(1).shared_prefix_len(key(0x9000)) + 1);
        t.evict(NodeKey(key(1).0 ^ 1), 8); // deepest row, never allocated
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn from_ring_matches_offering_everyone() {
        for n in [1usize, 2, 3, 4, 5, 9] {
            let ring: BTreeMap<NodeKey, MemberId> = (0..n)
                .map(|m| (NodeKey((m as u128 * 37) << 120), m))
                .collect();
            for &owner in ring.keys() {
                let mut want = LeafSet::new(owner, 4);
                for (&k, &m) in &ring {
                    want.consider(k, m);
                }
                let got = LeafSet::from_ring(owner, 4, &ring);
                assert_eq!(
                    (got.cw, got.ccw),
                    (want.cw, want.ccw),
                    "n={n} owner={owner}"
                );
            }
        }
    }

    #[test]
    fn leafset_keeps_closest_per_side() {
        let owner = NodeKey(1000);
        let mut ls = LeafSet::new(owner, 4); // 2 per side
        for (i, k) in [1010u128, 1020, 1030, 990, 980, 970].iter().enumerate() {
            ls.consider(NodeKey(*k), i);
        }
        let cw: Vec<u128> = ls.cw.iter().map(|&(k, _)| k.0).collect();
        let ccw: Vec<u128> = ls.ccw.iter().map(|&(k, _)| k.0).collect();
        assert_eq!(cw, vec![1010, 1020]);
        assert_eq!(ccw, vec![990, 980]);
    }

    #[test]
    fn leafset_in_range_and_closest() {
        let owner = NodeKey(1000);
        let mut ls = LeafSet::new(owner, 4);
        for (i, k) in [1010u128, 1020, 990, 980].iter().enumerate() {
            ls.consider(NodeKey(*k), i);
        }
        assert!(ls.in_range(NodeKey(1005)));
        assert!(ls.in_range(NodeKey(985)));
        assert!(ls.in_range(NodeKey(1000)));
        assert!(!ls.in_range(NodeKey(2000)));
        assert!(!ls.in_range(NodeKey(100)));
        // 1012 is closest to leaf 1010 (member 0).
        assert_eq!(ls.closest(NodeKey(1012)).map(|(_, m)| m), Some(0));
        // 1001 is closest to the owner: closest() returns None... no —
        // closest() only considers improvement over the owner; owner wins.
        assert_eq!(ls.closest(NodeKey(1001)), None);
    }

    #[test]
    fn leafset_wraps_around_ring() {
        let owner = NodeKey(u128::MAX - 10);
        let mut ls = LeafSet::new(owner, 4);
        ls.consider(NodeKey(5), 0); // clockwise across the wrap
        ls.consider(NodeKey(u128::MAX - 50), 1); // counter-clockwise
        assert!(ls.in_range(NodeKey(0)));
        assert!(ls.in_range(NodeKey(u128::MAX - 30)));
        assert_eq!(ls.closest(NodeKey(3)).map(|(_, m)| m), Some(0));
    }

    #[test]
    fn leafset_dedup() {
        let owner = NodeKey(100);
        let mut ls = LeafSet::new(owner, 4);
        assert!(ls.is_empty());
        assert!(ls.consider(NodeKey(110), 0));
        assert!(!ls.consider(NodeKey(110), 0), "duplicate ignored");
        assert!(ls.consider(NodeKey(90), 1));
        assert_eq!(ls.len(), 2);
        assert!(!ls.is_empty());
    }

    #[test]
    fn small_network_same_node_on_both_sides() {
        // Two nodes: the other node is both successor and predecessor.
        let owner = NodeKey(0);
        let mut ls = LeafSet::new(owner, 8);
        ls.consider(NodeKey(1 << 100), 1);
        assert_eq!(ls.cw.len(), 1);
        assert_eq!(ls.ccw.len(), 1);
        assert_eq!(ls.len(), 1, "unique count collapses duplicates");
        assert!(ls.in_range(NodeKey(42)));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_leafset_size_rejected() {
        LeafSet::new(NodeKey(0), 3);
    }
}
