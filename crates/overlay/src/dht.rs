//! A multi-value DHT on top of the overlay: the service registry.
//!
//! RASC registers `service → providing node` entries under the hash of the
//! service name and looks them up at composition time (paper §3.3). Each
//! key's entries live on the key's owner and are replicated to the owner's
//! closest leaf-set neighbors so single-node failures lose nothing.

use crate::key::NodeKey;
use crate::overlay::Overlay;
use crate::MemberId;
use std::collections::{BTreeSet, HashMap};

/// Result of a DHT lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupResult<V> {
    /// The values registered under the key (empty if none).
    pub values: Vec<V>,
    /// The overlay route the lookup traversed (starts at the querying
    /// member, ends at the node that answered).
    pub path: Vec<MemberId>,
}

/// A replicated multi-value store keyed by overlay keys.
///
/// The `Dht` holds per-member storage; routing questions are delegated to
/// the [`Overlay`] passed into each call (the caller owns both, mirroring
/// how RASC layers its registry over Pastry).
#[derive(Clone, Debug)]
pub struct Dht<V> {
    /// Per-member storage. Indexed by `MemberId`.
    stores: Vec<HashMap<NodeKey, BTreeSet<V>>>,
    /// Replication degree: the owner plus `replicas` leaf neighbors hold
    /// each entry.
    replicas: usize,
}

impl<V: Clone + Ord> Dht<V> {
    /// Creates an empty store for an overlay of (at least) `n` members,
    /// replicating each entry to the owner plus `replicas` neighbors.
    pub fn new(n: usize, replicas: usize) -> Self {
        Dht {
            stores: vec![HashMap::new(); n],
            replicas,
        }
    }

    fn ensure_capacity(&mut self, m: MemberId) {
        if m >= self.stores.len() {
            self.stores.resize_with(m + 1, HashMap::new);
        }
    }

    /// The owner and its replica group for `key`: the owner first (at
    /// distance zero from its own key), then the `replicas` alive members
    /// nearest to the owner's key.
    fn replica_group(&self, overlay: &Overlay, key: NodeKey) -> Vec<MemberId> {
        let owner_key = overlay.key_of(overlay.owner_of(key));
        overlay.nearest_members(owner_key, self.replicas + 1)
    }

    /// Registers `value` under `key`, routing from `from`. Returns the
    /// overlay path taken to reach the owner.
    pub fn insert(
        &mut self,
        overlay: &Overlay,
        from: MemberId,
        key: NodeKey,
        value: V,
    ) -> Vec<MemberId> {
        let path = overlay.route_path(from, key);
        for m in self.replica_group(overlay, key) {
            self.ensure_capacity(m);
            self.stores[m].entry(key).or_default().insert(value.clone());
        }
        path
    }

    /// Removes `value` from `key`'s entry set (on every replica).
    pub fn remove(&mut self, overlay: &Overlay, key: NodeKey, value: &V) {
        for m in self.replica_group(overlay, key) {
            if m < self.stores.len() {
                if let Some(set) = self.stores[m].get_mut(&key) {
                    set.remove(value);
                }
            }
        }
    }

    /// Looks up `key`, routing from `from`. Reads the owner's store; if the
    /// owner has no entry (e.g. it just took over from a failed node and
    /// re-replication has not run) the replica group is consulted.
    pub fn lookup(&self, overlay: &Overlay, from: MemberId, key: NodeKey) -> LookupResult<V> {
        let path = overlay.route_path(from, key);
        let answered_by = *path.last().expect("path never empty");
        let direct = self
            .stores
            .get(answered_by)
            .and_then(|s| s.get(&key))
            .map(|set| set.iter().cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        if !direct.is_empty() {
            return LookupResult {
                values: direct,
                path,
            };
        }
        for m in self.replica_group(overlay, key) {
            if let Some(set) = self.stores.get(m).and_then(|s| s.get(&key)) {
                if !set.is_empty() {
                    return LookupResult {
                        values: set.iter().cloned().collect(),
                        path,
                    };
                }
            }
        }
        LookupResult {
            values: Vec::new(),
            path,
        }
    }

    /// Re-replicates entries after membership changed (new owner takes
    /// over a failed node's keys from the surviving replicas). Models the
    /// converged state of Pastry's replica maintenance.
    pub fn repair(&mut self, overlay: &Overlay) {
        // Gather all (key, value) pairs from alive stores, then rewrite
        // each key's replica group.
        let mut all: HashMap<NodeKey, BTreeSet<V>> = HashMap::new();
        for m in overlay.alive_members() {
            if let Some(store) = self.stores.get(m) {
                for (k, vs) in store {
                    all.entry(*k).or_default().extend(vs.iter().cloned());
                }
            }
        }
        for store in &mut self.stores {
            store.clear();
        }
        for (key, values) in all {
            for m in self.replica_group(overlay, key) {
                self.ensure_capacity(m);
                self.stores[m].insert(key, values.clone());
            }
        }
    }

    /// Configured replication degree beyond the owner.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of *alive* members holding a non-empty entry set for `key`
    /// — the key's effective replication. After churn plus
    /// [`repair`](Self::repair) this must be back at
    /// `min(replicas + 1, alive members)` for every stored key; auditors
    /// check exactly that.
    pub fn replication_of(&self, overlay: &Overlay, key: NodeKey) -> usize {
        overlay
            .alive_members()
            .filter(|&m| {
                self.stores
                    .get(m)
                    .and_then(|s| s.get(&key))
                    .is_some_and(|set| !set.is_empty())
            })
            .count()
    }

    /// Total number of (key, value) pairs stored across all members
    /// (counting replicas).
    pub fn stored_pairs(&self) -> usize {
        self.stores
            .iter()
            .flat_map(|s| s.values())
            .map(|set| set.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::stable_hash128;

    fn flat(_: MemberId, _: MemberId) -> f64 {
        1.0
    }

    fn setup(n: usize) -> (Overlay, Dht<u32>) {
        let ov = Overlay::build(n, 77, &flat);
        let dht = Dht::new(n, 2);
        (ov, dht)
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let (ov, mut dht) = setup(16);
        let key = stable_hash128(b"transcode");
        dht.insert(&ov, 0, key, 5);
        dht.insert(&ov, 3, key, 9);
        let r = dht.lookup(&ov, 12, key);
        assert_eq!(r.values, vec![5, 9]);
        assert_eq!(*r.path.last().unwrap(), ov.owner_of(key));
        assert_eq!(r.path[0], 12);
    }

    #[test]
    fn missing_key_returns_empty() {
        let (ov, dht) = setup(8);
        let r = dht.lookup(&ov, 0, stable_hash128(b"nothing"));
        assert!(r.values.is_empty());
        assert!(!r.path.is_empty());
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let (ov, mut dht) = setup(8);
        let key = stable_hash128(b"filter");
        dht.insert(&ov, 0, key, 1);
        dht.insert(&ov, 1, key, 1);
        assert_eq!(dht.lookup(&ov, 2, key).values, vec![1]);
    }

    #[test]
    fn remove_deletes_from_all_replicas() {
        let (ov, mut dht) = setup(8);
        let key = stable_hash128(b"agg");
        dht.insert(&ov, 0, key, 4);
        dht.insert(&ov, 0, key, 6);
        dht.remove(&ov, key, &4);
        assert_eq!(dht.lookup(&ov, 5, key).values, vec![6]);
    }

    #[test]
    fn survives_owner_failure_via_replicas() {
        let (mut ov, mut dht) = setup(16);
        let key = stable_hash128(b"vital-service");
        dht.insert(&ov, 0, key, 42);
        let owner = ov.owner_of(key);
        ov.remove(owner);
        // Even before repair, replicas answer.
        let alive0 = ov.alive_members().next().unwrap();
        let r = dht.lookup(&ov, alive0, key);
        assert_eq!(r.values, vec![42], "lost data after owner failure");
        // After repair the new owner serves directly.
        dht.repair(&ov);
        let new_owner = ov.owner_of(key);
        let r2 = dht.lookup(&ov, alive0, key);
        assert_eq!(r2.values, vec![42]);
        assert_eq!(*r2.path.last().unwrap(), new_owner);
    }

    #[test]
    fn replication_degree_counted() {
        let (ov, mut dht) = setup(16);
        let key = stable_hash128(b"svc");
        dht.insert(&ov, 0, key, 7);
        // Owner + 2 replicas.
        assert_eq!(dht.stored_pairs(), 3);
    }

    #[test]
    fn replication_recovers_after_churn_and_repair() {
        let (mut ov, mut dht) = setup(16);
        let key = stable_hash128(b"replicated-svc");
        dht.insert(&ov, 0, key, 11);
        assert_eq!(dht.replication_of(&ov, key), dht.replicas() + 1);
        // Kill the whole replica group one by one, repairing after each
        // failure; the key must return to full replication every time.
        for _ in 0..3 {
            let owner = ov.owner_of(key);
            ov.remove(owner);
            dht.repair(&ov);
            let want = (dht.replicas() + 1).min(ov.alive_count());
            assert_eq!(dht.replication_of(&ov, key), want);
            let alive0 = ov.alive_members().next().unwrap();
            assert_eq!(dht.lookup(&ov, alive0, key).values, vec![11]);
        }
    }

    #[test]
    fn many_services_distribute_across_owners() {
        let (ov, mut dht) = setup(32);
        let mut owners = BTreeSet::new();
        for i in 0..10u32 {
            let key = stable_hash128(format!("service-{i}").as_bytes());
            dht.insert(&ov, 0, key, i);
            owners.insert(ov.owner_of(key));
        }
        assert!(
            owners.len() >= 5,
            "10 services landed on only {} owners",
            owners.len()
        );
    }
}
