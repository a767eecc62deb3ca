//! Service placement and DHT-backed component discovery (§3.3).
//!
//! Every node hosts a subset of the catalog's services. Each (service,
//! host) pair is registered in the Pastry DHT under the hash of the
//! service name; composition looks the providers up through the overlay
//! and the lookup's hop count × link latencies become the discovery
//! latency charged to the request.

use crate::model::{ServiceCatalog, ServiceId};
use desim::SimRng;
use overlay::{stable_hash128, Dht, NodeKey, Overlay};
use simnet::NodeId;

/// Who offers which service, plus the DHT registry used to discover it.
#[derive(Clone, Debug)]
pub struct ServiceDirectory {
    /// `offers[node]` = sorted service ids hosted by that node.
    offers: Vec<Vec<ServiceId>>,
    /// DHT storing `hash(service name) → provider node ids`.
    dht: Dht<NodeId>,
    /// Cached service-name hashes, indexed by `ServiceId`.
    keys: Vec<NodeKey>,
}

impl ServiceDirectory {
    /// Assigns `per_node` distinct services to each of `n` nodes uniformly
    /// at random (the paper's setup: 10 services, 5 per node on 32 nodes
    /// ⇒ mean replication 16), registers everything in the DHT, and
    /// returns the directory.
    pub fn random_assignment(
        catalog: &ServiceCatalog,
        overlay: &Overlay,
        n: usize,
        per_node: usize,
        seed: u64,
    ) -> Self {
        assert!(per_node <= catalog.len(), "cannot host more than exist");
        let mut rng = SimRng::new(seed ^ 0x504C4143_454D4E54);
        let keys: Vec<NodeKey> = catalog
            .iter()
            .map(|s| stable_hash128(s.name.as_bytes()))
            .collect();
        let mut offers = Vec::with_capacity(n);
        let mut dht = Dht::new(n, 2);
        for node in 0..n {
            let mut picks = rng.sample_indices(catalog.len(), per_node);
            picks.sort_unstable();
            for &s in &picks {
                dht.insert(overlay, node, keys[s], node);
            }
            offers.push(picks);
        }
        // Guarantee coverage: every service must have at least one
        // provider or no request naming it can ever be composed. Assign
        // orphans to deterministic hosts.
        for (s, &key) in keys.iter().enumerate() {
            if !offers.iter().any(|o| o.contains(&s)) {
                let node = s % n;
                offers[node].push(s);
                offers[node].sort_unstable();
                dht.insert(overlay, node, key, node);
            }
        }
        ServiceDirectory { offers, dht, keys }
    }

    /// Explicit assignment (tests, examples): `offers[node]` lists the
    /// services node hosts.
    pub fn explicit(
        catalog: &ServiceCatalog,
        overlay: &Overlay,
        offers: Vec<Vec<ServiceId>>,
    ) -> Self {
        let keys: Vec<NodeKey> = catalog
            .iter()
            .map(|s| stable_hash128(s.name.as_bytes()))
            .collect();
        let mut dht = Dht::new(offers.len(), 2);
        for (node, served) in offers.iter().enumerate() {
            for &s in served {
                assert!(s < catalog.len(), "unknown service {s}");
                dht.insert(overlay, node, keys[s], node);
            }
        }
        ServiceDirectory { offers, dht, keys }
    }

    /// The services node `v` hosts.
    pub fn services_of(&self, v: NodeId) -> &[ServiceId] {
        &self.offers[v]
    }

    /// Whether `v` hosts service `s` (providers can instantiate any number
    /// of components of their services).
    pub fn hosts(&self, v: NodeId, s: ServiceId) -> bool {
        self.offers[v].contains(&s)
    }

    /// Discovers the providers of `service` by DHT lookup from `from`.
    /// Returns the provider set and the overlay route the query took
    /// (charged to the network by the engine).
    pub fn discover(
        &self,
        overlay: &Overlay,
        from: NodeId,
        service: ServiceId,
    ) -> (Vec<NodeId>, Vec<usize>) {
        let r = self.dht.lookup(overlay, from, self.keys[service]);
        (r.values, r.path)
    }

    /// Ground-truth provider list (no DHT traversal) — used by validators
    /// and tests to cross-check discovery.
    pub fn providers(&self, service: ServiceId) -> Vec<NodeId> {
        (0..self.offers.len())
            .filter(|&v| self.hosts(v, service))
            .collect()
    }

    /// Removes a failed node's registrations and re-replicates the
    /// registry (the failed node's services die with it; surviving
    /// replicas keep every other registration discoverable).
    pub fn handle_failure(&mut self, overlay: &Overlay, failed: NodeId) {
        let served = std::mem::take(&mut self.offers[failed]);
        // Repair FIRST, then remove. Repair consolidates every key onto
        // its *current* replica group and clears all other stores;
        // removal only touches the current group. In the other order, a
        // stale copy outside the group — left behind when an earlier
        // failure shifted a key's owner and re-anchored its replica
        // neighborhood — survives the removal, and the repair then
        // resurrects the dead provider from it (found by the chaos
        // auditor's registry check under double churn).
        self.dht.repair(overlay);
        for s in served {
            self.dht.remove(overlay, self.keys[s], &failed);
        }
    }

    /// Mean number of providers per service (the paper's "replication
    /// degree", 16 in its setup).
    pub fn mean_replication(&self) -> f64 {
        let total: usize = (0..self.keys.len()).map(|s| self.providers(s).len()).sum();
        total as f64 / self.keys.len() as f64
    }

    /// Registry-consistency audit: cross-checks DHT discovery against the
    /// ground-truth provider lists and verifies each registered service's
    /// effective replication degree. Returns one message per violation
    /// (empty = consistent). Used by the chaos auditor after churn; unlike
    /// [`discover`](Self::discover), this is an oracle check and charges
    /// nothing to the network.
    pub fn audit(&self, overlay: &Overlay) -> Vec<String> {
        let mut violations = Vec::new();
        let Some(from) = overlay.alive_members().next() else {
            return violations; // no vantage point left to query from
        };
        for s in 0..self.keys.len() {
            let truth = self.providers(s);
            let (mut found, _) = self.discover(overlay, from, s);
            found.sort_unstable();
            if found != truth {
                violations.push(format!(
                    "registry: service {s} discovery {found:?} != providers {truth:?}"
                ));
            }
            if !truth.is_empty() {
                let want = (self.dht.replicas() + 1).min(overlay.alive_count());
                let got = self.dht.replication_of(overlay, self.keys[s]);
                if got < want {
                    violations.push(format!(
                        "registry: service {s} replicated on {got} alive nodes, want {want}"
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(_: usize, _: usize) -> f64 {
        1.0
    }

    #[test]
    fn paper_setup_replication_degree() {
        // 32 nodes × 5 services each over 10 services ⇒ mean 16.
        let catalog = ServiceCatalog::synthetic(10, 1);
        let ov = Overlay::build(32, 1, &flat);
        let dir = ServiceDirectory::random_assignment(&catalog, &ov, 32, 5, 1);
        let total: usize = (0..32).map(|v| dir.services_of(v).len()).sum();
        assert!(total >= 32 * 5, "coverage fix may only add services");
        assert!((dir.mean_replication() - total as f64 / 10.0).abs() < 1e-9);
        assert!(dir.mean_replication() >= 16.0);
    }

    #[test]
    fn every_service_has_a_provider() {
        let catalog = ServiceCatalog::synthetic(10, 2);
        let ov = Overlay::build(4, 2, &flat);
        // 4 nodes × 2 services = 8 slots < 10 services: coverage fix kicks in.
        let dir = ServiceDirectory::random_assignment(&catalog, &ov, 4, 2, 2);
        for s in 0..10 {
            assert!(!dir.providers(s).is_empty(), "service {s} unprovided");
        }
    }

    #[test]
    fn discovery_matches_ground_truth() {
        let catalog = ServiceCatalog::synthetic(6, 3);
        let ov = Overlay::build(16, 3, &flat);
        let dir = ServiceDirectory::random_assignment(&catalog, &ov, 16, 3, 3);
        for s in 0..6 {
            let truth = dir.providers(s);
            for from in [0, 5, 15] {
                let (mut found, path) = dir.discover(&ov, from, s);
                found.sort_unstable();
                assert_eq!(found, truth, "service {s} from {from}");
                assert_eq!(path[0], from);
            }
        }
    }

    #[test]
    fn explicit_assignment_respected() {
        let catalog = ServiceCatalog::synthetic(3, 4);
        let ov = Overlay::build(3, 4, &flat);
        let dir = ServiceDirectory::explicit(&catalog, &ov, vec![vec![0, 1], vec![1], vec![2]]);
        assert!(dir.hosts(0, 0));
        assert!(dir.hosts(0, 1));
        assert!(!dir.hosts(1, 0));
        assert_eq!(dir.providers(1), vec![0, 1]);
        let (found, _) = dir.discover(&ov, 2, 2);
        assert_eq!(found, vec![2]);
    }

    #[test]
    fn audit_passes_through_failure_churn() {
        let catalog = ServiceCatalog::synthetic(6, 3);
        let mut ov = Overlay::build(16, 3, &flat);
        let mut dir = ServiceDirectory::random_assignment(&catalog, &ov, 16, 3, 3);
        assert_eq!(dir.audit(&ov), Vec::<String>::new());
        // Kill a third of the membership with proper failure handling:
        // the registry must stay discoverable and fully re-replicated.
        for v in [2, 7, 11, 14] {
            ov.remove(v);
            dir.handle_failure(&ov, v);
            assert_eq!(dir.audit(&ov), Vec::<String>::new(), "after failing {v}");
        }
    }

    #[test]
    fn audit_passes_through_churn_at_a_thousand_nodes() {
        // Ownership and replica groups are read off ring walks; at this
        // size a walk that stopped short or crossed would misplace some
        // service's registrations within a few failures.
        let catalog = ServiceCatalog::synthetic(10, 7);
        let mut ov = Overlay::build(1000, 7, &flat);
        let mut dir = ServiceDirectory::random_assignment(&catalog, &ov, 1000, 5, 7);
        assert_eq!(dir.audit(&ov), Vec::<String>::new());
        let mut rng = SimRng::new(7);
        for _ in 0..24 {
            // Aim half of the failures at a registry owner.
            let owner = ov.owner_of(dir.keys[rng.range_usize(0, 10)]);
            let v = if rng.chance(0.5) {
                owner
            } else {
                *rng.choose(&ov.alive_members().collect::<Vec<_>>())
            };
            ov.remove(v);
            dir.handle_failure(&ov, v);
            assert_eq!(dir.audit(&ov), Vec::<String>::new(), "after failing {v}");
        }
    }

    #[test]
    fn audit_detects_stale_registrations() {
        let catalog = ServiceCatalog::synthetic(4, 5);
        let mut ov = Overlay::build(12, 5, &flat);
        let dir = ServiceDirectory::random_assignment(&catalog, &ov, 12, 3, 5);
        // Fail nodes *without* telling the directory (no re-replication,
        // stale offers): once a replica group or provider is hit, the
        // audit must flag the inconsistency. Removing half the membership
        // guarantees a hit with replication degree 3.
        let mut flagged = false;
        for v in 0..6 {
            ov.remove(v);
            if !dir.audit(&ov).is_empty() {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "audit missed an unrepaired failure");
    }

    #[test]
    fn double_provider_failure_cannot_resurrect_registrations() {
        // Regression: with remove-before-repair in `handle_failure`, the
        // second of two sequential provider failures could come back
        // from the dead — the first failure's repair left authoritative
        // copies anchored to the old owner's ring neighborhood, removal
        // only cleaned the *new* replica group, and the trailing repair
        // resurrected the corpse from the stale out-of-group store.
        for seed in 0..24u64 {
            let catalog = ServiceCatalog::synthetic(2, seed);
            let mut ov = Overlay::build(8, seed, &flat);
            let mut offers = vec![vec![0, 1]; 6];
            offers.push(vec![]);
            offers.push(vec![]);
            let mut dir = ServiceDirectory::explicit(&catalog, &ov, offers);
            for v in [0usize, 1, 2] {
                ov.remove(v);
                dir.handle_failure(&ov, v);
                assert_eq!(
                    dir.audit(&ov),
                    Vec::<String>::new(),
                    "seed {seed} after failing {v}"
                );
            }
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let catalog = ServiceCatalog::synthetic(10, 5);
        let ov = Overlay::build(8, 5, &flat);
        let a = ServiceDirectory::random_assignment(&catalog, &ov, 8, 4, 9);
        let b = ServiceDirectory::random_assignment(&catalog, &ov, 8, 4, 9);
        for v in 0..8 {
            assert_eq!(a.services_of(v), b.services_of(v));
        }
    }
}
