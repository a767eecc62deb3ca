//! The system auditor: checkpointed global invariant checks.
//!
//! When enabled (`EngineConfig::audit`), the engine snapshots nothing and
//! instruments nothing on the data path beyond a per-delivery bitset
//! update; instead the auditor periodically sweeps the whole engine state
//! and cross-checks independent books against each other:
//!
//! 1. **Data-unit conservation** — every generated unit is delivered or
//!    dropped exactly once; at any event boundary
//!    `generated = delivered + drops + in flight + queued + on CPU`,
//!    exactly (u64 arithmetic, no tolerance).
//! 2. **Drop attribution** — the per-node NIC drop counters sum to the
//!    run report's sender/receiver drop causes plus control-plane drops.
//! 3. **Ledger consistency** — each node's committed rates equal the sum
//!    of the live applications' reservations (recomputed from the same
//!    formula installation uses) and never exceed capacity × headroom.
//! 4. **Registry consistency** — DHT discovery matches the ground-truth
//!    provider sets and every registered service stays fully replicated,
//!    including after churn.
//! 5. **Sequence exactly-once** — no destination sees a substream
//!    sequence number twice, nor one the source never emitted.
//! 6. **Rollback exactness** — a rejected composition leaves the
//!    `SystemView` bit-equal to its pre-compose snapshot (checked at the
//!    rejection site in `handle_submit`).
//! 7. **Event-queue liveness** — the backlog drains at teardown: no
//!    stranded events, no cancellation tombstones, no stuck units.
//!
//! Violations are collected as human-readable messages (and, in debug
//! builds, fail fast via `debug_assert!` so `RASC_AUDIT=1 cargo test`
//! turns every engine test into an invariant check).

use super::{EngineState, Event};
use crate::metrics::DropCause;
use crate::model::AppId;
use desim::EventQueue;
use std::collections::HashMap;

/// Upper bound on retained violation messages (protects against a broken
/// invariant flooding memory in a long soak; the count is still exact).
const MAX_RETAINED: usize = 200;

/// Outcome of an audited run.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Number of mid-run checkpoints performed.
    pub checkpoints: u64,
    /// Whether the final teardown check ran.
    pub final_checked: bool,
    /// Human-readable violation messages, at most `MAX_RETAINED`.
    pub violations: Vec<String>,
    /// Violations beyond the retention bound (0 in any healthy run).
    pub suppressed: u64,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Total violation count (retained + suppressed).
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }
}

/// Per-(app, substream) delivered-sequence bitset.
#[derive(Default)]
struct SeenSeqs {
    words: Vec<u64>,
    count: u64,
}

/// The engine's invariant checker (see the module docs for the list).
pub(super) struct Auditor {
    pub(super) report: AuditReport,
    seen: HashMap<(AppId, usize), SeenSeqs>,
}

impl Auditor {
    pub(super) fn new() -> Self {
        Auditor {
            report: AuditReport::default(),
            seen: HashMap::new(),
        }
    }

    pub(super) fn violation(&mut self, msg: String) {
        if self.report.violations.len() < MAX_RETAINED {
            self.report.violations.push(msg);
        } else {
            self.report.suppressed += 1;
        }
    }

    /// Invariant 5, recorded at each destination delivery.
    pub(super) fn record_delivery(&mut self, app: AppId, substream: usize, seq: u64, bound: u64) {
        if seq >= bound {
            self.violation(format!(
                "sequence: app {app} substream {substream} delivered seq {seq} >= next_seq {bound}"
            ));
        }
        let set = self.seen.entry((app, substream)).or_default();
        let (w, b) = ((seq / 64) as usize, seq % 64);
        if set.words.len() <= w {
            set.words.resize(w + 1, 0);
        }
        if set.words[w] >> b & 1 == 1 {
            self.violation(format!(
                "sequence: app {app} substream {substream} seq {seq} delivered twice"
            ));
        } else {
            set.words[w] |= 1 << b;
            set.count += 1;
        }
    }

    /// One mid-run sweep over the whole engine state.
    pub(super) fn checkpoint(&mut self, st: &EngineState, q: &EventQueue<Event>) {
        self.report.checkpoints += 1;
        self.check_conservation(st, false);
        self.check_attribution(st);
        self.check_ledger(st);
        self.check_deliveries(st);
        self.check_registry(st);
        if q.total_fired() > q.total_scheduled() {
            self.violation(format!(
                "queue: fired {} > scheduled {}",
                q.total_fired(),
                q.total_scheduled()
            ));
        }
        if q.cancelled_backlog() > q.raw_len() {
            self.violation(format!(
                "queue: {} cancellation tombstones exceed {} heap entries",
                q.cancelled_backlog(),
                q.raw_len()
            ));
        }
        debug_assert!(
            self.report.clean(),
            "audit violations: {:#?}",
            self.report.violations
        );
    }

    /// The teardown check: everything above plus liveness — the event
    /// backlog must have drained and no unit may be stranded anywhere.
    pub(super) fn final_check(&mut self, st: &EngineState, q: &EventQueue<Event>, drained: bool) {
        self.report.final_checked = true;
        if !drained {
            self.violation("liveness: event queue failed to drain at teardown".into());
        }
        if q.pending_len() != 0 || q.raw_len() != 0 {
            self.violation(format!(
                "liveness: {} pending / {} heap events after drain",
                q.pending_len(),
                q.raw_len()
            ));
        }
        if q.cancelled_backlog() != 0 {
            self.violation(format!(
                "liveness: {} cancellation tombstones after drain",
                q.cancelled_backlog()
            ));
        }
        if st.in_flight_net != 0 {
            self.violation(format!(
                "liveness: {} units still in network flight after drain",
                st.in_flight_net
            ));
        }
        for (v, node) in st.nodes.iter().enumerate() {
            if !node.sched.is_empty() {
                self.violation(format!(
                    "liveness: node {v} still queues {} units after drain",
                    node.sched.len()
                ));
            }
            if !node.running.is_empty() {
                self.violation(format!(
                    "liveness: node {v} still busy with {} units after drain",
                    node.running.len()
                ));
            }
        }
        self.check_conservation(st, true);
        self.check_attribution(st);
        self.check_ledger(st);
        self.check_deliveries(st);
        self.check_registry(st);
        debug_assert!(
            self.report.clean(),
            "audit violations: {:#?}",
            self.report.violations
        );
    }

    /// Invariant 1: exact unit conservation at an event boundary.
    fn check_conservation(&mut self, st: &EngineState, at_teardown: bool) {
        let delivered: u64 = st
            .apps
            .iter()
            .flat_map(|a| a.trackers.iter())
            .map(|t| t.delivered())
            .sum();
        let drops = st.report.total_drops();
        let queued: u64 = st.nodes.iter().map(|n| n.sched.len() as u64).sum();
        let running: u64 = st.nodes.iter().map(|n| n.running.len() as u64).sum();
        let accounted = delivered + drops + st.in_flight_net + queued + running;
        if accounted != st.report.generated {
            self.violation(format!(
                "conservation{}: generated {} != delivered {delivered} + drops {drops} \
                 + in-flight {} + queued {queued} + running {running}",
                if at_teardown { " (teardown)" } else { "" },
                st.report.generated,
                st.in_flight_net,
            ));
        }
        // Store accounting: the SoA slab's live-unit count must equal the
        // units still outstanding (in flight + queued + on CPU). A live
        // unit beyond that is a storage leak (a drop path forgot to
        // release); one short means a double release.
        let live = st.store.live() as u64;
        let outstanding = st.in_flight_net + queued + running;
        if live != outstanding {
            self.violation(format!(
                "store{}: {live} live units != in-flight {} + queued {queued} \
                 + running {running}",
                if at_teardown { " (teardown)" } else { "" },
                st.in_flight_net,
            ));
        }
    }

    /// Invariant 2: NIC drop counters attribute exactly to drop causes.
    fn check_attribution(&mut self, st: &EngineState) {
        let n = st.nodes.len();
        let net_out: u64 = (0..n).map(|v| st.net.stats(v).drops_out).sum();
        let net_in: u64 = (0..n).map(|v| st.net.stats(v).drops_in).sum();
        let want_out = st.report.drops[DropCause::NetSender as usize] + st.control_drops_out;
        let want_in = st.report.drops[DropCause::NetReceiver as usize] + st.control_drops_in;
        if net_out != want_out {
            self.violation(format!(
                "attribution: NIC sender drops {net_out} != unit drops + control drops {want_out}"
            ));
        }
        if net_in != want_in {
            self.violation(format!(
                "attribution: NIC receiver drops {net_in} != unit drops + control drops {want_in}"
            ));
        }
    }

    /// Invariant 3: committed-rate ledger equals the live reservations
    /// and respects the admission bound.
    fn check_ledger(&mut self, st: &EngineState) {
        let n = st.nodes.len();
        let mut want = vec![(0.0f64, 0.0f64, 0.0f64); n];
        for app in st.apps.iter().filter(|a| a.active) {
            super::for_each_commitment(&st.catalog, &app.req, &app.graph, &mut |v, i, o, c| {
                want[v].0 += i;
                want[v].1 += o;
                want[v].2 += c;
            });
        }
        // Bits/s tolerance: FP accumulation dust, orders of magnitude
        // below any real reservation (one unit/s is ~8000 bits/s).
        let tol = 1.0;
        for (v, want) in want.iter().enumerate() {
            let node = &st.nodes[v];
            if (node.committed_in - want.0).abs() > tol || (node.committed_out - want.1).abs() > tol
            {
                self.violation(format!(
                    "ledger: node {v} committed ({:.1}, {:.1}) != live reservations \
                     ({:.1}, {:.1}) bits/s",
                    node.committed_in, node.committed_out, want.0, want.1
                ));
            }
            if (node.committed_cpu - want.2).abs() > 1e-6 {
                self.violation(format!(
                    "ledger: node {v} committed CPU {:.6} != live reservations {:.6} cores",
                    node.committed_cpu, want.2
                ));
            }
            if node.alive {
                let spec = st.net.topology().spec(v);
                let head = st.config.admission_headroom;
                let slack = 64.0 + spec.bw_in.max(spec.bw_out) * 1e-9;
                if node.committed_in > spec.bw_in * head + slack {
                    self.violation(format!(
                        "ledger: node {v} committed_in {:.1} exceeds {:.1} × {head}",
                        node.committed_in, spec.bw_in
                    ));
                }
                if node.committed_out > spec.bw_out * head + slack {
                    self.violation(format!(
                        "ledger: node {v} committed_out {:.1} exceeds {:.1} × {head}",
                        node.committed_out, spec.bw_out
                    ));
                }
                if let Some(cores) = st.config.cpu_cores {
                    if node.committed_cpu > cores * head + 1e-6 {
                        self.violation(format!(
                            "ledger: node {v} committed CPU {:.4} exceeds {cores} × {head}",
                            node.committed_cpu
                        ));
                    }
                }
            }
        }
    }

    /// Invariant 5 (aggregate): tracker counts match the audited bitsets,
    /// so no delivery bypassed the exactly-once bookkeeping.
    fn check_deliveries(&mut self, st: &EngineState) {
        for (a, app) in st.apps.iter().enumerate() {
            for (l, tr) in app.trackers.iter().enumerate() {
                let seen = self.seen.get(&(a, l)).map_or(0, |s| s.count);
                if tr.delivered() != seen {
                    self.violation(format!(
                        "sequence: app {a} substream {l} tracker delivered {} != {} audited",
                        tr.delivered(),
                        seen
                    ));
                }
            }
        }
    }

    /// Invariant 4: the service registry stayed consistent under churn.
    fn check_registry(&mut self, st: &EngineState) {
        for msg in st.dir.audit(&st.overlay) {
            self.violation(msg);
        }
    }
}

/// FNV-1a over a word stream: the run-digest hash. Stable across
/// platforms and thread counts; used to prove two soak runs identical.
pub fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_is_order_sensitive_and_stable() {
        let a = fnv1a64([1, 2, 3]);
        let b = fnv1a64([1, 2, 3]);
        let c = fnv1a64([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(fnv1a64([]), 0);
    }

    #[test]
    fn report_counts_and_caps_violations() {
        let mut aud = Auditor::new();
        assert!(aud.report.clean());
        for i in 0..(MAX_RETAINED + 10) {
            aud.violation(format!("v{i}"));
        }
        assert_eq!(aud.report.violations.len(), MAX_RETAINED);
        assert_eq!(aud.report.suppressed, 10);
        assert_eq!(aud.report.violation_count(), MAX_RETAINED as u64 + 10);
        assert!(!aud.report.clean());
    }

    #[test]
    fn duplicate_and_out_of_range_sequences_flagged() {
        let mut aud = Auditor::new();
        aud.record_delivery(0, 0, 3, 10);
        aud.record_delivery(0, 0, 4, 10);
        assert!(aud.report.clean());
        aud.record_delivery(0, 0, 3, 10); // duplicate
        aud.record_delivery(0, 1, 12, 10); // beyond next_seq
        assert_eq!(aud.report.violation_count(), 2);
    }
}
