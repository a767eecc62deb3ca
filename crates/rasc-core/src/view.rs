//! The composition-time view of the system (§3.2's monitoring output).
//!
//! When a request arrives, RASC gathers from the candidate hosts their
//! availability vectors `A_n = [b_in, b_out]` and recent drop ratios.
//! The [`SystemView`] is that snapshot. The engine builds a fresh view
//! per composition from its measurement windows and committed-rate
//! ledger (`max(measured, committed)` per NIC direction); within one
//! composition, the composers additionally reserve into the view as they
//! place substreams, so multi-substream requests account for their own
//! earlier placements (Algorithm 1's capacity update). All three
//! composition algorithms read the same snapshot, so they face identical
//! capacity constraints.
//!
//! At thousand-node scale the view also answers *which hosts are worth
//! considering*: a per-direction capacity-bucketed index (power-of-two
//! buckets over remaining bandwidth, kept coherent through every
//! mutation and rollback) lets [`select_top_candidates_indexed`]
//! (SystemView::select_top_candidates_indexed) return the best-k
//! providers without scanning the whole provider list — and provably
//! returns the same set as the linear reference scan.

use monitor::ResourceVector;
use simnet::{NodeId, Topology};

/// One undo-log record: the pre-mutation value of the field it names.
/// Snapshots (not arithmetic inverses) are required because
/// [`ResourceVector::consume`] clamps at zero, which a release cannot
/// invert exactly.
#[derive(Clone, Debug, PartialEq)]
enum Undo {
    Avail(NodeId, ResourceVector),
    Cpu(NodeId, f64),
}

/// Power-of-two capacity buckets. Bucket 0 holds availabilities below
/// 1 bit/s (effectively exhausted); bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. 64 buckets cover every bandwidth up to ~4.6e18
/// bits/s; anything larger clamps into the top bucket.
const NBUCKETS: usize = 64;

/// Bucket of availability `a` (see [`NBUCKETS`]).
fn bucket_of_value(a: f64) -> usize {
    if a < 1.0 {
        0
    } else {
        // floor(log2 a) via the IEEE-754 exponent; exact for a >= 1.
        let e = ((a.to_bits() >> 52) & 0x7FF) as usize - 1023;
        (e + 1).min(NBUCKETS - 1)
    }
}

/// One direction's bucket index: node ids grouped by the power-of-two
/// bucket of their remaining bandwidth, with `O(1)` swap-remove moves.
/// Bucket-internal order is history-dependent (swap-remove), so the
/// index never participates in `PartialEq` — only the multiset of
/// (node, bucket) pairs is meaningful, and that is a pure function of
/// `avail`.
#[derive(Debug, Default)]
struct DirIndex {
    buckets: Vec<Vec<u32>>,
    bucket_of: Vec<u8>,
    pos: Vec<u32>,
}

impl Clone for DirIndex {
    fn clone(&self) -> Self {
        DirIndex {
            buckets: self.buckets.clone(),
            bucket_of: self.bucket_of.clone(),
            pos: self.pos.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // `Vec::clone_from` recurses into the per-bucket vectors, so a
        // pooled index re-synced every batch stops allocating once its
        // buckets have grown to their working size.
        self.buckets.clone_from(&source.buckets);
        self.bucket_of.clone_from(&source.bucket_of);
        self.pos.clone_from(&source.pos);
    }
}

impl DirIndex {
    fn build(vals: impl ExactSizeIterator<Item = f64>) -> Self {
        let mut idx = DirIndex {
            buckets: vec![Vec::new(); NBUCKETS],
            bucket_of: Vec::with_capacity(vals.len()),
            pos: Vec::with_capacity(vals.len()),
        };
        for (v, a) in vals.enumerate() {
            let b = bucket_of_value(a);
            idx.bucket_of.push(b as u8);
            idx.pos.push(idx.buckets[b].len() as u32);
            idx.buckets[b].push(v as u32);
        }
        idx
    }

    fn update(&mut self, v: NodeId, val: f64) {
        let b = bucket_of_value(val);
        let old = self.bucket_of[v] as usize;
        if old == b {
            return;
        }
        let p = self.pos[v] as usize;
        let bucket = &mut self.buckets[old];
        bucket.swap_remove(p);
        if let Some(&moved) = bucket.get(p) {
            self.pos[moved as usize] = p as u32;
        }
        self.bucket_of[v] = b as u8;
        self.pos[v] = self.buckets[b].len() as u32;
        self.buckets[b].push(v as u32);
    }
}

/// Per-node availability snapshot used by the composers.
///
/// `PartialEq` compares the availability state bit-for-bit (floats by
/// exact equality) — this is deliberate: the auditor's rollback-exactness
/// check asserts that a rejected composition leaves the view *bit-equal*
/// to its pre-compose snapshot, not merely approximately restored. The
/// capacity index and the transaction journal are excluded: the index is
/// derived state whose bucket-internal order is history-dependent, and
/// audited comparisons happen outside transactions.
#[derive(Debug)]
pub struct SystemView {
    /// Remaining (unreserved) capacity per node: `[b_in, b_out]` bits/s.
    avail: Vec<ResourceVector>,
    /// Admittable capacity per node (NIC rate × headroom), the reference
    /// for utilization computations.
    cap: Vec<ResourceVector>,
    /// Remaining CPU per node, in cores. `INFINITY` = unconstrained
    /// (the paper's evaluated configuration; finite values implement its
    /// stated future work, "multiple resource constraints", §6).
    cpu_avail: Vec<f64>,
    /// Admittable CPU per node, in cores.
    cpu_cap: Vec<f64>,
    /// Most recent drop ratio per node (0..=1), from the monitoring
    /// windows.
    drop_ratio: Vec<f64>,
    /// Undo log of the open transaction stack (see [`begin_transaction`]
    /// (Self::begin_transaction)); empty outside one. The buffer is
    /// retained across transactions so the all-or-nothing composition
    /// path allocates nothing in steady state.
    journal: Vec<Undo>,
    /// Journal watermarks of the open transactions, innermost last:
    /// rolling back pops the journal to the top watermark, so
    /// transactions nest (a batch admitter wraps whole compositions —
    /// which open their own transactions — in an outer one it unwinds).
    marks: Vec<usize>,
    /// Per-direction capacity bucket index over `avail`.
    in_index: DirIndex,
    out_index: DirIndex,
}

impl Clone for SystemView {
    fn clone(&self) -> Self {
        SystemView {
            avail: self.avail.clone(),
            cap: self.cap.clone(),
            cpu_avail: self.cpu_avail.clone(),
            cpu_cap: self.cpu_cap.clone(),
            drop_ratio: self.drop_ratio.clone(),
            journal: self.journal.clone(),
            marks: self.marks.clone(),
            in_index: self.in_index.clone(),
            out_index: self.out_index.clone(),
        }
    }

    /// Re-syncs an existing view to `source` while reusing every heap
    /// buffer. Resource vectors are inline, so a fresh `clone()` already
    /// allocates only once per field and once per non-empty capacity
    /// bucket, whatever the node count; `clone_from` onto a same-sized
    /// view allocates nothing once those buckets have grown to their
    /// working size. The batch admitter leans on this: pooled worker
    /// views are re-synced to each batch's base snapshot instead of
    /// being re-cloned.
    fn clone_from(&mut self, source: &Self) {
        self.avail.clone_from(&source.avail);
        self.cap.clone_from(&source.cap);
        self.cpu_avail.clone_from(&source.cpu_avail);
        self.cpu_cap.clone_from(&source.cpu_cap);
        self.drop_ratio.clone_from(&source.drop_ratio);
        self.journal.clone_from(&source.journal);
        self.marks.clone_from(&source.marks);
        self.in_index.clone_from(&source.in_index);
        self.out_index.clone_from(&source.out_index);
    }
}

impl PartialEq for SystemView {
    fn eq(&self, other: &Self) -> bool {
        self.avail == other.avail
            && self.cap == other.cap
            && self.cpu_avail == other.cpu_avail
            && self.cpu_cap == other.cpu_cap
            && self.drop_ratio == other.drop_ratio
    }
}

impl SystemView {
    /// Builds a view with full capacities from the topology and zero
    /// drop ratios (fresh system).
    pub fn fresh(topology: &Topology) -> Self {
        Self::with_headroom(topology, 1.0)
    }

    /// Builds a view that only admits up to `headroom` (0, 1] of each
    /// NIC's rate. Keeping reservations below the physical rate bounds
    /// per-node utilization, and with it queueing delay — a NIC reserved
    /// to 100% runs at ρ≈1 and its delay diverges, which no admission
    /// controller deployed on a shared testbed would allow.
    pub fn with_headroom(topology: &Topology, headroom: f64) -> Self {
        assert!(headroom > 0.0 && headroom <= 1.0, "headroom in (0, 1]");
        let cap: Vec<ResourceVector> = (0..topology.len())
            .map(|v| {
                let s = topology.spec(v);
                ResourceVector::bandwidth(s.bw_in * headroom, s.bw_out * headroom)
            })
            .collect();
        let in_index = DirIndex::build(cap.iter().map(|rv| rv.get(0)));
        let out_index = DirIndex::build(cap.iter().map(|rv| rv.get(1)));
        SystemView {
            avail: cap.clone(),
            drop_ratio: vec![0.0; topology.len()],
            cpu_avail: vec![f64::INFINITY; topology.len()],
            cpu_cap: vec![f64::INFINITY; topology.len()],
            cap,
            journal: Vec::new(),
            marks: Vec::new(),
            in_index,
            out_index,
        }
    }

    /// Opens a reservation transaction: every subsequent mutation of the
    /// availability state (`avail` / `cpu_avail`) is journaled until the
    /// transaction is [committed](Self::commit_transaction) or
    /// [rolled back](Self::rollback_transaction).
    ///
    /// This replaces the composers' former whole-view `clone()` backup:
    /// a failed composition undoes only the handful of nodes it touched
    /// instead of copying (and restoring) every node's vectors.
    ///
    /// Transactions nest by journal watermark: an inner commit keeps its
    /// entries on the journal (so an enclosing rollback still restores
    /// them), an inner rollback unwinds only past its own watermark, and
    /// the journal is freed when the outermost transaction commits.
    pub fn begin_transaction(&mut self) {
        self.marks.push(self.journal.len());
    }

    /// Closes the innermost open transaction, keeping all mutations.
    pub fn commit_transaction(&mut self) {
        self.marks.pop().expect("no open transaction");
        if self.marks.is_empty() {
            self.journal.clear();
        }
    }

    /// Closes the innermost open transaction, restoring every field it
    /// journaled to its pre-transaction value (applied in reverse
    /// mutation order).
    pub fn rollback_transaction(&mut self) {
        let mark = self.marks.pop().expect("no open transaction");
        while self.journal.len() > mark {
            match self.journal.pop().unwrap() {
                Undo::Avail(v, rv) => {
                    self.avail[v] = rv;
                    self.reindex(v);
                }
                Undo::Cpu(v, c) => self.cpu_avail[v] = c,
            }
        }
    }

    /// Whether a reservation transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        !self.marks.is_empty()
    }

    fn log_avail(&mut self, v: NodeId) {
        if !self.marks.is_empty() {
            self.journal.push(Undo::Avail(v, self.avail[v]));
        }
    }

    fn log_cpu(&mut self, v: NodeId) {
        if !self.marks.is_empty() {
            self.journal.push(Undo::Cpu(v, self.cpu_avail[v]));
        }
    }

    /// Re-files node `v` in the capacity index after an `avail` change.
    fn reindex(&mut self, v: NodeId) {
        self.in_index.update(v, self.avail[v].get(0));
        self.out_index.update(v, self.avail[v].get(1));
    }

    /// Enables the CPU dimension for node `v` with `cores` of admittable
    /// processing capacity (already headroom-scaled by the caller).
    pub fn set_cpu_capacity(&mut self, v: NodeId, cores: f64) {
        assert!(cores >= 0.0 && cores.is_finite(), "invalid CPU capacity");
        debug_assert!(
            !self.in_transaction(),
            "capacity reconfiguration inside a reservation transaction"
        );
        self.cpu_cap[v] = cores;
        self.cpu_avail[v] = cores;
    }

    /// Deducts measured/committed CPU usage (in cores) from `v`.
    pub fn consume_measured_cpu(&mut self, v: NodeId, cores_in_use: f64) {
        self.log_cpu(v);
        if self.cpu_avail[v].is_finite() {
            self.cpu_avail[v] = (self.cpu_avail[v] - cores_in_use.max(0.0)).max(0.0);
        }
    }

    /// Remaining CPU of `v` in cores (`INFINITY` when unconstrained).
    pub fn cpu_avail(&self, v: NodeId) -> f64 {
        self.cpu_avail[v]
    }

    /// Reserved fraction of the node's binding resource (0 = idle,
    /// 1 = fully reserved). The paper observes that drop probability
    /// grows with load (§2.2); composers may fold this into edge costs
    /// as the predictive part of the drop signal.
    pub fn utilization(&self, v: NodeId) -> f64 {
        let mut u: f64 = 0.0;
        for j in 0..2 {
            let cap = self.cap[v].get(j);
            if cap > 0.0 {
                u = u.max(1.0 - self.avail[v].get(j) / cap);
            }
        }
        if self.cpu_cap[v].is_finite() && self.cpu_cap[v] > 0.0 {
            u = u.max(1.0 - self.cpu_avail[v] / self.cpu_cap[v]);
        }
        u.clamp(0.0, 1.0)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.avail.len()
    }

    /// True when the view covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.avail.is_empty()
    }

    /// Remaining availability vector of `v`.
    pub fn avail(&self, v: NodeId) -> &ResourceVector {
        &self.avail[v]
    }

    /// Last observed drop ratio of `v`.
    pub fn drop_ratio(&self, v: NodeId) -> f64 {
        self.drop_ratio[v]
    }

    /// Updates the drop-ratio feedback for `v` (the engine pushes fresh
    /// window readings before each composition).
    pub fn set_drop_ratio(&mut self, v: NodeId, ratio: f64) {
        assert!((0.0..=1.0).contains(&ratio), "ratio out of range: {ratio}");
        self.drop_ratio[v] = ratio;
    }

    /// `r_max(c, n)` for a component whose unit occupies `unit_bits` on
    /// both NIC directions scaled by the rate ratio on output (§3.5):
    /// the largest ingest rate (du/s) node `v` can still accept.
    pub fn max_rate(&self, v: NodeId, unit_bits: u64, rate_ratio: f64) -> f64 {
        let per_unit = Self::per_unit(unit_bits, rate_ratio);
        self.avail[v].max_rate(&per_unit)
    }

    /// [`max_rate`](Self::max_rate) with the CPU dimension: the largest
    /// ingest rate for a component that also needs `exec_secs` of CPU
    /// per data unit. Equals `max_rate` when `v`'s CPU is unconstrained.
    pub fn max_rate_with_cpu(
        &self,
        v: NodeId,
        unit_bits: u64,
        rate_ratio: f64,
        exec_secs: f64,
    ) -> f64 {
        let bw = self.max_rate(v, unit_bits, rate_ratio);
        if self.cpu_avail[v].is_finite() && exec_secs > 0.0 {
            bw.min(self.cpu_avail[v] / exec_secs)
        } else {
            bw
        }
    }

    /// Reserves bandwidth on `v` for a component ingesting at `rate`
    /// du/s. `rate_ratio` scales the output-side reservation.
    pub fn reserve_component(&mut self, v: NodeId, unit_bits: u64, rate_ratio: f64, rate: f64) {
        self.log_avail(v);
        let per_unit = Self::per_unit(unit_bits, rate_ratio);
        self.avail[v].consume(&per_unit, rate);
        self.reindex(v);
    }

    /// Reserves the CPU of a component processing `rate` du/s at
    /// `exec_secs` each. No-op when `v`'s CPU is unconstrained.
    pub fn reserve_cpu(&mut self, v: NodeId, exec_secs: f64, rate: f64) {
        self.log_cpu(v);
        if self.cpu_avail[v].is_finite() {
            self.cpu_avail[v] = (self.cpu_avail[v] - exec_secs * rate).max(0.0);
        }
    }

    /// Releases a component's reservation (teardown).
    pub fn release_component(&mut self, v: NodeId, unit_bits: u64, rate_ratio: f64, rate: f64) {
        self.log_avail(v);
        let per_unit = Self::per_unit(unit_bits, rate_ratio);
        self.avail[v].release(&per_unit, rate);
        self.reindex(v);
    }

    /// Deducts *measured* traffic (bits/s, from the throughput meters)
    /// from the node's availability — the paper's §3.2 monitoring path:
    /// "the input and output bandwidth utilized are calculated by
    /// continuously monitoring the rates of incoming and outgoing data
    /// units".
    pub fn consume_measured(&mut self, v: NodeId, in_bps: f64, out_bps: f64) {
        self.log_avail(v);
        self.avail[v].consume(&ResourceVector::bandwidth(in_bps, out_bps), 1.0);
        self.reindex(v);
    }

    /// Reserves source-side output bandwidth (the origin emits at `rate`).
    pub fn reserve_source(&mut self, v: NodeId, unit_bits: u64, rate: f64) {
        self.log_avail(v);
        self.avail[v].consume(&ResourceVector::bandwidth(0.0, unit_bits as f64), rate);
        self.reindex(v);
    }

    /// Reserves destination-side input bandwidth.
    pub fn reserve_destination(&mut self, v: NodeId, unit_bits: u64, rate: f64) {
        self.log_avail(v);
        self.avail[v].consume(&ResourceVector::bandwidth(unit_bits as f64, 0.0), rate);
        self.reindex(v);
    }

    /// Remaining output-side rate capacity of `v` in du/s.
    pub fn out_rate_capacity(&self, v: NodeId, unit_bits: u64) -> f64 {
        self.avail[v].get(1) / unit_bits as f64
    }

    /// Remaining input-side rate capacity of `v` in du/s.
    pub fn in_rate_capacity(&self, v: NodeId, unit_bits: u64) -> f64 {
        self.avail[v].get(0) / unit_bits as f64
    }

    fn per_unit(unit_bits: u64, rate_ratio: f64) -> ResourceVector {
        ResourceVector::bandwidth(unit_bits as f64, unit_bits as f64 * rate_ratio)
    }

    /// The metric top-k candidate selection ranks hosts by: the host's
    /// bottleneck remaining bandwidth, `min(avail_in, avail_out)` bits/s.
    pub fn candidate_metric(&self, v: NodeId) -> f64 {
        self.avail[v].get(0).min(self.avail[v].get(1))
    }

    /// Reference top-k selection: scans every provider, ranks by
    /// ([`candidate_metric`](Self::candidate_metric) descending, node id
    /// ascending), returns the best `k` sorted by node id. `O(p log p)`
    /// in the provider count.
    pub fn select_top_candidates_linear(
        &self,
        providers: &[NodeId],
        k: usize,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        let mut scored: Vec<(f64, NodeId)> = providers
            .iter()
            .map(|&v| (self.candidate_metric(v), v))
            .collect();
        Self::rank_and_emit(&mut scored, k, out);
    }

    /// Indexed top-k selection: walks the capacity buckets from the
    /// highest down, collecting providers whose *joint* bucket (the
    /// bucket of their bottleneck direction) is the one being visited,
    /// and stops as soon as `k` candidates are in hand — every
    /// still-unvisited provider's metric is then strictly below the
    /// current bucket's lower bound, hence below all `k` collected
    /// metrics, so the exact final ranking cannot involve it. Returns
    /// exactly the [linear](Self::select_top_candidates_linear) result.
    ///
    /// `providers` must be sorted ascending (membership is a binary
    /// search). Cost: `O(scanned × log p + k log k)` where `scanned`
    /// stops growing once `k` providers are found — with provider
    /// density `p/n` roughly constant across topology sizes, that is
    /// independent of the node count, where the linear scan is `O(p)`
    /// with `p ∝ n`.
    pub fn select_top_candidates_indexed(
        &self,
        providers: &[NodeId],
        k: usize,
        out: &mut Vec<NodeId>,
    ) {
        debug_assert!(
            providers.windows(2).all(|w| w[0] < w[1]),
            "providers must be sorted ascending without duplicates"
        );
        out.clear();
        if k == 0 || providers.is_empty() {
            return;
        }
        let mut scored: Vec<(f64, NodeId)> = Vec::with_capacity(k.min(providers.len()) * 2);
        for b in (0..NBUCKETS).rev() {
            // Joint-bucket-b members: bottleneck direction files here,
            // the other direction at b or above. Nodes with both
            // directions in b come from the in-walk only (the out-walk
            // requires strictly-greater in-bucket), so nothing repeats.
            for &v in &self.in_index.buckets[b] {
                let v = v as usize;
                if self.out_index.bucket_of[v] as usize >= b && providers.binary_search(&v).is_ok()
                {
                    scored.push((self.candidate_metric(v), v));
                }
            }
            for &v in &self.out_index.buckets[b] {
                let v = v as usize;
                if self.in_index.bucket_of[v] as usize > b && providers.binary_search(&v).is_ok() {
                    scored.push((self.candidate_metric(v), v));
                }
            }
            if scored.len() >= k {
                break;
            }
        }
        Self::rank_and_emit(&mut scored, k, out);
    }

    /// Shared tail of both selections: exact (metric desc, id asc)
    /// ranking, truncate to `k`, emit sorted by id.
    fn rank_and_emit(scored: &mut Vec<(f64, NodeId)>, k: usize, out: &mut Vec<NodeId>) {
        scored.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("availability is never NaN")
                .then(a.1.cmp(&b.1))
        });
        scored.truncate(k);
        out.extend(scored.iter().map(|&(_, v)| v));
        out.sort_unstable();
    }

    /// Validates the capacity index against a from-scratch rebuild
    /// (test/audit hook): every node filed in the bucket of its current
    /// availability, positions consistent.
    #[doc(hidden)]
    pub fn check_index_coherence(&self) {
        for (dir, idx) in [(0, &self.in_index), (1, &self.out_index)] {
            let mut seen = 0usize;
            for (b, bucket) in idx.buckets.iter().enumerate() {
                for (p, &v) in bucket.iter().enumerate() {
                    let v = v as usize;
                    assert_eq!(idx.bucket_of[v] as usize, b, "bucket_of mismatch at {v}");
                    assert_eq!(idx.pos[v] as usize, p, "pos mismatch at {v}");
                    assert_eq!(
                        bucket_of_value(self.avail[v].get(dir)),
                        b,
                        "node {v} filed in stale bucket (dir {dir})"
                    );
                    seen += 1;
                }
            }
            assert_eq!(seen, self.len(), "index lost or duplicated nodes");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimDuration, SimRng};
    use simnet::Topology;

    fn view() -> SystemView {
        // 2 nodes at 1 Mbps symmetric.
        SystemView::fresh(&Topology::uniform(
            2,
            1_000_000.0,
            SimDuration::from_millis(10),
        ))
    }

    #[test]
    fn fresh_view_has_full_capacity_and_zero_drops() {
        let v = view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.drop_ratio(0), 0.0);
        // 1 Mbps / 8192 bits ≈ 122 du/s.
        let r = v.max_rate(0, 8192, 1.0);
        assert!((r - 1_000_000.0 / 8192.0).abs() < 1e-9);
    }

    #[test]
    fn reservation_reduces_max_rate() {
        let mut v = view();
        v.reserve_component(0, 8192, 1.0, 50.0);
        let r = v.max_rate(0, 8192, 1.0);
        assert!((r - (1_000_000.0 / 8192.0 - 50.0)).abs() < 1e-9);
        v.release_component(0, 8192, 1.0, 50.0);
        assert!((v.max_rate(0, 8192, 1.0) - 1_000_000.0 / 8192.0).abs() < 1e-9);
    }

    #[test]
    fn rate_ratio_weights_output_side() {
        let mut v = view();
        // Ratio 2: output is the bottleneck at half the input rate.
        let r = v.max_rate(0, 8192, 2.0);
        assert!((r - 1_000_000.0 / (2.0 * 8192.0)).abs() < 1e-9);
        v.reserve_component(0, 8192, 2.0, 10.0);
        assert!((v.in_rate_capacity(0, 8192) - (1_000_000.0 / 8192.0 - 10.0)).abs() < 1e-9);
        assert!((v.out_rate_capacity(0, 8192) - (1_000_000.0 / 8192.0 - 20.0)).abs() < 1e-9);
    }

    #[test]
    fn endpoint_reservations_are_one_sided() {
        let mut v = view();
        v.reserve_source(0, 8192, 30.0);
        assert!((v.in_rate_capacity(0, 8192) - 1_000_000.0 / 8192.0).abs() < 1e-9);
        assert!((v.out_rate_capacity(0, 8192) - (1_000_000.0 / 8192.0 - 30.0)).abs() < 1e-9);
        v.reserve_destination(1, 8192, 30.0);
        assert!((v.in_rate_capacity(1, 8192) - (1_000_000.0 / 8192.0 - 30.0)).abs() < 1e-9);
    }

    #[test]
    fn drop_ratio_updates() {
        let mut v = view();
        v.set_drop_ratio(1, 0.25);
        assert_eq!(v.drop_ratio(1), 0.25);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_ratio_rejected() {
        view().set_drop_ratio(0, 1.5);
    }

    /// Rollback must restore the exact pre-transaction state even when a
    /// reservation clamped at zero (an arithmetic release could not).
    #[test]
    fn rollback_restores_exactly_despite_clamping() {
        let mut v = view();
        v.reserve_component(0, 8192, 1.0, 10.0);
        let before_in = v.in_rate_capacity(0, 8192);
        let before_out = v.out_rate_capacity(1, 8192);

        v.begin_transaction();
        assert!(v.in_transaction());
        // Over-reserve far past capacity: avail clamps at 0.
        v.reserve_component(0, 8192, 1.0, 1e9);
        v.reserve_source(1, 8192, 1e9);
        v.reserve_destination(1, 8192, 5.0);
        v.consume_measured(0, 123.0, 456.0);
        assert_eq!(v.in_rate_capacity(0, 8192), 0.0);
        v.rollback_transaction();

        assert!(!v.in_transaction());
        assert!((v.in_rate_capacity(0, 8192) - before_in).abs() < 1e-12);
        assert!((v.out_rate_capacity(1, 8192) - before_out).abs() < 1e-12);
        v.check_index_coherence();
    }

    #[test]
    fn commit_keeps_reservations() {
        let mut v = view();
        v.begin_transaction();
        v.reserve_component(0, 8192, 1.0, 40.0);
        v.commit_transaction();
        assert!((v.max_rate(0, 8192, 1.0) - (1_000_000.0 / 8192.0 - 40.0)).abs() < 1e-9);
    }

    #[test]
    fn cpu_reservations_roll_back() {
        let mut v = view();
        v.set_cpu_capacity(0, 4.0);
        v.begin_transaction();
        v.reserve_cpu(0, 0.5, 6.0);
        v.consume_measured_cpu(0, 0.5);
        assert!((v.cpu_avail(0) - 0.5).abs() < 1e-12);
        v.rollback_transaction();
        assert!((v.cpu_avail(0) - 4.0).abs() < 1e-12);
    }

    /// Transactions nest by watermark: the inner commit's mutations
    /// survive until the outer rollback unwinds everything, and an inner
    /// rollback leaves the outer transaction's mutations standing.
    #[test]
    fn transactions_nest_by_watermark() {
        let mut v = view();
        let base = v.clone();
        v.begin_transaction();
        v.reserve_component(0, 8192, 1.0, 10.0);

        v.begin_transaction();
        v.reserve_component(1, 8192, 1.0, 20.0);
        v.commit_transaction();
        assert!(v.in_transaction());
        assert!((v.in_rate_capacity(1, 8192) - (1_000_000.0 / 8192.0 - 20.0)).abs() < 1e-9);

        v.begin_transaction();
        v.reserve_component(1, 8192, 1.0, 30.0);
        v.rollback_transaction();
        // Inner rollback: node 1 back to the inner-commit state, node 0
        // still reserved.
        assert!((v.in_rate_capacity(1, 8192) - (1_000_000.0 / 8192.0 - 20.0)).abs() < 1e-9);
        assert!((v.in_rate_capacity(0, 8192) - (1_000_000.0 / 8192.0 - 10.0)).abs() < 1e-9);

        // Outer rollback: everything — including the inner-committed
        // reservation — restored bit-exactly.
        v.rollback_transaction();
        assert!(!v.in_transaction());
        assert!(v == base, "outer rollback must restore the base state");
        v.check_index_coherence();
    }

    #[test]
    #[should_panic(expected = "no open transaction")]
    fn rollback_without_begin_panics() {
        view().rollback_transaction();
    }

    #[test]
    fn index_stays_coherent_under_random_churn() {
        let topo = Topology::planetlab_like(48, 300_000.0, 3_000_000.0, 5);
        let mut v = SystemView::fresh(&topo);
        let mut rng = SimRng::new(17);
        for step in 0..600 {
            let node = rng.range_u64(0, 48) as usize;
            match step % 5 {
                0 => v.reserve_component(node, 8192, 1.0, rng.f64() * 40.0),
                1 => v.consume_measured(node, rng.f64() * 1e5, rng.f64() * 1e5),
                2 => v.release_component(node, 8192, 1.0, rng.f64() * 40.0),
                3 => v.reserve_source(node, 8192, rng.f64() * 20.0),
                _ => v.reserve_destination(node, 8192, rng.f64() * 20.0),
            }
            if step % 7 == 0 {
                v.begin_transaction();
                v.reserve_component(node, 8192, 1.0, 1e9);
                v.rollback_transaction();
            }
        }
        v.check_index_coherence();
    }

    #[test]
    fn indexed_selection_matches_linear_reference() {
        let topo = Topology::planetlab_like(96, 300_000.0, 3_000_000.0, 9);
        let mut v = SystemView::fresh(&topo);
        let mut rng = SimRng::new(23);
        // Dirty the view so metrics are heterogeneous.
        for _ in 0..200 {
            let node = rng.range_u64(0, 96) as usize;
            v.consume_measured(node, rng.f64() * 2e6, rng.f64() * 2e6);
        }
        let mut providers: Vec<usize> = rng.sample_indices(96, 40);
        providers.sort_unstable();
        let (mut lin, mut idx) = (Vec::new(), Vec::new());
        for k in [0, 1, 3, 16, 40, 64] {
            v.select_top_candidates_linear(&providers, k, &mut lin);
            v.select_top_candidates_indexed(&providers, k, &mut idx);
            assert_eq!(lin, idx, "selection diverged at k={k}");
            assert_eq!(lin.len(), k.min(providers.len()));
        }
    }
}
