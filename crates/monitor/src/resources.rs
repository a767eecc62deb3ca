//! The paper's resource vectors (§2.1, §3.5).
//!
//! A node's availability vector `A_n = [b_in, b_out]` and a component's
//! requirement vector `u_ci = [u_in, u_out]` (bandwidth consumed per data
//! unit per second) determine the maximum rate the node can sustain for
//! the component: `r_max(c_i, n) = min_j A_j / u_j`. The paper evaluates
//! exactly these two resources; CPU, its stated future work, is a
//! separate scalar wherever it is tracked.

/// A non-negative vector over the two rate-based resources, input and
/// output bandwidth (bits/s). Inline and `Copy`: a snapshot view holds
/// one per node, and composition builds one per candidate per layer, so
/// none of them may cost a heap allocation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ResourceVector([f64; 2]);

impl ResourceVector {
    /// Creates a vector from per-resource amounts (all must be ≥ 0).
    pub fn new(amounts: [f64; 2]) -> Self {
        assert!(
            amounts.iter().all(|&a| a >= 0.0 && a.is_finite()),
            "amounts must be finite and non-negative"
        );
        ResourceVector(amounts)
    }

    /// The paper's two-resource case: `[b_in, b_out]`.
    pub fn bandwidth(b_in: f64, b_out: f64) -> Self {
        Self::new([b_in, b_out])
    }

    /// Amount of resource `j` (0 = input, 1 = output).
    pub fn get(&self, j: usize) -> f64 {
        self.0[j]
    }

    /// `r_max`: the largest rate a node with availability `self` can offer
    /// a component with requirement `per_unit` (resource per 1 du/s).
    /// Dimensions where the component needs nothing do not constrain.
    pub fn max_rate(&self, per_unit: &ResourceVector) -> f64 {
        let mut r = f64::INFINITY;
        for (a, u) in self.0.iter().zip(&per_unit.0) {
            if *u > 0.0 {
                r = r.min(a / u);
            }
        }
        r
    }

    /// Subtracts the consumption of running at `rate` (du/s) with
    /// requirement `per_unit`, clamping at zero. Paper's "update the node
    /// capacities" step between substream solves (Algorithm 1).
    pub fn consume(&mut self, per_unit: &ResourceVector, rate: f64) {
        assert!(rate >= 0.0, "negative rate");
        for (a, u) in self.0.iter_mut().zip(&per_unit.0) {
            *a = (*a - u * rate).max(0.0);
        }
    }

    /// Returns the consumption back (component torn down).
    pub fn release(&mut self, per_unit: &ResourceVector, rate: f64) {
        assert!(rate >= 0.0, "negative rate");
        for (a, u) in self.0.iter_mut().zip(&per_unit.0) {
            *a += u * rate;
        }
    }

    /// Whether every dimension of `self` is ≥ the corresponding dimension
    /// of the demand `per_unit · rate`.
    pub fn can_fit(&self, per_unit: &ResourceVector, rate: f64) -> bool {
        self.max_rate(per_unit) >= rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_is_scarcest_resource() {
        let avail = ResourceVector::bandwidth(1_000_000.0, 250_000.0);
        let per_unit = ResourceVector::bandwidth(8_000.0, 8_000.0);
        // in allows 125 du/s, out allows 31.25 du/s → out binds.
        assert!((avail.max_rate(&per_unit) - 31.25).abs() < 1e-9);
    }

    #[test]
    fn zero_requirement_does_not_constrain() {
        let avail = ResourceVector::bandwidth(100.0, 0.0);
        let per_unit = ResourceVector::bandwidth(1.0, 0.0);
        assert_eq!(avail.max_rate(&per_unit), 100.0);
        let nothing = ResourceVector::bandwidth(0.0, 0.0);
        assert_eq!(avail.max_rate(&nothing), f64::INFINITY);
    }

    #[test]
    fn consume_then_release_roundtrips() {
        let mut avail = ResourceVector::bandwidth(1000.0, 2000.0);
        let per_unit = ResourceVector::bandwidth(10.0, 20.0);
        avail.consume(&per_unit, 30.0);
        assert_eq!(avail.get(0), 700.0);
        assert_eq!(avail.get(1), 1400.0);
        assert!(avail.can_fit(&per_unit, 70.0));
        assert!(!avail.can_fit(&per_unit, 70.1));
        avail.release(&per_unit, 30.0);
        assert_eq!(avail.get(0), 1000.0);
        assert_eq!(avail.get(1), 2000.0);
    }

    #[test]
    fn consume_clamps_at_zero() {
        let mut avail = ResourceVector::bandwidth(100.0, 100.0);
        avail.consume(&ResourceVector::bandwidth(1.0, 1.0), 500.0);
        assert_eq!(avail.get(0), 0.0);
        assert_eq!(avail.max_rate(&ResourceVector::bandwidth(1.0, 1.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_amount_rejected() {
        ResourceVector::new([-1.0, 0.0]);
    }
}
