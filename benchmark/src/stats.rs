//! Order statistics over harness-side timing samples.

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (the rule Python's `statistics.quantiles(method="inclusive")`
/// and numpy's default use). `None` on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`; `None` on an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Nanoseconds to microseconds.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds to milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to seconds.
pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&v), Some(2.5));
    }
}
