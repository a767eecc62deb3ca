//! Seeded randomized tests: the incremental window/meter implementations
//! agree with naive recomputation on arbitrary inputs (cases generated
//! from `desim::SimRng`; reproduce from the case number).

use desim::{SimDuration, SimRng, SimTime};
use monitor::{OutcomeWindow, RateEstimator, ThroughputMeter, Welford};

/// OutcomeWindow's incremental ratio equals a recount of the last h.
#[test]
fn outcome_window_matches_recount() {
    let mut rng = SimRng::new(0x0c0);
    for case in 0..256u32 {
        let h = rng.range_usize(1, 20);
        let len = rng.range_usize(1, 100);
        let outcomes: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
        let mut w = OutcomeWindow::new(h);
        for (i, &d) in outcomes.iter().enumerate() {
            w.record(d);
            let start = (i + 1).saturating_sub(h);
            let window = &outcomes[start..=i];
            let expect = window.iter().filter(|&&x| x).count() as f64 / window.len() as f64;
            assert!((w.ratio() - expect).abs() < 1e-12, "case {case}");
        }
        assert_eq!(w.total_seen(), outcomes.len() as u64, "case {case}");
        assert_eq!(
            w.total_dropped(),
            outcomes.iter().filter(|&&x| x).count() as u64,
            "case {case}"
        );
    }
}

/// RateEstimator equals (k-1)/span over the retained tail.
#[test]
fn rate_estimator_matches_formula() {
    let mut rng = SimRng::new(0x2a7e);
    for case in 0..256u32 {
        let h = rng.range_usize(2, 16);
        let len = rng.range_usize(1, 60);
        let gaps: Vec<u64> = (0..len).map(|_| rng.range_u64(1, 1_000_000)).collect();
        let mut r = RateEstimator::new(h);
        let mut times = Vec::new();
        let mut now = 0u64;
        for g in gaps {
            now += g;
            times.push(now);
            r.record(SimTime::from_micros(now));
        }
        let tail: Vec<u64> = times.iter().rev().take(h).rev().copied().collect();
        if tail.len() >= 2 {
            let span = (tail[tail.len() - 1] - tail[0]) as f64 / 1e6;
            let expect = (tail.len() - 1) as f64 / span;
            assert!((r.rate() - expect).abs() / expect < 1e-9, "case {case}");
        } else {
            assert_eq!(r.rate(), 0.0, "case {case}");
        }
    }
}

/// ThroughputMeter equals a naive sum over the half-open window, read
/// at monotone times between records, and holds exactly one entry per
/// distinct instant with traffic in the window. Half the cases draw
/// timestamps from a range of a few milliseconds, so most records share
/// an instant with another; some records carry zero bits.
#[test]
fn throughput_meter_matches_naive() {
    let mut rng = SimRng::new(0x7412);
    for case in 0..512u32 {
        let window_ms = rng.range_u64(1, 5_000);
        let span = if case % 2 == 0 {
            rng.range_u64(1, 8)
        } else {
            10_000
        };
        let len = rng.range_usize(1, 120);
        let mut sorted: Vec<(u64, u64)> = (0..len)
            .map(|_| {
                let bits = if rng.chance(0.1) {
                    0
                } else {
                    rng.range_u64(1, 100_000)
                };
                (rng.range_u64(0, span), bits)
            })
            .collect();
        sorted.sort_by_key(|&(t, _)| t);
        let mut m = ThroughputMeter::new(SimDuration::from_millis(window_ms));
        let check = |m: &mut ThroughputMeter, seen: &[(u64, u64)], now: u64| {
            let in_window = |&&(t, _): &&(u64, u64)| now - t < window_ms;
            let naive: u64 = seen.iter().filter(in_window).map(|&(_, b)| b).sum();
            let expect = naive as f64 / (window_ms as f64 / 1000.0);
            assert!(
                (m.rate(SimTime::from_millis(now)) - expect).abs() < 1e-6,
                "case {case} at {now} ms"
            );
            let mut instants: Vec<u64> = seen
                .iter()
                .filter(in_window)
                .filter(|&&(_, b)| b > 0)
                .map(|&(t, _)| t)
                .collect();
            instants.dedup();
            assert_eq!(m.len(), instants.len(), "case {case} at {now} ms");
            let total: u64 = seen.iter().map(|&(_, b)| b).sum();
            assert_eq!(m.total_bits(), total, "case {case}");
        };
        let mut now = 0;
        for (i, &(t, bits)) in sorted.iter().enumerate() {
            m.record(SimTime::from_millis(t), bits);
            now = t;
            if rng.chance(0.3) {
                // A read anywhere up to the next record keeps time monotone.
                let next = sorted.get(i + 1).map_or(t + 2 * window_ms, |&(n, _)| n);
                now = rng.range_u64(t, next + 1);
                check(&mut m, &sorted[..=i], now);
            }
        }
        check(&mut m, &sorted, now);
    }
}

/// Welford matches naive two-pass mean/variance, and chunked merges
/// match sequential accumulation.
#[test]
fn welford_matches_naive_and_merges() {
    let mut rng = SimRng::new(0x3e1f);
    for case in 0..256u32 {
        let len = rng.range_usize(1, 100);
        let xs: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e3, 1e3)).collect();
        let split = rng.range_usize(0, 100);
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-6, "case {case}");
        assert!((w.variance() - var).abs() < 1e-6, "case {case}");

        let cut = split.min(xs.len());
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..cut] {
            a.record(x);
        }
        for &x in &xs[cut..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), w.count(), "case {case}");
        assert!((a.mean() - w.mean()).abs() < 1e-6, "case {case}");
        assert!((a.variance() - w.variance()).abs() < 1e-6, "case {case}");
    }
}
