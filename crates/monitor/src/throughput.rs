//! Windowed throughput measurement (bits/second over recent traffic).
//!
//! The paper's nodes compute their available input/output bandwidth "by
//! continuously monitoring the rates of incoming and outgoing data
//! units" (§3.2) — availability is *measured*, not tracked in a ledger.
//! A [`ThroughputMeter`] holds one (timestamp, bits) entry per distinct
//! instant of the recent window and reports their rate. Records that
//! share an instant are summed into one entry: they would be evicted
//! together anyway, so the rate is the same integer sum, while a burst
//! of same-instant records (a statistics pull fan-out, a batch of units)
//! costs one entry instead of one per record.

use desim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Measures the bit rate of a traffic stream over a sliding time window.
#[derive(Clone, Debug)]
pub struct ThroughputMeter {
    window: SimDuration,
    events: VecDeque<(SimTime, u64)>,
    bits_in_window: u64,
    total_bits: u64,
}

impl ThroughputMeter {
    /// Creates a meter over the trailing `window` of simulated time.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        ThroughputMeter {
            window,
            events: VecDeque::new(),
            bits_in_window: 0,
            total_bits: 0,
        }
    }

    /// Records `bits` of traffic at time `now` (non-decreasing). A record
    /// at the back entry's instant adds to it; a zero-bit record stores
    /// nothing.
    pub fn record(&mut self, now: SimTime, bits: u64) {
        debug_assert!(
            self.events.back().is_none_or(|&(t, _)| now >= t),
            "timestamps must be monotone"
        );
        match self.events.back_mut() {
            Some((t, b)) if *t == now => *b += bits,
            _ if bits > 0 => self.events.push_back((now, bits)),
            _ => {}
        }
        self.bits_in_window += bits;
        self.total_bits += bits;
        self.evict(now);
    }

    /// Bits/second over the window ending at `now`.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.bits_in_window as f64 / self.window.as_secs_f64()
    }

    /// Lifetime bits recorded.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Number of entries currently held: at most one per distinct
    /// instant still in the window as of the last `record` or `rate`.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn evict(&mut self, now: SimTime) {
        // Half-open window (now − w, now]: an event exactly one window
        // old has aged out.
        while let Some(&(t, bits)) = self.events.front() {
            if now.saturating_since(t) >= self.window {
                self.events.pop_front();
                self.bits_in_window -= bits;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_meter_reads_zero() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(1));
        assert_eq!(m.rate(t(5000)), 0.0);
        assert_eq!(m.total_bits(), 0);
    }

    #[test]
    fn steady_stream_measures_exactly() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(1));
        // 100 kb every 100 ms = 1 Mbps.
        for i in 0..20 {
            m.record(t(i * 100), 100_000);
        }
        let r = m.rate(t(1900));
        assert!((r - 1_000_000.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn rate_decays_after_traffic_stops() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(1));
        m.record(t(0), 500_000);
        assert!((m.rate(t(0)) - 500_000.0).abs() < 1e-6);
        assert!((m.rate(t(900)) - 500_000.0).abs() < 1e-6);
        assert_eq!(m.rate(t(1100)), 0.0);
        assert_eq!(m.total_bits(), 500_000);
    }

    #[test]
    fn window_holds_only_recent() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(2));
        m.record(t(0), 1_000_000);
        m.record(t(3000), 200_000);
        // Only the second event is in the window at t=3s.
        assert!((m.rate(t(3000)) - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn same_instant_records_share_one_entry() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(1));
        for _ in 0..1000 {
            m.record(t(100), 8);
        }
        assert_eq!(m.len(), 1);
        m.record(t(200), 8);
        m.record(t(200), 8);
        assert_eq!(m.len(), 2);
        assert_eq!(m.total_bits(), 8_016);
        assert!((m.rate(t(1099)) - 8_016.0).abs() < 1e-9);
        // The merged entry ages out as one: only t=200's 16 bits remain.
        assert!((m.rate(t(1100)) - 16.0).abs() < 1e-9);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_bit_record_stores_nothing() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(1));
        m.record(t(0), 0);
        assert!(m.is_empty());
        m.record(t(10), 500);
        m.record(t(20), 0);
        assert_eq!(m.len(), 1);
        assert_eq!(m.total_bits(), 500);
        assert!((m.rate(t(20)) - 500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        ThroughputMeter::new(SimDuration::ZERO);
    }
}
