//! Reference-model equivalence: `EventQueue` must behave exactly like a
//! linear-scan queue that keeps every event it was ever given.
//!
//! Every test replays a seeded schedule/cancel/pop/peek script into both
//! and compares, after each step, the step's result (popped event, cancel
//! verdict, peeked time) and all five counters. Handles of fired and
//! cancelled events stay in the script's handle pool, so cancels hit
//! slots that the queue has since reused — the stale-handle (ABA) case.
//! `SimRng` drives the scripts, so any failure reproduces from the case
//! number in the assertion message.

use desim::{EventQueue, SimRng, SimTime};

/// One scripted operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule at the given time (µs).
    Schedule(u64),
    /// Pop the front event.
    Pop,
    /// Cancel the n-th handle issued so far (wrapping), which may
    /// target live, fired, or already-cancelled events alike.
    CancelNth(usize),
    /// Peek the front time (discards cancelled heads on the queue).
    Peek,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum State {
    Live,
    /// Cancelled, and its tombstone not yet discarded.
    Cancelled,
    /// Fired, or cancelled with its tombstone discarded.
    Gone,
}

/// The reference: event `s` is the `s`-th one scheduled and carries
/// payload `s`. Every query scans all events.
#[derive(Default)]
struct Reference {
    events: Vec<(SimTime, State)>,
    fired: u64,
}

impl Reference {
    fn cancel(&mut self, s: usize) -> bool {
        let live = self.events[s].1 == State::Live;
        if live {
            self.events[s].1 = State::Cancelled;
        }
        live
    }

    /// The earliest live event; tombstones ahead of it are discarded, as
    /// a heap discards them on the way to its first live key.
    fn front(&mut self) -> Option<usize> {
        let front = (0..self.events.len())
            .filter(|&s| self.events[s].1 == State::Live)
            .min_by_key(|&s| (self.events[s].0, s));
        let bound = front.map(|s| (self.events[s].0, s));
        for (s, e) in self.events.iter_mut().enumerate() {
            if e.1 == State::Cancelled && bound.is_none_or(|b| (e.0, s) < b) {
                e.1 = State::Gone;
            }
        }
        front
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let s = self.front()?;
        self.events[s].1 = State::Gone;
        self.fired += 1;
        Some((self.events[s].0, s as u64))
    }

    /// `[scheduled, fired, raw, pending, cancelled]`.
    fn counters(&self) -> [u64; 5] {
        let (mut live, mut cancelled) = (0, 0);
        for e in &self.events {
            live += (e.1 == State::Live) as u64;
            cancelled += (e.1 == State::Cancelled) as u64;
        }
        let scheduled = self.events.len() as u64;
        [scheduled, self.fired, live + cancelled, live, cancelled]
    }
}

fn counters(q: &EventQueue<u64>) -> [u64; 5] {
    [
        q.total_scheduled(),
        q.total_fired(),
        q.raw_len() as u64,
        q.pending_len() as u64,
        q.cancelled_backlog() as u64,
    ]
}

/// Replays `script` on the queue and the reference, asserting equality
/// after every step and through a final drain. Returns how many cancels
/// the queue accepted.
fn check(script: &[Op], case: &str) -> usize {
    let mut q = EventQueue::new();
    let mut reference = Reference::default();
    let mut handles = Vec::new();
    let mut accepted = 0;
    for (step, op) in script.iter().enumerate() {
        match *op {
            Op::Schedule(us) => {
                let at = SimTime::from_micros(us);
                handles.push(q.schedule(at, handles.len() as u64));
                reference.events.push((at, State::Live));
            }
            Op::Pop => assert_eq!(q.pop(), reference.pop(), "{case} step {step}: pop"),
            Op::CancelNth(i) if !handles.is_empty() => {
                let s = i % handles.len();
                let ok = q.cancel(handles[s]);
                assert_eq!(ok, reference.cancel(s), "{case} step {step}: cancel {s}");
                accepted += ok as usize;
            }
            Op::CancelNth(_) => {}
            Op::Peek => {
                let want = reference.front().map(|s| reference.events[s].0);
                assert_eq!(q.peek_time(), want, "{case} step {step}: peek");
            }
        }
        assert_eq!(counters(&q), reference.counters(), "{case} step {step}");
    }
    loop {
        let popped = q.pop();
        assert_eq!(popped, reference.pop(), "{case}: drain");
        if popped.is_none() {
            break;
        }
    }
    assert_eq!(counters(&q), reference.counters(), "{case}: drained");
    assert_eq!(q.raw_len() + q.pending_len() + q.cancelled_backlog(), 0);
    accepted
}

fn random_script(rng: &mut SimRng, len: usize, time_span_us: u64) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.range_u64(0, 8) {
            // Biased toward schedules so the queue grows deep.
            0..=3 => Op::Schedule(rng.range_u64(0, time_span_us)),
            4..=5 => Op::Pop,
            6 => Op::CancelNth(rng.range_usize(0, 256)),
            _ => Op::Peek,
        })
        .collect()
}

/// 256 seeded random scripts over narrow to wide time spans.
#[test]
fn random_scripts_pop_bit_identically() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x57EE1 ^ case);
        let span = [100u64, 10_000, 10_000_000][case as usize % 3];
        let script = random_script(&mut rng, 400, span);
        check(&script, &format!("case {case} (span {span} µs)"));
    }
}

/// Heavy same-timestamp contention: FIFO order must hold exactly even
/// when hundreds of events share a handful of instants.
#[test]
fn same_timestamp_fifo_matches() {
    for case in 0..32u64 {
        let mut rng = SimRng::new(0xF1F0 ^ case);
        let script: Vec<Op> = (0..1000)
            .map(|_| match rng.range_u64(0, 4) {
                // Only 4 distinct instants → massive FIFO ties.
                0..=2 => Op::Schedule(rng.range_u64(0, 4) * 50),
                _ => Op::Pop,
            })
            .collect();
        check(&script, &format!("case {case}"));
    }
}

/// Cancel-after-fire is rejected by both: only handles of events that
/// have not popped are cancellable, and no tombstone outlives the drain.
#[test]
fn cancel_after_fire_rejected_on_both() {
    let mut script: Vec<Op> = (0..500).map(|i| Op::Schedule(i % 7)).collect();
    script.extend((0..250).map(|_| Op::Pop));
    script.extend((0..500).map(Op::CancelNth));
    script.push(Op::Pop);
    assert_eq!(check(&script, "cancel-after-fire"), 250);
}

/// Past-time scheduling (the driver clamps delivery, the queue does
/// not): a newly scheduled earlier event surfaces before previously
/// scheduled later ones.
#[test]
fn past_scheduling_matches() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0x9A57 ^ case);
        let script: Vec<Op> = (0..600)
            .map(|i| match i % 5 {
                0 => Op::Schedule(rng.range_u64(500_000, 1_000_000)),
                1 => Op::Schedule(rng.range_u64(0, 1_000)),
                2 | 3 => Op::Pop,
                _ => Op::Peek,
            })
            .collect();
        check(&script, &format!("case {case}"));
    }
}

/// Sparse timestamps spread over ~3 simulated years.
#[test]
fn sparse_wide_range_timestamps_match() {
    for case in 0..32u64 {
        let mut rng = SimRng::new(0x1DE5 ^ case);
        let script: Vec<Op> = (0..300)
            .map(|_| match rng.range_u64(0, 3) {
                0 | 1 => Op::Schedule(rng.range_u64(0, 100_000_000_000)),
                _ => Op::Pop,
            })
            .collect();
        check(&script, &format!("case {case}"));
    }
}
