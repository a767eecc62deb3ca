//! Regression suite for the cancel-after-fire fix: a driver-level workload
//! that fires some events, cancels a mix of fired/live/stale handles, and
//! asserts the queue's liveness report ends with zero residual backlog.
//!
//! The original defect: cancelling a handle whose event had already fired
//! parked the id in the cancellation set forever (pop can never reclaim
//! it), so long-running simulations that cancel timers "just in case"
//! leaked memory linearly in cancel calls.

use desim::{run, EventHandle, EventQueue, SimTime, StepOutcome, World};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// A world that, like the engine's timer usage, cancels handles of events
/// that may or may not have fired already.
struct TimerWorld {
    fired: Vec<u32>,
}

impl World for TimerWorld {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, _q: &mut EventQueue<u32>) {
        self.fired.push(ev);
    }
}

#[test]
fn cancel_fired_and_live_handles_leaves_no_residue() {
    let mut q = EventQueue::new();
    let handles: Vec<EventHandle> = (0..500u32).map(|i| q.schedule(t(i as u64), i)).collect();

    // Fire the first half through the driver.
    let mut w = TimerWorld { fired: Vec::new() };
    run(&mut w, &mut q, t(250));
    assert_eq!(w.fired.len(), 250);
    assert_eq!(q.total_fired(), 250);
    assert_eq!(q.pending_len(), 250);

    // Cancel every handle: 250 already fired (no-ops), 250 live.
    let mut live_cancels = 0;
    for h in &handles {
        if q.cancel(*h) {
            live_cancels += 1;
        }
    }
    assert_eq!(live_cancels, 250, "exactly the unfired events were live");
    assert_eq!(q.pending_len(), 0, "no live events remain after cancel");
    // Double-cancel of everything: all no-ops, nothing accumulates.
    for h in &handles {
        assert!(!q.cancel(*h), "second cancel must be a no-op");
    }
    assert_eq!(
        q.cancelled_backlog(),
        250,
        "only live cancellations park a tombstone"
    );

    // Drain: the driver must see an empty queue (liveness) and the
    // tombstones must be fully reclaimed — zero residual backlog.
    let before = w.fired.len();
    let (_, outcome) = desim::run_until(&mut w, &mut q, SimTime::MAX, u64::MAX);
    assert_eq!(outcome, StepOutcome::Drained);
    assert_eq!(w.fired.len(), before, "cancelled events must not fire");
    assert_eq!(q.raw_len(), 0, "heap holds residual entries");
    assert_eq!(q.cancelled_backlog(), 0, "cancellation set leaked ids");
    assert_eq!(q.pending_len(), 0);
    assert_eq!(q.total_scheduled(), 500);
    assert_eq!(q.total_fired(), 250);
}

#[test]
fn interleaved_cancel_fire_cycles_stay_bounded() {
    // Many rounds of schedule → partially fire → cancel the rest, checking
    // after every round that bookkeeping returns to zero. This is the
    // leak's growth pattern: any per-round residue shows up as monotone
    // growth of `cancelled_backlog`.
    let mut q = EventQueue::new();
    let mut w = TimerWorld { fired: Vec::new() };
    let mut expected_fired = 0u64;
    for round in 0..50u64 {
        let base = round * 100;
        let handles: Vec<EventHandle> = (0..20)
            .map(|i| q.schedule(t(base + i), (base + i) as u32))
            .collect();
        // Fire the first 10 of this round.
        run(&mut w, &mut q, t(base + 10));
        expected_fired += 10;
        // Cancel all 20 handles plus a stale handle from the previous
        // round (already fired long ago).
        for h in &handles {
            q.cancel(*h);
        }
        if let Some(stale) = handles.first() {
            assert!(!q.cancel(*stale));
        }
        // Let the driver compact the cancelled tail of this round.
        let (_, outcome) = desim::run_until(&mut w, &mut q, t(base + 100), u64::MAX);
        assert_eq!(outcome, StepOutcome::Drained);
        assert_eq!(q.cancelled_backlog(), 0, "round {round} leaked");
        assert_eq!(q.raw_len(), 0, "round {round} left heap entries");
        assert_eq!(q.pending_len(), 0);
    }
    assert_eq!(q.total_fired(), expected_fired);
    assert_eq!(w.fired.len() as u64, expected_fired);
}

/// ABA: once an event has fired or been cancelled, its slot is reused by
/// the next schedule. The old handle must then be refused and must leave
/// the slot's new occupant alone.
#[test]
fn stale_handle_cannot_cancel_the_slot_reuser() {
    let mut q = EventQueue::new();
    let fired = q.schedule(t(1), 1u32);
    assert_eq!(q.pop(), Some((t(1), 1)));
    let reuser = q.schedule(t(2), 2);
    assert!(
        !q.cancel(fired),
        "fired handle cancelled the slot's new event"
    );

    let cancelled = q.schedule(t(3), 3);
    assert!(q.cancel(cancelled));
    let reuser2 = q.schedule(t(4), 4);
    assert!(
        !q.cancel(cancelled),
        "cancelled handle cancelled a newer event"
    );
    assert_eq!(q.pending_len(), 2);

    assert_eq!(q.pop(), Some((t(2), 2)));
    assert_eq!(q.pop(), Some((t(4), 4)));
    assert_eq!(q.pop(), None);
    assert!(!q.cancel(reuser) && !q.cancel(reuser2));
    assert_eq!(q.raw_len() + q.pending_len() + q.cancelled_backlog(), 0);
}

/// A storm of cancels and reschedules — every live timer is cancelled and
/// re-armed many times over, as a retransmission timer would be — must
/// deliver each timer once, at its last arming, and drain to zero.
#[test]
fn cancel_reschedule_storm_drains_to_zero() {
    let mut q = EventQueue::new();
    let mut timers: Vec<EventHandle> = (0..64u32).map(|i| q.schedule(t(1), i)).collect();
    for round in 0..200u64 {
        for (i, h) in timers.iter_mut().enumerate() {
            if !(i as u64 + round).is_multiple_of(3) {
                assert!(q.cancel(*h));
                *h = q.schedule(t(10 + round), i as u32);
            }
        }
        assert_eq!(q.pending_len(), 64);
        assert!(q.cancelled_backlog() <= q.raw_len());
    }
    let mut w = TimerWorld { fired: Vec::new() };
    let (_, outcome) = desim::run_until(&mut w, &mut q, SimTime::MAX, u64::MAX);
    assert_eq!(outcome, StepOutcome::Drained);
    w.fired.sort_unstable();
    assert_eq!(w.fired, (0..64).collect::<Vec<u32>>());
    assert_eq!(q.raw_len(), 0);
    assert_eq!(q.pending_len(), 0);
    assert_eq!(q.cancelled_backlog(), 0);
}
