//! Cancellable event queue with deterministic ordering.
//!
//! Events are ordered by `(time, sequence)`, where `sequence` is a
//! monotonically increasing counter assigned at scheduling time. Two events
//! scheduled for the same instant therefore pop in scheduling order, which
//! keeps simulations bit-for-bit reproducible.
//!
//! **Keys and payloads are stored apart.** The binary heap holds only
//! 24-byte `(time, seq, slot)` keys; payloads sit in a free-listed slab
//! and stay where they were written until they fire. A simulation's
//! event enum is typically several times larger than its key (the
//! engine's is 88 bytes), and moving `O(log n)` entries per push or pop
//! is most of a heap's cost, so the heap sifts keys, never payloads.
//!
//! **Handles are `(slot, seq)`.** A slot remembers the seq of the event
//! it currently holds, so [`EventQueue::cancel`] is one slab lookup: the
//! handle is live exactly when its slot still holds its seq. A handle
//! whose event already fired or was cancelled fails that check — also
//! after the slot has been reused by a later event, whose seq differs
//! (the ABA case) — so a stale handle can never cancel a newer event.
//!
//! **Cancellation is lazy.** Cancelling frees the slot at once but
//! leaves the key in the heap as a tombstone; pop and peek discard a key
//! whose seq no longer matches its slot's. The simulation engine itself
//! never cancels — its timers all fire — so the common pop path costs one
//! seq comparison beyond the heap's own work.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// The storage structure behind an [`EventQueue`]. There is one; the
/// type remains so that existing configurations keep compiling.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum QueueBackend {
    /// A binary heap of `(time, seq, slot)` keys over a payload slab.
    #[default]
    BinaryHeap,
}

/// Heap key. Ordered by `(time, seq)`; seqs are unique, so `slot` never
/// decides a comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

/// Seq of a slot that holds no event. Real seqs count up from zero and
/// never reach it.
const VACANT: u64 = u64::MAX;

struct Slot<E> {
    /// Seq of the event held here, or [`VACANT`].
    seq: u64,
    payload: Option<E>,
}

/// A priority queue of timestamped events.
///
/// `E` is the simulation's event payload type, typically an enum defined by
/// the crate that owns the simulation loop.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<E>>,
    /// Vacant slot indices, reused last-in first-out.
    free: Vec<u32>,
    next_seq: u64,
    fired: u64,
    /// Keys in `heap` whose event was cancelled.
    tombstones: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            fired: 0,
            tombstones: 0,
        }
    }

    /// Creates an empty queue; every [`QueueBackend`] is the same queue.
    pub fn with_backend(_backend: QueueBackend) -> Self {
        Self::new()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Returns a handle that can be passed to [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Slot {
            seq,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                u32::try_from(self.slots.len() - 1).expect("over 2^32 pending events")
            }
        };
        self.heap.push(Reverse(Key {
            time: at,
            seq,
            slot,
        }));
        EventHandle { slot, seq }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    /// Cancelling an already-fired, already-cancelled, or unknown handle
    /// is a no-op returning `false`, even when the handle's slot now holds
    /// a newer event.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(slot) if slot.seq == handle.seq => {
                *slot = Slot {
                    seq: VACANT,
                    payload: None,
                };
                self.free.push(handle.slot);
                self.tombstones += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `key` is a tombstone: its slot was vacated by a cancel
    /// (and possibly reused since).
    fn is_tombstone(&self, key: &Key) -> bool {
        self.slots[key.slot as usize].seq != key.seq
    }

    /// Pops the earliest pending event, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(key)) = self.heap.pop() {
            if self.is_tombstone(&key) {
                self.tombstones -= 1;
                continue;
            }
            let slot = &mut self.slots[key.slot as usize];
            slot.seq = VACANT;
            let payload = slot.payload.take().expect("a live slot holds its payload");
            self.free.push(key.slot);
            self.fired += 1;
            return Some((key.time, payload));
        }
        None
    }

    /// Time of the earliest pending (non-cancelled) event, if any.
    ///
    /// This discards cancelled entries off the front as a side effect,
    /// so it is `O(k log n)` in the number of cancelled heads.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse(key)) = self.heap.peek() {
            if !self.is_tombstone(&key) {
                return Some(key.time);
            }
            self.heap.pop();
            self.tombstones -= 1;
        }
        None
    }

    /// Whether any non-cancelled event is pending.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Number of keys currently held, including cancelled tombstones not
    /// yet discarded. Useful for capacity monitoring in tests.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of scheduled events that have neither fired nor been
    /// cancelled — the queue's live backlog. Auditors use this to decide
    /// whether a simulation still has work pending (liveness) without
    /// counting cancelled tombstones.
    pub fn pending_len(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    /// Number of cancelled entries still awaiting discard off the front.
    /// Bounded by [`raw_len`](Self::raw_len); monotone growth here would
    /// indicate a cancellation-bookkeeping leak.
    pub fn cancelled_backlog(&self) -> usize {
        self.tombstones
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Total events actually delivered by [`pop`](Self::pop).
    pub fn total_fired(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn default_backend_is_the_heap_reference() {
        assert_eq!(QueueBackend::default(), QueueBackend::BinaryHeap);
        let mut q = EventQueue::with_backend(QueueBackend::default());
        q.schedule(t(2), 'b');
        q.schedule(t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
    }

    #[test]
    fn keys_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Reverse<Key>>(), 24);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn extreme_times_pop_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 0);
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), 1);
        let h2 = q.schedule(t(2), 2);
        q.schedule(t(3), 3);
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel reports false");
        assert_eq!(q.pop(), Some((t(1), 1)));
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.pop(), None);
        // h1 already fired; cancelling it is a no-op reporting false.
        assert!(!q.cancel(h1));
    }

    /// Regression: cancelling handles whose events already fired must not
    /// leave tombstones behind (nothing would ever discard them).
    #[test]
    fn cancel_after_fire_does_not_leak() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..1000).map(|i| q.schedule(t(i), i)).collect();
        while q.pop().is_some() {}
        for h in &handles {
            assert!(!q.cancel(*h), "fired handle reported as cancelled");
        }
        assert_eq!(q.cancelled_backlog(), 0, "fired handles leaked");
        assert_eq!(q.raw_len(), 0);
        // Live cancellations still count — and are reclaimed on pop.
        let h = q.schedule(t(5000), 1);
        q.schedule(t(5001), 2);
        assert!(q.cancel(h));
        assert_eq!(q.cancelled_backlog(), 1);
        assert_eq!(q.pop(), Some((t(5001), 2)));
        assert_eq!(q.cancelled_backlog(), 0);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventHandle { slot: 42, seq: 42 }));
        q.schedule(t(1), 1);
        assert!(!q.cancel(EventHandle { slot: 0, seq: 7 }));
        assert_eq!(q.pending_len(), 1);
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.cancel(h);
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_fired(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10u32);
        assert_eq!(q.pop(), Some((t(10), 10)));
        // Scheduling into the "past" is allowed; queue is a pure priority
        // queue and the driver enforces monotonic delivery semantics.
        q.schedule(t(5), 5);
        q.schedule(t(15), 15);
        assert_eq!(q.pop(), Some((t(5), 5)));
        let now = t(15) + SimDuration::from_millis(0);
        assert_eq!(q.pop(), Some((now, 15)));
    }

    #[test]
    fn large_volume_stays_sorted() {
        // Pseudo-random insertion order, verify global sortedness.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_nanos(x % 1_000_000), x);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last);
            last = time;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn slots_are_reused_after_fire_and_cancel() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let h = q.schedule(t(round), round);
            q.schedule(t(round), round);
            q.cancel(h);
            assert_eq!(q.pop(), Some((t(round), round)));
        }
        assert_eq!(q.slots.len(), 2, "the slab grows to the peak population");
    }
}
