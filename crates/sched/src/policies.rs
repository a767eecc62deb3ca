//! The three dispatch policies.

use crate::job::Job;
use crate::{DispatchOutcome, Scheduler};
use desim::SimTime;
use std::collections::VecDeque;

/// Which dispatch policy a node runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Policy {
    /// Least laxity first with negative-laxity drops (the paper's).
    #[default]
    Llf,
    /// Earliest deadline first with the same drop rule.
    Edf,
    /// First-in first-out, no deadline awareness.
    Fifo,
}

/// Shared storage: a vector-backed bag; policies differ only in selection.
/// Queue sizes are small (tens of units), so linear scans beat heap
/// maintenance and keep drop-and-select in one pass.
#[derive(Clone, Debug)]
struct Bag<T> {
    items: Vec<Job<T>>,
    capacity: usize,
}

impl<T> Bag<T> {
    fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Bag {
            items: Vec::with_capacity(capacity),
            capacity,
        }
    }

    fn enqueue(&mut self, job: Job<T>) -> Result<(), Job<T>> {
        if self.items.len() >= self.capacity {
            Err(job)
        } else {
            self.items.push(job);
            Ok(())
        }
    }

    /// Removes all jobs whose laxity at `now` is negative.
    fn drop_hopeless(&mut self, now: SimTime) -> Vec<Job<T>> {
        let mut dropped = Vec::new();
        let mut i = 0;
        while i < self.items.len() {
            if !self.items[i].meta.schedulable(now) {
                dropped.push(self.items.swap_remove(i));
            } else {
                i += 1;
            }
        }
        dropped
    }

    /// Removes and returns the job minimizing `key`, tie-broken by
    /// earliest arrival, then by position in the bag (deterministic).
    /// Position is insertion order only until
    /// [`drop_hopeless`](Self::drop_hopeless) swap-removes a job: the last
    /// job then takes the dropped one's place, ahead of jobs inserted
    /// before it. Run digests depend on this order.
    fn take_min_by(&mut self, key: impl Fn(&Job<T>) -> f64) -> Option<Job<T>> {
        if self.items.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.items.len() {
            let (ka, kb) = (key(&self.items[i]), key(&self.items[best]));
            if ka < kb || (ka == kb && self.items[i].meta.arrival < self.items[best].meta.arrival) {
                best = i;
            }
        }
        Some(self.items.remove(best))
    }
}

/// Least-laxity-first scheduler (paper §3.4).
#[derive(Clone, Debug)]
pub struct LlfScheduler<T> {
    bag: Bag<T>,
}

impl<T> LlfScheduler<T> {
    /// Creates an LLF queue with the given capacity.
    pub fn new(capacity: usize) -> Self {
        LlfScheduler {
            bag: Bag::new(capacity),
        }
    }
}

impl<T> Scheduler<T> for LlfScheduler<T> {
    fn enqueue(&mut self, job: Job<T>) -> Result<(), Job<T>> {
        self.bag.enqueue(job)
    }

    fn dispatch(&mut self, now: SimTime) -> DispatchOutcome<T> {
        let dropped = self.bag.drop_hopeless(now);
        let chosen = self.bag.take_min_by(|j| j.meta.laxity(now));
        DispatchOutcome { dropped, chosen }
    }

    fn dispatch_burst(&mut self, now: SimTime, max: usize, out: &mut Vec<Job<T>>) -> Vec<Job<T>> {
        // One hopeless scan covers the whole burst: laxity at a fixed
        // `now` is fixed, so `drop_hopeless` is idempotent between picks.
        let dropped = self.bag.drop_hopeless(now);
        for _ in 0..max {
            match self.bag.take_min_by(|j| j.meta.laxity(now)) {
                Some(j) => out.push(j),
                None => break,
            }
        }
        dropped
    }

    fn drain(&mut self) -> Vec<Job<T>> {
        std::mem::take(&mut self.bag.items)
    }

    fn len(&self) -> usize {
        self.bag.items.len()
    }

    fn capacity(&self) -> usize {
        self.bag.capacity
    }
}

/// Earliest-deadline-first scheduler with the same negative-laxity drops.
#[derive(Clone, Debug)]
pub struct EdfScheduler<T> {
    bag: Bag<T>,
}

impl<T> EdfScheduler<T> {
    /// Creates an EDF queue with the given capacity.
    pub fn new(capacity: usize) -> Self {
        EdfScheduler {
            bag: Bag::new(capacity),
        }
    }
}

impl<T> Scheduler<T> for EdfScheduler<T> {
    fn enqueue(&mut self, job: Job<T>) -> Result<(), Job<T>> {
        self.bag.enqueue(job)
    }

    fn dispatch(&mut self, now: SimTime) -> DispatchOutcome<T> {
        let dropped = self.bag.drop_hopeless(now);
        let chosen = self.bag.take_min_by(|j| j.meta.deadline.as_secs_f64());
        DispatchOutcome { dropped, chosen }
    }

    fn dispatch_burst(&mut self, now: SimTime, max: usize, out: &mut Vec<Job<T>>) -> Vec<Job<T>> {
        let dropped = self.bag.drop_hopeless(now);
        for _ in 0..max {
            match self.bag.take_min_by(|j| j.meta.deadline.as_secs_f64()) {
                Some(j) => out.push(j),
                None => break,
            }
        }
        dropped
    }

    fn drain(&mut self) -> Vec<Job<T>> {
        std::mem::take(&mut self.bag.items)
    }

    fn len(&self) -> usize {
        self.bag.items.len()
    }

    fn capacity(&self) -> usize {
        self.bag.capacity
    }
}

/// FIFO scheduler: pure arrival order, never drops at dispatch. Overload
/// shows up as enqueue rejections (queue overflow) and late deliveries.
#[derive(Clone, Debug)]
pub struct FifoScheduler<T> {
    queue: VecDeque<Job<T>>,
    capacity: usize,
}

impl<T> FifoScheduler<T> {
    /// Creates a FIFO queue with the given capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        FifoScheduler {
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }
}

impl<T> Scheduler<T> for FifoScheduler<T> {
    fn enqueue(&mut self, job: Job<T>) -> Result<(), Job<T>> {
        if self.queue.len() >= self.capacity {
            Err(job)
        } else {
            self.queue.push_back(job);
            Ok(())
        }
    }

    fn dispatch(&mut self, _now: SimTime) -> DispatchOutcome<T> {
        DispatchOutcome {
            dropped: Vec::new(),
            chosen: self.queue.pop_front(),
        }
    }

    fn drain(&mut self) -> Vec<Job<T>> {
        self.queue.drain(..).collect()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobMeta;
    use desim::SimDuration;

    fn job(id: u32, arrival_ms: u64, deadline_ms: u64, exec_ms: u64) -> Job<u32> {
        Job {
            meta: JobMeta {
                arrival: SimTime::from_millis(arrival_ms),
                deadline: SimTime::from_millis(deadline_ms),
                exec_time: SimDuration::from_millis(exec_ms),
            },
            payload: id,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn llf_picks_smallest_laxity() {
        let mut s = LlfScheduler::new(8);
        // Laxities at t=0: a: 100-20=80, b: 50-5=45, c: 60-40=20.
        s.enqueue(job(1, 0, 100, 20)).unwrap();
        s.enqueue(job(2, 0, 50, 5)).unwrap();
        s.enqueue(job(3, 0, 60, 40)).unwrap();
        let out = s.dispatch(t(0));
        assert!(out.dropped.is_empty());
        assert_eq!(out.chosen.unwrap().payload, 3);
        assert_eq!(s.dispatch(t(0)).chosen.unwrap().payload, 2);
        assert_eq!(s.dispatch(t(0)).chosen.unwrap().payload, 1);
        assert!(s.dispatch(t(0)).chosen.is_none());
    }

    #[test]
    fn llf_drops_negative_laxity_units() {
        let mut s = LlfScheduler::new(8);
        s.enqueue(job(1, 0, 100, 20)).unwrap(); // dead at t > 80
        s.enqueue(job(2, 0, 500, 20)).unwrap(); // plenty of slack
        let out = s.dispatch(t(90));
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.dropped[0].payload, 1);
        assert_eq!(out.chosen.unwrap().payload, 2);
    }

    #[test]
    fn llf_laxity_exactly_zero_is_schedulable() {
        let mut s = LlfScheduler::new(4);
        s.enqueue(job(1, 0, 100, 20)).unwrap();
        let out = s.dispatch(t(80)); // laxity exactly 0
        assert!(out.dropped.is_empty());
        assert_eq!(out.chosen.unwrap().payload, 1);
    }

    #[test]
    fn edf_orders_by_deadline_not_laxity() {
        let mut s = EdfScheduler::new(8);
        // a: deadline 50 exec 5 (laxity 45), b: deadline 60 exec 40
        // (laxity 20). LLF would pick b; EDF picks a.
        s.enqueue(job(1, 0, 50, 5)).unwrap();
        s.enqueue(job(2, 0, 60, 40)).unwrap();
        assert_eq!(s.dispatch(t(0)).chosen.unwrap().payload, 1);
    }

    #[test]
    fn edf_also_drops_hopeless() {
        let mut s = EdfScheduler::new(8);
        s.enqueue(job(1, 0, 10, 20)).unwrap(); // hopeless from birth
        let out = s.dispatch(t(0));
        assert_eq!(out.dropped.len(), 1);
        assert!(out.chosen.is_none());
    }

    #[test]
    fn fifo_preserves_arrival_order_and_never_drops() {
        let mut s = FifoScheduler::new(8);
        s.enqueue(job(1, 0, 10, 20)).unwrap(); // long dead
        s.enqueue(job(2, 5, 500, 20)).unwrap();
        let out = s.dispatch(t(1000));
        assert!(out.dropped.is_empty());
        assert_eq!(out.chosen.unwrap().payload, 1);
        assert_eq!(s.dispatch(t(1000)).chosen.unwrap().payload, 2);
    }

    #[test]
    fn capacity_rejection_returns_job() {
        let mut s = LlfScheduler::new(1);
        s.enqueue(job(1, 0, 100, 10)).unwrap();
        let back = s.enqueue(job(2, 0, 100, 10)).unwrap_err();
        assert_eq!(back.payload, 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ties_break_by_arrival_then_insertion() {
        // Insertion order, that is, while no drop has reordered the bag
        // (see `ties_after_a_drop_break_by_bag_position`).
        let mut s = LlfScheduler::new(8);
        s.enqueue(job(1, 10, 100, 20)).unwrap();
        s.enqueue(job(2, 5, 100, 20)).unwrap(); // same laxity, earlier arrival
        assert_eq!(s.dispatch(t(0)).chosen.unwrap().payload, 2);
    }

    #[test]
    fn ties_after_a_drop_break_by_bag_position() {
        // Jobs 2-4 tie on laxity and arrival. Dropping job 1 swap-removes
        // it, moving job 4 into the front slot, so job 4 goes first.
        for mut s in [
            Box::new(LlfScheduler::new(8)) as Box<dyn Scheduler<u32>>,
            Box::new(EdfScheduler::new(8)),
        ] {
            s.enqueue(job(1, 0, 10, 20)).unwrap(); // hopeless from birth
            for id in 2..=4 {
                s.enqueue(job(id, 0, 100, 20)).unwrap();
            }
            let out = s.dispatch(t(0));
            assert_eq!(out.dropped.len(), 1);
            let mut order = vec![out.chosen.unwrap().payload];
            order.extend((0..2).map(|_| s.dispatch(t(0)).chosen.unwrap().payload));
            assert_eq!(order, [4, 2, 3]);
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        LlfScheduler::<u32>::new(0);
    }
}
