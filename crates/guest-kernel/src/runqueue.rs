//! Per-vCPU run queues with CFS-style virtual-runtime ordering.
//!
//! Each vCPU owns one [`RunQueue`]. Threads are ordered by accumulated
//! *vruntime*; the scheduler picks the smallest. A freshly woken thread's
//! vruntime is clamped to just below the queue minimum so sleepers get a
//! modest latency advantage without starving the queue (Linux's
//! `place_entity` behaviour, simplified to equal load weights).

use sim_core::ids::ThreadId;
use sim_core::time::SimDuration;

/// CFS-like ready queue for one vCPU.
///
/// Backed by a `Vec` kept sorted **descending** by `(vruntime_ns, tid)`,
/// so the next thread to run (smallest vruntime) pops from the tail in
/// O(1). Queues hold a handful of threads, so the O(n) sorted insert is
/// a couple of cache-line shifts — and unlike a `BTreeSet`, the vector
/// keeps its capacity when the queue drains, so the empty→ready cycle
/// that every idle vCPU goes through allocates nothing in steady state.
#[derive(Clone, Debug, Default)]
pub struct RunQueue {
    /// Ready threads ordered by `(vruntime_ns, tid)` descending.
    queue: Vec<(u64, ThreadId)>,
    /// Monotone floor for placing woken threads.
    min_vruntime: u64,
}

impl RunQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RunQueue::default()
    }

    /// Number of ready (queued, not running) threads.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no thread is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queue's minimum-vruntime floor.
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Position of `key` in the descending-sorted vector.
    fn pos(&self, key: (u64, ThreadId)) -> Result<usize, usize> {
        self.queue.binary_search_by(|probe| key.cmp(probe))
    }

    /// Enqueues a ready thread at its current vruntime.
    pub fn enqueue(&mut self, tid: ThreadId, vruntime: u64) {
        match self.pos((vruntime, tid)) {
            Err(i) => self.queue.insert(i, (vruntime, tid)),
            Ok(_) => debug_assert!(false, "thread {tid} double-enqueued"),
        }
    }

    /// Places a *woken* thread: clamps its vruntime to
    /// `max(own, min_vruntime − sleeper_bonus)` and enqueues it.
    /// Returns the effective vruntime used.
    pub fn place_woken(&mut self, tid: ThreadId, vruntime: u64, sleeper_bonus: SimDuration) -> u64 {
        let floor = self.min_vruntime.saturating_sub(sleeper_bonus.as_ns());
        let v = vruntime.max(floor);
        self.enqueue(tid, v);
        v
    }

    /// Removes and returns the smallest-vruntime thread (the tail).
    pub fn pick_next(&mut self) -> Option<(u64, ThreadId)> {
        let entry = self.queue.pop()?;
        self.min_vruntime = self.min_vruntime.max(entry.0);
        Some(entry)
    }

    /// The smallest queued vruntime, without removal.
    pub fn peek_min(&self) -> Option<(u64, ThreadId)> {
        self.queue.last().copied()
    }

    /// Removes a specific thread (migration / exit from queue).
    /// Returns `true` if it was present.
    pub fn remove(&mut self, tid: ThreadId, vruntime: u64) -> bool {
        match self.pos((vruntime, tid)) {
            Ok(i) => {
                self.queue.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes and returns the thread with the *largest* vruntime — the
    /// cheapest one to migrate (it was going to run last anyway).
    pub fn steal_back(&mut self) -> Option<(u64, ThreadId)> {
        if self.queue.is_empty() {
            return None;
        }
        Some(self.queue.remove(0))
    }

    /// Iterates over queued `(vruntime, tid)` pairs, smallest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ThreadId)> + '_ {
        self.queue.iter().rev().copied()
    }

    /// Drains the whole queue (vCPU evacuation), smallest vruntime first,
    /// appending into a caller-owned scratch buffer so repeated
    /// evacuations reuse one allocation.
    pub fn drain_into(&mut self, out: &mut Vec<(u64, ThreadId)>) {
        out.extend(self.queue.iter().rev().copied());
        self.queue.clear();
    }
}
sim_core::snap_struct!(RunQueue {
    queue,
    min_vruntime
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn picks_smallest_vruntime() {
        let mut rq = RunQueue::new();
        rq.enqueue(t(1), 300);
        rq.enqueue(t(2), 100);
        rq.enqueue(t(3), 200);
        assert_eq!(rq.pick_next(), Some((100, t(2))));
        assert_eq!(rq.pick_next(), Some((200, t(3))));
        assert_eq!(rq.pick_next(), Some((300, t(1))));
        assert_eq!(rq.pick_next(), None);
    }

    #[test]
    fn min_vruntime_is_monotone() {
        let mut rq = RunQueue::new();
        rq.enqueue(t(1), 500);
        rq.pick_next();
        assert_eq!(rq.min_vruntime(), 500);
        rq.enqueue(t(2), 100);
        rq.pick_next();
        // Floor never moves backwards.
        assert_eq!(rq.min_vruntime(), 500);
    }

    #[test]
    fn place_woken_clamps_to_floor() {
        let mut rq = RunQueue::new();
        rq.enqueue(t(1), 10_000_000);
        rq.pick_next(); // min_vruntime = 10ms.
        let v = rq.place_woken(t(2), 0, SimDuration::from_ms(3));
        assert_eq!(v, 7_000_000, "woken thread placed at floor - bonus");
        // A thread with larger vruntime keeps it.
        let v = rq.place_woken(t(3), 20_000_000, SimDuration::from_ms(3));
        assert_eq!(v, 20_000_000);
    }

    #[test]
    fn steal_back_takes_largest() {
        let mut rq = RunQueue::new();
        rq.enqueue(t(1), 100);
        rq.enqueue(t(2), 900);
        rq.enqueue(t(3), 500);
        assert_eq!(rq.steal_back(), Some((900, t(2))));
        assert_eq!(rq.len(), 2);
    }

    #[test]
    fn remove_specific_thread() {
        let mut rq = RunQueue::new();
        rq.enqueue(t(1), 100);
        rq.enqueue(t(2), 200);
        assert!(rq.remove(t(1), 100));
        assert!(!rq.remove(t(1), 100));
        assert_eq!(rq.pick_next(), Some((200, t(2))));
    }

    #[test]
    fn drain_returns_everything_in_order() {
        let mut rq = RunQueue::new();
        rq.enqueue(t(3), 30);
        rq.enqueue(t(1), 10);
        rq.enqueue(t(2), 20);
        let mut all = Vec::new();
        rq.drain_into(&mut all);
        assert_eq!(all, vec![(10, t(1)), (20, t(2)), (30, t(3))]);
        assert!(rq.is_empty());
    }
}
