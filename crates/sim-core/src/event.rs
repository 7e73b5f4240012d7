//! Cancellable discrete-event queue with deterministic tie-breaking.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is the
//! order of insertion: two events scheduled for the same instant fire in the
//! order they were scheduled. This makes the whole simulation deterministic
//! given a deterministic producer.
//!
//! [`EventQueue`] holds two kinds of pending event, merged by `(time,
//! seq)` on every pop:
//!
//! - **Scheduled events** ([`EventQueue::schedule`]). Their `(time, seq)`
//!   keys sit in a binary heap and their payloads in a slab, so an
//!   [`EventHandle`] cancels in O(1): `cancel` takes the payload at once,
//!   and the dead key leaves the heap when it reaches the top. Each slab
//!   slot carries a generation, so a handle whose event already fired or
//!   was cancelled is rejected, even after its slot is reused. A pop is
//!   one heap operation.
//! - **Keyed timers** ([`EventQueue::arm`]), below.
//!
//! # Keyed timers
//!
//! A queue built with [`EventQueue::with_timers`]`(n)` has `n` keyed
//! timers: [`arm`]`(key, time, payload)` replaces any pending event of that
//! key, and [`disarm`]`(key)` drops it. A timer is the right shape for an
//! event that is re-armed far more often than it fires and that has at most
//! one pending instance per key. The machine keys two timers per pCPU: the
//! guest plan event (a vCPU's next local deadline), because a vCPU has a
//! pending plan only while it holds a pCPU, and the slice end, because a
//! pCPU has one only while it runs a vCPU.
//!
//! Timers live in a tournament tree whose padded leaves are the keys and
//! whose every node stores its subtree's `(time, seq)` minimum inline.
//! `arm` rewrites one leaf and its path to the root, carrying the winner up
//! and picking it with a conditional move, not a branch. `arm` draws its
//! `seq` from the counter `schedule` uses, so a re-arm is ordered exactly
//! like the cancel-then-schedule it replaces, and `pop_next_until`,
//! `peek_time`, `peek_time_hint`, `len` and `drain_ordered` merge the
//! tree's root with the heap by `(time, seq)`. Delivery order is therefore
//! the one a single global priority queue would give; the proptests pin
//! this against a naive reference model.
//!
//! Removal is lazy: a timer that fires keeps its leaf until the next
//! operation that reads the tree. If that operation re-arms the same key —
//! the usual case, since a plan handler re-plans its own vCPU — one path
//! update both clears and re-arms the leaf. `pop_next_until` clears a
//! pending leaf before it returns `None`, so at rest
//! [`EventQueue::peek_time_hint`] is exact for timers.
//!
//! [`arm`]: EventQueue::arm
//! [`disarm`]: EventQueue::disarm

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An opaque handle identifying a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

/// One slab slot: a scheduled event's payload while its key is in the
/// heap.
struct Slot<E> {
    /// Bumped every time the slot is released, so stale handles (after
    /// fire or double cancel) fail the generation check in O(1).
    gen: u32,
    /// `None` once the event was cancelled; its key still sits in the
    /// heap until it reaches the top.
    payload: Option<E>,
}

/// A heap key: `(time, seq)` with the comparison reversed because
/// `BinaryHeap` is a max-heap, and the slab slot of its payload.
struct HeapEntry {
    time: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Marks a tree node or fired slot that holds no timer key.
const NO_KEY: u32 = u32::MAX;

/// One node of the timer tournament tree: the `(time, seq)` minimum of its
/// subtree, stored inline so an update never chases a leaf index, and the
/// key whose leaf holds it.
#[derive(Clone, Copy, Debug)]
struct TimerNode {
    time: u64,
    seq: u64,
    key: u32,
}

impl TimerNode {
    /// An unarmed leaf: loses to every armed one.
    const IDLE: TimerNode = TimerNode {
        time: u64::MAX,
        seq: u64::MAX,
        key: NO_KEY,
    };
}

/// The keyed timers of an [`EventQueue`]: at most one pending event per
/// key, with the earliest `(time, seq)` at the root of a tournament tree.
struct Timers<E> {
    /// Heap layout: node 1 is the root, node `i` has children `2i` and
    /// `2i + 1`, and key `k`'s leaf is node `width + k`. Node 0 is unused.
    tree: Vec<TimerNode>,
    /// Leaf count: the key count padded to a power of two.
    width: usize,
    /// Each key's pending payload.
    payload: Vec<Option<E>>,
    /// Keys with a pending payload.
    armed: usize,
    /// The key that fired last, whose leaf still sits in the tree until
    /// [`Timers::commit`] clears it or a re-arm of the same key overwrites
    /// it; [`NO_KEY`] when none.
    fired: u32,
}

impl<E> Timers<E> {
    fn new(keys: usize) -> Self {
        let width = keys.next_power_of_two();
        Timers {
            tree: vec![TimerNode::IDLE; 2 * width],
            width,
            payload: std::iter::repeat_with(|| None).take(keys).collect(),
            armed: 0,
            fired: NO_KEY,
        }
    }

    /// Writes `key`'s leaf and replays its path to the root. The path's
    /// winner rides up in registers and meets one sibling per level, so
    /// the only loads are the siblings, which do not wait on the
    /// comparisons; the selection is a conditional move, not a branch
    /// the random plan times would mispredict. Armed leaves never tie
    /// (their `seq`s differ) and idle leaves are interchangeable, so which
    /// side wins a tie does not matter.
    #[inline]
    fn set_leaf(&mut self, key: usize, leaf: TimerNode) {
        let mut i = self.width + key;
        let mut win = leaf;
        self.tree[i] = leaf;
        while i > 1 {
            let sib = self.tree[i ^ 1];
            let sib_wins = (sib.time < win.time) | ((sib.time == win.time) & (sib.seq < win.seq));
            win = std::hint::select_unpredictable(sib_wins, sib, win);
            i >>= 1;
            self.tree[i] = win;
        }
    }

    /// Clears the leaf of the last fired key, if it is still in the tree.
    fn commit(&mut self) {
        if self.fired != NO_KEY {
            let key = self.fired as usize;
            self.fired = NO_KEY;
            self.set_leaf(key, TimerNode::IDLE);
        }
    }

    /// The earliest armed `(time, seq)`. Call after [`Timers::commit`]:
    /// a fired leaf would otherwise shadow the true minimum.
    fn first(&self) -> Option<(u64, u64)> {
        debug_assert_eq!(self.fired, NO_KEY, "read the tree before commit");
        let root = self.tree[1];
        (self.armed > 0).then_some((root.time, root.seq))
    }

    fn arm(&mut self, key: usize, time: u64, seq: u64, payload: E) {
        if self.fired == key as u32 {
            // The re-arm's path update clears the fired leaf too.
            self.fired = NO_KEY;
        }
        if self.payload[key].replace(payload).is_none() {
            self.armed += 1;
        }
        self.set_leaf(
            key,
            TimerNode {
                time,
                seq,
                key: key as u32,
            },
        );
    }

    fn disarm(&mut self, key: usize) -> bool {
        // A fired key has no payload; its leaf waits for the next commit.
        if self.payload[key].take().is_none() {
            return false;
        }
        self.armed -= 1;
        self.set_leaf(key, TimerNode::IDLE);
        true
    }

    /// Takes the root timer's payload; its leaf stays until the next
    /// [`Timers::commit`] or re-arm of the key.
    fn fire(&mut self) -> (u64, E) {
        debug_assert_eq!(self.fired, NO_KEY);
        let root = self.tree[1];
        self.fired = root.key;
        self.armed -= 1;
        let payload = self.payload[root.key as usize]
            .take()
            .expect("the root of an armed tree has a payload");
        (root.time, payload)
    }

    /// Disarms every key, keeping the tree's and the payloads' capacity.
    fn clear(&mut self) {
        self.tree.fill(TimerNode::IDLE);
        self.payload.iter_mut().for_each(|p| *p = None);
        self.armed = 0;
        self.fired = NO_KEY;
    }
}

/// A deterministic priority queue of timestamped events: a binary heap of
/// scheduled events merged with keyed timers.
///
/// # Examples
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_ms(5), "late");
/// q.schedule(SimTime::from_ms(1), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_ms(1), "early"));
/// ```
pub struct EventQueue<E> {
    /// Payloads of scheduled events, indexed by their heap keys.
    slots: Vec<Slot<E>>,
    /// Released slots, reused before the slab grows.
    free: Vec<u32>,
    /// Keys of scheduled events, live and cancelled.
    heap: BinaryHeap<HeapEntry>,
    /// Scheduled events neither delivered nor cancelled.
    live: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Keyed timers, merged with the heap by `(time, seq)`.
    timers: Timers<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`] and no
    /// keyed timers.
    pub fn new() -> Self {
        Self::with_timers(0)
    }

    /// Creates an empty queue with keyed timers `0..keys` (see
    /// [`EventQueue::arm`]), all disarmed.
    pub fn with_timers(keys: usize) -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            timers: Timers::new(keys),
        }
    }

    /// Empties the queue, disarms every timer and presets the clock: the
    /// restore path's starting point. A checkpointed queue is rebuilt as
    /// `reset(now, delivered)` plus in-order `schedule` or `arm` calls for
    /// every saved event, which reproduces the original pop order exactly
    /// (delivery order is `(time, insertion order)` and reinsertion
    /// preserves both). The timer keys and every capacity are kept, and
    /// slot generations restart, as in a new queue.
    pub fn reset(&mut self, now: SimTime, delivered: u64) {
        self.slots.clear();
        self.free.clear();
        self.heap.clear();
        self.live = 0;
        self.next_seq = 0;
        self.now = now;
        self.popped = delivered;
        self.timers.clear();
    }

    /// Removes **every** live event in exact pop order and resets the
    /// queue to empty with the clock and delivered count unchanged.
    ///
    /// This is the checkpoint path's canonical-order capture: the queue's
    /// internal layout (slab indices, heap order, generations) is
    /// implementation detail that two behaviorally identical queues can
    /// disagree on, so images store the drained `(time, payload)` list —
    /// the part that determines all future behavior — and restore rebuilds
    /// the queue by rescheduling it in order. Outstanding [`EventHandle`]s
    /// are invalidated and every timer is disarmed; callers that keep
    /// handles or timer owners must rebuild them from the requeued
    /// payloads.
    pub fn drain_ordered(&mut self) -> Vec<(SimTime, E)> {
        let (saved_now, saved_popped) = (self.now, self.popped);
        let mut out = Vec::with_capacity(self.len());
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        self.reset(saved_now, saved_popped);
        out
    }

    /// The current simulation clock: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of live (not cancelled) events still queued, armed
    /// timers included.
    pub fn len(&self) -> usize {
        self.live + self.timers.armed
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (monotonic).
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at absolute time `time`. O(log n).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock — scheduling into
    /// the past is always a simulation bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        assert!(
            time >= self.now,
            "scheduling into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].payload = Some(payload);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                i
            }
        };
        self.live += 1;
        self.heap.push(HeapEntry { time, seq, idx });
        EventHandle(u64::from(idx) | (u64::from(self.slots[idx as usize].gen) << 32))
    }

    /// Cancels a previously scheduled event. O(1): the payload is dropped
    /// at once; its heap key is discarded when it reaches the top.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. Cancelling a fired event is harmless.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let idx = (handle.0 & 0xFFFF_FFFF) as usize;
        let gen = (handle.0 >> 32) as u32;
        let Some(slot) = self.slots.get_mut(idx) else {
            return false;
        };
        if slot.gen != gen || slot.payload.take().is_none() {
            return false;
        }
        self.live -= 1;
        true
    }

    /// Arms timer `key` to deliver `payload` at `time`, replacing its
    /// pending event if it has one. One tree-path update; no slab slot,
    /// no heap key. The new event takes the next `seq`, exactly as
    /// `cancel` of the old one followed by `schedule` would.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_core::{EventQueue, SimTime};
    ///
    /// let mut q: EventQueue<&str> = EventQueue::with_timers(2);
    /// q.arm(0, SimTime::from_ms(5), "first plan");
    /// q.schedule(SimTime::from_ms(3), "scheduled");
    /// q.arm(0, SimTime::from_ms(2), "re-planned"); // replaces "first plan"
    /// assert_eq!(q.len(), 2);
    /// assert_eq!(q.pop(), Some((SimTime::from_ms(2), "re-planned")));
    /// assert_eq!(q.pop(), Some((SimTime::from_ms(3), "scheduled")));
    /// assert_eq!(q.pop(), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `key` is not below the count given to
    /// [`EventQueue::with_timers`], or if `time` is earlier than the
    /// current clock.
    pub fn arm(&mut self, key: usize, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "arming into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.arm(key, time.as_ns(), seq, payload);
    }

    /// Drops timer `key`'s pending event. Returns `true` if it was still
    /// pending, `false` if it already fired or was never armed.
    pub fn disarm(&mut self, key: usize) -> bool {
        self.timers.disarm(key)
    }

    /// Whether timer `key` has a pending event.
    pub fn is_armed(&self, key: usize) -> bool {
        self.timers.payload[key].is_some()
    }

    /// Removes and returns the earliest live event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_next_until(SimTime::MAX)
    }

    /// Removes and returns the earliest live event if it fires at or before
    /// `deadline`; otherwise returns `None` and delivers nothing. The
    /// heap's top and the timer tree's root compete by `(time, seq)`.
    pub fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        self.timers.commit();
        self.strip_cancelled();
        let timer = self.timers.first();
        let top = self.heap.peek().map(|e| (e.time.as_ns(), e.seq));
        let (t, from_timer) = match (top, timer) {
            (Some(h), Some(k)) if k < h => (k.0, true),
            (Some(h), _) => (h.0, false),
            (None, Some(k)) => (k.0, true),
            (None, None) => return None,
        };
        if t > deadline.as_ns() {
            return None;
        }
        if from_timer {
            return Some(self.fire_timer());
        }
        let e = self.heap.pop().expect("peeked");
        let payload = self.slots[e.idx as usize]
            .payload
            .take()
            .expect("the stripped top is live");
        self.release(e.idx);
        self.live -= 1;
        self.popped += 1;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, payload))
    }

    /// Delivers the root timer, advancing the clock to its time.
    fn fire_timer(&mut self) -> (SimTime, E) {
        let (t, payload) = self.timers.fire();
        let t = SimTime::from_ns(t);
        debug_assert!(t >= self.now);
        self.now = t;
        self.popped += 1;
        (t, payload)
    }

    /// The timestamp of the next live event, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.timers.commit();
        self.strip_cancelled();
        let timer = self.timers.first().map(|(t, _)| SimTime::from_ns(t));
        match (self.heap.peek().map(|e| e.time), timer) {
            (Some(h), Some(t)) => Some(h.min(t)),
            (h, t) => h.or(t),
        }
    }

    /// A cheap lower bound on the next live event's time, without
    /// reorganizing anything: the minimum of the heap's top and the timer
    /// tree's root. The top may be a cancelled key, which makes the bound
    /// conservative (earlier than the true next event) but never too
    /// late, and an empty queue is answered exactly. The timer part is
    /// exact whenever the queue is at rest (the last `pop_next_until`
    /// returned `None`); a timer that just fired keeps its leaf until the
    /// next pop, which can only pull the bound down to `now`.
    /// `run_until`-style loops call this first and only pop when the
    /// bound is within their deadline.
    pub fn peek_time_hint(&self) -> Option<SimTime> {
        // Cancelled keys may outlive every live event: only a live
        // scheduled event lets the heap's top count.
        let heap = self
            .heap
            .peek()
            .filter(|_| self.live > 0)
            .map(|e| e.time.as_ns());
        let timer = (self.timers.armed > 0).then(|| self.timers.tree[1].time);
        let best = match (heap, timer) {
            (Some(h), Some(t)) => h.min(t),
            (h, t) => h.or(t)?,
        };
        Some(SimTime::from_ns(best.max(self.now.as_ns())))
    }

    // -- internals ----------------------------------------------------

    /// Discards cancelled keys off the heap's top, so the top is live.
    fn strip_cancelled(&mut self) {
        while self.heap.len() > self.live {
            let idx = self.heap.peek().expect("more keys than live events").idx;
            if self.slots[idx as usize].payload.is_some() {
                return;
            }
            self.heap.pop();
            self.release(idx);
        }
    }

    /// Returns a slab slot whose key left the heap to the free list and
    /// invalidates outstanding handles to it.
    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.payload.is_none());
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_and_advances_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(3), "c");
        q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(q.now(), SimTime::from_ms(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert_eq!(q.now(), SimTime::from_ms(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        assert!(q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
        // Only live events count as delivered.
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(4), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(4)));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(7);
        for i in 0..10u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// Cancelling an already-fired handle must return `false`, leave
    /// `len()` untouched, and leak nothing.
    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_ms(1), "a");
        assert!(q.pop().is_some());
        assert!(!q.cancel(h), "cancel after fire must report false");
        assert_eq!(q.len(), 0, "fired-handle cancel must not corrupt len");
        q.schedule(SimTime::from_ms(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        // Double-cancel is also a reported no-op.
        let h2 = q.schedule(SimTime::from_ms(3), "c");
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_handle_after_slab_reuse_is_rejected() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let h = q.schedule(SimTime::from_ms(1), 1);
        q.pop();
        // The slab slot is free; a new event may reuse it. The old handle
        // must still be dead (generation counter).
        let h2 = q.schedule(SimTime::from_ms(2), 2);
        assert!(!q.cancel(h));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h2));
    }

    #[test]
    fn cancelled_keys_leave_the_heap_and_free_their_slots() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let far = SimTime::from_secs(10);
        let handles: Vec<_> = (0..100u32).map(|i| q.schedule(far, i)).collect();
        for h in &handles[..96] {
            assert!(q.cancel(*h));
        }
        assert_eq!(q.len(), 4);
        // The dead keys leave as the top reaches them, and the survivors
        // pop in insertion order.
        assert_eq!(q.pop(), Some((far, 96)));
        assert_eq!(q.heap.len(), 3);
        assert!(!q.cancel(handles[0]), "a released slot's handle is dead");
        // Released slots are reused before the slab grows.
        for i in 0..97u32 {
            q.schedule(far, 1_000 + i);
        }
        assert_eq!(q.slots.len(), 100);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(5), ());
        q.schedule(SimTime::from_ms(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(9));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(5), ());
        q.pop();
        q.schedule(SimTime::from_ms(1), ());
    }

    #[test]
    fn far_future_events_order_correctly() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(40_000_000); // ~463 days
        let farther = SimTime::from_secs(50_000_000);
        q.schedule(farther, 3u32);
        q.schedule(far, 2u32);
        q.schedule(SimTime::from_ms(1), 1u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_then_reschedule_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(10);
        let h = q.schedule(t, "old");
        q.schedule(t, "other");
        assert!(q.cancel(h));
        q.schedule(t, "new");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        // Insertion order among the survivors at the same instant.
        assert_eq!(order, vec!["other", "new"]);
    }

    /// `pop_next_until` delivers exactly the events at or before the
    /// deadline, in order, and leaves the rest.
    #[test]
    fn pop_next_until_respects_deadline() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(5);
        for i in 0..4u32 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_ms(9), 99);
        // Deadline before the first instant: nothing moves.
        assert!(q.pop_next_until(SimTime::from_ms(4)).is_none());
        assert_eq!(q.len(), 5);
        // The whole instant drains in insertion order, then stops at the
        // deadline even though a later event exists.
        for i in 0..4u32 {
            assert_eq!(q.pop_next_until(SimTime::from_ms(7)), Some((t, i)));
        }
        assert!(q.pop_next_until(SimTime::from_ms(7)).is_none());
        assert_eq!(q.now(), t);
        assert_eq!(
            q.pop_next_until(SimTime::from_ms(9)),
            Some((SimTime::from_ms(9), 99))
        );
        assert!(q.pop_next_until(SimTime::MAX).is_none());
    }

    #[test]
    fn cancel_within_an_instant_is_honored() {
        // Cancelling an event after the first event of its instant was
        // served must still suppress it.
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ms(3);
        q.schedule(t, 0);
        let h1 = q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop_next_until(t), Some((t, 0)));
        assert_eq!(q.peek_time(), Some(t));
        assert!(q.cancel(h1), "the same-instant event is still pending");
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop_next_until(t), Some((t, 2)));
        assert!(q.pop_next_until(SimTime::MAX).is_none());
        assert_eq!(q.delivered(), 2);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn schedule_at_now_keeps_seq_order() {
        // A handler scheduling at the current instant must see its event
        // fire after every event of that instant scheduled before it.
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ms(2);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert!(q.pop().is_none());
    }

    /// The immutable hint answers emptiness exactly, lower-bounds the next
    /// event, and stays a valid (conservative) bound when the true
    /// minimum is a cancelled key.
    #[test]
    fn peek_time_hint_bounds_the_next_event() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time_hint(), None);
        let far = SimTime::from_secs(30 * 24 * 3600);
        q.schedule(far, 1u64);
        assert_eq!(q.peek_time_hint(), Some(far));
        q.schedule(SimTime::from_ms(3), 2);
        assert_eq!(q.peek_time_hint(), Some(SimTime::from_ms(3)));
        // A cancelled key at the top keeps the hint early, never late.
        let h = q.schedule(SimTime::from_us(1), 3);
        assert!(q.cancel(h));
        assert_eq!(q.peek_time_hint(), Some(SimTime::from_us(1)));
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(3)));
        // Once nothing is live, cancelled keys no longer count.
        let h = q.schedule(SimTime::from_ms(2), 4);
        q.cancel(h);
        while q.pop().is_some() {}
        let h = q.schedule(SimTime::from_secs(31 * 24 * 3600), 5);
        q.cancel(h);
        assert_eq!(q.peek_time_hint(), None);
    }

    /// A timer re-armed onto an instant that already holds scheduled
    /// events fires after them, as cancel-then-schedule would.
    #[test]
    fn rearm_orders_like_cancel_then_schedule() {
        let mut q = EventQueue::with_timers(3);
        let t = SimTime::from_ms(1);
        q.arm(1, t, "stale");
        q.schedule(t, "a");
        q.arm(2, t, "other key");
        q.arm(1, t, "re-armed");
        q.schedule(t, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "other key", "re-armed", "b"]);
    }

    #[test]
    fn rearming_the_fired_key_takes_one_path_update() {
        let mut q: EventQueue<u32> = EventQueue::with_timers(2);
        q.arm(1, SimTime::from_ms(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), 1)));
        assert_eq!(
            q.timers.fired, 1,
            "the fired leaf waits for the next tree read"
        );
        q.arm(1, SimTime::from_ms(2), 2);
        assert_eq!(q.timers.fired, NO_KEY, "the re-arm cleared it");
        assert!(!q.disarm(0), "never armed");
        assert!(q.is_armed(1));
        assert!(q.disarm(1));
        assert!(!q.disarm(1), "double disarm");
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn timer_hint_is_exact_at_rest() {
        let ms = SimTime::from_ms;
        let mut q: EventQueue<u32> = EventQueue::with_timers(4);
        // A cancelled key earlier than every timer must not pull the
        // hint down: no scheduled event is live.
        let h = q.schedule(ms(1), 0);
        q.cancel(h);
        q.arm(2, ms(5), 2);
        q.arm(3, ms(7), 3);
        assert_eq!(q.pop_next_until(ms(4)), None);
        assert_eq!(q.peek_time_hint(), Some(ms(5)));
        assert_eq!(q.pop_next_until(ms(6)), Some((ms(5), 2)));
        // The fired leaf waits for the next pop; the hint may only fall
        // to `now` meanwhile.
        assert!(q.peek_time_hint().is_some_and(|t| t >= ms(5) && t <= ms(7)));
        assert_eq!(q.pop_next_until(ms(6)), None);
        assert_eq!(q.peek_time_hint(), Some(ms(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_ordered_keeps_the_timer_keys() {
        let ms = SimTime::from_ms;
        let mut q = EventQueue::with_timers(3);
        q.arm(2, ms(3), "timer");
        q.schedule(ms(3), "scheduled");
        q.schedule(ms(1), "early");
        q.pop();
        q.arm(0, ms(2), "fired");
        assert_eq!(q.pop_next_until(ms(2)), Some((ms(2), "fired")));
        let drained = q.drain_ordered();
        assert_eq!(drained, [(ms(3), "timer"), (ms(3), "scheduled")]);
        assert!(q.is_empty() && !q.is_armed(0) && !q.is_armed(2));
        assert_eq!((q.now(), q.delivered()), (ms(2), 2));
        assert_eq!(q.peek_time_hint(), None);
        q.arm(2, ms(4), "again");
        assert_eq!(q.pop(), Some((ms(4), "again")));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use testkit::{just, one_of, prop_assert, prop_assert_eq, run_prop, u64_in, usize_in, vec_of};
    use testkit::{tuple2, Config, Gen};

    /// Timer keys the op streams use: not a power of two, so the
    /// tournament tree has padding leaves.
    const KEYS: usize = 5;

    /// Operations driven against both the queue and a reference model.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Schedule(u64),
        Cancel(usize),
        Pop,
        /// `pop_next_until(now + delta)`.
        PopUntil(u64),
        /// `arm(key, now + delta)`.
        Arm(usize, u64),
        Disarm(usize),
        /// `drain_ordered`, then every drained event back in order: keyed
        /// ones through `arm`, the rest through `schedule`.
        Drain,
    }

    /// Timer ops: re-arms 0–3 ns out tie with same-instant scheduled
    /// events, so the `(time, seq)` merge, not the time alone, decides the
    /// order.
    fn timer_ops(far: Gen<u64>) -> Vec<Gen<Op>> {
        vec![
            tuple2(usize_in(0..KEYS), u64_in(0..4)).map(|(k, dt)| Op::Arm(k, dt)),
            tuple2(usize_in(0..KEYS), far).map(|(k, dt)| Op::Arm(k, dt)),
            usize_in(0..KEYS).map(Op::Disarm),
        ]
    }

    fn arb_op() -> Gen<Op> {
        let mut ops = vec![
            u64_in(0..10_000).map(Op::Schedule),
            u64_in(0..4).map(Op::Schedule),
            usize_in(0..64).map(Op::Cancel),
            just(Op::Pop),
            u64_in(0..5_000).map(Op::PopUntil),
        ];
        ops.extend(timer_ops(u64_in(0..10_000)));
        one_of(ops)
    }

    /// Deltas from nanoseconds to days, and past 2^49 ns: gaps far wider
    /// than any run of the simulator leaves between events.
    fn arb_wide_op() -> Gen<Op> {
        let mut ops = vec![
            u64_in(0..1 << 20).map(Op::Schedule),
            u64_in(0..1 << 28).map(Op::Schedule),
            u64_in(0..1 << 38).map(Op::Schedule),
            u64_in((1 << 49)..(1 << 52)).map(Op::Schedule),
            u64_in(0..4).map(Op::Schedule),
            usize_in(0..64).map(Op::Cancel),
            just(Op::Pop),
            just(Op::Pop),
            u64_in(0..1 << 28).map(Op::PopUntil),
        ];
        ops.extend(timer_ops(u64_in(0..1 << 38)));
        ops.push(u64_in(0..4).map(Op::PopUntil));
        one_of(ops)
    }

    /// [`arb_op`] plus mid-stream `drain_ordered` and re-arm.
    fn arb_drain_op() -> Gen<Op> {
        one_of(vec![arb_op(), arb_op(), arb_op(), just(Op::Drain)])
    }

    /// The queue under test, with the handles and timer owners the op
    /// stream refers to by index.
    struct Driven {
        q: EventQueue<usize>,
        handles: Vec<Option<EventHandle>>,
        keyed: [Option<usize>; KEYS],
    }

    impl Driven {
        fn new() -> Self {
            Driven {
                q: EventQueue::with_timers(KEYS),
                handles: Vec::new(),
                keyed: [None; KEYS],
            }
        }

        fn schedule(&mut self, t: SimTime, id: usize) {
            let h = self.q.schedule(t, id);
            self.handles.push(Some(h));
        }

        fn arm(&mut self, k: usize, t: SimTime, id: usize) {
            self.q.arm(k, t, id);
            self.keyed[k] = Some(id);
            self.handles.push(None);
        }

        fn disarm(&mut self, k: usize) -> bool {
            self.keyed[k] = None;
            self.q.disarm(k)
        }

        fn cancel(&mut self, i: usize) -> Option<bool> {
            let h = (*self.handles.get(i)?)?;
            Some(self.q.cancel(h))
        }

        /// `drain_ordered`, then every event back in drained order.
        fn drain(&mut self) -> Vec<(SimTime, usize)> {
            let drained = self.q.drain_ordered();
            self.handles.iter_mut().for_each(|h| *h = None);
            let was_keyed = std::mem::replace(&mut self.keyed, [None; KEYS]);
            for &(t, id) in &drained {
                match was_keyed.iter().position(|&k| k == Some(id)) {
                    Some(k) => {
                        self.q.arm(k, t, id);
                        self.keyed[k] = Some(id);
                    }
                    None => self.handles[id] = Some(self.q.schedule(t, id)),
                }
            }
            drained
        }
    }

    /// The queue delivers exactly the non-cancelled events, in
    /// (time, insertion-order) order, against a naive reference: a list
    /// of `(time, done)` per event id, scanned for its `(time, id)`
    /// minimum. An event's id is its insertion order, which is also its
    /// `seq`, and survives `Drain` (re-insertion keeps the drained order).
    ///
    /// Before every `Pop`, `peek_time` must equal the reference minimum,
    /// and the hint taken before it must be `Some` exactly when an event
    /// is live and never above the exact answer. After every op, `len`
    /// counts the live events and `delivered` the pops. Whenever
    /// `pop_next_until` returns `None` and only timers are pending, the
    /// hint must equal the exact peek.
    fn check_against_reference(ops: &[Op]) -> Result<(), String> {
        let mut d = Driven::new();
        let mut reference: Vec<(u64, bool)> = Vec::new();
        let mut delivered_q: Vec<usize> = Vec::new();
        let mut now = 0u64;
        let pending = |reference: &[(u64, bool)]| {
            reference
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.1)
                .map(|(id, r)| (r.0, id))
                .collect::<Vec<_>>()
        };
        for op in ops {
            match *op {
                Op::Schedule(dt) => {
                    let t = now.saturating_add(dt);
                    d.schedule(SimTime::from_ns(t), reference.len());
                    reference.push((t, false));
                }
                Op::Cancel(i) => {
                    if let Some(reported) = d.cancel(i) {
                        prop_assert_eq!(reported, !reference[i].1);
                        reference[i].1 = true;
                    }
                }
                Op::Arm(k, dt) => {
                    let t = now.saturating_add(dt);
                    if let Some(old) = d.keyed[k] {
                        reference[old].1 = true;
                    }
                    d.arm(k, SimTime::from_ns(t), reference.len());
                    reference.push((t, false));
                }
                Op::Disarm(k) => {
                    let was_pending = d.keyed[k].is_some_and(|id| {
                        let live = !reference[id].1;
                        reference[id].1 = true;
                        live
                    });
                    prop_assert_eq!(d.disarm(k), was_pending);
                }
                Op::Pop => {
                    let want = pending(&reference).into_iter().min();
                    let hint = d.q.peek_time_hint();
                    let exact = d.q.peek_time();
                    prop_assert_eq!(exact, want.map(|(t, _)| SimTime::from_ns(t)));
                    prop_assert_eq!(hint.is_some(), exact.is_some());
                    if let (Some(h), Some(e)) = (hint, exact) {
                        prop_assert!(h <= e, "hint {h} above exact {e}");
                    }
                    let got = d.q.pop();
                    prop_assert_eq!(got.map(|(t, id)| (t.as_ns(), id)), want);
                    if let Some((t, id)) = got {
                        now = t.as_ns();
                        delivered_q.push(id);
                        reference[id].1 = true;
                    }
                }
                Op::PopUntil(dt) => {
                    let deadline = now.saturating_add(dt);
                    if let Some((t, id)) = d.q.pop_next_until(SimTime::from_ns(deadline)) {
                        prop_assert!(t.as_ns() <= deadline, "late delivery: {t} > {deadline}");
                        now = t.as_ns();
                        delivered_q.push(id);
                        reference[id].1 = true;
                    } else {
                        // Nothing at or before the deadline: every still-
                        // pending event must be strictly later.
                        let live = pending(&reference);
                        if let Some(&(e, _)) = live.iter().min() {
                            prop_assert!(e > deadline, "missed event at {e} <= {deadline}");
                        }
                        let unkeyed = live.iter().any(|&(_, id)| !d.keyed.contains(&Some(id)));
                        if !unkeyed {
                            let (hint, exact) = (d.q.peek_time_hint(), d.q.peek_time());
                            prop_assert!(hint == exact, "timer hint {hint:?} != exact {exact:?}");
                        }
                    }
                }
                Op::Drain => {
                    let mut want = pending(&reference);
                    want.sort_unstable();
                    let got: Vec<(u64, usize)> =
                        d.drain().iter().map(|&(t, id)| (t.as_ns(), id)).collect();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(d.q.now().as_ns(), now);
                }
            }
            prop_assert_eq!(d.q.len(), pending(&reference).len());
            prop_assert_eq!(d.q.delivered(), delivered_q.len() as u64);
        }
        // Drain the rest.
        while let Some((_, id)) = d.q.pop() {
            delivered_q.push(id);
            reference[id].1 = true;
        }
        // Every event was delivered exactly once or cancelled.
        prop_assert!(reference.iter().all(|&(_, done)| done));
        prop_assert_eq!(d.q.delivered(), delivered_q.len() as u64);
        // Delivery order is sorted by (time, seq).
        let mut last = (0u64, 0usize);
        for &id in &delivered_q {
            let key = (reference[id].0, id);
            prop_assert!(key >= last, "out of order: {key:?} after {last:?}");
            last = key;
        }
        Ok(())
    }

    #[test]
    fn matches_reference_model() {
        let gen = vec_of(arb_op(), 0..200);
        run_prop("matches_reference_model", Config::default(), &gen, |ops| {
            check_against_reference(ops)
        });
    }

    #[test]
    fn matches_reference_model_wide_times() {
        let gen = vec_of(arb_wide_op(), 0..200);
        run_prop(
            "matches_reference_model_wide_times",
            Config::default(),
            &gen,
            |ops| check_against_reference(ops),
        );
    }

    /// `drain_ordered` mid-stream returns every pending event, timers
    /// included, in pop order, and re-inserting them in that order (keyed
    /// ones through `arm`) continues the run unchanged.
    #[test]
    fn drain_and_rearm_mid_stream_matches_reference() {
        let gen = vec_of(arb_drain_op(), 0..200);
        run_prop(
            "drain_and_rearm_mid_stream_matches_reference",
            Config::default(),
            &gen,
            |ops| check_against_reference(ops),
        );
    }

    /// `len` always equals live events; the pop count matches.
    #[test]
    fn len_is_consistent() {
        let gen = tuple2(vec_of(u64_in(0..1_000), 0..100), usize_in(1..5));
        run_prop(
            "len_is_consistent",
            Config::default(),
            &gen,
            |(times, cancel_every)| {
                let mut q = EventQueue::new();
                let mut live = 0usize;
                let mut handles = Vec::new();
                for &t in times {
                    handles.push(q.schedule(SimTime::from_ns(t), t));
                    live += 1;
                }
                for (i, h) in handles.iter().enumerate() {
                    if i % cancel_every == 0 && q.cancel(*h) {
                        live -= 1;
                    }
                }
                prop_assert_eq!(q.len(), live);
                let mut popped = 0;
                while q.pop().is_some() {
                    popped += 1;
                }
                prop_assert_eq!(popped, live);
                Ok(())
            },
        );
    }
}
