//! Cancellable discrete-event queue with deterministic tie-breaking.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is the
//! order of insertion: two events scheduled for the same instant fire in the
//! order they were scheduled. This makes the whole simulation deterministic
//! given a deterministic producer.
//!
//! Two backends implement the same [`EventQueueApi`]:
//!
//! - [`EventQueue`] — a **hierarchical timing wheel** (4 levels × 256 slots,
//!   level-0 granularity 2^18 ns ≈ 262 µs, roughly ¼ of the guest's 1 ms
//!   tick) with an overflow heap for events beyond the wheel horizon
//!   (~13 simulated days). `schedule` and `cancel` are O(1); `pop` is O(1)
//!   amortized plus a small heap operation over the events of the current
//!   slot. Cancellation is *eager*: the payload is dropped immediately and
//!   the slot entry becomes a tombstone reclaimed when it surfaces, so there
//!   is no unbounded cancelled-set. This is the simulator's production
//!   queue — the paper figures are emergent properties of millions of timer
//!   events pushed through it.
//! - [`HeapQueue`] — the original `BinaryHeap` + lazy-deletion backend, kept
//!   as the executable reference model for differential tests and as the
//!   baseline in the `microcosts` throughput bench.
//!
//! # Keyed timers
//!
//! Besides `schedule`/`cancel`, a queue built with
//! [`EventQueue::with_timers`]`(n)` has `n` keyed timers: [`arm`]`(key,
//! time, payload)` replaces any pending event of that key, and
//! [`disarm`]`(key)` drops it. A timer is the right shape for an event
//! that is re-armed far more often than it fires and that has at most one
//! pending instance per key. The machine keys one timer per pCPU for the
//! guest plan events (a vCPU's next local deadline), because a vCPU has a
//! pending plan only while it holds a pCPU.
//!
//! Timers live outside the wheel, in a tournament tree whose padded
//! leaves are the keys and whose every node stores its subtree's `(time,
//! seq)` minimum inline. `arm` rewrites one leaf and its path to the root,
//! carrying the winner up and picking it with a conditional move, not a
//! branch. `arm` draws its `seq` from the counter `schedule` uses, so a re-arm is
//! ordered exactly like the cancel-then-schedule it replaces, and
//! `pop_next_until`, `peek_time`, `peek_time_hint`, `len` and
//! `drain_ordered` merge the tree's root with the wheel by `(time, seq)`.
//! Delivery order is therefore the one a single global priority queue
//! would give; the cross-backend proptests pin this against
//! [`HeapQueue`], whose `arm` *is* cancel-then-schedule.
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
//!
//! # Determinism under slot draining
//!
//! The wheel never delivers straight from a slot. Advancing moves the whole
//! earliest slot into a small `(time, seq)`-ordered *near* heap and only
//! pops from that heap while its minimum is provably earlier than the start
//! of every occupied slot and of the overflow minimum. Since any event in a
//! slot is no earlier than the slot's start, the heap minimum is the global
//! `(time, seq)` minimum — delivery order is bit-identical to a single
//! global priority queue, which the cross-backend proptests pin down.
//!
//! # Same-instant batching
//!
//! [`EventQueue::pop_next_until`] exploits the same invariant in the other
//! direction: because `settle`'s return test is strict, *all* events of the
//! top instant are already in the near heap when it returns, so one settle
//! can batch the whole instant into a run buffer and serve the rest of its
//! events without touching the wheel again. Cancellation of a batched event
//! is honored at serve time (payload tombstone), so batching is invisible
//! to callers — it only removes redundant settles from the simulator's hot
//! dispatch loop.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::time::SimTime;

/// Memoized result of [`EventQueue::earliest_slot`]. The dispatch loop
/// consults the earliest occupied wheel slot up to three times per popped
/// event (the pre-settle hint, the settle boundary, and the post-drain
/// boundary), and each consultation is a scan of every occupancy word of
/// every level. The scan result only changes when occupancy changes, so it
/// is cached here: `schedule` can *lower* the minimum in O(1) (min of the
/// cached slot and the newly occupied one), while anything that clears an
/// occupancy bit (slot drain, tombstone sweep) marks the cache [`Stale`]
/// and the next query rescans. A `Cell` because the hint path borrows the
/// queue immutably.
///
/// [`Stale`]: WheelMin::Stale
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WheelMin {
    /// Occupancy changed in a way the cache cannot track; rescan.
    Stale,
    /// The wheel proper has no occupied slot.
    Empty,
    /// Earliest occupied slot as `(start_ns, level, in-array index)` —
    /// the exact value [`EventQueue::earliest_slot_scan`] would return,
    /// including its prefer-lower-level tie-break.
    At(u64, u8, u16),
}

/// An opaque handle identifying a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

/// The operations both queue backends provide; differential tests and the
/// throughput benches are written against this trait.
pub trait EventQueueApi<E> {
    /// Schedules `payload` at absolute `time`; panics if `time` is in the
    /// past.
    fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle;
    /// Cancels a pending event. Returns `true` only if it was still
    /// pending (not yet fired, not already cancelled).
    fn cancel(&mut self, handle: EventHandle) -> bool;
    /// Removes and returns the earliest live event, advancing the clock.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The timestamp of the next live event, without popping it.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// A cheap lower bound on [`peek_time`](EventQueueApi::peek_time):
    /// `hint <= peek_time()` whenever live events exist, and `None` exactly
    /// when the queue is empty. Never reorganizes internal state, so
    /// `run_until`-style loops can skip the expensive exact peek when the
    /// bound already exceeds their deadline.
    fn peek_time_hint(&self) -> Option<SimTime>;
    /// Removes and returns the earliest live event if it fires at or
    /// before `deadline`, else `None`. Semantically `peek_time() <=
    /// deadline` then `pop()`; backends may amortize (the wheel settles
    /// once per instant and serves same-time events from a run buffer).
    fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
    /// The current simulation clock: the timestamp of the last popped event.
    fn now(&self) -> SimTime;
    /// The number of live (not cancelled) events still queued.
    fn len(&self) -> usize;
    /// True if no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total number of events delivered so far (monotonic).
    fn delivered(&self) -> u64;
    /// Arms timer `key` to deliver `payload` at `time`, replacing any
    /// pending event of that key. Ordered exactly like a `cancel` of the
    /// key's pending event followed by a `schedule`.
    fn arm(&mut self, key: usize, time: SimTime, payload: E);
    /// Drops timer `key`'s pending event. Returns `true` only if it was
    /// still pending.
    fn disarm(&mut self, key: usize) -> bool;
    /// Removes every live event in exact pop order and leaves the queue
    /// empty, with the clock and delivered count unchanged. Outstanding
    /// handles die; timers are disarmed.
    fn drain_ordered(&mut self) -> Vec<(SimTime, E)>;
}

// ---------------------------------------------------------------------
// Timing-wheel backend.
// ---------------------------------------------------------------------

/// log2 of the level-0 slot width in nanoseconds: 2^18 ns ≈ 262 µs,
/// ~¼ of the guest kernel's 1 ms (1000 Hz) tick. IPI latencies (tens of
/// µs) land in the near heap or the next slot; 10 ms hypervisor ticks and
/// 30 ms slices spread across level 0/1 slots.
const GRANULARITY_BITS: u32 = 18;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
const LEVELS: usize = 4;
/// Marker for a node that is not parked in a wheel slot (near heap,
/// overflow heap, or free list).
const LEVEL_NONE: u8 = u8::MAX;
/// Marker for a node batched into the current-instant run buffer by
/// [`EventQueue::pop_next_until`] but not yet served — lets `cancel`
/// keep the run buffer's live count exact.
const LEVEL_RUN: u8 = u8::MAX - 1;
/// Per-level tombstone count that triggers an opportunistic compaction
/// sweep. Cancel-heavy long-horizon workloads (retransmit timers cancelled
/// on ack) would otherwise pin slab nodes until their slot drains — a
/// memory, not time, cost that the sweep bounds.
const SWEEP_THRESHOLD: u32 = 1024;

/// One slab entry. The payload doubles as the liveness flag: `None` is a
/// cancelled (or delivered) tombstone awaiting reclamation.
struct Node<E> {
    time: SimTime,
    seq: u64,
    /// Bumped every time the slab index is reclaimed, so stale handles
    /// (after fire or double-cancel) fail the generation check in O(1).
    gen: u32,
    /// The wheel level whose slot currently holds this node, or
    /// [`LEVEL_NONE`] — lets `cancel` charge the tombstone to the right
    /// level's sweep counter.
    level: u8,
    /// Intrusive link to the next node in the same wheel slot, or [`NIL`].
    /// Slots are singly-linked chains through the slab rather than `Vec`s,
    /// so filing and draining never allocate — the slab is the only
    /// storage the wheel ever grows.
    next: u32,
    payload: Option<E>,
}

/// Chain terminator for the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// Tombstone-sweeping counters of an [`EventQueue`]: cancelled wheel
/// residents awaiting reclamation and how many compaction passes have
/// already reclaimed some eagerly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cancelled nodes currently parked in wheel slots.
    pub pending: u64,
    /// Opportunistic compaction passes performed.
    pub sweeps: u64,
    /// Tombstoned nodes reclaimed by those passes.
    pub swept: u64,
    /// Level-0 slot positions the cursor jumped over without inspection:
    /// the occupancy bitmaps prove them empty, so `settle` never walks
    /// them slot-by-slot.
    pub slots_skipped: u64,
}

/// Min-ordering entry for the near/overflow heaps: `(time, seq)` with the
/// comparison reversed because `BinaryHeap` is a max-heap.
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

/// A deterministic priority queue of timestamped events (timing-wheel
/// backend).
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
    nodes: Vec<Node<E>>,
    free: Vec<u32>,
    /// `slot_head[l][i]` heads an intrusive chain (via [`Node::next`]) of
    /// events whose level-`l` absolute slot is congruent to `i` mod 256,
    /// or [`NIL`] when the slot is empty. The placement rule keeps every
    /// occupied slot within 255 slots of the wheel position, so the
    /// in-array index determines the absolute slot uniquely. Chains make
    /// filing and draining allocation-free; within-slot order is
    /// irrelevant because delivery order comes from the near heap's
    /// `(time, seq)` sort.
    slot_head: [[u32; SLOTS]; LEVELS],
    /// One bit per slot per level: fast next-occupied-slot scans.
    occupancy: [[u64; SLOTS / 64]; LEVELS],
    /// Cached earliest occupied wheel slot; see [`WheelMin`].
    wheel_min: Cell<WheelMin>,
    /// Events of the current (and past) level-0 slots plus overflow
    /// refugees, ordered by `(time, seq)`. Always holds the global minimum
    /// once [`EventQueue::settle`] returns true.
    near: BinaryHeap<HeapEntry>,
    /// Events beyond the level-3 horizon (~13 simulated days out).
    overflow: BinaryHeap<HeapEntry>,
    /// Wheel position: the absolute level-0 slot such that every event
    /// still in a wheel slot is in a strictly later slot.
    pos: u64,
    live: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Cancelled-but-unreclaimed nodes per level; crossing
    /// [`SWEEP_THRESHOLD`] triggers [`EventQueue::sweep_level`].
    tombstones: [u32; LEVELS],
    sweeps: u64,
    swept: u64,
    /// Level-0 slot positions jumped without inspection (occupancy scans).
    skipped: u64,
    /// Slab indices of the current instant's events, batched by
    /// [`EventQueue::pop_next_until`] with a single `settle` and served in
    /// `(time, seq)` order; all share `time == self.now`.
    run_buf: Vec<u32>,
    /// Cursor into `run_buf`: entries before it are already served.
    run_pos: usize,
    /// Live (not since-cancelled) entries remaining in `run_buf`.
    run_live: usize,
    /// Keyed timers, merged with the wheel by `(time, seq)`.
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
            nodes: Vec::new(),
            free: Vec::new(),
            slot_head: [[NIL; SLOTS]; LEVELS],
            occupancy: [[0; SLOTS / 64]; LEVELS],
            wheel_min: Cell::new(WheelMin::Empty),
            near: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            pos: 0,
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            tombstones: [0; LEVELS],
            sweeps: 0,
            swept: 0,
            skipped: 0,
            run_buf: Vec::new(),
            run_pos: 0,
            run_live: 0,
            timers: Timers::new(keys),
        }
    }

    /// Empties the queue, disarms every timer and presets the clock: the
    /// restore path's starting point. A checkpointed queue is rebuilt as
    /// `reset(now, delivered)` plus in-order `schedule` or `arm` calls for
    /// every saved event, which reproduces the original pop order exactly
    /// (delivery order is `(time, insertion order)` and reinsertion
    /// preserves both). The timer keys and their capacity are kept.
    pub fn reset(&mut self, now: SimTime, delivered: u64) {
        let mut timers = std::mem::replace(&mut self.timers, Timers::new(0));
        timers.clear();
        *self = EventQueue {
            now,
            popped: delivered,
            timers,
            ..Self::new()
        };
    }

    /// Removes **every** live event in exact pop order and resets the
    /// queue to empty with the clock and delivered count unchanged.
    ///
    /// This is the checkpoint path's canonical-order capture: the wheel's
    /// internal layout (slab indices, slot chains, generations) is
    /// implementation detail that two behaviorally identical queues can
    /// disagree on, so images store the drained `(time, payload)` list —
    /// the part that determines all future behavior — and restore rebuilds
    /// the wheel by rescheduling it in order. Outstanding [`EventHandle`]s
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

    /// Size in bytes of one slab node: the event payload plus the wheel's
    /// per-event bookkeeping (time, seq, generation, level). The machine's
    /// cache-line budget (`Ev` small enough that a node fits in 64 bytes)
    /// is asserted against this.
    pub const fn node_footprint() -> usize {
        std::mem::size_of::<Node<E>>()
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

    /// Schedules `payload` to fire at absolute time `time`. O(1).
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
                let n = &mut self.nodes[i as usize];
                n.time = time;
                n.seq = seq;
                n.payload = Some(payload);
                i
            }
            None => {
                let i = u32::try_from(self.nodes.len()).expect("slab overflow");
                self.nodes.push(Node {
                    time,
                    seq,
                    gen: 0,
                    level: LEVEL_NONE,
                    next: NIL,
                    payload: Some(payload),
                });
                i
            }
        };
        self.live += 1;
        self.place(idx, time, seq);
        EventHandle(u64::from(idx) | (u64::from(self.nodes[idx as usize].gen) << 32))
    }

    /// Cancels a previously scheduled event. O(1), eager: the payload is
    /// dropped immediately; the slot entry is reclaimed when it surfaces.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. Cancelling a fired event is harmless.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let idx = (handle.0 & 0xFFFF_FFFF) as usize;
        let gen = (handle.0 >> 32) as u32;
        let Some(node) = self.nodes.get_mut(idx) else {
            return false;
        };
        if node.gen != gen || node.payload.is_none() {
            return false;
        }
        node.payload = None;
        self.live -= 1;
        let level = node.level as usize;
        if level < LEVELS {
            // The node stays parked in its slot until the slot drains;
            // charge the tombstone and compact the level if enough of
            // them have piled up.
            self.tombstones[level] += 1;
            if self.tombstones[level] >= SWEEP_THRESHOLD {
                self.sweep_level(level);
            }
        } else if node.level == LEVEL_RUN {
            // Batched for the current instant but not yet served; the
            // serving loop will skip and reclaim it.
            self.run_live -= 1;
        }
        true
    }

    /// Arms timer `key` to deliver `payload` at `time`, replacing its
    /// pending event if it has one. One tree-path update; no slab node,
    /// no wheel slot, no tombstone. The new event takes the next `seq`,
    /// exactly as `cancel` of the old one followed by `schedule` would.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_core::{EventQueue, SimTime};
    ///
    /// let mut q: EventQueue<&str> = EventQueue::with_timers(2);
    /// q.arm(0, SimTime::from_ms(5), "first plan");
    /// q.schedule(SimTime::from_ms(3), "wheel");
    /// q.arm(0, SimTime::from_ms(2), "re-planned"); // replaces "first plan"
    /// assert_eq!(q.len(), 2);
    /// assert_eq!(q.pop(), Some((SimTime::from_ms(2), "re-planned")));
    /// assert_eq!(q.pop(), Some((SimTime::from_ms(3), "wheel")));
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

    /// Tombstone-sweeping counters (see [`SweepStats`]).
    pub fn sweep_stats(&self) -> SweepStats {
        SweepStats {
            pending: self.tombstones.iter().map(|&c| u64::from(c)).sum(),
            sweeps: self.sweeps,
            swept: self.swept,
            slots_skipped: self.skipped,
        }
    }

    /// Removes and returns the earliest live event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_next_until(SimTime::MAX)
    }

    /// Removes and returns the earliest live event if it fires at or before
    /// `deadline`; otherwise returns `None` and delivers nothing.
    /// Semantically identical to `peek_time() <= deadline` followed by
    /// `pop()`, but amortized: the first pop of an instant settles the
    /// wheel **once** and batches every event sharing that timestamp into a
    /// run buffer, so the remaining same-instant pops are a bounds check
    /// and an index load instead of a settle (heap-top tombstone strip +
    /// occupancy scan + boundary comparison) each.
    ///
    /// Correctness of the batch: `settle`'s return test is *strict*
    /// (`near-top time < boundary`, where the boundary is the earliest
    /// occupied slot start or overflow minimum), so when it returns true
    /// every event with the top's timestamp is already in the near heap —
    /// a wheel or overflow resident at that instant would hold the
    /// boundary down and force another drain iteration. Events the caller
    /// schedules *at* the current instant while a batch is being served
    /// get higher sequence numbers than every batched entry and are picked
    /// up by the next refill, and cancellations of batched entries are
    /// honored at serve time via the payload tombstone — delivery order
    /// and content are bit-identical to the unbatched queue, which the
    /// cross-backend proptests pin down.
    ///
    /// The earliest armed timer competes with the wheel by `(time, seq)`.
    /// One earlier than the wheel's cheap bound fires without a settle;
    /// one due at a batched instant fires between the batch entries its
    /// `seq` falls between.
    pub fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        self.timers.commit();
        // The timer candidate is fixed for this call: nothing below arms.
        let timer = self.timers.first();
        loop {
            if self.run_pos < self.run_buf.len() {
                // Batched leftovers all fire at `self.now`; a later call
                // with an earlier deadline must leave them pending.
                if self.now > deadline {
                    return None;
                }
                let idx = self.run_buf[self.run_pos];
                // A timer due at this instant that was armed before the
                // next batched event goes first.
                if let Some((t, seq)) = timer {
                    if t == self.now.as_ns() && seq < self.nodes[idx as usize].seq {
                        return Some(self.fire_timer());
                    }
                }
                self.run_pos += 1;
                let node = &mut self.nodes[idx as usize];
                debug_assert_eq!(node.time, self.now);
                if let Some(payload) = node.payload.take() {
                    self.run_live -= 1;
                    self.popped += 1;
                    self.live -= 1;
                    self.release(idx);
                    return Some((self.now, payload));
                }
                // Cancelled after batching: reclaim and keep serving.
                self.release(idx);
                continue;
            }
            self.run_buf.clear();
            self.run_pos = 0;
            let Some(hint) = self.wheel_hint() else {
                // Only timers left, if any.
                return match timer {
                    Some((t, _)) if t <= deadline.as_ns() => Some(self.fire_timer()),
                    _ => None,
                };
            };
            match timer {
                // Earlier than anything the wheel could hold: no settle.
                Some((t, _)) if t < hint && t <= deadline.as_ns() => {
                    return Some(self.fire_timer());
                }
                _ if hint > deadline.as_ns() => return None,
                _ => {}
            }
            if !self.settle() {
                return None;
            }
            let top = self
                .near
                .peek()
                .expect("settle guarantees a live near event");
            let (t, seq) = (top.time, top.seq);
            if let Some(first) = timer {
                if first < (t.as_ns(), seq) {
                    return (first.0 <= deadline.as_ns()).then(|| self.fire_timer());
                }
            }
            if t > deadline {
                return None;
            }
            debug_assert!(t >= self.now);
            self.now = t;
            while let Some(top) = self.near.peek() {
                if top.time != t {
                    break;
                }
                let e = self.near.pop().expect("peeked");
                let node = &mut self.nodes[e.idx as usize];
                if node.payload.is_some() {
                    node.level = LEVEL_RUN;
                    self.run_live += 1;
                    self.run_buf.push(e.idx);
                } else {
                    self.release(e.idx);
                }
            }
            // The settled top is live, so the batch is never empty and the
            // serving arm returns on this iteration.
            debug_assert!(self.run_live > 0);
        }
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
        let timer = self.timers.first().map(|(t, _)| SimTime::from_ns(t));
        let wheel = self.peek_wheel();
        match (wheel, timer) {
            (Some(w), Some(t)) => Some(w.min(t)),
            (w, t) => w.or(t),
        }
    }

    /// The timestamp of the next live wheel event, timers aside.
    fn peek_wheel(&mut self) -> Option<SimTime> {
        while self.run_pos < self.run_buf.len() {
            let idx = self.run_buf[self.run_pos];
            if self.nodes[idx as usize].payload.is_some() {
                // An unserved batch entry: it fires at the batch instant.
                return Some(self.now);
            }
            self.run_pos += 1;
            self.release(idx);
        }
        if self.settle() {
            self.near.peek().map(|e| e.time)
        } else {
            None
        }
    }

    /// A cheap lower bound on the next live event's time, without settling
    /// the wheel: the minimum of the near-heap top, the overflow top, the
    /// start of the earliest occupied wheel slot and the timer tree's
    /// root. Tombstones at a heap top can make the bound conservative
    /// (earlier than the true next event) but never too late, and an empty
    /// queue is answered exactly. The timer part is exact whenever the
    /// queue is at rest (the last `pop_next_until` returned `None`); a
    /// timer that just fired keeps its leaf until the next pop, which can
    /// only pull the bound down to `now`. O(levels × occupancy words) with
    /// no mutation — `run_until`-style loops call this first and only
    /// settle when the bound is within their deadline.
    pub fn peek_time_hint(&self) -> Option<SimTime> {
        let timer = (self.timers.armed > 0).then(|| self.timers.tree[1].time);
        let best = match (self.wheel_hint(), timer) {
            (Some(w), Some(t)) => w.min(t),
            (w, t) => w.or(t)?,
        };
        Some(SimTime::from_ns(best.max(self.now.as_ns())))
    }

    /// [`EventQueue::peek_time_hint`] for the wheel alone, in ns: `None`
    /// exactly when no wheel event is live.
    fn wheel_hint(&self) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        if self.run_live > 0 {
            // Unserved batch entries fire exactly at the batch instant.
            return Some(self.now.as_ns());
        }
        let mut best = u64::MAX;
        if let Some(e) = self.near.peek() {
            best = best.min(e.time.as_ns());
        }
        if let Some(e) = self.overflow.peek() {
            best = best.min(e.time.as_ns());
        }
        if let Some((start, _, _)) = self.earliest_slot() {
            best = best.min(start);
        }
        debug_assert!(best != u64::MAX, "live events but no entries anywhere");
        // Tombstones may sit before `now`; live events never do.
        Some(best.max(self.now.as_ns()))
    }

    // -- internals ----------------------------------------------------

    /// Returns the slab index to the free list for reuse and invalidates
    /// outstanding handles to it.
    fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        debug_assert!(node.payload.is_none());
        node.gen = node.gen.wrapping_add(1);
        let level = node.level as usize;
        if level < LEVELS {
            // A cancelled slot resident reclaimed by its slot draining:
            // the tombstone debt charged at cancel time is paid back.
            self.tombstones[level] = self.tombstones[level].saturating_sub(1);
        }
        node.level = LEVEL_NONE;
        self.free.push(idx);
    }

    /// Files a slab entry into the near heap, a wheel slot, or overflow.
    fn place(&mut self, idx: u32, time: SimTime, seq: u64) {
        let s0 = time.as_ns() >> GRANULARITY_BITS;
        if s0 <= self.pos {
            self.nodes[idx as usize].level = LEVEL_NONE;
            self.near.push(HeapEntry { time, seq, idx });
            return;
        }
        for l in 0..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let d = (s0 >> shift) - (self.pos >> shift);
            if d < SLOTS as u64 {
                let i = ((s0 >> shift) & SLOT_MASK) as usize;
                let node = &mut self.nodes[idx as usize];
                node.level = l as u8;
                node.next = self.slot_head[l][i];
                self.slot_head[l][i] = idx;
                self.occupancy[l][i / 64] |= 1 << (i % 64);
                // Occupying a slot can only *lower* the wheel minimum, so a
                // fresh cache stays exact in O(1). The tie-break mirrors the
                // scan: equal starts prefer the lower level.
                let start = (s0 >> shift) << (GRANULARITY_BITS + shift);
                match self.wheel_min.get() {
                    WheelMin::Empty => {
                        self.wheel_min.set(WheelMin::At(start, l as u8, i as u16));
                    }
                    WheelMin::At(b, bl, _) if start < b || (start == b && (l as u8) < bl) => {
                        self.wheel_min.set(WheelMin::At(start, l as u8, i as u16));
                    }
                    _ => {}
                }
                return;
            }
        }
        self.nodes[idx as usize].level = LEVEL_NONE;
        self.overflow.push(HeapEntry { time, seq, idx });
    }

    /// Compacts every slot of level `l`: reclaims all tombstoned nodes
    /// eagerly, clears emptied occupancy bits, and zeroes the level's
    /// tombstone counter. Cannot affect pop order — only dead nodes move,
    /// and handle generations are bumped exactly as a lazy reclaim would.
    fn sweep_level(&mut self, l: usize) {
        let mut freed = 0u64;
        for i in 0..SLOTS {
            let mut cur = self.slot_head[l][i];
            if cur == NIL {
                continue;
            }
            // Relink the chain with the dead nodes filtered out.
            let mut new_head = NIL;
            let mut tail = NIL;
            while cur != NIL {
                let nxt = self.nodes[cur as usize].next;
                if self.nodes[cur as usize].payload.is_some() {
                    if tail == NIL {
                        new_head = cur;
                    } else {
                        self.nodes[tail as usize].next = cur;
                    }
                    tail = cur;
                } else {
                    let node = &mut self.nodes[cur as usize];
                    node.gen = node.gen.wrapping_add(1);
                    node.level = LEVEL_NONE;
                    self.free.push(cur);
                    freed += 1;
                }
                cur = nxt;
            }
            if tail != NIL {
                self.nodes[tail as usize].next = NIL;
            }
            self.slot_head[l][i] = new_head;
            if new_head == NIL {
                self.occupancy[l][i / 64] &= !(1 << (i % 64));
                // The emptied slot may have been the cached wheel minimum.
                self.wheel_min.set(WheelMin::Stale);
            }
        }
        self.swept += freed;
        self.sweeps += 1;
        self.tombstones[l] = 0;
    }

    /// The earliest occupied wheel slot across all levels, as
    /// `(slot_start_ns, level, in_array_index)`, or `None` if the wheel
    /// proper is empty. Any event in the returned slot has
    /// `time >= slot_start_ns`. Served from [`WheelMin`] when the cache is
    /// fresh; rescans (and refreshes the cache) otherwise.
    fn earliest_slot(&self) -> Option<(u64, usize, usize)> {
        match self.wheel_min.get() {
            WheelMin::Empty => {
                debug_assert_eq!(self.earliest_slot_scan(), None);
                return None;
            }
            WheelMin::At(start, l, i) => {
                let hit = (start, l as usize, i as usize);
                debug_assert_eq!(self.earliest_slot_scan(), Some(hit));
                return Some(hit);
            }
            WheelMin::Stale => {}
        }
        let best = self.earliest_slot_scan();
        self.wheel_min.set(match best {
            None => WheelMin::Empty,
            Some((start, l, i)) => WheelMin::At(start, l as u8, i as u16),
        });
        best
    }

    /// The uncached occupancy-bitmap scan behind [`EventQueue::earliest_slot`].
    fn earliest_slot_scan(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for l in 0..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let pos_l = self.pos >> shift;
            let cur = (pos_l & SLOT_MASK) as usize;
            // Occupied slots live in [pos_l, pos_l + 255]: placement only
            // files at distance 1..=255, but advancing the cursor to a
            // drained slot's start can leave a same-start slot of another
            // level at distance 0 — it must stay visible. The 256-wide
            // window keeps in-array indices unambiguous either way.
            let Some(step) = self.next_occupied(l, cur) else {
                continue;
            };
            let abs = pos_l + step as u64;
            let start = abs << (GRANULARITY_BITS + shift);
            // Strictly-less keeps the preference for lower levels on ties:
            // draining level 0 straight to the near heap beats cascading.
            if best.is_none_or(|(b, _, _)| start < b) {
                best = Some((start, l, (abs & SLOT_MASK) as usize));
            }
        }
        best
    }

    /// Distance (0..=255) from `cur` to the first occupied slot of level
    /// `l`, scanning cyclically starting *at* `cur`; `None` if the level
    /// is empty.
    fn next_occupied(&self, l: usize, cur: usize) -> Option<usize> {
        let occ = &self.occupancy[l];
        let words = SLOTS / 64;
        for k in 0..=words {
            let wi = (cur / 64 + k) % words;
            let mut word = occ[wi];
            if k == 0 {
                // First pass over cur's word: bits at or after cur only.
                word &= !0u64 << (cur % 64);
            } else if k == words {
                // Wrapped back to cur's word: bits strictly before cur.
                word &= (1u64 << (cur % 64)) - 1;
            }
            if word != 0 {
                let slot = wi * 64 + word.trailing_zeros() as usize;
                return Some((slot + SLOTS - cur) % SLOTS);
            }
        }
        None
    }

    /// Advances the wheel until the global minimum `(time, seq)` event sits
    /// live at the top of the near heap. Returns `false` when no live
    /// events remain anywhere.
    fn settle(&mut self) -> bool {
        loop {
            // Strip tombstones off both heap tops so their minima are real.
            while let Some(top) = self.near.peek() {
                if self.nodes[top.idx as usize].payload.is_some() {
                    break;
                }
                let idx = self.near.pop().expect("peeked").idx;
                self.release(idx);
            }
            while let Some(top) = self.overflow.peek() {
                if self.nodes[top.idx as usize].payload.is_some() {
                    break;
                }
                let idx = self.overflow.pop().expect("peeked").idx;
                self.release(idx);
            }
            let wheel = self.earliest_slot();
            let over_ns = self.overflow.peek().map(|e| e.time.as_ns());
            // The earliest instant an event outside `near` could occupy.
            let boundary = match (wheel, over_ns) {
                (Some((w, _, _)), Some(o)) => w.min(o),
                (Some((w, _, _)), None) => w,
                (None, Some(o)) => o,
                (None, None) => u64::MAX,
            };
            if let Some(top) = self.near.peek() {
                // Strict: an equal-time slot event could carry a lower seq.
                if top.time.as_ns() < boundary {
                    return true;
                }
            }
            if boundary == u64::MAX {
                return false;
            }
            if over_ns.is_some_and(|o| wheel.is_none_or(|(w, _, _)| o <= w)) {
                // Overflow minimum fires next (or ties): bring it into the
                // near heap, jumping the wheel position to its slot — the
                // slots skipped over are provably empty.
                let e = self.overflow.pop().expect("peeked");
                let jump = self.pos.max(e.time.as_ns() >> GRANULARITY_BITS);
                self.skipped += jump - self.pos;
                self.pos = jump;
                self.near.push(e);
                continue;
            }
            let (start, l, i) = wheel.expect("boundary came from the wheel");
            let jump = self.pos.max(start >> GRANULARITY_BITS);
            self.skipped += jump - self.pos;
            self.pos = jump;
            self.occupancy[l][i / 64] &= !(1 << (i % 64));
            // The drained slot *was* the cached minimum; the next-earliest
            // slot is unknown until rescanned. (The cascade below re-places
            // entries, which leaves a stale cache stale — conservative.)
            self.wheel_min.set(WheelMin::Stale);
            // Detach the whole chain, then walk it. Reading `next` before
            // processing each node matters: a cascading `place` overwrites
            // the link when it refiles the node into a lower-level slot.
            // (A cascade can never refile into the slot being drained:
            // place always finds a level below `l` within range once the
            // position has jumped to this slot's start.)
            let mut cur = self.slot_head[l][i];
            self.slot_head[l][i] = NIL;
            while cur != NIL {
                let idx = cur;
                let (t, s, alive) = {
                    let node = &self.nodes[idx as usize];
                    cur = node.next;
                    (node.time, node.seq, node.payload.is_some())
                };
                if !alive {
                    self.release(idx);
                } else if l == 0 {
                    self.nodes[idx as usize].level = LEVEL_NONE;
                    self.near.push(HeapEntry {
                        time: t,
                        seq: s,
                        idx,
                    });
                } else {
                    // Cascade one level down (or into the near heap).
                    self.place(idx, t, s);
                }
            }
        }
    }
}

impl<E> EventQueueApi<E> for EventQueue<E> {
    fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        EventQueue::schedule(self, time, payload)
    }
    fn cancel(&mut self, handle: EventHandle) -> bool {
        EventQueue::cancel(self, handle)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn peek_time_hint(&self) -> Option<SimTime> {
        EventQueue::peek_time_hint(self)
    }
    fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        EventQueue::pop_next_until(self, deadline)
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn delivered(&self) -> u64 {
        EventQueue::delivered(self)
    }
    fn arm(&mut self, key: usize, time: SimTime, payload: E) {
        EventQueue::arm(self, key, time, payload)
    }
    fn disarm(&mut self, key: usize) -> bool {
        EventQueue::disarm(self, key)
    }
    fn drain_ordered(&mut self) -> Vec<(SimTime, E)> {
        EventQueue::drain_ordered(self)
    }
}

// ---------------------------------------------------------------------
// Reference heap backend.
// ---------------------------------------------------------------------

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap` + lazy-deletion queue, kept as the reference
/// model the timing wheel is differentially tested against, and as the
/// baseline of the `microcosts` event-throughput bench.
///
/// A `pending` membership set makes `cancel` report the truth for handles
/// of already-fired events (the seed version recorded such cancellations
/// forever, leaking memory and corrupting `len`).
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    cancelled: HashSet<u64>,
    pending: HashSet<u64>,
    /// Timer key → handle of its last armed event, grown on demand.
    keyed: Vec<Option<EventHandle>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            pending: HashSet::new(),
            keyed: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation clock: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total number of events delivered so far (monotonic).
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        assert!(
            time >= self.now,
            "scheduling into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        self.pending.insert(seq);
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. Cancelling a fired event is harmless
    /// and records nothing.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if !self.pending.remove(&handle.0) {
            return false;
        }
        self.cancelled.insert(handle.0);
        true
    }

    /// Removes and returns the earliest live event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now);
            self.pending.remove(&entry.seq);
            self.now = entry.time;
            self.popped += 1;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The timestamp of the next live event, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled entries off the top so peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(entry.time);
            }
        }
        None
    }

    /// A cheap lower bound on the next live event's time: the raw heap top
    /// (which may be a cancelled entry, hence only a bound), with emptiness
    /// answered exactly from the pending set.
    pub fn peek_time_hint(&self) -> Option<SimTime> {
        if self.pending.is_empty() {
            return None;
        }
        self.heap.peek().map(|e| e.time.max(self.now))
    }

    /// The reference semantics of a keyed timer: cancel the key's last
    /// event (a no-op if it already fired), then schedule the new one.
    pub fn arm(&mut self, key: usize, time: SimTime, payload: E) {
        if key >= self.keyed.len() {
            self.keyed.resize(key + 1, None);
        }
        if let Some(h) = self.keyed[key].take() {
            self.cancel(h);
        }
        self.keyed[key] = Some(self.schedule(time, payload));
    }

    /// Cancels the key's last event; `true` only if it was still pending.
    pub fn disarm(&mut self, key: usize) -> bool {
        match self.keyed.get_mut(key).and_then(Option::take) {
            Some(h) => self.cancel(h),
            None => false,
        }
    }

    /// Pops every live event in order, then restores the clock and the
    /// delivered count; handles and timer keys are forgotten.
    pub fn drain_ordered(&mut self) -> Vec<(SimTime, E)> {
        let (now, popped) = (self.now, self.popped);
        let out = std::iter::from_fn(|| self.pop()).collect();
        self.keyed.clear();
        (self.now, self.popped) = (now, popped);
        out
    }
}

impl<E> EventQueueApi<E> for HeapQueue<E> {
    fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        HeapQueue::schedule(self, time, payload)
    }
    fn cancel(&mut self, handle: EventHandle) -> bool {
        HeapQueue::cancel(self, handle)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        HeapQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        HeapQueue::peek_time(self)
    }
    fn peek_time_hint(&self) -> Option<SimTime> {
        HeapQueue::peek_time_hint(self)
    }
    fn now(&self) -> SimTime {
        HeapQueue::now(self)
    }
    fn len(&self) -> usize {
        HeapQueue::len(self)
    }
    fn delivered(&self) -> u64 {
        HeapQueue::delivered(self)
    }
    fn arm(&mut self, key: usize, time: SimTime, payload: E) {
        HeapQueue::arm(self, key, time, payload)
    }
    fn disarm(&mut self, key: usize) -> bool {
        HeapQueue::disarm(self, key)
    }
    fn drain_ordered(&mut self) -> Vec<(SimTime, E)> {
        HeapQueue::drain_ordered(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the shared behavioral suite against one backend.
    fn suite<Q: EventQueueApi<&'static str> + Default>() {
        // pops_in_time_order + clock advance.
        let mut q = Q::default();
        q.schedule(SimTime::from_ms(3), "c");
        q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(q.now(), SimTime::from_ms(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert_eq!(q.now(), SimTime::from_ms(3));
        assert!(q.pop().is_none());

        // cancel_prevents_delivery.
        let mut q = Q::default();
        let h1 = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        assert!(q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());

        // peek_skips_cancelled.
        let mut q = Q::default();
        let h = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(4), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(4)));

        // delivered_counts_only_live_events.
        let mut q = Q::default();
        let h = q.schedule(SimTime::from_ms(1), "x");
        q.schedule(SimTime::from_ms(2), "y");
        q.cancel(h);
        while q.pop().is_some() {}
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn wheel_passes_shared_suite() {
        suite::<EventQueue<&'static str>>();
    }

    #[test]
    fn heap_passes_shared_suite() {
        suite::<HeapQueue<&'static str>>();
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

    /// The satellite fix: cancelling an already-fired handle must return
    /// `false`, leave `len()` untouched, and leak nothing — on both
    /// backends.
    fn cancel_after_fire<Q: EventQueueApi<&'static str> + Default>() {
        let mut q = Q::default();
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
    fn cancel_after_fire_is_noop() {
        cancel_after_fire::<EventQueue<&'static str>>();
        cancel_after_fire::<HeapQueue<&'static str>>();
    }

    #[test]
    fn sweep_reclaims_cancelled_far_future_nodes() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Far enough out to land in a higher wheel level (262 µs × 256
        // level-0 slots ≈ 67 ms horizon, so 10 s is level ≥ 1), never in
        // the near heap.
        let far = SimTime::from_secs(10);
        let n = 1500u32;
        let handles: Vec<_> = (0..n).map(|i| q.schedule(far, i)).collect();
        let slab_high_water = n as usize;
        // Cancel all but the last few: crossing SWEEP_THRESHOLD (1024)
        // must trigger a compaction pass.
        for h in &handles[..(n as usize - 4)] {
            assert!(q.cancel(*h));
        }
        let stats = q.sweep_stats();
        assert!(
            stats.sweeps >= 1,
            "threshold crossing must sweep: {stats:?}"
        );
        assert!(stats.swept >= 1024, "swept {} < threshold", stats.swept);
        assert!(
            stats.pending < 1024,
            "pending tombstones not compacted: {stats:?}"
        );
        assert_eq!(q.len(), 4);
        // Reclaimed slab nodes are reused: scheduling more events must not
        // grow the slab past its high-water mark.
        for i in 0..1000u32 {
            q.schedule(far, 10_000 + i);
        }
        assert!(
            q.nodes.len() <= slab_high_water,
            "sweep failed to recycle slab nodes: {} > {slab_high_water}",
            q.nodes.len()
        );
        // Swept handles are dead (generation bumped), survivors pop in
        // insertion order ahead of the later batch.
        assert!(!q.cancel(handles[0]), "swept handle must be invalid");
        let (t, first) = q.pop().expect("live events remain");
        assert_eq!(t, far);
        assert_eq!(first, n - 4);
    }

    #[test]
    fn sweep_accounting_survives_slot_drain() {
        // Tombstones created and reclaimed through the normal slot-drain
        // path (no threshold crossing) must pay back their pending count.
        let mut q: EventQueue<u32> = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(1), 2);
        q.cancel(h);
        assert_eq!(q.sweep_stats().pending, 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
        let stats = q.sweep_stats();
        assert_eq!(stats.pending, 0, "slot drain must clear the debt");
        assert_eq!(stats.sweeps, 0, "no threshold crossing, no sweep");
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
    fn far_future_goes_through_overflow() {
        let mut q = EventQueue::new();
        // Beyond the level-3 horizon (~2^50 ns): overflow heap territory.
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
    fn slot_boundary_times_order_correctly() {
        let g = 1u64 << GRANULARITY_BITS;
        let mut q = EventQueue::new();
        // Times straddling level-0 and level-1 slot boundaries, scheduled
        // out of order.
        let times = [g, g - 1, g + 1, 2 * g, 256 * g, 256 * g - 1, 256 * g + 1];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut popped: Vec<u64> = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t.as_ns());
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
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

    /// Shared across backends: `pop_next_until` delivers exactly the
    /// events at or before the deadline, in order, and leaves the rest.
    fn pop_until_suite<Q: EventQueueApi<u32> + Default>() {
        let mut q = Q::default();
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
    fn pop_next_until_respects_deadline_both_backends() {
        pop_until_suite::<EventQueue<u32>>();
        pop_until_suite::<HeapQueue<u32>>();
    }

    #[test]
    fn cancel_of_batched_event_is_honored() {
        // Cancelling an event *after* its instant has been batched (first
        // same-time event already served) must still suppress delivery.
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ms(3);
        q.schedule(t, 0);
        let h1 = q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop_next_until(t), Some((t, 0)));
        assert!(q.cancel(h1), "batched event is still pending");
        assert_eq!(q.pop_next_until(t), Some((t, 2)));
        assert!(q.pop_next_until(SimTime::MAX).is_none());
        assert_eq!(q.delivered(), 2);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn schedule_at_now_during_batch_keeps_seq_order() {
        // A handler scheduling at the current instant mid-batch must see
        // its event fire after every already-batched one (higher seq).
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ms(2);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 2); // same instant, scheduled while batch pending
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_sees_batched_leftovers() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ms(4);
        q.schedule(t, 0);
        let h = q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.peek_time_hint(), Some(t));
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn occupancy_scan_counts_skipped_slots() {
        // An hour-long empty gap spans far more level-0 slots (262 µs
        // each) than settle could ever walk; the occupancy scan must jump
        // them and account for the jump.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(SimTime::from_ms(1), 1);
        q.schedule(SimTime::from_secs(3600), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        let stats = q.sweep_stats();
        assert!(
            stats.slots_skipped > 10_000,
            "hour gap must skip thousands of level-0 slots: {stats:?}"
        );
    }

    /// A timer re-armed onto an instant that already holds wheel events
    /// fires after them, as cancel-then-schedule would — on both backends.
    fn rearm_order<Q: EventQueueApi<&'static str>>(mut q: Q) -> Vec<&'static str> {
        let t = SimTime::from_ms(1);
        q.arm(1, t, "stale");
        q.schedule(t, "a");
        q.arm(2, t, "other key");
        q.arm(1, t, "re-armed");
        q.schedule(t, "b");
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn rearm_orders_like_cancel_then_schedule() {
        let want = ["a", "other key", "re-armed", "b"];
        assert_eq!(rearm_order(EventQueue::with_timers(3)), want);
        assert_eq!(rearm_order(HeapQueue::new()), want);
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
        // A wheel tombstone earlier than every timer must not pull the
        // hint down: the wheel has no live event.
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
        q.schedule(ms(3), "wheel");
        q.schedule(ms(1), "early");
        q.pop();
        q.arm(0, ms(2), "fired");
        assert_eq!(q.pop_next_until(ms(2)), Some((ms(2), "fired")));
        let drained = q.drain_ordered();
        assert_eq!(drained, [(ms(3), "timer"), (ms(3), "wheel")]);
        assert!(q.is_empty() && !q.is_armed(0) && !q.is_armed(2));
        assert_eq!((q.now(), q.delivered()), (ms(2), 2));
        assert_eq!(q.peek_time_hint(), None);
        q.arm(2, ms(4), "again");
        assert_eq!(q.pop(), Some((ms(4), "again")));
    }

    #[test]
    fn long_idle_gap_is_skipped_not_walked() {
        // One event hours out (level 2/3): pop must find it without the
        // clock walking every empty slot — this completes instantly if the
        // jump logic works and effectively hangs if it regresses to
        // slot-by-slot stepping of ~2^20 slots per pop.
        let mut q = EventQueue::new();
        for hour in 1..=50u64 {
            q.schedule(SimTime::from_secs(hour * 3600), hour);
        }
        for hour in 1..=50u64 {
            let (t, e) = q.pop().expect("event");
            assert_eq!(e, hour);
            assert_eq!(t, SimTime::from_secs(hour * 3600));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use testkit::{just, one_of, prop_assert, prop_assert_eq, run_prop, u64_in, usize_in, vec_of};
    use testkit::{tuple2, Config, Gen};

    /// Timer keys the op streams use: not a power of two, so the wheel's
    /// tournament tree has padding leaves.
    const KEYS: usize = 5;

    /// Operations driven against both the queue and a reference model.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Schedule(u64),
        Cancel(usize),
        Pop,
        /// `pop_next_until(now + delta)` — exercises the wheel's batched
        /// run buffer against the heap's unbatched default.
        PopUntil(u64),
        /// `arm(key, now + delta)`.
        Arm(usize, u64),
        Disarm(usize),
        /// `drain_ordered`, then every drained event back in order: keyed
        /// ones through `arm`, the rest through `schedule`.
        Drain,
    }

    /// Timer ops: re-arms 0–3 ns out tie with same-instant wheel events,
    /// so the `(time, seq)` merge, not the time alone, decides the order.
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

    /// Deltas spanning slot boundaries, whole levels, and the overflow
    /// horizon — the regime where wheel placement/cascade bugs live.
    fn arb_wide_op() -> Gen<Op> {
        let g = 1u64 << GRANULARITY_BITS;
        let mut ops = vec![
            u64_in(0..4 * g).map(Op::Schedule),
            u64_in(0..(1 << (GRANULARITY_BITS + 10))).map(Op::Schedule),
            u64_in(0..(1 << (GRANULARITY_BITS + 20))).map(Op::Schedule),
            // Near and past the level-3 horizon: overflow heap.
            u64_in((1 << 49)..(1 << 52)).map(Op::Schedule),
            u64_in(0..4).map(Op::Schedule),
            usize_in(0..64).map(Op::Cancel),
            just(Op::Pop),
            just(Op::Pop),
            u64_in(0..(1 << (GRANULARITY_BITS + 10))).map(Op::PopUntil),
        ];
        ops.extend(timer_ops(u64_in(0..(1 << (GRANULARITY_BITS + 20)))));
        ops.push(u64_in(0..4).map(Op::PopUntil));
        one_of(ops)
    }

    /// [`arb_op`] plus mid-stream `drain_ordered` and re-arm.
    fn arb_drain_op() -> Gen<Op> {
        one_of(vec![arb_op(), arb_op(), arb_op(), just(Op::Drain)])
    }

    /// One backend under test, with the handles and timer owners the op
    /// stream refers to by index.
    struct Driven<Q> {
        q: Q,
        handles: Vec<Option<EventHandle>>,
        keyed: [Option<usize>; KEYS],
    }

    impl<Q: EventQueueApi<usize>> Driven<Q> {
        fn new(q: Q) -> Self {
            Driven {
                q,
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
    /// (time, insertion-order) order, against a naive reference. An
    /// event's id is its insertion order, which is also its `seq`, and
    /// survives `Drain` (re-insertion keeps the drained order). With
    /// `exact_timer_hint`, whenever `pop_next_until` returns `None` and no
    /// unkeyed event is pending, the hint must equal the exact peek.
    fn check_against_reference<Q: EventQueueApi<usize>>(
        q: Q,
        ops: &[Op],
        exact_timer_hint: bool,
    ) -> Result<(), String> {
        let mut d = Driven::new(q);
        // Reference: (time, cancelled-or-delivered) per id.
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
                    if let Some((t, id)) = d.q.pop() {
                        now = t.as_ns();
                        delivered_q.push(id);
                        // Mark as consumed in the reference.
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
                        if exact_timer_hint && !unkeyed {
                            let (hint, exact) = (d.q.peek_time_hint(), d.q.peek_time());
                            prop_assert!(hint == exact, "timer hint {hint:?} != exact {exact:?}");
                        }
                    }
                }
                Op::Drain => {
                    let delivered = d.q.delivered();
                    let mut want = pending(&reference);
                    want.sort_unstable();
                    let got: Vec<(u64, usize)> =
                        d.drain().iter().map(|&(t, id)| (t.as_ns(), id)).collect();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!((d.q.now().as_ns(), d.q.delivered()), (now, delivered));
                }
            }
            prop_assert_eq!(d.q.len(), pending(&reference).len());
        }
        // Drain the rest.
        while let Some((_, id)) = d.q.pop() {
            delivered_q.push(id);
            reference[id].1 = true;
        }
        // Every event was delivered exactly once or cancelled.
        prop_assert!(reference.iter().all(|&(_, done)| done));
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
            check_against_reference(EventQueue::with_timers(KEYS), ops, true)?;
            check_against_reference(HeapQueue::new(), ops, false)
        });
    }

    #[test]
    fn matches_reference_model_wide_times() {
        let gen = vec_of(arb_wide_op(), 0..200);
        run_prop(
            "matches_reference_model_wide_times",
            Config::default(),
            &gen,
            |ops| check_against_reference(EventQueue::with_timers(KEYS), ops, true),
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
            |ops| {
                check_against_reference(EventQueue::with_timers(KEYS), ops, true)?;
                check_against_reference(HeapQueue::new(), ops, false)
            },
        );
    }

    /// Both backends, fed the same op stream, produce byte-identical
    /// delivery sequences and agree on every `cancel` and `disarm` return,
    /// `len`, and `peek_time` along the way.
    fn equivalent(ops: &[Op]) -> Result<(), String> {
        let mut wheel = Driven::new(EventQueue::with_timers(KEYS));
        let mut heap = Driven::new(HeapQueue::new());
        let mut now = 0u64;
        let mut next_id = 0usize;
        for op in ops {
            match *op {
                Op::Schedule(dt) => {
                    let t = SimTime::from_ns(now.saturating_add(dt));
                    wheel.schedule(t, next_id);
                    heap.schedule(t, next_id);
                    next_id += 1;
                }
                Op::Cancel(i) => {
                    prop_assert_eq!(wheel.cancel(i), heap.cancel(i));
                }
                Op::Arm(k, dt) => {
                    let t = SimTime::from_ns(now.saturating_add(dt));
                    wheel.arm(k, t, next_id);
                    heap.arm(k, t, next_id);
                    next_id += 1;
                }
                Op::Disarm(k) => {
                    prop_assert_eq!(wheel.disarm(k), heap.disarm(k));
                }
                Op::Pop => {
                    // Hint before exact peek: taken on the unsettled
                    // wheel, it must lower-bound the exact answer and
                    // agree exactly on emptiness.
                    let wheel_hint = wheel.q.peek_time_hint();
                    let heap_hint = heap.q.peek_time_hint();
                    let exact = wheel.q.peek_time();
                    prop_assert_eq!(exact, heap.q.peek_time());
                    prop_assert_eq!(wheel_hint.is_some(), exact.is_some());
                    prop_assert_eq!(heap_hint.is_some(), exact.is_some());
                    if let (Some(h), Some(e)) = (wheel_hint, exact) {
                        prop_assert!(h <= e, "wheel hint {h} above exact {e}");
                    }
                    if let (Some(h), Some(e)) = (heap_hint, exact) {
                        prop_assert!(h <= e, "heap hint {h} above exact {e}");
                    }
                    let a = wheel.q.pop();
                    let b = heap.q.pop();
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = t.as_ns();
                    }
                }
                Op::PopUntil(d) => {
                    // Batched wheel drain vs the heap's unbatched
                    // default implementation: byte-identical.
                    let deadline = SimTime::from_ns(now.saturating_add(d));
                    let a = wheel.q.pop_next_until(deadline);
                    let b = heap.q.pop_next_until(deadline);
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = t.as_ns();
                    }
                }
                Op::Drain => {
                    prop_assert_eq!(wheel.drain(), heap.drain());
                }
            }
            prop_assert_eq!(wheel.q.len(), heap.q.len());
            prop_assert_eq!(wheel.q.delivered(), heap.q.delivered());
        }
        loop {
            let a = wheel.q.pop();
            let b = heap.q.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.q.delivered(), heap.q.delivered());
        Ok(())
    }

    #[test]
    fn backends_are_equivalent() {
        let gen = vec_of(arb_wide_op(), 0..250);
        run_prop("backends_are_equivalent", Config::default(), &gen, |ops| {
            equivalent(ops)
        });
    }

    /// The same comparison over near-time ops, where re-armed timers tie
    /// with wheel events most often, with mid-stream drains.
    #[test]
    fn backends_are_equivalent_through_drains() {
        let gen = vec_of(arb_drain_op(), 0..250);
        run_prop(
            "backends_are_equivalent_through_drains",
            Config::default(),
            &gen,
            |ops| equivalent(ops),
        );
    }

    /// `len` always equals live events; `pop` count matches — both
    /// backends.
    fn len_consistency<Q: EventQueueApi<u64> + Default>(
        times: &[u64],
        cancel_every: usize,
    ) -> Result<(), String> {
        let mut q = Q::default();
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
    }

    #[test]
    fn len_is_consistent() {
        let gen = tuple2(vec_of(u64_in(0..1_000), 0..100), usize_in(1..5));
        run_prop(
            "len_is_consistent",
            Config::default(),
            &gen,
            |(times, cancel_every)| {
                len_consistency::<EventQueue<u64>>(times, *cancel_every)?;
                len_consistency::<HeapQueue<u64>>(times, *cancel_every)
            },
        );
    }

    /// The immutable hint answers emptiness exactly, lower-bounds the next
    /// event across wheel slots and the overflow heap, and stays a valid
    /// (conservative) bound when the true minimum is a cancelled tombstone.
    fn hint_semantics<Q: EventQueueApi<u64> + Default>() {
        let mut q = Q::default();
        assert_eq!(q.peek_time_hint(), None);
        // Far-future event only (overflow territory for the wheel).
        let far = SimTime::from_secs(30 * 24 * 3600);
        q.schedule(far, 1);
        let hint = q.peek_time_hint().expect("one live event");
        assert!(hint <= far);
        // A nearer event tightens (or keeps) the bound.
        q.schedule(SimTime::from_ms(3), 2);
        let hint = q.peek_time_hint().expect("two live events");
        assert!(hint <= SimTime::from_ms(3));
        // Cancelling the near event leaves a tombstone; the hint may stay
        // early but must remain a lower bound of the true next event.
        let h = q.schedule(SimTime::from_us(1), 3);
        assert!(q.cancel(h));
        let hint = q.peek_time_hint().expect("still two live");
        let exact = q.peek_time().expect("still two live");
        assert!(hint <= exact);
        assert_eq!(exact, SimTime::from_ms(3));
        // Drain everything: hint reports emptiness exactly.
        while q.pop().is_some() {}
        assert_eq!(q.peek_time_hint(), None);
    }

    #[test]
    fn peek_time_hint_bounds_both_backends() {
        hint_semantics::<EventQueue<u64>>();
        hint_semantics::<HeapQueue<u64>>();
    }
}
