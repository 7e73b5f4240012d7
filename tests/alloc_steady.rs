//! Steady-state dispatch allocates nothing.
//!
//! The hot core's memory story (DESIGN.md §12) is that after startup
//! transients every per-event structure is recycled: the event queue's
//! slab, free list and heap, the machine's effect/op scratch buffers, the
//! kernel's wake scratch, and the sync objects' waiter queues all keep
//! their capacity across rounds. If that holds, advancing a warmed
//! machine through more simulated time performs **zero** heap
//! allocations — and a counting global allocator can assert it exactly,
//! which is a much sharper regression guard than a throughput number:
//! any future `Vec::new()`/`collect()` sneaking into the dispatch, wake,
//! or barrier paths fails this test deterministically rather than
//! shifting a noisy benchmark.
//!
//! This file must stay a **single-test binary**: the counter is global,
//! so a concurrently running second test would pollute the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vscale_repro::core::config::{DomainSpec, MachineConfig, SystemConfig};
use vscale_repro::core::machine::Machine;
use vscale_repro::guest::thread::{Looping, ProgramCtx, ThreadAction, ThreadKind};
use vscale_repro::sim::time::{SimDuration, SimTime};

/// Counts every allocator entry point that can hand out new memory.
/// Deallocations are free (they cannot grow the heap) and not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
thread_local! { static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) }; }

fn note() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if ARMED.load(Ordering::Relaxed) {
        IN_HOOK.with(|f| {
            if !f.get() {
                f.set(true);
                eprintln!("ALLOC at:\n{}", std::backtrace::Backtrace::force_capture());
                f.set(false);
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The steady mixed workload of the `machine_steps_steady` bench: compute
/// bursts, short sleeps (event-queue traffic), and yields (dispatch
/// boundaries).
fn steady_program() -> Box<Looping<impl FnMut(ProgramCtx) -> ThreadAction + Send>> {
    let mut k = 0u64;
    Box::new(Looping::new("steady", move |_| {
        k += 1;
        match k % 5 {
            0 => ThreadAction::Sleep(SimDuration::from_us(150)),
            3 => ThreadAction::Yield,
            _ => ThreadAction::Compute(SimDuration::from_us(350)),
        }
    }))
}

#[test]
fn steady_state_dispatch_is_allocation_free() {
    let mut m = Machine::new(MachineConfig {
        n_pcpus: 4,
        seed: 101,
        ..MachineConfig::default()
    });
    let vm = m.add_domain(SystemConfig::VScale.domain_spec(4));
    let bg = m.add_domain(DomainSpec::fixed(2));
    for _ in 0..6 {
        let t = m.guest_mut(vm).spawn(ThreadKind::User, steady_program());
        m.start_thread(vm, t);
    }
    for _ in 0..3 {
        let t = m.guest_mut(bg).spawn(ThreadKind::User, steady_program());
        m.start_thread(bg, t);
    }
    // Futex traffic: a PASSIVE (zero spin budget) barrier pair, so every
    // round takes the block + `drain_blocked` wake path, and a
    // mutex/condvar pair driving `drain_waiters` requeues.
    let bar = m.guest_mut(vm).sync.new_barrier(2, Some(SimDuration::ZERO));
    for _ in 0..2 {
        let mut k = 0u64;
        let t = m.guest_mut(vm).spawn(
            ThreadKind::User,
            Box::new(Looping::new("barrier", move |_| {
                k += 1;
                if k.is_multiple_of(2) {
                    ThreadAction::BarrierWait(bar)
                } else {
                    ThreadAction::Compute(SimDuration::from_us(200))
                }
            })),
        );
        m.start_thread(vm, t);
    }
    let mx = m.guest_mut(vm).sync.new_mutex();
    let cv = m.guest_mut(vm).sync.new_condvar();
    {
        let mut k = 0u64;
        let t = m.guest_mut(vm).spawn(
            ThreadKind::User,
            Box::new(Looping::new("cond-waiter", move |_| {
                k += 1;
                match k % 3 {
                    1 => ThreadAction::MutexLock(mx),
                    2 => ThreadAction::CondWait(cv, mx),
                    _ => ThreadAction::MutexUnlock(mx),
                }
            })),
        );
        m.start_thread(vm, t);
        let mut k = 0u64;
        let t = m.guest_mut(vm).spawn(
            ThreadKind::User,
            Box::new(Looping::new("cond-signaler", move |_| {
                k += 1;
                match k % 4 {
                    1 => ThreadAction::Compute(SimDuration::from_us(400)),
                    2 => ThreadAction::MutexLock(mx),
                    3 => ThreadAction::CondSignal(cv),
                    _ => ThreadAction::MutexUnlock(mx),
                }
            })),
        );
        m.start_thread(vm, t);
    }

    // Warm until every recycled buffer has reached its steady capacity:
    // scratch vecs, heaps, slabs, and the guests' wake/run
    // queues all grow only during this phase. The rarest growers are
    // tied to the scaling daemon's freeze/unfreeze churn (kwork rings,
    // the wide-payload free list), so the warmup must span many daemon
    // periods, not just many dispatches.
    m.run_until(SimTime::from_ms(2000));
    let warm_delivered = m.events_delivered();

    let before = ALLOCS.load(Ordering::Relaxed);
    if std::env::var("ALLOC_TRACE").is_ok() {
        ARMED.store(true, Ordering::Relaxed);
    }
    m.run_until(SimTime::from_ms(4000));
    ARMED.store(false, Ordering::Relaxed);
    let grew = ALLOCS.load(Ordering::Relaxed) - before;
    let delivered = m.events_delivered() - warm_delivered;

    assert!(
        delivered > 10_000,
        "window too quiet to be meaningful: {delivered} events"
    );
    assert_eq!(
        grew, 0,
        "steady-state dispatch allocated {grew} times over {delivered} events; \
         a fresh Vec/Box/collect() has crept into the hot path"
    );
}
