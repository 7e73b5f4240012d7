//! A parallel work-list runner for the multi-seed bench targets.
//!
//! Every figure/table experiment averages a handful of seeds, and each
//! seed's simulation is single-threaded and deterministic. The seeds are
//! embarrassingly parallel, so this module fans them out across OS
//! threads (`std::thread::scope`, no external executor) while keeping
//! the *output* independent of the thread count:
//!
//! - each item (a seed, or a config × app × seed tuple) runs exactly the
//!   closure it would run serially, on one thread, with no shared
//!   mutable state;
//! - results land in a pre-sized slot table indexed by item position, so
//!   the returned `Vec` is always in input order — JSON emitted from it
//!   is byte-stable whether `VSCALE_THREADS` is 1 or 64;
//! - a panicking seed is caught *inside* its worker
//!   ([`run_indexed_parallel_checked`]), so one bad seed can neither
//!   poison the slot table nor take down the sweep: every other seed
//!   still completes, and the failure surfaces as a per-seed `Err`
//!   carrying the panic message. The unchecked wrappers re-panic with
//!   the failing index attributed.
//!
//! The thread count comes from `VSCALE_THREADS` (default: available
//! cores). `VSCALE_THREADS=1` gives a strictly serial run with no thread
//! spawned at all — the smoke test in `scripts/verify.sh` diffs that
//! against a 4-thread run to hold the byte-stability property.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a `VSCALE_THREADS`-style value; `None`/empty/garbage/0 fall
/// back to `default`.
pub fn parse_threads(val: Option<&str>, default: usize) -> usize {
    match val.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => default.max(1),
    }
}

/// Number of worker threads for seed sweeps: `VSCALE_THREADS` if set,
/// otherwise the number of available cores.
pub fn threads_from_env() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parse_threads(std::env::var("VSCALE_THREADS").ok().as_deref(), cores)
}

/// Renders a caught panic payload for the per-seed error report.
fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` once per index in `0..n` across `threads` workers and
/// returns the results in index order, with each panic caught inside
/// its worker and reported as that index's `Err(message)`. All other
/// indices still run to completion — one poisoned seed cannot sink the
/// sweep or leave holes in the slot table.
pub fn run_indexed_parallel_checked<R, F>(n: usize, threads: usize, f: F) -> Vec<Result<R, String>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let checked = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_msg);
    if threads <= 1 || n <= 1 {
        return (0..n).map(checked).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = checked(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

/// Runs `f` once per index in `0..n` across `threads` workers and
/// returns the results in index order. The core of [`run_items_parallel`];
/// exposed for callers that pick their own thread count.
///
/// Panics (after every index has run) if any index panicked, naming the
/// first failing index. Callers that need per-seed failure isolation use
/// [`run_indexed_parallel_checked`].
pub fn run_indexed_parallel<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed_parallel_checked(n, threads, f)
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(v) => v,
            Err(msg) => panic!("parallel worker for index {i} panicked: {msg}"),
        })
        .collect()
}

/// Runs `f` once per work item — a seed, or any `(config, app, seed)`-
/// style tuple — across [`threads_from_env`] workers, returning the
/// results **in item order** regardless of thread count or completion
/// order. A seed sweep passes its seed slice; the figure benches flatten
/// their config × app × seed loops into one item list so every axis
/// parallelizes, and the cluster sweep fans (mode, offered-load) cells
/// the same way.
///
/// Panics (after every item has run) if any item panicked, naming the
/// first failing item's index; see [`run_items_parallel_checked`] for
/// per-item isolation.
pub fn run_items_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed_parallel(items.len(), threads_from_env(), |i| f(&items[i]))
}

/// [`run_items_parallel`] with per-item failure isolation: each result
/// is `Ok` or that item's panic message, in item order.
pub fn run_items_parallel_checked<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed_parallel_checked(items.len(), threads_from_env(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_handles_all_inputs() {
        assert_eq!(parse_threads(None, 8), 8);
        assert_eq!(parse_threads(Some(""), 8), 8);
        assert_eq!(parse_threads(Some("abc"), 8), 8);
        assert_eq!(parse_threads(Some("0"), 8), 8);
        assert_eq!(parse_threads(Some("3"), 8), 3);
        assert_eq!(parse_threads(Some(" 12 "), 8), 12);
        assert_eq!(parse_threads(None, 0), 1, "default floors at 1");
    }

    #[test]
    fn results_are_in_input_order_at_any_thread_count() {
        let seeds: Vec<u64> = (0..17).map(|i| 1000 + 7 * i).collect();
        let serial: Vec<u64> = seeds.iter().map(|s| s * s + 1).collect();
        for threads in [1, 2, 3, 8, 32] {
            let got = run_indexed_parallel(seeds.len(), threads, |i| {
                let s = seeds[i];
                // Stagger completion so out-of-order finishes are likely.
                std::thread::sleep(std::time::Duration::from_micros(
                    (seeds.len() - i) as u64 * 10,
                ));
                s * s + 1
            });
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u64> = run_indexed_parallel(0, 4, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(run_indexed_parallel(1, 4, |i| i + 41), vec![41]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_indexed_parallel(4, 2, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn checked_sweep_isolates_a_panicking_seed() {
        for threads in [1, 4] {
            let got = run_indexed_parallel_checked(5, threads, |i| {
                if i == 3 {
                    panic!("seed {i} exploded");
                }
                i * 10
            });
            assert_eq!(got.len(), 5, "threads={threads}");
            for (i, r) in got.iter().enumerate() {
                if i == 3 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("seed 3 exploded"), "got {msg:?}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 10), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn checked_sweep_reports_string_and_str_payloads() {
        let got = run_indexed_parallel_checked(2, 1, |i| {
            if i == 0 {
                panic!("{}", format!("dynamic {i}"));
            }
            std::panic::panic_any(42_u32);
        });
        assert!(got[0].as_ref().unwrap_err().contains("dynamic 0"));
        assert!(got[1].as_ref().unwrap_err().contains("non-string"));
    }

    #[test]
    fn work_list_runner_preserves_item_order() {
        // A (config, app, seed) style work list: results must come back
        // in list order at any thread count, so merged JSON is stable.
        let items: Vec<(usize, &str, u64)> = (0..4)
            .flat_map(|c| {
                ["ep", "lu"]
                    .into_iter()
                    .flat_map(move |app| (0..3).map(move |s| (c, app, 100 + s)))
            })
            .collect();
        let serial: Vec<String> = items
            .iter()
            .map(|(c, app, s)| format!("{c}/{app}/{s}"))
            .collect();
        let got = run_items_parallel(&items, |(c, app, s)| format!("{c}/{app}/{s}"));
        assert_eq!(got, serial);
        let checked = run_items_parallel_checked(&items, |(c, app, s)| format!("{c}/{app}/{s}"));
        assert_eq!(
            checked.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            serial
        );
    }

    #[test]
    fn unchecked_wrapper_attributes_the_failing_index() {
        let r = std::panic::catch_unwind(|| {
            run_indexed_parallel(4, 2, |i| {
                if i == 1 {
                    panic!("inner message");
                }
                i
            })
        });
        let payload = r.expect_err("must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("attributed panics are formatted strings");
        assert!(msg.contains("index 1"), "got {msg:?}");
        assert!(msg.contains("inner message"), "got {msg:?}");
    }
}
