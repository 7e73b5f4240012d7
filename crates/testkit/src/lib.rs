//! Hermetic property-testing and benchmarking for the vScale workspace.
//!
//! The tier-1 verify must pass with no network access, so the workspace
//! cannot depend on crates-io harnesses (`proptest`, `criterion`). This
//! crate supplies the two capabilities those provided, built on the
//! deterministic [`sim_core::rng::SimRng`] the simulator already trusts:
//!
//! - [`gen`] + [`runner`] — a mini property-testing harness: seeded
//!   generators with combinators (integer ranges, vectors, tuples,
//!   `one_of` for enums), deterministic shrinking on failure, and a
//!   [`runner::run_prop`] entry point close enough to `proptest!` that
//!   porting a property is mechanical.
//! - [`mod@bench`] — a mini benchmark runner: warmup, batched timed
//!   iterations, mean/p50/p99 via `sim-core::stats`, and table + JSON
//!   output honoring `VSCALE_BENCH_SCALE`.
//! - [`fnv`] — FNV-1a, the fingerprint the test goldens pin.
//! - [`parallel`] — a `std::thread`-scoped work-list runner
//!   ([`parallel::run_items_parallel`], honoring `VSCALE_THREADS`) that
//!   merges results in item order (seed order, for a seed sweep) so sweep
//!   output is byte-stable at any thread count.
//!
//! # Shrinking model
//!
//! Generators draw `u64`s from a [`source::Source`], which either samples
//! a seeded `SimRng` (recording every draw) or replays a recorded choice
//! stream. Shrinking operates on the *choice stream* — deleting spans,
//! zeroing and halving entries — and replays the generator on each
//! candidate. Because shrinking happens below the generators, it works
//! through `map` and `one_of` without any per-type shrink logic, and a
//! shrunk stream always replays to a valid value of the right type
//! (exhausted streams read as zero, i.e. the simplest choice).

pub mod bench;
pub mod differential;
pub mod fault;
pub mod fnv;
pub mod gen;
pub mod parallel;
pub mod runner;
pub mod source;

pub use differential::{
    apply, check_pair, minimize_pair, replay, scenario_gen, Op, Replay, Scenario,
};
pub use fault::{arb_duration, arb_fault_config, arb_rate};
pub use fnv::{fnv1a, Fnv};
pub use gen::{bool_any, just, one_of, tuple2, tuple3, tuple5, vec_of, Gen};
pub use gen::{u32_in, u64_in, u8_in, usize_in};
pub use runner::{find_minimal, run_prop, Config, Counterexample, PropResult};

/// Fails a property with a formatted message (analogue of
/// `proptest::prop_assert!`). Usable inside closures passed to
/// [`runner::run_prop`], which expect `Result<(), String>`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails a property unless the two expressions are equal (analogue of
/// `proptest::prop_assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
}
