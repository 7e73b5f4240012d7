//! Generators and combinators.
//!
//! A [`Gen<T>`] is a function from a choice [`Source`] to a `T`. Bounded
//! generators map a raw `u64` draw into their range with a remainder, so
//! smaller draws mean simpler values and the stream-level shrinker (which
//! pushes draws toward zero) shrinks every type toward its minimum without
//! type-specific logic.

use std::ops::Range;
use std::rc::Rc;

use crate::source::Source;

/// A reusable value generator.
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { f: self.f.clone() }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a raw generation function.
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Produces one value from the source.
    pub fn run(&self, src: &mut Source) -> T {
        (self.f)(src)
    }

    /// Applies `f` to every generated value. Shrinking happens on the
    /// underlying choice stream, so mapped generators shrink for free.
    pub fn map<U: 'static>(&self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let inner = self.clone();
        Gen::new(move |src| f(inner.run(src)))
    }
}

fn bounded(draw: u64, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi, "empty range {lo}..{hi}");
    lo + draw % (hi - lo)
}

/// A uniform-ish `u64` in `[lo, hi)` (modulo mapping; zero draw → `lo`).
pub fn u64_in(r: Range<u64>) -> Gen<u64> {
    Gen::new(move |src| bounded(src.next_u64(), r.start, r.end))
}

/// A `u32` in `[lo, hi)`.
pub fn u32_in(r: Range<u32>) -> Gen<u32> {
    Gen::new(move |src| bounded(src.next_u64(), r.start as u64, r.end as u64) as u32)
}

/// A `u8` in `[lo, hi)`.
pub fn u8_in(r: Range<u8>) -> Gen<u8> {
    Gen::new(move |src| bounded(src.next_u64(), r.start as u64, r.end as u64) as u8)
}

/// A `usize` in `[lo, hi)`.
pub fn usize_in(r: Range<usize>) -> Gen<usize> {
    Gen::new(move |src| bounded(src.next_u64(), r.start as u64, r.end as u64) as usize)
}

/// Either boolean (zero draw → `false`).
pub fn bool_any() -> Gen<bool> {
    Gen::new(|src| src.next_u64() & 1 == 1)
}

/// Always the same value (draws nothing).
pub fn just<T: Clone + 'static>(v: T) -> Gen<T> {
    Gen::new(move |_| v.clone())
}

/// Picks one of the given generators per value (analogue of
/// `prop_oneof!`; zero draw → the first alternative).
pub fn one_of<T: 'static>(gens: Vec<Gen<T>>) -> Gen<T> {
    assert!(!gens.is_empty(), "one_of needs at least one generator");
    Gen::new(move |src| {
        let idx = bounded(src.next_u64(), 0, gens.len() as u64) as usize;
        gens[idx].run(src)
    })
}

/// A vector of `elem` values with length in `len` (analogue of
/// `prop::collection::vec`). The length is drawn first, so zeroing that
/// draw shrinks straight to the minimum length.
pub fn vec_of<T: 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    Gen::new(move |src| {
        let n = bounded(src.next_u64(), len.start as u64, len.end as u64) as usize;
        (0..n).map(|_| elem.run(src)).collect()
    })
}

/// A pair of independent values.
pub fn tuple2<A: 'static, B: 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |src| (a.run(src), b.run(src)))
}

/// A triple of independent values.
pub fn tuple3<A: 'static, B: 'static, C: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    Gen::new(move |src| (a.run(src), b.run(src), c.run(src)))
}

/// A 5-tuple of independent values.
pub fn tuple5<A: 'static, B: 'static, C: 'static, D: 'static, E: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
    d: Gen<D>,
    e: Gen<E>,
) -> Gen<(A, B, C, D, E)> {
    Gen::new(move |src| (a.run(src), b.run(src), c.run(src), d.run(src), e.run(src)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let g = tuple3(u64_in(3..17), usize_in(0..5), u8_in(1..4));
        let mut src = Source::random(1);
        for _ in 0..1_000 {
            let (a, b, c) = g.run(&mut src);
            assert!((3..17).contains(&a));
            assert!(b < 5);
            assert!((1..4).contains(&c));
        }
    }

    #[test]
    fn zero_stream_yields_simplest_values() {
        let g = tuple3(u64_in(3..17), bool_any(), vec_of(u8_in(0..10), 2..9));
        let mut src = Source::replay(vec![]);
        let (a, b, v) = g.run(&mut src);
        assert_eq!(a, 3);
        assert!(!b);
        assert_eq!(v, vec![0, 0]);
    }

    #[test]
    fn replay_of_recording_reproduces_value() {
        let g = vec_of(tuple2(u64_in(0..1000), bool_any()), 0..20);
        let mut rec = Source::random(99);
        let v1 = g.run(&mut rec);
        let mut rep = Source::replay(rec.into_record());
        let v2 = g.run(&mut rep);
        assert_eq!(v1, v2);
    }

    #[test]
    fn map_applies() {
        let g = u64_in(0..10).map(|x| x * 2);
        let mut src = Source::random(4);
        for _ in 0..100 {
            assert_eq!(g.run(&mut src) % 2, 0);
        }
    }

    #[test]
    fn one_of_zero_draw_picks_first() {
        let g = one_of(vec![just(1u32), just(2), just(3)]);
        let mut src = Source::replay(vec![]);
        assert_eq!(g.run(&mut src), 1);
    }

    #[test]
    fn vec_length_honors_range() {
        let g = vec_of(u64_in(0..5), 1..8);
        let mut src = Source::random(12);
        for _ in 0..500 {
            let v = g.run(&mut src);
            assert!((1..8).contains(&v.len()));
        }
    }
}
