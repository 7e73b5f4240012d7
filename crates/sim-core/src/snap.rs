//! Versioned byte codec for checkpoint/restore images.
//!
//! Every snapshotable type implements [`Snap`]: `save` appends its state
//! to a [`SnapWriter`], and `load` overwrites it in place from a
//! [`SnapReader`]. The format is deliberately dumb: little-endian
//! fixed-width integers, length-prefixed sequences, and tagged sections —
//! no varints, no padding, no platform-dependent types — so an image
//! produced at any `VSCALE_THREADS` setting is byte-identical to one
//! produced at any other, and byte-comparing two images is a complete
//! state-equality check.
//!
//! A type states its layout once, as an ordered field list in
//! [`snap_struct!`](crate::snap_struct) or a tag table in
//! [`snap_enum!`](crate::snap_enum); both directions are generated from
//! it, so save and load cannot drift. The struct macro destructures
//! exhaustively: a field that is neither listed nor named as skipped
//! fails the build.
//!
//! Loading is in place because restore targets a *structural twin* — a
//! machine built by the same setup code. Configuration, topology, and
//! scratch buffers are skipped; the twin already has them. Sequences
//! whose length is topology (pCPUs, vCPUs, threads, ports) are marked
//! `twin` and load element by element into the twin's own entries after
//! asserting the lengths agree.
//!
//! Malformed images are simulation bugs, not user input: the reader
//! panics with the offending section tag rather than threading `Result`
//! through every component. The only soft failure is the top-level
//! magic/version check ([`SnapReader::open`]), which future-proofs
//! on-disk images across format revisions.

use std::collections::VecDeque;

use crate::soa::VcpuMap;
use crate::time::{SimDuration, SimTime};

/// First 4 image bytes: "vSCL".
pub const SNAP_MAGIC: u32 = 0x7653_434c;
/// Bump on any layout change; restore refuses other versions.
pub const SNAP_VERSION: u32 = 1;

/// Serializes state into a flat byte image.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer carrying the magic/version header.
    pub fn new() -> Self {
        let mut w = SnapWriter { buf: Vec::new() };
        w.u32(SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w
    }

    /// The finished image.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing (beyond any header) has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Opens a named section; [`SnapReader::section`] checks the tag, so
    /// a save/load mismatch fails at the component that drifted instead
    /// of misparsing everything downstream.
    pub fn section(&mut self, tag: &'static str) {
        self.u32(fnv1a(tag.as_bytes()));
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an f64 by bit pattern (exact round-trip, no rounding).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a usize as u64 (indices, lengths).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a [`SimTime`] (nanoseconds; `MAX` round-trips as `u64::MAX`).
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_ns());
    }

    /// Writes a [`SimDuration`].
    pub fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_ns());
    }
}

/// Deserializes state from an image produced by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates the magic/version header; `Err` carries a description.
    pub fn open(buf: &'a [u8]) -> Result<Self, String> {
        let mut r = SnapReader { buf, pos: 0 };
        if buf.len() < 8 {
            return Err(format!("image truncated: {} bytes", buf.len()));
        }
        let magic = r.u32();
        if magic != SNAP_MAGIC {
            return Err(format!("bad magic {magic:#x}, want {SNAP_MAGIC:#x}"));
        }
        let version = r.u32();
        if version != SNAP_VERSION {
            return Err(format!(
                "image version {version}, this build reads {SNAP_VERSION}"
            ));
        }
        Ok(r)
    }

    /// True when every byte has been consumed — restore asserts this so
    /// a short read (drifted save/load pairing) cannot pass silently.
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Checks a section tag written by [`SnapWriter::section`].
    #[track_caller]
    pub fn section(&mut self, tag: &'static str) {
        let got = self.u32();
        assert_eq!(
            got,
            fnv1a(tag.as_bytes()),
            "snapshot section mismatch: expected \"{tag}\" at byte {}",
            self.pos - 4
        );
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.pos + n <= self.buf.len(),
            "snapshot image truncated at byte {} (want {n} more of {})",
            self.pos,
            self.buf.len()
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Reads a sequence length prefix, rejecting lengths the remaining
    /// bytes cannot hold (every element takes at least one byte).
    fn len_prefix(&mut self) -> usize {
        let n = self.usize();
        assert!(
            n <= self.buf.len() - self.pos,
            "snapshot sequence length {n} exceeds remaining bytes"
        );
        n
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> i64 {
        i64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Reads an f64 by bit pattern.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> bool {
        match self.u8() {
            0 => false,
            1 => true,
            b => panic!("snapshot bool byte {b} at {}", self.pos - 1),
        }
    }

    /// Reads a usize.
    pub fn usize(&mut self) -> usize {
        usize::try_from(self.u64()).expect("snapshot length overflows usize")
    }

    /// Reads a [`SimTime`].
    pub fn time(&mut self) -> SimTime {
        SimTime::from_ns(self.u64())
    }

    /// Reads a [`SimDuration`].
    pub fn dur(&mut self) -> SimDuration {
        SimDuration::from_ns(self.u64())
    }
}

/// FNV-1a over a tag string — stable section identifiers without
/// embedding strings in the image.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// State that travels in checkpoint and migration images.
///
/// `load` overwrites `self` in place with what `save` wrote, so a type
/// may keep structural state (configuration, topology, scratch) that the
/// image never carries. Implement it with [`snap_struct!`](crate::snap_struct)
/// or [`snap_enum!`](crate::snap_enum) rather than by hand.
pub trait Snap {
    /// Appends this value's state to `w`.
    fn save(&self, w: &mut SnapWriter);

    /// Overwrites this value's state with the next value in `r`.
    fn load(&mut self, r: &mut SnapReader<'_>);
}

/// The tag table of an enum, generated by [`snap_enum!`](crate::snap_enum).
/// An image stores the tag byte, then the variant's fields; split out so
/// one enum can nest inside another's tag space.
pub trait SnapEnum: Sized {
    /// The variant's tag byte.
    fn tag(&self) -> u8;

    /// Writes the variant's fields (everything after the tag byte).
    fn save_payload(&self, w: &mut SnapWriter);

    /// Reads the fields of the variant with tag `tag`.
    fn read_payload(tag: u8, r: &mut SnapReader<'_>) -> Self;
}

/// Reads a fresh value: the default, overwritten from the image.
pub fn read<T: Snap + Default>(r: &mut SnapReader<'_>) -> T {
    let mut t = T::default();
    t.load(r);
    t
}

/// Writes a length-prefixed sequence: the count, then each element.
pub fn save_seq<'a, T: Snap + 'a>(items: impl ExactSizeIterator<Item = &'a T>, w: &mut SnapWriter) {
    w.usize(items.len());
    for it in items {
        it.save(w);
    }
}

/// Loads a twin sequence element by element into the twin's own entries,
/// panicking with `what` if the image's length differs from the twin's.
#[track_caller]
pub fn load_twin<'a, T: Snap + 'a>(
    items: impl ExactSizeIterator<Item = &'a mut T>,
    r: &mut SnapReader<'_>,
    what: &str,
) {
    let n = r.usize();
    assert_eq!(n, items.len(), "{what}");
    for it in items {
        it.load(r);
    }
}

/// Writes only whether each slot is occupied. For slots that restore
/// rebuilds from other state: the bits still make two images of
/// different occupancy differ.
pub fn save_presence<'a, T: 'a>(
    items: impl ExactSizeIterator<Item = &'a Option<T>>,
    w: &mut SnapWriter,
) {
    w.usize(items.len());
    for it in items {
        w.bool(it.is_some());
    }
}

/// Consumes the bits written by [`save_presence`] and empties every slot
/// for the rebuild, panicking with `what` if the slot count differs.
#[track_caller]
pub fn load_presence<'a, T: 'a>(
    items: impl ExactSizeIterator<Item = &'a mut Option<T>>,
    r: &mut SnapReader<'_>,
    what: &str,
) {
    let n = r.usize();
    assert_eq!(n, items.len(), "{what}");
    for it in items {
        r.bool();
        *it = None;
    }
}

macro_rules! snap_prim {
    ($($ty:ty => $method:ident),* $(,)?) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$method(*self);
            }

            fn load(&mut self, r: &mut SnapReader<'_>) {
                *self = r.$method();
            }
        }
    )*};
}

snap_prim!(
    u8 => u8,
    u32 => u32,
    u64 => u64,
    i64 => i64,
    f64 => f64,
    bool => bool,
    usize => usize,
    SimTime => time,
    SimDuration => dur,
);

impl<T: Snap + Default> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        if r.bool() {
            self.get_or_insert_with(T::default).load(r);
        } else {
            *self = None;
        }
    }
}

impl<T: Snap + Default> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(self.iter(), w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        let n = r.len_prefix();
        self.clear();
        for _ in 0..n {
            self.push(read(r));
        }
    }
}

impl<T: Snap + Default> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(self.iter(), w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        let n = r.len_prefix();
        self.clear();
        for _ in 0..n {
            self.push_back(read(r));
        }
    }
}

/// Fixed arrays carry no length prefix: the length is the type.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for it in self {
            it.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        for it in self {
            it.load(r);
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        self.0.load(r);
        self.1.load(r);
    }
}

impl<T: Snap + ?Sized> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        (**self).load(r);
    }
}

/// A [`VcpuMap`]'s population is topology: it always loads as a twin.
impl<T: Snap> Snap for VcpuMap<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(self.values().iter(), w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) {
        load_twin(self.values_mut().iter_mut(), r, "vCPU count drifted");
    }
}

/// Implements [`Snap`] for a struct from one ordered field list.
///
/// ```text
/// snap_struct!(Type "section" {
///     field,                                  // Snap::save / Snap::load
///     seq: twin "count differs from twin",    // length must match the twin's
///     slots: presence "slot count differs",   // occupancy bits only
/// } skip { config, scratch });
/// ```
///
/// Fields are written in list order, after the optional section tag.
/// `skip` names the structural fields restore keeps from the twin.
/// A tuple struct lists a binding per position: `snap_struct!(Id(i));`.
///
/// Both directions destructure the struct exhaustively, so adding a
/// field without listing or skipping it is a build error:
///
/// ```compile_fail,E0027
/// struct Pair {
///     a: u64,
///     b: u64,
/// }
/// sim_core::snap_struct!(Pair { a });
/// ```
///
/// ```
/// use sim_core::snap::{Snap, SnapReader, SnapWriter};
///
/// #[derive(Default)]
/// struct Counter {
///     hits: u64,
///     label: &'static str,
/// }
/// sim_core::snap_struct!(Counter "counter" { hits } skip { label });
///
/// let mut w = SnapWriter::new();
/// Counter { hits: 3, label: "a" }.save(&mut w);
/// let img = w.finish();
/// let mut twin = Counter { hits: 0, label: "b" };
/// twin.load(&mut SnapReader::open(&img).unwrap());
/// assert_eq!((twin.hits, twin.label), (3, "b"));
/// ```
#[macro_export]
macro_rules! snap_struct {
    (@save $w:ident $f:ident) => {
        $crate::snap::Snap::save($f, $w)
    };
    (@save $w:ident $f:ident twin $what:literal) => {
        $crate::snap::save_seq($f.iter(), $w)
    };
    (@save $w:ident $f:ident presence $what:literal) => {
        $crate::snap::save_presence($f.iter(), $w)
    };
    (@load $r:ident $f:ident) => {
        $crate::snap::Snap::load($f, $r)
    };
    (@load $r:ident $f:ident twin $what:literal) => {
        $crate::snap::load_twin($f.iter_mut(), $r, $what)
    };
    (@load $r:ident $f:ident presence $what:literal) => {
        $crate::snap::load_presence($f.iter_mut(), $r, $what)
    };
    ($ty:ident ( $($f:ident),* $(,)? )) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let $ty($($f),*) = self;
                $($crate::snap::Snap::save($f, w);)*
            }

            fn load(&mut self, r: &mut $crate::snap::SnapReader<'_>) {
                let $ty($($f),*) = self;
                $($crate::snap::Snap::load($f, r);)*
            }
        }
    };
    (
        $ty:ident $($tag:literal)? {
            $($f:ident $(: $mode:ident $what:literal)?),* $(,)?
        } $(skip { $($skip:ident),* $(,)? })?
    ) => {
        impl $crate::snap::Snap for $ty {
            #[allow(unused_variables)]
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let $ty { $($f,)* $($($skip: _,)*)? } = self;
                $(w.section($tag);)?
                $($crate::snap_struct!(@save w $f $($mode $what)?);)*
            }

            #[allow(unused_variables)]
            fn load(&mut self, r: &mut $crate::snap::SnapReader<'_>) {
                let $ty { $($f,)* $($($skip: _,)*)? } = self;
                $(r.section($tag);)?
                $($crate::snap_struct!(@load r $f $($mode $what)?);)*
            }
        }
    };
}

/// Implements [`Snap`] and [`SnapEnum`] for an enum from its tag table:
/// one explicit tag byte per variant, then the variant's fields in order.
///
/// ```text
/// snap_enum!(State {
///     0 => Idle,
///     1 => Busy(until),
///     2 => Moving { from, to },
/// } nested 5 => Owned(owner, Inner));
/// ```
///
/// The optional `nested` variant embeds another tagged enum: it is
/// written as `base + inner tag`, then the first field, then the inner
/// variant's fields. Field types must implement [`Default`] so a variant
/// can be built from the image.
#[macro_export]
macro_rules! snap_enum {
    (
        $ty:ident {
            $($tag:literal => $var:ident
                $({ $($sf:ident),* $(,)? })?
                $(( $($tf:ident),* $(,)? ))?
            ),* $(,)?
        } $(nested $base:literal => $nvar:ident($pre:ident, $inner:ty))?
    ) => {
        impl $crate::snap::SnapEnum for $ty {
            #[allow(unused_variables)]
            fn tag(&self) -> u8 {
                match self {
                    $($ty::$var $({ $($sf: _),* })? $(( $($tf),* ))? => $tag,)*
                    $($ty::$nvar(_, inner) => $base + $crate::snap::SnapEnum::tag(inner),)?
                }
            }

            fn save_payload(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $($ty::$var $({ $($sf),* })? $(( $($tf),* ))? => {
                        $($($crate::snap::Snap::save($sf, w);)*)?
                        $($($crate::snap::Snap::save($tf, w);)*)?
                    })*
                    $($ty::$nvar($pre, inner) => {
                        $crate::snap::Snap::save($pre, w);
                        $crate::snap::SnapEnum::save_payload(inner, w);
                    })?
                }
            }

            fn read_payload(tag: u8, r: &mut $crate::snap::SnapReader<'_>) -> Self {
                match tag {
                    $($tag => $ty::$var
                        $({ $($sf: $crate::snap::read(r)),* })?
                        $(( $({ let $tf = $crate::snap::read(r); $tf }),* ))?,
                    )*
                    $(t if t >= $base => {
                        let $pre = $crate::snap::read(r);
                        $ty::$nvar(
                            $pre,
                            <$inner as $crate::snap::SnapEnum>::read_payload(t - $base, r),
                        )
                    })?
                    t => panic!("unknown {} tag {t}", stringify!($ty)),
                }
            }
        }

        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                w.u8($crate::snap::SnapEnum::tag(self));
                $crate::snap::SnapEnum::save_payload(self, w);
            }

            fn load(&mut self, r: &mut $crate::snap::SnapReader<'_>) {
                let tag = r.u8();
                *self = <$ty as $crate::snap::SnapEnum>::read_payload(tag, r);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.section("prims");
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.f64(0.125);
        w.bool(true);
        w.usize(9001);
        w.time(SimTime::MAX);
        w.dur(SimDuration::from_ns(123));
        let img = w.finish();
        let mut r = SnapReader::open(&img).expect("header");
        r.section("prims");
        assert_eq!(r.u8(), 7);
        assert_eq!(r.u32(), 0xdead_beef);
        assert_eq!(r.u64(), u64::MAX - 3);
        assert_eq!(r.i64(), -42);
        assert_eq!(r.f64(), 0.125);
        assert!(r.bool());
        assert_eq!(r.usize(), 9001);
        assert_eq!(r.time(), SimTime::MAX);
        assert_eq!(r.dur(), SimDuration::from_ns(123));
        assert!(r.exhausted());
    }

    #[test]
    fn containers_round_trip_with_stable_bytes() {
        let value: (Option<u64>, Vec<(SimTime, u32)>) =
            (Some(5), vec![(SimTime::from_ns(9), 1), (SimTime::MAX, 2)]);
        let mut w = SnapWriter::new();
        value.save(&mut w);
        [1u64, 2, 3].save(&mut w);
        None::<u64>.save(&mut w);
        let img = w.finish();
        // presence byte + u64, length + 2 × (u64 + u32), 3 × u64 without a
        // length, presence byte.
        assert_eq!(img.len(), 8 + 9 + 8 + 2 * 12 + 24 + 1);
        let mut r = SnapReader::open(&img).expect("header");
        let mut back: (Option<u64>, Vec<(SimTime, u32)>) = (None, vec![(SimTime::ZERO, 7)]);
        back.load(&mut r);
        assert_eq!(back, value);
        let mut arr = [0u64; 3];
        arr.load(&mut r);
        assert_eq!(arr, [1, 2, 3]);
        let mut none = Some(4u64);
        none.load(&mut r);
        assert_eq!(none, None);
        assert!(r.exhausted());
    }

    #[derive(Debug, PartialEq)]
    struct Twinned {
        items: Vec<u64>,
        scratch: Vec<u64>,
    }
    crate::snap_struct!(Twinned "twinned" {
        items: twin "item count differs from twin",
    } skip { scratch });

    #[test]
    fn twin_sequences_load_in_place_and_keep_skipped_fields() {
        let mut w = SnapWriter::new();
        Twinned {
            items: vec![4, 5],
            scratch: vec![1],
        }
        .save(&mut w);
        let img = w.finish();
        let mut twin = Twinned {
            items: vec![0, 0],
            scratch: vec![9, 9],
        };
        twin.load(&mut SnapReader::open(&img).expect("header"));
        assert_eq!(
            twin,
            Twinned {
                items: vec![4, 5],
                scratch: vec![9, 9]
            }
        );
    }

    #[test]
    #[should_panic(expected = "item count differs from twin")]
    fn twin_length_mismatch_panics() {
        let mut w = SnapWriter::new();
        Twinned {
            items: vec![4, 5],
            scratch: vec![],
        }
        .save(&mut w);
        let img = w.finish();
        let mut twin = Twinned {
            items: vec![0],
            scratch: vec![],
        };
        twin.load(&mut SnapReader::open(&img).expect("header"));
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    enum Inner {
        #[default]
        A,
        B(u64),
    }
    crate::snap_enum!(Inner { 0 => A, 1 => B(x) });

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    enum Outer {
        #[default]
        Idle,
        Span {
            from: u32,
            to: u32,
        },
        Owned(u32, Inner),
    }
    crate::snap_enum!(Outer {
        0 => Idle,
        1 => Span { from, to },
    } nested 2 => Owned(owner, Inner));

    #[test]
    fn enums_write_tag_then_fields_and_nest_by_offset() {
        let mut w = SnapWriter::new();
        Outer::Span { from: 1, to: 2 }.save(&mut w);
        Outer::Owned(7, Inner::B(9)).save(&mut w);
        let img = w.finish();
        let mut expect = SnapWriter::new();
        expect.u8(1);
        expect.u32(1);
        expect.u32(2);
        expect.u8(2 + 1);
        expect.u32(7);
        expect.u64(9);
        assert_eq!(img, expect.finish());
        let mut r = SnapReader::open(&img).expect("header");
        let (mut a, mut b) = (Outer::Idle, Outer::Idle);
        a.load(&mut r);
        b.load(&mut r);
        assert_eq!(a, Outer::Span { from: 1, to: 2 });
        assert_eq!(b, Outer::Owned(7, Inner::B(9)));
    }

    #[test]
    fn header_rejects_wrong_magic_and_version() {
        assert!(SnapReader::open(&[1, 2, 3]).is_err());
        let mut img = SnapWriter::new().finish();
        img[0] ^= 0xff;
        assert!(SnapReader::open(&img).unwrap_err().contains("magic"));
        let mut img = SnapWriter::new().finish();
        img[4] = 99;
        assert!(SnapReader::open(&img).unwrap_err().contains("version"));
    }

    #[test]
    #[should_panic(expected = "section mismatch")]
    fn section_tags_catch_drift() {
        let mut w = SnapWriter::new();
        w.section("kernel");
        let img = w.finish();
        let mut r = SnapReader::open(&img).expect("header");
        r.section("scheduler");
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_reads_panic() {
        let img = SnapWriter::new().finish();
        let mut r = SnapReader::open(&img).expect("header");
        let _ = r.u64();
    }

    #[test]
    fn identical_state_means_identical_bytes() {
        let write = || {
            let mut w = SnapWriter::new();
            w.section("x");
            vec![9u64, 8, 7].save(&mut w);
            w.finish()
        };
        assert_eq!(write(), write());
    }
}
