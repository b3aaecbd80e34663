//! Binary snapshot codec: one symmetric [`State`] trait, the [`state!`]
//! macro that derives it from a type's ordered field list, and the framed
//! on-disk snapshot format.
//!
//! Every snapshotted simulator type names its dynamic fields exactly once,
//! in a `state!` list next to the type (so private fields stay private);
//! the macro expands that one list into both [`State::save`] and
//! [`State::load`], so the two directions cannot drift apart. Types whose
//! encoding is not a plain field sequence — payload enums, hash maps kept
//! in sorted order, the functional memory's page arena, a fault stream's
//! position — implement [`State`] by hand, once.
//!
//! The encoding is deliberately dumb: fixed-width little-endian integers,
//! `usize` as `u64`, `bool` and `Option` tags as one byte, no schema, no
//! varints, no serde. Sequences come in three shapes:
//!
//! * a plain `Vec`/`VecDeque`/`HashMap` field is **bounded**: a `u64`
//!   length prefix, then the elements, replacing the current contents;
//! * `exact` marks a **fixed-geometry** sequence (per-core arrays, cache
//!   ways, bank tables): the length prefix must equal the restoring
//!   system's length and elements load in place;
//! * `fixed` (and `sized`) sequences carry **no prefix**: their length is
//!   implied by the geometry or by an earlier field — cache `states`/`lru`,
//!   core `regs`/`map`/`rob_tags`, and the like.
//!
//! Checks live in the codec once. [`Reader`] enforces a single allocation
//! rule ([`Reader::get_len`]): a length whose elements would not fit, at
//! their in-memory size (on 64-bit hosts never less than their encoded
//! size), in the bytes left is [`SnapError::Truncated`], so no length
//! field, however corrupt, can make a restore reserve more memory than the
//! payload holds. Range checks that protect later indexing (MESI and enum
//! tags, presence flags, way and core indices) are written once, in the
//! hand impls or in a `state!` list's `check` hook.
//!
//! A restore that fails partway may leave the target partially
//! overwritten: a system that got an error must not be run further.
//!
//! Robustness against torn or foreign files comes from the outer frame
//! ([`encode_file`] / [`decode_file`]): magic, format version, a
//! configuration fingerprint, a payload length, and a trailing FNV-1a
//! checksum over everything before it. Torn tails, foreign files, and
//! fingerprint mismatches are all refused with a typed [`SnapError`]
//! before a single payload byte is interpreted. The format is at version 2
//! ([`FORMAT_VERSION`]): version 2 added each SPL function's state word —
//! the fabric-owned `u64` a stateful function keeps across operations —
//! so version-1 files are refused as [`SnapError::BadVersion`].

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"RMAPSNAP";

/// Current snapshot format version. Bump on any payload layout change:
/// old files must be refused, never misread. Version 2 added the SPL
/// functions' state words.
pub const FORMAT_VERSION: u32 = 2;

/// Frame header length: magic, version, fingerprint, payload length.
pub const HEADER_LEN: usize = MAGIC.len() + 4 + 8 + 8;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value being read (torn file), or a
    /// length claims more elements than the remaining bytes can encode.
    Truncated,
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file is a snapshot, but of an unknown format version.
    BadVersion { found: u32 },
    /// The snapshot was taken under a different system configuration.
    BadFingerprint { expected: u64, found: u64 },
    /// The frame checksum does not match (torn or bit-rotted tail).
    BadChecksum,
    /// A payload value is inconsistent with the restoring system's
    /// geometry (wrong vector length, out-of-range index, bad discriminant).
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapError::BadFingerprint { expected, found } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:#018x}, this system is {expected:#018x})"
            ),
            SnapError::BadChecksum => {
                write!(f, "snapshot checksum mismatch (torn or corrupt file)")
            }
            SnapError::Corrupt(why) => write!(f, "snapshot payload corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

// --- FNV-1a -----------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a hasher (fingerprints and frame checksums).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Formatting straight into the hasher fingerprints a configuration
/// without building the string.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

// --- Writer / Reader --------------------------------------------------------

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Length prefix for a following sequence.
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        (n as u64).save(self);
    }
}

/// Cursor over a snapshot payload; every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::Corrupt(format!("{n} trailing payload bytes"))),
        }
    }

    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let s = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or(SnapError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let a = self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or(SnapError::Truncated)?;
        self.pos += N;
        Ok(*a)
    }

    /// Reads the length of a sequence of `T` under the codec's one
    /// allocation rule: `n` elements must fit, at their in-memory size, in
    /// the payload bytes left, else [`SnapError::Truncated`]. So no length,
    /// however corrupt, can make a restore reserve more memory than the
    /// payload holds; and since (on 64-bit hosts) no `State` type encodes
    /// in more bytes than it occupies, every length whose minimum encoding
    /// would overrun the payload is refused too.
    pub fn get_len<T>(&mut self) -> Result<usize, SnapError> {
        let per = std::mem::size_of::<T>().max(1);
        let n = u64::read(self)?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n.checked_mul(per).is_some_and(|b| b <= self.remaining()))
            .ok_or(SnapError::Truncated)
    }

    /// Reads a length prefix that must equal `expected` (fixed geometry).
    pub fn exact_len(&mut self, expected: usize) -> Result<(), SnapError> {
        match u64::read(self)? {
            n if n == expected as u64 => Ok(()),
            n => Err(SnapError::Corrupt(format!(
                "sequence length {n}, expected {expected}"
            ))),
        }
    }
}

// --- the codec --------------------------------------------------------------

/// A value whose dynamic state travels in a snapshot. `save` and `load`
/// are exact mirrors; `load` overwrites `self` in place, so values that
/// carry fixed geometry (cache arrays, per-core tables) keep it.
pub trait State {
    /// Appends the encoding of `self`.
    fn save(&self, w: &mut Writer);

    /// Overwrites `self` with the next encoded value.
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError>;

    /// Decodes a fresh value.
    fn read(r: &mut Reader) -> Result<Self, SnapError>
    where
        Self: Default,
    {
        let mut v = Self::default();
        v.load(r)?;
        Ok(v)
    }
}

macro_rules! scalar_state {
    ($($t:ty),*) => {$(
        impl State for $t {
            #[inline]
            fn save(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
            #[inline]
            fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
                *self = <$t>::from_le_bytes(r.get_array()?);
                Ok(())
            }
        }
    )*};
}

scalar_state!(u8, u16, u32, u64, i64);

/// `usize` travels as `u64` so 32- and 64-bit hosts interoperate.
impl State for usize {
    #[inline]
    fn save(&self, w: &mut Writer) {
        (*self as u64).save(w);
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        let v = u64::read(r)?;
        *self =
            usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))?;
        Ok(())
    }
}

impl State for bool {
    #[inline]
    fn save(&self, w: &mut Writer) {
        u8::from(*self).save(w);
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        *self = match u8::read(r)? {
            0 => false,
            1 => true,
            b => return Err(SnapError::Corrupt(format!("bad bool byte {b}"))),
        };
        Ok(())
    }
}

impl<T: State + Default> State for Option<T> {
    fn save(&self, w: &mut Writer) {
        self.is_some().save(w);
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        if bool::read(r)? {
            self.get_or_insert_with(T::default).load(r)
        } else {
            *self = None;
            Ok(())
        }
    }
}

impl<A: State, B: State> State for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        self.0.load(r)?;
        self.1.load(r)
    }
}

/// Fixed-size arrays: no prefix, loaded in place.
impl<T: State, const N: usize> State for [T; N] {
    fn save(&self, w: &mut Writer) {
        save_all(w, self, false);
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        load_all(r, self, false)
    }
}

macro_rules! bounded_seq_state {
    ($($seq:ident :: $push:ident),*) => {$(
        /// Bounded sequence: length prefix, then elements replacing the
        /// current contents.
        impl<T: State + Default> State for $seq<T> {
            fn save(&self, w: &mut Writer) {
                save_all(w, self, true);
            }
            fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
                let n = r.get_len::<T>()?;
                self.clear();
                self.reserve_exact(n);
                for _ in 0..n {
                    self.$push(T::read(r)?);
                }
                Ok(())
            }
        }
    )*};
}

bounded_seq_state!(Vec::push, VecDeque::push_back);

/// Hash maps travel sorted by key, so the encoding is independent of
/// hash-map iteration order; duplicate keys are refused.
impl<K, V, S> State for HashMap<K, V, S>
where
    K: State + Default + Ord + Hash + Copy + std::fmt::Debug,
    V: State + Default,
    S: BuildHasher,
{
    fn save(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| *k);
        w.put_len(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        let n = r.get_len::<(K, V)>()?;
        self.clear();
        for _ in 0..n {
            let k = K::read(r)?;
            if self.insert(k, V::read(r)?).is_some() {
                return Err(SnapError::Corrupt(format!("duplicate key {k:?}")));
            }
        }
        Ok(())
    }
}

// --- helpers the `state!` expansion calls -------------------------------------

/// Writes every element of a sequence, with an optional length prefix.
#[doc(hidden)]
pub fn save_all<'a, C, T>(w: &mut Writer, seq: &'a C, prefix: bool)
where
    C: ?Sized,
    &'a C: IntoIterator<Item = &'a T>,
    <&'a C as IntoIterator>::IntoIter: ExactSizeIterator,
    T: State + 'a,
{
    let it = seq.into_iter();
    if prefix {
        w.put_len(it.len());
    }
    for x in it {
        x.save(w);
    }
}

/// Loads every element of a fixed-geometry sequence in place; with
/// `prefix`, the encoded length must match.
#[doc(hidden)]
pub fn load_all<'a, C, T>(r: &mut Reader, seq: &'a mut C, prefix: bool) -> Result<(), SnapError>
where
    C: ?Sized,
    &'a mut C: IntoIterator<Item = &'a mut T>,
    <&'a mut C as IntoIterator>::IntoIter: ExactSizeIterator,
    T: State + 'a,
{
    let it = seq.into_iter();
    if prefix {
        r.exact_len(it.len())?;
    }
    for x in it {
        x.load(r)?;
    }
    Ok(())
}

/// Writes an optional model's presence flag and, when present, its state.
#[doc(hidden)]
pub fn save_present<T: State + ?Sized>(w: &mut Writer, v: Option<&T>) {
    v.is_some().save(w);
    if let Some(v) = v {
        v.save(w);
    }
}

/// Loads an optional model that the restoring system must already have
/// (or lack) exactly as the snapshot did: presence is configuration, so a
/// mismatch is refused instead of silently building or dropping the model.
#[doc(hidden)]
pub fn load_present<T: State + ?Sized>(r: &mut Reader, v: Option<&mut T>) -> Result<(), SnapError> {
    let present = bool::read(r)?;
    match v {
        Some(v) if present => v.load(r),
        None if !present => Ok(()),
        _ => Err(SnapError::Corrupt(format!(
            "{} presence mismatch (snapshot {present})",
            std::any::type_name::<T>()
        ))),
    }
}

/// Implements [`State`] for a type from one ordered list of its fields,
/// bound through a name for `self`:
///
/// ```
/// # use remap_snap::{state, Reader, SnapError, State, Writer};
/// #[derive(Default)]
/// struct Bank { ways: Vec<u64>, hint: Vec<u32>, log: Vec<u16>, tick: u64 }
///
/// impl Bank {
///     fn checked(&mut self) -> Result<(), SnapError> {
///         match self.hint.iter().all(|&h| (h as usize) < self.ways.len()) {
///             true => Ok(()),
///             false => Err(SnapError::Corrupt("hint out of range".into())),
///         }
///     }
/// }
///
/// state!(Bank |b| { exact b.ways, fixed b.hint, b.log, b.tick } check Bank::checked);
///
/// let mut a = Bank { ways: vec![7, 8], hint: vec![1], log: vec![3], tick: 9 };
/// let mut w = Writer::new();
/// a.save(&mut w);
/// let bytes = w.into_vec();
/// let mut b = Bank { ways: vec![0, 0], hint: vec![0], ..Bank::default() };
/// b.load(&mut Reader::new(&bytes)).unwrap();
/// assert_eq!((b.ways, b.hint, b.log, b.tick), (vec![7, 8], vec![1], vec![3], 9));
/// a.hint[0] = 5;
/// let mut w = Writer::new();
/// a.save(&mut w);
/// let bytes = w.into_vec();
/// assert!(Bank { ways: vec![0, 0], hint: vec![0], ..Bank::default() }
///     .load(&mut Reader::new(&bytes))
///     .is_err());
/// ```
///
/// Items, in encoding order:
///
/// * `b.f` — the field's own [`State`] encoding;
/// * `exact b.f` — fixed-geometry sequence: length prefix that must match,
///   elements loaded in place;
/// * `fixed b.f` — fixed-geometry sequence without a prefix;
/// * `sized(len) b.f` — sequence without a prefix whose length `len` an
///   earlier item decided (resized, then loaded in place);
/// * `present b.f` — an `Option<Box<_>>` model whose presence the restoring
///   system must match.
///
/// `check path` runs `path(&mut self)` after a load: validation of loaded
/// values and re-derivation of state that does not travel.
#[macro_export]
macro_rules! state {
    ($ty:ty |$s:ident| { $($item:tt)* } $(check $check:path)?) => {
        impl $crate::State for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                let $s = self;
                $crate::state!(@save w; $($item)*);
            }
            fn load(&mut self, r: &mut $crate::Reader) -> ::std::result::Result<(), $crate::SnapError> {
                let $s = self;
                $crate::state!(@load r; $($item)*);
                $($check($s)?;)?
                Ok(())
            }
        }
    };

    (@save $w:ident;) => {};
    (@save $w:ident; exact $p:expr $(, $($rest:tt)*)?) => {
        $crate::save_all($w, &$p, true);
        $crate::state!(@save $w; $($($rest)*)?);
    };
    (@save $w:ident; fixed $p:expr $(, $($rest:tt)*)?) => {
        $crate::save_all($w, &$p, false);
        $crate::state!(@save $w; $($($rest)*)?);
    };
    (@save $w:ident; sized($n:expr) $p:expr $(, $($rest:tt)*)?) => {
        $crate::save_all($w, &$p, false);
        $crate::state!(@save $w; $($($rest)*)?);
    };
    (@save $w:ident; present $p:expr $(, $($rest:tt)*)?) => {
        $crate::save_present($w, $p.as_deref());
        $crate::state!(@save $w; $($($rest)*)?);
    };
    (@save $w:ident; $p:expr $(, $($rest:tt)*)?) => {
        $crate::State::save(&$p, $w);
        $crate::state!(@save $w; $($($rest)*)?);
    };

    (@load $r:ident;) => {};
    (@load $r:ident; exact $p:expr $(, $($rest:tt)*)?) => {
        $crate::load_all($r, &mut $p, true)?;
        $crate::state!(@load $r; $($($rest)*)?);
    };
    (@load $r:ident; fixed $p:expr $(, $($rest:tt)*)?) => {
        $crate::load_all($r, &mut $p, false)?;
        $crate::state!(@load $r; $($($rest)*)?);
    };
    (@load $r:ident; sized($n:expr) $p:expr $(, $($rest:tt)*)?) => {
        let n = $n;
        $p.resize(n, ::std::default::Default::default());
        $crate::load_all($r, &mut $p, false)?;
        $crate::state!(@load $r; $($($rest)*)?);
    };
    (@load $r:ident; present $p:expr $(, $($rest:tt)*)?) => {
        $crate::load_present($r, $p.as_deref_mut())?;
        $crate::state!(@load $r; $($($rest)*)?);
    };
    (@load $r:ident; $p:expr $(, $($rest:tt)*)?) => {
        $crate::State::load(&mut $p, $r)?;
        $crate::state!(@load $r; $($($rest)*)?);
    };
}

// --- file frame -------------------------------------------------------------

/// Frames `payload` into a self-validating snapshot file image:
/// `MAGIC | version | fingerprint | payload_len | payload | fnv1a(all prior)`.
pub fn encode_file(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a snapshot file image and returns its payload slice.
///
/// Refusal order matters for diagnostics: magic first (is this even a
/// snapshot?), then version, then the checksum (torn tail), then the
/// fingerprint (right file, wrong system).
pub fn decode_file(bytes: &[u8], expected_fingerprint: u64) -> Result<&[u8], SnapError> {
    if bytes.len() < MAGIC.len() {
        return Err(SnapError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let version = u32::read(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(SnapError::BadVersion { found: version });
    }
    let fingerprint = u64::read(&mut r)?;
    let payload_len = usize::read(&mut r)?;
    let body_end = HEADER_LEN
        .checked_add(payload_len)
        .ok_or(SnapError::Truncated)?;
    if bytes.len() != body_end.saturating_add(8) {
        return Err(SnapError::Truncated);
    }
    let sum = fnv1a(&bytes[..body_end]);
    if sum.to_le_bytes() != bytes[body_end..] {
        return Err(SnapError::BadChecksum);
    }
    if fingerprint != expected_fingerprint {
        return Err(SnapError::BadFingerprint {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: State + Default>(v: &T) -> T {
        let mut w = Writer::new();
        v.save(&mut w);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let back = T::read(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn round_trips_every_scalar_and_container() {
        assert_eq!(round_trip(&0xABu8), 0xAB);
        assert_eq!(round_trip(&0xBEEFu16), 0xBEEF);
        assert_eq!(round_trip(&0xDEAD_BEEFu32), 0xDEAD_BEEF);
        assert_eq!(round_trip(&(u64::MAX - 3)), u64::MAX - 3);
        assert_eq!(round_trip(&-42i64), -42);
        assert_eq!(round_trip(&12345usize), 12345);
        assert!(round_trip(&true));
        assert_eq!(round_trip(&Some((1u32, 2u32))), Some((1, 2)));
        assert_eq!(round_trip(&None::<u64>), None);
        assert_eq!(round_trip(&[3u8; 5]), [3u8; 5]);
        assert_eq!(round_trip(&vec![1u64, 2, 3]), vec![1, 2, 3]);
        let dq: VecDeque<u16> = [4, 5].into_iter().collect();
        assert_eq!(round_trip(&dq), dq);
        let m: HashMap<u64, u64> = [(9, 1), (2, 7), (5, 3)].into_iter().collect();
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn encoding_is_fixed_width_little_endian() {
        let mut w = Writer::new();
        (0x0102u16, vec![7u8]).save(&mut w);
        Some(true).save(&mut w);
        assert_eq!(w.into_vec(), [2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 7, 1, 1]);
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(u64::read(&mut r), Err(SnapError::Truncated));
        // Failed reads consume nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(u16::read(&mut r).unwrap(), 0x0201);
        assert_eq!(u32::read(&mut r), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_tags_are_corrupt() {
        assert!(matches!(
            bool::read(&mut Reader::new(&[7])),
            Err(SnapError::Corrupt(_))
        ));
        assert!(matches!(
            Option::<u8>::read(&mut Reader::new(&[2, 0])),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn lengths_beyond_the_remaining_bytes_are_truncated() {
        // Three u64 elements need 24 bytes; only 16 follow the prefix.
        let mut buf = 3u64.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(
            Vec::<u64>::read(&mut Reader::new(&buf)),
            Err(SnapError::Truncated)
        );
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(
            Vec::<u64>::read(&mut Reader::new(&buf)).unwrap(),
            vec![0; 3]
        );
        // Elements are charged their in-memory size: three padded
        // `(u8, u64)` pairs encode in 27 bytes but occupy 48.
        let mut buf = 3u64.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 27]);
        assert_eq!(
            Vec::<(u8, u64)>::read(&mut Reader::new(&buf)),
            Err(SnapError::Truncated)
        );
        // A length near u64::MAX never reaches the allocator.
        for n in [u64::MAX, u64::MAX / 8 + 1, 1 << 40] {
            let buf = n.to_le_bytes();
            assert_eq!(
                Vec::<u8>::read(&mut Reader::new(&buf)),
                Err(SnapError::Truncated)
            );
        }
    }

    #[test]
    fn exact_lengths_are_enforced() {
        let mut w = Writer::new();
        save_all(&mut w, &[1u32, 2], true);
        let buf = w.into_vec();
        let mut three = [0u32; 3];
        assert!(matches!(
            load_all(&mut Reader::new(&buf), &mut three, true),
            Err(SnapError::Corrupt(_))
        ));
        let mut two = [0u32; 2];
        load_all(&mut Reader::new(&buf), &mut two, true).unwrap();
        assert_eq!(two, [1, 2]);
    }

    #[test]
    fn presence_must_match() {
        let mut w = Writer::new();
        save_present(&mut w, Some(&5u64));
        let buf = w.into_vec();
        let mut slot = 0u64;
        load_present(&mut Reader::new(&buf), Some(&mut slot)).unwrap();
        assert_eq!(slot, 5);
        assert!(matches!(
            load_present::<u64>(&mut Reader::new(&buf), None),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn duplicate_map_keys_are_corrupt() {
        let mut w = Writer::new();
        w.put_len(2);
        for _ in 0..2 {
            (1u16, 2u16).save(&mut w);
        }
        let buf = w.into_vec();
        assert!(matches!(
            HashMap::<u16, u16>::read(&mut Reader::new(&buf)),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn file_frame_round_trip() {
        let img = encode_file(0x1234, b"payload bytes");
        assert_eq!(decode_file(&img, 0x1234).unwrap(), b"payload bytes");
    }

    #[test]
    fn file_frame_refuses_foreign_and_torn_files() {
        let img = encode_file(0x1234, b"payload");
        // Foreign fingerprint.
        assert_eq!(
            decode_file(&img, 0x9999),
            Err(SnapError::BadFingerprint {
                expected: 0x9999,
                found: 0x1234
            })
        );
        // Torn tail: every strict prefix must be refused.
        for cut in 0..img.len() {
            let e = decode_file(&img[..cut], 0x1234).unwrap_err();
            assert!(
                matches!(
                    e,
                    SnapError::Truncated | SnapError::BadMagic | SnapError::BadChecksum
                ),
                "cut at {cut}: {e:?}"
            );
        }
        // Flipped payload bit: checksum catches it.
        let mut bad = img.clone();
        bad[30] ^= 1;
        assert!(matches!(
            decode_file(&bad, 0x1234),
            Err(SnapError::BadChecksum) | Err(SnapError::BadMagic) | Err(SnapError::Truncated)
        ));
        // Wrong version, including files of the version-1 layout (no SPL
        // state words), which must never be misread.
        let mut wrongver = img.clone();
        wrongver[8] = 0xFE;
        assert!(matches!(
            decode_file(&wrongver, 0x1234),
            Err(SnapError::BadVersion { .. })
        ));
        let mut v1 = img.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_file(&v1, 0x1234),
            Err(SnapError::BadVersion { found: 1 })
        );
        // A payload length near u64::MAX is torn, not an overflow.
        let mut huge = img.clone();
        huge[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_file(&huge, 0x1234), Err(SnapError::Truncated));
        // Not a snapshot at all.
        assert_eq!(
            decode_file(b"definitely-not-a-snapshot", 0x1234),
            Err(SnapError::BadMagic)
        );
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
