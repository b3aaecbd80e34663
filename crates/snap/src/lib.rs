//! Binary snapshot codec: one symmetric [`State`] trait, the [`state!`]
//! macro that derives it from a type's ordered field list, and the framed
//! on-disk snapshot format.
//!
//! Every snapshotted simulator type names its dynamic fields exactly once,
//! in a `state!` list next to the type (so private fields stay private);
//! the macro expands that one list into both [`State::save`] and
//! [`State::load`], so the two directions cannot drift apart. Types whose
//! encoding is not a plain field sequence — payload enums, hash maps kept
//! in sorted order, the functional memory's page arena, a cache's resident
//! lines, a fault stream's position — implement [`State`] by hand, once.
//!
//! The encoding is deliberately dumb: fixed-width little-endian integers,
//! `usize` as `u64`, `bool` and `Option` tags as one byte, no schema, no
//! varints, no serde. Sequences come in five shapes:
//!
//! * a plain `Vec`/`VecDeque`/`HashMap` field is **bounded**: a `u64`
//!   length prefix, then the elements, replacing the current contents;
//! * `exact` marks a **fixed-geometry** sequence (per-core arrays, bank
//!   tables): the length prefix must equal the restoring system's length
//!   and elements load in place;
//! * `fixed` (and `sized`) sequences carry **no prefix**: their length is
//!   implied by the geometry or by an earlier field — core
//!   `regs`/`map`, a barrier entry's per-core flags, and the like;
//! * a **resident** sequence (a cache's lines, a branch target buffer's
//!   slots, by hand) writes only the occupied entries of a fixed-geometry
//!   array: a count, then each entry with its index, in strictly
//!   increasing index order; load empties every occupied entry first, so
//!   the entries not listed end empty;
//! * a **trained** sequence ([`save_trained`] / [`load_trained`], a branch
//!   predictor's counter tables) writes only the bytes of a fixed-geometry
//!   table that differ from its reset value: a count, then `(index,
//!   value)` pairs in strictly increasing index order, found by a
//!   word-wise scan; load refills the table with the reset value first, so
//!   the entries not listed end at it.
//!
//! Checks live in the codec once. [`Reader`] enforces a single allocation
//! rule ([`Reader::get_len`]): a length whose elements would not fit, at
//! their in-memory size (on 64-bit hosts never less than their encoded
//! size), in the bytes left is [`SnapError::Truncated`], so no length
//! field, however corrupt, can make a restore reserve more memory than the
//! payload holds. The index of a resident or trained entry is read once,
//! by [`Reader::get_index`], which refuses an index out of order or past
//! the table. Other range checks that protect later indexing (MESI and
//! enum tags, presence flags, way and core indices) are written once, in
//! the hand impls or in a `state!` list's `check` hook.
//!
//! A restore that fails partway may leave the target partially
//! overwritten: a system that got an error must not be run further.
//!
//! Robustness against torn or foreign files comes from the outer frame
//! ([`encode_file`] / [`decode_file`]): magic, format version, a
//! configuration fingerprint, a payload length, and a trailing
//! word-parallel checksum over everything before it. Torn tails, foreign
//! files, and fingerprint mismatches are all refused with a typed
//! [`SnapError`] before a single payload byte is interpreted. The format
//! is at version 8 ([`FORMAT_VERSION`]): version 2 added each SPL
//! function's state word, version 3 writes only the resident lines of
//! each cache and frames with the word-parallel checksum, version 4
//! drops the skip engine's probe hint, streaks and backoff deadlines from
//! the system state, version 5 drops each core's ROB walk tags, its
//! memory-ordering and executing lists and each ROB entry's issue-queue
//! flag (the core rebuilds its ROB masks from the ROB), version 6 drops
//! each cache's per-set way predictions, version 7 drops the coherence
//! directory's sharer masks (the hierarchy rebuilds them from the restored
//! L2 tags), and version 8 writes only the trained entries of each branch
//! predictor's counter tables and the occupied slots of its target
//! buffer, so files of older versions are refused as
//! [`SnapError::BadVersion`].

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"RMAPSNAP";

/// Current snapshot format version. Bump on any payload layout change:
/// old files must be refused, never misread. Version 2 added the SPL
/// functions' state words; version 3 encodes caches by resident line and
/// changed the frame checksum; version 4 drops the skip engine's probe
/// hint, streaks and backoff deadlines; version 5 drops each core's ROB
/// walk tags, memory-ordering and executing lists and issue-queue flags;
/// version 6 drops the caches' way predictions; version 7 drops the
/// coherence directory's sharer masks; version 8 writes only the trained
/// entries of the branch predictors' counter tables and the occupied
/// slots of their target buffers.
pub const FORMAT_VERSION: u32 = 8;

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

/// Streaming 64-bit FNV-1a hasher (configuration fingerprints). Text goes
/// in byte by byte ([`Fnv::update`], `write!`); values go in through
/// [`std::hash::Hash`], a word at a time.
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

/// Hashing a value word by word: every integer write, `usize` and the
/// enum discriminants a derived `Hash` writes included, widens to `u64`
/// and folds in as one checksum step, so 32- and 64-bit hosts agree and an
/// instruction costs a few multiplies instead of its `Debug` text. Byte
/// strings (names) go through FNV-1a.
impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v.into());
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = sum_step(self.0, v);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
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

    /// Reads the index of the next entry of a resident or trained sequence
    /// over a `len`-entry table: it must be at least `*next` (indices
    /// strictly increase) and below `len`, else [`SnapError::Corrupt`].
    /// Advances `*next` past it.
    pub fn get_index(&mut self, next: &mut usize, len: usize) -> Result<usize, SnapError> {
        let i = u64::read(self)?;
        match usize::try_from(i) {
            Ok(i) if i >= *next && i < len => {
                *next = i + 1;
                Ok(i)
            }
            _ => Err(SnapError::Corrupt(format!(
                "entry {i} out of order or past {len} entries"
            ))),
        }
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

/// Writes the **trained** entries of a fixed-geometry byte table, those
/// that differ from `reset`: a count, then `(index, value)` for each, in
/// increasing index order. The scan compares eight entries at a time
/// against the reset pattern, so a table that learned little costs a few
/// hundred word compares, not a call per entry.
pub fn save_trained(w: &mut Writer, table: &[u8], reset: u8) {
    let at = w.len();
    w.put_len(0);
    let mut n = 0u64;
    let mut put = |w: &mut Writer, i: usize, v: u8| {
        i.save(w);
        v.save(w);
        n += 1;
    };
    let pattern = u64::from_le_bytes([reset; 8]);
    let (words, tail) = table.as_chunks::<8>();
    for (k, word) in words.iter().enumerate() {
        let mut diff = u64::from_le_bytes(*word) ^ pattern;
        while diff != 0 {
            let b = diff.trailing_zeros() as usize / 8;
            put(w, k * 8 + b, word[b]);
            diff &= !(0xff << (b * 8));
        }
    }
    let base = table.len() - tail.len();
    for (b, &v) in tail.iter().enumerate() {
        if v != reset {
            put(w, base + b, v);
        }
    }
    w.buf[at..at + 8].copy_from_slice(&n.to_le_bytes());
}

/// Loads a table written by [`save_trained`]: refills it with `reset`,
/// then applies the listed entries. An index out of order or past the
/// table, or a value equal to `reset` or above `max`, is
/// [`SnapError::Corrupt`]; a count the bytes left cannot hold is
/// [`SnapError::Truncated`].
pub fn load_trained(r: &mut Reader, table: &mut [u8], reset: u8, max: u8) -> Result<(), SnapError> {
    // Charged at the encoded entry size: index 8, value 1.
    let n = r.get_len::<[u8; 9]>()?;
    table.fill(reset);
    let mut next = 0;
    for _ in 0..n {
        let i = r.get_index(&mut next, table.len())?;
        let v = u8::read(r)?;
        if v == reset || v > max {
            return Err(SnapError::Corrupt(format!(
                "trained entry {i} holds {v} (reset {reset}, max {max})"
            )));
        }
        table[i] = v;
    }
    Ok(())
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

/// Seeds of the checksum's four lanes (the first is the FNV offset basis).
const SUM_SEEDS: [u64; 4] = [
    FNV_OFFSET,
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];

/// One checksum step. It is a bijection in `lane` for a fixed `word` and
/// in `word` for a fixed `lane` (xor, odd multiply and rotate each are),
/// so a change confined to one word always changes the lane it feeds. The
/// rotate moves the top bit down, where the next multiply spreads it, so
/// two top-bit flips in one lane do not cancel as they do in plain FNV.
#[inline]
fn sum_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// The frame checksum: four independent lanes over consecutive
/// little-endian `u64` words (lane `k` takes words `k`, `k + 4`, ...),
/// folded together with the byte length and the zero-padded tail of
/// under 32 bytes. Every fold is again a bijection in what it folds in,
/// so any change confined to one word of `bytes` changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SUM_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = sum_step(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    let mut tail = [0u8; 32];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    let mut sum = bytes.len() as u64;
    for (lane, word) in lanes.iter().zip(tail.chunks_exact(8)) {
        sum = sum_step(sum, *lane);
        sum = sum_step(sum, u64::from_le_bytes(word.try_into().unwrap()));
    }
    sum
}

/// Frames `payload` into a self-validating snapshot file image:
/// `MAGIC | version | fingerprint | payload_len | payload | checksum(all prior)`.
pub fn encode_file(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum(&out);
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
    let sum = checksum(&bytes[..body_end]);
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
        // Version 2 wrote dense cache arrays under an FNV-1a checksum.
        let mut v2 = img.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_file(&v2, 0x1234),
            Err(SnapError::BadVersion { found: 2 })
        );
        // Version 3 still carried the skip engine's probe hint, streaks
        // and backoff deadlines in the System payload.
        let mut v3 = img.clone();
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            decode_file(&v3, 0x1234),
            Err(SnapError::BadVersion { found: 3 })
        );
        // Version 4 still carried each core's ROB walk tags, side lists and
        // per-entry issue-queue flags.
        let mut v4 = img.clone();
        v4[8..12].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            decode_file(&v4, 0x1234),
            Err(SnapError::BadVersion { found: 4 })
        );
        // Version 5 still carried each cache's way predictions, version 6
        // the directory's sharer masks, version 7 every predictor counter
        // and target-buffer slot.
        for old in [5u32, 6, 7] {
            let mut v = img.clone();
            v[8..12].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                decode_file(&v, 0x1234),
                Err(SnapError::BadVersion { found: old })
            );
        }
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
    fn every_single_bit_flip_of_a_frame_is_refused() {
        // 1 KiB + 5 bytes of payload: whole 32-byte blocks plus a tail.
        let payload: Vec<u8> = (0..1029u32).map(|i| (i * 7 + 3) as u8).collect();
        let img = encode_file(0x1234, &payload);
        assert_eq!(decode_file(&img, 0x1234).unwrap(), &payload[..]);
        for bit in 0..img.len() * 8 {
            let mut bad = img.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let e = decode_file(&bad, 0x1234).unwrap_err();
            // Magic, version and payload length have their own refusals;
            // the fingerprint, payload and sum are the checksum's.
            let summed = matches!(bit / 8, 12..20) || bit / 8 >= HEADER_LEN;
            assert!(
                !summed || e == SnapError::BadChecksum,
                "flip of bit {} in byte {}: {e:?}",
                bit % 8,
                bit / 8
            );
        }
    }

    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        let img = encode_file(0x1234, &[0x5a; 256]);
        let flip_top = |img: &[u8], words: [usize; 2]| {
            let mut bad = img.to_vec();
            for w in words {
                bad[8 * w + 7] ^= 0x80;
            }
            bad
        };
        // Word-wise FNV, the naive widening of the byte-serial hash: an
        // odd multiply never carries the top bit down, so the second flip
        // cancels the first.
        let fnv_words = |bytes: &[u8]| {
            bytes.chunks_exact(8).fold(FNV_OFFSET, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME)
            })
        };
        // Payload words 4, 8, 12, ... all feed lane 0.
        for words in [[4, 8], [4, 32], [5, 9], [7, 31]] {
            let bad = flip_top(&img, words);
            assert_eq!(fnv_words(&bad), fnv_words(&img), "{words:?}");
            assert_eq!(
                decode_file(&bad, 0x1234),
                Err(SnapError::BadChecksum),
                "top bits of words {words:?}"
            );
        }
    }

    fn trained(table: &[u8], reset: u8) -> Vec<u8> {
        let mut w = Writer::new();
        save_trained(&mut w, table, reset);
        w.into_vec()
    }

    fn encode_entries(entries: &[(u64, u8)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(entries.len());
        for &(i, v) in entries {
            (i, v).save(&mut w);
        }
        w.into_vec()
    }

    #[test]
    fn trained_tables_list_only_what_differs_from_reset() {
        // 21 entries: two whole words and a 5-byte tail, trained in the
        // first and last byte of a word, in the tail, and not at all.
        let mut table = [1u8; 21];
        for (i, v) in [(0, 3), (7, 0), (9, 2), (20, 0)] {
            table[i] = v;
        }
        let bytes = trained(&table, 1);
        assert_eq!(bytes, encode_entries(&[(0, 3), (7, 0), (9, 2), (20, 0)]));
        // Load refills with the reset value: a dirty target ends exactly
        // like a fresh one.
        let mut dirty = [3u8; 21];
        let mut r = Reader::new(&bytes);
        load_trained(&mut r, &mut dirty, 1, 3).unwrap();
        r.finish().unwrap();
        assert_eq!(dirty, table);
        assert_eq!(trained(&[2; 16], 2), encode_entries(&[]));
        for len in [0, 1, 7, 8, 9, 64] {
            let t: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
            let mut back = vec![0; len];
            load_trained(&mut Reader::new(&trained(&t, 2)), &mut back, 2, 3).unwrap();
            assert_eq!(back, t, "{len} entries");
        }
    }

    #[test]
    fn corrupt_trained_entries_are_refused() {
        let load = |bytes: &[u8]| load_trained(&mut Reader::new(bytes), &mut [1u8; 16], 1, 3);
        load(&encode_entries(&[(2, 0), (15, 3)])).unwrap();
        for (what, entries) in [
            ("duplicate index", vec![(2, 0), (2, 3)]),
            ("out-of-order index", vec![(5, 0), (2, 3)]),
            ("index past the table", vec![(2, 0), (16, 3)]),
            ("index near u64::MAX", vec![(u64::MAX, 3)]),
            ("counter above the maximum", vec![(2, 4)]),
            ("entry at its reset value", vec![(2, 1)]),
        ] {
            assert!(
                matches!(load(&encode_entries(&entries)), Err(SnapError::Corrupt(_))),
                "{what}"
            );
        }
        // A count larger than the bytes left, and every cut.
        let good = encode_entries(&[(2, 0), (15, 3)]);
        let mut huge = good.clone();
        huge[..8].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(load(&huge), Err(SnapError::Truncated));
        for cut in 0..good.len() {
            assert_eq!(
                load(&good[..cut]),
                Err(SnapError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hashed_integers_widen_to_words() {
        use std::hash::Hash;
        let hash = |v: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::new();
            v(&mut h);
            h.finish()
        };
        let five = hash(&|h| 5u64.hash(h));
        assert_eq!(hash(&|h| 5usize.hash(h)), five);
        assert_eq!(hash(&|h| 5u32.hash(h)), five);
        assert_eq!(hash(&|h| 5u8.hash(h)), five);
        assert_ne!(hash(&|h| 6u64.hash(h)), five);
        assert_ne!(hash(&|h| [5u64, 0].hash(h)), hash(&|h| [0u64, 5].hash(h)));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a test vectors.
        let fnv = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.update(bytes);
            h.finish()
        };
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
