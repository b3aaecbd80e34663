//! Set-associative cache tag array with MESI state and LRU replacement.

use std::fmt;

/// MESI coherence state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Modified: this cache holds the only, dirty copy.
    Modified,
    /// Exclusive: this cache holds the only, clean copy.
    Exclusive,
    /// Shared: possibly other caches also hold clean copies.
    Shared,
    /// Invalid.
    Invalid,
}

impl fmt::Display for Mesi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Mesi::Modified => 'M',
            Mesi::Exclusive => 'E',
            Mesi::Shared => 'S',
            Mesi::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

/// Geometry and latency of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in core cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's L1 configuration: 8 kB, 2-way, 2-cycle access, 32 B lines.
    pub fn l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 * 1024,
            ways: 2,
            line_bytes: 32,
            hit_latency: 2,
        }
    }

    /// The paper's L2 configuration: 1 MB per core, 10-cycle access.
    /// We use 8-way associativity and the same 32 B lines as the L1 so that
    /// L1 ⊆ L2 inclusion is a one-to-one line mapping.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 8,
            line_bytes: 32,
            hit_latency: 10,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss and coherence activity counters, used by the power model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction or snoop.
    pub writebacks: u64,
    /// Lines invalidated by remote stores.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A cache tag array (data lives in [`FlatMem`](crate::FlatMem)).
///
/// The cache tracks MESI state per line and uses true LRU within a set.
/// Protocol decisions (what state to fill with, whom to invalidate) are made
/// by the owning [`Hierarchy`](crate::Hierarchy); the cache only provides
/// mechanical probe/insert/invalidate operations.
///
/// Storage is one packed record per way, indexed `set * ways + way`: the
/// key `tag << 2 | code` (a two-bit MESI code, Invalid = 0) and the LRU
/// stamp. An empty way is all-zero bits, so the array is
/// allocated zeroed and a large L2 costs no build-time writes. A lookup
/// scans the keys of one set; a way matches when its key's tag bits equal
/// the address tag and its code is not Invalid. Beside the records, a
/// residency bitmap holds one bit per way, set exactly when the way is
/// valid, so snapshots and [`Cache::resident_line_addrs`] visit only the
/// lines the cache holds.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    num_sets: usize,
    /// `log2(line_bytes)` — geometry is power-of-two, so indexing is all
    /// shifts and masks instead of integer division.
    line_shift: u32,
    /// `log2(line_bytes * num_sets)`: shift that strips line offset and
    /// set index off an address, leaving the tag.
    tag_shift: u32,
    /// `(key, lru)` per way: `key = tag << 2 | code`.
    ways: Vec<(u64, u64)>,
    /// Bit `i % 64` of word `i / 64` is set iff way `i` is valid.
    resident: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Mesi {
    /// The two-bit code a cache key carries: Invalid is 0, so an all-zero
    /// way is empty.
    #[inline]
    fn code(self) -> u64 {
        match self {
            Mesi::Invalid => 0,
            Mesi::Shared => 1,
            Mesi::Exclusive => 2,
            Mesi::Modified => 3,
        }
    }

    #[inline]
    fn from_code(key: u64) -> Mesi {
        [Mesi::Invalid, Mesi::Shared, Mesi::Exclusive, Mesi::Modified][(key & 3) as usize]
    }
}

/// Positions of the set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets, non-power-of-two
    /// sets/line size, or fewer than four bytes per way of a set, which
    /// would leave a key no room for its tag).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let line_shift = cfg.line_bytes.trailing_zeros();
        let tag_shift = line_shift + sets.trailing_zeros();
        assert!(
            tag_shift >= 2,
            "line size times set count must be at least 4"
        );
        let n = sets * cfg.ways;
        Cache {
            num_sets: sets,
            line_shift,
            tag_shift,
            ways: vec![(0, 0); n],
            resident: vec![0; n.div_ceil(64)],
            cfg,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.num_sets - 1)
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Line-aligned base address for `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    /// Index of the way holding the line of `addr`, if resident: a linear
    /// scan of its set's keys. `key ^ tag << 2` is the way's code exactly
    /// when the tags agree, so a valid match leaves 1..=3. This is the
    /// single lookup used by every probe/access/set_state/invalidate/insert
    /// path.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let base = self.set_index(addr) * self.cfg.ways;
        let want = self.tag(addr) << 2;
        self.ways[base..base + self.cfg.ways]
            .iter()
            .position(|&(key, _)| (key ^ want).wrapping_sub(1) < 3)
            .map(|w| base + w)
    }

    #[inline]
    fn mark(&mut self, i: usize, valid: bool) {
        let bit = 1u64 << (i % 64);
        if valid {
            self.resident[i / 64] |= bit;
        } else {
            self.resident[i / 64] &= !bit;
        }
    }

    /// Indices of the valid ways, in increasing order.
    fn resident_ways(&self) -> impl Iterator<Item = usize> + '_ {
        self.resident
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| set_bits(word).map(move |b| wi * 64 + b))
    }

    /// Line-aligned base address of the line in way `i`.
    #[inline]
    fn way_line(&self, i: usize) -> u64 {
        let si = (i / self.cfg.ways) as u64;
        ((self.ways[i].0 >> 2) << self.tag_shift) | (si << self.line_shift)
    }

    /// Returns the MESI state of the line containing `addr` without touching
    /// LRU or statistics (used for snooping).
    #[inline]
    pub fn probe(&self, addr: u64) -> Mesi {
        match self.find(addr) {
            Some(i) => Mesi::from_code(self.ways[i].0),
            None => Mesi::Invalid,
        }
    }

    /// Performs a demand access: bumps LRU and hit/miss counters. Returns the
    /// state if the line is present (hit), else `None` (miss).
    #[inline]
    pub fn access(&mut self, addr: u64) -> Option<Mesi> {
        self.tick += 1;
        match self.find(addr) {
            Some(i) => {
                self.ways[i].1 = self.tick;
                self.stats.hits += 1;
                Some(Mesi::from_code(self.ways[i].0))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Changes the state of a resident line; no-op if not resident.
    /// Setting Invalid keeps the way's tag bits and stamp; lookups never
    /// match an Invalid way.
    #[inline]
    pub fn set_state(&mut self, addr: u64, state: Mesi) {
        if let Some(i) = self.find(addr) {
            self.ways[i].0 = (self.ways[i].0 & !3) | state.code();
            self.mark(i, state != Mesi::Invalid);
        }
    }

    /// Invalidates the line containing `addr` (remote store snoop). Returns
    /// the previous state, counting a writeback if it was Modified.
    pub fn invalidate(&mut self, addr: u64) -> Mesi {
        let Some(i) = self.find(addr) else {
            return Mesi::Invalid;
        };
        let prev = Mesi::from_code(self.ways[i].0);
        self.ways[i] = (0, 0);
        self.mark(i, false);
        self.stats.invalidations += 1;
        if prev == Mesi::Modified {
            self.stats.writebacks += 1;
        }
        prev
    }

    /// Inserts the line containing `addr` with the given state, evicting the
    /// LRU line of the set if full. Returns the evicted line's base address
    /// and state, if any (the hierarchy uses this to maintain inclusion and
    /// count writebacks).
    pub fn insert(&mut self, addr: u64, state: Mesi) -> Option<(u64, Mesi)> {
        self.tick += 1;
        let key = self.tag(addr) << 2 | state.code();
        if let Some(i) = self.find(addr) {
            // Already resident (e.g. refill racing an upgrade): just update.
            self.ways[i] = (key, self.tick);
            self.mark(i, state != Mesi::Invalid);
            return None;
        }
        // Prefer an empty way; otherwise evict the LRU of the set (LRU stamps
        // are unique — `tick` is monotonic — so the victim is unambiguous).
        let base = self.set_index(addr) * self.cfg.ways;
        let set = &self.ways[base..base + self.cfg.ways];
        let mut evicted = None;
        let slot = match set.iter().position(|&(k, _)| k & 3 == 0) {
            Some(w) => base + w,
            None => {
                let mut w = 0;
                for cand in 1..set.len() {
                    if set[cand].1 < set[w].1 {
                        w = cand;
                    }
                }
                let victim = base + w;
                let victim_state = Mesi::from_code(self.ways[victim].0);
                if victim_state == Mesi::Modified {
                    self.stats.writebacks += 1;
                }
                evicted = Some((self.way_line(victim), victim_state));
                victim
            }
        };
        self.ways[slot] = (key, self.tick);
        self.mark(slot, state != Mesi::Invalid);
        evicted
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Line-aligned base address of every resident line, in way order (used
    /// to reseed the coherence directory when it is enabled mid-run).
    pub fn resident_line_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.resident_ways().map(|i| self.way_line(i))
    }
}

/// Resident lines only: a count, then `index, tag, state, lru` for each
/// valid way in index order, then the tick and the statistics. Geometry is
/// not written — it is part of the config fingerprint. Invalid lines need
/// not travel: a lookup never matches one, `insert` fills the first
/// Invalid way whatever its tag bits or stamp, and LRU victims are chosen
/// only in full sets. Save and load visit only the residency bitmap's set
/// bits, so both cost what the cache holds. Load works on any target: it
/// first empties the target's valid ways, so every line not listed ends
/// Invalid. An Invalid way's leftover tag bits and stamp (from
/// `set_state(_, Mesi::Invalid)`) stay as they were; nothing reads them.
impl remap_snap::State for Cache {
    fn save(&self, w: &mut remap_snap::Writer) {
        w.put_len(self.resident_lines());
        for i in self.resident_ways() {
            let (key, lru) = self.ways[i];
            i.save(w);
            (key >> 2).save(w);
            Mesi::from_code(key).save(w);
            lru.save(w);
        }
        self.tick.save(w);
        self.stats.save(w);
    }

    fn load(&mut self, r: &mut remap_snap::Reader) -> Result<(), remap_snap::SnapError> {
        use remap_snap::SnapError::Corrupt;
        // Charged at the encoded entry size: index 8, tag 8, MESI 1, stamp 8.
        let n = r.get_len::<[u8; 25]>()?;
        for wi in 0..self.resident.len() {
            for b in set_bits(std::mem::take(&mut self.resident[wi])) {
                self.ways[wi * 64 + b].0 &= !3;
            }
        }
        let mut next = 0;
        for _ in 0..n {
            let i = r.get_index(&mut next, self.ways.len())?;
            let tag = u64::read(r)?;
            if tag >> (64 - self.tag_shift) != 0 {
                return Err(Corrupt(format!("tag {tag:#x} of line {i} is too wide")));
            }
            let mut state = Mesi::Invalid;
            state.load(r)?;
            if state == Mesi::Invalid {
                return Err(Corrupt(format!("resident line {i} is Invalid")));
            }
            self.ways[i] = (tag << 2 | state.code(), u64::read(r)?);
            self.mark(i, true);
        }
        self.tick.load(r)?;
        self.stats.load(r)
    }
}

remap_snap::state!(CacheStats |s| { s.hits, s.misses, s.writebacks, s.invalidations });

/// One byte per line, in declaration order (M, E, S, I).
impl remap_snap::State for Mesi {
    fn save(&self, w: &mut remap_snap::Writer) {
        (*self as u8).save(w);
    }
    fn load(&mut self, r: &mut remap_snap::Reader) -> Result<(), remap_snap::SnapError> {
        *self = match u8::read(r)? {
            0 => Mesi::Modified,
            1 => Mesi::Exclusive,
            2 => Mesi::Shared,
            3 => Mesi::Invalid,
            b => return Err(remap_snap::SnapError::Corrupt(format!("bad MESI byte {b}"))),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remap_snap::{Reader, SnapError, State, Writer};

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 16-byte lines.
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 16,
            hit_latency: 1,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1().sets(), 128);
        assert_eq!(CacheConfig::l2().sets(), 4096);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x100), None);
        c.insert(0x100, Mesi::Exclusive);
        assert_eq!(c.access(0x100), Some(Mesi::Exclusive));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = tiny();
        c.insert(0x100, Mesi::Shared);
        assert_eq!(c.access(0x10f), Some(Mesi::Shared));
        assert_eq!(c.access(0x110), None, "next line misses");
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // All map to set 0: line addresses multiples of 32 (2 sets * 16B).
        c.insert(0x000, Mesi::Exclusive);
        c.insert(0x020, Mesi::Exclusive);
        c.access(0x000); // make 0x000 most recent
        let ev = c.insert(0x040, Mesi::Exclusive).expect("evicts");
        assert_eq!(ev.0, 0x020, "LRU line evicted");
        assert_eq!(c.probe(0x000), Mesi::Exclusive);
        assert_eq!(c.probe(0x020), Mesi::Invalid);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Modified);
        c.insert(0x020, Mesi::Exclusive);
        c.insert(0x040, Mesi::Exclusive); // evicts 0x000 (LRU)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_returns_previous_state() {
        let mut c = tiny();
        c.insert(0x100, Mesi::Modified);
        assert_eq!(c.invalidate(0x100), Mesi::Modified);
        assert_eq!(c.invalidate(0x100), Mesi::Invalid);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(0x100, Mesi::Shared);
        assert_eq!(c.insert(0x100, Mesi::Modified), None);
        assert_eq!(c.probe(0x100), Mesi::Modified);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn alternating_lines_in_one_set_keep_hitting() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Exclusive);
        c.insert(0x020, Mesi::Shared);
        for _ in 0..8 {
            assert_eq!(c.access(0x000), Some(Mesi::Exclusive));
            assert_eq!(c.access(0x020), Some(Mesi::Shared));
        }
        assert_eq!(c.stats().hits, 16);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn invalid_way_with_tag_bits_is_not_a_hit() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Exclusive);
        assert_eq!(c.access(0x000), Some(Mesi::Exclusive));
        // Invalid, but the way keeps its tag bits: no lookup may match it.
        c.set_state(0x000, Mesi::Invalid);
        assert_eq!(c.probe(0x000), Mesi::Invalid);
        assert_eq!(c.access(0x000), None);
        assert_eq!(c.resident_lines(), 0);
        // An invalidated way is all-zero, the key of tag 0 with code
        // Invalid: line 0x000 (tag 0) still misses after it.
        c.insert(0x000, Mesi::Shared);
        c.invalidate(0x000);
        assert_eq!(c.access(0x000), None);
        assert_eq!(c.access(0x040), None);
        assert_eq!(c.resident_line_addrs().count(), 0);
    }

    #[test]
    fn line_addr_masks_low_bits() {
        let c = tiny();
        assert_eq!(c.line_addr(0x10f), 0x100);
    }

    fn saved(c: &Cache) -> Vec<u8> {
        let mut w = Writer::new();
        c.save(&mut w);
        w.into_vec()
    }

    fn restored(target: &mut Cache, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = Reader::new(bytes);
        target.load(&mut r)?;
        r.finish()
    }

    /// A fixed probe/access/insert/invalidate sequence over both sets,
    /// including fills into sets that hold Invalid ways with stale tags.
    fn replay(c: &mut Cache) -> Vec<String> {
        let mut out = Vec::new();
        for addr in [0x000, 0x020, 0x040, 0x110, 0x130, 0x150] {
            out.push(format!("{}", c.probe(addr)));
        }
        out.push(format!("{:?}", c.access(0x020)));
        out.push(format!("{:?}", c.insert(0x150, Mesi::Exclusive)));
        out.push(format!("{:?}", c.insert(0x170, Mesi::Modified)));
        out.push(format!("{:?}", c.insert(0x060, Mesi::Shared)));
        out.push(format!("{:?}", c.access(0x110)));
        out.push(format!("{}", c.invalidate(0x150)));
        out.push(format!("{:?}", c.insert(0x190, Mesi::Shared)));
        out.push(format!("{:?}", c.insert(0x1b0, Mesi::Shared)));
        out.push(format!("{:?}", c.stats()));
        out
    }

    #[test]
    fn snapshot_restores_into_a_dirty_target() {
        let mut a = tiny();
        a.insert(0x000, Mesi::Modified);
        a.insert(0x020, Mesi::Exclusive);
        a.access(0x000);
        a.insert(0x110, Mesi::Shared);
        a.insert(0x130, Mesi::Exclusive);
        // Invalid, but with its tag and stamp left behind.
        a.set_state(0x110, Mesi::Invalid);
        let bytes = saved(&a);

        let mut b = tiny();
        b.insert(0x040, Mesi::Shared);
        b.insert(0x150, Mesi::Modified);
        b.insert(0x170, Mesi::Exclusive);
        b.access(0x150);
        restored(&mut b, &bytes).unwrap();
        assert_eq!(b.resident_lines(), 3);
        assert_eq!(saved(&b), bytes);
        assert_eq!(replay(&mut a), replay(&mut b));
        assert_eq!(saved(&a), saved(&b));
    }

    #[test]
    fn full_caches_round_trip() {
        for cfg in [CacheConfig::l1(), CacheConfig::l2()] {
            let mut a = Cache::new(cfg);
            // One sweep of the capacity fills every way of every set.
            for addr in (0..cfg.size_bytes as u64).step_by(cfg.line_bytes) {
                a.insert(addr, Mesi::Modified);
            }
            assert_eq!(a.resident_lines(), cfg.sets() * cfg.ways);
            let bytes = saved(&a);
            let mut b = Cache::new(cfg);
            restored(&mut b, &bytes).unwrap();
            assert_eq!(saved(&b), bytes);
        }
    }

    /// A cache encoding with the given `(index, tag, MESI byte, lru)`
    /// list and `tail`'s tick and statistics.
    fn encode_lines(lines: &[(u64, u64, u8, u64)], tail: &Cache) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(lines.len());
        for &(i, tag, st, lru) in lines {
            (i, tag).save(&mut w);
            (st, lru).save(&mut w);
        }
        (tail.tick, tail.stats).save(&mut w);
        w.into_vec()
    }

    #[test]
    fn corrupt_resident_lists_are_refused() {
        let tail = tiny();
        let good = encode_lines(&[(0, 7, 0, 1), (3, 9, 2, 2)], &tail);
        restored(&mut tiny(), &good).unwrap();
        for (what, lines) in [
            ("duplicate index", vec![(1, 7, 0, 1), (1, 9, 2, 2)]),
            ("out-of-order index", vec![(2, 7, 0, 1), (1, 9, 2, 2)]),
            ("index past the geometry", vec![(0, 7, 0, 1), (4, 9, 2, 2)]),
            ("Invalid state", vec![(0, 7, 3, 1)]),
            ("bad MESI byte", vec![(0, 7, 9, 1)]),
            ("tag wider than the address", vec![(0, 1 << 59, 0, 1)]),
        ] {
            let bytes = encode_lines(&lines, &tail);
            assert!(
                matches!(restored(&mut tiny(), &bytes), Err(SnapError::Corrupt(_))),
                "{what}"
            );
        }
        // A count beyond what the bytes left can hold, and every cut.
        let mut huge = good.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(restored(&mut tiny(), &huge), Err(SnapError::Truncated));
        for cut in 0..good.len() {
            assert_eq!(
                restored(&mut tiny(), &good[..cut]),
                Err(SnapError::Truncated),
                "cut at {cut}"
            );
        }
        // No single-byte corruption panics.
        for pos in 0..good.len() {
            for v in [0, 1, 3, 4, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[pos] = v;
                let _ = restored(&mut tiny(), &bad);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 48,
            ways: 1,
            line_bytes: 16,
            hit_latency: 1,
        });
    }
}
