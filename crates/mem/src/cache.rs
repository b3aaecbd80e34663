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
/// Storage is data-oriented: tags, states, and LRU stamps live in three
/// parallel flat arrays indexed `set * ways + way` (empty ways carry
/// `Mesi::Invalid`), and each set remembers its last-hit way (`mru_way`).
/// Every lookup goes through [`find_way`](Cache::find_way), which checks
/// the predicted way before falling back to the linear scan — on hit-heavy
/// traffic the common case touches a single tag. Way prediction is a pure
/// search shortcut: tags of valid lines are unique within a set, so the
/// predicted-way probe and the linear scan always agree.
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
    tags: Vec<u64>,
    states: Vec<Mesi>,
    lru: Vec<u64>,
    /// Last way hit (or filled) per set; purely a prediction hint.
    mru_way: Vec<u32>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// sets/line size).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let line_shift = cfg.line_bytes.trailing_zeros();
        Cache {
            num_sets: sets,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
            tags: vec![0; sets * cfg.ways],
            states: vec![Mesi::Invalid; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            mru_way: vec![0; sets],
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
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    /// Locates the way holding `tag` in set `si`, if resident. Checks the
    /// set's MRU way first (way prediction), then scans linearly. This is
    /// the single lookup used by every probe/access/set_state/invalidate/
    /// insert path.
    #[inline]
    fn find_way(&self, si: usize, tag: u64) -> Option<usize> {
        let ways = self.cfg.ways;
        let base = si * ways;
        let pred = self.mru_way[si] as usize;
        debug_assert!(pred < ways);
        if self.states[base + pred] != Mesi::Invalid && self.tags[base + pred] == tag {
            return Some(pred);
        }
        (0..ways).find(|&w| {
            w != pred && self.states[base + w] != Mesi::Invalid && self.tags[base + w] == tag
        })
    }

    /// Returns the MESI state of the line containing `addr` without touching
    /// LRU or statistics (used for snooping).
    #[inline]
    pub fn probe(&self, addr: u64) -> Mesi {
        let si = self.set_index(addr);
        match self.find_way(si, self.tag(addr)) {
            Some(w) => self.states[si * self.cfg.ways + w],
            None => Mesi::Invalid,
        }
    }

    /// Performs a demand access: bumps LRU and hit/miss counters. Returns the
    /// state if the line is present (hit), else `None` (miss).
    #[inline]
    pub fn access(&mut self, addr: u64) -> Option<Mesi> {
        self.tick += 1;
        let si = self.set_index(addr);
        match self.find_way(si, self.tag(addr)) {
            Some(w) => {
                let i = si * self.cfg.ways + w;
                self.lru[i] = self.tick;
                self.mru_way[si] = w as u32;
                self.stats.hits += 1;
                Some(self.states[i])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Changes the state of a resident line; no-op if not resident.
    #[inline]
    pub fn set_state(&mut self, addr: u64, state: Mesi) {
        let si = self.set_index(addr);
        if let Some(w) = self.find_way(si, self.tag(addr)) {
            self.states[si * self.cfg.ways + w] = state;
            self.mru_way[si] = w as u32;
        }
    }

    /// Invalidates the line containing `addr` (remote store snoop). Returns
    /// the previous state, counting a writeback if it was Modified.
    pub fn invalidate(&mut self, addr: u64) -> Mesi {
        let si = self.set_index(addr);
        if let Some(w) = self.find_way(si, self.tag(addr)) {
            let i = si * self.cfg.ways + w;
            let prev = self.states[i];
            self.tags[i] = 0;
            self.states[i] = Mesi::Invalid;
            self.lru[i] = 0;
            self.stats.invalidations += 1;
            if prev == Mesi::Modified {
                self.stats.writebacks += 1;
            }
            prev
        } else {
            Mesi::Invalid
        }
    }

    /// Inserts the line containing `addr` with the given state, evicting the
    /// LRU line of the set if full. Returns the evicted line's base address
    /// and state, if any (the hierarchy uses this to maintain inclusion and
    /// count writebacks).
    pub fn insert(&mut self, addr: u64, state: Mesi) -> Option<(u64, Mesi)> {
        self.tick += 1;
        let si = self.set_index(addr);
        let tag = self.tag(addr);
        let base = si * self.cfg.ways;
        if let Some(w) = self.find_way(si, tag) {
            // Already resident (e.g. refill racing an upgrade): just update.
            self.states[base + w] = state;
            self.lru[base + w] = self.tick;
            self.mru_way[si] = w as u32;
            return None;
        }
        // Prefer an empty way; otherwise evict the LRU of the set (LRU stamps
        // are unique — `tick` is monotonic — so the victim is unambiguous).
        let mut evicted = None;
        let set_states = &self.states[base..base + self.cfg.ways];
        let slot = match set_states.iter().position(|&s| s == Mesi::Invalid) {
            Some(w) => w,
            None => {
                let mut w = 0;
                for cand in 1..self.cfg.ways {
                    if self.lru[base + cand] < self.lru[base + w] {
                        w = cand;
                    }
                }
                let victim_state = self.states[base + w];
                if victim_state == Mesi::Modified {
                    self.stats.writebacks += 1;
                }
                let victim_base =
                    (self.tags[base + w] << self.tag_shift) | ((si as u64) << self.line_shift);
                evicted = Some((victim_base, victim_state));
                w
            }
        };
        self.tags[base + slot] = tag;
        self.states[base + slot] = state;
        self.lru[base + slot] = self.tick;
        self.mru_way[si] = slot as u32;
        evicted
    }

    /// Number of resident lines (for tests).
    pub fn resident_lines(&self) -> usize {
        self.states.iter().filter(|&&s| s != Mesi::Invalid).count()
    }

    /// Line-aligned base address of every resident line (used to reseed
    /// the coherence directory when it is enabled mid-run).
    pub fn resident_line_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        let ways = self.cfg.ways;
        self.states.iter().enumerate().filter_map(move |(i, &st)| {
            if st == Mesi::Invalid {
                return None;
            }
            let si = (i / ways) as u64;
            Some((self.tags[i] << self.tag_shift) | (si << self.line_shift))
        })
    }
}

/// Resident lines only: a count, then `index, tag, state, lru` for each
/// non-Invalid line in index order, then the way predictions, the tick
/// and the statistics. Geometry is not written — it is part of the config
/// fingerprint. Invalid lines need not travel: `find_way` never matches
/// one, `insert` fills the first Invalid way whatever its tag or stamp,
/// and LRU victims are chosen only in full sets. Load works on any target:
/// every line not listed ends Invalid. Its tag and stamp stay as they
/// were, as `set_state(_, Mesi::Invalid)` leaves them; nothing reads them.
impl remap_snap::State for Cache {
    fn save(&self, w: &mut remap_snap::Writer) {
        w.put_len(self.resident_lines());
        for (i, &st) in self.states.iter().enumerate() {
            if st != Mesi::Invalid {
                i.save(w);
                self.tags[i].save(w);
                st.save(w);
                self.lru[i].save(w);
            }
        }
        remap_snap::save_all(w, &self.mru_way, true);
        self.tick.save(w);
        self.stats.save(w);
    }

    fn load(&mut self, r: &mut remap_snap::Reader) -> Result<(), remap_snap::SnapError> {
        use remap_snap::SnapError::Corrupt;
        // Charged at the encoded entry size: index 8, tag 8, MESI 1, stamp 8.
        let n = r.get_len::<[u8; 25]>()?;
        self.states.fill(Mesi::Invalid);
        let mut next = 0;
        for _ in 0..n {
            let i = usize::read(r)?;
            if i < next || i >= self.states.len() {
                return Err(Corrupt(format!(
                    "resident line {i} out of order or past {} lines",
                    self.states.len()
                )));
            }
            next = i + 1;
            self.tags[i].load(r)?;
            self.states[i].load(r)?;
            if self.states[i] == Mesi::Invalid {
                return Err(Corrupt(format!("resident line {i} is Invalid")));
            }
            self.lru[i].load(r)?;
        }
        remap_snap::load_all(r, &mut self.mru_way, true)?;
        self.tick.load(r)?;
        self.stats.load(r)?;
        self.check_restored()
    }
}

remap_snap::state!(CacheStats |s| { s.hits, s.misses, s.writebacks, s.invalidations });

impl Cache {
    /// Way predictions index the set, so a restored one must be in range.
    fn check_restored(&mut self) -> Result<(), remap_snap::SnapError> {
        match self.mru_way.iter().find(|&&m| m as usize >= self.cfg.ways) {
            Some(m) => Err(remap_snap::SnapError::Corrupt(format!(
                "mru_way {m} out of range"
            ))),
            None => Ok(()),
        }
    }
}

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
    fn way_prediction_tracks_alternating_lines() {
        let mut c = tiny();
        // Two lines in the same set: alternating hits flip the MRU way and
        // must keep hitting (the prediction is a shortcut, not a filter).
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
    fn invalidated_mru_way_is_not_a_false_hit() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Exclusive);
        assert_eq!(c.access(0x000), Some(Mesi::Exclusive));
        c.invalidate(0x000);
        // The MRU way still points at the cleared slot; a fresh line with a
        // different tag must not hit through the stale prediction.
        assert_eq!(c.access(0x040), None);
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
    /// list and `tail`'s way predictions, tick and statistics.
    fn encode_lines(lines: &[(u64, u64, u8, u64)], tail: &Cache) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(lines.len());
        for &(i, tag, st, lru) in lines {
            (i, tag).save(&mut w);
            (st, lru).save(&mut w);
        }
        remap_snap::save_all(&mut w, &tail.mru_way, true);
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
