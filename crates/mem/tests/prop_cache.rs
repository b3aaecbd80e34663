//! Property test: the packed `Cache` (one `tag << 2 | code` key and LRU
//! stamp per way, plus a residency bitmap) is observationally identical to
//! a plain reference model.
//!
//! The reference reimplements the documented policy with none of the
//! layout tricks: separate tag, state and stamp arrays, a `Mesi` per way,
//! first-match linear lookup, and residency read off the states. Every
//! operation's return value, the hit/miss/writeback/invalidation counters,
//! the resident set and its line addresses must match over arbitrary
//! operation sequences and geometries; and a snapshot restored into a
//! cache that already holds other lines must continue identically.

use proptest::prelude::*;
use remap_mem::{Cache, CacheConfig, Mesi};
use remap_snap::{Reader, State, Writer};

/// Linear-scan reference cache: same policy, naive implementation.
struct RefCache {
    ways: usize,
    sets: usize,
    line_shift: u32,
    tag_shift: u32,
    tags: Vec<u64>,
    states: Vec<Mesi>,
    lru: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    invalidations: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        let sets = cfg.sets();
        let line_shift = cfg.line_bytes.trailing_zeros();
        RefCache {
            ways: cfg.ways,
            sets,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
            tags: vec![0; sets * cfg.ways],
            states: vec![Mesi::Invalid; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            invalidations: 0,
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// First-match linear scan — no prediction.
    fn find(&self, si: usize, tag: u64) -> Option<usize> {
        let base = si * self.ways;
        (0..self.ways)
            .find(|&w| self.states[base + w] != Mesi::Invalid && self.tags[base + w] == tag)
    }

    fn probe(&self, addr: u64) -> Mesi {
        let si = self.set_index(addr);
        match self.find(si, self.tag(addr)) {
            Some(w) => self.states[si * self.ways + w],
            None => Mesi::Invalid,
        }
    }

    fn access(&mut self, addr: u64) -> Option<Mesi> {
        self.tick += 1;
        let si = self.set_index(addr);
        match self.find(si, self.tag(addr)) {
            Some(w) => {
                let i = si * self.ways + w;
                self.lru[i] = self.tick;
                self.hits += 1;
                Some(self.states[i])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn set_state(&mut self, addr: u64, state: Mesi) {
        let si = self.set_index(addr);
        if let Some(w) = self.find(si, self.tag(addr)) {
            self.states[si * self.ways + w] = state;
        }
    }

    fn invalidate(&mut self, addr: u64) -> Mesi {
        let si = self.set_index(addr);
        if let Some(w) = self.find(si, self.tag(addr)) {
            let i = si * self.ways + w;
            let prev = self.states[i];
            self.tags[i] = 0;
            self.states[i] = Mesi::Invalid;
            self.lru[i] = 0;
            self.invalidations += 1;
            if prev == Mesi::Modified {
                self.writebacks += 1;
            }
            prev
        } else {
            Mesi::Invalid
        }
    }

    fn insert(&mut self, addr: u64, state: Mesi) -> Option<(u64, Mesi)> {
        self.tick += 1;
        let si = self.set_index(addr);
        let tag = self.tag(addr);
        let base = si * self.ways;
        if let Some(w) = self.find(si, tag) {
            self.states[base + w] = state;
            self.lru[base + w] = self.tick;
            return None;
        }
        let mut evicted = None;
        let slot = match (0..self.ways).find(|&w| self.states[base + w] == Mesi::Invalid) {
            Some(w) => w,
            None => {
                let mut w = 0;
                for cand in 1..self.ways {
                    if self.lru[base + cand] < self.lru[base + w] {
                        w = cand;
                    }
                }
                let victim_state = self.states[base + w];
                if victim_state == Mesi::Modified {
                    self.writebacks += 1;
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
        evicted
    }

    fn resident_lines(&self) -> usize {
        self.states.iter().filter(|&&s| s != Mesi::Invalid).count()
    }

    fn resident_line_addrs(&self) -> Vec<u64> {
        (0..self.states.len())
            .filter(|&i| self.states[i] != Mesi::Invalid)
            .map(|i| {
                (self.tags[i] << self.tag_shift) | (((i / self.ways) as u64) << self.line_shift)
            })
            .collect()
    }
}

fn saved(c: &Cache) -> Vec<u8> {
    let mut w = Writer::new();
    c.save(&mut w);
    w.into_vec()
}

/// Applies `op` to a cache or the reference, rendering what it returned.
macro_rules! apply {
    ($cache:expr, $op:expr) => {
        match $op {
            Op::Access(a) => format!("{:?}", $cache.access(a)),
            Op::Insert(a, s) => format!("{:?}", $cache.insert(a, s)),
            Op::Invalidate(a) => format!("{:?}", $cache.invalidate(a)),
            Op::SetState(a, s) => {
                $cache.set_state(a, s);
                String::new()
            }
            Op::Probe(a) => format!("{:?}", $cache.probe(a)),
        }
    };
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Insert(u64, Mesi),
    Invalidate(u64),
    SetState(u64, Mesi),
    Probe(u64),
}

fn arb_state() -> impl Strategy<Value = Mesi> {
    prop_oneof![
        Just(Mesi::Modified),
        Just(Mesi::Exclusive),
        Just(Mesi::Shared),
    ]
}

/// Addresses spanning `tags` distinct tags per set so conflict evictions
/// are common, with in-line byte offsets so lookups exercise masking.
fn arb_addr(sets: u64, tags: u64) -> impl Strategy<Value = u64> {
    (0..tags * sets, 0u64..16).prop_map(|(line, off)| line * 16 + off)
}

fn arb_op(sets: u64, tags: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_addr(sets, tags).prop_map(Op::Access),
        (arb_addr(sets, tags), arb_state()).prop_map(|(a, s)| Op::Insert(a, s)),
        arb_addr(sets, tags).prop_map(Op::Invalidate),
        (arb_addr(sets, tags), arb_state()).prop_map(|(a, s)| Op::SetState(a, s)),
        arb_addr(sets, tags).prop_map(Op::Probe),
    ]
}

/// Geometries small enough that eviction and conflict paths dominate:
/// (sets, ways) over 16-byte lines.
fn arb_geometry() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((2usize, 1usize)),
        Just((2, 2)),
        Just((4, 2)),
        Just((4, 4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical hit/miss/eviction/invalidate sequences, final stats and
    /// resident lines between the packed cache and the reference.
    #[test]
    fn cache_matches_linear_scan_reference(
        geom in arb_geometry(),
        // Addresses generated for the largest geometry (4 sets); smaller
        // set counts alias the extra lines, which only adds conflicts.
        ops in proptest::collection::vec(arb_op(4, 6), 1..300),
    ) {
        let (sets, ways) = geom;
        let cfg = CacheConfig {
            size_bytes: sets * ways * 16,
            ways,
            line_bytes: 16,
            hit_latency: 1,
        };
        let mut cache = Cache::new(cfg);
        let mut model = RefCache::new(cfg);
        for &op in &ops {
            prop_assert_eq!(apply!(cache, op), apply!(model, op));
        }
        let st = cache.stats();
        prop_assert_eq!(st.hits, model.hits);
        prop_assert_eq!(st.misses, model.misses);
        prop_assert_eq!(st.writebacks, model.writebacks);
        prop_assert_eq!(st.invalidations, model.invalidations);
        prop_assert_eq!(cache.resident_lines(), model.resident_lines());
        // Every line resident in one is resident with the same state in the
        // other (probe is side-effect-free).
        for line in 0..4u64 * 6 {
            prop_assert_eq!(cache.probe(line * 16), model.probe(line * 16));
        }
        prop_assert_eq!(
            cache.resident_line_addrs().collect::<Vec<_>>(),
            model.resident_line_addrs()
        );
    }

    /// A snapshot restored into a cache that holds other lines (the same
    /// operations replayed backwards) saves the same bytes and answers the
    /// operations that follow exactly as the reference does.
    #[test]
    fn snapshot_restores_into_a_dirty_target(
        geom in arb_geometry(),
        ops in proptest::collection::vec(arb_op(4, 6), 1..200),
    ) {
        let (sets, ways) = geom;
        let cfg = CacheConfig {
            size_bytes: sets * ways * 16,
            ways,
            line_bytes: 16,
            hit_latency: 1,
        };
        let mut donor = Cache::new(cfg);
        let mut model = RefCache::new(cfg);
        let mut target = Cache::new(cfg);
        for &op in &ops {
            apply!(donor, op);
            apply!(model, op);
        }
        for &op in ops.iter().rev() {
            apply!(target, op);
        }
        let bytes = saved(&donor);
        let mut r = Reader::new(&bytes);
        prop_assert!(target.load(&mut r).is_ok());
        prop_assert!(r.finish().is_ok());
        prop_assert_eq!(saved(&target), bytes);
        prop_assert_eq!(target.resident_lines(), donor.resident_lines());
        for &op in &ops {
            prop_assert_eq!(apply!(target, op), apply!(model, op));
            apply!(donor, op);
        }
        prop_assert_eq!(saved(&target), saved(&donor));
    }
}
