//! Directory-based coherence filter over the private-L2 line space.
//!
//! The broadcast reference model walks *every* remote core on each full
//! miss (`Hierarchy::snoop_remotes`) — O(cores) per miss both
//! architecturally and in simulator wall-time. The directory replaces the
//! walk with a precise probe filter: one compact sharer bitmask per line
//! currently resident in any private L2, so a miss probes only the actual
//! sharers (usually zero or one). Entries are line-interleaved across
//! [`DIR_BANKS`] banks with [`DIR_PORTS`] ports each and a
//! [`DIR_BANK_BUSY`] occupancy window, the same FCFS bank-conflict shape
//! as the memory controller.
//!
//! Like the MLP machinery, the directory is *timing-plus-routing* state
//! layered over the same functional MESI walk: a sharer bit is set exactly
//! when the line is resident in that core's private L2 (L1D ⊆ L2
//! inclusion makes the L2 tag authoritative), so probing only masked
//! cores touches precisely the caches the broadcast walk would have
//! changed. `Hierarchy::set_dir(false)` restores the broadcast reference
//! model.

use crate::cache::Cache;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Line-interleaved directory banks.
pub const DIR_BANKS: usize = 8;

/// Lookup ports per bank: two same-bank transactions overlap; a third
/// queues FCFS behind the earliest-free port.
pub const DIR_PORTS: usize = 2;

/// Cycles one lookup occupies a bank port. Uncontended lookups are
/// pipelined behind the L1+L2 traversal and cost nothing; only the queue
/// delay of a port conflict is charged.
pub const DIR_BANK_BUSY: u64 = 4;

/// Per-hop latency of the inter-cluster grid, charged on cache-to-cache
/// transfers beyond the first hop (the baseline `c2c_latency` covers one
/// hop, preserving all single- and quad-cluster timing).
pub const GRID_HOP_LATENCY: u64 = 4;

/// Cores per cluster tile of the grid (the paper's four-core cluster).
const CLUSTER_CORES: usize = 4;

/// Cluster count up to which the interconnect is the paper's flat quad
/// arrangement: no hop charges, identical to the pre-grid timing.
const QUAD_CLUSTERS: usize = 4;

/// Directory activity counters, surfaced in `RunReport`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DirStats {
    /// Directory lookups performed (full misses and upgrades).
    pub lookups: u64,
    /// Remote-core probes actually sent (sharer-mask bits walked).
    pub probes_sent: u64,
    /// Probes the broadcast model would have sent but the sharer mask
    /// filtered out.
    pub probes_avoided: u64,
    /// Lookups that queued behind a busy bank port.
    pub bank_conflicts: u64,
    /// Total cycles lost to bank-port queueing.
    pub conflict_cycles: u64,
    /// Sharer bits dropped because the owning L2 evicted the line
    /// (inclusive back-invalidation).
    pub back_invalidations: u64,
    /// Largest sharer set ever recorded for one line.
    pub max_sharers: u32,
    /// Extra cycles charged for cache-to-cache hops beyond the first.
    pub hop_cycles: u64,
}

/// Multiply-xor line hasher: one 64-bit multiply and a shift, no
/// per-byte loop on the hot `write_u64` path.
#[derive(Default)]
struct LineHasher {
    h: u64,
}

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h = (self.h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.h = x ^ (x >> 29);
    }
}

/// The banked sharer directory. Tracks, per line address, the bitmask of
/// cores whose private L2 holds the line (bounding the core count at 64),
/// plus per-bank port busy-until times for conflict modeling.
#[derive(Debug, Clone, PartialEq)]
pub struct Directory {
    line_shift: u32,
    clusters: usize,
    side: usize,
    /// Line → the cores whose private L2 holds it, one bit per core. A
    /// tracked line always has at least one sharer.
    sharers: HashMap<u64, u64, BuildHasherDefault<LineHasher>>,
    ports: [[u64; DIR_PORTS]; DIR_BANKS],
    pub(crate) stats: DirStats,
}

impl Directory {
    /// A directory for `n_cores` cores with `line_bytes`-byte lines,
    /// pre-sized for `lines_capacity` simultaneously resident lines so the
    /// hot loop never reallocates.
    ///
    /// `n_cores` must be at most 64 (one bitmask word); `Hierarchy::new`
    /// falls back to the broadcast model beyond that.
    pub fn new(n_cores: usize, line_bytes: usize, lines_capacity: usize) -> Directory {
        debug_assert!(n_cores <= 64, "sharer mask is one u64");
        let clusters = n_cores.div_ceil(CLUSTER_CORES);
        let mut side = 1usize;
        while side * side < clusters {
            side += 1;
        }
        Directory {
            line_shift: line_bytes.trailing_zeros(),
            clusters,
            side,
            sharers: HashMap::with_capacity_and_hasher(lines_capacity, Default::default()),
            ports: [[0; DIR_PORTS]; DIR_BANKS],
            stats: DirStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    /// Grid side length (`ceil(sqrt(clusters))`).
    pub fn side(&self) -> usize {
        self.side
    }

    #[inline]
    fn line(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn bank(line: u64) -> usize {
        (line % DIR_BANKS as u64) as usize
    }

    /// Records that `core`'s private L2 now holds the line of `addr`.
    pub fn add_sharer(&mut self, addr: u64, core: usize) {
        let n = self.set_bit(addr, core);
        if n > self.stats.max_sharers {
            self.stats.max_sharers = n;
        }
    }

    /// Replaces every sharer set with the residency of `l2s`, core `i`'s
    /// private L2 being the `i`-th, and returns the largest sharer set.
    /// The counters are left alone: enabling the directory mid-run
    /// (`Hierarchy::set_dir`) records the return value as a fresh
    /// directory's `max_sharers`, and a restore keeps the snapshot's.
    pub fn seed<'a>(&mut self, l2s: impl IntoIterator<Item = &'a Cache>) -> u32 {
        self.sharers.clear();
        let mut max = 0;
        for (core, l2) in l2s.into_iter().enumerate() {
            for addr in l2.resident_line_addrs() {
                max = max.max(self.set_bit(addr, core));
            }
        }
        max
    }

    /// Sets `core`'s bit in the mask of the line of `addr`; returns the
    /// line's sharer count.
    #[inline]
    fn set_bit(&mut self, addr: u64, core: usize) -> u32 {
        let mask = self.sharers.entry(self.line(addr)).or_default();
        *mask |= 1u64 << core;
        mask.count_ones()
    }

    /// Drops `core`'s sharer bit for the line of `addr` (invalidation).
    pub fn remove_sharer(&mut self, addr: u64, core: usize) {
        let line = self.line(addr);
        if let Some(mask) = self.sharers.get_mut(&line) {
            *mask &= !(1u64 << core);
            if *mask == 0 {
                self.sharers.remove(&line);
            }
        }
    }

    /// Drops `core`'s sharer bit because its L2 evicted the line
    /// (inclusive back-invalidation; counted separately).
    pub fn back_invalidate(&mut self, addr: u64, core: usize) {
        self.stats.back_invalidations += 1;
        self.remove_sharer(addr, core);
    }

    /// Current sharer mask for the line of `addr`.
    pub fn sharers(&self, addr: u64) -> u64 {
        self.sharers.get(&self.line(addr)).copied().unwrap_or(0)
    }

    /// Number of tracked lines (sharer entries currently non-empty).
    pub fn tracked_lines(&self) -> usize {
        self.sharers.len()
    }

    /// Pure occupancy probe: whether the bank serving `addr` has a free
    /// port at `now`.
    #[inline]
    pub fn bank_ready(&self, addr: u64, now: u64) -> bool {
        self.bank_free_at(addr) <= now
    }

    /// The cycle the bank serving `addr` has a free port from: the
    /// earliest busy-until time of its ports. Ports only ever get busier,
    /// so a load refused by this bank waits at least until then.
    #[inline]
    pub fn bank_free_at(&self, addr: u64) -> u64 {
        self.ports[Self::bank(self.line(addr))]
            .iter()
            .fold(u64::MAX, |t, &busy_until| t.min(busy_until))
    }

    /// Claims a port of the bank serving `addr` for a lookup issued at
    /// `t_req` (FCFS on the earliest-free port). Returns the queue delay —
    /// zero when a port is free, the wait otherwise.
    #[inline]
    pub fn occupy(&mut self, addr: u64, t_req: u64) -> u64 {
        self.stats.lookups += 1;
        let bank = &mut self.ports[Self::bank(self.line(addr))];
        let mut slot = 0;
        for (i, &busy_until) in bank.iter().enumerate() {
            if busy_until < bank[slot] {
                slot = i;
            }
        }
        let t0 = t_req.max(bank[slot]);
        let extra = t0 - t_req;
        if extra > 0 {
            self.stats.bank_conflicts += 1;
            self.stats.conflict_cycles += extra;
        }
        bank[slot] = t0 + DIR_BANK_BUSY;
        extra
    }

    /// Accounts one filtered full-miss lookup: `probed` mask bits walked,
    /// `avoided` remote cores skipped.
    pub fn count_probes(&mut self, probed: u32, avoided: u32) {
        self.stats.probes_sent += probed as u64;
        self.stats.probes_avoided += avoided as u64;
    }

    /// Extra cycles a cache-to-cache transfer from `from` to `to` pays for
    /// grid hops beyond the first. Zero on quad-or-smaller systems (flat
    /// interconnect) and within a cluster.
    pub fn hop_extra(&mut self, from: usize, to: usize) -> u64 {
        if self.clusters <= QUAD_CLUSTERS {
            return 0;
        }
        let (ca, cb) = (from / CLUSTER_CORES, to / CLUSTER_CORES);
        if ca == cb {
            return 0;
        }
        let d = self.hops(ca, cb);
        let extra = GRID_HOP_LATENCY * (d - 1) as u64;
        self.stats.hop_cycles += extra;
        extra
    }

    /// Manhattan distance between two cluster tiles on the grid.
    pub fn hops(&self, ca: usize, cb: usize) -> usize {
        let (xa, ya) = (ca % self.side, ca / self.side);
        let (xb, yb) = (cb % self.side, cb / self.side);
        xa.abs_diff(xb) + ya.abs_diff(yb)
    }

    /// Quiescence probe: the earliest port-free cycle of any *blocking*
    /// bank (all ports busy past `now`) — the only directory state that
    /// can gate a refused load. Banks with a free port report nothing
    /// (mirrors `MshrFile::blocking_wake`).
    #[inline]
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.ports
            .iter()
            .filter(|bank| bank.iter().all(|&busy_until| busy_until > now))
            .map(|bank| bank.iter().copied().min().unwrap_or(u64::MAX))
            .min()
    }
}

// Only the port busy windows and counters travel. The sharer masks are
// derived state, the union of the private L2s' resident lines: the owning
// hierarchy reseeds them (`Directory::seed`) once its caches are restored.
remap_snap::state!(Directory |d| { d.ports, d.stats });

remap_snap::state!(DirStats |s| {
    s.lookups,
    s.probes_sent,
    s.probes_avoided,
    s.bank_conflicts,
    s.conflict_cycles,
    s.back_invalidations,
    s.max_sharers,
    s.hop_cycles,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_bits_round_trip() {
        let mut d = Directory::new(4, 32, 64);
        assert_eq!(d.sharers(0x100), 0);
        d.add_sharer(0x100, 1);
        d.add_sharer(0x104, 3); // same 32-byte line
        assert_eq!(d.sharers(0x11f), 0b1010);
        assert_eq!(d.stats().max_sharers, 2);
        d.remove_sharer(0x100, 1);
        assert_eq!(d.sharers(0x100), 0b1000);
        d.back_invalidate(0x100, 3);
        assert_eq!(d.sharers(0x100), 0);
        assert_eq!(d.tracked_lines(), 0);
        assert_eq!(d.stats().back_invalidations, 1);
    }

    #[test]
    fn bank_ports_queue_fcfs() {
        let mut d = Directory::new(4, 32, 64);
        // Two lookups fill both ports of line 0's bank; the third queues.
        assert_eq!(d.occupy(0x0, 10), 0);
        assert_eq!(d.occupy(0x4, 10), 0); // same line, second port
        assert!(!d.bank_ready(0x0, 13), "both ports busy until 14");
        assert!(d.bank_ready(0x0, 14), "a port frees at 14");
        assert_eq!(d.occupy(0x0, 12), 2, "queues behind the earliest port");
        let s = d.stats();
        assert_eq!((s.lookups, s.bank_conflicts, s.conflict_cycles), (3, 1, 2));
        // A different bank is unaffected.
        assert!(d.bank_ready(32, 0));
        assert_eq!(d.occupy(32, 0), 0);
    }

    #[test]
    fn next_event_reports_only_blocking_banks() {
        let mut d = Directory::new(4, 32, 64);
        assert_eq!(d.next_event(0), None);
        d.occupy(0x0, 0); // one port busy until 4: not blocking
        assert_eq!(d.next_event(0), None);
        d.occupy(0x0, 2); // second port busy until 6: bank 0 blocks
        assert_eq!(d.next_event(3), Some(4));
        assert_eq!(d.next_event(4), None, "a port freed");
    }

    #[test]
    fn quad_grid_has_no_hop_charges() {
        let mut d = Directory::new(16, 32, 64);
        assert_eq!(d.side(), 2);
        assert_eq!(d.hop_extra(0, 15), 0, "quad clusters stay flat");
        assert_eq!(d.stats().hop_cycles, 0);
    }

    #[test]
    fn grid_hops_charge_beyond_the_first() {
        let mut d = Directory::new(36, 32, 64); // 9 clusters, 3x3
        assert_eq!(d.side(), 3);
        assert_eq!(d.hop_extra(0, 1), 0, "same cluster");
        assert_eq!(d.hop_extra(0, 4), 0, "adjacent tile: first hop is free");
        // Cluster 0 is (0,0); cluster 8 is (2,2): 4 hops, 3 charged.
        assert_eq!(d.hop_extra(0, 35), 3 * GRID_HOP_LATENCY);
        assert_eq!(d.stats().hop_cycles, 3 * GRID_HOP_LATENCY);
    }
}
