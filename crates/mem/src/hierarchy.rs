//! The full multi-core memory hierarchy with MESI coherence.

use crate::cache::{Cache, CacheConfig, CacheStats, Mesi};
use crate::directory::{DirStats, Directory};
use crate::flat::FlatMem;
use crate::memctl::MemCtl;
use crate::mshr::MshrFile;
use crate::prefetch::StrideRpt;
use remap_fault::{Roller, SiteCfg, SiteCounters};

/// Deterministic L1/L2 line-corruption injection for one hierarchy.
///
/// One fault roll per *full-miss line fill* (the data crosses the snoop bus
/// or the DRAM channel — the vulnerable transfer). With line parity the
/// corrupted fill is detected and re-fetched at a scrub latency; without it
/// one bit of the filled word flips in functional memory, which workload
/// oracles observe as silent corruption. Under the non-blocking model the
/// scrub penalty lands on the *MSHR fill*: it extends the outstanding
/// entry's completion cycle, so merged accesses wait out the re-fetch too.
#[derive(Debug, Clone)]
pub struct CacheFault {
    roller: Roller,
    corrupt: SiteCfg,
    parity: bool,
    scrub_cycles: u32,
    counters: SiteCounters,
}

impl CacheFault {
    /// A fault stream under master `seed`. `scrub_cycles` is the extra fill
    /// latency of a detected-and-refetched line.
    pub fn new(seed: u64, corrupt: SiteCfg, parity: bool, scrub_cycles: u32) -> CacheFault {
        CacheFault {
            roller: Roller::new(seed, remap_fault::SITE_CACHE),
            corrupt,
            parity,
            scrub_cycles,
            counters: SiteCounters::default(),
        }
    }

    /// Accounting so far.
    pub fn counters(&self) -> SiteCounters {
        self.counters
    }
}

// The site configuration is rebuilt from the fault plan on restore.
remap_snap::state!(CacheFault |f| { f.roller, f.counters });

/// Sentinel PC for accesses that must not train the stride prefetcher
/// (stores, atomics, and any caller without instruction context).
pub const PC_NONE: u32 = u32::MAX;

/// Cores per memory-controller cluster: each group of four cores shares
/// one controller (matching the paper's four-core tile grouping).
pub const MC_CLUSTER_CORES: usize = 4;

/// Memory-level-parallelism parameters (MSHR files, prefetchers, and the
/// per-cluster memory controller). See DESIGN.md §15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpConfig {
    /// L1D MSHR registers per core (outstanding data-line fills).
    pub l1d_mshrs: usize,
    /// L1I MSHR registers per core.
    pub l1i_mshrs: usize,
    /// Bounded in-flight DRAM requests per memory controller.
    pub mc_slots: usize,
    /// Line-interleaved DRAM banks per controller.
    pub mc_banks: usize,
    /// Bank-busy window: the conflict penalty a same-bank successor pays.
    pub mc_bank_busy: u32,
    /// Reference-prediction-table rows of the L1D stride prefetcher.
    pub rpt_rows: usize,
    /// Lines fetched ahead per confident stride prediction.
    pub prefetch_degree: u8,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            l1d_mshrs: 4,
            l1i_mshrs: 2,
            mc_slots: 8,
            mc_banks: 8,
            mc_bank_busy: 20,
            rpt_rows: 16,
            prefetch_degree: 4,
        }
    }
}

/// Memory-level-parallelism counters, surfaced in `RunReport`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MlpStats {
    /// Cache hits served while at least one miss was outstanding.
    pub mshr_hits_under_miss: u64,
    /// Demand accesses merged into an already-outstanding fill of the
    /// same line (secondary misses and hits on in-flight lines).
    pub mshr_merges: u64,
    /// Prefetch fills issued (L1D stride + L1I next-line).
    pub prefetch_issued: u64,
    /// Prefetches consumed by a demand after the fill landed (latency
    /// fully hidden).
    pub prefetch_useful: u64,
    /// Prefetches consumed by a demand while still in flight (latency
    /// partially hidden).
    pub prefetch_late: u64,
    /// High-water mark of simultaneously busy memory-controller slots.
    pub mc_queue_peak: u64,
}

impl MlpStats {
    /// Fraction of issued prefetches consumed by a demand (useful + late).
    /// NaN when none were issued — callers that require prefetch activity
    /// check for that explicitly.
    pub fn prefetch_accuracy(&self) -> f64 {
        (self.prefetch_useful + self.prefetch_late) as f64 / self.prefetch_issued as f64
    }
}

/// Timing-only non-blocking-cache state: per-core MSHR files, per-core
/// stride prefetcher tables, and per-cluster memory controllers. The
/// functional MESI walk never consults this — it only shapes latencies.
#[derive(Debug, Clone)]
struct Mlp {
    files_d: Vec<MshrFile>,
    files_i: Vec<MshrFile>,
    rpts: Vec<StrideRpt>,
    mcs: Vec<MemCtl>,
    stats: MlpStats,
}

impl Mlp {
    fn new(n_cores: usize, cfg: &HierarchyConfig) -> Mlp {
        let m = &cfg.mlp;
        Mlp {
            files_d: (0..n_cores).map(|_| MshrFile::new(m.l1d_mshrs)).collect(),
            files_i: (0..n_cores).map(|_| MshrFile::new(m.l1i_mshrs)).collect(),
            rpts: (0..n_cores).map(|_| StrideRpt::new(m.rpt_rows)).collect(),
            mcs: (0..n_cores.div_ceil(MC_CLUSTER_CORES))
                .map(|_| {
                    MemCtl::new(
                        m.mc_slots,
                        m.mc_banks,
                        m.mc_bank_busy,
                        cfg.l1d.line_bytes as u64,
                    )
                })
                .collect(),
            stats: MlpStats::default(),
        }
    }
}

remap_snap::state!(Mlp |m| {
    exact m.files_d,
    fixed m.files_i,
    fixed m.rpts,
    exact m.mcs,
    m.stats,
});

remap_snap::state!(MlpStats |s| {
    s.mshr_hits_under_miss,
    s.mshr_merges,
    s.prefetch_issued,
    s.prefetch_useful,
    s.prefetch_late,
    s.mc_queue_peak,
});

/// Latency and geometry parameters for the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
    /// Main-memory access latency in core cycles (100 ns @ 2 GHz = 200).
    pub dram_latency: u32,
    /// Cache-to-cache transfer latency over the snoop bus.
    pub c2c_latency: u32,
    /// Invalidate/upgrade bus transaction latency.
    pub upgrade_latency: u32,
    /// Non-blocking-cache (MSHR/prefetch/memory-controller) parameters.
    pub mlp: MlpConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1(),
            l1d: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            dram_latency: 200,
            c2c_latency: 20,
            upgrade_latency: 10,
            mlp: MlpConfig::default(),
        }
    }
}

/// Snoop-bus and memory-controller activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BusStats {
    /// Upgrade (invalidate) transactions issued by stores to Shared lines.
    pub upgrades: u64,
    /// Lines supplied by a remote cache (dirty or clean).
    pub c2c_transfers: u64,
    /// Main-memory fetches.
    pub dram_accesses: u64,
    /// Broadcast snoop probes issued.
    pub snoops: u64,
}

#[derive(Debug, Clone)]
struct CorePrivate {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

/// The multi-core memory hierarchy.
///
/// Owns the flat backing store plus per-core private caches, and applies the
/// MESI protocol over an idealized atomic snoop bus. All methods return the
/// access latency in *core cycles*; the core model adds it to the requesting
/// instruction's completion time.
///
/// **Non-blocking misses.** By default the hierarchy models memory-level
/// parallelism: each core has small L1D/L1I MSHR files, demand misses
/// return a completion cycle scheduled through a per-cluster memory
/// controller (bounded in-flight requests, bank conflicts), same-line
/// accesses merge with the outstanding fill, and stride (L1D) / next-line
/// (L1I) prefetchers run ahead of confident miss streams. All of this is
/// *timing-only*: tags, MESI state, and functional data still update
/// immediately at request time, so architectural values are identical with
/// the model on or off ([`Hierarchy::set_mlp`]`(false)` recovers the old
/// blocking-latency model bit-for-bit).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    cores: Vec<CorePrivate>,
    mem: FlatMem,
    bus: BusStats,
    fault: Option<Box<CacheFault>>,
    mlp: Option<Box<Mlp>>,
    dir: Option<Box<Directory>>,
}

remap_snap::state!(BusStats |s| { s.upgrades, s.c2c_transfers, s.dram_accesses, s.snoops });

remap_snap::state!(CorePrivate |c| { c.l1i, c.l1d, c.l2 });

// Every piece of dynamic hierarchy state: per-core tag arrays, the
// functional backing store, bus counters, and — when present — the
// cache-fault stream, MLP machinery, and coherence directory. Presence is
// configuration: restore never silently rebuilds a model from scratch
// (`set_mlp`/`set_dir` reseed state and would not be bit-identical), and
// the fault stream must already be installed from the snapshot's plan.
remap_snap::state!(Hierarchy |h| {
    exact h.cores,
    h.mem,
    h.bus,
    present h.fault,
    present h.mlp,
    present h.dir,
});

/// Where a full-miss line fill came from (the timing source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillSrc {
    C2c,
    Dram,
}

impl Hierarchy {
    /// Creates a hierarchy for `n_cores` cores with empty caches and memory.
    /// MLP modeling is on, and so is the directory up to 64 cores.
    pub fn new(n_cores: usize, cfg: HierarchyConfig) -> Hierarchy {
        let cores = (0..n_cores)
            .map(|_| CorePrivate {
                l1i: Cache::new(cfg.l1i),
                l1d: Cache::new(cfg.l1d),
                l2: Cache::new(cfg.l2),
            })
            .collect();
        Hierarchy {
            mlp: Some(Box::new(Mlp::new(n_cores, &cfg))),
            dir: (n_cores <= 64).then(|| Box::new(fresh_dir(n_cores, &cfg))),
            cfg,
            cores,
            mem: FlatMem::new(),
            bus: BusStats::default(),
            fault: None,
        }
    }

    /// Enables or disables MLP modeling.
    /// Enabling rebuilds the MSHR/prefetch/controller state from scratch
    /// (counters reset); disabling restores the blocking-latency model.
    pub fn set_mlp(&mut self, enabled: bool) {
        self.mlp = enabled.then(|| Box::new(Mlp::new(self.cores.len(), &self.cfg)));
    }

    /// Enables or disables the coherence directory. Enabling reseeds the sharer sets from the lines
    /// currently resident in every private L2 (so mid-run activation is
    /// functionally exact); disabling restores the broadcast snoop walk.
    /// Core counts above 64 always use the broadcast model.
    pub fn set_dir(&mut self, enabled: bool) {
        self.dir = (enabled && self.cores.len() <= 64).then(|| {
            let mut d = Box::new(fresh_dir(self.cores.len(), &self.cfg));
            for (i, c) in self.cores.iter().enumerate() {
                for line in c.l2.resident_line_addrs() {
                    d.add_sharer(line, i);
                }
            }
            d
        });
    }

    /// Whether the directory model is active.
    pub fn dir_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Directory counters so far (all zeros when the model is off).
    pub fn dir_stats(&self) -> DirStats {
        self.dir.as_deref().map(|d| d.stats()).unwrap_or_default()
    }

    /// Whether MLP modeling is active.
    pub fn mlp_enabled(&self) -> bool {
        self.mlp.is_some()
    }

    /// MLP counters so far (all zeros when the model is off).
    pub fn mlp_stats(&self) -> MlpStats {
        match self.mlp.as_deref() {
            None => MlpStats::default(),
            Some(m) => {
                let mut s = m.stats;
                s.mc_queue_peak = m
                    .mcs
                    .iter()
                    .map(|mc| mc.queue_peak() as u64)
                    .max()
                    .unwrap_or(0);
                s
            }
        }
    }

    /// Installs (or clears) the line-corruption fault stream.
    pub fn set_fault(&mut self, fault: Option<CacheFault>) {
        self.fault = fault.map(Box::new);
    }

    /// Fault accounting so far (all zeros when no stream is installed).
    pub fn fault_counters(&self) -> SiteCounters {
        self.fault.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// Number of cores this hierarchy serves.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Shared functional memory (for workload setup and result inspection).
    pub fn mem(&self) -> &FlatMem {
        &self.mem
    }

    /// Mutable access to functional memory.
    pub fn mem_mut(&mut self) -> &mut FlatMem {
        &mut self.mem
    }

    /// Bus/DRAM counters.
    pub fn bus_stats(&self) -> &BusStats {
        &self.bus
    }

    /// L1I/L1D/L2 counters for one core.
    pub fn cache_stats(&self, core: usize) -> (CacheStats, CacheStats, CacheStats) {
        let c = &self.cores[core];
        (*c.l1i.stats(), *c.l1d.stats(), *c.l2.stats())
    }

    /// Non-mutating (L1D, L2) MESI states of the line containing `addr` in
    /// one core's private caches (state-equivalence checks in tests).
    pub fn probe_states(&self, core: usize, addr: u64) -> (Mesi, Mesi) {
        let c = &self.cores[core];
        (c.l1d.probe(addr), c.l2.probe(addr))
    }

    /// Quiescence probe: the earliest cycle a *blocking* MSHR file drains
    /// or a fully busy directory bank frees a port.
    ///
    /// MSHR entries and directory ports free purely as a function of time,
    /// so the skip engine never needs to tick the hierarchy; the only
    /// hierarchy state that can gate a core's progress is a completely
    /// in-flight L1D file or an all-ports-busy directory bank (the core's
    /// next load is refused by [`load_ready`](Self::load_ready) until the
    /// earliest fill lands or a port frees). Files and banks with a free
    /// register/port — and the blocking broadcast model entirely — report
    /// nothing. Extra wake points are parity-safe; missing ones are not,
    /// so this errs conservative.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mshr = self
            .mlp
            .as_deref()
            .and_then(|m| m.files_d.iter().filter_map(|f| f.blocking_wake(now)).min());
        let dir = self.dir.as_deref().and_then(|d| d.next_event(now));
        match (mshr, dir) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pure issue gate for demand loads: false only when the access would
    /// full-miss and either the directory bank serving the line has no
    /// free port or the core's L1D MSHR file can neither merge it nor
    /// spare a register. The core holds the load and re-probes; in the
    /// blocking broadcast model this is always true.
    pub fn load_ready(&self, core: usize, addr: u64, now: u64) -> bool {
        if self.mlp.is_none() && self.dir.is_none() {
            return true;
        }
        let c = &self.cores[core];
        if c.l1d.probe(addr) != Mesi::Invalid || c.l2.probe(addr) != Mesi::Invalid {
            return true;
        }
        if let Some(d) = self.dir.as_deref() {
            if !d.bank_ready(addr, now) {
                return false;
            }
        }
        let Some(m) = self.mlp.as_deref() else {
            return true;
        };
        m.files_d[core].can_accept(c.l1d.line_addr(addr), now)
    }

    /// Whether a refused load is held by directory-bank occupancy rather
    /// than a full MSHR file (deadlock-report attribution).
    pub fn load_blocked_by_dir(&self, core: usize, addr: u64, now: u64) -> bool {
        let Some(d) = self.dir.as_deref() else {
            return false;
        };
        let c = &self.cores[core];
        c.l1d.probe(addr) == Mesi::Invalid
            && c.l2.probe(addr) == Mesi::Invalid
            && !d.bank_ready(addr, now)
    }

    /// Wake point paired with [`load_ready`](Self::load_ready): the
    /// earliest cycle the core's L1D MSHR file frees a register or a
    /// blocking directory bank frees a port. The MSHR half is exact (the
    /// file only mutates during the owning core's own accesses and frees
    /// purely by time); the directory half may undershoot when another
    /// core claims the freed port first, which is safe — the refused load
    /// just re-probes.
    pub fn load_wake(&self, core: usize, now: u64) -> u64 {
        let mshr = self
            .mlp
            .as_deref()
            .and_then(|m| m.files_d[core].min_done(now))
            .unwrap_or(u64::MAX);
        let dir = self
            .dir
            .as_deref()
            .and_then(|d| d.next_event(now))
            .unwrap_or(u64::MAX);
        mshr.min(dir)
    }

    /// Instruction-fetch timing for the line containing `addr`.
    ///
    /// Instruction lines are read-only, so no coherence actions are needed;
    /// misses fill both L2 and L1I in Shared state. The L1I-hit fast lane
    /// answers without touching anything beyond the L1I tag array (plus, in
    /// the MLP model, a clamp against an in-flight fill of the same line).
    pub fn inst_fetch(&mut self, core: usize, addr: u64, now: u64) -> u32 {
        let lat = self.cfg.l1i.hit_latency;
        if self.cores[core].l1i.access(addr).is_some() {
            let Some(m) = self.mlp.as_deref_mut() else {
                return lat;
            };
            let line = self.cores[core].l1i.line_addr(addr);
            return clamp_hit(&m.files_i[core], &mut m.stats, line, lat, now);
        }
        self.inst_fetch_miss(core, addr, lat, now)
    }

    /// Instruction-fetch miss path: L2 and, if needed, DRAM (through the
    /// memory controller with a next-line prefetch under the MLP model).
    fn inst_fetch_miss(&mut self, core: usize, addr: u64, mut lat: u32, now: u64) -> u32 {
        lat += self.cfg.l2.hit_latency;
        if self.cores[core].l2.access(addr).is_some() {
            self.cores[core].l1i.insert(addr, Mesi::Shared);
            return lat;
        }
        self.bus.dram_accesses += 1;
        self.insert_l2_inclusive(core, addr, Mesi::Shared);
        self.cores[core].l1i.insert(addr, Mesi::Shared);
        let dram = self.cfg.dram_latency;
        let line_bytes = self.cfg.l1i.line_bytes as u64;
        let Some(m) = self.mlp.as_deref_mut() else {
            return lat + dram;
        };
        let line = addr & !(line_bytes - 1);
        let pipe_done = now + lat as u64;
        let file = &mut m.files_i[core];
        let mc = &mut m.mcs[core / MC_CLUSTER_CORES];
        let total = if let Some(mg) = file.merge(line, now, pipe_done, 0) {
            m.stats.mshr_merges += 1;
            if mg.was_prefetch {
                if mg.done_at <= pipe_done {
                    m.stats.prefetch_useful += 1;
                } else {
                    m.stats.prefetch_late += 1;
                }
            }
            (mg.done_at - now) as u32
        } else {
            let done = mc.request(pipe_done, line, dram);
            file.alloc(line, done, now, false);
            (done - now) as u32
        };
        // Next-line prefetch: sequential fetch is the common case, so run
        // one line ahead whenever a register and a controller slot are free.
        let next = line + line_bytes;
        if self.cores[core].l1i.probe(next) == Mesi::Invalid
            && !file.tracks(next, now)
            && file.has_free(now)
            && mc.slot_available(pipe_done)
        {
            let done = mc.request(pipe_done, next, dram);
            file.alloc(next, done, now, true);
            m.stats.prefetch_issued += 1;
        }
        total
    }

    /// Data load: returns the `size`-byte little-endian value (1, 4, or 8
    /// bytes) and the access latency. `pc` identifies the load instruction
    /// for the stride prefetcher ([`PC_NONE`] to opt out); `now` is the
    /// current cycle, the reference point for all MLP timing.
    pub fn load(&mut self, core: usize, addr: u64, size: u8, pc: u32, now: u64) -> (u64, u32) {
        let lat = self.data_access(core, addr, false, pc, now);
        let v = match size {
            1 => self.mem.read_u8(addr) as u64,
            4 => self.mem.read_u32(addr) as u64,
            8 => self.mem.read_u64(addr),
            s => panic!("unsupported load size {s}"),
        };
        (v, lat)
    }

    /// Data store of the `size` low bytes of `value`; returns the latency.
    pub fn store(&mut self, core: usize, addr: u64, size: u8, value: u64, now: u64) -> u32 {
        let lat = self.data_access(core, addr, true, PC_NONE, now);
        match size {
            1 => self.mem.write_u8(addr, value as u8),
            4 => self.mem.write_u32(addr, value as u32),
            8 => self.mem.write_u64(addr, value),
            s => panic!("unsupported store size {s}"),
        }
        lat
    }

    /// Atomic 32-bit fetch-and-add; returns the previous value and latency.
    pub fn amo_add(&mut self, core: usize, addr: u64, delta: i64, now: u64) -> (i64, u32) {
        let lat = self.data_access(core, addr, true, PC_NONE, now);
        let old = self.mem.read_u32(addr) as i32;
        self.mem
            .write_u32(addr, (old as i64).wrapping_add(delta) as u32);
        (old as i64, lat)
    }

    /// Timing-only data access used by both loads and stores.
    ///
    /// The **L1-hit fast lane**: a load hitting the private L1D in any
    /// valid state, or a store hitting it in Modified, is fully answered
    /// here — no MESI state transition, no snoop, no L2 touch. A store
    /// hitting Exclusive performs the silent local E→M upgrade (still no
    /// bus traffic). Everything else — misses, stores to Shared lines
    /// (which must broadcast an upgrade), and cross-core transfers — falls
    /// back to the full protocol in [`data_access_slow`](Self::data_access_slow).
    /// Under the MLP model a hit's latency is clamped against an in-flight
    /// fill of the same line (secondary-miss merging).
    fn data_access(&mut self, core: usize, addr: u64, write: bool, pc: u32, now: u64) -> u32 {
        let lat = self.cfg.l1d.hit_latency;
        let hit = match self.cores[core].l1d.access(addr) {
            Some(Mesi::Modified) => Some(lat),
            Some(Mesi::Exclusive | Mesi::Shared) if !write => Some(lat),
            Some(Mesi::Exclusive) => {
                // Silent local upgrade: no bus transaction needed.
                self.cores[core].l1d.set_state(addr, Mesi::Modified);
                self.cores[core].l2.set_state(addr, Mesi::Modified);
                Some(lat)
            }
            Some(Mesi::Shared) => {
                // Store to a Shared line: bus upgrade, invalidate remotes.
                // The upgrade consults the directory, so it pays any
                // bank-port queue delay (zero uncontended).
                self.bus.upgrades += 1;
                let extra = match self.dir.as_deref_mut() {
                    Some(d) => d.occupy(addr, now + lat as u64) as u32,
                    None => 0,
                };
                self.invalidate_remotes(core, addr);
                self.cores[core].l1d.set_state(addr, Mesi::Modified);
                self.cores[core].l2.set_state(addr, Mesi::Modified);
                Some(lat + extra + self.cfg.upgrade_latency)
            }
            Some(Mesi::Invalid) | None => None,
        };
        match hit {
            Some(l) => self.data_hit_latency(core, addr, l, now),
            None => self.data_access_slow(core, addr, write, lat, pc, now),
        }
    }

    /// MLP clamp for L1D/L2 hits: a hit on a line whose fill is still in
    /// flight waits for the fill (a merge); any other hit while misses are
    /// outstanding is the non-blocking win itself (hit under miss).
    #[inline]
    fn data_hit_latency(&mut self, core: usize, addr: u64, lat: u32, now: u64) -> u32 {
        let Some(m) = self.mlp.as_deref_mut() else {
            return lat;
        };
        let line = self.cores[core].l1d.line_addr(addr);
        clamp_hit(&m.files_d[core], &mut m.stats, line, lat, now)
    }

    /// Full-protocol path on an L1D miss: private L2, then snoop/DRAM.
    /// Outlined so the fast lane above stays small enough to inline into
    /// the cores' load/store ports.
    fn data_access_slow(
        &mut self,
        core: usize,
        addr: u64,
        write: bool,
        mut lat: u32,
        pc: u32,
        now: u64,
    ) -> u32 {
        // L1D miss: consult the private L2.
        lat += self.cfg.l2.hit_latency;
        let l2_state = self.cores[core].l2.access(addr);
        let (fill, src, hop) = match l2_state {
            Some(st @ (Mesi::Modified | Mesi::Exclusive)) => {
                let fill = if write {
                    self.cores[core].l2.set_state(addr, Mesi::Modified);
                    Mesi::Modified
                } else {
                    st
                };
                (fill, None, 0)
            }
            Some(Mesi::Shared) => {
                let fill = if write {
                    lat += self.cfg.upgrade_latency;
                    self.bus.upgrades += 1;
                    if let Some(d) = self.dir.as_deref_mut() {
                        lat += d.occupy(addr, now + lat as u64) as u32;
                    }
                    self.invalidate_remotes(core, addr);
                    self.cores[core].l2.set_state(addr, Mesi::Modified);
                    Mesi::Modified
                } else {
                    Mesi::Shared
                };
                (fill, None, 0)
            }
            Some(Mesi::Invalid) | None => {
                // Full miss: consult the directory (or broadcast-snoop the
                // other cores), then memory if needed.
                self.bus.snoops += 1;
                let (remote, hop) = match self.dir.take() {
                    Some(mut dir) => {
                        lat += dir.occupy(addr, now + lat as u64) as u32;
                        let (r, supplier) = self.snoop_sharers(&mut dir, core, addr, write);
                        let hop = if r == SnoopResult::Nobody {
                            0
                        } else {
                            dir.hop_extra(core, supplier) as u32
                        };
                        self.dir = Some(dir);
                        (r, hop)
                    }
                    None => (self.snoop_remotes(core, addr, write), 0),
                };
                let (fill, src) = match remote {
                    SnoopResult::SuppliedDirty | SnoopResult::SuppliedClean => {
                        self.bus.c2c_transfers += 1;
                        let fill = if write { Mesi::Modified } else { Mesi::Shared };
                        (fill, FillSrc::C2c)
                    }
                    SnoopResult::Nobody => {
                        self.bus.dram_accesses += 1;
                        let fill = if write {
                            Mesi::Modified
                        } else {
                            Mesi::Exclusive
                        };
                        (fill, FillSrc::Dram)
                    }
                };
                self.insert_l2_inclusive(core, addr, fill);
                (fill, Some(src), hop)
            }
        };
        // One fault roll per full-miss fill: the line just crossed the
        // bus. Parity scrubs and re-fetches (the penalty extends the fill);
        // otherwise one bit of the filled word flips in functional memory.
        let mut scrub = 0u32;
        if src.is_some() {
            if let Some(f) = self.fault.as_deref_mut() {
                let d = f.roller.draw();
                if d.fires(&f.corrupt) {
                    f.counters.injected += 1;
                    if f.parity {
                        f.counters.detected += 1;
                        f.counters.recovered += 1;
                        scrub = f.scrub_cycles;
                    } else {
                        f.counters.silent += 1;
                        let waddr = addr & !7;
                        let word = self.mem.read_u64(waddr) ^ (1u64 << d.pick(64));
                        self.mem.write_u64(waddr, word);
                    }
                }
            }
        }
        // Fill L1D maintaining inclusion bookkeeping on eviction.
        if let Some((evicted, st)) = self.cores[core].l1d.insert(addr, fill) {
            if st == Mesi::Modified {
                // Dirty L1 eviction lands in the (inclusive) L2.
                self.cores[core].l2.set_state(evicted, Mesi::Modified);
            }
        }
        match src {
            // L2 hit: no fill in flight to start, but still clamp against
            // one already outstanding for this line (and count the hit).
            None => self.data_hit_latency(core, addr, lat, now),
            Some(src) => {
                let total = match self.mlp.as_deref_mut() {
                    None => {
                        // Blocking model: charge the full round trip inline.
                        let src_lat = match src {
                            FillSrc::C2c => self.cfg.c2c_latency + hop,
                            FillSrc::Dram => self.cfg.dram_latency,
                        };
                        lat + src_lat + scrub
                    }
                    Some(m) => {
                        let line = addr & !(self.cfg.l1d.line_bytes as u64 - 1);
                        m.demand_fill(core, line, now, lat, src, hop, scrub, &self.cfg)
                    }
                };
                if pc != PC_NONE {
                    self.issue_data_prefetches(core, addr, pc, now, lat);
                }
                total
            }
        }
    }

    /// Trains the core's reference prediction table on a demand full miss
    /// and issues up to `prefetch_degree` line fills along a confident
    /// stride — each only when the target line is absent, untracked, an
    /// MSHR register is truly free, and the memory controller has a slot
    /// (prefetches never queue behind or displace demand traffic).
    fn issue_data_prefetches(&mut self, core: usize, addr: u64, pc: u32, now: u64, pipe_lat: u32) {
        let line_bytes = self.cfg.l1d.line_bytes as u64;
        let degree = self.cfg.mlp.prefetch_degree as i64;
        let dram = self.cfg.dram_latency;
        let Some(m) = self.mlp.as_deref_mut() else {
            return;
        };
        let Some(stride) = m.rpts[core].train(pc, addr) else {
            return;
        };
        let demand_line = addr & !(line_bytes - 1);
        let t_req = now + pipe_lat as u64;
        let l1d = &self.cores[core].l1d;
        let file = &mut m.files_d[core];
        let mc = &mut m.mcs[core / MC_CLUSTER_CORES];
        for k in 1..=degree {
            let target = addr.wrapping_add(stride.wrapping_mul(k) as u64);
            let tline = target & !(line_bytes - 1);
            if tline == demand_line || l1d.probe(tline) != Mesi::Invalid || file.tracks(tline, now)
            {
                continue;
            }
            if !file.has_free(now) || !mc.slot_available(t_req) {
                break;
            }
            let done = mc.request(t_req, tline, dram);
            file.alloc(tline, done, now, true);
            m.stats.prefetch_issued += 1;
        }
    }

    /// Removes the line from every other core (store path). With the
    /// directory on, only the cores in the sharer mask are probed; the
    /// broadcast walk touches everyone. Functionally identical: a clear
    /// mask bit means the line is absent from that core's L2 and (by
    /// inclusion) its L1D, so skipping it changes nothing.
    fn invalidate_remotes(&mut self, core: usize, addr: u64) {
        let Some(mut dir) = self.dir.take() else {
            for (i, c) in self.cores.iter_mut().enumerate() {
                if i != core {
                    c.l1d.invalidate(addr);
                    c.l2.invalidate(addr);
                }
            }
            return;
        };
        let mut mask = dir.sharers(addr) & !(1u64 << core);
        let probed = mask.count_ones();
        dir.count_probes(probed, self.cores.len() as u32 - 1 - probed);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.cores[i].l1d.invalidate(addr);
            self.cores[i].l2.invalidate(addr);
            dir.remove_sharer(addr, i);
        }
        self.dir = Some(dir);
    }

    /// Read/write snoop: downgrades or invalidates remote copies and reports
    /// whether any remote cache supplied the line.
    fn snoop_remotes(&mut self, core: usize, addr: u64, write: bool) -> SnoopResult {
        let mut result = SnoopResult::Nobody;
        for (i, c) in self.cores.iter_mut().enumerate() {
            if i == core {
                continue;
            }
            let st = c.l2.probe(addr).max_with(c.l1d.probe(addr));
            match st {
                Mesi::Modified => {
                    // Owner writes back (data is already functionally in
                    // FlatMem); downgrade or invalidate. MESI guarantees a
                    // Modified copy is the only copy, so the scan can stop:
                    // every remaining core holds the line Invalid, and
                    // probes/invalidates of absent lines are no-ops.
                    if write {
                        c.l1d.invalidate(addr);
                        c.l2.invalidate(addr);
                    } else {
                        c.l1d.set_state(addr, Mesi::Shared);
                        c.l2.set_state(addr, Mesi::Shared);
                    }
                    result = SnoopResult::SuppliedDirty;
                    break;
                }
                Mesi::Exclusive | Mesi::Shared => {
                    if write {
                        c.l1d.invalidate(addr);
                        c.l2.invalidate(addr);
                    } else {
                        c.l1d.set_state(addr, Mesi::Shared);
                        c.l2.set_state(addr, Mesi::Shared);
                    }
                    if result == SnoopResult::Nobody {
                        result = SnoopResult::SuppliedClean;
                    }
                }
                Mesi::Invalid => {}
            }
        }
        result
    }

    /// Directory-routed snoop: identical protocol actions to
    /// [`snoop_remotes`](Self::snoop_remotes) but walking only the sharer
    /// mask. Returns the result plus the supplier core for grid-hop
    /// charging (the dirty owner, or the nearest clean sharer by hops;
    /// `core` itself when nobody supplied).
    fn snoop_sharers(
        &mut self,
        dir: &mut Directory,
        core: usize,
        addr: u64,
        write: bool,
    ) -> (SnoopResult, usize) {
        let mut result = SnoopResult::Nobody;
        let mut supplier = core;
        let mut best_hops = usize::MAX;
        let mut mask = dir.sharers(addr) & !(1u64 << core);
        let probed = mask.count_ones();
        dir.count_probes(probed, self.cores.len() as u32 - 1 - probed);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let c = &mut self.cores[i];
            let st = c.l2.probe(addr).max_with(c.l1d.probe(addr));
            match st {
                Mesi::Modified => {
                    if write {
                        c.l1d.invalidate(addr);
                        c.l2.invalidate(addr);
                        dir.remove_sharer(addr, i);
                    } else {
                        c.l1d.set_state(addr, Mesi::Shared);
                        c.l2.set_state(addr, Mesi::Shared);
                    }
                    result = SnoopResult::SuppliedDirty;
                    supplier = i;
                    break;
                }
                Mesi::Exclusive | Mesi::Shared => {
                    if write {
                        c.l1d.invalidate(addr);
                        c.l2.invalidate(addr);
                        dir.remove_sharer(addr, i);
                    } else {
                        c.l1d.set_state(addr, Mesi::Shared);
                        c.l2.set_state(addr, Mesi::Shared);
                    }
                    if result == SnoopResult::Nobody {
                        result = SnoopResult::SuppliedClean;
                    }
                    let h = dir.hops(core / MC_CLUSTER_CORES, i / MC_CLUSTER_CORES);
                    if h < best_hops {
                        best_hops = h;
                        supplier = i;
                    }
                }
                Mesi::Invalid => {}
            }
        }
        (result, supplier)
    }

    /// Inserts into the L2, invalidating the L1 copy of any evicted line to
    /// preserve inclusion. The directory tracks exactly this residency: the
    /// inserted line gains the core's sharer bit, and an evicted line is
    /// back-invalidated out of the sharer set.
    fn insert_l2_inclusive(&mut self, core: usize, addr: u64, state: Mesi) {
        if let Some(d) = self.dir.as_deref_mut() {
            d.add_sharer(addr, core);
        }
        if let Some((evicted, _)) = self.cores[core].l2.insert(addr, state) {
            self.cores[core].l1d.invalidate(evicted);
            self.cores[core].l1i.invalidate(evicted);
            if let Some(d) = self.dir.as_deref_mut() {
                d.back_invalidate(evicted, core);
            }
        }
    }

    /// Directory inclusion invariant check (used by property tests): every
    /// sharer bit must name a core whose private L2 actually holds the
    /// line, and every resident L2 line must have its owner's bit set —
    /// i.e. the directory is exactly the union of the L2 tag arrays.
    /// `Ok(())` when the directory is disabled.
    pub fn check_directory_residency(&self) -> Result<(), String> {
        let Some(dir) = self.dir.as_deref() else {
            return Ok(());
        };
        let mut want: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (i, c) in self.cores.iter().enumerate() {
            for line in c.l2.resident_line_addrs() {
                *want.entry(line).or_insert(0) |= 1u64 << i;
            }
        }
        if want.len() != dir.tracked_lines() {
            return Err(format!(
                "directory tracks {} lines but the L2s hold {}",
                dir.tracked_lines(),
                want.len()
            ));
        }
        for (line, mask) in want {
            let got = dir.sharers(line);
            if got != mask {
                return Err(format!(
                    "line {line:#x}: directory mask {got:#b} != L2 residency {mask:#b}"
                ));
            }
        }
        Ok(())
    }

    /// Global MESI invariant check (used by property tests): for every line
    /// currently cached anywhere, at most one core holds it Modified or
    /// Exclusive, and an M/E copy excludes all other copies.
    pub fn check_mesi_invariants(&self, addrs: &[u64]) -> Result<(), String> {
        for &addr in addrs {
            let mut owners = 0;
            let mut sharers = 0;
            for (i, c) in self.cores.iter().enumerate() {
                let st = c.l2.probe(addr).max_with(c.l1d.probe(addr));
                match st {
                    Mesi::Modified | Mesi::Exclusive => owners += 1,
                    Mesi::Shared => sharers += 1,
                    Mesi::Invalid => {}
                }
                // L1 must be no more permissive than what coherence allows:
                // if L1 has the line, the inclusive L2 must too.
                if c.l1d.probe(addr) != Mesi::Invalid && c.l2.probe(addr) == Mesi::Invalid {
                    return Err(format!("core {i}: L1 holds {addr:#x} but L2 does not"));
                }
            }
            if owners > 1 {
                return Err(format!("{owners} owners for line {addr:#x}"));
            }
            if owners == 1 && sharers > 0 {
                return Err(format!("owner plus {sharers} sharers for line {addr:#x}"));
            }
        }
        Ok(())
    }
}

impl Mlp {
    /// Schedules a demand full-miss fill of `line`: merge with an
    /// outstanding or ready fill when one exists (consuming prefetches and
    /// classifying them useful/late), otherwise route through the cluster's
    /// memory controller and allocate an MSHR register. `pipe_lat` is the
    /// L1+L2 pipe traversal already accounted; `scrub` extends the fill on
    /// a detected-and-refetched corruption. Returns the total latency.
    #[allow(clippy::too_many_arguments)]
    fn demand_fill(
        &mut self,
        core: usize,
        line: u64,
        now: u64,
        pipe_lat: u32,
        src: FillSrc,
        hop: u32,
        scrub: u32,
        cfg: &HierarchyConfig,
    ) -> u32 {
        let pipe_done = now + pipe_lat as u64;
        if let Some(mg) = self.files_d[core].merge(line, now, pipe_done, scrub) {
            self.stats.mshr_merges += 1;
            if mg.was_prefetch {
                if mg.done_at <= pipe_done + scrub as u64 {
                    self.stats.prefetch_useful += 1;
                } else {
                    self.stats.prefetch_late += 1;
                }
            }
            return (mg.done_at - now) as u32;
        }
        let done = match src {
            FillSrc::C2c => pipe_done + (cfg.c2c_latency + hop) as u64,
            FillSrc::Dram => {
                self.mcs[core / MC_CLUSTER_CORES].request(pipe_done, line, cfg.dram_latency)
            }
        } + scrub as u64;
        // A full file falls back to the inline (blocking) charge — same
        // latency, just no merge target for successors. Demand loads are
        // normally gated by `load_ready` before reaching here.
        self.files_d[core].alloc(line, done, now, false);
        (done - now) as u32
    }
}

/// A directory pre-sized so the sharer map never reallocates: residency
/// is bounded by the sum of all private-L2 capacities (entries vanish
/// when their last sharer bit clears), so `n_cores × l2_lines` keys is a
/// hard ceiling on the live length.
fn fresh_dir(n_cores: usize, cfg: &HierarchyConfig) -> Directory {
    let l2_lines = cfg.l2.sets() * cfg.l2.ways;
    Directory::new(n_cores, cfg.l2.line_bytes, n_cores * l2_lines)
}

/// Hit-path MLP accounting shared by L1D, L2, and L1I hits.
#[inline]
fn clamp_hit(file: &MshrFile, stats: &mut MlpStats, line: u64, lat: u32, now: u64) -> u32 {
    if !file.any_in_flight(now) {
        return lat;
    }
    if let Some(done) = file.in_flight_done(line, now) {
        // Hit on a line whose fill is still in flight: wait for the fill.
        stats.mshr_merges += 1;
        ((done - now) as u32).max(lat)
    } else {
        stats.mshr_hits_under_miss += 1;
        lat
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnoopResult {
    Nobody,
    SuppliedClean,
    SuppliedDirty,
}

trait MesiMax {
    fn max_with(self, other: Mesi) -> Mesi;
}

impl MesiMax for Mesi {
    /// Most-permissive of two states (M > E > S > I).
    fn max_with(self, other: Mesi) -> Mesi {
        fn rank(m: Mesi) -> u8 {
            match m {
                Mesi::Modified => 3,
                Mesi::Exclusive => 2,
                Mesi::Shared => 1,
                Mesi::Invalid => 0,
            }
        }
        if rank(self) >= rank(other) {
            self
        } else {
            other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::directory::GRID_HOP_LATENCY;

    fn h2() -> Hierarchy {
        Hierarchy::new(2, HierarchyConfig::default())
    }

    #[test]
    fn cold_load_goes_to_dram() {
        let mut h = h2();
        let (_, lat) = h.load(0, 0x100, 4, PC_NONE, 0);
        assert_eq!(lat, 2 + 10 + 200);
        assert_eq!(h.bus_stats().dram_accesses, 1);
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut h = h2();
        let (_, t) = h.load(0, 0x100, 4, PC_NONE, 0);
        let (_, lat) = h.load(0, 0x104, 4, PC_NONE, t as u64); // same 32B line
        assert_eq!(lat, 2);
    }

    #[test]
    fn hit_on_in_flight_line_waits_for_the_fill() {
        let mut h = h2();
        h.load(0, 0x100, 4, PC_NONE, 0); // fill lands at 212
                                         // Five cycles in, the line is in the tags but the data is not here
                                         // yet: the secondary access merges with the outstanding fill.
        let (_, lat) = h.load(0, 0x104, 4, PC_NONE, 5);
        assert_eq!(lat, 212 - 5);
        assert_eq!(h.mlp_stats().mshr_merges, 1);
    }

    #[test]
    fn hit_under_miss_is_counted_and_free() {
        let mut h = h2();
        let (_, t) = h.load(0, 0x100, 4, PC_NONE, 0);
        h.load(0, 0x2000, 4, PC_NONE, t as u64); // fill in flight until t+212
                                                 // A hit on an unrelated resident line proceeds at hit latency.
        let (_, lat) = h.load(0, 0x104, 4, PC_NONE, t as u64 + 1);
        assert_eq!(lat, 2);
        assert_eq!(h.mlp_stats().mshr_hits_under_miss, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction_capacity() {
        let mut h = h2();
        // L1 is 8kB 2-way with 32B lines: 128 sets. Three lines mapping to
        // the same set: stride = 128 * 32 = 4096.
        let mut t = 0u64;
        for a in [0x0u64, 0x1000, 0x2000] {
            t += h.load(0, a, 4, PC_NONE, t).1 as u64; // 0x2000 evicts 0x0 from L1
        }
        let (_, lat) = h.load(0, 0x0, 4, PC_NONE, t);
        assert_eq!(lat, 2 + 10, "L1 miss, L2 hit");
    }

    #[test]
    fn store_then_remote_load_is_c2c() {
        let mut h = h2();
        let t = h.store(0, 0x100, 4, 7, 0) as u64;
        let (v, lat) = h.load(1, 0x100, 4, PC_NONE, t);
        assert_eq!(v, 7);
        assert_eq!(lat, 2 + 10 + 20, "supplied dirty by core 0");
        assert_eq!(h.bus_stats().c2c_transfers, 1);
        // Both ends now Shared.
        h.check_mesi_invariants(&[0x100]).unwrap();
    }

    #[test]
    fn store_to_shared_upgrades_and_invalidates() {
        let mut h = h2();
        let mut t = h.store(0, 0x100, 4, 7, 0) as u64;
        t += h.load(1, 0x100, 4, PC_NONE, t).1 as u64; // both shared now
        let lat = h.store(0, 0x100, 4, 9, t);
        assert_eq!(lat, 2 + 10, "L1 hit + upgrade");
        assert_eq!(h.bus_stats().upgrades, 1);
        t += lat as u64;
        let (v, lat1) = h.load(1, 0x100, 4, PC_NONE, t);
        assert_eq!(v, 9);
        assert!(lat1 > 2, "core 1 was invalidated and must re-fetch");
        h.check_mesi_invariants(&[0x100]).unwrap();
    }

    #[test]
    fn exclusive_store_is_silent() {
        let mut h = h2();
        let t = h.load(0, 0x100, 4, PC_NONE, 0).1 as u64; // fills Exclusive
        let lat = h.store(0, 0x100, 4, 1, t); // E -> M without bus traffic
        assert_eq!(lat, 2);
        assert_eq!(h.bus_stats().upgrades, 0);
    }

    #[test]
    fn amo_add_returns_old_value() {
        let mut h = h2();
        let mut t = h.store(0, 0x40, 4, 10, 0) as u64;
        let (old, lat) = h.amo_add(1, 0x40, 5, t);
        assert_eq!(old, 10);
        t += lat as u64;
        let (v, _) = h.load(0, 0x40, 4, PC_NONE, t);
        assert_eq!(v, 15);
        h.check_mesi_invariants(&[0x40]).unwrap();
    }

    #[test]
    fn inst_fetch_misses_then_hits() {
        let mut h = h2();
        let lat0 = h.inst_fetch(0, 0x4000_0000, 0);
        assert_eq!(lat0, 2 + 10 + 200);
        let lat1 = h.inst_fetch(0, 0x4000_0004, lat0 as u64);
        assert_eq!(lat1, 2);
    }

    #[test]
    fn inst_fetch_next_line_prefetch_hides_the_sequential_miss() {
        let mut h = h2();
        let t = h.inst_fetch(0, 0x4000_0000, 0) as u64; // prefetches 0x4000_0020
        let lat = h.inst_fetch(0, 0x4000_0020, t);
        assert_eq!(lat, 2 + 10, "fill landed with the previous line's");
        let s = h.mlp_stats();
        assert!(s.prefetch_issued >= 1);
        assert_eq!(s.prefetch_useful, 1);
    }

    #[test]
    fn stride_stream_prefetches_after_training() {
        let mut h = h2();
        let mut t = 0u64;
        let mut lats = Vec::new();
        // One load per line (stride 32), same pc: after three misses the
        // RPT is confident and runs ahead of the stream.
        for i in 0..12u64 {
            let (_, lat) = h.load(0, 0x8000 + i * 32, 4, 0x40, t);
            lats.push(lat);
            t += lat as u64;
        }
        let s = h.mlp_stats();
        assert!(s.prefetch_issued >= 4, "stream detected: {s:?}");
        assert!(
            s.prefetch_useful + s.prefetch_late >= 4,
            "prefetches consumed: {s:?}"
        );
        assert!(
            lats[11] < 212,
            "steady-state miss is cheaper than a cold one: {lats:?}"
        );
        assert!(!s.prefetch_accuracy().is_nan());
    }

    #[test]
    fn pointer_chase_never_prefetches() {
        let mut h = h2();
        let mut t = 0u64;
        for a in [0x1000u64, 0x5420, 0x2260, 0x9fa0, 0x30c0, 0x7780] {
            t += h.load(0, a, 8, 0x40, t).1 as u64;
        }
        assert_eq!(h.mlp_stats().prefetch_issued, 0);
    }

    #[test]
    fn load_gate_refuses_only_a_full_file() {
        let mut h = h2();
        // Fill all four L1D MSHRs with distinct-set demand misses at t=0.
        for i in 0..4u64 {
            h.load(0, 0x10000 + i * 32, 4, PC_NONE, 0);
        }
        assert!(
            h.load_ready(0, 0x10000, 0),
            "in-flight line can always merge"
        );
        assert!(h.load_ready(0, 0x10000 + 32, 0), "tag hit is always ready");
        assert!(
            !h.load_ready(0, 0xf00000, 0),
            "untracked full miss needs a register"
        );
        let wake = h.load_wake(0, 0);
        assert!(wake > 0 && wake != u64::MAX);
        assert_eq!(h.next_event(0), Some(wake), "full file publishes its wake");
        assert!(
            h.load_ready(0, 0xf00000, wake),
            "ready again once the earliest fill lands"
        );
        assert_eq!(h.next_event(wake), None);
        // The other core's file is untouched.
        assert!(h.load_ready(1, 0xf00000, 0));
    }

    #[test]
    fn blocking_model_is_always_ready() {
        let mut h = h2();
        h.set_mlp(false);
        for i in 0..8u64 {
            h.load(0, 0x10000 + i * 32, 4, PC_NONE, 0);
        }
        assert!(h.load_ready(0, 0xf00000, 0));
        assert_eq!(h.load_wake(0, 0), u64::MAX);
        assert_eq!(h.next_event(0), None);
        assert_eq!(h.mlp_stats(), MlpStats::default());
    }

    #[test]
    fn no_mlp_latencies_match_the_blocking_model() {
        // The MLP and directory models are timing-only and the blocking
        // broadcast path is untouched: with both disabled, every canonical
        // latency is the reference value even with a stale `now` (the
        // directory would charge bank-port queueing for these overlapped
        // same-bank lookups; the idealized atomic bus does not).
        let mut h = h2();
        h.set_mlp(false);
        h.set_dir(false);
        assert_eq!(h.load(0, 0x100, 4, PC_NONE, 0).1, 212, "cold DRAM");
        assert_eq!(h.load(0, 0x104, 4, PC_NONE, 0).1, 2, "L1 hit");
        assert_eq!(h.load(1, 0x2000, 4, PC_NONE, 0).1, 212);
        assert_eq!(h.store(1, 0x2000, 4, 1, 0), 2, "silent E->M");
        assert_eq!(h.load(0, 0x2000, 4, PC_NONE, 0).1, 32, "c2c transfer");
        assert_eq!(h.mlp_stats(), MlpStats::default());
        assert_eq!(h.dir_stats(), DirStats::default());
    }

    #[test]
    fn uncontended_directory_latencies_match_the_broadcast_model() {
        // A directory lookup is pipelined behind the L1+L2 traversal:
        // without a bank conflict it costs nothing, so properly sequenced
        // accesses see the exact pinned latencies of the reference model.
        let mut h = h2();
        assert!(h.dir_enabled(), "directory is on by default");
        let t = h.store(0, 0x100, 4, 7, 0) as u64;
        assert_eq!(t, 212, "cold store miss");
        let (v, lat) = h.load(1, 0x100, 4, PC_NONE, t);
        assert_eq!((v, lat), (7, 32), "c2c supply through the sharer mask");
        let lat = h.store(0, 0x100, 4, 9, t + lat as u64);
        assert_eq!(lat, 2 + 10, "upgrade through the directory");
        let s = h.dir_stats();
        assert_eq!(s.bank_conflicts, 0);
        assert_eq!(s.conflict_cycles, 0);
        assert!(s.lookups >= 3);
        assert_eq!(s.probes_sent, 2, "one snoop probe + one invalidate");
        h.check_mesi_invariants(&[0x100]).unwrap();
    }

    #[test]
    fn directory_filters_probes_and_matches_broadcast() {
        // The same access stream through the directory and the broadcast
        // walk: identical values, identical cache/bus counters, identical
        // MESI states — the directory only filters who gets probed.
        let ops: Vec<(usize, u64, bool)> = (0..200u64)
            .map(|i| {
                let core = (i % 4) as usize;
                let addr = 0x1000 + (i * 37 % 23) * 32;
                (core, addr, i % 3 == 0)
            })
            .collect();
        let run = |dir: bool| {
            let mut h = Hierarchy::new(4, HierarchyConfig::default());
            h.set_dir(dir);
            let mut t = 0u64;
            let mut vals = Vec::new();
            for (i, &(core, addr, write)) in ops.iter().enumerate() {
                if write {
                    t += h.store(core, addr, 4, i as u64, t) as u64;
                } else {
                    let (v, lat) = h.load(core, addr, 4, PC_NONE, t);
                    vals.push(v);
                    t += lat as u64;
                }
            }
            (h, vals)
        };
        let (hd, vd) = run(true);
        let (hb, vb) = run(false);
        assert_eq!(vd, vb, "loaded values are timing-independent");
        let addrs: Vec<u64> = (0..23u64).map(|k| 0x1000 + k * 32).collect();
        hd.check_mesi_invariants(&addrs).unwrap();
        for c in 0..4 {
            assert_eq!(hd.cache_stats(c), hb.cache_stats(c), "core {c}");
        }
        assert_eq!(hd.bus_stats(), hb.bus_stats());
        let s = hd.dir_stats();
        assert!(s.probes_avoided > 0, "the filter actually filtered: {s:?}");
        assert!(s.probes_sent > 0);
    }

    #[test]
    fn enabling_the_directory_mid_run_reseeds_residency() {
        let mut h = h2();
        h.set_dir(false);
        let t = h.store(0, 0x100, 4, 7, 0) as u64;
        let t = t + h.load(1, 0x100, 4, PC_NONE, t).1 as u64; // both Shared
        h.set_dir(true);
        let s0 = h.dir_stats();
        assert_eq!((s0.lookups, s0.probes_sent), (0, 0), "counters reset");
        assert_eq!(s0.max_sharers, 2, "reseed found both resident copies");
        // The reseeded mask routes the upgrade to exactly core 1.
        let lat = h.store(0, 0x100, 4, 9, t);
        assert_eq!(lat, 2 + 10);
        assert_eq!(h.cores[1].l1d.probe(0x100), Mesi::Invalid);
        assert_eq!(h.dir_stats().probes_sent, 1);
        h.check_mesi_invariants(&[0x100]).unwrap();
    }

    #[test]
    fn directory_bank_conflicts_gate_and_wake_loads() {
        // Two overlapped full misses to the same directory bank fill both
        // ports; a third load to that bank is refused until a port frees,
        // and the wake is published through next_event.
        let mut h = h2();
        h.set_mlp(false); // isolate the directory gate from the MSHR gate
        assert!(h.load_ready(0, 0x1000, 0));
        h.load(0, 0x1000, 4, PC_NONE, 0); // bank 0, port 0 (t_req 12)
        h.load(1, 0x2000, 4, PC_NONE, 0); // bank 0, port 1 (t_req 12)
        assert!(!h.load_ready(0, 0x4000, 12), "bank 0 has no free port");
        assert!(h.load_blocked_by_dir(0, 0x4000, 12));
        assert!(h.load_ready(0, 0x4020, 12), "bank 1 is free");
        let wake = h.load_wake(0, 12);
        assert_eq!(h.next_event(12), Some(wake));
        assert!(h.load_ready(0, 0x4000, wake));
        assert!(!h.load_blocked_by_dir(0, 0x4000, wake));
        assert_eq!(h.dir_stats().lookups, 2);
    }

    #[test]
    fn grid_hops_extend_c2c_transfers() {
        // 36 cores = 9 clusters on a 3x3 grid: a transfer from cluster 0
        // to cluster 8 is 4 hops, 3 of them charged beyond the baseline.
        let mut h = Hierarchy::new(36, HierarchyConfig::default());
        h.set_mlp(false);
        let t = h.store(0, 0x100, 4, 7, 0) as u64;
        let (v, lat) = h.load(35, 0x100, 4, PC_NONE, t);
        assert_eq!(v, 7);
        assert_eq!(lat, 32 + 3 * GRID_HOP_LATENCY as u32);
        assert_eq!(h.dir_stats().hop_cycles, 3 * GRID_HOP_LATENCY);
        // Same-cluster transfers stay at the baseline.
        let (_, lat) = h.load(1, 0x100, 4, PC_NONE, t + lat as u64);
        assert_eq!(lat, 32, "nearest sharer supplies without hop charges");
    }

    #[test]
    fn write_miss_invalidates_remote_clean_copy() {
        let mut h = h2();
        let t = h.load(0, 0x200, 4, PC_NONE, 0).1 as u64; // core 0 Exclusive
        h.store(1, 0x200, 4, 3, t); // core 1 write miss
        assert_eq!(h.cores[0].l1d.probe(0x200), Mesi::Invalid);
        h.check_mesi_invariants(&[0x200]).unwrap();
    }

    #[test]
    fn negative_amo_delta() {
        let mut h = h2();
        let t = h.store(0, 0x44, 4, 10, 0) as u64;
        let (old, lat) = h.amo_add(0, 0x44, -4, t);
        assert_eq!(old, 10);
        assert_eq!(h.load(0, 0x44, 4, PC_NONE, t + lat as u64).0, 6);
    }

    #[test]
    fn parity_protected_fill_scrubs_instead_of_corrupting() {
        use remap_fault::{SiteCfg, PPM_SCALE};
        let mut h = h2();
        h.mem_mut().write_u64(0x100, 0xdead_beef_cafe_f00d);
        h.set_fault(Some(CacheFault::new(
            9,
            SiteCfg::windowed(PPM_SCALE as u32, 0, 1),
            true,
            30,
        )));
        let (v, lat) = h.load(0, 0x100, 8, PC_NONE, 0);
        assert_eq!(v, 0xdead_beef_cafe_f00d, "scrubbed fill stays correct");
        assert_eq!(lat, 2 + 10 + 200 + 30, "detected fill pays the scrub");
        let c = h.fault_counters();
        assert_eq!(
            (c.injected, c.detected, c.recovered, c.silent),
            (1, 1, 1, 0)
        );
        // Subsequent hits are outside the window: normal latency.
        assert_eq!(h.load(0, 0x100, 8, PC_NONE, lat as u64).1, 2);
    }

    #[test]
    fn scrub_extends_the_outstanding_fill_for_merged_accesses() {
        use remap_fault::{SiteCfg, PPM_SCALE};
        let mut h = h2();
        h.set_fault(Some(CacheFault::new(
            9,
            SiteCfg::windowed(PPM_SCALE as u32, 0, 1),
            true,
            30,
        )));
        h.load(0, 0x100, 8, PC_NONE, 0); // fill extended to 242 by the scrub
        let (_, lat) = h.load(0, 0x108, 8, PC_NONE, 10);
        assert_eq!(lat, 242 - 10, "merged access waits out the re-fetch too");
    }

    #[test]
    fn unprotected_fill_flips_one_memory_bit() {
        use remap_fault::{SiteCfg, PPM_SCALE};
        let mut h = h2();
        h.mem_mut().write_u64(0x100, 0xdead_beef_cafe_f00d);
        h.set_fault(Some(CacheFault::new(
            9,
            SiteCfg::windowed(PPM_SCALE as u32, 0, 1),
            false,
            30,
        )));
        let (v, lat) = h.load(0, 0x100, 8, PC_NONE, 0);
        assert_eq!(
            (v ^ 0xdead_beef_cafe_f00d).count_ones(),
            1,
            "exactly one flipped bit reaches the consumer"
        );
        assert_eq!(lat, 2 + 10 + 200, "silent corruption costs nothing");
        let c = h.fault_counters();
        assert_eq!(
            (c.injected, c.detected, c.recovered, c.silent),
            (1, 0, 0, 1)
        );
    }

    #[test]
    fn cache_fault_stream_is_deterministic() {
        use remap_fault::SiteCfg;
        let run = |mlp: bool| {
            let mut h = h2();
            h.set_mlp(mlp);
            h.set_fault(Some(CacheFault::new(5, SiteCfg::rate(250_000), false, 30)));
            for i in 0..64u64 {
                h.mem_mut().write_u64(0x1000 + i * 8, i);
            }
            let mut t = 0u64;
            let vals: Vec<u64> = (0..64u64)
                .map(|i| {
                    let (v, lat) = h.load(i as usize % 2, 0x1000 + i * 8, 8, 0x10, t);
                    t += lat as u64;
                    v
                })
                .collect();
            (vals, h.fault_counters())
        };
        let (a, ca) = run(true);
        let (b, cb) = run(true);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.injected > 0);
        // The fault stream is event-indexed on demand full misses, which
        // are identical with MLP on or off (the functional walk decides).
        let (c, cc) = run(false);
        assert_eq!(a, c);
        assert_eq!(ca, cc);
    }
}
