//! The three benchmark workloads: which configurations each runs, the
//! seeded configuration order, and the seeded fault plan of `ckpt-resume`.
//!
//! Kernel inputs are fixed inside `remap-workloads`; the seed only decides
//! the order configurations run in, the fault-plan seed, and where
//! `ckpt-resume` cuts its runs. Simulated counts of `region-sweep` and
//! `grid-barrier` therefore repeat exactly across seeds.

use remap::{FaultPlan, SiteCfg, System};
use remap_workloads::barriers::{BarrierBench, BarrierMode};
use remap_workloads::comm::CommBench;
use remap_workloads::comp::CompBench;
use remap_workloads::{CommMode, CompMode};

/// Problem size of the Figure 8–11 region runs (the simulator's own
/// `REGION_N`).
pub const REGION_N: usize = 2048;

/// Cycle limit handed to `System::run`; every configuration halts far
/// below it.
pub const MAX_CYCLES: u64 = 400_000_000;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 70 Figure 8–11 region configurations (1–2 cores each).
    RegionSweep,
    /// Twelve barrier kernels on 16/36/64-core meshes.
    GridBarrier,
    /// Six comm benches plus one barrier grid, cut into checkpoint round
    /// trips under a protected fault plan.
    CkptResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RegionSweep,
        Workload::GridBarrier,
        Workload::CkptResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegionSweep => "region-sweep",
            Workload::GridBarrier => "grid-barrier",
            Workload::CkptResume => "ckpt-resume",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The configurations one pass runs, in canonical order.
    pub fn configs(self) -> Vec<Config> {
        use BarrierBench::*;
        use BarrierMode::*;
        match self {
            Workload::RegionSweep => {
                let comp = CompBench::ALL
                    .into_iter()
                    .flat_map(|b| CompMode::ALL.map(|m| Config::new(Kernel::Comp(b, m), REGION_N)));
                let comm = CommBench::ALL
                    .into_iter()
                    .flat_map(|b| CommMode::ALL.map(|m| Config::new(Kernel::Comm(b, m), REGION_N)));
                comp.chain(comm).collect()
            }
            Workload::GridBarrier => [
                (Ll3, Remap(16), 2048),
                (Ll3, Remap(36), 2048),
                (Ll3, Remap(64), 2048),
                (Ll3, Sw(16), 2048),
                (Ll3, Sw(64), 2048),
                (Ll2, Remap(16), 512),
                (Ll2, Sw(16), 512),
                (Dijkstra, Remap(16), 80),
                (Dijkstra, Remap(36), 80),
                (Dijkstra, Sw(16), 80),
                (Dijkstra, RemapComp(16), 80),
                (Ll6, Sw(16), 64),
            ]
            .into_iter()
            .map(|(b, m, n)| Config::new(Kernel::Barrier(b, m), n))
            .collect(),
            // wc is left out: its SPL function keeps its running counts in
            // host state that snapshots do not capture, so a restored wc
            // run computes wrong totals.
            Workload::CkptResume => CommBench::ALL
                .into_iter()
                .filter(|&b| b != CommBench::Wc)
                .map(|b| Config::new(Kernel::Comm(b, CommMode::CompComm2T), REGION_N))
                .chain([Config::new(Kernel::Barrier(Dijkstra, Remap(16)), 80)])
                .collect(),
        }
    }

    /// The configuration whose final state `region-sweep` and
    /// `grid-barrier` round-trip through a checkpoint after each timed
    /// pass, so every workload reports a checkpoint time. `ckpt-resume`
    /// measures round trips inside its ops instead.
    pub fn probe(self) -> Option<Config> {
        match self {
            Workload::RegionSweep => Some(Config::new(
                Kernel::Comm(CommBench::Hmmer, CommMode::CompComm2T),
                REGION_N,
            )),
            Workload::GridBarrier => Some(Config::new(
                Kernel::Barrier(BarrierBench::Ll2, BarrierMode::Remap(16)),
                512,
            )),
            Workload::CkptResume => None,
        }
    }

    /// Probe round trips after each pass (see [`Workload::probe`]), a
    /// few tenths of a second of host time.
    pub fn probe_round_trips(self) -> usize {
        match self {
            Workload::RegionSweep => 16,
            Workload::GridBarrier => 4,
            Workload::CkptResume => 0,
        }
    }

    /// The fault plan installed on every configuration, if any.
    ///
    /// `ckpt-resume`'s plan is protected: every site that can corrupt state
    /// has its detection mechanism on (`FaultPlan::quiet` defaults), so
    /// faults cost cycles but never results. The queue sites stay inert on
    /// these configurations, which communicate through the SPL. SPL
    /// bit-flips are left off: after a parity-recovered flip, unepic, cjpeg
    /// and adpcm in 2Th+CompComm produce wrong outputs, so cache line
    /// corruption (with parity) stands in as the fault stream on the data
    /// path.
    pub fn fault_plan(self, seed: u64) -> Option<FaultPlan> {
        if self != Workload::CkptResume {
            return None;
        }
        let mut plan = FaultPlan::quiet(seed);
        plan.hwq_drop = SiteCfg::rate(2_000);
        plan.hwq_dup = SiteCfg::rate(1_000);
        plan.hwq_delay = SiteCfg::rate(4_000);
        plan.barrier_delay = SiteCfg::rate(50_000);
        plan.cache_corrupt = SiteCfg::rate(5_000);
        Some(plan)
    }
}

/// One simulated kernel in one mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Comp(CompBench, CompMode),
    Comm(CommBench, CommMode),
    Barrier(BarrierBench, BarrierMode),
}

/// A kernel at a problem size: the unit one benchmark op builds, runs and
/// validates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    pub kernel: Kernel,
    pub n: usize,
}

impl Config {
    pub fn new(kernel: Kernel, n: usize) -> Config {
        Config { kernel, n }
    }

    pub fn label(&self) -> String {
        match self.kernel {
            Kernel::Comp(b, m) => format!("{} {} n={}", b.name(), m.label(), self.n),
            Kernel::Comm(b, m) => format!("{} {} n={}", b.name(), m.label(), self.n),
            Kernel::Barrier(b, m) => format!("{} {} n={}", b.name(), m.label(), self.n),
        }
    }

    /// Assembles the programs, builds the system and writes its inputs.
    pub fn build(&self) -> System {
        match self.kernel {
            Kernel::Comp(b, m) => b.build(m, self.n),
            Kernel::Comm(b, m) => b.build(m, self.n),
            Kernel::Barrier(b, m) => b.build(m, self.n),
        }
    }

    /// Validates a halted system against the kernel's host oracle.
    pub fn check(&self, sys: &System) -> Result<(), String> {
        match self.kernel {
            Kernel::Comp(b, _) => b.check(sys, self.n),
            Kernel::Comm(b, _) => b.check(sys, self.n),
            Kernel::Barrier(b, _) => b.check(sys, self.n),
        }
    }
}

/// SplitMix64: the benchmark's only source of seeded randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, bound)` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Checkpoint cuts per `ckpt-resume` configuration and pass.
const CUTS_PER_CONFIG: u64 = 16;

/// The cycles at which `ckpt-resume` cuts a run of `ref_cycles` cycles:
/// [`CUTS_PER_CONFIG`] cuts, one per equal slice, each jittered forward by
/// up to half a slice. The schedule depends only on the seed and the
/// configuration, so every pass of a run cuts identically.
pub fn cut_schedule(seed: u64, config_index: usize, ref_cycles: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ (config_index as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let slice = (ref_cycles / (CUTS_PER_CONFIG + 1)).max(2);
    (1..=CUTS_PER_CONFIG)
        .map(|i| i * slice + rng.below(slice / 2))
        .filter(|&c| c < ref_cycles)
        .collect()
}
