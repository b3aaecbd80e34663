//! Barrier-synchronization workloads (Figures 7, 12, 13, 14): Livermore
//! Loops 2, 3, 6 and Dijkstra's shortest-path algorithm, parameterized by
//! problem size and thread count.
//!
//! Modes:
//!
//! * **Seq** — single-threaded kernel (the `Seq` series of Figure 12).
//! * **Sw(p)** — `p` threads with centralized sense-reversing software
//!   barriers (`SW-p8`, `SW-p16`).
//! * **Remap(p)** — `p` threads with ReMAP SPL barriers used for
//!   synchronization only (`Barrier-p8`, `Barrier-p16`).
//! * **RemapComp(p)** — ReMAP barriers with integrated computation: the
//!   global minimum (Dijkstra) or global sum (LL3) is evaluated *inside*
//!   the fabric during the barrier, eliminating the serial combining phase
//!   and one barrier (`Barrier+Comp`); LL3 additionally computes its
//!   multiply-accumulates in the fabric (Figure 1(a) + 1(c)).
//! * **HwIdeal(p)** — `p` threads with an idealized dedicated hardware
//!   barrier network (the homogeneous-cluster baseline of §V-C.2).
//!
//! Threads are assigned to cores 1:1; SPL modes attach one 24-row cluster
//! per four cores. With more than one cluster, Dijkstra and LL3 use the
//! paper's multi-stage scheme (§III-B): a regional barrier+function per
//! cluster, a bus-synchronized intermediate barrier, and a final fabric
//! stage where core *j* of each cluster injects regional result *j*.

use crate::framework::{sw_barrier, Measurement, ADDR_IN, ADDR_OUT, ADDR_SHARED};
use crate::Workload;
use remap::{CoreKind, System, SystemBuilder};
use remap_isa::{Asm, Program, Reg::*};
use remap_spl::{Dest, SplConfig, SplFunction};

/// SPL configuration ids for the barrier workloads.
mod cfg {
    /// 4-wide MAC compute function (LL3's Figure 1(a) use).
    pub const MAC4: u16 = 1;
    /// Synchronization-only barrier "A".
    pub const BAR_A: u16 = 10;
    /// Synchronization-only barrier "B".
    pub const BAR_B: u16 = 11;
    /// Barrier with integrated global function (min or sum), stage 1.
    pub const BAR_FN: u16 = 12;
    /// Barrier with integrated global function, multi-cluster final stage.
    pub const BAR_FN2: u16 = 13;
}

/// Shared-memory layout for the barrier workloads.
mod layout {
    use super::ADDR_SHARED;
    /// Software-barrier counter.
    pub const BAR_CTR: i64 = ADDR_SHARED;
    /// Software-barrier sense word.
    pub const BAR_SENSE: i64 = ADDR_SHARED + 64;
    /// Per-thread partial results (`localMins` / partial sums).
    pub const PARTIALS: i64 = ADDR_SHARED + 0x100;
    /// Global combined value.
    pub const GLOBAL: i64 = ADDR_SHARED + 0x200;
    /// Per-cluster regional results (multi-cluster modes).
    pub const REGIONAL: i64 = ADDR_SHARED + 0x240;
    /// Dijkstra visited flags.
    pub const VISITED: i64 = ADDR_SHARED + 0x400;
}

/// Dijkstra's "unreached" distance.
pub const DIJ_INF: i32 = 30000;
/// Iterations of the LL3 time loop.
pub const LL3_ITERS: usize = 4;

/// Execution mode of a barrier workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierMode {
    /// Single-threaded kernel.
    Seq,
    /// Software barriers with `p` threads.
    Sw(usize),
    /// ReMAP SPL barriers (synchronization only) with `p` threads.
    Remap(usize),
    /// ReMAP barriers with integrated computation with `p` threads.
    RemapComp(usize),
    /// Idealized dedicated hardware barrier network with `p` threads.
    HwIdeal(usize),
}

impl BarrierMode {
    /// Thread count of the mode.
    pub fn threads(self) -> usize {
        match self {
            BarrierMode::Seq => 1,
            BarrierMode::Sw(p)
            | BarrierMode::Remap(p)
            | BarrierMode::RemapComp(p)
            | BarrierMode::HwIdeal(p) => p,
        }
    }

    /// Report label.
    pub fn label(self) -> String {
        match self {
            BarrierMode::Seq => "Seq".to_string(),
            BarrierMode::Sw(p) => format!("SW-p{p}"),
            BarrierMode::Remap(p) => format!("Barrier-p{p}"),
            BarrierMode::RemapComp(p) => format!("Barrier+Comp-p{p}"),
            BarrierMode::HwIdeal(p) => format!("HWNet-p{p}"),
        }
    }
}

/// How barriers are synthesized into a thread's code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarKind {
    /// Centralized sense-reversing software barrier.
    Sw,
    /// SPL barrier with the given configuration (sync token discarded).
    Spl(u16),
    /// Ideal hardware barrier with the given network id.
    Hw(u8),
}

/// Emits one barrier of the given kind. For `Sw`, the [`sw_barrier`]
/// register contract (`r20`–`r26`) must have been set up.
fn emit_barrier(a: &mut Asm, kind: BarKind) {
    match kind {
        BarKind::Sw => sw_barrier(a),
        BarKind::Spl(c) => {
            a.spl_load(R0, 0, 4);
            a.spl_init(c);
            a.spl_store(R24);
            a.fence();
        }
        BarKind::Hw(id) => {
            a.hwbar(id);
            a.fence();
        }
    }
}

/// The four barrier benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierBench {
    /// Livermore Loop 2: ICCG level-halving recurrence.
    Ll2,
    /// Livermore Loop 3: inner product (integer variant per §IV-A).
    Ll3,
    /// Livermore Loop 6: general linear recurrence (triangular dependence).
    Ll6,
    /// Dijkstra's shortest-path algorithm (Figure 7).
    Dijkstra,
}

impl BarrierBench {
    /// All four benchmarks.
    pub const ALL: [BarrierBench; 4] = [
        BarrierBench::Ll2,
        BarrierBench::Ll3,
        BarrierBench::Ll6,
        BarrierBench::Dijkstra,
    ];

    /// Cycle budget of a run: a run still going after this many cycles
    /// fails with a timeout.
    pub const MAX_CYCLES: u64 = 400_000_000;

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            BarrierBench::Ll2 => "LL2",
            BarrierBench::Ll3 => "LL3",
            BarrierBench::Ll6 => "LL6",
            BarrierBench::Dijkstra => "dijkstra",
        }
    }

    /// Whether the benchmark has a Barrier+Comp variant (LL3 and Dijkstra,
    /// per §IV-A).
    pub fn supports_comp(self) -> bool {
        matches!(self, BarrierBench::Ll3 | BarrierBench::Dijkstra)
    }

    /// "Iterations" used for Figure 12's per-iteration normalization.
    pub fn iterations(self, n: usize) -> u64 {
        match self {
            BarrierBench::Ll2 => (usize::BITS - n.leading_zeros()) as u64, // levels
            BarrierBench::Ll3 => LL3_ITERS as u64,
            BarrierBench::Ll6 => n as u64 - 1,
            BarrierBench::Dijkstra => n as u64,
        }
    }

    /// The paper's problem sizes for this benchmark (Figure 12 axes).
    pub fn sweep_sizes(self) -> Vec<usize> {
        match self {
            BarrierBench::Ll2 => vec![8, 16, 32, 64, 128, 256, 512],
            BarrierBench::Ll3 => vec![32, 64, 128, 256, 512, 1024],
            BarrierBench::Ll6 => vec![8, 16, 32, 64, 128, 256],
            BarrierBench::Dijkstra => vec![20, 40, 80, 120, 160, 200],
        }
    }

    /// Checks that `mode` and problem size `n` form a shape the kernels
    /// support: 1-64 threads, SPL modes in power-of-two or whole-cluster
    /// thread counts, Barrier+Comp only on LL3/Dijkstra with at most 16
    /// threads, power-of-two LL2/LL3 sizes, and sizes at which every
    /// thread's loop runs correctly (LL3 at least 4, LL6 at least 2,
    /// Dijkstra at least 1).
    ///
    /// # Errors
    ///
    /// Describes the first rule the shape breaks.
    pub fn check_shape(self, mode: BarrierMode, n: usize) -> Result<(), String> {
        let p = mode.threads();
        if !(1..=64).contains(&p) {
            return Err(format!("1-64 threads supported, got {p}"));
        }
        // SPL clusters come in power-of-two shapes, and the grid adds whole
        // quad clusters (16/36/64 cores); software and ideal hardware
        // barriers work for any count (e.g. the 6-core homogeneous cluster
        // of §V-C.2).
        let spl = matches!(mode, BarrierMode::Remap(_) | BarrierMode::RemapComp(_));
        if spl && !(p.is_power_of_two() || p.is_multiple_of(4)) {
            return Err(format!(
                "SPL modes need power-of-two or whole-cluster threads, got {p}"
            ));
        }
        if matches!(mode, BarrierMode::RemapComp(_)) {
            if !self.supports_comp() {
                return Err(format!("{} has no Barrier+Comp variant", self.name()));
            }
            // The integrated-computation combining tree is the paper's
            // 3-stage regional scheme, which tops out at four clusters.
            if p > 16 {
                return Err("Barrier+Comp supports at most 16 threads".into());
            }
        }
        if matches!(self, BarrierBench::Ll2 | BarrierBench::Ll3) && !n.is_power_of_two() {
            return Err(format!("{} needs power-of-two sizes, got {n}", self.name()));
        }
        // LL3 slices its elements in units of four; LL6's row loop and
        // Dijkstra's step loop test their bound only after the first pass.
        let min = match self {
            BarrierBench::Ll2 => 1,
            BarrierBench::Ll3 => 4,
            BarrierBench::Ll6 => 2,
            BarrierBench::Dijkstra => 1,
        };
        if n < min {
            return Err(format!(
                "{} needs size at least {min}, got {n}",
                self.name()
            ));
        }
        Ok(())
    }

    /// Builds the system for `mode` at problem size `n`.
    ///
    /// # Panics
    ///
    /// Panics on shapes [`check_shape`](Self::check_shape) refuses.
    pub fn build(self, mode: BarrierMode, n: usize) -> System {
        if let Err(e) = self.check_shape(mode, n) {
            panic!("{e}");
        }
        let p = mode.threads();
        let mut b = SystemBuilder::new();
        for t in 0..p {
            let prog = self.thread_program(mode, n, t);
            b.add_core(CoreKind::Ooo1, prog);
        }
        match mode {
            BarrierMode::Remap(_) | BarrierMode::RemapComp(_) => {
                let clusters = p.div_ceil(4);
                for c in 0..clusters {
                    let cores: Vec<usize> = (c * 4..((c + 1) * 4).min(p)).collect();
                    b.add_spl_cluster(SplConfig::paper(cores.len()), cores);
                }
                b.register_spl(cfg::BAR_A, SplFunction::barrier("sync_a", 2, |_| 1));
                b.register_spl(cfg::BAR_B, SplFunction::barrier("sync_b", 2, |_| 1));
                b.barrier_spec(cfg::BAR_A, 1, p as u32);
                b.barrier_spec(cfg::BAR_B, 2, p as u32);
                if matches!(mode, BarrierMode::RemapComp(_)) {
                    let (f1, f2) = self.barrier_functions();
                    b.register_spl(cfg::BAR_FN, f1);
                    b.register_spl(cfg::BAR_FN2, f2);
                    b.barrier_spec(cfg::BAR_FN, 3, p as u32);
                    b.barrier_spec(cfg::BAR_FN2, 4, p as u32);
                    if self == BarrierBench::Ll3 {
                        b.register_spl(cfg::MAC4, ll3_mac4(Dest::SelfCore));
                    }
                }
            }
            BarrierMode::HwIdeal(_) => {
                b.hwbar(0, p as u32);
                b.hwbar(1, p as u32);
            }
            _ => {}
        }
        let mut sys = b.build();
        self.init_memory(&mut sys, n);
        sys
    }

    /// Builds, runs, and validates; see [`Workload::run`].
    pub fn run(self, mode: BarrierMode, n: usize) -> Result<Measurement, String> {
        Workload::Barrier(self, mode).run(n)
    }

    /// Validates the result region against the oracle.
    pub fn check(self, sys: &System, n: usize) -> Result<(), String> {
        let (base, expect) = self.oracle(n);
        let got = sys.mem().read_words(base, expect.len());
        if got == expect {
            Ok(())
        } else {
            let idx = got
                .iter()
                .zip(&expect)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            Err(format!(
                "{}: mismatch at {idx}: got {} expected {}",
                self.name(),
                got[idx],
                expect[idx]
            ))
        }
    }

    // =====================================================================
    // data and oracles
    // =====================================================================

    fn rng(self) -> impl FnMut() -> u32 {
        let mut s: u32 = 0xbeef_0001 ^ (self as u32).wrapping_mul(0x85eb_ca6b);
        move || {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            s >> 8
        }
    }

    fn init_memory(self, sys: &mut System, n: usize) {
        let mut r = self.rng();
        let m = sys.mem_mut();
        match self {
            BarrierBench::Ll2 => {
                let x: Vec<i32> = (0..2 * n).map(|_| (r() % 21) as i32 - 10).collect();
                let mut v: Vec<i32> = (0..2 * n).map(|_| (r() % 3) as i32 - 1).collect();
                ll2_zero_boundaries(&mut v, n);
                m.write_words(ADDR_IN as u64, &x);
                m.write_words(ADDR_IN as u64 + 0x8000, &v);
            }
            BarrierBench::Ll3 => {
                let z: Vec<i32> = (0..n).map(|_| (r() % 201) as i32 - 100).collect();
                let x: Vec<i32> = (0..n).map(|_| (r() % 201) as i32 - 100).collect();
                m.write_words(ADDR_IN as u64, &z);
                m.write_words(ADDR_IN as u64 + 0x8000, &x);
                // Packed 16-bit copies for the SPL MAC (two values per word).
                for (arr, off) in [(&z, 0x10000u64), (&x, 0x14000)] {
                    for i in 0..n / 2 {
                        let lo = arr[2 * i] as u32 & 0xffff;
                        let hi = (arr[2 * i + 1] as u32 & 0xffff) << 16;
                        m.write_u32(ADDR_IN as u64 + off + 4 * i as u64, lo | hi);
                    }
                }
            }
            BarrierBench::Ll6 => {
                let b: Vec<i32> = (0..n).map(|_| (r() % 21) as i32 - 10).collect();
                let c: Vec<i32> = (0..n).map(|_| (r() % 3) as i32 - 1).collect();
                m.write_words(ADDR_IN as u64, &b);
                m.write_words(ADDR_IN as u64 + 0x8000, &c);
            }
            BarrierBench::Dijkstra => {
                let cost: Vec<i32> = (0..n * n).map(|_| 1 + (r() % 100) as i32).collect();
                m.write_words(ADDR_IN as u64, &cost);
                let mut dist = vec![DIJ_INF; n];
                dist[0] = 0;
                m.write_words(ADDR_OUT as u64, &dist);
                // visited flags start at zero (memory default).
            }
        }
    }

    /// Returns `(region base, expected words)`.
    pub fn oracle(self, n: usize) -> (u64, Vec<i32>) {
        let mut r = self.rng();
        match self {
            BarrierBench::Ll2 => {
                let mut x: Vec<i32> = (0..2 * n).map(|_| (r() % 21) as i32 - 10).collect();
                let mut v: Vec<i32> = (0..2 * n).map(|_| (r() % 3) as i32 - 1).collect();
                ll2_zero_boundaries(&mut v, n);
                let mut ii = n;
                let mut ipntp = 0usize;
                while ii > 0 {
                    let ipnt = ipntp;
                    ipntp += ii;
                    ii /= 2;
                    for j in 0..ii {
                        let k = ipnt + 1 + 2 * j;
                        let i = ipntp + j;
                        let val = x[k] as i64
                            - (v[k] as i64) * (x[k - 1] as i64)
                            - (v[k + 1] as i64) * (x[k + 1] as i64);
                        x[i] = val as i32;
                    }
                }
                (ADDR_IN as u64, x)
            }
            BarrierBench::Ll3 => {
                let z: Vec<i32> = (0..n).map(|_| (r() % 201) as i32 - 100).collect();
                let x: Vec<i32> = (0..n).map(|_| (r() % 201) as i32 - 100).collect();
                let q: i64 = (0..n).map(|k| z[k] as i64 * x[k] as i64).sum();
                (ADDR_OUT as u64, vec![q as i32; LL3_ITERS])
            }
            BarrierBench::Ll6 => {
                let b: Vec<i32> = (0..n).map(|_| (r() % 21) as i32 - 10).collect();
                let c: Vec<i32> = (0..n).map(|_| (r() % 3) as i32 - 1).collect();
                let mut w = vec![0i32; n];
                w[0] = b[0];
                for i in 1..n {
                    let mut acc = b[i] as i64;
                    for k in 0..i {
                        acc += w[k] as i64 * c[i - k] as i64;
                    }
                    w[i] = acc as i32;
                }
                (ADDR_OUT as u64, w)
            }
            BarrierBench::Dijkstra => {
                let cost: Vec<i32> = (0..n * n).map(|_| 1 + (r() % 100) as i32).collect();
                let mut dist = vec![DIJ_INF; n];
                dist[0] = 0;
                let mut visited = vec![false; n];
                for _ in 0..n {
                    // Global min packed as dist<<8 | node (lowest id wins
                    // ties), exactly as the kernels compute it.
                    let mut best = (DIJ_INF << 8) | 0xff;
                    for i in 0..n {
                        if !visited[i] {
                            let packed = (dist[i] << 8) | i as i32;
                            if packed < best {
                                best = packed;
                            }
                        }
                    }
                    let gnode = (best & 0xff) as usize;
                    let gdist = best >> 8;
                    if gnode < n {
                        visited[gnode] = true;
                        for i in 0..n {
                            if !visited[i] {
                                let nd = gdist + cost[gnode * n + i];
                                if nd < dist[i] {
                                    dist[i] = nd;
                                }
                            }
                        }
                    }
                }
                (ADDR_OUT as u64, dist)
            }
        }
    }

    /// The stage-1 and stage-2 barrier functions for `RemapComp`.
    fn barrier_functions(self) -> (SplFunction, SplFunction) {
        match self {
            BarrierBench::Dijkstra => (
                SplFunction::barrier("gmin", 6, |es| {
                    es.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
                }),
                SplFunction::barrier("gmin2", 6, |es| {
                    es.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
                }),
            ),
            BarrierBench::Ll3 => (
                SplFunction::barrier("gsum", 8, |es| {
                    let s: i64 = es.iter().map(|e| e.i32(0) as i64).sum();
                    (s as u64) & 0xffff_ffff
                }),
                SplFunction::barrier("gsum2", 8, |es| {
                    let s: i64 = es.iter().map(|e| e.i32(0) as i64).sum();
                    (s as u64) & 0xffff_ffff
                }),
            ),
            _ => unreachable!("no comp variant"),
        }
    }

    // =====================================================================
    // program generation
    // =====================================================================

    fn thread_program(self, mode: BarrierMode, n: usize, t: usize) -> Program {
        let p = mode.threads();
        let (bar_a, bar_b) = match mode {
            BarrierMode::Seq => (None, None),
            BarrierMode::Sw(_) => (Some(BarKind::Sw), Some(BarKind::Sw)),
            BarrierMode::Remap(_) | BarrierMode::RemapComp(_) => (
                Some(BarKind::Spl(cfg::BAR_A)),
                Some(BarKind::Spl(cfg::BAR_B)),
            ),
            BarrierMode::HwIdeal(_) => (Some(BarKind::Hw(0)), Some(BarKind::Hw(1))),
        };
        let comp = matches!(mode, BarrierMode::RemapComp(_));
        match self {
            BarrierBench::Ll2 => ll2_thread(n, p, t, bar_a),
            BarrierBench::Ll3 => ll3_thread(n, p, t, bar_a, bar_b, comp),
            BarrierBench::Ll6 => ll6_thread(n, p, t, bar_a, bar_b),
            BarrierBench::Dijkstra => dij_thread(n, p, t, bar_a, bar_b, comp),
        }
    }
}

/// Emits software-barrier setup when any barrier kind is `Sw`.
fn maybe_sw_setup(a: &mut Asm, kinds: &[Option<BarKind>], p: usize) {
    if kinds.iter().flatten().any(|k| *k == BarKind::Sw) {
        a.li(R20, layout::BAR_CTR as i32);
        a.li(R21, layout::BAR_SENSE as i32);
        a.li(R22, 0);
        a.li(R23, p as i32);
    }
}

// ===========================================================================
// LL2
// ===========================================================================

/// Zeroes `v` at the level-boundary positions `x[ipntp]`: the last element
/// of each level multiplies `x[ipntp]` — written by the *first* element of
/// the same level — by `v[ipntp]`. Zeroing that coefficient removes the
/// intra-level dependence, making the parallel decomposition exact.
fn ll2_zero_boundaries(v: &mut [i32], n: usize) {
    let mut ii = n;
    let mut ipntp = 0usize;
    while ii > 0 {
        ipntp += ii;
        ii /= 2;
        if ipntp < v.len() {
            v[ipntp] = 0;
        }
    }
}

fn ll2_thread(n: usize, p: usize, t: usize, bar: Option<BarKind>) -> Program {
    let mut a = Asm::new(format!("ll2-t{t}"));
    maybe_sw_setup(&mut a, &[bar], p);
    a.li(R15, ADDR_IN as i32); // x base
    a.li(R16, (ADDR_IN + 0x8000) as i32); // v base
    a.li(R2, n as i32); // ii
    a.li(R3, 0); // ipntp
    a.label("level");
    a.mv(R4, R3); // ipnt
    a.add(R3, R3, R2); // ipntp += ii
    a.srai(R2, R2, 1); // ii /= 2  (also the element count)
                       // slice bounds: lo = t*cnt/p, hi = (t+1)*cnt/p
    a.muli(R5, R2, t as i32);
    a.li(R6, p as i32);
    a.div(R5, R5, R6);
    a.muli(R7, R2, t as i32 + 1);
    a.div(R7, R7, R6);
    a.label("elems");
    a.bge(R5, R7, "eldone");
    // k = ipnt + 1 + 2j ; i = ipntp + j
    a.slli(R8, R5, 1);
    a.add(R8, R8, R4);
    a.addi(R8, R8, 1); // k
    a.slli(R9, R8, 2);
    a.add(R9, R15, R9); // &x[k]
    a.lw(R14, R9, 0); // x[k]
    a.lw(R17, R9, -4); // x[k-1]
    a.lw(R18, R9, 4); // x[k+1]
    a.slli(R9, R8, 2);
    a.add(R9, R16, R9); // &v[k]
    a.lw(R19, R9, 0); // v[k]
    a.lw(R9, R9, 4); // v[k+1]
    a.mul(R17, R19, R17); // v[k]*x[k-1]
    a.mul(R18, R9, R18); // v[k+1]*x[k+1]
    a.sub(R14, R14, R17);
    a.sub(R14, R14, R18);
    a.add(R9, R3, R5); // i
    a.slli(R9, R9, 2);
    a.add(R9, R15, R9);
    a.sw(R14, R9, 0);
    a.addi(R5, R5, 1);
    a.j("elems");
    a.label("eldone");
    if let Some(k) = bar {
        emit_barrier(&mut a, k);
    } else {
        a.fence();
    }
    a.bne(R2, R0, "level");
    a.halt();
    a.assemble().expect("ll2 thread")
}

// ===========================================================================
// LL3
// ===========================================================================

/// The 4-wide MAC function: Σ z_i·x_i over four packed 16-bit pairs.
fn ll3_mac4(dest: Dest) -> SplFunction {
    SplFunction::compute("mac4", 10, dest, |e| {
        let sext = |v: u32| (v as u16 as i16) as i64;
        let mut s = 0i64;
        for i in 0..4 {
            let z = sext(e.u32(i * 2) & 0xffff);
            let x = sext(e.u32(8 + i * 2) & 0xffff);
            s += z * x;
        }
        (s as u64) & 0xffff_ffff
    })
}

#[allow(clippy::too_many_arguments)]
fn ll3_thread(
    n: usize,
    p: usize,
    t: usize,
    bar_a: Option<BarKind>,
    bar_b: Option<BarKind>,
    comp: bool,
) -> Program {
    let mut a = Asm::new(format!("ll3-t{t}"));
    maybe_sw_setup(&mut a, &[bar_a, bar_b], p);
    // Element slice (word-of-4 aligned for the SPL path).
    let units = n / 4;
    let (lo_u, hi_u) = (t * units / p, (t + 1) * units / p);
    let (lo, hi) = (lo_u * 4, hi_u * 4);
    a.li(R15, ADDR_IN as i32); // z
    a.li(R16, (ADDR_IN + 0x8000) as i32); // x
    a.li(R17, (ADDR_IN + 0x10000) as i32); // z16
    a.li(R18, (ADDR_IN + 0x14000) as i32); // x16
    a.li(R14, 0); // iteration counter
    a.label("iter");
    a.li(R7, 0); // partial
    if comp {
        // 4-wide MACs through the SPL fabric, software-pipelined so fabric
        // latency overlaps the loads of the next unit (feed index r29,
        // drain index r5).
        let feed = |a: &mut Asm, pro: bool| {
            a.slli(R8, R29, 3); // unit*8 bytes (two packed words)
            a.add(R9, R17, R8);
            a.lw(R19, R9, 0);
            a.spl_load(R19, 0, 4);
            a.lw(R19, R9, 4);
            a.spl_load(R19, 4, 4);
            a.add(R9, R18, R8);
            a.lw(R19, R9, 0);
            a.spl_load(R19, 8, 4);
            a.lw(R19, R9, 4);
            a.spl_load(R19, 12, 4);
            a.spl_init(cfg::MAC4);
            let _ = pro;
        };
        a.li(R29, lo_u as i32);
        a.li(R5, lo_u as i32);
        a.li(R6, hi_u as i32);
        a.li(R28, (lo_u + 4).min(hi_u) as i32);
        // Empty slice: nothing to feed or drain. A non-empty slice always
        // takes the prologue at least once, so every path to the
        // `spl_store` below passes an `spl_init` (do-while prologue).
        a.bge(R29, R6, "macdone");
        a.label("mac_pro");
        feed(&mut a, true);
        a.addi(R29, R29, 1);
        a.blt(R29, R28, "mac_pro");
        a.label("mac_main");
        a.bge(R5, R6, "macdone");
        a.spl_store(R19);
        a.slli(R19, R19, 32);
        a.srai(R19, R19, 32);
        a.add(R7, R7, R19);
        a.addi(R5, R5, 1);
        a.bge(R29, R6, "mac_nofeed");
        feed(&mut a, false);
        a.addi(R29, R29, 1);
        a.label("mac_nofeed");
        a.j("mac_main");
        a.label("macdone");
    } else {
        a.li(R5, lo as i32);
        a.li(R6, hi as i32);
        a.label("macs");
        a.bge(R5, R6, "macdone");
        a.slli(R8, R5, 2);
        a.add(R9, R15, R8);
        a.lw(R19, R9, 0);
        a.add(R9, R16, R8);
        a.lw(R9, R9, 0);
        a.mul(R19, R19, R9);
        a.add(R7, R7, R19);
        a.addi(R5, R5, 1);
        a.j("macs");
        a.label("macdone");
    }
    if comp {
        // Global sum inside the barrier (Figure 1(c)).
        emit_fn_barrier(&mut a, p, t, R7, R27, true);
    } else {
        match (bar_a, bar_b) {
            (Some(ka), Some(kb)) => {
                // partials[t] = partial; barrier; thread 0 combines; barrier.
                a.li(R8, (layout::PARTIALS + 4 * t as i64) as i32);
                a.sw(R7, R8, 0);
                a.fence();
                emit_barrier(&mut a, ka);
                if t == 0 {
                    a.li(R8, layout::PARTIALS as i32);
                    a.li(R27, 0);
                    for j in 0..p {
                        a.lw(R9, R8, 4 * j as i32);
                        a.add(R27, R27, R9);
                    }
                    a.li(R8, layout::GLOBAL as i32);
                    a.sw(R27, R8, 0);
                    a.fence();
                }
                emit_barrier(&mut a, kb);
                a.li(R8, layout::GLOBAL as i32);
                a.lw(R27, R8, 0);
            }
            _ => {
                // Sequential: the partial is the global sum.
                a.mv(R27, R7);
            }
        }
    }
    if t == 0 {
        a.slli(R8, R14, 2);
        a.li(R9, ADDR_OUT as i32);
        a.add(R8, R8, R9);
        a.sw(R27, R8, 0);
        a.fence();
    }
    a.addi(R14, R14, 1);
    a.li(R8, LL3_ITERS as i32);
    a.bne(R14, R8, "iter");
    a.halt();
    a.assemble().expect("ll3 thread")
}

/// Emits the barrier-with-function sequence: injects `val`, receives the
/// combined result in `dst`. For multi-cluster systems (p > 4), uses the
/// paper's three-stage regional scheme (§III-B). `sum` selects the filler
/// value for absent regional slots (0 for sum, INF-packed for min).
fn emit_fn_barrier(
    a: &mut Asm,
    p: usize,
    t: usize,
    val: remap_isa::Reg,
    dst: remap_isa::Reg,
    sum: bool,
) {
    // Stage 1: regional function over this cluster's participants.
    a.spl_load(val, 0, 4);
    a.spl_init(cfg::BAR_FN);
    a.spl_store(dst);
    a.fence();
    let clusters = p.div_ceil(4);
    if clusters > 1 {
        let cluster = t / 4;
        let local = t % 4;
        // Cluster leader publishes the regional result.
        if local == 0 {
            a.li(R25, (layout::REGIONAL + 4 * cluster as i64) as i32);
            a.sw(dst, R25, 0);
            a.fence();
        }
        // Stage 2: synchronization barrier so every regional store is
        // visible (the paper's "extra barrier").
        a.spl_load(R0, 0, 4);
        a.spl_init(cfg::BAR_B);
        a.spl_store(R24);
        a.fence();
        // Stage 3: core j of each cluster injects regional result j.
        if local < clusters {
            a.li(R25, (layout::REGIONAL + 4 * local as i64) as i32);
            a.lw(R26, R25, 0);
        } else if sum {
            a.li(R26, 0);
        } else {
            a.li(R26, (DIJ_INF << 8) | 0xff);
        }
        a.spl_load(R26, 0, 4);
        a.spl_init(cfg::BAR_FN2);
        a.spl_store(dst);
        a.fence();
    }
}

// ===========================================================================
// LL6
// ===========================================================================

fn ll6_thread(
    n: usize,
    p: usize,
    t: usize,
    bar_a: Option<BarKind>,
    bar_b: Option<BarKind>,
) -> Program {
    let mut a = Asm::new(format!("ll6-t{t}"));
    maybe_sw_setup(&mut a, &[bar_a, bar_b], p);
    a.li(R15, ADDR_IN as i32); // b
    a.li(R16, (ADDR_IN + 0x8000) as i32); // c
    a.li(R17, ADDR_OUT as i32); // w
    a.li(R13, n as i32);
    if t == 0 {
        // w[0] = b[0]
        a.lw(R5, R15, 0);
        a.sw(R5, R17, 0);
        a.fence();
    }
    // Everyone waits for w[0] before row 1.
    a.li(R14, 1); // i
    a.label("row");
    if let Some(k) = bar_b {
        emit_barrier(&mut a, k);
    }
    // slice of k in 0..i
    a.muli(R5, R14, t as i32);
    a.li(R6, p as i32);
    a.div(R5, R5, R6); // lo
    a.muli(R7, R14, t as i32 + 1);
    a.div(R7, R7, R6); // hi
    a.li(R27, 0); // partial
    a.label("dot");
    a.bge(R5, R7, "dotdone");
    a.slli(R8, R5, 2);
    a.add(R8, R17, R8);
    a.lw(R8, R8, 0); // w[k]
    a.sub(R9, R14, R5); // i - k
    a.slli(R9, R9, 2);
    a.add(R9, R16, R9);
    a.lw(R9, R9, 0); // c[i-k]
    a.mul(R8, R8, R9);
    a.add(R27, R27, R8);
    a.addi(R5, R5, 1);
    a.j("dot");
    a.label("dotdone");
    match (bar_a, bar_b) {
        (Some(ka), Some(_)) => {
            a.li(R8, (layout::PARTIALS + 4 * t as i64) as i32);
            a.sw(R27, R8, 0);
            a.fence();
            emit_barrier(&mut a, ka);
            if t == 0 {
                a.li(R8, layout::PARTIALS as i32);
                a.li(R9, 0);
                for j in 0..p {
                    a.lw(R26, R8, 4 * j as i32);
                    a.add(R9, R9, R26);
                }
                // w[i] = b[i] + Σ partials
                a.slli(R26, R14, 2);
                a.add(R26, R15, R26);
                a.lw(R26, R26, 0);
                a.add(R9, R9, R26);
                a.slli(R26, R14, 2);
                a.add(R26, R17, R26);
                a.sw(R9, R26, 0);
                a.fence();
            }
        }
        _ => {
            // Sequential: write w[i] directly.
            a.slli(R26, R14, 2);
            a.add(R26, R15, R26);
            a.lw(R26, R26, 0);
            a.add(R9, R27, R26);
            a.slli(R26, R14, 2);
            a.add(R26, R17, R26);
            a.sw(R9, R26, 0);
        }
    }
    a.addi(R14, R14, 1);
    a.bne(R14, R13, "row");
    // Trailing barrier so thread 0's final w[n-1] is globally visible
    // before anyone halts.
    if let Some(k) = bar_a {
        emit_barrier(&mut a, k);
    } else {
        a.fence();
    }
    a.halt();
    a.assemble().expect("ll6 thread")
}

// ===========================================================================
// Dijkstra (Figure 7)
// ===========================================================================

#[allow(clippy::too_many_arguments)]
fn dij_thread(
    n: usize,
    p: usize,
    t: usize,
    bar_a: Option<BarKind>,
    bar_b: Option<BarKind>,
    comp: bool,
) -> Program {
    let mut a = Asm::new(format!("dij-t{t}"));
    maybe_sw_setup(&mut a, &[bar_a, bar_b], p);
    let lo = (t * n / p) as i32;
    let hi = ((t + 1) * n / p) as i32;
    a.li(R15, ADDR_IN as i32); // cost matrix
    a.li(R16, ADDR_OUT as i32); // dist
    a.li(R17, layout::VISITED as i32); // visited
    a.li(R13, n as i32);
    a.li(R14, 0); // step
    a.label("step");
    // --- local min scan over my unvisited nodes, packed dist<<8|id --------
    a.li(R7, (DIJ_INF << 8) | 0xff);
    a.li(R5, lo);
    a.label("scan");
    a.li(R6, hi);
    a.bge(R5, R6, "scandone");
    a.slli(R8, R5, 2);
    a.add(R9, R17, R8);
    a.lw(R9, R9, 0); // visited[i]
    a.bne(R9, R0, "scannext");
    a.add(R9, R16, R8);
    a.lw(R9, R9, 0); // dist[i]
    a.slli(R9, R9, 8);
    a.or(R9, R9, R5); // packed
    a.bge(R9, R7, "scannext");
    a.mv(R7, R9);
    a.label("scannext");
    a.addi(R5, R5, 1);
    a.j("scan");
    a.label("scandone");
    // --- global min ----------------------------------------------------------
    if comp {
        emit_fn_barrier(&mut a, p, t, R7, R27, false);
    } else {
        match (bar_a, bar_b) {
            (Some(ka), Some(kb)) => {
                a.li(R8, (layout::PARTIALS + 4 * t as i64) as i32);
                a.sw(R7, R8, 0);
                a.fence();
                emit_barrier(&mut a, ka);
                if t == 0 {
                    a.li(R8, layout::PARTIALS as i32);
                    a.li(R27, (DIJ_INF << 8) | 0xff);
                    for j in 0..p {
                        let skip = a.fresh_label("dij_min");
                        a.lw(R9, R8, 4 * j as i32);
                        a.bge(R9, R27, skip.clone());
                        a.mv(R27, R9);
                        a.label(skip);
                    }
                    a.li(R8, layout::GLOBAL as i32);
                    a.sw(R27, R8, 0);
                    a.fence();
                }
                emit_barrier(&mut a, kb);
                a.li(R8, layout::GLOBAL as i32);
                a.lw(R27, R8, 0);
            }
            _ => a.mv(R27, R7), // sequential
        }
    }
    // --- unpack, removeMin, update my distances -----------------------------
    a.andi(R8, R27, 0xff); // gnode
    a.srai(R9, R27, 8); // gdist
                        // removeMin (only the owner's visited flag matters).
    {
        let skip = a.fresh_label("dij_notmine");
        a.slti(R5, R8, lo);
        a.bne(R5, R0, skip.clone());
        a.slti(R5, R8, hi);
        a.beq(R5, R0, skip.clone());
        a.slli(R5, R8, 2);
        a.add(R5, R17, R5);
        a.li(R6, 1);
        a.sw(R6, R5, 0);
        a.label(skip);
    }
    // update loop: for i in lo..hi
    a.mul(R19, R8, R13); // gnode * n
    a.slli(R19, R19, 2);
    a.add(R19, R15, R19); // &cost[gnode][0]
    a.li(R5, lo);
    a.label("upd");
    a.li(R6, hi);
    a.bge(R5, R6, "upddone");
    a.slli(R8, R5, 2);
    a.add(R6, R17, R8);
    a.lw(R6, R6, 0); // visited[i]
    a.bne(R6, R0, "updnext");
    a.add(R6, R19, R8);
    a.lw(R6, R6, 0); // cost[gnode][i]
    a.add(R6, R9, R6); // nd
    a.add(R18, R16, R8);
    a.lw(R26, R18, 0); // dist[i]
    a.bge(R6, R26, "updnext");
    a.sw(R6, R18, 0);
    a.label("updnext");
    a.addi(R5, R5, 1);
    a.j("upd");
    a.label("upddone");
    a.addi(R14, R14, 1);
    a.bne(R14, R13, "step");
    a.fence();
    a.halt();
    a.assemble().expect("dijkstra thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benches_all_modes_match_oracle() {
        let sizes = [
            (BarrierBench::Ll2, 32),
            (BarrierBench::Ll3, 64),
            (BarrierBench::Ll6, 24),
            (BarrierBench::Dijkstra, 24),
        ];
        for (bench, n) in sizes {
            let mut modes = vec![
                BarrierMode::Seq,
                BarrierMode::Sw(2),
                BarrierMode::Sw(4),
                BarrierMode::Remap(4),
                BarrierMode::Remap(8),
                BarrierMode::HwIdeal(4),
            ];
            if bench.supports_comp() {
                modes.push(BarrierMode::RemapComp(4));
                modes.push(BarrierMode::RemapComp(8));
            }
            for mode in modes {
                let m = bench.run(mode, n).unwrap_or_else(|e| panic!("{e}"));
                assert!(m.cycles > 0);
            }
        }
    }

    #[test]
    fn remap_barriers_beat_software_barriers() {
        for (bench, n) in [(BarrierBench::Ll2, 64), (BarrierBench::Dijkstra, 40)] {
            let sw = bench.run(BarrierMode::Sw(4), n).unwrap();
            let remap = bench.run(BarrierMode::Remap(4), n).unwrap();
            assert!(
                remap.cycles < sw.cycles,
                "{}: ReMAP {} !< SW {}",
                bench.name(),
                remap.cycles,
                sw.cycles
            );
        }
    }

    #[test]
    fn dijkstra_comp_beats_barrier_only() {
        let bar = BarrierBench::Dijkstra
            .run(BarrierMode::Remap(4), 40)
            .unwrap();
        let comp = BarrierBench::Dijkstra
            .run(BarrierMode::RemapComp(4), 40)
            .unwrap();
        assert!(
            comp.cycles < bar.cycles,
            "Barrier+Comp {} !< Barrier {}",
            comp.cycles,
            bar.cycles
        );
    }

    #[test]
    fn sixteen_threads_four_clusters() {
        let m = BarrierBench::Dijkstra
            .run(BarrierMode::RemapComp(16), 32)
            .unwrap();
        assert!(m.cycles > 0);
    }

    #[test]
    fn thirty_six_threads_grid_of_nine_clusters() {
        let m = BarrierBench::Dijkstra
            .run(BarrierMode::Remap(36), 40)
            .unwrap();
        assert!(m.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn comp_rejected_beyond_four_clusters() {
        let _ = BarrierBench::Dijkstra.build(BarrierMode::RemapComp(36), 40);
    }

    #[test]
    fn iteration_counts() {
        assert_eq!(BarrierBench::Ll2.iterations(8), 4);
        assert_eq!(BarrierBench::Ll3.iterations(64), LL3_ITERS as u64);
        assert_eq!(BarrierBench::Ll6.iterations(16), 15);
        assert_eq!(BarrierBench::Dijkstra.iterations(20), 20);
    }

    #[test]
    fn all_thread_programs_assemble_and_halt() {
        for bench in BarrierBench::ALL {
            let n = match bench {
                BarrierBench::Dijkstra => 24,
                _ => 32,
            };
            let mut modes = vec![
                BarrierMode::Seq,
                BarrierMode::Sw(8),
                BarrierMode::Remap(8),
                BarrierMode::HwIdeal(8),
            ];
            if bench.supports_comp() {
                modes.push(BarrierMode::RemapComp(8));
            }
            for mode in modes {
                for t in 0..mode.threads() {
                    let p = bench.thread_program(mode, n, t);
                    assert!(p.len() > 4, "{} {:?} t{t}", bench.name(), mode);
                    assert_eq!(
                        p.insts().last().copied(),
                        Some(remap_isa::Inst::Halt),
                        "{} {:?} t{t} must end with halt",
                        bench.name(),
                        mode
                    );
                }
            }
        }
    }

    #[test]
    fn ll2_boundary_zeroing_hits_every_level() {
        let n = 32;
        let mut v = vec![1i32; 2 * n];
        ll2_zero_boundaries(&mut v, n);
        // Boundaries for n=32: 32, 48, 56, 60, 62, 63.
        for b in [32usize, 48, 56, 60, 62, 63] {
            assert_eq!(v[b], 0, "v[{b}] must be zeroed");
        }
        assert_eq!(
            v.iter().filter(|&&x| x == 0).count(),
            6,
            "only boundaries zeroed"
        );
    }

    #[test]
    fn six_threads_allowed_for_ideal_hardware() {
        // The §V-C.2 homogeneous cluster has six cores.
        let m = BarrierBench::Dijkstra
            .run(BarrierMode::HwIdeal(6), 24)
            .unwrap();
        assert!(m.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn six_threads_rejected_for_spl_modes() {
        let _ = BarrierBench::Dijkstra.build(BarrierMode::Remap(6), 24);
    }

    #[test]
    fn sweep_sizes_match_figure_axes() {
        assert_eq!(BarrierBench::Ll2.sweep_sizes().last(), Some(&512));
        assert_eq!(BarrierBench::Ll3.sweep_sizes().last(), Some(&1024));
        assert_eq!(BarrierBench::Dijkstra.sweep_sizes().last(), Some(&200));
    }

    #[test]
    fn smallest_sizes_validate_and_smaller_are_refused() {
        for (bench, min) in [
            (BarrierBench::Ll2, 1),
            (BarrierBench::Ll3, 4),
            (BarrierBench::Ll6, 2),
            (BarrierBench::Dijkstra, 1),
        ] {
            for mode in [BarrierMode::Seq, BarrierMode::Remap(4)] {
                bench.run(mode, min).unwrap();
                let e = bench.check_shape(mode, min - 1).unwrap_err();
                assert!(e.contains(bench.name()), "{e}");
            }
        }
        let bad_shapes = [
            (BarrierMode::Sw(0), "1-64 threads"),
            (BarrierMode::Remap(99), "1-64 threads"),
            (BarrierMode::Remap(3), "power-of-two or whole-cluster"),
            (BarrierMode::RemapComp(4), "no Barrier+Comp"),
        ];
        for (mode, why) in bad_shapes {
            let e = BarrierBench::Ll2.check_shape(mode, 8).unwrap_err();
            assert!(e.contains(why), "{mode:?}: {e}");
        }
    }

    #[test]
    fn mode_labels() {
        assert_eq!(BarrierMode::Sw(8).label(), "SW-p8");
        assert_eq!(BarrierMode::RemapComp(16).label(), "Barrier+Comp-p16");
        assert_eq!(BarrierMode::Seq.threads(), 1);
    }
}
