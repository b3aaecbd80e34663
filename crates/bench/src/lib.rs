//! # remap-bench
//!
//! The experiment harness of the ReMAP reproduction: shared runners and
//! table formatting used by the `benches/` targets, one per paper table or
//! figure (`cargo bench -p remap-bench --bench fig10`, …).
//!
//! Every experiment simulates functionally *validated* runs — a workload
//! whose output disagrees with its oracle aborts the experiment — and
//! reports performance/energy series shaped like the paper's figures:
//!
//! | target | artifact |
//! |---|---|
//! | `table1` | Table I — relative SPL area/power |
//! | `fig08`/`fig09` | whole-program speedup / energy×delay |
//! | `fig10`/`fig11` | optimized-region speedup / energy×delay |
//! | `fig12`–`fig14` | barrier workload sweeps |
//! | `sw_queues` | §V-B software-queue comparison |
//! | `homogeneous` | §V-C.2 homogeneous-cluster ED comparison |
//! | `ablation_*` | partitioning / virtualization studies |
//! | `micro` | Criterion microbenchmarks of the simulator itself |

pub mod faultsweep;
pub mod figures;
pub mod json;
pub mod mlp;
pub mod runner;
pub mod scaling;
pub mod simperf;
pub mod sweep;

use remap::{CoreCalibration, RegionMeasurement, WholeProgram, WholeProgramResult};
use remap_workloads::barriers::{BarrierBench, BarrierMode};
use remap_workloads::comm::CommBench;
use remap_workloads::comp::CompBench;
use remap_workloads::{CommMode, CompMode, Measurement, Workload};

/// Region problem size used for the Figure 8–11 experiments.
pub const REGION_N: usize = 2048;

/// A benchmark of the heterogeneous-CMP experiments: either
/// computation-only or communicating.
#[derive(Debug, Clone, Copy)]
pub enum Bench {
    /// Computation-only (SPL used as in Figure 1(a)).
    Comp(CompBench),
    /// Communicating (SPL used as in Figure 1(b)).
    Comm(CommBench),
}

impl Bench {
    /// The fourteen benchmarks of Figures 8–11, in the paper's order.
    pub fn all() -> Vec<Bench> {
        let mut v: Vec<Bench> = CompBench::ALL.into_iter().map(Bench::Comp).collect();
        v.extend(CommBench::ALL.into_iter().map(Bench::Comm));
        v
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            Bench::Comp(b) => b.name(),
            Bench::Comm(b) => b.name(),
        }
    }

    /// Table III execution-time fraction.
    pub fn exec_fraction(&self) -> f64 {
        match self {
            Bench::Comp(b) => b.exec_fraction(),
            Bench::Comm(b) => b.exec_fraction(),
        }
    }

    /// Times the whole program enters the optimized region. twolf's
    /// sequential stretches between optimized sections are very short
    /// (§V-A: "the time duration of the sequential regions are so short
    /// that the migration cost outweighs the benefit"), so it migrates
    /// orders of magnitude more often.
    pub fn region_entries(&self) -> u64 {
        match self {
            Bench::Comm(CommBench::Twolf) => 150,
            _ => 8,
        }
    }

    /// Runs the region at [`REGION_N`]: computation-only benchmarks in
    /// `comp` mode, communicating ones in `comm` mode.
    fn region(&self, comp: CompMode, comm: CommMode) -> Measurement {
        let w = match *self {
            Bench::Comp(b) => Workload::Comp(b, comp),
            Bench::Comm(b) => Workload::Comm(b, comm),
        };
        w.run(REGION_N).expect("region run validates")
    }

    /// Sequential baseline on OOO1.
    pub fn seq_ooo1(&self) -> Measurement {
        self.region(CompMode::SeqOoo1, CommMode::SeqOoo1)
    }

    /// Sequential baseline on OOO2.
    pub fn seq_ooo2(&self) -> Measurement {
        self.region(CompMode::SeqOoo2, CommMode::SeqOoo2)
    }

    /// The region under the ReMAP configuration (SPL cluster).
    pub fn remap_region(&self) -> Measurement {
        self.region(CompMode::Spl, CommMode::CompComm2T)
    }

    /// The region under the OOO2+Comm configuration.
    pub fn ooo2comm_region(&self) -> Measurement {
        self.region(CompMode::SeqOoo2, CommMode::Ooo2Comm)
    }
}

/// One row of the whole-program experiments (Figures 8 and 9).
#[derive(Debug, Clone)]
pub struct WholeRow {
    /// Benchmark name.
    pub name: &'static str,
    /// ReMAP configuration result.
    pub remap: WholeProgramResult,
    /// OOO2+Comm configuration result.
    pub ooo2comm: WholeProgramResult,
}

/// Runs the whole-program composition for every benchmark (the paper's
/// heterogeneous-CMP methodology: simulate the optimized region, scale by
/// Table III's execution fraction, charge 500-cycle migrations), fanning
/// the fourteen independent benchmarks across `jobs` worker threads.
pub fn whole_program_rows_jobs(jobs: usize) -> Vec<WholeRow> {
    let benches = Bench::all();
    runner::run_with_jobs(jobs, &benches, |_, b| {
        let base = b.seq_ooo1();
        let base_m = RegionMeasurement::new(base.cycles, base.energy_pj);
        let o2 = b.seq_ooo2();
        let calib =
            CoreCalibration::from_runs(base_m, RegionMeasurement::new(o2.cycles, o2.energy_pj));
        let wp = WholeProgram::new(b.exec_fraction(), b.region_entries());
        let remap_r = b.remap_region();
        let comm_r = b.ooo2comm_region();
        WholeRow {
            name: b.name(),
            remap: wp.compose(
                base_m,
                RegionMeasurement::new(remap_r.cycles, remap_r.energy_pj),
                calib,
                true,
            ),
            ooo2comm: wp.compose(
                base_m,
                RegionMeasurement::new(comm_r.cycles, comm_r.energy_pj),
                calib,
                false,
            ),
        }
    })
}

/// One row of the optimized-region experiments (Figures 10 and 11).
#[derive(Debug, Clone)]
pub struct RegionRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Sequential OOO1 baseline.
    pub base: Measurement,
    /// 1Th+Comp.
    pub comp1t: Measurement,
    /// 2Th+Comm (communicating benchmarks only).
    pub comm2t: Option<Measurement>,
    /// 2Th+CompComm (communicating benchmarks only).
    pub compcomm: Option<Measurement>,
    /// OOO2+Comm.
    pub ooo2comm: Measurement,
}

/// Runs the optimized-region modes for every benchmark, fanning the
/// fourteen independent benchmarks across `jobs` worker threads.
pub fn region_rows_jobs(jobs: usize) -> Vec<RegionRow> {
    let benches = Bench::all();
    runner::run_with_jobs(jobs, &benches, |_, bench| {
        // The two-thread modes exist only for communicating benchmarks.
        let comm = |m| match *bench {
            Bench::Comp(_) => None,
            Bench::Comm(b) => Some(b.run(m, REGION_N).expect("validates")),
        };
        RegionRow {
            name: bench.name(),
            base: bench.seq_ooo1(),
            comp1t: bench.region(CompMode::Spl, CommMode::Comp1T),
            comm2t: comm(CommMode::Comm2T),
            compcomm: comm(CommMode::CompComm2T),
            ooo2comm: bench.ooo2comm_region(),
        }
    })
}

/// Percentage improvement of `cycles` against a baseline cycle count.
pub fn improvement_pct(base: u64, cycles: u64) -> f64 {
    (base as f64 / cycles as f64 - 1.0) * 100.0
}

/// Energy×delay of a measurement relative to a baseline measurement.
pub fn rel_ed(base: &Measurement, m: &Measurement) -> f64 {
    m.ed() / base.ed()
}

/// One point of a barrier sweep: `(size, per-iteration cycles, relative
/// ED vs sequential)`.
pub fn barrier_point(bench: BarrierBench, mode: BarrierMode, n: usize) -> (usize, f64, f64) {
    let seq = bench.run(BarrierMode::Seq, n).expect("seq validates");
    let m = bench.run(mode, n).expect("mode validates");
    let per_iter = m.cycles as f64 / bench.iterations(n) as f64;
    (n, per_iter, m.ed() / seq.ed())
}

/// Problem-size sweep of one barrier benchmark in one mode, with the
/// independent sizes fanned across `jobs` worker threads.
pub fn barrier_sweep_jobs(
    bench: BarrierBench,
    mode: BarrierMode,
    sizes: &[usize],
    jobs: usize,
) -> Vec<(usize, f64, f64)> {
    runner::run_with_jobs(jobs, sizes, |_, &n| barrier_point(bench, mode, n))
}

/// Writes the report `doc` to `path`. A write that fails is an error
/// naming the path, so a `remap bench` target never exits 0 while a stale
/// artifact stands in for the run it just measured.
pub fn write_report(path: &str, doc: &str) -> Result<(), String> {
    std::fs::write(path, doc).map_err(|e| format!("could not write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_benchmarks() {
        assert_eq!(Bench::all().len(), 14);
    }

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(200, 100), 100.0);
        assert_eq!(improvement_pct(100, 200), -50.0);
    }
}
