//! Simulator-performance benchmark: host throughput of the cycle-level
//! simulator itself, and serial-vs-parallel wall time of the Figure 8–11
//! sweep, written as machine-readable JSON (`BENCH_simperf.json`).
//!
//! Two questions are answered:
//!
//! 1. **How fast does the simulator run?** Every `(benchmark, mode)`
//!    configuration of the Figure 8–14 experiments is run [`REPS`] times
//!    (best-of-N wall clock) and its simulated-kilocycles-per-host-second
//!    recorded (measured on the uncontended serial pass), along with how
//!    many cycles the quiescence skip engine bulk-advanced (see DESIGN.md
//!    §11). The report also records the throughput over the compute-bound
//!    subset ([`COMPUTE_MODES`]) and the commit the binary was built from.
//! 2. **What does the worker pool buy?** The same 94-config sweep is timed
//!    end to end with one job and with the default job count; the ratio is
//!    the sweep speedup on this host. The parallel pass fans `(config,
//!    rep)` granules across the pool through the ordered-streaming engine
//!    ([`crate::sweep`]), so a straggler's repetitions steal onto idle
//!    workers. The report records the host's `available_parallelism`.
//!    With one job there is no parallel pass, and the speedup and the
//!    parallel wall time are written as `null` (not applicable) rather
//!    than as a ratio of two serial runs.
//!
//! The report is written from this run alone: nothing is read back from
//! an earlier `BENCH_simperf.json`. Its throughput is a property of the
//! host as much as of the code, so comparing two commits takes two runs
//! on one host, not a diff against the checked-in file.

use crate::figures::barrier_modes;
use crate::json::{self, Json, Json::Fixed};
use crate::sweep::{self, SweepOpts};
use crate::{runner, REGION_N};
use remap_workloads::barriers::BarrierBench;
use remap_workloads::{catalog, Measurement, Workload};
use std::ops::ControlFlow;
use std::time::Instant;

/// One simulator-performance configuration: a benchmark in one mode at
/// its problem size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The benchmark and mode.
    pub workload: Workload,
    /// Problem size.
    pub n: usize,
}

/// One timed result.
#[derive(Debug, Clone)]
pub struct Record {
    /// The configuration.
    pub config: Config,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Of those, cycles bulk-advanced by the quiescence skip engine.
    pub skipped_cycles: u64,
    /// Instructions retired across all cores.
    pub committed: u64,
    /// Host wall-clock seconds of the whole run (build + simulate +
    /// validate).
    pub wall_seconds: f64,
    /// Host wall-clock seconds of the simulation loop alone — the
    /// denominator of the throughput columns, so they measure the
    /// simulator rather than workload assembly (which dominates the wall
    /// of small configurations).
    pub sim_wall_seconds: f64,
}

impl Record {
    /// Simulated kilocycles per host second of simulation loop.
    pub fn sim_kcps(&self) -> f64 {
        if self.sim_wall_seconds > 0.0 {
            self.cycles as f64 / 1000.0 / self.sim_wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of simulated cycles covered by bulk skips, in `[0, 1]`.
    pub fn skip_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / self.cycles as f64
        }
    }

    /// Throughput over cycles actually stepped (excluding skipped ones).
    pub fn effective_kcps(&self) -> f64 {
        if self.sim_wall_seconds > 0.0 {
            (self.cycles - self.skipped_cycles) as f64 / 1000.0 / self.sim_wall_seconds
        } else {
            0.0
        }
    }
}

/// Problem size for a barrier benchmark: the median point of its figure
/// sweep. The largest point would overweight the slowest runs, the
/// smallest finishes too fast to time reliably; the median is the
/// representative cost of one sweep cell.
fn barrier_n(b: BarrierBench) -> usize {
    let sizes = b.sweep_sizes();
    sizes[(sizes.len() - 1) / 2]
}

/// The full Figure 8–14 configuration grid: the computation and
/// communication part of the [canonical matrix](catalog::canonical) at
/// [`REGION_N`], and every barrier benchmark in the Figure 12/14 modes
/// (8- and 16-thread configurations) at its median sweep size (94
/// configs).
pub fn configs() -> Vec<Config> {
    let mut v: Vec<Config> = catalog::canonical()
        .into_iter()
        .filter(|(w, _)| !matches!(w, Workload::Barrier(..)))
        .map(|(workload, _)| Config {
            workload,
            n: REGION_N,
        })
        .collect();
    for b in BarrierBench::ALL {
        v.extend(barrier_modes(b, true).into_iter().map(|m| Config {
            workload: Workload::Barrier(b, m),
            n: barrier_n(b),
        }));
    }
    v
}

/// Repetitions per configuration.
///
/// A single-shot wall clock on a busy or frequency-wandering host is ±30%
/// noise at these run lengths; each config is run `REPS` times and the
/// *minimum* wall time kept — the run least perturbed by the host — which
/// is the standard de-noising for deterministic workloads.
pub const REPS: usize = 2;

fn run_once(cfg: &Config) -> (Measurement, f64) {
    let start = Instant::now();
    let m = cfg.workload.run(cfg.n).expect("config validates");
    (m, start.elapsed().as_secs_f64())
}

/// Folds one config's rep results (in rep order) into its best-of-N
/// record. The simulator is deterministic; repetitions only de-noise the
/// host-side clock, so cycle counts must agree and only walls are min'd.
fn merge_reps(cfg: &Config, batch: Vec<(Measurement, f64)>) -> Record {
    let mut it = batch.into_iter();
    let (first, wall) = it.next().expect("at least one rep per config");
    let mut best = Record {
        config: *cfg,
        cycles: first.cycles,
        skipped_cycles: first.skipped_cycles,
        committed: first.committed,
        wall_seconds: wall,
        sim_wall_seconds: first.sim_wall_seconds,
    };
    for (m, wall) in it {
        assert_eq!(
            (m.cycles, m.committed),
            (best.cycles, best.committed),
            "{} is not deterministic across repetitions",
            cfg.workload
        );
        best.wall_seconds = best.wall_seconds.min(wall);
        best.sim_wall_seconds = best.sim_wall_seconds.min(m.sim_wall_seconds);
    }
    best
}

fn run_one(cfg: &Config) -> Record {
    merge_reps(cfg, (0..REPS).map(|_| run_once(cfg)).collect())
}

/// Modes whose runs are compute-bound (no inter-core traffic dominating):
/// the subset the memory-fast-path optimization is judged on.
pub const COMPUTE_MODES: [&str; 3] = ["Seq(OOO1)", "Seq(OOO2)", "1Th+Comp"];

/// Short hash of the commit this binary was built from (`"unknown"` when it
/// was built outside a git checkout), stamped by the build script so a
/// report names the code that produced it wherever the binary runs.
pub const BUILD_COMMIT: &str = env!("BUILD_COMMIT");

/// Outcome of the two timed sweeps.
#[derive(Debug, Clone)]
pub struct SimPerf {
    /// Job count of the parallel pass.
    pub jobs: usize,
    /// Host hardware parallelism (`std::thread::available_parallelism`) at
    /// measurement time; 0 when the host could not report it.
    pub host_parallelism: usize,
    /// End-to-end wall seconds of the one-job pass.
    pub serial_wall_seconds: f64,
    /// End-to-end wall seconds of the `jobs`-job pass; `None` when
    /// `jobs <= 1`, which runs no parallel pass.
    pub parallel_wall_seconds: Option<f64>,
    /// The [`BUILD_COMMIT`] of the binary that measured the report.
    pub commit: String,
    /// Unix seconds the report was measured at.
    pub written_epoch_seconds: u64,
    /// Per-config records from the serial (uncontended) pass.
    pub records: Vec<Record>,
}

impl SimPerf {
    /// Serial / parallel wall-time ratio; `None` without a parallel pass.
    pub fn speedup(&self) -> Option<f64> {
        self.parallel_wall_seconds
            .filter(|&p| p > 0.0)
            .map(|p| self.serial_wall_seconds / p)
    }

    /// Aggregate simulator throughput of the serial pass in kilocycles per
    /// host second, over each config's best-of-N wall time (so the number
    /// is independent of the repetition count and comparable across runs).
    pub fn aggregate_kcps(&self) -> f64 {
        let cycles: u64 = self.records.iter().map(|r| r.cycles).sum();
        let wall: f64 = self.records.iter().map(|r| r.wall_seconds).sum();
        if wall > 0.0 {
            cycles as f64 / 1000.0 / wall
        } else {
            0.0
        }
    }

    /// Throughput over the compute-bound subset ([`COMPUTE_MODES`]) in
    /// kilocycles per host second of the simulation loop alone.
    pub fn compute_kcps(&self) -> f64 {
        let sel = || {
            self.records
                .iter()
                .filter(|r| COMPUTE_MODES.contains(&r.config.workload.mode_label().as_str()))
        };
        let cycles: u64 = sel().map(|r| r.cycles).sum();
        let wall: f64 = sel().map(|r| r.sim_wall_seconds).sum();
        if wall > 0.0 {
            cycles as f64 / 1000.0 / wall
        } else {
            0.0
        }
    }

    /// Aggregate fraction of simulated cycles covered by bulk skips.
    pub fn aggregate_skip_rate(&self) -> f64 {
        let cycles: u64 = self.records.iter().map(|r| r.cycles).sum();
        let skipped: u64 = self.records.iter().map(|r| r.skipped_cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            skipped as f64 / cycles as f64
        }
    }

    /// Renders the machine-readable report.
    pub fn to_json(&self) -> String {
        let configs = self.records.iter().map(|r| {
            Json::obj([
                ("bench", r.config.workload.bench_name().into()),
                ("mode", Json::Str(r.config.workload.mode_label())),
                ("cycles", r.cycles.into()),
                ("skipped_cycles", r.skipped_cycles.into()),
                ("skip_rate", Fixed(r.skip_rate(), 4)),
                ("committed", r.committed.into()),
                ("wall_seconds", Fixed(r.wall_seconds, 6)),
                ("sim_wall_seconds", Fixed(r.sim_wall_seconds, 6)),
                ("sim_kcps", Fixed(r.sim_kcps(), 1)),
                ("effective_kcps", Fixed(r.effective_kcps(), 1)),
            ])
        });
        json::render(&Json::obj([
            ("jobs", self.jobs.into()),
            ("reps", REPS.into()),
            ("host_parallelism", self.host_parallelism.into()),
            ("serial_wall_seconds", Fixed(self.serial_wall_seconds, 6)),
            (
                "parallel_wall_seconds",
                self.parallel_wall_seconds.map(|s| Fixed(s, 6)).into(),
            ),
            ("sweep_speedup", self.speedup().map(|s| Fixed(s, 3)).into()),
            ("aggregate_sim_kcps", Fixed(self.aggregate_kcps(), 1)),
            ("compute_sim_kcps", Fixed(self.compute_kcps(), 1)),
            ("aggregate_skip_rate", Fixed(self.aggregate_skip_rate(), 4)),
            ("commit", self.commit.as_str().into()),
            ("written_epoch_seconds", self.written_epoch_seconds.into()),
            ("configs", Json::Arr(configs.collect())),
        ]))
    }
}

/// Runs the serial sweep, and with `jobs > 1` the parallel one, and
/// returns the timing report.
///
/// The parallel pass fans `(config, rep)` granules — not whole configs —
/// across the pool via [`sweep::stream`], so the best-of-N repetitions of
/// a straggler config steal onto idle workers and the sweep tail shrinks;
/// each config's reps are merged back in rep order by the serial consumer.
pub fn measure(jobs: usize) -> SimPerf {
    let grid = configs();
    let serial_start = Instant::now();
    let records = runner::run_with_jobs(1, &grid, |_, c| run_one(c));
    let serial_wall_seconds = serial_start.elapsed().as_secs_f64();
    let parallel_wall_seconds = (jobs > 1).then(|| {
        let parallel_start = Instant::now();
        let mut parallel: Vec<Record> = Vec::with_capacity(grid.len());
        sweep::stream(
            SweepOpts::new(jobs).reps(REPS),
            &grid,
            |_, c, _rep| run_once(c),
            |i, batch| {
                parallel.push(merge_reps(&grid[i], batch));
                ControlFlow::Continue(())
            },
        );
        let wall = parallel_start.elapsed().as_secs_f64();
        // The simulations are deterministic: the pooled pass must reproduce
        // the serial cycle counts exactly.
        for (a, b) in records.iter().zip(parallel.iter()) {
            assert_eq!(
                (a.cycles, a.committed),
                (b.cycles, b.committed),
                "parallel run of {} diverged from serial",
                a.config.workload
            );
        }
        wall
    });
    SimPerf {
        jobs,
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
        serial_wall_seconds,
        parallel_wall_seconds,
        commit: BUILD_COMMIT.to_string(),
        written_epoch_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        records,
    }
}

/// Runs [`measure`], prints a human summary, and writes
/// `BENCH_simperf.json` to `path`.
pub fn report(jobs: usize, path: &str) -> Result<(), String> {
    crate::banner("simperf", "simulator throughput and sweep parallelism");
    let perf = measure(jobs);
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "benchmark",
        "mode",
        "cycles",
        "skipped",
        "skip%",
        "wall (s)",
        "sim (s)",
        "kcyc/s",
        "eff-kc/s"
    );
    for r in &perf.records {
        println!(
            "{:<12} {:<16} {:>12} {:>12} {:>6.1}% {:>10.3} {:>10.3} {:>10.0} {:>10.0}",
            r.config.workload.bench_name(),
            r.config.workload.mode_label(),
            r.cycles,
            r.skipped_cycles,
            r.skip_rate() * 100.0,
            r.wall_seconds,
            r.sim_wall_seconds,
            r.sim_kcps(),
            r.effective_kcps()
        );
    }
    println!();
    let parallel = match (perf.parallel_wall_seconds, perf.speedup()) {
        (Some(wall), Some(speedup)) => {
            format!(
                "{}-job sweep: {wall:.2}s   speedup: {speedup:.2}x",
                perf.jobs
            )
        }
        _ => "parallel sweep: n/a (one job)".to_string(),
    };
    println!(
        "serial sweep: {:.2}s   {parallel}   (host parallelism: {})",
        perf.serial_wall_seconds, perf.host_parallelism
    );
    println!(
        "aggregate simulator throughput: {:.0} kcycles/s   aggregate skip rate: {:.1}%",
        perf.aggregate_kcps(),
        perf.aggregate_skip_rate() * 100.0
    );
    println!("compute-bound subset: {:.0} kcycles/s", perf.compute_kcps());
    crate::write_report(path, &perf.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use remap_workloads::comm::CommBench;
    use remap_workloads::CommMode;

    #[test]
    fn grid_is_ninety_four_configs() {
        // 7 comp × 3 modes + 7 comm × 7 modes + 4 barrier × 5 modes
        // + 2 RemapComp-capable barrier benches × 2 thread counts.
        assert_eq!(configs().len(), 94);
    }

    /// A fixed four-job report with two config rows; the golden bytes
    /// below pin every derived column (speedup, kcps, skip rates) along
    /// with the layout.
    fn golden_perf() -> SimPerf {
        use CommBench::{Adpcm, Wc};
        use CommMode::{Comm2T, Comp1T};
        let rows = [
            (Adpcm, Comp1T, 1000, 250, 500, 0.002, 0.001),
            (Wc, Comm2T, 123_456, 0, 99_999, 0.0375, 0.031_234_5),
        ];
        let records = rows.map(
            |(bench, mode, cycles, skipped, committed, wall, sim)| Record {
                config: Config {
                    workload: Workload::Comm(bench, mode),
                    n: REGION_N,
                },
                cycles,
                skipped_cycles: skipped,
                committed,
                wall_seconds: wall,
                sim_wall_seconds: sim,
            },
        );
        SimPerf {
            jobs: 4,
            host_parallelism: 8,
            serial_wall_seconds: 2.0,
            parallel_wall_seconds: Some(0.5),
            commit: "abc1234".to_string(),
            written_epoch_seconds: 1_754_700_000,
            records: records.to_vec(),
        }
    }

    #[test]
    fn golden_document_bytes_are_pinned() {
        let expected = r#"{
  "jobs": 4,
  "reps": 2,
  "host_parallelism": 8,
  "serial_wall_seconds": 2.000000,
  "parallel_wall_seconds": 0.500000,
  "sweep_speedup": 4.000,
  "aggregate_sim_kcps": 3150.8,
  "compute_sim_kcps": 1000.0,
  "aggregate_skip_rate": 0.0020,
  "commit": "abc1234",
  "written_epoch_seconds": 1754700000,
  "configs": [
    {"bench": "adpcm", "mode": "1Th+Comp", "cycles": 1000, "skipped_cycles": 250, "skip_rate": 0.2500, "committed": 500, "wall_seconds": 0.002000, "sim_wall_seconds": 0.001000, "sim_kcps": 1000.0, "effective_kcps": 750.0},
    {"bench": "wc", "mode": "2Th+Comm", "cycles": 123456, "skipped_cycles": 0, "skip_rate": 0.0000, "committed": 99999, "wall_seconds": 0.037500, "sim_wall_seconds": 0.031234, "sim_kcps": 3952.6, "effective_kcps": 3952.6}
  ]
}
"#;
        assert_eq!(golden_perf().to_json(), expected);
        // One job runs no parallel pass: its wall time and the speedup are
        // not applicable, and say so.
        let one_job = SimPerf {
            jobs: 1,
            parallel_wall_seconds: None,
            ..golden_perf()
        };
        let expected = expected
            .replace("\"jobs\": 4,", "\"jobs\": 1,")
            .replace(
                "\"parallel_wall_seconds\": 0.500000",
                "\"parallel_wall_seconds\": null",
            )
            .replace("\"sweep_speedup\": 4.000", "\"sweep_speedup\": null");
        assert_eq!(one_job.to_json(), expected);
    }
}
