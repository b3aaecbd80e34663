//! Simulator-performance benchmark: host throughput of the cycle-level
//! simulator itself, and serial-vs-parallel wall time of the Figure 8–11
//! sweep, written as machine-readable JSON (`BENCH_simperf.json`).
//!
//! Two questions are answered:
//!
//! 1. **How fast does the simulator run?** Every `(benchmark, mode)`
//!    configuration of the Figure 8–14 experiments is run
//!    `REMAP_SIMPERF_REPS` times (default 2, best-of-N wall clock) and its
//!    simulated-kilocycles-per-host-second recorded (measured on the
//!    uncontended serial pass), along with how many cycles the quiescence
//!    skip engine bulk-advanced (see DESIGN.md §11). The report also
//!    records the throughput over the compute-bound subset
//!    ([`COMPUTE_MODES`]) and the commit the binary was built from.
//! 2. **What does the worker pool buy?** The same 94-config sweep is timed
//!    end to end with one job and with the default job count; the ratio is
//!    the sweep speedup on this host. The parallel pass fans `(config,
//!    rep)` granules across the pool through the ordered-streaming engine
//!    ([`crate::sweep`]), so a straggler's repetitions steal onto idle
//!    workers. The report records the host's `available_parallelism`,
//!    flags a pool degraded to one worker, and rolls the prior report's
//!    aggregates into a bounded `history` array so the throughput
//!    trajectory survives across PRs.

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

/// Repetitions per configuration (`REMAP_SIMPERF_REPS`, default 2, min 1).
///
/// A single-shot wall clock on a busy or frequency-wandering host is ±30%
/// noise at these run lengths; each config is run `reps` times and the
/// *minimum* wall time kept — the run least perturbed by the host — which
/// is the standard de-noising for deterministic workloads.
fn reps() -> usize {
    let raw = std::env::var("REMAP_SIMPERF_REPS").ok();
    let (n, _, warning) = runner::env_count("REMAP_SIMPERF_REPS", raw.as_deref(), ("default", 2));
    if let Some(w) = warning {
        eprintln!("warning: {w}");
    }
    n
}

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

fn run_one(cfg: &Config, reps: usize) -> Record {
    merge_reps(cfg, (0..reps).map(|_| run_once(cfg)).collect())
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
    /// Whether `REMAP_JOBS` was set explicitly (see
    /// [`runner::jobs_explicit`]).
    pub jobs_explicit: bool,
    /// Repetitions per configuration (best-of-N wall clock).
    pub reps: usize,
    /// Host hardware parallelism (`std::thread::available_parallelism`) at
    /// measurement time; 0 when the host could not report it.
    pub host_parallelism: usize,
    /// End-to-end wall seconds of the one-job pass.
    pub serial_wall_seconds: f64,
    /// End-to-end wall seconds of the `jobs`-job pass.
    pub parallel_wall_seconds: f64,
    /// The [`BUILD_COMMIT`] of the binary that measured the report.
    pub commit: String,
    /// Unix seconds the report was measured at.
    pub written_epoch_seconds: u64,
    /// Prior aggregates rolled forward from the report being replaced —
    /// pre-rendered one-line JSON objects, newest first, at most
    /// [`HISTORY_CAP`]. See [`roll_history`].
    pub history: Vec<String>,
    /// Per-config records from the serial (uncontended) pass.
    pub records: Vec<Record>,
}

impl SimPerf {
    /// Serial / parallel wall-time ratio.
    pub fn speedup(&self) -> f64 {
        if self.parallel_wall_seconds > 0.0 {
            self.serial_wall_seconds / self.parallel_wall_seconds
        } else {
            0.0
        }
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

    /// Whether the worker pool degraded to a single worker (either because
    /// the host reports one CPU or `REMAP_JOBS=1` forced it) — the
    /// "parallel" pass then measures nothing.
    pub fn pool_degraded(&self) -> bool {
        self.jobs <= 1
    }

    /// Renders the machine-readable report.
    pub fn to_json(&self) -> String {
        let history = self.history.iter().map(|h| Json::Raw(h.clone()));
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
            ("jobs_explicit", self.jobs_explicit.into()),
            ("reps", self.reps.into()),
            ("host_parallelism", self.host_parallelism.into()),
            ("pool_degraded", self.pool_degraded().into()),
            ("serial_wall_seconds", Fixed(self.serial_wall_seconds, 6)),
            (
                "parallel_wall_seconds",
                Fixed(self.parallel_wall_seconds, 6),
            ),
            ("sweep_speedup", Fixed(self.speedup(), 3)),
            ("aggregate_sim_kcps", Fixed(self.aggregate_kcps(), 1)),
            ("compute_sim_kcps", Fixed(self.compute_kcps(), 1)),
            ("aggregate_skip_rate", Fixed(self.aggregate_skip_rate(), 4)),
            ("commit", self.commit.as_str().into()),
            ("written_epoch_seconds", self.written_epoch_seconds.into()),
            ("history", Json::Arr(history.collect())),
            ("configs", Json::Arr(configs.collect())),
        ]))
    }
}

/// Runs the serial and parallel sweeps and returns the timing report.
///
/// The parallel pass fans `(config, rep)` granules — not whole configs —
/// across the pool via [`sweep::stream`], so the best-of-N repetitions of
/// a straggler config steal onto idle workers and the sweep tail shrinks;
/// each config's reps are merged back in rep order by the serial consumer.
pub fn measure(jobs: usize) -> SimPerf {
    let grid = configs();
    let reps = reps();
    let serial_start = Instant::now();
    let records = runner::run_with_jobs(1, &grid, |_, c| run_one(c, reps));
    let serial_wall_seconds = serial_start.elapsed().as_secs_f64();
    let parallel_start = Instant::now();
    let mut parallel: Vec<Record> = Vec::with_capacity(grid.len());
    sweep::stream(
        SweepOpts::new(jobs).reps(reps),
        &grid,
        |_, c, _rep| run_once(c),
        |i, batch| {
            parallel.push(merge_reps(&grid[i], batch));
            ControlFlow::Continue(())
        },
    );
    let parallel_wall_seconds = parallel_start.elapsed().as_secs_f64();
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
    SimPerf {
        jobs,
        jobs_explicit: runner::jobs_explicit(),
        reps,
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
        history: Vec::new(),
        records,
    }
}

/// Bound on the rolled-forward history: roughly a PR-per-entry trajectory
/// covering the recent past without growing the artifact unboundedly.
pub const HISTORY_CAP: usize = 16;

/// Rolls the report being replaced into the new report's `history`: the
/// old document's own aggregates become the newest entry, its prior
/// entries follow verbatim (no reserialization — the trajectory must
/// survive format drift in newer fields), and the list is truncated to
/// [`HISTORY_CAP`]. Entries are deduplicated by commit hash (newest wins),
/// so re-running simperf on the same commit does not stack duplicate
/// aggregates; entries with an unknown commit are kept as-is (they cannot
/// be told apart). A missing or unreadable old document yields an empty
/// history.
pub fn roll_history(existing: Option<&str>) -> Vec<String> {
    let Some(doc) = existing else {
        return Vec::new();
    };
    let mut v = Vec::new();
    if let Some(agg) = json::get(doc, "aggregate_sim_kcps") {
        let raw = |key, default: &str| Json::Raw(json::get(doc, key).unwrap_or(default).into());
        let entry = Json::obj([
            ("commit", raw("commit", "\"unknown\"")),
            ("written_epoch_seconds", raw("written_epoch_seconds", "0")),
            ("aggregate_sim_kcps", Json::Raw(agg.into())),
            ("compute_sim_kcps", raw("compute_sim_kcps", "0.0")),
        ]);
        v.push(entry.to_string());
    }
    let prior = json::get(doc, "history").map_or(Vec::new(), json::elements);
    v.extend(prior.into_iter().map(str::to_string));
    let mut seen = std::collections::HashSet::new();
    v.retain(|e| match json::get(e, "commit") {
        Some(c) if c != "\"unknown\"" => seen.insert(c.to_string()),
        _ => true,
    });
    v.truncate(HISTORY_CAP);
    v
}

/// Runs [`measure`], prints a human summary, and writes
/// `BENCH_simperf.json` to `path`.
pub fn report(jobs: usize, path: &str) {
    crate::banner("simperf", "simulator throughput and sweep parallelism");
    let mut perf = measure(jobs);
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
    println!(
        "serial sweep: {:.2}s   {}-job sweep: {:.2}s   speedup: {:.2}x   (host parallelism: {})",
        perf.serial_wall_seconds,
        perf.jobs,
        perf.parallel_wall_seconds,
        perf.speedup(),
        perf.host_parallelism
    );
    println!(
        "aggregate simulator throughput: {:.0} kcycles/s   aggregate skip rate: {:.1}%",
        perf.aggregate_kcps(),
        perf.aggregate_skip_rate() * 100.0
    );
    println!("compute-bound subset: {:.0} kcycles/s", perf.compute_kcps());
    if perf.pool_degraded() {
        if perf.jobs_explicit {
            println!(
                "note: REMAP_JOBS=1 set explicitly; the parallel pass duplicates \
                 the serial one and sweep_speedup measures nothing"
            );
        } else {
            println!("########################################################################");
            println!(
                "WARNING: worker pool degraded to 1 worker (host parallelism {}) and \
                 REMAP_JOBS was NOT set explicitly.",
                perf.host_parallelism
            );
            println!(
                "The recorded sweep_speedup is meaningless on this host. Set REMAP_JOBS=1 \
                 to acknowledge a single-core host, or a larger value to force a pool."
            );
            println!("########################################################################");
        }
    }
    let existing = std::fs::read_to_string(path).ok();
    perf.history = roll_history(existing.as_deref());
    if !perf.history.is_empty() {
        println!(
            "rolling {} prior aggregate(s) into the report history",
            perf.history.len()
        );
    }
    let force = std::env::var("REMAP_FORCE_BASELINE").ok();
    if !overwrite_allowed(existing.as_deref(), perf.pool_degraded(), force.as_deref()) {
        println!(
            "refusing to overwrite {path}: the checked-in baseline was recorded with a \
             healthy worker pool, and replacing it with this degraded ({}-job) run would \
             silently skew sweep_speedup. Set REMAP_FORCE_BASELINE=1 to overwrite anyway.",
            perf.jobs
        );
        return;
    }
    match std::fs::write(path, perf.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

/// Whether this run may replace the baseline at `path`: a degraded
/// (single-worker) run must never silently overwrite a baseline recorded
/// with a healthy pool. `REMAP_FORCE_BASELINE` (any non-empty value)
/// overrides; a missing or already-degraded baseline is always fair game.
fn overwrite_allowed(existing: Option<&str>, degraded_now: bool, force: Option<&str>) -> bool {
    !degraded_now
        || matches!(force, Some(s) if !s.is_empty())
        || existing.is_none_or(|doc| json::get(doc, "pool_degraded") != Some("false"))
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

    #[test]
    fn degraded_pool_is_flagged() {
        let perf = SimPerf {
            jobs: 1,
            jobs_explicit: false,
            ..golden_perf()
        };
        assert!(perf.pool_degraded());
        let j = perf.to_json();
        assert_eq!(json::get(&j, "pool_degraded"), Some("true"));
        assert_eq!(json::get(&j, "jobs_explicit"), Some("false"));
    }

    #[test]
    fn reps_default_and_override() {
        // `reps` reads the environment; only exercise the parse helper's
        // behaviour indirectly via a locked env round-trip-free check of
        // the default (the test binary does not set the variable).
        if std::env::var("REMAP_SIMPERF_REPS").is_err() {
            assert_eq!(reps(), 2);
        }
    }

    #[test]
    fn history_rolls_prior_aggregates_forward() {
        // No old report → empty history.
        assert!(roll_history(None).is_empty());
        // An old report without history fields of its own becomes the
        // first entry with unknown commit/date.
        let old = "{\n  \"jobs\": 2,\n  \"aggregate_sim_kcps\": 4308.6,\n  \
                   \"compute_sim_kcps\": 7844.5,\n  \
                   \"baseline_aggregate_sim_kcps\": 2228.2,\n  \"configs\": [\n  ]\n}\n";
        let h = roll_history(Some(old));
        assert_eq!(h.len(), 1);
        assert!(h[0].contains("\"aggregate_sim_kcps\": 4308.6"), "{}", h[0]);
        assert!(h[0].contains("\"compute_sim_kcps\": 7844.5"), "{}", h[0]);
        assert!(h[0].contains("\"commit\": \"unknown\""), "{}", h[0]);
        assert!(
            !h[0].contains("2228.2"),
            "baseline_-prefixed keys must not shadow: {}",
            h[0]
        );
        // A report carrying history chains: its own aggregate leads, the
        // prior entries follow verbatim, capped at HISTORY_CAP.
        let mut with_history = String::from(
            "{\n  \"aggregate_sim_kcps\": 5000.0,\n  \"compute_sim_kcps\": 9000.0,\n  \
             \"commit\": \"abc1234\",\n  \"written_epoch_seconds\": 77,\n  \"history\": [\n",
        );
        for i in 0..HISTORY_CAP + 3 {
            with_history.push_str(&format!(
                "    {{\"commit\": \"old{i}\", \"aggregate_sim_kcps\": {i}.0}},\n"
            ));
        }
        with_history.push_str("  ],\n  \"configs\": [\n  ]\n}\n");
        let h = roll_history(Some(&with_history));
        assert_eq!(h.len(), HISTORY_CAP, "bounded");
        assert!(h[0].contains("\"commit\": \"abc1234\""), "{}", h[0]);
        assert!(h[0].contains("\"written_epoch_seconds\": 77"), "{}", h[0]);
        assert!(h[1].contains("\"commit\": \"old0\""), "{}", h[1]);
    }

    #[test]
    fn rerunning_on_the_same_commit_does_not_stack_history() {
        // The old report was itself produced at commit abc1234 and already
        // carries an abc1234 history entry (a prior re-run): rolling keeps
        // only the newest measurement for that commit.
        let old = "{\n  \"aggregate_sim_kcps\": 5000.0,\n  \"compute_sim_kcps\": 9000.0,\n  \
                   \"commit\": \"abc1234\",\n  \"written_epoch_seconds\": 77,\n  \"history\": [\n    \
                   {\"commit\": \"abc1234\", \"aggregate_sim_kcps\": 4000.0},\n    \
                   {\"commit\": \"def5678\", \"aggregate_sim_kcps\": 3000.0}\n  ],\n  \
                   \"configs\": [\n  ]\n}\n";
        let h = roll_history(Some(old));
        assert_eq!(h.len(), 2, "same-commit entry deduped: {h:?}");
        assert!(h[0].contains("\"aggregate_sim_kcps\": 5000.0"), "{}", h[0]);
        assert!(h[1].contains("\"commit\": \"def5678\""), "{}", h[1]);
        // Unknown commits cannot be told apart and are never collapsed.
        let anon = "{\n  \"aggregate_sim_kcps\": 1.0,\n  \"compute_sim_kcps\": 2.0,\n  \
                    \"history\": [\n    \
                    {\"commit\": \"unknown\", \"aggregate_sim_kcps\": 3.0},\n    \
                    {\"commit\": \"unknown\", \"aggregate_sim_kcps\": 4.0}\n  ],\n  \
                    \"configs\": [\n  ]\n}\n";
        assert_eq!(roll_history(Some(anon)).len(), 3, "unknowns all kept");
    }

    #[test]
    fn degraded_runs_cannot_silently_replace_a_healthy_baseline() {
        let healthy = "{\n  \"jobs\": 2,\n  \"pool_degraded\": false,\n}";
        let degraded = "{\n  \"jobs\": 1,\n  \"pool_degraded\": true,\n}";
        // A healthy run always writes; a degraded run only over a missing
        // or equally degraded baseline.
        assert!(overwrite_allowed(Some(healthy), false, None));
        assert!(!overwrite_allowed(Some(healthy), true, None));
        assert!(overwrite_allowed(Some(degraded), true, None));
        assert!(overwrite_allowed(None, true, None));
        // REMAP_FORCE_BASELINE=1 (any non-empty value) overrides; an empty
        // value does not, matching the other REMAP_* env gates.
        assert!(overwrite_allowed(Some(healthy), true, Some("1")));
        assert!(!overwrite_allowed(Some(healthy), true, Some("")));
    }

    /// A fixed report with a two-entry history and two config rows; the
    /// golden bytes below pin every derived column (speedups, kcps, skip
    /// rates) along with the layout.
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
            jobs_explicit: true,
            reps: 2,
            host_parallelism: 8,
            serial_wall_seconds: 2.0,
            parallel_wall_seconds: 0.5,
            commit: "abc1234".to_string(),
            written_epoch_seconds: 1_754_700_000,
            history: vec![
                "{\"commit\": \"def5678\", \"written_epoch_seconds\": 5, \
                 \"aggregate_sim_kcps\": 4308.6, \"compute_sim_kcps\": 7844.5}"
                    .to_string(),
                "{\"commit\": \"unknown\", \"written_epoch_seconds\": 0, \
                 \"aggregate_sim_kcps\": 2228.2, \"compute_sim_kcps\": 4107.8}"
                    .to_string(),
            ],
            records: records.to_vec(),
        }
    }

    #[test]
    fn golden_document_bytes_are_pinned() {
        let expected = r#"{
  "jobs": 4,
  "jobs_explicit": true,
  "reps": 2,
  "host_parallelism": 8,
  "pool_degraded": false,
  "serial_wall_seconds": 2.000000,
  "parallel_wall_seconds": 0.500000,
  "sweep_speedup": 4.000,
  "aggregate_sim_kcps": 3150.8,
  "compute_sim_kcps": 1000.0,
  "aggregate_skip_rate": 0.0020,
  "commit": "abc1234",
  "written_epoch_seconds": 1754700000,
  "history": [
    {"commit": "def5678", "written_epoch_seconds": 5, "aggregate_sim_kcps": 4308.6, "compute_sim_kcps": 7844.5},
    {"commit": "unknown", "written_epoch_seconds": 0, "aggregate_sim_kcps": 2228.2, "compute_sim_kcps": 4107.8}
  ],
  "configs": [
    {"bench": "adpcm", "mode": "1Th+Comp", "cycles": 1000, "skipped_cycles": 250, "skip_rate": 0.2500, "committed": 500, "wall_seconds": 0.002000, "sim_wall_seconds": 0.001000, "sim_kcps": 1000.0, "effective_kcps": 750.0},
    {"bench": "wc", "mode": "2Th+Comm", "cycles": 123456, "skipped_cycles": 0, "skip_rate": 0.0000, "committed": 99999, "wall_seconds": 0.037500, "sim_wall_seconds": 0.031234, "sim_kcps": 3952.6, "effective_kcps": 3952.6}
  ]
}
"#;
        assert_eq!(golden_perf().to_json(), expected);
    }

    #[test]
    fn only_top_level_keys_feed_the_history() {
        // The aggregate key also appears inside a nested row, inside a
        // string value, and as a `baseline_`-prefixed key; none of them
        // may stand in for the top-level member.
        let nested_only = "{\n  \"note\": \"\\\"aggregate_sim_kcps\\\": 1.0\",\n  \
                           \"baseline_aggregate_sim_kcps\": 3.0,\n  \"configs\": [\n    \
                           {\"aggregate_sim_kcps\": 2.0, \"commit\": \"row0000\"}\n  ]\n}\n";
        assert!(roll_history(Some(nested_only)).is_empty());
        let doc = nested_only.replace("\n}\n", ",\n  \"aggregate_sim_kcps\": 4.0\n}\n");
        let h = roll_history(Some(&doc));
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].contains("\"aggregate_sim_kcps\": 4.0"), "{}", h[0]);
        assert!(h[0].contains("\"commit\": \"unknown\""), "{}", h[0]);
    }
}
