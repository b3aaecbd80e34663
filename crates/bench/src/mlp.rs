//! `remap bench mlp`: the memory-level-parallelism ablation.
//!
//! Runs each workload configuration twice — once with the non-blocking
//! hierarchy (MSHRs, stride/next-line prefetch, memory-controller queue)
//! and once with the blocking reference model (`System::set_mlp(false)`)
//! — and reports the simulated
//! cycle delta together with the MLP counters from the run report. The
//! per-workload rows are written to their own `BENCH_mlp.json`. They hold
//! simulated counts only, no host timings, so a rerun reproduces the file
//! byte for byte and CI compares it with the checked-in copy.
//!
//! The configurations marked *memory-bound* gate CI: a run where they show
//! zero hits-under-miss or an undefined prefetch accuracy means the MLP
//! machinery silently disengaged, and the target fails.

use crate::json::{self, Json, Json::Fixed};
use crate::sweep::{self, SweepOpts};
use remap_workloads::comp::CompBench;
use remap_workloads::CompMode;
use std::ops::ControlFlow;

/// Generous per-run bound; these workloads finish in well under a million.
const MAX_CYCLES: u64 = 50_000_000;

/// Problem size: large enough that the streaming kernels walk well past
/// every cache level and the miss stream dominates.
const N: usize = 256;

/// One ablation configuration.
#[derive(Debug, Clone, Copy)]
struct Config {
    bench: CompBench,
    mode: CompMode,
    /// Streams through memory hard enough that CI asserts the MLP
    /// machinery visibly engaged (hits under miss, defined accuracy).
    memory_bound: bool,
}

/// The ablation grid: every computation kernel on the narrow core (where
/// miss latency is least hidden by the window), plus the two GSM streaming
/// kernels on the wide core.
fn grid() -> Vec<Config> {
    let mut v: Vec<Config> = CompBench::ALL
        .into_iter()
        .map(|bench| Config {
            bench,
            mode: CompMode::SeqOoo1,
            memory_bound: matches!(
                bench,
                CompBench::GsmToast | CompBench::GsmUntoast | CompBench::Mpeg2Enc
            ),
        })
        .collect();
    for bench in [CompBench::GsmToast, CompBench::GsmUntoast] {
        v.push(Config {
            bench,
            mode: CompMode::SeqOoo2,
            memory_bound: false,
        });
    }
    v
}

/// One measured row of the ablation.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    blocking_cycles: u64,
    mlp_cycles: u64,
    mlp: remap_mem::MlpStats,
}

impl Row {
    /// Simulated-cycle reduction of the non-blocking model, in percent.
    fn reduction_pct(&self) -> f64 {
        (1.0 - self.mlp_cycles as f64 / self.blocking_cycles as f64) * 100.0
    }
}

fn run_one(cfg: &Config) -> Row {
    let run = |nonblocking: bool| {
        let mut sys = cfg.bench.build(cfg.mode, N);
        sys.set_mlp(nonblocking);
        sys.run(MAX_CYCLES).unwrap_or_else(|e| {
            panic!(
                "{}/{:?} (mlp {}) failed: {e}",
                cfg.bench.name(),
                cfg.mode,
                nonblocking
            )
        })
    };
    let blocking = run(false);
    let mlp = run(true);
    assert_eq!(
        blocking.total_committed(),
        mlp.total_committed(),
        "{}/{:?}: the MLP model changed architectural behaviour",
        cfg.bench.name(),
        cfg.mode
    );
    Row {
        name: format!("{}/{:?}", cfg.bench.name(), cfg.mode),
        blocking_cycles: blocking.cycles,
        mlp_cycles: mlp.cycles,
        mlp: mlp.mlp,
    }
}

/// The `BENCH_mlp.json` document: the problem size and one object per row.
fn doc_json(rows: &[Row]) -> String {
    let row = |r: &Row| {
        Json::obj([
            ("config", r.name.as_str().into()),
            ("blocking_cycles", r.blocking_cycles.into()),
            ("mlp_cycles", r.mlp_cycles.into()),
            ("reduction_pct", Fixed(r.reduction_pct(), 2)),
            ("mshr_hits_under_miss", r.mlp.mshr_hits_under_miss.into()),
            ("mshr_merges", r.mlp.mshr_merges.into()),
            ("prefetch_issued", r.mlp.prefetch_issued.into()),
            ("prefetch_useful", r.mlp.prefetch_useful.into()),
            ("prefetch_late", r.mlp.prefetch_late.into()),
            ("mc_queue_peak", r.mlp.mc_queue_peak.into()),
        ])
    };
    json::render(&Json::obj([
        ("n", N.into()),
        ("configs", Json::Arr(rows.iter().map(row).collect())),
    ]))
}

/// Runs the ablation, prints the table, enforces the CI gates, and writes
/// the results to `path`.
pub fn report(jobs: usize, path: &str) -> Result<(), String> {
    crate::banner(
        "mlp",
        "non-blocking memory ablation (MSHRs + prefetch + MC)",
    );
    let grid = grid();
    println!(
        "{:<24} {:>12} {:>12} {:>8} {:>10} {:>8} {:>9} {:>8} {:>6} {:>8}",
        "config",
        "blocking",
        "mlp",
        "cut%",
        "hits-u-m",
        "merges",
        "pf-issue",
        "pf-use",
        "pf-lt",
        "mc-peak"
    );
    // Rows stream through the ordered marshaller: each prints the moment
    // the head of line completes instead of after the full sweep joins.
    let mut rows: Vec<Row> = Vec::with_capacity(grid.len());
    sweep::stream(
        SweepOpts::new(jobs),
        &grid,
        |_, c, _| run_one(c),
        |_, mut batch| {
            let r = batch.pop().expect("one rep per config");
            println!(
                "{:<24} {:>12} {:>12} {:>7.1}% {:>10} {:>8} {:>9} {:>8} {:>6} {:>8}",
                r.name,
                r.blocking_cycles,
                r.mlp_cycles,
                r.reduction_pct(),
                r.mlp.mshr_hits_under_miss,
                r.mlp.mshr_merges,
                r.mlp.prefetch_issued,
                r.mlp.prefetch_useful,
                r.mlp.prefetch_late,
                r.mlp.mc_queue_peak
            );
            rows.push(r);
            ControlFlow::Continue(())
        },
    );
    let big_wins = rows.iter().filter(|r| r.reduction_pct() >= 10.0).count();
    println!();
    println!(
        "{big_wins}/{} configs gain >= 10% simulated cycles from the non-blocking hierarchy",
        rows.len()
    );

    // CI gates: on the memory-bound configs the machinery must visibly
    // engage — some access must have hit under an outstanding miss, and
    // the prefetcher must have issued something (accuracy defined).
    let mut failures = Vec::new();
    for (cfg, row) in grid.iter().zip(rows.iter()) {
        if !cfg.memory_bound {
            continue;
        }
        if row.mlp.mshr_hits_under_miss == 0 {
            failures.push(format!("{}: mshr_hits_under_miss == 0", row.name));
        }
        if row.mlp.prefetch_accuracy().is_nan() {
            failures.push(format!("{}: prefetch accuracy is NaN", row.name));
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "mlp ablation failed on memory-bound configs:\n  {}",
            failures.join("\n  ")
        ));
    }
    crate::write_report(path, &doc_json(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_marks_memory_bound_configs() {
        let g = grid();
        assert!(g.iter().filter(|c| c.memory_bound).count() >= 2);
        assert_eq!(g.len(), CompBench::ALL.len() + 2);
    }
}
