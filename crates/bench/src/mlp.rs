//! `remap bench mlp`: the memory-level-parallelism ablation.
//!
//! Runs each workload configuration twice — once with the non-blocking
//! hierarchy (MSHRs, stride/next-line prefetch, memory-controller queue)
//! and once with the blocking reference model (`System::set_mlp(false)`)
//! — and reports the simulated
//! cycle delta together with the MLP counters from the run report. The
//! per-workload rows are spliced into `BENCH_simperf.json` as an `"mlp"`
//! section so the throughput baseline and the ablation live in one
//! artifact.
//!
//! The configurations marked *memory-bound* gate CI: a run where they show
//! zero hits-under-miss or an undefined prefetch accuracy means the MLP
//! machinery silently disengaged, and the target fails.

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

/// Renders the rows as the `"mlp"` JSON section body (the array only).
fn rows_json(rows: &[Row]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"config\": \"{}\", \"blocking_cycles\": {}, \"mlp_cycles\": {}, \
             \"reduction_pct\": {:.2}, \"mshr_hits_under_miss\": {}, \"mshr_merges\": {}, \
             \"prefetch_issued\": {}, \"prefetch_useful\": {}, \"prefetch_late\": {}, \
             \"mc_queue_peak\": {} }}{}\n",
            r.name,
            r.blocking_cycles,
            r.mlp_cycles,
            r.reduction_pct(),
            r.mlp.mshr_hits_under_miss,
            r.mlp.mshr_merges,
            r.mlp.prefetch_issued,
            r.mlp.prefetch_useful,
            r.mlp.prefetch_late,
            r.mlp.mc_queue_peak,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]");
    s
}

/// Splices an `"mlp"` section into an existing `BENCH_simperf.json`
/// (replacing any previous section), or builds a standalone document when
/// the baseline file does not exist yet. `remap bench simperf` rewrites
/// the whole file without the section; running `mlp` afterwards re-adds it.
fn splice_mlp(existing: Option<&str>, section_body: &str) -> String {
    let base = existing.and_then(|doc| {
        // A previous section starts at the separator before its key.
        let cut = match doc.find(",\n  \"mlp\":") {
            Some(i) => i,
            None => doc.rfind('}')?,
        };
        let head = doc[..cut].trim_end();
        if head.is_empty() {
            None
        } else {
            Some(head.to_string())
        }
    });
    match base {
        Some(head) => format!("{head},\n  \"mlp\": {section_body}\n}}\n"),
        None => format!("{{\n  \"mlp\": {section_body}\n}}\n"),
    }
}

/// Runs the ablation, prints the table, enforces the CI gates, and splices
/// the results into `path`.
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

    let existing = std::fs::read_to_string(path).ok();
    let doc = splice_mlp(existing.as_deref(), &rows_json(&rows));
    match std::fs::write(path, doc) {
        Ok(()) => println!("spliced mlp section into {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_appends_to_a_simperf_document() {
        let doc = "{\n  \"jobs\": 2,\n  \"records\": [\n    { }\n  ]\n}\n";
        let out = splice_mlp(Some(doc), "[\n  ]");
        assert!(out.contains("\"jobs\": 2"), "baseline preserved: {out}");
        assert!(
            out.ends_with("\"mlp\": [\n  ]\n}\n"),
            "section appended: {out}"
        );
    }

    #[test]
    fn splice_replaces_a_previous_section() {
        let doc = "{\n  \"jobs\": 2,\n  \"mlp\": [\n    { \"old\": 1 }\n  ]\n}\n";
        let out = splice_mlp(Some(doc), "[\n  ]");
        assert!(!out.contains("old"), "stale section dropped: {out}");
        assert_eq!(out.matches("\"mlp\"").count(), 1);
    }

    #[test]
    fn splice_without_a_baseline_is_standalone() {
        let out = splice_mlp(None, "[\n  ]");
        assert!(out.starts_with("{\n  \"mlp\":"));
        assert!(out.ends_with("\n}\n"));
    }

    #[test]
    fn grid_marks_memory_bound_configs() {
        let g = grid();
        assert!(g.iter().filter(|c| c.memory_bound).count() >= 2);
        assert_eq!(g.len(), CompBench::ALL.len() + 2);
    }
}
