//! Host-time benchmark of the ReMAP simulator.
//!
//! ```text
//! remap-perfbench --workload <region-sweep|grid-barrier|ckpt-resume>
//!                 --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One closed loop, one thread: a warm-up pass runs every configuration of
//! the workload uninterrupted to fix its reference result, then timed
//! passes (each in a seeded order) repeat until `--seconds` have elapsed.
//! Every op is validated. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes and prints the
//! per-layer metrics. The last line of stdout is the result object. See
//! `README.md` in this directory.

mod alloc;
mod exec;
mod report;
mod trace;
mod workload;

use exec::{Ctx, Reference, Tracer};
use report::{Pass, Summary};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trace::{Spans, StepHists};
use workload::{Rng, Workload, MAX_CYCLES};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// A private scratch directory for snapshot files, unique per context so
/// parallel tests never share one.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    repo_root()
        .join(".perfbench")
        .join(format!("tmp-{}-{n}", std::process::id()))
}

/// On-CPU and run-queue-wait seconds of this thread so far, from
/// `/proc/thread-self/schedstat`; zeros where unavailable.
fn schedstat() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0) as f64 / 1e9);
    (it.next().unwrap_or(0.0), it.next().unwrap_or(0.0))
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where unavailable.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of a git checkout, if the sources are one.
fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a over the simulator's manifests and Rust sources, so a result
/// names the code it measured even outside a git checkout.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What one run produced.
struct Outcome {
    summary: Summary,
    attempted: usize,
    errors: Vec<String>,
}

/// Warm-up, timed passes, and the checkpoint probe of one workload.
fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let configs = w.configs();
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    let mut ctx = Ctx {
        seed: args.seed,
        plan: w.fault_plan(args.seed),
        cut: w == Workload::CkptResume,
        snap_path: dir.join("ckpt.snap"),
        tracer: args.trace.then(|| Tracer {
            hists: StepHists::default(),
            spans: Spans::new(Instant::now()),
        }),
    };
    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut record = |error: &Option<String>| {
        attempted += 1;
        errors.extend(error.clone());
    };

    // Warm-up: the uninterrupted, untraced reference of every config.
    let refs: Vec<Reference> = configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let op = ctx.run_op(i, cfg, None, 0, false);
            record(&op.error);
            Reference {
                cycles: op.counts.cycles,
                committed: op.counts.committed,
            }
        })
        .collect();
    // The probe's halted system, round-tripped after every pass and once
    // here to warm the snapshot path.
    let probe = w.probe().and_then(|cfg| {
        let mut sys = cfg.build();
        let error = sys
            .run(MAX_CYCLES)
            .err()
            .map(|e| format!("{}: {e}", cfg.label()));
        record(&error);
        error.is_none().then_some((cfg, sys))
    });
    if let Some((cfg, sys)) = &probe {
        for _ in 0..w.probe_round_trips() {
            record(&ctx.probe(cfg, sys, 0, false).error);
        }
    }

    let mut rng = Rng::new(args.seed);
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let mut order: Vec<usize> = (0..configs.len()).collect();
        rng.shuffle(&mut order);
        let (cpu0, wait0) = schedstat();
        let t = Instant::now();
        let mut pass = Pass::new(traced, configs.len());
        for &i in &order {
            let t = Instant::now();
            let op = ctx.run_op(i, &configs[i], Some(refs[i]), passes.len() + 1, traced);
            pass.add(i, &op, t.elapsed().as_secs_f64());
            record(&op.error);
        }
        pass.wall_s = t.elapsed().as_secs_f64();
        let (cpu1, wait1) = schedstat();
        (pass.on_cpu_s, pass.runq_wait_s) = (cpu1 - cpu0, wait1 - wait0);
        if let Some((cfg, sys)) = &probe {
            for _ in 0..w.probe_round_trips() {
                let op = ctx.probe(cfg, sys, passes.len() + 1, traced);
                record(&op.error);
                pass.add_probe(&op);
            }
        }
        passes.push(pass);
        // At least two passes: a best of several, and in trace mode both
        // kinds.
        if passes.len() >= 2 && start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }

    let _ = std::fs::remove_dir_all(&dir);

    let mut summary = Summary {
        passes,
        hists: StepHists::default(),
        peak_heap_mb: alloc::peak_bytes() as f64 / (1 << 20) as f64,
    };
    if let Some(t) = ctx.tracer {
        summary.hists = t.hists;
        let header = provenance(args, &summary);
        let path = repo_root().join(".perfbench").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = t.spans.write_jsonl(&path, &header) {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        }
    }
    Outcome {
        summary,
        attempted,
        errors,
    }
}

/// One JSON line recording what produced a result.
fn provenance(args: &Args, s: &Summary) -> String {
    let root = repo_root();
    let list = |f: &dyn Fn(&Pass) -> f64| {
        let v: Vec<String> = s.passes.iter().map(|p| format!("{:.4}", f(p))).collect();
        v.join(",")
    };
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"source_fnv\": \"{:016x}\", \"nproc\": {}, \"passes\": {}, \
         \"traced_passes\": {}, \"host_time\": \"wall clock (std::time::Instant)\", \
         \"vm_hwm_mb\": {:.2}, \"pass_wall_s\": [{}], \"pass_on_cpu_s\": [{}], \
         \"pass_runq_wait_s\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(&root).unwrap_or_else(|| "unknown".to_string()),
        source_fingerprint(&root),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        s.passes.len(),
        s.passes.iter().filter(|p| p.traced).count(),
        vm_hwm_mb(),
        list(&|p| p.wall_s),
        list(&|p| p.on_cpu_s),
        list(&|p| p.runq_wait_s),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: remap-perfbench --workload <region-sweep|grid-barrier|ckpt-resume> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Measure the simulator's defaults: its `REMAP_*` knobs (skip engine,
    // MLP and directory models, checkpoint cadence) are read from the
    // environment inside the library.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("REMAP_") {
            std::env::remove_var(&k);
        }
    }

    let out = run(&args);
    let s = &out.summary;
    for e in out.errors.iter().take(10) {
        eprintln!("op failed: {e}");
    }
    println!("{}", provenance(&args, s));
    let (table, values) = if args.trace {
        let skipped = |traced: bool| {
            s.passes
                .iter()
                .find(|p| p.traced == traced)
                .map_or(0, |p| p.counts.skipped_cycles)
        };
        println!(
            "note: skipped cycles per pass {} untraced (System::run, run_until), {} under \
             the traced step_or_skip loop, which probes without run's backoff",
            skipped(false),
            skipped(true)
        );
        (report::PER_LAYER, s.per_layer())
    } else {
        (report::END_TO_END, s.end_to_end())
    };
    let metrics = report::with_units(table, &values);
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let failed = out.errors.len();
    println!("ops {}", out.attempted);
    println!("ops_failed {failed}");
    println!(
        "{}",
        report::result_json(failed == 0, out.attempted, failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> = "--workload grid-barrier --seed 3 --seconds 5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload, Workload::GridBarrier);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5, true));
        for bad in [
            "--workload nope",
            "--workload grid-barrier --trace 2",
            "--seed",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }

    /// Metric names are well-formed, unique, and exactly the ones
    /// `BENCHMARK.json` declares, with the same units and directions.
    #[test]
    fn metric_names_match_benchmark_json() {
        let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let all: Vec<_> = report::END_TO_END.iter().chain(report::PER_LAYER).collect();
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in &all {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            assert!(seen.insert(*name), "duplicate metric {name}");
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, all.len(), "BENCHMARK.json declares other metrics");
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    /// Two passes of the same run give identical exact counts, and every
    /// op validates.
    #[test]
    fn passes_repeat_exact_counts() {
        for w in Workload::ALL {
            let out = run(&args(w, false));
            assert!(out.errors.is_empty(), "{:?}", out.errors);
            let p = &out.summary.passes;
            assert!(p.len() >= 2, "{}: one pass only", w.name());
            assert_eq!(p[0].counts, p[1].counts, "{}", w.name());
            let names: Vec<_> = out.summary.end_to_end().iter().map(|m| m.0).collect();
            assert_eq!(names, names_of(report::END_TO_END));
        }
    }

    fn names_of(table: &[(&'static str, &'static str, &'static str)]) -> Vec<&'static str> {
        table.iter().map(|t| t.0).collect()
    }

    /// Traced passes reproduce the untraced cycles and committed counts;
    /// only skip accounting may differ.
    #[test]
    fn traced_and_untraced_counts_agree() {
        for w in Workload::ALL {
            let out = run(&args(w, true));
            assert!(out.errors.is_empty(), "{:?}", out.errors);
            let p = &out.summary.passes;
            let (u, t) = (&p[0], &p[1]);
            assert!(!u.traced && t.traced);
            assert_eq!(
                (u.counts.cycles, u.counts.committed),
                (t.counts.cycles, t.counts.committed),
                "{}",
                w.name()
            );
            assert!(out.summary.hists.step.count() > 0);
            let names: Vec<_> = out.summary.per_layer().iter().map(|m| m.0).collect();
            assert_eq!(names, names_of(report::PER_LAYER));
        }
    }

    #[test]
    fn ckpt_resume_makes_at_least_100_round_trips_per_pass() {
        let out = run(&args(Workload::CkptResume, false));
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        for p in &out.summary.passes {
            assert!(
                p.round_trips.len() >= 100,
                "{} round trips",
                p.round_trips.len()
            );
            assert!(p.counts.fault_injected > 0, "the fault plan never fired");
        }
    }
}
