//! `remap` — command-line driver for the ReMAP reproduction.
//!
//! ```text
//! remap list                         # benchmarks and modes
//! remap run hmmer compcomm 2048      # one validated run with stats
//! remap run dijkstra barrier+comp:8 120
//! remap sweep ll3 barrier:8 32 64 128 256
//! remap table1                       # Table I
//! ```

use remap_bench::json::{self, Json};
use remap_workloads::barriers::BarrierBench;
use remap_workloads::catalog::{self, mode_spellings};
use remap_workloads::comm::CommBench;
use remap_workloads::comp::CompBench;
use remap_workloads::{Measurement, Workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("table1") => {
            remap_bench::figures::table1(1);
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("verify") => return cmd_verify(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `remap help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("remap — cycle-level simulator of the ReMAP architecture (MICRO 2010)");
    println!();
    println!("usage:");
    println!("  remap list                          list benchmarks and modes");
    println!("  remap table1                        print Table I (relative area/power)");
    println!("  remap run <bench> <mode> [size]     run one validated workload");
    println!("      --checkpoint <file>  snapshot the run at least every --every cycles");
    println!("      --every <cycles>     checkpoint cadence (default 1000000)");
    println!("      --resume <file>      restore from a snapshot (or its .prev) first");
    println!("  remap sweep <bench> <mode> [sizes]  sweep a barrier workload");
    println!("  remap bench <target>                regenerate a paper figure (parallel sweep)");
    println!("  remap verify [bench] [options]      statically verify workload programs");
    println!("      --all             also check multi-cluster grids and faulted plans");
    println!("      --format <f>      output format: text (default) or json");
    println!("      --deny-warnings   exit nonzero on warnings, not just errors");
    println!();
    let [comp, comm, barrier] = mode_spellings();
    println!("modes (computation benchmarks): {}", comp.join(", "));
    println!("modes (communication benchmarks): {}", comm.join(", "));
    println!("modes (barrier benchmarks): {}", barrier.join(", "));
}

fn cmd_list() -> Result<(), String> {
    let [comp, comm, barrier] = mode_spellings();
    let row = |name: &str, fraction: f64| {
        println!(
            "  {name:<12} ({:.0}% of program execution)",
            fraction * 100.0
        )
    };
    println!("computation-only benchmarks (modes: {}):", comp.join(" "));
    for b in CompBench::ALL {
        row(b.name(), b.exec_fraction());
    }
    println!("communication benchmarks (modes: {}):", comm.join(" "));
    for b in CommBench::ALL {
        row(b.name(), b.exec_fraction());
    }
    println!("barrier benchmarks (modes: {}):", barrier.join(" "));
    for b in BarrierBench::ALL {
        let comp = if b.supports_comp() {
            " (+comp variant)"
        } else {
            ""
        };
        println!("  {}{comp}", b.name());
    }
    Ok(())
}

/// Parsed `remap run` arguments beyond `<bench> <mode>`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunOpts {
    n: Option<usize>,
    /// Write a snapshot here at least every `every` simulated cycles.
    checkpoint: Option<std::path::PathBuf>,
    every: u64,
    /// Restore from this snapshot (or its `.prev` generation) before running.
    resume: Option<std::path::PathBuf>,
}

const RUN_USAGE: &str = "usage: remap run <bench> <mode> [size] \
    [--checkpoint <file>] [--every <cycles>] [--resume <file>]";

/// Default checkpoint cadence in simulated cycles when `--every` is omitted.
const DEFAULT_CKPT_EVERY: u64 = 1_000_000;

fn parse_run_opts(rest: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        n: None,
        checkpoint: None,
        every: DEFAULT_CKPT_EVERY,
        resume: None,
    };
    let mut every = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--checkpoint" => match it.next() {
                Some(p) => o.checkpoint = Some(p.into()),
                None => return Err("--checkpoint needs a file".into()),
            },
            "--every" => match it.next() {
                Some(v) => {
                    every = Some(v.parse::<u64>().ok().filter(|&e| e > 0).ok_or_else(|| {
                        format!("--every needs a positive cycle count, got `{v}`")
                    })?)
                }
                None => return Err("--every needs a cycle count".into()),
            },
            "--resume" => match it.next() {
                Some(p) => o.resume = Some(p.into()),
                None => return Err("--resume needs a file".into()),
            },
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{RUN_USAGE}"))
            }
            s => {
                if o.n.is_some() {
                    return Err("at most one size argument".into());
                }
                o.n = Some(s.parse().map_err(|_| format!("bad size `{s}`"))?);
            }
        }
    }
    if let Some(e) = every {
        if o.checkpoint.is_none() {
            return Err(format!("--every needs --checkpoint\n{RUN_USAGE}"));
        }
        o.every = e;
    }
    Ok(o)
}

/// Runs `w` at size `n` under the `remap run` options and validates it:
/// optional `--resume` restore, a run (checkpointed under
/// `--checkpoint`), then the same validation and measurement every bench
/// run goes through.
fn run_with_opts(w: Workload, n: usize, opts: &RunOpts) -> Result<Measurement, String> {
    let mut sys = w.build(n);
    if let Some(path) = &opts.resume {
        let snap = remap::Snapshot::read_with_fallback(path).map_err(|e| e.to_string())?;
        sys.restore(&snap).map_err(|e| e.to_string())?;
        println!("resumed from {} at cycle {}", path.display(), sys.cycle());
    }
    let report = match &opts.checkpoint {
        Some(path) => sys.run_with_checkpoints(w.max_cycles(), opts.every, path),
        None => sys.run(w.max_cycles()),
    }
    .map_err(|e| e.to_string())?;
    remap_workloads::measure_checked(&sys, &report, |s| w.check(s, n))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let [bench, mode, rest @ ..] = args else {
        return Err(RUN_USAGE.into());
    };
    let opts = parse_run_opts(rest)?;
    let w = Workload::parse(bench, mode)?;
    let n = opts.n.unwrap_or(match w {
        Workload::Barrier(BarrierBench::Dijkstra, _) => 120,
        Workload::Barrier(..) => 128,
        _ => 2048,
    });
    w.check_shape(n)?;
    let meas = run_with_opts(w, n, &opts)
        .map_err(|e| format!("{} [{}] n={n}: {e}", w.bench_name(), w.mode_label()))?;
    println!("{} [{mode}] n={n}: validated OK", w.bench_name());
    println!("  cycles       {}", meas.cycles);
    println!("  instructions {}", meas.committed);
    println!(
        "  IPC          {:.3}",
        meas.committed as f64 / meas.cycles as f64
    );
    println!("  energy       {:.3} uJ", meas.energy_pj / 1e6);
    println!("  energy*delay {:.3e} pJ*cycles", meas.ed());
    if let Workload::Barrier(b, _) = w {
        println!(
            "  per-iteration {:.0} cycles ({} iterations)",
            meas.cycles as f64 / b.iterations(n) as f64,
            b.iterations(n)
        );
    }
    Ok(())
}

/// A `remap bench` figure target: name and report function taking the job
/// count.
type BenchTarget = (&'static str, fn(usize));

/// Figure and table targets of `remap bench`, in help order.
const BENCH_TARGETS: [BenchTarget; 13] = [
    ("table1", remap_bench::figures::table1),
    ("fig08", remap_bench::figures::fig08),
    ("fig09", remap_bench::figures::fig09),
    ("fig10", remap_bench::figures::fig10),
    ("fig11", remap_bench::figures::fig11),
    ("fig12", remap_bench::figures::fig12),
    ("fig13", remap_bench::figures::fig13),
    ("fig14", remap_bench::figures::fig14),
    ("sw_queues", remap_bench::figures::sw_queues),
    ("homogeneous", remap_bench::figures::homogeneous),
    (
        "ablation_partition",
        remap_bench::figures::ablation_partition,
    ),
    ("ablation_virtual", remap_bench::figures::ablation_virtual),
    ("smoke", remap_bench::figures::smoke),
];

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let jobs = remap_bench::runner::jobs();
    let usage = || {
        let names: Vec<&str> = BENCH_TARGETS
            .iter()
            .map(|(n, _)| *n)
            .chain(["simperf", "faultsweep", "mlp", "scaling", "all"])
            .collect();
        format!(
            "usage: remap bench <target>\ntargets: {}\n(job count: REMAP_JOBS, currently {jobs})",
            names.join(" ")
        )
    };
    let [target] = args else {
        return Err(usage());
    };
    match target.as_str() {
        "simperf" => remap_bench::simperf::report(jobs, "BENCH_simperf.json"),
        "faultsweep" => remap_bench::faultsweep::report(jobs, "BENCH_faultsweep.json"),
        "mlp" => remap_bench::mlp::report(jobs, "BENCH_mlp.json"),
        "scaling" => remap_bench::scaling::report(jobs, "BENCH_scaling.json"),
        "all" => {
            for (_, f) in BENCH_TARGETS.iter().filter(|(n, _)| *n != "smoke") {
                f(jobs);
            }
            remap_bench::faultsweep::report(jobs, "BENCH_faultsweep.json")?;
            remap_bench::simperf::report(jobs, "BENCH_simperf.json")?;
            remap_bench::mlp::report(jobs, "BENCH_mlp.json")?;
            remap_bench::scaling::report(jobs, "BENCH_scaling.json")
        }
        name => match BENCH_TARGETS.iter().find(|(n, _)| *n == name) {
            Some((_, f)) => {
                f(jobs);
                Ok(())
            }
            None => Err(format!("unknown bench target `{name}`\n{}", usage())),
        },
    }
}

/// `remap verify` output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyFormat {
    Text,
    Json,
}

/// Parsed `remap verify` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VerifyArgs {
    filter: Option<String>,
    format: VerifyFormat,
    deny_warnings: bool,
    all: bool,
}

const VERIFY_USAGE: &str =
    "usage: remap verify [bench] [--all] [--format text|json] [--deny-warnings]";

fn parse_verify_args(args: &[String]) -> Result<VerifyArgs, String> {
    let mut parsed = VerifyArgs {
        filter: None,
        format: VerifyFormat::Text,
        deny_warnings: false,
        all: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => parsed.format = VerifyFormat::Text,
                Some("json") => parsed.format = VerifyFormat::Json,
                Some(other) => {
                    return Err(format!("--format takes `text` or `json`, got `{other}`"))
                }
                None => return Err("--format needs a value".into()),
            },
            "--deny-warnings" => parsed.deny_warnings = true,
            "--all" => parsed.all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            bench => {
                if parsed.filter.is_some() {
                    return Err("at most one benchmark filter".into());
                }
                parsed.filter = Some(bench.to_string());
            }
        }
    }
    Ok(parsed)
}

/// Statically verifies workload configurations. Exit codes: 0 all clean,
/// 1 findings (errors always; warnings only under `--deny-warnings`),
/// 2 usage error.
fn cmd_verify(args: &[String]) -> ExitCode {
    let parsed = match parse_verify_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{VERIFY_USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut targets: Vec<(String, remap::System)> = catalog::canonical()
        .into_iter()
        .map(|(w, n)| (w.to_string(), w.build(n)))
        .collect();
    if parsed.all {
        targets.extend(catalog::extended());
    }
    if let Some(f) = &parsed.filter {
        let prefix = format!("{} [", f.to_ascii_lowercase());
        targets.retain(|(label, _)| label.to_ascii_lowercase().starts_with(&prefix));
        if targets.is_empty() {
            eprintln!("error: unknown benchmark `{f}` (try `remap list`)");
            return ExitCode::from(2);
        }
    }
    let total = targets.len();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut dirty = 0usize;
    let mut json_items: Vec<Json> = Vec::new();
    for (label, sys) in &targets {
        let diags = sys.verify();
        for d in &diags {
            match d.severity {
                remap_verify::Severity::Error => errors += 1,
                remap_verify::Severity::Warning => warnings += 1,
            }
        }
        match parsed.format {
            VerifyFormat::Json => {
                json_items.extend(diags.iter().map(|d| diag_json(label, d)));
            }
            VerifyFormat::Text => {
                if diags.is_empty() {
                    println!("{label:<24} clean");
                } else {
                    println!("{label:<24} {} finding(s):", diags.len());
                    print!("{}", remap_verify::render(&diags));
                }
            }
        }
        if !diags.is_empty() {
            dirty += 1;
        }
    }
    if parsed.format == VerifyFormat::Json {
        print!("{}", json::render(&Json::Arr(json_items)));
    }
    let fail = errors > 0 || (parsed.deny_warnings && warnings > 0);
    if fail {
        eprintln!(
            "{dirty} of {total} configurations have findings \
             ({errors} error(s), {warnings} warning(s))"
        );
        ExitCode::from(1)
    } else {
        if parsed.format == VerifyFormat::Text {
            if dirty == 0 {
                println!("all {total} workload configurations verify clean");
            } else {
                println!(
                    "{dirty} of {total} configurations have warnings \
                     (pass --deny-warnings to fail on them)"
                );
            }
        }
        ExitCode::SUCCESS
    }
}

/// One `remap verify --format json` finding, led by the workload config
/// it was found in.
fn diag_json(config: &str, d: &remap_verify::Diagnostic) -> Json {
    Json::obj([
        ("config", config.into()),
        ("code", d.code.id().into()),
        ("severity", Json::Str(d.severity.to_string())),
        ("core", d.core.into()),
        ("program", d.program.as_str().into()),
        ("pc", d.pc.into()),
        ("message", d.message.as_str().into()),
    ])
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let [bench, mode, sizes @ ..] = args else {
        return Err("usage: remap sweep <barrier-bench> <mode> [sizes...]".into());
    };
    let w = Workload::parse(bench, mode)?;
    let Workload::Barrier(b, _) = w else {
        return Err(format!("unknown barrier benchmark `{bench}`"));
    };
    let sizes: Vec<usize> = if sizes.is_empty() {
        b.sweep_sizes()
    } else {
        sizes
            .iter()
            .map(|s| s.parse().map_err(|_| format!("bad size `{s}`")))
            .collect::<Result<_, _>>()?
    };
    for &n in &sizes {
        w.check_shape(n)?;
    }
    println!("{} [{}]:", b.name(), mode);
    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "size", "cycles", "cycles/iter", "ED (pJ*cyc)"
    );
    for n in sizes {
        let meas = w.run(n)?;
        println!(
            "{:<10} {:>12} {:>14.0} {:>14.3e}",
            n,
            meas.cycles,
            meas.cycles as f64 / b.iterations(n) as f64,
            meas.ed()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_arg_parsing() {
        let ok = |v: &[&str]| {
            parse_verify_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        let err = |v: &[&str]| {
            parse_verify_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        assert_eq!(
            ok(&[]),
            VerifyArgs {
                filter: None,
                format: VerifyFormat::Text,
                deny_warnings: false,
                all: false
            }
        );
        let p = ok(&["wc", "--format", "json", "--deny-warnings", "--all"]);
        assert_eq!(p.filter.as_deref(), Some("wc"));
        assert_eq!(p.format, VerifyFormat::Json);
        assert!(p.deny_warnings && p.all);
        assert!(err(&["--format"]).contains("needs a value"));
        assert!(err(&["--format", "yaml"]).contains("yaml"));
        assert!(err(&["--nope"]).contains("--nope"));
        assert!(err(&["a", "b"]).contains("at most one"));
    }

    #[test]
    fn verify_json_escapes_and_keeps_field_order() {
        let d = remap_verify::Diagnostic {
            code: remap_verify::Code::Rv016QueueOverflow,
            severity: remap_verify::Severity::Warning,
            core: Some(0),
            program: "p\"q".into(),
            pc: None,
            message: "line1\nline2".into(),
        };
        assert_eq!(
            diag_json("wc [2Th+Comm]", &d).to_string(),
            "{\"config\": \"wc [2Th+Comm]\", \"code\": \"RV016\", \"severity\": \"warning\", \
             \"core\": 0, \"program\": \"p\\\"q\", \"pc\": null, \"message\": \"line1\\nline2\"}"
        );
    }

    #[test]
    fn run_opts_parsing() {
        let ok = |v: &[&str]| {
            parse_run_opts(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        let err = |v: &[&str]| {
            parse_run_opts(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        let p = ok(&[]);
        assert_eq!(p.n, None);
        assert!(p.checkpoint.is_none() && p.resume.is_none());
        assert_eq!(p.every, DEFAULT_CKPT_EVERY);
        let p = ok(&[
            "64",
            "--checkpoint",
            "c.snap",
            "--every",
            "5000",
            "--resume",
            "r.snap",
        ]);
        assert_eq!(p.n, Some(64));
        assert_eq!(
            p.checkpoint.as_deref(),
            Some(std::path::Path::new("c.snap"))
        );
        assert_eq!(p.every, 5000);
        assert_eq!(p.resume.as_deref(), Some(std::path::Path::new("r.snap")));
        assert!(err(&["--checkpoint"]).contains("needs a file"));
        assert!(err(&["--every", "0"]).contains("positive"));
        assert!(err(&["--every", "x"]).contains('x'));
        assert!(err(&["--bogus"]).contains("--bogus"));
        assert!(err(&["1", "2"]).contains("at most one"));
    }

    #[test]
    fn run_command_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("remap-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("wc.snap");
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A tight cadence guarantees at least one snapshot lands on disk.
        cmd_run(&s(&[
            "wc",
            "seq",
            "64",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--every",
            "500",
        ]))
        .expect("checkpointed run validates");
        assert!(ckpt.exists(), "a checkpoint file was written");
        // Resuming from the final snapshot must re-validate cleanly.
        cmd_run(&s(&["wc", "seq", "64", "--resume", ckpt.to_str().unwrap()]))
            .expect("resumed run validates");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_command_refuses_foreign_snapshot() {
        let dir = std::env::temp_dir().join(format!("remap-cli-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("wc.snap");
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        cmd_run(&s(&[
            "wc",
            "seq",
            "64",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--every",
            "500",
        ]))
        .unwrap();
        // A different size is a different configuration: refuse the snapshot.
        let e = cmd_run(&s(&[
            "wc",
            "seq",
            "128",
            "--resume",
            ckpt.to_str().unwrap(),
        ]))
        .expect_err("foreign snapshot must be refused");
        assert!(e.contains("snapshot"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_command_rejects_unknown_benchmark() {
        let args: Vec<String> = vec!["nope".into(), "seq".into()];
        assert!(cmd_run(&args).is_err());
    }

    #[test]
    fn run_command_rejects_every_without_checkpoint() {
        let args: Vec<String> = ["wc", "seq", "64", "--every", "500"]
            .map(String::from)
            .to_vec();
        let e = cmd_run(&args).expect_err("--every alone would be ignored");
        assert!(e.contains("--checkpoint"), "{e}");
    }

    #[test]
    fn run_command_executes_small_workload() {
        let args: Vec<String> = vec!["wc".into(), "seq".into(), "64".into()];
        cmd_run(&args).expect("wc seq runs and validates");
    }

    #[test]
    fn bench_command_rejects_unknown_target() {
        let args: Vec<String> = vec!["fig99".into()];
        let err = cmd_bench(&args).expect_err("fig99 is not a target");
        assert!(err.contains("fig99"));
        assert!(err.contains("fig08"), "usage lists valid targets");
        assert!(cmd_bench(&[]).is_err(), "missing target is an error");
    }

    #[test]
    fn sweep_command_executes() {
        let args: Vec<String> = vec!["ll3".into(), "barrier:2".into(), "32".into()];
        cmd_sweep(&args).expect("ll3 sweep runs");
    }

    #[test]
    fn table1_and_list_do_not_error() {
        remap_bench::figures::table1(1);
        cmd_list().unwrap();
    }
}
