//! Chaos sweep: deterministic fault injection over four workload
//! archetypes, written as machine-readable JSON (`BENCH_faultsweep.json`).
//!
//! Each archetype exercises one injection site of the fault model
//! (DESIGN.md §13) with a self-checking oracle:
//!
//! * `spl_affine` — SPL row output bit-flips against a compute function
//!   whose result feeds a checksum;
//! * `hwq_pipe` — hardware-queue drop/duplicate/delay against a
//!   producer→consumer sum;
//! * `spl_barrier` — barrier-release delay (and watchdog demotion)
//!   against an iterated fabric barrier;
//! * `mem_march` — L1/L2 line corruption against a write-then-read
//!   memory checksum.
//!
//! The grid crosses each archetype with injection rates and with
//! protection on (parity/CRC + sequence numbers) and off. Protected runs
//! must recover every fault (`silent == 0`) and still validate; an
//! unprotected run is *allowed* to mis-validate — that is the point — and
//! is recorded as `ok: false` data rather than a job failure. Every run
//! is seeded, so the emitted JSON is byte-identical across invocations
//! (wall-clock fields are deliberately excluded).

use crate::json::{self, Json};
use crate::runner::{self, JobFailure};
use crate::sweep::{stream_jsonl, JsonlOpts, SweepOpts};
use remap::{CoreKind, FaultPlan, RunError, SiteCfg, SystemBuilder};
use remap_isa::{Asm, Reg::*};
use remap_spl::{Dest, SplConfig, SplFunction};
use std::ops::ControlFlow;
use std::path::Path;

/// Seed of every plan in the sweep. Fixed so `BENCH_faultsweep.json` is
/// reproducible byte for byte; chaos comes from the hash stream, not the
/// host.
pub const SWEEP_SEED: u64 = 0xC0FFEE;

/// Injection rates of the grid, in parts per million of eligible events.
pub const RATES_PPM: [u32; 3] = [0, 50_000, 200_000];

/// The four workload archetypes, one per injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archetype {
    /// SPL compute checksum (site: SPL row output bit-flip).
    SplAffine,
    /// Producer→consumer sum (site: hwqueue drop/duplicate/delay).
    HwqPipe,
    /// Iterated fabric barrier (site: barrier-release delay).
    SplBarrier,
    /// Write-then-read checksum (site: cache line corruption).
    MemMarch,
}

impl Archetype {
    /// All archetypes, in report order.
    pub const ALL: [Archetype; 4] = [
        Archetype::SplAffine,
        Archetype::HwqPipe,
        Archetype::SplBarrier,
        Archetype::MemMarch,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Archetype::SplAffine => "spl_affine",
            Archetype::HwqPipe => "hwq_pipe",
            Archetype::SplBarrier => "spl_barrier",
            Archetype::MemMarch => "mem_march",
        }
    }
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Workload archetype.
    pub archetype: Archetype,
    /// Injection rate in parts per million of eligible events.
    pub rate_ppm: u32,
    /// Whether the modeled protections (SPL/cache parity, hwqueue
    /// sequence numbers) are enabled.
    pub protected: bool,
}

/// Result of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell.
    pub cell: Cell,
    /// Whether the workload's oracle validated.
    pub ok: bool,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Fault accounting.
    pub faults: remap::FaultReport,
}

/// The full grid: every archetype × [`RATES_PPM`] × protection on/off.
pub fn grid() -> Vec<Cell> {
    let mut v = Vec::new();
    for archetype in Archetype::ALL {
        for rate_ppm in RATES_PPM {
            for protected in [true, false] {
                v.push(Cell {
                    archetype,
                    rate_ppm,
                    protected,
                });
            }
        }
    }
    v
}

/// The [`FaultPlan`] of one cell: the archetype's site at the cell's rate,
/// every other site off.
pub fn plan_for(cell: Cell) -> FaultPlan {
    let mut plan = FaultPlan::quiet(SWEEP_SEED);
    let r = SiteCfg::rate(cell.rate_ppm);
    match cell.archetype {
        Archetype::SplAffine => {
            plan.spl_bitflip = r;
            plan.spl_parity = cell.protected;
        }
        Archetype::HwqPipe => {
            plan.hwq_drop = r;
            plan.hwq_dup = SiteCfg::rate(cell.rate_ppm / 2);
            plan.hwq_delay = SiteCfg::rate(cell.rate_ppm / 2);
            plan.hwq_seqno = cell.protected;
        }
        Archetype::SplBarrier => {
            plan.barrier_delay = r;
        }
        Archetype::MemMarch => {
            plan.cache_corrupt = r;
            plan.cache_parity = cell.protected;
        }
    }
    plan
}

/// SPL checksum: 64 values through a `2x+1` compute function, summed.
fn spl_affine() -> (remap::System, i64) {
    const N: i32 = 64;
    let mut a = Asm::new("spl_affine");
    a.li(R1, 0);
    a.li(R2, N);
    a.li(R5, 0);
    a.label("loop");
    a.spl_load(R1, 0, 4);
    a.spl_init(1);
    a.spl_store(R3);
    a.add(R5, R5, R3);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    let mut b = SystemBuilder::new();
    b.add_core(CoreKind::Ooo1, a.assemble().expect("assembles"));
    b.add_spl_cluster(SplConfig::paper(1), vec![0]);
    b.register_spl(
        1,
        SplFunction::compute("2x+1", 3, Dest::SelfCore, |e| (2 * e.u32(0) + 1) as u64),
    );
    // Σ (2i + 1) for i in 0..N  ==  N².
    (b.build(), i64::from(N) * i64::from(N))
}

/// Producer→consumer: 40 values over hardware queue 0, summed.
fn hwq_pipe() -> (remap::System, i64) {
    const N: i32 = 40;
    let mut p = Asm::new("producer");
    p.li(R1, 0);
    p.li(R2, N);
    p.label("loop");
    p.hwq_send(R1, 0);
    p.addi(R1, R1, 1);
    p.bne(R1, R2, "loop");
    p.halt();
    let mut c = Asm::new("consumer");
    c.li(R1, 0);
    c.li(R2, N);
    c.li(R5, 0);
    c.label("loop");
    c.hwq_recv(R3, 0);
    c.add(R5, R5, R3);
    c.addi(R1, R1, 1);
    c.bne(R1, R2, "loop");
    c.halt();
    let mut b = SystemBuilder::new();
    b.add_core(CoreKind::Ooo2, p.assemble().expect("assembles"));
    b.add_core(CoreKind::Ooo2, c.assemble().expect("assembles"));
    (b.build(), i64::from(N) * i64::from(N - 1) / 2)
}

/// Four threads iterate a global-min fabric barrier 8 times.
fn spl_barrier() -> (remap::System, i64) {
    let mk = |seed: i32| {
        let mut a = Asm::new("barrier");
        a.li(R4, 0);
        a.li(R6, 8);
        a.label("loop");
        a.li(R1, seed);
        a.spl_load(R1, 0, 4);
        a.spl_init(2);
        a.spl_store(R2);
        a.addi(R4, R4, 1);
        a.bne(R4, R6, "loop");
        a.halt();
        a.assemble().expect("assembles")
    };
    let mut b = SystemBuilder::new();
    for i in 0..4 {
        b.add_core(CoreKind::Ooo1, mk(90 - 20 * i));
    }
    b.add_spl_cluster(SplConfig::paper(4), vec![0, 1, 2, 3]);
    b.register_spl(
        2,
        SplFunction::barrier("gmin", 6, |es| {
            es.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
        }),
    );
    b.barrier_spec(2, 1, 4);
    (b.build(), 30)
}

/// Read march over 4096 pre-seeded words, summed. Read-only so every
/// line enters the hierarchy through a read-triggered fill: a flipped
/// bit lands in data the program goes on to observe, never in a word a
/// later store would overwrite.
fn mem_march() -> (remap::System, i64) {
    const N: i32 = 4096;
    const BASE: i32 = 0x10000;
    let mut a = Asm::new("mem_march");
    a.li(R1, 0);
    a.li(R2, N);
    a.li(R4, BASE);
    a.li(R5, 0);
    a.label("rd");
    a.lw(R3, R4, 0);
    a.add(R5, R5, R3);
    a.addi(R4, R4, 4);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "rd");
    a.halt();
    let mut b = SystemBuilder::new();
    b.add_core(CoreKind::Ooo1, a.assemble().expect("assembles"));
    let mut sys = b.build();
    for i in 0..N {
        sys.mem_mut()
            .write_u32(BASE as u64 + 4 * i as u64, i as u32);
    }
    (sys, i64::from(N) * (i64::from(N) - 1) / 2)
}

/// Runs one cell. `Err` means the *harness* failed — an unexpected
/// [`RunError`], or a protected run that mis-validated. An unprotected run
/// whose oracle fails returns `Ok` with `ok: false`: silent corruption is
/// the datum this sweep exists to observe.
pub fn run_cell(cell: Cell) -> Result<CellResult, String> {
    let (mut sys, oracle) = match cell.archetype {
        Archetype::SplAffine => spl_affine(),
        Archetype::HwqPipe => hwq_pipe(),
        Archetype::SplBarrier => spl_barrier(),
        Archetype::MemMarch => mem_march(),
    };
    sys.set_fault_plan(&plan_for(cell));
    let report = match sys.run(10_000_000) {
        Ok(r) => r,
        Err(e @ RunError::Deadlock { .. }) if !cell.protected => {
            // A silently corrupted message stream can jam the consumer;
            // record the run as invalid rather than failing the harness.
            return Ok(CellResult {
                cell,
                ok: false,
                cycles: match e {
                    RunError::Deadlock { cycle, .. } => cycle,
                    _ => unreachable!(),
                },
                faults: sys.fault_report(),
            });
        }
        Err(e) => return Err(format!("{} run failed: {e}", cell.archetype.name())),
    };
    let ok = match cell.archetype {
        Archetype::SplBarrier => (0..4).all(|i| sys.reg(i, R2) == oracle),
        Archetype::HwqPipe => sys.reg(1, R5) == oracle,
        _ => sys.reg(0, R5) == oracle,
    };
    if cell.protected && !ok {
        return Err(format!(
            "{} protected run mis-validated (oracle {oracle})",
            cell.archetype.name()
        ));
    }
    Ok(CellResult {
        cell,
        ok,
        cycles: report.cycles,
        faults: report.faults,
    })
}

/// The JSON object for one successful cell, on one line without a
/// newline — the unit the streaming pipeline journals and emits.
pub fn result_line(c: &CellResult) -> String {
    let f = &c.faults;
    let detected = f.spl.detected + f.hwq.detected + f.barrier.detected + f.cache.detected;
    Json::obj([
        ("archetype", c.cell.archetype.name().into()),
        ("rate_ppm", c.cell.rate_ppm.into()),
        ("protected", c.cell.protected.into()),
        ("ok", c.ok.into()),
        ("cycles", c.cycles.into()),
        ("injected", f.total_injected().into()),
        ("detected", detected.into()),
        ("recovered", f.total_recovered().into()),
        ("silent", f.total_silent().into()),
        ("hwq_retries", f.hwq_retries.into()),
        ("barrier_demotions", f.barrier_demotions.into()),
    ])
    .to_string()
}

/// The JSON object for a cell whose job failed every attempt.
pub fn failure_line(fail: &JobFailure) -> String {
    Json::obj([
        ("job_failure", fail.index.into()),
        ("attempts", fail.attempts.into()),
        ("message", fail.message.as_str().into()),
    ])
    .to_string()
}

/// Runs one cell under [`runner::retry`] and renders its JSON line —
/// success or failure, a granule always yields a line, so a streamed sweep
/// never stalls on a bad cell.
pub fn cell_line(index: usize, cell: Cell) -> String {
    match runner::retry(index, || run_cell(cell)) {
        Ok(c) => result_line(&c),
        Err(fail) => failure_line(&fail),
    }
}

/// Wraps rendered cell lines in the report envelope.
pub fn wrap_lines(lines: &[String]) -> String {
    let cells = lines.iter().map(|l| Json::Raw(l.clone())).collect();
    json::render(&Json::obj([
        ("seed", SWEEP_SEED.into()),
        ("rates_ppm", Json::Arr(RATES_PPM.map(Json::from).to_vec())),
        ("cells", Json::Arr(cells)),
    ]))
}

/// Inspects a rendered cell line for the two harness defects the sweep
/// polices: a job that failed every attempt, or a *protected* cell with
/// silent corruption. String-level because resumed lines are replayed
/// from the journal, never recomputed into structs; fields are read by
/// key ([`json::get`]), so a change in [`result_line`]'s field order
/// cannot silently disable the check.
pub fn line_error(line: &str) -> Option<String> {
    if json::get(line, "job_failure").is_some() {
        return Some(format!("cell failed every attempt: {line}"));
    }
    if json::get(line, "protected") == Some("true")
        && json::get(line, "silent").is_some_and(|s| s != "0")
    {
        return Some(format!("silent corruption in a protected config: {line}"));
    }
    None
}

/// The journal path of a sweep written to `path`.
pub fn journal_path(path: &str) -> String {
    format!("{path}.journal")
}

/// Journal fingerprint of the sweep: encodes the seed *and every cell's
/// definition*, not just the cell count, so a binary whose grid contents
/// changed (archetypes or rates reordered, swapped, or re-tuned) under the
/// same count and seed can never splice stale journaled results into a
/// fresh report.
pub fn fingerprint(cells: &[Cell]) -> String {
    let grid: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{}:{}:{}",
                c.archetype.name(),
                c.rate_ppm,
                u8::from(c.protected)
            )
        })
        .collect();
    format!("faultsweep v1 seed={SWEEP_SEED} grid={}", grid.join(","))
}

/// Runs the full grid on `jobs` workers through the ordered-streaming
/// engine, printing each cell's JSON line the moment the head of line
/// completes, and writes the JSON report to `path`.
///
/// Completed cells checkpoint to `<path>.journal`; a killed sweep re-run
/// with the same arguments replays the journaled prefix and computes only
/// the remainder. The journal is removed once the report is written, so a
/// *completed* sweep leaves only the artifact (and back-to-back runs stay
/// byte-comparable).
///
/// Returns `Err` when the sweep found a harness defect: a job that failed
/// both attempts, or a *protected* configuration with silent corruption.
pub fn report(jobs: usize, path: &str) -> Result<(), String> {
    crate::banner("faultsweep", "deterministic fault injection sweep");
    let cells = grid();
    let journal = journal_path(path);
    let fingerprint = fingerprint(&cells);
    let mut lines: Vec<String> = Vec::with_capacity(cells.len());
    let mut errors: Vec<String> = Vec::new();
    let opts = JsonlOpts {
        sweep: SweepOpts::new(jobs),
        fingerprint: &fingerprint,
        journal: Some(Path::new(&journal)),
    };
    let outcome = stream_jsonl(
        &opts,
        &cells,
        |i, &cell| cell_line(i, cell),
        |i, line| {
            println!("  cell {i:>2}/{}: {line}", cells.len());
            if let Some(e) = line_error(line) {
                errors.push(e);
            }
            lines.push(line.to_string());
            ControlFlow::Continue(())
        },
    )
    .map_err(|e| format!("sweep journal I/O failed: {e}"))?;
    if outcome.resumed > 0 {
        println!(
            "resumed {} of {} cells from {journal}",
            outcome.resumed, outcome.total
        );
    }
    let json = wrap_lines(&lines);
    if let Err(e) = crate::write_report(path, &json) {
        errors.push(e);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_combination() {
        let g = grid();
        assert_eq!(g.len(), 4 * RATES_PPM.len() * 2);
        assert!(g
            .iter()
            .any(|c| c.archetype == Archetype::MemMarch && c.rate_ppm == 200_000 && !c.protected));
    }

    #[test]
    fn zero_rate_cells_are_clean() {
        for archetype in Archetype::ALL {
            let cell = Cell {
                archetype,
                rate_ppm: 0,
                protected: true,
            };
            let c = run_cell(cell).expect("clean run validates");
            assert!(c.ok, "{}", archetype.name());
            assert_eq!(c.faults.total_injected(), 0);
        }
    }

    #[test]
    fn protected_cells_recover_everything() {
        for archetype in Archetype::ALL {
            let cell = Cell {
                archetype,
                rate_ppm: 200_000,
                protected: true,
            };
            let c = run_cell(cell).expect("protected run validates");
            assert!(c.ok, "{}", archetype.name());
            assert_eq!(c.faults.total_silent(), 0, "{}", archetype.name());
            assert!(
                c.faults.total_injected() > 0,
                "{}: 20% over dozens of events must fire",
                archetype.name()
            );
        }
    }

    #[test]
    fn unprotected_spl_cell_shows_silent_corruption() {
        let cell = Cell {
            archetype: Archetype::SplAffine,
            rate_ppm: 200_000,
            protected: false,
        };
        let c = run_cell(cell).expect("unprotected runs don't fail the harness");
        assert!(c.faults.total_silent() > 0);
        assert!(!c.ok, "a flipped SPL result must break the checksum");
    }

    #[test]
    fn unprotected_cache_cell_shows_silent_corruption() {
        let cell = Cell {
            archetype: Archetype::MemMarch,
            rate_ppm: 200_000,
            protected: false,
        };
        let c = run_cell(cell).expect("unprotected runs don't fail the harness");
        assert!(c.faults.total_silent() > 0);
        assert!(!c.ok, "a flipped line must break the read checksum");
    }

    #[test]
    fn streamed_lines_match_collected_json() {
        // A representative slice of the grid: every archetype, mixed
        // rates and protection (full grid twice would double test time).
        let cells: Vec<Cell> = grid().into_iter().take(9).collect();
        let joined = wrap_lines(&runner::run_with_jobs(2, &cells, |i, &c| cell_line(i, c)));
        let mut lines = Vec::new();
        let opts = JsonlOpts {
            sweep: SweepOpts::new(2),
            fingerprint: "test",
            journal: None,
        };
        let outcome = stream_jsonl(
            &opts,
            &cells,
            |i, &cell| cell_line(i, cell),
            |_, line| {
                lines.push(line.to_string());
                ControlFlow::Continue(())
            },
        )
        .expect("no journal, no I/O to fail");
        assert!(outcome.completed);
        assert_eq!(
            wrap_lines(&lines),
            joined,
            "streamed must be byte-identical"
        );
    }

    #[test]
    fn line_error_flags_the_two_defects() {
        assert!(line_error("{\"job_failure\": 3, \"attempts\": 2, \"message\": \"x\"}").is_some());
        let bad = "{\"archetype\": \"spl_affine\", \"protected\": true, \"silent\": 2, \"x\": 0}";
        assert!(line_error(bad).is_some());
        let good = "{\"archetype\": \"spl_affine\", \"protected\": true, \"silent\": 0, \"x\": 0}";
        assert!(line_error(good).is_none());
        let unprot =
            "{\"archetype\": \"spl_affine\", \"protected\": false, \"silent\": 9, \"x\": 0}";
        assert!(line_error(unprot).is_none(), "unprotected silence is data");
    }

    #[test]
    fn line_error_fires_on_a_result_line_rendered_cell() {
        // Guard against serialization drift: the defect check must parse
        // fields out of whatever result_line actually renders, not match
        // a hard-coded byte pattern of it.
        let mut faults = remap::FaultReport::default();
        faults.spl.injected = 3;
        faults.spl.silent = 2;
        let bad = CellResult {
            cell: Cell {
                archetype: Archetype::SplAffine,
                rate_ppm: 200_000,
                protected: true,
            },
            ok: true,
            cycles: 1234,
            faults,
        };
        let line = result_line(&bad);
        assert!(
            line_error(&line).is_some(),
            "protected cell with silent corruption must be flagged: {line}"
        );
        let clean = CellResult {
            faults: remap::FaultReport::default(),
            ..bad
        };
        assert!(line_error(&result_line(&clean)).is_none());
        let unprotected = CellResult {
            cell: Cell {
                protected: false,
                ..bad.cell
            },
            ..bad
        };
        assert!(
            line_error(&result_line(&unprotected)).is_none(),
            "unprotected silence is data, not a defect"
        );
    }

    #[test]
    fn fingerprint_encodes_grid_contents_not_just_count() {
        let cells = grid();
        let fp = fingerprint(&cells);
        assert!(fp.contains("spl_affine") && fp.contains("200000"));
        assert!(!fp.contains('\n'), "journal headers are one line");
        // Same count, same seed, swapped cells: a different fingerprint.
        let mut swapped = cells.clone();
        swapped.swap(0, 1);
        assert_ne!(fp, fingerprint(&swapped));
        // A re-tuned rate with the same count: a different fingerprint.
        let mut retuned = cells.clone();
        retuned[3].rate_ppm += 1;
        assert_ne!(fp, fingerprint(&retuned));
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let cells = grid();
        let run = || wrap_lines(&runner::run_with_jobs(2, &cells, |i, &c| cell_line(i, c)));
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed twice must be byte-identical");
        assert_eq!(
            a,
            include_str!("../../../BENCH_faultsweep.json"),
            "checked-in artifact"
        );
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert!(a.contains("\"archetype\": \"hwq_pipe\""));
        assert!(!a.contains("wall"), "wall times would break determinism");
    }

    #[test]
    fn golden_document_bytes_are_pinned() {
        let mut faults = remap::FaultReport::default();
        faults.hwq.injected = 5;
        faults.hwq.detected = 4;
        faults.hwq.recovered = 4;
        faults.hwq.silent = 1;
        faults.hwq_retries = 3;
        let a = CellResult {
            cell: Cell {
                archetype: Archetype::HwqPipe,
                rate_ppm: 50_000,
                protected: false,
            },
            ok: false,
            cycles: 4321,
            faults,
        };
        let b = CellResult {
            cell: Cell {
                archetype: Archetype::MemMarch,
                rate_ppm: 0,
                protected: true,
            },
            ok: true,
            cycles: 31_507,
            faults: remap::FaultReport::default(),
        };
        let fail = JobFailure {
            index: 1,
            attempts: 2,
            message: "panic: cell 1 exploded".to_string(),
        };
        let lines = [result_line(&a), failure_line(&fail), result_line(&b)];
        let expected = r#"{
  "seed": 12648430,
  "rates_ppm": [0, 50000, 200000],
  "cells": [
    {"archetype": "hwq_pipe", "rate_ppm": 50000, "protected": false, "ok": false, "cycles": 4321, "injected": 5, "detected": 4, "recovered": 4, "silent": 1, "hwq_retries": 3, "barrier_demotions": 0},
    {"job_failure": 1, "attempts": 2, "message": "panic: cell 1 exploded"},
    {"archetype": "mem_march", "rate_ppm": 0, "protected": true, "ok": true, "cycles": 31507, "injected": 0, "detected": 0, "recovered": 0, "silent": 0, "hwq_retries": 0, "barrier_demotions": 0}
  ]
}
"#;
        assert_eq!(wrap_lines(&lines), expected);
    }

    #[test]
    fn failure_messages_render_as_valid_json_strings() {
        let fail = JobFailure {
            index: 4,
            attempts: 2,
            message: "panic: \u{1b}[31mred\u{1b}[0m nul\0 tab\t".to_string(),
        };
        let line = failure_line(&fail);
        assert!(line.contains("\\u001b[31mred"), "{line}");
        assert!(line.contains("nul\\u0000"), "{line}");
        assert!(line.contains("tab\\t"), "{line}");
        assert!(!line.contains("\\u{"), "Rust escapes are not JSON: {line}");
        assert!(line_error(&line).is_some());
    }
}
