//! Shared report implementations behind every `benches/` target and the
//! `remap bench <target>` CLI subcommand.
//!
//! Each function regenerates one paper artifact. The bench binaries in
//! `benches/` are thin wrappers around these so the CLI and `cargo bench`
//! print byte-identical reports; all of them fan their independent
//! workload configurations across host cores via [`crate::runner`] and
//! print a wall-time footer.

use crate::{
    banner, barrier_point, improvement_pct, region_rows_jobs, rel_ed, runner,
    whole_program_rows_jobs, REGION_N,
};
use remap::{CoreKind, SystemBuilder};
use remap_isa::{Asm, Reg::*};
use remap_spl::{Dest, SplConfig, SplFunction};
use remap_workloads::barriers::{BarrierBench, BarrierMode};
use remap_workloads::comm::CommBench;
use remap_workloads::CommMode;
use std::time::Instant;

/// Prints the standard wall-time footer of a figure run.
fn footer(label: &str, jobs: usize, start: Instant) {
    println!();
    println!(
        "[{label}] wall time {:.2}s ({jobs} jobs)",
        start.elapsed().as_secs_f64()
    );
}

/// Table I: relative area and power of four single-issue OOO cores and the
/// four-way shared ReMAP fabric, beside the paper's values. Analytic, so
/// `jobs` goes unused; it keeps the signature of every other target.
pub fn table1(_jobs: usize) {
    banner(
        "Table I",
        "relative area and power of 4 cores vs 4-way shared SPL",
    );
    let t = remap_power::table1(&remap_power::EnergyParams::default());
    println!(
        "{:<20} {:>8} {:>12} {:>14} {:>14}",
        "", "SPL rows", "Total Area", "Peak Dyn Power", "Total Leakage"
    );
    println!(
        "{:<20} {:>8} {:>12.2} {:>14.2} {:>14.2}",
        "Four Cores", "N/A", 1.00, 1.00, 1.00
    );
    println!(
        "{:<20} {:>8} {:>12.2} {:>14.2} {:>14.2}",
        "4-way Shared SPL", t.spl_rows, t.spl_rel_area, t.spl_rel_peak_dynamic, t.spl_rel_leakage
    );
    println!();
    println!(
        "paper:               {:>8} {:>12.2} {:>14.2} {:>14.2}",
        24, 0.51, 0.14, 0.67
    );
}

/// Figure 8: whole-program performance vs the 1-thread OOO1 baseline.
pub fn fig08(jobs: usize) {
    let start = Instant::now();
    banner(
        "Figure 8",
        "whole-program performance improvement vs 1-thread OOO1",
    );
    println!(
        "{:<12} {:>16} {:>16}",
        "benchmark", "ReMAP (%)", "OOO2+Comm (%)"
    );
    let rows = whole_program_rows_jobs(jobs);
    let mut remap_over_comm = Vec::new();
    for r in &rows {
        println!(
            "{:<12} {:>16.1} {:>16.1}",
            r.name,
            (r.remap.speedup - 1.0) * 100.0,
            (r.ooo2comm.speedup - 1.0) * 100.0
        );
        remap_over_comm.push((r.name, r.remap.speedup / r.ooo2comm.speedup));
    }
    println!();
    let wins = remap_over_comm.iter().filter(|(_, x)| *x > 1.0).count();
    let geo: f64 =
        remap_over_comm.iter().map(|(_, x)| x.ln()).sum::<f64>() / remap_over_comm.len() as f64;
    println!(
        "ReMAP beats OOO2+Comm on {wins}/{} benchmarks; geomean advantage {:.1}%",
        remap_over_comm.len(),
        (geo.exp() - 1.0) * 100.0
    );
    for (n, x) in remap_over_comm.iter().filter(|(_, x)| *x <= 1.0) {
        println!("exception: {n} ({x:.2}x)");
    }
    println!("paper: ReMAP wins everywhere except twolf; +49% (comp-only), +41% (comm) on average");
    footer("fig08", jobs, start);
}

/// Figure 9: whole-program energy×delay vs the 1-thread OOO1 baseline.
pub fn fig09(jobs: usize) {
    let start = Instant::now();
    banner(
        "Figure 9",
        "whole-program energy×delay relative to 1-thread OOO1",
    );
    println!("{:<12} {:>12} {:>12}", "benchmark", "ReMAP", "OOO2+Comm");
    let rows = whole_program_rows_jobs(jobs);
    let mut remap_better = 0;
    let mut ed_ratios = Vec::new();
    for r in &rows {
        println!(
            "{:<12} {:>12.2} {:>12.2}",
            r.name, r.remap.rel_ed, r.ooo2comm.rel_ed
        );
        if r.remap.rel_ed < r.ooo2comm.rel_ed {
            remap_better += 1;
        }
        ed_ratios.push(r.remap.rel_ed / r.ooo2comm.rel_ed);
    }
    println!();
    let geo = (ed_ratios.iter().map(|x| x.ln()).sum::<f64>() / ed_ratios.len() as f64).exp();
    println!(
        "ReMAP has lower ED than OOO2+Comm on {remap_better}/{} benchmarks; geomean ED ratio {:.2}",
        rows.len(),
        geo
    );
    println!(
        "paper: ReMAP better ED than baseline and OOO2+Comm in all but twolf (~44% ED reduction)"
    );
    footer("fig09", jobs, start);
}

/// Figure 10: optimized-region performance vs the 1-thread OOO1 baseline.
pub fn fig10(jobs: usize) {
    let start = Instant::now();
    banner(
        "Figure 10",
        "optimized-region performance improvement vs 1-thread OOO1",
    );
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>11}",
        "benchmark", "1Th+Comp", "2Th+Comm", "2Th+CompComm", "OOO2+Comm"
    );
    let rows = region_rows_jobs(jobs);
    let mut comp_only_gain = Vec::new();
    let mut cc_beats_comm = 0;
    let mut cc_beats_ooo2 = 0;
    let mut comm_count = 0;
    for r in &rows {
        let base = r.base.cycles;
        let comp = improvement_pct(base, r.comp1t.cycles);
        let comm = r.comm2t.as_ref().map(|m| improvement_pct(base, m.cycles));
        let cc = r.compcomm.as_ref().map(|m| improvement_pct(base, m.cycles));
        let o2 = improvement_pct(base, r.ooo2comm.cycles);
        println!(
            "{:<12} {:>9.0}% {:>10} {:>14} {:>10.0}%",
            r.name,
            comp,
            comm.map_or("-".to_string(), |x| format!("{x:.0}%")),
            cc.map_or("-".to_string(), |x| format!("{x:.0}%")),
            o2
        );
        match (&r.comm2t, &r.compcomm) {
            (Some(comm2t), Some(compcomm)) => {
                comm_count += 1;
                if compcomm.cycles < comm2t.cycles {
                    cc_beats_comm += 1;
                }
                if compcomm.cycles < r.ooo2comm.cycles {
                    cc_beats_ooo2 += 1;
                }
            }
            _ => comp_only_gain.push(comp),
        }
    }
    println!();
    let avg = comp_only_gain.iter().sum::<f64>() / comp_only_gain.len() as f64;
    println!("computation-only 1Th+Comp average improvement: {avg:.0}%");
    println!("CompComm beats Comm-only on {cc_beats_comm}/{comm_count} communicating benchmarks");
    println!("CompComm beats OOO2+Comm on {cc_beats_ooo2}/{comm_count} communicating benchmarks");
    println!("paper: 1Th+Comp +289% (comp-only) / +105% (comm); 2Th+Comm +38%; 2Th+CompComm +223%, beating OOO2+Comm everywhere (+79% avg)");
    footer("fig10", jobs, start);
}

/// Figure 11: optimized-region energy×delay vs the 1-thread OOO1 baseline.
pub fn fig11(jobs: usize) {
    let start = Instant::now();
    banner(
        "Figure 11",
        "optimized-region energy×delay relative to 1-thread OOO1",
    );
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>11}",
        "benchmark", "1Th+Comp", "2Th+Comm", "2Th+CompComm", "OOO2+Comm"
    );
    let rows = region_rows_jobs(jobs);
    let mut cc_always_below_one = true;
    for r in &rows {
        let comp = rel_ed(&r.base, &r.comp1t);
        let comm = r.comm2t.as_ref().map(|m| rel_ed(&r.base, m));
        let cc = r.compcomm.as_ref().map(|m| rel_ed(&r.base, m));
        let o2 = rel_ed(&r.base, &r.ooo2comm);
        println!(
            "{:<12} {:>10.2} {:>10} {:>14} {:>11.2}",
            r.name,
            comp,
            comm.map_or("-".to_string(), |x| format!("{x:.2}")),
            cc.map_or("-".to_string(), |x| format!("{x:.2}")),
            o2
        );
        if let Some(x) = cc {
            if x >= 1.0 {
                cc_always_below_one = false;
            }
        }
    }
    println!();
    println!(
        "2Th+CompComm below the baseline ED everywhere: {}",
        if cc_always_below_one { "yes" } else { "no" }
    );
    println!("paper: communication+computation is the only option with better ED than the baseline in all cases");
    footer("fig11", jobs, start);
}

/// The Figure 12/14 mode list for a barrier benchmark.
pub(crate) fn barrier_modes(bench: BarrierBench, with_seq: bool) -> Vec<BarrierMode> {
    let mut modes = Vec::new();
    if with_seq {
        modes.push(BarrierMode::Seq);
    }
    modes.extend([
        BarrierMode::Sw(8),
        BarrierMode::Sw(16),
        BarrierMode::Remap(8),
        BarrierMode::Remap(16),
    ]);
    if bench.supports_comp() {
        modes.push(BarrierMode::RemapComp(8));
        modes.push(BarrierMode::RemapComp(16));
    }
    modes
}

/// Sweeps every `(mode, size)` point of one barrier benchmark through the
/// worker pool and regroups the flat results into one series per mode.
fn barrier_series(
    bench: BarrierBench,
    modes: &[BarrierMode],
    sizes: &[usize],
    jobs: usize,
) -> Vec<Vec<(usize, f64, f64)>> {
    let grid: Vec<(BarrierMode, usize)> = modes
        .iter()
        .flat_map(|&m| sizes.iter().map(move |&n| (m, n)))
        .collect();
    let flat = runner::run_with_jobs(jobs, &grid, |_, &(m, n)| barrier_point(bench, m, n));
    flat.chunks(sizes.len()).map(|c| c.to_vec()).collect()
}

/// Figure 12: barrier-workload per-iteration cycles vs problem size.
pub fn fig12(jobs: usize) {
    let start = Instant::now();
    for bench in BarrierBench::ALL {
        banner(
            "Figure 12",
            &format!("{} per-iteration cycles vs problem size", bench.name()),
        );
        let sizes = bench.sweep_sizes();
        let modes = barrier_modes(bench, true);
        print!("{:<10}", "size");
        for m in &modes {
            print!(" {:>18}", m.label());
        }
        println!();
        let series = barrier_series(bench, &modes, &sizes, jobs);
        for (i, &n) in sizes.iter().enumerate() {
            print!("{:<10}", n);
            for s in &series {
                print!(" {:>18.0}", s[i].1);
            }
            println!();
        }
        // Crossover commentary: where ReMAP barriers start beating Seq.
        let seq = &series[0];
        let remap8 = &series[3];
        let cross = sizes
            .iter()
            .enumerate()
            .find(|(i, _)| remap8[*i].1 < seq[*i].1)
            .map(|(_, n)| *n);
        match cross {
            Some(n) => println!("Barrier-p8 beats Seq from size {n}"),
            None => println!("Barrier-p8 never beats Seq in this range"),
        }
        let sw8 = &series[1];
        let always = sizes
            .iter()
            .enumerate()
            .all(|(i, _)| remap8[i].1 <= sw8[i].1);
        println!(
            "ReMAP barriers ≤ SW barriers at every size (p8): {}",
            if always { "yes" } else { "no" }
        );
    }
    println!();
    println!("paper: ReMAP barriers always beat SW barriers and cross over Seq at much smaller problem sizes");
    footer("fig12", jobs, start);
}

/// Figure 13: Barrier+Comp improvement over Barrier alone.
pub fn fig13(jobs: usize) {
    let start = Instant::now();
    for bench in [BarrierBench::Ll3, BarrierBench::Dijkstra] {
        banner(
            "Figure 13",
            &format!(
                "{}: Barrier+Comp improvement over Barrier alone",
                bench.name()
            ),
        );
        let sizes = bench.sweep_sizes();
        let threads = [2usize, 4, 8, 16];
        print!("{:<10}", "size");
        for p in threads {
            print!(" {:>10}", format!("p{p}"));
        }
        println!();
        let grid: Vec<(usize, usize)> = sizes
            .iter()
            .flat_map(|&n| threads.iter().map(move |&p| (n, p)))
            .collect();
        let flat = runner::run_with_jobs(jobs, &grid, |_, &(n, p)| {
            let bar = bench.run(BarrierMode::Remap(p), n).expect("validates");
            let cmp = bench.run(BarrierMode::RemapComp(p), n).expect("validates");
            (bar.cycles as f64 / cmp.cycles as f64 - 1.0) * 100.0
        });
        for (row, &n) in flat.chunks(threads.len()).zip(sizes.iter()) {
            print!("{:<10}", n);
            for v in row {
                print!(" {:>9.1}%", v);
            }
            println!();
        }
    }
    println!();
    println!("paper: dijkstra up to +9% (16 threads, small sizes); LL3 +15-26% at large sizes, negative at tiny sizes with many threads");
    footer("fig13", jobs, start);
}

/// Figure 14: barrier-workload energy×delay relative to sequential.
pub fn fig14(jobs: usize) {
    let start = Instant::now();
    for bench in BarrierBench::ALL {
        banner(
            "Figure 14",
            &format!("{} energy×delay relative to sequential", bench.name()),
        );
        let sizes = bench.sweep_sizes();
        let modes = barrier_modes(bench, false);
        print!("{:<10}", "size");
        for m in &modes {
            print!(" {:>18}", m.label());
        }
        println!();
        let series = barrier_series(bench, &modes, &sizes, jobs);
        for (i, &n) in sizes.iter().enumerate() {
            print!("{:<10}", n);
            for s in &series {
                print!(" {:>18.2}", s[i].2);
            }
            println!();
        }
        // Shape checks: ReMAP always better ED than SW; SW-p16 break-even.
        let sw8 = &series[0];
        let remap8 = &series[2];
        let always = sizes
            .iter()
            .enumerate()
            .all(|(i, _)| remap8[i].2 <= sw8[i].2);
        println!(
            "ReMAP barriers always better ED than SW (p8): {}",
            if always { "yes" } else { "no" }
        );
        let sw16 = &series[1];
        let breaks_even = sizes.iter().enumerate().any(|(i, _)| sw16[i].2 < 1.0);
        println!(
            "SW-p16 ever breaks even in this range: {}",
            if breaks_even { "yes" } else { "no" }
        );
    }
    println!();
    println!("paper: ED break-even needs larger sizes than performance break-even; 16-thread SW barriers never break even on LL2/LL6; ReMAP barriers always beat SW on ED");
    footer("fig14", jobs, start);
}

/// §V-B: software queues vs the sequential baseline.
pub fn sw_queues(jobs: usize) {
    let start = Instant::now();
    banner("§V-B", "software queues vs sequential baseline");
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "benchmark", "seq cycles", "swq cycles", "slowdown"
    );
    let benches: Vec<CommBench> = CommBench::ALL.to_vec();
    let rows = runner::run_with_jobs(jobs, &benches, |_, &b| {
        let seq = b.run(CommMode::SeqOoo1, REGION_N).expect("validates");
        let swq = b.run(CommMode::SwQueue2T, REGION_N).expect("validates");
        (b.name(), seq.cycles, swq.cycles)
    });
    let mut slowdowns = Vec::new();
    for (name, seq, swq) in rows {
        let slow = swq as f64 / seq as f64;
        println!("{:<12} {:>14} {:>14} {:>13.2}x", name, seq, swq, slow);
        slowdowns.push(slow);
    }
    let avg = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    println!();
    println!(
        "average software-queue degradation: {:.0}% ({:.2}x)",
        (avg - 1.0) * 100.0,
        avg
    );
    println!("paper: software queues degraded performance by more than 180% on average");
    footer("sw_queues", jobs, start);
}

/// §V-C.2: ReMAP barriers+comp vs an equal-area homogeneous CMP.
pub fn homogeneous(jobs: usize) {
    let start = Instant::now();
    banner(
        "§V-C.2",
        "ReMAP barriers+comp (4 cores + SPL) vs homogeneous (6 cores + ideal barrier net)",
    );
    for (bench, sizes) in [
        (BarrierBench::Dijkstra, vec![40usize, 80, 120, 160, 200]),
        (BarrierBench::Ll3, vec![64usize, 128, 256, 512, 1024]),
    ] {
        println!();
        println!("{}:", bench.name());
        println!(
            "{:<10} {:>16} {:>16} {:>16}",
            "size", "ReMAP+Comp ED", "Homogeneous ED", "ReMAP advantage"
        );
        // Equal area: the SPL occupies two single-issue cores' worth of
        // silicon, so the homogeneous side runs six threads on six cores
        // with the free barrier network.
        let eds = runner::run_with_jobs(jobs, &sizes, |_, &n| {
            let remap = bench.run(BarrierMode::RemapComp(4), n).expect("validates");
            let homog = bench.run(BarrierMode::HwIdeal(6), n).expect("validates");
            (remap.ed(), homog.ed())
        });
        let mut best = f64::MIN;
        for (&n, (remap_ed, homog_ed)) in sizes.iter().zip(eds) {
            let adv = (1.0 - remap_ed / homog_ed) * 100.0;
            best = best.max(adv);
            println!(
                "{:<10} {:>16.3e} {:>16.3e} {:>15.1}%",
                n, remap_ed, homog_ed, adv
            );
        }
        println!("best ReMAP ED advantage for {}: {:.1}%", bench.name(), best);
    }
    println!();
    println!(
        "paper: up to 25.9% (dijkstra) and 62.5% (LL3) lower ED for ReMAP barriers+computation"
    );
    footer("homogeneous", jobs, start);
}

/// Builds the ablation kernel of `n` back-to-back SPL ops (fed `depth`
/// deep), shared by both ablation studies.
fn ablation_kernel(
    name: &'static str,
    n: usize,
    depth: i32,
    accumulate: bool,
) -> remap_isa::Program {
    let mut a = Asm::new(name);
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R30, 0);
    a.li(R31, depth.min(n as i32));
    a.label("pro");
    a.spl_load(R30, 0, 4);
    a.spl_init(1);
    a.addi(R30, R30, 1);
    a.blt(R30, R31, "pro");
    a.label("main");
    a.spl_store(R7);
    if accumulate {
        a.add(R10, R10, R7);
    }
    a.addi(R1, R1, 1);
    a.bge(R30, R2, "nofeed");
    a.spl_load(R30, 0, 4);
    a.spl_init(1);
    a.addi(R30, R30, 1);
    a.label("nofeed");
    a.blt(R1, R2, "main");
    a.halt();
    a.assemble().expect("kernel assembles")
}

/// A trivial program for cores that stay off the fabric.
fn idle() -> remap_isa::Program {
    let mut a = Asm::new("idle");
    a.halt();
    a.assemble().expect("idle assembles")
}

fn ablation_partition_run(partitions: usize, rows: u32, ops: usize, active_cores: usize) -> u64 {
    let mut b = SystemBuilder::new();
    for i in 0..4 {
        b.add_core(
            CoreKind::Ooo1,
            if i < active_cores {
                ablation_kernel("ablate", ops, 8, true)
            } else {
                idle()
            },
        );
    }
    let mut cfg = SplConfig::partitioned(4, partitions);
    cfg.rows = 24;
    b.add_spl_cluster(cfg, vec![0, 1, 2, 3]);
    b.register_spl(
        1,
        SplFunction::compute("f", rows, Dest::SelfCore, |e| e.u32(0) as u64 + 1),
    );
    let mut sys = b.build();
    sys.run(50_000_000).expect("runs").cycles
}

/// Ablation A1: spatial partitioning vs pure temporal sharing.
pub fn ablation_partition(jobs: usize) {
    let start = Instant::now();
    banner(
        "Ablation A1",
        "spatial partitioning (24-row fabric, 512 ops per active core)",
    );
    let grid: Vec<(u32, usize, usize)> = [4usize, 1]
        .iter()
        .flat_map(|&active| {
            [4u32, 12, 24]
                .iter()
                .flat_map(move |&rows| [1usize, 2, 4].iter().map(move |&p| (rows, p, active)))
        })
        .collect();
    let cycles = runner::run_with_jobs(jobs, &grid, |_, &(rows, parts, active)| {
        ablation_partition_run(parts, rows, 512, active)
    });
    for (half, title) in [
        (0, "all four cores active:"),
        (
            1,
            "single active core (its partition shrinks with the count):",
        ),
    ] {
        if half == 1 {
            println!();
        }
        println!("{title}");
        println!(
            "{:<24} {:>12} {:>12} {:>12}",
            "function rows", "1 part", "2 parts", "4 parts"
        );
        for (ri, rows) in [4u32, 12, 24].iter().enumerate() {
            let base = half * 9 + ri * 3;
            println!(
                "{:<24} {:>12} {:>12} {:>12}",
                rows,
                cycles[base],
                cycles[base + 1],
                cycles[base + 2]
            );
        }
    }
    println!();
    println!("expected shapes: with all cores contending, partitioning isolates small");
    println!("functions; with one active core, partitioning only shrinks its fabric —");
    println!("the 24-row function's initiation interval grows 1 → 2 → 4 (virtualization).");
    println!("Four cores sharing 24 rows and each owning 6 rows sustain the same");
    println!("steady-state throughput: temporal sharing conserves fabric bandwidth.");
    footer("ablation_partition", jobs, start);
}

fn ablation_virtual_run(rows: u32, ops: usize) -> u64 {
    let mut b = SystemBuilder::new();
    b.add_core(CoreKind::Ooo1, ablation_kernel("virt", ops, 6, false));
    b.add_spl_cluster(SplConfig::paper(1), vec![0]);
    b.register_spl(
        1,
        SplFunction::compute("f", rows, Dest::SelfCore, |e| e.u32(0) as u64),
    );
    let mut sys = b.build();
    sys.run(50_000_000).expect("runs").cycles
}

/// Ablation A2: virtualization beyond the 24 physical rows.
pub fn ablation_virtual(jobs: usize) {
    let start = Instant::now();
    banner(
        "Ablation A2",
        "virtualization: V virtual rows on 24 physical (1024 pipelined ops)",
    );
    println!(
        "{:<14} {:>6} {:>12} {:>18}",
        "virtual rows", "II", "cycles", "cycles/op"
    );
    let ops = 1024;
    let rows_list = [6u32, 12, 24, 36, 48, 72, 96];
    let cycles =
        runner::run_with_jobs(jobs, &rows_list, |_, &rows| ablation_virtual_run(rows, ops));
    for (&rows, &c) in rows_list.iter().zip(cycles.iter()) {
        let ii = rows.div_ceil(24);
        println!(
            "{:<14} {:>6} {:>12} {:>18.2}",
            rows,
            ii,
            c,
            c as f64 / ops as f64
        );
    }
    println!();
    println!("expected shape: cycles/op tracks the initiation interval (×4 core cycles per SPL");
    println!("cycle) once V exceeds 24 — guaranteed execution at reduced throughput");
    footer("ablation_virtual", jobs, start);
}

/// CI smoke: a short sweep run twice — serially and through the worker
/// pool — asserting identical measurements, plus a guard that the
/// quiescence skip engine is actually engaging on a barrier workload
/// (barrier spins are its bread and butter; a 0% skip rate there means the
/// engine has silently stopped working). Exercises the parallel runner end
/// to end in seconds.
pub fn smoke(jobs: usize) {
    let start = Instant::now();
    banner("smoke", "parallel-sweep smoke: serial vs pooled results");
    // A pool silently degraded to one worker makes every "parallel"
    // measurement in this suite a duplicate of the serial pass. That is
    // fine when the user asked for it (REMAP_JOBS=1) and a defect worth
    // failing CI over otherwise.
    assert!(
        jobs > 1 || crate::runner::jobs_explicit(),
        "worker pool degraded to 1 worker (host parallelism {}) without an \
         explicit REMAP_JOBS — set REMAP_JOBS=1 to acknowledge a single-core \
         host, or a larger value to force a pool",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let sizes = [8usize, 16, 32];
    let serial = crate::barrier_sweep_jobs(BarrierBench::Ll2, BarrierMode::Remap(8), &sizes, 1);
    let pooled = crate::barrier_sweep_jobs(BarrierBench::Ll2, BarrierMode::Remap(8), &sizes, jobs);
    assert_eq!(serial, pooled, "parallel sweep must match serial");
    // The same sweep through the streaming marshaller with rep-split
    // granules must agree with the serial reference, value for value and
    // order for order.
    let mut streamed = Vec::with_capacity(sizes.len());
    crate::sweep::stream(
        crate::sweep::SweepOpts::new(jobs).reps(2),
        &sizes,
        |_, &n, _| barrier_point(BarrierBench::Ll2, BarrierMode::Remap(8), n),
        |_, batch| {
            assert_eq!(batch[0], batch[1], "reps of a deterministic sweep agree");
            streamed.push(batch[0]);
            std::ops::ControlFlow::Continue(())
        },
    );
    assert_eq!(
        serial, streamed,
        "streamed rep-split sweep must match serial"
    );
    for (n, per_iter, rel) in &pooled {
        println!("ll2 Barrier-p8 n={n}: {per_iter:.0} cycles/iter, relative ED {rel:.2}");
    }
    println!("serial, {jobs}-job, and streamed rep-split sweeps identical: yes");
    let m = BarrierBench::Ll2
        .run(BarrierMode::Remap(8), 64)
        .expect("smoke workload validates");
    assert!(
        m.skipped_cycles > 0,
        "skip engine reported a 0% skip rate on a barrier workload \
         ({} cycles, 0 skipped) — quiescence detection is broken",
        m.cycles
    );
    println!(
        "skip engine active: {}/{} cycles bulk-skipped ({:.1}%)",
        m.skipped_cycles,
        m.cycles,
        m.skipped_cycles as f64 / m.cycles as f64 * 100.0
    );
    footer("smoke", jobs, start);
}
