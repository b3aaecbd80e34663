//! One benchmark op: build a configuration, simulate it (optionally cut
//! into checkpoint round trips), validate it against its oracle, evaluate
//! its energy, and read the exact work counts of every layer.

use crate::trace::{Spans, StepHists};
use crate::workload::{cut_schedule, Config, MAX_CYCLES};
use remap::{FaultPlan, Snapshot, System, SPL_CLOCK_DIVISOR};
use remap_isa::InstClass;
use remap_power::PowerModel;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Exact simulated work counts, summed over cores, caches and
        /// clusters. They repeat exactly for identical inputs.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $field: u64),* }

        impl Counts {
            pub fn add(&mut self, o: &Counts) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

counts!(
    cycles,
    skipped_cycles,
    committed,
    fetched,
    squashed,
    mispredicts,
    rob_full_stalls,
    iq_full_stalls,
    fence_wait_cycles,
    hw_wait_cycles,
    spl_wait_cycles,
    hwq_insts,
    l1d_hits,
    l1d_misses,
    l1i_misses,
    l2_misses,
    dram_accesses,
    mshr_merges,
    prefetch_issued,
    prefetch_used,
    c2c_transfers,
    upgrades,
    invalidations,
    snoops,
    dir_probes_sent,
    dir_probes_avoided,
    dir_bank_conflicts,
    spl_compute_ops,
    spl_barrier_ops,
    spl_row_activations,
    spl_stall_rows,
    spl_stall_output_full,
    fault_injected,
    fault_recovered,
    fault_silent,
);

/// Reads every layer's public statistics from a halted system.
pub fn collect_counts(sys: &System) -> Counts {
    let mut c = Counts {
        cycles: sys.cycle(),
        skipped_cycles: sys.skipped_cycles(),
        committed: sys.total_committed(),
        ..Counts::default()
    };
    let hier = sys.hierarchy();
    for core in 0..sys.n_cores() {
        let s = sys.core_stats(core);
        c.fetched += s.fetched;
        c.squashed += s.squashed;
        c.mispredicts += s.mispredicts;
        c.rob_full_stalls += s.rob_full_stalls;
        c.iq_full_stalls += s.iq_full_stalls;
        c.fence_wait_cycles += s.fence_wait_cycles;
        c.hw_wait_cycles += s.hw_wait_cycles;
        c.spl_wait_cycles += s.spl_wait_cycles;
        c.hwq_insts += s.committed_of(InstClass::Hwq);
        let (l1i, l1d, l2) = hier.cache_stats(core);
        c.l1d_hits += l1d.hits;
        c.l1d_misses += l1d.misses;
        c.l1i_misses += l1i.misses;
        c.l2_misses += l2.misses;
        c.invalidations += l1i.invalidations + l1d.invalidations + l2.invalidations;
    }
    let bus = hier.bus_stats();
    c.dram_accesses = bus.dram_accesses;
    c.c2c_transfers = bus.c2c_transfers;
    c.upgrades = bus.upgrades;
    c.snoops = bus.snoops;
    let mlp = hier.mlp_stats();
    c.mshr_merges = mlp.mshr_merges;
    c.prefetch_issued = mlp.prefetch_issued;
    c.prefetch_used = mlp.prefetch_useful + mlp.prefetch_late;
    let dir = hier.dir_stats();
    c.dir_probes_sent = dir.probes_sent;
    c.dir_probes_avoided = dir.probes_avoided;
    c.dir_bank_conflicts = dir.bank_conflicts;
    for cl in 0..sys.n_clusters() {
        let s = sys.spl_stats(cl);
        c.spl_compute_ops += s.compute_ops;
        c.spl_barrier_ops += s.barrier_ops;
        c.spl_row_activations += s.row_activations;
        c.spl_stall_rows += s.stall_rows;
        c.spl_stall_output_full += s.stall_output_full;
    }
    let f = sys.fault_report();
    c.fault_injected = f.total_injected();
    c.fault_recovered = f.total_recovered();
    c.fault_silent = f.total_silent();
    c
}

/// Host seconds of one checkpoint round trip, by phase.
#[derive(Clone, Copy, Debug)]
pub struct RoundTrip {
    /// `System::snapshot`.
    pub capture_s: f64,
    /// `Snapshot::write_to`.
    pub write_s: f64,
    /// `Snapshot::read_from`.
    pub read_s: f64,
    /// `System::restore` into a freshly built system.
    pub restore_s: f64,
    pub bytes: u64,
}

impl RoundTrip {
    /// The round trip the user waits for: capture, write, read, restore
    /// (the fresh build is set-up time).
    pub fn ms(&self) -> f64 {
        (self.capture_s + self.write_s + self.read_s + self.restore_s) * 1e3
    }
}

/// Outcome of one op.
#[derive(Debug, Default)]
pub struct Op {
    /// Host seconds inside the simulate calls.
    pub sim_s: f64,
    /// Host seconds inside `XBench::build`.
    pub build_s: f64,
    /// Host seconds inside the oracle check.
    pub check_s: f64,
    /// Host seconds inside `System::energy`.
    pub energy_s: f64,
    pub counts: Counts,
    pub round_trips: Vec<RoundTrip>,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

/// The uninterrupted, untraced result an op must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub cycles: u64,
    pub committed: u64,
}

/// Per-call histograms and coarse spans of a traced run.
pub struct Tracer {
    pub hists: StepHists,
    pub spans: Spans,
}

/// Everything an op needs besides its configuration.
pub struct Ctx {
    pub seed: u64,
    pub plan: Option<FaultPlan>,
    /// Whether ops are cut into checkpoint round trips.
    pub cut: bool,
    /// Snapshot file of the round trips.
    pub snap_path: PathBuf,
    /// Present in trace mode; used by traced ops only.
    pub tracer: Option<Tracer>,
}

/// Where spans of the current op go.
struct SpanCtx<'a> {
    traced: bool,
    parent: Option<usize>,
    pass: usize,
    label: &'a str,
}

impl Ctx {
    /// Records a span when tracing; returns the seconds since `start`.
    fn span(&mut self, sc: &SpanCtx, name: &'static str, start: Instant) -> f64 {
        let end = Instant::now();
        if sc.traced {
            if let Some(t) = self.tracer.as_mut() {
                t.spans.push(name, sc.parent, sc.pass, sc.label, start, end);
            }
        }
        end.duration_since(start).as_secs_f64()
    }

    /// Simulates up to cycle `target` (or until every core halts).
    /// Untraced this is `System::run_until`; traced, it is the same loop
    /// over `step_or_skip` with each call timed and classified.
    fn advance(&mut self, sys: &mut System, target: u64, traced: bool) {
        match self.tracer.as_mut() {
            Some(t) if traced => traced_advance(sys, target, &mut t.hists),
            _ => {
                sys.run_until(target);
            }
        }
    }

    /// Runs one op. `reference` is `None` only for the warm-up pass, which
    /// runs every configuration uninterrupted and untraced to produce the
    /// references later ops are held to.
    pub fn run_op(
        &mut self,
        index: usize,
        cfg: &Config,
        reference: Option<Reference>,
        pass: usize,
        traced: bool,
    ) -> Op {
        let label = cfg.label();
        let op_start = Instant::now();
        let parent = match self.tracer.as_mut() {
            Some(t) if traced => Some(t.spans.push("op", None, pass, &label, op_start, op_start)),
            _ => None,
        };
        let sc = SpanCtx {
            traced,
            parent,
            pass,
            label: &label,
        };
        let mut op = Op::default();
        let t = Instant::now();
        let mut sys = cfg.build();
        op.build_s += self.span(&sc, "build", t);
        if let Some(plan) = &self.plan {
            sys.set_fault_plan(plan);
        }
        if let Err(e) = self.simulate(cfg, index, &mut sys, reference, &sc, &mut op) {
            op.error = Some(format!("{label}: {e}"));
        }
        let t = Instant::now();
        let checked = cfg.check(&sys);
        op.check_s = self.span(&sc, "check", t);
        let t = Instant::now();
        black_box(sys.energy(&PowerModel::new()).total_pj());
        op.energy_s = self.span(&sc, "energy", t);
        op.counts = collect_counts(&sys);
        let error = if let Err(e) = checked {
            Some(format!("oracle check failed: {e}"))
        } else if op.counts.fault_silent > 0 {
            Some(format!("{} silent faults", op.counts.fault_silent))
        } else {
            reference
                .filter(|r| (r.cycles, r.committed) != (op.counts.cycles, op.counts.committed))
                .map(|r| {
                    format!(
                        "cycles/committed {}/{} differ from the uninterrupted reference {}/{}",
                        op.counts.cycles, op.counts.committed, r.cycles, r.committed
                    )
                })
        };
        if op.error.is_none() {
            op.error = error.map(|e| format!("{label}: {e}"));
        }
        if let (Some(p), Some(t)) = (parent, self.tracer.as_mut()) {
            t.spans.spans[p].dur_ns = op_start.elapsed().as_nanos() as u64;
        }
        op
    }

    /// Simulates `sys` to completion, replacing it with its restored copy
    /// at every checkpoint cut.
    fn simulate(
        &mut self,
        cfg: &Config,
        index: usize,
        sys: &mut System,
        reference: Option<Reference>,
        sc: &SpanCtx,
        op: &mut Op,
    ) -> Result<(), String> {
        let cuts = match reference {
            Some(r) if self.cut => cut_schedule(self.seed, index, r.cycles),
            _ => Vec::new(),
        };
        for cut in cuts {
            let t = Instant::now();
            self.advance(sys, cut, sc.traced);
            op.sim_s += self.span(sc, "simulate", t);
            if sys.all_halted() || sys.cycle() < cut {
                // Halted early, or a port operation recorded an error that
                // stopped `run_until`: the final run below reports it.
                break;
            }
            let (fresh, rt) = self.round_trip(cfg, sys, sc, op)?;
            *sys = fresh;
            op.round_trips.push(rt);
        }
        let t = Instant::now();
        let result = match (sc.traced, reference) {
            (true, Some(r)) => {
                self.advance(sys, r.cycles, true);
                if sys.all_halted() {
                    Ok(())
                } else {
                    Err(format!("still running at reference cycle {}", r.cycles))
                }
            }
            _ => sys.run(MAX_CYCLES).map(drop).map_err(|e| e.to_string()),
        };
        op.sim_s += self.span(sc, "simulate", t);
        result
    }

    /// Snapshot, write, read back, and restore into a freshly built copy.
    fn round_trip(
        &mut self,
        cfg: &Config,
        sys: &System,
        sc: &SpanCtx,
        op: &mut Op,
    ) -> Result<(System, RoundTrip), String> {
        let t = Instant::now();
        let snap = sys.snapshot();
        let capture_s = self.span(sc, "snapshot", t);
        let t = Instant::now();
        snap.write_to(&self.snap_path)
            .map_err(|e| format!("write {}: {e}", self.snap_path.display()))?;
        let write_s = self.span(sc, "write_to", t);
        let t = Instant::now();
        let back = Snapshot::read_from(&self.snap_path).map_err(|e| e.to_string())?;
        let read_s = self.span(sc, "read_from", t);
        let t = Instant::now();
        let mut fresh = cfg.build();
        op.build_s += self.span(sc, "build", t);
        let t = Instant::now();
        fresh.restore(&back).map_err(|e| e.to_string())?;
        let restore_s = self.span(sc, "restore", t);
        Ok((
            fresh,
            RoundTrip {
                capture_s,
                write_s,
                read_s,
                restore_s,
                bytes: snap.as_bytes().len() as u64,
            },
        ))
    }

    /// One checkpoint round trip of the halted probe system `sys`, its
    /// restored copy checked against the original (cycle, committed count
    /// and oracle).
    pub fn probe(&mut self, cfg: &Config, sys: &System, pass: usize, traced: bool) -> Op {
        let label = cfg.label();
        let sc = SpanCtx {
            traced,
            parent: None,
            pass,
            label: &label,
        };
        let mut op = Op::default();
        match self.round_trip(cfg, sys, &sc, &mut op) {
            Ok((fresh, rt)) => {
                op.round_trips.push(rt);
                let same = (fresh.cycle(), fresh.total_committed())
                    == (sys.cycle(), sys.total_committed());
                if !same {
                    op.error = Some(format!("{label}: restored copy differs"));
                } else if let Err(e) = cfg.check(&fresh) {
                    op.error = Some(format!("{label}: restored copy: {e}"));
                }
            }
            Err(e) => op.error = Some(format!("{label}: {e}")),
        }
        op
    }
}

/// `System::run_until` with every `step_or_skip` call timed into the
/// step, edge-step or skip histogram. Allocates nothing.
fn traced_advance(sys: &mut System, target: u64, h: &mut StepHists) {
    while !sys.all_halted() && sys.cycle() < target {
        let before = sys.cycle();
        let t = Instant::now();
        sys.step_or_skip(target);
        let ns = t.elapsed().as_nanos() as u64;
        let after = sys.cycle();
        if after > before + 1 {
            h.skip.record(ns);
        } else if after.is_multiple_of(SPL_CLOCK_DIVISOR) {
            h.edge.record(ns);
        } else {
            h.step.record(ns);
        }
    }
}
