//! Turning passes into metrics, and printing them: one line per metric
//! with its unit, then the result object the benchmark ends with.

use crate::exec::{Counts, Op, RoundTrip};
use crate::trace::StepHists;

/// End-to-end metrics (`--trace 0`): name, unit, better.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("sim_kcps", "kcycles/s", "higher"),
    ("sim_kips", "kinst/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_heap_mb", "MB", "lower"),
    ("ckpt_ms_p50", "ms", "lower"),
    ("ckpt_ms_p90", "ms", "lower"),
];

/// Per-layer metrics (`--trace 1`): name, unit, better. Exact counts are
/// per pass; `*_ns` and `*_ms` come from the traced passes.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.build_ms", "ms", "lower"),
    ("workloads.check_ms", "ms", "lower"),
    ("core.cycles", "count", "lower"),
    ("core.skipped_cycles", "count", "higher"),
    ("core.skip_rate", "ratio", "higher"),
    ("core.step_calls", "count", "lower"),
    ("core.step_ns_p50", "ns", "lower"),
    ("core.step_ns_p99", "ns", "lower"),
    ("core.edge_step_ns_p50", "ns", "lower"),
    ("core.skip_calls", "count", "higher"),
    ("core.skip_ns_p50", "ns", "lower"),
    ("core.trace_overhead", "ratio", "lower"),
    ("cpu.committed", "count", "lower"),
    ("cpu.fetched", "count", "lower"),
    ("cpu.squashed", "count", "lower"),
    ("cpu.useful_fetch_ratio", "ratio", "higher"),
    ("cpu.mispredicts", "count", "lower"),
    ("cpu.rob_full_stalls", "count", "lower"),
    ("cpu.iq_full_stalls", "count", "lower"),
    ("cpu.fence_wait_cycles", "count", "lower"),
    ("cpu.ns_per_commit", "ns", "lower"),
    ("mem.l1d_hits", "count", "higher"),
    ("mem.l1d_misses", "count", "lower"),
    ("mem.l1i_misses", "count", "lower"),
    ("mem.l2_misses", "count", "lower"),
    ("mem.dram_accesses", "count", "lower"),
    ("mem.mshr_merges", "count", "higher"),
    ("mem.prefetch_issued", "count", "lower"),
    ("mem.prefetch_accuracy", "ratio", "higher"),
    ("mem.c2c_transfers", "count", "lower"),
    ("mem.upgrades", "count", "lower"),
    ("mem.invalidations", "count", "lower"),
    ("mem.snoops", "count", "lower"),
    ("mem.dir_probes_sent", "count", "lower"),
    ("mem.dir_probes_avoided", "count", "higher"),
    ("mem.dir_bank_conflicts", "count", "lower"),
    ("spl.compute_ops", "count", "higher"),
    ("spl.barrier_ops", "count", "higher"),
    ("spl.row_activations", "count", "lower"),
    ("spl.stall_rows", "count", "lower"),
    ("spl.stall_output_full", "count", "lower"),
    ("comm.hwq_insts", "count", "higher"),
    ("comm.hw_wait_cycles", "count", "lower"),
    ("comm.spl_wait_cycles", "count", "lower"),
    ("fault.injected", "count", "lower"),
    ("fault.recovered", "count", "higher"),
    ("fault.silent", "count", "lower"),
    ("snap.capture_ms_p50", "ms", "lower"),
    ("snap.write_ms_p50", "ms", "lower"),
    ("snap.read_ms_p50", "ms", "lower"),
    ("snap.restore_ms_p50", "ms", "lower"),
    ("snap.bytes", "bytes", "lower"),
    ("snap.round_trips", "count", "higher"),
    ("power.energy_ms", "ms", "lower"),
];

/// Host times of one op (one configuration) in one pass.
#[derive(Clone, Debug, Default)]
pub struct OpTime {
    pub wall_s: f64,
    pub sim_s: f64,
    pub build_s: f64,
    /// Its checkpoint round trips, in cut order.
    pub ckpt_ms: Vec<f64>,
}

/// Host seconds and exact counts of one pass over a workload's configs.
#[derive(Debug, Default)]
pub struct Pass {
    pub traced: bool,
    /// Host seconds of the pass's ops (probe round trips excluded).
    pub wall_s: f64,
    pub sim_s: f64,
    pub build_s: f64,
    pub check_s: f64,
    pub energy_s: f64,
    pub counts: Counts,
    /// Per op, by configuration index; the probe's round trips last.
    pub ops: Vec<OpTime>,
    /// Every round trip of the pass, ops' and probe's.
    pub round_trips: Vec<RoundTrip>,
    /// On-CPU and run-queue-wait seconds of the benchmark thread.
    pub on_cpu_s: f64,
    pub runq_wait_s: f64,
}

impl Pass {
    /// A pass over `n_ops` configurations plus the probe slot.
    pub fn new(traced: bool, n_ops: usize) -> Pass {
        Pass {
            traced,
            ops: vec![OpTime::default(); n_ops + 1],
            ..Pass::default()
        }
    }

    /// Folds in op `index`, which took `wall_s` host seconds.
    pub fn add(&mut self, index: usize, op: &Op, wall_s: f64) {
        self.sim_s += op.sim_s;
        self.build_s += op.build_s;
        self.check_s += op.check_s;
        self.energy_s += op.energy_s;
        self.counts.add(&op.counts);
        self.round_trips.extend_from_slice(&op.round_trips);
        let t = &mut self.ops[index];
        t.wall_s += wall_s;
        t.sim_s += op.sim_s;
        t.build_s += op.build_s;
        t.ckpt_ms.extend(op.round_trips.iter().map(RoundTrip::ms));
    }

    /// Folds in a probe round trip (not part of the pass's ops).
    pub fn add_probe(&mut self, op: &Op) {
        self.round_trips.extend_from_slice(&op.round_trips);
        let probe = self.ops.last_mut().expect("the probe slot");
        probe
            .ckpt_ms
            .extend(op.round_trips.iter().map(RoundTrip::ms));
    }
}

/// Everything one run measured.
pub struct Summary {
    /// Timed passes, traced and untraced, in order.
    pub passes: Vec<Pass>,
    /// Step histograms merged over the traced passes.
    pub hists: StepHists,
    /// Peak live heap of the whole run.
    pub peak_heap_mb: f64,
}

/// Median by linear interpolation (`statistics.median`); 0 when empty.
fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// The `q`-quantile by linear interpolation between order statistics.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Summary {
    fn of_kind(&self, traced: bool) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(move |p| p.traced == traced)
    }

    /// Exact counts of a pass; every untraced pass repeats them.
    fn counts(&self) -> Counts {
        self.of_kind(false)
            .next()
            .map(|p| p.counts)
            .unwrap_or_default()
    }

    /// The lowest value of `f` over the passes of one kind.
    fn best(&self, traced: bool, f: impl Fn(&Pass) -> f64) -> f64 {
        self.of_kind(traced).map(f).reduce(f64::min).unwrap_or(0.0)
    }

    /// Each op's best time over the untraced passes, field by field and
    /// round trip by round trip: the op as fast as it ran when the host
    /// disturbed it least (see README.md, "Noise"). Ops are deterministic,
    /// so every pass repeats the same work.
    fn best_ops(&self) -> Vec<OpTime> {
        let mut passes = self.of_kind(false);
        let mut best = passes.next().map(|p| p.ops.clone()).unwrap_or_default();
        for p in passes {
            for (b, o) in best.iter_mut().zip(&p.ops) {
                b.wall_s = b.wall_s.min(o.wall_s);
                b.sim_s = b.sim_s.min(o.sim_s);
                b.build_s = b.build_s.min(o.build_s);
                for (x, y) in b.ckpt_ms.iter_mut().zip(&o.ckpt_ms) {
                    *x = x.min(*y);
                }
            }
        }
        best
    }

    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let best = self.best_ops();
        let sum = |f: fn(&OpTime) -> f64| best.iter().map(f).sum::<f64>();
        let c = self.counts();
        let sim_s = sum(|o| o.sim_s);
        let mut ckpt: Vec<f64> = best
            .iter()
            .flat_map(|o| o.ckpt_ms.iter().copied())
            .collect();
        vec![
            ("sim_kcps", c.cycles as f64 / sim_s / 1e3),
            ("sim_kips", c.committed as f64 / sim_s / 1e3),
            ("wall_s", sum(|o| o.wall_s)),
            ("setup_s", sum(|o| o.build_s)),
            ("peak_heap_mb", self.peak_heap_mb),
            ("ckpt_ms_p50", quantile(&mut ckpt, 0.5)),
            ("ckpt_ms_p90", quantile(&mut ckpt, 0.9)),
        ]
    }

    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let c = self.counts();
        let traced_ms = |f: &dyn Fn(&Pass) -> f64| self.best(true, |p| f(p) * 1e3);
        let n_traced = self.of_kind(true).count().max(1) as u64;
        let h = &self.hists;
        let rts: Vec<RoundTrip> = self
            .of_kind(true)
            .flat_map(|p| p.round_trips.iter().copied())
            .collect();
        let rt_ms =
            |f: &dyn Fn(&RoundTrip) -> f64| median(rts.iter().map(|r| f(r) * 1e3).collect());
        let round_trips = self
            .of_kind(false)
            .next()
            .map_or(0, |p| p.round_trips.len());
        vec![
            ("workloads.build_ms", traced_ms(&|p| p.build_s)),
            ("workloads.check_ms", traced_ms(&|p| p.check_s)),
            ("core.cycles", c.cycles as f64),
            ("core.skipped_cycles", c.skipped_cycles as f64),
            ("core.skip_rate", ratio(c.skipped_cycles, c.cycles)),
            (
                "core.step_calls",
                ((h.step.count() + h.edge.count()) / n_traced) as f64,
            ),
            ("core.step_ns_p50", h.step.quantile(0.5)),
            ("core.step_ns_p99", h.step.quantile(0.99)),
            ("core.edge_step_ns_p50", h.edge.quantile(0.5)),
            ("core.skip_calls", (h.skip.count() / n_traced) as f64),
            ("core.skip_ns_p50", h.skip.quantile(0.5)),
            (
                "core.trace_overhead",
                self.best(true, |p| p.wall_s) / self.best(false, |p| p.wall_s),
            ),
            ("cpu.committed", c.committed as f64),
            ("cpu.fetched", c.fetched as f64),
            ("cpu.squashed", c.squashed as f64),
            ("cpu.useful_fetch_ratio", ratio(c.committed, c.fetched)),
            ("cpu.mispredicts", c.mispredicts as f64),
            ("cpu.rob_full_stalls", c.rob_full_stalls as f64),
            ("cpu.iq_full_stalls", c.iq_full_stalls as f64),
            ("cpu.fence_wait_cycles", c.fence_wait_cycles as f64),
            (
                "cpu.ns_per_commit",
                self.best(false, |p| p.sim_s * 1e9 / p.counts.committed.max(1) as f64),
            ),
            ("mem.l1d_hits", c.l1d_hits as f64),
            ("mem.l1d_misses", c.l1d_misses as f64),
            ("mem.l1i_misses", c.l1i_misses as f64),
            ("mem.l2_misses", c.l2_misses as f64),
            ("mem.dram_accesses", c.dram_accesses as f64),
            ("mem.mshr_merges", c.mshr_merges as f64),
            ("mem.prefetch_issued", c.prefetch_issued as f64),
            (
                "mem.prefetch_accuracy",
                ratio(c.prefetch_used, c.prefetch_issued),
            ),
            ("mem.c2c_transfers", c.c2c_transfers as f64),
            ("mem.upgrades", c.upgrades as f64),
            ("mem.invalidations", c.invalidations as f64),
            ("mem.snoops", c.snoops as f64),
            ("mem.dir_probes_sent", c.dir_probes_sent as f64),
            ("mem.dir_probes_avoided", c.dir_probes_avoided as f64),
            ("mem.dir_bank_conflicts", c.dir_bank_conflicts as f64),
            ("spl.compute_ops", c.spl_compute_ops as f64),
            ("spl.barrier_ops", c.spl_barrier_ops as f64),
            ("spl.row_activations", c.spl_row_activations as f64),
            ("spl.stall_rows", c.spl_stall_rows as f64),
            ("spl.stall_output_full", c.spl_stall_output_full as f64),
            ("comm.hwq_insts", c.hwq_insts as f64),
            ("comm.hw_wait_cycles", c.hw_wait_cycles as f64),
            ("comm.spl_wait_cycles", c.spl_wait_cycles as f64),
            ("fault.injected", c.fault_injected as f64),
            ("fault.recovered", c.fault_recovered as f64),
            ("fault.silent", c.fault_silent as f64),
            ("snap.capture_ms_p50", rt_ms(&|r| r.capture_s)),
            ("snap.write_ms_p50", rt_ms(&|r| r.write_s)),
            ("snap.read_ms_p50", rt_ms(&|r| r.read_s)),
            ("snap.restore_ms_p50", rt_ms(&|r| r.restore_s)),
            (
                "snap.bytes",
                median(rts.iter().map(|r| r.bytes as f64).collect()),
            ),
            ("snap.round_trips", round_trips as f64),
            ("power.energy_ms", traced_ms(&|p| p.energy_s)),
        ]
    }
}

/// Pairs computed values with their units in `table` order.
pub fn with_units(
    table: &[(&'static str, &'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .map(|&(name, unit, _)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"))
                .1;
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

/// The result object the benchmark prints as its last line.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
