//! The shared SPL fabric: scheduling, virtualization, partitioning, and
//! temporal sharing.

use crate::function::{FunctionKind, SplFunction};
use crate::queue::{InputQueue, OutputQueue};
use crate::row::RowModel;
use remap_fault::{Roller, SiteCfg, SiteCounters};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Deterministic row-output bit-flip injection for one fabric.
///
/// One fault roll per *completing operation* (an architectural event, so the
/// stream is identical whether the surrounding simulator ticks or skips).
/// With parity protection the flip is caught at the output bus and the
/// operation replays after a row scrub; without it the flipped result is
/// delivered silently.
#[derive(Debug, Clone)]
pub struct SplFault {
    roller: Roller,
    bitflip: SiteCfg,
    parity: bool,
    replay_ticks: u64,
    counters: SiteCounters,
}

impl SplFault {
    /// A fault stream for `site` under master `seed`. `replay_ticks` is the
    /// scrub-plus-replay cost in SPL cycles (clamped to at least 1).
    pub fn new(
        seed: u64,
        site: u64,
        bitflip: SiteCfg,
        parity: bool,
        replay_ticks: u64,
    ) -> SplFault {
        SplFault {
            roller: Roller::new(seed, site),
            bitflip,
            parity,
            replay_ticks: replay_ticks.max(1),
            counters: SiteCounters::default(),
        }
    }

    /// Accounting so far.
    pub fn counters(&self) -> SiteCounters {
        self.counters
    }
}

// The site configuration is rebuilt from the fault plan on restore.
remap_snap::state!(SplFault |f| { f.roller, f.counters });

/// Fabric geometry and sharing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplConfig {
    /// Physical rows in the fabric (24 in the paper).
    pub rows: u32,
    /// Cores attached to (sharing) this fabric.
    pub n_cores: usize,
    /// Spatial partitions (1–4). Rows are split evenly.
    pub partitions: usize,
    /// Which partition each core issues to (`core_partition[core]`).
    pub core_partition: Vec<usize>,
    /// Sealed input-queue entries per core.
    pub input_capacity: usize,
    /// Output-queue results per core.
    pub output_capacity: usize,
    /// Structural row model (area/power inventory).
    pub row_model: RowModel,
}

impl SplConfig {
    /// The paper's fabric: 24 rows, unpartitioned, shared by `n_cores`
    /// cores, 8-entry queues.
    pub fn paper(n_cores: usize) -> SplConfig {
        SplConfig {
            rows: 24,
            n_cores,
            partitions: 1,
            core_partition: vec![0; n_cores],
            input_capacity: 8,
            output_capacity: 8,
            row_model: RowModel::default(),
        }
    }

    /// A fabric with `rows` physical rows (e.g. 12 when a communicating pair
    /// is assumed to own half of the shared SPL, as in §V-A).
    pub fn with_rows(n_cores: usize, rows: u32) -> SplConfig {
        SplConfig {
            rows,
            ..SplConfig::paper(n_cores)
        }
    }

    /// Spatially partitioned fabric: cores are assigned to the `partitions`
    /// virtual clusters round-robin.
    pub fn partitioned(n_cores: usize, partitions: usize) -> SplConfig {
        let core_partition = (0..n_cores).map(|c| c % partitions).collect();
        SplConfig {
            partitions,
            core_partition,
            ..SplConfig::paper(n_cores)
        }
    }

    /// Rows in each partition.
    pub fn partition_rows(&self) -> u32 {
        self.rows / self.partitions as u32
    }
}

/// Fabric activity statistics, consumed by the power model and reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SplStats {
    /// Compute operations completed.
    pub compute_ops: u64,
    /// Barrier operations completed.
    pub barrier_ops: u64,
    /// Total virtual-row activations (one row evaluated for one SPL cycle).
    pub row_activations: u64,
    /// Issue attempts deferred because the partition's initiation interval
    /// had not elapsed.
    pub stall_rows: u64,
    /// Issue attempts deferred because a destination output queue was full.
    pub stall_output_full: u64,
    /// Results delivered to output queues.
    pub results_delivered: u64,
}

/// Errors returned by [`Spl::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The configuration id has not been registered.
    UnknownConfig(u16),
    /// The core's sealed input queue is full; retry next cycle.
    QueueFull,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnknownConfig(c) => write!(f, "unknown SPL configuration {c}"),
            RequestError::QueueFull => write!(f, "SPL input queue full"),
        }
    }
}

impl Error for RequestError {}

/// A completed-delivery notification, used by the system layer to maintain
/// the Thread-to-Core table's in-flight counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplEvent {
    /// Core that initiated the operation.
    pub from_core: usize,
    /// Core whose output queue received the result.
    pub dest_core: usize,
    /// Configuration id.
    pub cfg: u16,
}

/// Destination set of an in-flight operation. Compute operations have
/// exactly one destination and must not allocate on the issue path; only
/// barrier broadcasts (rare) carry a heap-allocated participant list.
#[derive(Debug, Clone)]
enum Dests {
    One(usize),
    Many(Vec<usize>),
}

impl Default for Dests {
    fn default() -> Dests {
        Dests::One(0)
    }
}

impl Dests {
    fn as_slice(&self) -> &[usize] {
        match self {
            Dests::One(d) => std::slice::from_ref(d),
            Dests::Many(v) => v,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Inflight {
    done_at: u64,
    result: u64,
    dests: Dests,
    from: usize,
    cfg: u16,
    barrier: bool,
    rows: u32,
}

#[derive(Debug, Clone, Default)]
struct PartState {
    next_issue_at: u64,
    inflight: Vec<Inflight>,
}

#[derive(Debug, Clone, Default)]
struct ReleasedBarrier {
    cfg: u16,
    participants: Vec<usize>,
}

/// The shared SPL fabric.
///
/// The fabric is advanced once per *SPL cycle* (one quarter of the core
/// clock) with [`Spl::tick`]. Cores interact through the staged-entry /
/// sealed-request / output-pop interface, which the system layer adapts to
/// the `spl_load` / `spl_init` / `spl_store` instructions.
pub struct Spl {
    cfg: SplConfig,
    funcs: HashMap<u16, SplFunction>,
    /// One state word per registered function (see
    /// [`SplFunction::stateful`]): the fabric owns it, so it travels in
    /// snapshots.
    words: HashMap<u16, u64>,
    inputs: Vec<InputQueue>,
    outputs: Vec<OutputQueue>,
    parts: Vec<PartState>,
    released: Vec<ReleasedBarrier>,
    rr: usize,
    stats: SplStats,
    fault: Option<Box<SplFault>>,
}

impl fmt::Debug for Spl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spl")
            .field("cfg", &self.cfg)
            .field("configs", &self.funcs.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Spl {
    /// Creates an idle fabric.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (no rows, partitions that do not
    /// divide the rows, or a core mapped to a missing partition).
    pub fn new(cfg: SplConfig) -> Spl {
        assert!(cfg.rows > 0, "fabric needs rows");
        assert!(
            (1..=4).contains(&cfg.partitions),
            "1 to 4 partitions supported (got {})",
            cfg.partitions
        );
        assert_eq!(
            cfg.rows % cfg.partitions as u32,
            0,
            "partitions must divide the row count evenly"
        );
        assert_eq!(
            cfg.core_partition.len(),
            cfg.n_cores,
            "one partition entry per core"
        );
        assert!(
            cfg.core_partition.iter().all(|&p| p < cfg.partitions),
            "core mapped to nonexistent partition"
        );
        Spl {
            inputs: (0..cfg.n_cores)
                .map(|_| InputQueue::new(cfg.input_capacity))
                .collect(),
            outputs: (0..cfg.n_cores)
                .map(|_| OutputQueue::new(cfg.output_capacity))
                .collect(),
            parts: vec![PartState::default(); cfg.partitions],
            released: Vec::new(),
            rr: 0,
            stats: SplStats::default(),
            fault: None,
            funcs: HashMap::new(),
            words: HashMap::new(),
            cfg,
        }
    }

    /// Installs (or clears) the fault-injection stream for this fabric.
    pub fn set_fault(&mut self, fault: Option<SplFault>) {
        self.fault = fault.map(Box::new);
    }

    /// Fault accounting so far (all zeros when no stream is installed).
    pub fn fault_counters(&self) -> SiteCounters {
        self.fault.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// The fabric configuration.
    pub fn config(&self) -> &SplConfig {
        &self.cfg
    }

    /// Activity statistics.
    pub fn stats(&self) -> &SplStats {
        &self.stats
    }

    /// Registers (or replaces) a function configuration; its state word
    /// starts at zero.
    pub fn register(&mut self, id: u16, func: SplFunction) {
        self.funcs.insert(id, func);
        self.words.insert(id, 0);
    }

    /// Looks up a registered configuration.
    pub fn function(&self, id: u16) -> Option<&SplFunction> {
        self.funcs.get(&id)
    }

    /// Iterates over all registered configurations.
    pub fn functions(&self) -> impl Iterator<Item = (u16, &SplFunction)> {
        self.funcs.iter().map(|(&id, f)| (id, f))
    }

    /// Stages bytes into `core`'s input entry under construction
    /// (`spl_load`).
    pub fn stage(&mut self, core: usize, offset: u8, nbytes: u8, value: u64) {
        self.inputs[core].stage(offset, nbytes, value);
    }

    /// Seals `core`'s staged entry and requests configuration `cfg`
    /// (`spl_init`). For compute configurations, `dest_core` must already be
    /// resolved (via the Thread-to-Core table for [`Dest::Thread`](crate::Dest::Thread)); for
    /// barrier configurations it is ignored.
    ///
    /// # Errors
    ///
    /// [`RequestError::UnknownConfig`] for unregistered ids;
    /// [`RequestError::QueueFull`] when the sealed queue is full (the caller
    /// retries, stalling the requesting core).
    pub fn request(&mut self, core: usize, cfg: u16, dest_core: usize) -> Result<(), RequestError> {
        if !self.funcs.contains_key(&cfg) {
            return Err(RequestError::UnknownConfig(cfg));
        }
        if self.inputs[core].seal(cfg, dest_core) {
            Ok(())
        } else {
            Err(RequestError::QueueFull)
        }
    }

    /// Sealed entries waiting in `core`'s input queue.
    pub fn input_pending(&self, core: usize) -> usize {
        self.inputs[core].len()
    }

    /// Whether `core`'s sealed input queue would admit another request right
    /// now (pure mirror of [`Spl::request`]'s back-pressure check).
    pub fn can_seal(&self, core: usize) -> bool {
        self.inputs[core].can_seal()
    }

    /// Results ready in `core`'s output queue.
    pub fn output_ready(&self, core: usize) -> usize {
        self.outputs[core].len()
    }

    /// Pops the oldest result from `core`'s output queue (`spl_store`).
    pub fn pop_output(&mut self, core: usize) -> Option<u64> {
        self.outputs[core].pop()
    }

    /// Marks a barrier configuration as released: all participants have
    /// arrived according to the Barrier table. The fabric issues the global
    /// function once every participant's sealed-queue *head* is the matching
    /// barrier entry (the paper's "loads from all of the cores have reached
    /// the head of their respective input queues").
    pub fn release_barrier(&mut self, cfg: u16, participants: Vec<usize>) {
        self.released.push(ReleasedBarrier { cfg, participants });
    }

    /// Advances the fabric by one SPL cycle (`now` is the SPL cycle number,
    /// monotonically increasing). Returns delivery events for Thread-to-Core
    /// in-flight bookkeeping.
    ///
    /// Convenience wrapper over [`Spl::tick_into`] that allocates a fresh
    /// event vector; hot loops should hold a reusable buffer and call
    /// `tick_into` directly.
    pub fn tick(&mut self, now: u64) -> Vec<SplEvent> {
        let mut events = Vec::new();
        self.tick_into(now, &mut events);
        events
    }

    /// Advances the fabric by one SPL cycle, appending delivery events to
    /// `events` (which the caller clears and reuses across cycles). The
    /// per-cycle path performs no heap allocation: completions drain into
    /// the caller's buffer and compute issues carry a single inline
    /// destination.
    pub fn tick_into(&mut self, now: u64, events: &mut Vec<SplEvent>) {
        // 1. Complete in-flight operations.
        let mut fault = self.fault.take();
        for part in &mut self.parts {
            let mut i = 0;
            while i < part.inflight.len() {
                if part.inflight[i].done_at <= now {
                    // One fault roll per completing operation: detected
                    // flips scrub the rows and replay the operation in
                    // place; undetected flips corrupt the delivered result.
                    if let Some(f) = fault.as_deref_mut() {
                        let d = f.roller.draw();
                        if d.fires(&f.bitflip) {
                            f.counters.injected += 1;
                            if f.parity {
                                f.counters.detected += 1;
                                f.counters.recovered += 1;
                                part.inflight[i].done_at = now + f.replay_ticks;
                                i += 1;
                                continue;
                            }
                            part.inflight[i].result ^= 1u64 << d.pick(64);
                            f.counters.silent += 1;
                        }
                    }
                    let op = part.inflight.remove(i);
                    for &d in op.dests.as_slice() {
                        self.outputs[d].deliver(op.result);
                        self.stats.results_delivered += 1;
                        events.push(SplEvent {
                            from_core: op.from,
                            dest_core: d,
                            cfg: op.cfg,
                        });
                    }
                    if op.barrier {
                        self.stats.barrier_ops += 1;
                    } else {
                        self.stats.compute_ops += 1;
                    }
                    self.stats.row_activations += op.rows as u64;
                } else {
                    i += 1;
                }
            }
        }
        self.fault = fault;
        // 2. Issue released barriers whose participants are all at head.
        let mut bi = 0;
        while bi < self.released.len() {
            if self.try_issue_barrier(bi, now) {
                self.released.remove(bi);
            } else {
                bi += 1;
            }
        }
        // 3. Issue compute requests round-robin across the sharing cores.
        let n = self.cfg.n_cores;
        for k in 0..n {
            let core = (self.rr + k) % n;
            self.try_issue_compute(core, now);
        }
        self.rr = (self.rr + 1) % n.max(1);
    }

    /// Quiescence probe: the earliest SPL cycle strictly after `now` at which
    /// ticking the fabric can change any observable state (queues, in-flight
    /// ops, or statistics — stall counters included).
    ///
    /// * `None` — the fabric would act (issue, complete, or count a stall) on
    ///   the very next tick, so it must be ticked cycle by cycle.
    /// * `Some(t)` with `t < u64::MAX` — nothing can happen before SPL cycle
    ///   `t` (the earliest in-flight completion).
    /// * `Some(u64::MAX)` — purely reactive: only a new core request (or a
    ///   barrier release) can wake the fabric.
    ///
    /// The round-robin pointer still rotates on quiescent ticks; callers that
    /// bulk-skip must replicate that with [`Spl::skip_ticks`].
    #[inline]
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // A released barrier whose participants are all at head issues (or
        // counts a stall) on every tick.
        for rb in &self.released {
            if rb
                .participants
                .iter()
                .all(|&p| matches!(self.inputs[p].head(), Some(h) if h.cfg == rb.cfg))
            {
                return None;
            }
        }
        // A non-barrier head issues (or counts a stall) on every tick.
        // Barrier heads that are not released yet are inert: `try_issue_compute`
        // returns before touching any counter.
        for q in &self.inputs {
            if let Some(h) = q.head() {
                let func = self.funcs.get(&h.cfg).expect("validated at request");
                if !func.is_barrier() {
                    return None;
                }
            }
        }
        // Otherwise the only scheduled activity is in-flight completion.
        let mut wake = u64::MAX;
        for part in &self.parts {
            for op in &part.inflight {
                wake = wake.min(op.done_at.max(now + 1));
            }
        }
        Some(wake)
    }

    /// Bulk-advances the fabric over `ticks` quiescent SPL cycles. The only
    /// per-tick mutation in the quiescent state is the round-robin pointer
    /// rotation at the end of [`Spl::tick_into`], replicated here so a
    /// skipped run stays bit-identical to a ticked one.
    pub fn skip_ticks(&mut self, ticks: u64) {
        let n = self.cfg.n_cores.max(1);
        self.rr = (self.rr + (ticks % n as u64) as usize) % n;
    }

    fn ii_for(&self, rows: u32) -> u64 {
        rows.div_ceil(self.cfg.partition_rows()) as u64
    }

    fn try_issue_compute(&mut self, core: usize, now: u64) {
        let Some(head) = self.inputs[core].head() else {
            return;
        };
        let cfg_id = head.cfg;
        let dest = head.dest_core;
        let func = self.funcs.get(&cfg_id).expect("validated at request");
        if func.is_barrier() {
            return; // waits for release + all-heads
        }
        let rows = func.rows();
        let part_id = self.cfg.core_partition[core];
        if self.parts[part_id].next_issue_at > now {
            self.stats.stall_rows += 1;
            return;
        }
        if !self.outputs[dest].reserve() {
            self.stats.stall_output_full += 1;
            return;
        }
        let sealed = self.inputs[core].pop().expect("head exists");
        let result = match func.kind() {
            FunctionKind::Compute { eval, .. } => {
                eval(&sealed.entry, self.words.entry(cfg_id).or_default())
            }
            FunctionKind::Barrier { .. } => unreachable!("filtered above"),
        };
        let ii = self.ii_for(rows);
        let part = &mut self.parts[part_id];
        part.next_issue_at = now + ii;
        part.inflight.push(Inflight {
            done_at: now + rows as u64 + 1,
            result,
            dests: Dests::One(dest),
            from: core,
            cfg: cfg_id,
            barrier: false,
            rows,
        });
    }

    fn try_issue_barrier(&mut self, idx: usize, now: u64) -> bool {
        let rb = &self.released[idx];
        let cfg_id = rb.cfg;
        let participants = rb.participants.clone();
        // All participants' heads must be this barrier's entries.
        for &p in &participants {
            match self.inputs[p].head() {
                Some(h) if h.cfg == cfg_id => {}
                _ => return false,
            }
        }
        let func = self.funcs.get(&cfg_id).expect("validated at request");
        let rows = func.rows();
        let part_id = self.cfg.core_partition[participants[0]];
        if self.parts[part_id].next_issue_at > now {
            self.stats.stall_rows += 1;
            return false;
        }
        // Reserve every participant's output slot atomically.
        let mut reserved = Vec::new();
        for &p in &participants {
            if self.outputs[p].reserve() {
                reserved.push(p);
            } else {
                self.stats.stall_output_full += 1;
                // Roll back reservations (cannot issue this cycle).
                for &r in &reserved {
                    // Deliver+pop would corrupt; instead un-reserve by
                    // delivering to a scratch value is wrong. Track reserve
                    // rollback through a dedicated method.
                    self.outputs[r].unreserve();
                }
                return false;
            }
        }
        let entries: Vec<_> = participants
            .iter()
            .map(|&p| self.inputs[p].pop().expect("head checked").entry)
            .collect();
        let result = match func.kind() {
            FunctionKind::Barrier { eval } => eval(&entries),
            FunctionKind::Compute { .. } => unreachable!("barrier release on compute cfg"),
        };
        let ii = self.ii_for(rows);
        let part = &mut self.parts[part_id];
        part.next_issue_at = now + ii;
        part.inflight.push(Inflight {
            done_at: now + rows as u64 + 1,
            result,
            dests: Dests::Many(participants),
            from: usize::MAX,
            cfg: cfg_id,
            barrier: true,
            rows,
        });
        true
    }
}

/// A compute operation has one destination, a barrier broadcast many.
impl remap_snap::State for Dests {
    fn save(&self, w: &mut remap_snap::Writer) {
        match self {
            Dests::One(d) => (0u8, *d).save(w),
            Dests::Many(v) => {
                1u8.save(w);
                v.save(w);
            }
        }
    }
    fn load(&mut self, r: &mut remap_snap::Reader) -> Result<(), remap_snap::SnapError> {
        *self = match u8::read(r)? {
            0 => Dests::One(usize::read(r)?),
            1 => Dests::Many(Vec::read(r)?),
            t => {
                return Err(remap_snap::SnapError::Corrupt(format!(
                    "bad SPL destination tag {t}"
                )))
            }
        };
        Ok(())
    }
}

remap_snap::state!(Inflight |op| {
    op.done_at,
    op.result,
    op.dests,
    op.from,
    op.cfg,
    op.barrier,
    op.rows,
});

remap_snap::state!(PartState |p| { p.next_issue_at, p.inflight });

remap_snap::state!(ReleasedBarrier |b| { b.cfg, b.participants });

remap_snap::state!(SplStats |s| {
    s.compute_ops,
    s.barrier_ops,
    s.row_activations,
    s.stall_rows,
    s.stall_output_full,
    s.results_delivered,
});

// The function registry and geometry are static and do not travel (only
// the functions' state words do): a restored fabric must be built with the
// same configuration, registrations, and fault plan.
remap_snap::state!(Spl |s| {
    exact s.inputs,
    fixed s.outputs,
    exact s.parts,
    s.released,
    s.rr,
    s.stats,
    s.words,
    present s.fault,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Dest;

    fn add_fabric() -> Spl {
        let mut spl = Spl::new(SplConfig::paper(4));
        spl.register(
            1,
            SplFunction::compute("add", 4, Dest::SelfCore, |e| {
                (e.u32(0) as u64).wrapping_add(e.u32(4) as u64)
            }),
        );
        spl
    }

    fn run_until_output(spl: &mut Spl, core: usize, max: u64) -> (u64, u64) {
        for t in 1..=max {
            spl.tick(t);
            if let Some(v) = spl.pop_output(core) {
                return (v, t);
            }
        }
        panic!("no output within {max} SPL cycles");
    }

    #[test]
    fn basic_compute_latency() {
        let mut spl = add_fabric();
        spl.stage(0, 0, 4, 30);
        spl.stage(0, 4, 4, 12);
        spl.request(0, 1, 0).unwrap();
        let (v, t) = run_until_output(&mut spl, 0, 100);
        assert_eq!(v, 42);
        // Issued at t=1, rows=4 → done at 1+4+1=6.
        assert_eq!(t, 6);
        assert_eq!(spl.stats().compute_ops, 1);
        assert_eq!(spl.stats().row_activations, 4);
    }

    #[test]
    fn pipelined_ops_have_unit_initiation_interval() {
        let mut spl = add_fabric();
        for i in 0..4u64 {
            spl.stage(0, 0, 4, i);
            spl.stage(0, 4, 4, 100);
            spl.request(0, 1, 0).unwrap();
        }
        // With rows=4 ≤ 24 physical, II = 1: four ops complete on
        // consecutive SPL cycles starting at 6.
        let mut done = Vec::new();
        for t in 1..=40 {
            spl.tick(t);
            while let Some(v) = spl.pop_output(0) {
                done.push((t, v));
            }
        }
        assert_eq!(done.len(), 4);
        assert_eq!(done[0].0, 6);
        assert_eq!(done[3].0, 9, "fully pipelined: one completion per cycle");
        assert_eq!(
            done.iter().map(|d| d.1).collect::<Vec<_>>(),
            vec![100, 101, 102, 103]
        );
    }

    #[test]
    fn virtualized_function_degrades_throughput_not_correctness() {
        let mut spl = Spl::new(SplConfig::paper(1));
        // 48 virtual rows on 24 physical: II = 2.
        spl.register(
            9,
            SplFunction::compute("big", 48, Dest::SelfCore, |e| e.u32(0) as u64),
        );
        for i in 0..3u64 {
            spl.stage(0, 0, 4, i);
            spl.request(0, 9, 0).unwrap();
        }
        let mut done = Vec::new();
        for t in 1..=200 {
            spl.tick(t);
            while let Some(v) = spl.pop_output(0) {
                done.push((t, v));
            }
        }
        assert_eq!(done.len(), 3);
        // First done at 1+48+1 = 50; subsequent issues at t=3, 5 → 52, 54.
        assert_eq!(done[0].0, 50);
        assert_eq!(done[1].0 - done[0].0, 2, "initiation interval of 2");
        assert_eq!(done[2].0 - done[1].0, 2);
    }

    #[test]
    fn partitions_isolate_contention() {
        // Two cores, two partitions: both can issue in the same cycle.
        let mut spl = Spl::new(SplConfig::partitioned(2, 2));
        spl.register(
            1,
            SplFunction::compute("id", 12, Dest::SelfCore, |e| e.u32(0) as u64),
        );
        spl.stage(0, 0, 4, 5);
        spl.request(0, 1, 0).unwrap();
        spl.stage(1, 0, 4, 6);
        spl.request(1, 1, 1).unwrap();
        spl.tick(1);
        // Both issued at t=1 → both complete at t=14.
        let mut got = Vec::new();
        for t in 2..=20 {
            spl.tick(t);
            if let Some(v) = spl.pop_output(0) {
                got.push((0, t, v));
            }
            if let Some(v) = spl.pop_output(1) {
                got.push((1, t, v));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, got[1].1, "parallel partitions complete together");
    }

    #[test]
    fn partitioning_increases_virtualization() {
        // A 24-row function on a 12-row partition has II=2 and still works.
        let mut spl = Spl::new(SplConfig::partitioned(2, 2));
        spl.register(
            1,
            SplFunction::compute("full", 24, Dest::SelfCore, |e| e.u32(0) as u64),
        );
        spl.stage(0, 0, 4, 7);
        spl.request(0, 1, 0).unwrap();
        let (v, t) = run_until_output(&mut spl, 0, 100);
        assert_eq!(v, 7);
        assert_eq!(t, 1 + 24 + 1);
    }

    #[test]
    fn round_robin_shares_fairly() {
        // One partition, 4 cores all requesting constantly: completions
        // should interleave across cores rather than starve anyone.
        let mut spl = add_fabric();
        for c in 0..4 {
            for _ in 0..4 {
                spl.stage(c, 0, 4, c as u64);
                spl.stage(c, 4, 4, 0);
                spl.request(c, 1, c).unwrap();
            }
        }
        let mut per_core = [0usize; 4];
        for t in 1..=60 {
            spl.tick(t);
            for (c, count) in per_core.iter_mut().enumerate() {
                if spl.pop_output(c).is_some() {
                    *count += 1;
                }
            }
        }
        assert_eq!(per_core, [4, 4, 4, 4]);
    }

    #[test]
    fn producer_consumer_routing() {
        let mut spl = add_fabric();
        // Core 0 computes, result routed to core 2's output queue.
        spl.stage(0, 0, 4, 40);
        spl.stage(0, 4, 4, 2);
        spl.request(0, 1, 2).unwrap();
        for t in 1..=10 {
            let events = spl.tick(t);
            for e in events {
                assert_eq!(e.from_core, 0);
                assert_eq!(e.dest_core, 2);
            }
        }
        assert_eq!(spl.output_ready(0), 0);
        assert_eq!(spl.pop_output(2), Some(42));
    }

    #[test]
    fn output_backpressure_blocks_issue() {
        let mut cfg = SplConfig::paper(1);
        cfg.output_capacity = 2;
        let mut spl = Spl::new(cfg);
        spl.register(
            1,
            SplFunction::compute("id", 2, Dest::SelfCore, |e| e.u32(0) as u64),
        );
        for i in 0..4u64 {
            spl.stage(0, 0, 4, i);
            spl.request(0, 1, 0).unwrap();
        }
        for t in 1..=30 {
            spl.tick(t);
        }
        // Only 2 results can be outstanding; the rest wait in the input queue.
        assert_eq!(spl.output_ready(0), 2);
        assert_eq!(spl.input_pending(0), 2);
        assert!(spl.stats().stall_output_full > 0);
        // Draining the queue lets the remaining ops flow.
        assert_eq!(spl.pop_output(0), Some(0));
        assert_eq!(spl.pop_output(0), Some(1));
        for t in 31..=60 {
            spl.tick(t);
        }
        assert_eq!(spl.pop_output(0), Some(2));
        assert_eq!(spl.pop_output(0), Some(3));
    }

    #[test]
    fn barrier_waits_for_release_and_heads() {
        let mut spl = Spl::new(SplConfig::paper(4));
        spl.register(
            2,
            SplFunction::barrier("gmin", 6, |es| {
                es.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
            }),
        );
        // Three of four participants arrive.
        for c in 0..3 {
            spl.stage(c, 0, 4, 10 + c as u64);
            spl.request(c, 2, usize::MAX).unwrap();
        }
        for t in 1..=10 {
            spl.tick(t);
        }
        assert_eq!(spl.stats().barrier_ops, 0, "not released yet");
        // Fourth arrives; the system layer releases the barrier.
        spl.stage(3, 0, 4, 3);
        spl.request(3, 2, usize::MAX).unwrap();
        spl.release_barrier(2, vec![0, 1, 2, 3]);
        let mut results = Vec::new();
        for t in 11..=30 {
            spl.tick(t);
            for c in 0..4 {
                if let Some(v) = spl.pop_output(c) {
                    results.push(v);
                }
            }
        }
        assert_eq!(results, vec![3, 3, 3, 3], "global min broadcast to all");
        assert_eq!(spl.stats().barrier_ops, 1);
    }

    #[test]
    fn barrier_behind_compute_waits_for_head() {
        let mut spl = Spl::new(SplConfig::paper(2));
        spl.register(
            1,
            SplFunction::compute("id", 24, Dest::SelfCore, |e| e.u32(0) as u64),
        );
        spl.register(2, SplFunction::barrier("sync", 2, |_| 1));
        // Core 0: compute then barrier; core 1: barrier only.
        spl.stage(0, 0, 4, 9);
        spl.request(0, 1, 0).unwrap();
        spl.stage(0, 0, 4, 0);
        spl.request(0, 2, usize::MAX).unwrap();
        spl.stage(1, 0, 4, 0);
        spl.request(1, 2, usize::MAX).unwrap();
        spl.release_barrier(2, vec![0, 1]);
        // The barrier cannot issue until core 0's compute entry drains.
        spl.tick(1);
        assert_eq!(spl.stats().barrier_ops, 0);
        let mut barrier_done_at = 0;
        for t in 2..=80 {
            spl.tick(t);
            if spl.stats().barrier_ops == 1 && barrier_done_at == 0 {
                barrier_done_at = t;
            }
        }
        assert!(
            barrier_done_at > 2,
            "barrier issued only after compute head popped"
        );
        // The 2-row barrier completes while the 24-row compute op is still
        // in the pipeline: results arrive out of order, barrier first.
        assert_eq!(spl.pop_output(0), Some(1));
        assert_eq!(spl.pop_output(0), Some(9));
    }

    #[test]
    fn unknown_config_rejected() {
        let mut spl = add_fabric();
        assert_eq!(spl.request(0, 99, 0), Err(RequestError::UnknownConfig(99)));
    }

    #[test]
    fn input_queue_full_rejected() {
        let mut cfg = SplConfig::paper(1);
        cfg.input_capacity = 1;
        let mut spl = Spl::new(cfg);
        spl.register(
            1,
            SplFunction::compute("id", 1, Dest::SelfCore, |e| e.u32(0) as u64),
        );
        spl.request(0, 1, 0).unwrap();
        assert_eq!(spl.request(0, 1, 0), Err(RequestError::QueueFull));
    }

    #[test]
    #[should_panic(expected = "divide the row count")]
    fn bad_partitioning_panics() {
        let mut cfg = SplConfig::paper(4);
        cfg.partitions = 3;
        cfg.rows = 23;
        let _ = Spl::new(cfg);
    }

    #[test]
    fn parity_fault_replays_and_preserves_result() {
        use remap_fault::{SiteCfg, PPM_SCALE, SITE_SPL};
        let mut clean = add_fabric();
        clean.stage(0, 0, 4, 20);
        clean.stage(0, 4, 4, 22);
        clean.request(0, 1, 0).unwrap();
        let (v, clean_t) = run_until_output(&mut clean, 0, 100);
        assert_eq!(v, 42);

        let mut spl = add_fabric();
        // Fire exactly on the first completion attempt; the replayed
        // completion (event 1) is outside the window and delivers.
        spl.set_fault(Some(SplFault::new(
            7,
            SITE_SPL,
            SiteCfg::windowed(PPM_SCALE as u32, 0, 1),
            true,
            6,
        )));
        spl.stage(0, 0, 4, 20);
        spl.stage(0, 4, 4, 22);
        spl.request(0, 1, 0).unwrap();
        let (v, t) = run_until_output(&mut spl, 0, 100);
        assert_eq!(v, 42, "parity replay must deliver the correct result");
        assert_eq!(t, clean_t + 6, "replay costs the scrub latency");
        let c = spl.fault_counters();
        assert_eq!(
            (c.injected, c.detected, c.recovered, c.silent),
            (1, 1, 1, 0)
        );
    }

    #[test]
    fn unprotected_fault_silently_flips_one_bit() {
        use remap_fault::{SiteCfg, PPM_SCALE, SITE_SPL};
        let mut spl = add_fabric();
        spl.set_fault(Some(SplFault::new(
            7,
            SITE_SPL,
            SiteCfg::windowed(PPM_SCALE as u32, 0, 1),
            false,
            6,
        )));
        spl.stage(0, 0, 4, 20);
        spl.stage(0, 4, 4, 22);
        spl.request(0, 1, 0).unwrap();
        let (v, _) = run_until_output(&mut spl, 0, 100);
        assert_eq!((v ^ 42).count_ones(), 1, "exactly one flipped bit");
        let c = spl.fault_counters();
        assert_eq!(
            (c.injected, c.detected, c.recovered, c.silent),
            (1, 0, 0, 1)
        );
    }

    #[test]
    fn fault_stream_is_deterministic_across_fabrics() {
        use remap_fault::{SiteCfg, SITE_SPL};
        let run = || {
            let mut spl = add_fabric();
            spl.set_fault(Some(SplFault::new(
                123,
                SITE_SPL,
                SiteCfg::rate(400_000),
                false,
                6,
            )));
            let mut outs = Vec::new();
            for i in 0..32u64 {
                spl.stage(0, 0, 4, i);
                spl.stage(0, 4, 4, 1000);
                spl.request(0, 1, 0).unwrap();
                for t in (i * 50 + 1)..=(i * 50 + 50) {
                    spl.tick(t);
                    if let Some(v) = spl.pop_output(0) {
                        outs.push(v);
                    }
                }
            }
            (outs, spl.fault_counters())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.injected > 0, "40% rate over 32 ops should fire");
    }
}
