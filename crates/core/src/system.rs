//! System assembly and the cycle loop.

use crate::report::{RunError, RunReport};
use crate::snapshot::Snapshot;
use remap_comm::{
    ArriveOutcome, BarrierBus, BarrierTable, ClusterGrid, HwBarrierNet, HwQueueNet,
    ThreadToCoreTable,
};
use remap_cpu::{BlockedOn, Core, CoreConfig, CorePorts, PortPush};
use remap_fault::{FaultPlan, FaultReport, Roller, SiteCfg, SiteCounters, SITE_BARRIER, SITE_HWQ};
use remap_isa::{Program, Reg};
use remap_mem::{CacheFault, FlatMem, Hierarchy, HierarchyConfig};
use remap_power::{CoreKind, EnergyBreakdown, PowerModel};
use remap_snap::{Reader, SnapError, State, Writer};
use remap_spl::{
    Dest, FunctionKind, RequestError, Spl, SplConfig, SplFault, SplFunction, SplStats,
};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// The SPL runs at one quarter of the core clock (500 MHz vs 2 GHz).
pub const SPL_CLOCK_DIVISOR: u64 = 4;

/// Architectural identity of a barrier-type SPL configuration: which barrier
/// it implements and how many threads synchronize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierSpec {
    /// Barrier ID written into the Barrier table.
    pub barrier_id: u32,
    /// Total participating threads (across all clusters).
    pub total: u32,
}

struct SplCluster {
    spl: Spl,
    /// Global core IDs attached, in local-index order.
    cores: Vec<usize>,
}

#[derive(Default)]
struct PendingRelease {
    cfg: u16,
    cluster: usize,
    at: u64,
    local_cores: Vec<usize>,
}

/// Hardware-queue fault state: one event roller shared by all queues (event
/// order is the deterministic core stepping order), with per-queue retry
/// bookkeeping.
struct HwqFaultState {
    roller: Roller,
    drop: SiteCfg,
    dup: SiteCfg,
    delay: SiteCfg,
    seqno: bool,
    ack_timeout: u64,
    backoff_base: u64,
    max_attempts: u32,
    delay_cycles: u64,
    counters: SiteCounters,
    retries: u64,
    /// Per-queue cycle until which the sender is backing off.
    blocked_until: Vec<u64>,
    /// Per-queue consecutive drop count (reset on a successful send).
    attempts: Vec<u32>,
}

/// Barrier-release fault state: delays, the demotion watchdog, and the list
/// of configurations degraded to the software barrier path.
struct BarFaultState {
    roller: Roller,
    delay: SiteCfg,
    delay_cycles: u64,
    watchdog: u64,
    sw_cost: u64,
    counters: SiteCounters,
    demotions: u64,
    demoted: Vec<u16>,
}

/// System-level fault control: the injection state that lives outside the
/// subsystem models (queues and barriers), plus the earliest cycle at which
/// a retry backoff expires — the skip engine must not jump past it.
struct FaultCtl {
    hwq: HwqFaultState,
    bar: BarFaultState,
    /// Earliest `blocked_until` still in the future (`u64::MAX` when none).
    next_wake: u64,
}

impl FaultCtl {
    fn new(plan: &FaultPlan, n_queues: usize) -> FaultCtl {
        FaultCtl {
            hwq: HwqFaultState {
                roller: Roller::new(plan.seed, SITE_HWQ),
                drop: plan.hwq_drop,
                dup: plan.hwq_dup,
                delay: plan.hwq_delay,
                seqno: plan.hwq_seqno,
                ack_timeout: plan.hwq_ack_timeout,
                backoff_base: plan.hwq_backoff_base.max(1),
                max_attempts: plan.hwq_max_attempts.max(1),
                delay_cycles: plan.hwq_delay_cycles.max(1),
                counters: SiteCounters::default(),
                retries: 0,
                blocked_until: vec![0; n_queues],
                attempts: vec![0; n_queues],
            },
            bar: BarFaultState {
                roller: Roller::new(plan.seed, SITE_BARRIER),
                delay: plan.barrier_delay,
                delay_cycles: plan.barrier_delay_cycles,
                watchdog: plan.barrier_watchdog,
                sw_cost: plan.barrier_sw_cost,
                counters: SiteCounters::default(),
                demotions: 0,
                demoted: Vec::new(),
            },
            next_wake: u64::MAX,
        }
    }

    /// Called once the run loop reaches `next_wake`: finds the next pending
    /// backoff expiry (if any) so the wake is re-armed exactly once per
    /// deadline instead of every cycle.
    fn recompute_next_wake(&mut self, now: u64) {
        let mut wake = u64::MAX;
        for &b in &self.hwq.blocked_until {
            if b > now {
                wake = wake.min(b);
            }
        }
        self.next_wake = wake;
    }
}

// Only the dynamic fault-control state travels: restore rebuilds the
// structs from the snapshot's [`FaultPlan`] first, then overlays this.
remap_snap::state!(HwqFaultState |h| {
    h.roller,
    h.counters,
    h.retries,
    exact h.blocked_until,
    fixed h.attempts,
});

remap_snap::state!(BarFaultState |b| { b.roller, b.counters, b.demotions, b.demoted });

remap_snap::state!(FaultCtl |f| { f.hwq, f.bar, f.next_wake });

/// Records the first structured error of a run; later errors are dropped
/// (the run aborts at the first one anyway). A free function over the slot
/// so it stays callable while sibling `Env` fields are borrowed.
fn record(slot: &mut Option<RunError>, e: RunError) {
    if slot.is_none() {
        *slot = Some(e);
    }
}

/// Everything outside the cores; implements [`CorePorts`].
struct Env {
    hier: Hierarchy,
    clusters: Vec<SplCluster>,
    /// Global core → (cluster, local index).
    core_cluster: Vec<Option<(usize, usize)>>,
    t2c: ThreadToCoreTable,
    btable: BarrierTable,
    hwq: HwQueueNet,
    hwbar: HwBarrierNet,
    bus: BarrierBus,
    /// Mesh placement of the SPL clusters: barrier releases to remote
    /// clusters pay the grid's per-hop surcharge beyond the bus latency.
    grid: ClusterGrid,
    specs: HashMap<u16, BarrierSpec>,
    pending_releases: Vec<PendingRelease>,
    core_thread: Vec<u32>,
    app_id: u32,
    cycle: u64,
    /// Communication-state generation counter: bumped by every mutation that
    /// any [`Core::next_event`] port probe could observe (queue seals/pops,
    /// hardware-queue traffic, barrier completions, SPL fabric activity).
    /// Cached per-core quiescence windows are valid only while it is
    /// unchanged; plain memory traffic does not bump it because the probes
    /// never read memory.
    epoch: u64,
    /// First structured error raised by a port operation; the run loop
    /// checks it after every step and aborts the run with it.
    run_error: Option<RunError>,
    /// Queue/barrier fault-injection state (`None` when no plan is set:
    /// the default hot path stays allocation- and branch-cheap).
    fault: Option<Box<FaultCtl>>,
}

impl CorePorts for Env {
    fn inst_fetch(&mut self, core: usize, addr: u64) -> u32 {
        self.hier.inst_fetch(core, addr, self.cycle)
    }
    fn load(&mut self, core: usize, addr: u64, size: u8, pc: u32) -> (u64, u32) {
        self.hier.load(core, addr, size, pc, self.cycle)
    }
    fn store(&mut self, core: usize, addr: u64, size: u8, value: u64) -> u32 {
        self.hier.store(core, addr, size, value, self.cycle)
    }
    fn amo_add(&mut self, core: usize, addr: u64, delta: i64) -> (i64, u32) {
        self.hier.amo_add(core, addr, delta, self.cycle)
    }
    fn load_ready(&self, core: usize, addr: u64) -> bool {
        self.hier.load_ready(core, addr, self.cycle)
    }
    fn load_wake(&self, core: usize, addr: u64) -> u64 {
        self.hier.load_wake(core, addr, self.cycle)
    }
    fn load_blocked_by_dir(&self, core: usize, addr: u64) -> bool {
        self.hier.load_blocked_by_dir(core, addr, self.cycle)
    }
    fn fill_generation(&self, core: usize) -> u64 {
        self.hier.fill_generation(core)
    }

    fn spl_load(&mut self, core: usize, offset: u8, nbytes: u8, value: u64) {
        // No epoch bump: staging only touches the caller's own input queue,
        // and the caller is mid-step (its window is already dead).
        match self.core_cluster[core] {
            Some((ci, local)) => self.clusters[ci].spl.stage(local, offset, nbytes, value),
            // The run aborts after this step.
            None => record(
                &mut self.run_error,
                RunError::BadConfig {
                    core,
                    config: 0,
                    reason: "spl_load on a core outside any SPL cluster".into(),
                },
            ),
        }
    }

    fn spl_init(&mut self, core: usize, cfg: u16) -> PortPush {
        let route = match self.spl_route(core, cfg) {
            Ok(Some(route)) => route,
            Ok(None) => return PortPush::Stall,
            Err(reason) => {
                record(
                    &mut self.run_error,
                    RunError::BadConfig {
                        core,
                        config: cfg,
                        reason,
                    },
                );
                return PortPush::Accepted; // the run aborts after this step
            }
        };
        // The route already checked the destination's in-flight budget.
        if let Some((dest, _)) = route.dest {
            self.t2c.inc_in_flight(dest);
        }
        let to = route.dest.map_or(usize::MAX, |(_, dlocal)| dlocal);
        match self.clusters[route.cluster]
            .spl
            .request(route.local, cfg, to)
        {
            Ok(()) => {
                match route.dest {
                    // No epoch bump: the seal touches only the caller's own
                    // queue, and a completing arrival becomes probe-visible
                    // through `process_releases` and the fabric's busy edges
                    // — so waiters parked on their barrier result stay
                    // parked through the whole arrival phase.
                    None => self.barrier_arrive(cfg, route.cluster, core),
                    Some(_) => self.epoch += 1,
                }
                PortPush::Accepted
            }
            Err(e) => {
                if let Some((dest, _)) = route.dest {
                    self.t2c.dec_in_flight(dest);
                }
                match e {
                    RequestError::QueueFull => PortPush::Stall,
                    RequestError::UnknownConfig(c) => {
                        record(
                            &mut self.run_error,
                            RunError::BadConfig {
                                core,
                                config: c,
                                reason: "SPL rejected an unknown configuration".into(),
                            },
                        );
                        PortPush::Accepted
                    }
                }
            }
        }
    }

    fn spl_store(&mut self, core: usize) -> Option<u64> {
        let Some((ci, local)) = self.core_cluster[core] else {
            record(
                &mut self.run_error,
                RunError::BadConfig {
                    core,
                    config: 0,
                    reason: "spl_store on a core outside any SPL cluster".into(),
                },
            );
            return Some(0);
        };
        let out = self.clusters[ci].spl.pop_output(local);
        if out.is_some() {
            self.epoch += 1;
        }
        out
    }

    fn hwq_send(&mut self, core: usize, q: u8, value: u64) -> PortPush {
        let qi = q as usize;
        if !self.hwq_open(qi) {
            return PortPush::Stall;
        }
        let mut extra_copy = false;
        if let Some(f) = self.fault.as_deref_mut() {
            // Fault rolls are indexed by *would-succeed* sends only: a
            // stalled retry consumes no event, so the ticked path (which
            // re-attempts every cycle) and the skip path (which jumps
            // straight to the ready cycle) draw identical streams.
            let d = f.hwq.roller.draw();
            match d.select(&[f.hwq.drop, f.hwq.dup, f.hwq.delay]) {
                Some(0) => {
                    // Transit drop: the sender's ack timer detects the loss
                    // and retries with exponential backoff, bounded.
                    f.hwq.counters.injected += 1;
                    f.hwq.counters.detected += 1;
                    f.hwq.attempts[qi] += 1;
                    let attempts = f.hwq.attempts[qi];
                    if attempts >= f.hwq.max_attempts {
                        record(
                            &mut self.run_error,
                            RunError::FaultEscalation {
                                core,
                                queue: q,
                                attempts,
                                cycle: self.cycle,
                            },
                        );
                        return PortPush::Accepted; // run aborts after this step
                    }
                    f.hwq.retries += 1;
                    let backoff = f.hwq.backoff_base << u64::from(attempts - 1).min(16);
                    f.hwq.blocked_until[qi] = self.cycle + f.hwq.ack_timeout + backoff;
                    f.next_wake = f.next_wake.min(f.hwq.blocked_until[qi]);
                    return PortPush::Stall;
                }
                Some(1) => {
                    // Duplicate delivery: sequence numbers let the receiver
                    // discard the copy; without them both copies land.
                    f.hwq.counters.injected += 1;
                    if f.hwq.seqno {
                        f.hwq.counters.detected += 1;
                        f.hwq.counters.recovered += 1;
                    } else {
                        f.hwq.counters.silent += 1;
                        extra_copy = true;
                    }
                }
                Some(2) => {
                    // Transient link congestion: flow control holds the
                    // sender briefly; the message goes through on retry.
                    f.hwq.counters.injected += 1;
                    f.hwq.counters.detected += 1;
                    f.hwq.counters.recovered += 1;
                    f.hwq.blocked_until[qi] = self.cycle + f.hwq.delay_cycles;
                    f.next_wake = f.next_wake.min(f.hwq.blocked_until[qi]);
                    return PortPush::Stall;
                }
                _ => {}
            }
            // A delivered message recovers any outstanding drop attempts.
            if f.hwq.attempts[qi] > 0 {
                f.hwq.counters.recovered += u64::from(f.hwq.attempts[qi]);
                f.hwq.attempts[qi] = 0;
            }
        }
        if self.hwq.send(qi, value) {
            if extra_copy {
                // The duplicate may be lost to a now-full queue; either way
                // the receiver's message count is silently wrong.
                let _ = self.hwq.send(qi, value);
            }
            self.epoch += 1;
            PortPush::Accepted
        } else {
            PortPush::Stall
        }
    }
    fn hwq_recv(&mut self, _core: usize, q: u8) -> Option<u64> {
        let out = self.hwq.recv(q as usize);
        if out.is_some() {
            self.epoch += 1;
        }
        out
    }
    fn hwbar(&mut self, core: usize, id: u8) -> bool {
        if !self.hwbar.is_configured(id) {
            record(
                &mut self.run_error,
                RunError::BadConfig {
                    core,
                    config: u16::from(id),
                    reason: "hwbar on an unconfigured hardware barrier".into(),
                },
            );
            return true; // release the core; the run aborts after this step
        }
        // Only a `true` poll is probe-visible: a non-final arrival changes
        // nothing any `ready` probe reads (waiters stay unreleased),
        // while the completing poll bumps the generation every waiter checks.
        let released = self.hwbar.poll(core, id);
        if released {
            self.epoch += 1;
        }
        released
    }

    // Quiescence probe: a pure mirror of the mutating operations above, used
    // by `Core::next_event`. It must answer exactly "would the mutating call
    // make progress right now?" — an over-approximation merely prevents
    // skipping, an under-approximation would break bit-parity. A core
    // outside any cluster or an unconfigured device answers `true`: the
    // mutating call records the error, so the core must tick.
    fn ready(&self, core: usize, cause: BlockedOn) -> bool {
        match cause {
            BlockedOn::SplResult => self.core_cluster[core]
                .is_none_or(|(ci, local)| self.clusters[ci].spl.output_ready(local) > 0),
            BlockedOn::SplIssue { cfg } => match self.spl_route(core, cfg) {
                Ok(Some(route)) => self.clusters[route.cluster].spl.can_seal(route.local),
                Ok(None) => false,
                Err(_) => true,
            },
            BlockedOn::HwqSend { q } => self.hwq_open(q as usize),
            BlockedOn::HwqRecv { q } => !self.hwq.is_empty(q as usize),
            BlockedOn::HwBarrier { id } => {
                !self.hwbar.is_configured(id) || self.hwbar.poll_ready(core, id)
            }
            _ => false,
        }
    }
}

/// Where an `spl_init` goes: the caller's cluster and local input queue,
/// and for a compute request its destination core (global, cluster-local);
/// `None` for a barrier arrival.
struct SplRoute {
    cluster: usize,
    local: usize,
    dest: Option<(usize, usize)>,
}

impl Env {
    /// Resolves where `core`'s `spl_init` of `cfg` goes, shared by the
    /// operation and its readiness probe. `Ok(None)` means it must stall: a
    /// compute request's consumer thread is not bound to a core (§II-B.1:
    /// "instructions will not issue to the fabric if the destination thread
    /// is not available") or has its in-flight budget exhausted (max 24).
    /// `Err` carries the reason for a misconfiguration.
    fn spl_route(&self, core: usize, cfg: u16) -> Result<Option<SplRoute>, String> {
        let Some((cluster, local)) = self.core_cluster[core] else {
            return Err("spl_init on a core outside any SPL cluster".into());
        };
        let Some(func) = self.clusters[cluster].spl.function(cfg) else {
            return Err("spl_init of an unregistered SPL configuration".into());
        };
        let mut route = SplRoute {
            cluster,
            local,
            dest: None,
        };
        if func.is_barrier() {
            return Ok(Some(route));
        }
        let dest = match func.kind() {
            FunctionKind::Compute {
                dest: Dest::Thread(t),
                ..
            } => match self.t2c.lookup(*t) {
                Some(c) => c,
                None => return Ok(None),
            },
            _ => core,
        };
        let Some((dcluster, dlocal)) = self.core_cluster[dest] else {
            return Err(format!(
                "destination core {dest} is outside any SPL cluster"
            ));
        };
        if dcluster != cluster {
            return Err(format!(
                "producer and consumer must share an SPL cluster \
                 (cores {core} -> {dest})"
            ));
        }
        if !self.t2c.has_capacity(dest) {
            return Ok(None);
        }
        route.dest = Some((dest, dlocal));
        Ok(Some(route))
    }

    /// Whether `hwq_send` on queue `q` would get past its flow control: the
    /// queue has room and the sender is not backing off after an injected
    /// fault (the expiry re-arms probes via `FaultCtl::next_wake`).
    fn hwq_open(&self, q: usize) -> bool {
        let backing_off = self
            .fault
            .as_deref()
            .is_some_and(|f| f.hwq.blocked_until[q] > self.cycle);
        !backing_off && !self.hwq.is_full(q)
    }

    /// Handles a barrier arrival: updates the Barrier table and, on global
    /// completion, schedules per-cluster fabric releases (immediate locally,
    /// after the dedicated-bus latency for remote clusters).
    fn barrier_arrive(&mut self, cfg: u16, cluster: usize, core: usize) {
        let Some(spec) = self.specs.get(&cfg).copied() else {
            record(
                &mut self.run_error,
                RunError::BadConfig {
                    core,
                    config: cfg,
                    reason: "barrier configuration has no BarrierSpec".into(),
                },
            );
            return;
        };
        let thread = self.core_thread[core];
        // Multi-cluster systems broadcast every arrival on the barrier bus.
        let multi = self.clusters.len() > 1;
        if multi {
            self.bus
                .send(spec.barrier_id, self.app_id, cluster, self.cycle);
        }
        match self
            .btable
            .arrive(spec.barrier_id, self.app_id, spec.total, core, thread)
        {
            ArriveOutcome::Waiting { .. } => {}
            ArriveOutcome::Release(cores) => {
                // Fault roll: one event per completed barrier episode. A
                // faulted release is held back; a delay at or past the
                // watchdog threshold demotes the configuration to the
                // software barrier path (fixed extra cost, no more faults)
                // for the rest of the run.
                let mut delay = 0u64;
                if let Some(f) = self.fault.as_deref_mut() {
                    if f.bar.demoted.contains(&cfg) {
                        delay = f.bar.sw_cost;
                    } else {
                        let d = f.bar.roller.draw();
                        if d.fires(&f.bar.delay) {
                            f.bar.counters.injected += 1;
                            f.bar.counters.detected += 1;
                            f.bar.counters.recovered += 1;
                            delay = f.bar.delay_cycles;
                            if f.bar.watchdog > 0 && delay >= f.bar.watchdog {
                                f.bar.demoted.push(cfg);
                                f.bar.demotions += 1;
                            }
                        }
                    }
                }
                // Group participants by cluster; the last arrival's cluster
                // releases immediately, remote clusters after the bus delay.
                // Ordered by cluster, so the pending list (and a snapshot of
                // it) is the same in every process.
                let mut by_cluster: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for c in cores {
                    let Some((ci, local)) = self.core_cluster[c] else {
                        record(
                            &mut self.run_error,
                            RunError::BadConfig {
                                core: c,
                                config: cfg,
                                reason: "barrier participant is outside any SPL cluster".into(),
                            },
                        );
                        return;
                    };
                    by_cluster.entry(ci).or_default().push(local);
                }
                let local_at = self.cycle + delay;
                for (ci, locals) in by_cluster {
                    // Zero within the releasing cluster, the bus latency to
                    // a remote one, plus the mesh's per-hop surcharge on
                    // grids beyond the paper's quad arrangement.
                    let at = local_at + self.grid.release_latency(cluster, ci);
                    self.pending_releases.push(PendingRelease {
                        cfg,
                        cluster: ci,
                        at,
                        local_cores: locals,
                    });
                }
            }
            ArriveOutcome::MissingThreads(missing) => {
                // The controller would raise an exception to switch the
                // threads back in; our experiments never switch threads out
                // mid-barrier — a completing barrier with inactive threads
                // is a configuration error, surfaced structurally.
                record(
                    &mut self.run_error,
                    RunError::BadConfig {
                        core,
                        config: cfg,
                        reason: format!("barrier complete but threads {missing:?} are inactive"),
                    },
                );
            }
        }
    }

    /// Forwards due barrier releases to their clusters. Allocation-free on
    /// the happy path: the pending list is scanned in place (it is almost
    /// always empty) and due entries are removed as they are found.
    fn process_releases(&mut self) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.pending_releases.len() {
            if self.pending_releases[i].at <= now {
                let p = self.pending_releases.remove(i);
                self.epoch += 1;
                self.clusters[p.cluster]
                    .spl
                    .release_barrier(p.cfg, p.local_cores);
            } else {
                i += 1;
            }
        }
    }
}

/// Builds a [`System`].
///
/// See the crate-level example. Cores are added first (their insertion order
/// is their global ID), then SPL clusters attach to explicit core lists,
/// functions and barrier specs are registered, and [`SystemBuilder::build`]
/// produces the runnable system.
pub struct SystemBuilder {
    cores: Vec<(CoreKind, CoreConfig, Program)>,
    init_regs: Vec<(usize, Reg, i64)>,
    clusters: Vec<(SplConfig, Vec<usize>)>,
    fns: Vec<(u16, SplFunction)>,
    specs: HashMap<u16, BarrierSpec>,
    hwq_queues: usize,
    hwq_capacity: usize,
    hwbars: Vec<(u8, u32)>,
    hier_cfg: HierarchyConfig,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            cores: Vec::new(),
            init_regs: Vec::new(),
            clusters: Vec::new(),
            fns: Vec::new(),
            specs: HashMap::new(),
            hwq_queues: 32,
            hwq_capacity: 64,
            hwbars: Vec::new(),
            hier_cfg: HierarchyConfig::default(),
        }
    }
}

impl SystemBuilder {
    /// Creates an empty builder with the Table II memory hierarchy.
    pub fn new() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Adds a core of the given kind running `program`; returns its ID.
    /// The core starts out running thread `id`.
    pub fn add_core(&mut self, kind: CoreKind, program: Program) -> usize {
        let cfg = match kind {
            CoreKind::Ooo1 => CoreConfig::ooo1(),
            CoreKind::Ooo2 => CoreConfig::ooo2(),
        };
        self.add_core_with_config(kind, cfg, program)
    }

    /// Adds a core with an explicit configuration (for ablations).
    pub fn add_core_with_config(
        &mut self,
        kind: CoreKind,
        cfg: CoreConfig,
        program: Program,
    ) -> usize {
        self.cores.push((kind, cfg, program));
        self.cores.len() - 1
    }

    /// Seeds an architectural register before the program starts (argument
    /// passing: thread IDs, array base pointers).
    pub fn set_reg(&mut self, core: usize, r: Reg, v: i64) {
        self.init_regs.push((core, r, v));
    }

    /// Attaches an SPL cluster to the given cores. `cfg.n_cores` must equal
    /// `cores.len()`; local SPL indices follow the list order.
    pub fn add_spl_cluster(&mut self, cfg: SplConfig, cores: Vec<usize>) {
        self.clusters.push((cfg, cores));
    }

    /// Registers an SPL function configuration (on every cluster).
    pub fn register_spl(&mut self, id: u16, func: SplFunction) {
        self.fns.push((id, func));
    }

    /// Declares a barrier-type configuration's identity: barrier ID and
    /// total participating threads.
    pub fn barrier_spec(&mut self, cfg: u16, barrier_id: u32, total: u32) {
        self.specs.insert(cfg, BarrierSpec { barrier_id, total });
    }

    /// Configures an idealized hardware barrier (homogeneous baseline).
    pub fn hwbar(&mut self, id: u8, total: u32) {
        self.hwbars.push((id, total));
    }

    /// Overrides the hardware-queue bank geometry (OOO2+Comm baseline).
    pub fn hwq(&mut self, queues: usize, capacity: usize) {
        self.hwq_queues = queues;
        self.hwq_capacity = capacity;
    }

    /// Overrides the memory-hierarchy configuration.
    pub fn memory(&mut self, cfg: HierarchyConfig) {
        self.hier_cfg = cfg;
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent topology: a cluster whose core list length
    /// differs from its `n_cores`, out-of-range core IDs, or a core attached
    /// to two clusters.
    pub fn build(self) -> System {
        let n = self.cores.len();
        let mut core_cluster: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut clusters = Vec::new();
        for (ci, (cfg, cores)) in self.clusters.into_iter().enumerate() {
            assert_eq!(cfg.n_cores, cores.len(), "cluster {ci}: n_cores mismatch");
            let mut spl = Spl::new(cfg);
            for (id, f) in &self.fns {
                spl.register(*id, f.clone());
            }
            for (local, &g) in cores.iter().enumerate() {
                assert!(g < n, "cluster {ci}: core {g} out of range");
                assert!(
                    core_cluster[g].is_none(),
                    "core {g} attached to two clusters"
                );
                core_cluster[g] = Some((ci, local));
            }
            clusters.push(SplCluster { spl, cores });
        }
        let core_thread: Vec<u32> = (0..n as u32).collect();
        let mut t2c = ThreadToCoreTable::new(n);
        for (c, &t) in core_thread.iter().enumerate() {
            t2c.bind(c, t, 0);
        }
        let mut hwbar = HwBarrierNet::new();
        for &(id, total) in &self.hwbars {
            hwbar.configure(id, total);
        }
        let mut cores = Vec::with_capacity(n);
        let mut kinds = Vec::with_capacity(n);
        for (i, (kind, cfg, prog)) in self.cores.into_iter().enumerate() {
            cores.push(Core::new(i, cfg, prog));
            kinds.push(kind);
        }
        for &(c, r, v) in &self.init_regs {
            cores[c].set_reg(r, v);
        }
        let n_clusters = clusters.len();
        System {
            running: (0..cores.len()).collect(),
            last_committed: vec![0; cores.len()],
            last_commit_cycle: vec![0; cores.len()],
            committed_total: 0,
            fault_plan: None,
            spl_events: Vec::new(),
            skip_enabled: true,
            skipped_cycles: 0,
            core_quiet: vec![(0, 0); cores.len()],
            owed: vec![0; cores.len()],
            fingerprint: OnceCell::new(),
            cores,
            kinds,
            init_regs: self.init_regs,
            hwbars: self.hwbars,
            env: Env {
                hier: Hierarchy::new(n, self.hier_cfg),
                clusters,
                core_cluster,
                t2c,
                btable: BarrierTable::new(n.max(1)),
                hwq: HwQueueNet::new(self.hwq_queues, self.hwq_capacity),
                hwbar,
                bus: BarrierBus::new(8),
                grid: ClusterGrid::new(n_clusters),
                specs: self.specs,
                pending_releases: Vec::new(),
                core_thread,
                app_id: 0,
                cycle: 0,
                epoch: 0,
                run_error: None,
                fault: None,
            },
        }
    }
}

/// A runnable ReMAP system: cores plus their shared environment.
pub struct System {
    cores: Vec<Core>,
    kinds: Vec<CoreKind>,
    /// Register seeds from the builder, retained for static verification.
    init_regs: Vec<(usize, Reg, i64)>,
    /// Hardware-barrier configuration, retained for static verification.
    hwbars: Vec<(u8, u32)>,
    /// IDs of cores that have not halted, in stepping (insertion) order.
    /// Maintained incrementally so [`System::step`] skips halted cores and
    /// the run loop never rescans the core list on the happy path.
    running: Vec<usize>,
    /// Per-core committed-instruction count at the last step, used to
    /// maintain `committed_total` incrementally.
    last_committed: Vec<u64>,
    /// Cycle at which each core last committed an instruction (0 if never).
    /// Feeds the deadlock diagnostics and keeps the stall window exact
    /// across a checkpoint/restore boundary.
    last_commit_cycle: Vec<u64>,
    /// Instructions committed across all cores since construction.
    committed_total: u64,
    /// The installed fault-injection plan, retained so snapshots can carry
    /// it (restore rebuilds the seeded streams from it).
    fault_plan: Option<FaultPlan>,
    /// Reused SPL delivery-event buffer (cleared each SPL cycle).
    spl_events: Vec<remap_spl::SplEvent>,
    /// Whether the quiescence skip engine is enabled (default on; see
    /// [`System::set_skip`]).
    skip_enabled: bool,
    /// Cycles bulk-advanced by the skip engine (subset of `env.cycle`).
    skipped_cycles: u64,
    /// The wake cache: each core's quiescence window `(epoch, wake)`, set
    /// by the one probe after an inert real step. While `env.epoch` still
    /// equals `epoch` and `env.cycle < wake`, the core's step is provably
    /// inert and the core only owes the cycle (`owed`), and
    /// [`System::quiescent_wake`] reads `wake` instead of probing the core.
    /// `wake == 0` marks the window invalid.
    core_quiet: Vec<(u64, u64)>,
    /// Idle cycles each running core has stood still through (on the
    /// wake-cache fast path or in a bulk skip) and not yet been charged.
    /// They are charged with one [`Core::skip_cycles`] just before the
    /// core's next real step and whenever control leaves the run loop
    /// ([`System::settle`]), so outside [`System::drive`] and
    /// [`System::tick`] every entry is zero. Exact because, while a core
    /// stands still, `skip_cycles(n)` equals `n` calls of `skip_cycles(1)`.
    /// Never snapshotted.
    owed: Vec<u64>,
    /// [`System::config_fingerprint`], computed on first use. Everything
    /// it hashes is fixed at build time except the mlp/dir switches, whose
    /// setters clear it.
    fingerprint: OnceCell<u64>,
    env: Env,
}

/// Charges `core` the idle cycles it owes and clears the count.
fn pay(core: &mut Core, owed: &mut u64) {
    if *owed != 0 {
        core.skip_cycles(std::mem::take(owed));
    }
}

/// Where [`System::drive`] stops.
struct Stop<'a> {
    /// Fail with [`RunError::Timeout`] once the cycle reaches this.
    max_cycles: u64,
    /// Return `Ok` once the cycle reaches this, leaving the system runnable.
    park_at: u64,
    /// Write a checkpoint to the path at least every this many cycles.
    ckpt: Option<(u64, &'a Path)>,
}

impl System {
    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.env.cycle
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.running.is_empty()
    }

    /// Instructions committed across all cores so far. Maintained
    /// incrementally by [`System::step`], so the run loop's progress check
    /// does not rescan every core each cycle.
    pub fn total_committed(&self) -> u64 {
        self.committed_total
    }

    /// Shared functional memory (workload setup and result inspection).
    pub fn mem(&self) -> &FlatMem {
        self.env.hier.mem()
    }

    /// Mutable shared memory; use before running to initialize workloads.
    pub fn mem_mut(&mut self) -> &mut FlatMem {
        self.env.hier.mem_mut()
    }

    /// Architectural register value of a core.
    pub fn reg(&self, core: usize, r: Reg) -> i64 {
        self.cores[core].reg(r)
    }

    /// A core's statistics.
    pub fn core_stats(&self, core: usize) -> &remap_cpu::CoreStats {
        self.cores[core].stats()
    }

    /// A core's branch-predictor statistics.
    pub fn pred_stats(&self, core: usize) -> &remap_cpu::PredStats {
        self.cores[core].pred_stats()
    }

    /// Number of SPL clusters.
    pub fn n_clusters(&self) -> usize {
        self.env.clusters.len()
    }

    /// A cluster's SPL statistics.
    pub fn spl_stats(&self, cluster: usize) -> &SplStats {
        self.env.clusters[cluster].spl.stats()
    }

    /// The memory hierarchy (cache/bus statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.env.hier
    }

    /// Advances the whole system by one core cycle. Returns `false` once
    /// every core has halted.
    pub fn step(&mut self) -> bool {
        let any = self.tick();
        self.settle();
        any
    }

    /// Charges every core the idle cycles it owes (`owed`), so its
    /// counters read as if it had been ticked through them.
    fn settle(&mut self) {
        for (core, owed) in self.cores.iter_mut().zip(&mut self.owed) {
            pay(core, owed);
        }
    }

    /// One cycle of [`System::step`], leaving the idle cycles of parked
    /// cores owed.
    fn tick(&mut self) -> bool {
        self.env.cycle += 1;
        // A fault backoff expiring this cycle is probe-visible (a parked
        // sender becomes ready): bump the epoch so cached core windows die,
        // and re-arm the wake for the next pending deadline.
        if let Some(f) = self.env.fault.as_deref_mut() {
            if self.env.cycle >= f.next_wake {
                self.env.epoch += 1;
                f.recompute_next_wake(self.env.cycle);
            }
        }
        if self.env.cycle.is_multiple_of(SPL_CLOCK_DIVISOR) {
            self.env.process_releases();
            let spl_cycle = self.env.cycle / SPL_CLOCK_DIVISOR;
            // Drain bus deliveries (energy accounting happens via counters).
            let _ = self.env.bus.drain_ready(self.env.cycle);
            for ci in 0..self.env.clusters.len() {
                // An edge where the fabric acts (issues, completes, or counts
                // a stall) is probe-visible; an inert edge only rotates the
                // round-robin pointer, which no probe reads.
                let acts = match self.env.clusters[ci].spl.next_event(spl_cycle - 1) {
                    None => true,
                    Some(t) => t <= spl_cycle,
                };
                if acts {
                    self.env.epoch += 1;
                }
                self.spl_events.clear();
                self.env.clusters[ci]
                    .spl
                    .tick_into(spl_cycle, &mut self.spl_events);
                for e in &self.spl_events {
                    if e.from_core != usize::MAX {
                        let dest_global = self.env.clusters[ci].cores[e.dest_core];
                        self.env.t2c.dec_in_flight(dest_global);
                    }
                }
            }
        }
        // Step only the still-running cores, compacting the list in place
        // (order-preserving: stepping order is architecturally visible) and
        // folding each core's newly committed instructions into the
        // incrementally maintained total.
        //
        // A core holding a live window in the wake cache takes the idle
        // fast path instead of a full pipeline step: it only owes the
        // cycle, charged before its next real step.
        // The one probe that fills the cache runs right after a real step
        // that was inert (fetched, dispatched, issued and committed
        // nothing); the window dies on the core's next real step or on any
        // probe-visible communication mutation (`env.epoch`). Because cores
        // step in list order and every such mutation bumps the epoch before
        // later slots run, a fast-pathed core can never miss state it would
        // have observed when ticked.
        let work = |s: &remap_cpu::CoreStats| s.fetched + s.dispatched + s.issued + s.committed;
        let mut any = false;
        let mut w = 0;
        for r in 0..self.running.len() {
            let id = self.running[r];
            let (qep, qwake) = self.core_quiet[id];
            if self.skip_enabled && qwake != 0 && qep == self.env.epoch && self.env.cycle < qwake {
                self.owed[id] += 1;
                self.running[w] = id;
                w += 1;
                any = true;
                continue;
            }
            self.core_quiet[id].1 = 0;
            pay(&mut self.cores[id], &mut self.owed[id]);
            let work_before = work(self.cores[id].stats());
            let still_running = self.cores[id].step(&mut self.env);
            let stats = self.cores[id].stats();
            let inert = work(stats) == work_before;
            let committed = stats.committed;
            let progressed = committed != self.last_committed[id];
            self.committed_total += committed - self.last_committed[id];
            self.last_committed[id] = committed;
            if progressed {
                self.last_commit_cycle[id] = self.env.cycle;
            }
            if still_running {
                self.running[w] = id;
                w += 1;
                any = true;
                if self.skip_enabled && inert {
                    match self.cores[id].next_event(&self.env) {
                        Some(wk) if wk > self.env.cycle + 1 => {
                            self.core_quiet[id] = (self.env.epoch, wk);
                        }
                        _ => {}
                    }
                }
            }
        }
        self.running.truncate(w);
        any
    }

    /// Enables or disables the quiescence skip engine (on by default).
    /// Disabling it forces pure per-cycle ticking, the reference the skip
    /// engine is held bit-identical to (tests run skip-on and skip-off
    /// instances side by side).
    pub fn set_skip(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
    }

    /// Cycles bulk-advanced by the skip engine so far.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Computes the earliest future cycle at which any component could make
    /// observable progress, or `None` if some component is (or may be) busy
    /// at `env.cycle + 1` and the system must tick normally.
    ///
    /// Every cycle in `(env.cycle, wake)` is provably inert: no core
    /// fetches, issues, writes back, or commits, no SPL row completes or
    /// issues, no barrier releases, and no bus message delivers. The only
    /// per-cycle state those cycles carry — stall statistics and the SPL
    /// round-robin pointer — is replicated arithmetically by
    /// [`System::skip_to`], which is what makes bulk advancement
    /// bit-identical to ticking (see DESIGN.md §11).
    ///
    /// Cores are not probed here: each running core must hold a live
    /// window in the wake cache (`core_quiet`), and its cached wake stands
    /// in for a probe. So the answer is a function of the system's state
    /// alone, never of when it was last asked.
    fn quiescent_wake(&self) -> Option<u64> {
        let now = self.env.cycle;
        let mut wake = u64::MAX;
        for &id in &self.running {
            match self.core_quiet[id] {
                (ep, w) if w != 0 && ep == self.env.epoch => wake = wake.min(w),
                _ => return None,
            }
        }
        // The SPL fabric, pending barrier releases, and the barrier bus are
        // only serviced on SPL clock edges (core cycles divisible by the
        // divisor), so their wake points round up to the next edge.
        let next_edge = (now / SPL_CLOCK_DIVISOR + 1) * SPL_CLOCK_DIVISOR;
        let spl_now = now / SPL_CLOCK_DIVISOR;
        for cl in &self.env.clusters {
            match cl.spl.next_event(spl_now) {
                // Busy fabric: it acts on the very next edge.
                None => wake = wake.min(next_edge),
                Some(u64::MAX) => {}
                Some(t) => wake = wake.min((t * SPL_CLOCK_DIVISOR).max(next_edge)),
            }
        }
        for p in &self.env.pending_releases {
            // A release scheduled at `at` fires at the first edge at or
            // after it — except that an entry created mid-cycle after its
            // own edge already passed (at <= now) fires at the next edge,
            // which the `.max(next_edge)` clamp supplies.
            let at_edge = p.at.div_ceil(SPL_CLOCK_DIVISOR) * SPL_CLOCK_DIVISOR;
            wake = wake.min(at_edge.max(next_edge));
        }
        if let Some(d) = self.env.bus.next_event() {
            let at_edge = d.div_ceil(SPL_CLOCK_DIVISOR) * SPL_CLOCK_DIVISOR;
            wake = wake.min(at_edge.max(next_edge));
        }
        // A pending fault-backoff expiry is a core-cycle event (no SPL-edge
        // rounding): the parked sender re-attempts the moment it expires.
        if let Some(f) = self.env.fault.as_deref() {
            wake = wake.min(f.next_wake);
        }
        // The hierarchy schedules events only when a full MSHR file is
        // refusing demands: its earliest fill completion is when a held
        // load could issue. (The blocking model and a non-full file never
        // schedule anything — misses live in core-side timestamps. The
        // thread-to-core, hardware-queue, and hardware-barrier tables are
        // purely reactive.)
        if let Some(d) = self.env.hier.next_event(now) {
            wake = wake.min(d);
        }
        Some(wake)
    }

    /// Bulk-advances the system to `target` without simulating the
    /// intervening cycles. Caller must have established (via
    /// [`System::quiescent_wake`]) that every cycle in `(env.cycle, target]`
    /// is inert.
    fn skip_to(&mut self, target: u64) {
        let from = self.env.cycle;
        debug_assert!(target > from);
        let delta = target - from;
        for &id in &self.running {
            self.owed[id] += delta;
        }
        // Idle SPL edges crossed by the jump still rotate the fabric's
        // round-robin pointer; replicate that arithmetically.
        let edges = target / SPL_CLOCK_DIVISOR - from / SPL_CLOCK_DIVISOR;
        if edges > 0 {
            for cl in &mut self.env.clusters {
                cl.spl.skip_ticks(edges);
            }
        }
        self.env.cycle = target;
        self.skipped_cycles += delta;
    }

    /// The one skip step of [`System::drive`] and [`System::step_or_skip`]:
    /// if skipping is enabled and the system is provably quiescent,
    /// bulk-advances it to one cycle before the earliest wake point,
    /// clamped to `limit`. Returns whether the cycle has reached `limit`,
    /// in which case the caller must not step. A park at `limit` is then a
    /// prefix of the uninterrupted jump, so where a run stops never changes
    /// what it skips.
    fn skip_toward(&mut self, limit: u64) -> bool {
        if self.skip_enabled {
            if let Some(wake) = self.quiescent_wake() {
                let target = wake.saturating_sub(1).min(limit);
                if target > self.env.cycle {
                    self.skip_to(target);
                }
            }
        }
        self.env.cycle >= limit
    }

    /// One iteration of a skipping loop: the run loop's skip step toward
    /// `limit`, then one normal [`System::step`] unless the skip reached
    /// `limit`. It never moves past `limit`, and `while cycle < t {
    /// step_or_skip(t) }` skips exactly what [`System::run_until`]`(t)`
    /// does. With skipping disabled and the cycle below `limit` this is
    /// exactly `step`. The host-side step tracer drives this to time each
    /// step and skip individually. Returns `false` once every core has
    /// halted.
    pub fn step_or_skip(&mut self, limit: u64) -> bool {
        let any = if self.skip_toward(limit) {
            !self.all_halted()
        } else {
            self.tick()
        };
        self.settle();
        any
    }

    /// Runs until every core halts or `max_cycles` elapse.
    ///
    /// Unless disabled ([`System::set_skip`]), the run loop bulk-advances
    /// over provably idle stretches (barrier waits, SPL in-flight waits,
    /// queue back-pressure) with results bit-identical to per-cycle
    /// ticking; see DESIGN.md §11.
    ///
    /// # Errors
    ///
    /// [`RunError::Timeout`] at the cycle limit; [`RunError::Deadlock`] when
    /// no core commits an instruction for 200 000 consecutive cycles. Both
    /// fire at exactly the same cycle whether or not skipping is enabled: a
    /// bulk jump is clamped so the detection step itself is always executed.
    /// A structured error recorded by a port operation aborts the run.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, RunError> {
        self.run_report(max_cycles, None)
    }

    /// [`System::run`], writing a checkpoint [`Snapshot`] to `path` at least
    /// every `every` simulated cycles. Writes are crash-safe: the previous
    /// checkpoint generation survives as `<path>.prev` until the new one is
    /// fully on disk ([`Snapshot::write_to`]), so a kill at any moment
    /// leaves a restorable file behind.
    ///
    /// Checkpointing never perturbs the simulation: results are bit-identical
    /// to an uncheckpointed run.
    ///
    /// # Errors
    ///
    /// As [`System::run`], plus [`RunError::BadSnapshot`] if a checkpoint
    /// cannot be written.
    pub fn run_with_checkpoints(
        &mut self,
        max_cycles: u64,
        every: u64,
        path: &Path,
    ) -> Result<RunReport, RunError> {
        self.run_report(max_cycles, Some((every.max(1), path)))
    }

    /// Advances to cycle `target` (or until every core halts), using the
    /// skip engine when enabled. Returns `true` while cores are still
    /// running. Checkpoint tests use this to park a system at an exact
    /// cycle — including in the middle of a stretch the skip engine would
    /// otherwise jump over — then [`System::snapshot`] it.
    ///
    /// It stops early on any error a run would report (a port operation's
    /// structured error, or a deadlock) and leaves that error pending for
    /// the next [`System::run`]. So `run_until(t)` followed by `run(max)`
    /// returns the same result as `run(max)` alone, for any `t` up to `max`,
    /// `skipped_cycles` included.
    pub fn run_until(&mut self, target: u64) -> bool {
        let stop = Stop {
            max_cycles: u64::MAX,
            park_at: target,
            ckpt: None,
        };
        if let Err(e) = self.drive(stop) {
            self.env.run_error = Some(e);
        }
        !self.all_halted()
    }

    /// The body of [`System::run`] and [`System::run_with_checkpoints`]:
    /// drives the system to completion and reports.
    fn run_report(
        &mut self,
        max_cycles: u64,
        ckpt: Option<(u64, &Path)>,
    ) -> Result<RunReport, RunError> {
        // Debug builds run the static verifier before simulating and report
        // (but do not fail on) protocol errors: some tests intentionally
        // violate the protocol to exercise runtime deadlock detection.
        #[cfg(debug_assertions)]
        if self.env.cycle == 0 {
            let diags = self.verify();
            if diags
                .iter()
                .any(|d| d.severity == remap_verify::Severity::Error)
            {
                eprintln!(
                    "remap-verify pre-run check:\n{}",
                    remap_verify::render(&diags)
                );
            }
        }
        let wall_start = std::time::Instant::now();
        self.drive(Stop {
            max_cycles,
            park_at: u64::MAX,
            ckpt,
        })?;
        Ok(RunReport {
            cycles: self.env.cycle,
            skipped_cycles: self.skipped_cycles,
            core_stats: self.cores.iter().map(|c| c.stats().clone()).collect(),
            faults: self.fault_report(),
            mlp: self.env.hier.mlp_stats(),
            dir: self.env.hier.dir_stats(),
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        })
    }

    /// The one run loop behind [`System::run`],
    /// [`System::run_with_checkpoints`] and [`System::run_until`]. Returns
    /// `Ok` once every core halts or the cycle reaches `stop.park_at`.
    ///
    /// Every check is on the state between two cycles, so a call that stops
    /// and a later call that resumes see the same sequence of checks as one
    /// uninterrupted call. The idle cycles parked cores owe are charged on
    /// the way out, however the loop ends.
    fn drive(&mut self, stop: Stop) -> Result<(), RunError> {
        let out = self.drive_owing(stop);
        self.settle();
        out
    }

    /// The loop of [`System::drive`], which may leave cycles owed.
    fn drive_owing(&mut self, stop: Stop) -> Result<(), RunError> {
        const STALL_WINDOW: u64 = 200_000;
        // The stall window counts from the most recent commit anywhere, not
        // from this call's entry: a run resumed from a snapshot (or
        // continued after run_until) declares a deadlock at exactly the same
        // cycle an uninterrupted run would.
        let mut last_progress = self.last_commit_cycle.iter().copied().max().unwrap_or(0);
        let mut last_committed = self.committed_total;
        let mut next_ckpt = stop
            .ckpt
            .map_or(u64::MAX, |(every, _)| self.env.cycle + every);
        loop {
            // A port operation may have recorded a structured error (bad
            // configuration, fault escalation): abort with it immediately.
            if let Some(e) = self.env.run_error.take() {
                return Err(e);
            }
            // `step` maintains the committed counter incrementally; the
            // progress check is a single comparison, never a core rescan.
            if self.committed_total != last_committed {
                last_committed = self.committed_total;
                last_progress = self.env.cycle;
            } else if self.env.cycle - last_progress > STALL_WINDOW {
                return Err(RunError::Deadlock {
                    cycle: self.env.cycle,
                    running: self.running_cores(),
                    blocked: self.blocked_cores(),
                });
            }
            // A bulk skip may jump past the due point; the next real step
            // catches up (cadence is "at least every N simulated cycles",
            // never a perturbation of the run).
            if self.env.cycle >= next_ckpt {
                if let Some((every, path)) = stop.ckpt {
                    self.settle();
                    self.snapshot()
                        .write_to(path)
                        .map_err(|e| RunError::BadSnapshot {
                            reason: format!("checkpoint write to {}: {e}", path.display()),
                        })?;
                    next_ckpt = self.env.cycle + every;
                }
            }
            if self.all_halted() || self.env.cycle >= stop.park_at {
                return Ok(());
            }
            if self.env.cycle >= stop.max_cycles {
                return Err(RunError::Timeout {
                    max_cycles: stop.max_cycles,
                    running: self.running_cores(),
                });
            }
            // The jump is clamped to the deadlock window, the cycle limit
            // and the parking cycle. A jump that lands on one is not
            // followed by a step: the checks above read the state between
            // cycles, so errors fire at the same cycle as on the ticked
            // path. (A fully reactive system reports `wake == u64::MAX`;
            // the clamp then jumps it straight to the deadlock detection
            // point.)
            let limit = stop
                .max_cycles
                .min(stop.park_at)
                .min(last_progress + STALL_WINDOW + 1);
            if !self.skip_toward(limit) {
                self.tick();
            }
        }
    }

    /// Installs a seeded fault-injection plan: per-cluster SPL bit-flip
    /// streams, the cache line-corruption stream, and the queue/barrier
    /// fault control. Call before [`System::run`]; installing mid-run resets
    /// the event counters (decisions are event-indexed, so two systems given
    /// the same plan at the same point draw identical fault sequences).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (ci, cl) in self.env.clusters.iter_mut().enumerate() {
            // Domain-separate each cluster's stream by folding the cluster
            // index into the site constant.
            cl.spl.set_fault(Some(SplFault::new(
                plan.seed,
                remap_fault::SITE_SPL ^ ((ci as u64) << 8),
                plan.spl_bitflip,
                plan.spl_parity,
                plan.spl_replay_ticks,
            )));
        }
        self.env.hier.set_fault(Some(CacheFault::new(
            plan.seed,
            plan.cache_corrupt,
            plan.cache_parity,
            plan.cache_scrub_cycles,
        )));
        let nq = self.env.hwq.n_queues();
        self.env.fault = Some(Box::new(FaultCtl::new(plan, nq)));
        self.fault_plan = Some(*plan);
    }

    /// Removes any installed fault plan and its per-subsystem streams (the
    /// restore path uses this when the snapshot was taken without one).
    fn clear_fault_plan(&mut self) {
        for cl in &mut self.env.clusters {
            cl.spl.set_fault(None);
        }
        self.env.hier.set_fault(None);
        self.env.fault = None;
        self.fault_plan = None;
    }

    /// Switches the memory hierarchy between the non-blocking latency model
    /// (MSHRs, prefetchers, memory-controller queue) and the blocking
    /// reference model. Timing-only: architectural results are identical
    /// either way. Resets the hierarchy's MLP counters.
    pub fn set_mlp(&mut self, enabled: bool) {
        self.env.hier.set_mlp(enabled);
        self.fingerprint.take();
    }

    /// Switches the memory hierarchy between the banked coherence directory
    /// (full misses probe only actual sharers) and the broadcast snoop walk.
    /// Timing-plus-routing only: architectural results are identical either
    /// way. Resets the hierarchy's directory counters.
    pub fn set_dir(&mut self, enabled: bool) {
        self.env.hier.set_dir(enabled);
        self.fingerprint.take();
    }

    /// Aggregated fault accounting across all sites (all zeros when no plan
    /// is installed).
    pub fn fault_report(&self) -> FaultReport {
        let mut rep = FaultReport::default();
        for cl in &self.env.clusters {
            rep.spl.add(&cl.spl.fault_counters());
        }
        rep.cache = self.env.hier.fault_counters();
        if let Some(f) = self.env.fault.as_deref() {
            rep.hwq = f.hwq.counters;
            rep.hwq_retries = f.hwq.retries;
            rep.barrier = f.bar.counters;
            rep.barrier_demotions = f.bar.demotions;
        }
        rep
    }

    /// Per-core blocked-on diagnostics for the still-running cores, each
    /// with the cycle of the core's last commit. Consults the environment so
    /// memory-system holds (full MSHR files) get named.
    fn blocked_cores(&self) -> Vec<(usize, BlockedOn, u64)> {
        self.running
            .iter()
            .map(|&id| {
                (
                    id,
                    self.cores[id].blocked_on(&self.env),
                    self.last_commit_cycle[id],
                )
            })
            .collect()
    }

    /// Runs the static verifier ([`remap_verify`]) over every core's program
    /// and the system topology. Returns all findings; an empty vector means
    /// the bundle is clean.
    pub fn verify(&self) -> Vec<remap_verify::Diagnostic> {
        use remap_verify::{Bundle, ClusterSpec, ThreadSpec};
        let threads: Vec<ThreadSpec> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| ThreadSpec {
                core: i,
                thread: self.env.core_thread[i],
                program: c.program(),
                init_regs: self
                    .init_regs
                    .iter()
                    .filter(|&&(ci, _, _)| ci == i)
                    .map(|&(_, r, _)| r)
                    .collect(),
            })
            .collect();
        let clusters: Vec<ClusterSpec> = self
            .env
            .clusters
            .iter()
            .map(|cl| ClusterSpec {
                config: cl.spl.config(),
                cores: cl.cores.clone(),
            })
            .collect();
        // Functions are registered identically on every cluster.
        let functions: Vec<(u16, &SplFunction)> = self
            .env
            .clusters
            .first()
            .map(|cl| cl.spl.functions().collect())
            .unwrap_or_default();
        let barrier_totals: Vec<(u16, u32)> = self
            .env
            .specs
            .iter()
            .map(|(&cfg, s)| (cfg, s.total))
            .collect();
        remap_verify::verify_bundle(&Bundle {
            threads,
            clusters,
            functions,
            barrier_totals,
            hwbars: self.hwbars.clone(),
            hwq_queues: self.env.hwq.n_queues(),
            hwq_capacity: self.env.hwq.capacity(),
        })
    }

    /// IDs of cores that have not halted. Only called on error paths; the
    /// list is maintained incrementally by [`System::step`], so this is a
    /// clone rather than a rescan.
    fn running_cores(&self) -> Vec<usize> {
        self.running.clone()
    }

    /// SPL results currently in flight toward `core` (the Thread-to-Core
    /// table's counter of §II-B.1).
    pub fn spl_in_flight(&self, core: usize) -> u8 {
        self.env.t2c.in_flight(core)
    }

    /// Attempts to switch the thread off `core`, per §II-B.1: the request
    /// is refused while SPL results are still in flight toward the core
    /// (the thread must keep running until the counter drains), and the
    /// thread is marked inactive in the Barrier table so a completing
    /// barrier can detect the missing participant.
    ///
    /// # Errors
    ///
    /// [`remap_comm::T2cError::InFlight`] while results are outstanding;
    /// [`remap_comm::T2cError::NotBound`] if the core is idle.
    pub fn try_switch_out(&mut self, core: usize) -> Result<(), remap_comm::T2cError> {
        let thread = self.env.core_thread[core];
        self.env.t2c.unbind(core)?;
        self.env.btable.set_active(thread, false);
        Ok(())
    }

    /// Switches `thread` back in on `core` (rebinds the Thread-to-Core
    /// entry and reactivates it in the Barrier table).
    pub fn switch_in(&mut self, core: usize, thread: u32) {
        self.env.core_thread[core] = thread;
        self.env.t2c.bind(core, thread, self.env.app_id);
        self.env.btable.set_active(thread, true);
    }

    /// Total energy of the run so far under the given power model: core
    /// pipelines, caches, bus/DRAM, SPL fabrics, and the barrier bus.
    pub fn energy(&self, model: &PowerModel) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for (i, core) in self.cores.iter().enumerate() {
            total.add(model.core_energy(self.kinds[i], core.stats(), core.pred_stats()));
            let (l1i, l1d, l2) = self.env.hier.cache_stats(i);
            total.add(model.cache_energy(&l1i, &l1d, &l2));
        }
        total.add(model.bus_energy(self.env.hier.bus_stats()));
        for cl in &self.env.clusters {
            total.add(model.spl_energy(cl.spl.stats(), cl.spl.config().rows, self.env.cycle));
        }
        total.add(model.barrier_bus_energy(self.env.bus.messages));
        total
    }

    /// FNV-1a fingerprint of everything a [`Snapshot`] does *not* carry:
    /// core count, kinds, pipeline configurations and programs, cluster
    /// topology and registered SPL functions, queue/barrier geometry,
    /// hierarchy configuration, and the mlp/dir model switches. Two systems
    /// with equal fingerprints accept each other's snapshots; a mismatch is
    /// refused as a foreign file before any state is touched.
    ///
    /// Dynamic state (thread bindings, installed fault plan, skip-engine
    /// setting) is deliberately excluded: it either travels in the payload
    /// or — for the skip engine — provably does not affect results.
    ///
    /// Programs are hashed by their name and instruction words through
    /// `Inst`'s derived `Hash`, with every integer widened to `u64` so 32-
    /// and 64-bit hosts agree, not by their `Debug` text: one operand of
    /// one instruction still changes the value, at a few nanoseconds per
    /// instruction. The value is computed once per system (and again after
    /// [`System::set_mlp`] or [`System::set_dir`]).
    fn config_fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| self.fresh_config_fingerprint())
    }

    fn fresh_config_fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        use std::hash::Hash as _;
        let mut h = remap_snap::Fnv::new();
        let _ = write!(h, "remap-system-v1;cores={};", self.cores.len());
        for (i, c) in self.cores.iter().enumerate() {
            let _ = write!(h, "core{i}:{:?}:{:?}:", self.kinds[i], c.config());
            c.program().name().hash(&mut h);
            c.program().insts().hash(&mut h);
        }
        for (ci, cl) in self.env.clusters.iter().enumerate() {
            let _ = write!(h, "cluster{ci}:{:?}:{:?};", cl.spl.config(), cl.cores);
            let mut fns: Vec<(u16, &SplFunction)> = cl.spl.functions().collect();
            fns.sort_by_key(|&(id, _)| id);
            for (id, f) in fns {
                let _ = write!(h, "fn{id}:{}:{}:{};", f.name(), f.rows(), f.is_barrier());
            }
        }
        let _ = write!(
            h,
            "hwq:{}x{};hwbars:{:?};",
            self.env.hwq.n_queues(),
            self.env.hwq.capacity(),
            self.hwbars
        );
        let mut specs: Vec<(u16, BarrierSpec)> =
            self.env.specs.iter().map(|(&k, &v)| (k, v)).collect();
        specs.sort_by_key(|&(k, _)| k);
        let _ = write!(h, "specs:{specs:?};grid:{};", self.env.clusters.len());
        let _ = write!(
            h,
            "hier:{:?}:mlp={}:dir={};",
            self.env.hier.config(),
            self.env.hier.mlp_enabled(),
            self.env.hier.dir_enabled()
        );
        h.finish()
    }

    /// Captures the complete dynamic state of the run — every core's
    /// pipeline, the cache hierarchy down to LRU order and MSHR slots, the
    /// SPL fabrics with their in-flight rows, all communication tables, the
    /// fault streams, the skip-engine bookkeeping, and every statistics
    /// counter — as a versioned, checksummed [`Snapshot`].
    ///
    /// Restoring it into a freshly built system of identical configuration
    /// ([`System::restore`]) continues the run bit-identically: same
    /// results, same cycle counts, same statistics, same fault sequence.
    pub fn snapshot(&self) -> Snapshot {
        debug_assert!(
            self.owed.iter().all(|&n| n == 0),
            "snapshot with idle cycles still owed"
        );
        let mut w = Writer::new();
        // The fault plan travels first: restore rebuilds the seeded streams
        // from it before overlaying their dynamic state.
        self.fault_plan.save(&mut w);
        self.save(&mut w);
        Snapshot::from_payload(self.config_fingerprint(), &w.into_vec())
    }

    /// Applies a [`Snapshot`] onto this system, which must be freshly built
    /// (or otherwise hold) the identical configuration: same cores,
    /// programs, clusters, functions, geometry, and mlp/dir switches. The
    /// subsequent run continues bit-identically from the captured point.
    ///
    /// # Errors
    ///
    /// [`RunError::BadSnapshot`] when the snapshot is of a foreign
    /// configuration fingerprint or its payload is inconsistent with this
    /// system's geometry. On error the system may be partially overwritten
    /// and must not be run further — rebuild it.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), RunError> {
        let expected = self.config_fingerprint();
        let found = snap.fingerprint().unwrap_or_default();
        let mut r = Reader::new(snap.payload());
        if found != expected {
            Err(SnapError::BadFingerprint { expected, found })
        } else {
            Option::<FaultPlan>::read(&mut r).and_then(|plan| {
                match &plan {
                    Some(p) => self.set_fault_plan(p),
                    None => self.clear_fault_plan(),
                }
                self.load(&mut r)?;
                r.finish()
            })
        }
        .map_err(|e| RunError::BadSnapshot {
            reason: e.to_string(),
        })
    }

    /// Validates what later indexing relies on, and resets the transients:
    /// the delivery scratch buffer is cleared each SPL edge and a
    /// structured error never survives into a snapshot (`run` takes it
    /// before the checkpoint hook sees the state).
    fn restored(&mut self) -> Result<(), SnapError> {
        let n = self.cores.len();
        let mut seen = vec![false; n];
        for &id in &self.running {
            if id >= n || std::mem::replace(&mut seen[id], true) {
                return Err(SnapError::Corrupt(format!("bad running core id {id}")));
            }
        }
        let clusters = self.env.clusters.len();
        if let Some(p) = self
            .env
            .pending_releases
            .iter()
            .find(|p| p.cluster >= clusters)
        {
            return Err(SnapError::Corrupt(format!(
                "pending release on cluster {} of {clusters}",
                p.cluster
            )));
        }
        self.spl_events.clear();
        self.owed.fill(0);
        self.env.run_error = None;
        Ok(())
    }
}

remap_snap::state!(PendingRelease |p| { p.cfg, p.cluster, p.at, p.local_cores });

remap_snap::state!(SplCluster | c | { c.spl });

// Everything dynamic after the fault plan: clocks and counters, the
// skip-engine bookkeeping, every core, the communication tables, the SPL
// fabrics, the hierarchy, and the system-level fault control.
remap_snap::state!(System |s| {
    s.env.cycle,
    s.env.epoch,
    s.env.app_id,
    s.committed_total,
    s.skipped_cycles,
    s.running,
    fixed s.last_committed,
    fixed s.last_commit_cycle,
    fixed s.core_quiet,
    fixed s.cores,
    fixed s.env.core_thread,
    s.env.t2c,
    s.env.btable,
    s.env.hwq,
    s.env.hwbar,
    s.env.bus,
    s.env.pending_releases,
    exact s.env.clusters,
    s.env.hier,
    present s.env.fault,
} check System::restored);

#[cfg(test)]
mod tests {
    use super::*;
    use remap_isa::{Asm, Reg::*};

    #[test]
    fn single_core_no_spl() {
        let mut a = Asm::new("t");
        a.li(R1, 11);
        a.muli(R2, R1, 3);
        a.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
        let mut sys = b.build();
        let report = sys.run(10_000).unwrap();
        assert_eq!(sys.reg(0, R2), 33);
        assert_eq!(report.core_stats.len(), 1);
        assert!(report.total_committed() >= 3);
    }

    #[test]
    fn spl_individual_computation() {
        // Figure 1(a): a thread computing f in the fabric.
        let mut a = Asm::new("t");
        a.li(R1, 5);
        a.spl_load(R1, 0, 4);
        a.spl_init(1);
        a.spl_store(R2);
        a.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
        b.add_spl_cluster(SplConfig::paper(1), vec![0]);
        b.register_spl(
            1,
            SplFunction::compute("sq", 4, Dest::SelfCore, |e| {
                let x = e.u32(0) as u64;
                x * x
            }),
        );
        let mut sys = b.build();
        sys.run(100_000).unwrap();
        assert_eq!(sys.reg(0, R2), 25);
        assert_eq!(sys.spl_stats(0).compute_ops, 1);
    }

    #[test]
    fn spl_producer_consumer() {
        // Figure 1(b): core 0 produces through the fabric to core 1.
        let mut p = Asm::new("producer");
        p.li(R1, 0);
        p.li(R2, 10);
        p.label("loop");
        p.spl_load(R1, 0, 4);
        p.spl_init(1);
        p.addi(R1, R1, 1);
        p.bne(R1, R2, "loop");
        p.halt();

        let mut c = Asm::new("consumer");
        c.li(R1, 0);
        c.li(R2, 10);
        c.li(R5, 0);
        c.label("loop");
        c.spl_store(R3);
        c.add(R5, R5, R3);
        c.addi(R1, R1, 1);
        c.bne(R1, R2, "loop");
        c.halt();

        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, p.assemble().unwrap());
        b.add_core(CoreKind::Ooo1, c.assemble().unwrap());
        b.add_spl_cluster(SplConfig::paper(2), vec![0, 1]);
        // Send 2x+1 to the consumer thread (thread 1 = core 1).
        b.register_spl(
            1,
            SplFunction::compute("2x+1", 5, Dest::Thread(1), |e| (2 * e.u32(0) + 1) as u64),
        );
        let mut sys = b.build();
        sys.run(200_000).unwrap();
        // sum of 2i+1 for i in 0..10 = 100.
        assert_eq!(sys.reg(1, R5), 100);
        assert_eq!(sys.spl_stats(0).compute_ops, 10);
    }

    #[test]
    fn spl_barrier_with_computation() {
        // Figure 1(c): four threads synchronize; fabric computes global min.
        let mk = |seed: i32| {
            let mut a = Asm::new("bar");
            a.li(R1, seed);
            a.spl_load(R1, 0, 4);
            a.spl_init(2);
            a.spl_store(R2);
            a.fence();
            a.halt();
            a.assemble().unwrap()
        };
        let mut b = SystemBuilder::new();
        for i in 0..4 {
            b.add_core(CoreKind::Ooo1, mk(40 - 10 * i));
        }
        b.add_spl_cluster(SplConfig::paper(4), vec![0, 1, 2, 3]);
        b.register_spl(
            2,
            SplFunction::barrier("gmin", 6, |es| {
                es.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
            }),
        );
        b.barrier_spec(2, 1, 4);
        let mut sys = b.build();
        sys.run(200_000).unwrap();
        for i in 0..4 {
            assert_eq!(sys.reg(i, R2), 10, "every thread receives the global min");
        }
        assert_eq!(sys.spl_stats(0).barrier_ops, 1);
    }

    #[test]
    fn barrier_across_two_clusters() {
        // Eight threads on two SPL clusters: regional barrier+min per
        // cluster happens in the fabric; arrivals cross the dedicated bus.
        let mk = |v: i32| {
            let mut a = Asm::new("bar2");
            a.li(R1, v);
            a.spl_load(R1, 0, 4);
            a.spl_init(3);
            a.spl_store(R2);
            a.fence();
            a.halt();
            a.assemble().unwrap()
        };
        let mut b = SystemBuilder::new();
        for i in 0..8 {
            b.add_core(CoreKind::Ooo1, mk(100 + i));
        }
        b.add_spl_cluster(SplConfig::paper(4), vec![0, 1, 2, 3]);
        b.add_spl_cluster(SplConfig::paper(4), vec![4, 5, 6, 7]);
        b.register_spl(
            3,
            SplFunction::barrier("rmin", 6, |es| {
                es.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
            }),
        );
        b.barrier_spec(3, 7, 8);
        let mut sys = b.build();
        sys.run(400_000).unwrap();
        // Each cluster computes its *regional* minimum.
        for i in 0..4 {
            assert_eq!(sys.reg(i, R2), 100);
        }
        for i in 4..8 {
            assert_eq!(sys.reg(i, R2), 104);
        }
    }

    #[test]
    fn hwq_baseline_pair() {
        let mut p = Asm::new("p");
        p.li(R1, 0);
        p.li(R2, 20);
        p.label("loop");
        p.hwq_send(R1, 0);
        p.addi(R1, R1, 1);
        p.bne(R1, R2, "loop");
        p.halt();
        let mut c = Asm::new("c");
        c.li(R1, 0);
        c.li(R2, 20);
        c.li(R5, 0);
        c.label("loop");
        c.hwq_recv(R3, 0);
        c.add(R5, R5, R3);
        c.addi(R1, R1, 1);
        c.bne(R1, R2, "loop");
        c.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo2, p.assemble().unwrap());
        b.add_core(CoreKind::Ooo2, c.assemble().unwrap());
        let mut sys = b.build();
        sys.run(100_000).unwrap();
        assert_eq!(sys.reg(1, R5), 190);
    }

    #[test]
    fn hwbar_baseline() {
        let mk = || {
            let mut a = Asm::new("hb");
            a.li(R1, 0);
            a.li(R2, 5);
            a.label("loop");
            a.hwbar(0);
            a.addi(R1, R1, 1);
            a.bne(R1, R2, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let mut b = SystemBuilder::new();
        for _ in 0..4 {
            b.add_core(CoreKind::Ooo1, mk());
        }
        b.hwbar(0, 4);
        let mut sys = b.build();
        sys.run(200_000).unwrap();
        for i in 0..4 {
            assert_eq!(sys.reg(i, R1), 5);
        }
    }

    #[test]
    fn shared_memory_spin_flag() {
        // Core 0 stores a flag; core 1 spins on it (MESI-coherent).
        let mut w = Asm::new("writer");
        w.li(R1, 0x100);
        w.li(R2, 123);
        w.sw(R2, R1, 0);
        w.li(R3, 0x104);
        w.li(R4, 1);
        w.sw(R4, R3, 0);
        w.fence();
        w.halt();
        let mut r = Asm::new("reader");
        r.li(R3, 0x104);
        r.label("spin");
        r.lw(R4, R3, 0);
        r.beq(R4, R0, "spin");
        r.li(R1, 0x100);
        r.lw(R5, R1, 0);
        r.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, w.assemble().unwrap());
        b.add_core(CoreKind::Ooo1, r.assemble().unwrap());
        let mut sys = b.build();
        sys.run(100_000).unwrap();
        assert_eq!(sys.reg(1, R5), 123);
    }

    #[test]
    fn deadlock_detected_on_empty_queue() {
        let mut a = Asm::new("stuck");
        a.spl_store(R1); // nothing will ever arrive
        a.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
        b.add_spl_cluster(SplConfig::paper(1), vec![0]);
        let mut sys = b.build();
        match sys.run(2_000_000) {
            Err(RunError::Deadlock {
                running, blocked, ..
            }) => {
                assert_eq!(running, vec![0]);
                assert_eq!(
                    blocked,
                    vec![(0, BlockedOn::SplResult, 0)],
                    "the diagnostic names the resource the core is parked on \
                     and its last-commit cycle (never committed here)"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// A core parked for good on a device is named by the deadlock report,
    /// and the whole stall window is bulk-skipped yet charged to the
    /// device's wait counter, exactly as ticking would charge it.
    #[test]
    fn device_stalls_are_named_skipped_and_charged() {
        let stuck = |cause| {
            let mut a = Asm::new("stuck");
            match cause {
                BlockedOn::SplResult => a.spl_store(R1),
                BlockedOn::HwqRecv { q } => a.hwq_recv(R1, q),
                BlockedOn::HwBarrier { id } => a.hwbar(id),
                other => unreachable!("no parking instruction for {other}"),
            }
            a.halt();
            let mut b = SystemBuilder::new();
            b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
            b.add_spl_cluster(SplConfig::paper(1), vec![0]);
            b.hwbar(0, 2); // a second participant never arrives
            b.build()
        };
        // Each cause, and whether it charges `spl_wait_cycles` rather than
        // `hw_wait_cycles`.
        for (cause, spl) in [
            (BlockedOn::SplResult, true),
            (BlockedOn::HwqRecv { q: 0 }, false),
            (BlockedOn::HwBarrier { id: 0 }, false),
        ] {
            let mut sys = stuck(cause);
            match sys.run(2_000_000) {
                Err(RunError::Deadlock { blocked, .. }) => {
                    assert_eq!(blocked, vec![(0, cause, 0)]);
                }
                other => panic!("{cause}: expected deadlock, got {other:?}"),
            }
            assert!(sys.skipped_cycles() > 190_000, "{cause}: no bulk skip");
            let mut ticked = stuck(cause);
            ticked.set_skip(false);
            let _ = ticked.run(2_000_000);
            assert_eq!(sys.core_stats(0), ticked.core_stats(0), "{cause}");
            let s = sys.core_stats(0);
            let waited = if spl {
                s.spl_wait_cycles
            } else {
                s.hw_wait_cycles
            };
            assert!(waited > 190_000, "{cause}: wait not charged");
        }
    }

    /// A bulk skip must never mask the stall detector: the stuck system
    /// above is fully reactive, so the skip engine jumps the entire stall
    /// window in one hop — and the deadlock must still fire, at exactly the
    /// cycle the ticked path reports it.
    #[test]
    fn deadlock_window_counts_elapsed_cycles_across_a_skip() {
        let build = || {
            let mut a = Asm::new("stuck");
            a.spl_store(R1); // nothing will ever arrive
            a.halt();
            let mut b = SystemBuilder::new();
            b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
            b.add_spl_cluster(SplConfig::paper(1), vec![0]);
            b.build()
        };
        let mut skipped = build();
        skipped.set_skip(true);
        let mut ticked = build();
        ticked.set_skip(false);
        let es = skipped.run(2_000_000).unwrap_err();
        let et = ticked.run(2_000_000).unwrap_err();
        assert_eq!(es, et, "skip path must report the identical deadlock");
        assert!(matches!(es, RunError::Deadlock { .. }));
        // The jump really happened: nearly the whole 200k window was skipped.
        assert!(
            skipped.skipped_cycles() > 190_000,
            "expected a bulk jump, skipped only {}",
            skipped.skipped_cycles()
        );
        assert_eq!(ticked.skipped_cycles(), 0);
        // Per-cycle wait statistics were replicated across the jump.
        assert_eq!(skipped.core_stats(0), ticked.core_stats(0));
        // Parking the stuck system with `run_until` anywhere, before or past
        // its deadlock point, must not move the deadlock the next run reports.
        for park in [100_000, 199_000, 300_000, 1_000_000] {
            let mut parked = build();
            parked.run_until(park);
            assert!(parked.cycle() <= park.min(200_001));
            assert_eq!(parked.run(2_000_000).unwrap_err(), es, "parked at {park}");
            assert_eq!(
                parked.skipped_cycles(),
                skipped.skipped_cycles(),
                "parked at {park}"
            );
        }
    }

    /// Builds the Figure 1(b) producer→consumer system (used by the
    /// snapshot tests: it exercises cores, the fabric, and the T2C table).
    fn pc_build() -> System {
        let mut p = Asm::new("producer");
        p.li(R1, 0);
        p.li(R2, 10);
        p.label("loop");
        p.spl_load(R1, 0, 4);
        p.spl_init(1);
        p.addi(R1, R1, 1);
        p.bne(R1, R2, "loop");
        p.halt();
        let mut c = Asm::new("consumer");
        c.li(R1, 0);
        c.li(R2, 10);
        c.li(R5, 0);
        c.label("loop");
        c.spl_store(R3);
        c.add(R5, R5, R3);
        c.addi(R1, R1, 1);
        c.bne(R1, R2, "loop");
        c.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, p.assemble().unwrap());
        b.add_core(CoreKind::Ooo1, c.assemble().unwrap());
        b.add_spl_cluster(SplConfig::paper(2), vec![0, 1]);
        b.register_spl(
            1,
            SplFunction::compute("2x+1", 5, Dest::Thread(1), |e| (2 * e.u32(0) + 1) as u64),
        );
        b.build()
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let ref_report = pc_build().run(200_000).unwrap();
        let mut first = pc_build();
        assert!(first.run_until(100), "system must still be running");
        let snap = first.snapshot();
        let mut resumed = pc_build();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.cycle(), 100);
        let resumed_report = resumed.run(200_000).unwrap();
        assert_eq!(ref_report.cycles, resumed_report.cycles);
        assert_eq!(ref_report.skipped_cycles, resumed_report.skipped_cycles);
        assert_eq!(ref_report.core_stats, resumed_report.core_stats);
        assert_eq!(resumed.reg(1, R5), 100);
        // The donor continues identically too (snapshot() is non-mutating).
        let donor_report = first.run(200_000).unwrap();
        assert_eq!(ref_report.cycles, donor_report.cycles);
        assert_eq!(ref_report.skipped_cycles, donor_report.skipped_cycles);
        assert_eq!(ref_report.core_stats, donor_report.core_stats);
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let mut sys = pc_build();
        sys.run_until(64);
        let snap = sys.snapshot();
        let back = crate::Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        let mut resumed = pc_build();
        resumed.restore(&back).unwrap();
        assert_eq!(resumed.cycle(), 64);
    }

    #[test]
    fn foreign_snapshot_is_refused() {
        let mut donor = pc_build();
        donor.run_until(32);
        let snap = donor.snapshot();
        // A structurally different system must refuse the fingerprint.
        let mut a = Asm::new("t");
        a.li(R1, 1);
        a.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
        let mut other = b.build();
        match other.restore(&snap) {
            Err(RunError::BadSnapshot { reason }) => {
                assert!(
                    reason.contains("different configuration"),
                    "unexpected reason: {reason}"
                );
            }
            other => panic!("expected BadSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn one_operand_of_one_instruction_refuses_the_snapshot() {
        // Two cores count to 40; the second core's step is `step`.
        let build = |step: i32| {
            let mut b = SystemBuilder::new();
            for core in 0..2 {
                let mut a = Asm::new("count");
                a.li(R1, 0);
                a.li(R2, 40);
                a.label("loop");
                a.addi(R1, R1, if core == 1 { step } else { 1 });
                a.bne(R1, R2, "loop");
                a.halt();
                b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
            }
            b.build()
        };
        let snap_of = |step| {
            let mut donor = build(step);
            assert!(donor.run_until(32), "donor halted early");
            donor.snapshot()
        };
        assert_ne!(build(1).config_fingerprint(), build(2).config_fingerprint());
        for (from, into) in [(1, 2), (2, 1)] {
            match build(into).restore(&snap_of(from)) {
                Err(RunError::BadSnapshot { reason }) => {
                    assert!(reason.contains("different configuration"), "{reason}")
                }
                other => panic!("step {from} into step {into}: {other:?}"),
            }
        }
        for step in [1, 2] {
            let mut same = build(step);
            same.restore(&snap_of(step)).unwrap();
            assert_eq!(same.cycle(), 32);
        }
    }

    #[test]
    fn cached_fingerprint_follows_the_mlp_and_dir_switches() {
        let mut sys = pc_build();
        let built = sys.config_fingerprint();
        let mut seen = vec![built];
        for (mlp, dir) in [(false, true), (false, false), (true, false), (true, true)] {
            sys.set_mlp(mlp);
            sys.set_dir(dir);
            let fp = sys.config_fingerprint();
            assert_eq!(fp, sys.fresh_config_fingerprint(), "mlp={mlp} dir={dir}");
            seen.push(fp);
        }
        assert_eq!(seen[4], built, "both switches back on");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "each switch setting has its own fingerprint");

        // A target whose cached fingerprint predates switching MLP off
        // still refuses a snapshot taken with MLP on.
        let mut donor = pc_build();
        donor.run_until(32);
        let snap = donor.snapshot();
        let mut target = pc_build();
        assert_eq!(target.config_fingerprint(), built);
        target.set_mlp(false);
        assert!(matches!(
            target.restore(&snap),
            Err(RunError::BadSnapshot { .. })
        ));
    }

    #[test]
    fn snapshot_carries_the_fault_plan() {
        let plan = FaultPlan {
            seed: 7,
            hwq_drop: SiteCfg::rate(100_000),
            ..FaultPlan::default()
        };
        let mut donor = pc_build();
        donor.set_fault_plan(&plan);
        donor.run_until(64);
        let snap = donor.snapshot();
        let mut resumed = pc_build();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.cycle(), 64);
        // A faultless twin refuses the faulted snapshot's dynamic state?
        // No: the plan travels in the payload, so restore installs it.
        let mut r2 = pc_build();
        r2.restore(&snap).unwrap();
        let a = resumed.run(400_000).unwrap();
        let b = r2.run(400_000).unwrap();
        assert_eq!(a.core_stats, b.core_stats);
        assert_eq!(a.faults, b.faults);
    }

    /// A skip must never overshoot `max_cycles` either: a quiescent-but-live
    /// system times out at the same cycle both ways.
    #[test]
    fn timeout_is_exact_across_a_skip() {
        let build = || {
            let mut a = Asm::new("spin");
            a.spl_store(R1); // never satisfied
            a.halt();
            let mut b = SystemBuilder::new();
            b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
            b.add_spl_cluster(SplConfig::paper(1), vec![0]);
            b.build()
        };
        // A limit below the stall window: the timeout, not the deadlock
        // detector, must fire, and at the same cycle on both paths.
        let mut skipped = build();
        skipped.set_skip(true);
        let mut ticked = build();
        ticked.set_skip(false);
        let es = skipped.run(50_000).unwrap_err();
        let et = ticked.run(50_000).unwrap_err();
        assert_eq!(es, et);
        assert!(matches!(
            es,
            RunError::Timeout {
                max_cycles: 50_000,
                ..
            }
        ));
        assert_eq!(skipped.cycle(), ticked.cycle());
    }

    #[test]
    fn energy_is_positive_and_grows_with_work() {
        let mk = |n: i32| {
            let mut a = Asm::new("w");
            a.li(R1, 0);
            a.li(R2, n);
            a.label("loop");
            a.addi(R1, R1, 1);
            a.bne(R1, R2, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let model = PowerModel::new();
        let run = |n: i32| {
            let mut b = SystemBuilder::new();
            b.add_core(CoreKind::Ooo1, mk(n));
            let mut sys = b.build();
            sys.run(1_000_000).unwrap();
            sys.energy(&model).total_pj()
        };
        let e_small = run(100);
        let e_big = run(1000);
        assert!(e_small > 0.0);
        assert!(e_big > 2.0 * e_small);
    }

    #[test]
    fn switch_out_blocked_while_results_in_flight() {
        // A producer fills the fabric with results bound for the consumer;
        // §II-B.1: the consumer thread may not switch out until the
        // in-flight counter drains.
        let mut p = Asm::new("p");
        p.li(R1, 5);
        for _ in 0..4 {
            p.spl_load(R1, 0, 4);
            p.spl_init(1);
        }
        p.halt();
        let mut c = Asm::new("c");
        c.li(R2, 0);
        for _ in 0..4 {
            c.spl_store(R3);
            c.add(R2, R2, R3);
        }
        c.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, p.assemble().unwrap());
        b.add_core(CoreKind::Ooo1, c.assemble().unwrap());
        b.add_spl_cluster(SplConfig::paper(2), vec![0, 1]);
        b.register_spl(
            1,
            SplFunction::compute("slow", 24, Dest::Thread(1), |e| e.u32(0) as u64 * 3),
        );
        let mut sys = b.build();
        // Step until something is in flight toward the consumer.
        let mut saw_in_flight = false;
        for _ in 0..100_000 {
            sys.step();
            if sys.spl_in_flight(1) > 0 {
                saw_in_flight = true;
                assert!(
                    matches!(
                        sys.try_switch_out(1),
                        Err(remap_comm::T2cError::InFlight(_))
                    ),
                    "switch-out must be refused while results are in flight"
                );
                break;
            }
        }
        assert!(saw_in_flight, "producer never got a result in flight");
        // Let everything drain; now the consumer can switch out and back in.
        sys.run(1_000_000).unwrap();
        assert_eq!(sys.spl_in_flight(1), 0);
        assert_eq!(sys.reg(1, R2), 4 * 15);
        sys.try_switch_out(1).unwrap();
        sys.switch_in(1, 1);
    }

    #[test]
    fn unknown_spl_config_is_structured_error() {
        let build = || {
            let mut a = Asm::new("bad");
            a.li(R1, 1);
            a.spl_load(R1, 0, 4);
            a.spl_init(99); // never registered
            a.halt();
            let mut b = SystemBuilder::new();
            b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
            b.add_spl_cluster(SplConfig::paper(1), vec![0]);
            b.build()
        };
        let mut sys = build();
        let err = sys.run(100_000).unwrap_err();
        match err {
            RunError::BadConfig { core, config, .. } => {
                assert_eq!((core, config), (0, 99));
            }
            ref other => panic!("expected BadConfig, got {other:?}"),
        }
        // `run_until` stops on the error and leaves it for the next run.
        let mut parked = build();
        parked.run_until(100_000);
        assert_eq!(parked.cycle(), sys.cycle());
        assert_eq!(parked.run(100_000).unwrap_err(), err);
    }

    #[test]
    fn unconfigured_hwbar_is_structured_error() {
        let mut a = Asm::new("bad");
        a.hwbar(3); // no hwbar(3, _) was configured
        a.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
        let mut sys = b.build();
        match sys.run(100_000) {
            Err(RunError::BadConfig { core, config, .. }) => {
                assert_eq!((core, config), (0, 3));
            }
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    fn hwq_pair_system() -> System {
        let mut p = Asm::new("p");
        p.li(R1, 0);
        p.li(R2, 20);
        p.label("loop");
        p.hwq_send(R1, 0);
        p.addi(R1, R1, 1);
        p.bne(R1, R2, "loop");
        p.halt();
        let mut c = Asm::new("c");
        c.li(R1, 0);
        c.li(R2, 20);
        c.li(R5, 0);
        c.label("loop");
        c.hwq_recv(R3, 0);
        c.add(R5, R5, R3);
        c.addi(R1, R1, 1);
        c.bne(R1, R2, "loop");
        c.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo2, p.assemble().unwrap());
        b.add_core(CoreKind::Ooo2, c.assemble().unwrap());
        b.build()
    }

    #[test]
    fn hwq_drop_faults_recover_and_preserve_data() {
        use remap_fault::SiteCfg;
        let run = |skip: bool| {
            let mut sys = hwq_pair_system();
            let mut plan = FaultPlan::quiet(42);
            plan.hwq_drop = SiteCfg::rate(150_000); // 15% of sends dropped
            sys.set_fault_plan(&plan);
            sys.set_skip(skip);
            let rt = sys.run(1_000_000).unwrap();
            (sys.reg(1, R5), rt.cycles, rt.faults)
        };
        let (sum, cycles, faults) = run(true);
        assert_eq!(sum, 190, "every dropped message was retried through");
        assert!(faults.hwq.injected > 0, "15% over 20+ sends should fire");
        assert_eq!(faults.hwq.detected, faults.hwq.injected);
        assert_eq!(faults.hwq.recovered, faults.hwq.injected);
        assert_eq!(faults.hwq.silent, 0);
        assert!(faults.hwq_retries > 0);
        // Bit-identical across the skip engine, fault counters included.
        let (sum_t, cycles_t, faults_t) = run(false);
        assert_eq!((sum, cycles, faults), (sum_t, cycles_t, faults_t));
    }

    #[test]
    fn hwq_duplicates_without_seqno_are_silent() {
        use remap_fault::{SiteCfg, PPM_SCALE};
        let mut sys = hwq_pair_system();
        let mut plan = FaultPlan::quiet(7);
        // Duplicate exactly the first send; without sequence numbers the
        // consumer reads a shifted stream.
        plan.hwq_dup = SiteCfg::windowed(PPM_SCALE as u32, 0, 1);
        plan.hwq_seqno = false;
        sys.set_fault_plan(&plan);
        let out = sys.run(1_000_000);
        let faults = sys.fault_report();
        assert_eq!(faults.hwq.injected, 1);
        assert_eq!(faults.hwq.silent, 1);
        // The duplicate shifts every later message: the consumer sums the
        // first copy twice and never sees the last value (or the run jams).
        if out.is_ok() {
            assert_ne!(sys.reg(1, R5), 190, "silent corruption must be visible");
        }
    }

    #[test]
    fn hwq_escalation_after_bounded_retries() {
        use remap_fault::{SiteCfg, PPM_SCALE};
        let mut sys = hwq_pair_system();
        let mut plan = FaultPlan::quiet(3);
        plan.hwq_drop = SiteCfg::rate(PPM_SCALE as u32); // every send drops
        plan.hwq_max_attempts = 3;
        sys.set_fault_plan(&plan);
        match sys.run(1_000_000) {
            Err(RunError::FaultEscalation {
                core,
                queue,
                attempts,
                ..
            }) => {
                assert_eq!((core, queue, attempts), (0, 0, 3));
            }
            other => panic!("expected FaultEscalation, got {other:?}"),
        }
    }

    #[test]
    fn barrier_watchdog_demotes_to_software_path() {
        use remap_fault::{SiteCfg, PPM_SCALE};
        // Four threads iterate a fabric barrier 4 times; every release is
        // faulted, so the watchdog demotes the configuration on episode 1
        // and the remaining episodes pay the software cost without faults.
        let mk = |seed: i32| {
            let mut a = Asm::new("bar");
            a.li(R4, 0);
            a.li(R6, 4);
            a.label("loop");
            a.li(R1, seed);
            a.spl_load(R1, 0, 4);
            a.spl_init(2);
            a.spl_store(R2);
            a.addi(R4, R4, 1);
            a.bne(R4, R6, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let run = |skip: bool| {
            let mut b = SystemBuilder::new();
            for i in 0..4 {
                b.add_core(CoreKind::Ooo1, mk(40 - 10 * i));
            }
            b.add_spl_cluster(SplConfig::paper(4), vec![0, 1, 2, 3]);
            b.register_spl(
                2,
                SplFunction::barrier("gmin", 6, |es| {
                    es.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
                }),
            );
            b.barrier_spec(2, 1, 4);
            let mut sys = b.build();
            let mut plan = FaultPlan::quiet(11);
            plan.barrier_delay = SiteCfg::rate(PPM_SCALE as u32);
            sys.set_fault_plan(&plan);
            sys.set_skip(skip);
            let rt = sys.run(2_000_000).unwrap();
            let regs: Vec<i64> = (0..4).map(|i| sys.reg(i, R2)).collect();
            (regs, rt.cycles, rt.faults)
        };
        let (regs, cycles, faults) = run(true);
        assert_eq!(regs, vec![10; 4], "demoted barrier still synchronizes");
        assert_eq!(faults.barrier.injected, 1, "one fault, then demotion");
        assert_eq!(faults.barrier_demotions, 1);
        assert_eq!(faults.barrier.silent, 0);
        let (regs_t, cycles_t, faults_t) = run(false);
        assert_eq!((regs, cycles, faults), (regs_t, cycles_t, faults_t));
    }

    #[test]
    fn in_flight_counter_drains() {
        let mut a = Asm::new("t");
        for _ in 0..3 {
            a.li(R1, 1);
            a.spl_load(R1, 0, 4);
            a.spl_init(1);
        }
        for _ in 0..3 {
            a.spl_store(R2);
        }
        a.halt();
        let mut b = SystemBuilder::new();
        b.add_core(CoreKind::Ooo1, a.assemble().unwrap());
        b.add_spl_cluster(SplConfig::paper(1), vec![0]);
        b.register_spl(
            1,
            SplFunction::compute("id", 2, Dest::SelfCore, |e| e.u32(0) as u64),
        );
        let mut sys = b.build();
        sys.run(100_000).unwrap();
        // All results consumed: nothing in flight afterwards.
        assert_eq!(sys.env.t2c.in_flight(0), 0);
    }
}
