//! The cycle-level out-of-order core.
//!
//! Pipeline structure (modeled after the SESC-style cores of Table II):
//!
//! * **Fetch** — one instruction group per L1I access, up to `fetch_width`
//!   instructions; conditional branches consult the hybrid predictor and the
//!   BTB, calls/returns use the RAS; fetch groups end at taken transfers.
//! * **Dispatch/Rename** — up to `fetch_width` per cycle into the ROB, with
//!   ROB-based renaming (the map table points at in-flight producers) and
//!   issue-queue occupancy limits (32 int / 16 FP).
//! * **Issue/Execute** — oldest-first select of up to `issue_width` ready
//!   instructions per cycle, constrained by functional-unit counts; loads
//!   obey conservative memory disambiguation with exact-match store-to-load
//!   forwarding. The ROB is a ring of 64 slots (seq `s` in slot `s & 63`);
//!   five age-ordered bitmasks over it (bit `i` is `rob[i]`, the `i`-th
//!   oldest) name the entries issue, writeback, the load-ordering check and
//!   the quiescence probe visit, and skip loads queued behind a fence; a
//!   sixth holds the loads the memory hierarchy refused until their wake.
//! * **Writeback** — completed values broadcast to waiting consumers;
//!   mispredicted branches squash all younger work and redirect fetch.
//! * **Commit** — up to `retire_width` per cycle, in order. Stores drain
//!   through a post-commit store buffer. ReMAP queue operations take effect
//!   at commit (`spl_load` stages; `spl_init`/`hwq_send` push with
//!   back-pressure) or execute non-speculatively at the ROB head
//!   (`spl_store`, `hwq_recv`, atomics, fences, hardware barriers), which
//!   models the paper's decoupled queue-based SPL interface. Whatever the
//!   head is parked on is named once, by the stall classifier
//!   (`Core::head_wait`), which commit, the skip engine and deadlock
//!   diagnostics share.

use crate::bpred::{Prediction, Predictor};
use crate::config::CoreConfig;
use crate::ports::{CorePorts, PortPush};
use crate::stats::{class_index, CoreStats};
use remap_isa::{FpOp, Inst, InstClass, Program, Reg};
use remap_snap::{Reader, SnapError, State, Writer};
use std::ops::{Index, IndexMut};

/// Byte address where code is mapped for I-cache indexing; keeps code
/// addresses disjoint from any data the workloads use.
pub const CODE_BASE: u64 = 0x4000_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Ready(i64),
    Wait(u64),
}

impl Default for Src {
    fn default() -> Src {
        Src::Ready(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Status {
    /// Waiting for operands / functional unit (or for the ROB head, for
    /// at-head-only operations).
    #[default]
    Waiting,
    /// In a functional unit; completes at the contained cycle.
    Executing(u64),
    /// Result available.
    Done,
}

/// Bits `0..n` of a ROB mask (`n <= 64`): the entries older than `rob[n]`.
#[inline]
fn below(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// The set bits of a ROB mask, oldest entry (lowest index) first.
#[inline]
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

#[derive(Debug, Clone, Default)]
struct RobEntry {
    seq: u64,
    pc: u32,
    inst: Inst,
    src: [Src; 2],
    status: Status,
    value: i64,
    /// Effective address and size for memory operations (set at execute).
    mem_addr: Option<u64>,
    mem_size: u8,
    /// Prediction snapshot for control transfers.
    pred: Option<Prediction>,
    /// Predicted next PC decided at fetch.
    pred_next: u32,
    /// Actual next PC (set at execute for control transfers).
    actual_next: u32,
    mispredicted: bool,
    /// For at-head multi-cycle operations: busy until this cycle.
    head_busy_until: u64,
    /// For at-head operations: has the port action been performed?
    head_done: bool,
    /// Head of this entry's wakeup chain: the most recently dispatched
    /// consumer waiting on this result, encoded `consumer_seq << 1 | slot`
    /// (`NO_WAITER` when empty). Completion walks the chain and touches
    /// exactly the waiting consumers instead of scanning the whole ROB.
    waiters: u64,
    /// Per-source links continuing the producer's wakeup chain through
    /// this consumer (one chain slot per source operand).
    next_waiter: [u64; 2],
}

/// Empty wakeup-chain link.
const NO_WAITER: u64 = u64::MAX;

impl RobEntry {
    /// Whether both source operands have arrived.
    #[inline]
    fn operands_ready(&self) -> bool {
        self.src.iter().all(|s| matches!(s, Src::Ready(_)))
    }

    /// Whether issue may select this entry: it waits in an issue queue with
    /// all its operands (at-head operations take no slot; they act at
    /// commit). Exactly these entries carry a bit in the `READY` mask.
    #[inline]
    fn issuable(&self) -> bool {
        self.status == Status::Waiting && Core::needs_iq(self.inst) && self.operands_ready()
    }
}

/// Slots in the reorder buffer: the width of the ROB masks.
const ROB_SLOTS: usize = 64;

/// The ROB masks, indices into `Core::masks` (see [`Core::with_bits`]).
const READY: usize = 0;
const ORDERING: usize = 1;
const EXECUTING: usize = 2;
const LOADS: usize = 3;
const HARD: usize = 4;

/// The reorder buffer: a fixed ring holding the contiguous seqs
/// `head..head + len` (commit retires the head, squash cuts the tail and
/// rewinds `Core::next_seq`), seq `s` in slot `s & 63`.
#[derive(Debug, Clone)]
struct Rob {
    slots: Box<[RobEntry; ROB_SLOTS]>,
    /// Seq of the oldest entry; when empty, the seq dispatch assigns next.
    head: u64,
    len: usize,
}

impl Rob {
    #[inline]
    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self[0])
    }

    /// The age of in-flight seq `seq`: `rob[rob.age(seq)]` is its entry.
    #[inline]
    fn age(&self, seq: u64) -> usize {
        seq.wrapping_sub(self.head) as usize % ROB_SLOTS
    }

    /// The slot of the entry of age `i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        debug_assert!(i < self.len, "ROB age {i} past its {} entries", self.len);
        (self.head as usize).wrapping_add(i) % ROB_SLOTS
    }
}

impl Index<usize> for Rob {
    type Output = RobEntry;

    #[inline]
    fn index(&self, i: usize) -> &RobEntry {
        &self.slots[self.slot(i)]
    }
}

impl IndexMut<usize> for Rob {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RobEntry {
        let slot = self.slot(i);
        &mut self.slots[slot]
    }
}

/// What a core is waiting for, judged from its ROB head. The core's one
/// stall classifier names it; commit and the skip engine charge the wait
/// counters through it ([`CoreStats::charge`]), the skip engine asks the
/// environment whether it is ready ([`CorePorts::ready`]), and deadlock
/// diagnostics report it so a hung run names the resource (queue, barrier,
/// SPL result) each core is parked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// `spl_store` waiting for a result in the SPL output queue.
    SplResult,
    /// `spl_init` waiting to seal into the SPL input queue.
    SplIssue {
        /// SPL configuration being requested.
        cfg: u16,
    },
    /// `hwq_send` waiting for space in a hardware queue.
    HwqSend {
        /// Queue id.
        q: u8,
    },
    /// `hwq_recv` waiting for a message in a hardware queue.
    HwqRecv {
        /// Queue id.
        q: u8,
    },
    /// `hwbar` waiting for the barrier's release.
    HwBarrier {
        /// Barrier id.
        id: u8,
    },
    /// `fence` (or halt) draining the store buffer.
    Fence,
    /// Atomic waiting for operands or older stores.
    Atomic,
    /// Store waiting for a post-commit store-buffer slot.
    StoreBuffer,
    /// Demand load refused by a full miss-status-register file (the
    /// non-blocking memory hierarchy cannot start another fill).
    MshrFull {
        /// Which cache's MSHR file is exhausted.
        cache: &'static str,
        /// Address of the held load.
        line: u64,
    },
    /// Demand load held because the coherence-directory bank serving the
    /// line has no free lookup port.
    DirectoryWait {
        /// Address of the held load.
        line: u64,
    },
    /// Ordinary pipeline activity (not parked on an external resource).
    Pipeline,
    /// The core has committed its halt.
    Halted,
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedOn::SplResult => write!(f, "spl_store (awaiting SPL result)"),
            BlockedOn::SplIssue { cfg } => write!(f, "spl_init cfg {cfg} (input queue full)"),
            BlockedOn::HwqSend { q } => write!(f, "hwq_send queue {q} (full)"),
            BlockedOn::HwqRecv { q } => write!(f, "hwq_recv queue {q} (empty)"),
            BlockedOn::HwBarrier { id } => write!(f, "hwbar {id} (not released)"),
            BlockedOn::Fence => write!(f, "fence (draining stores)"),
            BlockedOn::Atomic => write!(f, "atomic (operands/stores pending)"),
            BlockedOn::StoreBuffer => write!(f, "store buffer full"),
            BlockedOn::MshrFull { cache, line } => {
                write!(f, "{cache} MSHRs full (load {line:#x} held)")
            }
            BlockedOn::DirectoryWait { line } => {
                write!(f, "directory bank busy (load {line:#x} held)")
            }
            BlockedOn::Pipeline => write!(f, "pipeline (no external resource)"),
            BlockedOn::Halted => write!(f, "halted"),
        }
    }
}

/// A front-end stall: the fetch-buffer head cannot enter the ROB this
/// cycle. Each kind has its own stall counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchStall {
    /// The ROB is full.
    RobFull,
    /// The issue queue the instruction needs is full.
    IqFull,
}

#[derive(Debug, Clone, Copy, Default)]
struct Fetched {
    pc: u32,
    inst: Inst,
    pred: Option<Prediction>,
    pred_next: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct StoreBufEntry {
    addr: u64,
    size: u8,
    value: u64,
}

/// A single out-of-order core executing one [`Program`].
///
/// The core is stepped one cycle at a time with [`Core::step`]; all
/// interaction with memory and the SPL/communication devices goes through
/// the [`CorePorts`] implementation supplied to `step`, so the same core
/// model serves every system configuration in the paper.
#[derive(Debug, Clone)]
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    program: Program,
    pred: Predictor,
    regs: [i64; Reg::COUNT],
    map: [Option<u64>; Reg::COUNT],
    /// Reorder buffer, oldest first.
    rob: Rob,
    /// The ROB masks (`READY`, `ORDERING`, `EXECUTING`, `LOADS`, `HARD`;
    /// [`Core::with_bits`]): bit `i` is `rob[i]`, so commit shifts them
    /// right by one and a squash clears the squashed tail. Derived state,
    /// rebuilt from the ROB on restore.
    masks: [u64; 5],
    /// Loads the memory hierarchy refused ([`CorePorts::load_ready`]), a
    /// ROB mask like `masks`. While the cycle is before `held_until` and
    /// the core's [`CorePorts::fill_generation`] is still `held_gen`, they
    /// are still refused, so issue and the quiescence probe skip the
    /// probe. Derived state, cleared on restore.
    held: u64,
    /// The fill generation the holds were taken under.
    held_gen: u64,
    /// The earliest of the held loads' wakes, each read per line from
    /// [`CorePorts::load_wake`] at its refusal.
    held_until: u64,
    /// Issue-queue occupancy (int, fp), maintained incrementally so
    /// dispatch and the quiescence probe do not rescan the ROB every cycle.
    iq_occ: (usize, usize),
    fetch_buf: Vec<Fetched>,
    fetch_pc: u32,
    /// In-flight I-cache access: instructions arrive at this cycle. The
    /// group itself lives in `fetch_group`, a scratch buffer reused across
    /// fetches so the per-cycle path never allocates.
    fetch_inflight_at: Option<u64>,
    /// The fetch group in flight (or being assembled); reused allocation.
    fetch_group: Vec<Fetched>,
    /// Fetch is blocked on an unpredictable indirect jump.
    fetch_blocked: bool,
    /// Fetch may not start a new group before this cycle (BTB-miss bubble).
    fetch_bubble_until: u64,
    store_buf: Vec<StoreBufEntry>,
    store_drain_done: u64,
    int_div_free_at: u64,
    fp_div_free_at: u64,
    halted: bool,
    cycle: u64,
    next_seq: u64,
    /// Earliest completion time among `Executing` entries (`u64::MAX` when
    /// none): lets writeback skip its visit on cycles where nothing can
    /// complete. May go stale-low after a squash, which only costs one
    /// empty visit that recomputes it.
    exec_next_done: u64,
    stats: CoreStats,
}

impl Core {
    /// Creates a core with the given configuration executing `program` from
    /// instruction 0. All registers start at zero.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rob` exceeds 64, the width of the ROB bitmasks.
    pub fn new(id: usize, cfg: CoreConfig, program: Program) -> Core {
        let rob = cfg.rob;
        assert!(rob <= 64, "a {rob}-entry ROB exceeds the 64-bit ROB masks");
        Core {
            id,
            cfg,
            program,
            pred: Predictor::new(cfg.bpred_bits, cfg.btb_entries, cfg.ras),
            regs: [0; Reg::COUNT],
            map: [None; Reg::COUNT],
            rob: Rob {
                slots: Box::new(std::array::from_fn(|_| RobEntry::default())),
                head: 0,
                len: 0,
            },
            masks: [0; 5],
            held: 0,
            held_gen: 0,
            held_until: 0,
            iq_occ: (0, 0),
            fetch_buf: Vec::new(),
            fetch_pc: 0,
            fetch_inflight_at: None,
            fetch_group: Vec::new(),
            fetch_blocked: false,
            fetch_bubble_until: 0,
            store_buf: Vec::new(),
            store_drain_done: 0,
            int_div_free_at: 0,
            fp_div_free_at: 0,
            halted: false,
            cycle: 0,
            next_seq: 0,
            exec_next_done: u64::MAX,
            stats: CoreStats::default(),
        }
    }

    /// This core's index (used for all port calls).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The program this core executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The core's pipeline configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Whether a `halt` instruction has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Activity statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Branch predictor statistics.
    pub fn pred_stats(&self) -> &crate::bpred::PredStats {
        self.pred.stats()
    }

    /// Architectural (retired) value of a register.
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Sets an architectural register before the program starts (thread id,
    /// argument pointers). Must not be called once stepping has begun.
    ///
    /// # Panics
    ///
    /// Panics if the core has already been stepped.
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        assert_eq!(self.cycle, 0, "set_reg after execution started");
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Advances the core by one cycle against the given environment.
    ///
    /// Returns `true` while the core is still running (not halted).
    pub fn step<P: CorePorts + ?Sized>(&mut self, ports: &mut P) -> bool {
        if self.halted {
            return false;
        }
        debug_assert_eq!(self.masks, self.masks_recount(), "ROB masks out of sync");
        debug_assert_eq!(self.iq_occ, self.iq_recount(), "iq_occ out of sync");
        self.cycle += 1;
        self.stats.cycles += 1;
        self.drain_store_buffer(ports);
        self.commit(ports);
        self.writeback();
        self.issue(ports);
        self.dispatch();
        self.fetch(ports);
        !self.halted
    }

    // --- quiescence ---------------------------------------------------------

    /// Quiescence probe: the earliest future cycle at which stepping this
    /// core can change any observable state beyond the per-cycle counters
    /// that [`Core::skip_cycles`] replicates.
    ///
    /// * `None` — the core could fetch, dispatch, issue, write back, commit,
    ///   or touch a device on its very next cycle; it must be stepped.
    /// * `Some(w)` with `w < u64::MAX` — every cycle strictly before `w` is
    ///   provably inert (the earliest of `fetch_inflight_at`, the fetch-bubble
    ///   expiry, a ROB completion, the store-buffer drain, a divider or
    ///   at-head-op busy window).
    /// * `Some(u64::MAX)` — purely reactive: only an external device event
    ///   (SPL delivery, queue/barrier activity on another core) can wake it.
    ///
    /// The ROB head's readiness is the stall classifier's cause put to
    /// [`CorePorts::ready`], whose conservative default makes unknown
    /// environments unskippable rather than incorrect.
    pub fn next_event<P: CorePorts + ?Sized>(&self, ports: &P) -> Option<u64> {
        if self.halted {
            return Some(u64::MAX);
        }
        let next = self.cycle + 1;
        let mut wake = u64::MAX;

        // Store-buffer drain: an idle buffer starts draining immediately; an
        // active drain completes (and starts the next) at `store_drain_done`.
        if !self.store_buf.is_empty() {
            if self.store_drain_done == 0 || next >= self.store_drain_done {
                return None;
            }
            wake = wake.min(self.store_drain_done);
        }

        // Commit: an at-head operation in its busy window completes at
        // `head_busy_until`; a head at commit (done, or an at-head operation)
        // retires or acts next cycle unless it is parked on a cause that is
        // not ready.
        if let Some(e) = self.rob.front() {
            if e.head_done {
                if next >= e.head_busy_until {
                    return None;
                }
                wake = wake.min(e.head_busy_until);
            } else if e.status == Status::Done || e.inst.is_at_head_only() {
                match self.head_wait() {
                    Some(cause) if !ports.ready(self.id, cause) => {}
                    _ => return None,
                }
            }
        }

        // Writeback and issue: completions land at their timestamps; a ready
        // entry issues immediately unless gated by a busy divider or a
        // blocked load (whose unblocking is itself a core event).
        for i in bits(self.masks[EXECUTING]) {
            let Status::Executing(t) = self.rob[i].status else {
                unreachable!("executing bit on an entry not executing")
            };
            if t <= next {
                return None;
            }
            wake = wake.min(t);
        }
        for i in bits(self.masks[READY] & !self.blocked_loads()) {
            let inst = self.rob[i].inst;
            let free = if inst.class() == InstClass::Load {
                match self.load_check(i) {
                    LoadPath::Blocked => continue,
                    LoadPath::Forward(..) => return None,
                    // A miss the hierarchy would refuse (MSHR file full) is
                    // not progress; the file's earliest fill completion is
                    // the wake.
                    LoadPath::Memory(addr)
                        if !self.held(i, ports) && ports.load_ready(self.id, addr) =>
                    {
                        return None
                    }
                    LoadPath::Memory(addr) => ports.load_wake(self.id, addr),
                }
            } else {
                self.divider_free_at(inst)
            };
            if free <= next {
                return None;
            }
            wake = wake.min(free);
        }

        // Dispatch: the head of the fetch buffer enters the ROB unless the
        // front end is stalled (those cycles are counted by `skip_cycles`).
        if !self.fetch_buf.is_empty() && self.dispatch_stall().is_none() {
            return None;
        }

        // Fetch: an in-flight I-cache access lands at its timestamp (once
        // the buffer has room); an idle fetch engine starts a new access as
        // soon as the bubble expires.
        let buf_room = self.fetch_buf.len() < 2 * self.cfg.fetch_width as usize;
        let fetch_at = match self.fetch_inflight_at {
            Some(t) => Some(t),
            None => (!self.fetch_blocked).then_some(self.fetch_bubble_until),
        };
        if let Some(t) = fetch_at.filter(|_| buf_room) {
            if t <= next {
                return None;
            }
            wake = wake.min(t);
        }

        Some(wake)
    }

    /// The stall classifier: the resource the ROB head is parked on, judged
    /// from core-internal state only (whether a device is ready is the
    /// environment's call, [`CorePorts::ready`]). `None` when the head is
    /// not at commit, sits in an at-head operation's busy window, or would
    /// act next cycle regardless of any device.
    #[inline]
    fn head_wait(&self) -> Option<BlockedOn> {
        let e = self.rob.front()?;
        let stores = !self.store_buf.is_empty();
        let cause = match (e.status, e.inst) {
            (Status::Waiting, _) if e.head_done => return None,
            (Status::Waiting, Inst::SplStore { .. }) => BlockedOn::SplResult,
            (Status::Waiting, Inst::HwqRecv { q, .. }) => BlockedOn::HwqRecv { q },
            (Status::Waiting, Inst::HwBar { id }) => BlockedOn::HwBarrier { id },
            (Status::Waiting, Inst::Fence) if stores => BlockedOn::Fence,
            (Status::Waiting, Inst::AmoAdd { .. }) if stores || !e.operands_ready() => {
                BlockedOn::Atomic
            }
            // Halt is an implicit fence: it retires once its stores drain.
            (Status::Done, Inst::Halt) if stores => BlockedOn::Fence,
            (Status::Done, Inst::SplInit { cfg }) => BlockedOn::SplIssue { cfg },
            (Status::Done, Inst::HwqSend { q, .. }) => BlockedOn::HwqSend { q },
            (Status::Done, Inst::Sw { .. } | Inst::Sb { .. })
                if self.store_buf.len() >= self.cfg.store_buffer =>
            {
                BlockedOn::StoreBuffer
            }
            _ => return None,
        };
        Some(cause)
    }

    /// Diagnoses what this core is parked on: the stall classifier's cause,
    /// or, for a head load the memory hierarchy refuses,
    /// [`BlockedOn::DirectoryWait`] (no free directory-bank port) or
    /// [`BlockedOn::MshrFull`] (full MSHR file). It names the *kind* of
    /// resource, not whether the resource would be ready this cycle.
    pub fn blocked_on<P: CorePorts + ?Sized>(&self, ports: &P) -> BlockedOn {
        if self.halted {
            return BlockedOn::Halted;
        }
        if let Some(cause) = self.head_wait() {
            return cause;
        }
        match self.rob.front() {
            Some(e) if e.status == Status::Waiting && e.inst.class() == InstClass::Load => {
                match self.load_check(0) {
                    LoadPath::Memory(line) if !ports.load_ready(self.id, line) => {
                        if ports.load_blocked_by_dir(self.id, line) {
                            BlockedOn::DirectoryWait { line }
                        } else {
                            BlockedOn::MshrFull { cache: "L1D", line }
                        }
                    }
                    _ => BlockedOn::Pipeline,
                }
            }
            _ => BlockedOn::Pipeline,
        }
    }

    /// Bulk-advances the core over `delta` cycles that [`Core::next_event`]
    /// proved inert, replicating exactly the per-cycle counters a ticked run
    /// would have accumulated: `cycle`/`stats.cycles`, the wait counter of
    /// the head's stall cause, and the dispatch-side ROB/IQ-full stall
    /// counters. Calling this for cycles `next_event` did not clear breaks
    /// bit-parity with the ticked path.
    #[inline]
    pub fn skip_cycles(&mut self, delta: u64) {
        self.cycle += delta;
        self.stats.cycles += delta;
        // In a quiescent state the head's cause is fixed (a ready device
        // would have been a wake), so the ticked commit charges it every
        // cycle.
        if let Some(cause) = self.head_wait() {
            self.stats.charge(cause, delta);
        }
        self.charge_dispatch_stall(delta);
    }

    /// Whether `inst` occupies an issue-queue slot (shared by dispatch and
    /// the quiescence analysis).
    #[inline]
    fn needs_iq(inst: Inst) -> bool {
        (matches!(
            inst.class(),
            InstClass::IntAlu
                | InstClass::IntMul
                | InstClass::IntDiv
                | InstClass::Fp
                | InstClass::Load
                | InstClass::Store
                | InstClass::Branch
        ) && !matches!(inst, Inst::Jal { .. }))
            // Queue pushes read a register in the pipeline like stores.
            || matches!(inst, Inst::SplLoad { .. } | Inst::HwqSend { .. })
    }

    // --- fetch --------------------------------------------------------------

    fn fetch<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        // Land a completed I-cache access.
        if let Some(done_at) = self.fetch_inflight_at {
            if self.cycle >= done_at && self.fetch_buf.len() < 2 * self.cfg.fetch_width as usize {
                self.fetch_inflight_at = None;
                self.stats.fetched += self.fetch_group.len() as u64;
                // `append` moves the elements but leaves `fetch_group`'s
                // capacity in place for the next group.
                self.fetch_buf.append(&mut self.fetch_group);
            }
        }
        if self.fetch_inflight_at.is_some()
            || self.fetch_blocked
            || self.halted
            || self.cycle < self.fetch_bubble_until
            || self.fetch_buf.len() >= 2 * self.cfg.fetch_width as usize
        {
            return;
        }
        // Assemble the next fetch group into the reused scratch buffer.
        let mut group = std::mem::take(&mut self.fetch_group);
        group.clear();
        let mut pc = self.fetch_pc;
        let first_pc = pc;
        let mut blocked = false;
        let mut bubble = false;
        for _ in 0..self.cfg.fetch_width {
            let inst = self.program.fetch(pc).unwrap_or(Inst::Halt);
            let mut f = Fetched {
                pc,
                inst,
                pred: None,
                pred_next: pc + 1,
            };
            match inst {
                Inst::Branch { target, .. } => {
                    let p = self.pred.predict(pc, true);
                    // A BTB miss on a predicted-taken branch: we still know
                    // the target statically, but charge a fetch bubble.
                    bubble |= p.taken && p.target.is_none();
                    f.pred = Some(p);
                    f.pred_next = if p.taken { target } else { pc + 1 };
                    group.push(f);
                    pc = f.pred_next;
                    if p.taken {
                        break;
                    }
                    continue;
                }
                Inst::Jal { rd, target } => {
                    if rd == Reg::R31 {
                        self.pred.ras_push(pc + 1);
                    }
                    f.pred_next = target;
                    group.push(f);
                    pc = target;
                    break;
                }
                Inst::Jalr { rd, rs1 } => {
                    if rd == Reg::R0 && rs1 == Reg::R31 {
                        if let Some(t) = self.pred.ras_pop() {
                            f.pred_next = t;
                            group.push(f);
                            pc = t;
                            break;
                        }
                    }
                    // Unpredictable indirect jump: fetch stalls until resolve.
                    group.push(f);
                    blocked = true;
                    break;
                }
                Inst::Halt => {
                    group.push(f);
                    blocked = true; // nothing useful to fetch past a halt
                    break;
                }
                _ => {
                    group.push(f);
                    pc += 1;
                }
            }
        }
        self.fetch_pc = pc;
        self.fetch_blocked = blocked;
        if bubble {
            self.fetch_bubble_until = self.cycle + 2;
        }
        let lat = ports.inst_fetch(self.id, CODE_BASE + 4 * first_pc as u64);
        self.fetch_group = group;
        self.fetch_inflight_at = Some(self.cycle + lat as u64);
    }

    // --- dispatch -----------------------------------------------------------

    /// Reference recount of issue-queue occupancy (debug checking and
    /// post-squash rebuild): an entry holds a slot from dispatch until
    /// writeback, if its instruction takes one at all.
    fn iq_recount(&self) -> (usize, usize) {
        let mut occ = (0, 0);
        let in_iq = |e: &&RobEntry| e.status != Status::Done && Self::needs_iq(e.inst);
        for e in (0..self.rob.len).map(|i| &self.rob[i]).filter(in_iq) {
            *Self::iq_slots(&mut occ, e.inst) += 1;
        }
        occ
    }

    /// `masks` with bit `i` set in each ROB mask entry `e` belongs in:
    /// `READY` (issue candidates), `ORDERING` (what the load check visits),
    /// `EXECUTING` (what writeback and the probe visit), `LOADS` and `HARD`:
    /// fences, atomics, hardware barriers and stores until issue computes
    /// their address (the others never get one), each of which blocks every
    /// younger load.
    #[inline]
    fn with_bits(masks: [u64; 5], e: &RobEntry, i: usize) -> [u64; 5] {
        let ordering = Self::orders_memory(e.inst);
        let on = [
            e.issuable(),
            ordering,
            matches!(e.status, Status::Executing(_)),
            e.inst.class() == InstClass::Load,
            ordering && e.mem_addr.is_none(),
        ];
        std::array::from_fn(|k| masks[k] | (on[k] as u64) << i)
    }

    /// The ROB masks recomputed from the entries (restore, and checking the
    /// incrementally kept ones).
    fn masks_recount(&self) -> [u64; 5] {
        (0..self.rob.len).fold([0; 5], |m, i| Self::with_bits(m, &self.rob[i], i))
    }

    /// The loads younger than the oldest `HARD` entry: the load check walks
    /// the ordering entries oldest-first and only returns early blocked, so
    /// each reads [`LoadPath::Blocked`] and issue and the probe skip them.
    #[inline]
    fn blocked_loads(&self) -> u64 {
        // The bits up to the oldest hard entry, or all when there is none.
        let hard = self.masks[HARD];
        self.masks[LOADS] & !(hard ^ hard.wrapping_sub(1))
    }

    /// Whether an instruction participates in memory ordering: it either
    /// writes memory or forbids younger loads from issuing past it.
    fn orders_memory(inst: Inst) -> bool {
        matches!(
            inst,
            Inst::Sw { .. }
                | Inst::Sb { .. }
                | Inst::AmoAdd { .. }
                | Inst::Fence
                | Inst::HwBar { .. }
        )
    }

    /// Delivers a completed result to exactly the consumers registered in
    /// the producer's wakeup chain, emptying it; a consumer whose last
    /// operand this was becomes an issue candidate.
    #[inline]
    fn wake_waiters(&mut self, producer: usize) {
        let v = self.rob[producer].value;
        let pseq = self.rob[producer].seq;
        let mut link = std::mem::replace(&mut self.rob[producer].waiters, NO_WAITER);
        while link != NO_WAITER {
            let (cseq, slot) = (link >> 1, (link & 1) as usize);
            let ci = self.rob.age(cseq);
            let c = &mut self.rob[ci];
            debug_assert_eq!(c.src[slot], Src::Wait(pseq), "stale wakeup link");
            c.src[slot] = Src::Ready(v);
            link = std::mem::replace(&mut c.next_waiter[slot], NO_WAITER);
            if c.issuable() {
                self.masks[READY] |= 1 << ci;
            }
        }
    }

    /// Enters the entry at ROB index `i` into the wakeup chains of the
    /// producers it waits on (consumers are strictly younger than their
    /// producers, so each producer is resident).
    #[inline]
    fn link_waiters(&mut self, i: usize) {
        let seq = self.rob[i].seq;
        for slot in 0..2 {
            if let Src::Wait(pseq) = self.rob[i].src[slot] {
                let pi = self.rob.age(pseq);
                self.rob[i].next_waiter[slot] = self.rob[pi].waiters;
                self.rob[pi].waiters = (seq << 1) | slot as u64;
            }
        }
    }

    /// The occupancy counter, within `occ` (int, fp), of the issue queue
    /// `inst` takes a slot in.
    #[inline]
    fn iq_slots(occ: &mut (usize, usize), inst: Inst) -> &mut usize {
        if inst.class() == InstClass::Fp {
            &mut occ.1
        } else {
            &mut occ.0
        }
    }

    /// A source operand read at rename. The map names only in-flight
    /// producers (commit clears the entry of the seq it retires, squash
    /// rebuilds the map) and never `r0`, whose architectural value is 0.
    #[inline]
    fn resolve_src(&self, r: Reg) -> Src {
        match self.map[r.index()] {
            Some(seq) => match &self.rob[self.rob.age(seq)] {
                e if e.status == Status::Done => Src::Ready(e.value),
                _ => Src::Wait(seq),
            },
            None => Src::Ready(self.regs[r.index()]),
        }
    }

    /// The front-end stall the fetch-buffer head is in, if it cannot enter
    /// the ROB this cycle (`None` when it can, or the buffer is empty).
    #[inline]
    fn dispatch_stall(&self) -> Option<DispatchStall> {
        let f = self.fetch_buf.first()?;
        if self.rob.len >= self.cfg.rob {
            return Some(DispatchStall::RobFull);
        }
        if !Self::needs_iq(f.inst) {
            return None;
        }
        let (int_occ, fp_occ) = self.iq_occ;
        let full = if f.inst.class() == InstClass::Fp {
            fp_occ >= self.cfg.fp_iq
        } else {
            int_occ >= self.cfg.int_iq
        };
        full.then_some(DispatchStall::IqFull)
    }

    /// Charges `n` cycles of the current front-end stall, if any, to its
    /// counter; returns whether the front end is stalled.
    #[inline]
    fn charge_dispatch_stall(&mut self, n: u64) -> bool {
        match self.dispatch_stall() {
            Some(DispatchStall::RobFull) => self.stats.rob_full_stalls += n,
            Some(DispatchStall::IqFull) => self.stats.iq_full_stalls += n,
            None => return false,
        }
        true
    }

    #[inline]
    fn dispatch(&mut self) {
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_buf.is_empty() || self.charge_dispatch_stall(1) {
                break;
            }
            let f = self.fetch_buf.remove(0);
            let srcs = f.inst.sources();
            let src = [
                srcs[0].map_or(Src::Ready(0), |r| self.resolve_src(r)),
                srcs[1].map_or(Src::Ready(0), |r| self.resolve_src(r)),
            ];
            self.stats.regfile_reads += srcs.iter().flatten().count() as u64;
            let seq = self.next_seq;
            self.next_seq += 1;
            // SplLoad also stages its value at execute like an ALU op; at-head
            // ops and pure pushes sit in the ROB without an IQ slot.
            let status = match f.inst {
                Inst::Nop | Inst::SplInit { .. } | Inst::Jal { .. } | Inst::Halt => Status::Done,
                _ => Status::Waiting,
            };
            let value = match f.inst {
                Inst::Jal { .. } => f.pc as i64 + 1,
                _ => 0,
            };
            if let Some(d) = f.inst.dest() {
                self.map[d.index()] = Some(seq);
            }
            let entry = RobEntry {
                seq,
                pc: f.pc,
                inst: f.inst,
                src,
                status,
                value,
                mem_addr: None,
                mem_size: 0,
                pred: f.pred,
                pred_next: f.pred_next,
                actual_next: f.pred_next,
                mispredicted: false,
                head_busy_until: 0,
                head_done: false,
                waiters: NO_WAITER,
                next_waiter: [NO_WAITER; 2],
            };
            if Self::needs_iq(f.inst) {
                *Self::iq_slots(&mut self.iq_occ, f.inst) += 1;
            }
            let i = self.rob.len;
            self.masks = Self::with_bits(self.masks, &entry, i);
            self.rob.len += 1;
            self.rob[i] = entry;
            self.link_waiters(i);
            self.stats.dispatched += 1;
        }
    }

    // --- issue / execute ------------------------------------------------------

    fn issue<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        let mut issued = 0u32;
        let mut int_alus = self.cfg.int_alus;
        let mut fp_alus = self.cfg.fp_alus;
        let mut branch_units = self.cfg.branch_units;
        let mut ldst_units = self.cfg.ldst_units;
        let cycle = self.cycle;

        // Only the candidates in the ready mask are visited, oldest first,
        // less the loads gated behind a hard ordering point.
        let mut todo = self.masks[READY] & !self.blocked_loads();
        while todo != 0 && issued < self.cfg.issue_width {
            let i = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let e = &self.rob[i];
            let inst = e.inst;
            let class = inst.class();
            // The functional-unit pool it issues to; queue pushes read their
            // operand on an integer ALU.
            let units = match class {
                InstClass::Fp => &mut fp_alus,
                InstClass::Branch => &mut branch_units,
                InstClass::Load | InstClass::Store => &mut ldst_units,
                _ => &mut int_alus,
            };
            if *units == 0 || self.divider_free_at(inst) > cycle {
                continue;
            }
            let latency = if class == InstClass::Load {
                // Memory ordering rules decide where the value comes from.
                let (_, size, signed) = Self::load_format(inst);
                let (addr, raw, mem_lat) = match self.load_check(i) {
                    LoadPath::Blocked => continue,
                    LoadPath::Forward(addr, raw) => (addr, raw as u64, 1),
                    // The hierarchy cannot start another fill (MSHR file
                    // full): hold the load without consuming a load/store
                    // unit, and probe again once the hold lapses.
                    LoadPath::Memory(_) if self.held(i, ports) => continue,
                    LoadPath::Memory(addr) if !ports.load_ready(self.id, addr) => {
                        self.hold(i, addr, ports);
                        continue;
                    }
                    LoadPath::Memory(addr) => {
                        let (raw, mem_lat) = ports.load(self.id, addr, size, e.pc);
                        (addr, raw, mem_lat)
                    }
                };
                let e = &mut self.rob[i];
                e.mem_addr = Some(addr);
                e.mem_size = size;
                e.value = match (size, signed) {
                    (1, true) => raw as u8 as i8 as i64,
                    (1, false) => raw as u8 as i64,
                    (4, true) => raw as u32 as i32 as i64,
                    _ => raw as i64,
                };
                self.cfg.lat.agu + mem_lat
            } else {
                self.execute(i)
            };
            let done_at = cycle + latency as u64;
            *units -= 1;
            self.rob[i].status = Status::Executing(done_at);
            self.masks[READY] &= !(1 << i);
            self.masks[EXECUTING] |= 1 << i;
            // An issued store knows its address, which may lift the gate on
            // younger loads this very cycle.
            self.masks[HARD] &= !(1 << i);
            todo = self.masks[READY] & !self.blocked_loads() & !below(i + 1);
            self.exec_next_done = self.exec_next_done.min(done_at);
            issued += 1;
            self.stats.issued += 1;
        }
    }

    /// Whether the load at ROB index `i` is held: refused under the
    /// current fill generation, with the hold's wake still ahead.
    #[inline]
    fn held<P: CorePorts + ?Sized>(&self, i: usize, ports: &P) -> bool {
        self.held & 1 << i != 0
            && self.cycle < self.held_until
            && ports.fill_generation(self.id) == self.held_gen
    }

    /// Holds the load of `addr` at ROB index `i`, just refused by the
    /// hierarchy, until its own wake. A lapsed hold is dropped first; a
    /// live one keeps the earlier wake.
    fn hold<P: CorePorts + ?Sized>(&mut self, i: usize, addr: u64, ports: &P) {
        let gen = ports.fill_generation(self.id);
        if gen != self.held_gen || self.cycle >= self.held_until {
            (self.held, self.held_gen, self.held_until) = (0, gen, u64::MAX);
        }
        self.held |= 1 << i;
        self.held_until = self.held_until.min(ports.load_wake(self.id, addr));
    }

    /// The cycle the unpipelined divider `inst` needs is next free (`0` for
    /// instructions on pipelined units).
    #[inline]
    fn divider_free_at(&self, inst: Inst) -> u64 {
        match inst {
            _ if inst.class() == InstClass::IntDiv => self.int_div_free_at,
            Inst::Fp { op: FpOp::Div, .. } => self.fp_div_free_at,
            _ => 0,
        }
    }

    /// Executes the non-load instruction at ROB index `i` (operands ready):
    /// computes its result, resolves its control transfer or its store
    /// address, books the divider it occupies, and returns its latency.
    ///
    /// Like the other helpers of the generic pipeline stages, it is
    /// `#[inline]`: the stages are instantiated in the system crate, and
    /// without LTO a non-inline helper is a cross-crate call in the hot loop.
    #[inline]
    fn execute(&mut self, i: usize) -> u32 {
        let lat = self.cfg.lat;
        let a = self.src_val(i, 0);
        let b = self.src_val(i, 1);
        let e = &mut self.rob[i];
        match e.inst {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => {
                let b = match e.inst {
                    Inst::AluImm { imm, .. } => imm as i64,
                    _ => b,
                };
                e.value = op.apply(a, b);
                match e.inst.class() {
                    InstClass::IntMul => lat.int_mul,
                    InstClass::IntDiv => {
                        self.int_div_free_at = self.cycle + lat.int_div as u64;
                        lat.int_div
                    }
                    _ => lat.int_alu,
                }
            }
            Inst::Fp { op, .. } => {
                e.value = op.apply(a, b);
                if op == FpOp::Div {
                    self.fp_div_free_at = self.cycle + lat.fp_div as u64;
                    lat.fp_div
                } else {
                    lat.fp_op
                }
            }
            Inst::Branch { cond, target, .. } => {
                let taken = cond.eval(a, b);
                e.actual_next = if taken { target } else { e.pc + 1 };
                e.mispredicted = e.actual_next != e.pred_next;
                1
            }
            Inst::Jalr { .. } => {
                e.value = e.pc as i64 + 1;
                e.actual_next = a as u32;
                e.mispredicted = e.actual_next != e.pred_next;
                1
            }
            Inst::Sw { offset, .. } | Inst::Sb { offset, .. } => {
                // AGU: compute the effective address; data (src 1) rides
                // along. The cache access happens post-commit.
                e.mem_addr = Some((a + offset as i64) as u64);
                e.mem_size = if matches!(e.inst, Inst::Sw { .. }) {
                    4
                } else {
                    1
                };
                e.value = b;
                lat.agu
            }
            Inst::SplLoad { .. } | Inst::HwqSend { .. } => {
                // Reads its operand; the queue push happens at commit.
                e.value = a;
                lat.int_alu
            }
            other => unreachable!("unexpected instruction in issue: {other}"),
        }
    }

    /// Offset, access size and signedness of a load.
    #[inline]
    fn load_format(inst: Inst) -> (i32, u8, bool) {
        match inst {
            Inst::Lw { offset, .. } => (offset, 4, true),
            Inst::Lb { offset, .. } => (offset, 1, true),
            Inst::Lbu { offset, .. } => (offset, 1, false),
            other => unreachable!("not a load: {other}"),
        }
    }

    #[inline]
    fn src_val(&self, i: usize, s: usize) -> i64 {
        match self.rob[i].src[s] {
            Src::Ready(v) => v,
            Src::Wait(_) => panic!("src not ready"),
        }
    }

    /// Memory-disambiguation check for the load at ROB index `i`.
    #[inline]
    fn load_check(&self, i: usize) -> LoadPath {
        // Address must be computable: base ready (guaranteed by caller).
        let base = match self.rob[i].src[0] {
            Src::Ready(v) => v,
            Src::Wait(_) => return LoadPath::Blocked,
        };
        let (offset, size, _) = Self::load_format(self.rob[i].inst);
        let addr = (base + offset as i64) as u64;
        let end = addr + size as u64;
        // Older in-ROB stores and ordering points, oldest first: the scan
        // touches only the ordering entries below the load.
        let mut forward: Option<i64> = None;
        for j in bits(self.masks[ORDERING] & below(i)) {
            let e = &self.rob[j];
            // Loads may not issue past an unretired fence, atomic, or
            // hardware barrier: these order memory across threads (a fence
            // after a barrier guarantees younger loads observe remote
            // stores made before the barrier).
            if matches!(
                e.inst,
                Inst::AmoAdd { .. } | Inst::Fence | Inst::HwBar { .. }
            ) {
                return LoadPath::Blocked;
            }
            debug_assert!(matches!(e.inst, Inst::Sw { .. } | Inst::Sb { .. }));
            let Some(sa) = e.mem_addr else {
                return LoadPath::Blocked; // unknown older store address
            };
            if sa < end && addr < sa + e.mem_size as u64 {
                // A partial overlap, or an exact match whose data is not
                // ready yet, blocks the load.
                if sa != addr || e.mem_size != size || e.status != Status::Done {
                    return LoadPath::Blocked;
                }
                forward = Some(e.value);
            }
        }
        if let Some(v) = forward {
            return LoadPath::Forward(addr, v); // raw; sign handling at issue
        }
        // Post-commit store buffer: scan youngest-first so the most recent
        // matching store forwards its value.
        for s in self.store_buf.iter().rev() {
            let send = s.addr + s.size as u64;
            if s.addr < end && addr < send {
                if s.addr == addr && s.size == size {
                    return LoadPath::Forward(addr, s.value as i64);
                }
                return LoadPath::Blocked;
            }
        }
        LoadPath::Memory(addr)
    }

    // --- writeback ------------------------------------------------------------

    #[inline]
    fn writeback(&mut self) {
        let cycle = self.cycle;
        // Nothing in a functional unit can complete before `exec_next_done`,
        // so most stall cycles skip the visit entirely.
        if cycle < self.exec_next_done {
            return;
        }
        // Split the executing entries into due completions and survivors.
        let mut completed = 0u64;
        let mut next_done = u64::MAX;
        for i in bits(self.masks[EXECUTING]) {
            let Status::Executing(done_at) = self.rob[i].status else {
                unreachable!("executing bit on an entry not executing")
            };
            if cycle >= done_at {
                completed |= 1 << i;
            } else {
                next_done = next_done.min(done_at);
            }
        }
        self.masks[EXECUTING] &= !completed;
        self.exec_next_done = next_done;
        // Completions are handed to consumers oldest-first (mask order is
        // ROB order) so control resolution below squashes on the oldest
        // mispredict.
        for i in bits(completed) {
            // The entry issued from the ready mask, so it holds an IQ slot.
            let e = &mut self.rob[i];
            *Self::iq_slots(&mut self.iq_occ, e.inst) -= 1;
            e.status = Status::Done;
            self.wake_waiters(i);
        }
        // Resolve control transfers oldest-first; squash on the first
        // mispredict found.
        for i in bits(completed) {
            let e = &self.rob[i];
            if !e.inst.is_control() {
                continue;
            }
            if let Inst::Branch { target, .. } = e.inst {
                // A degenerate branch whose target is `pc + 1` counts as taken.
                let taken = e.actual_next == target;
                if let Some(p) = e.pred {
                    self.pred.update(e.pc, taken, target, p);
                }
            }
            if e.mispredicted {
                let redirect = e.actual_next;
                let seq = e.seq;
                self.squash_after(seq, redirect);
                break;
            }
        }
        // A resolved indirect jump unblocks fetch even when it predicted
        // correctly (fetch stopped at it with no predicted path only when the
        // RAS could not guess; in that case it is flagged mispredicted and the
        // squash path redirected us already). Handle the RAS-miss case: the
        // entry predicted `pc+1` as a placeholder.
        if self.fetch_blocked {
            for i in bits(completed) {
                if matches!(self.rob[i].inst, Inst::Jalr { .. }) {
                    self.fetch_blocked = false;
                    self.fetch_pc = self.rob[i].actual_next;
                    // Discard any speculative wrong-path fetch state.
                    self.fetch_buf.clear();
                    self.fetch_inflight_at = None;
                    self.fetch_group.clear();
                }
            }
        }
    }

    #[inline]
    fn squash_after(&mut self, seq: u64, redirect: u32) {
        let keep = self.rob.age(seq) + 1;
        self.stats.squashed += (self.rob.len - keep) as u64;
        self.rob.len = keep;
        self.masks = self.masks.map(|m| m & below(keep));
        self.held &= below(keep);
        // Rewind the seq counter over the squashed (never-committed) tail:
        // nothing references those seqs any more, and reissuing them keeps
        // ROB seqs contiguous, so each seq's slot stays its own.
        self.next_seq = seq + 1;
        self.iq_occ = self.iq_recount();
        // Rebuild the rename map and the wakeup chains from surviving
        // entries (squashed consumers may sit in survivors' chains).
        self.map = [None; Reg::COUNT];
        for i in 0..keep {
            let e = &mut self.rob[i];
            if let Some(d) = e.inst.dest() {
                self.map[d.index()] = Some(e.seq);
            }
            e.waiters = NO_WAITER;
            e.next_waiter = [NO_WAITER; 2];
            // Producers are older, so their chains are already reset.
            self.link_waiters(i);
        }
        self.fetch_buf.clear();
        self.fetch_inflight_at = None;
        self.fetch_group.clear();
        self.fetch_blocked = false;
        self.fetch_pc = redirect;
        // One-cycle redirect penalty on top of the refetch latency.
        self.fetch_bubble_until = self.cycle + 1;
    }

    // --- commit ------------------------------------------------------------------

    fn drain_store_buffer<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        if self.store_buf.is_empty() {
            return;
        }
        if self.store_drain_done == 0 {
            // Start draining the oldest store; data becomes globally visible
            // now (the functional write happens at drain start).
            let s = self.store_buf[0];
            let lat = ports.store(self.id, s.addr, s.size, s.value);
            self.store_drain_done = self.cycle + lat as u64;
        }
        if self.cycle >= self.store_drain_done {
            self.store_buf.remove(0);
            self.store_drain_done = 0;
        }
    }

    fn commit<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        let mut retired = 0;
        while retired < self.cfg.retire_width && self.rob.len > 0 {
            if !self.head_commits(ports) {
                // A stall cycle, charged to what the head is parked on.
                if let Some(cause) = self.head_wait() {
                    self.stats.charge(cause, 1);
                }
                break;
            }
            self.masks = self.masks.map(|m| m >> 1);
            self.held >>= 1;
            let slot = self.rob.slot(0);
            (self.rob.head, self.rob.len) = (self.rob.head + 1, self.rob.len - 1);
            let e = &self.rob.slots[slot];
            if let Some(d) = e.inst.dest() {
                self.regs[d.index()] = e.value;
                self.stats.regfile_writes += 1;
                if self.map[d.index()] == Some(e.seq) {
                    self.map[d.index()] = None;
                }
            }
            self.stats.committed += 1;
            self.stats.committed_by_class[class_index(e.inst.class())] += 1;
            if e.inst.is_control() {
                self.stats.branches += 1;
                if e.mispredicted {
                    self.stats.mispredicts += 1;
                }
            }
            if e.inst.class() == InstClass::Spl {
                self.stats.spl_ops += 1;
            }
            if e.inst == Inst::Halt {
                self.halted = true;
                break;
            }
            retired += 1;
        }
        if retired > 0 {
            self.stats.busy_cycles += 1;
        }
    }

    /// Performs the ROB head's commit-time action: runs an at-head
    /// operation, or pushes a done queue operation or store onward. Returns
    /// whether the head retires this cycle.
    fn head_commits<P: CorePorts + ?Sized>(&mut self, ports: &mut P) -> bool {
        let e = &self.rob[0];
        if e.status == Status::Waiting && e.inst.is_at_head_only() && !self.try_head_op(ports) {
            return false;
        }
        let e = &self.rob[0];
        if e.status != Status::Done {
            return false;
        }
        match e.inst {
            // Halt behaves like an implicit fence: all stores must be
            // globally visible before the thread terminates.
            Inst::Halt => self.store_buf.is_empty(),
            // Queue operations take effect now; pushes see back-pressure.
            Inst::SplLoad { offset, nbytes, .. } => {
                ports.spl_load(self.id, offset, nbytes, e.value as u64);
                true
            }
            Inst::SplInit { cfg } => ports.spl_init(self.id, cfg) == PortPush::Accepted,
            Inst::HwqSend { q, .. } => {
                ports.hwq_send(self.id, q, e.value as u64) == PortPush::Accepted
            }
            Inst::Sw { .. } | Inst::Sb { .. } => {
                if self.store_buf.len() >= self.cfg.store_buffer {
                    return false;
                }
                self.store_buf.push(StoreBufEntry {
                    addr: e.mem_addr.expect("store executed"),
                    size: e.mem_size,
                    value: e.value as u64,
                });
                true
            }
            _ => true,
        }
    }

    /// Attempts the at-head operation at ROB index 0. Returns whether it
    /// completed (and may retire this cycle).
    fn try_head_op<P: CorePorts + ?Sized>(&mut self, ports: &mut P) -> bool {
        let lat = self.cfg.lat;
        let cycle = self.cycle;
        let e = &self.rob[0];
        let complete = match e.inst {
            // Wait out a previously started multi-cycle head operation.
            _ if e.head_done => cycle >= e.head_busy_until,
            // Ordering points complete in place once satisfied.
            Inst::HwBar { id } => ports.hwbar(self.id, id),
            Inst::Fence => self.store_buf.is_empty(),
            // Value-producing operations start a busy window on success.
            _ => {
                let started = match e.inst {
                    Inst::SplStore { .. } => {
                        ports.spl_store(self.id).map(|v| (v as i64, lat.spl_queue))
                    }
                    Inst::HwqRecv { q, .. } => {
                        ports.hwq_recv(self.id, q).map(|v| (v as i64, lat.hwq))
                    }
                    // Atomics wait for their operands and drain older stores
                    // first.
                    Inst::AmoAdd { .. } => {
                        (e.operands_ready() && self.store_buf.is_empty()).then(|| {
                            ports.amo_add(self.id, self.src_val(0, 0) as u64, self.src_val(0, 1))
                        })
                    }
                    other => unreachable!("not an at-head op: {other}"),
                };
                if let Some((value, busy)) = started {
                    let e = &mut self.rob[0];
                    e.value = value;
                    e.head_done = true;
                    e.head_busy_until = cycle + busy as u64;
                }
                false
            }
        };
        if complete {
            self.rob[0].status = Status::Done;
            self.wake_waiters(0);
        }
        complete
    }
}

impl Core {
    /// Instruction words never travel in a snapshot: every `inst` is
    /// re-derived from its `pc` against the (static) program, which keeps
    /// the snapshot compact and makes program/snapshot mismatches surface
    /// as decode failures. The ROB masks are rebuilt from the restored ROB,
    /// which may hold no more entries than the configuration allows, with
    /// contiguous seqs ending just before `next_seq`.
    fn restored(&mut self) -> Result<(), SnapError> {
        let corrupt = |m| Err(SnapError::Corrupt(m));
        let (len, cap, next) = (self.rob.len, self.cfg.rob, self.next_seq);
        if len > cap {
            return corrupt(format!("ROB holds {len} entries, more than its {cap}"));
        }
        // Entry `i` must hold seq `head + i`, and the last `next_seq - 1`.
        let head = next.wrapping_sub(len as u64);
        if (0..len).any(|i| self.rob[i].seq != head.wrapping_add(i as u64)) {
            return corrupt(format!("ROB seqs not contiguous up to next seq {next}"));
        }
        self.rob.head = head;
        let program = &self.program;
        let inst = |pc| program.fetch(pc).unwrap_or(Inst::Halt);
        for i in 0..len {
            self.rob[i].inst = inst(self.rob[i].pc);
        }
        for f in self.fetch_buf.iter_mut().chain(&mut self.fetch_group) {
            f.inst = inst(f.pc);
        }
        self.masks = self.masks_recount();
        self.held = 0;
        Ok(())
    }
}

/// The ROB travels as a bounded sequence, oldest entry first. Load refuses
/// more entries than slots and places entry `i` at age `i` of the first
/// entry's seq; `Core::restored` checks that the seqs match their slots.
impl State for Rob {
    fn save(&self, w: &mut Writer) {
        w.put_len(self.len);
        (0..self.len).for_each(|i| self[i].save(w));
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        let n = r.get_len::<RobEntry>()?;
        if n > ROB_SLOTS {
            let msg = format!("ROB holds {n} entries, more than its {ROB_SLOTS} slots");
            return Err(SnapError::Corrupt(msg));
        }
        self.len = n;
        for i in 0..n {
            let e = RobEntry::read(r)?;
            if i == 0 {
                self.head = e.seq;
            }
            self[i] = e;
        }
        Ok(())
    }
}

remap_snap::state!(Core |c| {
    c.pred,
    c.regs,
    c.map,
    c.rob,
    c.iq_occ,
    c.fetch_buf,
    c.fetch_pc,
    c.fetch_inflight_at,
    c.fetch_group,
    c.fetch_blocked,
    c.fetch_bubble_until,
    c.store_buf,
    c.store_drain_done,
    c.int_div_free_at,
    c.fp_div_free_at,
    c.halted,
    c.cycle,
    c.next_seq,
    c.exec_next_done,
    c.stats,
} check Core::restored);

remap_snap::state!(RobEntry |e| {
    e.seq,
    e.pc,
    e.src,
    e.status,
    e.value,
    e.mem_addr,
    e.mem_size,
    e.pred,
    e.pred_next,
    e.actual_next,
    e.mispredicted,
    e.head_busy_until,
    e.head_done,
    e.waiters,
    e.next_waiter,
});

remap_snap::state!(Fetched |f| { f.pc, f.pred, f.pred_next });

remap_snap::state!(StoreBufEntry |s| { s.addr, s.size, s.value });

impl State for Src {
    fn save(&self, w: &mut Writer) {
        match *self {
            Src::Ready(v) => (0u8, v).save(w),
            Src::Wait(seq) => (1u8, seq).save(w),
        }
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        *self = match u8::read(r)? {
            0 => Src::Ready(i64::read(r)?),
            1 => Src::Wait(u64::read(r)?),
            t => return Err(SnapError::Corrupt(format!("bad operand source tag {t}"))),
        };
        Ok(())
    }
}

impl State for Status {
    fn save(&self, w: &mut Writer) {
        match *self {
            Status::Waiting => 0u8.save(w),
            Status::Executing(at) => (1u8, at).save(w),
            Status::Done => 2u8.save(w),
        }
    }
    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        *self = match u8::read(r)? {
            0 => Status::Waiting,
            1 => Status::Executing(u64::read(r)?),
            2 => Status::Done,
            t => return Err(SnapError::Corrupt(format!("bad ROB status tag {t}"))),
        };
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadPath {
    Blocked,
    /// Take the (raw) value of an older store to this effective address.
    Forward(u64, i64),
    /// Go to the memory hierarchy at this effective address.
    Memory(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::NullPorts;
    use remap_isa::{Asm, Reg::*};

    fn null_ports(mem_latency: u32) -> NullPorts {
        NullPorts {
            mem_latency,
            ..NullPorts::default()
        }
    }

    fn run(program: Program) -> (Core, NullPorts) {
        let mut core = Core::new(0, CoreConfig::ooo1(), program);
        let mut ports = null_ports(2);
        for _ in 0..200_000 {
            if !core.step(&mut ports) {
                break;
            }
        }
        assert!(core.halted(), "program did not halt");
        (core, ports)
    }

    /// Steps `core` until it halts or reaches cycle `budget`, calling `feed`
    /// before every cycle, and checks the quiescence probe on each one:
    /// whenever `next_event` claims the next cycle is inert (a wake strictly
    /// beyond `cycle + 1`), a clone advanced with `skip_cycles(1)` must
    /// match the stepped core's statistics exactly — so the stepped cycle
    /// neither fetched, dispatched, issued, committed nor squashed, and the
    /// skip engine charged the same stall counters. Returns, per inert
    /// cycle, the ROB head, its stall cause and the front-end stall.
    fn probe_inert_cycles(
        core: &mut Core,
        ports: &mut NullPorts,
        budget: u64,
        feed: impl Fn(&Core, &mut NullPorts),
    ) -> Vec<(Option<Inst>, Option<BlockedOn>, Option<DispatchStall>)> {
        let mut inert = Vec::new();
        while !core.halted() && core.cycle() < budget {
            feed(core, ports);
            let claim_inert = core.next_event(ports).is_some_and(|w| w > core.cycle() + 1);
            let mut skipped = core.clone();
            skipped.skip_cycles(1);
            let seen = (
                core.rob.front().map(|e| e.inst),
                core.head_wait(),
                core.dispatch_stall(),
            );
            core.step(ports);
            if claim_inert {
                assert_eq!(
                    core.stats(),
                    skipped.stats(),
                    "cycle {}: an inert step diverged from skip_cycles(1) at {seen:?}",
                    core.cycle()
                );
                inert.push(seen);
            }
        }
        inert
    }

    /// A program whose ROB head parks on each kind of stall in turn: the ROB
    /// and then the IQ fill behind a slow load, a fence drains stores, the
    /// store buffer fills, an atomic waits for stores, `spl_store` waits on
    /// an empty SPL output queue, and the halt drains the last store. With
    /// `recv`, a never-ready `hwq_recv` parks the core before the halt.
    fn parking_program(recv: bool) -> Program {
        let mut a = Asm::new("park");
        a.li(R1, 0x800);
        a.lw(R2, R1, 0);
        for _ in 0..70 {
            a.addi(R4, R0, 1); // completes, but cannot retire past the load
        }
        a.lw(R5, R1, 4);
        for _ in 0..40 {
            a.addi(R6, R5, 1); // waits in the IQ for the load
        }
        for k in 0..4 {
            a.sw(R2, R1, 8 + 4 * k);
        }
        a.fence();
        for k in 0..12 {
            a.sw(R4, R1, 16 + 4 * k);
        }
        a.amoadd(R9, R1, R4);
        a.spl_store(R7);
        a.sw(R7, R1, 8);
        if recv {
            a.hwq_recv(R8, 0);
        }
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn next_event_none_whenever_core_could_progress() {
        let mut a = Asm::new("t");
        a.li(R1, 0);
        a.li(R2, 20);
        a.label("loop");
        a.sw(R1, R1, 64);
        a.lw(R3, R1, 64);
        a.addi(R1, R1, 1);
        a.bne(R1, R2, "loop");
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        // A long memory latency opens plenty of provably idle gaps.
        let mut ports = null_ports(25);
        let inert = probe_inert_cycles(&mut core, &mut ports, 200_000, |_, _| {});
        assert!(core.halted(), "program did not halt");
        // The probe must actually have found idle cycles, or this test is
        // vacuous.
        assert!(!inert.is_empty(), "probe never reported an inert cycle");

        // Slow loads (and store address generation) behind a fast front end,
        // so the ROB and the IQ fill while a load is outstanding.
        let mut cfg = CoreConfig::ooo1();
        cfg.lat.agu = 300;
        // The SPL result arrives only after `spl_store` has parked a while.
        let feed = |core: &Core, ports: &mut NullPorts| {
            if core.head_wait() == Some(BlockedOn::SplResult)
                && core.cycle().is_multiple_of(64)
                && ports.spl_results.is_empty()
            {
                ports.spl_results.push_back(7);
            }
        };
        for recv in [false, true] {
            let mut core = Core::new(0, cfg, parking_program(recv));
            let mut ports = null_ports(4);
            let inert = probe_inert_cycles(&mut core, &mut ports, 20_000, feed);
            assert_eq!(core.halted(), !recv, "recv {recv}");
            let parked = |head: fn(Inst) -> bool, cause: BlockedOn| {
                inert
                    .iter()
                    .any(|&(i, c, _)| i.is_some_and(head) && c == Some(cause))
            };
            let stalled = |s| inert.iter().any(|&(_, _, d)| d == Some(s));
            assert!(stalled(DispatchStall::RobFull), "no inert ROB-full cycle");
            assert!(stalled(DispatchStall::IqFull), "no inert IQ-full cycle");
            assert!(parked(|i| i == Inst::Fence, BlockedOn::Fence));
            assert!(parked(
                |i| matches!(i, Inst::Sw { .. }),
                BlockedOn::StoreBuffer
            ));
            assert!(parked(
                |i| matches!(i, Inst::AmoAdd { .. }),
                BlockedOn::Atomic
            ));
            assert!(parked(
                |i| matches!(i, Inst::SplStore { .. }),
                BlockedOn::SplResult
            ));
            if recv {
                assert!(parked(
                    |i| matches!(i, Inst::HwqRecv { .. }),
                    BlockedOn::HwqRecv { q: 0 }
                ));
            } else {
                assert!(parked(|i| i == Inst::Halt, BlockedOn::Fence));
            }
        }
    }

    #[test]
    fn blocked_on_names_a_halt_draining_stores_fence() {
        let mut a = Asm::new("t");
        a.li(R1, 0x100);
        a.sw(R1, R1, 0);
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        let mut ports = null_ports(25);
        let mut seen = false;
        while core.step(&mut ports) {
            if core.rob.front().is_some_and(|e| e.inst == Inst::Halt) && !core.store_buf.is_empty()
            {
                assert_eq!(core.blocked_on(&ports), BlockedOn::Fence);
                seen = true;
            }
        }
        assert!(seen, "the halt never waited for its store");
    }

    /// Runs `program` to its halt on OOO1 with 300-cycle address generation
    /// (loads and stores stay in flight, so the ROB fills behind them),
    /// checking after every step, in release builds too, that the kept ROB
    /// masks equal a recount and that every load the gate passes over
    /// would read blocked; `seen` gets the core before and after a step.
    fn step_checking_masks(program: Program, mut seen: impl FnMut(&Core, &Core)) {
        let mut cfg = CoreConfig::ooo1();
        cfg.lat.agu = 300;
        let mut core = Core::new(0, cfg, program);
        let mut ports = NullPorts::default();
        while !core.halted() {
            assert!(core.cycle() < 100_000, "program did not halt");
            let before = core.clone();
            core.step(&mut ports);
            let cycle = core.cycle();
            assert_eq!(core.masks, core.masks_recount(), "cycle {cycle}");
            for i in bits(core.blocked_loads()) {
                assert_eq!(
                    core.load_check(i),
                    LoadPath::Blocked,
                    "cycle {cycle}, age {i}"
                );
            }
            seen(&before, &core);
        }
    }

    /// A slow load holds the head while independent work fills all 64 ROB
    /// slots; behind it, slow stores, the load's consumers and loads gated
    /// behind the stores keep the ROB full while commit drains it, so every
    /// mask gets bit 63.
    fn full_rob_program() -> Program {
        let mut a = Asm::new("full");
        a.li(R1, 0x800);
        a.lw(R2, R1, 0);
        (0..62).for_each(|_| a.addi(R4, R0, 1));
        for k in 0..40 {
            a.sw(R2, R1, 8 + 4 * (k % 8));
            a.addi(R6, R2, 1);
            a.lw(R9, R1, 40);
        }
        a.halt();
        a.assemble().unwrap()
    }

    const MASKS: &str = "[ready, ordering, executing, loads, hard]";

    #[test]
    fn rob_masks_hold_bit_63_and_commit_shifts_it() {
        let (mut top, mut shifted) = ([false; 5], [false; 5]);
        step_checking_masks(full_rob_program(), |before, after| {
            let committed = after.stats.committed > before.stats.committed;
            for (k, m) in before.masks.into_iter().enumerate() {
                top[k] |= m >> 63 == 1;
                shifted[k] |= m >> 63 == 1 && committed;
            }
        });
        assert_eq!(top, [true; 5], "{MASKS} bit 63 seen");
        assert_eq!(shifted, [true; 5], "commit shifted a set bit 63 of {MASKS}");
    }

    #[test]
    fn rob_masks_survive_a_squash_past_every_kind_of_entry() {
        // The `beq` is predicted not taken but taken. While its slow load is
        // outstanding the wrong path runs a slow store (ordering and
        // executing), a load, a fence (hard) and queues divides behind the
        // unpipelined divider (ready); the squash must clear all of them.
        let mut a = Asm::new("squash");
        a.li(R1, 0x800);
        a.lw(R3, R1, 0);
        a.beq(R3, R0, "done");
        a.sw(R7, R1, 64);
        a.lw(R9, R1, 72);
        a.fence();
        (0..40).for_each(|_| a.div(R8, R7, R7));
        a.label("done");
        a.halt();
        let mut cleared = None;
        step_checking_masks(a.assemble().unwrap(), |before, after| {
            let squashed = (after.stats.squashed - before.stats.squashed) as usize;
            if squashed > 0 {
                let tail = !below(before.rob.len - squashed);
                cleared = Some(before.masks.map(|m| m & tail != 0));
            }
        });
        assert_eq!(
            cleared,
            Some([true; 5]),
            "{MASKS} entries in the squashed tail"
        );
    }

    #[test]
    fn loads_are_gated_behind_every_kind_of_hard_ordering_point() {
        // Each load queues behind one hard point: a store whose address
        // waits on the slow load, then an atomic, then a fence.
        let mut a = Asm::new("gate");
        a.li(R1, 0x800);
        a.lw(R2, R1, 0);
        a.sw(R4, R2, 16);
        a.lw(R5, R1, 8);
        a.amoadd(R6, R1, R4);
        a.lw(R7, R1, 12);
        a.fence();
        a.lw(R8, R1, 16);
        a.halt();
        let mut gated_behind = Vec::new();
        step_checking_masks(a.assemble().unwrap(), |_, c| {
            if c.blocked_loads() != 0 {
                gated_behind.push(c.rob[c.masks[HARD].trailing_zeros() as usize].inst.class());
            }
        });
        for hard in [InstClass::Store, InstClass::Atomic, InstClass::Sync] {
            assert!(
                gated_behind.contains(&hard),
                "no load gated behind a {hard:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-bit ROB masks")]
    fn rob_wider_than_the_masks_is_refused() {
        let mut cfg = CoreConfig::ooo1();
        cfg.rob = 65;
        Core::new(0, cfg, full_rob_program());
    }

    #[test]
    fn restore_refuses_a_rob_longer_than_configured() {
        use remap_snap::{Reader, SnapError, State, Writer};
        let mut full = None;
        step_checking_masks(full_rob_program(), |_, c| {
            if c.rob.len == 64 && c.masks[READY] != 0 {
                full.get_or_insert_with(|| c.clone());
            }
        });
        let core: Core = full.expect("the ROB filled");
        let encode = |save: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            save(&mut w);
            w.into_vec()
        };
        let load = |bytes: &[u8]| {
            // The padding stands in for the rest of a system payload: the
            // reader admits a sequence only if it fits in the bytes left at
            // its in-memory size.
            let mut bytes = bytes.to_vec();
            bytes.resize(bytes.len() + 65 * std::mem::size_of::<RobEntry>(), 0);
            let mut back = Core::new(0, core.cfg, core.program.clone());
            back.load(&mut Reader::new(&bytes)).map(|()| back.masks)
        };
        let bytes = encode(&|w| core.save(w));
        assert_eq!(load(&bytes), Ok(core.masks), "masks rebuilt");
        // A hostile payload with one entry too many would need bit 64 and a
        // slot already taken: splice a 65th entry in after the 64th.
        let rob_at = encode(&|w| {
            core.pred.save(w);
            core.regs.save(w);
            core.map.save(w);
        })
        .len();
        let rob_end = rob_at + encode(&|w| core.rob.save(w)).len();
        let mut extra = core.rob[63].clone();
        extra.seq += 1;
        let mut long = bytes[..rob_at].to_vec();
        long.extend(65u64.to_le_bytes());
        long.extend(&bytes[rob_at + 8..rob_end]);
        long.extend(encode(&|w| extra.save(w)));
        long.extend(&bytes[rob_end..]);
        let err = load(&long).unwrap_err();
        assert!(
            matches!(&err, SnapError::Corrupt(m) if m.contains("65 entries")),
            "{err:?}"
        );
        // Seqs that skip one would alias two entries too, and a next seq
        // off the ROB's end would hand out a resident seq.
        let (mut gap, mut off_end) = (core.clone(), core.clone());
        gap.rob[5].seq += 1;
        off_end.next_seq += 1;
        for c in [gap, off_end] {
            let err = load(&encode(&|w| c.save(w))).unwrap_err();
            assert!(
                matches!(&err, SnapError::Corrupt(m) if m.contains("not contiguous")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut a = Asm::new("t");
        a.li(R1, 6);
        a.li(R2, 7);
        a.mul(R3, R1, R2);
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), 42);
        assert_eq!(core.stats().committed, 4);
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut a = Asm::new("t");
        a.li(R1, 0);
        a.li(R2, 100);
        a.label("loop");
        a.addi(R1, R1, 1);
        a.bne(R1, R2, "loop");
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R1), 100);
        assert!(core.stats().branches >= 100);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut a = Asm::new("t");
        a.li(R1, 0x100);
        a.li(R2, -123);
        a.sw(R2, R1, 0);
        a.lw(R3, R1, 0);
        a.halt();
        let (core, ports) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), -123);
        assert_eq!(ports.mem.read_u32(0x100) as i32, -123);
    }

    #[test]
    fn store_to_load_forwarding_value() {
        // The load issues while the store is still in flight; forwarding or
        // blocking must still produce the right value.
        let mut a = Asm::new("t");
        a.li(R1, 0x200);
        a.li(R2, 77);
        a.sw(R2, R1, 0);
        a.lw(R3, R1, 0);
        a.addi(R4, R3, 1);
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R4), 78);
    }

    #[test]
    fn byte_load_sign_extension() {
        let mut a = Asm::new("t");
        a.li(R1, 0x300);
        a.li(R2, 0xFF);
        a.sb(R2, R1, 0);
        a.fence();
        a.lb(R3, R1, 0);
        a.lbu(R4, R1, 0);
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), -1);
        assert_eq!(core.reg(R4), 255);
    }

    #[test]
    fn call_return_via_ras() {
        let mut a = Asm::new("t");
        a.li(R1, 5);
        a.jal(R31, "func");
        a.addi(R1, R1, 100); // executed after return
        a.halt();
        a.label("func");
        a.addi(R1, R1, 1);
        a.jalr(R0, R31);
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R1), 106);
    }

    #[test]
    fn fp_ops() {
        let mut a = Asm::new("t");
        // Build 2.0 and 0.5 bit patterns via integer ops is painful; use
        // memory.
        a.li(R1, 0x400);
        a.lw(R2, R1, 0); // low half of 2.0
        a.lw(R3, R1, 4); // high half
        a.slli(R3, R3, 32);
        a.or(R2, R2, R3);
        a.lw(R4, R1, 8);
        a.lw(R5, R1, 12);
        a.slli(R5, R5, 32);
        a.or(R4, R4, R5);
        a.fmul(R6, R2, R4);
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        let mut ports = null_ports(1);
        ports.mem.write_u64(0x400, 2.0f64.to_bits());
        ports.mem.write_u64(0x408, 0.5f64.to_bits());
        while core.step(&mut ports) {}
        assert_eq!(f64::from_bits(core.reg(R6) as u64), 1.0);
    }

    #[test]
    fn amo_add_at_head() {
        let mut a = Asm::new("t");
        a.li(R1, 0x500);
        a.li(R2, 3);
        a.amoadd(R3, R1, R2);
        a.amoadd(R4, R1, R2);
        a.halt();
        let (core, ports) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), 0);
        assert_eq!(core.reg(R4), 3);
        assert_eq!(ports.mem.read_u32(0x500), 6);
    }

    #[test]
    fn spl_ops_flow_through_ports() {
        let mut a = Asm::new("t");
        a.li(R1, 42);
        a.spl_load(R1, 0, 4);
        a.spl_init(7);
        a.spl_store(R2);
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        let mut ports = null_ports(1);
        ports.spl_results.push_back(99);
        while core.step(&mut ports) {}
        assert_eq!(ports.spl_staged, vec![(0, 4, 42)]);
        assert_eq!(ports.spl_inits, vec![7]);
        assert_eq!(core.reg(R2), 99);
        assert_eq!(core.stats().spl_ops, 3);
    }

    #[test]
    fn ooo2_is_faster_on_ilp() {
        // Independent ALU chains: the dual-issue core should finish sooner.
        let mk = || {
            let mut a = Asm::new("ilp");
            a.li(R1, 0);
            a.li(R2, 0);
            a.li(R3, 0);
            a.li(R4, 0);
            for _ in 0..200 {
                a.addi(R1, R1, 1);
                a.addi(R2, R2, 2);
                a.addi(R3, R3, 3);
                a.addi(R4, R4, 4);
            }
            a.halt();
            a.assemble().unwrap()
        };
        let mut c1 = Core::new(0, CoreConfig::ooo1(), mk());
        let mut c2 = Core::new(0, CoreConfig::ooo2(), mk());
        let mut p1 = null_ports(1);
        let mut p2 = null_ports(1);
        while c1.step(&mut p1) {}
        while c2.step(&mut p2) {}
        assert_eq!(c1.reg(R1), 200);
        assert_eq!(c2.reg(R4), 800);
        assert!(
            (c2.cycle() as f64) < 0.7 * c1.cycle() as f64,
            "OOO2 ({}) should be well under OOO1 ({})",
            c2.cycle(),
            c1.cycle()
        );
    }

    #[test]
    fn mispredicts_squash_wrong_path() {
        // A data-dependent unpredictable branch pattern.
        let mut a = Asm::new("t");
        a.li(R1, 0);
        a.li(R2, 50);
        a.li(R5, 0);
        a.label("loop");
        a.andi(R3, R1, 1);
        a.beq(R3, R0, "even");
        a.addi(R5, R5, 2);
        a.j("next");
        a.label("even");
        a.addi(R5, R5, 1);
        a.label("next");
        a.addi(R1, R1, 1);
        a.bne(R1, R2, "loop");
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        // 25 even (+1) + 25 odd (+2)
        assert_eq!(core.reg(R5), 75);
    }

    #[test]
    fn fence_drains_stores() {
        let mut a = Asm::new("t");
        a.li(R1, 0x600);
        a.li(R2, 5);
        a.sw(R2, R1, 0);
        a.fence();
        a.halt();
        let (core, ports) = run(a.assemble().unwrap());
        assert!(core.stats().committed >= 5);
        assert_eq!(ports.mem.read_u32(0x600), 5);
    }

    #[test]
    fn set_reg_seeds_arguments() {
        let mut a = Asm::new("t");
        a.addi(R2, R10, 1);
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        core.set_reg(R10, 41);
        let mut ports = null_ports(1);
        while core.step(&mut ports) {}
        assert_eq!(core.reg(R2), 42);
    }

    #[test]
    #[should_panic(expected = "set_reg after execution")]
    fn set_reg_after_start_panics() {
        let mut a = Asm::new("t");
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        let mut ports = NullPorts::default();
        core.step(&mut ports);
        core.set_reg(R1, 1);
    }

    #[test]
    fn pointer_chase_is_slow_but_correct() {
        // Build a linked list in memory and chase it.
        let mut a = Asm::new("t");
        a.li(R1, 0x1000);
        a.li(R2, 0);
        a.li(R3, 16);
        a.label("loop");
        a.lw(R1, R1, 0);
        a.addi(R2, R2, 1);
        a.bne(R2, R3, "loop");
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        let mut ports = null_ports(10);
        // next[i] pointers: 0x1000 -> 0x1040 -> 0x1080 ... wrap to 0x1000.
        for i in 0..16u64 {
            let a0 = 0x1000 + i * 0x40;
            let nxt = 0x1000 + ((i + 1) % 16) * 0x40;
            ports.mem.write_u32(a0, nxt as u32);
        }
        while core.step(&mut ports) {}
        assert_eq!(core.reg(R1), 0x1000, "wrapped around the list");
        // 16 serialized 10-cycle loads dominate: at least 160 cycles.
        assert!(core.cycle() > 160);
    }

    /// Memory that refuses loads until `open`, counting the probes, with a
    /// fill generation and a refusal wake the test sets.
    struct Gate {
        inner: NullPorts,
        open: bool,
        probes: std::cell::Cell<u32>,
        gen: u64,
        wake: u64,
    }

    impl CorePorts for Gate {
        fn inst_fetch(&mut self, core: usize, addr: u64) -> u32 {
            self.inner.inst_fetch(core, addr)
        }
        fn load(&mut self, core: usize, addr: u64, size: u8, pc: u32) -> (u64, u32) {
            self.inner.load(core, addr, size, pc)
        }
        fn store(&mut self, core: usize, addr: u64, size: u8, value: u64) -> u32 {
            self.inner.store(core, addr, size, value)
        }
        fn amo_add(&mut self, core: usize, addr: u64, delta: i64) -> (i64, u32) {
            self.inner.amo_add(core, addr, delta)
        }
        fn spl_load(&mut self, core: usize, offset: u8, nbytes: u8, value: u64) {
            self.inner.spl_load(core, offset, nbytes, value)
        }
        fn spl_init(&mut self, core: usize, cfg: u16) -> PortPush {
            self.inner.spl_init(core, cfg)
        }
        fn spl_store(&mut self, core: usize) -> Option<u64> {
            self.inner.spl_store(core)
        }
        fn hwq_send(&mut self, core: usize, q: u8, value: u64) -> PortPush {
            self.inner.hwq_send(core, q, value)
        }
        fn hwq_recv(&mut self, core: usize, q: u8) -> Option<u64> {
            self.inner.hwq_recv(core, q)
        }
        fn hwbar(&mut self, core: usize, id: u8) -> bool {
            self.inner.hwbar(core, id)
        }
        fn ready(&self, core: usize, cause: BlockedOn) -> bool {
            self.inner.ready(core, cause)
        }
        fn load_ready(&self, _core: usize, _addr: u64) -> bool {
            self.probes.set(self.probes.get() + 1);
            self.open
        }
        fn load_wake(&self, _core: usize, _addr: u64) -> u64 {
            self.wake
        }
        fn fill_generation(&self, _core: usize) -> u64 {
            self.gen
        }
    }

    #[test]
    fn a_held_load_reprobes_after_the_cores_own_fill_or_its_wake() {
        let mut a = Asm::new("t");
        a.li(R1, 0x800);
        a.lw(R2, R1, 0);
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        let mut ports = Gate {
            inner: null_ports(3),
            open: false,
            probes: Default::default(),
            gen: 0,
            wake: 1_000,
        };
        while ports.probes.get() == 0 {
            assert!(
                core.step(&mut ports) && core.cycle() < 100,
                "load never probed"
            );
        }
        // Refused once, then held: neither issue nor the quiescence probe
        // asks again, and the probe reports the refusal's wake.
        for _ in 0..20 {
            core.step(&mut ports);
        }
        assert_eq!(core.next_event(&ports), Some(1_000));
        assert_eq!(ports.probes.get(), 1, "a held load is not re-probed");
        // The core's own fill may have changed the answer: probe again.
        ports.gen += 1;
        core.step(&mut ports);
        assert_eq!(ports.probes.get(), 2, "a new fill generation re-probes");
        core.step(&mut ports);
        assert_eq!(ports.probes.get(), 2, "held again under the new generation");
        // Reaching the wake lapses the hold too; this time it is accepted.
        ports.open = true;
        while core.cycle() < 1_000 {
            core.step(&mut ports);
        }
        assert_eq!(ports.probes.get(), 3);
        while core.step(&mut ports) {}
        assert_eq!(ports.probes.get(), 3, "an accepted load issues once");
    }
    /// Memory with four banks of two ports each, shaped like the
    /// hierarchy's directory: a load of a line not yet cached is refused
    /// while every port of the line's bank is busy, and its wake is that
    /// bank's earliest free port. An accepted load caches its line and its
    /// buddy line (`line ^ 32`, like a prefetch), claims a port and moves
    /// the fill generation, so the core's own fill can make a held load of
    /// the buddy ready before its wake. Other cores claim ports on a fixed
    /// schedule, which only ever makes a refused load wait longer.
    ///
    /// With `reference` set, the fill generation changes on every call and
    /// every wake is the next cycle, so no hold outlives a cycle: the core
    /// probes every refused load every cycle.
    struct Banks {
        inner: NullPorts,
        now: u64,
        ports: [[u64; 2]; 4],
        cached: Vec<u64>,
        gen: u64,
        probes: std::cell::Cell<u32>,
        refusals: std::cell::Cell<u32>,
        reference: bool,
        calls: std::cell::Cell<u64>,
    }

    impl Banks {
        const BUSY: u64 = 6;

        fn new(reference: bool) -> Banks {
            Banks {
                inner: null_ports(1),
                now: 0,
                ports: [[0; 2]; 4],
                cached: Vec::new(),
                gen: 0,
                probes: Default::default(),
                refusals: Default::default(),
                reference,
                calls: Default::default(),
            }
        }

        fn bank(addr: u64) -> usize {
            (addr >> 5) as usize % 4
        }

        fn free_at(&self, addr: u64) -> u64 {
            let [a, b] = self.ports[Self::bank(addr)];
            a.min(b)
        }

        /// Claims the earliest-free port of `addr`'s bank for `busy` cycles.
        fn claim(&mut self, addr: u64, busy: u64) {
            let bank = &mut self.ports[Self::bank(addr)];
            let slot = usize::from(bank[1] < bank[0]);
            bank[slot] = bank[slot].max(self.now) + busy;
        }

        /// Moves to cycle `now`, where another core claims a port of the
        /// next bank in turn for seven cycles.
        fn advance(&mut self, now: u64) {
            self.now = now;
            self.claim(now << 5, 7);
        }
    }

    impl CorePorts for Banks {
        fn inst_fetch(&mut self, core: usize, addr: u64) -> u32 {
            self.inner.inst_fetch(core, addr)
        }
        fn load(&mut self, core: usize, addr: u64, size: u8, pc: u32) -> (u64, u32) {
            let line = addr & !31;
            let (v, _) = self.inner.load(core, addr, size, pc);
            if self.cached.contains(&line) {
                return (v, 1);
            }
            self.claim(addr, Self::BUSY);
            self.cached.extend([line, line ^ 32]);
            self.gen += 1;
            (v, 8)
        }
        fn store(&mut self, core: usize, addr: u64, size: u8, value: u64) -> u32 {
            self.inner.store(core, addr, size, value)
        }
        fn amo_add(&mut self, core: usize, addr: u64, delta: i64) -> (i64, u32) {
            self.inner.amo_add(core, addr, delta)
        }
        fn spl_load(&mut self, core: usize, offset: u8, nbytes: u8, value: u64) {
            self.inner.spl_load(core, offset, nbytes, value)
        }
        fn spl_init(&mut self, core: usize, cfg: u16) -> PortPush {
            self.inner.spl_init(core, cfg)
        }
        fn spl_store(&mut self, core: usize) -> Option<u64> {
            self.inner.spl_store(core)
        }
        fn hwq_send(&mut self, core: usize, q: u8, value: u64) -> PortPush {
            self.inner.hwq_send(core, q, value)
        }
        fn hwq_recv(&mut self, core: usize, q: u8) -> Option<u64> {
            self.inner.hwq_recv(core, q)
        }
        fn hwbar(&mut self, core: usize, id: u8) -> bool {
            self.inner.hwbar(core, id)
        }
        fn ready(&self, core: usize, cause: BlockedOn) -> bool {
            self.inner.ready(core, cause)
        }
        fn load_ready(&self, _core: usize, addr: u64) -> bool {
            self.probes.set(self.probes.get() + 1);
            let ready = self.cached.contains(&(addr & !31)) || self.free_at(addr) <= self.now;
            self.refusals.set(self.refusals.get() + u32::from(!ready));
            ready
        }
        fn load_wake(&self, _core: usize, addr: u64) -> u64 {
            if self.reference {
                self.now + 1
            } else {
                self.free_at(addr).max(self.now + 1)
            }
        }
        fn fill_generation(&self, _core: usize) -> u64 {
            self.calls.set(self.calls.get() + 1);
            if self.reference {
                self.calls.get()
            } else {
                self.gen
            }
        }
    }

    #[test]
    fn held_loads_match_a_core_that_probes_every_cycle() {
        // Each iteration loads two buddy lines in different banks through
        // independent base registers, then a dependent third load.
        let mut a = Asm::new("t");
        a.li(R1, 0x1000);
        a.li(R2, 0x1020);
        a.li(R6, 0);
        a.li(R7, 96);
        a.label("loop");
        a.lw(R3, R1, 0);
        a.lw(R4, R2, 0);
        a.add(R5, R3, R4);
        a.lw(R5, R5, 0x3000);
        a.addi(R1, R1, 64);
        a.addi(R2, R2, 64);
        a.addi(R6, R6, 1);
        a.bne(R6, R7, "loop");
        a.halt();
        let prog = a.assemble().unwrap();
        let mut cores = [0, 1].map(|_| Core::new(0, CoreConfig::ooo2(), prog.clone()));
        let mut envs = [Banks::new(false), Banks::new(true)];
        let image = |c: &Core| {
            let mut w = remap_snap::Writer::new();
            c.save(&mut w);
            w.into_vec()
        };
        loop {
            let running = [0, 1].map(|k| {
                envs[k].advance(cores[k].cycle() + 1);
                cores[k].step(&mut envs[k])
            });
            let cycle = cores[0].cycle();
            assert_eq!(running[0], running[1], "cycle {cycle}");
            assert_eq!(cores[0].stats(), cores[1].stats(), "cycle {cycle}");
            assert!(image(&cores[0]) == image(&cores[1]), "cycle {cycle}");
            assert_eq!(envs[0].ports, envs[1].ports, "cycle {cycle}");
            assert_eq!(envs[0].cached, envs[1].cached, "cycle {cycle}");
            if !running[0] {
                break;
            }
            assert!(cycle < 100_000, "program did not halt");
        }
        let [held, every] = envs.map(|e| (e.probes.get(), e.refusals.get()));
        assert!(held.1 > 100, "too few refusals to pin the hold: {held:?}");
        assert!(
            held.0 < every.0,
            "holds saved no probes: {held:?} vs {every:?}"
        );
    }
}
