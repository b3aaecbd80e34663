//! The core's view of the outside world: memory, the SPL queue interface,
//! and the baseline communication devices.

use crate::core::BlockedOn;

/// Result of a non-blocking push-style port operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPush {
    /// The operation was accepted this cycle.
    Accepted,
    /// The device cannot accept the operation (queue full / destination
    /// unavailable); the core must retry next cycle.
    Stall,
}

/// Everything a [`Core`](crate::Core) needs from its environment.
///
/// The `remap` system crate implements this on the combination of the memory
/// hierarchy, the SPL cluster, and the baseline communication devices; unit
/// tests implement it with simple stubs. All latencies are returned in core
/// cycles; queue-style operations are non-blocking attempts that the core
/// retries while stalled (modelling back-pressure on full/empty queues).
pub trait CorePorts {
    /// Timing for fetching the instruction at byte address `addr`.
    fn inst_fetch(&mut self, core: usize, addr: u64) -> u32;
    /// Functional load of `size` bytes with its latency. `pc` identifies
    /// the load instruction for the environment's stride prefetcher
    /// (implementations without one ignore it).
    fn load(&mut self, core: usize, addr: u64, size: u8, pc: u32) -> (u64, u32);
    /// Functional store of `size` bytes with its latency.
    fn store(&mut self, core: usize, addr: u64, size: u8, value: u64) -> u32;
    /// Atomic fetch-and-add of a 32-bit word.
    fn amo_add(&mut self, core: usize, addr: u64, delta: i64) -> (i64, u32);

    /// Stage `nbytes` of `value` at byte `offset` of the core's SPL
    /// input-queue entry under construction (staging never back-pressures;
    /// only the sealing `spl_init` can stall).
    fn spl_load(&mut self, core: usize, offset: u8, nbytes: u8, value: u64);
    /// Seal the entry and request SPL configuration `cfg`.
    fn spl_init(&mut self, core: usize, cfg: u16) -> PortPush;
    /// Pop the core's SPL output queue, if a result is ready.
    fn spl_store(&mut self, core: usize) -> Option<u64>;

    /// Push into idealized hardware queue `q` (OOO2+Comm baseline).
    fn hwq_send(&mut self, core: usize, q: u8, value: u64) -> PortPush;
    /// Pop idealized hardware queue `q`.
    fn hwq_recv(&mut self, core: usize, q: u8) -> Option<u64>;

    /// Announce arrival at idealized hardware barrier `id`; returns `true`
    /// once the barrier has released this core (the core re-polls while
    /// `false`).
    fn hwbar(&mut self, core: usize, id: u8) -> bool;

    // --- quiescence probes --------------------------------------------------
    //
    // Pure (non-mutating) mirrors of the operations above, used by
    // [`Core::next_event`](crate::Core::next_event) to decide whether the
    // core's next cycle could make progress.

    /// Would the ROB head parked on `cause` make progress if retried right
    /// now? `cause` comes from the core's own stall classifier. Device
    /// causes ask the matching operation: would [`CorePorts::spl_store`] or
    /// [`CorePorts::hwq_recv`] return a value, would [`CorePorts::spl_init`]
    /// or [`CorePorts::hwq_send`] be accepted, would [`CorePorts::hwbar`]
    /// change barrier state or release the core (an un-arrived core's poll
    /// registers its arrival, which counts)? Core-internal causes (fence,
    /// atomic, store buffer) answer `false`: their wake comes from the store
    /// drain or an operand's producer, which the core tracks itself.
    /// Answering `true` for a device is always correct, merely unskippable.
    fn ready(&self, core: usize, cause: BlockedOn) -> bool;
    /// Would a demand load of `addr` be accepted right now? A non-blocking
    /// memory hierarchy refuses a load whose miss can neither merge with an
    /// outstanding fill nor allocate an MSHR; the core holds the load and
    /// re-probes. The default (blocking memory) always accepts.
    fn load_ready(&self, _core: usize, _addr: u64) -> bool {
        true
    }
    /// Wake point paired with [`CorePorts::load_ready`] for a load of
    /// `addr` just refused: a cycle after the current one before which the
    /// load is certainly still refused, as long as
    /// [`CorePorts::fill_generation`] stands still. A memory hierarchy
    /// answers with the later of when the line's own directory bank frees a
    /// port and when the core's MSHR file frees a register, each counted
    /// only if it refuses the line. An early answer is safe (the core
    /// re-probes); a late one is not. The default (never refused) is
    /// `u64::MAX`.
    fn load_wake(&self, _core: usize, _addr: u64) -> u64 {
        u64::MAX
    }
    /// A count that changes whenever the core's own memory traffic may
    /// have changed what [`CorePorts::load_ready`] answers for it. While it
    /// stands still, a load refused at one cycle stays refused until the
    /// [`CorePorts::load_wake`] read at that cycle, so the core holds it
    /// without re-probing. The default (never refused) never changes.
    fn fill_generation(&self, _core: usize) -> u64 {
        0
    }
    /// Whether a refused load is held by coherence-directory bank occupancy
    /// rather than a full MSHR file (deadlock-report attribution only; the
    /// default covers environments without a directory).
    fn load_blocked_by_dir(&self, _core: usize, _addr: u64) -> bool {
        false
    }
}

/// A degenerate environment for unit tests: flat memory with fixed latency
/// and permanently empty/full-never devices.
#[derive(Debug, Default)]
pub struct NullPorts {
    /// Backing store shared by loads and stores.
    pub mem: remap_mem::FlatMem,
    /// Latency charged on every memory access.
    pub mem_latency: u32,
    /// Values returned by successive `spl_store` pops.
    pub spl_results: std::collections::VecDeque<u64>,
    /// Record of `(offset, nbytes, value)` triples staged by `spl_load`.
    pub spl_staged: Vec<(u8, u8, u64)>,
    /// Record of configurations requested by `spl_init`.
    pub spl_inits: Vec<u16>,
}

impl CorePorts for NullPorts {
    fn inst_fetch(&mut self, _core: usize, _addr: u64) -> u32 {
        self.mem_latency.max(1)
    }
    fn load(&mut self, _core: usize, addr: u64, size: u8, _pc: u32) -> (u64, u32) {
        let v = match size {
            1 => self.mem.read_u8(addr) as u64,
            4 => self.mem.read_u32(addr) as u64,
            _ => self.mem.read_u64(addr),
        };
        (v, self.mem_latency.max(1))
    }
    fn store(&mut self, _core: usize, addr: u64, size: u8, value: u64) -> u32 {
        match size {
            1 => self.mem.write_u8(addr, value as u8),
            4 => self.mem.write_u32(addr, value as u32),
            _ => self.mem.write_u64(addr, value),
        }
        self.mem_latency.max(1)
    }
    fn amo_add(&mut self, _core: usize, addr: u64, delta: i64) -> (i64, u32) {
        let old = self.mem.read_u32(addr) as i32 as i64;
        self.mem.write_u32(addr, old.wrapping_add(delta) as u32);
        (old, self.mem_latency.max(1))
    }
    fn spl_load(&mut self, _core: usize, offset: u8, nbytes: u8, value: u64) {
        self.spl_staged.push((offset, nbytes, value));
    }
    fn spl_init(&mut self, _core: usize, cfg: u16) -> PortPush {
        self.spl_inits.push(cfg);
        PortPush::Accepted
    }
    fn spl_store(&mut self, _core: usize) -> Option<u64> {
        self.spl_results.pop_front()
    }
    fn hwq_send(&mut self, _core: usize, _q: u8, _value: u64) -> PortPush {
        PortPush::Accepted
    }
    fn hwq_recv(&mut self, _core: usize, _q: u8) -> Option<u64> {
        None
    }
    fn hwbar(&mut self, _core: usize, _id: u8) -> bool {
        true
    }
    fn ready(&self, _core: usize, cause: BlockedOn) -> bool {
        match cause {
            BlockedOn::SplResult => !self.spl_results.is_empty(),
            BlockedOn::HwqRecv { .. } => false,
            // Pushes are always accepted and barriers release at once.
            BlockedOn::SplIssue { .. }
            | BlockedOn::HwqSend { .. }
            | BlockedOn::HwBarrier { .. } => true,
            _ => false,
        }
    }
}
