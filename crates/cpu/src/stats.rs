//! Per-core activity statistics, consumed by reports and the power model.

use crate::core::BlockedOn;
use remap_isa::InstClass;

/// Counters accumulated by a [`Core`](crate::Core) as it executes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles this core has been stepped.
    pub cycles: u64,
    /// Instructions retired.
    pub committed: u64,
    /// Retired instructions by class (indexed via [`class_index`]).
    pub committed_by_class: [u64; 12],
    /// Instructions fetched (including wrong-path instructions that were
    /// later squashed).
    pub fetched: u64,
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Instructions squashed by branch mispredicts.
    pub squashed: u64,
    /// Conditional/indirect control transfers retired.
    pub branches: u64,
    /// Retired control transfers that had been mispredicted.
    pub mispredicts: u64,
    /// Cycles the front end stalled because the ROB was full.
    pub rob_full_stalls: u64,
    /// Cycles the front end stalled because an issue queue was full.
    pub iq_full_stalls: u64,
    /// Cycles commit was blocked waiting on an SPL queue (full input queue
    /// or empty output queue).
    pub spl_wait_cycles: u64,
    /// Cycles commit was blocked waiting on a hardware queue or barrier.
    pub hw_wait_cycles: u64,
    /// Cycles commit was blocked on a memory fence (or a halt) draining
    /// stores.
    pub fence_wait_cycles: u64,
    /// Architectural register-file reads (for power).
    pub regfile_reads: u64,
    /// Architectural register-file writes (for power).
    pub regfile_writes: u64,
    /// `spl_load`/`spl_init`/`spl_store` instructions retired.
    pub spl_ops: u64,
    /// Cycles during which at least one instruction committed.
    pub busy_cycles: u64,
}

remap_snap::state!(CoreStats |s| {
    s.cycles,
    s.committed,
    s.committed_by_class,
    s.fetched,
    s.dispatched,
    s.issued,
    s.squashed,
    s.branches,
    s.mispredicts,
    s.rob_full_stalls,
    s.iq_full_stalls,
    s.spl_wait_cycles,
    s.hw_wait_cycles,
    s.fence_wait_cycles,
    s.regfile_reads,
    s.regfile_writes,
    s.spl_ops,
    s.busy_cycles,
});

/// Maps an [`InstClass`] to its slot in `committed_by_class`.
pub fn class_index(c: InstClass) -> usize {
    match c {
        InstClass::IntAlu => 0,
        InstClass::IntMul => 1,
        InstClass::IntDiv => 2,
        InstClass::Fp => 3,
        InstClass::Load => 4,
        InstClass::Store => 5,
        InstClass::Atomic => 6,
        InstClass::Branch => 7,
        InstClass::Spl => 8,
        InstClass::Hwq => 9,
        InstClass::Sync => 10,
        InstClass::Other => 11,
    }
}

impl CoreStats {
    /// Charges `n` commit-stall cycles spent parked on `cause` to its wait
    /// counter. The one cause-to-counter mapping: the ticked commit charges
    /// one cycle per stall, the skip engine a whole inert stretch at once.
    /// Causes without a wait counter charge nothing.
    #[inline]
    pub fn charge(&mut self, cause: BlockedOn, n: u64) {
        match cause {
            BlockedOn::SplResult | BlockedOn::SplIssue { .. } => self.spl_wait_cycles += n,
            BlockedOn::HwqSend { .. } | BlockedOn::HwqRecv { .. } | BlockedOn::HwBarrier { .. } => {
                self.hw_wait_cycles += n
            }
            BlockedOn::Fence => self.fence_wait_cycles += n,
            _ => {}
        }
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mispredicts per retired branch.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Retired count for one class.
    pub fn committed_of(&self, c: InstClass) -> u64 {
        self.committed_by_class[class_index(c)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn class_indices_are_distinct() {
        use InstClass::*;
        let all = [
            IntAlu, IntMul, IntDiv, Fp, Load, Store, Atomic, Branch, Spl, Hwq, Sync, Other,
        ];
        let mut seen = std::collections::HashSet::new();
        for c in all {
            assert!(seen.insert(class_index(c)), "duplicate index for {c:?}");
        }
    }

    #[test]
    fn charge_maps_each_cause_to_its_wait_counter() {
        let cases = [
            (BlockedOn::SplResult, (3, 0, 0)),
            (BlockedOn::SplIssue { cfg: 1 }, (3, 0, 0)),
            (BlockedOn::HwqSend { q: 1 }, (0, 3, 0)),
            (BlockedOn::HwqRecv { q: 1 }, (0, 3, 0)),
            (BlockedOn::HwBarrier { id: 1 }, (0, 3, 0)),
            (BlockedOn::Fence, (0, 0, 3)),
            (BlockedOn::Atomic, (0, 0, 0)),
            (BlockedOn::StoreBuffer, (0, 0, 0)),
            (BlockedOn::DirectoryWait { line: 0 }, (0, 0, 0)),
            (BlockedOn::Pipeline, (0, 0, 0)),
        ];
        for (cause, (spl, hw, fence)) in cases {
            let mut s = CoreStats::default();
            s.charge(cause, 3);
            let want = CoreStats {
                spl_wait_cycles: spl,
                hw_wait_cycles: hw,
                fence_wait_cycles: fence,
                ..Default::default()
            };
            assert_eq!(s, want, "{cause:?}");
        }
    }

    #[test]
    fn rates() {
        let s = CoreStats {
            cycles: 100,
            committed: 50,
            branches: 10,
            mispredicts: 2,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 0.5);
        assert_eq!(s.mispredict_rate(), 0.2);
    }
}
