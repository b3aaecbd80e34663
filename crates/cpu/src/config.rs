//! Core configurations reproducing Table II of the paper.

/// Functional-unit and pipeline latencies (in core cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Simple integer ALU operation.
    pub int_alu: u32,
    /// Pipelined integer multiply.
    pub int_mul: u32,
    /// Unpipelined integer divide.
    pub int_div: u32,
    /// Pipelined floating-point add/sub/mul.
    pub fp_op: u32,
    /// Unpipelined floating-point divide.
    pub fp_div: u32,
    /// Address generation for loads/stores (before the cache access).
    pub agu: u32,
    /// Access to the SPL input/output queue interface at retirement.
    pub spl_queue: u32,
    /// Access to an idealized hardware queue (OOO2+Comm; "zero hardware
    /// cost" in the paper, so a single cycle).
    pub hwq: u32,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            int_alu: 1,
            int_mul: 3,
            int_div: 12,
            fp_op: 4,
            fp_div: 12,
            agu: 1,
            spl_queue: 1,
            hwq: 1,
        }
    }
}

/// Out-of-order core parameters (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched/decoded/renamed per cycle.
    pub fetch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// Integer issue-queue entries.
    pub int_iq: usize,
    /// Floating-point issue-queue entries.
    pub fp_iq: usize,
    /// Reorder-buffer entries. Renaming is ROB-based, so this also bounds
    /// the in-flight rename registers (Table II lists 64 int + 64 fp
    /// registers and a 64-entry ROB; the binding constraint is identical).
    /// At most 64: the core keeps one bit per ROB entry in `u64` masks, and
    /// [`Core::new`](crate::Core::new) refuses a larger ROB.
    pub rob: usize,
    /// Post-commit store-buffer entries.
    pub store_buffer: usize,
    /// Number of simple integer ALUs.
    pub int_alus: u32,
    /// Number of FP units.
    pub fp_alus: u32,
    /// Number of branch units.
    pub branch_units: u32,
    /// Number of load/store ports.
    pub ldst_units: u32,
    /// Return-address-stack entries.
    pub ras: usize,
    /// Branch-target-buffer entries (512 B at 4 B/entry = 128).
    pub btb_entries: usize,
    /// History/index bits of the gshare and bimodal tables.
    pub bpred_bits: u32,
    /// Functional-unit latencies.
    pub lat: Latencies,
}

impl CoreConfig {
    /// The OOO1 configuration: 2-wide front end, single issue/retire.
    pub fn ooo1() -> CoreConfig {
        CoreConfig {
            fetch_width: 2,
            issue_width: 1,
            retire_width: 1,
            int_iq: 32,
            fp_iq: 16,
            rob: 64,
            store_buffer: 8,
            int_alus: 1,
            fp_alus: 1,
            branch_units: 1,
            ldst_units: 1,
            ras: 32,
            btb_entries: 128,
            bpred_bits: 12,
            lat: Latencies::default(),
        }
    }

    /// The OOO2 configuration: 4-wide front end, dual issue/retire, extra
    /// integer ALU and branch unit.
    pub fn ooo2() -> CoreConfig {
        CoreConfig {
            fetch_width: 4,
            issue_width: 2,
            retire_width: 2,
            int_alus: 2,
            branch_units: 2,
            ..CoreConfig::ooo1()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_parameters() {
        let c1 = CoreConfig::ooo1();
        assert_eq!(c1.fetch_width, 2);
        assert_eq!(c1.issue_width, 1);
        assert_eq!(c1.int_iq, 32);
        assert_eq!(c1.fp_iq, 16);
        assert_eq!(c1.rob, 64);
        assert_eq!(c1.ras, 32);

        let c2 = CoreConfig::ooo2();
        assert_eq!(c2.fetch_width, 4);
        assert_eq!(c2.issue_width, 2);
        assert_eq!(c2.retire_width, 2);
        assert_eq!(c2.int_alus, 2);
        assert_eq!(c2.branch_units, 2);
        assert_eq!(c2.fp_alus, 1);
        assert_eq!(c2.rob, c1.rob, "ROB is shared between configs");
    }
}
