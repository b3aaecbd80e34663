//! Shared infrastructure for all workloads: execution modes, software
//! barrier emission, and the run-and-validate harness.

use remap::{RunError, System};
use remap_isa::{Asm, Reg};
use remap_power::PowerModel;

/// Base address of kernel input arrays.
pub const ADDR_IN: i64 = 0x1_0000;
/// Base address of kernel output arrays.
pub const ADDR_OUT: i64 = 0x8_0000;
/// Base address of shared synchronization state (software queues/barriers).
/// Placed well above the largest input region (Dijkstra's 200×200 cost
/// matrix ends at `ADDR_IN + 160 kB`).
pub const ADDR_SHARED: i64 = 0x6_0000;

/// Execution modes of the communication workloads (Figures 8–11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommMode {
    /// Sequential on one OOO1 core (the baseline of every figure).
    SeqOoo1,
    /// Sequential on one OOO2 core (building block of OOO2+Comm).
    SeqOoo2,
    /// One thread using the SPL for computation only (1Th+Comp).
    Comp1T,
    /// Producer/consumer pair, SPL used for communication only (2Th+Comm).
    Comm2T,
    /// Producer/consumer pair with computation *and* communication in the
    /// SPL (2Th+CompComm) — the ReMAP headline mode.
    CompComm2T,
    /// Producer/consumer pair on OOO2 cores with idealized dedicated
    /// hardware queues (the OOO2+Comm baseline).
    Ooo2Comm,
    /// Producer/consumer pair communicating through software queues in
    /// shared memory (§V-B's software-queue comparison).
    SwQueue2T,
}

impl CommMode {
    /// All modes in report order.
    pub const ALL: [CommMode; 7] = [
        CommMode::SeqOoo1,
        CommMode::SeqOoo2,
        CommMode::Comp1T,
        CommMode::Comm2T,
        CommMode::CompComm2T,
        CommMode::Ooo2Comm,
        CommMode::SwQueue2T,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CommMode::SeqOoo1 => "Seq(OOO1)",
            CommMode::SeqOoo2 => "Seq(OOO2)",
            CommMode::Comp1T => "1Th+Comp",
            CommMode::Comm2T => "2Th+Comm",
            CommMode::CompComm2T => "2Th+CompComm",
            CommMode::Ooo2Comm => "OOO2+Comm",
            CommMode::SwQueue2T => "SW-Queue",
        }
    }
}

/// Execution modes of the computation-only workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompMode {
    /// Sequential on one OOO1 core.
    SeqOoo1,
    /// Sequential on one OOO2 core.
    SeqOoo2,
    /// One thread using the SPL (Figure 1(a)).
    Spl,
}

impl CompMode {
    /// All modes in report order.
    pub const ALL: [CompMode; 3] = [CompMode::SeqOoo1, CompMode::SeqOoo2, CompMode::Spl];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CompMode::SeqOoo1 => "Seq(OOO1)",
            CompMode::SeqOoo2 => "Seq(OOO2)",
            CompMode::Spl => "1Th+Comp",
        }
    }
}

/// Outcome of one validated simulation.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Cycles until all threads halted.
    pub cycles: u64,
    /// Of those, cycles bulk-advanced by the quiescence skip engine (zero
    /// with the engine disabled); purely a simulator-performance statistic.
    pub skipped_cycles: u64,
    /// Total energy under the default power model, in picojoules.
    pub energy_pj: f64,
    /// Instructions retired across all cores.
    pub committed: u64,
    /// Host wall-clock seconds spent inside the simulation loop itself
    /// (excluding workload assembly, system construction, and validation);
    /// a host measurement, not an architectural result.
    pub sim_wall_seconds: f64,
}

/// Equality compares architectural results only — `sim_wall_seconds` is a
/// host-side timing that legitimately varies between identical runs, and
/// determinism tests assert `Measurement` equality across runs.
impl PartialEq for Measurement {
    fn eq(&self, other: &Self) -> bool {
        (self.cycles, self.skipped_cycles, self.committed)
            == (other.cycles, other.skipped_cycles, other.committed)
            && self.energy_pj == other.energy_pj
    }
}

impl Measurement {
    /// Energy×delay in pJ·cycles.
    pub fn ed(&self) -> f64 {
        self.energy_pj * self.cycles as f64
    }
}

/// Runs a built system to completion, validates it with `check`, and
/// returns the measurement.
///
/// # Errors
///
/// Propagates simulator [`RunError`]s and check failures as strings, so
/// experiment harnesses can attribute failures to the right workload/mode.
pub fn run_checked(
    mut sys: System,
    max_cycles: u64,
    check: impl FnOnce(&System) -> Result<(), String>,
) -> Result<Measurement, String> {
    let report = sys.run(max_cycles).map_err(|e: RunError| e.to_string())?;
    measure_checked(&sys, &report, check)
}

/// Validates an already-run system with `check` and derives its
/// [`Measurement`]. The tail of [`run_checked`], split out so drivers that
/// run the system themselves (checkpointing, resuming) share the same
/// validation and measurement path.
///
/// # Errors
///
/// Propagates check failures as strings.
pub fn measure_checked(
    sys: &System,
    report: &remap::RunReport,
    check: impl FnOnce(&System) -> Result<(), String>,
) -> Result<Measurement, String> {
    check(sys)?;
    let energy = sys.energy(&PowerModel::new());
    Ok(Measurement {
        cycles: report.cycles,
        skipped_cycles: report.skipped_cycles,
        energy_pj: energy.total_pj(),
        committed: report.total_committed(),
        sim_wall_seconds: report.wall_seconds,
    })
}

/// Emits a centralized sense-reversing software barrier.
///
/// Uses `amoadd` on a shared counter plus a spin on a shared sense word —
/// the classic software barrier whose coherence ping-pong cost the paper's
/// ReMAP barriers eliminate.
///
/// Register contract (caller-owned, must be preserved across calls):
/// * `r20` — counter address, `r21` — sense-word address (both shared),
/// * `r22` — this thread's local sense (initialized to 0),
/// * `r23` — total thread count.
///
/// Clobbers `r24`–`r26`.
pub fn sw_barrier(a: &mut Asm) {
    use Reg::*;
    let wait = a.fresh_label("bar_wait");
    let done = a.fresh_label("bar_done");
    a.xori(R22, R22, 1); // flip local sense
    a.li(R24, 1);
    a.amoadd(R25, R20, R24); // old count
    a.addi(R25, R25, 1);
    a.bne(R25, R23, wait.clone());
    // Last arrival: reset the counter, then publish the new sense.
    a.sw(R0, R20, 0);
    a.fence();
    a.sw(R22, R21, 0);
    a.fence();
    a.j(done.clone());
    a.label(wait.clone());
    a.lw(R26, R21, 0);
    a.bne(R26, R22, wait);
    a.label(done);
    a.fence();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in CommMode::ALL {
            assert!(seen.insert(m.label()));
        }
        for m in CompMode::ALL {
            seen.insert(m.label()); // Seq labels intentionally shared
        }
    }

    #[test]
    fn measurement_ed() {
        let m = Measurement {
            cycles: 10,
            skipped_cycles: 0,
            energy_pj: 3.0,
            committed: 5,
            sim_wall_seconds: 0.0,
        };
        assert_eq!(m.ed(), 30.0);
    }
}

#[cfg(test)]
mod barrier_emitter_tests {
    use super::*;
    use remap_isa::{Asm, Inst, Reg};

    /// The software barrier's register contract: it only writes its
    /// documented registers (r22 local sense, r24-r26 scratch) plus memory.
    #[test]
    fn sw_barrier_register_contract() {
        let mut a = Asm::new("t");
        sw_barrier(&mut a);
        a.halt();
        let p = a.assemble().unwrap();
        for inst in p.insts() {
            if let Some(d) = inst.dest() {
                assert!(
                    [Reg::R22, Reg::R24, Reg::R25, Reg::R26].contains(&d),
                    "sw_barrier writes unexpected register {d}"
                );
            }
        }
    }

    /// The barrier uses exactly one atomic and ends with a fence, so
    /// post-barrier loads are ordered after remote stores.
    #[test]
    fn sw_barrier_shape() {
        let mut a = Asm::new("t");
        sw_barrier(&mut a);
        a.halt();
        let p = a.assemble().unwrap();
        let atomics = p
            .insts()
            .iter()
            .filter(|i| matches!(i, Inst::AmoAdd { .. }))
            .count();
        assert_eq!(atomics, 1);
        let last_fence = p.insts().iter().rposition(|i| matches!(i, Inst::Fence));
        let halt = p
            .insts()
            .iter()
            .position(|i| matches!(i, Inst::Halt))
            .unwrap();
        assert_eq!(last_fence, Some(halt - 1), "barrier must end with a fence");
    }

    /// Two consecutive barriers assemble without label collisions (the
    /// emitter uses fresh labels).
    #[test]
    fn barriers_compose() {
        let mut a = Asm::new("t");
        sw_barrier(&mut a);
        sw_barrier(&mut a);
        a.halt();
        assert!(a.assemble().is_ok());
    }
}
