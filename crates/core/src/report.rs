//! Run outcomes and aggregate reports.

use remap_cpu::{BlockedOn, CoreStats};
use remap_fault::FaultReport;
use std::error::Error;
use std::fmt;

/// Why a [`System::run`](crate::System::run) did not finish cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle limit elapsed before every core halted.
    Timeout {
        /// The limit that elapsed.
        max_cycles: u64,
        /// Cores that had not halted.
        running: Vec<usize>,
    },
    /// No core made forward progress (committed an instruction) for a long
    /// window — a lost wakeup, queue deadlock, or barrier mismatch.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Cores that had not halted.
        running: Vec<usize>,
        /// For each still-running core: what its ROB head was parked on and
        /// the cycle at which it last committed an instruction (0 if never)
        /// — hung-job postmortems can tell a core that stalled early from
        /// one that ran until just before the window closed.
        blocked: Vec<(usize, BlockedOn, u64)>,
    },
    /// A core issued a request against a configuration the system does not
    /// know: an unregistered SPL function, an unconfigured barrier, or a
    /// core outside any SPL cluster.
    BadConfig {
        /// Core that issued the request.
        core: usize,
        /// Configuration id it named (SPL config or barrier id).
        config: u16,
        /// What was wrong with it.
        reason: String,
    },
    /// Fault recovery exhausted its retry budget: a hardware-queue send
    /// kept being dropped past the configured attempt bound.
    FaultEscalation {
        /// Core whose send escalated.
        core: usize,
        /// Hardware queue being sent to.
        queue: u8,
        /// Consecutive failed attempts when the bound was hit.
        attempts: u32,
        /// Cycle of escalation.
        cycle: u64,
    },
    /// A checkpoint snapshot could not be written, read, or applied: torn
    /// or foreign file, version mismatch, or a payload inconsistent with
    /// this system's geometry.
    BadSnapshot {
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Timeout {
                max_cycles,
                running,
            } => {
                write!(
                    f,
                    "timeout after {max_cycles} cycles; cores {running:?} still running"
                )
            }
            RunError::Deadlock {
                cycle,
                running,
                blocked,
            } => {
                write!(
                    f,
                    "no forward progress by cycle {cycle}; cores {running:?} stuck"
                )?;
                for (core, on, last_commit) in blocked {
                    write!(
                        f,
                        "; core {core}: {on} (last commit at cycle {last_commit})"
                    )?;
                }
                Ok(())
            }
            RunError::BadConfig {
                core,
                config,
                reason,
            } => {
                write!(f, "core {core}: bad configuration {config}: {reason}")
            }
            RunError::FaultEscalation {
                core,
                queue,
                attempts,
                cycle,
            } => {
                write!(
                    f,
                    "fault escalation at cycle {cycle}: core {core} hwq_send to queue \
                     {queue} dropped {attempts} consecutive times"
                )
            }
            RunError::BadSnapshot { reason } => {
                write!(f, "snapshot error: {reason}")
            }
        }
    }
}

impl Error for RunError {}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Cycles until the last core halted.
    pub cycles: u64,
    /// Of those, cycles bulk-advanced by the quiescence skip engine rather
    /// than simulated one at a time (zero under [`System::set_skip`]`(false)`).
    /// Skipping is bit-identical to ticking, so this is a pure performance
    /// statistic. It is a function of the simulated state: a run resumed
    /// from a snapshot, parked with `run_until` or driven by `step_or_skip`
    /// reports the uninterrupted run's value.
    ///
    /// [`System::set_skip`]: crate::System::set_skip
    pub skipped_cycles: u64,
    /// Per-core statistics snapshot at completion.
    pub core_stats: Vec<CoreStats>,
    /// Fault-injection accounting (all zeros when no [`FaultPlan`] is
    /// installed).
    ///
    /// [`FaultPlan`]: remap_fault::FaultPlan
    pub faults: FaultReport,
    /// Memory-level-parallelism accounting from the non-blocking hierarchy
    /// (all zeros under [`System::set_mlp`]`(false)`).
    ///
    /// [`System::set_mlp`]: crate::System::set_mlp
    pub mlp: remap_mem::MlpStats,
    /// Coherence-directory accounting (all zeros under
    /// [`System::set_dir`]`(false)`).
    ///
    /// [`System::set_dir`]: crate::System::set_dir
    pub dir: remap_mem::DirStats,
    /// Host wall-clock seconds spent inside [`System::run`](crate::System::run).
    pub wall_seconds: f64,
}

impl RunReport {
    /// Total instructions retired across all cores.
    pub fn total_committed(&self) -> u64 {
        self.core_stats.iter().map(|s| s.committed).sum()
    }

    /// Aggregate IPC over all cores (committed / cycles).
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / self.cycles as f64
        }
    }

    /// Simulator throughput: simulated kilocycles per host second. Zero when
    /// the wall time was unmeasurably small.
    pub fn sim_kcps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.cycles as f64 / 1000.0 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of simulated cycles covered by bulk skips, in `[0, 1]`.
    pub fn skip_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / self.cycles as f64
        }
    }

    /// Throughput over cycles actually stepped (excluding skipped ones):
    /// the per-cycle cost of the simulator proper.
    pub fn effective_kcps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            (self.cycles - self.skipped_cycles) as f64 / 1000.0 / self.wall_seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates() {
        let a = CoreStats {
            committed: 10,
            ..Default::default()
        };
        let b = CoreStats {
            committed: 30,
            ..Default::default()
        };
        let r = RunReport {
            cycles: 20,
            skipped_cycles: 5,
            core_stats: vec![a, b],
            faults: FaultReport::default(),
            mlp: remap_mem::MlpStats::default(),
            dir: remap_mem::DirStats::default(),
            wall_seconds: 0.002,
        };
        assert_eq!(r.total_committed(), 40);
        assert_eq!(r.aggregate_ipc(), 2.0);
        assert!((r.sim_kcps() - 10.0).abs() < 1e-9);
        assert!((r.skip_rate() - 0.25).abs() < 1e-9);
        assert!((r.effective_kcps() - 7.5).abs() < 1e-9);
        let zero = RunReport {
            wall_seconds: 0.0,
            ..r.clone()
        };
        assert_eq!(zero.sim_kcps(), 0.0);
    }

    #[test]
    fn errors_display() {
        let e = RunError::Deadlock {
            cycle: 5,
            running: vec![1],
            blocked: vec![(1, BlockedOn::HwqRecv { q: 3 }, 2)],
        };
        assert!(e.to_string().contains("cycle 5"));
        assert!(
            e.to_string().contains("hwq_recv queue 3"),
            "deadlock names the blocking resource: {e}"
        );
        assert!(
            e.to_string().contains("last commit at cycle 2"),
            "deadlock names each core's last commit: {e}"
        );
        let t = RunError::Timeout {
            max_cycles: 9,
            running: vec![],
        };
        assert!(t.to_string().contains('9'));
        let b = RunError::BadConfig {
            core: 2,
            config: 7,
            reason: "unknown SPL configuration".into(),
        };
        assert!(b.to_string().contains("core 2"));
        let esc = RunError::FaultEscalation {
            core: 0,
            queue: 1,
            attempts: 12,
            cycle: 400,
        };
        assert!(esc.to_string().contains("12 consecutive"));
        let s = RunError::BadSnapshot {
            reason: "snapshot truncated".into(),
        };
        assert!(s.to_string().contains("snapshot error"));
    }
}
