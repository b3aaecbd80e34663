//! Diagnostic catalog: codes, severities, and rendering.

use std::fmt;

/// Lint codes. Stable identifiers documented in `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Useless write to `r0` (architectural no-op).
    Rv001WriteToZero,
    /// Read of a register that is uninitialized on at least one path.
    Rv002MaybeUninit,
    /// Basic block unreachable from the program entry.
    Rv003Unreachable,
    /// A path leaves the program without executing `halt`.
    Rv004MissingHalt,
    /// `spl_store` not preceded by `spl_init` on every path, with no
    /// external producer feeding the core's output queue.
    Rv005StoreNoInit,
    /// `spl_load` restages entry bytes already staged since the last seal.
    Rv006EntryOverlap,
    /// `spl_load` staging past the 16-byte entry or more bytes than a
    /// register holds.
    Rv007EntryOverflow,
    /// `spl_init` references an unregistered configuration id.
    Rv008UnknownConfig,
    /// `hwq_recv` with no sender, send with no receiver, or a queue id
    /// outside the configured bank.
    Rv009QueuePairing,
    /// Barrier participant count differs from the registered total.
    Rv010BarrierCount,
    /// Wait-for cycle across the thread communication graph.
    Rv011WaitCycle,
    /// Inconsistent fabric configuration (rows, partitions, cluster map).
    Rv012FabricConfig,
    /// Unresolvable or cross-cluster `Dest`, or SPL use without a cluster.
    Rv013BadDest,
    /// Virtualization sanity: initiation-interval model inconsistency or a
    /// barrier whose participants span partitions.
    Rv014Virtualization,
    /// Message-flow: a queue's receive count provably exceeds every path's
    /// send count; the excess pop blocks forever.
    Rv015QueueUnderflow,
    /// Message-flow: a queue's send count provably exceeds every path's
    /// receive count; values pile up (and block the sender past capacity).
    Rv016QueueOverflow,
    /// Message-flow: unbounded producer feeding a provably bounded consumer.
    Rv017QueueRateMismatch,
    /// Barrier groups whose members provably arrive a different number of
    /// times (disjoint arrival-count intervals).
    Rv018BarrierDivergence,
    /// Barrier groups whose members have exact but unequal possible arrival
    /// counts on some path combination.
    Rv019BarrierPathDivergence,
    /// Communication-aware deadlock: a waits-for cycle in which no member
    /// can reach its producing instruction before blocking.
    Rv020CommDeadlock,
    /// SPL write-write race: multiple remote cores route compute results
    /// into one core's SPL output queue.
    Rv021SplRace,
    /// SPL flow imbalance: a core's `spl_store` count provably differs from
    /// the results routed to it.
    Rv022SplFlowImbalance,
}

impl Code {
    /// The stable `RVnnn` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Code::Rv001WriteToZero => "RV001",
            Code::Rv002MaybeUninit => "RV002",
            Code::Rv003Unreachable => "RV003",
            Code::Rv004MissingHalt => "RV004",
            Code::Rv005StoreNoInit => "RV005",
            Code::Rv006EntryOverlap => "RV006",
            Code::Rv007EntryOverflow => "RV007",
            Code::Rv008UnknownConfig => "RV008",
            Code::Rv009QueuePairing => "RV009",
            Code::Rv010BarrierCount => "RV010",
            Code::Rv011WaitCycle => "RV011",
            Code::Rv012FabricConfig => "RV012",
            Code::Rv013BadDest => "RV013",
            Code::Rv014Virtualization => "RV014",
            Code::Rv015QueueUnderflow => "RV015",
            Code::Rv016QueueOverflow => "RV016",
            Code::Rv017QueueRateMismatch => "RV017",
            Code::Rv018BarrierDivergence => "RV018",
            Code::Rv019BarrierPathDivergence => "RV019",
            Code::Rv020CommDeadlock => "RV020",
            Code::Rv021SplRace => "RV021",
            Code::Rv022SplFlowImbalance => "RV022",
        }
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but possibly intentional; the program can still run.
    Warning,
    /// A protocol or configuration violation that hangs, panics, or
    /// silently corrupts results at simulation time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding, anchored to a program and instruction where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// Global core id the finding is anchored to, when it has one.
    /// System-wide findings (fabric geometry, cross-core cycles) have none.
    pub core: Option<usize>,
    /// Name of the program the finding is in (empty for system-level
    /// findings such as fabric configuration).
    pub program: String,
    /// Instruction index within the program, if the finding has one.
    pub pc: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(
        code: Code,
        severity: Severity,
        program: impl Into<String>,
        pc: Option<u32>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            core: None,
            program: program.into(),
            pc,
            message: message.into(),
        }
    }

    /// Anchors this finding to a global core id.
    pub(crate) fn with_core(mut self, core: usize) -> Diagnostic {
        self.core = Some(core);
        self
    }

    /// The canonical emission/render order: system-level findings first,
    /// then by core, program, pc, and code. Byte-identical across runs.
    pub fn sort_key(&self) -> (Option<usize>, String, Option<u32>, Code) {
        (self.core, self.program.clone(), self.pc, self.code)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code.id(), self.severity)?;
        match (self.core, self.program.is_empty()) {
            (Some(c), false) => {
                write!(f, " [core {c}: {}", self.program)?;
                if let Some(pc) = self.pc {
                    write!(f, "@{pc}")?;
                }
                write!(f, "]")?;
            }
            (Some(c), true) => write!(f, " [core {c}]")?,
            (None, false) => {
                write!(f, " [{}", self.program)?;
                if let Some(pc) = self.pc {
                    write!(f, "@{pc}")?;
                }
                write!(f, "]")?;
            }
            (None, true) => {}
        }
        write!(f, ": {}", self.message)
    }
}

/// Renders diagnostics one per line in canonical (core, program, pc, code)
/// order — byte-identical across runs.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| d.sort_key());
    let mut out = String::new();
    for d in sorted {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_has_anchor_and_code() {
        let d = Diagnostic::new(
            Code::Rv004MissingHalt,
            Severity::Error,
            "prog",
            Some(7),
            "falls off the end",
        );
        let s = d.to_string();
        assert!(s.contains("RV004"));
        assert!(s.contains("prog@7"));
        assert!(s.contains("error"));
    }

    #[test]
    fn system_level_diag_has_no_anchor() {
        let d = Diagnostic::new(
            Code::Rv012FabricConfig,
            Severity::Error,
            "",
            None,
            "bad rows",
        );
        assert_eq!(d.to_string(), "RV012 error: bad rows");
    }

    #[test]
    fn render_sorts_by_program_then_pc() {
        let a = Diagnostic::new(Code::Rv001WriteToZero, Severity::Warning, "b", Some(3), "x");
        let b = Diagnostic::new(Code::Rv001WriteToZero, Severity::Warning, "a", Some(9), "y");
        let out = render(&[a, b]);
        let first = out.lines().next().unwrap();
        assert!(first.contains("[a@9]"));
    }

    #[test]
    fn render_sorts_core_before_program() {
        let a = Diagnostic::new(
            Code::Rv015QueueUnderflow,
            Severity::Error,
            "a",
            Some(1),
            "x",
        )
        .with_core(2);
        let b = Diagnostic::new(
            Code::Rv015QueueUnderflow,
            Severity::Error,
            "z",
            Some(9),
            "y",
        )
        .with_core(1);
        let sys = Diagnostic::new(Code::Rv012FabricConfig, Severity::Error, "", None, "s");
        let out = render(&[a, b, sys]);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("RV012"), "system-level first: {out}");
        assert!(lines[1].contains("core 1"), "then core order: {out}");
        assert!(lines[2].contains("core 2"), "then core order: {out}");
    }

    #[test]
    fn display_includes_core_anchor() {
        let d = Diagnostic::new(
            Code::Rv015QueueUnderflow,
            Severity::Error,
            "p",
            Some(4),
            "m",
        )
        .with_core(3);
        assert_eq!(d.to_string(), "RV015 error [core 3: p@4]: m");
        let no_prog = Diagnostic::new(Code::Rv018BarrierDivergence, Severity::Error, "", None, "m")
            .with_core(1);
        assert_eq!(no_prog.to_string(), "RV018 error [core 1]: m");
    }
}
