//! The workload matrix. A [`Workload`] is a benchmark in one mode: it
//! owns the `remap run` mode spellings, the report labels, and the
//! dispatch to each family's `check_shape`/`build`/`check`/`run`.
//! [`canonical`] is the one list of the 88 (benchmark, mode) combinations
//! the paper evaluates, at small problem sizes (program *structure* does
//! not depend on `n`). [`extended`] adds shapes the verifier must also
//! prove clean: multi-cluster barrier grids and fault-injected plans
//! (queue drop/dup/delay, barrier delay with software demotion, SPL
//! bit-flips), whose recovery must not change the static protocol.

use crate::barriers::{BarrierBench, BarrierMode};
use crate::comm::CommBench;
use crate::comp::CompBench;
use crate::{run_checked, CommMode, CompMode, Measurement};
use remap::{FaultPlan, SiteCfg, System};
use std::fmt;

/// A benchmark in one mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A computation-only benchmark (Figure 1(a)).
    Comp(CompBench, CompMode),
    /// A communicating benchmark (Figure 1(b)).
    Comm(CommBench, CommMode),
    /// A barrier benchmark (Figure 1(c)).
    Barrier(BarrierBench, BarrierMode),
}

/// `remap run` spellings of the computation-only modes, indexed by
/// [`CompMode`] (declaration order, which [`CompMode::ALL`] follows).
const COMP_SPELLINGS: [&str; CompMode::ALL.len()] = ["seq", "seq2", "spl"];

/// `remap run` spellings of the communication modes, indexed by
/// [`CommMode`] (declaration order, which [`CommMode::ALL`] follows).
const COMM_SPELLINGS: [&str; CommMode::ALL.len()] =
    ["seq", "seq2", "comp", "comm", "compcomm", "ooo2comm", "swq"];

/// A barrier mode's constructor from its thread count.
type WithThreads = fn(usize) -> BarrierMode;

/// The threaded barrier modes, spelled `{prefix}:{threads}`; the only
/// other barrier mode is `seq`.
const BARRIER_THREADED: [(&str, WithThreads); 4] = [
    ("sw", BarrierMode::Sw),
    ("barrier", BarrierMode::Remap),
    ("barrier+comp", BarrierMode::RemapComp),
    ("hwnet", BarrierMode::HwIdeal),
];

fn parse_barrier_mode(mode: &str) -> Result<BarrierMode, String> {
    if mode == "seq" {
        return Ok(BarrierMode::Seq);
    }
    let (prefix, threads) = mode.split_once(':').unwrap_or((mode, ""));
    let (_, make) = BARRIER_THREADED
        .iter()
        .find(|(s, _)| *s == prefix)
        .ok_or_else(|| format!("unknown barrier mode `{mode}`"))?;
    if threads.is_empty() {
        return Err(format!("mode `{mode}` needs `:<threads>`"));
    }
    threads
        .parse()
        .map(make)
        .map_err(|_| format!("bad thread count in `{mode}`"))
}

/// The mode spellings `remap run` accepts, per family in `remap list`
/// order: computation-only, communication, barrier. `<p>` stands for a
/// thread count.
pub fn mode_spellings() -> [Vec<String>; 3] {
    [
        COMP_SPELLINGS.map(String::from).to_vec(),
        COMM_SPELLINGS.map(String::from).to_vec(),
        std::iter::once("seq".to_string())
            .chain(BARRIER_THREADED.iter().map(|(s, _)| format!("{s}:<p>")))
            .collect(),
    ]
}

impl Workload {
    /// Parses `remap run`'s `<bench> <mode>`: benchmark names in any case,
    /// modes as [`mode_spellings`] lists them.
    pub fn parse(bench: &str, mode: &str) -> Result<Workload, String> {
        let named = |name: &str| name.eq_ignore_ascii_case(bench);
        if let Some(&b) = CompBench::ALL.iter().find(|b| named(b.name())) {
            return CompMode::ALL
                .into_iter()
                .find(|&m| COMP_SPELLINGS[m as usize] == mode)
                .map(|m| Workload::Comp(b, m))
                .ok_or_else(|| format!("unknown computation mode `{mode}`"));
        }
        if let Some(&b) = CommBench::ALL.iter().find(|b| named(b.name())) {
            return CommMode::ALL
                .into_iter()
                .find(|&m| COMM_SPELLINGS[m as usize] == mode)
                .map(|m| Workload::Comm(b, m))
                .ok_or_else(|| format!("unknown communication mode `{mode}`"));
        }
        if let Some(&b) = BarrierBench::ALL.iter().find(|b| named(b.name())) {
            return parse_barrier_mode(mode).map(|m| Workload::Barrier(b, m));
        }
        Err(format!("unknown benchmark `{bench}` (try `remap list`)"))
    }

    /// The benchmark's report name.
    pub fn bench_name(self) -> &'static str {
        match self {
            Workload::Comp(b, _) => b.name(),
            Workload::Comm(b, _) => b.name(),
            Workload::Barrier(b, _) => b.name(),
        }
    }

    /// The mode's report label, e.g. `Seq(OOO1)` or `Barrier-p8`.
    pub fn mode_label(self) -> String {
        match self {
            Workload::Comp(_, m) => m.label().to_string(),
            Workload::Comm(_, m) => m.label().to_string(),
            Workload::Barrier(_, m) => m.label(),
        }
    }

    /// Checks that the mode supports problem size `n`, naming the rule a
    /// refused shape breaks.
    pub fn check_shape(self, n: usize) -> Result<(), String> {
        match self {
            Workload::Comp(b, m) => b.check_shape(m, n),
            Workload::Comm(b, m) => b.check_shape(m, n),
            Workload::Barrier(b, m) => b.check_shape(m, n),
        }
    }

    /// Builds the system at problem size `n`; panics on shapes
    /// [`check_shape`](Self::check_shape) refuses.
    pub fn build(self, n: usize) -> System {
        match self {
            Workload::Comp(b, m) => b.build(m, n),
            Workload::Comm(b, m) => b.build(m, n),
            Workload::Barrier(b, m) => b.build(m, n),
        }
    }

    /// Validates a finished run at problem size `n` against the oracle.
    pub fn check(self, sys: &System, n: usize) -> Result<(), String> {
        match self {
            Workload::Comp(b, _) => b.check(sys, n),
            Workload::Comm(b, _) => b.check(sys, n),
            Workload::Barrier(b, _) => b.check(sys, n),
        }
    }

    /// Builds, runs, and validates at problem size `n`; an error names
    /// the workload and size.
    pub fn run(self, n: usize) -> Result<Measurement, String> {
        run_checked(self.build(n), self.max_cycles(), |s| self.check(s, n))
            .map_err(|e| format!("{} [{}] n={n}: {e}", self.bench_name(), self.mode_label()))
    }

    /// The mode in `remap run` spelling.
    fn mode_spelling(self) -> String {
        match self {
            Workload::Comp(_, m) => COMP_SPELLINGS[m as usize].to_string(),
            Workload::Comm(_, m) => COMM_SPELLINGS[m as usize].to_string(),
            Workload::Barrier(_, m) => {
                let p = m.threads();
                match BARRIER_THREADED.iter().find(|(_, make)| make(p) == m) {
                    Some((prefix, _)) => format!("{prefix}:{p}"),
                    None => "seq".to_string(),
                }
            }
        }
    }

    /// Cycle budget of a run.
    pub fn max_cycles(self) -> u64 {
        match self {
            Workload::Comp(..) => CompBench::MAX_CYCLES,
            Workload::Comm(..) => CommBench::MAX_CYCLES,
            Workload::Barrier(..) => BarrierBench::MAX_CYCLES,
        }
    }
}

/// `"{bench} [{mode}]"`, the mode in `remap run` spelling: `wc [compcomm]`.
impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.bench_name(), self.mode_spelling())
    }
}

/// Canonical barrier problem size: structure-preserving and fast to build.
fn barrier_n(b: BarrierBench) -> usize {
    if b == BarrierBench::Dijkstra {
        20
    } else {
        32
    }
}

/// Every (benchmark, mode) combination the paper evaluates, with its
/// problem size: 64 elements for the computation-only and communicating
/// benchmarks, 32 for the barrier kernels and 20 for Dijkstra, with four
/// threads in the threaded barrier modes.
pub fn canonical() -> Vec<(Workload, usize)> {
    let mut v = Vec::new();
    for b in CompBench::ALL {
        v.extend(CompMode::ALL.map(|m| (Workload::Comp(b, m), 64)));
    }
    for b in CommBench::ALL {
        v.extend(CommMode::ALL.map(|m| (Workload::Comm(b, m), 64)));
    }
    for b in BarrierBench::ALL {
        let n = barrier_n(b);
        let modes = [
            BarrierMode::Seq,
            BarrierMode::Sw(4),
            BarrierMode::Remap(4),
            BarrierMode::HwIdeal(4),
            BarrierMode::RemapComp(4),
        ];
        // Barrier+Comp exists only on LL3 and Dijkstra.
        let supported = modes.into_iter().filter(|&m| b.check_shape(m, n).is_ok());
        v.extend(supported.map(|m| (Workload::Barrier(b, m), n)));
    }
    v
}

/// Multi-cluster grids and fault-injected plans beyond the canonical
/// matrix. All of them must verify clean: cross-cluster barrier routing and
/// modeled fault recovery never change the static protocol.
pub fn extended() -> Vec<(String, System)> {
    let mut v = Vec::new();
    // Two-cluster grids (8 threads across 2 SPL clusters).
    for b in BarrierBench::ALL {
        let n = if b == BarrierBench::Dijkstra { 40 } else { 32 };
        let modes = [
            BarrierMode::Sw(8),
            BarrierMode::Remap(8),
            BarrierMode::HwIdeal(8),
            BarrierMode::RemapComp(8),
        ];
        for m in modes.into_iter().filter(|&m| b.check_shape(m, n).is_ok()) {
            let w = Workload::Barrier(b, m);
            v.push((w.to_string(), w.build(n)));
        }
    }
    // A four-cluster grid (16 threads), and mesh grids beyond the paper's
    // quad arrangement: 9 clusters (36 threads) and 16 clusters (64
    // threads) on the directory-based hierarchy with inter-cluster hop
    // charges.
    for (label, b, p) in [
        ("ll3 [barrier:16]", BarrierBench::Ll3, 16),
        ("ll3 [barrier:36]", BarrierBench::Ll3, 36),
        ("dijkstra [barrier:64]", BarrierBench::Dijkstra, 64),
    ] {
        v.push((label.to_string(), b.build(BarrierMode::Remap(p), 64)));
    }
    let mut faulted = |w: Workload, n: usize, plan: &FaultPlan| {
        let mut sys = w.build(n);
        sys.set_fault_plan(plan);
        let label = format!("{} [{}, faulted]", w.bench_name(), w.mode_spelling());
        v.push((label, sys));
    };
    // Queue faults on the communication benchmarks.
    let mut comm_plan = FaultPlan::quiet(0xC0FFEE);
    comm_plan.hwq_drop = SiteCfg::rate(2_000);
    comm_plan.hwq_dup = SiteCfg::rate(1_000);
    comm_plan.hwq_delay = SiteCfg::rate(4_000);
    for b in CommBench::ALL {
        faulted(Workload::Comm(b, CommMode::CompComm2T), 64, &comm_plan);
    }
    // Barrier-release delays hot enough to trip the watchdog and demote
    // configurations to the software path mid-run.
    let mut bar_plan = FaultPlan::quiet(0xBAD_5EED);
    bar_plan.barrier_delay = SiteCfg::rate(50_000);
    for b in BarrierBench::ALL {
        faulted(
            Workload::Barrier(b, BarrierMode::Remap(4)),
            barrier_n(b),
            &bar_plan,
        );
    }
    // SPL bit-flips (parity + replay) and cache-line corruption on the
    // computation benchmarks.
    let mut spl_plan = FaultPlan::quiet(9);
    spl_plan.spl_bitflip = SiteCfg::rate(2_000);
    spl_plan.cache_corrupt = SiteCfg::rate(500);
    for b in CompBench::ALL {
        faulted(Workload::Comp(b, CompMode::Spl), 64, &spl_plan);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn canonical_matrix_is_complete() {
        let v = canonical();
        assert_eq!(v.len(), 88, "7x3 comp + 7x7 comm + barrier modes");
        let labels: BTreeSet<String> = v.iter().map(|(w, _)| w.to_string()).collect();
        assert_eq!(labels.len(), v.len(), "labels are unique");
        assert!(labels.contains("wc [compcomm]"));
        assert!(labels.contains("dijkstra [barrier+comp:4]"));
        for (w, n) in v {
            let want = match w {
                Workload::Barrier(BarrierBench::Dijkstra, _) => 20,
                Workload::Barrier(..) => 32,
                _ => 64,
            };
            assert_eq!(n, want, "{w}");
        }
    }

    #[test]
    fn catalog_labels_parse_back() {
        for (w, _) in canonical() {
            let label = w.to_string();
            let (name, mode) = label.split_once(" [").unwrap();
            let mode = mode.strip_suffix(']').unwrap();
            assert_eq!(Workload::parse(name, mode), Ok(w), "{label}");
        }
    }

    #[test]
    fn every_listed_mode_parses() {
        let names: [Vec<&str>; 3] = [
            CompBench::ALL.map(|b| b.name()).to_vec(),
            CommBench::ALL.map(|b| b.name()).to_vec(),
            BarrierBench::ALL.map(|b| b.name()).to_vec(),
        ];
        for (names, modes) in names.iter().zip(mode_spellings()) {
            for name in names {
                for mode in &modes {
                    let mode = mode.replace("<p>", "4");
                    let w = Workload::parse(&name.to_ascii_uppercase(), &mode)
                        .unwrap_or_else(|e| panic!("{name} {mode}: {e}"));
                    assert_eq!(w.to_string(), format!("{name} [{mode}]"));
                }
            }
        }
    }

    #[test]
    fn mode_parsing() {
        let parse = |mode| Workload::parse("ll2", mode);
        let ll2 = |m| Ok(Workload::Barrier(BarrierBench::Ll2, m));
        assert_eq!(parse("seq"), ll2(BarrierMode::Seq));
        assert_eq!(parse("sw:8"), ll2(BarrierMode::Sw(8)));
        assert_eq!(parse("barrier:4"), ll2(BarrierMode::Remap(4)));
        assert_eq!(parse("barrier+comp:16"), ll2(BarrierMode::RemapComp(16)));
        assert_eq!(parse("hwnet:6"), ll2(BarrierMode::HwIdeal(6)));
        assert!(parse("barrier").unwrap_err().contains("needs `:<threads>`"));
        assert!(parse("sw:x").unwrap_err().contains("bad thread count"));
        assert!(parse("bogus:2")
            .unwrap_err()
            .contains("unknown barrier mode"));
        assert!(parse("seq:2").is_err());
        assert!(Workload::parse("wc", "spl")
            .unwrap_err()
            .contains("unknown communication mode"));
        assert!(Workload::parse("hmmer", "swq:4").is_err());
        assert!(Workload::parse("g721enc", "comp")
            .unwrap_err()
            .contains("unknown computation mode"));
        assert!(Workload::parse("nope", "seq")
            .unwrap_err()
            .contains("unknown benchmark `nope`"));
    }

    #[test]
    fn extended_catalog_builds_and_labels_are_unique() {
        let v = extended();
        assert!(v.len() >= 25, "got {}", v.len());
        let labels: BTreeSet<&str> = v.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels.len(), v.len());
        assert!(labels.contains("ll3 [barrier:16]"));
        assert!(labels.contains("ll3 [barrier:36]"));
        assert!(labels.contains("dijkstra [barrier:64]"));
        assert!(labels.iter().any(|l| l.ends_with(", faulted]")));
    }
}
