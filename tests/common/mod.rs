//! Selections from the canonical workload matrix shared by the parity
//! suites.

use remap_suite::workloads::barriers::{BarrierBench, BarrierMode};
use remap_suite::workloads::catalog::canonical;
use remap_suite::workloads::comm::CommBench;
use remap_suite::workloads::comp::CompBench;
use remap_suite::workloads::{CommMode, CompMode, Workload};

/// The canonical configurations `pick` selects, asserting there are
/// `count` of them (the three families hold 21 + 49 + 18 = 88).
pub fn canonical_where(pick: fn(&Workload) -> bool, count: usize) -> Vec<(Workload, usize)> {
    let v: Vec<_> = canonical().into_iter().filter(|(w, _)| pick(w)).collect();
    assert_eq!(v.len(), count, "canonical configurations selected");
    v
}

/// The canonical configurations the chaos grids run under a fault plan:
/// two of each family.
pub fn faulted() -> Vec<(Workload, usize)> {
    const PICK: [Workload; 6] = [
        Workload::Comp(CompBench::G721Enc, CompMode::Spl),
        Workload::Comp(CompBench::Mpeg2Enc, CompMode::Spl),
        Workload::Comm(CommBench::Wc, CommMode::CompComm2T),
        Workload::Comm(CommBench::Cjpeg, CommMode::Ooo2Comm),
        Workload::Barrier(BarrierBench::Ll2, BarrierMode::Remap(4)),
        Workload::Barrier(BarrierBench::Dijkstra, BarrierMode::Remap(4)),
    ];
    let v: Vec<_> = canonical()
        .into_iter()
        .filter(|(w, _)| PICK.contains(w))
        .collect();
    assert_eq!(v.len(), PICK.len(), "faulted configurations are canonical");
    v
}
