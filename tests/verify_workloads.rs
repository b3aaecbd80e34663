//! Tier-1 gate: every registered workload program must verify clean, and
//! verifier-clean communication/barrier bundles must complete under
//! `System::run` without a `RunError`.

use remap_suite::verify::render;
use remap_suite::workloads::barriers::{BarrierBench, BarrierMode};
use remap_suite::workloads::catalog::{canonical, extended};
use remap_suite::workloads::comm::CommBench;
use remap_suite::workloads::{CommMode, Workload};

fn assert_clean(label: &str, sys: &remap_suite::system::System) {
    let diags = sys.verify();
    assert!(
        diags.is_empty(),
        "{label} has findings:\n{}",
        render(&diags)
    );
}

/// The full labeled catalog — 88 canonical configurations plus the
/// extended multi-cluster grids and fault-injected plans — verifies with
/// zero diagnostics: the interprocedural message-flow lints (RV015–RV022)
/// must hold without false positives over every shape the paper evaluates.
#[test]
fn canonical_and_extended_catalogs_verify_clean() {
    let canonical = canonical();
    assert_eq!(canonical.len(), 88);
    for (w, n) in canonical {
        assert_clean(&w.to_string(), &w.build(n));
    }
    let extended = extended();
    assert!(!extended.is_empty());
    for (label, sys) in &extended {
        assert_clean(label, sys);
    }
}

/// The static guarantee the verifier is meant to provide: a clean
/// bundle, picked from the canonical matrix, actually completes.
fn assert_clean_bundles_complete(pick: [Workload; 4]) {
    let picked: Vec<_> = canonical()
        .into_iter()
        .filter(|(w, _)| pick.contains(w))
        .collect();
    assert_eq!(picked.len(), pick.len(), "bundles are canonical");
    for (w, n) in picked {
        let mut sys = w.build(n);
        assert_clean(&w.to_string(), &sys);
        sys.run(20_000_000)
            .unwrap_or_else(|e| panic!("{w} failed: {e:?}"));
    }
}

#[test]
fn clean_comm_bundles_complete_without_runerror() {
    assert_clean_bundles_complete([
        Workload::Comm(CommBench::Wc, CommMode::Comm2T),
        Workload::Comm(CommBench::Wc, CommMode::CompComm2T),
        Workload::Comm(CommBench::Adpcm, CommMode::Comm2T),
        Workload::Comm(CommBench::Adpcm, CommMode::CompComm2T),
    ]);
}

#[test]
fn clean_barrier_bundles_complete_without_runerror() {
    assert_clean_bundles_complete([
        Workload::Barrier(BarrierBench::Ll3, BarrierMode::Remap(4)),
        Workload::Barrier(BarrierBench::Ll3, BarrierMode::RemapComp(4)),
        Workload::Barrier(BarrierBench::Dijkstra, BarrierMode::Remap(4)),
        Workload::Barrier(BarrierBench::Dijkstra, BarrierMode::RemapComp(4)),
    ]);
}
