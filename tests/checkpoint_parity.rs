//! Tier-1 gate for deterministic checkpoint/restore: running a workload
//! to an arbitrary cycle, snapshotting, restoring into a FRESH system of
//! identical configuration, and continuing must be bit-identical to the
//! uninterrupted run — across the canonical configuration matrix, under
//! fault injection, and on the 16/36/64-core grids with the directory on
//! and off.
//!
//! Cut points land wherever the cycle fraction falls: `run_until` clamps
//! bulk skips at the target, so on barrier workloads the snapshot is
//! routinely taken *inside* a quiescence window, and on busy workloads
//! outside one — both must restore exactly.
//!
//! "Bit-identical" covers everything a run can report except
//! `wall_seconds` (host timing), `skipped_cycles` included: what the skip
//! engine jumps over is a function of the restored state, so a resumed
//! run skips exactly what the uninterrupted one does.

mod common;

use common::canonical_where;
use remap_suite::system::{RunReport, System};
use remap_suite::workloads::barriers::{BarrierBench, BarrierMode};
use remap_suite::workloads::Workload;

const MAX_CYCLES: u64 = 50_000_000;

/// Asserts every architectural observable of two completed runs matches.
fn assert_same_observables(label: &str, a: &System, ra: &RunReport, b: &System, rb: &RunReport) {
    assert_eq!(ra.cycles, rb.cycles, "{label}: cycle count diverged");
    for c in 0..a.n_cores() {
        assert_eq!(
            ra.core_stats[c], rb.core_stats[c],
            "{label}: core {c} stats diverged"
        );
        assert_eq!(
            a.pred_stats(c),
            b.pred_stats(c),
            "{label}: core {c} predictor stats diverged"
        );
        assert_eq!(
            a.hierarchy().cache_stats(c),
            b.hierarchy().cache_stats(c),
            "{label}: core {c} cache stats diverged"
        );
    }
    assert_eq!(
        a.hierarchy().bus_stats(),
        b.hierarchy().bus_stats(),
        "{label}: coherence-bus stats diverged"
    );
    for cl in 0..a.n_clusters() {
        assert_eq!(
            a.spl_stats(cl),
            b.spl_stats(cl),
            "{label}: cluster {cl} SPL stats diverged"
        );
    }
    assert_eq!(ra.faults, rb.faults, "{label}: fault counters diverged");
    assert_eq!(ra.mlp, rb.mlp, "{label}: MLP counters diverged");
    assert_eq!(ra.dir, rb.dir, "{label}: directory counters diverged");
}

/// A workload's output oracle (`XBench::check` at the built size).
type Oracle<'a> = &'a dyn Fn(&System) -> Result<(), String>;

/// The checkpoint contract for one configuration. `reference` runs
/// uninterrupted; `donor` runs to each cut cycle and is snapshotted; each
/// snapshot restores into one of the `fresh` (never-run) systems, which
/// then continues to completion. Finally the donor itself continues —
/// snapshotting must not perturb it. Every resumed system and the donor
/// must also get the reference's verdict from the workload's output
/// oracle — a pass, except on faulted runs whose uninterrupted reference
/// already fails it (see `faulted_workloads_checkpoint_parity`). Returns
/// the total `skipped_cycles` of the resumed runs (for vacuity checks at
/// the call sites).
fn assert_checkpoint_parity(
    label: &str,
    check: Oracle,
    mut reference: System,
    mut donor: System,
    fresh: Vec<System>,
) -> u64 {
    let rr = reference
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} (reference) failed: {e:?}"));
    let verdict = check(&reference);
    let slices = fresh.len() as u64 + 1;
    let mut resumed_skipped = 0;
    for (k, mut f) in fresh.into_iter().enumerate() {
        let cut = (rr.cycles * (k as u64 + 1) / slices).max(1);
        assert!(
            donor.run_until(cut),
            "{label}: donor halted before cut cycle {cut}"
        );
        assert_eq!(
            donor.cycle(),
            cut,
            "{label}: run_until must clamp bulk skips exactly at the cut"
        );
        let snap = donor.snapshot();
        f.restore(&snap)
            .unwrap_or_else(|e| panic!("{label}: restore at cycle {cut} refused: {e}"));
        // A field saved but loaded wrongly shows here even when the
        // end-of-run statistics happen to agree.
        assert!(
            f.snapshot().as_bytes() == snap.as_bytes(),
            "{label}: re-snapshot after restore at cycle {cut} differs"
        );
        let rf = f
            .run(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} (resumed from {cut}) failed: {e:?}"));
        resumed_skipped += rf.skipped_cycles;
        assert_same_observables(&format!("{label} cut@{cut}"), &reference, &rr, &f, &rf);
        assert_eq!(
            rf.skipped_cycles, rr.skipped_cycles,
            "{label}: skipped cycles resumed from {cut}"
        );
        assert_eq!(
            check(&f),
            verdict,
            "{label}: oracle verdict resumed from {cut}"
        );
    }
    let rd = donor
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} (donor continue) failed: {e:?}"));
    assert_same_observables(&format!("{label} donor"), &reference, &rr, &donor, &rd);
    assert_eq!(
        rd.skipped_cycles, rr.skipped_cycles,
        "{label}: skipped cycles of the donor"
    );
    assert_eq!(
        check(&donor),
        verdict,
        "{label}: oracle verdict of the donor"
    );
    resumed_skipped
}

/// Checkpoint parity over the canonical configurations `pick` selects
/// (`count` of them), two cuts each; returns the resumed runs' skipped
/// cycles.
fn canonical_parity(pick: fn(&Workload) -> bool, count: usize) -> u64 {
    canonical_where(pick, count)
        .into_iter()
        .map(|(w, n)| {
            let build = || w.build(n);
            let check = |s: &System| w.check(s, n);
            assert_checkpoint_parity(
                &w.to_string(),
                &check,
                build(),
                build(),
                vec![build(), build()],
            )
        })
        .sum()
}

#[test]
fn computation_workloads_checkpoint_parity() {
    canonical_parity(|w| matches!(w, Workload::Comp(..)), 21);
}

#[test]
fn communication_workloads_checkpoint_parity() {
    canonical_parity(|w| matches!(w, Workload::Comm(..)), 49);
}

#[test]
fn barrier_workloads_checkpoint_parity_including_mid_skip_cuts() {
    let resumed_skipped = canonical_parity(|w| matches!(w, Workload::Barrier(..)), 18);
    // Barrier workloads spend most of their time quiescent; resumed runs
    // must keep bulk-skipping, or the mid-skip claim is vacuous.
    assert!(
        resumed_skipped > 0,
        "resumed barrier runs bulk-advanced zero cycles"
    );
}

/// Restoring must rebuild the event-indexed fault streams exactly: the
/// resumed half of the run draws the same injections the uninterrupted
/// run does, and the restored counters carry the pre-cut half.
///
/// Outputs are held to the reference's oracle verdict rather than to a
/// pass: a parity-detected SPL flip replays its operation behind younger
/// ones, so g721enc Spl delivers results out of order and fails its oracle
/// even uninterrupted. A resumed run must fail it identically.
#[test]
fn faulted_workloads_checkpoint_parity() {
    use remap_suite::fault::{FaultPlan, SiteCfg};

    let mut plan = FaultPlan::quiet(0xFA_17);
    plan.spl_bitflip = SiteCfg::rate(50_000);
    plan.hwq_drop = SiteCfg::rate(50_000);
    plan.hwq_dup = SiteCfg::rate(25_000);
    plan.hwq_delay = SiteCfg::rate(25_000);
    plan.barrier_delay = SiteCfg::rate(100_000);
    plan.cache_corrupt = SiteCfg::rate(50_000);

    let mut total_injected = 0;
    for (w, n) in common::faulted() {
        let faulted = || {
            let mut sys = w.build(n);
            sys.set_fault_plan(&plan);
            sys
        };
        let label = format!("{w} faulted");
        let rr = faulted()
            .run(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} failed: {e:?}"));
        total_injected += rr.faults.total_injected();
        assert_checkpoint_parity(
            &label,
            &|s| w.check(s, n),
            faulted(),
            faulted(),
            vec![faulted(), faulted()],
        );
    }
    assert!(
        total_injected > 0,
        "faulted checkpoint grid injected zero faults; the check is vacuous"
    );
}

/// Grid scale-out: snapshots must carry the banked sharer directory,
/// per-bank busy windows, and staggered cross-cluster releases of the
/// 16/36/64-core meshes — with the directory on and (broadcast
/// reference) off.
#[test]
fn grid_checkpoint_parity_16_36_64_cores() {
    let b = BarrierBench::Ll3;
    for p in [16, 36, 64] {
        let m = BarrierMode::Remap(p);
        let build = || b.build(m, 64);
        let check = |s: &System| b.check(s, 64);
        assert_checkpoint_parity(
            &format!("{b:?} {m:?}"),
            &check,
            build(),
            build(),
            vec![build()],
        );
    }
    for p in [16, 36] {
        let m = BarrierMode::Remap(p);
        let build = || {
            let mut sys = b.build(m, 64);
            sys.set_dir(false);
            sys
        };
        assert_checkpoint_parity(
            &format!("{b:?} {m:?} no-dir"),
            &|s| b.check(s, 64),
            build(),
            build(),
            vec![build()],
        );
    }
}

/// Snapshots do not carry the directory's sharer masks: restore rebuilds
/// them from the restored L2 tags. Mid-run and at halt, on the 16/36/64-core
/// grids, the rebuilt directory equals the donor's mask for mask (ports and
/// counters too) and is exactly the union of the L2s.
#[test]
fn restored_grid_directory_matches_the_donor_16_36_64_cores() {
    let b = BarrierBench::Ll3;
    for p in [16, 36, 64] {
        let m = BarrierMode::Remap(p);
        let mut donor = b.build(m, 64);
        let cycles = b.build(m, 64).run(MAX_CYCLES).expect("reference").cycles;
        let cut = |donor: &System, when: &str| {
            let mut back = b.build(m, 64);
            back.restore(&donor.snapshot()).expect("restore");
            let (want, got) = (donor.hierarchy(), back.hierarchy());
            let dir = want.directory().expect("the grid runs the directory");
            assert!(dir.tracked_lines() > 0, "{m:?} {when}: vacuous");
            assert_eq!(got.directory(), Some(dir), "{m:?} {when}");
            got.check_directory_residency()
                .unwrap_or_else(|e| panic!("{m:?} {when}: {e}"));
        };
        assert!(donor.run_until(cycles / 2));
        cut(&donor, "mid-run");
        donor.run(MAX_CYCLES).expect("donor");
        cut(&donor, "at halt");
    }
}

/// Snapshots carry resident cache lines, not the cache geometry or any
/// per-set state, and predictors carry only their trained entries: a
/// halted 16-core LL2 grid leaves nearly every line of its 1 MB private
/// L2s Invalid and nearly every one of each core's 12,288 predictor
/// counters at its reset value, so its snapshot stays under 128 KiB, far
/// below the 16 × 557 KB a dense tag/state/LRU encoding writes (9,568,061
/// bytes) and the 16 × 12 KiB of dense predictor tables alone.
#[test]
fn halted_grid_snapshot_holds_only_resident_lines() {
    let b = BarrierBench::Ll2;
    let mut sys = b.build(BarrierMode::Remap(16), 512);
    sys.run(MAX_CYCLES).expect("LL2 Remap(16) run");
    b.check(&sys, 512).expect("LL2 Remap(16) output");
    let bytes = sys.snapshot().as_bytes().len();
    assert!(
        bytes < 1 << 17,
        "halted LL2 Remap(16) snapshot is {bytes} bytes, expected under 128 KiB"
    );
}
