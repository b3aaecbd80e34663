//! Property tests for the banked coherence directory. The directory is a
//! probe *filter* layered over the same functional MESI walk as the
//! broadcast snoop — sharer masks decide who gets probed, never what the
//! protocol does — so a directory-routed hierarchy and the broadcast
//! reference must commit identical architectural values, identical cache
//! hit/miss counters, identical bus traffic, and identical MESI states on
//! any access stream. These tests pin that contract under adversarial
//! random multi-core streams, and check the directory's own inclusion
//! invariant (sharer sets exactly mirror L2 residency).

use proptest::prelude::*;
use remap_mem::{Hierarchy, HierarchyConfig, Mesi, PC_NONE};

#[derive(Debug, Clone)]
enum Op {
    Load {
        core: usize,
        slot: usize,
        wide: bool,
    },
    Store {
        core: usize,
        slot: usize,
        val: u32,
    },
    Amo {
        core: usize,
        slot: usize,
        delta: i32,
    },
    Fetch {
        core: usize,
        slot: usize,
    },
}

fn arb_op(cores: usize, slots: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..cores, 0..slots, any::<bool>()).prop_map(|(core, slot, wide)| Op::Load {
            core,
            slot,
            wide
        }),
        (0..cores, 0..slots, any::<u32>()).prop_map(|(core, slot, val)| Op::Store {
            core,
            slot,
            val
        }),
        (0..cores, 0..slots, -50i32..50).prop_map(|(core, slot, delta)| Op::Amo {
            core,
            slot,
            delta
        }),
        (0..cores, 0..slots).prop_map(|(core, slot)| Op::Fetch { core, slot }),
    ]
}

/// Slot stride 12 within 32-byte lines: neighbouring slots share lines, so
/// streams mix same-line sharing, upgrades, and cross-core transfers.
fn slot_addr(slot: usize) -> u64 {
    0x2000 + (slot as u64) * 12
}

/// Every line the slot space can touch (for state comparison).
fn slot_lines(slots: usize) -> Vec<u64> {
    let hi = slot_addr(slots - 1) + 8;
    (0x2000..=hi).step_by(32).map(|a| a & !31).collect()
}

/// Drives one op stream, advancing a local clock by each returned latency
/// (directory queueing and grid hops shift timing, so each hierarchy keeps
/// its own timeline). Returns every architectural value observed.
fn drive(h: &mut Hierarchy, ops: &[Op]) -> Vec<u64> {
    let mut t = 0u64;
    let mut observed = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Load { core, slot, wide } => {
                let size = if wide { 8 } else { 4 };
                let (v, lat) = h.load(core, slot_addr(slot), size, i as u32, t);
                observed.push(v);
                t += lat as u64;
            }
            Op::Store { core, slot, val } => {
                t += h.store(core, slot_addr(slot), 4, val as u64, t) as u64;
            }
            Op::Amo { core, slot, delta } => {
                let (old, lat) = h.amo_add(core, slot_addr(slot), delta as i64, t);
                observed.push(old as u64);
                t += lat as u64;
            }
            Op::Fetch { core, slot } => {
                t += h.inst_fetch(core, (slot as u64) * 4, t) as u64;
            }
        }
    }
    observed
}

/// Full architectural comparison of a directory-routed hierarchy against
/// the broadcast reference on one op stream.
fn assert_dir_matches_broadcast(
    cores: usize,
    slots: usize,
    mlp: bool,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut dir = Hierarchy::new(cores, HierarchyConfig::default());
    dir.set_mlp(mlp);
    let mut bcast = Hierarchy::new(cores, HierarchyConfig::default());
    bcast.set_mlp(mlp);
    bcast.set_dir(false);

    let seen_d = drive(&mut dir, ops);
    let seen_b = drive(&mut bcast, ops);
    prop_assert_eq!(seen_d, seen_b, "architectural values diverged");
    for c in 0..cores {
        prop_assert_eq!(
            dir.cache_stats(c),
            bcast.cache_stats(c),
            "core {} cache stats diverged",
            c
        );
    }
    prop_assert_eq!(
        dir.bus_stats(),
        bcast.bus_stats(),
        "bus traffic diverged (the filter must not change transactions)"
    );
    // MESI states must agree line by line — the sharer mask routed exactly
    // the probes the broadcast walk would have made effective.
    let lines = slot_lines(slots);
    for &line in &lines {
        for c in 0..cores {
            prop_assert_eq!(
                dir.probe_states(c, line),
                bcast.probe_states(c, line),
                "core {} line {:#x} MESI state diverged",
                c,
                line
            );
        }
    }
    dir.check_mesi_invariants(&lines)
        .map_err(TestCaseError::fail)?;
    dir.check_directory_residency()
        .map_err(TestCaseError::fail)?;
    // Probe accounting must tile the broadcast walk: every full-miss snoop
    // and every upgrade invalidation splits its n-1 remote cores into
    // probed + avoided, nothing else.
    let s = dir.dir_stats();
    let walks = dir.bus_stats().snoops + dir.bus_stats().upgrades;
    prop_assert_eq!(
        s.probes_sent + s.probes_avoided,
        walks * (cores as u64 - 1),
        "probe accounting does not tile the broadcast walk"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Directory ≡ broadcast on the paper's 4-core cluster, with the MLP
    /// machinery also active (the realistic default configuration).
    #[test]
    fn directory_is_probe_filter_only_4_cores(
        ops in proptest::collection::vec(arb_op(4, 24), 1..250)
    ) {
        assert_dir_matches_broadcast(4, 24, true, &ops)?;
    }

    /// Directory ≡ broadcast on a 36-core (3x3-cluster) grid with blocking
    /// latencies, isolating the directory from the MSHR machinery. Grid
    /// hops shift timing but must not touch the functional walk.
    #[test]
    fn directory_is_probe_filter_only_36_cores(
        ops in proptest::collection::vec(arb_op(36, 16), 1..200)
    ) {
        assert_dir_matches_broadcast(36, 16, false, &ops)?;
    }

    /// Flipping the directory on mid-stream reseeds the sharer sets from
    /// live L2 residency, so the remainder of the stream still matches a
    /// broadcast run of the whole stream.
    #[test]
    fn mid_run_enable_reseeds_exactly(
        ops_a in proptest::collection::vec(arb_op(4, 24), 1..100),
        ops_b in proptest::collection::vec(arb_op(4, 24), 1..100)
    ) {
        let mut dir = Hierarchy::new(4, HierarchyConfig::default());
        dir.set_mlp(false);
        dir.set_dir(false);
        let mut bcast = Hierarchy::new(4, HierarchyConfig::default());
        bcast.set_mlp(false);
        bcast.set_dir(false);

        let mut seen_d = drive(&mut dir, &ops_a);
        dir.set_dir(true);
        seen_d.extend(drive(&mut dir, &ops_b));
        let mut seen_b = drive(&mut bcast, &ops_a);
        seen_b.extend(drive(&mut bcast, &ops_b));

        prop_assert_eq!(seen_d, seen_b, "architectural values diverged");
        for c in 0..4 {
            prop_assert_eq!(dir.cache_stats(c), bcast.cache_stats(c));
        }
        prop_assert_eq!(dir.bus_stats(), bcast.bus_stats());
        dir.check_directory_residency().map_err(TestCaseError::fail)?;
    }

    /// The early-exit in the broadcast walk (stop at the dirty owner) is
    /// architecturally invisible: MESI guarantees a Modified copy is the
    /// only copy, so the skipped tail of the walk was all no-ops. Pinned
    /// here by checking a dirty c2c transfer leaves every third-party core
    /// Invalid.
    #[test]
    fn dirty_supplier_early_exit_is_invisible(owner in 0usize..4, hop in 1usize..4) {
        let reader = (owner + hop) % 4;
        let mut h = Hierarchy::new(4, HierarchyConfig::default());
        h.set_mlp(false);
        h.set_dir(false);
        let t = h.store(owner, 0x3000, 4, 99, 0) as u64;
        let (v, _) = h.load(reader, 0x3000, 4, PC_NONE, t);
        prop_assert_eq!(v, 99);
        for c in 0..4 {
            let want = if c == owner || c == reader {
                Mesi::Shared
            } else {
                Mesi::Invalid
            };
            prop_assert_eq!(h.probe_states(c, 0x3000).1, want, "core {} L2", c);
        }
    }
}
