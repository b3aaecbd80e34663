//! Property tests for the non-blocking (MSHR + prefetch + memory-controller)
//! hierarchy. The MLP machinery is timing-only by construction — the
//! functional MESI walk runs identically with it on or off — and these
//! tests pin that contract under adversarial random streams: line-straddling
//! wide accesses, same-line secondary misses, and multi-core sharing.

use proptest::prelude::*;
use remap_mem::{Hierarchy, HierarchyConfig, PC_NONE};

#[derive(Debug, Clone)]
enum Op {
    /// `wide` loads read 8 bytes, which at some slot offsets straddles a
    /// 32-byte line boundary (two fills from one access).
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

/// Slot stride 12 lands offsets 0, 12, 24, 4, 16, 28, ... within a 32-byte
/// line: neighbouring slots share lines (secondary misses merge with the
/// first miss's MSHR) and a wide load at offset 28 straddles the boundary.
fn slot_addr(slot: usize) -> u64 {
    0x2000 + (slot as u64) * 12
}

/// Drives one op stream through a hierarchy, advancing its own local clock
/// by each returned latency (the two models disagree on latency, so each
/// keeps its own timeline). Returns every architectural value observed.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The non-blocking hierarchy and the blocking reference commit
    /// identical architectural values, identical cache hit/miss counters,
    /// and identical coherence-bus traffic on any access stream: MSHRs,
    /// prefetchers, and the memory controller shape latencies only.
    #[test]
    fn mlp_is_timing_only(ops in proptest::collection::vec(arb_op(4, 24), 1..250)) {
        let mut nonblocking = Hierarchy::new(4, HierarchyConfig::default());
        let mut blocking = Hierarchy::new(4, HierarchyConfig::default());
        blocking.set_mlp(false);

        let seen_nb = drive(&mut nonblocking, &ops);
        let seen_b = drive(&mut blocking, &ops);
        prop_assert_eq!(seen_nb, seen_b, "architectural values diverged");
        for c in 0..4 {
            prop_assert_eq!(
                nonblocking.cache_stats(c),
                blocking.cache_stats(c),
                "core {} cache stats diverged",
                c
            );
        }
        prop_assert_eq!(
            nonblocking.bus_stats(),
            blocking.bus_stats(),
            "bus traffic diverged (prefetches must not be counted)"
        );
    }

    /// With MLP disabled the hierarchy reproduces the blocking model's
    /// canonical latency table exactly, regardless of the caller's clock:
    /// cold DRAM miss 212, L1 hit 2, L2 hit 12, cache-to-cache 32.
    #[test]
    fn no_mlp_reproduces_blocking_latencies(t0 in 0u64..1_000_000) {
        let mut h = Hierarchy::new(2, HierarchyConfig::default());
        h.set_mlp(false);
        let (_, cold) = h.load(0, 0x8000, 4, PC_NONE, t0);
        prop_assert_eq!(cold, 212, "cold DRAM miss");
        let (_, hit) = h.load(0, 0x8000, 4, PC_NONE, t0 + 300);
        prop_assert_eq!(hit, 2, "L1 hit");
        // Evict the line from the tiny L1 (2-way, 128 sets) but not the L2.
        let set_stride = 128 * 32;
        for w in 1..=2u64 {
            h.load(0, 0x8000 + w * set_stride, 4, PC_NONE, t0 + 400);
        }
        let (_, l2) = h.load(0, 0x8000, 4, PC_NONE, t0 + 900);
        prop_assert_eq!(l2, 12, "L2 hit");
        h.store(0, 0x9000, 4, 7, t0 + 1000);
        let (_, c2c) = h.load(1, 0x9000, 4, PC_NONE, t0 + 1300);
        prop_assert_eq!(c2c, 32, "cache-to-cache transfer");
    }
}
