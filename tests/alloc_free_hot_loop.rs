//! The simulator's per-cycle path must not touch the heap once warmed up:
//! `Core::fetch` reuses its fetch-group scratch, `SplFabric::tick_into`
//! drains into a caller-owned buffer, and `System::step` maintains its
//! running-core list and committed counter in place. This test installs a
//! counting global allocator, warms a computation workload past every
//! buffer-growth transient, and then asserts that thousands of further
//! cycles allocate nothing.
//!
//! Kept in its own integration-test binary, and the counter is per thread,
//! so neither a concurrent test nor the test harness's own threads pollute
//! it.

use remap_workloads::barriers::{BarrierBench, BarrierMode};
use remap_workloads::comp::CompBench;
use remap_workloads::CompMode;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::Mutex;

/// The tests in this binary do not overlap; each takes this lock for its
/// whole body.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread (const-initialized: reading it
    /// never allocates).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_cycles_do_not_allocate() {
    let _guard = SERIAL.lock().unwrap();
    // An SPL-active computation workload: every cycle exercises fetch,
    // dispatch/issue/commit, the fabric tick, and the stats plumbing.
    let mut sys = CompBench::ALL[0].build(CompMode::Spl, 4096);

    // Warm-up: long enough for the fetch buffer, ROB, store buffer, SPL
    // queues, event scratch, and cache metadata to reach their
    // steady-state capacities.
    let mut warm = 0u32;
    while warm < 20_000 && !sys.all_halted() {
        sys.step();
        warm += 1;
    }
    assert!(
        !sys.all_halted(),
        "workload halted during warm-up; pick a larger problem size"
    );

    let before = allocations();
    let mut measured = 0u32;
    while measured < 5_000 && !sys.all_halted() {
        sys.step();
        measured += 1;
    }
    let after = allocations();
    assert!(
        measured >= 5_000,
        "workload halted during the measured window after {measured} cycles"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state cycles allocated {} times over {measured} cycles",
        after - before
    );
}

/// The memory-system fast paths — the word-granular `FlatMem` accessors
/// behind `inst_fetch`, the tag lookup's set scan, and the L1-hit fast lane
/// that answers loads/stores without consulting MESI — must allocate
/// nothing once the touched pages and cache metadata exist. Drives the
/// `Hierarchy` ports directly (hits, misses with eviction, cross-core
/// sharing, and atomics) so the assertion covers the fast lane *and* its
/// fallback into the coherence path.
#[test]
fn hierarchy_fast_paths_do_not_allocate() {
    use remap_mem::{Hierarchy, HierarchyConfig, PC_NONE};

    let _guard = SERIAL.lock().unwrap();
    let mut h = Hierarchy::new(2, HierarchyConfig::default());

    // Warm-up: touch the whole working set from both cores so every page
    // of the arena is resident and both L1/L2 tag arrays are populated.
    let warm = |h: &mut Hierarchy, t0: u64| {
        let mut t = t0;
        for i in 0..4096u64 {
            let addr = (i * 36) % 131072;
            t += h.store(0, addr, 4, i, t) as u64;
            let (_, l) = h.load(1, addr, 4, PC_NONE, t);
            t += l as u64;
            t += h.inst_fetch(0, (i * 4) % 65536, t) as u64;
            let (_, l) = h.amo_add(1, 131072 + (i % 64) * 8, 1, t);
            t += l as u64;
        }
        t
    };
    let t = warm(&mut h, 0);

    let before = allocations();
    let mut t = warm(&mut h, t);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warmed hierarchy load/store/fetch/amo traffic allocated {} times",
        after - before
    );

    // MSHR/prefetch burst: demand misses that allocate miss-status
    // registers, train the stride prefetcher, and enqueue memory-controller
    // requests must be allocation-free too — every MLP structure is
    // fixed-capacity at construction. The prewarm streams 2 MB of stores at
    // line stride so all pages are resident and the first half has been
    // evicted from the 1 MB L2 by the second, making the measured loads
    // genuine full misses.
    let base = 0x10_0000u64; // clear of the warm arena
    for i in 0..65536u64 {
        t += h.store(0, base + i * 32, 4, i, t) as u64;
    }
    let before = allocations();
    for i in 0..2048u64 {
        let (_, l) = h.load(0, base + i * 32, 4, 7, t);
        t += l as u64;
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "MSHR-allocating miss burst allocated {} times",
        after - before
    );
    assert!(
        h.mlp_stats().prefetch_issued > 0,
        "burst never engaged the prefetcher; the assertion is vacuous"
    );
}

/// The coherence directory's sharer map may grow only at build or restore
/// time: it is pre-sized for every line the private L2s can hold, so
/// thousands of cold misses that each start tracking a new line allocate
/// nothing. The pages behind the lines are backed first, so the functional
/// memory's arena does not grow in the measured window either.
#[test]
fn directory_tracks_cold_lines_without_allocating() {
    use remap_mem::{Hierarchy, HierarchyConfig, PC_NONE};

    let _guard = SERIAL.lock().unwrap();
    let cfg = HierarchyConfig::default();
    let line = cfg.l2.line_bytes as u64;
    let mut h = Hierarchy::new(2, cfg);
    let base = 0x40_0000u64;
    for i in 0..8192u64 {
        h.mem_mut().write_u32(base + i * line, i as u32);
    }

    let before = allocations();
    let mut t = 0u64;
    for i in 0..8192u64 {
        let (_, l) = h.load((i % 2) as usize, base + i * line, 4, PC_NONE, t);
        t += l as u64;
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "8,192 cold-line loads allocated {} times",
        after - before
    );
    let tracked = h.directory().expect("2-core directory").tracked_lines();
    assert!(
        tracked >= 8192,
        "directory tracks {tracked} lines; the loads did not start tracking new lines"
    );
}

/// The quiescence skip path — probing every component's `next_event`,
/// bulk-advancing stall statistics, and rotating the SPL round-robin
/// pointer — must add zero allocations over the ticked path. The barrier
/// workload's release machinery allocates a few short `Vec`s per rendezvous
/// on *both* paths, so the assertion is comparative: the skip-driven run of
/// the identical workload must allocate no more than the ticked run.
#[test]
fn skip_path_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap();

    fn run_to_halt(skip: bool) -> (u64, u64) {
        // A barrier workload: most cycles sit at rendezvous points, so the
        // skip-driven run exercises probe, jump, and normal-step iterations.
        let mut sys = BarrierBench::Ll2.build(BarrierMode::Remap(8), 1024);
        sys.set_skip(skip);
        let before = allocations();
        while !sys.all_halted() {
            let limit = sys.cycle() + 200_000;
            sys.step_or_skip(limit);
        }
        let allocs = allocations() - before;
        (allocs, sys.skipped_cycles())
    }

    let (ticked_allocs, ticked_skipped) = run_to_halt(false);
    assert_eq!(ticked_skipped, 0, "skip disabled yet cycles were skipped");
    let (skip_allocs, skipped) = run_to_halt(true);
    assert!(
        skipped > 0,
        "the skip run never skipped; the test is vacuous"
    );
    assert!(
        skip_allocs <= ticked_allocs,
        "skip engine added allocations: {skip_allocs} with skipping vs {ticked_allocs} ticked"
    );
}
