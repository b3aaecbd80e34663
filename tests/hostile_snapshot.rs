//! Hostile snapshot payloads: real payloads from a communication config
//! and a 16-core grid, mutated (bit flips across the whole payload,
//! truncations, length fields pushed near `u64::MAX`) and re-framed with a
//! valid header and checksum, must restore as `Ok` or
//! `RunError::BadSnapshot` — never panic (debug assertions are on in the
//! test profile) — and must never grow the heap by more than the payload
//! length (plus a fixed [`SLACK`] for the error report itself).
//!
//! Kept in its own integration-test binary: a counting global allocator
//! measures each restore's peak heap growth.

use remap_snap::HEADER_LEN;
use remap_suite::system::{RunError, Snapshot, System};
use remap_suite::workloads::barriers::{BarrierBench, BarrierMode};
use remap_suite::workloads::comm::CommBench;
use remap_suite::workloads::CommMode;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// The heap counters are process-global, so the tests in this binary must
/// not overlap; each takes this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

struct PeakAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Heap a restore may use beyond the payload length: the refusal message
/// and the fault streams a (possibly flipped) plan flag rebuilds.
const SLACK: usize = 4096;

/// Runs `build()`'s workload to mid-run and returns its snapshot payload
/// and configuration fingerprint.
fn donor_payload(build: &dyn Fn() -> System) -> (Vec<u8>, u64) {
    let mut sys = build();
    let cycles = build().run(50_000_000).expect("reference run").cycles;
    assert!(sys.run_until(cycles / 2), "donor halted before mid-run");
    let snap = sys.snapshot();
    let bytes = snap.as_bytes();
    (
        bytes[HEADER_LEN..bytes.len() - 8].to_vec(),
        snap.fingerprint().expect("framed snapshot"),
    )
}

/// Restores `payload`, re-framed under `fp`, into `target`: the result
/// must be `Ok` or `BadSnapshot` and the heap may grow by at most the
/// payload length plus [`SLACK`]. Returns whether the payload was refused.
fn restore_hostile(target: &mut System, fp: u64, payload: &[u8], what: &str) -> bool {
    let snap = Snapshot::from_bytes(remap_snap::encode_file(fp, payload))
        .unwrap_or_else(|e| panic!("{what}: re-framed snapshot refused: {e}"));
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| target.restore(&snap)))
        .unwrap_or_else(|_| panic!("{what}: restore panicked"));
    let growth = PEAK.load(Ordering::Relaxed) - base;
    assert!(
        growth <= (payload.len() + SLACK) as isize,
        "{what}: restore grew the heap by {growth} bytes for a {}-byte payload",
        payload.len()
    );
    match outcome {
        Ok(()) => false,
        Err(RunError::BadSnapshot { .. }) => true,
        Err(e) => panic!("{what}: restore failed with a non-snapshot error: {e:?}"),
    }
}

/// Applies every mutation family to one payload: bit flips at `flips`
/// positions spread over the whole payload and as many again over its
/// first `head` bytes (the fault plan, system bookkeeping, and the first
/// cores' pipeline state, where lengths and tags cluster), `cuts`
/// truncations, and `lengths` length-like fields pushed near `u64::MAX`.
fn assault(
    label: &str,
    build: &dyn Fn() -> System,
    head: usize,
    flips: usize,
    cuts: usize,
    lengths: usize,
) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (payload, fp) = donor_payload(build);
    let mut target = build();
    let mut refused = 0;
    let mut tried = 0;
    let mut attempt = |target: &mut System, p: &[u8], what: String| {
        tried += 1;
        refused += restore_hostile(target, fp, p, &format!("{label}: {what}")) as usize;
    };

    let mut mutated = payload.clone();
    let head = head.min(payload.len());
    let spread = (0..flips).map(|k| k * payload.len() / flips);
    for pos in (0..flips).map(|k| k * head / flips).chain(spread) {
        let bit = 1u8 << (pos * 5 % 8);
        mutated[pos] ^= bit;
        attempt(
            &mut target,
            &mutated,
            format!("bit flip {bit:#04x} at byte {pos}"),
        );
        mutated[pos] ^= bit;
    }

    let k = (payload.len() / cuts).max(1);
    for len in (0..payload.len()).step_by(k) {
        attempt(
            &mut target,
            &payload[..len],
            format!("truncated to {len} bytes"),
        );
    }

    // Any u64 that looks like a sequence length (small, non-zero) is pushed
    // to the top of the range, where a naive reader would try to allocate.
    let candidates: Vec<usize> = (0..payload.len().saturating_sub(8))
        .filter(|&i| (1..=64).contains(&u64::from_le_bytes(payload[i..i + 8].try_into().unwrap())))
        .collect();
    let step = (candidates.len() / lengths).max(1);
    for (n, &i) in candidates.iter().step_by(step).enumerate() {
        let huge = u64::MAX - (n % 9) as u64;
        mutated[i..i + 8].copy_from_slice(&huge.to_le_bytes());
        attempt(
            &mut target,
            &mutated,
            format!("length {huge:#x} at byte {i}"),
        );
        mutated[i..i + 8].copy_from_slice(&payload[i..i + 8]);
    }

    assert!(refused > 0, "{label}: no mutation of {tried} was refused");
    // The target survives the assault: the clean payload still restores
    // and re-snapshots to the same bytes.
    assert!(!restore_hostile(
        &mut target,
        fp,
        &payload,
        &format!("{label}: clean payload")
    ));
    let again = target.snapshot();
    assert!(
        again.as_bytes()[HEADER_LEN..again.as_bytes().len() - 8] == payload[..],
        "{label}: clean restore after the assault does not re-snapshot identically"
    );
}

#[test]
fn hostile_comm_payloads_are_refused_or_restored() {
    let b = CommBench::ALL[0];
    assault(
        &format!("{} CompComm2T", b.name()),
        &|| b.build(CommMode::CompComm2T, 64),
        48 * 1024,
        300,
        60,
        150,
    );
}

#[test]
fn hostile_grid_payloads_are_refused_or_restored() {
    let b = BarrierBench::Ll3;
    assault(
        &format!("{b:?} Remap(16)"),
        &|| b.build(BarrierMode::Remap(16), 64),
        256 * 1024,
        40,
        20,
        20,
    );
}
