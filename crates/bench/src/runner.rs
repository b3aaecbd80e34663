//! Parallel sweep runner for the experiment harness.
//!
//! Every figure of the paper is a sweep over independent workload
//! configurations: each `(benchmark, mode, size)` triple builds its own
//! [`System`](remap::System) from scratch, so the simulations share no
//! mutable state and can fan out across host cores. This module provides a
//! std-only worker pool (no rayon, no registry dependencies) used by the
//! `benches/` targets and the `remap bench` CLI subcommand:
//!
//! * work is pulled from a shared granule counter (see [`crate::sweep`]),
//!   so long configs don't stall a statically partitioned worker;
//! * results are returned **in item order**, independent of the job count
//!   or scheduling — a parallel sweep is bit-identical to a serial one;
//! * [`run_with_jobs`] is a collect adapter over the bounded-window
//!   ordered-streaming engine in [`crate::sweep`];
//! * a panicking worker propagates its payload to the caller via
//!   [`std::panic::resume_unwind`]; only [`retry`] catches panics, one
//!   item at a time, for sweeps that record failures as data (the
//!   faultsweep cells);
//! * the default job count honours the `REMAP_JOBS` environment variable,
//!   the harness's one knob, and otherwise uses
//!   [`std::thread::available_parallelism`].

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Number of worker threads to use: `REMAP_JOBS` if set to a positive
/// integer, otherwise the host's available parallelism. A set-but-invalid
/// value warns on stderr (once per call) instead of silently ignoring the
/// user's request.
pub fn jobs() -> usize {
    let (n, _, warning) = jobs_env();
    if let Some(w) = warning {
        eprintln!("warning: {w}");
    }
    n
}

/// Whether the job count was set *explicitly* via a valid `REMAP_JOBS`
/// value. A pool degraded to one worker is expected when the user asked
/// for it (`REMAP_JOBS=1`) and a measurement defect otherwise — the smoke
/// bench fails only in the second case.
pub fn jobs_explicit() -> bool {
    jobs_env().1
}

fn jobs_env() -> (usize, bool, Option<String>) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parse_jobs(std::env::var("REMAP_JOBS").ok().as_deref(), host)
}

/// Parses a raw `REMAP_JOBS` value (`None` when unset). Returns the job
/// count, whether it was set explicitly to a valid value, and a warning
/// when it was set but is not a positive integer. Unset or unusable values
/// fall back to `host`, the host's parallelism — the caller decides where
/// the warning goes.
fn parse_jobs(raw: Option<&str>, host: usize) -> (usize, bool, Option<String>) {
    match raw {
        None => (host, false, None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, true, None),
            _ => (
                host,
                false,
                Some(format!(
                    "REMAP_JOBS={v:?} is not a positive integer; using host parallelism ({host})"
                )),
            ),
        },
    }
}

/// Runs `f(index, &items[index])` for every item on a pool of `jobs`
/// worker threads and returns the results in item order.
///
/// Since the sweep-pipeline rework this is a thin collect adapter over
/// [`crate::sweep::stream`]: results still come back as one in-order
/// vector, but they are marshalled through the bounded-window streaming
/// engine rather than buffered per worker and sorted at the end.
///
/// `jobs <= 1` (or a single item) degrades to a plain serial loop on the
/// calling thread — the serial baseline of the speedup measurements runs
/// through exactly this code path with `jobs == 1`.
///
/// # Panics
///
/// Re-raises the first worker panic on the caller.
pub fn run_with_jobs<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    crate::sweep::stream(
        crate::sweep::SweepOpts::new(jobs),
        items,
        |i, item, _| f(i, item),
        |_, mut batch| {
            out.push(batch.pop().expect("one rep per item"));
            std::ops::ControlFlow::Continue(())
        },
    );
    out
}

/// One sweep item that could not produce a result: it panicked or returned
/// an error on every attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the item in the sweep.
    pub index: usize,
    /// Attempts made (always 2: the initial run plus one retry).
    pub attempts: u32,
    /// Panic payload or error message of the *last* attempt.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} failed after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Longest failure message kept in a [`JobFailure`] (and therefore in the
/// JSON reports). A pathological payload — a panic carrying a
/// multi-megabyte dump — is truncated at a char boundary with a note of
/// how much was dropped, so one bad job cannot bloat a sweep artifact.
pub const MAX_FAILURE_MESSAGE_BYTES: usize = 4096;

/// Renders a panic payload for a [`JobFailure`]. Besides the common
/// `&str`/`String` payloads, `Box<dyn Error>`-style payloads (as raised by
/// `std::panic::panic_any` on an error value) are downcast and displayed;
/// anything else degrades to a placeholder. The result is bounded by
/// [`MAX_FAILURE_MESSAGE_BYTES`].
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    let msg = if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else if let Some(e) = p.downcast_ref::<Box<dyn std::error::Error + Send + Sync>>() {
        format!("panic: {e}")
    } else if let Some(e) = p.downcast_ref::<Box<dyn std::error::Error + Send>>() {
        format!("panic: {e}")
    } else if let Some(e) = p.downcast_ref::<std::io::Error>() {
        format!("panic: {e}")
    } else {
        "panic: <non-string payload>".to_string()
    };
    truncate_message(msg)
}

/// Bounds a failure message to [`MAX_FAILURE_MESSAGE_BYTES`], cutting at a
/// char boundary and recording how many bytes were dropped.
pub fn truncate_message(msg: String) -> String {
    if msg.len() <= MAX_FAILURE_MESSAGE_BYTES {
        return msg;
    }
    let mut cut = MAX_FAILURE_MESSAGE_BYTES;
    while !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    let dropped = msg.len() - cut;
    format!("{} … ({dropped} bytes truncated)", &msg[..cut])
}

/// Attempts [`retry`] makes per item: the initial run plus one retry.
const ATTEMPTS: u32 = 2;

/// Runs sweep item `index` under the crash-resilient policy: a panic or
/// `Err` is retried once, and an item failing every attempt comes back as
/// a [`JobFailure`] instead of aborting the sweep.
///
/// Deterministic jobs fail deterministically, so the single retry exists to
/// absorb *host*-side flakiness (resource exhaustion in a parallel sweep),
/// not to mask simulator bugs — the failure record keeps the attempt count
/// so a flaky-once job is still visible. Figure sweeps do not use this:
/// their panics propagate.
pub fn retry<T>(index: usize, f: impl Fn() -> Result<T, String>) -> Result<T, JobFailure> {
    let mut last = String::new();
    for _ in 0..ATTEMPTS {
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(Ok(t)) => return Ok(t),
            Ok(Err(e)) => last = truncate_message(e),
            Err(p) => last = panic_message(p.as_ref()),
        }
    }
    Err(JobFailure {
        index,
        attempts: ATTEMPTS,
        message: last,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_item_order_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = run_with_jobs(jobs, &items, |_, &x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn index_matches_item() {
        let items: Vec<usize> = (0..20).collect();
        let got = run_with_jobs(4, &items, |i, &x| (i, x));
        for (i, &(idx, x)) in got.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(x, i);
        }
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(run_with_jobs(8, &none, |_, &x| x).is_empty());
        assert_eq!(run_with_jobs(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            run_with_jobs(4, &items, |_, &x| {
                if x == 9 {
                    panic!("config 9 failed validation");
                }
                x
            })
        });
        let payload = r.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("config 9"));
    }

    #[test]
    fn parse_jobs_table() {
        let banana = "REMAP_JOBS=\"banana\" is not a positive integer; using host parallelism (8)";
        let table = [
            (Some("3"), (3, true, None)),
            (Some(" 12 "), (12, true, None)),
            (Some("1"), (1, true, None)),
            (Some("0"), (8, false, Some("REMAP_JOBS=\"0\""))),
            (Some("banana"), (8, false, Some(banana))),
            (None, (8, false, None)),
        ];
        for (raw, (n, explicit, warning)) in table {
            let got = parse_jobs(raw, 8);
            assert_eq!((got.0, got.1), (n, explicit), "REMAP_JOBS={raw:?}");
            match (got.2, warning) {
                (None, None) => {}
                (Some(w), Some(want)) => assert!(w.starts_with(want), "{w}"),
                (got, want) => panic!("REMAP_JOBS={raw:?}: warning {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn panicking_job_no_longer_aborts_the_sweep() {
        let items: Vec<usize> = (0..16).collect();
        let got = run_with_jobs(4, &items, |i, &x| {
            retry(i, || {
                if x == 9 {
                    panic!("job 9 exploded");
                }
                Ok(x * x)
            })
        });
        assert_eq!(got.len(), 16);
        for (i, r) in got.iter().enumerate() {
            if i == 9 {
                let f = r.as_ref().expect_err("job 9 fails");
                assert_eq!(f.index, 9);
                assert_eq!(f.attempts, 2);
                assert!(f.message.contains("job 9 exploded"), "{}", f.message);
            } else {
                assert_eq!(r.as_ref().copied().unwrap(), i * i);
            }
        }
    }

    #[test]
    fn erroring_job_is_reported_in_slot() {
        let got = retry(1, || -> Result<u32, String> {
            Err("oracle mismatch".to_string())
        });
        let f = got.expect_err("the job errors every attempt");
        assert_eq!(f.message, "oracle mismatch");
        assert!(f.to_string().contains("job 1 failed after 2 attempts"));
    }

    #[test]
    fn flaky_job_succeeds_on_retry() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let got = retry(0, || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                Err("transient".to_string())
            } else {
                Ok(42)
            }
        });
        assert_eq!(got, Ok(42));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn streaming_runner_matches_serial_loop() {
        let items: Vec<usize> = (0..41).collect();
        let serial: Vec<_> = items.iter().enumerate().map(|(i, &x)| (i, x * 7)).collect();
        for jobs in [1, 2, 5] {
            let streamed = run_with_jobs(jobs, &items, |i, &x| (i, x * 7));
            assert_eq!(serial, streamed, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_message_downcasts_error_payloads() {
        let e: Box<dyn std::error::Error + Send + Sync> = "disk on fire".into();
        let p: Box<dyn std::any::Any + Send> = Box::new(e);
        assert_eq!(panic_message(p.as_ref()), "panic: disk on fire");
        let io = std::io::Error::other("queue jammed");
        let e: Box<dyn std::error::Error + Send> = Box::new(io);
        let p: Box<dyn std::any::Any + Send> = Box::new(e);
        assert_eq!(panic_message(p.as_ref()), "panic: queue jammed");
        let p: Box<dyn std::any::Any + Send> = Box::new(std::io::Error::other("io went away"));
        assert_eq!(panic_message(p.as_ref()), "panic: io went away");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p.as_ref()), "panic: <non-string payload>");
    }

    #[test]
    fn pathological_messages_are_truncated() {
        // A multi-megabyte panic payload must not reach the JSON reports
        // whole. The cut lands on a char boundary even mid-multibyte.
        let huge = "é".repeat(3 * 1024 * 1024);
        let p: Box<dyn std::any::Any + Send> = Box::new(huge.clone());
        let msg = panic_message(p.as_ref());
        assert!(msg.len() <= MAX_FAILURE_MESSAGE_BYTES + 64, "{}", msg.len());
        assert!(msg.contains("bytes truncated"), "truncation is recorded");
        assert!(msg.starts_with("panic: é"));
        // The same bound applies to `Err` messages through `retry`.
        let f = retry(0, || -> Result<(), String> { Err("x".repeat(1 << 20)) })
            .expect_err("job fails both attempts");
        assert!(f.message.len() <= MAX_FAILURE_MESSAGE_BYTES + 64);
        assert!(f.message.contains("bytes truncated"));
    }
}
