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
//!   [`std::panic::resume_unwind`]; no sweep catches or retries a panic;
//! * the default job count honours the `REMAP_JOBS` environment variable,
//!   the harness's one knob, and otherwise uses
//!   [`std::thread::available_parallelism`].

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
    fn streaming_runner_matches_serial_loop() {
        let items: Vec<usize> = (0..41).collect();
        let serial: Vec<_> = items.iter().enumerate().map(|(i, &x)| (i, x * 7)).collect();
        for jobs in [1, 2, 5] {
            let streamed = run_with_jobs(jobs, &items, |i, &x| (i, x * 7));
            assert_eq!(serial, streamed, "jobs={jobs}");
        }
    }
}
