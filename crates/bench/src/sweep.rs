//! Ordered-streaming, work-stealing sweep engine.
//!
//! Every figure of the paper is a sweep over independent configurations,
//! and the old runner was a join-at-end pool: it buffered every result in
//! memory and sorted once at the end, so a single slow config stalled the
//! whole sweep.
//! This module replaces that with the bounded-in-flight ordered-marshalling
//! pattern (after `seq_rw_marshall`, see DESIGN.md §16):
//!
//! * **work stealing** — workers pull `(item, rep)` *granules* from a
//!   shared counter, so the best-of-N repetitions of one configuration
//!   spread across workers and a straggler's tail shrinks;
//! * **ordered streaming** — a serial consumer on the calling thread
//!   receives results in strict item order the moment the head-of-line
//!   item completes, instead of after the full join;
//! * **bounded memory** — workers may run at most `window` items ahead of
//!   the consumer, so a sweep holds O(window) results instead of O(sweep).
//!
//! Everything in the harness rides this engine, most of it through
//! [`crate::runner::run_with_jobs`].

use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Shape of one streamed sweep: worker count, repetitions per item, and
/// the in-flight window (in items).
#[derive(Debug, Clone, Copy)]
pub struct SweepOpts {
    /// Worker threads. `<= 1` degrades to a serial loop on the caller.
    pub jobs: usize,
    /// Granules per item (best-of-N repetitions); the consumer receives
    /// all of an item's rep results together, in rep order.
    pub reps: usize,
    /// Maximum items past the consumer's head that workers may claim.
    /// Bounds the results held in memory.
    pub window: usize,
}

impl SweepOpts {
    /// Defaults for `jobs` workers: one rep, a `4 × jobs` item window.
    pub fn new(jobs: usize) -> Self {
        SweepOpts {
            jobs,
            reps: 1,
            window: default_window(jobs),
        }
    }

    /// Sets the repetition count (clamped to at least 1).
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Sets the in-flight window (clamped to at least 1 item).
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }
}

/// Default in-flight window for a pool of `jobs` workers: deep enough
/// that no worker starves while the consumer drains the head, shallow
/// enough that the results held in memory stay few.
pub fn default_window(jobs: usize) -> usize {
    jobs.max(1) * 4
}

/// Per-item slot of the marshalling ring: one result cell per rep.
struct Slot<T> {
    results: Vec<Option<T>>,
    done: usize,
}

impl<T> Slot<T> {
    fn fresh(reps: usize) -> Self {
        Slot {
            results: (0..reps).map(|_| None).collect(),
            done: 0,
        }
    }
}

/// Shared state of one streaming sweep, guarded by a single mutex.
struct State<T> {
    /// Next item index the consumer will emit.
    head: usize,
    /// Next granule (item × rep) a worker will claim.
    next_granule: usize,
    /// Ring of `window` slots; item `i` lives in `slots[i % window]`.
    slots: Vec<Slot<T>>,
    /// Abort flag: consumer break, or a worker panicked.
    stop: bool,
    /// First worker panic payload, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// Runs `f(index, &items[index], rep)` for every `(item, rep)` granule on
/// `opts.jobs` workers and feeds each item's rep results — in strict item
/// order — to `consume` on the calling thread as soon as the head-of-line
/// item completes. Returns the number of items consumed (short only when
/// `consume` broke early).
///
/// `consume` returning [`ControlFlow::Break`] stops the sweep: workers
/// finish their in-flight granules, no new granules are claimed, and the
/// results past the break point are discarded.
///
/// # Panics
///
/// Re-raises the first worker panic on the caller once the pool unwinds.
pub fn stream<I, T, F, C>(opts: SweepOpts, items: &[I], f: F, mut consume: C) -> usize
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I, usize) -> T + Sync,
    C: FnMut(usize, Vec<T>) -> ControlFlow<()>,
{
    let reps = opts.reps.max(1);
    if opts.jobs <= 1 || items.len() <= 1 {
        // Serial degradation: the baseline of every speedup measurement
        // and the reference ordering every parallel run must reproduce.
        for (i, item) in items.iter().enumerate() {
            let batch: Vec<T> = (0..reps).map(|rep| f(i, item, rep)).collect();
            if consume(i, batch).is_break() {
                return i + 1;
            }
        }
        return items.len();
    }

    let window = opts.window.max(1).min(items.len());
    let workers = opts.jobs.min(items.len() * reps);
    let total_granules = items.len() * reps;
    let state = Mutex::new(State::<T> {
        head: 0,
        next_granule: 0,
        slots: (0..window).map(|_| Slot::fresh(reps)).collect(),
        stop: false,
        panic: None,
    });
    let space = Condvar::new(); // workers wait here for window room
    let ready = Condvar::new(); // the consumer waits here for the head item
    let mut consumed = 0usize;

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Claim the next granule, honouring the window bound.
                let granule = {
                    let mut st = state.lock().expect("sweep mutex");
                    loop {
                        if st.stop || st.next_granule >= total_granules {
                            return;
                        }
                        if st.next_granule / reps < st.head + window {
                            break;
                        }
                        st = space.wait(st).expect("sweep mutex");
                    }
                    let g = st.next_granule;
                    st.next_granule += 1;
                    g
                };
                let (item, rep) = (granule / reps, granule % reps);
                match catch_unwind(AssertUnwindSafe(|| f(item, &items[item], rep))) {
                    Ok(t) => {
                        let mut st = state.lock().expect("sweep mutex");
                        if st.stop {
                            return; // aborted sweep: the result is dropped
                        }
                        let head = st.head;
                        let slot = &mut st.slots[item % window];
                        debug_assert!(slot.results[rep].is_none(), "granule claimed twice");
                        slot.results[rep] = Some(t);
                        slot.done += 1;
                        if slot.done == reps && item == head {
                            ready.notify_one();
                        }
                    }
                    Err(p) => {
                        let mut st = state.lock().expect("sweep mutex");
                        if st.panic.is_none() {
                            st.panic = Some(p);
                        }
                        st.stop = true;
                        ready.notify_all();
                        space.notify_all();
                        return;
                    }
                }
            });
        }

        // Serial consumer on the calling thread: emit items in order as
        // their slots complete.
        loop {
            let batch = {
                let mut st = state.lock().expect("sweep mutex");
                loop {
                    if st.panic.is_some() {
                        st.stop = true;
                        space.notify_all();
                        break None;
                    }
                    if st.head >= items.len() {
                        break None;
                    }
                    let head = st.head;
                    if st.slots[head % window].done == reps {
                        let slot = &mut st.slots[head % window];
                        let full = std::mem::replace(slot, Slot::fresh(reps));
                        st.head += 1;
                        space.notify_all();
                        break Some(full);
                    }
                    st = ready.wait(st).expect("sweep mutex");
                }
            };
            let Some(full) = batch else { break };
            let batch: Vec<T> = full
                .results
                .into_iter()
                .map(|r| r.expect("complete slot"))
                .collect();
            let index = consumed;
            consumed += 1;
            if consume(index, batch).is_break() {
                let mut st = state.lock().expect("sweep mutex");
                st.stop = true;
                space.notify_all();
                ready.notify_all();
                break;
            }
        }
    });

    let panic = state.into_inner().expect("sweep mutex").panic;
    if let Some(p) = panic {
        resume_unwind(p);
    }
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn stream_preserves_item_order_any_pool_shape() {
        let items: Vec<usize> = (0..53).collect();
        for jobs in [1, 2, 3, 8] {
            for window in [1, 2, 5, 64] {
                let mut seen = Vec::new();
                let n = stream(
                    SweepOpts::new(jobs).window(window),
                    &items,
                    |_, &x, _| x * 3,
                    |i, mut b| {
                        assert_eq!(b.len(), 1);
                        seen.push((i, b.pop().unwrap()));
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!(n, items.len(), "jobs={jobs} window={window}");
                for (i, (idx, v)) in seen.iter().enumerate() {
                    assert_eq!((*idx, *v), (i, i * 3), "jobs={jobs} window={window}");
                }
            }
        }
    }

    #[test]
    fn reps_arrive_together_in_rep_order() {
        let items: Vec<usize> = (0..17).collect();
        for jobs in [1, 4] {
            let mut batches = Vec::new();
            stream(
                SweepOpts::new(jobs).reps(3),
                &items,
                |i, _, rep| (i, rep),
                |_, b| {
                    batches.push(b);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(batches.len(), 17);
            for (i, b) in batches.iter().enumerate() {
                assert_eq!(b, &vec![(i, 0), (i, 1), (i, 2)], "jobs={jobs}");
            }
        }
    }

    #[test]
    fn window_bounds_unconsumed_work() {
        // Workers may never claim past `head + window`. Measured against
        // the consume callback — which lags `head` by the one item the
        // consumer has already popped from the ring but not yet emitted —
        // the observable bound is `window + 1`.
        let items: Vec<usize> = (0..64).collect();
        let window = 3;
        let started = AtomicUsize::new(0);
        let consumed = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        stream(
            SweepOpts::new(4).window(window),
            &items,
            |_, &x, _| {
                let s = started.fetch_add(1, Ordering::SeqCst) + 1;
                let c = consumed.load(Ordering::SeqCst);
                peak.fetch_max(s - c, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                x
            },
            |_, _| {
                consumed.fetch_add(1, Ordering::SeqCst);
                ControlFlow::Continue(())
            },
        );
        assert!(
            peak.load(Ordering::SeqCst) <= window + 1,
            "in-flight peak {} exceeded the {window}-item window (+1 handoff)",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn consumer_break_stops_claiming_new_granules() {
        let items: Vec<usize> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let n = stream(
            SweepOpts::new(4).window(2),
            &items,
            |_, &x, _| {
                ran.fetch_add(1, Ordering::SeqCst);
                x
            },
            |i, _| {
                if i == 9 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(n, 10, "consumed exactly through the break");
        // Only the in-flight window past the break can have run.
        assert!(
            ran.load(Ordering::SeqCst) <= 10 + 2 + 4,
            "breaking must not drain the remaining sweep (ran {})",
            ran.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn worker_panic_reraises_on_caller() {
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            stream(
                SweepOpts::new(3),
                &items,
                |_, &x, _| {
                    if x == 7 {
                        panic!("item 7 exploded");
                    }
                    x
                },
                |_, _| ControlFlow::Continue(()),
            )
        }));
        let payload = r.expect_err("panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("item 7"), "{msg}");
    }

    #[test]
    fn empty_sweep_is_a_noop() {
        let none: Vec<u32> = Vec::new();
        let n = stream(
            SweepOpts::new(8),
            &none,
            |_, &x, _| x,
            |_, _| ControlFlow::Continue(()),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn default_window_scales_with_jobs() {
        assert_eq!(default_window(0), 4);
        assert_eq!(default_window(1), 4);
        assert_eq!(default_window(8), 32);
    }
}
