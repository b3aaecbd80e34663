//! Ordered-streaming, work-stealing, resumable sweep engine.
//!
//! Every figure of the paper is a sweep over independent configurations,
//! and the old runner was a join-at-end pool: it buffered every result in
//! memory and sorted once at the end, so a single slow config (or a dead
//! process at config 9,999 of 10,000) stalled or lost the whole sweep.
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
//!   the consumer, so a sweep holds O(window) results instead of O(sweep);
//! * **resumability** — [`stream_jsonl`] checkpoints each consumed line to
//!   an on-disk journal, so a *killed process* (not just a panicked job)
//!   loses at most the in-flight window and the next run picks up where
//!   the previous one died, byte-identical to an uninterrupted sweep.
//!
//! Everything in the harness rides this engine, most of it through
//! [`crate::runner::run_with_jobs`].

use std::any::Any;
use std::io::{Seek, SeekFrom, Write};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
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
    /// Bounds both memory and the work lost when the process dies.
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
/// enough that memory and the crash-loss bound stay small.
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
/// results past the break point are discarded — this is the "drop the pool
/// mid-flight" hook the crash/resume tests simulate a kill with.
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

/// Options of a journaled JSON-lines sweep.
#[derive(Debug, Clone, Copy)]
pub struct JsonlOpts<'a> {
    /// Pool shape of the underlying [`stream`].
    pub sweep: SweepOpts,
    /// Identity of the sweep (parameters, grid size, format version). A
    /// journal written under a different fingerprint is ignored, so a
    /// stale or foreign journal can never splice wrong results in.
    pub fingerprint: &'a str,
    /// Journal file. `None` disables checkpointing: every item is computed
    /// and nothing is written to disk.
    pub journal: Option<&'a Path>,
}

/// What a [`stream_jsonl`] run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlOutcome {
    /// Items in the sweep.
    pub total: usize,
    /// Items replayed from the journal instead of recomputed.
    pub resumed: usize,
    /// Items computed (and journaled) by this run.
    pub computed: usize,
    /// Whether every item was emitted (the consumer never broke early).
    pub completed: bool,
}

const JOURNAL_MAGIC: &str = "#remap-sweep-journal v1";

/// Parses the journal at `path`: returns the validated prefix of emitted
/// lines plus its length in bytes (header included), or an empty vector
/// when the journal is missing, foreign (wrong fingerprint or item count),
/// or corrupt from its first line. A torn tail — a final line without its
/// newline, or with the wrong index — is dropped; everything before it is
/// trusted. The byte length is what a resuming run must truncate the file
/// to before appending: appending after a torn fragment would glue the
/// next record onto it, and a second kill would leave a concatenated line
/// a later load would accept as valid.
fn load_journal(path: &Path, fingerprint: &str, total: usize) -> (Vec<String>, u64) {
    let Ok(raw) = std::fs::read_to_string(path) else {
        return (Vec::new(), 0);
    };
    let header = format!("{JOURNAL_MAGIC} {total} {fingerprint}\n");
    let Some(mut rest) = raw.strip_prefix(header.as_str()) else {
        return (Vec::new(), 0);
    };
    let mut lines = Vec::new();
    let mut valid_bytes = header.len();
    // Each record is "<index> <payload>\n"; a record is only trusted when
    // its newline made it to disk and its index matches its position, so
    // a torn tail or a duplicated write stops the walk (everything before
    // it stays trusted).
    while let Some(nl) = rest.find('\n') {
        let record = &rest[..nl];
        let Some((idx, payload)) = record.split_once(' ') else {
            break;
        };
        if idx.parse::<usize>() != Ok(lines.len()) || lines.len() >= total {
            break;
        }
        lines.push(payload.to_string());
        valid_bytes += nl + 1;
        rest = &rest[nl + 1..];
    }
    (lines, valid_bytes as u64)
}

/// Streams one JSON-lines sweep with optional crash/resume journaling.
///
/// `f(index, &items[index])` produces one line (no newline) per item;
/// `emit(index, line)` receives the lines in strict item order. With a
/// journal configured, every consumed line is appended and flushed to the
/// journal *before* it is emitted, so a killed process loses at most the
/// in-flight window; the next run replays the journaled prefix without
/// recomputing it and the merged output is byte-identical to an
/// uninterrupted sweep. A journal whose fingerprint or shape mismatches is
/// ignored. On a completed sweep the journal is deleted — it only outlives
/// a run that died.
///
/// Repetitions are not meaningful at the line level, so `opts.sweep.reps`
/// is ignored (each item is one granule).
pub fn stream_jsonl<I, F, C>(
    opts: &JsonlOpts<'_>,
    items: &[I],
    f: F,
    mut emit: C,
) -> std::io::Result<JsonlOutcome>
where
    I: Sync,
    F: Fn(usize, &I) -> String + Sync,
    C: FnMut(usize, &str) -> ControlFlow<()>,
{
    let total = items.len();
    let (done, valid_bytes) = match opts.journal {
        Some(path) => load_journal(path, opts.fingerprint, total),
        None => (Vec::new(), 0),
    };
    let resumed = done.len();

    // Replay the journaled prefix first (no recomputation, no rewrite).
    for (i, line) in done.iter().enumerate() {
        if emit(i, line).is_break() {
            return Ok(JsonlOutcome {
                total,
                resumed: i + 1,
                computed: 0,
                completed: false,
            });
        }
    }

    // (Re)open the journal: append after the valid prefix, start fresh
    // (header included) otherwise. The file is truncated to the validated
    // prefix first — a torn tail the load rejected must not stay on disk,
    // or the appended record would be glued onto the fragment and a second
    // kill would leave a concatenated line the next load accepts.
    let mut journal = match opts.journal {
        Some(path) => {
            let mut fh = if resumed > 0 {
                let mut fh = std::fs::OpenOptions::new().write(true).open(path)?;
                fh.set_len(valid_bytes)?;
                fh.seek(SeekFrom::Start(valid_bytes))?;
                fh
            } else {
                let mut fh = std::fs::File::create(path)?;
                fh.write_all(format!("{JOURNAL_MAGIC} {total} {}\n", opts.fingerprint).as_bytes())?;
                fh
            };
            fh.flush()?;
            Some(fh)
        }
        None => None,
    };

    let rest = &items[resumed..];
    let mut computed = 0usize;
    let mut io_error: Option<std::io::Error> = None;
    stream(
        SweepOpts {
            reps: 1,
            ..opts.sweep
        },
        rest,
        |i, item, _| f(resumed + i, item),
        |i, mut batch| {
            let line = batch.pop().expect("one line per item");
            if let Some(fh) = journal.as_mut() {
                // Checkpoint before emit: the journal is the source of
                // truth a resumed run replays from.
                let write = fh
                    .write_all(format!("{} {line}\n", resumed + i).as_bytes())
                    .and_then(|()| fh.flush());
                if let Err(e) = write {
                    io_error = Some(e);
                    return ControlFlow::Break(());
                }
            }
            computed += 1;
            emit(resumed + i, &line)
        },
    );
    if let Some(e) = io_error {
        return Err(e);
    }
    // `computed` counts items that were journaled and handed to `emit`, so
    // the sweep is complete exactly when the journaled prefix plus this
    // run's work covers every item.
    let completed = resumed + computed == total;
    if completed {
        if let Some(path) = opts.journal {
            drop(journal);
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(JsonlOutcome {
        total,
        resumed,
        computed,
        completed,
    })
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
    fn journal_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("remap-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let intact = format!("{JOURNAL_MAGIC} 5 fp\n0 alpha\n1 beta\n");
        std::fs::write(&path, format!("{intact}2 gam")).unwrap();
        let (lines, valid) = load_journal(&path, "fp", 5);
        assert_eq!(lines, vec!["alpha", "beta"]);
        assert_eq!(
            valid as usize,
            intact.len(),
            "valid bytes cover exactly the intact prefix, not the torn tail"
        );
        // Wrong fingerprint or total: the whole journal is ignored.
        assert!(load_journal(&path, "other", 5).0.is_empty());
        assert!(load_journal(&path, "fp", 6).0.is_empty());
        // Index gap: trust stops at the gap.
        let head = format!("{JOURNAL_MAGIC} 5 fp\n0 alpha\n");
        std::fs::write(&path, format!("{head}2 beta\n")).unwrap();
        let (lines, valid) = load_journal(&path, "fp", 5);
        assert_eq!(lines, vec!["alpha"]);
        assert_eq!(valid as usize, head.len());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn default_window_scales_with_jobs() {
        assert_eq!(default_window(0), 4);
        assert_eq!(default_window(1), 4);
        assert_eq!(default_window(8), 32);
    }
}
