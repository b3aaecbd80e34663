//! Miss-status holding registers: the bookkeeping that makes the cache
//! hierarchy non-blocking.
//!
//! Each core owns one small [`MshrFile`] per L1 (data and instruction).
//! An entry tracks one outstanding line fill: the line address, the cycle
//! the fill completes, and whether the fill was started by a prefetcher
//! rather than a demand access. The file is *timing-only* state — the
//! functional MESI walk in `Hierarchy` still updates tags and data
//! immediately at request time — so entries never have to be flushed for
//! correctness; they merely shape the latencies handed back to the core.
//!
//! Lifecycle (all transitions are lazy, keyed off the caller's `now`):
//!
//! * **free** — unallocated, or a demand fill whose `done_at` has passed.
//! * **in flight** — `done_at > now`. Demand accesses to the same line
//!   *merge*: their latency is clamped to the fill's completion instead of
//!   paying a fresh round trip.
//! * **prefetch-ready** — a prefetch whose fill has landed but that no
//!   demand has consumed yet. It keeps its slot (it models a held fill
//!   buffer) until a demand consumes it or a demand allocation evicts it.
//!
//! The file is fixed-capacity and allocation-free after construction; the
//! per-cycle simulator hot loop may scan it but never grow it.

/// One miss-status holding register.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Line base address of the outstanding fill.
    line: u64,
    /// Cycle the fill data arrives.
    done_at: u64,
    /// Fill was started by a prefetcher and no demand has merged with it.
    prefetch: bool,
    /// Slot is allocated (demand entries also self-free once `done_at`
    /// passes; see [`Entry::is_free`]).
    valid: bool,
}

impl Entry {
    const FREE: Entry = Entry {
        line: 0,
        done_at: 0,
        prefetch: false,
        valid: false,
    };

    fn is_free(&self, now: u64) -> bool {
        // A completed demand fill needs no further tracking: the line is in
        // the tags. A completed *prefetch* still occupies its slot until
        // consumed or evicted — its data lives only in the fill buffer the
        // slot models.
        !self.valid || (!self.prefetch && self.done_at <= now)
    }

    fn in_flight(&self, now: u64) -> bool {
        self.valid && self.done_at > now
    }
}

/// A fixed-capacity file of MSHRs for one cache.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    /// Latest `done_at` ever allocated: `max_done <= now` proves the file
    /// holds no in-flight fill without scanning, keeping the L1-hit fast
    /// lane O(1) when the memory system is idle.
    max_done: u64,
}

/// Outcome of merging a demand access into an in-flight or ready fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Merge {
    /// Cycle the demand's data is available (≥ the demand's own pipe time).
    pub done_at: u64,
    /// The fill being merged with was an unconsumed prefetch.
    pub was_prefetch: bool,
}

impl MshrFile {
    /// A file with `n` registers, all free.
    pub fn new(n: usize) -> MshrFile {
        MshrFile {
            entries: vec![Entry::FREE; n.max(1)],
            max_done: 0,
        }
    }

    /// Number of registers.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// True when at least one fill is still in flight at `now`.
    #[inline]
    pub fn any_in_flight(&self, now: u64) -> bool {
        self.max_done > now && self.entries.iter().any(|e| e.in_flight(now))
    }

    /// Earliest completion among in-flight fills (`None` when idle). This
    /// is the file's wake point: a core refused by a full file can make
    /// progress no earlier.
    #[inline]
    pub fn min_done(&self, now: u64) -> Option<u64> {
        self.entries
            .iter()
            .filter(|e| e.in_flight(now))
            .map(|e| e.done_at)
            .min()
    }

    /// Completion cycle of an in-flight fill of `line`, for clamping the
    /// latency of accesses that hit the tags while the line's fill is
    /// still on its way.
    #[inline]
    pub fn in_flight_done(&self, line: u64, now: u64) -> Option<u64> {
        if self.max_done <= now {
            return None;
        }
        self.entries
            .iter()
            .find(|e| e.in_flight(now) && e.line == line)
            .map(|e| e.done_at)
    }

    /// True when a demand for `line` can be accepted: it can merge with an
    /// existing fill, a register is free, or a ready-but-unconsumed
    /// prefetch can be evicted. This predicate is the pure issue gate and
    /// must match [`merge`](Self::merge)/[`alloc`](Self::alloc) exactly —
    /// a refusal implies every register is in flight, so the paired wake
    /// point [`min_done`](Self::min_done) always exists.
    #[inline]
    pub fn can_accept(&self, line: u64, now: u64) -> bool {
        self.entries.iter().any(|e| {
            e.is_free(now)
                || (e.valid && e.line == line)
                || (e.valid && e.prefetch && e.done_at <= now)
        })
    }

    /// True when a register is truly free (no eviction needed) — the
    /// allocation precondition for prefetches.
    pub fn has_free(&self, now: u64) -> bool {
        self.entries.iter().any(|e| e.is_free(now))
    }

    /// Wake point of a file that can currently refuse demands: when every
    /// register holds an in-flight fill, the earliest completion; `None`
    /// otherwise (a non-full file never blocks anything).
    #[inline]
    pub fn blocking_wake(&self, now: u64) -> Option<u64> {
        if self.entries.iter().all(|e| e.in_flight(now)) {
            self.min_done(now)
        } else {
            None
        }
    }

    /// Merges a demand miss of `line` into an existing fill, consuming a
    /// ready prefetch or attaching to an in-flight one. `pipe_done` is the
    /// cycle the demand would finish its own pipe traversal; the merged
    /// completion can never undercut it. `extend` lengthens the fill (the
    /// fault layer's scrub-on-fill penalty). Returns `None` when no entry
    /// for `line` exists.
    pub fn merge(&mut self, line: u64, now: u64, pipe_done: u64, extend: u32) -> Option<Merge> {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.valid && e.line == line && (e.prefetch || e.done_at > now))?;
        let was_prefetch = e.prefetch;
        let was_ready = e.done_at <= now;
        let done_at = e.done_at.max(pipe_done) + extend as u64;
        if was_ready {
            // Ready prefetch consumed: the fill buffer drains into the
            // cache and the slot is free again. What remains of `done_at`
            // is the demand's own pipe time, not fill time.
            *e = Entry::FREE;
        } else {
            // Still outstanding: it is a demand fill from here on.
            e.prefetch = false;
            e.done_at = done_at;
        }
        self.max_done = self.max_done.max(done_at);
        Some(Merge {
            done_at,
            was_prefetch,
        })
    }

    /// Allocates a register for a fill of `line` completing at `done_at`.
    /// Demand allocations (`prefetch == false`) may evict a ready-but-
    /// unconsumed prefetch; prefetch allocations only take truly free
    /// slots (they must never displace pending useful data). Returns
    /// whether a register was taken — callers fall back to inline
    /// (blocking) latency when it was not.
    pub fn alloc(&mut self, line: u64, done_at: u64, now: u64, prefetch: bool) -> bool {
        let slot = match self.entries.iter().position(|e| e.is_free(now)) {
            Some(i) => Some(i),
            None if !prefetch => {
                // Evict the stalest ready prefetch, if any.
                self.entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.valid && e.prefetch && e.done_at <= now)
                    .min_by_key(|(_, e)| e.done_at)
                    .map(|(i, _)| i)
            }
            None => None,
        };
        match slot {
            Some(i) => {
                self.entries[i] = Entry {
                    line,
                    done_at,
                    prefetch,
                    valid: true,
                };
                self.max_done = self.max_done.max(done_at);
                true
            }
            None => false,
        }
    }

    /// True when `line` already has an entry (in flight or ready) — used
    /// to suppress duplicate prefetches.
    pub fn tracks(&self, line: u64, now: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.valid && e.line == line && (e.prefetch || e.done_at > now))
    }
}

remap_snap::state!(Entry |e| { e.line, e.done_at, e.prefetch, e.valid });

remap_snap::state!(MshrFile |f| { exact f.entries, f.max_done });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_entries_free_lazily() {
        let mut f = MshrFile::new(2);
        assert!(f.alloc(0x100, 50, 0, false));
        assert!(f.alloc(0x200, 60, 0, false));
        assert!(!f.alloc(0x300, 70, 0, false), "file full at cycle 0");
        assert!(f.can_accept(0x100, 0), "same line can always merge");
        assert!(!f.can_accept(0x300, 0));
        assert_eq!(f.min_done(0), Some(50));
        // At cycle 50 the first entry has drained.
        assert!(f.alloc(0x300, 120, 50, false));
        assert_eq!(f.min_done(50), Some(60));
    }

    #[test]
    fn merge_clamps_to_fill_completion() {
        let mut f = MshrFile::new(2);
        f.alloc(0x100, 200, 0, false);
        let m = f.merge(0x100, 10, 22, 0).expect("in flight");
        assert_eq!(m.done_at, 200, "merged demand waits for the fill");
        assert!(!m.was_prefetch);
        assert_eq!(f.merge(0x200, 10, 22, 0), None, "untracked line");
    }

    #[test]
    fn ready_prefetch_is_consumed_once() {
        let mut f = MshrFile::new(1);
        f.alloc(0x100, 30, 0, true);
        assert!(f.tracks(0x100, 100), "ready prefetch keeps its slot");
        let m = f.merge(0x100, 100, 112, 0).expect("ready prefetch");
        assert!(m.was_prefetch);
        assert_eq!(m.done_at, 112, "data is waiting; only pipe time remains");
        assert!(!f.tracks(0x100, 100), "consumed");
        assert!(f.alloc(0x200, 300, 100, true), "slot is free again");
    }

    #[test]
    fn demand_alloc_evicts_ready_prefetch_but_prefetch_does_not() {
        let mut f = MshrFile::new(1);
        f.alloc(0x100, 30, 0, true);
        assert!(!f.alloc(0x200, 300, 50, true), "prefetch cannot evict");
        assert!(f.alloc(0x200, 300, 50, false), "demand can");
        assert!(f.tracks(0x200, 50) && !f.tracks(0x100, 50));
    }

    #[test]
    fn scrub_extension_lengthens_the_fill() {
        let mut f = MshrFile::new(1);
        f.alloc(0x100, 40, 0, true);
        let m = f.merge(0x100, 10, 22, 30).expect("in flight");
        assert_eq!(m.done_at, 70, "40 (fill) + 30 (scrub)");
        assert_eq!(f.in_flight_done(0x100, 10), Some(70), "entry extended");
    }

    #[test]
    fn idle_file_reports_no_wake_point() {
        let mut f = MshrFile::new(4);
        assert_eq!(f.min_done(0), None);
        assert!(!f.any_in_flight(0));
        f.alloc(0x100, 10, 0, false);
        assert!(f.any_in_flight(5));
        assert!(!f.any_in_flight(10), "fill landed");
    }
}
