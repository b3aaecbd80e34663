//! Hybrid gshare + bimodal branch predictor with BTB and return-address
//! stack, per Table II of the paper.

use remap_snap::{load_trained, save_trained, Reader, SnapError, State, Writer};

/// Prediction returned by [`Predictor::predict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prediction {
    /// Predicted direction for conditional branches (always `true` for
    /// unconditional jumps).
    pub taken: bool,
    /// Predicted target instruction index, if the BTB (or RAS) knows one.
    /// `None` models a BTB miss: the front end cannot redirect until the
    /// branch resolves even if predicted taken.
    pub target: Option<u32>,
    /// Snapshot of the global history register for recovery on squash.
    pub history: u32,
}

/// Predictor activity counters for the power model and reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredStats {
    /// Direction lookups.
    pub lookups: u64,
    /// Conditional branches whose direction was mispredicted.
    pub dir_mispredicts: u64,
    /// Taken control transfers whose target was unknown or wrong in the BTB.
    pub target_mispredicts: u64,
    /// RAS pushes + pops.
    pub ras_ops: u64,
}

/// Reset value of the direction counters (weakly not-taken).
const DIR_RESET: u8 = 1;
/// Reset value of the chooser (weakly trusts gshare).
const CHOOSER_RESET: u8 = 2;
/// Largest value of a 2-bit saturating counter.
const COUNTER_MAX: u8 = 3;

fn counter_update(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// A hybrid (tournament) predictor: a gshare component indexed by
/// `PC ⊕ history`, a bimodal component indexed by `PC`, and a chooser table
/// that learns per-branch which component to trust, plus a direct-mapped BTB
/// and a return-address stack.
///
/// ```
/// use remap_cpu::Predictor;
/// let mut p = Predictor::new(12, 128, 32);
/// // A strongly-biased branch becomes predictable after training.
/// for _ in 0..8 { let pr = p.predict(10, true); p.update(10, true, 42, pr); }
/// assert!(p.predict(10, true).taken);
/// ```
#[derive(Debug, Clone)]
pub struct Predictor {
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    chooser: Vec<u8>, // 0..=3: low trusts bimodal, high trusts gshare
    history: u32,
    mask: u32,
    btb: Vec<Option<(u32, u32)>>, // (pc, target)
    ras: Vec<u32>,
    ras_max: usize,
    stats: PredStats,
}

impl Predictor {
    /// Creates a predictor with `bits`-indexed tables, `btb_entries` BTB
    /// slots and a `ras_max`-deep return-address stack.
    pub fn new(bits: u32, btb_entries: usize, ras_max: usize) -> Predictor {
        let n = 1usize << bits;
        Predictor {
            gshare: vec![DIR_RESET; n],
            bimodal: vec![DIR_RESET; n],
            chooser: vec![CHOOSER_RESET; n],
            history: 0,
            mask: (n - 1) as u32,
            btb: vec![None; btb_entries],
            ras: Vec::with_capacity(ras_max),
            ras_max,
            stats: PredStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> &PredStats {
        &self.stats
    }

    fn gshare_idx(&self, pc: u32) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }

    fn bimodal_idx(&self, pc: u32) -> usize {
        (pc & self.mask) as usize
    }

    /// Predicts a control-flow instruction at `pc`. `conditional` selects
    /// whether the direction tables are consulted (unconditional transfers
    /// are always taken). Speculatively updates the global history.
    #[inline]
    pub fn predict(&mut self, pc: u32, conditional: bool) -> Prediction {
        self.stats.lookups += 1;
        let history = self.history;
        let taken = if conditional {
            let g = self.gshare[self.gshare_idx(pc)] >= 2;
            let b = self.bimodal[self.bimodal_idx(pc)] >= 2;
            let use_g = self.chooser[self.bimodal_idx(pc)] >= 2;
            let t = if use_g { g } else { b };
            // Speculative history insert (recovered on mispredict).
            self.history = ((self.history << 1) | t as u32) & self.mask;
            t
        } else {
            true
        };
        let target = self.btb_lookup(pc);
        Prediction {
            taken,
            target,
            history,
        }
    }

    fn btb_lookup(&self, pc: u32) -> Option<u32> {
        let e = self.btb[(pc as usize) % self.btb.len()];
        match e {
            Some((tag, tgt)) if tag == pc => Some(tgt),
            _ => None,
        }
    }

    /// Resolves a control-flow instruction: trains the tables, installs the
    /// BTB entry, repairs speculative history on a direction mispredict.
    /// `pred` must be the value returned by the matching [`predict`] call.
    ///
    /// [`predict`]: Predictor::predict
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool, target: u32, pred: Prediction) {
        // Train direction tables using the history at prediction time.
        let gi = ((pc ^ pred.history) & self.mask) as usize;
        let bi = (pc & self.mask) as usize;
        let g_correct = (self.gshare[gi] >= 2) == taken;
        let b_correct = (self.bimodal[bi] >= 2) == taken;
        if g_correct != b_correct {
            counter_update(&mut self.chooser[bi], g_correct);
        }
        counter_update(&mut self.gshare[gi], taken);
        counter_update(&mut self.bimodal[bi], taken);
        if taken != pred.taken {
            self.stats.dir_mispredicts += 1;
            // Repair the speculative history with the actual outcome.
            self.history = (((pred.history << 1) | taken as u32) & self.mask).to_owned();
        }
        if taken {
            let slot = (pc as usize) % self.btb.len();
            let hit = matches!(self.btb[slot], Some((tag, tgt)) if tag == pc && tgt == target);
            if !hit {
                self.stats.target_mispredicts += 1;
                self.btb[slot] = Some((pc, target));
            }
        }
    }

    /// Pushes a return address (call).
    #[inline]
    pub fn ras_push(&mut self, ret: u32) {
        self.stats.ras_ops += 1;
        if self.ras.len() == self.ras_max {
            self.ras.remove(0);
        }
        self.ras.push(ret);
    }

    /// Pops a predicted return address (return).
    #[inline]
    pub fn ras_pop(&mut self) -> Option<u32> {
        self.stats.ras_ops += 1;
        self.ras.pop()
    }
}

remap_snap::state!(Prediction |p| { p.taken, p.target, p.history });

remap_snap::state!(PredStats |s| { s.lookups, s.dir_mispredicts, s.target_mispredicts, s.ras_ops });

/// The direction tables travel as their trained entries (a `gshare`
/// length prefix pins the geometry) and the BTB as its occupied slots,
/// `slot, pc, target` in slot order, so a snapshot costs what the
/// predictor learned, not its table sizes. Load first resets every table
/// and empties the BTB, so a dirty target ends exactly like a fresh one.
impl State for Predictor {
    fn save(&self, w: &mut Writer) {
        w.put_len(self.gshare.len());
        save_trained(w, &self.gshare, DIR_RESET);
        save_trained(w, &self.bimodal, DIR_RESET);
        save_trained(w, &self.chooser, CHOOSER_RESET);
        self.history.save(w);
        w.put_len(self.btb.iter().flatten().count());
        for (slot, e) in self.btb.iter().enumerate() {
            if let Some(entry) = e {
                slot.save(w);
                entry.save(w);
            }
        }
        self.ras.save(w);
        self.stats.save(w);
    }

    fn load(&mut self, r: &mut Reader) -> Result<(), SnapError> {
        r.exact_len(self.gshare.len())?;
        load_trained(r, &mut self.gshare, DIR_RESET, COUNTER_MAX)?;
        load_trained(r, &mut self.bimodal, DIR_RESET, COUNTER_MAX)?;
        load_trained(r, &mut self.chooser, CHOOSER_RESET, COUNTER_MAX)?;
        self.history.load(r)?;
        // Charged at the encoded entry size: slot 8, pc 4, target 4.
        let n = r.get_len::<[u8; 16]>()?;
        self.btb.fill(None);
        let mut next = 0;
        for _ in 0..n {
            let slot = r.get_index(&mut next, self.btb.len())?;
            let entry = <(u32, u32)>::read(r)?;
            if entry.0 as usize % self.btb.len() != slot {
                return Err(SnapError::Corrupt(format!(
                    "BTB slot {slot} holds pc {}, which maps elsewhere",
                    entry.0
                )));
            }
            self.btb[slot] = Some(entry);
        }
        self.ras.load(r)?;
        self.stats.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Predictor {
        Predictor::new(10, 64, 4)
    }

    #[test]
    fn learns_always_taken() {
        let mut pr = p();
        for _ in 0..4 {
            let pred = pr.predict(100, true);
            pr.update(100, true, 7, pred);
        }
        assert!(pr.predict(100, true).taken);
    }

    #[test]
    fn learns_never_taken() {
        let mut pr = p();
        for _ in 0..4 {
            let pred = pr.predict(100, true);
            pr.update(100, false, 7, pred);
        }
        assert!(!pr.predict(100, true).taken);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut pr = p();
        // Pattern TNTNTN... is history-predictable: after warmup the hybrid
        // should stop mispredicting.
        let mut t = true;
        for _ in 0..64 {
            let pred = pr.predict(5, true);
            pr.update(5, t, 9, pred);
            t = !t;
        }
        let before = pr.stats().dir_mispredicts;
        for _ in 0..64 {
            let pred = pr.predict(5, true);
            pr.update(5, t, 9, pred);
            t = !t;
        }
        let after = pr.stats().dir_mispredicts;
        assert!(
            after - before <= 4,
            "alternating pattern should be learned, got {} extra mispredicts",
            after - before
        );
    }

    #[test]
    fn btb_fill_and_hit() {
        let mut pr = p();
        let pred = pr.predict(33, true);
        assert_eq!(pred.target, None, "cold BTB misses");
        pr.update(33, true, 77, pred);
        assert_eq!(pr.predict(33, true).target, Some(77));
    }

    #[test]
    fn btb_conflict_evicts() {
        let mut pr = p();
        let pred = pr.predict(1, true);
        pr.update(1, true, 10, pred);
        let pred = pr.predict(65, true); // 65 % 64 == 1
        pr.update(65, true, 20, pred);
        assert_eq!(
            pr.predict(1, true).target,
            None,
            "conflicting entry evicted"
        );
    }

    #[test]
    fn unconditional_is_always_taken() {
        let mut pr = p();
        assert!(pr.predict(50, false).taken);
    }

    #[test]
    fn ras_lifo_and_overflow() {
        let mut pr = p();
        for i in 0..6 {
            pr.ras_push(i);
        }
        assert_eq!(pr.ras_pop(), Some(5));
        assert_eq!(pr.ras_pop(), Some(4));
        assert_eq!(pr.ras_pop(), Some(3));
        assert_eq!(pr.ras_pop(), Some(2));
        assert_eq!(pr.ras_pop(), None, "oldest entries were shifted out");
    }

    fn saved(p: &Predictor) -> Vec<u8> {
        let mut w = Writer::new();
        p.save(&mut w);
        w.into_vec()
    }

    fn restored(target: &mut Predictor, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = Reader::new(bytes);
        target.load(&mut r)?;
        r.finish()
    }

    /// Trains `p` on `branches` branch sites starting at `pc0`, each
    /// taken on a pattern of its own.
    fn train(p: &mut Predictor, pc0: u32, branches: u32) {
        for round in 0..16 {
            for pc in pc0..pc0 + branches {
                let pred = p.predict(pc, true);
                p.update(pc, (round + pc) % 3 != 0, pc + 100, pred);
            }
        }
        p.ras_push(pc0);
    }

    fn same(a: &Predictor, b: &Predictor) -> bool {
        (
            &a.gshare, &a.bimodal, &a.chooser, a.history, &a.btb, &a.ras, a.stats,
        ) == (
            &b.gshare, &b.bimodal, &b.chooser, b.history, &b.btb, &b.ras, b.stats,
        )
    }

    #[test]
    fn trained_predictor_round_trips_into_fresh_and_dirty_targets() {
        let mut donor = Predictor::new(10, 128, 4);
        train(&mut donor, 40, 24);
        let bytes = saved(&donor);
        let mut fresh = Predictor::new(10, 128, 4);
        restored(&mut fresh, &bytes).unwrap();
        assert!(same(&fresh, &donor));
        assert_eq!(saved(&fresh), bytes);

        // The dirty target trained sites and BTB slots the donor never
        // touched: they end at their reset value and empty.
        let mut dirty = Predictor::new(10, 128, 4);
        train(&mut dirty, 600, 60);
        restored(&mut dirty, &bytes).unwrap();
        assert!(same(&dirty, &donor));
        assert!(dirty.bimodal[600..660].iter().all(|&c| c == DIR_RESET));
        assert!(dirty.chooser[600..660].iter().all(|&c| c == CHOOSER_RESET));
        assert_eq!(saved(&dirty), bytes);

        // Only what was learned travels: under the 3 KiB the dense tables
        // alone took, and an untrained predictor costs only its prefixes.
        assert!(bytes.len() < 3 * 1024, "{} bytes", bytes.len());
        let untrained = saved(&Predictor::new(10, 128, 4));
        assert_eq!(untrained.len(), 8 + 3 * 8 + 4 + 8 + 8 + 4 * 8);
    }

    /// A predictor encoding with the given `gshare` entries and BTB slots
    /// and nothing else trained.
    fn encode(gshare: &[(u64, u8)], btb: &[(u64, u32, u32)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(1024);
        w.put_len(gshare.len());
        for &(i, v) in gshare {
            (i, v).save(&mut w);
        }
        w.put_len(0);
        w.put_len(0);
        0u32.save(&mut w);
        w.put_len(btb.len());
        for &(slot, pc, target) in btb {
            (slot, (pc, target)).save(&mut w);
        }
        Vec::<u32>::new().save(&mut w);
        PredStats::default().save(&mut w);
        w.into_vec()
    }

    #[test]
    fn corrupt_predictor_entries_are_refused() {
        let good = encode(&[(3, 0), (1023, 3)], &[(5, 133, 9)]);
        restored(&mut Predictor::new(10, 128, 4), &good).unwrap();
        for (what, gshare, btb) in [
            ("counter index out of order", vec![(9, 0), (3, 3)], vec![]),
            ("counter index repeated", vec![(3, 0), (3, 3)], vec![]),
            ("counter index past the table", vec![(1024, 2)], vec![]),
            ("counter of 4", vec![(3, 4)], vec![]),
            ("BTB slot 128", vec![], vec![(128, 128, 9)]),
            ("BTB slots out of order", vec![], vec![(6, 6, 9), (5, 5, 9)]),
            ("BTB pc of another slot", vec![], vec![(5, 6, 9)]),
        ] {
            let mut target = Predictor::new(10, 128, 4);
            let bytes = encode(&gshare, &btb);
            assert!(
                matches!(restored(&mut target, &bytes), Err(SnapError::Corrupt(_))),
                "{what}"
            );
        }
        // A count larger than the payload, in the first table and in the
        // BTB, is refused before anything is reserved.
        let mut huge = good.clone();
        huge[8..16].copy_from_slice(&1000u64.to_le_bytes());
        let at = good.len() - 4 * 8 - 8 - 16 - 8;
        assert_eq!(good[at..at + 8], 1u64.to_le_bytes(), "BTB count");
        let mut huge_btb = good.clone();
        huge_btb[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        for bad in [huge, huge_btb] {
            assert_eq!(
                restored(&mut Predictor::new(10, 128, 4), &bad),
                Err(SnapError::Truncated)
            );
        }
        for cut in 0..good.len() {
            assert_eq!(
                restored(&mut Predictor::new(10, 128, 4), &good[..cut]),
                Err(SnapError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn mispredict_counted() {
        let mut pr = p();
        // Train strongly not-taken, then observe taken.
        for _ in 0..4 {
            let pred = pr.predict(8, true);
            pr.update(8, false, 3, pred);
        }
        let m0 = pr.stats().dir_mispredicts;
        let pred = pr.predict(8, true);
        pr.update(8, true, 3, pred);
        assert_eq!(pr.stats().dir_mispredicts, m0 + 1);
    }
}
