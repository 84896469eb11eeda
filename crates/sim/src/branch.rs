//! Branch direction prediction (gshare).
//!
//! The timing model charges a pipeline-flush penalty for each mispredicted
//! conditional branch. Distilled programs mispredict *less* (the distiller
//! removed hard-to-predict cold excursions and asserted biased branches),
//! which is one of the secondary reasons the master runs fast — the paper
//! makes the same observation about distilled code quality.

/// Gshare predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GshareConfig {
    /// log2 of the pattern-history table size.
    pub table_bits: u32,
    /// Global history length in bits (≤ `table_bits`).
    pub history_bits: u32,
}

impl Default for GshareConfig {
    fn default() -> GshareConfig {
        GshareConfig {
            table_bits: 12,
            history_bits: 12,
        }
    }
}

/// Prediction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Correct direction predictions.
    pub correct: u64,
    /// Mispredictions.
    pub mispredicted: u64,
}

/// A gshare branch direction predictor: global history XOR PC indexes a
/// table of 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    /// `1 << table_bits` counters.
    table: Vec<u8>,
    /// Global history, kept masked to `history_bits`.
    history: u64,
    history_mask: u64,
    stats: BranchStats,
}

impl Gshare {
    /// Creates a predictor with all counters weakly-not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits > table_bits` or `table_bits > 24`.
    #[must_use]
    pub(crate) fn new(config: GshareConfig) -> Gshare {
        assert!(config.history_bits <= config.table_bits);
        assert!(config.table_bits <= 24, "table too large");
        Gshare {
            table: vec![1; 1 << config.table_bits],
            history: 0,
            history_mask: (1 << config.history_bits) - 1,
            stats: BranchStats::default(),
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) ^ self.history) as usize & (self.table.len() - 1)
    }

    /// Predicts the branch at `pc`, then updates with the actual `taken`
    /// outcome. Returns whether the prediction was correct.
    #[inline]
    pub(crate) fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx] >= 2;
        let correct = predicted == taken;
        if correct {
            self.stats.correct += 1;
        } else {
            self.stats.mispredicted += 1;
        }
        // 2-bit saturating counter update.
        if taken {
            self.table[idx] = (self.table[idx] + 1).min(3);
        } else {
            self.table[idx] = self.table[idx].saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
        correct
    }

    /// Prediction counters.
    #[must_use]
    pub(crate) fn stats(&self) -> BranchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_constant_direction() {
        let mut bp = Gshare::new(GshareConfig::default());
        // Train until the global history register saturates (all-taken)
        // and the counters along the way are warm.
        for _ in 0..32 {
            bp.predict_and_update(0x100, true);
        }
        for _ in 0..100 {
            assert!(bp.predict_and_update(0x100, true));
        }
    }

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        let mut bp = Gshare::new(GshareConfig::default());
        let mut taken = false;
        // Train on a strict alternation; gshare's history disambiguates.
        for _ in 0..64 {
            bp.predict_and_update(0x200, taken);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if bp.predict_and_update(0x200, taken) {
                correct += 1;
            }
            taken = !taken;
        }
        assert!(correct > 95, "only {correct}/100 correct");
    }

    #[test]
    fn random_like_pattern_mispredicts_substantially() {
        let mut bp = Gshare::new(GshareConfig::default());
        // A pseudo-random direction stream (LCG parity) defeats history.
        let mut x: u64 = 12345;
        let mut miss = 0u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 62) & 1 == 1;
            if !bp.predict_and_update(0x300, taken) {
                miss += 1;
            }
        }
        assert!(miss > 2_000, "implausibly good: {miss} misses");
    }

    #[test]
    fn stats_accumulate() {
        let mut bp = Gshare::new(GshareConfig::default());
        for _ in 0..10 {
            bp.predict_and_update(0x100, true);
        }
        let s = bp.stats();
        assert_eq!(s.correct + s.mispredicted, 10);
        // Cold counters are weakly-not-taken: the first taken branch
        // mispredicts.
        assert!(s.mispredicted > 0);
    }
}

/// A direct-mapped branch target buffer: predicts the *target address* of
/// indirect jumps (`jalr`). A miss or wrong-target prediction costs the
/// pipeline a refill, exactly like a direction misprediction.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>,
}

impl Btb {
    /// Creates a BTB with `entries` slots (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub(crate) fn new(entries: usize) -> Btb {
        assert!(entries > 0);
        Btb {
            entries: vec![None; entries.next_power_of_two()],
        }
    }

    /// Predicts the target of the indirect jump at `pc`, then updates with
    /// the `actual` target. Returns whether the prediction was correct.
    pub(crate) fn predict_and_update(&mut self, pc: u64, actual: u64) -> bool {
        let idx = ((pc >> 2) as usize) & (self.entries.len() - 1);
        let correct =
            matches!(self.entries[idx], Some((tag, target)) if tag == pc && target == actual);
        self.entries[idx] = Some((pc, actual));
        correct
    }
}

#[cfg(test)]
mod btb_tests {
    use super::Btb;

    #[test]
    fn learns_stable_targets() {
        let mut btb = Btb::new(64);
        assert!(!btb.predict_and_update(0x100, 0x4000));
        for _ in 0..10 {
            assert!(btb.predict_and_update(0x100, 0x4000));
        }
    }

    #[test]
    fn polymorphic_targets_keep_missing() {
        let mut btb = Btb::new(64);
        let mut miss = 0;
        for i in 0..100u64 {
            if !btb.predict_and_update(0x200, 0x1000 + (i % 3) * 0x100) {
                miss += 1;
            }
        }
        assert!(miss > 60);
    }

    #[test]
    fn aliasing_pcs_evict_each_other() {
        let mut btb = Btb::new(1); // everything aliases
        assert!(!btb.predict_and_update(0x100, 0xA));
        assert!(!btb.predict_and_update(0x200, 0xB));
        assert!(!btb.predict_and_update(0x100, 0xA));
    }
}
