//! Live-in value prediction for the squash-rate attack.
//!
//! The verify unit squashes a task when the master's checkpoint shipped a
//! stale live-in. Many of those staleness patterns are *predictable*: the
//! architected value at a given boundary repeats (last-value), advances
//! by a constant (stride), or follows the previous value (finite
//! context). The [`Predictor`] tracks, per `(boundary, register)` cell,
//! all three component predictors with saturating confidence counters and
//! offers a value only when one component is confident.
//!
//! Predictions are injected into a task's overlay at spawn, so every
//! predicted value is **read as a live-in and verified at commit** — a
//! wrong prediction costs a squash, exactly like a wrong master value.
//! Soundness therefore comes for free; the only rule the engine must
//! follow is the *train-on-verified-only* rule: the predictor observes
//! architected values at verify time (squash mismatches carry the
//! architected truth), never speculative ones, so a garbage master can
//! degrade prediction accuracy but never poison it with unverified data.

use std::collections::BTreeMap;

use mssp_isa::Reg;

/// Confidence a component must reach before its value is offered.
const CONF_THRESHOLD: u8 = 2;
/// Saturation ceiling for confidence counters (2-bit counters).
const CONF_MAX: u8 = 3;
/// Finite-context table entries kept per cell.
const CONTEXT_CAP: usize = 8;

/// One `(boundary, register)` cell: three component predictors plus
/// bookkeeping for accuracy reporting.
#[derive(Debug, Clone, Default)]
struct CellPredictor {
    last: u64,
    stride: i64,
    last_conf: u8,
    stride_conf: u8,
    /// Order-1 finite context: previous value → (next value, confidence).
    context: BTreeMap<u64, (u64, u8)>,
    observations: u64,
    last_correct: u64,
    stride_correct: u64,
    context_correct: u64,
}

impl CellPredictor {
    /// The value this cell would predict right now, if any component is
    /// confident. Preference order on confidence ties: context (most
    /// specific), then stride, then last-value.
    fn predict(&self) -> Option<u64> {
        let context = self
            .context
            .get(&self.last)
            .filter(|(_, c)| *c >= CONF_THRESHOLD)
            .map(|&(v, c)| (v, c));
        let mut best: Option<(u64, u8)> = None;
        if self.last_conf >= CONF_THRESHOLD {
            best = Some((self.last, self.last_conf));
        }
        if self.stride_conf >= CONF_THRESHOLD && best.is_none_or(|(_, c)| self.stride_conf >= c) {
            best = Some((self.last.wrapping_add_signed(self.stride), self.stride_conf));
        }
        if let Some((v, c)) = context {
            if best.is_none_or(|(_, bc)| c >= bc) {
                best = Some((v, c));
            }
        }
        best.map(|(v, _)| v)
    }

    /// Observes one verified architected value.
    fn train(&mut self, observed: u64) {
        if self.observations == 0 {
            self.last = observed;
            self.observations = 1;
            return;
        }
        // Last-value component.
        if observed == self.last {
            self.last_conf = (self.last_conf + 1).min(CONF_MAX);
            self.last_correct += 1;
        } else {
            self.last_conf = self.last_conf.saturating_sub(1);
        }
        // Stride component.
        if observed == self.last.wrapping_add_signed(self.stride) {
            self.stride_conf = (self.stride_conf + 1).min(CONF_MAX);
            self.stride_correct += 1;
        } else {
            self.stride_conf = self.stride_conf.saturating_sub(1);
            self.stride = observed.wrapping_sub(self.last) as i64;
        }
        // Finite-context component, keyed by the previous value.
        match self.context.get_mut(&self.last) {
            Some((v, c)) if *v == observed => {
                *c = (*c + 1).min(CONF_MAX);
                self.context_correct += 1;
            }
            Some(entry) => {
                if entry.1 == 0 {
                    *entry = (observed, 1);
                } else {
                    entry.1 -= 1;
                }
            }
            None => {
                if self.context.len() >= CONTEXT_CAP {
                    // Evict the lowest-confidence entry (ties: smallest key).
                    if let Some(&k) = self
                        .context
                        .iter()
                        .min_by_key(|(k, (_, c))| (*c, **k))
                        .map(|(k, _)| k)
                    {
                        self.context.remove(&k);
                    }
                }
                self.context.insert(self.last, (observed, 1));
            }
        }
        self.last = observed;
        self.observations += 1;
    }
}

/// Accuracy summary of one predictor, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorReport {
    /// `(boundary, register)` cells being tracked.
    pub cells: usize,
    /// Total verified observations across all cells.
    pub observations: u64,
    /// Observations the last-value component would have predicted.
    pub last_value_correct: u64,
    /// Observations the stride component would have predicted.
    pub stride_correct: u64,
    /// Observations the finite-context component would have predicted.
    pub context_correct: u64,
}

impl PredictorReport {
    /// Best-component accuracy in `[0, 1]`: the fraction of observations
    /// the strongest single component got right.
    #[must_use]
    pub fn best_accuracy(&self) -> f64 {
        // The first observation of a cell only primes it.
        let trainable = self.observations.saturating_sub(self.cells as u64);
        if trainable == 0 {
            return 0.0;
        }
        let best = self
            .last_value_correct
            .max(self.stride_correct)
            .max(self.context_correct);
        best as f64 / trainable as f64
    }
}

/// Per-boundary live-in value predictor (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Predictor {
    cells: BTreeMap<(u64, Reg), CellPredictor>,
}

impl Predictor {
    /// Observes the verified architected value of `reg` at `boundary`.
    /// Callers must only feed values taken from architected state at
    /// verify time (the train-on-verified-only rule).
    pub(crate) fn train(&mut self, boundary: u64, reg: Reg, observed: u64) {
        if reg.is_zero() {
            return;
        }
        self.cells
            .entry((boundary, reg))
            .or_default()
            .train(observed);
    }

    /// Confident predictions for a task spawned at `boundary`, in
    /// deterministic (register-ordered) order.
    #[must_use]
    pub(crate) fn predict(&self, boundary: u64) -> Vec<(Reg, u64)> {
        self.cells
            .range((boundary, Reg::ZERO)..=(boundary, Reg::new(mssp_isa::NUM_REGS as u8 - 1)))
            .filter_map(|(&(_, reg), cell)| cell.predict().map(|v| (reg, v)))
            .collect()
    }

    /// Aggregate accuracy report across all cells.
    #[must_use]
    pub(crate) fn report(&self) -> PredictorReport {
        let mut r = PredictorReport {
            cells: self.cells.len(),
            ..PredictorReport::default()
        };
        for cell in self.cells.values() {
            r.observations += cell.observations;
            r.last_value_correct += cell.last_correct;
            r.stride_correct += cell.stride_correct;
            r.context_correct += cell.context_correct;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_stays_silent() {
        let mut p = Predictor::default();
        assert!(p.predict(0x10000).is_empty());
        p.train(0x10000, Reg::S0, 7);
        assert!(
            p.predict(0x10000).is_empty(),
            "one observation is priming only"
        );
    }

    #[test]
    fn last_value_pattern_becomes_confident() {
        let mut p = Predictor::default();
        for _ in 0..4 {
            p.train(0x10000, Reg::S0, 42);
        }
        assert_eq!(p.predict(0x10000), vec![(Reg::S0, 42)]);
        // Other boundaries are unaffected.
        assert!(p.predict(0x10004).is_empty());
    }

    #[test]
    fn stride_pattern_tracks_the_sequence() {
        let mut p = Predictor::default();
        for v in (100..160).step_by(12) {
            p.train(0x10000, Reg::A0, v);
        }
        assert_eq!(p.predict(0x10000), vec![(Reg::A0, 160)]);
    }

    #[test]
    fn context_pattern_learns_alternation() {
        let mut p = Predictor::default();
        for _ in 0..6 {
            p.train(0x10000, Reg::T0, 5);
            p.train(0x10000, Reg::T0, 9);
        }
        // last == 9, context says 9 → 5.
        assert_eq!(p.predict(0x10000), vec![(Reg::T0, 5)]);
    }

    #[test]
    fn noise_is_not_predicted() {
        let mut p = Predictor::default();
        // An LCG-ish sequence no component can track.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..32 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            p.train(0x10000, Reg::S1, x);
        }
        assert!(p.predict(0x10000).is_empty());
        assert!(p.report().best_accuracy() < 0.5);
    }

    #[test]
    fn zero_register_is_never_tracked() {
        let mut p = Predictor::default();
        for _ in 0..8 {
            p.train(0x10000, Reg::ZERO, 0);
        }
        assert!(p.predict(0x10000).is_empty());
        assert_eq!(p.report().cells, 0);
    }
}
