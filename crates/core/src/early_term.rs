//! Early-termination rule (§IV of the paper).
//!
//! To save power the decoder stops iterating when both of the following hold:
//!
//! 1. the hard decisions of the *information* bits have not changed over two
//!    successive iterations, and
//! 2. the minimum absolute LLR of the information bits exceeds a pre-defined
//!    threshold.
//!
//! At good channel conditions this terminates most frames after a couple of
//! iterations and yields the up-to-65 % power reduction of Fig. 9(a).

use crate::arith::{DecoderArithmetic, Message};

/// Configuration of the early-termination rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyTermination {
    /// Minimum absolute information-bit LLR required to allow termination.
    pub threshold: f64,
}

impl Default for EarlyTermination {
    /// A threshold of 4.0 LLR units (16 LSBs of the Q6.2 datapath).
    fn default() -> Self {
        EarlyTermination { threshold: 4.0 }
    }
}

impl EarlyTermination {
    /// Creates a rule with the given LLR threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative.
    #[must_use]
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        EarlyTermination { threshold }
    }

    /// One check of the rule for one frame, given the information-bit
    /// messages of the iteration that just finished (`info`, in bit order).
    ///
    /// A single pass packs the hard decisions into `history` (which answers
    /// the stability half) and takes min |m| in the message domain — an
    /// integer minimum for the fixed-point back-ends; only that minimum is
    /// converted to an LLR, exactly, and compared against the threshold.
    /// The history update runs on every call, whatever the outcome.
    pub(crate) fn reached<A: DecoderArithmetic>(
        &self,
        arith: &A,
        history: &mut DecisionHistory,
        info: impl ExactSizeIterator<Item = A::Msg>,
    ) -> bool {
        let mut least = <A::Msg as Message>::UNBOUNDED;
        let stable = history.record(
            info.len(),
            info.map(|m| {
                let magnitude = m.magnitude();
                if magnitude < least {
                    least = magnitude;
                }
                arith.hard_bit(m) != 0
            }),
        );
        // `UNBOUNDED` only survives an empty scan, whose minimum is +∞.
        let min_abs = if least == <A::Msg as Message>::UNBOUNDED {
            f64::INFINITY
        } else {
            arith.magnitude(least)
        };
        stable && min_abs > self.threshold
    }
}

/// Hard-decision history across iterations — the *stability* half of the
/// termination rule, shared by [`TerminationTracker`] and the decode engine
/// (which keeps one history per frame in its
/// [`crate::workspace::DecodeWorkspace`]).
///
/// Decisions are packed 64 to a word and compared word by word while they
/// are recorded; the buffer is reused across iterations and frames, so
/// steady-state updates perform no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct DecisionHistory {
    words: Vec<u64>,
    /// Number of decisions recorded last (meaningful when `has_previous`).
    len: usize,
    has_previous: bool,
}

impl DecisionHistory {
    /// An empty history (nothing recorded yet).
    #[must_use]
    pub fn new() -> Self {
        DecisionHistory::default()
    }

    /// Returns whether `decisions` (non-zero = bit 1) match the previously
    /// recorded iteration, then records them. The first call after a reset
    /// always returns `false`.
    pub fn stable_update(&mut self, decisions: &[u8]) -> bool {
        self.record(decisions.len(), decisions.iter().map(|&d| d != 0))
    }

    /// [`stable_update`](Self::stable_update) over `len` decisions given as
    /// bits: packs them, compares each word against the previous record and
    /// overwrites it in the same pass.
    pub(crate) fn record(&mut self, len: usize, bits: impl Iterator<Item = bool>) -> bool {
        let word_count = len.div_ceil(64);
        if self.words.len() < word_count {
            self.words.resize(word_count, 0);
        }
        let mut changed = 0u64;
        let mut word = 0u64;
        let mut shift = 0u32;
        let mut index = 0usize;
        for bit in bits.take(len) {
            word |= u64::from(bit) << shift;
            shift += 1;
            if shift == 64 {
                changed |= word ^ self.words[index];
                self.words[index] = word;
                index += 1;
                word = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            changed |= word ^ self.words[index];
            self.words[index] = word;
        }
        let stable = self.has_previous && self.len == len && changed == 0;
        self.len = len;
        self.has_previous = true;
        stable
    }

    /// Forgets the recorded decisions (start of a new frame). Keeps the
    /// buffer, so the next frame allocates nothing.
    pub fn reset(&mut self) {
        self.has_previous = false;
    }

    /// Grows the record buffer to hold `len` decisions without reallocating.
    pub(crate) fn reserve(&mut self, len: usize) {
        let words = len.div_ceil(64);
        if self.words.capacity() < words {
            self.words.reserve_exact(words - self.words.len());
        }
    }

    /// Whether the buffer can hold `len` decisions without reallocating.
    pub(crate) fn is_ready(&self, len: usize) -> bool {
        self.words.capacity() >= len.div_ceil(64)
    }

    /// Pointer/capacity of the record buffer (allocation-fingerprint support).
    pub(crate) fn fingerprint(&self) -> (usize, usize) {
        (self.words.as_ptr() as usize, self.words.capacity())
    }
}

impl PartialEq for DecisionHistory {
    fn eq(&self, other: &Self) -> bool {
        // Two histories agree when they would answer the next stable_update
        // identically; leftover buffer content behind a reset is invisible.
        let words = self.len.div_ceil(64);
        self.has_previous == other.has_previous
            && (!self.has_previous
                || (self.len == other.len && self.words[..words] == other.words[..words]))
    }
}

/// Tracks hard decisions across iterations and evaluates the termination rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminationTracker {
    rule: EarlyTermination,
    history: DecisionHistory,
}

impl TerminationTracker {
    /// Creates a tracker for one frame.
    #[must_use]
    pub fn new(rule: EarlyTermination) -> Self {
        TerminationTracker {
            rule,
            history: DecisionHistory::new(),
        }
    }

    /// Feeds the information-bit hard decisions and LLR magnitudes of the
    /// iteration that just finished; returns `true` if decoding may stop.
    pub fn should_terminate(&mut self, info_decisions: &[u8], min_abs_info_llr: f64) -> bool {
        let stable = self.history.stable_update(info_decisions);
        stable && min_abs_info_llr > self.rule.threshold
    }

    /// Resets the tracker for a new frame.
    pub fn reset(&mut self) {
        self.history.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_is_positive() {
        assert!(EarlyTermination::default().threshold > 0.0);
    }

    #[test]
    fn never_terminates_on_first_iteration() {
        let mut t = TerminationTracker::new(EarlyTermination::default());
        assert!(!t.should_terminate(&[0, 1, 0], 100.0));
    }

    #[test]
    fn terminates_when_stable_and_confident() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(4.0));
        assert!(!t.should_terminate(&[0, 1, 0], 10.0));
        assert!(t.should_terminate(&[0, 1, 0], 10.0));
    }

    #[test]
    fn does_not_terminate_when_decisions_change() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(4.0));
        assert!(!t.should_terminate(&[0, 1, 0], 10.0));
        assert!(!t.should_terminate(&[0, 1, 1], 10.0));
        // Now stable again but only for one pair of iterations.
        assert!(t.should_terminate(&[0, 1, 1], 10.0));
    }

    #[test]
    fn does_not_terminate_below_threshold() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(4.0));
        assert!(!t.should_terminate(&[1, 1], 3.0));
        assert!(!t.should_terminate(&[1, 1], 3.9));
        assert!(
            !t.should_terminate(&[1, 1], 4.0),
            "strictly larger required"
        );
        assert!(t.should_terminate(&[1, 1], 4.1));
    }

    #[test]
    fn reset_clears_history() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(1.0));
        assert!(!t.should_terminate(&[0], 5.0));
        t.reset();
        assert!(!t.should_terminate(&[0], 5.0));
        assert!(t.should_terminate(&[0], 5.0));
    }

    /// The f64 rule the one-pass scan replaced: decisions and min |LLR|
    /// both read through `to_llr`, decisions kept as a byte vector.
    fn f64_rule<A: DecoderArithmetic>(
        arith: &A,
        threshold: f64,
        previous: &mut Option<Vec<u8>>,
        info: &[A::Msg],
    ) -> bool {
        let decisions: Vec<u8> = info
            .iter()
            .map(|&m| u8::from(arith.to_llr(m) < 0.0))
            .collect();
        let min_abs = info
            .iter()
            .map(|&m| arith.to_llr(m).abs())
            .fold(f64::INFINITY, f64::min);
        let stable = previous.as_deref() == Some(&decisions[..]);
        *previous = Some(decisions);
        stable && min_abs > threshold
    }

    /// Feeds `iterations` through both rules at every threshold, checking
    /// they agree call by call.
    fn check_against_f64_rule<A: DecoderArithmetic>(
        arith: &A,
        iterations: &[Vec<A::Msg>],
        thresholds: &[f64],
    ) {
        for &threshold in thresholds {
            let rule = EarlyTermination::with_threshold(threshold);
            let mut history = DecisionHistory::new();
            let mut previous = None;
            for (i, info) in iterations.iter().enumerate() {
                assert_eq!(
                    rule.reached(arith, &mut history, info.iter().copied()),
                    f64_rule(arith, threshold, &mut previous, info),
                    "{}: iteration {i}, threshold {threshold}",
                    arith.name()
                );
            }
        }
    }

    /// Info-bit code vectors of 130 bits (two full words and a partial
    /// one) with minimum magnitude `floor`: a pseudo-random start, the same
    /// signs with other magnitudes, then one sign flip at each word edge.
    fn code_iterations(max: i32, floor: i32) -> Vec<Vec<i32>> {
        let mut base: Vec<i32> = (0..130u32)
            .map(|i| {
                let v = (i.wrapping_mul(2_654_435_761) >> 7) as i32 % (max - floor + 1) + floor;
                if i % 3 == 0 {
                    -v
                } else {
                    v
                }
            })
            .collect();
        base[5] = -floor; // the minimum magnitude, exactly
        let mut out = vec![base.clone(), base.clone()];
        out.push(
            base.iter()
                .map(|&c| c.signum() * (c.abs() + 1).min(max))
                .collect(),
        );
        for flip in [0usize, 63, 64, 127, 128, 129] {
            let mut v = out.last().unwrap().clone();
            v[flip] = -v[flip];
            out.push(v.clone());
            out.push(v);
        }
        out
    }

    #[test]
    fn integer_rule_matches_the_f64_rule() {
        use crate::arith::{FixedBpArithmetic, FixedMinSumArithmetic};
        use crate::fixedpoint::FixedFormat;
        let arithmetics = [
            FixedBpArithmetic::default(),
            FixedBpArithmetic::new(FixedFormat::new(6, 1), 3),
            FixedBpArithmetic::new(FixedFormat::new(12, 5), 3),
        ];
        for arith in &arithmetics {
            let fmt = arith.format();
            let max = arith.app_format().max_code();
            for floor in [1, 7, 16] {
                let iterations = code_iterations(max, floor);
                // Thresholds on either side of, and exactly at, every
                // minimum the vectors reach (the rule is strict).
                let thresholds: Vec<f64> = (0..=floor + 2)
                    .flat_map(|k| {
                        let t = fmt.dequantize(k);
                        [t, t + fmt.step() / 2.0, t.next_up()]
                    })
                    .chain([4.0])
                    .collect();
                check_against_f64_rule(arith, &iterations, &thresholds);
            }
        }
        let min_sum = FixedMinSumArithmetic::default();
        let iterations = code_iterations(min_sum.app_format().max_code(), 16);
        check_against_f64_rule(&min_sum, &iterations, &[0.0, 3.75, 4.0, 4.25]);
        // Zero codes (Min-Sum can produce them): min |code| = 0.
        let zeros = vec![vec![0i32; 70], vec![0; 70]];
        check_against_f64_rule(&min_sum, &zeros, &[0.0, 0.25]);
    }

    #[test]
    fn float_rule_matches_the_f64_rule_including_nan_and_signed_zero() {
        use crate::arith::FloatBpArithmetic;
        let arith = FloatBpArithmetic::default();
        let mut info: Vec<f64> = (0..100).map(|i| (i as f64 - 40.5) * 0.37).collect();
        info[3] = -0.0;
        info[70] = f64::NAN;
        let iterations = vec![info.clone(), info.clone(), {
            let mut v = info;
            v[99] = -v[99];
            v
        }];
        check_against_f64_rule(&arith, &iterations, &[0.0, 0.1, 4.0, 14.0]);
        let nan_only = vec![vec![f64::NAN; 5], vec![f64::NAN; 5]];
        check_against_f64_rule(&arith, &nan_only, &[0.0, 1e300]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_negative_threshold() {
        let _ = EarlyTermination::with_threshold(-1.0);
    }
}
