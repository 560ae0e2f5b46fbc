//! Fixed-point message format of the hardware datapath.
//!
//! The SISO datapath of the paper carries 8-bit two's-complement messages
//! (Fig. 3 shows 8-bit buses). [`FixedFormat`] describes such a format — total
//! word width `W` and fractional bits `F` — and provides the saturating
//! integer-code arithmetic the decoder and the SISO models share. Messages are
//! carried as `i32` *codes*; a code `c` represents the LLR value `c · 2^-F`.
//! The representable range is symmetric, `[-(2^{W-1}-1), 2^{W-1}-1]`, which is
//! the customary choice for LLR datapaths (the most negative code is unused).

use std::fmt;

/// A fixed-point format: `W` total bits, `F` fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    word_bits: u32,
    frac_bits: u32,
}

impl Default for FixedFormat {
    /// The paper's message format: 8-bit words, 2 fractional bits
    /// (resolution 0.25, range ±31.75).
    fn default() -> Self {
        FixedFormat::new(8, 2)
    }
}

impl FixedFormat {
    /// Creates a format with `word_bits` total bits and `frac_bits` fractional
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ word_bits ≤ 24` and `frac_bits < word_bits`.
    #[must_use]
    pub fn new(word_bits: u32, frac_bits: u32) -> Self {
        assert!(
            (2..=24).contains(&word_bits) && frac_bits < word_bits,
            "invalid fixed-point format W={word_bits}, F={frac_bits}"
        );
        FixedFormat {
            word_bits,
            frac_bits,
        }
    }

    /// Total word width in bits.
    #[must_use]
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Number of fractional bits.
    #[must_use]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The value of one least-significant bit, `2^-F`, built exactly from
    /// its IEEE-754 exponent (no `powi`, no division).
    #[must_use]
    pub fn step(&self) -> f64 {
        f64::from_bits(u64::from(1023 - self.frac_bits) << 52)
    }

    /// Codes per LLR unit, `2^F` — the exact reciprocal of [`step`](Self::step).
    #[must_use]
    pub fn scale(&self) -> f64 {
        f64::from(1u32 << self.frac_bits)
    }

    /// Largest representable code, `2^{W-1} − 1`.
    #[must_use]
    pub fn max_code(&self) -> i32 {
        (1i32 << (self.word_bits - 1)) - 1
    }

    /// Smallest representable code, `−(2^{W-1} − 1)` (symmetric range).
    #[must_use]
    pub fn min_code(&self) -> i32 {
        -self.max_code()
    }

    /// Largest representable LLR magnitude.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.max_code() as f64 * self.step()
    }

    /// Saturates an arbitrary integer to the representable code range.
    #[must_use]
    pub fn saturate(&self, code: i64) -> i32 {
        code.clamp(self.min_code() as i64, self.max_code() as i64) as i32
    }

    /// Saturating addition of two codes.
    #[must_use]
    pub fn add(&self, a: i32, b: i32) -> i32 {
        self.saturate(a as i64 + b as i64)
    }

    /// Saturating subtraction of two codes.
    #[must_use]
    pub fn sub(&self, a: i32, b: i32) -> i32 {
        self.saturate(a as i64 - b as i64)
    }

    /// Saturating negation of a code.
    #[must_use]
    pub fn neg(&self, a: i32) -> i32 {
        self.saturate(-(a as i64))
    }

    /// Converts a real LLR to the nearest representable code (saturating,
    /// ties rounded away from zero, NaN to 0).
    ///
    /// Branch-free, with no libm call and no float-to-int conversion, so
    /// ingest loops vectorise: scaling by the power of two `2^F` is exact;
    /// saturating the magnitude before rounding equals saturating after it
    /// (the bound is an integer); and adding `2^52` to a magnitude below
    /// `2^23` rounds it to an integer (ties to even) held in the low bits of
    /// the sum. A tie rounded down to even is the one case half-away
    /// rounding takes up, and the subtraction that detects it is exact.
    #[must_use]
    pub fn quantize(&self, value: f64) -> i32 {
        const ROUND: f64 = 4_503_599_627_370_496.0; // 2^52
        let max = f64::from(self.max_code());
        let scaled = value * self.scale();
        let magnitude = scaled.abs();
        let magnitude = if magnitude > max { max } else { magnitude };
        let magnitude = if magnitude.is_nan() { 0.0 } else { magnitude };
        let biased = magnitude + ROUND;
        let tie_rounded_down = magnitude - (biased - ROUND) == 0.5;
        // The low 32 bits of `biased` are the rounded magnitude.
        let rounded = biased.to_bits() as i32 + i32::from(tie_rounded_down);
        if scaled < 0.0 {
            -rounded
        } else {
            rounded
        }
    }

    /// Converts a code back to its real value (exact).
    #[must_use]
    pub fn dequantize(&self, code: i32) -> f64 {
        f64::from(code) * self.step()
    }

    /// Whether `code` is inside the representable range.
    #[must_use]
    pub fn in_range(&self, code: i32) -> bool {
        code >= self.min_code() && code <= self.max_code()
    }
}

impl fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.word_bits - self.frac_bits, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_format_matches_paper_datapath() {
        let f = FixedFormat::default();
        assert_eq!(f.word_bits(), 8);
        assert_eq!(f.frac_bits(), 2);
        assert_eq!(f.max_code(), 127);
        assert_eq!(f.min_code(), -127);
        assert!((f.step() - 0.25).abs() < 1e-12);
        assert!((f.max_value() - 31.75).abs() < 1e-12);
        assert_eq!(f.to_string(), "Q6.2");
    }

    #[test]
    fn saturation_behaviour() {
        let f = FixedFormat::default();
        assert_eq!(f.saturate(1_000), 127);
        assert_eq!(f.saturate(-1_000), -127);
        assert_eq!(f.saturate(100), 100);
        assert_eq!(f.add(100, 100), 127);
        assert_eq!(f.add(-100, -100), -127);
        assert_eq!(f.sub(-100, 100), -127);
        assert_eq!(f.sub(100, -100), 127);
        assert_eq!(f.neg(-127), 127);
        assert_eq!(f.add(3, 4), 7);
    }

    #[test]
    fn quantize_round_trip_and_saturation() {
        let f = FixedFormat::default();
        assert_eq!(f.quantize(0.25), 1);
        assert_eq!(f.quantize(-0.25), -1);
        assert_eq!(f.quantize(1000.0), 127);
        assert_eq!(f.quantize(-1000.0), -127);
        assert_eq!(f.quantize(f64::NAN), 0);
        for code in [-127, -3, 0, 5, 127] {
            assert_eq!(f.quantize(f.dequantize(code)), code);
        }
    }

    /// Every format [`FixedFormat::new`] accepts.
    fn all_formats() -> impl Iterator<Item = FixedFormat> {
        (2..=24u32).flat_map(|w| (0..w).map(move |f| FixedFormat::new(w, f)))
    }

    #[test]
    fn step_is_the_exact_power_of_two() {
        for fmt in all_formats() {
            let f = fmt.frac_bits();
            assert_eq!(fmt.step(), 0.5f64.powi(f as i32), "{fmt}");
            assert_eq!(fmt.step() * fmt.scale(), 1.0, "{fmt}");
        }
    }

    #[test]
    fn quantize_matches_round_then_saturate() {
        // The definition the branch-free quantizer replaces.
        let reference = |fmt: &FixedFormat, v: f64| -> i32 {
            if v.is_nan() {
                return 0;
            }
            fmt.saturate((v / 0.5f64.powi(fmt.frac_bits() as i32)).round() as i64)
        };
        for fmt in all_formats() {
            let max = i64::from(fmt.max_code());
            // Every tie k + ½ near zero and around the saturation edge.
            let ks = (-40i64..=40)
                .chain(max - 3..=max + 3)
                .chain(-max - 3..=-max + 3);
            let mut values = vec![
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
            ];
            for k in ks {
                for frac in [0.0, 0.25, 0.5, 0.75] {
                    let v = (k as f64 + frac) * fmt.step();
                    values.extend([v, v.next_down(), v.next_up()]);
                }
            }
            for v in values {
                assert_eq!(
                    fmt.quantize(v),
                    reference(&fmt, v),
                    "{fmt}: quantize({v:e}) [bits {:#x}]",
                    v.to_bits()
                );
            }
        }
    }

    #[test]
    fn range_checks() {
        let f = FixedFormat::new(6, 1);
        assert_eq!(f.max_code(), 31);
        assert!(f.in_range(31));
        assert!(f.in_range(-31));
        assert!(!f.in_range(32));
        assert!(!f.in_range(-32));
    }

    #[test]
    #[should_panic(expected = "invalid fixed-point format")]
    fn rejects_bad_format() {
        let _ = FixedFormat::new(8, 8);
    }

    #[test]
    fn narrower_formats_saturate_earlier() {
        let narrow = FixedFormat::new(5, 2);
        let wide = FixedFormat::new(8, 2);
        assert!(narrow.max_value() < wide.max_value());
        assert_eq!(narrow.quantize(10.0), narrow.max_code());
        assert_ne!(wide.quantize(10.0), wide.max_code());
    }
}
