//! The element kernels every codec path shares.
//!
//! One implementation of "quantize a value onto a uniform grid", one of
//! "measure a grid's ℓ2 error", one of "unpack codes and scale them back":
//! the public row objects ([`crate::QuantizedRow`], [`crate::adaptive`])
//! and the chunk-level byte paths
//! ([`crate::QuantScheme::quantize_rows_into`],
//! [`crate::codec::RowDecoder`]) are thin callers of these loops, so what a
//! checkpoint stores and what the public codec computes cannot drift apart.
//!
//! The kernels allocate nothing and are written so the compiler can
//! vectorize them: values move through fixed-size stack blocks or
//! independent lanes, and rounding is branch-free. The one ℓ2 the crate
//! computes is such a sum: squares in `f32`, in [`LANES`] lanes combined
//! by one tree ([`total`]), which the range search decides on
//! ([`measure`]) and [`crate::row_l2_error`] reports. Decoding goes a
//! chunk at a time: the code width is matched once per call of
//! [`uniform_rows`], and each width that fills whole bytes has a loop of
//! its own that unpacks and scales a row without a code buffer. Their
//! outputs are bit-identical to the original per-row implementations,
//! which are kept, frozen, in the test-only `reference` module as the
//! oracle.
//!
//! The error pass also measures what its range *clips* ([`TrialCost`]):
//! a lower bound, exact under rounding, on the error of every range nested
//! inside it. That is what lets [`crate::adaptive::search_range`] stop
//! after a handful of its budgeted steps with the result the whole budget
//! would have produced; the argument is on [`measure`] and
//! [`clip_slack`].

use crate::bitpack::{pack_into, unpack_any_with, unpack_grouped_with};
use crate::half::{f16_bits_to_f32, f32_to_f16_bits, half_at_or_above};

/// Elements per stack block. A multiple of 8, so a block of codes of any
/// width packs to whole bytes and blocks pack independently.
pub(crate) const BLOCK: usize = 64;

/// `2^23`. Adding then subtracting it rounds a non-negative `f32` below it
/// to the nearest integer, ties to even — in two additions, no libm call.
const ROUND_MAGIC: f32 = 8_388_608.0;

/// A uniform quantization grid: `x ≈ scale * code + zero_point` with codes
/// in `0..=levels`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Grid {
    pub scale: f32,
    pub zero_point: f32,
    /// Largest code, as a float (`2^bits - 1`).
    pub levels: f32,
}

/// Largest code of a `bits`-wide grid, as a float.
pub(crate) fn levels_for(bits: u8) -> f32 {
    debug_assert!((1..=16).contains(&bits));
    ((1u32 << bits) - 1) as f32
}

impl Grid {
    /// The grid spanning `[xmin, xmax]` with `2^bits` points. Degenerate
    /// ranges (`xmax <= xmin` or non-finite) get `scale = 0`, which maps
    /// every value to code 0 and back to `xmin` — exact for a constant row.
    pub fn for_range(xmin: f32, xmax: f32, bits: u8) -> Self {
        let levels = levels_for(bits);
        let range = xmax - xmin;
        let scale = if range > 0.0 && range.is_finite() {
            range / levels
        } else {
            0.0
        };
        Self {
            scale,
            zero_point: xmin,
            levels,
        }
    }

    /// The grid spanning `[xmin, xmax]` with binary16 parameters — what a
    /// uniform row is stored on (its chunk [`fits_half`]). The range is
    /// chosen first, on `f32` grids; this rounds it once:
    ///
    /// * the zero point is `xmin` rounded *up* to binary16, so `xmin` and
    ///   everything below it quantize to code 0, which reconstructs the
    ///   zero point exactly;
    /// * the scale is the nearest binary16 to `(xmax - zero_point) /
    ///   levels`, so `xmax` lands on the top code — or, when rounding it
    ///   up leaves `xmax` below the top code (a subnormal scale, or a grid
    ///   wider than 10 bits), the binary16 below;
    /// * a grid spanning less than `2^-10` of its zero point's magnitude —
    ///   about one binary16 step of it — is collapsed to the zero point
    ///   (`scale = 0`): its reconstructions would be `f32` rounding noise.
    ///
    /// Then quantizing a reconstructed row finds this grid again: its
    /// minimum is the zero point and its maximum the top grid point, whose
    /// span divided by `levels` rounds back to the scale. So de-quantized
    /// rows re-quantize to themselves.
    pub fn half_for_range(xmin: f32, xmax: f32, bits: u8) -> Self {
        let levels = levels_for(bits);
        let zero_point = half_at_or_above(xmin);
        let step = (xmax - zero_point) / levels;
        let nearest = f16_bits_to_f32(f32_to_f16_bits(step));
        let mut grid = Self {
            scale: if step > 0.0 { nearest } else { 0.0 },
            zero_point,
            levels,
        };
        if grid.scale > 0.0 && grid.code_of(xmax) < levels {
            grid.scale = -half_at_or_above(-step);
        }
        if grid.scale * levels < zero_point.abs() * (1.0 / 1024.0) {
            grid.scale = 0.0;
        }
        grid
    }

    /// Code of `x`, as a float: the paper's `FQ(x, xmin, xmax)`.
    #[inline]
    pub fn code_of(self, x: f32) -> f32 {
        if self.scale <= 0.0 {
            return 0.0;
        }
        round_clamp((x - self.zero_point) / self.scale, self.levels)
    }
}

/// Largest magnitude a value of a row stored with binary16 parameters may
/// have: half the largest finite binary16 value, so neither a zero point
/// nor a scale — at most the span between two such values — overflows.
pub(crate) const HALF_SPAN: f32 = 32752.0;

/// Whether rows holding `values` can be stored with binary16 parameters:
/// every value is finite and within [`HALF_SPAN`]. The test is on the
/// magnitude's bits, where infinity and NaN are larger than any finite
/// value.
pub(crate) fn fits_half(values: &[f32]) -> bool {
    none_of(values, |m| m > HALF_SPAN.to_bits() as i32)
}

/// Whether binary16 holds `values` without turning a finite one into an
/// infinity: no finite magnitude reaches 65520, the midpoint between the
/// largest binary16 value and `2^16`, from which round-to-nearest-even
/// goes to `±∞`. NaN and `±∞` are binary16 values of their own.
pub(crate) fn half_keeps_finite(values: &[f32]) -> bool {
    const OVERFLOW: i32 = 65520f32.to_bits() as i32;
    const INFINITY: i32 = f32::INFINITY.to_bits() as i32;
    none_of(values, |m| (OVERFLOW..INFINITY).contains(&m))
}

/// Whether no value's magnitude bits satisfy `hit`: one pass with no
/// early exit, so it vectorizes (on the bits as a signed integer, which
/// the sign bit cleared leaves ordered as the magnitudes are).
#[inline(always)]
fn none_of(values: &[f32], hit: impl Fn(i32) -> bool) -> bool {
    let hit = |x: &f32| hit((x.to_bits() & 0x7FFF_FFFF) as i32) as u32;
    values.iter().fold(0, |any, x| any | hit(x)) == 0
}

/// `q.round()` (half away from zero) clamped to `[0, levels]`, NaN → 0,
/// without a branch or a call.
///
/// Rounding is monotone and the clamp's ends are integers, so clamping
/// `q` first gives the same code, and keeps the magic-number rounding in
/// its valid domain; a tie that ties-to-even sent down (`q - e == 0.5`)
/// is pushed back up, to at most `levels`.
#[inline(always)]
fn round_clamp(q: f32, levels: f32) -> f32 {
    let q = if q > 0.0 { q } else { 0.0 };
    let q = if q < levels { q } else { levels };
    let e = (q + ROUND_MAGIC) - ROUND_MAGIC;
    e + if q - e == 0.5 { 1.0 } else { 0.0 }
}

/// Writes the code of every element of `row` on grid `g` into `codes`.
pub(crate) fn quantize_codes(row: &[f32], g: Grid, codes: &mut [u16]) {
    debug_assert_eq!(row.len(), codes.len());
    if g.scale <= 0.0 {
        codes.fill(0);
        return;
    }
    // The code is a whole number below 2^16, so adding 2^23 puts it in
    // the low mantissa bits: no float-to-integer conversion.
    let bits = |code: f32| ((code + ROUND_MAGIC).to_bits() - ROUND_MAGIC.to_bits()) as u16;
    for (c, &x) in codes.iter_mut().zip(row) {
        *c = bits(round_clamp((x - g.zero_point) / g.scale, g.levels));
    }
}

/// Quantizes `row` on grid `g` and appends the `bits`-wide packed codes to
/// `out` — no intermediate code vector. Codes are clamped to `g.levels`
/// by construction, so they always fit `bits`.
pub(crate) fn quantize_pack_into(row: &[f32], g: Grid, bits: u8, out: &mut Vec<u8>) {
    debug_assert_eq!(g.levels, levels_for(bits));
    let mut codes = [0u16; BLOCK];
    for xs in row.chunks(BLOCK) {
        let codes = &mut codes[..xs.len()];
        quantize_codes(xs, g, codes);
        pack_into(codes, bits, out);
    }
}

/// One clipping range of a greedy range search, ready to be measured.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Trial {
    /// The grid spanning the range.
    pub grid: Grid,
    /// Nothing `grid` or a grid of any range nested inside this one
    /// reconstructs lies above this value: the range's upper end plus
    /// [`clip_slack`].
    pub ceil: f32,
}

impl Trial {
    /// The trial for `[lo, hi]`, a sub-range of the row's full range whose
    /// [`clip_slack`] is `slack`.
    pub fn for_range(lo: f32, hi: f32, bits: u8, slack: f32) -> Self {
        Self {
            grid: Grid::for_range(lo, hi, bits),
            ceil: hi + slack,
        }
    }

    /// The trial of a grid whose clip is not asked for.
    pub fn unclipped(grid: Grid) -> Self {
        Self {
            grid,
            ceil: f32::INFINITY,
        }
    }

    /// What quantizing `x` on the grid loses: `x - dequantize(quantize(x))`.
    /// On a grid of scale 0 the code is whatever the division makes of
    /// `±∞` or NaN, and every code reconstructs the zero point.
    #[inline(always)]
    fn residual(self, x: f32) -> f32 {
        let g = self.grid;
        let code = round_clamp((x - g.zero_point) / g.scale, g.levels);
        x - (g.scale * code + g.zero_point)
    }

    /// How far `x` lies outside `[grid.zero_point, ceil]`: 0 inside, and
    /// for NaN.
    #[inline(always)]
    fn outside(self, x: f32) -> f32 {
        let below = self.grid.zero_point - x;
        let above = x - self.ceil;
        // At most one of the two is positive, so the sum is exact.
        (if below > 0.0 { below } else { 0.0 }) + (if above > 0.0 { above } else { 0.0 })
    }
}

/// What [`measure`] found of one [`Trial`]: two sums of squares, each
/// the ℓ2 norm squared as [`crate::row_l2_error`] computes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrialCost {
    /// The residuals': the trial's error.
    pub error: f32,
    /// The [`Trial::outside`] distances': what the trial's range clips.
    pub clip: f32,
}

/// The independent `f32` accumulators of every ℓ2 sum: element `i` is
/// added into lane `i % LANES`, so the sums vectorize.
pub(crate) const LANES: usize = 8;

/// The lanes of an ℓ2 sum combined, in the one fixed tree.
#[inline(always)]
pub(crate) fn total([a, b, c, d, e, f, g, h]: [f32; LANES]) -> f32 {
    ((a + e) + (c + g)) + ((b + f) + (d + h))
}

/// The ℓ2 norm whose square is `sum`: its `sqrt`, in `f64`. Two distinct
/// `f32` sums are at least `2^-24` apart relative, so their norms are
/// distinct `f64`s ordered as they are: comparing sums compares norms.
#[inline(always)]
pub(crate) fn norm(sum: f32) -> f64 {
    (sum as f64).sqrt()
}

/// How far above `hi` the top grid point of a range `[lo, hi]` inside
/// `[full_min, full_max]` can be reconstructed.
///
/// The top point is `fl(fl(fl(fl(hi - lo) / L) · L) + lo)` with `L =
/// levels`. With `u = 2^-24` the relative rounding error of one `f32`
/// operation, `η = 2^-150` the absolute error of one that underflows, and
/// `M = max(|full_min|, |full_max|)` (so `hi - lo ≤ 2M`), the three
/// roundings of the range put the product at most `2M·3.01u + (L + 2)η`
/// above `hi - lo`, and the final addition adds at most `1.01u·M` more:
/// under `8u·M + 4η·L` in all. The slack is twice that, `16u·M + 8η·L`,
/// which also pays for the roundings of computing the slack and of adding
/// it to `hi`. An intermediate that overflows reconstructs `+∞`, whose
/// residual's square, and every sum it enters, is `+∞` — larger than any
/// bound, never smaller.
pub(crate) fn clip_slack(full_min: f32, full_max: f32, bits: u8) -> f32 {
    const REL: f32 = 8.0 * f32::EPSILON; // 16u = 2^-20
    const ABS: f32 = 4.0 * (f32::MIN_POSITIVE * f32::EPSILON); // 8η = 2^-147
    full_min.abs().max(full_max.abs()) * REL + levels_for(bits) * ABS
}

/// A trial's error and clip on `row`, in one pass over it: each square is
/// rounded to `f32` and added into lane `i % LANES` of its sum, and the
/// lanes are combined by [`total`] — [`crate::row_l2_error`]'s sum, term
/// for term, so the search decides on the error the crate reports.
///
/// A trial's clip bounds from below the *computed* error of any trial
/// `[lo', hi']` nested inside it, `lo ≤ lo' ≤ hi' ≤ hi` — in `f32`
/// arithmetic as executed, not just over the reals:
///
/// * every value that trial reconstructs lies in `[lo', top']`, because
///   `fl(scale · code)` and `fl(· + lo')` are monotone in `code`; code 0
///   gives `lo'` exactly and `top' ≤ ceil` by [`clip_slack`];
/// * so an element `x < lo` has residual `fl(x - back) ≤ fl(x - lo) < 0`
///   and an element `x > ceil` has `fl(x - back) ≥ fl(x - ceil) > 0`,
///   since rounding is monotone: term by term, this trial's clip distance
///   is no larger in magnitude than that trial's residual (and is 0 for
///   every other element, NaN included);
/// * a rounded square is monotone in the magnitude, and a rounded sum of
///   non-negative values in each operand; the two sums add their terms in
///   the same lanes and the same tree, so the clip's sum is at most the
///   error's, an overflow to `+∞` included.
#[inline(always)]
pub(crate) fn measure(row: &[f32], t: Trial) -> TrialCost {
    let mut errors = [0.0f32; LANES];
    let mut clips = [0.0f32; LANES];
    let mut whole = row.chunks_exact(LANES);
    for xs in &mut whole {
        for lane in 0..LANES {
            let x = xs[lane];
            let r = t.residual(x);
            errors[lane] += r * r;
            let c = t.outside(x);
            clips[lane] += c * c;
        }
    }
    for (lane, &x) in whole.remainder().iter().enumerate() {
        let r = t.residual(x);
        errors[lane] += r * r;
        let c = t.outside(x);
        clips[lane] += c * c;
    }
    TrialCost {
        error: total(errors),
        clip: total(clips),
    }
}

/// Little-endian `f32`s, one per four bytes of `bytes`, into `out`. A run
/// of consecutive fp32 rows is one call: their bodies are back to back
/// with nothing between them.
#[inline(always)]
pub(crate) fn fp32_values(bytes: &[u8], out: &mut [f32]) {
    let bytes = &bytes[..out.len() * 4];
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Little-endian binary16 patterns, one per two bytes of `bytes`, widened
/// into `out`.
#[inline(always)]
pub(crate) fn fp16_values(bytes: &[u8], out: &mut [f32]) {
    let bytes = &bytes[..out.len() * 2];
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *o = f16_bits_to_f32(u16::from_le_bytes([b[0], b[1]]));
    }
}

/// De-quantizes rows of `bits`-wide uniform codes, `dim` values each: the
/// one unpack-and-scale loop behind every decode path. Each run is a pair
/// of back-to-back row sources, `row_len` bytes each, and the run's
/// destination; `params` splits a source into its row's `(scale,
/// zero_point)` and packed codes. A value is `scale * code as f32 +
/// zero_point`, binary16 parameters widened to `f32` first.
///
/// The width is matched once, here, and every width that fills whole bytes
/// gets a loop of its own, so the per-row work is reading two parameters
/// and unpacking one row — no dispatch, no code buffer.
///
/// Panics when a run's sources do not hold exactly the rows its
/// destination has room for.
pub(crate) fn uniform_rows<'b, 'v>(
    bits: u8,
    row_len: usize,
    dim: usize,
    runs: impl IntoIterator<Item = (&'b [u8], &'v mut [f32])>,
    params: impl Fn(&'b [u8]) -> (f32, f32, &'b [u8]),
) {
    if dim == 0 {
        return;
    }
    match bits {
        1 => rows_with(row_len, dim, runs, params, |c, s, z, o| {
            unpack_grouped_with::<1, _>(c, o, |q| s * q as f32 + z)
        }),
        2 => rows_with(row_len, dim, runs, params, |c, s, z, o| {
            unpack_grouped_with::<2, _>(c, o, |q| s * q as f32 + z)
        }),
        4 => rows_with(row_len, dim, runs, params, |c, s, z, o| {
            unpack_grouped_with::<4, _>(c, o, |q| s * q as f32 + z)
        }),
        8 => rows_with(row_len, dim, runs, params, |c, s, z, o| {
            unpack_grouped_with::<8, _>(c, o, |q| s * q as f32 + z)
        }),
        _ => rows_with(row_len, dim, runs, params, |c, s, z, o| {
            unpack_any_with(c, bits, o, |q| s * q as f32 + z)
        }),
    }
}

/// The row loop of [`uniform_rows`], monomorphised per width by `values`.
#[inline(always)]
fn rows_with<'b, 'v>(
    row_len: usize,
    dim: usize,
    runs: impl IntoIterator<Item = (&'b [u8], &'v mut [f32])>,
    params: impl Fn(&'b [u8]) -> (f32, f32, &'b [u8]),
    values: impl Fn(&'b [u8], f32, f32, &mut [f32]),
) {
    for (sources, out) in runs {
        let n = out.len() / dim;
        assert!(
            out.len() == n * dim && sources.len() == n * row_len,
            "{} bytes of {row_len}-byte rows for {} values of {dim}-value rows",
            sources.len(),
            out.len()
        );
        for (source, row) in sources.chunks_exact(row_len).zip(out.chunks_exact_mut(dim)) {
            let (scale, zero_point, codes) = params(source);
            values(codes, scale, zero_point, row);
        }
    }
}

/// Appends `values` as little-endian bytes.
pub(crate) fn put_f32s_le(values: &[f32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + values.len() * 4, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_clamp_is_round_half_away_then_clamp() {
        let levels = 15.0f32;
        let below_half = f32::from_bits(0.5f32.to_bits() - 1);
        let cases = [
            (f32::NAN, 0.0),
            (f32::NEG_INFINITY, 0.0),
            (f32::INFINITY, 15.0),
            (-0.3, 0.0),
            (-0.0, 0.0),
            (below_half, 0.0),
            (0.5, 1.0),
            (1.5, 2.0),
            (2.5, 3.0),
            (3.4999998, 3.0),
            (14.5, 15.0),
            (15.5, 15.0),
            (16.0, 15.0),
            (1e30, 15.0),
        ];
        for (q, want) in cases {
            assert_eq!(round_clamp(q, levels), want, "q = {q}");
        }
        // Against the definition, densely, at the widest grid.
        let levels = 65535.0f32;
        for i in 0..400_000u32 {
            let q = i as f32 * 0.17 - 10.0;
            let want = q.round().clamp(0.0, levels);
            assert_eq!(round_clamp(q, levels), want, "q = {q}");
        }
    }

    #[test]
    fn f32_bytes_roundtrip() {
        let values = [
            0.0f32,
            -0.0,
            1.5,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            -3.25e-7,
        ];
        let mut buf = vec![0xAA];
        put_f32s_le(&values, &mut buf);
        assert_eq!(buf.len(), 1 + values.len() * 4);
        let mut back = [9.0f32; 6];
        fp32_values(&buf[1..], &mut back);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
