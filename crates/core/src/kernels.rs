//! Explicit wide kernels over the columnar hot-path lanes (the "SIMD layer").
//!
//! PR 5's storage engine laid the four hot event streams out as structure-of-arrays
//! columns precisely so the per-element analysis loops could go wide; this module
//! spends that dividend. Every kernel exists in two tiers:
//!
//! * **scalar** — the portable reference implementation in [`scalar`]. This tier is
//!   the semantic definition of each kernel: the wide tier must produce
//!   *bit-identical* results (asserted by `tests/kernel_equivalence.rs`).
//! * **AVX2** — `core::arch` x86-64 intrinsics behind runtime feature detection
//!   via `is_x86_feature_detected!`.
//!
//! Dispatch happens once per process ([`simd_level`], cached in a `OnceLock`) and
//! honours the [`NO_SIMD_ENV`] environment variable, which forces the scalar tier
//! (used by CI to keep the portable fallback green). On non-x86-64 targets, and on
//! x86-64 machines without AVX2, the scalar tier is the only one that runs.
//!
//! # Bit-identity invariants
//!
//! The wide tier is only allowed where exact equality is achievable:
//!
//! * unsigned sums ([`tag_duration_sums`]) use wrapping arithmetic, which is
//!   associative and commutative, so lane order does not matter;
//! * byte comparisons ([`for_each_tag_match`]) are exact and matches are visited
//!   in ascending index order in every tier;
//! * float reductions ([`min_max_sum`]) use a **fixed four-stripe tree**: stripe
//!   `j` reduces elements with index `i ≡ j (mod 4)` in index order, stripes are
//!   combined as `(s0 ∘ s2) ∘ (s1 ∘ s3)`, and the tail (`len % 4` trailing
//!   elements) is folded in sequentially afterwards. The scalar reference
//!   implements this exact shape, so AVX2 (one 4-lane register) reproduces it
//!   bit for bit. Min/max use the comparison
//!   `if v < acc { v } else { acc }` — the semantics of `_mm_min_pd(v, acc)` —
//!   which skips NaN inputs just like `f64::min` does.
//!
//! Unaligned view offsets are always legal: every tier uses unaligned loads, so
//! kernels accept any sub-slice of a column (`StatesView::slice` produces such
//! sub-slices for the clipped middle of a timeline cell).

use std::sync::OnceLock;

/// Environment variable that force-disables the wide kernels: any non-empty value
/// other than `0` makes [`simd_level`] report [`SimdLevel::Scalar`], so every
/// dispatched kernel runs its scalar reference implementation. It is the
/// execution layer's switch (read there, once, for the store checksum too).
pub use aftermath_exec::NO_SIMD_ENV;

/// Instruction-set tier a kernel call is dispatched to.
///
/// Ordered by width: `Scalar < Avx2`. Requesting a tier the hardware (or compile
/// target) cannot execute silently runs the scalar one, so the explicit `*_at`
/// kernel variants are always safe to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar reference implementation (any target).
    Scalar,
    /// 256-bit AVX2 path (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Lower-case tier name as reported in benchmark records (`scalar`, `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The tier dispatched kernels run at in this process: the widest tier the
/// hardware supports, or [`SimdLevel::Scalar`] when [`NO_SIMD_ENV`] is set.
/// Detected once and cached.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if aftermath_exec::wide_kernels_disabled() {
            SimdLevel::Scalar
        } else {
            hardware_level()
        }
    })
}

/// The widest tier the hardware supports, ignoring [`NO_SIMD_ENV`].
fn hardware_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Scalar
    })
}

/// Every tier executable on this machine, in increasing width, ignoring
/// [`NO_SIMD_ENV`]. Equivalence tests iterate this to compare the wide tier
/// against the scalar reference.
pub fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if hardware_level() == SimdLevel::Avx2 {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

/// Clamps a requested tier to what the hardware can actually execute, keeping
/// the explicit `*_at` entry points sound on every machine.
fn effective(level: SimdLevel) -> SimdLevel {
    level.min(hardware_level())
}

// ---------------------------------------------------------------------------
// Dispatched kernel entry points.
// ---------------------------------------------------------------------------

/// Accumulates `sums[tags[i]] += ends[i] - starts[i]` over all lanes (wrapping),
/// at the process-wide [`simd_level`].
///
/// This is the per-column state histogram of the timeline's state mode and the
/// pyramid's leaf build: the one-byte state lane gates which per-state bucket
/// each interval's duration lands in.
///
/// All three input lanes must have equal length and every tag must be a valid
/// index into `sums` (state lanes store `WorkerState` discriminants, so
/// `sums.len() == WorkerState::COUNT` always satisfies this). Panics otherwise.
pub fn tag_duration_sums(starts: &[u64], ends: &[u64], tags: &[u8], sums: &mut [u64]) {
    tag_duration_sums_at(simd_level(), starts, ends, tags, sums);
}

/// [`tag_duration_sums`] at an explicit tier (clamped to the hardware).
pub fn tag_duration_sums_at(
    level: SimdLevel,
    starts: &[u64],
    ends: &[u64],
    tags: &[u8],
    sums: &mut [u64],
) {
    assert_eq!(starts.len(), ends.len(), "lane length mismatch");
    assert_eq!(starts.len(), tags.len(), "lane length mismatch");
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU supports it.
        SimdLevel::Avx2 => unsafe { x86::tag_duration_sums_avx2(starts, ends, tags, sums) },
        _ => scalar::tag_duration_sums(starts, ends, tags, sums),
    }
}

/// Calls `f(i)` for every `i` with `tags[i] == tag`, in ascending index order,
/// at the process-wide [`simd_level`].
///
/// This is the state-lane gate of the task-based timeline modes and the pyramid
/// leaf build: a wide byte compare plus a movemask turns 32 tag tests into one
/// instruction, and only matching lanes fall back to the caller's per-match
/// work.
pub fn for_each_tag_match<F: FnMut(usize)>(tags: &[u8], tag: u8, f: F) {
    for_each_tag_match_at(simd_level(), tags, tag, f);
}

/// [`for_each_tag_match`] at an explicit tier (clamped to the hardware).
pub fn for_each_tag_match_at<F: FnMut(usize)>(level: SimdLevel, tags: &[u8], tag: u8, mut f: F) {
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU supports it.
        SimdLevel::Avx2 => unsafe { x86::for_each_tag_match_avx2(tags, tag, &mut f) },
        _ => scalar::for_each_tag_match(tags, tag, &mut f),
    }
}

/// `(min, max, sum)` of `values` via the fixed four-stripe reduction tree
/// (see the module docs), at the process-wide [`simd_level`]. Returns
/// `(∞, −∞, 0.0)` for an empty slice — the `CounterNode::EMPTY` sentinels.
///
/// This is the `CounterIndex` leaf descent: every index node summarises its
/// chunk of the sample value lane through this kernel.
pub fn min_max_sum(values: &[f64]) -> (f64, f64, f64) {
    min_max_sum_at(simd_level(), values)
}

/// [`min_max_sum`] at an explicit tier (clamped to the hardware).
pub fn min_max_sum_at(level: SimdLevel, values: &[f64]) -> (f64, f64, f64) {
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU supports it.
        SimdLevel::Avx2 => unsafe { x86::min_max_sum_avx2(values) },
        _ => scalar::min_max_sum(values),
    }
}

// ---------------------------------------------------------------------------
// Scalar reference tier.
// ---------------------------------------------------------------------------

/// Portable reference implementations — the semantic definition every wide tier
/// must match bit for bit. Kept deliberately simple; the equivalence proptests
/// compare the dispatched kernels against these.
pub mod scalar {
    /// Number of independent accumulation stripes in the float reduction tree.
    pub(super) const STRIPES: usize = 4;

    /// The min step of the reduction: keeps `acc` when `v` is NaN, like
    /// `_mm_min_pd(v, acc)` and `f64::min` with a non-NaN accumulator.
    #[inline]
    pub(super) fn min2(v: f64, acc: f64) -> f64 {
        if v < acc {
            v
        } else {
            acc
        }
    }

    /// The max step of the reduction (NaN handling as in [`min2`]).
    #[inline]
    pub(super) fn max2(v: f64, acc: f64) -> f64 {
        if v > acc {
            v
        } else {
            acc
        }
    }

    /// Scalar [`tag_duration_sums`](super::tag_duration_sums).
    pub fn tag_duration_sums(starts: &[u64], ends: &[u64], tags: &[u8], sums: &mut [u64]) {
        for ((&s, &e), &t) in starts.iter().zip(ends).zip(tags) {
            sums[t as usize] = sums[t as usize].wrapping_add(e.wrapping_sub(s));
        }
    }

    /// Scalar [`for_each_tag_match`](super::for_each_tag_match).
    pub fn for_each_tag_match(tags: &[u8], tag: u8, f: &mut impl FnMut(usize)) {
        for (i, &t) in tags.iter().enumerate() {
            if t == tag {
                f(i);
            }
        }
    }

    /// Scalar [`min_max_sum`](super::min_max_sum): the four-stripe reduction
    /// tree the wide tiers replicate.
    pub fn min_max_sum(values: &[f64]) -> (f64, f64, f64) {
        let mut mins = [f64::INFINITY; STRIPES];
        let mut maxs = [f64::NEG_INFINITY; STRIPES];
        let mut sums = [0.0f64; STRIPES];
        let mut chunks = values.chunks_exact(STRIPES);
        for chunk in &mut chunks {
            for (j, &v) in chunk.iter().enumerate() {
                mins[j] = min2(v, mins[j]);
                maxs[j] = max2(v, maxs[j]);
                sums[j] += v;
            }
        }
        let mut min = min2(min2(mins[0], mins[2]), min2(mins[1], mins[3]));
        let mut max = max2(max2(maxs[0], maxs[2]), max2(maxs[1], maxs[3]));
        let mut sum = (sums[0] + sums[2]) + (sums[1] + sums[3]);
        for &v in chunks.remainder() {
            min = min2(v, min);
            max = max2(v, max);
            sum += v;
        }
        (min, max, sum)
    }
}

// ---------------------------------------------------------------------------
// x86-64 wide tiers.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::scalar;
    use core::arch::x86_64::*;

    /// Minimum lane count below which the AVX2 gated-sum kernel is not worth its
    /// setup (max-tag pre-pass plus accumulator spill/merge).
    const GATED_SUM_MIN_LANES: usize = 64;

    /// Largest tag byte in `tags` (0 for an empty slice).
    #[target_feature(enable = "avx2")]
    unsafe fn max_tag_avx2(tags: &[u8]) -> u8 {
        let n = tags.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= n {
            let v = _mm256_loadu_si256(tags.as_ptr().add(i) as *const __m256i);
            acc = _mm256_max_epu8(acc, v);
            i += 32;
        }
        let mut m = _mm_max_epu8(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256(acc, 1),
        );
        m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
        m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
        let mut best = (_mm_cvtsi128_si32(m) & 0xff) as u8;
        for &t in &tags[i..] {
            best = best.max(t);
        }
        best
    }

    /// Gated duration sums with `NT` in-register accumulators (`NT` must exceed
    /// the largest tag present). The constant bound keeps the per-tag compare /
    /// mask / add chain fully unrolled with the accumulators in registers.
    #[target_feature(enable = "avx2")]
    unsafe fn tag_sums_avx2_nt<const NT: usize>(
        starts: &[u64],
        ends: &[u64],
        tags: &[u8],
        sums: &mut [u64],
    ) {
        let n = tags.len();
        let mut acc = [_mm256_setzero_si256(); NT];
        let mut needles = [_mm256_setzero_si256(); NT];
        for (t, needle) in needles.iter_mut().enumerate() {
            *needle = _mm256_set1_epi64x(t as i64);
        }
        let mut i = 0;
        // Two 4-lane blocks per iteration: wrapping u64 addition is associative,
        // so splitting the accumulation across independent adds stays
        // bit-identical to the scalar loop while hiding load/compare latency.
        while i + 8 <= n {
            let s0 = _mm256_loadu_si256(starts.as_ptr().add(i) as *const __m256i);
            let e0 = _mm256_loadu_si256(ends.as_ptr().add(i) as *const __m256i);
            let s1 = _mm256_loadu_si256(starts.as_ptr().add(i + 4) as *const __m256i);
            let e1 = _mm256_loadu_si256(ends.as_ptr().add(i + 4) as *const __m256i);
            let durs0 = _mm256_sub_epi64(e0, s0);
            let durs1 = _mm256_sub_epi64(e1, s1);
            let w = u64::from_le_bytes(tags[i..i + 8].try_into().unwrap());
            let lo4 = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(w as u32 as i32));
            let hi4 = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128((w >> 32) as u32 as i32));
            for (a, needle) in acc.iter_mut().zip(needles.iter()) {
                let eq0 = _mm256_cmpeq_epi64(lo4, *needle);
                let eq1 = _mm256_cmpeq_epi64(hi4, *needle);
                let gated =
                    _mm256_add_epi64(_mm256_and_si256(eq0, durs0), _mm256_and_si256(eq1, durs1));
                *a = _mm256_add_epi64(*a, gated);
            }
            i += 8;
        }
        while i + 4 <= n {
            let s = _mm256_loadu_si256(starts.as_ptr().add(i) as *const __m256i);
            let e = _mm256_loadu_si256(ends.as_ptr().add(i) as *const __m256i);
            let durs = _mm256_sub_epi64(e, s);
            let w = u32::from_le_bytes([tags[i], tags[i + 1], tags[i + 2], tags[i + 3]]);
            let tag4 = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(w as i32));
            for (a, needle) in acc.iter_mut().zip(needles.iter()) {
                let eq = _mm256_cmpeq_epi64(tag4, *needle);
                *a = _mm256_add_epi64(*a, _mm256_and_si256(eq, durs));
            }
            i += 4;
        }
        for (t, a) in acc.iter().enumerate().take(sums.len()) {
            let mut lanes = [0u64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, *a);
            sums[t] = sums[t]
                .wrapping_add(lanes[0])
                .wrapping_add(lanes[1])
                .wrapping_add(lanes[2])
                .wrapping_add(lanes[3]);
        }
        scalar::tag_duration_sums(&starts[i..], &ends[i..], &tags[i..], sums);
    }

    /// AVX2 [`tag_duration_sums`](super::tag_duration_sums): a cheap max-tag
    /// pre-pass picks the smallest accumulator bank that covers the tag alphabet
    /// actually present (state streams overwhelmingly use a few low tags), then
    /// the gated sums run 4 lanes per iteration with one 64-bit compare per
    /// live tag.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tag_duration_sums_avx2(
        starts: &[u64],
        ends: &[u64],
        tags: &[u8],
        sums: &mut [u64],
    ) {
        if tags.len() < GATED_SUM_MIN_LANES {
            return scalar::tag_duration_sums(starts, ends, tags, sums);
        }
        let max_tag = max_tag_avx2(tags) as usize;
        assert!(
            max_tag < sums.len(),
            "tag {max_tag} out of range for {} buckets",
            sums.len()
        );
        match max_tag {
            0 | 1 => tag_sums_avx2_nt::<2>(starts, ends, tags, sums),
            2 | 3 => tag_sums_avx2_nt::<4>(starts, ends, tags, sums),
            4..=7 => tag_sums_avx2_nt::<8>(starts, ends, tags, sums),
            8..=11 => tag_sums_avx2_nt::<12>(starts, ends, tags, sums),
            // Wider alphabets than the worker-state set never hit this kernel;
            // fall back rather than spill a 16-register bank.
            _ => scalar::tag_duration_sums(starts, ends, tags, sums),
        }
    }

    /// AVX2 [`for_each_tag_match`](super::for_each_tag_match): 32 tag compares
    /// per `vpcmpeqb` + movemask, then bit-iteration over the (usually sparse)
    /// match mask in ascending order.
    #[target_feature(enable = "avx2")]
    pub unsafe fn for_each_tag_match_avx2(tags: &[u8], tag: u8, f: &mut impl FnMut(usize)) {
        let needle = _mm256_set1_epi8(tag as i8);
        let n = tags.len();
        let mut i = 0;
        while i + 32 <= n {
            let v = _mm256_loadu_si256(tags.as_ptr().add(i) as *const __m256i);
            let mut m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)) as u32;
            while m != 0 {
                f(i + m.trailing_zeros() as usize);
                m &= m - 1;
            }
            i += 32;
        }
        scalar::for_each_tag_match(&tags[i..], tag, &mut |k| f(i + k));
    }

    /// Low lane of a 128-bit double pair.
    #[inline]
    unsafe fn lane0(v: __m128d) -> f64 {
        _mm_cvtsd_f64(v)
    }

    /// High lane of a 128-bit double pair.
    #[inline]
    unsafe fn lane1(v: __m128d) -> f64 {
        _mm_cvtsd_f64(_mm_unpackhi_pd(v, v))
    }

    /// Folds the per-stripe 128-bit accumulators (`lo` = stripes 0,1; `hi` =
    /// stripes 2,3) exactly like the scalar combine, then the tail sequentially.
    #[inline]
    unsafe fn combine_and_tail(
        min_lo: __m128d,
        min_hi: __m128d,
        max_lo: __m128d,
        max_hi: __m128d,
        sum_lo: __m128d,
        sum_hi: __m128d,
        tail: &[f64],
    ) -> (f64, f64, f64) {
        let minc = _mm_min_pd(min_lo, min_hi);
        let maxc = _mm_max_pd(max_lo, max_hi);
        let sumc = _mm_add_pd(sum_lo, sum_hi);
        let mut min = scalar::min2(lane0(minc), lane1(minc));
        let mut max = scalar::max2(lane0(maxc), lane1(maxc));
        let mut sum = lane0(sumc) + lane1(sumc);
        for &v in tail {
            min = scalar::min2(v, min);
            max = scalar::max2(v, max);
            sum += v;
        }
        (min, max, sum)
    }

    /// AVX2 [`min_max_sum`](super::min_max_sum): all four stripes in one
    /// register; its 128-bit halves are the `lo`/`hi` of [`combine_and_tail`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_max_sum_avx2(values: &[f64]) -> (f64, f64, f64) {
        let n = values.len();
        let mut min = _mm256_set1_pd(f64::INFINITY);
        let mut max = _mm256_set1_pd(f64::NEG_INFINITY);
        let mut sum = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(values.as_ptr().add(i));
            min = _mm256_min_pd(v, min);
            max = _mm256_max_pd(v, max);
            sum = _mm256_add_pd(sum, v);
            i += 4;
        }
        combine_and_tail(
            _mm256_castpd256_pd128(min),
            _mm256_extractf128_pd(min, 1),
            _mm256_castpd256_pd128(max),
            _mm256_extractf128_pd(max, 1),
            _mm256_castpd256_pd128(sum),
            _mm256_extractf128_pd(sum, 1),
            &values[i..],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_reports_a_consistent_level() {
        let level = simd_level();
        let available = available_levels();
        assert!(available.contains(&SimdLevel::Scalar));
        // The dispatched level is scalar (env off-switch) or hardware-available.
        assert!(level == SimdLevel::Scalar || available.contains(&level));
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }

    #[test]
    fn gated_sums_match_scalar_on_all_levels() {
        let n = 1000;
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        let mut tags = Vec::new();
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            starts.push(x % 1_000_000);
            ends.push(starts[i] + x % 10_000);
            tags.push((x % 9) as u8);
        }
        let mut expected = [0u64; 9];
        scalar::tag_duration_sums(&starts, &ends, &tags, &mut expected);
        for level in available_levels() {
            let mut sums = [0u64; 9];
            tag_duration_sums_at(level, &starts, &ends, &tags, &mut sums);
            assert_eq!(sums, expected, "{level:?}");
        }
    }

    #[test]
    fn tag_matches_visit_ascending_indices_on_all_levels() {
        let tags: Vec<u8> = (0..777u32).map(|i| (i % 5) as u8).collect();
        let mut expected = Vec::new();
        scalar::for_each_tag_match(&tags, 3, &mut |i| expected.push(i));
        for level in available_levels() {
            let mut got = Vec::new();
            for_each_tag_match_at(level, &tags, 3, |i| got.push(i));
            assert_eq!(got, expected, "{level:?}");
        }
    }

    #[test]
    fn min_max_sum_matches_scalar_bitwise_on_all_levels() {
        let values: Vec<f64> = (0..333)
            .map(|i| ((i * 2654435761u64 % 10_000) as f64) / 7.0 - 500.0)
            .collect();
        let expected = scalar::min_max_sum(&values);
        for level in available_levels() {
            let got = min_max_sum_at(level, &values);
            assert_eq!(got.0.to_bits(), expected.0.to_bits(), "{level:?} min");
            assert_eq!(got.1.to_bits(), expected.1.to_bits(), "{level:?} max");
            assert_eq!(got.2.to_bits(), expected.2.to_bits(), "{level:?} sum");
        }
        assert_eq!(
            min_max_sum(&[]),
            (f64::INFINITY, f64::NEG_INFINITY, 0.0),
            "empty sentinel"
        );
    }
}
