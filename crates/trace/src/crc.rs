//! CRC-32 (the IEEE 802.3 / zlib polynomial) used by the column store's
//! integrity layer.
//!
//! The store checksums every block payload plus the directory and metadata
//! header (see [`crate::store`]), so this sits on the write path and on the
//! materialisation hot path. [`crc32`] has two tiers with identical values:
//!
//! * **table** — slicing-by-8 over compile-time tables, eight input bytes per
//!   step. The portable tier, the tail of the wide one, and the reference the
//!   wide one is tested against.
//! * **clmul** — on x86-64 with `pclmulqdq` and `sse4.1` (detected at run
//!   time, once), inputs of at least 64 bytes (`FOLD_MIN`) are folded four
//!   128-bit lanes at a time with carry-less multiplies and reduced to 32
//!   bits (Gopal et al., *Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ*); what is left — fewer than 16 bytes — continues through the
//!   tables from the folded state.
//!
//! The execution layer's one switch ([`aftermath_exec::NO_SIMD_ENV`]) pins the
//! table tier, as it pins the analysis kernels to their scalar one.

/// The reflected CRC-32 polynomial (IEEE 802.3, as used by zlib/PNG/gzip).
const POLY: u32 = 0xEDB8_8320;

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Shortest input the wide tier folds: four 128-bit lanes.
const FOLD_MIN: usize = 64;

/// Which implementation [`crc32`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Slicing-by-8 tables (any target).
    Table,
    /// Carry-less-multiply folding; only [`hardware_tier`] produces it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Clmul,
}

/// The widest tier this machine executes, whatever the switch says.
fn hardware_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        return Tier::Clmul;
    }
    Tier::Table
}

/// The tier to dispatch to: the table when wide kernels are `disabled`.
fn select(disabled: bool) -> Tier {
    if disabled {
        Tier::Table
    } else {
        hardware_tier()
    }
}

/// The tier [`crc32`] dispatches to in this process. Both inputs are cached
/// where they are detected (the switch in `aftermath-exec`, the CPU features
/// in `std`), so this is three relaxed loads.
fn tier() -> Tier {
    select(aftermath_exec::wide_kernels_disabled())
}

/// Name of the tier [`crc32`] dispatches to in this process: `clmul` or
/// `table` (what `reproduce store` prints).
pub fn tier_name() -> &'static str {
    match tier() {
        Tier::Table => "table",
        Tier::Clmul => "clmul",
    }
}

/// Computes the CRC-32 of `bytes` (initial value and final XOR `0xffff_ffff`,
/// matching zlib's `crc32`).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_at(tier(), bytes)
}

fn crc32_at(tier: Tier, bytes: &[u8]) -> u32 {
    let (state, tail) = match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Clmul if bytes.len() >= FOLD_MIN => {
            let (body, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: `Tier::Clmul` comes from `hardware_tier` only, which
            // detected `pclmulqdq` and `sse4.1`; `body` is a whole number of
            // 16-byte lanes and at least `FOLD_MIN` bytes.
            (unsafe { fold_clmul(!0, body) }, tail)
        }
        _ => (!0, bytes),
    };
    !update_table(state, tail)
}

/// Advances the raw (uninverted) CRC state `crc` over `bytes`, eight at a time.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        crc ^= u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(crc & 0xff) as usize]
            ^ TABLES[6][((crc >> 8) & 0xff) as usize]
            ^ TABLES[5][((crc >> 16) & 0xff) as usize]
            ^ TABLES[4][(crc >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// Advances the raw CRC state `state` over `body` by carry-less folding.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` and `sse4.1`, and `body.len()` must be a
/// multiple of 16 and at least [`FOLD_MIN`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold_clmul(state: u32, body: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // Folding constants of the reflected polynomial: `x^n mod P`, bit-reflected
    // and shifted left by one, for the distance `n` a 64-bit half is carried.
    const K1: i64 = 0x1_5444_2bd4; // four lanes ahead, low half: n = 4 * 128 + 32
    const K2: i64 = 0x1_c6e4_1596; // four lanes ahead, high half: n = 4 * 128 - 32
    const K3: i64 = 0x1_7519_97d0; // one lane ahead, low half: n = 128 + 32
    const K4: i64 = 0x0_ccaa_009e; // one lane ahead, high half; 128 -> 96 bits: n = 128 - 32
    const K5: i64 = 0x1_63cd_6124; // 96 -> 64 bits: n = 64
    const P_X: i64 = ((POLY as i64) << 1) | 1; // P itself, with its x^32 term
    const MU: i64 = 0x1_f701_1641; // floor(x^64 / P), Barrett's quotient estimate
    debug_assert!(body.len() >= FOLD_MIN && body.len().is_multiple_of(16));
    // Lane `i` of a chunk that holds at least `i + 1` of them (unaligned).
    let load = |chunk: &[u8], i: usize| _mm_loadu_si128(chunk[16 * i..][..16].as_ptr().cast());
    // `a` carried forward over the distance `k` stands for, onto `b`.
    let fold = |a: __m128i, b: __m128i, k: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    };
    let mut blocks = body.chunks_exact(FOLD_MIN);
    let first = blocks.next().expect("body holds four lanes");
    let mut x: [__m128i; 4] = std::array::from_fn(|i| load(first, i));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for block in &mut blocks {
        for (i, lane) in x.iter_mut().enumerate() {
            *lane = fold(*lane, load(block, i), k1k2);
        }
    }
    // Four lanes into one, then one lane at a time over the remainder.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    for lane in blocks.remainder().chunks_exact(16) {
        acc = fold(acc, load(lane, 0), k3k4);
    }
    // 128 → 96 → 64 bits, then Barrett-reduce the 64 to the 32-bit state.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(acc),
    );
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference implementation.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Bytes of a fixed xorshift stream.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn matches_reference_for_all_lengths_across_word_boundaries() {
        // Every tier is called explicitly, so both run on one machine
        // whatever the switch says: reference == table == widest == dispatched.
        let check = |bytes: &[u8], what: &str| {
            let want = crc32_reference(bytes);
            assert_eq!(crc32_at(Tier::Table, bytes), want, "table, {what}");
            assert_eq!(crc32_at(hardware_tier(), bytes), want, "wide, {what}");
            assert_eq!(crc32(bytes), want, "dispatched, {what}");
        };
        let data = noise(1_000_003 + 7);
        for offset in 0..8 {
            // Below the fold's entry, through every lane / remainder / tail
            // split of the first blocks, and across large block counts.
            let lengths = (0..=1_100).chain([4_095, 4_096, 4_097, 65_536, 1_000_003]);
            for len in lengths {
                let what = format!("offset {offset}, len {len}");
                check(&data[offset..offset + len], &what);
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        // 1 KiB, and 1 MiB of four-lane blocks + one remainder lane + a tail:
        // a flip in the first block, deep in the body, in the remainder lane
        // and in the last (table-continued) byte must each change the value.
        const MIB: usize = 1 << 20;
        let cases: [(usize, &[usize]); 2] = [
            (1024, &[0, 1, 511, 1023]),
            (
                MIB + 16 + 7,
                &[0, 17, 63, 64, MIB / 2 + 5, MIB - 1, MIB + 3, MIB + 22],
            ),
        ];
        for (len, positions) in cases {
            let mut data = noise(len);
            for tier in [Tier::Table, hardware_tier()] {
                let clean = crc32_at(tier, &data);
                for &pos in positions {
                    for bit in 0..8 {
                        data[pos] ^= 1 << bit;
                        let flipped = crc32_at(tier, &data);
                        data[pos] ^= 1 << bit;
                        assert_ne!(flipped, clean, "{tier:?}: flip at {pos}:{bit} undetected");
                    }
                }
            }
        }
    }

    #[test]
    fn the_switch_pins_the_table_tier_whatever_the_hardware_has() {
        assert_eq!(select(true), Tier::Table);
        assert_eq!(select(false), hardware_tier());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            assert_eq!(select(false), Tier::Clmul);
        }
        assert_eq!(tier_name() == "table", tier() == Tier::Table);
    }
}
