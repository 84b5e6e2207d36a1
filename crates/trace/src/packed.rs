//! Bit-packed integer columns: frame of reference with patched exceptions —
//! the integer encoding of every column of a column store block
//! ([`crate::store`]).
//!
//! A column of `n` values (`n` is known to the reader: the block's row count,
//! or a count the block's heads give) is written as
//!
//! ```text
//! column   := min varint | width u8 | patches varint | lows | patched?
//! lows     := n values (v - min) mod 2^width, `width` bits each
//! patched  := high-width u8 | positions | highs      (only when patches > 0)
//! positions:= the patched rows, ascending, bit-length(n - 1) bits each
//! highs    := their (v - min) >> width, high-width bits each
//! ```
//!
//! Each bit run is LSB-first and padded to whole bytes. A column of no values
//! is no bytes at all. The writer takes `min` as the column's minimum and
//! `width` as the one of `0..=64` with the fewest bytes, read off one
//! histogram of the values' bit lengths: a width's cost is its `lows` plus,
//! for the values longer than it, their positions and high bits — all fixed
//! widths, so every width's cost is exact. Ties go to the wider width (fewer
//! patches).
//!
//! The reader unpacks `lows` straight into the destination in one loop with
//! no branch per value (eight values at a time: one bounds check per group),
//! applies the patches in one pass and adds `min` in another. Every bound is
//! checked against the column's own bytes before it is used: a width above
//! 64, more patches than values, a patch wider than 64 bits, a position past
//! the last value or not above the one before, bits past the end of the
//! buffer and `min` plus a value past `u64` are [`TraceError::Format`]
//! errors.

use crate::error::TraceError;
use crate::format::{self, put_varint, VarintError};

/// Widest value a column holds, in bits.
const MAX_WIDTH: usize = 64;

/// The error message of a column that ends before its bits do.
const TRUNCATED: &str = "truncated packed column";

/// Bits needed to write `v` (0 for 0).
#[inline]
fn bit_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The low `width` bits set (`width <= 64`).
#[inline]
fn low_mask(width: usize) -> u64 {
    ((1u128 << width) - 1) as u64
}

/// Bytes of the varint of `v`.
fn varint_len(v: usize) -> usize {
    bit_len(v as u64).max(1).div_ceil(7)
}

/// Appends `values` as one packed column (nothing for no values).
pub(crate) fn put_packed(out: &mut Vec<u8>, values: &[u64]) {
    let Some(&min) = values.iter().min() else {
        return;
    };
    let mut lengths = [0usize; MAX_WIDTH + 1];
    for &v in values {
        lengths[bit_len(v - min)] += 1;
    }
    let position_bits = bit_len(values.len() as u64 - 1);
    let (width, patches, high_width) = cheapest_width(&lengths, values.len(), position_bits);
    put_varint(out, min);
    out.push(width as u8);
    put_varint(out, patches as u64);
    let mask = low_mask(width);
    // The patches' positions and high bits, gathered as the lows are packed
    // (patches exist only below the widest length, so `width < 64` there).
    let mut patched = Vec::with_capacity(patches);
    let lows = values.iter().enumerate().map(|(i, &v)| {
        let x = v - min;
        if patches > 0 && x >> width != 0 {
            patched.push((i as u64, x >> width));
        }
        x & mask
    });
    pack(out, lows, width);
    if patches > 0 {
        out.push(high_width as u8);
        pack(out, patched.iter().map(|&(at, _)| at), position_bits);
        pack(out, patched.iter().map(|&(_, high)| high), high_width);
    }
}

/// The width of least bytes for a column of `rows` values with `lengths[l]`
/// values of bit length `l`: `(width, patches, high_width)`.
fn cheapest_width(
    lengths: &[usize; MAX_WIDTH + 1],
    rows: usize,
    position_bits: usize,
) -> (usize, usize, usize) {
    let widest = lengths.iter().rposition(|&n| n > 0).unwrap_or(0);
    let mut best = (usize::MAX, widest, 0);
    // Values longer than `width`, as `width` falls from the widest length.
    let mut patches = 0;
    for width in (0..=widest).rev() {
        let high_width = widest - width;
        let patched = match patches {
            0 => 0,
            n => 1 + (n * position_bits).div_ceil(8) + (n * high_width).div_ceil(8),
        };
        let bytes = (rows * width).div_ceil(8) + varint_len(patches) + patched;
        if bytes < best.0 {
            best = (bytes, width, patches);
        }
        patches += lengths[width];
    }
    let (_, width, patches) = best;
    (width, patches, widest - width)
}

/// Appends `values` (each below `2^width`) at `width` bits each, LSB-first,
/// padded to a whole byte. Every value is drawn, also at width 0.
fn pack(out: &mut Vec<u8>, values: impl Iterator<Item = u64>, width: usize) {
    let (mut acc, mut filled) = (0u128, 0usize);
    for v in values {
        acc |= u128::from(v) << filled;
        filled += width;
        if filled >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            filled -= 64;
        }
    }
    out.extend_from_slice(&(acc as u64).to_le_bytes()[..filled.div_ceil(8)]);
}

/// Fills `out` with the `width`-bit values of `bits`, which holds exactly
/// `(out.len() * width).div_ceil(8)` bytes.
fn unpack(bits: &[u8], width: usize, out: &mut [u64]) {
    match width {
        0 => out.fill(0),
        1..=56 => unpack_groups::<8>(bits, width, out),
        _ => unpack_groups::<16>(bits, width, out),
    }
}

/// [`unpack`] with each value one `WINDOW`-byte window read from its first
/// byte, shifted and masked: 8 bytes hold a value of up to 56 bits at any bit
/// offset, 16 any value. Eight values take exactly `width` bytes, so the
/// windows of a group of eight lie in one slice, bounds-checked once; the
/// values whose group's slice would run past `bits` read a zero-padded copy
/// of its last bytes.
fn unpack_groups<const WINDOW: usize>(bits: &[u8], width: usize, out: &mut [u64]) {
    let mask = low_mask(width);
    let value = |bytes: &[u8], bit: usize| {
        let mut window = [0u8; 16];
        window[..WINDOW].copy_from_slice(&bytes[bit / 8..][..WINDOW]);
        (u128::from_le_bytes(window) >> (bit % 8)) as u64 & mask
    };
    // Groups `g` with `(g + 1) * width + WINDOW <= bits.len()`.
    let in_place = match bits.len().checked_sub(WINDOW) {
        Some(room) => (room / width).min(out.len() / 8),
        None => 0,
    };
    let (head, tail) = out.split_at_mut(in_place * 8);
    for (g, group) in head.chunks_exact_mut(8).enumerate() {
        let bytes = &bits[g * width..][..width + WINDOW];
        for (j, v) in group.iter_mut().enumerate() {
            *v = value(bytes, j * width);
        }
    }
    // Fewer than `width + WINDOW` bytes are left.
    let from = in_place * width;
    let mut padded = [0u8; 96];
    padded[..bits.len() - from].copy_from_slice(&bits[from..]);
    for (i, v) in tail.iter_mut().enumerate() {
        *v = value(&padded, i * width);
    }
}

/// Decodes one varint of a store block, header or directory
/// ([`format::get_varint`], the crate's slice codec) with the store's error
/// wording.
#[inline]
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    format::get_varint(buf, pos).map_err(|e| {
        TraceError::Format(
            match e {
                VarintError::Truncated => "truncated varint in store block",
                VarintError::Overflow => "varint overflow in store block",
            }
            .into(),
        )
    })
}

/// The next `len` raw bytes of a block, advancing `*pos`; `truncated` is the
/// error message when the block ends first.
pub(crate) fn take<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    len: usize,
    truncated: &str,
) -> Result<&'a [u8], TraceError> {
    let bytes = pos
        .checked_add(len)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| TraceError::Format(truncated.into()))?;
    *pos += len;
    Ok(bytes)
}

fn malformed(what: &str) -> TraceError {
    TraceError::Format(what.into())
}

/// `rows * width` bits as whole bytes; every operand is at most 64 times a
/// length that fits in memory, so the product does not overflow.
fn bit_bytes(rows: usize, width: usize) -> usize {
    (rows * width).div_ceil(8)
}

/// Decodes the packed column at `*pos` into `out` — as many values as `out`
/// holds, none for an empty `out` — advancing `*pos` past it.
///
/// # Errors
///
/// [`TraceError::Format`] for a column that is truncated or malformed (see
/// the module docs); `out` then holds garbage.
pub(crate) fn get_packed(buf: &[u8], pos: &mut usize, out: &mut [u64]) -> Result<(), TraceError> {
    let rows = out.len();
    if rows == 0 {
        return Ok(());
    }
    let min = get_varint(buf, pos)?;
    let width = usize::from(take(buf, pos, 1, TRUNCATED)?[0]);
    if width > MAX_WIDTH {
        return Err(TraceError::Format(format!(
            "packed column width {width} above 64"
        )));
    }
    let patches = get_varint(buf, pos)?;
    if patches > rows as u64 {
        return Err(malformed("more patches than rows in packed column"));
    }
    let patches = patches as usize;
    unpack(
        take(buf, pos, bit_bytes(rows, width), TRUNCATED)?,
        width,
        out,
    );
    if patches > 0 {
        let high_width = usize::from(take(buf, pos, 1, TRUNCATED)?[0]);
        if width + high_width > MAX_WIDTH {
            return Err(malformed("packed patch wider than 64 bits"));
        }
        let position_bits = bit_len(rows as u64 - 1);
        let positions = take(buf, pos, bit_bytes(patches, position_bits), TRUNCATED)?;
        let highs = take(buf, pos, bit_bytes(patches, high_width), TRUNCATED)?;
        let mut patch = vec![0u64; 2 * patches];
        let (at, high) = patch.split_at_mut(patches);
        unpack(positions, position_bits, at);
        unpack(highs, high_width, high);
        let mut next = 0;
        for (&at, &high) in at.iter().zip(high.iter()) {
            let at = at as usize;
            if at >= rows {
                return Err(malformed("packed patch position past the column end"));
            }
            if at < next {
                return Err(malformed("packed patch positions out of order"));
            }
            out[at] |= (u128::from(high) << width) as u64;
            next = at + 1;
        }
    }
    if min != 0 {
        let mut overflow = false;
        for v in out.iter_mut() {
            let (sum, carried) = v.overflowing_add(min);
            *v = sum;
            overflow |= carried;
        }
        if overflow {
            return Err(malformed("packed value past u64"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The column's bytes and what it decodes to.
    fn round_trip(values: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_packed(&mut bytes, values);
        let mut back = vec![0; values.len()];
        let mut pos = 0;
        get_packed(&bytes, &mut pos, &mut back).unwrap();
        assert_eq!(pos, bytes.len(), "the column is read to its end");
        assert!(back == values, "{} values round-trip", values.len());
        bytes
    }

    /// The width byte and patch count of a column's header.
    fn header(bytes: &[u8]) -> (u8, u64) {
        let mut pos = 0;
        format::get_varint(bytes, &mut pos).unwrap();
        let width = bytes[pos];
        pos += 1;
        (width, format::get_varint(bytes, &mut pos).unwrap())
    }

    #[test]
    fn every_width_is_chosen_and_round_trips_at_1_3_and_65536_rows() {
        for rows in [1, 3, 65_536] {
            for width in 0..=64 {
                // Every value but the first needs every bit of the width, so
                // in a full block no patch list undercuts it (in a short one
                // patches may).
                let top = low_mask(width);
                let values: Vec<u64> = (0..rows).map(|i| if i == 0 { 0 } else { top }).collect();
                let bytes = round_trip(&values);
                if rows == 65_536 {
                    assert_eq!(header(&bytes), (width as u8, 0), "width {width}");
                }
                // Shifted to the top of the range: the frame of reference
                // takes the offset, up to `u64::MAX`.
                let shifted: Vec<u64> = values.iter().map(|&v| v + (u64::MAX - top)).collect();
                round_trip(&shifted);
            }
        }
    }

    #[test]
    fn a_constant_column_is_width_0_with_no_bits() {
        for rows in [1, 3, 65_536] {
            for constant in [0, 7, u64::MAX] {
                let bytes = round_trip(&vec![constant; rows]);
                assert_eq!(header(&bytes), (0, 0));
                let mut min_len = Vec::new();
                put_varint(&mut min_len, constant);
                assert_eq!(bytes.len(), min_len.len() + 2, "{rows} x {constant}");
            }
        }
    }

    #[test]
    fn outliers_on_the_first_and_last_row_are_patches() {
        for rows in [3, 65_536] {
            let mut values: Vec<u64> = (0..rows as u64).map(|i| i % 5).collect();
            values[0] = u64::MAX;
            values[rows - 1] = 1 << 40;
            let (width, patches) = header(&round_trip(&values));
            assert_eq!(patches, 2, "{rows} rows");
            if rows == 65_536 {
                assert_eq!(width, 3);
            }
        }
    }

    #[test]
    fn an_empty_column_is_no_bytes() {
        assert!(round_trip(&[]).is_empty());
        let mut pos = 0;
        get_packed(&[], &mut pos, &mut []).unwrap();
        assert_eq!(pos, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn random_columns_round_trip(
            base in proptest::prelude::any::<u64>(),
            spread in 0u32..=64,
            values in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..300),
            outliers in proptest::collection::vec((proptest::prelude::any::<usize>(), proptest::prelude::any::<u64>()), 0..8),
        ) {
            // Values within `spread` bits above `base` (saturating at the
            // top), with a few anywhere in the range.
            let mask = low_mask(spread as usize);
            let mut values: Vec<u64> = values.iter().map(|&v| base.saturating_add(v & mask)).collect();
            let rows = values.len();
            for (at, v) in outliers {
                values[at % rows] = v;
            }
            let mut bytes = Vec::new();
            put_packed(&mut bytes, &values);
            let mut back = vec![0; rows];
            let mut pos = 0;
            get_packed(&bytes, &mut pos, &mut back).unwrap();
            proptest::prop_assert_eq!(pos, bytes.len());
            proptest::prop_assert_eq!(back, values);
        }
    }
}
