//! LEB128 variable-length integer encoding used by the binary trace format.
//!
//! One encoder ([`put_varint`]) and one decoder ([`get_varint`]), both over
//! bytes in memory; fields are read and written through the cursor built on
//! them ([`crate::wire`]). The only varint that is read from a stream is a
//! section's length, so that reader is private to the format.

use std::io::{self, Read};

/// Maximum number of bytes a LEB128-encoded `u64` may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Why [`get_varint`] could not decode a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The buffer ended before the terminating byte.
    Truncated,
    /// The encoding does not fit a `u64` (more than 64 significant bits, or
    /// longer than [`MAX_VARINT_LEN`] bytes).
    Overflow,
}

/// Encodes `value` into `buf`, returning the number of bytes used.
#[inline]
fn encode_varint(mut value: u64, buf: &mut [u8; MAX_VARINT_LEN]) -> usize {
    let mut n = 0;
    while value >= 0x80 {
        buf[n] = (value as u8) | 0x80;
        value >>= 7;
        n += 1;
    }
    buf[n] = value as u8;
    n + 1
}

/// Appends `value` to `out` as an unsigned LEB128 varint — the one encoder of
/// the crate.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, value: u64) {
    if value < 0x80 {
        out.push(value as u8);
    } else {
        let mut buf = [0u8; MAX_VARINT_LEN];
        let n = encode_varint(value, &mut buf);
        out.extend_from_slice(&buf[..n]);
    }
}

/// Decodes one unsigned LEB128 varint from `buf` at `*pos`, advancing `*pos`
/// past it — the one decoder of the crate. On error `*pos` is left where it
/// was.
///
/// Values of up to eight encoded bytes (56 bits — every delta, duration and
/// id a real trace produces) decode from a single bounds-checked window, with
/// no per-byte bounds or overflow check; longer encodings and the last seven
/// bytes of a buffer take the byte-wise path.
///
/// # Errors
///
/// [`VarintError::Truncated`] when `buf` ends inside the value,
/// [`VarintError::Overflow`] when it does not fit a `u64`.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    if let Some(window) = buf.get(*pos..).and_then(|rest| rest.first_chunk::<8>()) {
        let mut value = 0u64;
        for (i, &byte) in window.iter().enumerate() {
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                *pos += i + 1;
                return Ok(value);
            }
        }
    }
    get_varint_bytewise(buf, pos)
}

#[cold]
fn get_varint_bytewise(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut value = 0u64;
    for (i, &byte) in buf.get(*pos..).unwrap_or(&[]).iter().enumerate() {
        // The tenth byte carries bit 63 only; an eleventh cannot exist.
        if i == MAX_VARINT_LEN - 1 && byte > 1 {
            return Err(VarintError::Overflow);
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Ok(value);
        }
    }
    Err(VarintError::Truncated)
}

/// Reads a section's length from the stream: gathers the value's bytes (a
/// reader has no length to look ahead by), then decodes them with
/// [`get_varint`].
///
/// # Errors
///
/// An error of kind [`io::ErrorKind::InvalidData`] when the encoding overflows a
/// `u64` or is longer than [`MAX_VARINT_LEN`] bytes; reader errors, including
/// `UnexpectedEof` on truncated input, are propagated.
pub(super) fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; MAX_VARINT_LEN];
    let mut n = 0;
    loop {
        r.read_exact(&mut buf[n..=n])?;
        n += 1;
        if buf[n - 1] & 0x80 == 0 || n == MAX_VARINT_LEN {
            break;
        }
    }
    // Ten bytes without a terminator fail the tenth byte's range check, so
    // the only error left to map is the overflow.
    get_varint(&buf[..n], &mut 0)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "varint overflows u64"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        buf
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(get_varint(&encoded(v), &mut 0), Ok(v), "value {v}");
        }
    }

    #[test]
    fn varint_encoding_lengths() {
        for (v, len) in [(0, 1), (127, 1), (128, 2), (u64::MAX, MAX_VARINT_LEN)] {
            assert_eq!(encoded(v).len(), len, "value {v}");
        }
    }

    #[test]
    fn varint_truncated_input() {
        let buf = [0x80u8];
        assert!(read_varint(&mut &buf[..]).is_err());
    }

    #[test]
    fn varint_overlong_rejected() {
        let buf = [0xffu8; 11];
        assert!(read_varint(&mut &buf[..]).is_err());
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 bytes with the last contributing more than the remaining bit.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(read_varint(&mut &buf[..]).is_err());
    }

    #[test]
    fn slice_codec_agrees_with_the_io_adapters() {
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            (1 << 56) - 1,
            1 << 56,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut packed = Vec::new();
        for &v in &values {
            put_varint(&mut packed, v);
        }
        // Decoding walks the packed buffer, through the windowed path and —
        // for the long values and the buffer's tail — the byte-wise one; the
        // stream reader takes the same values off the same bytes.
        let mut pos = 0;
        let mut stream = &packed[..];
        for &v in &values {
            assert_eq!(get_varint(&packed, &mut pos), Ok(v));
            assert_eq!(read_varint(&mut stream).unwrap(), v);
        }
        assert_eq!(pos, packed.len());
        assert!(stream.is_empty());
        assert_eq!(get_varint(&packed, &mut pos), Err(VarintError::Truncated));
    }

    #[test]
    fn slice_decoder_rejects_what_the_reader_rejects() {
        // Non-canonical but in-range encodings decode like the reader's.
        let padded = [0x80u8, 0x80, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(get_varint(&padded, &mut 0), Ok(0));
        assert_eq!(read_varint(&mut &padded[..]).unwrap(), 0);
        for bad in [
            &[0xffu8; 11][..],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
        ] {
            let mut pos = 0;
            assert_eq!(get_varint(bad, &mut pos), Err(VarintError::Overflow));
            assert_eq!(pos, 0, "a failed decode does not advance");
            assert!(read_varint(&mut &bad[..]).is_err());
        }
        for cut in [&[0x80u8][..], &[0xff; 9], &[]] {
            assert_eq!(get_varint(cut, &mut 0), Err(VarintError::Truncated));
        }
    }
}
