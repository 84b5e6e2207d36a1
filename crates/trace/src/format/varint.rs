//! LEB128 variable-length integer encoding used by the binary trace format.

use std::io::{self, Read, Write};

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
/// the crate; [`write_varint`] is its `io::Write` adapter.
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
/// past it — the one decoder of the crate; [`read_varint`] is its `io::Read`
/// adapter. On error `*pos` is left where it was.
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

/// Writes `value` as an unsigned LEB128 varint.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_varint<W: Write>(w: &mut W, value: u64) -> io::Result<usize> {
    let mut buf = [0u8; MAX_VARINT_LEN];
    let n = encode_varint(value, &mut buf);
    w.write_all(&buf[..n])?;
    Ok(n)
}

/// Reads an unsigned LEB128 varint.
///
/// # Errors
///
/// Returns an error of kind [`io::ErrorKind::InvalidData`] when the encoding overflows a
/// `u64` or is longer than [`MAX_VARINT_LEN`] bytes, and propagates reader errors
/// (including `UnexpectedEof` on truncated input).
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    // Gather the value's bytes (a reader has no length to look ahead by), then
    // decode them with the slice codec.
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

/// Writes an `f64` as its IEEE-754 bit pattern in little-endian order.
pub fn write_f64<W: Write>(w: &mut W, value: f64) -> io::Result<()> {
    w.write_all(&value.to_bits().to_le_bytes())
}

/// Reads an `f64` written by [`write_f64`].
pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_bits(u64::from_le_bytes(buf)))
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_string<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Reads a length-prefixed UTF-8 string (length capped at 16 MiB to bound allocations).
///
/// # Errors
///
/// Returns `InvalidData` for over-long or non-UTF-8 strings.
pub fn read_string<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_varint(r)? as usize;
    if len > 16 * 1024 * 1024 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "string length exceeds 16 MiB",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "string is not valid utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_varint(&mut buf, v).unwrap();
        read_varint(&mut &buf[..]).unwrap()
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
            assert_eq!(roundtrip(v), v, "value {v}");
        }
    }

    #[test]
    fn varint_encoding_lengths() {
        let mut buf = Vec::new();
        assert_eq!(write_varint(&mut buf, 0).unwrap(), 1);
        buf.clear();
        assert_eq!(write_varint(&mut buf, 127).unwrap(), 1);
        buf.clear();
        assert_eq!(write_varint(&mut buf, 128).unwrap(), 2);
        buf.clear();
        assert_eq!(write_varint(&mut buf, u64::MAX).unwrap(), 10);
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
            let mut via_io = Vec::new();
            write_varint(&mut via_io, v).unwrap();
            let at = packed.len();
            put_varint(&mut packed, v);
            assert_eq!(packed[at..], via_io[..], "value {v}");
        }
        // Decoding walks the packed buffer, through the windowed path and —
        // for the long values and the buffer's tail — the byte-wise one.
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&packed, &mut pos), Ok(v));
        }
        assert_eq!(pos, packed.len());
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

    #[test]
    fn f64_roundtrip() {
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 1234.5678] {
            let mut buf = Vec::new();
            write_f64(&mut buf, v).unwrap();
            assert_eq!(read_f64(&mut &buf[..]).unwrap(), v);
        }
        let mut buf = Vec::new();
        write_f64(&mut buf, f64::NAN).unwrap();
        assert!(read_f64(&mut &buf[..]).unwrap().is_nan());
    }

    #[test]
    fn string_roundtrip() {
        for s in ["", "hello", "üñïçødé", "a\tb\nc"] {
            let mut buf = Vec::new();
            write_string(&mut buf, s).unwrap();
            assert_eq!(read_string(&mut &buf[..]).unwrap(), s);
        }
    }

    #[test]
    fn string_invalid_utf8() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 2).unwrap();
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(read_string(&mut &buf[..]).is_err());
    }
}
