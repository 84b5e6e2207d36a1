//! The crate's one byte cursor: bounded, panic-free decoding and encoding of
//! varint-framed fields.
//!
//! Everything that is decoded from bytes which are already in memory goes
//! through [`WireReader`]: the sections of a trace file ([`crate::format`]),
//! the directory of a column store ([`crate::store`]) and the frames the
//! analysis server (`aftermath-serve`) exchanges with its clients. All three
//! arrive from outside the program, so every decode treats its input as
//! hostile: no allocation is sized from an unvalidated length, no read runs
//! past the buffer, an id that does not fit its type is refused rather than
//! wrapped, and malformed bytes surface as a typed [`WireError`] (a
//! [`crate::TraceError::Format`] once converted) instead of a panic. The field
//! encodings are the trace format's: unsigned LEB128 varints
//! ([`crate::format::get_varint`], the one decoder), little-endian IEEE-754 bit
//! patterns for `f64`, and length-prefixed UTF-8 strings.
//!
//! [`WireReader`] decodes from a slice (one section payload, one directory,
//! one already length-delimited frame); [`WireWriter`] builds one. Both are
//! deliberately cursor-shaped rather than `io::Read`/`io::Write`-shaped: the
//! unit is always fully buffered before decoding starts, which is what makes
//! the "never reads past the end, never blocks mid-message" guarantee local and
//! testable. (The store's block codecs keep their own loops over
//! [`crate::format::get_varint`]: they decode whole columns, not fields.)

use std::fmt;

use crate::format::{get_varint, put_varint, VarintError};

/// Decoding error of one wire field. Every variant is a *data* error — readers
/// never panic on malformed input, and I/O does not occur at this layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field completed.
    Truncated,
    /// A field violated its encoding (overlong varint, invalid UTF-8, bad tag,
    /// a value beyond the 32 bits its field holds).
    Malformed(&'static str),
    /// A length prefix exceeded what the enclosing frame can possibly hold or a
    /// protocol-imposed cap; honoring it would mean unbounded allocation.
    TooLarge(&'static str),
    /// Decoding finished but `n` payload bytes were left over — the message was
    /// longer than its own content, which a strict decoder must reject.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire message truncated"),
            WireError::Malformed(what) => write!(f, "malformed wire field: {what}"),
            WireError::TooLarge(what) => write!(f, "wire length exceeds bounds: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after wire message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked cursor over one buffered unit (section, directory, frame).
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at the end of the buffer.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let byte = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads an unsigned LEB128 varint with the trace format's one decoder
    /// ([`crate::format::get_varint`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on a cut-off encoding, [`WireError::Malformed`]
    /// on one that overflows a `u64` or exceeds 10 bytes.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        get_varint(self.buf, &mut self.pos).map_err(|error| match error {
            VarintError::Truncated => WireError::Truncated,
            VarintError::Overflow => WireError::Malformed("varint does not fit a u64"),
        })
    }

    /// Reads a varint that must fit 32 bits — every id (CPU, node, counter,
    /// task type) and every count the formats store as one. A larger value is
    /// refused, never wrapped: `2³² + 1` is not CPU 1.
    ///
    /// # Errors
    ///
    /// Varint errors, plus [`WireError::Malformed`] naming the field (`what`)
    /// when the value exceeds `u32::MAX`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        u32::try_from(self.varint()?).map_err(|_| WireError::Malformed(what))
    }

    /// Reads a varint length prefix for a sequence whose elements occupy at
    /// least `min_elem_bytes` each. The length is bounded by the bytes actually
    /// remaining in the frame, so a hostile prefix can never size an
    /// allocation beyond the frame it arrived in.
    ///
    /// # Errors
    ///
    /// Varint errors, plus [`WireError::TooLarge`] when the claimed length
    /// cannot fit in the remaining payload.
    pub fn len(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, WireError> {
        let len = self.varint()?;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if len > cap as u64 {
            return Err(WireError::TooLarge(what));
        }
        Ok(len as usize)
    }

    /// Reads an `f64` from its little-endian IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at the end of the buffer.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let bytes = self.bytes(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(buf)))
    }

    /// Reads `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `len` bytes remain.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a length-prefixed UTF-8 string of at most `max_len` bytes.
    ///
    /// # Errors
    ///
    /// Varint errors, [`WireError::TooLarge`] beyond `max_len` or the remaining
    /// payload, [`WireError::Malformed`] for invalid UTF-8.
    pub fn string(&mut self, max_len: usize, what: &'static str) -> Result<String, WireError> {
        let len = self.len(1, what)?;
        if len > max_len {
            return Err(WireError::TooLarge(what));
        }
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not utf-8"))
    }

    /// Ends decoding, rejecting unconsumed bytes: a strict decoder treats a
    /// message longer than its own content as malformed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// Builder for one buffered unit (infallible — writing into memory).
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty payload.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends an unsigned LEB128 varint.
    pub fn varint(&mut self, value: u64) {
        put_varint(&mut self.buf, value);
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The finished payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut w = WireWriter::new();
        w.u8(0xab);
        w.varint(0);
        w.varint(u64::MAX);
        w.f64(-1234.5);
        w.string("hello üñï");
        w.bytes(&[1, 2, 3]);
        let payload = w.into_vec();
        let mut r = WireReader::new(&payload);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.varint().unwrap(), 0);
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -1234.5);
        assert_eq!(r.string(64, "s").unwrap(), "hello üñï");
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
        // Every bit pattern of an `f64` and every UTF-8 string survive.
        let floats = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, f64::NAN];
        let strings = ["", "hello", "üñïçødé", "a\tb\nc"];
        let mut w = WireWriter::new();
        floats.iter().for_each(|&v| w.f64(v));
        strings.iter().for_each(|s| w.string(s));
        let payload = w.into_vec();
        let mut r = WireReader::new(&payload);
        for v in floats {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
        for s in strings {
            assert_eq!(r.string(64, "s").unwrap(), s);
        }
        r.finish().unwrap();
    }

    #[test]
    fn a_value_beyond_u32_is_refused_with_the_fields_name() {
        let mut w = WireWriter::new();
        w.varint(u64::from(u32::MAX));
        w.varint((1 << 32) | 1);
        let payload = w.into_vec();
        let mut r = WireReader::new(&payload);
        assert_eq!(r.u32("cpu id"), Ok(u32::MAX));
        assert_eq!(r.u32("cpu id"), Err(WireError::Malformed("cpu id")));
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let mut w = WireWriter::new();
        w.f64(1.0);
        let payload = w.into_vec();
        for cut in 0..payload.len() {
            let mut r = WireReader::new(&payload[..cut]);
            assert_eq!(r.f64(), Err(WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_prefix_cannot_oversize_allocation() {
        // Claims u64::MAX elements with 2 bytes of actual payload.
        let mut w = WireWriter::new();
        w.varint(u64::MAX);
        w.bytes(&[0, 0]);
        let payload = w.into_vec();
        let mut r = WireReader::new(&payload);
        assert!(matches!(r.len(1, "list"), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn string_caps_and_utf8_are_enforced() {
        let mut w = WireWriter::new();
        w.string("abcdef");
        let payload = w.into_vec();
        let mut r = WireReader::new(&payload);
        assert!(matches!(r.string(3, "s"), Err(WireError::TooLarge(_))));
        let mut w = WireWriter::new();
        w.varint(2);
        w.bytes(&[0xff, 0xfe]);
        let payload = w.into_vec();
        let mut r = WireReader::new(&payload);
        assert_eq!(
            r.string(16, "s"),
            Err(WireError::Malformed("string is not utf-8"))
        );
    }

    #[test]
    fn overlong_and_overflowing_varints_rejected() {
        let mut r = WireReader::new(&[0xff; 11]);
        assert!(matches!(r.varint(), Err(WireError::Malformed(_))));
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut r = WireReader::new(&overflow);
        assert!(matches!(r.varint(), Err(WireError::Malformed(_))));
        let mut r = WireReader::new(&[0x80]);
        assert_eq!(r.varint(), Err(WireError::Truncated));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }
}
