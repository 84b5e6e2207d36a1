//! Binary trace format: a sectioned stream-of-structures encoding (paper Section VI-A).
//!
//! A trace file starts with a fixed header (magic + version) followed by a sequence of
//! *sections*. Every section is a `(tag, length, payload)` triple; unknown tags are
//! skipped so that the format can evolve, and **every section is optional** — a trace
//! containing only task begin/end markers is still loadable and supports the
//! duration-based analyses, mirroring the incremental approach of the paper.
//!
//! Integers are encoded as unsigned LEB128 varints, which keeps traces compact without
//! requiring an external compression step. Floating-point values use their IEEE-754 bit
//! pattern in little-endian order. Both sides go through the crate's one byte cursor
//! ([`crate::wire`]): the writer builds a section's payload with it, the reader decodes
//! the payload's records off it and straight into the [`crate::TraceBuilder`].
//!
//! A discrete event is stored as `kind tag u8 | payload varint*`. The tags, and how many
//! payload fields each kind has, are not spelled out here: the event-kind table lives in
//! [`crate::columns`] (`tag`, `encode_kind`, `decode_kind`, `kind_arity`), which the
//! in-memory event columns, the column store's blocks and this format all share.
//!
//! ```text
//! file    := magic "AFTM" | version u32-le | section* | end-section
//! section := tag u8 | payload-length varint | payload
//! ```
//!
//! A payload is exactly its records — bytes after the last one are an error — while a
//! file that ends after a whole section, without the end marker, loads as what it holds.
//!
//! # Examples
//!
//! ```rust
//! use aftermath_trace::{MachineTopology, TraceBuilder, WorkerState, CpuId, Timestamp};
//! use aftermath_trace::format::{write_trace, read_trace};
//!
//! # fn main() -> Result<(), aftermath_trace::TraceError> {
//! let mut b = TraceBuilder::new(MachineTopology::uniform(1, 2));
//! b.add_state(CpuId(0), WorkerState::Idle, Timestamp(0), Timestamp(100), None)?;
//! let trace = b.finish()?;
//!
//! let mut buf = Vec::new();
//! write_trace(&trace, &mut buf)?;
//! let back = read_trace(&buf[..])?;
//! assert_eq!(trace, back);
//! # Ok(())
//! # }
//! ```

mod reader;
mod varint;
mod writer;

pub use reader::{read_trace, read_trace_file, read_trace_file_with, read_trace_with};
pub use varint::{get_varint, put_varint, VarintError, MAX_VARINT_LEN};
pub(crate) use writer::write_metadata;
pub use writer::{write_trace, write_trace_file};

/// Magic bytes identifying an Aftermath-rs trace file.
pub const MAGIC: [u8; 4] = *b"AFTM";

/// Current version of the trace format.
pub const FORMAT_VERSION: u32 = 1;

/// Section tags of the binary format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum SectionTag {
    Topology = 1,
    CounterDescriptions = 2,
    TaskTypes = 3,
    MemoryRegions = 4,
    Tasks = 5,
    StateIntervals = 6,
    DiscreteEvents = 7,
    CounterSamples = 8,
    MemoryAccesses = 9,
    CommEvents = 10,
    Symbols = 11,
    End = 0xff,
}

impl SectionTag {
    pub(crate) fn from_u8(v: u8) -> Option<SectionTag> {
        Some(match v {
            1 => SectionTag::Topology,
            2 => SectionTag::CounterDescriptions,
            3 => SectionTag::TaskTypes,
            4 => SectionTag::MemoryRegions,
            5 => SectionTag::Tasks,
            6 => SectionTag::StateIntervals,
            7 => SectionTag::DiscreteEvents,
            8 => SectionTag::CounterSamples,
            9 => SectionTag::MemoryAccesses,
            10 => SectionTag::CommEvents,
            11 => SectionTag::Symbols,
            0xff => SectionTag::End,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_tag_roundtrip() {
        for tag in [
            SectionTag::Topology,
            SectionTag::CounterDescriptions,
            SectionTag::TaskTypes,
            SectionTag::MemoryRegions,
            SectionTag::Tasks,
            SectionTag::StateIntervals,
            SectionTag::DiscreteEvents,
            SectionTag::CounterSamples,
            SectionTag::MemoryAccesses,
            SectionTag::CommEvents,
            SectionTag::Symbols,
            SectionTag::End,
        ] {
            assert_eq!(SectionTag::from_u8(tag as u8), Some(tag));
        }
        assert_eq!(SectionTag::from_u8(99), None);
    }
}
