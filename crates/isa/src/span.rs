//! PC spans: half-open address ranges over a program's text segment.
//!
//! Analyses and diagnostics need to talk about *where* in a binary
//! something happened — a single instruction, a basic block, or a whole
//! region. A [`PcSpan`] is the common currency: a half-open byte range
//! `[start, end)` of instruction addresses, with helpers for the
//! point/block cases and a stable `{start:#x}..{end:#x}` rendering.

use std::fmt;

use crate::INSTR_BYTES;

/// A half-open range `[start, end)` of instruction addresses.
///
/// # Examples
///
/// ```
/// use mssp_isa::PcSpan;
///
/// let block = PcSpan::new(0x100, 0x110);
/// assert_eq!(block.pcs().count(), 4);
/// assert!(block.contains(0x10C));
/// assert!(!block.contains(0x110));
/// assert_eq!(block.to_string(), "0x100..0x110");
///
/// let point = PcSpan::point(0x104);
/// assert_eq!(point.merge(block), block);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PcSpan {
    /// Address of the first instruction in the span.
    pub start: u64,
    /// One past the last instruction address.
    pub end: u64,
}

impl PcSpan {
    /// Creates a span `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[must_use]
    pub fn new(start: u64, end: u64) -> PcSpan {
        assert!(end >= start, "span end {end:#x} before start {start:#x}");
        PcSpan { start, end }
    }

    /// The span of the single instruction at `pc`.
    #[must_use]
    pub fn point(pc: u64) -> PcSpan {
        PcSpan {
            start: pc,
            end: pc + INSTR_BYTES,
        }
    }

    /// Whether `pc` lies inside the span.
    #[must_use]
    pub fn contains(self, pc: u64) -> bool {
        pc >= self.start && pc < self.end
    }

    /// Iterates over the instruction addresses in the span.
    pub fn pcs(self) -> impl Iterator<Item = u64> {
        (self.start..self.end).step_by(INSTR_BYTES as usize)
    }

    /// The smallest span covering both `self` and `other`.
    #[must_use]
    pub fn merge(self, other: PcSpan) -> PcSpan {
        PcSpan {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for PcSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}..{:#x}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_spans_one_instruction() {
        let s = PcSpan::point(0x200);
        assert!(s.contains(0x200));
        assert!(!s.contains(0x204));
        assert_eq!(s.pcs().collect::<Vec<_>>(), vec![0x200]);
    }

    #[test]
    fn merge_covers_both() {
        let a = PcSpan::new(0x100, 0x108);
        let b = PcSpan::new(0x110, 0x120);
        assert_eq!(a.merge(b), PcSpan::new(0x100, 0x120));
        assert_eq!(b.merge(a), PcSpan::new(0x100, 0x120));
    }

    #[test]
    fn empty_span_contains_nothing() {
        let e = PcSpan::new(0x100, 0x100);
        assert!(!e.contains(0x100));
        assert_eq!(e.pcs().count(), 0);
    }

    #[test]
    #[should_panic(expected = "before start")]
    fn inverted_span_rejected() {
        let _ = PcSpan::new(0x110, 0x100);
    }

    #[test]
    fn display_is_hex_range() {
        assert_eq!(PcSpan::new(0x100, 0x104).to_string(), "0x100..0x104");
    }
}
