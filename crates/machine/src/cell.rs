//! Storage cells: the addressable units of machine state.
//!
//! The formal MSSP model treats a machine state as a partial map from
//! *cells* to values. This crate uses three kinds of cell:
//!
//! * one per general-purpose register,
//! * one per aligned 64-bit memory word (the unit at which the MSSP
//!   verify/commit hardware checks live-ins — the paper's implementation
//!   likewise verified at a fixed sub-line granularity rather than per
//!   byte), and
//! * the program counter.
//!
//! Program text is immutable in this model and therefore not part of the
//! mutable cell space (self-modifying code is out of scope, as in the
//! paper's evaluation).

use std::fmt;

use mssp_isa::Reg;

/// An addressable unit of machine state.
///
/// Memory cells are identified by *word index*: byte address divided by 8.
/// Sub-word accesses read and write the containing word(s), which is also
/// the granularity at which live-ins are recorded and verified.
///
/// # Examples
///
/// ```
/// use mssp_machine::Cell;
/// use mssp_isa::Reg;
///
/// assert_eq!(Cell::Mem(0x201).to_string(), "[0x1008]");
/// assert!(Cell::Reg(Reg::A0) < Cell::Mem(0)); // registers order first
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    /// A general-purpose register.
    Reg(Reg),
    /// The program counter.
    Pc,
    /// An aligned 64-bit memory word, identified by `byte_address / 8`.
    Mem(u64),
}

impl Cell {
    /// Whether this cell is a memory word.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, Cell::Mem(_))
    }

    /// Whether this cell is a register.
    #[must_use]
    pub fn is_reg(self) -> bool {
        matches!(self, Cell::Reg(_))
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Reg(r) => write!(f, "{r}"),
            Cell::Pc => f.write_str("pc"),
            Cell::Mem(w) => write!(f, "[{:#x}]", w << 3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_groups_registers_before_memory() {
        assert!(Cell::Reg(Reg::S11) < Cell::Pc);
        assert!(Cell::Pc < Cell::Mem(0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cell::Reg(Reg::A0).to_string(), "a0");
        assert_eq!(Cell::Pc.to_string(), "pc");
        assert_eq!(Cell::Mem(2).to_string(), "[0x10]");
    }
}
