//! Architectural registers.
//!
//! The MSSP ISA has 32 general-purpose 64-bit registers. Register `r0` is
//! hard-wired to zero, as in MIPS/RISC-V: writes to it are discarded and
//! reads always return zero. The assembler accepts both raw names (`r0` ..
//! `r31`) and ABI aliases (`zero`, `ra`, `sp`, `a0`-`a7`, `t0`-`t7`,
//! `s0`-`s11`).

use std::fmt;

/// Number of general-purpose registers in the ISA.
pub const NUM_REGS: usize = 32;

/// A general-purpose register identifier (`r0` through `r31`).
///
/// `Reg` is a validated newtype: it can only hold values `0..32`, so code
/// consuming a `Reg` never needs to bounds-check again.
///
/// # Examples
///
/// ```
/// use mssp_isa::Reg;
///
/// let sp = Reg::SP;
/// assert_eq!(sp.index(), 2);
/// assert_eq!(Reg::new(0), Reg::ZERO);
/// assert_eq!("a0".parse::<Reg>().unwrap(), Reg::A0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register (`r0` / `zero`).
    pub const ZERO: Reg = Reg(0);
    /// Return-address register (`r1` / `ra`).
    pub const RA: Reg = Reg(1);
    /// Stack pointer (`r2` / `sp`).
    pub const SP: Reg = Reg(2);
    /// Global pointer (`r3` / `gp`).
    pub const GP: Reg = Reg(3);
    /// First argument / return-value register (`r4` / `a0`).
    pub const A0: Reg = Reg(4);
    /// Second argument register (`r5` / `a1`).
    pub const A1: Reg = Reg(5);
    /// Third argument register (`r6` / `a2`).
    pub const A2: Reg = Reg(6);
    /// Fourth argument register (`r7` / `a3`).
    pub const A3: Reg = Reg(7);
    /// Fifth argument register (`r8` / `a4`).
    pub const A4: Reg = Reg(8);
    /// Sixth argument register (`r9` / `a5`).
    pub const A5: Reg = Reg(9);
    /// Seventh argument register (`r10` / `a6`).
    pub const A6: Reg = Reg(10);
    /// Eighth argument register (`r11` / `a7`).
    pub const A7: Reg = Reg(11);
    /// First temporary (`r12` / `t0`).
    pub const T0: Reg = Reg(12);
    /// Second temporary (`r13` / `t1`).
    pub const T1: Reg = Reg(13);
    /// Third temporary (`r14` / `t2`).
    pub const T2: Reg = Reg(14);
    /// Fourth temporary (`r15` / `t3`).
    pub const T3: Reg = Reg(15);
    /// Fifth temporary (`r16` / `t4`).
    pub const T4: Reg = Reg(16);
    /// Sixth temporary (`r17` / `t5`).
    pub const T5: Reg = Reg(17);
    /// Seventh temporary (`r18` / `t6`).
    pub const T6: Reg = Reg(18);
    /// Eighth temporary (`r19` / `t7`).
    pub const T7: Reg = Reg(19);
    /// First callee-saved register (`r20` / `s0`).
    pub const S0: Reg = Reg(20);
    /// Second callee-saved register (`r21` / `s1`).
    pub const S1: Reg = Reg(21);
    /// Third callee-saved register (`r22` / `s2`).
    pub const S2: Reg = Reg(22);
    /// Fourth callee-saved register (`r23` / `s3`).
    pub const S3: Reg = Reg(23);
    /// Fifth callee-saved register (`r24` / `s4`).
    pub const S4: Reg = Reg(24);
    /// Sixth callee-saved register (`r25` / `s5`).
    pub const S5: Reg = Reg(25);
    /// Seventh callee-saved register (`r26` / `s6`).
    pub const S6: Reg = Reg(26);
    /// Eighth callee-saved register (`r27` / `s7`).
    pub const S7: Reg = Reg(27);
    /// Ninth callee-saved register (`r28` / `s8`).
    pub const S8: Reg = Reg(28);
    /// Tenth callee-saved register (`r29` / `s9`).
    pub const S9: Reg = Reg(29);
    /// Eleventh callee-saved register (`r30` / `s10`).
    pub const S10: Reg = Reg(30);
    /// Twelfth callee-saved register (`r31` / `s11`).
    pub const S11: Reg = Reg(31);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::Reg;
    /// assert_eq!(Reg::new(2), Reg::SP);
    /// ```
    #[must_use]
    pub fn new(index: u8) -> Reg {
        // why: the `# Panics` contract above; `Reg::try_new` is the
        // fallible form.
        Reg::try_new(index).expect("register index out of range (must be < 32)")
    }

    /// Creates a register from its index, returning `None` if out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::Reg;
    /// assert!(Reg::try_new(31).is_some());
    /// assert!(Reg::try_new(32).is_none());
    /// ```
    #[must_use]
    pub fn try_new(index: u8) -> Option<Reg> {
        if (index as usize) < NUM_REGS {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// The register's index, in `0..32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::Reg;
    /// assert_eq!(Reg::A1.index(), 5);
    /// ```
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hard-wired zero register.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::Reg;
    /// assert!(Reg::ZERO.is_zero());
    /// assert!(!Reg::A0.is_zero());
    /// ```
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The register's ABI alias, e.g. `"sp"` for `r2`.
    #[must_use]
    pub(crate) fn abi_name(self) -> &'static str {
        ABI_NAMES[self.index()]
    }

    /// Iterates over all 32 registers in index order.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::Reg;
    /// assert_eq!(Reg::all().count(), 32);
    /// ```
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..NUM_REGS as u8).map(Reg)
    }
}

const ABI_NAMES: [&str; NUM_REGS] = [
    "zero", "ra", "sp", "gp", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "t0", "t1", "t2",
    "t3", "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
    "s10", "s11",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({}={})", self.0, self.abi_name())
    }
}

/// Error returned when parsing a register name fails.
///
/// # Examples
///
/// ```
/// use mssp_isa::Reg;
/// let err = "r99".parse::<Reg>().unwrap_err();
/// assert!(err.to_string().contains("r99"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    name: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.name)
    }
}

impl std::error::Error for ParseRegError {}

impl std::str::FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(pos) = ABI_NAMES.iter().position(|n| *n == s) {
            return Ok(Reg(pos as u8));
        }
        if let Some(rest) = s.strip_prefix('r') {
            if let Ok(idx) = rest.parse::<u8>() {
                if let Some(r) = Reg::try_new(idx) {
                    return Ok(r);
                }
            }
        }
        Err(ParseRegError {
            name: s.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for r in Reg::all() {
            assert_eq!(Reg::new(r.index() as u8), r);
        }
    }

    #[test]
    fn abi_names_parse_back() {
        for r in Reg::all() {
            let parsed: Reg = r.abi_name().parse().unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn numeric_names_parse() {
        for i in 0..32u8 {
            let parsed: Reg = format!("r{i}").parse().unwrap();
            assert_eq!(parsed.index(), i as usize);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Reg::try_new(32).is_none());
        assert!("r32".parse::<Reg>().is_err());
        assert!("x5".parse::<Reg>().is_err());
        assert!("".parse::<Reg>().is_err());
    }

    #[test]
    fn zero_register_identified() {
        assert!(Reg::ZERO.is_zero());
        assert_eq!("zero".parse::<Reg>().unwrap(), Reg::ZERO);
        assert_eq!("r0".parse::<Reg>().unwrap(), Reg::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_panics_out_of_range() {
        let _ = Reg::new(40);
    }

    #[test]
    fn display_uses_abi_name() {
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(format!("{:?}", Reg::SP), "Reg(2=sp)");
    }
}
