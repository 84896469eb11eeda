//! # mssp-isa
//!
//! The instruction-set architecture underlying the MSSP (Master/Slave
//! Speculative Parallelization) reproduction: a compact 64-bit RISC ISA with
//! an assembler and a disassembler.
//!
//! The MICRO 2002 MSSP paper evaluated on Alpha binaries; MSSP itself is
//! ISA-agnostic (its formal model never fixes an ISA), so this crate defines
//! a minimal RISC-V/Alpha-flavoured ISA that the rest of the workspace —
//! the sequential reference machine, the distiller, the MSSP engine and the
//! timing model — all share.
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//!
//! let program = assemble(
//!     "main:
//!         addi a0, zero, 10   ; n = 10
//!         addi a1, zero, 0    ; sum = 0
//!      loop:
//!         add  a1, a1, a0
//!         addi a0, a0, -1
//!         bnez a0, loop
//!         halt",
//! )
//! .expect("assembles");
//! assert_eq!(program.len(), 6);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asm;
mod instr;
mod program;
mod reg;
mod span;

pub use instr::{lui_value, AluOp, Cond, ImmOp, Instr, LoadOp, StoreOp, INSTR_BYTES};
pub use program::{Program, ValidateError, DATA_BASE, HEAP_BASE, STACK_TOP, TEXT_BASE};
pub use reg::{ParseRegError, Reg, NUM_REGS};
pub use span::PcSpan;
