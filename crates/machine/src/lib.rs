//! # mssp-machine
//!
//! Machine state and the sequential reference semantics (`SEQ`) for the
//! MSSP reproduction, including the formal model's objects:
//!
//! * [`MachineState`] — a total machine state (registers, PC, sparse
//!   memory): the *architected state* of an MSSP machine.
//! * [`Delta`] — a partial machine state with the paper's
//!   **superimposition** (`S₀ ← S₁`) and **consistency** (`S₁ ⊑ S₂`)
//!   operators. Live-ins, live-outs and checkpoints are all `Delta`s.
//! * [`step`] — the `next(S)` function, generic over [`Storage`] so the
//!   identical semantics drive the reference machine, MSSP slaves and the
//!   master.
//! * [`SeqMachine`], [`seq_n`], [`cumulative_writes`] — the `SEQ` model:
//!   `seq(S, n)` and `Δ(S, n)`.
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//! use mssp_isa::Reg;
//! use mssp_machine::SeqMachine;
//!
//! let program = assemble(
//!     "main: addi a0, zero, 10
//!            addi a1, zero, 0
//!      loop: add  a1, a1, a0
//!            addi a0, a0, -1
//!            bnez a0, loop
//!            halt",
//! ).unwrap();
//!
//! let mut machine = SeqMachine::boot(&program);
//! machine.run(1_000_000).unwrap();
//! assert_eq!(machine.state().reg(Reg::A1), 55);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
mod cell;
mod delta;
mod exec;
mod mem;
mod seq;
mod sliceval;
mod state;

pub use arena::DeltaArena;
pub use cell::Cell;
pub use delta::{expand_mask, Delta, MaskedVal};
pub use exec::{step, Fault, MemAccess, StepInfo};
pub use mem::SparseMem;
pub use seq::{cumulative_writes, seq_n, HaltError, RunSummary, SeqError, SeqMachine, StopReason};
pub use sliceval::{eval_slice, SliceEval};
pub use state::{MachineState, Recording, Storage};
