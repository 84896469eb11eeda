//! The instruction interpreter — one `next(S)` step of the formal model.
//!
//! [`step`] executes a single instruction against any [`Storage`], so the
//! same semantics drive the sequential reference machine, MSSP slaves
//! (through a layered, live-in-recording storage) and the master
//! (executing the distilled program over its private state). Determinism
//! of this function is the property the formal model calls *determinism of
//! `δ`*: consistent, complete states stepped once produce identical writes.

use std::fmt;

use mssp_isa::{lui_value, Instr, Program, INSTR_BYTES};

use crate::Storage;

/// An execution fault.
///
/// The sequential machine never faults on well-formed programs; MSSP
/// slaves, executing from *predicted* state, can be steered to an illegal
/// PC — the engine treats that as a failed task, never as an error of the
/// whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The PC does not address an instruction in the text segment.
    IllegalPc(u64),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::IllegalPc(pc) => write!(f, "illegal program counter {pc:#x}"),
        }
    }
}

impl std::error::Error for Fault {}

/// A memory access performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u8,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// Everything observable about one executed instruction.
///
/// Consumers: the profiler (edge counts from `pc` → `next_pc`), the timing
/// model (memory addresses, branch outcomes), and the MSSP engine (halts,
/// control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Address of the executed instruction.
    pub pc: u64,
    /// The executed instruction.
    pub instr: Instr,
    /// Address of the next instruction (equals `pc` when halted).
    pub next_pc: u64,
    /// Whether the instruction was `halt`.
    pub halted: bool,
    /// For conditional branches, whether the branch was taken.
    pub taken: Option<bool>,
    /// For loads and stores, the access performed.
    pub mem: Option<MemAccess>,
}

/// Executes the instruction at `pc` against `storage`.
///
/// # Errors
///
/// Returns [`Fault::IllegalPc`] if `pc` does not address an instruction of
/// `program` (out of range or misaligned).
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_machine::{step, MachineState};
///
/// let p = assemble("main: addi a0, zero, 3\n halt").unwrap();
/// let mut s = MachineState::boot(&p);
/// let info = step(&mut s, &p, p.entry()).unwrap();
/// assert_eq!(info.next_pc, p.entry() + 4);
/// ```
// Inlined into every caller: out of line, the `StepInfo` is assembled in
// the return slot with narrow stores and re-read wide by a caller that
// moves it on — a store-forwarding stall per instruction — and the
// caller's loop state (task, cost model, counters) spills around the call.
#[inline(always)]
pub fn step<S: Storage>(storage: &mut S, program: &Program, pc: u64) -> Result<StepInfo, Fault> {
    use Instr::*;

    let instr = program.fetch(pc).ok_or(Fault::IllegalPc(pc))?;
    let fall = pc.wrapping_add(INSTR_BYTES);
    let mut next_pc = fall;
    let mut taken = None;
    let mut mem = None;
    let mut halted = false;

    match instr {
        Alu(op, rd, a, b) => {
            let v = op.eval(storage.read_reg(a), storage.read_reg(b));
            storage.write_reg(rd, v);
        }
        AluImm(op, rd, a, imm) => {
            let v = op.eval(storage.read_reg(a), imm);
            storage.write_reg(rd, v);
        }
        Lui(rd, imm) => storage.write_reg(rd, lui_value(imm)),
        Load(op, rd, base, off) => {
            let addr = storage.read_reg(base).wrapping_add(off as i64 as u64);
            let bytes = op.bytes();
            // One call per width: each storage's `load_bytes` sees a constant.
            let raw = match bytes {
                1 => storage.load_bytes(addr, 1),
                2 => storage.load_bytes(addr, 2),
                4 => storage.load_bytes(addr, 4),
                _ => storage.load_bytes(addr, 8),
            };
            storage.write_reg(rd, op.extend(raw));
            mem = Some(MemAccess {
                addr,
                bytes,
                is_store: false,
            });
        }
        Store(op, src, base, off) => {
            let addr = storage.read_reg(base).wrapping_add(off as i64 as u64);
            let v = storage.read_reg(src);
            storage.store_bytes(addr, op.bytes(), v);
            mem = Some(MemAccess {
                addr,
                bytes: op.bytes(),
                is_store: true,
            });
        }
        Branch(cond, a, b, off) => {
            let t = cond.holds(storage.read_reg(a), storage.read_reg(b));
            taken = Some(t);
            if t {
                next_pc = fall.wrapping_add(off as i64 as u64);
            }
        }
        Jal(rd, off) => {
            storage.write_reg(rd, fall);
            next_pc = fall.wrapping_add(off as i64 as u64);
        }
        Jalr(rd, base, off) => {
            let target = storage.read_reg(base).wrapping_add(off as i64 as u64);
            storage.write_reg(rd, fall);
            next_pc = target;
        }
        Halt => {
            halted = true;
            next_pc = pc;
        }
    }

    Ok(StepInfo {
        pc,
        instr,
        next_pc,
        halted,
        taken,
        mem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineState;
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;

    fn run_asm(src: &str) -> MachineState {
        let p = assemble(src).unwrap();
        let mut m = crate::SeqMachine::boot(&p);
        m.run_to_halt(100_000).expect("fixture halts cleanly");
        m.into_state()
    }

    #[test]
    fn arithmetic_basics() {
        let s = run_asm(
            "main:
                addi a0, zero, 7
                addi a1, zero, -3
                add  a2, a0, a1     ; 4
                sub  a3, a0, a1     ; 10
                mul  a4, a0, a1     ; -21
                halt",
        );
        assert_eq!(s.reg(Reg::A2), 4);
        assert_eq!(s.reg(Reg::A3), 10);
        assert_eq!(s.reg(Reg::A4) as i64, -21);
    }

    #[test]
    fn division_special_cases() {
        let s = run_asm(
            "main:
                addi a0, zero, 10
                addi a1, zero, 0
                div  a2, a0, a1     ; -1
                rem  a3, a0, a1     ; 10
                divu a4, a0, a1     ; u64::MAX
                remu a5, a0, a1     ; 10
                halt",
        );
        assert_eq!(s.reg(Reg::A2) as i64, -1);
        assert_eq!(s.reg(Reg::A3), 10);
        assert_eq!(s.reg(Reg::A4), u64::MAX);
        assert_eq!(s.reg(Reg::A5), 10);
    }

    #[test]
    fn shifts_and_logicals() {
        let s = run_asm(
            "main:
                addi a0, zero, 1
                slli a1, a0, 40
                srli a2, a1, 8
                addi a3, zero, -1
                srai a4, a3, 63     ; still -1
                andi a5, a3, 0xFF   ; zero-extended mask
                halt",
        );
        assert_eq!(s.reg(Reg::A1), 1 << 40);
        assert_eq!(s.reg(Reg::A2), 1 << 32);
        assert_eq!(s.reg(Reg::A4) as i64, -1);
        assert_eq!(s.reg(Reg::A5), 0xFF);
    }

    #[test]
    fn loads_sign_extend_correctly() {
        let s = run_asm(
            ".data
             v: .byte 0xFF
             .align 8
             w: .word 0x80000000
             .text
             main:
                la  a0, v
                lb  a1, 0(a0)       ; -1
                lbu a2, 0(a0)       ; 255
                la  a0, w
                lw  a3, 0(a0)       ; sign-extended
                lwu a4, 0(a0)       ; zero-extended
                halt",
        );
        assert_eq!(s.reg(Reg::A1) as i64, -1);
        assert_eq!(s.reg(Reg::A2), 255);
        assert_eq!(s.reg(Reg::A3), 0xFFFF_FFFF_8000_0000);
        assert_eq!(s.reg(Reg::A4), 0x8000_0000);
    }

    #[test]
    fn store_then_load_round_trips_all_widths() {
        let s = run_asm(
            "main:
                li  a0, 0x200000
                li  a1, 0x1122334455667788
                sd  a1, 0(a0)
                ld  a2, 0(a0)
                sw  a1, 16(a0)
                lwu a3, 16(a0)
                sh  a1, 32(a0)
                lhu a4, 32(a0)
                sb  a1, 48(a0)
                lbu a5, 48(a0)
                halt",
        );
        assert_eq!(s.reg(Reg::A2), 0x1122_3344_5566_7788);
        assert_eq!(s.reg(Reg::A3), 0x5566_7788);
        assert_eq!(s.reg(Reg::A4), 0x7788);
        assert_eq!(s.reg(Reg::A5), 0x88);
    }

    #[test]
    fn call_and_return() {
        let s = run_asm(
            "main:
                addi a0, zero, 5
                call double
                halt
             double:
                add a0, a0, a0
                ret",
        );
        assert_eq!(s.reg(Reg::A0), 10);
    }

    #[test]
    fn branches_take_correct_paths() {
        let s = run_asm(
            "main:
                addi a0, zero, -5
                addi a1, zero, 5
                blt  a0, a1, signed_ok
                addi a7, zero, 1    ; should be skipped
             signed_ok:
                bltu a0, a1, bad    ; -5 as unsigned is huge: not taken
                addi a6, zero, 1
             bad:
                halt",
        );
        assert_eq!(s.reg(Reg::A7), 0);
        assert_eq!(s.reg(Reg::A6), 1);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let s = run_asm(
            "main:
                addi a0, zero, 10
                addi a1, zero, 0
             loop:
                add  a1, a1, a0
                addi a0, a0, -1
                bnez a0, loop
                halt",
        );
        assert_eq!(s.reg(Reg::A1), 55);
    }

    #[test]
    fn illegal_pc_faults() {
        let p = assemble("main: halt").unwrap();
        let mut s = MachineState::boot(&p);
        assert_eq!(step(&mut s, &p, 0), Err(Fault::IllegalPc(0)));
        assert_eq!(
            step(&mut s, &p, p.entry() + 2),
            Err(Fault::IllegalPc(p.entry() + 2))
        );
    }

    #[test]
    fn halt_reports_halted_and_stays() {
        let p = assemble("main: halt").unwrap();
        let mut s = MachineState::boot(&p);
        let info = step(&mut s, &p, p.entry()).unwrap();
        assert!(info.halted);
        assert_eq!(info.next_pc, p.entry());
    }

    #[test]
    fn mem_access_reported() {
        let p = assemble("main: sd a0, 8(sp)\n halt").unwrap();
        let mut s = MachineState::boot(&p);
        let info = step(&mut s, &p, p.entry()).unwrap();
        let m = info.mem.unwrap();
        assert!(m.is_store);
        assert_eq!(m.bytes, 8);
        assert_eq!(m.addr, s.reg(Reg::SP) + 8);
    }

    #[test]
    fn branch_outcome_reported() {
        let p = assemble("main: beq zero, zero, main\n halt").unwrap();
        let mut s = MachineState::boot(&p);
        let info = step(&mut s, &p, p.entry()).unwrap();
        assert_eq!(info.taken, Some(true));
        assert_eq!(info.next_pc, p.entry());
    }
}
