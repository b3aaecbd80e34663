//! Instruction definitions, classification, and binary encoding.

use crate::reg::Reg;
use std::fmt;

/// Integer ALU operation kinds used by [`Inst::Alu`] and [`Inst::AluImm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    /// Set-if-less-than (signed): `rd = (rs1 < rs2) as i64`.
    Slt,
    /// Set-if-less-than (unsigned).
    Sltu,
}

impl AluOp {
    const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
    ];

    /// Applies the operation to two register values.
    ///
    /// Division and remainder by zero return `-1` and the dividend
    /// respectively (the RISC-V convention), so the simulator never faults.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    -1
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
            AluOp::Sra => a.wrapping_shr((b & 63) as u32),
            AluOp::Slt => (a < b) as i64,
            AluOp::Sltu => ((a as u64) < (b as u64)) as i64,
        }
    }

    fn code(self) -> u8 {
        AluOp::ALL.iter().position(|&o| o == self).unwrap() as u8
    }

    fn from_code(c: u8) -> Option<AluOp> {
        AluOp::ALL.get(c as usize).copied()
    }

    fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Floating-point operation kinds. Register bits are reinterpreted as `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl FpOp {
    const ALL: [FpOp; 4] = [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div];

    /// Applies the operation, treating both operand bit patterns as `f64`.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        let x = f64::from_bits(a as u64);
        let y = f64::from_bits(b as u64);
        let r = match self {
            FpOp::Add => x + y,
            FpOp::Sub => x - y,
            FpOp::Mul => x * y,
            FpOp::Div => x / y,
        };
        r.to_bits() as i64
    }

    fn code(self) -> u8 {
        FpOp::ALL.iter().position(|&o| o == self).unwrap() as u8
    }

    fn from_code(c: u8) -> Option<FpOp> {
        FpOp::ALL.get(c as usize).copied()
    }

    fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "fadd",
            FpOp::Sub => "fsub",
            FpOp::Mul => "fmul",
            FpOp::Div => "fdiv",
        }
    }
}

/// Branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BranchCond {
    const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// Evaluates the condition on two register values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Ltu => (a as u64) < (b as u64),
            BranchCond::Geu => (a as u64) >= (b as u64),
        }
    }

    fn code(self) -> u8 {
        BranchCond::ALL.iter().position(|&c| c == self).unwrap() as u8
    }

    fn from_code(c: u8) -> Option<BranchCond> {
        BranchCond::ALL.get(c as usize).copied()
    }

    fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Functional-unit / scheduling class of an instruction.
///
/// The out-of-order core uses this to pick an issue queue and functional
/// unit; the power model uses it to attribute per-event energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Single-cycle integer ALU operation (also branches' compare).
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide/remainder.
    IntDiv,
    /// Floating-point operation (issues to the FP queue).
    Fp,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Atomic read-modify-write (executes non-speculatively at ROB head).
    Atomic,
    /// Control transfer.
    Branch,
    /// SPL extension operation (decoupled queue interface).
    Spl,
    /// Idealized hardware-queue operation (OOO2+Comm baseline).
    Hwq,
    /// Synchronization (fence, idealized hardware barrier).
    Sync,
    /// No-op / halt.
    Other,
}

/// A single machine instruction.
///
/// Branch and jump targets are *instruction indices* into the owning
/// [`Program`](crate::Program) (the simulated machine is word-addressed for
/// code; byte address = `4 × index`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Inst {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Floating-point register-register operation.
    Fp {
        op: FpOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Load 32-bit signed word: `rd = sext(mem32[rs1 + offset])`.
    Lw { rd: Reg, base: Reg, offset: i32 },
    /// Load signed byte.
    Lb { rd: Reg, base: Reg, offset: i32 },
    /// Load unsigned byte.
    Lbu { rd: Reg, base: Reg, offset: i32 },
    /// Store low 32 bits of `rs`.
    Sw { rs: Reg, base: Reg, offset: i32 },
    /// Store low byte of `rs`.
    Sb { rs: Reg, base: Reg, offset: i32 },
    /// Atomic fetch-and-add on a 32-bit word: `rd = mem32[base]; mem32[base] += rs`.
    AmoAdd { rd: Reg, base: Reg, rs: Reg },
    /// Conditional branch to instruction index `target`.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: u32,
    },
    /// Unconditional jump; `rd` receives the return instruction index.
    Jal { rd: Reg, target: u32 },
    /// Indirect jump to the instruction index in `rs1`.
    Jalr { rd: Reg, rs1: Reg },
    /// Memory fence: blocks retirement until the store queue drains.
    Fence,
    /// No operation.
    Nop,
    /// Terminates the thread.
    #[default]
    Halt,
    /// SPL extension: place `nbytes` low bytes of `rs` into the core's SPL
    /// input-queue entry under construction, at byte alignment `offset`.
    SplLoad { rs: Reg, offset: u8, nbytes: u8 },
    /// SPL extension: seal the input-queue entry and request execution of the
    /// SPL function with configuration id `cfg`.
    SplInit { cfg: u16 },
    /// SPL extension: pop the core's SPL output queue into `rd`. Blocks while
    /// the queue is empty.
    SplStore { rd: Reg },
    /// OOO2+Comm baseline: push `rs` into idealized hardware queue `q`.
    HwqSend { rs: Reg, q: u8 },
    /// OOO2+Comm baseline: pop idealized hardware queue `q` into `rd`.
    HwqRecv { rd: Reg, q: u8 },
    /// Homogeneous baseline: idealized dedicated-network barrier `id`.
    HwBar { id: u8 },
}

impl Inst {
    /// The destination register written by this instruction, if any.
    ///
    /// Writes to `r0` are reported as `None` (they are architectural no-ops).
    #[inline]
    pub fn dest(self) -> Option<Reg> {
        let d = match self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Fp { rd, .. }
            | Inst::Lw { rd, .. }
            | Inst::Lb { rd, .. }
            | Inst::Lbu { rd, .. }
            | Inst::AmoAdd { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::SplStore { rd }
            | Inst::HwqRecv { rd, .. } => rd,
            _ => return None,
        };
        if d.is_zero() {
            None
        } else {
            Some(d)
        }
    }

    /// Source registers read by this instruction (up to two).
    ///
    /// Reads of `r0` are included (they are satisfied instantly by rename).
    #[inline]
    pub fn sources(self) -> [Option<Reg>; 2] {
        match self {
            Inst::Alu { rs1, rs2, .. } | Inst::Fp { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::AluImm { rs1, .. } => [Some(rs1), None],
            Inst::Lw { base, .. } | Inst::Lb { base, .. } | Inst::Lbu { base, .. } => {
                [Some(base), None]
            }
            Inst::Sw { rs, base, .. } | Inst::Sb { rs, base, .. } => [Some(base), Some(rs)],
            Inst::AmoAdd { base, rs, .. } => [Some(base), Some(rs)],
            Inst::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Jalr { rs1, .. } => [Some(rs1), None],
            Inst::SplLoad { rs, .. } | Inst::HwqSend { rs, .. } => [Some(rs), None],
            _ => [None, None],
        }
    }

    /// Constant-folds this instruction's result given a register valuation.
    ///
    /// Returns `Some(value)` only for pure register-to-register computations
    /// (`Alu`, `AluImm`, `Fp`) whose operands are all known; memory, queue,
    /// and control instructions return `None`. Static analyses use this to
    /// extract loop bounds and trip counts without duplicating ALU semantics.
    pub fn const_eval(self, read: impl Fn(Reg) -> Option<i64>) -> Option<i64> {
        match self {
            Inst::Alu { op, rs1, rs2, .. } => Some(op.apply(read(rs1)?, read(rs2)?)),
            Inst::AluImm { op, rs1, imm, .. } => Some(op.apply(read(rs1)?, imm as i64)),
            Inst::Fp { op, rs1, rs2, .. } => Some(op.apply(read(rs1)?, read(rs2)?)),
            _ => None,
        }
    }

    /// Scheduling class (issue queue + functional unit selection).
    #[inline]
    pub fn class(self) -> InstClass {
        match self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => InstClass::IntMul,
                AluOp::Div | AluOp::Rem => InstClass::IntDiv,
                _ => InstClass::IntAlu,
            },
            Inst::Fp { .. } => InstClass::Fp,
            Inst::Lw { .. } | Inst::Lb { .. } | Inst::Lbu { .. } => InstClass::Load,
            Inst::Sw { .. } | Inst::Sb { .. } => InstClass::Store,
            Inst::AmoAdd { .. } => InstClass::Atomic,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } => InstClass::Branch,
            Inst::SplLoad { .. } | Inst::SplInit { .. } | Inst::SplStore { .. } => InstClass::Spl,
            Inst::HwqSend { .. } | Inst::HwqRecv { .. } => InstClass::Hwq,
            Inst::Fence | Inst::HwBar { .. } => InstClass::Sync,
            Inst::Nop | Inst::Halt => InstClass::Other,
        }
    }

    /// Whether this is a control-transfer instruction.
    #[inline]
    pub fn is_control(self) -> bool {
        self.class() == InstClass::Branch
    }

    /// Whether this instruction must execute non-speculatively at the head of
    /// the reorder buffer (queue pops and synchronization operations; queue
    /// *pushes* — `spl_load`, `spl_init`, `hwq_send` — execute in the
    /// pipeline and take effect at commit instead).
    #[inline]
    pub fn is_at_head_only(self) -> bool {
        matches!(
            self,
            Inst::SplStore { .. }
                | Inst::HwqRecv { .. }
                | Inst::Fence
                | Inst::HwBar { .. }
                | Inst::AmoAdd { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Fp { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Inst::Lw { rd, base, offset } => write!(f, "lw {rd}, {offset}({base})"),
            Inst::Lb { rd, base, offset } => write!(f, "lb {rd}, {offset}({base})"),
            Inst::Lbu { rd, base, offset } => write!(f, "lbu {rd}, {offset}({base})"),
            Inst::Sw { rs, base, offset } => write!(f, "sw {rs}, {offset}({base})"),
            Inst::Sb { rs, base, offset } => write!(f, "sb {rs}, {offset}({base})"),
            Inst::AmoAdd { rd, base, rs } => write!(f, "amoadd {rd}, ({base}), {rs}"),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic())
            }
            Inst::Jal { rd, target } => write!(f, "jal {rd}, @{target}"),
            Inst::Jalr { rd, rs1 } => write!(f, "jalr {rd}, {rs1}"),
            Inst::Fence => write!(f, "fence"),
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
            Inst::SplLoad { rs, offset, nbytes } => {
                write!(f, "spl_load {rs}, off={offset}, n={nbytes}")
            }
            Inst::SplInit { cfg } => write!(f, "spl_init cfg={cfg}"),
            Inst::SplStore { rd } => write!(f, "spl_store {rd}"),
            Inst::HwqSend { rs, q } => write!(f, "hwq_send {rs}, q{q}"),
            Inst::HwqRecv { rd, q } => write!(f, "hwq_recv {rd}, q{q}"),
            Inst::HwBar { id } => write!(f, "hwbar {id}"),
        }
    }
}

// --- binary encoding ------------------------------------------------------
//
// Layout (little-endian fields within a u64):
//   bits  0..8   opcode
//   bits  8..13  rd / rs
//   bits 13..18  rs1 / base
//   bits 18..23  rs2
//   bits 23..27  sub-operation code (AluOp / FpOp / BranchCond)
//   bits 27..59  32-bit immediate / target / packed small fields
const OP_ALU: u8 = 0;
const OP_ALUIMM: u8 = 1;
const OP_FP: u8 = 2;
const OP_LW: u8 = 3;
const OP_LB: u8 = 4;
const OP_LBU: u8 = 5;
const OP_SW: u8 = 6;
const OP_SB: u8 = 7;
const OP_AMOADD: u8 = 8;
const OP_BRANCH: u8 = 9;
const OP_JAL: u8 = 10;
const OP_JALR: u8 = 11;
const OP_FENCE: u8 = 12;
const OP_NOP: u8 = 13;
const OP_HALT: u8 = 14;
const OP_SPL_LOAD: u8 = 15;
const OP_SPL_INIT: u8 = 16;
const OP_SPL_STORE: u8 = 17;
const OP_HWQ_SEND: u8 = 18;
const OP_HWQ_RECV: u8 = 19;
const OP_HWBAR: u8 = 20;

fn pack(op: u8, a: Reg, b: Reg, c: Reg, sub: u8, imm: u32) -> u64 {
    (op as u64)
        | ((a.index() as u64) << 8)
        | ((b.index() as u64) << 13)
        | ((c.index() as u64) << 18)
        | ((sub as u64 & 0xf) << 23)
        | ((imm as u64) << 27)
}

/// Encodes an instruction into its 64-bit binary form.
///
/// The encoding is lossless; see [`decode`].
///
/// ```
/// use remap_isa::{encode, decode, Inst, Reg, AluOp};
/// let i = Inst::Alu { op: AluOp::Xor, rd: Reg::R3, rs1: Reg::R4, rs2: Reg::R5 };
/// assert_eq!(decode(encode(i)), Some(i));
/// ```
pub fn encode(inst: Inst) -> u64 {
    let z = Reg::R0;
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => pack(OP_ALU, rd, rs1, rs2, op.code(), 0),
        Inst::AluImm { op, rd, rs1, imm } => pack(OP_ALUIMM, rd, rs1, z, op.code(), imm as u32),
        Inst::Fp { op, rd, rs1, rs2 } => pack(OP_FP, rd, rs1, rs2, op.code(), 0),
        Inst::Lw { rd, base, offset } => pack(OP_LW, rd, base, z, 0, offset as u32),
        Inst::Lb { rd, base, offset } => pack(OP_LB, rd, base, z, 0, offset as u32),
        Inst::Lbu { rd, base, offset } => pack(OP_LBU, rd, base, z, 0, offset as u32),
        Inst::Sw { rs, base, offset } => pack(OP_SW, rs, base, z, 0, offset as u32),
        Inst::Sb { rs, base, offset } => pack(OP_SB, rs, base, z, 0, offset as u32),
        Inst::AmoAdd { rd, base, rs } => pack(OP_AMOADD, rd, base, rs, 0, 0),
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => pack(OP_BRANCH, z, rs1, rs2, cond.code(), target),
        Inst::Jal { rd, target } => pack(OP_JAL, rd, z, z, 0, target),
        Inst::Jalr { rd, rs1 } => pack(OP_JALR, rd, rs1, z, 0, 0),
        Inst::Fence => pack(OP_FENCE, z, z, z, 0, 0),
        Inst::Nop => pack(OP_NOP, z, z, z, 0, 0),
        Inst::Halt => pack(OP_HALT, z, z, z, 0, 0),
        Inst::SplLoad { rs, offset, nbytes } => pack(
            OP_SPL_LOAD,
            rs,
            z,
            z,
            0,
            ((nbytes as u32) << 8) | offset as u32,
        ),
        Inst::SplInit { cfg } => pack(OP_SPL_INIT, z, z, z, 0, cfg as u32),
        Inst::SplStore { rd } => pack(OP_SPL_STORE, rd, z, z, 0, 0),
        Inst::HwqSend { rs, q } => pack(OP_HWQ_SEND, rs, z, z, 0, q as u32),
        Inst::HwqRecv { rd, q } => pack(OP_HWQ_RECV, rd, z, z, 0, q as u32),
        Inst::HwBar { id } => pack(OP_HWBAR, z, z, z, 0, id as u32),
    }
}

/// Decodes a 64-bit word produced by [`encode`]; returns `None` for invalid
/// opcodes or field values.
pub fn decode(word: u64) -> Option<Inst> {
    let op = (word & 0xff) as u8;
    let ra = Reg::from_index(((word >> 8) & 0x1f) as usize)?;
    let rb = Reg::from_index(((word >> 13) & 0x1f) as usize)?;
    let rc = Reg::from_index(((word >> 18) & 0x1f) as usize)?;
    let sub = ((word >> 23) & 0xf) as u8;
    let imm = (word >> 27) as u32;
    Some(match op {
        OP_ALU => Inst::Alu {
            op: AluOp::from_code(sub)?,
            rd: ra,
            rs1: rb,
            rs2: rc,
        },
        OP_ALUIMM => Inst::AluImm {
            op: AluOp::from_code(sub)?,
            rd: ra,
            rs1: rb,
            imm: imm as i32,
        },
        OP_FP => Inst::Fp {
            op: FpOp::from_code(sub)?,
            rd: ra,
            rs1: rb,
            rs2: rc,
        },
        OP_LW => Inst::Lw {
            rd: ra,
            base: rb,
            offset: imm as i32,
        },
        OP_LB => Inst::Lb {
            rd: ra,
            base: rb,
            offset: imm as i32,
        },
        OP_LBU => Inst::Lbu {
            rd: ra,
            base: rb,
            offset: imm as i32,
        },
        OP_SW => Inst::Sw {
            rs: ra,
            base: rb,
            offset: imm as i32,
        },
        OP_SB => Inst::Sb {
            rs: ra,
            base: rb,
            offset: imm as i32,
        },
        OP_AMOADD => Inst::AmoAdd {
            rd: ra,
            base: rb,
            rs: rc,
        },
        OP_BRANCH => Inst::Branch {
            cond: BranchCond::from_code(sub)?,
            rs1: rb,
            rs2: rc,
            target: imm,
        },
        OP_JAL => Inst::Jal {
            rd: ra,
            target: imm,
        },
        OP_JALR => Inst::Jalr { rd: ra, rs1: rb },
        OP_FENCE => Inst::Fence,
        OP_NOP => Inst::Nop,
        OP_HALT => Inst::Halt,
        OP_SPL_LOAD => Inst::SplLoad {
            rs: ra,
            offset: (imm & 0xff) as u8,
            nbytes: ((imm >> 8) & 0xff) as u8,
        },
        OP_SPL_INIT => Inst::SplInit { cfg: imm as u16 },
        OP_SPL_STORE => Inst::SplStore { rd: ra },
        OP_HWQ_SEND => Inst::HwqSend {
            rs: ra,
            q: imm as u8,
        },
        OP_HWQ_RECV => Inst::HwqRecv {
            rd: ra,
            q: imm as u8,
        },
        OP_HWBAR => Inst::HwBar { id: imm as u8 },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), -1);
        assert_eq!(AluOp::Mul.apply(-3, 4), -12);
        assert_eq!(AluOp::Div.apply(7, 2), 3);
        assert_eq!(AluOp::Div.apply(7, 0), -1, "div by zero is -1");
        assert_eq!(AluOp::Rem.apply(7, 0), 7, "rem by zero is the dividend");
        assert_eq!(AluOp::Sll.apply(1, 4), 16);
        assert_eq!(AluOp::Srl.apply(-1, 60), 0xf);
        assert_eq!(AluOp::Sra.apply(-16, 2), -4);
        assert_eq!(AluOp::Slt.apply(-1, 0), 1);
        assert_eq!(AluOp::Sltu.apply(-1, 0), 0, "-1 is u64::MAX unsigned");
    }

    #[test]
    fn alu_wrapping_does_not_panic() {
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Mul.apply(i64::MAX, i64::MAX), 1);
        assert_eq!(AluOp::Div.apply(i64::MIN, -1), i64::MIN);
    }

    #[test]
    fn fp_semantics() {
        let a = 1.5f64.to_bits() as i64;
        let b = 2.0f64.to_bits() as i64;
        let r = FpOp::Mul.apply(a, b);
        assert_eq!(f64::from_bits(r as u64), 3.0);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval(-2, 1));
        assert!(BranchCond::Ge.eval(1, 1));
        assert!(!BranchCond::Ltu.eval(-1, 1));
        assert!(BranchCond::Geu.eval(-1, 1));
    }

    #[test]
    fn const_eval_folds_pure_ops_only() {
        let regs = |r: Reg| match r {
            Reg::R1 => Some(6),
            Reg::R2 => Some(7),
            _ => None,
        };
        let mul = Inst::Alu {
            op: AluOp::Mul,
            rd: Reg::R3,
            rs1: Reg::R1,
            rs2: Reg::R2,
        };
        assert_eq!(mul.const_eval(regs), Some(42));
        let srai = Inst::AluImm {
            op: AluOp::Sra,
            rd: Reg::R1,
            rs1: Reg::R1,
            imm: 1,
        };
        assert_eq!(srai.const_eval(regs), Some(3));
        // Unknown operand poisons the fold.
        let unk = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            rs1: Reg::R1,
            rs2: Reg::R4,
        };
        assert_eq!(unk.const_eval(regs), None);
        // Loads are never const: their value comes from memory.
        let lw = Inst::Lw {
            rd: Reg::R3,
            base: Reg::R1,
            offset: 0,
        };
        assert_eq!(lw.const_eval(regs), None);
    }

    #[test]
    fn dest_of_r0_write_is_none() {
        let i = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::R0,
            rs1: Reg::R1,
            imm: 1,
        };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn classes() {
        assert_eq!(
            Inst::Alu {
                op: AluOp::Mul,
                rd: Reg::R1,
                rs1: Reg::R2,
                rs2: Reg::R3
            }
            .class(),
            InstClass::IntMul
        );
        assert_eq!(Inst::SplInit { cfg: 3 }.class(), InstClass::Spl);
        assert_eq!(Inst::Fence.class(), InstClass::Sync);
        assert!(Inst::SplStore { rd: Reg::R1 }.is_at_head_only());
        assert!(!Inst::SplLoad {
            rs: Reg::R1,
            offset: 0,
            nbytes: 4
        }
        .is_at_head_only());
        assert!(!Inst::SplInit { cfg: 0 }.is_at_head_only());
        assert!(Inst::Fence.is_at_head_only());
        assert!(!Inst::Nop.is_at_head_only());
        assert!(Inst::Jal {
            rd: Reg::R0,
            target: 0
        }
        .is_control());
    }

    #[test]
    fn encode_decode_round_trip_samples() {
        let samples = [
            Inst::Alu {
                op: AluOp::Xor,
                rd: Reg::R3,
                rs1: Reg::R4,
                rs2: Reg::R5,
            },
            Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::R31,
                rs1: Reg::R0,
                imm: -12345,
            },
            Inst::Fp {
                op: FpOp::Div,
                rd: Reg::R9,
                rs1: Reg::R8,
                rs2: Reg::R7,
            },
            Inst::Lw {
                rd: Reg::R1,
                base: Reg::R2,
                offset: -4,
            },
            Inst::Sb {
                rs: Reg::R6,
                base: Reg::R7,
                offset: 1023,
            },
            Inst::AmoAdd {
                rd: Reg::R1,
                base: Reg::R2,
                rs: Reg::R3,
            },
            Inst::Branch {
                cond: BranchCond::Geu,
                rs1: Reg::R1,
                rs2: Reg::R2,
                target: 77,
            },
            Inst::Jal {
                rd: Reg::R1,
                target: 12,
            },
            Inst::Jalr {
                rd: Reg::R0,
                rs1: Reg::R5,
            },
            Inst::Fence,
            Inst::Nop,
            Inst::Halt,
            Inst::SplLoad {
                rs: Reg::R4,
                offset: 12,
                nbytes: 4,
            },
            Inst::SplInit { cfg: 65535 },
            Inst::SplStore { rd: Reg::R30 },
            Inst::HwqSend { rs: Reg::R2, q: 3 },
            Inst::HwqRecv {
                rd: Reg::R3,
                q: 250,
            },
            Inst::HwBar { id: 9 },
        ];
        for s in samples {
            assert_eq!(decode(encode(s)), Some(s), "round trip failed for {s}");
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        assert_eq!(decode(0xff), None);
    }

    #[test]
    fn display_is_never_empty() {
        let i = Inst::Nop;
        assert!(!i.to_string().is_empty());
    }
}
