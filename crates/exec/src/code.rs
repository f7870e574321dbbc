//! The decoded form the dispatch loop runs: one dense op stream per
//! function, built once per artifact from an immutable [`Program`].
//!
//! Decoding keeps exactly one [`Op`] per NIR pc, so checkpoints, error
//! pcs and `SharedAlloc` site keys mean the same thing in both forms. It
//! folds each instruction's [`weight`] into the stream (the cost model
//! stays in that one table) and splits binary ops by [`PrimKind`], so the
//! loop matches the two operand values once instead of coercing each.
//! The decoded form is never persisted: it is rebuilt from the program.

use crate::weight;
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{ClassMeta, FuncId, Instr, Program, Reg};

/// One decoded instruction. Register operands are frame-local indices;
/// jump targets are NIR pcs. Only the ops the loop runs inline have their
/// own variant; the rest keep their NIR form.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Const(Reg, crate::Val),
    Mov(Reg, Reg),
    /// `dst = lhs op rhs` with int, float or double operands: arithmetic
    /// (a result of the operand type) and comparisons (a boolean).
    ArithI(BinOp, Reg, Reg, Reg),
    CmpI(BinOp, Reg, Reg, Reg),
    ArithF(BinOp, Reg, Reg, Reg),
    CmpF(BinOp, Reg, Reg, Reg),
    ArithD(BinOp, Reg, Reg, Reg),
    CmpD(BinOp, Reg, Reg, Reg),
    Not(Reg, Reg),
    Cast(PrimKind, Reg, Reg),
    Jmp(u32),
    Br(Reg, u32, u32),
    Ret(Option<Reg>),
    Call(FuncId, Box<[Reg]>, Option<Reg>),
    /// Selector, then the receiver followed by the arguments.
    CallVirt(u32, Box<[Reg]>, Option<Reg>),
    GetField(Reg, u32, Reg),
    PutField(Reg, u32, Reg),
    LdArr(Reg, Reg, Reg),
    StArr(Reg, Reg, Reg),
    ArrLen(Reg, Reg),
    /// Rare, costly or yielding instructions (long and boolean binary
    /// ops, allocation, intrinsics, launches, barriers), run out of line.
    Other(Box<Instr>),
}

/// One function's decoded stream plus the frame shape calls need.
#[derive(Debug)]
pub(crate) struct DecodedFunc {
    pub name: String,
    pub params: usize,
    pub nregs: usize,
    /// `(op, weight)` per NIR pc.
    pub ops: Box<[(Op, u64)]>,
}

/// A program's decoded form: what [`crate::run`] executes. Holders keep
/// it beside the program (`Translated::code`, the mpi-sim pool, the dist
/// worker) so it is built once per artifact, never per invoke, slice or
/// CUDA thread.
#[derive(Debug)]
pub struct Code {
    pub(crate) funcs: Vec<DecodedFunc>,
    pub(crate) classes: Vec<ClassMeta>,
    pub(crate) selectors: Vec<String>,
}

impl Code {
    /// Decode every function of `program` (microseconds per few hundred
    /// instructions).
    pub fn new(program: &Program) -> Code {
        let funcs = program
            .funcs
            .iter()
            .map(|f| DecodedFunc {
                name: f.name.clone(),
                params: f.params.len(),
                nregs: f.regs.len(),
                ops: f.code.iter().map(|i| (decode(i), weight(i))).collect(),
            })
            .collect();
        Code {
            funcs,
            classes: program.classes.clone(),
            selectors: program.selectors.clone(),
        }
    }

    pub(crate) fn func(&self, id: FuncId) -> &DecodedFunc {
        &self.funcs[id.0 as usize]
    }
}

fn decode(ins: &Instr) -> Op {
    use crate::Val;
    match ins {
        Instr::ConstI32(d, v) => Op::Const(*d, Val::I32(*v)),
        Instr::ConstI64(d, v) => Op::Const(*d, Val::I64(*v)),
        Instr::ConstF32(d, v) => Op::Const(*d, Val::F32(*v)),
        Instr::ConstF64(d, v) => Op::Const(*d, Val::F64(*v)),
        Instr::ConstBool(d, v) => Op::Const(*d, Val::Bool(*v)),
        Instr::Mov(d, s) => Op::Mov(*d, *s),
        Instr::Bin {
            op,
            kind,
            dst,
            lhs,
            rhs,
        } => {
            let bin = match (kind, op.is_comparison()) {
                (PrimKind::Int, false) => Op::ArithI,
                (PrimKind::Int, true) => Op::CmpI,
                (PrimKind::Float, false) => Op::ArithF,
                (PrimKind::Float, true) => Op::CmpF,
                (PrimKind::Double, false) => Op::ArithD,
                (PrimKind::Double, true) => Op::CmpD,
                _ => return Op::Other(Box::new(ins.clone())),
            };
            bin(*op, *dst, *lhs, *rhs)
        }
        Instr::Not { dst, src } => Op::Not(*dst, *src),
        Instr::Cast { to, dst, src, .. } => Op::Cast(*to, *dst, *src),
        Instr::Jmp(t) => Op::Jmp(*t),
        Instr::Br { cond, t, f } => Op::Br(*cond, *t, *f),
        Instr::Ret(r) => Op::Ret(*r),
        Instr::Call { func, args, dst } => Op::Call(*func, args[..].into(), *dst),
        Instr::CallVirt {
            selector,
            recv,
            args,
            dst,
        } => {
            let all: Vec<Reg> = std::iter::once(*recv).chain(args.iter().copied()).collect();
            Op::CallVirt(*selector, all.into(), *dst)
        }
        Instr::GetField { obj, slot, dst } => Op::GetField(*obj, *slot, *dst),
        Instr::PutField { obj, slot, src } => Op::PutField(*obj, *slot, *src),
        Instr::LdArr { arr, idx, dst } => Op::LdArr(*arr, *idx, *dst),
        Instr::StArr { arr, idx, src } => Op::StArr(*arr, *idx, *src),
        Instr::ArrLen { arr, dst } => Op::ArrLen(*arr, *dst),
        _ => Op::Other(Box::new(ins.clone())),
    }
}
