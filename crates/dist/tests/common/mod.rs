//! Programs shared by the `dist` integration suites.

use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, IntrinOp, Program, Ty};

/// The reference workload: each step, every rank passes its buffer
/// around the ring, halves what it received, and contributes the first
/// element to a global allreduce — one collective boundary per step
/// (checkpoint cut points), plus enough point-to-point traffic to
/// exercise the message path.
pub fn ring_step_reduce(n: i32, steps: i32) -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("ring_step_reduce", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let size = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let nn = fb.reg(Ty::I32);
    let nsteps = fb.reg(Ty::I32);
    let tag = fb.reg(Ty::I32);
    let sbuf = fb.reg(Ty::Arr(ElemTy::F32));
    let rbuf = fb.reg(Ty::Arr(ElemTy::F32));
    let dest = fb.reg(Ty::I32);
    let src = fb.reg(Ty::I32);
    let i = fb.reg(Ty::I32);
    let s = fb.reg(Ty::I32);
    let cond = fb.reg(Ty::Bool);
    let base = fb.reg(Ty::I32);
    let iv = fb.reg(Ty::I32);
    let fv = fb.reg(Ty::F32);
    let half = fb.reg(Ty::F32);
    let first = fb.reg(Ty::F32);
    let global = fb.reg(Ty::F32);
    let acc = fb.reg(Ty::F32);

    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRank,
        args: vec![],
        dst: Some(rank),
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSize,
        args: vec![],
        dst: Some(size),
    });
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(nn, n));
    fb.emit(Instr::ConstI32(nsteps, steps));
    fb.emit(Instr::ConstI32(tag, 7));
    fb.emit(Instr::ConstF32(half, 0.5));
    fb.emit(Instr::ConstF32(acc, 0.0));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: nn,
        dst: sbuf,
    });
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: nn,
        dst: rbuf,
    });

    // sbuf[i] = rank * n + i
    fb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Int,
        dst: base,
        lhs: rank,
        rhs: nn,
    });
    fb.emit(Instr::ConstI32(i, 0));
    let fill_head = fb.label();
    let fill_body = fb.label();
    let fill_done = fb.label();
    fb.bind(fill_head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: i,
        rhs: nn,
    });
    fb.br(cond, fill_body, fill_done);
    fb.bind(fill_body);
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: iv,
        lhs: base,
        rhs: i,
    });
    fb.emit(Instr::Cast {
        to: PrimKind::Float,
        from: PrimKind::Int,
        dst: fv,
        src: iv,
    });
    fb.emit(Instr::StArr {
        arr: sbuf,
        idx: i,
        src: fv,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: i,
        lhs: i,
        rhs: one,
    });
    fb.jmp(fill_head);
    fb.bind(fill_done);

    // dest = (rank + 1) % size; src = (rank + size - 1) % size
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: dest,
        lhs: rank,
        rhs: one,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Rem,
        kind: PrimKind::Int,
        dst: dest,
        lhs: dest,
        rhs: size,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: src,
        lhs: rank,
        rhs: size,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Sub,
        kind: PrimKind::Int,
        dst: src,
        lhs: src,
        rhs: one,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Rem,
        kind: PrimKind::Int,
        dst: src,
        lhs: src,
        rhs: size,
    });

    // step loop
    fb.emit(Instr::ConstI32(s, 0));
    let step_head = fb.label();
    let step_body = fb.label();
    let step_done = fb.label();
    fb.bind(step_head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: s,
        rhs: nsteps,
    });
    fb.br(cond, step_body, step_done);
    fb.bind(step_body);
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendRecvF32,
        args: vec![sbuf, zero, nn, dest, rbuf, zero, src, tag],
        dst: None,
    });
    // sbuf[i] = rbuf[i] * 0.5
    fb.emit(Instr::ConstI32(i, 0));
    let scale_head = fb.label();
    let scale_body = fb.label();
    let scale_done = fb.label();
    fb.bind(scale_head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: i,
        rhs: nn,
    });
    fb.br(cond, scale_body, scale_done);
    fb.bind(scale_body);
    fb.emit(Instr::LdArr {
        arr: rbuf,
        idx: i,
        dst: fv,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Float,
        dst: fv,
        lhs: fv,
        rhs: half,
    });
    fb.emit(Instr::StArr {
        arr: sbuf,
        idx: i,
        src: fv,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: i,
        lhs: i,
        rhs: one,
    });
    fb.jmp(scale_head);
    fb.bind(scale_done);
    // acc += allreduceSum(sbuf[0])
    fb.emit(Instr::LdArr {
        arr: sbuf,
        idx: zero,
        dst: first,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceSumF32,
        args: vec![first],
        dst: Some(global),
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Float,
        dst: acc,
        lhs: acc,
        rhs: global,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: s,
        lhs: s,
        rhs: one,
    });
    fb.jmp(step_head);
    fb.bind(step_done);
    fb.emit(Instr::Ret(Some(acc)));

    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.validate().unwrap();
    (p, id)
}
