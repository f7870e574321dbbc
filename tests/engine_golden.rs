//! Golden engine fixture: every case of `bench::corpus` plus the engine's
//! typed error programs, run end to end, must reproduce the committed
//! `tests/fixtures/engine_golden.txt` byte for byte — result bits,
//! per-rank instruction and cycle counters, virtual time and per-rank
//! clocks, and for errors the exact message, function and pc.
//!
//! The fixture pins the cost model: a faster engine must retire the
//! same instructions at the same weights. Regenerate it only for an
//! intended cost-model change, with
//! `ENGINE_GOLDEN_BLESS=1 cargo test --test engine_golden`.

use bench::corpus::{self, Tables};
use exec::{ExecError, Machine, Val};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, Program, Ty};
use wootinj::{RunReport, WootinJ};

const FIXTURE: &str = "tests/fixtures/engine_golden.txt";

fn bits(v: &Option<Val>) -> String {
    match v {
        Some(Val::F32(x)) => format!("f32:{:08x}", x.to_bits()),
        Some(Val::F64(x)) => format!("f64:{:016x}", x.to_bits()),
        Some(other) => format!("{other:?}"),
        None => "none".into(),
    }
}

fn run_line(r: &RunReport) -> String {
    let results: Vec<String> = r.results.iter().map(bits).collect();
    let ranks: Vec<String> = r
        .worlds
        .ranks
        .iter()
        .zip(&r.per_rank)
        .map(|(w, p)| {
            format!(
                "{}/{}/{}/{}/{}/{}",
                w.machine.counters.instrs,
                w.machine.counters.cycles,
                p.vclock,
                p.compute_cycles,
                p.comm_cycles,
                p.gpu_time
            )
        })
        .collect();
    format!(
        "ok results=[{}] vtime={} total={} ranks=[{}]",
        results.join(","),
        r.vtime_cycles,
        r.total_cycles,
        ranks.join(" ")
    )
}

fn err_line(e: &ExecError, m: &Machine) -> String {
    format!(
        "err func={} pc={} instrs={} cycles={} message={}",
        e.func, e.pc, m.counters.instrs, m.counters.cycles, e.message
    )
}

fn one_func(name: &str, build: impl FnOnce(&mut FuncBuilder)) -> (Program, FuncId) {
    let mut fb = FuncBuilder::new(name, vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    build(&mut fb);
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    (p, id)
}

/// `f(n)`: a length-`n` f32 array, then `body(arr, idx)` at index 100.
fn array_prog(name: &str, body: impl FnOnce(&mut FuncBuilder, u32, u32)) -> (Program, FuncId) {
    one_func(name, |fb| {
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let idx = fb.reg(Ty::I32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::ConstI32(idx, 100));
        body(fb, arr, idx);
        fb.emit(Instr::Ret(Some(0)));
    })
}

/// The engine's typed failures, each a tiny NIR program.
fn error_programs() -> Vec<(&'static str, Program, FuncId)> {
    let mut out = Vec::new();
    let (p, f) = array_prog("load_oob", |fb, arr, idx| {
        let v = fb.reg(Ty::F32);
        fb.emit(Instr::LdArr { arr, idx, dst: v });
    });
    out.push(("load-out-of-bounds", p, f));
    let (p, f) = array_prog("store_oob", |fb, arr, idx| {
        let v = fb.reg(Ty::F32);
        fb.emit(Instr::ConstF32(v, 1.5));
        fb.emit(Instr::StArr { arr, idx, src: v });
    });
    out.push(("store-out-of-bounds", p, f));
    let (p, f) = array_prog("load_negative", |fb, arr, idx| {
        let v = fb.reg(Ty::F32);
        fb.emit(Instr::ConstI32(idx, -3));
        fb.emit(Instr::LdArr { arr, idx, dst: v });
    });
    out.push(("load-negative-index", p, f));
    let (p, f) = array_prog("load_freed", |fb, arr, idx| {
        let v = fb.reg(Ty::F32);
        fb.emit(Instr::FreeArr { arr });
        fb.emit(Instr::ConstI32(idx, 0));
        fb.emit(Instr::LdArr { arr, idx, dst: v });
    });
    out.push(("load-after-free", p, f));
    let (p, f) = array_prog("len_freed", |fb, arr, _| {
        let n = fb.reg(Ty::I32);
        fb.emit(Instr::FreeArr { arr });
        fb.emit(Instr::ArrLen { arr, dst: n });
    });
    out.push(("use-after-free", p, f));
    let (p, f) = one_func("div0", |fb| {
        let z = fb.reg(Ty::I32);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(z, 0));
        fb.emit(Instr::Bin {
            op: BinOp::Div,
            kind: PrimKind::Int,
            dst: r,
            lhs: 0,
            rhs: z,
        });
        fb.emit(Instr::Ret(Some(r)));
    });
    out.push(("division-by-zero", p, f));
    // `deep(n) = deep(n)`: unbounded recursion hits the depth limit.
    let (p, f) = one_func("deep", |fb| {
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::Call {
            func: FuncId(0),
            args: vec![0],
            dst: Some(r),
        });
        fb.emit(Instr::Ret(Some(r)));
    });
    out.push(("depth-limit", p, f));
    out
}

fn golden_lines() -> Vec<String> {
    let tables = Tables::build();
    let mut lines = Vec::new();
    for case in corpus::cases() {
        let mut env = WootinJ::new(case.table(&tables)).unwrap();
        let outcome = match case.jit(&mut env).map(|code| code.invoke(&env)) {
            Ok(Ok(r)) => run_line(&r),
            Ok(Err(e)) => format!("failed {e}"),
            Err(e) => format!("untranslatable {e}"),
        };
        lines.push(format!("{}: {outcome}", case.name));
    }
    for (name, p, f) in error_programs() {
        let mut m = Machine::new();
        let outcome = match exec::run_to_completion(&p, f, vec![Val::I32(4)], &mut m) {
            Ok(v) => format!("unexpected ok {}", bits(&v)),
            Err(e) => err_line(&e, &m),
        };
        lines.push(format!("{name}: {outcome}"));
    }
    lines
}

#[test]
fn engine_matches_the_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let got = golden_lines();
    if std::env::var_os("ENGINE_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden fixture is committed");
    let want: Vec<&str> = want.lines().collect();
    let diffs: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != *w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty() && got.len() == want.len(),
        "{} of {} lines differ ({} vs {} lines):\n{}",
        diffs.len(),
        want.len(),
        got.len(),
        want.len(),
        diffs.join("\n")
    );
}
