//! Differential semantics: the NIR engine's arithmetic must agree with
//! the jvm interpreter's Java semantics on every operator and operand —
//! the two execution paths of the framework must never diverge.
//!
//! Randomized inputs come from a small deterministic xorshift generator
//! so the suite builds without external crates on offline hosts.

use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{FuncBuilder, FuncKind, Instr, Program, Ty};

/// Deterministic xorshift64* PRNG — same sequence on every run.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn next_i32(&mut self) -> i32 {
        self.next_u64() as i32
    }

    fn next_f64(&mut self) -> f64 {
        f64::from_bits(self.next_u64())
    }
}

/// Build `fn f(a, b) { a op b }` for int operands.
fn int_binop_program(op: BinOp) -> Program {
    let out_ty = if op.is_comparison() {
        Ty::Bool
    } else {
        Ty::I32
    };
    let mut fb = FuncBuilder::new("f", vec![Ty::I32, Ty::I32], Some(out_ty), FuncKind::Host);
    let dst = fb.reg(out_ty);
    fb.emit(Instr::Bin {
        op,
        kind: PrimKind::Int,
        dst,
        lhs: 0,
        rhs: 1,
    });
    fb.emit(Instr::Ret(Some(dst)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.entry = Some(id);
    p
}

/// Java reference semantics for the same operator.
fn java_int_binop(op: BinOp, a: i32, b: i32) -> Option<exec::Val> {
    use BinOp::*;
    Some(match op {
        Add => exec::Val::I32(a.wrapping_add(b)),
        Sub => exec::Val::I32(a.wrapping_sub(b)),
        Mul => exec::Val::I32(a.wrapping_mul(b)),
        Div => {
            if b == 0 {
                return None;
            }
            exec::Val::I32(a.wrapping_div(b))
        }
        Rem => {
            if b == 0 {
                return None;
            }
            exec::Val::I32(a.wrapping_rem(b))
        }
        Shl => exec::Val::I32(a.wrapping_shl(b as u32 & 31)),
        Shr => exec::Val::I32(a.wrapping_shr(b as u32 & 31)),
        BitAnd => exec::Val::I32(a & b),
        BitOr => exec::Val::I32(a | b),
        BitXor => exec::Val::I32(a ^ b),
        Lt => exec::Val::Bool(a < b),
        Le => exec::Val::Bool(a <= b),
        Gt => exec::Val::Bool(a > b),
        Ge => exec::Val::Bool(a >= b),
        Eq => exec::Val::Bool(a == b),
        Ne => exec::Val::Bool(a != b),
        And | Or => return None,
    })
}

#[test]
fn int_operators_match_java_semantics() {
    use BinOp::*;
    let mut rng = Rng::new(0x5EED_0001);
    let mut cases: Vec<(i32, i32)> = vec![
        (0, 0),
        (1, -1),
        (i32::MIN, -1),
        (i32::MIN, i32::MAX),
        (7, 0),
        (-7, 3),
        (i32::MAX, 1),
        (1, 33),
    ];
    for _ in 0..120 {
        cases.push((rng.next_i32(), rng.next_i32()));
    }
    for (a, b) in cases {
        for op in [
            Add, Sub, Mul, Div, Rem, Shl, Shr, BitAnd, BitOr, BitXor, Lt, Le, Gt, Ge, Eq, Ne,
        ] {
            let p = int_binop_program(op);
            let mut m = exec::Machine::new();
            let got = exec::run_to_completion(
                &p,
                p.entry.unwrap(),
                vec![exec::Val::I32(a), exec::Val::I32(b)],
                &mut m,
            );
            match java_int_binop(op, a, b) {
                Some(want) => assert_eq!(got.unwrap(), Some(want), "op {op:?} on ({a}, {b})"),
                None => assert!(got.is_err(), "op {op:?} on ({a}, {b}) should error"),
            }
        }
    }
}

#[test]
fn float_to_int_cast_saturates_like_java() {
    // Java (JLS 5.1.3): NaN -> 0, +/-inf -> min/max; Rust `as` matches.
    let mut rng = Rng::new(0x5EED_0002);
    let mut cases: Vec<f64> = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e300,
        -1e300,
        2147483647.9,
        -2147483648.9,
    ];
    for _ in 0..120 {
        cases.push(rng.next_f64());
    }
    for x in cases {
        let mut fb = FuncBuilder::new("f", vec![Ty::F64], Some(Ty::I32), FuncKind::Host);
        let dst = fb.reg(Ty::I32);
        fb.emit(Instr::Cast {
            to: PrimKind::Int,
            from: PrimKind::Double,
            dst,
            src: 0,
        });
        fb.emit(Instr::Ret(Some(dst)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = exec::Machine::new();
        let got = exec::run_to_completion(&p, id, vec![exec::Val::F64(x)], &mut m).unwrap();
        assert_eq!(got, Some(exec::Val::I32(x as i32)), "cast of {x}");
    }
}

#[test]
fn cycle_count_is_a_pure_function_of_the_trace() {
    // Same program + same input => identical counters.
    for n in [1i32, 2, 3, 17, 50, 199] {
        let mut fb = FuncBuilder::new("loop", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let s = fb.reg(Ty::I32);
        let i = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let c = fb.reg(Ty::Bool);
        fb.emit(Instr::ConstI32(s, 0));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstI32(one, 1));
        let head = fb.label();
        let body = fb.label();
        let done = fb.label();
        fb.bind(head);
        fb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: c,
            lhs: i,
            rhs: 0,
        });
        fb.br(c, body, done);
        fb.bind(body);
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: s,
            lhs: s,
            rhs: i,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: i,
            lhs: i,
            rhs: one,
        });
        fb.jmp(head);
        fb.bind(done);
        fb.emit(Instr::Ret(Some(s)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let run = |n: i32| {
            let mut m = exec::Machine::new();
            exec::run_to_completion(&p, id, vec![exec::Val::I32(n)], &mut m).unwrap();
            (m.counters.instrs, m.counters.cycles)
        };
        assert_eq!(run(n), run(n));
    }
}

#[test]
fn fuel_boundary_never_changes_results() {
    // Running the same program in tiny fuel slices must produce the same
    // result and the same final counters as one big run.
    let p = int_binop_program(BinOp::Add);
    let code = exec::Code::new(&p);
    let args = vec![exec::Val::I32(7), exec::Val::I32(35)];
    let big = {
        let mut m = exec::Machine::new();
        let v = exec::run_to_completion(&p, p.entry.unwrap(), args.clone(), &mut m).unwrap();
        (v, m.counters.instrs, m.counters.cycles)
    };
    for fuel in [1, 7, 64] {
        let mut m = exec::Machine::new();
        let mut t = exec::Thread::new(&code, p.entry.unwrap(), &args).unwrap();
        let small = loop {
            match exec::run(&mut t, &code, &mut m, fuel).unwrap() {
                exec::Yield::Done(v) => break (v, m.counters.instrs, m.counters.cycles),
                exec::Yield::OutOfFuel => {}
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(big, small, "fuel {fuel}");
    }
}

/// A platform that runs the world in scheduler slices of `slice` fuel.
struct Sliced {
    ranks: u32,
    gpu: bool,
    slice: u64,
}

impl wootinj::Platform for Sliced {
    fn id(&self) -> &'static str {
        "sliced"
    }

    fn caps(&self) -> wootinj::Caps {
        wootinj::Caps {
            global_kernels: self.gpu,
            shared_memory: true,
            collectives: true,
            host_ffi: true,
            parallelism: self.ranks,
        }
    }

    fn run(
        &self,
        req: wootinj::RunRequest<'_>,
        make_args: platform::ArgBuilder<'_>,
    ) -> Result<wootinj::RunOutcome, wootinj::SimError> {
        let mut world = mpi_sim::World::new(req.program, req.code, self.ranks);
        if self.gpu {
            world = world.with_gpu(wootinj::GpuConfig::default());
        }
        world.slice = self.slice;
        world.run(req.entry, make_args)
    }
}

#[test]
fn fuel_boundary_never_changes_corpus_results() {
    // Every case of the engine corpus, on its own world shape, in slices
    // of 1, 7 and 64 instructions against one unbounded slice: results,
    // per-rank counters and clocks must not move. Only the cases the
    // golden fixture records as untranslatable are skipped.
    use bench::corpus::{self, Tables};
    let fixture = include_str!("../../../tests/fixtures/engine_golden.txt");
    let untranslatable: Vec<&str> = fixture
        .lines()
        .filter(|l| l.contains(": untranslatable "))
        .filter_map(|l| l.split(": ").next())
        .collect();
    let tables = Tables::build();
    let mut skipped = Vec::new();
    for case in corpus::cases() {
        let mut env = wootinj::WootinJ::new(case.table(&tables)).unwrap();
        let app = case.compose(&mut env).unwrap();
        let (method, args) = case.entry();
        let jit = |slice: u64| {
            let platform = Sliced {
                ranks: case.ranks,
                gpu: case.gpu,
                slice,
            };
            let options = case.series.options();
            env.jit_on(std::sync::Arc::new(platform), &app, method, &args, options)
        };
        let outcome = |code: wootinj::JitCode| {
            let r = code
                .invoke(&env)
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            let ranks: Vec<_> = r
                .worlds
                .ranks
                .iter()
                .map(|x| {
                    (
                        x.machine.counters.instrs,
                        x.machine.counters.cycles,
                        x.vclock,
                    )
                })
                .collect();
            format!("{:?} {} {ranks:?}", r.results, r.vtime_cycles)
        };
        let Ok(unbounded) = jit(u64::MAX) else {
            skipped.push(case.name.clone());
            continue;
        };
        let want = outcome(unbounded);
        for slice in [1, 7, 64] {
            let got = outcome(jit(slice).unwrap());
            assert_eq!(got, want, "{} at slice {slice}", case.name);
        }
    }
    assert_eq!(skipped, untranslatable);
}
