//! Equivalence of the pipelined `dist` coordinator with `mpi-sim`.
//!
//! The coordinator sends `Resume` and `WriteFloats` without awaiting
//! their `Ok`, fans every slice round out to all ready ranks at once,
//! and reads the queued replies only when it next needs one. None of
//! that may be observable: under seeded crash, transport and
//! checkpoint-write faults, with and without checkpointing, a `dist`
//! world (worker threads and worker processes) must give the same
//! `WorldRun`, bit for bit, or the same typed error as `mpi-sim` —
//! including when a queued request is the one that fails, and when the
//! scheduler raises an error of its own after a queued failure.

mod common;

use common::ring_step_reduce;
use dist::{DistWorld, Launch};
use exec::{Code, FaultConfig, Machine, Val};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use mpi_sim::{CheckpointPolicy, Schedule, SimError, World, WorldRun};
use nir::codec::Writer;
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, IntrinOp, Program, Ty};
use std::path::PathBuf;

fn worker_processes() -> Launch {
    Launch::Processes {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_wj-dist-worker")),
        args: vec![],
    }
}

/// Everything a run produced except `overlapped_rounds`, the `dist`
/// coordinator's own fan-out counter (`mpi-sim` never fans out).
fn fingerprint(run: &WorldRun) -> String {
    let ranks: Vec<_> = run
        .ranks
        .iter()
        .map(|r| {
            let mut machine = Writer::new();
            exec::ckpt::write_machine(&mut machine, &r.machine);
            (
                format!("{:?}", r.result),
                r.vclock,
                r.compute_cycles,
                r.comm_cycles,
                r.output.clone(),
                r.gpu_time,
                machine.into_bytes(),
            )
        })
        .collect();
    let mut resilience = run.resilience;
    resilience.overlapped_rounds = 0;
    format!(
        "{ranks:?} vtime {} cycles {} {resilience:?} {:?} {:?}",
        run.vtime, run.total_cycles, run.shared_jit, run.restart
    )
}

/// Same `WorldRun` or same typed error; returns whether the reference
/// completed.
fn assert_equivalent(
    reference: &Result<WorldRun, SimError>,
    remote: &Result<WorldRun, SimError>,
    what: &str,
) -> bool {
    match (reference, remote) {
        (Ok(a), Ok(b)) => {
            assert_eq!(fingerprint(a), fingerprint(b), "{what}: runs diverged");
            true
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{what}: errors diverged");
            false
        }
        (a, b) => panic!(
            "{what}: outcome diverged: mpi-sim {:?}, dist {:?}",
            a.as_ref().map(|r| r.vtime),
            b.as_ref().map(|r| r.vtime)
        ),
    }
}

/// A named fault mix on top of a crash rate.
type Storm = (&'static str, fn(&mut FaultConfig));

const STORMS: [Storm; 3] = [
    ("crash", |_| {}),
    ("crash+transport", |c| {
        c.connect_refuse = 0.05;
        c.frame_truncate = 0.03;
        c.ack_delay = 0.1;
    }),
    ("crash+ckpt-io", |c| c.ckpt_write_fail = 0.3),
];

/// Run the ring under one seeded fault plan on mpi-sim and on `dist`,
/// plainly or under checkpointing with restarts.
fn ring_case(
    p: &Program,
    code: &Code,
    entry: FuncId,
    launch: &Launch,
    seed: u64,
    storm: &Storm,
    ckpt: Option<u32>,
) -> bool {
    let mut fault = FaultConfig::seeded(seed);
    fault.crash = 0.02;
    (storm.1)(&mut fault);
    let schedule = Schedule::Seeded(seed);
    let no_args = |_: u32, _: &mut Machine| Ok(vec![]);
    let local = World::new(p, code, 3)
        .with_faults(fault)
        .with_schedule(schedule);
    let remote = DistWorld::new(p, code, 3)
        .with_faults(fault)
        .with_schedule(schedule)
        .with_launch(launch.clone());
    let (reference, run) = match ckpt {
        None => (local.run(entry, no_args), remote.run(entry, no_args)),
        Some(every) => {
            let policy = CheckpointPolicy::every(every).with_rebase_every(2);
            (
                local.run_with_restart(entry, no_args, &policy, 3),
                remote.run_with_restart(entry, no_args, &policy, 3),
            )
        }
    };
    assert_equivalent(
        &reference,
        &run,
        &format!("{} seed {seed:#x} ckpt {ckpt:?} {launch:?}", storm.0),
    )
}

#[test]
fn seeded_fault_plans_match_mpi_sim_on_worker_threads() {
    let (p, entry) = ring_step_reduce(6, 5);
    let code = Code::new(&p);
    let (mut completed, mut failed) = (0, 0);
    for storm in &STORMS {
        for s in 0..6u64 {
            let seed = 0x9199_0000 | s;
            for ckpt in [None, Some(1), Some(2)] {
                if ring_case(&p, &code, entry, &Launch::Threads, seed, storm, ckpt) {
                    completed += 1;
                } else {
                    failed += 1;
                }
            }
        }
    }
    // The sweep must exercise both outcome classes to mean anything.
    assert!(completed > 0, "no seeded run completed");
    assert!(failed > 0, "no seeded run failed typed");
}

#[test]
fn seeded_fault_plans_match_mpi_sim_on_worker_processes() {
    let (p, entry) = ring_step_reduce(6, 5);
    let code = Code::new(&p);
    let launch = worker_processes();
    for storm in &STORMS {
        for s in 0..2u64 {
            let seed = 0x9199_0000 | s;
            for ckpt in [None, Some(1)] {
                ring_case(&p, &code, entry, &launch, seed, storm, ckpt);
            }
        }
    }
}

/// `pass_along(send_count, recv_count, recv_len, probe)`: read
/// `sbuf[probe]` (out of bounds when `probe >= send_count`), send
/// `send_count` floats to the next rank, receive `recv_count` floats
/// from the previous one into a buffer of `recv_len`, then allreduce
/// the rank id. Per-rank arguments place a failure on chosen ranks.
fn pass_along() -> (Program, FuncId) {
    let params = vec![Ty::I32; 4];
    let mut fb = FuncBuilder::new("pass_along", params, Some(Ty::F32), FuncKind::Host);
    let (send_count, recv_count, recv_len, probe) = (0, 1, 2, 3);
    let rank = fb.reg(Ty::I32);
    let size = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let tag = fb.reg(Ty::I32);
    let dest = fb.reg(Ty::I32);
    let src = fb.reg(Ty::I32);
    let sbuf = fb.reg(Ty::Arr(ElemTy::F32));
    let rbuf = fb.reg(Ty::Arr(ElemTy::F32));
    let probed = fb.reg(Ty::F32);
    let mine = fb.reg(Ty::F32);
    let total = fb.reg(Ty::F32);
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
    fb.emit(Instr::ConstI32(tag, 3));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: send_count,
        dst: sbuf,
    });
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: recv_len,
        dst: rbuf,
    });
    fb.emit(Instr::LdArr {
        arr: sbuf,
        idx: probe,
        dst: probed,
    });
    // dest = (rank + 1) % size; src = (rank + size - 1) % size
    for (dst, lhs, rhs) in [(dest, rank, one), (src, rank, size)] {
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst,
            lhs,
            rhs,
        });
    }
    fb.emit(Instr::Bin {
        op: BinOp::Sub,
        kind: PrimKind::Int,
        dst: src,
        lhs: src,
        rhs: one,
    });
    for reg in [dest, src] {
        fb.emit(Instr::Bin {
            op: BinOp::Rem,
            kind: PrimKind::Int,
            dst: reg,
            lhs: reg,
            rhs: size,
        });
    }
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendF32,
        args: vec![sbuf, zero, send_count, dest, tag],
        dst: None,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRecvF32,
        args: vec![rbuf, zero, recv_count, src, tag],
        dst: None,
    });
    fb.emit(Instr::Cast {
        to: PrimKind::Float,
        from: PrimKind::Int,
        dst: mine,
        src: rank,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceSumF32,
        args: vec![mine],
        dst: Some(total),
    });
    fb.emit(Instr::Ret(Some(total)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.validate().unwrap();
    (p, id)
}

/// Per-rank `pass_along` arguments: `(send_count, recv_count, recv_len,
/// probe)`, four floats and a valid probe unless overridden.
type Args = fn(u32) -> [i32; 4];

/// Run `pass_along` on four ranks with per-rank arguments on mpi-sim and
/// on `dist` (threads and processes), under every schedule in `seeds`.
fn pass_case(args: Args, seeds: &[Option<u64>]) -> Vec<Result<WorldRun, SimError>> {
    let (p, entry) = pass_along();
    let code = Code::new(&p);
    let make_args = |r: u32, _: &mut Machine| Ok(args(r).map(Val::I32).to_vec());
    let mut out = Vec::new();
    for &seed in seeds {
        let schedule = seed.map_or(Schedule::RankOrder, Schedule::Seeded);
        let reference = World::new(&p, &code, 4)
            .with_schedule(schedule)
            .run(entry, make_args);
        for launch in [Launch::Threads, worker_processes()] {
            let run = DistWorld::new(&p, &code, 4)
                .with_schedule(schedule)
                .with_launch(launch.clone())
                .run(entry, make_args);
            assert_equivalent(&reference, &run, &format!("{schedule:?} {launch:?}"));
        }
        out.push(reference);
    }
    out
}

#[test]
fn pass_along_completes_identically() {
    for run in pass_case(|_| [4, 4, 4, 0], &[None, Some(5)]) {
        let run = run.expect("the clean pass must complete");
        for rank in &run.ranks {
            assert!(matches!(rank.result, Some(Val::F32(x)) if x == 6.0));
        }
    }
}

#[test]
fn a_failed_queued_write_surfaces_the_same_error() {
    // Rank 1 receives four floats into a one-float buffer: the write of
    // the matched message fails on the worker, after the coordinator has
    // moved on.
    let args: Args = |r| if r == 1 { [4, 4, 1, 0] } else { [4, 4, 4, 0] };
    for run in pass_case(args, &[None, Some(3), Some(11)]) {
        let err = run.expect_err("the out-of-bounds receive must fail");
        assert!(
            matches!(&err, SimError::Rank { rank: 1, message } if message.contains("out of bounds")),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn a_scheduler_error_after_a_queued_failure_reports_the_queued_one() {
    // In the same delivery pass: rank 1's receive write fails (queued),
    // then rank 2's receive expects five floats but is matched with
    // four — an error the scheduler raises itself, after asking for
    // rank 2's location. The queued failure was issued first, so it is
    // the error of the run on every backend.
    let args: Args = |r| match r {
        1 => [4, 4, 1, 0],
        2 => [4, 5, 5, 0],
        _ => [4, 4, 4, 0],
    };
    for run in pass_case(args, &[None]) {
        let err = run.expect_err("the run must fail");
        assert!(
            matches!(&err, SimError::Rank { rank: 1, message } if message.contains("out of bounds")),
            "the queued failure must win: {err}"
        );
    }
    // Without the queued failure the scheduler's own error stands.
    let args: Args = |r| if r == 2 { [4, 5, 5, 0] } else { [4, 4, 4, 0] };
    for run in pass_case(args, &[None]) {
        let err = run.expect_err("the run must fail");
        assert!(
            matches!(&err, SimError::Rank { rank: 2, message } if message.contains("matched a message")),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn a_fanned_out_slice_round_reports_the_first_failure_in_service_order() {
    // Ranks 1 and 3 both fault in the same slice round; which one is
    // reported depends on the service order, which the seed permutes.
    let args: Args = |r| {
        if r % 2 == 1 {
            [4, 4, 4, 9]
        } else {
            [4, 4, 4, 0]
        }
    };
    let seeds: Vec<Option<u64>> = (1..9).map(Some).collect();
    let mut ranks = std::collections::BTreeSet::new();
    for run in pass_case(args, &seeds) {
        let err = run.expect_err("the out-of-bounds probe must fail");
        ranks.insert(err.rank());
    }
    assert_eq!(
        ranks.into_iter().collect::<Vec<_>>(),
        vec![Some(1), Some(3)],
        "the seeds must put each faulting rank first at least once"
    );
}
