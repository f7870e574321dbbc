//! `ranks`: closed loop, one client. Each request runs a short-slice ring
//! sendrecv + allreduce program (many steps, small n) on 2 ranks, on a
//! backend drawn from the stream. Scheduler rounds, MPI yields, executor
//! batches, the transport and checkpoint capture do the work; the engine
//! does little.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use jlang::ClassTable;
use jvm::Value;
use wootinj::{
    CheckpointPolicy, DistPlatform, ExecMode, ExecutorCfg, FaultConfig, HostMtPlatform, JitOptions,
    MpiSimPlatform, Platform, RunReport, WootinJ,
};

use crate::kernel::same_run;
use crate::progs::{close_f32, ring_collectives, ring_reference, RING};
use crate::stats::{median, Deck, Rng};
use crate::trace::{self, PROBE, REQUEST};
use crate::{Ctx, Measured, Workload, COUNT_PREFIX};

/// World size: one rank per core of the 2-core host the benchmark is sized for.
const RANKS: u32 = 2;
const STEPS: i32 = 24;
const NS: [i32; 3] = [8, 12, 16];
const SCALES: [f32; 3] = [0.5, 0.25, 0.75];
/// Crash probability per yield of a checkpointed request.
const CRASH: f64 = 0.01;
/// Fault-plan seeds per run; checkpointed requests draw one of these.
const FAULT_PLANS: usize = 4;

const THREADS: ExecutorCfg = ExecutorCfg::Threads {
    workers: RANKS,
    mode: ExecMode::Replay,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Backend {
    /// mpi-sim on the cooperative serial loop.
    Serial,
    /// host-mt (shared-memory cost model, seeded schedule).
    HostMt,
    /// mpi-sim on replay-mode OS threads.
    Threads,
    /// dist: socket-connected rank workers launched as threads.
    Dist,
}

impl Backend {
    fn name(self, ckpt: bool) -> String {
        let b = match self {
            Backend::Serial => "mpi-sim",
            Backend::HostMt => "host-mt",
            Backend::Threads => "mpi-sim-threads",
            Backend::Dist => "dist",
        };
        if ckpt {
            format!("{b}+ckpt")
        } else {
            b.to_string()
        }
    }

    fn platform(self) -> Arc<dyn Platform> {
        match self {
            Backend::Serial | Backend::Threads => Arc::new(MpiSimPlatform::new(RANKS)),
            Backend::HostMt => Arc::new(HostMtPlatform::new(RANKS)),
            Backend::Dist => Arc::new(DistPlatform::new(RANKS)),
        }
    }

    fn executor(self) -> ExecutorCfg {
        match self {
            Backend::Threads => THREADS,
            _ => ExecutorCfg::Sim,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Backend::Dist => "dist.invoke",
            _ => "mpi-sim.invoke",
        }
    }

    /// The serial-loop platform whose run this backend must reproduce
    /// bit for bit (host-mt's own cost model on mpi-sim's serial loop).
    fn reference(self) -> Option<Arc<dyn Platform>> {
        match self {
            Backend::Serial => None,
            Backend::HostMt => Some(Arc::new(MpiSimPlatform {
                ranks: RANKS,
                cost: HostMtPlatform::new(RANKS).cost,
                gpu: None,
            })),
            Backend::Threads | Backend::Dist => Some(Arc::new(MpiSimPlatform::new(RANKS))),
        }
    }
}

/// Fixed proportions per deck of 20 `(backend, checkpointed)` requests.
/// Sorted by latency, the serial and host-mt requests fill the first 60%
/// (the median lands inside), and dist fills the last 15% (p90 inside).
const MIX: [((Backend, bool), usize); 7] = [
    ((Backend::Serial, false), 6),
    ((Backend::HostMt, false), 6),
    ((Backend::Serial, true), 2),
    ((Backend::HostMt, true), 1),
    ((Backend::Threads, false), 1),
    ((Backend::Threads, true), 1),
    ((Backend::Dist, false), 3),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Req {
    backend: Backend,
    n: usize,
    scale: usize,
    fault: Option<usize>,
}

pub struct Ranks {
    env: WootinJ<'static>,
    app: Value,
    ckpt_dir: PathBuf,
    runs: u64,
    /// Serial-loop reference runs (report, wall ms), by request shape.
    refs: HashMap<(bool, Req), (RunReport, f64)>,
}

impl Ranks {
    fn fault_seed(ctx: &Ctx, plan: usize) -> u64 {
        Rng::new(ctx.seed ^ 0xFA17).fork(plan as u64).next_u64()
    }

    /// Run `req` on `platform`; checkpointed runs persist their delta chain
    /// to a fresh file, removed afterwards.
    fn run(
        &mut self,
        ctx: &Ctx,
        req: Req,
        platform: Arc<dyn Platform>,
        executor: ExecutorCfg,
        span: &'static str,
    ) -> Result<(RunReport, f64, f64), String> {
        self.runs += 1;
        let persist = self.ckpt_dir.join(format!("run{}.wckpt", self.runs));
        let mut opts = JitOptions::wootinj().with_executor(executor);
        if req.fault.is_some() {
            opts = opts.with_checkpointing(
                CheckpointPolicy::every(4)
                    .with_rebase_every(4)
                    .with_persist(&persist),
            );
        }
        let args = [
            Value::Int(NS[req.n]),
            Value::Int(STEPS),
            Value::Float(SCALES[req.scale]),
        ];
        let t = Instant::now();
        let mut code = trace::span("wootinj.mem_hit", || {
            self.env.jit_on(platform, &self.app, "run", &args, opts)
        })
        .map_err(|e| format!("jit: {e}"))?;
        let jit_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(plan) = req.fault {
            let mut f = FaultConfig::seeded(Self::fault_seed(ctx, plan));
            f.crash = CRASH;
            code.set_faults(f);
        }
        code.set_timeout(200_000);
        let t = Instant::now();
        let r = trace::span(span, || code.invoke(&self.env));
        let run_ms = t.elapsed().as_secs_f64() * 1e3;
        if req.fault.is_some() {
            remove_chain(&self.ckpt_dir, &format!("run{}", self.runs));
        }
        Ok((r.map_err(|e| format!("invoke: {e}"))?, jit_ms, run_ms))
    }

    /// The serial-loop reference for `req` and its wall time. Untraced
    /// runs reuse one per request shape; traced runs re-time it each time.
    fn reference(&mut self, ctx: &Ctx, req: Req) -> Result<Option<&(RunReport, f64)>, String> {
        let Some(platform) = req.backend.reference() else {
            return Ok(None);
        };
        let key = (
            req.backend == Backend::HostMt,
            Req {
                backend: Backend::Serial,
                ..req
            },
        );
        if trace::enabled() || !self.refs.contains_key(&key) {
            let (r, _, ms) = trace::root(PROBE, 0, || {
                self.run(ctx, req, platform, ExecutorCfg::Sim, "mpi-sim.invoke")
            })?;
            self.refs.insert(key, (r, ms));
        }
        Ok(self.refs.get(&key))
    }
}

/// Remove a persisted checkpoint chain: `<stem>.wckpt` and its
/// `<stem>.d<k>.wckpt` delta links.
fn remove_chain(dir: &Path, stem: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let name = name.to_string_lossy();
        if name == format!("{stem}.wckpt") || name.starts_with(&format!("{stem}.d")) {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

fn check_ring(r: &RunReport, n: i32, scale: f32) -> Result<(), String> {
    let want = ring_reference(RANKS as usize, n as usize, STEPS as usize, scale);
    let got: Vec<Option<exec::Val>> = r.results.clone();
    let ok = got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| matches!(g, Some(exec::Val::F32(v)) if close_f32(*v, *w)));
    if ok {
        Ok(())
    } else {
        Err(format!("results {got:?}, reference {want:?}"))
    }
}

impl Workload for Ranks {
    fn setup(ctx: &Ctx, dir: &Path) -> Result<Self, String> {
        let table = trace::span("jlang.compile", || {
            wootinj::build_table(&[("ring.jl", RING)])
        })
        .map_err(|e| format!("ring table: {e:?}"))?;
        let table: &'static ClassTable = Box::leak(Box::new(table));
        let mut env = WootinJ::new(table).map_err(|e| format!("env: {e}"))?;
        let app = env
            .new_instance("Ring", &[])
            .map_err(|e| format!("Ring: {e}"))?;
        let ckpt_dir = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("{ckpt_dir:?}: {e}"))?;
        let mut w = Ranks {
            env,
            app,
            ckpt_dir,
            runs: 0,
            refs: HashMap::new(),
        };
        // Pre-jit every platform's key and warm each backend once.
        for backend in [
            Backend::Serial,
            Backend::HostMt,
            Backend::Threads,
            Backend::Dist,
        ] {
            let req = Req {
                backend,
                n: 0,
                scale: 0,
                fault: None,
            };
            w.run(
                ctx,
                req,
                backend.platform(),
                backend.executor(),
                "setup.warm",
            )?;
        }
        Ok(w)
    }

    fn measure(&mut self, ctx: &Ctx, secs: f64) -> Measured {
        let mut m = Measured::default();
        let mut rng = Rng::new(ctx.seed);
        let mut deck = Deck::new(rng.fork(2), &MIX);
        let mut serial_ns = Vec::new();
        let mut serial_us_coll = Vec::new();
        let mut threads_over_sim = Vec::new();
        let mut dist_over = Vec::new();
        let (mut instrs, mut vcycles, mut ckpts, mut bytes, mut restarts) = (0u64, 0, 0, 0, 0);
        let mut busy = 0.0;
        let end = Instant::now() + std::time::Duration::from_secs_f64(secs);
        let mut id = 0u64;
        while Instant::now() < end {
            let (backend, ckpt) = deck.deal();
            let req = Req {
                backend,
                n: rng.below(NS.len()),
                scale: rng.below(SCALES.len()),
                fault: ckpt.then(|| rng.below(FAULT_PLANS)),
            };
            id += 1;
            m.attempted += 1;
            m.count(backend.name(ckpt));
            let t0 = Instant::now();
            let out = trace::root(REQUEST, id, || {
                self.run(
                    ctx,
                    req,
                    backend.platform(),
                    backend.executor(),
                    backend.span(),
                )
            });
            let lat = t0.elapsed().as_secs_f64() * 1e3;
            let (report, jit_ms, run_ms) = match out {
                Ok(x) => x,
                Err(e) => {
                    m.fail(format!("{} request {id}: {e}", backend.name(ckpt)));
                    continue;
                }
            };
            if let Err(e) = check_ring(&report, NS[req.n], SCALES[req.scale]) {
                m.fail(format!("{} request {id}: {e}", backend.name(ckpt)));
                continue;
            }
            match self.reference(ctx, req) {
                Ok(None) => {}
                Ok(Some((reference, ref_ms))) => {
                    if let Err(e) = same_run(&report, reference) {
                        m.diverged += 1;
                        m.fail(format!("{} request {id}: {e}", backend.name(ckpt)));
                        continue;
                    }
                    match (backend, ckpt) {
                        (Backend::Threads, false) => threads_over_sim.push(run_ms / ref_ms),
                        (Backend::Dist, false) => dist_over.push(run_ms - ref_ms),
                        _ => {}
                    }
                }
                Err(e) => {
                    m.fail(format!(
                        "{} request {id}: reference: {e}",
                        backend.name(ckpt)
                    ));
                    continue;
                }
            }
            let n: u64 = report
                .worlds
                .ranks
                .iter()
                .map(|r| r.machine.counters.instrs)
                .sum();
            if (backend, ckpt) == (Backend::Serial, false) {
                serial_ns.push(run_ms * 1e6 / n.max(1) as f64);
                serial_us_coll.push(run_ms * 1e3 / ring_collectives(STEPS) as f64);
            }
            if (id as usize) <= COUNT_PREFIX {
                instrs += n;
                vcycles += report.vtime_cycles;
                ckpts += report.restart.checkpoints_taken;
                bytes += report.restart.ckpt_bytes_written;
                restarts += report.restart.restarts;
            }
            busy += lat;
            m.sample(id, &backend.name(ckpt), lat, jit_ms, run_ms);
        }
        m.req_per_s = m.lat_ms.len() as f64 / (busy / 1e3).max(1e-9);
        m.set("exec.ns_per_instr.ring", median(&serial_ns));
        m.set("mpi-sim.us_per_collective", median(&serial_us_coll));
        m.set(
            "exec.pool.threads_over_sim.short",
            median(&threads_over_sim),
        );
        m.set("dist.over_mpi-sim_ms", median(&dist_over));
        m.set("exec.instrs", instrs as f64);
        m.set("exec.vcycles", vcycles as f64);
        m.set("exec.ckpt_count", ckpts as f64);
        m.set("exec.ckpt_bytes", bytes as f64);
        m.set("exec.restarts", restarts as f64);
        m.notes.push(format!(
            "ring program: {RANKS} ranks, {STEPS} steps, n in {NS:?}, checkpoint every 4 \
             collectives (delta chain, rebase every 4) under crash p={CRASH}"
        ));
        m
    }
}
