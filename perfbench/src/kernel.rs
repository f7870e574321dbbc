//! `kernel`: closed loop, one client. Each request is a warm memory-cache
//! `jit` followed by `invoke` of a long-running composed app, so the
//! engine does nearly all the work and translation is bypassed.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use hpclib::{StencilApp, StencilModel, StencilPlatform};
use jlang::ClassTable;
use jvm::Value;
use wootinj::{
    Binding, ExecMode, ExecutorCfg, GpuConfig, JitCode, JitOptions, MpiCostModel, RunReport,
    WootinJ,
};

use crate::progs::check_f32;
use crate::stats::{median, Deck, Rng};
use crate::trace::{self, PROBE, REQUEST};
use crate::{Ctx, Measured, Workload, COUNT_PREFIX};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// WootinJ-mode 3D diffusion on the interpreter.
    Diffusion,
    /// The hand-inlined C-series matmul at n = 48.
    Matmul48,
    /// C++ mode (heap objects, vtable dispatch) 3D diffusion.
    DiffusionCpp,
    /// 3D diffusion kernels on the simulated GPU.
    DiffusionGpu,
    /// 2-rank CpuMpi diffusion on replay-mode threads.
    DiffusionMpi2,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Diffusion => "diffusion",
            Kind::Matmul48 => "matmul48",
            Kind::DiffusionCpp => "diffusion_cpp",
            Kind::DiffusionGpu => "diffusion_gpu",
            Kind::DiffusionMpi2 => "diffusion_mpi2",
        }
    }

    /// Grid edge and sweep count of the diffusion kinds.
    fn grid(self) -> (i32, i32) {
        match self {
            Kind::Diffusion => (20, 4),
            Kind::DiffusionCpp => (16, 3),
            Kind::DiffusionGpu => (14, 2),
            Kind::DiffusionMpi2 => (24, 3),
            Kind::Matmul48 => (0, 0),
        }
    }

    fn platform(self) -> StencilPlatform {
        match self {
            Kind::DiffusionGpu => StencilPlatform::Gpu,
            Kind::DiffusionMpi2 => StencilPlatform::CpuMpi,
            _ => StencilPlatform::Cpu,
        }
    }

    fn options(self) -> JitOptions {
        match self {
            Kind::DiffusionCpp => JitOptions::cpp(),
            Kind::DiffusionMpi2 => JitOptions::wootinj().with_executor(THREADS),
            _ => JitOptions::wootinj(),
        }
    }

    /// Span name of this kind's `invoke`, by the backend crate that runs it.
    fn backend(self) -> &'static str {
        match self {
            Kind::DiffusionGpu => "gpu-sim.invoke",
            Kind::DiffusionMpi2 => "mpi-sim.invoke",
            _ => "exec.invoke",
        }
    }
}

const THREADS: ExecutorCfg = ExecutorCfg::Threads {
    workers: 2,
    mode: ExecMode::Replay,
};

/// Fixed proportions per deck of 20 requests. Sorted by latency the kinds
/// fall into bands so that the median lands inside the `Diffusion` band
/// and p90 inside the `Matmul48` band, away from band edges.
const MIX: [(Kind, usize); 5] = [
    (Kind::DiffusionCpp, 3),
    (Kind::DiffusionGpu, 3),
    (Kind::Diffusion, 9),
    (Kind::Matmul48, 4),
    (Kind::DiffusionMpi2, 1),
];

/// Diffusion centre coefficients the stream draws from (the neighbour
/// weight keeps centre + 6 * neighbour = 1). Values change the result,
/// not the specialization key or the cost.
const CENTRES: [f32; 4] = [0.4, 0.34, 0.28, 0.46];

pub struct Kernel {
    stencil: WootinJ<'static>,
    matmul: WootinJ<'static>,
    matmul_app: Value,
    matmul_ref: f32,
    /// Serial-loop reference runs of the threaded request, by centre.
    serial_refs: HashMap<usize, (RunReport, f64)>,
}

/// Tables are leaked so the environments (which borrow them) can live in
/// the workload state; each set-up leaks one pair of tables.
fn leak(t: ClassTable) -> &'static ClassTable {
    Box::leak(Box::new(t))
}

fn model(centre: usize) -> StencilModel {
    let center = CENTRES[centre];
    StencilModel::Diffusion {
        center,
        neighbor: (1.0 - center) / 6.0,
    }
}

fn grid_args(kind: Kind) -> [Value; 4] {
    let (d, s) = kind.grid();
    [Value::Int(d), Value::Int(d), Value::Int(d), Value::Int(s)]
}

fn configure(kind: Kind, code: &mut JitCode) {
    match kind {
        Kind::DiffusionGpu => code.set_gpu(GpuConfig::default()),
        Kind::DiffusionMpi2 => code.set_mpi(2, MpiCostModel::default()),
        _ => {}
    }
}

fn instrs(r: &RunReport) -> u64 {
    r.worlds
        .ranks
        .iter()
        .map(|x| x.machine.counters.instrs)
        .sum()
}

/// Same outcome, bit for bit, as `reference`: results, virtual time,
/// total cycles and every rank's clocks.
pub fn same_run(a: &RunReport, b: &RunReport) -> Result<(), String> {
    let clocks = |r: &RunReport| -> Vec<(u64, u64, u64)> {
        r.per_rank
            .iter()
            .map(|p| (p.vclock, p.compute_cycles, p.comm_cycles))
            .collect()
    };
    if format!("{:?}", a.results) != format!("{:?}", b.results)
        || a.vtime_cycles != b.vtime_cycles
        || a.total_cycles != b.total_cycles
        || clocks(a) != clocks(b)
    {
        return Err(format!(
            "diverged from the serial loop: results {:?} vs {:?}, vtime {} vs {}, clocks {:?} vs {:?}",
            a.results,
            b.results,
            a.vtime_cycles,
            b.vtime_cycles,
            clocks(a),
            clocks(b)
        ));
    }
    Ok(())
}

impl Kernel {
    fn compose(&mut self, kind: Kind, centre: usize) -> Result<Value, String> {
        if kind == Kind::Matmul48 {
            return Ok(self.matmul_app.clone());
        }
        StencilApp::compose(&mut self.stencil, kind.platform(), model(centre))
            .map_err(|e| format!("compose: {e}"))
    }

    fn env(&self, kind: Kind) -> &WootinJ<'static> {
        if kind == Kind::Matmul48 {
            &self.matmul
        } else {
            &self.stencil
        }
    }

    fn jit(&self, kind: Kind, app: &Value) -> Result<JitCode, String> {
        let env = self.env(kind);
        let (method, args): (&str, Vec<Value>) = match kind {
            Kind::Matmul48 => ("start", vec![Value::Int(48)]),
            _ => ("invoke", grid_args(kind).to_vec()),
        };
        let opts = kind.options();
        if trace::enabled() {
            trace::span("translator.key", || {
                env.cache_key(app, method, &args, opts.config, 0)
            })
            .map_err(|e| format!("cache_key: {e}"))?;
        }
        let mut code = trace::span("wootinj.mem_hit", || env.jit(app, method, &args, opts))
            .map_err(|e| format!("jit: {e}"))?;
        configure(kind, &mut code);
        Ok(code)
    }

    fn reference(&self, kind: Kind, centre: usize) -> f32 {
        if kind == Kind::Matmul48 {
            return self.matmul_ref;
        }
        let (d, s) = kind.grid();
        let StencilModel::Diffusion { center, neighbor } = model(centre) else {
            unreachable!("the stream composes diffusion only")
        };
        let d = d as usize;
        hpclib::reference_diffusion(d, d, d, s as usize, center, neighbor)
    }
}

/// Arguments for a raw `exec::run_to_completion` of an entry whose
/// bindings are all whole integer arguments; `None` otherwise.
fn raw_args(bindings: &[Binding], args: &[i32]) -> Option<Vec<exec::Val>> {
    bindings
        .iter()
        .map(|b| match b {
            Binding::ArgWhole(i) => args.get(*i).map(|v| exec::Val::I32(*v)),
            Binding::ArgLeaf { arg, path } if path.is_empty() => {
                args.get(*arg).map(|v| exec::Val::I32(*v))
            }
            _ => None,
        })
        .collect()
}

impl Workload for Kernel {
    fn setup(_ctx: &Ctx, _dir: &Path) -> Result<Self, String> {
        let sten = trace::span("jlang.compile", || hpclib::stencil_table(&[]))
            .map_err(|e| format!("stencil table: {e:?}"))?;
        let mat = trace::span("jlang.compile", || {
            hpclib::matmul_table(&[("c_matmul.jl", bench::cprogs::C_MATMUL)])
        })
        .map_err(|e| format!("matmul table: {e:?}"))?;
        let env = |t| WootinJ::new(leak(t)).map_err(|e| format!("env: {e}"));
        let mut k = Kernel {
            stencil: env(sten)?,
            matmul: env(mat)?,
            matmul_app: Value::Null,
            matmul_ref: hpclib::reference_matmul(48),
            serial_refs: HashMap::new(),
        };
        k.matmul_app = k
            .matmul
            .new_instance("CMatmul", &[])
            .map_err(|e| format!("CMatmul: {e}"))?;
        // Pre-jit every kind, so each request's jit is a memory hit, and
        // run each once to warm the engine and the device model.
        for (kind, _) in MIX {
            let app = k.compose(kind, 0)?;
            let code = k.jit(kind, &app)?;
            let r = code
                .invoke(k.env(kind))
                .map_err(|e| format!("warm-up {}: {e}", kind.name()))?;
            check_f32(r.result, k.reference(kind, 0))?;
        }
        Ok(k)
    }

    fn measure(&mut self, ctx: &Ctx, secs: f64) -> Measured {
        let mut m = Measured::default();
        let mut rng = Rng::new(ctx.seed);
        let mut deck = Deck::new(rng.fork(1), &MIX);
        let mut ns_per_instr: HashMap<Kind, Vec<f64>> = HashMap::new();
        let mut threads_over_sim = Vec::new();
        let (mut prefix_instrs, mut prefix_vcycles) = (0u64, 0u64);
        let stencil_before = self.stencil.cache_stats();
        let matmul_before = self.matmul.cache_stats();
        let mut busy = 0.0;
        let end = Instant::now() + std::time::Duration::from_secs_f64(secs);
        let mut id = 0u64;
        while Instant::now() < end {
            let kind = deck.deal();
            let centre = rng.below(CENTRES.len());
            id += 1;
            m.attempted += 1;
            m.count(kind.name());
            let t0 = Instant::now();
            let out = trace::root(REQUEST, id, || -> Result<(f64, f64, RunReport), String> {
                let app = self.compose(kind, centre)?;
                let t = Instant::now();
                let code = self.jit(kind, &app)?;
                let jit_ms = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let report = trace::span(kind.backend(), || code.invoke(self.env(kind)))
                    .map_err(|e| format!("invoke: {e}"))?;
                Ok((jit_ms, t.elapsed().as_secs_f64() * 1e3, report))
            });
            let lat = t0.elapsed().as_secs_f64() * 1e3;
            let (jit_ms, run_ms, report) = match out {
                Ok(x) => x,
                Err(e) => {
                    m.fail(format!("{} request {id}: {e}", kind.name()));
                    continue;
                }
            };
            // Checks run outside the timed request.
            if let Err(e) = check_f32(report.result, self.reference(kind, centre)) {
                m.fail(format!("{} request {id}: {e}", kind.name()));
                continue;
            }
            if kind == Kind::DiffusionMpi2 {
                match self.serial_check(kind, centre, &report) {
                    Ok(sim_ms) => threads_over_sim.push(run_ms / sim_ms),
                    Err(e) => {
                        m.diverged += 1;
                        m.fail(format!("request {id}: {e}"));
                        continue;
                    }
                }
            }
            busy += lat;
            m.sample(id, kind.name(), lat, jit_ms, run_ms);
            let n = instrs(&report);
            ns_per_instr
                .entry(kind)
                .or_default()
                .push(run_ms * 1e6 / n.max(1) as f64);
            if (id as usize) <= COUNT_PREFIX {
                prefix_instrs += n;
                prefix_vcycles += report.vtime_cycles;
            }
        }
        m.req_per_s = m.lat_ms.len() as f64 / (busy / 1e3).max(1e-9);
        for (kind, v) in &ns_per_instr {
            let name = match kind {
                Kind::Diffusion => "exec.ns_per_instr.diffusion",
                Kind::Matmul48 => "exec.ns_per_instr.matmul48",
                Kind::DiffusionCpp => "exec.ns_per_instr.diffusion_cpp",
                Kind::DiffusionGpu => "exec.ns_per_instr.diffusion_gpu",
                Kind::DiffusionMpi2 => "exec.ns_per_instr.diffusion_mpi2",
            };
            m.set(name, median(v));
        }
        m.set("exec.instrs", prefix_instrs as f64);
        m.set("exec.vcycles", prefix_vcycles as f64);
        m.set("exec.pool.threads_over_sim.long", median(&threads_over_sim));
        let s = self.stencil.cache_stats();
        let t = self.matmul.cache_stats();
        let hits = (s.hits - stencil_before.hits) + (t.hits - matmul_before.hits);
        let misses = (s.misses - stencil_before.misses) + (t.misses - matmul_before.misses);
        m.set(
            "wootinj.mem_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        for (kind, _) in MIX {
            let (d, sweeps) = kind.grid();
            m.notes.push(match kind {
                Kind::Matmul48 => "matmul48: n=48".to_string(),
                _ => format!("{}: grid {d}^3, {sweeps} sweeps", kind.name()),
            });
        }
        m
    }

    fn probe(&mut self, _ctx: &Ctx, m: &mut Measured) {
        // Invoke overhead over the raw engine on the MPI-free matmul: the
        // same program and arguments through `exec::run_to_completion`.
        let code = match self.jit(Kind::Matmul48, &self.matmul_app.clone()) {
            Ok(code) => code,
            Err(e) => {
                m.fail(format!("invoke overhead probe: jit: {e}"));
                return;
            }
        };
        let program = &code.translated.program;
        let Some(args) = raw_args(&code.translated.bindings, &[48]) else {
            m.fail("invoke overhead probe: entry bindings are not plain integers".into());
            return;
        };
        let (mut raw, mut full) = (Vec::new(), Vec::new());
        for i in 0..9 {
            trace::root(PROBE, 0, || {
                let t = Instant::now();
                let mut machine = exec::Machine::with_globals(program);
                let r = trace::span("exec.raw", || {
                    exec::run_to_completion(
                        program,
                        code.translated.entry,
                        args.clone(),
                        &mut machine,
                    )
                });
                let raw_ms = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let inv = trace::span("exec.invoke", || code.invoke(&self.matmul));
                let full_ms = t.elapsed().as_secs_f64() * 1e3;
                match (r, inv) {
                    (Ok(Some(exec::Val::F32(v))), Ok(rep))
                        if rep.result == Some(exec::Val::F32(v)) =>
                    {
                        if i > 0 {
                            raw.push(raw_ms);
                            full.push(full_ms);
                        }
                    }
                    (r, inv) => m.fail(format!(
                        "raw engine probe disagrees: raw {r:?}, invoke {:?}",
                        inv.map(|x| x.result)
                    )),
                }
            });
        }
        m.set(
            "wootinj.invoke_overhead_frac",
            median(&full) / median(&raw) - 1.0,
        );
    }
}

impl Kernel {
    /// Check the threaded run against the same request on the serial
    /// loop; returns the serial run's wall time (ms). Untraced runs reuse
    /// the reference per centre; traced runs re-time it every request.
    fn serial_check(&mut self, kind: Kind, centre: usize, got: &RunReport) -> Result<f64, String> {
        if trace::enabled() || !self.serial_refs.contains_key(&centre) {
            let app = self.compose(kind, centre)?;
            let mut code = self.jit(kind, &app)?;
            code.set_executor(ExecutorCfg::Sim);
            let t = Instant::now();
            let r = trace::root(PROBE, 0, || {
                trace::span("mpi-sim.invoke", || code.invoke(&self.stencil))
            })
            .map_err(|e| format!("serial reference: {e}"))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.serial_refs.insert(centre, (r, ms));
        }
        let (reference, ms) = &self.serial_refs[&centre];
        same_run(got, reference)?;
        Ok(*ms)
    }
}
