//! `jitd`: an open loop against a `jitd::Daemon` through at most two
//! connections (one per tenant). Mostly warm repeats of small and medium
//! single-file programs, plus same-key pairs due at the same instant
//! (single-flight followers) and a few new keys (cold translations). A
//! fixed-rate phase gives the latency figures; a rate sweep gives the
//! highest offered rate that meets the latency limit; a saturation phase,
//! every request released at once, gives the daemon's throughput.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jitd::client::{jit_request, Client};
use jitd::proto::{Arg, Reply, ServiceStats};
use jitd::{Daemon, DaemonConfig};
use jlang::ClassTable;
use jvm::Value;
use wootinj::{JitOptions, WootinJ, Workspace};

use crate::openloop::{backlog_grows, slots_ns, Stamp};
use crate::progs::{
    check_i32, svc_large, svc_large_reference, svc_medium, svc_medium_reference, svc_small,
    svc_small_reference,
};
use crate::stats::{median, percentile, sorted, Deck, Rng};
use crate::trace::{self, PROBE, REQUEST};
use crate::{Ctx, Measured, Workload};

/// Daemon worker slots and client connections: the host has 2 cores.
const WORKERS: usize = 2;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Offered rate of the fixed-rate phase, requests per second.
const RATE: f64 = 150.0;
/// Share of `--seconds` spent at the fixed rate; the sweep takes the rest.
const FIXED_SHARE: f64 = 0.45;
/// Fewest slots in the fixed-rate phase (a pair fills one slot with two
/// requests): enough for an honest p99.
const MIN_FIXED_SLOTS: usize = 1000;
/// Latency limit on p99, measured from each request's due time.
pub const SLO_P99_MS: f64 = 25.0;
/// Sweep: rates `SWEEP_BASE * 1.05^k` for `k` in `0..=SWEEP_STEPS`
/// (steps 5% apart), bisected; each probe sends `PROBE_REQUESTS`.
const SWEEP_BASE: f64 = 150.0;
const SWEEP_STEPS: usize = 40;
const PROBE_REQUESTS: usize = 1000;
/// Requests of the saturation phase, all released at once.
const SATURATION_REQUESTS: usize = 3000;
/// A run is invalid when the generator releases requests later than this
/// (p99 over the fixed-rate phase).
pub const GEN_LAG_BOUND_MS: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prog {
    Small { m: i32, a: i32 },
    Medium { m: i32 },
    Large { m: i32 },
}

impl Prog {
    fn source(self) -> String {
        match self {
            Prog::Small { m, a } => svc_small(m, a),
            Prog::Medium { m } => svc_medium(m),
            Prog::Large { m } => svc_large(m),
        }
    }

    fn reference(self, x: i32) -> i32 {
        match self {
            Prog::Small { m, a } => svc_small_reference(m, a, x),
            Prog::Medium { m } => svc_medium_reference(m, x),
            Prog::Large { m } => svc_large_reference(m, x),
        }
    }
}

/// The warm programs every tenant's store holds after set-up.
fn warm_small() -> Vec<Prog> {
    (2..8).map(|m| Prog::Small { m, a: 3 * m + 1 }).collect()
}

fn warm_medium() -> Vec<Prog> {
    (0..4).map(|m| Prog::Medium { m: 11 + m }).collect()
}

fn warm_programs() -> Vec<Prog> {
    [warm_small(), warm_medium()].concat()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    WarmSmall,
    WarmMedium,
    Cold,
    Pair,
}

/// Slots per deck of 20 (a pair fills one slot with two requests): 22
/// requests, 77% of them warm. Sorted by latency the small warm requests
/// fill the first 32%, the medium ones the next 45% (the median lands
/// inside), new keys the last 23% (p90 inside).
const MIX: [(Kind, usize); 4] = [
    (Kind::WarmSmall, 7),
    (Kind::WarmMedium, 10),
    (Kind::Cold, 1),
    (Kind::Pair, 2),
];

#[derive(Debug, Clone, Copy)]
struct Job {
    /// Request id (spans; odd ids run untraced in the traced run).
    id: u64,
    prog: Prog,
    x: i32,
    kind: Kind,
}

struct Record {
    job: Job,
    stamp: Stamp,
    reply: Result<Reply, String>,
}

pub struct Jitd {
    port: u16,
    serve: Option<JoinHandle<ServiceStats>>,
    clients: Vec<Client>,
    cold_keys: i32,
    next_id: u64,
}

fn request(prog: Prog, x: i32) -> jitd::proto::JitRequest {
    jit_request("svc.jl", &prog.source(), "Svc", "run", vec![Arg::I32(x)])
}

impl Jitd {
    /// The request plan of `slots` slots at `rate`: `(due offset, job)`.
    fn plan(
        &mut self,
        rng: &mut Rng,
        deck: &mut Deck<Kind>,
        rate: f64,
        slots: usize,
    ) -> Vec<(u64, Job)> {
        let (small, medium) = (warm_small(), warm_medium());
        let mut plan = Vec::new();
        for due in slots_ns(rate, slots) {
            let kind = deck.deal();
            let x = rng.below(1000) as i32;
            let prog = match kind {
                Kind::WarmSmall => *rng.pick(&small),
                Kind::WarmMedium => *rng.pick(&medium),
                Kind::Cold | Kind::Pair => {
                    self.cold_keys += 1;
                    Prog::Large {
                        m: 1000 + self.cold_keys,
                    }
                }
            };
            for k in 0..1 + i32::from(kind == Kind::Pair) {
                self.next_id += 1;
                let id = self.next_id;
                plan.push((
                    due,
                    Job {
                        id,
                        prog,
                        x: x + k,
                        kind,
                    },
                ));
            }
        }
        plan
    }

    /// Send `plan` open-loop: a generator thread releases each job at its
    /// due time into a queue that the connection threads drain.
    fn open_loop(&mut self, plan: &[(u64, Job)]) -> Vec<Record> {
        // Released `(job, due, released)` entries, and whether the
        // generator has finished.
        type Queue = (VecDeque<(Job, u64, u64)>, bool);
        let queue: Mutex<Queue> = Mutex::new((VecDeque::new(), false));
        let ready = Condvar::new();
        let base = Instant::now() + Duration::from_millis(5);
        let at = |t: Instant| t.saturating_duration_since(base).as_nanos() as u64;
        let mut records: Vec<Record> = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for &(due, job) in plan {
                    let when = base + Duration::from_nanos(due);
                    let now = Instant::now();
                    if when > now {
                        std::thread::sleep(when - now);
                    }
                    let released = at(Instant::now());
                    queue
                        .lock()
                        .expect("queue")
                        .0
                        .push_back((job, due, released));
                    ready.notify_one();
                }
                queue.lock().expect("queue").1 = true;
                ready.notify_all();
            });
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let (queue, ready) = (&queue, &ready);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let next = {
                                let mut q = queue.lock().expect("queue");
                                loop {
                                    if let Some(item) = q.0.pop_front() {
                                        break Some(item);
                                    }
                                    if q.1 {
                                        break None;
                                    }
                                    q = ready.wait(q).expect("queue");
                                }
                            };
                            let Some((job, due_ns, released_ns)) = next else {
                                return out;
                            };
                            let sent_ns = at(Instant::now());
                            // The same id `tally` tags the record with.
                            let reply = trace::root(REQUEST, job.id, || {
                                trace::span("jitd.roundtrip", || {
                                    client.jit(request(job.prog, job.x))
                                })
                            })
                            .map_err(|e| format!("transport: {e}"));
                            out.push(Record {
                                job,
                                stamp: Stamp {
                                    due_ns,
                                    released_ns,
                                    sent_ns,
                                    done_ns: at(Instant::now()),
                                },
                                reply,
                            });
                        }
                    })
                })
                .collect();
            for w in workers {
                records.extend(w.join().expect("connection thread panicked"));
            }
        });
        records.sort_by_key(|r| r.stamp.due_ns);
        records
    }

    fn stats(&mut self) -> Result<ServiceStats, String> {
        self.clients[0].stats().map_err(|e| format!("stats: {e}"))
    }
}

/// What the traced run's probe of the daemon's layers collects.
#[derive(Default)]
struct ProbeTally {
    funcs: Vec<f64>,
    opt_ms: Vec<f64>,
    opt_share: Vec<f64>,
    removed: Vec<f64>,
    bytes: Vec<f64>,
    code_instrs: u64,
    q_exec: Vec<f64>,
    q_reused: Vec<f64>,
    q_cut: Vec<f64>,
    disk_hits: u64,
    disk_probes: u64,
}

/// `translator::translate` of one entry point, then an encode/decode
/// round trip of the artifact; returns the translation and its encoded
/// size in bytes.
fn translate_codec(
    table: &ClassTable,
    env: &WootinJ<'_>,
    recv: &Value,
    method: &str,
    args: &[Value],
    config: translator::TransConfig,
) -> Result<(translator::Translated, usize), String> {
    let t = trace::span("translator.translate", || {
        translator::translate(table, &env.jvm, recv, method, args, config)
    })
    .map_err(|e| format!("translate: {e}"))?;
    let bytes = trace::span("nir.encode", || t.encode());
    trace::span("nir.decode", || translator::Translated::decode(&bytes))
        .map_err(|e| format!("decode: {e:?}"))?;
    Ok((t, bytes.len()))
}

/// One program through the layers a daemon request runs (see
/// [`Jitd::probe`]): compile, key, translate + codec, a disk-tier write
/// and hit, then a source edit and incremental re-jit.
fn probe_program(prog: Prog, store: &Path, p: &mut ProbeTally) -> Result<(), String> {
    let mut ws = Workspace::new();
    trace::span("jlang.compile", || ws.set_source("svc.jl", &prog.source()))
        .map_err(|e| format!("compile: {e:?}"))?;
    let args = [Value::Int(5)];
    let opts = JitOptions::wootinj().with_disk_cache(store);
    {
        let mut env = ws.env().map_err(|e| format!("env: {e}"))?;
        let recv = env
            .new_instance("Svc", &[])
            .map_err(|e| format!("Svc: {e}"))?;
        trace::span("translator.key", || {
            env.cache_key(&recv, "run", &args, opts.config, 0)
        })
        .map_err(|e| format!("key: {e}"))?;
        let t0 = std::time::Instant::now();
        let (t, bytes) = translate_codec(env.table, &env, &recv, "run", &args, opts.config)?;
        let translate_ms = t0.elapsed().as_secs_f64() * 1e3;
        let opt: f64 = t
            .stats
            .passes
            .iter()
            .map(|x| x.wall.as_secs_f64() * 1e3)
            .sum();
        p.funcs.push(t.program.funcs.len() as f64);
        p.opt_ms.push(opt);
        p.opt_share.push(opt / translate_ms);
        p.removed.push(
            t.stats
                .passes
                .iter()
                .map(|x| x.instrs_before as f64 - x.instrs_after as f64)
                .sum(),
        );
        p.bytes.push(bytes as f64);
        p.code_instrs += t.program.instr_count() as u64;
        // Write the artifact to the disk tier, then hit it from a fresh env.
        env.jit(&recv, "run", &args, opts.clone())
            .map_err(|e| format!("jit: {e}"))?;
    }
    let mut env = ws.env().map_err(|e| format!("env: {e}"))?;
    let recv = env
        .new_instance("Svc", &[])
        .map_err(|e| format!("Svc: {e}"))?;
    trace::span("wootinj.disk_hit", || {
        env.jit(&recv, "run", &args, opts.clone())
    })
    .map_err(|e| format!("disk hit: {e}"))?;
    p.disk_hits += env.cache_stats().disk_hits;
    p.disk_probes += 1;
    drop(env);
    // A value edit and the incremental re-jit it triggers.
    let edited = match prog {
        Prog::Small { m, a } => Prog::Small { m, a: a + 1 },
        Prog::Medium { m } => Prog::Medium { m: m + 1 },
        Prog::Large { m } => Prog::Large { m: m + 1 },
    };
    let before = ws.query_stats();
    trace::span("querydb.edit", || ws.edit("svc.jl", &edited.source()))
        .map_err(|e| format!("edit: {e:?}"))?;
    let mut env = ws.env().map_err(|e| format!("env: {e}"))?;
    let recv = env
        .new_instance("Svc", &[])
        .map_err(|e| format!("Svc: {e}"))?;
    let code = trace::span("wootinj.jit_incr", || {
        env.jit(&recv, "run", &args, JitOptions::wootinj())
    })
    .map_err(|e| format!("re-jit: {e}"))?;
    let r = code.invoke(&env).map_err(|e| format!("invoke: {e}"))?;
    check_i32(r.result, edited.reference(5))?;
    let q = ws.query_stats().since(&before);
    p.q_exec.push(q.executed() as f64);
    p.q_reused.push(q.reused() as f64);
    p.q_cut.push(q.early_cutoffs as f64);
    Ok(())
}

/// Per-phase tallies of one open-loop batch.
#[derive(Default)]
struct Tally {
    lat: Vec<f64>,
    tags: Vec<(String, bool)>,
    compile: Vec<f64>,
    run: Vec<f64>,
    wait: Vec<f64>,
    lag: Vec<f64>,
    failed: u64,
    shed: u64,
    errors: Vec<String>,
}

fn tally(records: &[Record]) -> Tally {
    let mut t = Tally::default();
    for r in records {
        t.lag.push(r.stamp.gen_lag_ms());
        let err = match &r.reply {
            Ok(Reply::Done(o)) => match check_i32(o.result, r.job.prog.reference(r.job.x)) {
                Ok(()) => {
                    let (c, run) = (o.compile_us as f64 / 1e3, o.run_us as f64 / 1e3);
                    t.lat.push(r.stamp.latency_ms());
                    t.tags
                        .push((format!("{:?}", r.job.kind), trace::records(r.job.id)));
                    t.compile.push(c);
                    t.run.push(run);
                    t.wait.push((r.stamp.service_ms() - c - run).max(0.0));
                    None
                }
                Err(e) => Some(e),
            },
            Ok(Reply::Shed { reason, message }) => {
                t.shed += 1;
                Some(format!("shed ({reason}): {message}"))
            }
            Ok(other) => Some(format!("reply {other:?}")),
            Err(e) => Some(e.clone()),
        };
        if let Some(e) = err {
            t.failed += 1;
            if t.errors.len() < 8 {
                t.errors
                    .push(format!("{:?} x={}: {e}", r.job.prog, r.job.x));
            }
        }
    }
    t
}

/// Does one probe meet the limit: every request served correctly, p99
/// from due time within the limit, and no growing backlog?
fn meets_slo(records: &[Record]) -> (bool, f64) {
    let t = tally(records);
    let in_order: Vec<f64> = records.iter().map(|r| r.stamp.latency_ms()).collect();
    let p99 = percentile(&sorted(&in_order), 99.0);
    (
        t.failed == 0 && p99 <= SLO_P99_MS && !backlog_grows(&in_order, 1.0),
        p99,
    )
}

impl Workload for Jitd {
    fn setup(_ctx: &Ctx, dir: &Path) -> Result<Self, String> {
        // A fresh tenant root per run: never the shared default directory,
        // so no run warm-hits another run's artifacts.
        let root: PathBuf = dir.join("jitd-root");
        let daemon = Daemon::bind(
            DaemonConfig {
                workers: WORKERS,
                queue_cap: 16,
                root,
                ..DaemonConfig::default()
            },
            0,
        )
        .map_err(|e| format!("daemon bind: {e}"))?;
        let port = daemon.port();
        let serve = std::thread::spawn(move || daemon.serve());
        let mut w = Jitd {
            port,
            serve: Some(serve),
            clients: Vec::new(),
            cold_keys: 0,
            next_id: 0,
        };
        for t in TENANTS {
            w.clients
                .push(Client::connect(port, t).map_err(|e| format!("connect: {e}"))?);
        }
        // Pre-warm every tenant's store with the warm programs.
        for c in w.clients.iter_mut() {
            for prog in warm_programs() {
                match c.jit(request(prog, 5)) {
                    Ok(Reply::Done(o)) => check_i32(o.result, prog.reference(5))?,
                    other => return Err(format!("pre-warm {prog:?}: {other:?}")),
                }
            }
        }
        Ok(w)
    }

    fn measure(&mut self, ctx: &Ctx, secs: f64) -> Measured {
        let mut m = Measured::default();
        let mut rng = Rng::new(ctx.seed);
        let mut deck = Deck::new(rng.fork(4), &MIX);
        let before = match self.stats() {
            Ok(s) => s,
            Err(e) => {
                m.fail(e);
                return m;
            }
        };

        // Fixed-rate phase.
        let slots = ((RATE * secs * FIXED_SHARE) as usize).max(MIN_FIXED_SLOTS);
        let plan = self.plan(&mut rng, &mut deck, RATE, slots);
        let records = self.open_loop(&plan);
        let t = tally(&records);
        for r in &records {
            m.count(match r.job.kind {
                Kind::WarmSmall => "warm-small",
                Kind::WarmMedium => "warm-medium",
                Kind::Cold => "cold",
                Kind::Pair => "pair",
            });
        }
        m.attempted = records.len() as u64;
        m.errors.extend(t.errors.iter().cloned());
        m.failed = t.failed;
        m.lat_ms = t.lat.clone();
        m.tags = t.tags.clone();
        m.jit_ms = t.compile.clone();
        m.run_ms = t.run.clone();
        let lag = percentile(&sorted(&t.lag), 99.0);
        if lag > GEN_LAG_BOUND_MS {
            m.invalid = Some(format!(
                "open-loop generator ran {lag:.3} ms late at p99 (bound {GEN_LAG_BOUND_MS} ms)"
            ));
        }
        let after = match self.stats() {
            Ok(s) => s,
            Err(e) => {
                m.fail(e);
                return m;
            }
        };
        let completed = after.completed - before.completed;
        m.set("jitd.compile_ms", median(&t.compile));
        m.set("jitd.run_ms", median(&t.run));
        m.set("jitd.wait_ms", median(&t.wait));
        m.set(
            "jitd.warm_ratio",
            (after.warm_hits - before.warm_hits) as f64 / completed.max(1) as f64,
        );
        m.set(
            "jitd.translations",
            (after.translations - before.translations) as f64,
        );
        m.set("jitd.shed_frac", t.shed as f64 / m.attempted.max(1) as f64);
        m.set("gen.lag_ms", lag);
        m.set("e2e.req_p99_ms", percentile(&sorted(&t.lat), 99.0));
        m.notes.push(format!(
            "fixed rate {RATE}/s over {slots} slots; follower serves {}, translations {}; \
             generator lag p99 {lag:.3} ms (bound {GEN_LAG_BOUND_MS} ms)",
            after.follower_serves - before.follower_serves,
            after.translations - before.translations
        ));

        // Rate sweep: bisect the 5%-step grid for the highest rate whose
        // probe meets the limit.
        let rate = |k: usize| SWEEP_BASE * 1.05f64.powi(k as i32);
        let (mut lo, mut hi) = (None::<usize>, SWEEP_STEPS + 1);
        let mut probes = Vec::new();
        let mut low = 0usize;
        while low < hi {
            let mid = (low + hi) / 2;
            let slots = PROBE_REQUESTS * 20 / 22;
            let plan = self.plan(&mut rng, &mut deck, rate(mid), slots);
            let records = self.open_loop(&plan);
            let (ok, p99) = meets_slo(&records);
            let probe = tally(&records);
            for e in probe.errors.iter().filter(|e| !e.contains("shed")) {
                m.fail(format!("sweep: {e}"));
            }
            probes.push(format!(
                "{:.1}/s p99={p99:.2}ms {}",
                rate(mid),
                if ok { "ok" } else { "miss" }
            ));
            if ok {
                lo = Some(mid);
                low = mid + 1;
            } else {
                hi = mid;
            }
        }
        let best = lo.map_or(0.0, rate);
        m.set("e2e.max_rps_at_slo", best);
        m.notes.push(format!(
            "sweep (limit p99 <= {SLO_P99_MS} ms from due time, {PROBE_REQUESTS} requests per probe): {}",
            probes.join(", ")
        ));
        m.notes.push(format!("max_rps_at_slo = {best:.1}/s"));

        // Saturation: every request released at once and drained by the
        // connections back to back; `req_per_s` is the rate the daemon
        // served, first release to last reply.
        let plan = self.plan(
            &mut rng,
            &mut deck,
            f64::INFINITY,
            SATURATION_REQUESTS * 20 / 22,
        );
        let records = self.open_loop(&plan);
        let t = tally(&records);
        m.attempted += records.len() as u64;
        for e in &t.errors {
            m.fail(format!("saturation: {e}"));
        }
        let span_s = records.iter().map(|r| r.stamp.done_ns).max().unwrap_or(0) as f64 / 1e9;
        m.req_per_s = t.lat.len() as f64 / span_s.max(1e-9);
        m.notes.push(format!(
            "saturation: {} requests served at {:.1}/s (req_per_s)",
            records.len(),
            m.req_per_s
        ));
        m
    }

    fn probe(&mut self, ctx: &Ctx, m: &mut Measured) {
        // The layers each daemon request runs, measured from outside on the
        // workload's programs: the per-request compile and key derivation,
        // translation with its optimizer passes and codec, a disk-tier hit,
        // and an incremental re-jit after a source edit. Cold keys are the
        // large program shape, so the first few of those are included.
        let progs: Vec<Prog> = warm_programs()
            .into_iter()
            .chain((1..=8).map(|m| Prog::Large { m }))
            .collect();
        let store = ctx.tmp.join("jitd-probe-store");
        let mut p = ProbeTally::default();
        for prog in progs {
            let r = trace::root(PROBE, 0, || probe_program(prog, &store, &mut p));
            if let Err(e) = r {
                m.fail(format!("jitd probe {prog:?}: {e}"));
            }
        }
        m.set("translator.funcs_out", median(&p.funcs));
        m.set("nir.opt_ms", median(&p.opt_ms));
        m.set("nir.opt_share", median(&p.opt_share));
        m.set("nir.instrs_removed", median(&p.removed));
        m.set("nir.artifact_bytes", median(&p.bytes));
        m.set("e2e.code_nir_instrs", p.code_instrs as f64);
        m.set("querydb.executed", median(&p.q_exec));
        m.set("querydb.reused", median(&p.q_reused));
        m.set("querydb.early_cutoffs", median(&p.q_cut));
        let (e, r) = (p.q_exec.iter().sum::<f64>(), p.q_reused.iter().sum::<f64>());
        m.set("querydb.reuse_ratio", r / (e + r).max(1.0));
        m.set(
            "wootinj.disk_hit_ratio",
            p.disk_hits as f64 / p.disk_probes.max(1) as f64,
        );
    }

    fn teardown(mut self) {
        self.clients.clear();
        if let Ok(mut c) = Client::connect(self.port, "ops") {
            let _ = c.shutdown();
        }
        if let Some(h) = self.serve.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In the traced run a request records spans when its id is even, and
    /// the connection thread opens its root with the same id. Every kind
    /// must be split about evenly, so the tracing overhead compares traced
    /// and untraced requests of each kind.
    #[test]
    fn about_half_of_each_kind_is_traced() {
        let mut w = Jitd {
            port: 0,
            serve: None,
            clients: Vec::new(),
            cold_keys: 0,
            next_id: 0,
        };
        let mut rng = Rng::new(1);
        let mut deck = Deck::new(rng.fork(4), &MIX);
        let plan = w.plan(&mut rng, &mut deck, RATE, 20_000);
        for (kind, _) in MIX {
            let ids: Vec<u64> = plan
                .iter()
                .filter(|(_, j)| j.kind == kind)
                .map(|(_, j)| j.id)
                .collect();
            let traced = ids.iter().filter(|&&id| trace::traced_id(id)).count();
            let share = traced as f64 / ids.len() as f64;
            assert!((0.45..=0.55).contains(&share), "{kind:?}: {share}");
        }
        let traced = plan.iter().filter(|(_, j)| trace::traced_id(j.id)).count();
        assert!((traced as f64 / plan.len() as f64 - 0.5).abs() < 0.01);
    }
}
