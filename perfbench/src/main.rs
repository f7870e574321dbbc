//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernel|ranks|jitd> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: a seeded request stream sent through
//! the public API (`build_table`, `Workspace`, `WootinJ::jit`/`jit_on`,
//! `JitCode::invoke`, the `platform` backends, and a `jitd` daemon reached
//! through `jitd::client::Client`). Every request's output is checked
//! against an independent reference. Set-up is repeated
//! [`SETUP_REPEATS`] times and its median reported, so work moved into
//! set-up shows.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics ([`END_TO_END`]); with `--trace 1` every second
//! request records spans and the JSON carries the per-layer metrics
//! ([`PER_LAYER`]), derived from counters the program returns and from
//! spans recorded around each layer call (see [`trace`]). Layers a
//! workload does not touch read 0. The spans are written to
//! `.bench_out/trace-<workload>-<seed>.jsonl`.
//!
//! Exit status is nonzero when any output is wrong, any multi-rank run
//! diverges from the serial loop, or the open-loop generator ran late.

mod jitd;
mod kernel;
mod openloop;
mod progs;
mod ranks;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::Summary;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists
/// them. A workload that does not reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wootinj.jit_p50_ms", "ms"),
    ("wootinj.invoke_p50_ms", "ms"),
    ("jlang.compile_ms", "ms"),
    ("querydb.edit_ms", "ms"),
    ("querydb.executed", "count"),
    ("querydb.reused", "count"),
    ("querydb.early_cutoffs", "count"),
    ("querydb.reuse_ratio", "ratio"),
    ("translator.key_us", "us"),
    ("translator.translate_ms", "ms"),
    ("translator.funcs_out", "count"),
    ("nir.opt_ms", "ms"),
    ("nir.opt_share", "ratio"),
    ("nir.instrs_removed", "count"),
    ("nir.encode_us", "us"),
    ("nir.decode_us", "us"),
    ("nir.artifact_bytes", "bytes"),
    ("wootinj.mem_hit_us", "us"),
    ("wootinj.disk_hit_ms", "ms"),
    ("wootinj.mem_hit_ratio", "ratio"),
    ("wootinj.disk_hit_ratio", "ratio"),
    ("wootinj.invoke_overhead_frac", "ratio"),
    ("exec.ns_per_instr.diffusion", "ns"),
    ("exec.ns_per_instr.matmul48", "ns"),
    ("exec.ns_per_instr.diffusion_cpp", "ns"),
    ("exec.ns_per_instr.diffusion_gpu", "ns"),
    ("exec.ns_per_instr.diffusion_mpi2", "ns"),
    ("exec.ns_per_instr.ring", "ns"),
    ("exec.instrs", "count"),
    ("exec.vcycles", "count"),
    ("exec.ckpt_count", "count"),
    ("exec.ckpt_bytes", "bytes"),
    ("exec.restarts", "count"),
    ("exec.pool.threads_over_sim.short", "ratio"),
    ("exec.pool.threads_over_sim.long", "ratio"),
    ("mpi-sim.us_per_collective", "us"),
    ("gpu-sim.run_ms", "ms"),
    ("dist.run_ms", "ms"),
    ("dist.over_mpi-sim_ms", "ms"),
    ("jitd.compile_ms", "ms"),
    ("jitd.run_ms", "ms"),
    ("jitd.wait_ms", "ms"),
    ("jitd.warm_ratio", "ratio"),
    ("jitd.translations", "count"),
    ("jitd.shed_frac", "ratio"),
    ("gen.lag_ms", "ms"),
    ("e2e.req_p99_ms", "ms"),
    ("e2e.max_rps_at_slo", "1/s"),
    ("e2e.code_nir_instrs", "count"),
    ("e2e.fail_frac", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_request", "count"),
];

/// Per-layer metrics read off span durations: `(metric, span, scale)`,
/// the metric being the median span duration in ms times `scale`.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("jlang.compile_ms", "jlang.compile", 1.0),
    ("querydb.edit_ms", "querydb.edit", 1.0),
    ("translator.key_us", "translator.key", 1e3),
    ("translator.translate_ms", "translator.translate", 1.0),
    ("nir.encode_us", "nir.encode", 1e3),
    ("nir.decode_us", "nir.decode", 1e3),
    ("wootinj.mem_hit_us", "wootinj.mem_hit", 1e3),
    ("wootinj.disk_hit_ms", "wootinj.disk_hit", 1.0),
    ("gpu-sim.run_ms", "gpu-sim.invoke", 1.0),
    ("dist.run_ms", "dist.invoke", 1.0),
];

/// Requests whose counts (`exec.instrs`, `exec.vcycles`, checkpoint and
/// code-size counts) are summed: a fixed prefix of the seeded stream, so
/// the sums repeat exactly between runs of one seed.
pub const COUNT_PREFIX: usize = 32;

/// Where the current run keeps its scratch files: a fresh directory
/// under the checkout, removed when the run ends.
pub struct Ctx {
    pub seed: u64,
    pub tmp: PathBuf,
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    /// Requests failed, shed, or answered wrongly (divergent runs included).
    pub failed: u64,
    /// Multi-rank runs whose virtual clocks diverged from the serial loop.
    pub diverged: u64,
    /// Whole-request latency, ms (from the due time for open loops).
    pub lat_ms: Vec<f64>,
    /// Request kind of each `lat_ms` sample, and whether it recorded spans.
    pub tags: Vec<(String, bool)>,
    /// Completed requests per second.
    pub req_per_s: f64,
    pub jit_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    /// Per-layer values set directly by the workload.
    pub layer: BTreeMap<&'static str, f64>,
    /// Realised mix: request kind -> count.
    pub mix: BTreeMap<String, u64>,
    /// Extra lines printed before the result (sizes, bounds, limits).
    pub notes: Vec<String>,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// The run broke one of its own validity rules (e.g. a late
    /// open-loop generator).
    pub invalid: Option<String>,
}

impl Measured {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// One completed, checked request: its latency, jit and run times.
    pub fn sample(&mut self, req: u64, kind: &str, lat_ms: f64, jit_ms: f64, run_ms: f64) {
        self.lat_ms.push(lat_ms);
        self.tags.push((kind.to_string(), trace::records(req)));
        self.jit_ms.push(jit_ms);
        self.run_ms.push(run_ms);
    }

    pub fn count(&mut self, kind: impl Into<String>) {
        *self.mix.entry(kind.into()).or_default() += 1;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layer.insert(name, if v.is_finite() { v } else { 0.0 });
    }
}

/// One workload: built by `setup` (repeatable), driven by `measure`.
pub trait Workload: Sized {
    fn setup(ctx: &Ctx, dir: &Path) -> Result<Self, String>;
    /// Drive the request stream for `secs` seconds.
    fn measure(&mut self, ctx: &Ctx, secs: f64) -> Measured;
    /// Side measurements for the traced run, taken outside any request.
    fn probe(&mut self, _ctx: &Ctx, _m: &mut Measured) {}
    fn teardown(self) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This thread's `(on-CPU ns, run-queue wait ns)` from `/proc/thread-self/schedstat`.
fn schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Removes the run's scratch directory however the run ends.
struct TmpGuard(PathBuf);

impl Drop for TmpGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Set up `SETUP_REPEATS` times (each in a fresh directory, all but the
/// last torn down) and return the last state with the median set-up time.
fn set_up<W: Workload>(ctx: &Ctx) -> Result<(W, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let dir = ctx.tmp.join(format!("setup{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        let t0 = Instant::now();
        let w = W::setup(ctx, &dir)?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = last.replace(w) {
            W::teardown(prev);
        }
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

fn print_summary(m: &Measured, label: &str) {
    let total: u64 = m.mix.values().sum::<u64>().max(1);
    let mix: Vec<String> = m
        .mix
        .iter()
        .map(|(k, c)| format!("{k}={:.3}", *c as f64 / total as f64))
        .collect();
    println!("[{label}] mix over {total} requests: {}", mix.join(" "));
    println!(
        "[{label}] {}",
        Summary::of(&m.lat_ms).line("request latency", "ms")
    );
    if let Some([q1, _, q3]) = stats::quartiles(&m.lat_ms) {
        println!("[{label}] request latency quartiles: q1={q1:.4}ms q3={q3:.4}ms");
    }
    println!("[{label}] {}", Summary::of(&m.jit_ms).line("jit", "ms"));
    println!("[{label}] {}", Summary::of(&m.run_ms).line("run", "ms"));
    println!(
        "[{label}] attempted={} failed={} diverged={} fail_frac={:.5}",
        m.attempted,
        m.failed,
        m.diverged,
        m.failed as f64 / m.attempted.max(1) as f64
    );
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (l, (kind, _)) in m.lat_ms.iter().zip(&m.tags) {
        by_kind.entry(kind).or_default().push(*l);
    }
    for (kind, lat) in by_kind {
        let line = Summary::of(&lat).line(&format!("{kind} latency"), "ms");
        // Drift within the run: median of the first third against the last.
        let third = lat.len() / 3;
        let (first, last) = (&lat[..third], &lat[lat.len() - third..]);
        let (a, b) = (stats::median(first), stats::median(last));
        println!("[{label}] {line}; first/last third p50 {a:.4}/{b:.4}ms");
    }
    for n in &m.notes {
        println!("[{label}] {n}");
    }
    for e in &m.errors {
        println!("[{label}] FAILURE: {e}");
    }
}

fn run<W: Workload>(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    let (mut w, setup_s) = set_up::<W>(ctx)?;
    println!("setup_s: median of {SETUP_REPEATS} set-ups = {setup_s:.4}s");
    if !args.trace {
        let (cpu0, wait0) = schedstat();
        let t0 = Instant::now();
        let m = w.measure(ctx, args.seconds);
        let (cpu1, wait1) = schedstat();
        println!(
            "measured {:.3}s: main thread on CPU {:.3}s, waiting for a CPU {:.3}s",
            t0.elapsed().as_secs_f64(),
            (cpu1 - cpu0) as f64 / 1e9,
            (wait1 - wait0) as f64 / 1e9
        );
        W::teardown(w);
        print_summary(&m, "untraced");
        let ok = m.failed == 0 && m.diverged == 0 && m.invalid.is_none();
        if let Some(why) = &m.invalid {
            println!("INVALID RUN: {why}");
        }
        let s = |xs: &[f64], p: f64| stats::percentile(&stats::sorted(xs), p);
        let metrics = [
            ("setup_s", "s", setup_s),
            ("req_p50_ms", "ms", stats::median(&m.lat_ms)),
            ("req_p90_ms", "ms", s(&m.lat_ms, 90.0)),
            ("req_per_s", "1/s", m.req_per_s),
            ("peak_rss_mb", "MB", peak_rss_mb()),
        ];
        debug_assert!(metrics
            .iter()
            .map(|m| m.0)
            .eq(END_TO_END.iter().map(|m| m.0)));
        println!("{}", result_line(ok, m.attempted, m.failed, &metrics));
        return Ok(ok);
    }

    // Traced run: every second request records spans (see `trace`).
    // Set-up is traced too, in one extra set-up: it is where tables compile.
    trace::enable(true);
    let mut m = w.measure(ctx, args.seconds);
    w.probe(ctx, &mut m);
    W::teardown(w);
    let dir = ctx.tmp.join("traced-setup");
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
    let extra = trace::root(trace::SETUP, 0, || W::setup(ctx, &dir))?;
    trace::enable(false);
    W::teardown(extra);

    let spans = trace::take();
    for &(metric, name, scale) in SPAN_METRICS {
        // Table compiles happen in set-up; every other layer is read off
        // requests and side measurements only.
        let roots: &[&str] = match name {
            "jlang.compile" => &[trace::SETUP, trace::PROBE],
            _ => &[trace::REQUEST, trace::PROBE],
        };
        let d = trace::durations_ms(&spans, name, roots);
        if !d.is_empty() {
            m.set(metric, stats::median(&d) * scale);
        }
    }
    print_summary(&m, "traced run");
    let b = trace::breakdown(&spans);
    let reqs = b.request_ms.len().max(1) as f64;
    println!("[traced run] self time per request by span (ms):");
    for (name, ms) in &b.self_ms {
        println!("    {name:<28} {:.4}", ms / reqs);
    }
    let unattr = stats::median(&b.unattributed_ms);
    let frac: Vec<f64> = b
        .unattributed_ms
        .iter()
        .zip(&b.request_ms)
        .map(|(u, r)| if *r > 0.0 { u / r } else { 0.0 })
        .collect();
    println!(
        "[traced run] unattributed per request: {}",
        Summary::of(&b.unattributed_ms).line("unattributed", "ms")
    );
    let overhead = trace::overhead(&m.lat_ms, &m.tags);
    println!(
        "[traced run] tracing overhead (traced over untraced requests, per-kind medians): {overhead:.4}"
    );
    m.set("wootinj.jit_p50_ms", stats::median(&m.jit_ms));
    m.set("wootinj.invoke_p50_ms", stats::median(&m.run_ms));
    m.set("trace.unattributed_ms", unattr);
    m.set("trace.unattributed_frac", stats::median(&frac));
    m.set("trace.overhead_frac", overhead);
    let in_requests = spans
        .iter()
        .filter(|s| s.req != 0 && s.name != trace::PROBE)
        .count();
    m.set("trace.spans_per_request", in_requests as f64 / reqs);
    let fail_frac = m.failed as f64 / m.attempted.max(1) as f64;
    m.set("e2e.fail_frac", fail_frac);

    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let out = format!(".bench_out/trace-{}-{}.jsonl", args.workload, args.seed);
    std::fs::write(&out, trace::to_json_lines(&spans)).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {} spans to {out}", spans.len());

    let ok = m.failed == 0 && m.diverged == 0 && m.invalid.is_none();
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, m.layer.get(n).copied().unwrap_or(0.0)))
        .collect();
    println!("{}", result_line(ok, m.attempted, m.failed, &metrics));
    Ok(ok)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // `WJ_EXECUTOR` silently moves every serial-loop run onto threads.
    if std::env::var_os("WJ_EXECUTOR").is_some() {
        eprintln!("perfbench: refusing to run with WJ_EXECUTOR set (it overrides the executor of every request)");
        std::process::exit(2);
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let tmp = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{nanos}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {tmp:?}: {e}");
        std::process::exit(2);
    }
    let guard = TmpGuard(tmp.clone());
    let ctx = Ctx {
        seed: args.seed,
        tmp,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let res = match args.workload.as_str() {
        "kernel" => run::<kernel::Kernel>(&args, &ctx),
        "ranks" => run::<ranks::Ranks>(&args, &ctx),
        "jitd" => run::<jitd::Jitd>(&args, &ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    drop(guard);
    // Removes the scratch root too, unless another run still uses it.
    let _ = std::fs::remove_dir(".bench_tmp");
    match res {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return; // the package on its own, without the repository
        };
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let body = &text[start..];
            let end = body.find(']').expect("section end");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name end")].to_string())
                .collect()
        };
        let names = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let l = result_line(
            true,
            3,
            0,
            &[("a_ms", "ms", 1.25), ("b", "count", f64::NAN)],
        );
        assert_eq!(
            l,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
