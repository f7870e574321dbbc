//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (no instrumentation inside the program). Each span has a name,
//! start, end and parent; every span of one request carries the request's
//! id. Recording is off unless [`enable`]d; while it is off [`span`] is a
//! plain call. In the traced run every second request (odd id) runs with
//! recording paused, so traced and untraced requests share the host's
//! conditions and the program's state, and the ratio of their latencies
//! is the tracing overhead. Spans stay in memory until [`take`] drains
//! them for analysis and the trace file written at exit.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Root span name of one request; its self time is the request's
/// unattributed time.
pub const REQUEST: &str = "request";
/// Root span name of side measurements taken outside any request.
pub const PROBE: &str = "probe";
/// Root span name of a traced set-up.
pub const SETUP: &str = "setup";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQ: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Is this thread recording spans right now?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && !PAUSED.with(Cell::get)
}

/// Is `req` one of the traced run's recording requests (even id)?
pub fn traced_id(req: u64) -> bool {
    req.is_multiple_of(2)
}

/// Does request `req` record spans (traced run, even id)?
pub fn records(req: u64) -> bool {
    ENABLED.load(Ordering::Relaxed) && traced_id(req)
}

/// Run `f` inside a span named `name`, child of the current span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied());
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let req = REQ.with(Cell::get);
    SPANS.lock().expect("span buffer poisoned").push(Span {
        id,
        parent,
        req,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Run `f` as the root span `name` of request `req`: every span opened
/// inside it on this thread shares the request id. A [`REQUEST`] root
/// that does not [`records`] runs with recording paused.
pub fn root<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    let pause = name == REQUEST && !records(req);
    let prev = REQ.with(|r| r.replace(req));
    let was = PAUSED.with(|p| p.replace(p.get() || pause));
    let out = span(name, f);
    PAUSED.with(|p| p.set(was));
    REQ.with(|r| r.set(prev));
    out
}

/// Drain every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Total length of the union of `intervals`, each clipped to `clip`.
pub fn covered_ns(intervals: &[(u64, u64)], clip: (u64, u64)) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(clip.0), e.min(clip.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children may nest or overlap).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, s.dur_ns() - covered_ns(kids, (s.start_ns, s.end_ns)))
        })
        .collect()
}

/// What the traced run attributes, per layer and per request.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Total self time per span name, in ms (request and probe roots
    /// included).
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Unattributed time of each request: the request span's self time.
    pub unattributed_ms: Vec<f64>,
    /// Request span durations, in ms.
    pub request_ms: Vec<f64>,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut b = Breakdown::default();
    for s in spans {
        let ms = selfs[&s.id] as f64 / 1e6;
        *b.self_ms.entry(s.name).or_default() += ms;
        if s.name == REQUEST && s.parent.is_none() {
            b.unattributed_ms.push(ms);
            b.request_ms.push(s.dur_ns() as f64 / 1e6);
        }
    }
    b
}

/// Name of the root span above `s`.
fn root_name<'a>(by_id: &HashMap<u64, &'a Span>, mut s: &'a Span) -> &'static str {
    while let Some(p) = s.parent.and_then(|p| by_id.get(&p).copied()) {
        s = p;
    }
    s.name
}

/// Durations (ms) of every span called `name` under a root span called
/// one of `roots`.
pub fn durations_ms(spans: &[Span], name: &str, roots: &[&str]) -> Vec<f64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| s.name == name && roots.contains(&root_name(&by_id, s)))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Tracing overhead of a run whose requests alternate between traced and
/// untraced: per request kind, the median latency of each side, summed
/// with the kind's request count as weight on both sides; traced over
/// untraced, minus 1. Comparing within kinds keeps the overhead apart
/// from the difference in kind mix between the two sides.
pub fn overhead(lat_ms: &[f64], tags: &[(String, bool)]) -> f64 {
    let mut by_kind: BTreeMap<&str, [Vec<f64>; 2]> = BTreeMap::new();
    for (l, (kind, traced)) in lat_ms.iter().zip(tags) {
        by_kind.entry(kind).or_default()[usize::from(*traced)].push(*l);
    }
    let (mut on, mut off) = (0.0, 0.0);
    for [untraced, traced] in by_kind.values() {
        if untraced.is_empty() || traced.is_empty() {
            continue;
        }
        let w = (untraced.len() + traced.len()) as f64;
        on += w * crate::stats::median(traced);
        off += w * crate::stats::median(untraced);
    }
    if off > 0.0 {
        on / off - 1.0
    } else {
        0.0
    }
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req,
            s.name,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overhead_compares_within_request_kinds() {
        let tag = |k: &str, t: bool| (k.to_string(), t);
        // Fast kind "a" (1 ms, +10% when traced) and slow kind "b" (10 ms,
        // +10%); the traced side holds more slow requests, which a pooled
        // median would count as overhead.
        let lat = [1.0, 1.1, 10.0, 11.0, 11.0, 1.0];
        let tags = [
            tag("a", false),
            tag("a", true),
            tag("b", false),
            tag("b", true),
            tag("b", true),
            tag("a", false),
        ];
        assert!((overhead(&lat, &tags) - 0.1).abs() < 1e-9);
        assert_eq!(overhead(&[1.0], &[tag("a", true)]), 0.0);
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], (0, 100)), 25);
        assert_eq!(covered_ns(&[(0, 10), (10, 20)], (0, 100)), 20);
        assert_eq!(covered_ns(&[(0, 50)], (10, 20)), 10);
        assert_eq!(covered_ns(&[(30, 40)], (0, 20)), 0);
        assert_eq!(covered_ns(&[], (0, 20)), 0);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // request [0,100): key [10,20), jit [20,60) with a nested
        // translate [25,55), invoke [60,90).
        let spans = [
            sp(1, None, REQUEST, 0, 100),
            sp(2, Some(1), "key", 10, 20),
            sp(3, Some(1), "jit", 20, 60),
            sp(4, Some(3), "translate", 25, 55),
            sp(5, Some(1), "invoke", 60, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 20); // 100 - (10 + 40 + 30)
        assert_eq!(st[&3], 10); // 40 - 30: the grandchild is not the request's
        assert_eq!(st[&4], 30);
        let b = breakdown(&spans);
        assert_eq!(b.unattributed_ms, vec![20.0 / 1e6]);
        let total: f64 = b.self_ms.values().sum();
        assert!(
            (total - 100.0 / 1e6).abs() < 1e-12,
            "self times partition the request"
        );
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two concurrent children [10,60) and [40,80) cover [10,80).
        let spans = [
            sp(1, None, REQUEST, 0, 100),
            sp(2, Some(1), "a", 10, 60),
            sp(3, Some(1), "b", 40, 80),
            // A child that outlives its parent is clipped.
            sp(4, Some(2), "c", 50, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 30);
        assert_eq!(st[&2], 40);
    }

    #[test]
    fn recorder_links_parents_and_request_ids() {
        enable(true);
        root(REQUEST, 42, || span("outer", || span("inner", || ())));
        // Odd requests run untraced, interleaved with the traced ones.
        root(REQUEST, 43, || span("paused", || assert!(!enabled())));
        enable(false);
        span("ignored", || ());
        let spans = take();
        assert!(spans.iter().all(|s| s.req != 43 && s.name != "ignored"));
        let spans: Vec<Span> = spans.into_iter().filter(|s| s.req == 42).collect();
        assert_eq!(spans.len(), 3);
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        assert_eq!(by("inner").parent, Some(by("outer").id));
        assert_eq!(by("outer").parent, Some(by(REQUEST).id));
        assert_eq!(by(REQUEST).parent, None);
        assert!(to_json_lines(&spans).lines().count() == 3);
    }
}
