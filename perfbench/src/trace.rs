//! The traced run's span recorder: one span around every call the benchmark
//! makes into a layer, kept in memory and written at exit as a Perfetto
//! (Chrome trace) timeline. With tracing off every call runs unrecorded.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call. Times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub tid: u32,
}

/// Identifies a recorded span, so calls on other threads can name it as
/// their parent. `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
}

fn thread_track() -> u32 {
    TID.with(|t| match t.get() {
        Some(tid) => tid,
        None => {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(tid));
            tid
        }
    })
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span of `layer` named `name()`, child of `parent`.
    /// `f` receives the new span's id to hand to its own children.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: impl FnOnce() -> String,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                layer,
                name: name(),
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent,
                tid: thread_track(),
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_us();
        self.spans.lock().expect("span list poisoned")[id].end_us = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on several threads may overlap; their
/// union counts once). Summed per layer, in milliseconds.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut iv: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_us.max(s.start_us),
                    spans[c].end_us.min(s.end_us),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.layer).or_insert(0.0) += (s.end_us - s.start_us - covered) / 1e3;
    }
    out
}

/// The spans as a Perfetto-loadable Chrome trace: one track per host
/// thread, one complete event per span, with its id and parent as args.
pub fn timeline_json(spans: &[Span], title: &str) -> String {
    let mut tl = lsv_obs::TimelineBuilder::new();
    tl.process(1, title);
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for t in tids {
        tl.track(1, t, &format!("host thread {t}"));
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        tl.span(
            1,
            s.tid,
            s.layer,
            &s.name,
            s.start_us,
            s.end_us - s.start_us,
            &[("id", i.to_string()), ("parent", parent)],
        );
    }
    tl.finish("host microseconds", &[])
}
