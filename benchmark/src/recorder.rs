//! The harness's own span recorder. Spans are recorded from outside the
//! program, around the calls a workload makes into each layer; they stay in
//! memory and are written as Chrome-trace JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one unit of work (round, evaluation, request) share this.
    pub request: u64,
    pub thread: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

/// Span sink. A disabled recorder does no work beyond one branch, so the
/// untraced run calls the same code as the traced one.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a recording thread panicked while holding the span list")
    }

    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            request,
            thread: thread_number(),
        });
        SpanId(Some(spans.len() - 1))
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.now_ns();
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Records `f` as a child span of `parent`.
    pub fn wrap<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

fn thread_number() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// Per `(layer, name)`: span count, total time and self time in
/// milliseconds. Self time is a span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (u64, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out
            .entry((s.layer, s.name))
            .or_insert((0u64, 0.0f64, 0.0f64));
        e.0 += 1;
        e.1 += dur as f64 / 1e6;
        e.2 += dur.saturating_sub(child) as f64 / 1e6;
    }
    out
}

/// Chrome-trace JSON ("X" complete events, microseconds).
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}",
            s.layer,
            s.name,
            s.layer,
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            parent,
            s.request
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            layer: "l",
            start_ns,
            end_ns,
            parent,
            request: 1,
            thread: 1,
        };
        let spans = [
            span("unit", 0, 10_000_000, None),
            span("call", 1_000_000, 4_000_000, Some(0)),
            span("call", 5_000_000, 9_000_000, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&("l", "unit")], (1, 10.0, 3.0));
        assert_eq!(t[&("l", "call")], (2, 7.0, 7.0));
        let json = chrome_trace_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let r = Recorder::new(false);
        let unit = r.open("l", "unit", SpanId::NONE, 1);
        assert_eq!(r.wrap("l", "call", unit, 1, || 7), 7);
        r.close(unit);
        assert!(r.spans().is_empty());
    }
}
