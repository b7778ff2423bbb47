//! Structured tracing, counters and events for the WarpDrive reproduction —
//! the host-side stand-in for the Nsight Compute instrumentation the paper's
//! method depends on (Table II, Fig. 5 are *profiler* artifacts).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** The default level is [`TraceLevel::Off`];
//!    every probe ([`span`], [`event`], [`counter`]) starts with one relaxed
//!    atomic load and returns immediately — no clock read, no allocation, no
//!    lock.
//! 2. **Dependency-free and below everything.** Like `wd-fault`, this crate
//!    uses only `std`, so any layer (including `wd-fault` itself) can emit
//!    trace data without dependency cycles.
//! 3. **Thread-safe and deterministic to consume.** Buffers live behind one
//!    mutex; snapshots are ordinary owned data ([`TraceData`]) that tests
//!    assert on directly.
//!
//! # Levels (`WD_TRACE`)
//!
//! - `off` (default): nothing is recorded except [`warn`]ings, which are
//!   always captured (bounded ring) so tests can assert on them.
//! - `summary`: counters, events and **aggregated** span statistics
//!   (count / total / max per span name) — cheap enough to leave on in
//!   long-running services.
//! - `full`: everything in `summary` plus every individual span and the
//!   modeled-GPU *virtual* spans ([`virtual_span`]) that populate the
//!   Chrome-trace export's second process track.
//!
//! # Exports
//!
//! [`TraceData::chrome_trace_json`] renders a `chrome://tracing` /
//! Perfetto-compatible JSON document (host spans on pid 1, modeled GPU
//! timeline on pid 2); [`TraceData::summary_report`] renders a text report
//! of counters and span aggregates. [`write_chrome_trace_to_env_path`]
//! writes the JSON wherever `WD_TRACE_OUT` points, which is how CI archives
//! a trace artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod env;
mod hist;
mod report;

pub use hist::{HistSummary, Histogram};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable selecting the trace level (`off`/`summary`/`full`).
pub const TRACE_ENV: &str = "WD_TRACE";

/// Environment variable naming a file path for the Chrome-trace JSON export
/// (see [`write_chrome_trace_to_env_path`]).
pub const TRACE_OUT_ENV: &str = "WD_TRACE_OUT";

/// How much the tracer records (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing (warnings excepted). The production default.
    #[default]
    Off,
    /// Counters, events and aggregated span statistics.
    Summary,
    /// Everything: individual spans and virtual (modeled-GPU) spans too.
    Full,
}

impl TraceLevel {
    /// Parses a `WD_TRACE` spelling. `None` means unrecognized.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(TraceLevel::Off),
            "summary" | "1" => Some(TraceLevel::Summary),
            "full" | "2" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TraceLevel::Off => 0,
            TraceLevel::Summary => 1,
            TraceLevel::Full => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(TraceLevel::Off),
            1 => Some(TraceLevel::Summary),
            2 => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

impl core::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceLevel::Off => write!(f, "off"),
            TraceLevel::Summary => write!(f, "summary"),
            TraceLevel::Full => write!(f, "full"),
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One completed host span (level `full` only; `summary` keeps aggregates).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Subsystem category (`"ckks"`, `"batch"`, `"sim"`, …).
    pub cat: &'static str,
    /// Span name (`"hmult"`, `"batch.keyswitch"`, …).
    pub name: String,
    /// Small per-thread integer id (stable within a process).
    pub tid: u64,
    /// Start, microseconds since the trace epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Aggregated statistics for one `(category, name)` span key.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanAgg {
    /// Completed spans under this key.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Longest single span, microseconds.
    pub max_us: f64,
}

/// One structured event (point-in-time, with key/value fields).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Subsystem category (`"sched"`, `"fault"`, …).
    pub cat: &'static str,
    /// Event name (`"split"`, `"retry"`, …).
    pub name: String,
    /// Small per-thread integer id.
    pub tid: u64,
    /// Timestamp, microseconds since the trace epoch.
    pub ts_us: f64,
    /// Key/value payload.
    pub fields: Vec<(String, String)>,
}

impl EventRecord {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One span on a *virtual* (modeled) timeline — e.g. a simulated GPU kernel
/// with analytic start/end times rather than wall-clock ones.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualSpan {
    /// Track name (`"gpu.lane0"`, …); becomes a tid on pid 2 in the export.
    pub track: String,
    /// Span name (the kernel name).
    pub name: String,
    /// Modeled start, microseconds.
    pub start_us: f64,
    /// Modeled end, microseconds.
    pub end_us: f64,
}

/// A captured warning — always recorded, at every level, so tests can
/// assert on warnings without enabling tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    /// Stable site label (`"fault.rate"`, `"trace.level"`, …).
    pub site: String,
    /// Human-readable message (also printed to stderr).
    pub message: String,
}

// ---------------------------------------------------------------------------
// The tracer
// ---------------------------------------------------------------------------

const MAX_SPANS: usize = 1 << 16;
const MAX_EVENTS: usize = 1 << 16;
const MAX_VIRTUAL: usize = 1 << 16;
const MAX_WARNINGS: usize = 256;
const LEVEL_UNINIT: u8 = 255;

/// Last/peak pair for a sampled quantity (queue depth, in-flight batches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeStat {
    /// Most recent sample.
    pub last: u64,
    /// Largest sample seen.
    pub max: u64,
}

#[derive(Default)]
struct Buffers {
    spans: Vec<SpanRecord>,
    aggs: BTreeMap<(&'static str, String), SpanAgg>,
    events: Vec<EventRecord>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, GaugeStat>,
    virtual_spans: Vec<VirtualSpan>,
    warnings: Vec<Warning>,
    dropped: u64,
}

/// A thread-safe trace collector. Most code uses the process-global one via
/// the free functions ([`span`], [`event`], …); tests may build private
/// instances.
pub struct Tracer {
    level: AtomicU8,
    epoch: OnceLock<Instant>,
    state: Mutex<Buffers>,
}

impl Tracer {
    /// A tracer with no level set: the first [`Tracer::level`] read resolves
    /// it from [`TRACE_ENV`] through [`env::parse_with`] (unset ⇒ `Off`,
    /// malformed ⇒ a global [`warn`]ing + `Off`).
    pub const fn new() -> Self {
        Self {
            level: AtomicU8::new(LEVEL_UNINIT),
            epoch: OnceLock::new(),
            state: Mutex::new(Buffers {
                spans: Vec::new(),
                aggs: BTreeMap::new(),
                events: Vec::new(),
                counters: BTreeMap::new(),
                hists: BTreeMap::new(),
                gauges: BTreeMap::new(),
                virtual_spans: Vec::new(),
                warnings: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// The active level (resolving [`TRACE_ENV`] on first use).
    pub fn level(&self) -> TraceLevel {
        match TraceLevel::from_u8(self.level.load(Ordering::Relaxed)) {
            Some(l) => l,
            None => {
                let l =
                    env::parse_with("trace.level", TRACE_ENV, TraceLevel::Off, TraceLevel::parse);
                self.level.store(l.as_u8(), Ordering::Relaxed);
                l
            }
        }
    }

    /// Sets the level programmatically (tests, profiling tools). Overrides
    /// whatever the environment said.
    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(level.as_u8(), Ordering::Relaxed);
    }

    /// Whether anything (beyond warnings) is being recorded.
    pub fn enabled(&self) -> bool {
        self.level() != TraceLevel::Off
    }

    fn now_us(&self) -> f64 {
        self.epoch.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buffers> {
        // A poisoned tracer mutex means a panic mid-record; trace data is
        // diagnostic, so keep serving rather than cascading the panic.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span. Returns a no-op guard when the level is `Off`; records
    /// (aggregate at `summary`, aggregate + individual record at `full`)
    /// when the guard drops.
    pub fn span(&self, cat: &'static str, name: &str) -> Span<'_> {
        if !self.enabled() {
            return Span { inner: None };
        }
        Span {
            inner: Some(SpanInner {
                tracer: self,
                cat,
                name: name.to_string(),
                start_us: self.now_us(),
                start: Instant::now(),
            }),
        }
    }

    fn record_span(&self, cat: &'static str, name: String, start_us: f64, dur_us: f64) {
        let level = self.level();
        if level == TraceLevel::Off {
            return; // level dropped while the span was open
        }
        let tid = tid();
        let mut b = self.lock();
        let agg = b.aggs.entry((cat, name.clone())).or_default();
        agg.count += 1;
        agg.total_us += dur_us;
        agg.max_us = agg.max_us.max(dur_us);
        if level == TraceLevel::Full {
            if b.spans.len() < MAX_SPANS {
                b.spans.push(SpanRecord {
                    cat,
                    name,
                    tid,
                    start_us,
                    dur_us,
                });
            } else {
                b.dropped += 1;
            }
        }
    }

    /// Records a structured event (at `summary` and `full`).
    pub fn event(&self, cat: &'static str, name: &str, fields: &[(&str, String)]) {
        if !self.enabled() {
            return;
        }
        let ts_us = self.now_us();
        let tid = tid();
        let mut b = self.lock();
        if b.events.len() < MAX_EVENTS {
            b.events.push(EventRecord {
                cat,
                name: name.to_string(),
                tid,
                ts_us,
                fields: fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            });
        } else {
            b.dropped += 1;
        }
    }

    /// Adds `delta` to the named monotonic counter (at `summary` and `full`).
    pub fn counter(&self, name: &str, delta: u64) {
        if !self.enabled() {
            return;
        }
        let mut b = self.lock();
        *b.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records `value` into the named [`Histogram`] (at `summary` and
    /// `full`) — the percentile channel for latencies and batch sizes.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut b = self.lock();
        b.hists.entry(name.to_string()).or_default().record(value);
    }

    /// Samples the named gauge (at `summary` and `full`), keeping the last
    /// and peak values — depth-style quantities that go up *and* down.
    pub fn gauge(&self, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut b = self.lock();
        let g = b.gauges.entry(name.to_string()).or_default();
        g.last = value;
        g.max = g.max.max(value);
    }

    /// Records a span on a virtual (modeled) timeline (at `full` only).
    pub fn virtual_span(&self, track: &str, name: &str, start_us: f64, end_us: f64) {
        if self.level() != TraceLevel::Full {
            return;
        }
        let mut b = self.lock();
        if b.virtual_spans.len() < MAX_VIRTUAL {
            b.virtual_spans.push(VirtualSpan {
                track: track.to_string(),
                name: name.to_string(),
                start_us,
                end_us: end_us.max(start_us),
            });
        } else {
            b.dropped += 1;
        }
    }

    /// Records a warning: printed to stderr (prefixed `warning:`) **and**
    /// captured at every level, including `Off`, so the framework's
    /// env-fallback warnings are assertable in tests.
    pub fn warn(&self, site: &str, message: &str) {
        eprintln!("warning: {message}");
        let mut b = self.lock();
        if b.warnings.len() >= MAX_WARNINGS {
            b.warnings.remove(0); // keep the most recent warnings
        }
        b.warnings.push(Warning {
            site: site.to_string(),
            message: message.to_string(),
        });
    }

    /// Clones the current buffers into an owned, lock-free snapshot.
    pub fn snapshot(&self) -> TraceData {
        let b = self.lock();
        TraceData {
            level: self.level(),
            spans: b.spans.clone(),
            span_aggs: b
                .aggs
                .iter()
                .map(|((cat, name), agg)| SpanAggRow {
                    cat,
                    name: name.clone(),
                    agg: *agg,
                })
                .collect(),
            events: b.events.clone(),
            counters: b.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: b
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
            gauges: b.gauges.iter().map(|(k, g)| (k.clone(), *g)).collect(),
            virtual_spans: b.virtual_spans.clone(),
            warnings: b.warnings.clone(),
            dropped: b.dropped,
        }
    }

    /// Drains and returns every captured warning (oldest first).
    pub fn take_warnings(&self) -> Vec<Warning> {
        std::mem::take(&mut self.lock().warnings)
    }

    /// Clears every buffer (spans, aggregates, events, counters, virtual
    /// spans, warnings). The level is left unchanged.
    pub fn reset(&self) {
        *self.lock() = Buffers::default();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII span guard returned by [`Tracer::span`]; records on drop.
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    tracer: &'a Tracer,
    cat: &'static str,
    name: String,
    start_us: f64,
    start: Instant,
}

impl Span<'_> {
    /// Whether this span is actually recording (level ≠ `Off` at creation).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_us = inner.start.elapsed().as_secs_f64() * 1e6;
            inner
                .tracer
                .record_span(inner.cat, inner.name, inner.start_us, dur_us);
        }
    }
}

fn tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One row of the aggregated span table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAggRow {
    /// Subsystem category.
    pub cat: &'static str,
    /// Span name.
    pub name: String,
    /// The aggregate.
    pub agg: SpanAgg,
}

/// An owned snapshot of everything a [`Tracer`] recorded. Exports live here
/// ([`TraceData::chrome_trace_json`], [`TraceData::summary_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// The level at snapshot time.
    pub level: TraceLevel,
    /// Individual spans (level `full`).
    pub spans: Vec<SpanRecord>,
    /// Aggregated span statistics, sorted by (category, name).
    pub span_aggs: Vec<SpanAggRow>,
    /// Structured events in record order.
    pub events: Vec<EventRecord>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms ([`Tracer::observe`]), sorted by name.
    pub hists: Vec<(String, Histogram)>,
    /// Gauges ([`Tracer::gauge`]), sorted by name.
    pub gauges: Vec<(String, GaugeStat)>,
    /// Virtual (modeled-GPU) spans (level `full`).
    pub virtual_spans: Vec<VirtualSpan>,
    /// Captured warnings (always recorded).
    pub warnings: Vec<Warning>,
    /// Records discarded because a buffer hit its cap.
    pub dropped: u64,
}

impl TraceData {
    /// The value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The aggregate for span `(cat, name)`, if any spans completed.
    pub fn span_agg(&self, cat: &str, name: &str) -> Option<SpanAgg> {
        self.span_aggs
            .iter()
            .find(|r| r.cat == cat && r.name == name)
            .map(|r| r.agg)
    }

    /// The histogram recorded under `name`, if any samples were observed.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// The gauge recorded under `name`, if it was ever sampled.
    pub fn gauge(&self, name: &str) -> Option<GaugeStat> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, g)| *g)
    }

    /// Events under `(cat, name)`, in record order.
    pub fn events_named(&self, cat: &str, name: &str) -> Vec<&EventRecord> {
        self.events
            .iter()
            .filter(|e| e.cat == cat && e.name == name)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The process-global tracer and its free-function façade
// ---------------------------------------------------------------------------

static GLOBAL: Tracer = Tracer::new();

/// The process-global tracer every instrumented subsystem records into.
pub fn global() -> &'static Tracer {
    &GLOBAL
}

/// The global tracer's level (see [`Tracer::level`]).
pub fn level() -> TraceLevel {
    GLOBAL.level()
}

/// Sets the global level (see [`Tracer::set_level`]).
pub fn set_level(l: TraceLevel) {
    GLOBAL.set_level(l);
}

/// Whether the global tracer records anything beyond warnings.
pub fn enabled() -> bool {
    GLOBAL.enabled()
}

/// Opens a span on the global tracer (see [`Tracer::span`]).
pub fn span(cat: &'static str, name: &str) -> Span<'static> {
    GLOBAL.span(cat, name)
}

/// Records an event on the global tracer (see [`Tracer::event`]).
pub fn event(cat: &'static str, name: &str, fields: &[(&str, String)]) {
    GLOBAL.event(cat, name, fields);
}

/// Bumps a counter on the global tracer (see [`Tracer::counter`]).
pub fn counter(name: &str, delta: u64) {
    GLOBAL.counter(name, delta);
}

/// Records a histogram sample on the global tracer (see [`Tracer::observe`]).
pub fn observe(name: &str, value: u64) {
    GLOBAL.observe(name, value);
}

/// Samples a gauge on the global tracer (see [`Tracer::gauge`]).
pub fn gauge(name: &str, value: u64) {
    GLOBAL.gauge(name, value);
}

/// Records a virtual span on the global tracer (see [`Tracer::virtual_span`]).
pub fn virtual_span(track: &str, name: &str, start_us: f64, end_us: f64) {
    GLOBAL.virtual_span(track, name, start_us, end_us);
}

/// Warns on the global tracer (see [`Tracer::warn`]).
pub fn warn(site: &str, message: &str) {
    GLOBAL.warn(site, message);
}

/// Snapshots the global tracer (see [`Tracer::snapshot`]).
pub fn snapshot() -> TraceData {
    GLOBAL.snapshot()
}

/// Drains the global tracer's warnings (see [`Tracer::take_warnings`]).
pub fn take_warnings() -> Vec<Warning> {
    GLOBAL.take_warnings()
}

/// Clears the global tracer's buffers (see [`Tracer::reset`]).
pub fn reset() {
    GLOBAL.reset();
}

/// If [`TRACE_OUT_ENV`] is set, writes `data`'s Chrome-trace JSON there and
/// returns the path.
///
/// # Errors
///
/// Any I/O error from creating or writing the file.
pub fn write_chrome_trace_to_env_path(data: &TraceData) -> std::io::Result<Option<String>> {
    match std::env::var(TRACE_OUT_ENV) {
        Err(_) => Ok(None),
        Ok(path) => {
            std::fs::write(&path, data.chrome_trace_json())?;
            Ok(Some(path))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(level: TraceLevel) -> Tracer {
        let t = Tracer::new();
        t.set_level(level);
        t
    }

    #[test]
    fn off_records_nothing_but_warnings() {
        let t = tracer(TraceLevel::Off);
        {
            let s = t.span("cat", "work");
            assert!(!s.is_recording());
        }
        t.event("cat", "ev", &[]);
        t.counter("c", 3);
        t.virtual_span("gpu.lane0", "k", 0.0, 1.0);
        t.warn("site", "something odd");
        let d = t.snapshot();
        assert!(d.spans.is_empty() && d.span_aggs.is_empty());
        assert!(d.events.is_empty() && d.counters.is_empty());
        assert!(d.virtual_spans.is_empty());
        assert_eq!(d.warnings.len(), 1);
        assert_eq!(d.warnings[0].site, "site");
    }

    #[test]
    fn summary_aggregates_spans_without_individual_records() {
        let t = tracer(TraceLevel::Summary);
        for _ in 0..3 {
            let _s = t.span("ckks", "hmult");
        }
        let d = t.snapshot();
        assert!(d.spans.is_empty(), "summary keeps aggregates only");
        let agg = d.span_agg("ckks", "hmult").expect("aggregated");
        assert_eq!(agg.count, 3);
        assert!(agg.total_us >= 0.0 && agg.max_us <= agg.total_us + 1e-9);
    }

    #[test]
    fn full_records_individual_spans_and_virtual_spans() {
        let t = tracer(TraceLevel::Full);
        {
            let _s = t.span("batch", "execute");
        }
        t.virtual_span("gpu.lane0", "ntt", 1.0, 4.0);
        let d = t.snapshot();
        assert_eq!(d.spans.len(), 1);
        assert_eq!(d.spans[0].cat, "batch");
        assert_eq!(d.spans[0].name, "execute");
        assert!(d.spans[0].dur_us >= 0.0);
        assert_eq!(d.virtual_spans.len(), 1);
        assert_eq!(d.virtual_spans[0].end_us, 4.0);
        assert_eq!(d.span_agg("batch", "execute").unwrap().count, 1);
    }

    #[test]
    fn histograms_and_gauges_record_at_summary_and_not_off() {
        let t = tracer(TraceLevel::Summary);
        for v in [100u64, 200, 300, 10_000] {
            t.observe("serve.latency_us", v);
        }
        t.gauge("serve.queue_depth", 5);
        t.gauge("serve.queue_depth", 12);
        t.gauge("serve.queue_depth", 3);
        let d = t.snapshot();
        let h = d.hist("serve.latency_us").expect("histogram recorded");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 10_000);
        let g = d.gauge("serve.queue_depth").expect("gauge sampled");
        assert_eq!((g.last, g.max), (3, 12));
        assert!(d.hist("missing").is_none() && d.gauge("missing").is_none());

        let off = tracer(TraceLevel::Off);
        off.observe("h", 1);
        off.gauge("g", 1);
        let d = off.snapshot();
        assert!(d.hists.is_empty() && d.gauges.is_empty());
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let t = tracer(TraceLevel::Summary);
        t.counter("sim.kernel_launches", 2);
        t.counter("sim.kernel_launches", 3);
        t.counter("other", 1);
        let d = t.snapshot();
        assert_eq!(d.counter("sim.kernel_launches"), 5);
        assert_eq!(d.counter("missing"), 0);
    }

    #[test]
    fn events_carry_fields() {
        let t = tracer(TraceLevel::Summary);
        t.event(
            "sched",
            "split",
            &[("op_width", "4".into()), ("limb_width", "2".into())],
        );
        let d = t.snapshot();
        let evs = d.events_named("sched", "split");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].field("op_width"), Some("4"));
        assert_eq!(evs[0].field("limb_width"), Some("2"));
        assert_eq!(evs[0].field("nope"), None);
    }

    #[test]
    fn reset_clears_and_take_warnings_drains() {
        let t = tracer(TraceLevel::Full);
        t.counter("c", 1);
        t.warn("s", "w");
        assert_eq!(t.take_warnings().len(), 1);
        assert!(t.take_warnings().is_empty(), "drained");
        t.reset();
        let d = t.snapshot();
        assert!(d.counters.is_empty());
    }

    #[test]
    fn warning_ring_is_bounded() {
        let t = tracer(TraceLevel::Off);
        for i in 0..(MAX_WARNINGS + 10) {
            t.warn("site", &format!("w{i}"));
        }
        let w = t.take_warnings();
        assert_eq!(w.len(), MAX_WARNINGS);
        // Oldest dropped, newest kept.
        assert_eq!(w.last().unwrap().message, format!("w{}", MAX_WARNINGS + 9));
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let t = tracer(TraceLevel::Full);
        for _ in 0..(MAX_SPANS + 5) {
            let _s = t.span("c", "n");
        }
        let d = t.snapshot();
        assert_eq!(d.spans.len(), MAX_SPANS);
        assert_eq!(d.dropped, 5);
        // Aggregates keep counting past the cap.
        assert_eq!(d.span_agg("c", "n").unwrap().count, (MAX_SPANS + 5) as u64);
    }

    #[test]
    fn level_parse_spellings() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse(" SUMMARY "), Some(TraceLevel::Summary));
        assert_eq!(TraceLevel::parse("Full"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("2"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert_eq!(TraceLevel::parse(""), None);
    }

    #[test]
    fn env_names_are_stable() {
        assert_eq!(TRACE_ENV, "WD_TRACE");
        assert_eq!(TRACE_OUT_ENV, "WD_TRACE_OUT");
    }
}
