//! Text summary report: greppable counters, span aggregates, events and
//! warnings. Machine-consumable lines use a stable `counter <name> = <v>`
//! shape that `scripts/check_trace_smoke.sh` asserts on in CI.

use std::fmt::Write as _;

use crate::TraceData;

impl TraceData {
    /// Renders a human- and grep-friendly summary of this snapshot.
    ///
    /// Sections (each omitted when empty): counters, span aggregates,
    /// event tallies, warnings. Counter lines are the stable machine
    /// interface: `counter <name> = <value>`.
    pub fn summary_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== wd-trace summary (level={}) ==", self.level);

        if !self.counters.is_empty() {
            let _ = writeln!(out, "-- counters --");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "counter {name} = {value}");
            }
        }

        if !self.hists.is_empty() {
            let _ = writeln!(out, "-- histograms --");
            for (name, h) in &self.hists {
                let s = h.summary();
                let _ = writeln!(
                    out,
                    "hist {name} count={} p50={} p95={} p99={} max={}",
                    s.count, s.p50, s.p95, s.p99, s.max
                );
            }
        }

        if !self.gauges.is_empty() {
            let _ = writeln!(out, "-- gauges --");
            for (name, g) in &self.gauges {
                let _ = writeln!(out, "gauge {name} last={} max={}", g.last, g.max);
            }
        }

        if !self.span_aggs.is_empty() {
            let _ = writeln!(out, "-- spans --");
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>14} {:>12} {:>12}",
                "span", "count", "total_us", "avg_us", "max_us"
            );
            for row in &self.span_aggs {
                let avg = if row.agg.count > 0 {
                    row.agg.total_us / row.agg.count as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>14.1} {:>12.1} {:>12.1}",
                    format!("{}.{}", row.cat, row.name),
                    row.agg.count,
                    row.agg.total_us,
                    avg,
                    row.agg.max_us
                );
            }
        }

        if !self.events.is_empty() {
            let _ = writeln!(out, "-- events --");
            // Tally by (cat, name) preserving first-seen order.
            let mut keys: Vec<(&str, &str)> = Vec::new();
            let mut counts: Vec<u64> = Vec::new();
            for e in &self.events {
                match keys.iter().position(|&(c, n)| c == e.cat && n == e.name) {
                    Some(i) => counts[i] += 1,
                    None => {
                        keys.push((e.cat, &e.name));
                        counts.push(1);
                    }
                }
            }
            for (&(cat, name), &count) in keys.iter().zip(&counts) {
                let _ = writeln!(out, "event {cat}.{name} x{count}");
            }
        }

        if !self.warnings.is_empty() {
            let _ = writeln!(out, "-- warnings --");
            for w in &self.warnings {
                let _ = writeln!(out, "warning [{}] {}", w.site, w.message);
            }
        }

        if self.dropped > 0 {
            let _ = writeln!(out, "dropped records: {}", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{TraceLevel, Tracer};

    #[test]
    fn summary_report_lists_counters_spans_events_warnings() {
        let t = Tracer::new();
        t.set_level(TraceLevel::Summary);
        t.counter("sim.kernel_launches", 7);
        {
            let _s = t.span("ckks", "hmult");
        }
        t.event("fault", "retry", &[("site", "batch.hmult".into())]);
        t.event("fault", "retry", &[("site", "batch.hadd".into())]);
        t.warn("fault.rate", "malformed WD_FAULT_RATE");
        let rep = t.snapshot().summary_report();
        assert!(rep.contains("counter sim.kernel_launches = 7"));
        assert!(rep.contains("ckks.hmult"));
        assert!(rep.contains("event fault.retry x2"));
        assert!(rep.contains("warning [fault.rate] malformed WD_FAULT_RATE"));
    }

    #[test]
    fn summary_report_exports_hist_and_gauge_lines() {
        let t = Tracer::new();
        t.set_level(TraceLevel::Summary);
        for v in [100u64, 200, 400] {
            t.observe("serve.latency_us", v);
        }
        t.gauge("serve.queue_depth", 9);
        let rep = t.snapshot().summary_report();
        assert!(rep.contains("-- histograms --"), "{rep}");
        assert!(
            rep.contains("hist serve.latency_us count=3 p50=") && rep.contains("max=400"),
            "{rep}"
        );
        assert!(
            rep.contains("gauge serve.queue_depth last=9 max=9"),
            "{rep}"
        );
    }

    #[test]
    fn empty_snapshot_renders_header_only_sections() {
        let t = Tracer::new();
        t.set_level(TraceLevel::Off);
        let rep = t.snapshot().summary_report();
        assert!(rep.contains("wd-trace summary (level=off)"));
        assert!(!rep.contains("-- counters --"));
        assert!(!rep.contains("-- spans --"));
    }
}
