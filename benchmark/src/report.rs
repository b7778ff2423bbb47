//! The metric tables, the result line a run prints, and `BENCHMARK.json`.
//!
//! The tables below are the single definition of every metric name, unit
//! and direction: the result line is checked against them before it is
//! printed, and `BENCHMARK.json` is generated from them (`manifest`
//! subcommand; a unit test pins the file to the tables).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workloads::WorkloadKind;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Bounds are three times the widest spread (interquartile range over
/// median, ten runs with ten seeds) any workload showed on the host the
/// benchmark was built on; the README has the spreads.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "unit_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Repeats exactly for one seed: `repeat --traced` requires two sets
    /// to agree on it to the last digit.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
        exact: false,
    }
}

/// Simulated microseconds: a model output, not a wall-clock time, which
/// must read the same on every run.
const SIM_US: &str = "sim_us";

pub const PER_LAYER: [PerLayer; 83] = [
    // modmath
    timed("modmath.mul_slab_ns_per_coeff", "ns"),
    timed("modmath.mul_add_slab_ns_per_coeff", "ns"),
    timed("modmath.scale_slab_ns_per_coeff", "ns"),
    exact("modmath.slab_bytes_per_keyswitch", "bytes"),
    // polyring
    timed("polyring.ntt_fwd_us_per_limb", "us"),
    timed("polyring.ntt_inv_us_per_limb", "us"),
    timed("polyring.ntt_ns_per_butterfly", "ns"),
    timed("polyring.rns_ntt_fwd_ms.t1", "ms"),
    timed("polyring.rns_ntt_fwd_ms.t2", "ms"),
    timed("polyring.rns_ntt_inv_ms.t1", "ms"),
    timed("polyring.rns_ntt_inv_ms.t2", "ms"),
    timed("polyring.baseconv_ms", "ms"),
    exact("polyring.ntt_calls_per_keyswitch", "count"),
    timed("polyring.arena_fresh_per_op", "count"),
    timed("polyring.arena_fallback_per_op", "count"),
    // ckks
    timed("ckks.hmult_ms", "ms"),
    timed("ckks.hrotate_ms", "ms"),
    timed("ckks.rescale_ms", "ms"),
    timed("ckks.encrypt_decrypt_ms", "ms"),
    timed("ckks.hmult_p90_ms", "ms"),
    timed("ckks.hrotate_p90_ms", "ms"),
    timed("ckks.keyswitch_ms", "ms"),
    timed("ckks.hmult_remainder_ms", "ms"),
    timed("ckks.hadd_us", "us"),
    timed("ckks.encode_ms", "ms"),
    timed("ckks.encrypt_ms", "ms"),
    timed("ckks.decrypt_ms", "ms"),
    timed("ckks.decode_ms", "ms"),
    timed("ckks.keyswitch_share_of_hmult", "share"),
    timed("ckks.keyswitch_share_of_hrotate", "share"),
    timed("ckks.hmult_unexplained_share", "share"),
    timed("ckks.ntt_share_of_keyswitch", "share"),
    exact("ckks.ct_bytes", "bytes"),
    timed("ckks.wire_ct_encode_us", "us"),
    timed("ckks.wire_ct_decode_us", "us"),
    exact("ckks.max_abs_err", "abs"),
    // core
    timed("core.batch2_ms.t1", "ms"),
    timed("core.batch2_ms.t2", "ms"),
    higher("core.batch_par_efficiency", "share"),
    timed("core.execute_overhead_us", "us"),
    exact("core.sched_op_width", "count"),
    exact("core.sched_limb_width", "count"),
    // graph
    timed("graph.compile_us", "us"),
    exact("graph.nodes", "count"),
    exact("graph.waves", "count"),
    exact("graph.auto_inserted_steps", "count"),
    timed("graph.exec_overhead_ms", "ms"),
    // serve: unit probes
    timed("serve.submit_us", "us"),
    timed("serve.waited_p50_ms", "ms"),
    timed("serve.client_overhead_us", "us"),
    timed("serve.keys_checksum_ms", "ms"),
    timed("serve.wire_req_encode_us", "us"),
    timed("serve.wire_req_decode_us", "us"),
    timed("serve.wire_resp_encode_us", "us"),
    timed("serve.wire_resp_decode_us", "us"),
    exact("serve.wire_req_bytes", "bytes"),
    timed("serve.frame_rw_us", "us"),
    timed("serve.health_rtt_us", "us"),
    timed("serve.net_overhead_ms", "ms"),
    // serve: counts and shares of the workload's own phases (0 where the
    // workload starts no server)
    higher("serve.batch_mean_open", "count"),
    higher("serve.batch_mean", "count"),
    higher("serve.flush_size_share", "share"),
    timed("serve.flush_linger_share", "share"),
    timed("serve.batches", "count"),
    exact("serve.shed", "count"),
    exact("serve.rejected", "count"),
    higher("serve.keycache_hits", "count"),
    exact("serve.keycache_misses", "count"),
    exact("serve.keycache_evictions", "count"),
    higher("serve.net_frames", "count"),
    exact("serve.net_decode_errors", "count"),
    timed("serve.gen_late_share", "share"),
    timed("serve.waited_share", "share"),
    // the workload's unit of work, from the traced phase
    higher("unit.samples", "count"),
    timed("unit.p50_ms", "ms"),
    timed("unit.tail_ms", "ms"),
    higher("unit.tail_pct", "pct"),
    higher("unit.within_limit_share", "share"),
    // trace
    timed("trace.overhead_share", "share"),
    timed("trace.span_ckks_keyswitch_share", "share"),
    // gpu-sim
    exact("gpusim.hmult_model_us", SIM_US),
    exact("gpusim.hrotate_model_us", SIM_US),
    timed("gpusim.host_us_per_plan", "us"),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 25;

/// One sentence per workload on why it exists.
pub fn why(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::OpsSetB => {
            "Table VI SET-B, one thread, direct HMULT/HRotate/Rescale/encrypt-decrypt/HAdd rounds: \
             the paper's per-op latency; only modmath/polyring/ckks work, ciphertexts stay in L2"
        }
        WorkloadKind::CircuitSetC => {
            "Table VI SET-C, a compiled wd-graph circuit (6 HMULT, 4 HRotate, levels 14 to 11) run wave by wave: \
             time to solution at falling levels with a working set beyond L2; graph and core scheduling work"
        }
        WorkloadKind::ServeSetA => {
            "Table VI SET-A through the in-process Server: open loop at 25 req/s for latency from due time, \
             then 16 in flight for saturated rate, the only place batch formation works"
        }
        WorkloadKind::NetLightSetB => {
            "SET-B HAdd/HSub over loopback TCP, 2 connections and tenants, one request in flight: compute is 2% \
             of a request, so wire, framing and key lease dominate; an NTT change must show no movement here"
        }
    }
}

/// What a single-workload run reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of a run's standard output.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads a line written by [`RunResult::to_json`].
    pub fn from_json(line: &str) -> Option<Self> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let mut metrics = BTreeMap::new();
        let mut rest = &line[line.find("\"metrics\": {")? + 12..];
        while let Some(open) = rest.find('"') {
            rest = &rest[open + 1..];
            let name = &rest[..rest.find('"')?];
            rest = &rest[rest.find("\"value\": ")? + 9..];
            let value = rest[..rest.find(',')?].parse().ok()?;
            rest = &rest[rest.find("\"unit\": \"")? + 9..];
            let unit = &rest[..rest.find('"')?];
            metrics.insert(name.to_string(), (value, unit.to_string()));
            rest = &rest[rest.find('}')? + 1..];
        }
        Some(Self {
            attempted,
            failed,
            metrics,
        })
    }
}

/// Builds the metrics of a result line from measured values, in table
/// order: every name of the table must have been measured (per-layer names
/// a workload has no phase for read 0), and nothing else may be.
pub fn metrics_for(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    mut values: BTreeMap<&'static str, f64>,
    default_zero: bool,
) -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    for (name, unit) in table {
        let value = match values.remove(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => panic!("metric {name} is not a number: {v}"),
            None if default_zero => 0.0,
            None => panic!("metric {name} was not measured"),
        };
        out.insert(name.to_string(), (value, unit.to_string()));
    }
    assert!(
        values.is_empty(),
        "measured but not in the table: {:?}",
        values.keys()
    );
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let sep = if i + 1 == WorkloadKind::ALL.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            kind.name(),
            why(kind)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_string(), (0.8127, "s".to_string()));
        metrics.insert("units_per_s".to_string(), (251.0, "1/s".to_string()));
        let line = RunResult {
            attempted: 1000,
            failed: 0,
            metrics,
        }
        .to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"units_per_s\": {\"value\": 251, \"unit\": \"1/s\"}}}"
        );
        let back = RunResult::from_json(&line).expect("parses");
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.metrics["setup_s"], (0.8127, "s".to_string()));
        assert_eq!(back.metrics["units_per_s"], (251.0, "1/s".to_string()));
        assert!(RunResult::from_json("not a result").is_none());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let names = (END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for kind in WorkloadKind::ALL {
            assert!(
                why(kind).len() <= 200 && !why(kind).contains('\n'),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `run.sh manifest > BENCHMARK.json`"
        );
    }
}
