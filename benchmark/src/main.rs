//! Host benchmark of the WarpDrive reproduction. See `README.md`.
//!
//! ```text
//! wd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! wd-benchmark run --seed <n> [--traced] [--quick]
//! wd-benchmark repeat --sets 2 --seed <n> [--traced] [--quick]
//! wd-benchmark manifest
//! ```
//!
//! The first form measures one workload in this process and prints one JSON
//! object as the last line of standard output; it is what `BENCHMARK.json`
//! names. `run` and `repeat` start one fresh process of the first form per
//! workload.

mod gen;
mod ladder;
mod recorder;
mod report;
mod stats;
mod suite;
mod surface;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use recorder::Recorder;
use report::{RunResult, END_TO_END, PER_LAYER};
use workloads::{Outcome, Workload, WorkloadKind};

/// Share of a traced run's seconds given to the untraced and to the traced
/// pass over the workload; the ladder takes what its probes need.
const TRACED_PASS_SHARE: f64 = 0.2;

/// One yielding thread per core, for as long as a workload is set up and
/// measured.
///
/// On this virtual machine a core that has gone idle takes anything from
/// 0.1 ms to several to wake, in phases that last seconds: with idle cores
/// allowed to halt, identical runs of `net_light_setb`, whose every request
/// crosses six thread hand-offs, read between 44 and 89 requests a second.
/// A thread that does nothing but `yield_now` keeps its core awake and gives
/// it up at once to any thread that has work, so the program's threads lose
/// no measurable share (ops_setb reads the same with and without).
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                // Relaxed: the flag publishes no other data.
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("a keep-awake thread only yields");
        }
    }
}

pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// `--name value` pairs and bare `--switch`es after an optional
    /// subcommand.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Self { flags })
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .flags
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))?;
        raw.parse()
            .map_err(|_| format!("--{name} {raw:?} is not a valid number"))
    }
}

fn main() -> ExitCode {
    // The harness sets no environment variables and refuses to measure a
    // program whose behaviour one of these would change behind its back.
    for var in surface::FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("{var} is set; unset it before benchmarking");
            return ExitCode::from(2);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "repeat" | "manifest")) => (c, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "manifest" => {
            print!("{}", report::manifest());
            Ok(true)
        }
        "run" => suite::run(&args),
        "repeat" => suite::repeat(&args),
        _ => one(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}

/// Measures one workload in this process.
fn one(args: &Args) -> Result<bool, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let kind = WorkloadKind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.number("seed")?;
    let seconds: f64 = args.number("seconds")?;
    let traced = match args.number::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let quick = args.has("quick");
    surface::program_tracing(false);
    let awake = KeepAwake::start();

    // Set-up, several times over for a median unless the run is a quick or
    // a traced one, which do not report it.
    let repeats = if quick || traced {
        1
    } else {
        kind.setup_repeats()
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut workload = None;
    for _ in 0..repeats {
        if let Some(previous) = workload.take() {
            Workload::stop(previous);
        }
        let t = Instant::now();
        workload = Some(workloads::setup(kind, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    println!("workload {} ({}), seed {seed}", kind.name(), kind.unit());
    let result = if traced {
        run_traced(kind, workload.as_mut(), seconds, quick)
    } else {
        let outcome = workload.run(seconds, &Recorder::new(false));
        print_outcome(&outcome);
        let mut values = BTreeMap::new();
        values.insert("setup_s", stats::median(&setup_s));
        values.insert("peak_rss_mib", peak_rss_mib());
        values.insert("unit_p50_ms", stats::calmest_median(&outcome.unit_ms));
        values.insert("units_per_s", stats::calmest_rate(&outcome.completions_s));
        RunResult {
            attempted: outcome.attempted.max(1),
            failed: outcome.failed,
            metrics: report::metrics_for(
                END_TO_END.iter().map(|m| (m.name, m.unit)),
                values,
                false,
            ),
        }
    };
    workload.stop();
    awake.stop();

    for (name, (value, unit)) in &result.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "attempted {} ok {} failed {}",
        result.attempted,
        result.attempted - result.failed.min(result.attempted),
        result.failed
    );
    println!("{}", result.to_json());
    Ok(result.correct())
}

/// An untraced and a traced pass over the workload, then the ladder on the
/// workload's shapes. Writes `out/<workload>.trace.json`.
fn run_traced(
    kind: WorkloadKind,
    workload: &mut dyn Workload,
    seconds: f64,
    quick: bool,
) -> RunResult {
    let pass = seconds * TRACED_PASS_SHARE;
    let untraced = workload.run(pass, &Recorder::new(false));
    let recorder = Recorder::new(true);
    surface::program_tracing(true);
    let outcome = workload.run(pass, &recorder);
    surface::program_tracing(false);
    surface::program_trace_reset();
    print_outcome(&outcome);

    let p50 = stats::calmest_median(&outcome.unit_ms);
    // A workload with a program of its own runs it sequentially, so its
    // unit is the program's sequential execution time.
    let own_program_ms = workload.has_program().then_some(p50);
    let mut values = ladder::run(
        workload.fixture(),
        own_program_ms,
        ladder::Budget::new(quick),
    );
    values.extend(outcome.diag.iter().map(|(k, v)| (*k, *v)));
    values.insert("unit.samples", outcome.unit_ms.len() as f64);
    values.insert("unit.p50_ms", p50);
    // Tails are diagnostics, not end-to-end metrics: on this host identical
    // runs disagree on p99 by an order of magnitude. The tail reported is
    // the highest percentile with at least ten samples beyond it.
    let tail = stats::highest_supported_percentile(outcome.unit_ms.len()).unwrap_or(50.0);
    values.insert("unit.tail_pct", tail);
    values.insert("unit.tail_ms", stats::percentile(&outcome.unit_ms, tail));
    let within = (outcome.unit_ms.iter())
        .filter(|&&ms| ms <= kind.limit_ms())
        .count();
    values.insert(
        "unit.within_limit_share",
        within as f64 / outcome.units.max(1) as f64,
    );
    values.insert(
        "trace.overhead_share",
        p50 / stats::calmest_median(&untraced.unit_ms).max(f64::MIN_POSITIVE) - 1.0,
    );
    print_attribution(&values, p50);

    let spans = recorder.spans();
    println!("spans by layer (count, total ms, self ms):");
    for ((layer, name), (count, total, own)) in recorder::self_times(&spans) {
        println!("  {layer}.{name:<24} {count:>7} {total:>12.3} {own:>12.3}");
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.trace.json", kind.name()));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, recorder::chrome_trace_json(&spans)))
    {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    RunResult {
        attempted: (untraced.attempted + outcome.attempted).max(1),
        failed: untraced.failed + outcome.failed,
        metrics: report::metrics_for(PER_LAYER.iter().map(|m| (m.name, m.unit)), values, true),
    }
}

fn print_outcome(outcome: &Outcome) {
    for (kind, samples) in &outcome.by_kind {
        println!(
            "  {kind:<16} n {:>6}  p50 {:>10.3} ms  p90 {:>10.3} ms  max {:>10.3} ms",
            samples.len(),
            stats::median(samples),
            stats::percentile(samples, 90.0),
            stats::percentile(samples, 100.0)
        );
    }
    // Whole seconds only; a stretch of low counts is the host's doing.
    let whole = outcome.completions_s.last().map_or(0, |&t| t as usize);
    let mut windows = vec![0u32; whole];
    for &t in &outcome.completions_s {
        if let Some(w) = windows.get_mut(t as usize) {
            *w += 1;
        }
    }
    println!("  completions per second of the throughput phase: {windows:?}");
    println!(
        "  units sent {}, answered correctly {}, largest decrypt error {:e}",
        outcome.units,
        outcome.unit_ms.len(),
        outcome.max_abs_err
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
}

/// Which rung accounts for how much of the rung above.
fn print_attribution(v: &BTreeMap<&'static str, f64>, unit_p50_ms: f64) {
    let hmult = v["ckks.hmult_ms"];
    println!(
        "attribution: hmult {:.3} ms = keyswitch {:.1}% + pointwise and adds {:.1}% + unexplained {:.1}%",
        hmult,
        100.0 * v["ckks.keyswitch_share_of_hmult"],
        100.0 * v["ckks.hmult_remainder_ms"] / hmult,
        100.0 * v["ckks.hmult_unexplained_share"]
    );
    println!(
        "attribution: keyswitch share of hmult+hrotate, computed {:.3} vs measured by the program's spans {:.3}; \
         NTT share of keyswitch (computed) {:.3}",
        2.0 * v["ckks.keyswitch_ms"] / (hmult + v["ckks.hrotate_ms"]),
        v["trace.span_ckks_keyswitch_share"],
        v["ckks.ntt_share_of_keyswitch"]
    );
    // One light request over TCP, rung by rung, as shares of this
    // workload's unit: meaningful where the unit is such a request.
    let parts = [
        ("wire encode+decode", {
            let us = v["serve.wire_req_encode_us"]
                + v["serve.wire_req_decode_us"]
                + v["serve.wire_resp_encode_us"]
                + v["serve.wire_resp_decode_us"];
            us / 1e3
        }),
        ("frame write+read", 2.0 * v["serve.frame_rw_us"] / 1e3),
        ("keys checksum", v["serve.keys_checksum_ms"]),
        ("hadd", v["ckks.hadd_us"] / 1e3),
    ];
    let explained: f64 = parts.iter().map(|p| p.1).sum();
    let shares: Vec<String> = parts
        .iter()
        .map(|(name, ms)| format!("{name} {:.1}%", 100.0 * ms / unit_p50_ms))
        .collect();
    println!(
        "attribution: a light TCP request's parts as shares of this unit's p50 ({unit_p50_ms:.3} ms): {}; remainder {:.1}%",
        shares.join(", "),
        100.0 * (1.0 - explained / unit_p50_ms)
    );
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}
