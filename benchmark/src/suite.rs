//! `run` and `repeat`: the whole suite, one fresh child process per
//! workload so that no workload inherits another's heap, caches or threads.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::report::{RunResult, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::workloads::WorkloadKind;
use crate::Args;

/// Seconds a `--quick` run measures: every code path, nothing recorded.
const QUICK_SECONDS: u64 = 2;

/// Metrics of one pass over the suite, by `(workload, metric)`.
type Suite = BTreeMap<(&'static str, String), (f64, String)>;

struct Options {
    seed: u64,
    seconds: u64,
    quick: bool,
    traced: bool,
}

impl Options {
    fn parse(args: &Args) -> Result<Self, String> {
        let quick = args.has("quick");
        Ok(Self {
            seed: args.number("seed")?,
            seconds: match args.has("seconds") {
                true => args.number("seconds")?,
                false if quick => QUICK_SECONDS,
                false => RUN_SECONDS,
            },
            quick,
            traced: args.has("traced"),
        })
    }
}

/// Runs one workload in a child process, echoing its report. `None` when
/// the child failed or printed no result line.
fn child(kind: WorkloadKind, opt: &Options, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &opt.seed.to_string()])
        .args(["--seconds", &opt.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opt.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    let result = RunResult::from_json(last);
    if result.is_none() || !out.status.success() {
        println!(
            "  {} exited with {} and no clean result",
            kind.name(),
            out.status
        );
    }
    result.filter(|r| out.status.success() && r.correct())
}

/// One pass over the workloads in the given order. `None` if any failed.
fn pass(order: &[WorkloadKind], opt: &Options, trace: bool) -> Option<Suite> {
    let mut suite = Suite::new();
    let mut clean = true;
    for &kind in order {
        println!("== {} (trace {}) ==", kind.name(), u8::from(trace));
        match child(kind, opt, trace) {
            Some(result) => {
                for (name, value) in result.metrics {
                    suite.insert((kind.name(), name), value);
                }
            }
            None => clean = false,
        }
    }
    clean.then_some(suite)
}

fn print_suite(title: &str, suite: &Suite) {
    println!("== {title} ==");
    for ((workload, name), (value, unit)) in suite {
        println!("{workload:<16} {name:<40} {value:>16.6} {unit}");
    }
}

/// `run --seed <n> [--traced] [--quick]`
pub fn run(args: &Args) -> Result<bool, String> {
    let opt = Options::parse(args)?;
    let mut ok = true;
    match pass(&WorkloadKind::ALL, &opt, false) {
        Some(suite) => print_suite("end-to-end metrics (untraced)", &suite),
        None => ok = false,
    }
    if opt.traced {
        match pass(&WorkloadKind::ALL, &opt, true) {
            Some(suite) => print_suite("per-layer metrics (traced)", &suite),
            None => ok = false,
        }
    }
    if opt.quick {
        println!("quick run: every code path at the real shapes; the numbers are not measurements");
    }
    Ok(ok)
}

/// `repeat --sets 2 --seed <n> [--traced] [--quick]`: the same code twice,
/// in alternating workload order. Fails when two sets disagree on an
/// end-to-end metric by more than its bound, or (with `--traced`) on an
/// exact per-layer metric at all.
pub fn repeat(args: &Args) -> Result<bool, String> {
    let opt = Options::parse(args)?;
    let sets: usize = args.number("sets")?;
    if sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    let mut reversed = WorkloadKind::ALL;
    reversed.reverse();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for set in 0..sets {
        let order = if set % 2 == 0 {
            WorkloadKind::ALL
        } else {
            reversed
        };
        untraced.push(pass(&order, &opt, false).ok_or("a run failed")?);
        if opt.traced {
            traced.push(pass(&order, &opt, true).ok_or("a traced run failed")?);
        }
    }

    let mut ok = true;
    println!("== end-to-end metrics across {sets} sets ==");
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "lowest", "highest", "gap", "bound"
    );
    for kind in WorkloadKind::ALL {
        for m in &END_TO_END {
            let values: Vec<f64> = (untraced.iter())
                .map(|s| s[&(kind.name(), m.name.to_string())].0)
                .collect();
            let (lo, hi) = (
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            // The gap is taken from the better value, as a regression
            // would be.
            let base = if m.better == "lower" { lo } else { hi };
            let gap = (hi - lo) / base;
            let verdict = if gap > m.bound { "ABOVE BOUND" } else { "" };
            ok &= gap <= m.bound;
            println!(
                "{:<16} {:<16} {lo:>14.4} {hi:>14.4} {:>7.1}% {:>7.1}% {verdict}",
                kind.name(),
                m.name,
                100.0 * gap,
                100.0 * m.bound
            );
        }
    }
    if opt.traced {
        println!("== exact per-layer metrics across {sets} sets ==");
        for kind in WorkloadKind::ALL {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let key = (kind.name(), m.name.to_string());
                let first = traced[0][&key].0;
                let same = traced.iter().all(|s| s[&key].0 == first);
                ok &= same;
                if !same {
                    println!("{:<16} {:<40} DIFFERS between sets", kind.name(), m.name);
                }
            }
        }
        println!(
            "exact metrics compared: {}",
            PER_LAYER.iter().filter(|m| m.exact).count()
        );
    }
    println!("{}", if ok { "sets agree" } else { "sets DISAGREE" });
    Ok(ok)
}
