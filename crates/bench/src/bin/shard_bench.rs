//! Multi-device sharding benchmark: what sharding a serving batch across
//! N modeled devices buys, and what the interconnect takes back.
//! Generates `results/shard_scaling.txt` (regenerate with
//! `cargo run --release -p wd-bench --bin shard_bench > results/shard_scaling.txt`;
//! the drift checker maps the artifact to this binary).
//!
//! Two sections:
//!
//! 1. **Modeled shard scaling** (deterministic): a 32-op SET-C HMULT
//!    serving batch on the PE-kernel plan, sharded over 1/2/4/8 modeled
//!    A100 lanes through the [`ShardedSimulator`], once over an
//!    NVLink-class link and once over PCIe. Every device pays its
//!    operations' ciphertext ingress through the interconnect; devices
//!    beyond the first also migrate the SET-C key working set once. The
//!    run *asserts* the ≥ 1.6× modeled throughput gate at 2 devices over
//!    1 on NVLink.
//! 2. **Placement policy drill** (deterministic): `warpdrive_core::place`
//!    splits a mixed 8-op batch across 4 device lanes under all three
//!    policies — exact per-lane op counts, modeled bytes, and the
//!    thread-budget split, coverage-asserted.
//!
//! A placement is a plan the model prices, not a host execution path.
//!
//! Trace output (when `WD_TRACE` is on) goes to **stderr**: stdout is the
//! drift-checked artifact.

use warpdrive_core::opplan::op_kernels;
use warpdrive_core::place::{ct_bytes, key_working_set_bytes};
use warpdrive_core::{BatchOp, FrameworkConfig, HomOp, OpShape, PlacePolicy, Placer, PlannerKind};
use wd_bench::banner;
use wd_ckks::{CkksContext, ParamSet};
use wd_gpu_sim::multi::{DeviceWork, InterconnectSpec, MultiGpuSpec, ShardedSimulator};
use wd_gpu_sim::{GpuSpec, KernelProfile};
use wd_polyring::NttVariant;

/// The serving batch the scaling curve shards (matches `serve_bench`'s
/// saturating batch, doubled so 8 lanes still hold 4 ops each).
const BATCH: usize = 32;
const DEVICES: [usize; 4] = [1, 2, 4, 8];
/// Modeled throughput gate at 2 devices over 1, NVLink-class link.
const GATE: f64 = 1.6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "shard_bench — multi-device sharding vs the interconnect",
        "sharding datapoint (BENCH_shard.json; no paper table)",
    );

    let speedup2 = modeled_scaling();
    placement_drill()?;

    // The claim the placement layer is built on, asserted every run.
    assert!(
        speedup2 >= GATE,
        "modeled 2-device speedup {speedup2:.2}x breaches the {GATE:.2}x gate"
    );
    println!();
    println!(
        "PASS: modeled 2-device shard speedup {speedup2:.2}x >= {GATE:.2}x on nvlink3 at \
         batch {BATCH}; placement covers every op exactly once"
    );

    // Observability goes to stderr: stdout is the drift-checked artifact.
    if wd_trace::enabled() {
        eprintln!("{}", wd_trace::snapshot().summary_report());
    }
    Ok(())
}

/// One SET-C HMULT's PE-kernel sequence on the given device spec.
fn hmult_kernels(spec: &GpuSpec) -> Vec<KernelProfile> {
    let (n, l, k) = (1usize << 14, 14usize, 1usize); // SET-C
    op_kernels(
        HomOp::HMult,
        OpShape::new(n, l, k),
        PlannerKind::PeKernel,
        NttVariant::WdFuse,
        &FrameworkConfig::auto(spec),
        spec,
    )
}

/// Shards the `BATCH`-op HMULT workload over `devices` lanes: each lane
/// pays its operations' ciphertext ingress (two input ciphertexts per
/// HMULT) through the interconnect, and every lane beyond the first also
/// migrates the key working set once.
fn shard_work(devices: usize, per_op: &[KernelProfile]) -> Vec<DeviceWork> {
    let (n, l) = (1usize << 14, 14usize);
    let limbs = l + 1;
    let per_op_ingress = 2.0 * ct_bytes(n, limbs);
    (0..devices)
        .map(|d| {
            // Round-robin the batch across lanes: lane d gets ops d, d+devices, …
            let ops = (d..BATCH).step_by(devices).count();
            DeviceWork {
                kernels: (0..ops).flat_map(|_| per_op.iter().cloned()).collect(),
                ingress_bytes: ops as f64 * per_op_ingress,
                key_bytes: if d == 0 {
                    0.0
                } else {
                    key_working_set_bytes(n, limbs)
                },
            }
        })
        .collect()
}

/// The modeled scaling table: 1/2/4/8 devices, NVLink vs PCIe. Returns the
/// NVLink 2-device speedup for the gate.
fn modeled_scaling() -> f64 {
    let spec = GpuSpec::a100_pcie_80g();
    let per_op = hmult_kernels(&spec);
    let (n, l) = (1usize << 14, 14usize);
    println!();
    println!("-- modeled shard scaling (SET-C HMULT x {BATCH}, PE kernels, modeled A100 lanes) --");
    println!(
        "   per-op ciphertext ingress {:.1} MiB, key working set {:.1} MiB per migrated device",
        2.0 * ct_bytes(n, l + 1) / (1u64 << 20) as f64,
        key_working_set_bytes(n, l + 1) / (1u64 << 20) as f64
    );
    let mut nvlink2 = 0.0;
    for link in [InterconnectSpec::nvlink(), InterconnectSpec::pcie()] {
        println!();
        println!(
            "   {} ({} GB/s, {} us latency, {} us setup)",
            link.name, link.link_bw_gbps, link.latency_us, link.setup_us
        );
        println!(
            "{:>10} {:>14} {:>14} {:>9}",
            "devices", "wall ms", "kops/s", "speedup"
        );
        let mut base = 0.0;
        for &d in &DEVICES {
            let sim =
                ShardedSimulator::new(MultiGpuSpec::homogeneous(d, spec.clone(), link.clone()));
            let rep = sim.run_devices(&shard_work(d, &per_op));
            let wall_ms = rep.total_time_us() / 1e3;
            let kops = BATCH as f64 / rep.total_time_us() * 1e3;
            if d == 1 {
                base = wall_ms;
            }
            let speedup = base / wall_ms;
            println!("{d:>10} {wall_ms:>14.2} {kops:>14.2} {speedup:>8.2}x");
            if d == 2 && link.name == "nvlink3" {
                nvlink2 = speedup;
            }
        }
    }
    println!();
    println!("modeled 2-device speedup on nvlink3: {nvlink2:.2}x  (gate: >= {GATE:.2}x)");
    nvlink2
}

/// Exact placement of a mixed 8-op batch across 4 device lanes under every
/// policy, plus the thread-budget split the scheduler composes with.
fn placement_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = CkksContext::with_seed(params, 21)?;
    let kp = ctx.keygen();
    let a = ctx.encrypt_values(&[1.0, -2.0], &kp.public)?;
    let b = ctx.encrypt_values(&[0.5, 3.0], &kp.public)?;
    let batch = [
        BatchOp::HMult(&a, &b),
        BatchOp::HAdd(&a, &b),
        BatchOp::HMult(&b, &a),
        BatchOp::Rescale(&a),
        BatchOp::HMult(&a, &a),
        BatchOp::HSub(&a, &b),
        BatchOp::HMult(&b, &b),
        BatchOp::HAdd(&b, &a),
    ];
    println!();
    println!("-- placement policy drill (8-op mixed batch, 4 device lanes, deterministic) --");
    for policy in [
        PlacePolicy::RoundRobin,
        PlacePolicy::Bytes,
        PlacePolicy::Auto,
    ] {
        let placer = Placer::new(4).with_policy(policy);
        let placement = placer.place(&batch);
        let mut covered: Vec<usize> = placement
            .lanes()
            .iter()
            .flat_map(|l| l.ops.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(
            covered,
            (0..batch.len()).collect::<Vec<_>>(),
            "{policy:?} must place every op exactly once"
        );
        let ops: Vec<usize> = placement.lanes().iter().map(|l| l.ops.len()).collect();
        let keys_mib: f64 =
            placement.lanes().iter().map(|l| l.key_bytes).sum::<f64>() / (1u64 << 20) as f64;
        println!(
            "  {:<10} ops/lane {ops:?}  budget split(8 threads) {:?}  key bytes {keys_mib:.2} MiB",
            format!("{policy:?}"),
            placement.thread_budgets(8)
        );
    }
    Ok(())
}
