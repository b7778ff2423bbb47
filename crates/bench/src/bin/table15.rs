//! Table XV: AES-CTR-128 transciphering over CKKS, 512 KB.

use warpdrive_core::{HomOp, OpShape};
use wd_baselines::{System, SystemKind};
use wd_bench::banner;
use wd_workloads::perf::WorkloadModel;
use wd_workloads::transcipher::TranscipherJob;

fn main() {
    banner(
        "Table XV — AES-CTR-128 transciphering over CKKS",
        "paper Table XV (N = 2^16, L = 46, K = 10, 2^15 blocks = 512 KB)",
    );
    let job = TranscipherJob {
        blocks: 1 << 15,
        slots: 1 << 15,
    };
    let model = WorkloadModel::transcipher(job, 46, 10);
    let ops = job.ops();
    println!(
        "job: {} blocks, {:.0} KB, {} ciphertext groups, {} HMULTs, {} bootstraps",
        job.blocks,
        job.data_kb(),
        ops.ct_groups,
        ops.hmults,
        ops.bootstraps
    );

    // GPU (modeled).
    let sys = System::new(SystemKind::WarpDrive);
    let lat = |op: HomOp, shape: OpShape| sys.op_latency_us(op, shape);
    let boot_us = WorkloadModel::bootstrap(1 << 16, 46, 10).time_us(&lat, 0.0);
    let gpu_min = model.time_us(&lat, boot_us) / 60e6;

    println!();
    println!(
        "{:<32} {:>12} {:>12}",
        "scheme (hardware)", "latency", "paper"
    );
    println!(
        "{:<32} {:>9} min {:>9} min",
        "CPU baseline (48-core, paper)", "-", "110.8"
    );
    println!(
        "{:<32} {:>9.1} min {:>9} min",
        "WarpDrive (A100 model)", gpu_min, "3.5"
    );
    println!(
        "\nspeedup vs the paper's CPU baseline: {:.1}x   (paper: 31.6x)",
        110.8 / gpu_min
    );
}
