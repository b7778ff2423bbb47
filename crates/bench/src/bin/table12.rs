//! Table XII: HMULT throughput (KOPS) — CPU (paper), TensorFHE, WarpDrive.

use warpdrive_core::HomOp;
use wd_baselines::{System, SystemKind};
use wd_bench::{banner, shape};

fn main() {
    banner(
        "Table XII — HMULT throughput (KOPS)",
        "paper Table XII (SET-A/B/C)",
    );
    let wd = System::new(SystemKind::WarpDrive);
    let tf = System::new(SystemKind::TensorFhe);
    let sets = [
        ("SET-A", 1usize << 12, 2usize),
        ("SET-B", 1 << 13, 6),
        ("SET-C", 1 << 14, 14),
    ];
    let paper_cpu = [0.42, 0.08, 0.02];
    let paper_tf = [88.0, 27.6, 3.8];
    let paper_wd = [304.9, 47.7, 5.2];
    println!(
        "{:<7} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9}",
        "set", "CPU(paper)", "TF(model)", "TF(paper)", "WD(model)", "WD(paper)", "WD/TF"
    );
    for (i, &(name, n, l)) in sets.iter().enumerate() {
        // Throughput = batched amortized ops/s. TensorFHE batches at the op
        // level (BS=128 per the paper's methodology); WarpDrive exploits
        // intra-ciphertext parallelism with a modest batch.
        let mut s = shape(n, l);
        s.batch = 128;
        let wd_kops = 1e3 / wd.op_latency_us(HomOp::HMult, s);
        let tf_kops = 1e3 / tf.op_latency_us(HomOp::HMult, s);
        println!(
            "{:<7} {:>11.2} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>9.2}",
            name,
            paper_cpu[i],
            tf_kops,
            paper_tf[i],
            wd_kops,
            paper_wd[i],
            wd_kops / tf_kops
        );
    }
    println!("\npaper speedups WD/TF: 3.46x / 1.73x / 1.37x");
}
