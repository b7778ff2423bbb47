//! Table VII: NTT/INTT throughput (KOPS) — CPU, TensorFHE, WarpDrive.

use wd_baselines::{System, SystemKind};
use wd_bench::{banner, ntt_batch, speedup, SETS};

fn main() {
    banner("Table VII — NTT/INTT throughput (KOPS)", "paper Table VII");
    let wd = System::new(SystemKind::WarpDrive);
    let tf = System::new(SystemKind::TensorFhe);
    // Paper rows for side-by-side comparison.
    let paper_cpu = [Some(7.2), Some(3.4), Some(1.6), None, None];
    let paper_tf = [910.0, 450.0, 209.0, 98.9, 48.3];
    let paper_wd = [12181.0, 4675.0, 2088.0, 1009.0, 468.0];

    println!(
        "{:<7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "set", "CPU(paper)", "TF(model)", "TF(paper)", "WD(model)", "WD(paper)", "WD/TF"
    );
    for (i, &(name, n, _l)) in SETS.iter().enumerate() {
        let batch = ntt_batch(n);
        let tf_kops = tf.ntt_kops(n, batch);
        let wd_kops = wd.ntt_kops(n, batch);
        println!(
            "{:<7} {:>12} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>10}",
            name,
            paper_cpu[i].map_or("-".into(), |k| format!("{k:.1}")),
            tf_kops,
            paper_tf[i],
            wd_kops,
            paper_wd[i],
            speedup(wd_kops, tf_kops),
        );
    }
    println!();
    println!("paper speedups WD/TF: 13.4x / 10.4x / 10.0x / 10.2x / 9.7x");
}
