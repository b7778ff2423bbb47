//! Shared helpers for the table/figure reproduction binaries.
//!
//! Each paper artifact has a binary in `src/bin/` (see DESIGN.md §4):
//! `cargo run -p wd-bench --release --bin table7` prints Table VII with the
//! paper's numbers alongside the reproduction's. Criterion benches of the
//! *functional* kernels live in `benches/`.

#![forbid(unsafe_code)]

use warpdrive_core::OpShape;

/// The Table VI parameter sets as (name, N, l) triples.
pub const SETS: [(&str, usize, usize); 5] = [
    ("SET-A", 1 << 12, 2),
    ("SET-B", 1 << 13, 6),
    ("SET-C", 1 << 14, 14),
    ("SET-D", 1 << 15, 24),
    ("SET-E", 1 << 16, 34),
];

/// The subset used by the homomorphic-operation tables (VIII–X).
pub const SETS_CDE: [(&str, usize, usize); 3] = [
    ("SET-C", 1 << 14, 14),
    ("SET-D", 1 << 15, 24),
    ("SET-E", 1 << 16, 34),
];

/// Op shape for a Table VI set (K = 1 per the paper).
pub fn shape(n: usize, l: usize) -> OpShape {
    OpShape::new(n, l, 1)
}

/// Batch sizes matching the paper's NTT throughput evaluation (enough
/// transforms to saturate the device).
pub fn ntt_batch(n: usize) -> u64 {
    // Keep total work roughly constant across sets.
    ((1u64 << 26) / n as u64).max(64)
}

/// Prints a standard table header with a model-fidelity reminder.
pub fn banner(title: &str, artifact: &str) {
    println!("================================================================");
    println!("{title}");
    println!("reproduces: {artifact}");
    println!("(simulated GPU performance model — compare shapes and ratios,");
    println!(" not absolute values; see DESIGN.md / EXPERIMENTS.md)");
    println!("================================================================");
}

/// Formats a speedup as the paper does ("13.4x").
pub fn speedup(ours: f64, theirs: f64) -> String {
    format!("{:.2}x", ours / theirs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_match_table_vi() {
        assert_eq!(SETS[0], ("SET-A", 4096, 2));
        assert_eq!(SETS[4], ("SET-E", 65536, 34));
        assert_eq!(SETS_CDE.len(), 3);
    }

    #[test]
    fn ntt_batch_is_monotone_decreasing_in_n() {
        assert!(ntt_batch(1 << 12) > ntt_batch(1 << 16));
        assert!(ntt_batch(1 << 16) >= 64);
    }
}
