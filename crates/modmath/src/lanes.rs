//! One runtime dispatch for the hot slab kernels, and the 32-bit lane
//! arithmetic they run.
//!
//! WarpDrive's CUDA-core path is fast because every butterfly and modular
//! product runs on 32-bit words across every lane (PAPER.md §IV-A-4). The
//! host analogue is the vector unit: every chain and special prime is below
//! 2^30, so each product of two residues is a 32×32→64 multiply, and
//! `vpmuludq` does one per 64-bit lane, reading the low half of each lane.
//! The `u64` slabs therefore vectorise as they are, provided every product
//! is spelled with both factors masked to 32 bits (`lo32`), which is what
//! lets LLVM pick that instruction.
//!
//! A kernel is a [`Kernel`]: a value whose `#[inline(always)]` [`Kernel::run`]
//! is the loop. [`dispatch`] runs it at the widest [`Level`] this CPU offers,
//! chosen once per process: the body is compiled into two
//! `#[target_feature]` wrappers (AVX-512F and AVX2) and plain, so the three
//! levels are one source compiled three ways, not three algorithms. Every
//! kernel output is fully reduced, so the level never changes a value.
//! [`run_at`] runs a kernel at a named level, which is how the tests compare
//! every level with the scalar one on this machine.

use std::sync::OnceLock;

/// A kernel body, written once and compiled at every [`Level`].
///
/// Implementations mark [`Kernel::run`] `#[inline(always)]`: it must be
/// compiled into the `#[target_feature]` wrapper that calls it, not called
/// from there, or the wrapper's features never reach the loop.
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// The kernel body.
    fn run(self) -> Self::Output;
}

/// The instruction sets a kernel is compiled for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The build target's baseline (SSE2 on x86-64).
    Scalar,
    /// AVX2: four 64-bit lanes.
    Avx2,
    /// AVX-512F: eight 64-bit lanes.
    Avx512,
}

impl Level {
    /// Every level, narrowest first.
    pub const ALL: [Level; 3] = [Level::Scalar, Level::Avx2, Level::Avx512];

    /// The widest level this CPU runs, detected on first use and then fixed
    /// for the life of the process.
    pub fn detected() -> Level {
        static DETECTED: OnceLock<Level> = OnceLock::new();
        *DETECTED.get_or_init(detect)
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    if !is_x86_feature_detected!("avx2") {
        Level::Scalar
    } else if is_x86_feature_detected!("avx512f") {
        Level::Avx512
    } else {
        Level::Avx2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::Scalar
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<K: Kernel>(k: K) -> K::Output {
    k.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(k: K) -> K::Output {
    k.run()
}

/// Runs `k` at the widest level this CPU offers.
pub fn dispatch<K: Kernel>(k: K) -> K::Output {
    run_at(Level::detected(), k).expect("the detected level is available")
}

/// Runs `k` compiled for `level`, or returns `None` when this CPU does not
/// offer it. [`Level::Scalar`] always runs.
#[allow(unsafe_code)]
pub fn run_at<K: Kernel>(level: Level, k: K) -> Option<K::Output> {
    if level > Level::detected() {
        return None;
    }
    // SAFETY: a `#[target_feature]` function may only run on a CPU that has
    // the features it enables. `level` is at most `Level::detected()`, and
    // `detect` returns `Avx512` only after `is_x86_feature_detected!` saw
    // both AVX-512F and AVX2, and `Avx2` only after it saw AVX2.
    let out = unsafe {
        match level {
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => avx512(k),
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => avx2(k),
            _ => k.run(),
        }
    };
    Some(out)
}

/// The low 32 bits of a lane, as a `u64` whose high half is known to be
/// zero. A product of two such values is one `vpmuludq` per lane; without
/// the masks the compiler must assume 64-bit factors and emits three.
#[inline(always)]
pub(crate) fn lo32(x: u64) -> u64 {
    x & 0xffff_ffff
}

/// `x` reduced from `[0, 2b)` into `[0, b)`, branch-free: when the
/// subtraction borrows, its sign bit selects adding `b` back. Spelled with a
/// shift and a mask rather than a compare because AVX2 has no unsigned
/// 64-bit compare, and the data-dependent branch of the scalar spelling
/// mispredicts on uniform residues.
#[inline(always)]
pub fn reduce_once(x: u64, b: u64) -> u64 {
    let r = x.wrapping_sub(b);
    r.wrapping_add(b & 0u64.wrapping_sub(r >> 63))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum<'a>(&'a [u64]);

    impl Kernel for Sum<'_> {
        type Output = u64;
        #[inline(always)]
        fn run(self) -> u64 {
            self.0
                .iter()
                .fold(0, |s, &x| s.wrapping_add(lo32(x) * lo32(x)))
        }
    }

    #[test]
    fn every_offered_level_runs_the_same_body() {
        let xs: Vec<u64> = (0..1000u64).map(|i| i * 0x9e37_79b9).collect();
        let want = run_at(Level::Scalar, Sum(&xs)).expect("scalar always runs");
        assert_eq!(dispatch(Sum(&xs)), want);
        for level in Level::ALL {
            let got = run_at(level, Sum(&xs));
            assert_eq!(got.is_some(), level <= Level::detected(), "{level:?}");
            assert!(got.is_none_or(|g| g == want), "{level:?}");
        }
    }

    #[test]
    fn reduce_once_covers_both_halves() {
        for (x, b, want) in [(0, 7, 0), (6, 7, 6), (7, 7, 0), (13, 7, 6)] {
            assert_eq!(reduce_once(x, b), want, "x = {x}");
        }
    }
}
