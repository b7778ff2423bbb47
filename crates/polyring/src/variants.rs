//! The NTT implementation variants evaluated in the paper (§V-A, Fig. 6).
//!
//! | Variant | Plan | Inner kernel | Paper role |
//! |---|---|---|---|
//! | `Reference` | — | merged lazy radix-2 + bit reversal | correctness oracle / CPU baseline |
//! | `WdTensor` | WarpDrive 2-level | emulated INT8 tensor GEMM | efficient tensor-core NTT (§IV-A) |
//! | `WdCuda` | WarpDrive 2-level | native INT32 GEMM | CUDA-core GEMM variant (§IV-B-2) |
//! | `WdBo` | WarpDrive 2-level | high-radix butterflies | CUDA-core butterfly variant (§IV-B-2) |
//! | `WdFtc` | WarpDrive 2-level | fused tensor + CUDA GEMM | Tacker-style fusion (§IV-B) |
//! | `WdFuse` | WarpDrive 2-level | fused tensor + butterfly | **WarpDrive default** (§V-D) |
//! | `TensorFhe` | 1-level (256×256) | emulated INT8 tensor GEMM | TensorFHE's 5-stage kernel-level NTT |

use crate::decomp::DecompPlan;
use crate::fourstep::{FourStepNtt, InnerKernel};
use crate::ntt::NttTable;
use crate::PolyError;
use std::sync::Arc;

/// The NTT implementation variants compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NttVariant {
    /// The host transform ([`NttTable`]) mapped to natural order (oracle /
    /// CPU baseline).
    Reference,
    /// WD-Tensor: warp-level tensor-core NTT with 2-level decomposition.
    WdTensor,
    /// WD-CUDA: same structure on INT32 CUDA cores (GEMM inner NTTs).
    WdCuda,
    /// WD-BO: butterfly inner NTTs on CUDA cores (radix 16/8/4).
    WdBo,
    /// WD-FTC: fused WD-Tensor + WD-CUDA kernels.
    WdFtc,
    /// WD-FUSE: fused WD-Tensor + WD-BO kernels — WarpDrive's default.
    WdFuse,
    /// TensorFHE's kernel-level 5-stage NTT (1-level decomposition).
    TensorFhe,
}

impl NttVariant {
    /// All variants, in the order Fig. 6 plots them (plus oracle/baseline).
    pub const ALL: [NttVariant; 7] = [
        NttVariant::Reference,
        NttVariant::WdTensor,
        NttVariant::WdCuda,
        NttVariant::WdFtc,
        NttVariant::WdBo,
        NttVariant::WdFuse,
        NttVariant::TensorFhe,
    ];

    /// The five WarpDrive variants of Fig. 6.
    pub const FIG6: [NttVariant; 5] = [
        NttVariant::WdTensor,
        NttVariant::WdCuda,
        NttVariant::WdFtc,
        NttVariant::WdBo,
        NttVariant::WdFuse,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            NttVariant::Reference => "Reference",
            NttVariant::WdTensor => "WD-Tensor",
            NttVariant::WdCuda => "WD-CUDA",
            NttVariant::WdBo => "WD-BO",
            NttVariant::WdFtc => "WD-FTC",
            NttVariant::WdFuse => "WD-FUSE",
            NttVariant::TensorFhe => "TensorFHE",
        }
    }
}

impl core::fmt::Display for NttVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

enum Engine {
    Reference,
    FourStep(FourStepNtt),
}

impl core::fmt::Debug for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Engine::Reference => f.write_str("Reference"),
            Engine::FourStep(e) => write!(f, "FourStep({:?})", e.kernel()),
        }
    }
}

/// A ready-to-run NTT engine for one (q, N, variant) triple. Every variant
/// works in **natural order**, so engines are drop-in replacements for one
/// another; the reference engine pays an explicit bit-reversal pass for it
/// (the host hot path calls [`NttTable`] directly and never does).
///
/// # Examples
///
/// ```
/// use wd_polyring::{NttEngine, NttVariant};
/// use wd_modmath::prime::ntt_prime_above;
/// let n = 256;
/// let q = ntt_prime_above(1 << 25, 2 * n as u64).unwrap();
/// let eng = NttEngine::new(q, n, NttVariant::WdFuse).unwrap();
/// let mut x: Vec<u64> = (0..n as u64).collect();
/// let orig = x.clone();
/// eng.forward(&mut x);
/// eng.inverse(&mut x);
/// assert_eq!(x, orig);
/// ```
#[derive(Debug)]
pub struct NttEngine {
    table: Arc<NttTable>,
    variant: NttVariant,
    engine: Engine,
}

impl NttEngine {
    /// Builds an engine with the paper's default warp ratio (4 tensor +
    /// 4 CUDA warps per block, Fig. 3).
    ///
    /// # Errors
    ///
    /// Propagates table/plan construction failures.
    pub fn new(q: u64, n: usize, variant: NttVariant) -> Result<Self, PolyError> {
        Self::with_table(Arc::new(NttTable::new(q, n)?), variant)
    }

    /// Builds an engine sharing an existing table (tables are the expensive
    /// precomputation; the framework caches them per modulus).
    ///
    /// # Errors
    ///
    /// Propagates plan construction failures.
    pub fn with_table(table: Arc<NttTable>, variant: NttVariant) -> Result<Self, PolyError> {
        let n = table.degree();
        let engine = match variant {
            NttVariant::Reference => Engine::Reference,
            NttVariant::WdTensor => Engine::FourStep(FourStepNtt::new(
                Arc::clone(&table),
                DecompPlan::warpdrive(n)?,
                InnerKernel::TensorGemm,
            )?),
            NttVariant::WdCuda => Engine::FourStep(FourStepNtt::new(
                Arc::clone(&table),
                DecompPlan::warpdrive(n)?,
                InnerKernel::CudaGemm,
            )?),
            NttVariant::WdBo => Engine::FourStep(FourStepNtt::new(
                Arc::clone(&table),
                DecompPlan::warpdrive(n)?,
                InnerKernel::Butterfly,
            )?),
            NttVariant::WdFtc => Engine::FourStep(FourStepNtt::new(
                Arc::clone(&table),
                DecompPlan::warpdrive(n)?,
                InnerKernel::FusedTensorCuda { tensor: 4, cuda: 4 },
            )?),
            NttVariant::WdFuse => Engine::FourStep(FourStepNtt::new(
                Arc::clone(&table),
                DecompPlan::warpdrive(n)?,
                InnerKernel::FusedTensorButterfly { tensor: 4, cuda: 4 },
            )?),
            NttVariant::TensorFhe => Engine::FourStep(FourStepNtt::new(
                Arc::clone(&table),
                DecompPlan::balanced(n, 1)?,
                InnerKernel::TensorGemm,
            )?),
        };
        Ok(Self {
            table,
            variant,
            engine,
        })
    }

    /// The variant this engine implements.
    pub fn variant(&self) -> NttVariant {
        self.variant
    }

    /// The underlying twiddle tables.
    pub fn table(&self) -> &Arc<NttTable> {
        &self.table
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.table.degree()
    }

    /// Negacyclic forward NTT (natural order).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn forward(&self, data: &mut [u64]) {
        match &self.engine {
            Engine::Reference => {
                self.table.forward(data);
                NttTable::bit_reverse(data);
            }
            Engine::FourStep(e) => e.forward(data),
        }
    }

    /// Negacyclic inverse NTT (natural order).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn inverse(&self, data: &mut [u64]) {
        match &self.engine {
            Engine::Reference => {
                NttTable::bit_reverse(data);
                self.table.inverse(data);
            }
            Engine::FourStep(e) => e.inverse(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wd_modmath::prime::ntt_prime_above;

    fn prime(n: usize) -> u64 {
        ntt_prime_above(1 << 25, 2 * n as u64).unwrap()
    }

    #[test]
    fn every_variant_matches_reference() {
        let n = 256;
        let q = prime(n);
        let reference = NttEngine::new(q, n, NttVariant::Reference).unwrap();
        let data: Vec<u64> = (0..n as u64).map(|i| (i * 997 + 1) % q).collect();
        let mut expect = data.clone();
        reference.forward(&mut expect);
        for v in NttVariant::ALL {
            let eng = NttEngine::with_table(Arc::clone(reference.table()), v).unwrap();
            let mut x = data.clone();
            eng.forward(&mut x);
            assert_eq!(x, expect, "variant {v}");
        }
    }

    #[test]
    fn every_variant_round_trips_multiple_sizes() {
        for n in [64usize, 128, 512] {
            let q = prime(n);
            let reference = NttEngine::new(q, n, NttVariant::Reference).unwrap();
            let data: Vec<u64> = (0..n as u64).map(|i| (i * i + 17) % q).collect();
            for v in NttVariant::ALL {
                let eng = NttEngine::with_table(Arc::clone(reference.table()), v).unwrap();
                let mut x = data.clone();
                eng.forward(&mut x);
                eng.inverse(&mut x);
                assert_eq!(x, data, "variant {v}, n = {n}");
            }
        }
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(NttVariant::WdFuse.to_string(), "WD-FUSE");
        assert_eq!(NttVariant::TensorFhe.to_string(), "TensorFHE");
        assert_eq!(NttVariant::FIG6.len(), 5);
    }

    #[test]
    fn convolution_through_any_variant() {
        let n = 64;
        let q = prime(n);
        let m = wd_modmath::Modulus::new(q);
        let a: Vec<u64> = (0..n as u64).map(|i| (3 * i + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (5 * i + 2) % q).collect();
        let expect = crate::naive::negacyclic_mul(&m, &a, &b);
        for v in [NttVariant::WdFuse, NttVariant::TensorFhe] {
            let eng = NttEngine::new(q, n, v).unwrap();
            let (mut fa, mut fb) = (a.clone(), b.clone());
            eng.forward(&mut fa);
            eng.forward(&mut fb);
            let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
            eng.inverse(&mut fc);
            assert_eq!(fc, expect, "variant {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_wdfuse_equals_reference(seed in any::<u64>()) {
            let n = 128;
            let q = prime(n);
            let mut s = seed;
            let data: Vec<u64> = (0..n).map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 8) % q
            }).collect();
            let reference = NttEngine::new(q, n, NttVariant::Reference).unwrap();
            let fuse = NttEngine::with_table(Arc::clone(reference.table()), NttVariant::WdFuse).unwrap();
            let (mut a, mut b) = (data.clone(), data);
            reference.forward(&mut a);
            fuse.forward(&mut b);
            prop_assert_eq!(a, b);
        }
    }
}
