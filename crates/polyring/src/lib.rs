//! Negacyclic polynomial rings and the WarpDrive NTT variants.
//!
//! Everything CKKS does reduces to arithmetic in R_q = Z_q\[X\]/(X^N + 1),
//! and the paper's first contribution is a family of NTT implementations for
//! that ring. This crate implements them **functionally and bit-exactly**:
//!
//! - [`ntt::NttTable`]: the host negacyclic NTT/INTT — one merged lazy
//!   transform whose NTT-domain data stays in bit-reversed order — and
//!   [`ntt::galois_permutation`], the automorphism in that order. Every
//!   RNS limb of the CKKS layer runs through it; it is also the CPU
//!   baseline and, through [`ntt::NttTable::bit_reverse`], the oracle of
//!   the natural-order paper variants below.
//! - [`decomp::DecompPlan`]: the multi-level 4-step decomposition of Fig. 2,
//!   with the exact operation-count closed forms of Table IV.
//! - [`fourstep`]: the recursive 4-step NTT, parameterized by an
//!   [`fourstep::InnerKernel`] — CUDA-style u32 GEMM, bit-exact emulated
//!   INT8 tensor-core GEMM (with the u32 ↔ 4×u8 split/merge of
//!   [`bitsplit`]), high-radix butterflies, or a fused mix of two kernels.
//! - [`variants::NttVariant`]: the five engines evaluated in Fig. 6
//!   (WD-Tensor, WD-CUDA, WD-FTC, WD-BO, WD-FUSE) plus the TensorFHE
//!   kernel-level 5-stage baseline.
//! - [`rns::RnsPoly`]: polynomials in RNS form (one limb per prime), the
//!   datatype the CKKS layer operates on.
//! - [`scratch::ScratchArena`]: the per-worker scratch arena (RAII slab
//!   leases, heap fallback) that keeps steady-state hot-path execution at
//!   zero heap allocations per op.
//!
//! The *performance* of these algorithms on a GPU is modeled separately in
//! `wd-gpu-sim`; this crate is the mathematics.
//!
//! # Examples
//!
//! ```
//! use wd_polyring::{ntt::NttTable, Poly};
//! use wd_modmath::prime::ntt_prime_above;
//! let n = 64;
//! let q = ntt_prime_above(1 << 20, 2 * n as u64).unwrap();
//! let table = NttTable::new(q, n).unwrap();
//! let mut p = Poly::from_coeffs(q, vec![1; n]).unwrap();
//! let orig = p.clone();
//! table.forward(p.coeffs_mut());
//! table.inverse(p.coeffs_mut());
//! assert_eq!(p, orig);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitsplit;
pub mod decomp;
pub mod fourstep;
pub mod naive;
pub mod ntt;
pub mod par;
pub mod poly;
pub mod rns;
pub mod scratch;
pub mod tensoremu;
pub mod variants;

pub use poly::Poly;
pub use rns::RnsPoly;
pub use scratch::{ScratchArena, ScratchVec};
pub use variants::{NttEngine, NttVariant};

/// Errors from the polynomial layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyError {
    /// Ring degree must be a power of two ≥ 4.
    BadDegree(usize),
    /// The modulus is outside the word-size bound [2, 2^31), or, for an
    /// NTT, not below 2^30: the lazy butterflies keep values in `[0, 4q)`,
    /// which must fit a 32-bit lane.
    BadModulus(u64),
    /// The modulus does not support an NTT of this size (q ≢ 1 mod 2N).
    NoRootOfUnity {
        /// The modulus.
        modulus: u64,
        /// The ring degree.
        degree: usize,
    },
    /// Operand ring mismatch (different degree or modulus).
    RingMismatch,
    /// A decomposition plan parameter is invalid.
    BadPlan(String),
}

impl core::fmt::Display for PolyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolyError::BadDegree(n) => write!(f, "degree {n} is not a power of two >= 4"),
            PolyError::BadModulus(q) => write!(
                f,
                "modulus {q} is out of range: a ring needs 2 <= q < 2^31, an NTT q < 2^30"
            ),
            PolyError::NoRootOfUnity { modulus, degree } => {
                write!(
                    f,
                    "modulus {modulus} has no primitive {}th root of unity",
                    2 * degree
                )
            }
            PolyError::RingMismatch => write!(f, "operands belong to different rings"),
            PolyError::BadPlan(s) => write!(f, "invalid decomposition plan: {s}"),
        }
    }
}

impl std::error::Error for PolyError {}

pub use wd_fault::WdError;

impl From<PolyError> for WdError {
    fn from(e: PolyError) -> Self {
        match e {
            PolyError::RingMismatch => WdError::LevelMismatch(e.to_string().into()),
            PolyError::BadDegree(_)
            | PolyError::BadModulus(_)
            | PolyError::NoRootOfUnity { .. }
            | PolyError::BadPlan(_) => WdError::InvalidParams(e.to_string()),
        }
    }
}
