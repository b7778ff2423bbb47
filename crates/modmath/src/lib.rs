//! Modular-arithmetic substrate for the WarpDrive reproduction.
//!
//! WarpDrive (HPCA 2025) computes CKKS with a **32-bit word size**: every RNS
//! modulus is an NTT-friendly prime below 2^31 so that CUDA cores can operate
//! natively on INT32 and tensor cores can consume 8-bit limb decompositions.
//! This crate provides that arithmetic layer:
//!
//! - [`Modulus`]: a word-size prime modulus with Barrett reduction
//!   ([`Modulus::mul`]) and Shoup multiplication for constant operands.
//! - [`Montgomery`]: Montgomery-domain arithmetic (R = 2^32), the reduction
//!   the paper selects for the NTT inner loop (§IV-A-4, ~10% over Barrett).
//! - [`prime`]: NTT-friendly prime generation (q ≡ 1 mod 2N) and primitive
//!   roots of unity.
//! - [`rns`]: residue-number-system bases, CRT reconstruction and the
//!   fast approximate basis conversion used by hybrid keyswitching.
//! - [`karatsuba`]: the 4-term Karatsuba limb multiplication evaluated (and
//!   rejected) by the paper's ablation in §IV-A-4.
//! - [`slab`]: cache-blocked in-place kernels over contiguous limb slabs
//!   (fused multiply-accumulate, subtract, Shoup scaling) — the host-side
//!   analogue of the paper's planar limb layout.
//!
//! # Examples
//!
//! ```
//! use wd_modmath::{prime::ntt_prime_above, Modulus};
//! let q = ntt_prime_above(1 << 28, 1 << 12).expect("prime exists");
//! let m = Modulus::new(q);
//! assert_eq!(m.mul(3, m.inv(3).unwrap()), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrett;
pub mod karatsuba;
pub mod montgomery;
pub mod prime;
pub mod rns;
pub mod slab;

pub use barrett::Modulus;
pub use montgomery::Montgomery;

/// Maximum bit width of a WarpDrive RNS modulus (32-bit word size minus the
/// headroom bit needed by lazy reductions).
pub const MAX_MODULUS_BITS: u32 = 31;

/// Errors produced by the modular-arithmetic layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// The requested modulus is zero, one, or too wide for the 32-bit word.
    InvalidModulus(u64),
    /// No prime with the requested properties exists in the search range.
    PrimeNotFound {
        /// Lower bound of the search.
        above: u64,
        /// Required NTT length divisor of q - 1.
        two_n: u64,
    },
    /// The element has no inverse modulo q (gcd != 1).
    NotInvertible {
        /// The non-invertible element.
        value: u64,
        /// The modulus.
        modulus: u64,
    },
    /// The basis product does not fit the 127 bits a centred reconstruction
    /// into `i128` has.
    BasisTooWide {
        /// Bit width of the product.
        bits: u32,
    },
}

impl core::fmt::Display for MathError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MathError::InvalidModulus(q) => write!(f, "invalid modulus {q}"),
            MathError::PrimeNotFound { above, two_n } => {
                write!(f, "no NTT prime q = 1 mod {two_n} found above {above}")
            }
            MathError::NotInvertible { value, modulus } => {
                write!(f, "{value} is not invertible modulo {modulus}")
            }
            MathError::BasisTooWide { bits } => {
                write!(f, "basis product of {bits} bits does not fit 127")
            }
        }
    }
}

impl std::error::Error for MathError {}

pub use wd_fault::WdError;

impl From<MathError> for WdError {
    fn from(e: MathError) -> Self {
        match e {
            MathError::InvalidModulus(_)
            | MathError::PrimeNotFound { .. }
            | MathError::BasisTooWide { .. } => WdError::InvalidParams(e.to_string()),
            MathError::NotInvertible { .. } => WdError::Math(e.to_string()),
        }
    }
}
