//! WarpDrive facade crate: re-exports every subsystem of the reproduction of
//! "WarpDrive: GPU-Based Fully Homomorphic Encryption Acceleration Leveraging
//! Tensor and CUDA Cores" (HPCA 2025).
//!
//! The individual subsystems are:
//!
//! - [`modmath`]: 32-bit-word modular arithmetic (Montgomery/Barrett), primes, RNS.
//! - [`polyring`]: negacyclic polynomial rings and the five WarpDrive NTT variants.
//! - [`gpusim`]: the analytic A100-class GPU performance model (substitute for
//!   real CUDA hardware; see DESIGN.md §2).
//! - [`ckks`]: the RNS-CKKS scheme with hybrid keyswitching.
//! - [`core`]: the WarpDrive framework — PE kernels, planners, auto-configuration.
//! - [`graph`]: the FHE program compiler — ciphertext DAGs with automatic
//!   level management, CSE, and wave scheduling (DESIGN.md §5k).
//! - [`serve`]: the dynamic-batching FHE request server (admission control,
//!   deadlines, backpressure).
//! - [`baselines`]: TensorFHE / 100x / Liberate / Cheddar / CPU baselines.
//! - [`workloads`]: bootstrapping, HELR, ResNet-20 and AES transciphering.
//!
//! # Examples
//!
//! ```
//! use warpdrive::ckks::{CkksContext, ParamSet};
//! let ctx = CkksContext::new(ParamSet::set_a().build().unwrap()).unwrap();
//! let kp = ctx.keygen();
//! let ct = ctx.encrypt(&ctx.encode(&[1.0, 2.0]).unwrap(), &kp.public).unwrap();
//! let m = ctx.decode(&ctx.decrypt(&ct, &kp.secret).unwrap()).unwrap();
//! assert!((m[0] - 1.0).abs() < 1e-2 && (m[1] - 2.0).abs() < 1e-2);
//! ```

#![forbid(unsafe_code)]

/// One-stop imports for application code.
///
/// ```
/// use warpdrive::prelude::*;
/// # fn main() -> Result<(), wd_ckks::CkksError> {
/// let ctx = CkksContext::new(ParamSet::set_a().with_degree(64).build()?)?;
/// let kp = ctx.keygen();
/// let ct = ctx.encrypt_values(&[1.0, 2.0], &kp.public)?;
/// let sum = hadd(&ct, &ct)?;
/// assert!((ctx.decrypt_values(&sum, &kp.secret)?[0] - 2.0).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use warpdrive_core::{
        BatchExecutor, BatchOp, EvalKeys, FrameworkConfig, HomOp, OpShape, PerfEngine, PlannerKind,
    };
    pub use wd_ckks::encoding::C64;
    pub use wd_ckks::ops::{hadd, hmult, hrotate, hrotate_many, hsub, pmult, rescale, rescale_by};
    pub use wd_ckks::{Ciphertext, CkksContext, KeyPair, ParamSet, Plaintext};
    pub use wd_gpu_sim::GpuSpec;
    pub use wd_graph::{CompileOptions, CompiledProgram, Graph, GraphError};
    pub use wd_polyring::{NttEngine, NttVariant};
    pub use wd_serve::{Request, ServeConfig, ServeKeys, ServeOp, Server};
}

pub use warpdrive_core as core;
pub use wd_baselines as baselines;
pub use wd_ckks as ckks;
pub use wd_gpu_sim as gpusim;
pub use wd_graph as graph;
pub use wd_modmath as modmath;
pub use wd_polyring as polyring;
pub use wd_serve as serve;
pub use wd_trace as trace;
pub use wd_workloads as workloads;
