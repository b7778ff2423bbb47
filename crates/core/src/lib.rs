//! The WarpDrive framework — the paper's primary contribution.
//!
//! This crate binds the functional layers (`wd-polyring`, `wd-ckks`) to the
//! analytic GPU model (`wd-gpu-sim`) exactly the way the paper's framework
//! binds CKKS to an A100:
//!
//! - [`config`]: automatic parameter configuration (§IV-D-2): threads per
//!   block T = C·W·32, single- vs dual-kernel NTT selection by SMEM fit,
//!   coefficients per thread.
//! - [`memory`]: the GPU memory pool of §IV-D-1, sized by
//!   S_max = l·N·dnum·(l+k)·BS·w.
//! - [`fuse`]: tensor/CUDA warp-allocation balancing (§IV-D-3, Fig. 3).
//! - [`cost`]: the calibrated instruction-cost constants that convert
//!   algorithm operation counts into kernel work profiles.
//! - [`nttplan`]: kernel plans for every NTT variant — TensorFHE's 5-stage
//!   kernel-level pipeline vs WarpDrive's fused warp-level kernel.
//! - [`opplan`]: kernel plans for homomorphic operations under the
//!   **PE (parallelism-enhanced)** and **KF (kernel-fused, 100x-style)**
//!   planners (Fig. 4, Table IX), plus an unfused Liberate-style planner.
//! - [`engine`]: [`engine::PerfEngine`], the façade the benchmark harness
//!   drives.
//! - [`batch`]: [`batch::BatchExecutor`], the host-thread analogue of the
//!   PE kernels — whole ciphertext operations fanned out over a pool.
//! - [`sched`]: [`sched::ParScheduler`], the cost-model-driven splitter of
//!   one thread budget between op-level and limb-level parallelism.
//! - [`batchform`]: [`batchform::FormPolicy`], the pure dynamic-batching
//!   decision core (idle / size / linger / drain triggers, deadline
//!   shedding, priority aging) that the `wd-serve` request server drives.
//! - [`place`]: [`place::Placer`], the device-placement plan above the
//!   scheduler — shards a batch across modeled devices with the key
//!   working set priced on migration, for the GPU model to price.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod batch;
pub mod batchform;
pub mod config;
pub mod cost;
pub mod engine;
pub mod fuse;
pub mod memory;
pub mod nttplan;
pub mod opplan;
pub mod place;
pub mod sched;

pub use batch::{BatchExecutor, BatchOp, EvalKeys};
pub use batchform::{Class, Decision, FlushTrigger, FormPolicy, Pending};
pub use config::FrameworkConfig;
pub use engine::PerfEngine;
pub use opplan::{HomOp, OpShape, PlannerKind};
pub use place::{DeviceLane, PlacePolicy, Placement, Placer};
pub use sched::{BatchShape, ParScheduler, SchedPolicy, Split};

// The workspace-wide fault model (error taxonomy, deterministic fault
// injection, retry policy) — defined in `wd-fault`, re-exported here so
// every consumer of the framework speaks one error type.
pub use wd_fault::{
    integrity, run_isolated, FaultInjector, FaultKind, FaultPlan, RetryPolicy, WdError,
    FAULT_RATE_ENV, FAULT_SEED_ENV,
};
