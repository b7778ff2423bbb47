//! Baseline systems the paper compares against (Table V).
//!
//! Each baseline is modeled as a [`System`]: a device spec plus the
//! *structural* choices that distinguish it — which NTT variant it runs,
//! how it packages kernels (planner), and its word size. All systems run on
//! the same simulator, so differences in the reproduced tables come from
//! exactly the factors the paper credits:
//!
//! | System | Device | NTT | Kernel granularity | Word |
//! |---|---|---|---|---|
//! | WarpDrive | A100-PCIE-80G | WD-FUSE warp-level | PE (ciphertext) | 32 |
//! | TensorFHE | A100-SXM-40G | 5-stage kernel-level | KF + op batching | 32 |
//! | TensorFHE_repl | A100-PCIE-80G | 5-stage kernel-level | PE (WarpDrive ops) | 32 |
//! | 100x (fused) | A100-PCIE-80G | butterfly | KF (polynomial) | 64 |
//! | 100x_opt | A100-PCIE-80G | WD-FUSE | KF (polynomial) | 32 |
//! | Liberate.FHE | A100-PCIE-80G | butterfly | unfused (limb) | 64 |
//! | Cheddar | A100-PCIE-80G | butterfly (CUDA) | PE-like, compact | 32 |
//! | GME-base | AMD MI100 | butterfly | KF | 32 |
//!
//! The CPU baseline is neither modeled nor measured here: the tables quote
//! the paper's published CPU numbers. Host timings of this repository's own
//! implementation come from the host benchmark (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod system;

pub use system::{System, SystemKind};
