//! Analytic GPU performance model — the hardware substitute for this
//! reproduction (see DESIGN.md §2).
//!
//! The paper evaluates on an NVIDIA A100 with Nsight Compute counters. No
//! GPU exists in this environment, so WarpDrive's *structural* effects —
//! kernel counts, GMEM round trips, instruction counts, tensor/CUDA overlap
//! — are computed exactly by the algorithm layer and converted to time,
//! stalls and utilization by this crate's roofline-style model:
//!
//! - [`GpuSpec`]: device parameters (A100 PCIe/SXM, V100, MI100, H100).
//! - [`KernelProfile`]: one kernel launch's instruction mix and memory
//!   traffic, produced by the planners in `warpdrive-core`/`wd-baselines`.
//! - [`Simulator`]: converts profiles into [`KernelStats`] (time, cycles,
//!   Nsight-style stall breakdown, compute/memory throughput utilization)
//!   and kernel sequences into [`RunReport`]s with an execution
//!   [`timeline::Timeline`].
//! - [`MultiGpuSpec`] / [`ShardedSimulator`]: N-device sharding with an
//!   NVLink/PCIe-class interconnect model (bandwidth + latency + setup),
//!   charging ciphertext/key movement between device lanes.
//!
//! The model is deterministic and calibrated; absolute microseconds are
//! *modeled*, while orderings and rough factors follow from structure. Every
//! number printed by the repro binaries should be read with that caveat
//! (EXPERIMENTS.md repeats it next to each table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod model;
pub mod multi;
pub mod report;
pub mod spec;
pub mod stalls;
pub mod timeline;

pub use kernel::{KernelProfile, LaunchConfig, WorkProfile};
pub use model::{Bottleneck, KernelStats, Simulator};
pub use multi::{DeviceWork, InterconnectSpec, MultiGpuSpec, ShardedSimulator};
pub use report::RunReport;
pub use spec::GpuSpec;
pub use stalls::{StallBreakdown, StallKind};
