//! Multi-device sharding model: N devices plus an interconnect.
//!
//! The paper fills one A100 (§IV); serving "millions of users" (ROADMAP
//! north-star) needs the next axis — sharding a batch across N modeled
//! devices. The multi-GPU literature around FHE (Theodosian's memory
//! hierarchy analysis, FHECore's microarchitecture split — PAPERS.md) agrees
//! on where that lives or dies: the ratio between on-device bandwidth and
//! the *interconnect* that moves ciphertexts and key material between
//! devices. This module prices that split explicitly:
//!
//! - [`InterconnectSpec`]: a link model (bandwidth + latency + per-transfer
//!   setup cost) with NVLink-class and PCIe-class presets.
//! - [`MultiGpuSpec`]: device count, per-device [`GpuSpec`], one
//!   interconnect.
//! - [`ShardedSimulator`]: runs per-device kernel lanes (each device is one
//!   serial stream, wall time = slowest device) and charges every
//!   ciphertext/key movement through the interconnect before the device's
//!   compute starts.
//!
//! Like the single-device [`Simulator`], everything here is deterministic
//! and analytic: absolute microseconds are *modeled*, orderings and scaling
//! shapes follow from structure.

use crate::kernel::KernelProfile;
use crate::model::Simulator;
use crate::report::RunReport;
use crate::spec::GpuSpec;
use crate::timeline::{Timeline, TimelineEntry};
use serde::{Deserialize, Serialize};

/// Device-to-device link model: one transfer costs
/// `setup_us + latency_us + bytes / bandwidth`. Setup is the host-side
/// software cost (driver call, copy-engine dispatch) paid once per
/// transfer regardless of size; latency is the wire/hop time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Human-readable link name (appears in reports).
    pub name: String,
    /// Per-direction link bandwidth, GB/s.
    pub link_bw_gbps: f64,
    /// Base transfer latency, microseconds.
    pub latency_us: f64,
    /// Per-transfer software setup cost, microseconds.
    pub setup_us: f64,
}

impl InterconnectSpec {
    /// NVLink 3.0-class link (A100 SXM): ~300 GB/s per direction, low
    /// latency, cheap dispatch.
    pub fn nvlink() -> Self {
        Self {
            name: "nvlink3".into(),
            link_bw_gbps: 300.0,
            latency_us: 1.8,
            setup_us: 2.0,
        }
    }

    /// PCIe 4.0 x16-class link: ~25 GB/s effective per direction, higher
    /// latency, heavier dispatch.
    pub fn pcie() -> Self {
        Self {
            name: "pcie4x16".into(),
            link_bw_gbps: 25.0,
            latency_us: 5.0,
            setup_us: 5.0,
        }
    }

    /// Modeled time to move `bytes` over the link, microseconds. Zero bytes
    /// means no transfer happens, so no setup or latency is charged.
    pub fn transfer_us(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.setup_us + self.latency_us + bytes / (self.link_bw_gbps * 1e9) * 1e6
    }
}

/// A multi-device configuration: per-device specs plus the interconnect
/// that joins them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGpuSpec {
    devices: Vec<GpuSpec>,
    /// The device-to-device link model.
    pub interconnect: InterconnectSpec,
}

impl MultiGpuSpec {
    /// A heterogeneous configuration from explicit per-device specs.
    /// `devices` must be non-empty.
    pub fn new(devices: Vec<GpuSpec>, interconnect: InterconnectSpec) -> Self {
        assert!(
            !devices.is_empty(),
            "MultiGpuSpec needs at least one device"
        );
        Self {
            devices,
            interconnect,
        }
    }

    /// `n` identical devices (the common case).
    pub fn homogeneous(n: usize, device: GpuSpec, interconnect: InterconnectSpec) -> Self {
        Self::new(vec![device; n.max(1)], interconnect)
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Spec of device `i`.
    pub fn device(&self, i: usize) -> &GpuSpec {
        &self.devices[i]
    }

    /// All device specs, in index order.
    pub fn devices(&self) -> &[GpuSpec] {
        &self.devices
    }

    /// The configuration with device `i` removed — the device-loss degrade
    /// ladder reruns placement against this. Returns `None` when removing
    /// the last device (nothing left to degrade onto).
    pub fn without_device(&self, i: usize) -> Option<Self> {
        if self.devices.len() <= 1 || i >= self.devices.len() {
            return None;
        }
        let mut devices = self.devices.clone();
        devices.remove(i);
        Some(Self {
            devices,
            interconnect: self.interconnect.clone(),
        })
    }
}

/// One device's share of a sharded run: the kernels it executes plus the
/// bytes that must move onto it first. The placement layer
/// (`warpdrive_core::place`) produces these; `ingress_bytes` carries
/// ciphertext movement and `key_bytes` carries key-material migration —
/// split out so reports can show which one dominates.
#[derive(Debug, Clone, Default)]
pub struct DeviceWork {
    /// Kernels this device runs, serially, in order.
    pub kernels: Vec<KernelProfile>,
    /// Ciphertext bytes transferred onto the device before compute.
    pub ingress_bytes: f64,
    /// Key-material bytes migrated onto the device before compute.
    pub key_bytes: f64,
}

impl DeviceWork {
    /// Work with kernels only (data already resident).
    pub fn resident(kernels: Vec<KernelProfile>) -> Self {
        Self {
            kernels,
            ..Self::default()
        }
    }

    /// Total bytes the interconnect must move for this device.
    pub fn transfer_bytes(&self) -> f64 {
        self.ingress_bytes + self.key_bytes
    }
}

/// Runs kernel work sharded across the devices of a [`MultiGpuSpec`].
///
/// Each device is one serial lane (like [`Simulator::run_lanes`], one lane
/// per device); before a device's first kernel starts, its ciphertext/key
/// ingress is charged through the interconnect. Wall time is the slowest
/// device's finish time — the quantity the scaling curve in
/// `results/shard_scaling.txt` is built from.
#[derive(Debug, Clone)]
pub struct ShardedSimulator {
    spec: MultiGpuSpec,
    sims: Vec<Simulator>,
}

impl ShardedSimulator {
    /// Creates a sharded simulator.
    pub fn new(spec: MultiGpuSpec) -> Self {
        let sims = spec.devices().iter().cloned().map(Simulator::new).collect();
        Self { spec, sims }
    }

    /// The multi-device configuration being modeled.
    pub fn spec(&self) -> &MultiGpuSpec {
        &self.spec
    }

    /// Models one sharded run. `work` is indexed by device; entries beyond
    /// [`MultiGpuSpec::device_count`] are rejected by panic (a placement
    /// bug, not a runtime condition). Timeline lanes are device indices;
    /// each device's ingress transfer appears as a `xfer.dev<i>` span.
    pub fn run_devices(&self, work: &[DeviceWork]) -> RunReport {
        assert!(
            work.len() <= self.spec.device_count(),
            "placement produced {} device lanes for {} devices",
            work.len(),
            self.spec.device_count()
        );
        let _span = wd_trace::span("sim", "run_devices");
        let mut entries = Vec::new();
        let mut stats = Vec::new();
        let mut wall = 0.0f64;
        for (dev, dw) in work.iter().enumerate() {
            let sim = &self.sims[dev];
            let mut t = self.spec.interconnect.transfer_us(dw.transfer_bytes());
            if t > 0.0 {
                entries.push(TimelineEntry {
                    name: format!("xfer.dev{dev}"),
                    lane: dev,
                    start_us: 0.0,
                    end_us: t,
                });
            }
            for k in &dw.kernels {
                let st = sim.run_kernel(k);
                let start = t + sim.spec().kernel_launch_us;
                let end = start + st.exec_us;
                entries.push(TimelineEntry {
                    name: k.name.clone(),
                    lane: dev,
                    start_us: start,
                    end_us: end,
                });
                t = end;
                stats.push((k.clone(), st));
            }
            wall = wall.max(t);
        }
        emit_device_timeline(&entries);
        RunReport::new(stats, Timeline::new(entries), wall)
    }
}

/// Mirrors the modeled device timeline onto the tracer's virtual tracks
/// (`gpu.dev<i>`), recorded only at `WD_TRACE=full` like the single-device
/// lane export.
fn emit_device_timeline(entries: &[TimelineEntry]) {
    if wd_trace::level() != wd_trace::TraceLevel::Full {
        return;
    }
    for e in entries {
        wd_trace::virtual_span(&format!("gpu.dev{}", e.lane), &e.name, e.start_us, e.end_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{LaunchConfig, WorkProfile};

    fn kernel(bytes: f64) -> KernelProfile {
        KernelProfile::new(
            "hmult",
            LaunchConfig::new(2048, 256),
            WorkProfile {
                int32_ops: bytes / 4.0,
                gmem_read_bytes: bytes * 0.6,
                gmem_write_bytes: bytes * 0.4,
                instructions: bytes / 16.0,
                lsu_instructions: bytes / 20.0,
                ..Default::default()
            },
        )
    }

    fn nvlink_pair() -> ShardedSimulator {
        ShardedSimulator::new(MultiGpuSpec::homogeneous(
            2,
            GpuSpec::a100_pcie_80g(),
            InterconnectSpec::nvlink(),
        ))
    }

    #[test]
    fn transfer_cost_is_zero_only_for_zero_bytes() {
        let link = InterconnectSpec::nvlink();
        assert_eq!(link.transfer_us(0.0), 0.0);
        let t = link.transfer_us(1.0);
        assert!(t >= link.setup_us + link.latency_us);
        // 1 GB at 300 GB/s ≈ 3.3 ms, plus fixed costs.
        let big = link.transfer_us(1e9);
        assert!(big > 3000.0 && big < 4000.0, "t = {big}");
    }

    #[test]
    fn pcie_transfers_cost_more_than_nvlink() {
        let bytes = 64.0 * 1024.0 * 1024.0;
        assert!(
            InterconnectSpec::pcie().transfer_us(bytes)
                > 5.0 * InterconnectSpec::nvlink().transfer_us(bytes)
        );
    }

    #[test]
    fn two_devices_with_free_ingress_halve_wall_time() {
        let sim = nvlink_pair();
        let ks: Vec<KernelProfile> = (0..8).map(|_| kernel(1e8)).collect();
        let one = sim.run_devices(&[DeviceWork::resident(ks.clone())]);
        let two = sim.run_devices(&[
            DeviceWork::resident(ks[..4].to_vec()),
            DeviceWork::resident(ks[4..].to_vec()),
        ]);
        assert!(two.total_time_us() < 0.6 * one.total_time_us());
        assert_eq!(two.kernel_count(), one.kernel_count());
    }

    #[test]
    fn ingress_transfer_delays_the_lane() {
        let sim = nvlink_pair();
        let ks = vec![kernel(1e7)];
        let free = sim.run_devices(&[DeviceWork::resident(ks.clone())]);
        let paid = sim.run_devices(&[DeviceWork {
            kernels: ks,
            ingress_bytes: 1e9,
            key_bytes: 1e9,
        }]);
        let xfer = sim.spec().interconnect.transfer_us(2e9);
        assert!((paid.total_time_us() - free.total_time_us() - xfer).abs() < 1e-6);
        // The transfer shows up as its own timeline span on the lane.
        assert!(paid
            .timeline()
            .entries()
            .iter()
            .any(|e| e.name == "xfer.dev0"));
    }

    #[test]
    fn timeline_lanes_are_device_indices() {
        let sim = ShardedSimulator::new(MultiGpuSpec::homogeneous(
            4,
            GpuSpec::a100_pcie_80g(),
            InterconnectSpec::pcie(),
        ));
        let work: Vec<DeviceWork> = (0..4)
            .map(|_| DeviceWork::resident(vec![kernel(1e6)]))
            .collect();
        let rep = sim.run_devices(&work);
        assert_eq!(rep.timeline().lanes(), 4);
    }

    #[test]
    fn heterogeneous_devices_use_their_own_spec() {
        // Same kernel on a V100 lane vs an A100 lane: the V100 lane ends
        // later, and the wall time is the slower lane.
        let spec = MultiGpuSpec::new(
            vec![GpuSpec::a100_pcie_80g(), GpuSpec::v100()],
            InterconnectSpec::pcie(),
        );
        let sim = ShardedSimulator::new(spec);
        let k = vec![kernel(1e8)];
        let rep = sim.run_devices(&[
            DeviceWork::resident(k.clone()),
            DeviceWork::resident(k.clone()),
        ]);
        let ends: Vec<f64> = (0..2)
            .map(|lane| {
                rep.timeline()
                    .entries()
                    .iter()
                    .filter(|e| e.lane == lane)
                    .map(|e| e.end_us)
                    .fold(0.0, f64::max)
            })
            .collect();
        assert!(ends[1] > ends[0], "V100 lane must be slower: {ends:?}");
        assert!((rep.total_time_us() - ends[1]).abs() < 1e-9);
    }

    #[test]
    fn without_device_shrinks_and_bottoms_out() {
        let spec = MultiGpuSpec::homogeneous(2, GpuSpec::a100_pcie_80g(), InterconnectSpec::pcie());
        let one = spec.without_device(1).expect("2 -> 1");
        assert_eq!(one.device_count(), 1);
        assert!(one.without_device(0).is_none(), "last device must remain");
        assert!(spec.without_device(7).is_none(), "out of range");
    }
}
