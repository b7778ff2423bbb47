//! The roofline-plus-occupancy timing model.

use crate::kernel::KernelProfile;
use crate::report::RunReport;
use crate::spec::GpuSpec;
use crate::stalls::StallBreakdown;
use crate::timeline::{Timeline, TimelineEntry};

/// Which resource bounded a kernel's runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// INT32 (CUDA-core) throughput.
    Int32,
    /// Tensor-core throughput.
    Tensor,
    /// Off-chip memory bandwidth.
    Gmem,
    /// Shared-memory bandwidth.
    Smem,
    /// Instruction issue.
    Issue,
}

/// Modeled execution result for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Wall time including launch overhead, microseconds.
    pub time_us: f64,
    /// Execution time excluding launch overhead, microseconds.
    pub exec_us: f64,
    /// Wall clock cycles (`time_us × clock`).
    pub cycles: f64,
    /// Scheduler issue slots spent issuing ("Selected" in Fig. 5):
    /// instructions / (SMs × schedulers), in cycles.
    pub issue_cycles: f64,
    /// Slots in which eligible warps could not issue, attributed per class.
    pub stalls: StallBreakdown,
    /// Compute throughput utilization in \[0, 1\] (Nsight "Compute (SM) Throughput").
    pub compute_util: f64,
    /// Memory throughput utilization in \[0, 1\] (Nsight "Memory Throughput").
    pub memory_util: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
}

impl KernelStats {
    /// Stall cycles per issued instruction — Table II's headline metric.
    pub fn stalls_per_instruction(&self) -> f64 {
        if self.issue_cycles <= 0.0 {
            0.0
        } else {
            self.stalls.total() / self.issue_cycles
        }
    }
}

/// Deterministic analytic simulator for a [`GpuSpec`].
///
/// # Examples
///
/// ```
/// use wd_gpu_sim::{GpuSpec, KernelProfile, LaunchConfig, Simulator, WorkProfile};
/// let sim = Simulator::new(GpuSpec::a100_pcie_80g());
/// let k = KernelProfile::new(
///     "axpy",
///     LaunchConfig::new(1024, 256),
///     WorkProfile { int32_ops: 1e8, gmem_read_bytes: 8e8, gmem_write_bytes: 4e8,
///                   instructions: 5e7, lsu_instructions: 2e7, ..Default::default() },
/// );
/// let stats = sim.run_kernel(&k);
/// assert!(stats.time_us > 0.0);
/// assert!(stats.memory_util > stats.compute_util); // bandwidth bound
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    spec: GpuSpec,
}

/// Extra scheduler cycles charged per thread block (dispatch + tail).
const BLOCK_OVERHEAD_CYCLES: f64 = 10.0;
/// Resident warps per SM needed to fully hide pipeline latency.
const LATENCY_HIDING_WARPS: f64 = 16.0;
/// Barrier/sync slowdown coefficient for very large blocks (superlinear —
/// a 1024-thread barrier is far costlier than four 256-thread ones).
const BLOCK_SYNC_PENALTY: f64 = 0.6;

impl Simulator {
    /// Creates a simulator for the given device.
    pub fn new(spec: GpuSpec) -> Self {
        Self { spec }
    }

    /// The device being modeled.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Occupancy analysis: resident blocks per SM under the thread, block,
    /// shared-memory and register limits.
    pub fn blocks_per_sm(&self, k: &KernelProfile) -> u32 {
        let s = &self.spec;
        let t = k.launch.threads_per_block.max(1);
        let by_threads = s.max_threads_per_sm / t;
        let by_blocks = s.max_blocks_per_sm;
        let by_smem = s
            .smem_per_sm_bytes
            .checked_div(k.launch.smem_per_block_bytes)
            .unwrap_or(u32::MAX);
        let regs_per_block = t * k.launch.regs_per_thread.max(1);
        let by_regs = s.regs_per_sm / regs_per_block.max(1);
        by_threads.min(by_blocks).min(by_smem).min(by_regs)
    }

    /// Parallel efficiency in \[0, 1\]: latency hiding × wave quantization.
    pub fn parallel_efficiency(&self, k: &KernelProfile) -> f64 {
        let s = &self.spec;
        let bps = self.blocks_per_sm(k);
        if bps == 0 {
            return 0.05; // kernel barely fits; serialized execution
        }
        let resident_capacity = u64::from(bps) * u64::from(s.sm_count);
        let resident_blocks = k.launch.blocks.min(resident_capacity);
        let warps_per_sm = resident_blocks as f64 * f64::from(k.launch.threads_per_block)
            / 32.0
            / f64::from(s.sm_count);
        // Even a single resident warp makes some progress; the floor keeps
        // tiny per-polynomial kernels (Liberate-style) slow but finite.
        let latency_hiding = (warps_per_sm / LATENCY_HIDING_WARPS).clamp(0.2, 1.0);
        let waves = (k.launch.blocks as f64 / resident_capacity as f64)
            .ceil()
            .max(1.0);
        let quantization = k.launch.blocks as f64 / (waves * resident_capacity as f64).max(1.0);
        latency_hiding * quantization.clamp(0.05, 1.0)
    }

    /// Models one kernel launch.
    pub fn run_kernel(&self, k: &KernelProfile) -> KernelStats {
        wd_trace::counter("sim.kernel_launches", 1);
        let s = &self.spec;
        let eff = self.parallel_efficiency(k);
        let w = &k.work;

        let t_int32 = w.int32_ops / (s.int32_ops_per_sec() * s.int32_efficiency * eff);
        let t_tensor = if s.tensor_cores_per_sm == 0 {
            if w.tensor_macs > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            w.tensor_macs / (s.tensor_macs_per_sec() * s.tensor_efficiency * eff)
        };
        let t_gmem = w.gmem_bytes() / (s.gmem_bw_gbps * 1e9 * s.mem_efficiency);
        let t_smem = w.smem_accesses / (s.smem_accesses_per_sec() * eff);
        let t_issue = w.instructions / (s.issue_rate_per_sec() * eff);

        let components = [
            (t_int32, Bottleneck::Int32),
            (t_tensor, Bottleneck::Tensor),
            (t_gmem, Bottleneck::Gmem),
            (t_smem, Bottleneck::Smem),
            (t_issue, Bottleneck::Issue),
        ];
        let (t_exec_raw, bottleneck) =
            components
                .iter()
                .fold((0.0f64, Bottleneck::Issue), |(bt, bb), &(t, b)| {
                    if t > bt {
                        (t, b)
                    } else {
                        (bt, bb)
                    }
                });

        // Barrier overhead grows superlinearly with block size; block
        // dispatch overhead grows with grid size. Together they produce the
        // Fig. 7 U-shape with its optimum near T = 256.
        let sync_mult =
            1.0 + BLOCK_SYNC_PENALTY * (f64::from(k.launch.threads_per_block) / 1024.0).powf(2.5);
        let block_overhead_s = k.launch.blocks as f64 * BLOCK_OVERHEAD_CYCLES
            / (f64::from(s.sm_count) * s.clock_ghz * 1e9);
        let exec_s = t_exec_raw * sync_mult + block_overhead_s;
        let exec_us = exec_s * 1e6;
        let time_us = exec_us + s.kernel_launch_us;

        let clock_hz = s.clock_ghz * 1e9;
        let cycles = exec_s * clock_hz;
        // Issue slots actually used, normalized per scheduler:
        let issue_cycles =
            w.instructions / (f64::from(s.sm_count) * f64::from(s.warp_schedulers_per_sm));
        let total_slots = cycles; // per-scheduler cycle count == wall cycles
        let stall_total = (total_slots - issue_cycles).max(0.0);

        let denom = t_exec_raw.max(1e-30);
        let stalls = StallBreakdown::attribute(
            stall_total,
            (t_gmem / denom).clamp(0.0, 1.0),
            (t_smem / denom).clamp(0.0, 1.0),
            (t_int32.max(t_tensor) / denom).clamp(0.0, 1.0),
            w.lsu_fraction(),
        );

        // Nsight-style throughput utilizations. Memory is reported against
        // peak DRAM bandwidth (Nsight's "Memory Throughput"). Compute is
        // reported against a calibrated reference of 2x the sustained FHE
        // kernel rate — Nsight's "Compute (SM) Throughput" is a max over
        // pipe-activity counters and sits well above the raw MAC rate for
        // instruction-mix-heavy kernels. Occupancy and launch-gap dilution
        // still push both metrics down, which is the effect Tables III, IX
        // and X measure.
        let exec_span = exec_s.max(1e-30);
        let ideal_int32 = w.int32_ops / (s.int32_ops_per_sec() * s.int32_efficiency * 2.0);
        let ideal_tensor = if s.tensor_cores_per_sm == 0 {
            0.0
        } else {
            w.tensor_macs / (s.tensor_macs_per_sec() * s.tensor_efficiency * 2.0)
        };
        let ideal_gmem = w.gmem_bytes() / (s.gmem_bw_gbps * 1e9);
        let ideal_smem = w.smem_accesses / s.smem_accesses_per_sec();
        let compute_util = (ideal_int32.max(ideal_tensor) / exec_span).clamp(0.0, 1.0);
        // Memory throughput spans DRAM and the on-chip (L1/shared) pipes.
        let memory_util = ((ideal_gmem + ideal_smem) / exec_span).clamp(0.0, 1.0);

        KernelStats {
            time_us,
            exec_us,
            cycles,
            issue_cycles,
            stalls,
            compute_util,
            memory_util,
            bottleneck,
        }
    }

    /// Models a serial sequence of kernel launches (one CUDA stream),
    /// producing a full report with timeline.
    pub fn run_sequence(&self, kernels: &[KernelProfile]) -> RunReport {
        let _span = wd_trace::span("sim", "run_sequence");
        let mut t = 0.0f64;
        let mut entries = Vec::with_capacity(kernels.len());
        let mut stats = Vec::with_capacity(kernels.len());
        for k in kernels {
            let st = self.run_kernel(k);
            let start = t + self.spec.kernel_launch_us;
            let end = start + st.exec_us;
            entries.push(TimelineEntry {
                name: k.name.clone(),
                lane: 0,
                start_us: start,
                end_us: end,
            });
            t = end;
            stats.push((k.clone(), st));
        }
        emit_virtual_timeline(&entries);
        RunReport::new(stats, Timeline::new(entries), t)
    }

    /// Models `lanes` of kernels running concurrently (e.g. tensor-core
    /// warps and CUDA-core warps of the same fused kernel, or independent
    /// streams). Each lane runs serially; the wall time is the slowest lane.
    pub fn run_lanes(&self, lanes: &[Vec<KernelProfile>]) -> RunReport {
        let _span = wd_trace::span("sim", "run_lanes");
        let mut entries = Vec::new();
        let mut stats = Vec::new();
        let mut wall = 0.0f64;
        for (lane_idx, lane) in lanes.iter().enumerate() {
            let mut t = 0.0f64;
            for k in lane {
                let st = self.run_kernel(k);
                let start = t + self.spec.kernel_launch_us;
                let end = start + st.exec_us;
                entries.push(TimelineEntry {
                    name: k.name.clone(),
                    lane: lane_idx,
                    start_us: start,
                    end_us: end,
                });
                t = end;
                stats.push((k.clone(), st));
            }
            wall = wall.max(t);
        }
        emit_virtual_timeline(&entries);
        RunReport::new(stats, Timeline::new(entries), wall)
    }
}

/// Mirrors a modeled timeline onto the tracer's virtual (pid 2) tracks so
/// the Chrome-trace export shows the simulated GPU lanes next to the host
/// spans. Recorded only at `WD_TRACE=full`; the level check here skips the
/// per-entry work entirely otherwise.
fn emit_virtual_timeline(entries: &[TimelineEntry]) {
    if wd_trace::level() != wd_trace::TraceLevel::Full {
        return;
    }
    for e in entries {
        wd_trace::virtual_span(
            &format!("gpu.lane{}", e.lane),
            &e.name,
            e.start_us,
            e.end_us,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{LaunchConfig, WorkProfile};

    fn sim() -> Simulator {
        Simulator::new(GpuSpec::a100_pcie_80g())
    }

    fn mem_kernel(bytes: f64) -> KernelProfile {
        KernelProfile::new(
            "membound",
            LaunchConfig::new(2048, 256),
            WorkProfile {
                int32_ops: bytes / 100.0,
                gmem_read_bytes: bytes * 0.6,
                gmem_write_bytes: bytes * 0.4,
                instructions: bytes / 16.0,
                lsu_instructions: bytes / 20.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn more_work_takes_no_less_time() {
        let s = sim();
        let mut prev = 0.0;
        for scale in [1.0, 2.0, 4.0, 8.0] {
            let t = s.run_kernel(&mem_kernel(1e8 * scale)).time_us;
            assert!(t >= prev, "time must be monotone in work");
            prev = t;
        }
    }

    #[test]
    fn bandwidth_bound_kernel_near_roofline() {
        // 1 GB of traffic at ~1.5 TB/s effective should take ~0.66 ms.
        let st = sim().run_kernel(&mem_kernel(1e9));
        assert!(
            st.time_us > 400.0 && st.time_us < 1200.0,
            "t = {}",
            st.time_us
        );
        assert_eq!(st.bottleneck, Bottleneck::Gmem);
        // A bandwidth-bound kernel sustains ≈ mem_efficiency of peak.
        assert!(st.memory_util > 0.7, "util = {}", st.memory_util);
    }

    #[test]
    fn utilizations_are_bounded() {
        let st = sim().run_kernel(&mem_kernel(1e8));
        assert!((0.0..=1.0).contains(&st.compute_util));
        assert!((0.0..=1.0).contains(&st.memory_util));
        assert!(st.stalls.memory_fraction() <= 1.0);
    }

    #[test]
    fn tensor_work_on_device_without_tensor_cores_is_infeasible() {
        let mut spec = GpuSpec::a100_pcie_80g();
        spec.tensor_cores_per_sm = 0;
        let s = Simulator::new(spec);
        let k = KernelProfile::new(
            "mma",
            LaunchConfig::new(108, 256),
            WorkProfile {
                tensor_macs: 1e9,
                instructions: 1e6,
                ..Default::default()
            },
        );
        assert!(s.run_kernel(&k).time_us.is_infinite());
    }

    #[test]
    fn low_occupancy_slows_execution() {
        let s = sim();
        let mut big = mem_kernel(1e8);
        let mut small = mem_kernel(1e8);
        big.launch = LaunchConfig::new(2048, 256);
        small.launch = LaunchConfig::new(4, 256); // 4 blocks on 108 SMs
                                                  // Make it compute bound so occupancy matters.
        big.work.int32_ops = 1e9;
        small.work.int32_ops = 1e9;
        big.work.gmem_read_bytes = 0.0;
        small.work.gmem_read_bytes = 0.0;
        big.work.gmem_write_bytes = 0.0;
        small.work.gmem_write_bytes = 0.0;
        assert!(s.run_kernel(&small).time_us > 2.0 * s.run_kernel(&big).time_us);
    }

    #[test]
    fn smem_limited_occupancy() {
        let s = sim();
        let mut k = mem_kernel(1e8);
        k.launch.smem_per_block_bytes = 96 * 1024; // one block per SM
        assert_eq!(s.blocks_per_sm(&k), 1);
        k.launch.smem_per_block_bytes = 16 * 1024;
        assert!(s.blocks_per_sm(&k) >= 8);
    }

    #[test]
    fn sequence_accumulates_launch_overhead() {
        let s = sim();
        let ks: Vec<KernelProfile> = (0..10).map(|_| mem_kernel(1e6)).collect();
        let one = s.run_kernel(&ks[0]);
        let rep = s.run_sequence(&ks);
        let serial_exec = 10.0 * one.exec_us;
        assert!(rep.total_time_us() >= serial_exec + 10.0 * s.spec().kernel_launch_us - 1e-9);
        assert_eq!(rep.kernel_count(), 10);
    }

    #[test]
    fn lanes_overlap_in_wall_time() {
        let s = sim();
        let k = mem_kernel(1e7);
        let serial = s.run_sequence(&[k.clone(), k.clone()]).total_time_us();
        let lanes = s
            .run_lanes(&[vec![k.clone()], vec![k.clone()]])
            .total_time_us();
        assert!(lanes < serial, "two lanes must beat serial");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_work() -> impl Strategy<Value = WorkProfile> {
            (
                0.0..1e10f64,
                0.0..1e11f64,
                0.0..1e9f64,
                0.0..1e9f64,
                0.0..1e9f64,
            )
                .prop_map(|(int32, macs, rd, wr, smem)| {
                    let instructions = int32 / 32.0 + macs / 4096.0 + (rd + wr) / 128.0;
                    WorkProfile {
                        int32_ops: int32,
                        tensor_macs: macs,
                        gmem_read_bytes: rd,
                        gmem_write_bytes: wr,
                        smem_accesses: smem,
                        instructions,
                        lsu_instructions: (rd + wr) / 128.0,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_time_positive_and_finite(w in arb_work(), blocks in 1u64..100_000) {
                let sim = Simulator::new(GpuSpec::a100_pcie_80g());
                let k = KernelProfile::new("k", LaunchConfig::new(blocks, 256), w);
                let st = sim.run_kernel(&k);
                prop_assert!(st.time_us.is_finite() && st.time_us > 0.0);
                prop_assert!(st.exec_us <= st.time_us);
            }

            #[test]
            fn prop_utilizations_bounded(w in arb_work()) {
                let sim = Simulator::new(GpuSpec::a100_pcie_80g());
                let k = KernelProfile::new("k", LaunchConfig::new(2048, 256), w);
                let st = sim.run_kernel(&k);
                prop_assert!((0.0..=1.0).contains(&st.compute_util));
                prop_assert!((0.0..=1.0).contains(&st.memory_util));
                prop_assert!(st.stalls.memory_fraction() <= 1.0 + 1e-9);
            }

            #[test]
            fn prop_doubling_work_never_speeds_up(w in arb_work()) {
                let sim = Simulator::new(GpuSpec::a100_pcie_80g());
                let k1 = KernelProfile::new("k", LaunchConfig::new(2048, 256), w);
                let double = w.merge(&w);
                let k2 = KernelProfile::new("k", LaunchConfig::new(2048, 256), double);
                prop_assert!(sim.run_kernel(&k2).exec_us >= sim.run_kernel(&k1).exec_us - 1e-9);
            }

            #[test]
            fn prop_sequence_time_exceeds_any_member(w in arb_work(), n in 1usize..6) {
                let sim = Simulator::new(GpuSpec::a100_pcie_80g());
                let k = KernelProfile::new("k", LaunchConfig::new(512, 256), w);
                let single = sim.run_kernel(&k).time_us;
                let seq = sim.run_sequence(&vec![k; n]);
                prop_assert!(seq.total_time_us() + 1e-9 >= single);
                prop_assert_eq!(seq.kernel_count(), n);
            }
        }
    }

    #[test]
    fn fused_tensor_and_cuda_can_beat_either_alone() {
        // The Fig. 6 effect in miniature: total work W split across the two
        // pipes finishes faster than on either pipe alone.
        let s = sim();
        let mk = |int32: f64, macs: f64| {
            KernelProfile::new(
                "ntt",
                LaunchConfig::new(2048, 256),
                WorkProfile {
                    int32_ops: int32,
                    tensor_macs: macs,
                    instructions: 1e7,
                    lsu_instructions: 1e6,
                    smem_accesses: 1e6,
                    ..Default::default()
                },
            )
        };
        // Same logical transform expressed three ways (tensor path needs
        // ~6x more raw MACs due to limb splitting; CUDA path uses 1x int32).
        let tensor_only = s.run_kernel(&mk(0.0, 6e10)).time_us;
        let cuda_only = s.run_kernel(&mk(1e10, 0.0)).time_us;
        // Offload ~15% of the transform to CUDA cores, the rest to tensor
        // cores (the INT32 pipe is ~25x slower, so its share must be small —
        // exactly the warp-ratio balancing of §IV-D-3).
        let fused = s.run_kernel(&mk(0.15e10, 5.1e10)).time_us;
        assert!(fused < tensor_only, "{fused} !< {tensor_only}");
        assert!(fused < cuda_only, "{fused} !< {cuda_only}");
    }
}
