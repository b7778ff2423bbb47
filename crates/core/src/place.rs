//! Device placement: sharding one batch across N modeled devices.
//!
//! [`crate::sched::ParScheduler`] splits one thread budget between the op
//! and limb axes *within* a device. This module adds the axis above it:
//! given N modeled devices, a [`Placer`] shards a batch across
//! per-device queues using the same host cost model
//! ([`crate::cost::host_heavy_op_instrs`] and friends) plus a modeled key
//! working set — keyswitch keys become *resident* on a device the first
//! time a heavy op lands there, and moving heavy work to a device without
//! resident keys prices a key re-transfer into the placement cost. That is
//! the on-device-bandwidth vs. interconnect split the multi-GPU FHE
//! literature (PAPERS.md) identifies as decisive; the GPU-side twin of this
//! model is `wd_gpu_sim::ShardedSimulator`, which charges the same bytes
//! through an NVLink/PCIe-class link.
//!
//! # Configuration
//!
//! Device count and policy are values: [`Placer::new`] takes the count and
//! [`Placer::with_policy`] the policy — [`PlacePolicy::RoundRobin`] (op *i*
//! to device *i* mod N), [`PlacePolicy::Bytes`] (greedy least-loaded by
//! ciphertext bytes) or [`PlacePolicy::Auto`] (greedy least-loaded by
//! modeled instructions + key-migration penalty, the default).
//!
//! # Thread-budget composition
//!
//! A placement composes with [`crate::sched::ParScheduler`] by *dividing*
//! the global budget across active device lanes
//! ([`Placement::thread_budgets`]): every active lane gets at least one
//! thread, and the sum over any concurrently-executing set of lanes
//! ([`Placement::concurrency`] caps that set) never exceeds the budget —
//! the per-device extension of the scheduler's "never multiply implicitly"
//! rule.

use crate::batch::BatchOp;
use crate::cost;

/// Modeled host instructions charged per key byte migrated to a device
/// without resident keys (prices PCIe-class movement against compute).
const KEY_XFER_INSTR_PER_BYTE: f64 = 0.25;

/// How a [`Placer`] assigns ops to device lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacePolicy {
    /// Op `i` goes to device `i % N` — oblivious, zero-state baseline.
    RoundRobin,
    /// Greedy least-loaded by ciphertext bytes moved to each device.
    Bytes,
    /// Greedy least-loaded by modeled host instructions, with the key
    /// working set priced in (the default; see the module docs).
    #[default]
    Auto,
}

/// One device's share of a placement: op indices into the original batch
/// plus the modeled load the placement charged for them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceLane {
    /// Indices into the placed batch, in original batch order.
    pub ops: Vec<usize>,
    /// Modeled host instructions for this lane's ops.
    pub instrs: f64,
    /// Ciphertext bytes moved onto this device.
    pub ct_bytes: f64,
    /// Key working-set bytes migrated onto this device (charged once, when
    /// the first heavy op lands; keys are resident afterwards).
    pub key_bytes: f64,
}

/// The result of sharding one batch: one [`DeviceLane`] per device (lanes
/// for lost or unused devices are empty).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    lanes: Vec<DeviceLane>,
}

impl Placement {
    /// Per-device lanes, indexed by device.
    pub fn lanes(&self) -> &[DeviceLane] {
        &self.lanes
    }

    /// Number of lanes with at least one op.
    pub fn active(&self) -> usize {
        self.lanes.iter().filter(|l| !l.ops.is_empty()).count()
    }

    /// Splits a global thread budget across lanes: active lanes get
    /// `budget / active` threads each (never less than one), heaviest lanes
    /// first for the remainder; empty lanes get zero. When
    /// `budget >= active` the budgets sum to at most `budget`; when
    /// `budget < active` every active lane gets one thread and
    /// [`Placement::concurrency`] limits how many run at once, so the sum
    /// over any concurrent set still never exceeds the budget.
    pub fn thread_budgets(&self, budget: usize) -> Vec<usize> {
        let budget = budget.max(1);
        let active = self.active();
        if active == 0 {
            return vec![0; self.lanes.len()];
        }
        let base = (budget / active).max(1);
        let mut spare = budget.saturating_sub(base * active);
        // Rank active lanes by modeled load so leftovers go where they help.
        let mut ranked: Vec<usize> = (0..self.lanes.len())
            .filter(|&i| !self.lanes[i].ops.is_empty())
            .collect();
        ranked.sort_by(|&a, &b| {
            self.lanes[b]
                .instrs
                .total_cmp(&self.lanes[a].instrs)
                .then(a.cmp(&b))
        });
        let mut budgets = vec![0usize; self.lanes.len()];
        for &i in &ranked {
            budgets[i] = base;
        }
        for &i in &ranked {
            if spare == 0 {
                break;
            }
            budgets[i] += 1;
            spare -= 1;
        }
        budgets
    }

    /// Largest number of lanes that may execute concurrently under
    /// `budget` threads without oversubscription.
    pub fn concurrency(&self, budget: usize) -> usize {
        self.active().min(budget.max(1)).max(1)
    }
}

/// Per-op shape the cost model needs (mirrors
/// [`crate::sched::BatchShape`], but per op rather than per batch).
#[derive(Debug, Clone, Copy)]
struct OpLoad {
    instrs: f64,
    ct_bytes: f64,
    key_bytes: f64,
    heavy: bool,
}

fn op_load(op: &BatchOp<'_>) -> OpLoad {
    let (ct, heavy) = match op {
        BatchOp::HAdd(a, _)
        | BatchOp::HSub(a, _)
        | BatchOp::Rescale(a)
        | BatchOp::HNeg(a)
        | BatchOp::PMult(a, _)
        | BatchOp::AddPlain(a, _)
        | BatchOp::LevelDrop(a, _) => (a, false),
        BatchOp::HMult(a, _) | BatchOp::HRotate(a, _) => (a, true),
    };
    let degree = ct.c0.degree();
    let limbs = ct.c0.limb_count();
    let instrs = if heavy {
        cost::host_heavy_op_instrs(degree, limbs)
    } else {
        cost::host_light_op_instrs(degree, limbs)
    };
    OpLoad {
        instrs,
        ct_bytes: ct_bytes(degree, limbs),
        key_bytes: key_working_set_bytes(degree, limbs),
        heavy,
    }
}

/// Modeled ciphertext size: two polynomials of `limbs` RNS limbs.
pub fn ct_bytes(degree: usize, limbs: usize) -> f64 {
    2.0 * limbs as f64 * degree as f64 * cost::WORD_BYTES
}

/// Modeled keyswitch-key working set: `limbs` digits of two polynomials,
/// each `limbs` limbs wide — the bytes that must be resident before a
/// heavy op can run on a device.
pub fn key_working_set_bytes(degree: usize, limbs: usize) -> f64 {
    2.0 * (limbs as f64).powi(2) * degree as f64 * cost::WORD_BYTES
}

/// Deterministic device-placement policy over N modeled devices (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placer {
    devices: usize,
    policy: PlacePolicy,
}

impl Placer {
    /// A placer over an explicit device count (min 1), policy
    /// [`PlacePolicy::Auto`].
    pub fn new(devices: usize) -> Self {
        Self {
            devices: devices.max(1),
            policy: PlacePolicy::Auto,
        }
    }

    /// Replaces the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PlacePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The device count.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The placement policy.
    pub fn policy(&self) -> PlacePolicy {
        self.policy
    }

    /// Shards `batch` across all devices. Deterministic: the same batch,
    /// device count and policy always produce the same placement.
    pub fn place(&self, batch: &[BatchOp<'_>]) -> Placement {
        self.place_surviving(batch, &(0..self.devices).collect::<Vec<_>>())
    }

    /// Shards `batch` across the surviving device indices only — the
    /// device-loss degrade ladder re-places against this. An empty
    /// `alive` set yields all-empty lanes (the caller then degrades to
    /// host-sequential execution).
    pub fn place_surviving(&self, batch: &[BatchOp<'_>], alive: &[usize]) -> Placement {
        let mut lanes = vec![DeviceLane::default(); self.devices];
        let alive: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&d| d < self.devices)
            .collect();
        if alive.is_empty() {
            return Placement { lanes };
        }
        for (i, op) in batch.iter().enumerate() {
            let load = op_load(op);
            let dev = match self.policy {
                PlacePolicy::RoundRobin => alive[i % alive.len()],
                PlacePolicy::Bytes => alive
                    .iter()
                    .copied()
                    .min_by(|&a, &b| lanes[a].ct_bytes.total_cmp(&lanes[b].ct_bytes))
                    .expect("alive is non-empty"),
                PlacePolicy::Auto => alive
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let cost_of = |d: usize| {
                            let migrate = if load.heavy && lanes[d].key_bytes == 0.0 {
                                load.key_bytes * KEY_XFER_INSTR_PER_BYTE
                            } else {
                                0.0
                            };
                            lanes[d].instrs + load.instrs + migrate
                        };
                        cost_of(a).total_cmp(&cost_of(b))
                    })
                    .expect("alive is non-empty"),
            };
            let lane = &mut lanes[dev];
            lane.ops.push(i);
            lane.instrs += load.instrs;
            lane.ct_bytes += load.ct_bytes;
            if load.heavy && lane.key_bytes == 0.0 {
                lane.key_bytes = load.key_bytes;
            }
        }
        let placement = Placement { lanes };
        if wd_trace::enabled() {
            wd_trace::counter("place.placements", 1);
            wd_trace::event(
                "place",
                "shard",
                &[
                    ("policy", format!("{:?}", self.policy).to_lowercase()),
                    ("devices", self.devices.to_string()),
                    ("alive", alive.len().to_string()),
                    ("batch", batch.len().to_string()),
                    ("active", placement.active().to_string()),
                ],
            );
        }
        placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ckks::cipher::Ciphertext;
    use wd_ckks::params::ParamSet;
    use wd_ckks::CkksContext;

    fn ctx() -> CkksContext {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("toy params");
        CkksContext::with_seed(params, 2024).expect("context")
    }

    fn cts(ctx: &CkksContext, n: usize) -> Vec<Ciphertext> {
        let kp = ctx.keygen();
        (0..n)
            .map(|i| {
                ctx.encrypt_values(&[i as f64 * 0.25, 1.0], &kp.public)
                    .expect("encrypt")
            })
            .collect()
    }

    fn mixed_batch(cts: &[Ciphertext]) -> Vec<BatchOp<'_>> {
        cts.windows(2)
            .enumerate()
            .map(|(i, w)| {
                if i % 2 == 0 {
                    BatchOp::HMult(&w[0], &w[1])
                } else {
                    BatchOp::HAdd(&w[0], &w[1])
                }
            })
            .collect()
    }

    #[test]
    fn roundrobin_is_oblivious() {
        let ctx = ctx();
        let cs = cts(&ctx, 9);
        let batch = mixed_batch(&cs);
        let p = Placer::new(4)
            .with_policy(PlacePolicy::RoundRobin)
            .place(&batch);
        for (i, lane) in p.lanes().iter().enumerate() {
            for &op in &lane.ops {
                assert_eq!(op % 4, i);
            }
        }
        assert_eq!(p.active(), 4);
    }

    #[test]
    fn every_op_is_placed_exactly_once() {
        let ctx = ctx();
        let cs = cts(&ctx, 10);
        let batch = mixed_batch(&cs);
        for policy in [
            PlacePolicy::RoundRobin,
            PlacePolicy::Bytes,
            PlacePolicy::Auto,
        ] {
            for devices in [1usize, 2, 3, 8] {
                let p = Placer::new(devices).with_policy(policy).place(&batch);
                let mut seen: Vec<usize> = p
                    .lanes()
                    .iter()
                    .flat_map(|l| l.ops.iter().copied())
                    .collect();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..batch.len()).collect::<Vec<_>>(),
                    "{policy:?}/{devices}"
                );
            }
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let ctx = ctx();
        let cs = cts(&ctx, 8);
        let batch = mixed_batch(&cs);
        let placer = Placer::new(4);
        assert_eq!(placer.place(&batch), placer.place(&batch));
    }

    #[test]
    fn auto_prices_key_migration_and_spreads_load() {
        // Enough heavy ops for every device: auto must use all devices
        // (spreading beats key-migration cost at this batch size), and each
        // lane that got a heavy op is charged the key working set once.
        let ctx = ctx();
        let cs = cts(&ctx, 17);
        let batch: Vec<BatchOp> = cs
            .windows(2)
            .map(|w| BatchOp::HMult(&w[0], &w[1]))
            .collect();
        let p = Placer::new(4).place(&batch);
        assert_eq!(p.active(), 4);
        let degree = cs[0].c0.degree();
        let limbs = cs[0].c0.limb_count();
        for lane in p.lanes() {
            assert_eq!(lane.key_bytes, key_working_set_bytes(degree, limbs));
        }
    }

    #[test]
    fn bytes_policy_balances_ciphertext_bytes() {
        let ctx = ctx();
        let cs = cts(&ctx, 9);
        let batch = mixed_batch(&cs);
        let p = Placer::new(2).with_policy(PlacePolicy::Bytes).place(&batch);
        let (a, b) = (p.lanes()[0].ct_bytes, p.lanes()[1].ct_bytes);
        assert!((a - b).abs() <= ct_bytes(cs[0].c0.degree(), cs[0].c0.limb_count()));
    }

    #[test]
    fn thread_budgets_never_oversubscribe_concurrent_lanes() {
        let ctx = ctx();
        let cs = cts(&ctx, 12);
        let batch = mixed_batch(&cs);
        for devices in [1usize, 2, 4, 8] {
            for budget in [1usize, 2, 3, 4, 7, 16] {
                let p = Placer::new(devices).place(&batch);
                let budgets = p.thread_budgets(budget);
                assert_eq!(budgets.len(), devices);
                let conc = p.concurrency(budget);
                for (i, lane) in p.lanes().iter().enumerate() {
                    if lane.ops.is_empty() {
                        assert_eq!(budgets[i], 0);
                    } else {
                        assert!(budgets[i] >= 1);
                    }
                }
                // Any concurrent set is at most `conc` lanes; the worst
                // case is the `conc` largest budgets.
                let mut sorted: Vec<usize> = budgets.iter().copied().filter(|&b| b > 0).collect();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                let worst: usize = sorted.iter().take(conc).sum();
                assert!(
                    worst <= budget.max(1),
                    "devices {devices} budget {budget}: budgets {budgets:?} conc {conc}"
                );
            }
        }
    }

    #[test]
    fn surviving_placement_avoids_lost_devices() {
        let ctx = ctx();
        let cs = cts(&ctx, 9);
        let batch = mixed_batch(&cs);
        let placer = Placer::new(4);
        let p = placer.place_surviving(&batch, &[0, 2]);
        assert!(p.lanes()[1].ops.is_empty() && p.lanes()[3].ops.is_empty());
        assert_eq!(p.active(), 2);
        let none = placer.place_surviving(&batch, &[]);
        assert_eq!(none.active(), 0);
        assert_eq!(none.thread_budgets(4), vec![0; 4]);
    }

    #[test]
    fn empty_batch_is_harmless() {
        let p = Placer::new(4).place(&[]);
        assert_eq!(p.active(), 0);
        assert_eq!(p.concurrency(8), 1);
    }
}
