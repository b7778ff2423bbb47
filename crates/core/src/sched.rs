//! Adaptive parallelism scheduling: one thread budget, two axes.
//!
//! The paper's PE kernels win by handing the GPU scheduler *all* the
//! parallelism of a ciphertext operation at once — every polynomial × RNS
//! limb in one grid — and letting occupancy fall out of workload shape
//! (§III-C, Table IX). The host mirror has the same two axes but must split
//! an explicit thread budget between them:
//!
//! - **Op level** ([`crate::BatchExecutor`]): independent whole-ciphertext
//!   operations fan out across workers — throughput for batched traffic.
//! - **Limb level** (`wd_polyring::par`, reached through the `threads`
//!   argument of `wd_ckks::ops::{hmult_with, hrotate_with, rescale_with}`):
//!   one operation's limb × polynomial work items fan out — latency for a
//!   single op.
//!
//! [`ParScheduler`] makes that split deterministic and cost-model-driven:
//! given the workload shape (batch size, ring degree N, limb count L, op
//! mix) it picks an op-level width and a limb-level width whose **product
//! never exceeds the budget**, using the host-side instruction estimates in
//! [`crate::cost`] (the same closed forms the GPU planners feed the
//! analytic simulator). Large batches favor op-level fan-out; small batches
//! of big ciphertexts favor limb-level splitting; tiny workloads degrade to
//! fully sequential because thread spawn cost dominates.
//!
//! # Configuration
//!
//! Budget and policy are values the caller passes (DESIGN.md §5d):
//! [`ParScheduler::new`] takes the global budget (every core is
//! `wd_polyring::par::available_threads()`), and
//! [`ParScheduler::with_policy`] picks the split — [`SchedPolicy::Op`],
//! [`SchedPolicy::Limb`] or the cost-model-driven [`SchedPolicy::Auto`]
//! (the default).
//!
//! `wd_ckks::CkksContext` holds no thread budget at all: the context-only
//! `wd_ckks::ops` functions run on one thread, and a limb width exists only
//! as the argument a scheduled [`crate::BatchExecutor`] hands each op from
//! its [`Split`]. That makes the documented "the two levels never multiply
//! implicitly" rule structural: the only code path that activates both
//! axes at once is the scheduler split, the split cannot oversubscribe, and
//! two executors on one shared context cannot see each other's widths.

use crate::batch::BatchOp;
use crate::cost;

/// How a [`ParScheduler`] splits the thread budget between the op axis and
/// the limb axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// All budget to op-level fan-out (limb work stays sequential).
    Op,
    /// All budget to limb-level splitting (ops run one at a time).
    Limb,
    /// Cost-model-driven split (the default; see the module docs).
    #[default]
    Auto,
}

/// The workload shape a split is computed for: everything the cost model
/// needs, nothing it doesn't (no ciphertext data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchShape {
    /// Independent whole-ciphertext operations in the batch.
    pub batch: usize,
    /// Ring degree N (max over the batch).
    pub degree: usize,
    /// RNS limb count L (max over the batch).
    pub limbs: usize,
    /// Ops that run a keyswitch (HMULT / HROTATE) — the op-mix input: heavy
    /// ops have deep limb-level parallelism, light ops do not.
    pub heavy: usize,
}

impl BatchShape {
    /// Shape of a concrete [`BatchOp`] batch (degree and limb count are the
    /// max over all operands, so the split is sized for the largest op).
    pub fn of_ops(batch: &[BatchOp<'_>]) -> Self {
        let mut shape = Self {
            batch: 0,
            degree: 0,
            limbs: 0,
            heavy: 0,
        };
        for op in batch {
            let ct = match op {
                BatchOp::HAdd(a, _)
                | BatchOp::HSub(a, _)
                | BatchOp::Rescale(a)
                | BatchOp::HNeg(a)
                | BatchOp::PMult(a, _)
                | BatchOp::AddPlain(a, _)
                | BatchOp::LevelDrop(a, _) => a,
                BatchOp::HMult(a, _) | BatchOp::HRotate(a, _) => {
                    shape.heavy += 1;
                    a
                }
            };
            shape.batch += 1;
            shape.degree = shape.degree.max(ct.c0.degree());
            shape.limbs = shape.limbs.max(ct.c0.limb_count());
        }
        shape
    }

    /// Shape of a raw keyswitch batch over `count` polynomials.
    pub fn of_keyswitch(count: usize, degree: usize, limbs: usize) -> Self {
        Self {
            batch: count,
            degree,
            limbs,
            heavy: count,
        }
    }

    /// Limb-level work items one op exposes (two polynomials × L limbs) —
    /// the widest useful limb split.
    pub fn limb_items(&self) -> usize {
        (2 * self.limbs).max(1)
    }

    /// Modeled instructions per op, averaged over the op mix.
    fn per_op_instrs(&self) -> f64 {
        if self.batch == 0 {
            return 0.0;
        }
        let heavy = self.heavy.min(self.batch) as f64;
        let light = self.batch as f64 - heavy;
        (heavy * cost::host_heavy_op_instrs(self.degree, self.limbs)
            + light * cost::host_light_op_instrs(self.degree, self.limbs))
            / self.batch as f64
    }

    /// Parallel sections one op opens (each re-spawns limb workers).
    fn sections_per_op(&self) -> f64 {
        if self.heavy > 0 {
            cost::HOST_PAR_SECTIONS_HEAVY
        } else {
            1.0
        }
    }
}

/// A concrete split of the budget: `op_width` workers fan ops out, each op
/// runs its limb work across `limb_width` workers. By construction
/// `op_width × limb_width ≤ budget` and both widths are ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Op-level fan-out width (threads given to `BatchExecutor`).
    pub op_width: usize,
    /// Limb-level width (the `threads` argument each op is handed).
    pub limb_width: usize,
}

/// Deterministic cost-model-driven splitter of one thread budget between
/// op-level and limb-level parallelism (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParScheduler {
    budget: usize,
    policy: SchedPolicy,
}

impl ParScheduler {
    /// Scheduler over an explicit global thread budget (min 1), policy
    /// [`SchedPolicy::Auto`].
    pub fn new(budget: usize) -> Self {
        Self {
            budget: budget.max(1),
            policy: SchedPolicy::Auto,
        }
    }

    /// Replaces the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The global thread budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The split policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Splits the budget for `shape`. Deterministic: the same shape, budget
    /// and policy always produce the same split, and
    /// `op_width × limb_width ≤ budget` always holds (proptest-enforced in
    /// `tests/sched_equivalence.rs`).
    pub fn split(&self, shape: BatchShape) -> Split {
        let budget = self.budget.max(1);
        let max_op = budget.min(shape.batch.max(1));
        let (split, cost) = match self.policy {
            SchedPolicy::Op => (
                Split {
                    op_width: max_op,
                    limb_width: 1,
                },
                None,
            ),
            SchedPolicy::Limb => (
                Split {
                    op_width: 1,
                    limb_width: budget,
                },
                None,
            ),
            SchedPolicy::Auto => {
                let mut best = Split {
                    op_width: 1,
                    limb_width: 1,
                };
                let mut best_cost = f64::INFINITY;
                // Full search of the feasible region, including splits that
                // leave part of the budget idle — on tiny workloads the
                // spawn cost makes (1, 1) the honest winner. Strict `<`
                // keeps the first (smallest-width) split among cost ties,
                // so the scheduler never spawns threads it can't justify.
                for op_width in 1..=max_op {
                    let max_limb = (budget / op_width).max(1).min(shape.limb_items());
                    for limb_width in 1..=max_limb {
                        let cost = Self::modeled_instrs(shape, op_width, limb_width);
                        if cost < best_cost {
                            best_cost = cost;
                            best = Split {
                                op_width,
                                limb_width,
                            };
                        }
                    }
                }
                (best, Some(best_cost))
            }
        };
        if wd_trace::enabled() {
            wd_trace::counter("sched.splits", 1);
            wd_trace::event(
                "sched",
                "split",
                &[
                    ("policy", format!("{:?}", self.policy).to_lowercase()),
                    ("budget", budget.to_string()),
                    ("batch", shape.batch.to_string()),
                    ("degree", shape.degree.to_string()),
                    ("limbs", shape.limbs.to_string()),
                    ("heavy", shape.heavy.to_string()),
                    ("op_width", split.op_width.to_string()),
                    ("limb_width", split.limb_width.to_string()),
                    (
                        "model_instrs",
                        cost.map_or_else(|| "n/a".to_string(), |c| format!("{c:.0}")),
                    ),
                ],
            );
        }
        split
    }

    /// Critical-path instruction estimate for one split: rounds of op work,
    /// each divided by the effective limb width, plus thread-spawn overhead
    /// for every parallel section opened along the way.
    fn modeled_instrs(shape: BatchShape, op_width: usize, limb_width: usize) -> f64 {
        let batch = shape.batch.max(1);
        let rounds = batch.div_ceil(op_width) as f64;
        let eff_limb = limb_width.min(shape.limb_items()).max(1) as f64;
        let spawn = cost::HOST_SPAWN_INSTR
            * ((op_width - 1) as f64 + rounds * shape.sections_per_op() * (limb_width - 1) as f64);
        rounds * shape.per_op_instrs() / eff_limb + spawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(batch: usize, degree: usize, limbs: usize, heavy: usize) -> BatchShape {
        BatchShape {
            batch,
            degree,
            limbs,
            heavy,
        }
    }

    #[test]
    fn split_never_oversubscribes_any_budget_or_shape() {
        // The regression sweep for the "never multiply implicitly" rule:
        // every (policy, budget, shape) combination keeps the product of
        // the two widths within the budget, by construction.
        for policy in [SchedPolicy::Op, SchedPolicy::Limb, SchedPolicy::Auto] {
            for budget in [1usize, 2, 3, 4, 7, 8, 16, 64] {
                for batch in [0usize, 1, 2, 5, 8, 33] {
                    for degree in [1usize << 6, 1 << 10, 1 << 16] {
                        for limbs in [1usize, 3, 7, 34] {
                            for heavy in [0, batch / 2, batch] {
                                let s = shape(batch, degree, limbs, heavy);
                                let split = ParScheduler::new(budget).with_policy(policy).split(s);
                                assert!(split.op_width >= 1 && split.limb_width >= 1);
                                assert!(
                                    split.op_width * split.limb_width <= budget.max(1),
                                    "{policy:?} budget {budget} {s:?} -> {split:?}"
                                );
                                assert!(split.op_width <= batch.max(1));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn split_is_deterministic() {
        let sched = ParScheduler::new(8);
        let s = shape(5, 1 << 12, 7, 3);
        assert_eq!(sched.split(s), sched.split(s));
    }

    #[test]
    fn large_batches_favor_op_level_fanout() {
        // Saturated batch of heavy ops on a modest ring: give the whole
        // budget to op-level fan-out (one spawn wave, no per-section cost).
        let split = ParScheduler::new(8).split(shape(16, 1 << 10, 3, 16));
        assert!(
            split.op_width >= 4 && split.limb_width == 8 / split.op_width.max(1),
            "{split:?}"
        );
        assert!(split.op_width * split.limb_width <= 8);
        assert!(split.op_width > split.limb_width, "{split:?}");
    }

    #[test]
    fn single_big_op_favors_limb_level_split() {
        // One HMULT on a large ring: op-level fan-out is useless (one op),
        // the budget goes to the limb axis.
        let split = ParScheduler::new(8).split(shape(1, 1 << 16, 34, 1));
        assert_eq!(split.op_width, 1);
        assert_eq!(split.limb_width, 8);
    }

    #[test]
    fn tiny_work_degrades_to_sequential() {
        // A couple of HADDs on a toy ring: spawn cost dwarfs the work, so
        // auto picks the strictly sequential split.
        let split = ParScheduler::new(8).split(shape(2, 1 << 6, 2, 0));
        assert_eq!(
            split,
            Split {
                op_width: 1,
                limb_width: 1
            }
        );
    }

    #[test]
    fn static_policies_are_static() {
        let s = shape(4, 1 << 12, 7, 4);
        assert_eq!(
            ParScheduler::new(6).with_policy(SchedPolicy::Op).split(s),
            Split {
                op_width: 4,
                limb_width: 1
            }
        );
        assert_eq!(
            ParScheduler::new(6).with_policy(SchedPolicy::Limb).split(s),
            Split {
                op_width: 1,
                limb_width: 6
            }
        );
    }

    #[test]
    fn empty_batch_is_harmless() {
        let split = ParScheduler::new(4).split(shape(0, 0, 0, 0));
        assert_eq!(split.op_width, 1);
        assert!(split.op_width * split.limb_width <= 4);
    }

    #[test]
    fn host_estimates_track_the_gpu_planner_op_ordering() {
        // Calibration against the analytic GPU model: the host cost
        // estimates must order ops the same way the PE planner's kernel
        // work totals do (HMULT ≫ RESCALE-class ≫ HADD) and agree on the
        // HMULT/HADD ratio to within an order of magnitude.
        use crate::config::FrameworkConfig;
        use crate::opplan::{op_kernels, HomOp, OpShape, PlannerKind};
        use wd_gpu_sim::GpuSpec;
        use wd_polyring::variants::NttVariant;

        let spec = GpuSpec::a100_pcie_80g();
        let cfg = FrameworkConfig::auto(&spec);
        let op_shape = OpShape::new(1 << 14, 13, 1);
        let gpu_instrs = |op: HomOp| -> f64 {
            op_kernels(
                op,
                op_shape,
                PlannerKind::PeKernel,
                NttVariant::WdFuse,
                &cfg,
                &spec,
            )
            .iter()
            .map(|k| k.work.instructions)
            .sum()
        };
        let gpu_ratio = gpu_instrs(HomOp::HMult) / gpu_instrs(HomOp::HAdd);
        let host_ratio =
            cost::host_heavy_op_instrs(1 << 14, 14) / cost::host_light_op_instrs(1 << 14, 14);
        assert!(gpu_ratio > 10.0 && host_ratio > 10.0);
        let rel = (host_ratio / gpu_ratio).log2().abs();
        assert!(
            rel < 3.5,
            "host HMULT/HADD ratio {host_ratio:.0} vs GPU {gpu_ratio:.0} (log2 gap {rel:.2})"
        );
    }
}
