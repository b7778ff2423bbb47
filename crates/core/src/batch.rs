//! Batched execution of whole-ciphertext operations across host threads.
//!
//! The paper's PE kernels erase the one-launch-per-polynomial structure of
//! earlier GPU FHE systems: a single launch covers every polynomial × RNS
//! limb of a ciphertext operation (§III-C, Table IX). [`BatchExecutor`] is
//! the host-side counterpart for *serving batched traffic*, and
//! [`BatchExecutor::execute`] is the **one** function in the tree that turns
//! a slice of whole-ciphertext operations (HMULT, HROTATE, HADD, RESCALE, …)
//! into results: one split of the thread budget, one arena per slot, one
//! fan-out over the batch. Placing a batch across modeled devices is a
//! plan the GPU model prices ([`crate::place`],
//! `wd_gpu_sim::multi::ShardedSimulator`), not a host execution path.
//!
//! Two levels of parallelism compose in a batch:
//!
//! - **Op level**: independent ciphertext operations on separate threads —
//!   throughput for batched traffic.
//! - **Limb level** (`wd_polyring::par`): one operation's limb × polynomial
//!   work items fanned out — latency for a single op.
//!
//! How a thread budget should split between the two axes depends on the
//! workload shape: a saturated batch wants op-level fan-out, a single op on
//! a big ring wants limb-level splitting. [`BatchExecutor::auto`] delegates
//! that choice to a [`ParScheduler`] (see [`crate::sched`]), which picks a
//! deterministic cost-model-driven split per batch with
//! `op_width × limb_width ≤ budget`. Results are **bit-identical** for
//! every split, including the all-sequential `threads = 1` fallback,
//! because no work item shares mutable state (see `wd_polyring::par`).
//!
//! # The width is an argument
//!
//! The limb width reaches an operation as a plain argument
//! (`wd_ckks::ops::{hmult_with, hrotate_with, rescale_with}`): a scheduled
//! executor passes its split's `limb_width`, an unscheduled one
//! ([`BatchExecutor::new`]) passes 1, and nothing is stored where a second
//! executor could see it — any number of executors can share one
//! `Arc<CkksContext>` (`tests/concurrent_executors.rs`). The budget and
//! policy are values: [`BatchExecutor::auto`] takes the budget and
//! [`BatchExecutor::with_scheduler`] any other [`ParScheduler`].
//!
//! # Fault tolerance
//!
//! Every op in a batch runs inside the `wd-fault` recovery envelope:
//! injected faults ([`FaultPlan`], `WD_FAULT_SEED`/`WD_FAULT_RATE`) and
//! worker panics are caught per op, transient failures are retried with the
//! executor's [`RetryPolicy`] (bounded deterministic backoff), and an op
//! that keeps failing — or hits a non-transient `DeviceLost` — **degrades
//! to a final fault-free sequential attempt**. Because every op is a pure
//! function of its inputs, the recovered result is bit-identical to a
//! fault-free run; injection changes latency, never values. Genuine errors
//! (missing keys, exhausted chains) are never retried.

use crate::sched::{BatchShape, ParScheduler, Split};
use std::sync::{Arc, Mutex};
use wd_ckks::cipher::{Ciphertext, Plaintext};
use wd_ckks::keys::{KeySwitchKey, RotationKeys};
use wd_ckks::ops;
use wd_ckks::{CkksContext, CkksError};
use wd_fault::{run_isolated, FaultInjector, FaultPlan, RetryPolicy, WdError};
use wd_polyring::par;
use wd_polyring::scratch::{self, ScratchArena};

/// One whole-ciphertext operation in a batch.
#[derive(Debug, Clone)]
pub enum BatchOp<'a> {
    /// Homomorphic addition.
    HAdd(&'a Ciphertext, &'a Ciphertext),
    /// Homomorphic subtraction.
    HSub(&'a Ciphertext, &'a Ciphertext),
    /// Homomorphic multiplication with relinearization (needs `relin`).
    HMult(&'a Ciphertext, &'a Ciphertext),
    /// Slot rotation by a signed amount (needs `rotations`).
    HRotate(&'a Ciphertext, isize),
    /// RESCALE by one chain prime.
    Rescale(&'a Ciphertext),
    /// Slot-wise negation (infallible on the op layer).
    HNeg(&'a Ciphertext),
    /// Plaintext–ciphertext multiplication (no relinearization needed).
    PMult(&'a Ciphertext, &'a Plaintext),
    /// Plaintext addition (scales must already match).
    AddPlain(&'a Ciphertext, &'a Plaintext),
    /// Modulus switch down to the given level without changing the scale
    /// (the level-alignment op the wd-graph compiler inserts).
    LevelDrop(&'a Ciphertext, usize),
}

impl BatchOp<'_> {
    /// Stable site label naming this op in [`WdError::SimFault`] reports.
    pub fn site(&self) -> &'static str {
        match self {
            BatchOp::HAdd(..) => "batch.hadd",
            BatchOp::HSub(..) => "batch.hsub",
            BatchOp::HMult(..) => "batch.hmult",
            BatchOp::HRotate(..) => "batch.hrotate",
            BatchOp::Rescale(..) => "batch.rescale",
            BatchOp::HNeg(..) => "batch.hneg",
            BatchOp::PMult(..) => "batch.pmult",
            BatchOp::AddPlain(..) => "batch.add_plain",
            BatchOp::LevelDrop(..) => "batch.level_drop",
        }
    }

    /// Short op name (the trace span name: `hmult`, `rescale`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            BatchOp::HAdd(..) => "hadd",
            BatchOp::HSub(..) => "hsub",
            BatchOp::HMult(..) => "hmult",
            BatchOp::HRotate(..) => "hrotate",
            BatchOp::Rescale(..) => "rescale",
            BatchOp::HNeg(..) => "hneg",
            BatchOp::PMult(..) => "pmult",
            BatchOp::AddPlain(..) => "add_plain",
            BatchOp::LevelDrop(..) => "level_drop",
        }
    }
}

/// Evaluation keys a batch may need. Missing keys surface as per-op
/// [`CkksError::MissingKey`] errors, not panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalKeys<'a> {
    /// Relinearization key (for [`BatchOp::HMult`]).
    pub relin: Option<&'a KeySwitchKey>,
    /// Rotation key set (for [`BatchOp::HRotate`]).
    pub rotations: Option<&'a RotationKeys>,
}

impl<'a> EvalKeys<'a> {
    /// Keys for multiply-only batches.
    pub fn with_relin(relin: &'a KeySwitchKey) -> Self {
        Self {
            relin: Some(relin),
            rotations: None,
        }
    }

    /// Adds a rotation key set.
    #[must_use]
    pub fn and_rotations(mut self, keys: &'a RotationKeys) -> Self {
        self.rotations = Some(keys);
        self
    }
}

/// Fans whole-ciphertext operations out over a host thread pool, with
/// per-op fault injection, panic isolation, retry, and sequential degrade
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    threads: usize,
    sched: Option<ParScheduler>,
    injector: FaultInjector,
    retry: RetryPolicy,
    /// A pool of per-slot scratch arenas for op-level fan-out, grown on
    /// demand and kept across batches so workers reach steady state (zero
    /// hot-path heap allocations) after the first batch. Slot `i`'s arena
    /// is only ever installed on the thread running slot `i` — the
    /// per-worker ownership rule. Clones share the pool (a clone serving
    /// the same traffic wants the same warmed shelves).
    arenas: Arc<Mutex<Vec<Arc<ScratchArena>>>>,
}

impl BatchExecutor {
    /// Executor with an explicit op-level thread budget (min 1) and **no
    /// scheduler**: every thread goes to op-level fan-out and each op runs
    /// its limb work on one thread.
    ///
    /// Fault injection follows the environment ([`FaultPlan::from_env`],
    /// disabled unless `WD_FAULT_RATE` is set) — the one setting an
    /// executor takes from the environment, so a run of any suite under
    /// `WD_FAULT_RATE`/`WD_FAULT_SEED` puts injection under every executor
    /// it builds. Override with [`BatchExecutor::with_fault_plan`].
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            sched: None,
            injector: FaultInjector::new(FaultPlan::from_env()),
            retry: RetryPolicy::default(),
            arenas: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Executor that **schedules** a global thread budget: it is split
    /// between op-level fan-out and limb-level splitting by a
    /// cost-model-driven [`ParScheduler`] sized for each batch's shape
    /// (policy [`SchedPolicy::Auto`](crate::sched::SchedPolicy::Auto);
    /// override with [`BatchExecutor::with_scheduler`]). The limb width is
    /// handed to each op as an argument, so the split can never
    /// oversubscribe `budget` and nothing outlives the batch.
    pub fn auto(budget: usize) -> Self {
        Self::with_scheduler(Self::new(budget), ParScheduler::new(budget))
    }

    /// Strictly sequential executor (the bit-identical fallback).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Attaches (or replaces) a scheduler. The executor's op-level budget
    /// becomes the scheduler's global budget; each batch's split decides
    /// how much of it the op axis actually uses.
    #[must_use]
    pub fn with_scheduler(mut self, sched: ParScheduler) -> Self {
        self.threads = sched.budget();
        self.sched = Some(sched);
        self
    }

    /// Replaces the fault plan (tests and fault drills; the environment
    /// knobs `WD_FAULT_SEED`/`WD_FAULT_RATE` feed [`BatchExecutor::new`]).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = FaultInjector::new(plan);
        self
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The thread budget: op-level width for an unscheduled executor, the
    /// global (op × limb) budget for a scheduled one.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached scheduler, if any.
    pub fn scheduler(&self) -> Option<&ParScheduler> {
        self.sched.as_ref()
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> FaultPlan {
        self.injector.plan()
    }

    /// Runs one pure unit of work under the full recovery envelope:
    /// injection → isolation → bounded retry → final fault-free attempt.
    /// `op` must be a pure function of captured inputs (every CKKS op here
    /// is), which is what makes the recovered result bit-identical.
    fn recover<T>(&self, site: &str, op: impl Fn() -> Result<T, WdError>) -> Result<T, WdError> {
        match self.retry.run(site, &self.injector, &op) {
            Ok(v) => Ok(v),
            // Retries exhausted or the device is gone: degrade to one final
            // fault-free attempt (the "move the work off the failing path"
            // step). A genuine error still surfaces from `op` itself.
            Err(e @ (WdError::SimFault { .. } | WdError::WorkerPanicked(_))) => {
                wd_trace::counter("fault.degraded", 1);
                wd_trace::event(
                    "fault",
                    "degrade",
                    &[("site", site.to_string()), ("error", e.to_string())],
                );
                run_isolated(&op)
            }
            Err(e) => Err(e),
        }
    }

    /// Per-slot arenas for a fan-out of width `op_width`, sized from the
    /// context's parameters ([`crate::arena::worker_arena`]) and reused
    /// across batches. Returns `None` for sequential execution
    /// (`op_width <= 1`): the op then runs on the calling thread and keeps
    /// whatever arena the **caller** installed (or the context default) —
    /// wrapping it here would shadow the caller's warmed shelves.
    fn slot_arenas(&self, ctx: &CkksContext, op_width: usize) -> Option<Vec<Arc<ScratchArena>>> {
        if op_width <= 1 {
            return None;
        }
        let mut pool = self.arenas.lock().unwrap_or_else(|p| p.into_inner());
        while pool.len() < op_width {
            let arena = crate::arena::worker_arena(ctx.params(), u64::MAX)
                .unwrap_or_else(|_| ScratchArena::for_worker());
            pool.push(arena);
        }
        Some(pool[..op_width].to_vec())
    }

    /// Executes a batch, returning one result per op **in input order** —
    /// bit-identical for every thread budget and split, because a split
    /// only changes latency.
    ///
    /// Op-level errors (missing keys, level mismatches, exhausted levels)
    /// come back as `Err` entries; they never abort the rest of the batch.
    /// Injected faults and worker panics are recovered per op (module
    /// docs); with recovery exhausted they surface as
    /// [`WdError::SimFault`] / [`WdError::WorkerPanicked`] entries.
    pub fn execute(
        &self,
        ctx: &CkksContext,
        keys: EvalKeys<'_>,
        batch: &[BatchOp<'_>],
    ) -> Vec<Result<Ciphertext, CkksError>> {
        let _span = wd_trace::span("batch", "execute");
        let Split {
            op_width,
            limb_width,
        } = match &self.sched {
            Some(s) => s.split(BatchShape::of_ops(batch)),
            None => Split {
                op_width: self.threads,
                limb_width: 1,
            },
        };
        let arenas = self.slot_arenas(ctx, op_width);
        // `map_indexed` hands items [c·chunk, (c+1)·chunk) to worker c,
        // so slot `k / chunk` pins each item's arena to the one thread
        // that runs it (per-worker ownership).
        let chunk = batch.len().div_ceil(op_width.max(1)).max(1);
        par::map_indexed(op_width, batch.len(), |k| {
            let work = || {
                let op = &batch[k];
                let _op_span = wd_trace::span("batch", op.kind());
                self.recover(op.site(), || Self::apply(ctx, keys, op, limb_width))
            };
            match &arenas {
                Some(slots) => scratch::with_worker_arena(&slots[k / chunk], work),
                None => work(),
            }
        })
    }

    /// One op, no recovery envelope — the pure function the envelope
    /// retries. `limb_width` is the split's limb-level share, handed to the
    /// ops that fan out by limb.
    fn apply(
        ctx: &CkksContext,
        keys: EvalKeys<'_>,
        op: &BatchOp<'_>,
        limb_width: usize,
    ) -> Result<Ciphertext, CkksError> {
        match *op {
            BatchOp::HAdd(a, b) => ops::hadd(a, b),
            BatchOp::HSub(a, b) => ops::hsub(a, b),
            BatchOp::HMult(a, b) => {
                let relin = keys
                    .relin
                    .ok_or_else(|| CkksError::MissingKey("relinearization key".into()))?;
                ops::hmult_with(ctx, a, b, relin, limb_width)
            }
            BatchOp::HRotate(ct, r) => {
                let rot = keys
                    .rotations
                    .ok_or_else(|| CkksError::MissingKey("rotation key set".into()))?;
                ops::hrotate_with(ctx, ct, r, rot, limb_width)
            }
            BatchOp::Rescale(ct) => ops::rescale_with(ctx, ct, limb_width),
            BatchOp::HNeg(ct) => Ok(ops::hneg(ct)),
            BatchOp::PMult(ct, pt) => ops::pmult(ct, pt),
            BatchOp::AddPlain(ct, pt) => ops::add_plain(ct, pt),
            BatchOp::LevelDrop(ct, to) => ops::level_drop(ct, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedPolicy;
    use wd_ckks::params::ParamSet;

    fn setup() -> Result<(CkksContext, wd_ckks::keys::KeyPair), WdError> {
        let params = ParamSet::set_a().with_degree(1 << 6).build()?;
        let ctx = CkksContext::with_seed(params, 2024)?;
        let kp = ctx.keygen();
        Ok((ctx, kp))
    }

    #[test]
    fn batch_matches_sequential_ops_bit_for_bit() -> Result<(), WdError> {
        let (ctx, kp) = setup()?;
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);
        let a = ctx.encrypt_values(&[1.0, 2.0, 3.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, -1.5, 4.0], &kp.public)?;
        let batch = [
            BatchOp::HAdd(&a, &b),
            BatchOp::HMult(&a, &b),
            BatchOp::HRotate(&a, 1),
            BatchOp::HSub(&b, &a),
        ];
        let keys = EvalKeys::with_relin(&kp.relin).and_rotations(&rot);
        let seq: Vec<_> = BatchExecutor::sequential().execute(&ctx, keys, &batch);
        assert!(seq.iter().all(Result::is_ok));
        for threads in [2usize, 4, 8] {
            let par_out = BatchExecutor::new(threads).execute(&ctx, keys, &batch);
            for (i, (s, p)) in seq.iter().zip(&par_out).enumerate() {
                assert_eq!(s, p, "op {i} diverged at {threads} threads");
            }
        }
        Ok(())
    }

    #[test]
    fn scheduled_executor_matches_sequential_at_every_policy_and_budget() -> Result<(), WdError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[1.0, 2.0], &kp.public)?;
        let b = ctx.encrypt_values(&[3.0, -4.0], &kp.public)?;
        let batch = [
            BatchOp::HMult(&a, &b),
            BatchOp::HAdd(&a, &b),
            BatchOp::HMult(&b, &a),
        ];
        let keys = EvalKeys::with_relin(&kp.relin);
        let seq: Vec<_> = BatchExecutor::sequential().execute(&ctx, keys, &batch);
        assert!(seq.iter().all(Result::is_ok));
        for budget in [1usize, 2, 4, 8] {
            for policy in [SchedPolicy::Op, SchedPolicy::Limb, SchedPolicy::Auto] {
                let ex = BatchExecutor::new(budget)
                    .with_scheduler(ParScheduler::new(budget).with_policy(policy));
                assert_eq!(seq, ex.execute(&ctx, keys, &batch), "{policy:?} x{budget}");
            }
        }
        Ok(())
    }

    #[test]
    fn auto_executor_carries_its_budget_as_scheduler_budget() -> Result<(), WdError> {
        let ex = BatchExecutor::auto(6);
        assert_eq!(ex.threads(), 6);
        let sched = ex.scheduler().ok_or(WdError::InvalidParams(
            "auto executor must carry a scheduler".into(),
        ))?;
        assert_eq!(sched.budget(), 6);
        Ok(())
    }

    #[test]
    fn missing_keys_error_per_op_without_aborting_batch() -> Result<(), WdError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[1.0], &kp.public)?;
        let out = BatchExecutor::new(4).execute(
            &ctx,
            EvalKeys::default(),
            &[BatchOp::HMult(&a, &a), BatchOp::HAdd(&a, &a)],
        );
        assert!(matches!(out[0], Err(CkksError::MissingKey(_))));
        assert!(out[1].is_ok());
        Ok(())
    }

    #[test]
    fn executor_threads_are_bounded_below_by_one() -> Result<(), WdError> {
        assert_eq!(BatchExecutor::new(0).threads(), 1);
        assert_eq!(BatchExecutor::auto(0).threads(), 1);
        Ok(())
    }

    /// The reference answer: sequential, injection explicitly disabled.
    fn clean_results(
        ctx: &CkksContext,
        keys: EvalKeys<'_>,
        batch: &[BatchOp<'_>],
    ) -> Result<Vec<Ciphertext>, WdError> {
        BatchExecutor::sequential()
            .with_fault_plan(FaultPlan::disabled())
            .execute(ctx, keys, batch)
            .into_iter()
            .collect()
    }

    #[test]
    fn injected_faults_recover_bit_identically() -> Result<(), WdError> {
        let (ctx, kp) = setup()?;
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);
        let a = ctx.encrypt_values(&[1.0, 2.0, 3.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, -1.5, 4.0], &kp.public)?;
        let batch = [
            BatchOp::HMult(&a, &b),
            BatchOp::HRotate(&a, 1),
            BatchOp::HAdd(&a, &b),
            BatchOp::Rescale(&a),
        ];
        let keys = EvalKeys::with_relin(&kp.relin).and_rotations(&rot);
        let clean = clean_results(&ctx, keys, &batch)?;
        for seed in [1u64, 7, 42] {
            for threads in [1usize, 2, 4] {
                let ex = BatchExecutor::new(threads).with_fault_plan(FaultPlan::new(seed, 0.3));
                let out = ex.execute(&ctx, keys, &batch);
                for (i, (c, o)) in clean.iter().zip(&out).enumerate() {
                    assert_eq!(
                        o.as_ref(),
                        Ok(c),
                        "op {i} diverged under seed {seed}, {threads} threads"
                    );
                }
            }
        }
        Ok(())
    }

    #[test]
    fn full_rate_injection_still_degrades_to_correct_results() -> Result<(), WdError> {
        // Every draw faults (including DeviceLost), so every op exhausts its
        // retries and takes the final fault-free sequential attempt.
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[2.0, -1.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.25, 8.0], &kp.public)?;
        let batch = [BatchOp::HAdd(&a, &b), BatchOp::HMult(&a, &b)];
        let keys = EvalKeys::with_relin(&kp.relin);
        let clean = clean_results(&ctx, keys, &batch)?;
        let ex = BatchExecutor::new(2)
            .with_fault_plan(FaultPlan::new(5, 1.0))
            .with_retry_policy(RetryPolicy {
                max_attempts: 2,
                base_backoff: std::time::Duration::ZERO,
            });
        let out = ex.execute(&ctx, keys, &batch);
        for (c, o) in clean.iter().zip(&out) {
            assert_eq!(o.as_ref(), Ok(c));
        }
        Ok(())
    }

    #[test]
    fn genuine_errors_are_not_masked_by_recovery() -> Result<(), WdError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[1.0], &kp.public)?;
        let ex = BatchExecutor::new(2).with_fault_plan(FaultPlan::new(3, 0.5));
        let out = ex.execute(&ctx, EvalKeys::default(), &[BatchOp::HMult(&a, &a)]);
        assert!(
            matches!(out[0], Err(CkksError::MissingKey(_))),
            "{:?}",
            out[0]
        );
        Ok(())
    }
}
