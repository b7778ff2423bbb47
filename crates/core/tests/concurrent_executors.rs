//! Several executors on one shared context, at the same time, on purpose.
//!
//! The limb width used to be an atomic on the shared `CkksContext` that a
//! scheduled executor set for its batch and restored afterwards, so two
//! executors on one `Arc<CkksContext>` restored each other's value
//! (`sched_equivalence`'s "limb budget leaked" under the parallel harness,
//! and every multi-worker `wd-serve` tenant). The width is an argument now;
//! this suite runs differently budgeted, scheduled and placed executors
//! concurrently on one context and demands the sequential reference's bits
//! from every batch.

use std::sync::{Arc, Barrier};

use warpdrive_core::{
    BatchExecutor, BatchOp, EvalKeys, FaultPlan, ParScheduler, PlacePolicy, Placer, SchedPolicy,
};
use wd_ckks::{CkksContext, ParamSet};

const ITERATIONS: usize = 200;

#[test]
fn concurrent_executors_on_one_context_match_the_sequential_reference() {
    let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
    let ctx = Arc::new(CkksContext::with_seed(params, 0xC0C0).unwrap());
    let kp = ctx.keygen();
    let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);
    let a = ctx.encrypt_values(&[1.5, -2.0, 0.25], &kp.public).unwrap();
    let b = ctx.encrypt_values(&[0.5, 3.0, -1.0], &kp.public).unwrap();
    let sq = wd_ckks::ops::hmult(&ctx, &a, &a, &kp.relin).unwrap();

    let batch = [
        BatchOp::HMult(&a, &b),
        BatchOp::HRotate(&a, 1),
        BatchOp::Rescale(&sq),
        BatchOp::HAdd(&a, &b),
    ];
    let keys = EvalKeys::with_relin(&kp.relin).and_rotations(&rot);
    let plan = FaultPlan::disabled();
    let reference = BatchExecutor::sequential()
        .with_fault_plan(plan)
        .execute(&ctx, keys, &batch);
    assert!(reference.iter().all(Result::is_ok));

    // `Limb@8` beside `Op@1` is the pair that was seen leaking; the other
    // two add the cost-model split and a sharded, unscheduled executor.
    let scheduled = |budget: usize, policy: SchedPolicy| {
        BatchExecutor::new(budget)
            .with_scheduler(ParScheduler::new(budget).with_policy(policy))
            .with_fault_plan(plan)
    };
    let executors = [
        scheduled(8, SchedPolicy::Limb),
        scheduled(1, SchedPolicy::Op),
        scheduled(3, SchedPolicy::Auto),
        BatchExecutor::new(2)
            .with_fault_plan(plan)
            .with_placer(Placer::new(2).with_policy(PlacePolicy::RoundRobin)),
    ];

    // The barrier releases every thread into each of its batches together,
    // so the executors are in flight on the context at the same time in
    // every round, not merely overlapping somewhere in the run. A thread
    // that sees a divergence counts it and keeps taking part: leaving
    // would strand the others at the barrier.
    let barrier = Barrier::new(executors.len());
    let diverged: Vec<usize> = std::thread::scope(|scope| {
        let running: Vec<_> = executors
            .iter()
            .map(|executor| {
                scope.spawn(|| {
                    let differs = |_: &usize| {
                        barrier.wait();
                        executor.execute(&ctx, keys, &batch) != reference
                    };
                    (0..ITERATIONS).filter(differs).count()
                })
            })
            .collect();
        running.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(
        diverged,
        vec![0; executors.len()],
        "batches, per executor, that left the sequential reference's bits"
    );
}
