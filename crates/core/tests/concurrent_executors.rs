//! Several executors on one shared context, at the same time, on purpose.
//!
//! The limb width used to be an atomic on the shared `CkksContext` that a
//! scheduled executor set for its batch and restored afterwards, so two
//! executors on one `Arc<CkksContext>` restored each other's value
//! (the equivalence suite's "limb budget leaked" under the parallel
//! harness, and every multi-worker `wd-serve` tenant). The width is an
//! argument now; this suite runs differently budgeted executors and a
//! thread calling the ops at limb width 8 concurrently on one context, and
//! demands the sequential reference's bits from every round.

use std::sync::{Arc, Barrier};

use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys, FaultPlan};
use wd_ckks::ops;
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

    // A wide limb width beside a budget-1 executor is the pair that was
    // seen leaking; the budget-3 executor adds the cost-model split.
    let executors = [
        BatchExecutor::new(1).with_fault_plan(plan),
        BatchExecutor::new(3).with_fault_plan(plan),
    ];
    // Thread k runs executor k; the last thread calls the ops directly at
    // limb width 8.
    let round = |k: usize| match executors.get(k) {
        Some(executor) => executor.execute(&ctx, keys, &batch),
        None => vec![
            ops::hmult_with(&ctx, &a, &b, &kp.relin, 8),
            ops::hrotate_with(&ctx, &a, 1, &rot, 8),
            ops::rescale_with(&ctx, &sq, 8),
            ops::hadd(&a, &b),
        ],
    };
    let threads = executors.len() + 1;

    // The barrier releases every thread into each of its rounds together,
    // so the callers are in flight on the context at the same time in
    // every round, not merely overlapping somewhere in the run. A thread
    // that sees a divergence counts it and keeps taking part: leaving
    // would strand the others at the barrier.
    let barrier = Barrier::new(threads);
    let diverged: Vec<usize> = std::thread::scope(|scope| {
        let running: Vec<_> = (0..threads)
            .map(|k| {
                let (round, barrier, reference) = (&round, &barrier, &reference);
                scope.spawn(move || {
                    let differs = |_: &usize| {
                        barrier.wait();
                        round(k) != *reference
                    };
                    (0..ITERATIONS).filter(differs).count()
                })
            })
            .collect();
        running.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(
        diverged,
        vec![0; threads],
        "rounds, per thread (budget 1, budget 3, limb width 8), that left the \
         sequential reference's bits"
    );
}
