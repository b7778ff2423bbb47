//! Property tests: a `BatchExecutor` at any thread budget — whatever split
//! of that budget between the op axis and the limb axis the scheduler
//! picks — and an op called directly at any limb width return the
//! **bit-identical** results of the sequential fallback, for random
//! inputs, widths and fault seeds.

use std::sync::OnceLock;

use proptest::prelude::*;
use warpdrive_core::{BatchExecutor, BatchOp, BatchShape, EvalKeys, FaultPlan, ParScheduler};
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::{CkksContext, ParamSet};

const BUDGETS: [usize; 4] = [1, 2, 4, 8];

/// Context + keys are expensive; share one across all cases (and across
/// the harness's parallel test threads: nothing an executor does is stored
/// on the context).
fn shared() -> &'static (CkksContext, KeyPair) {
    static CELL: OnceLock<(CkksContext, KeyPair)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_b().with_degree(1 << 7).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0x5CED).unwrap();
        let kp = ctx.keygen();
        (ctx, kp)
    })
}

fn rotation_keys() -> &'static RotationKeys {
    static CELL: OnceLock<RotationKeys> = OnceLock::new();
    CELL.get_or_init(|| {
        let (ctx, kp) = shared();
        let rots: Vec<isize> = (-6..7).filter(|&r| r != 0).collect();
        ctx.gen_rotation_keys(&kp.secret, &rots, false)
    })
}

fn vec_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0..4.0f64, 1..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_mixed_batch_bit_identical_at_every_budget(
        a in vec_strategy(),
        b in vec_strategy(),
    ) {
        let (ctx, kp) = shared();
        let ct_a = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ct_b = ctx.encrypt_values(&b, &kp.public).unwrap();
        let sq = wd_ckks::ops::hmult(ctx, &ct_a, &ct_a, &kp.relin).unwrap();
        let batch = [
            BatchOp::HMult(&ct_a, &ct_b),
            BatchOp::HAdd(&ct_a, &ct_b),
            BatchOp::HMult(&ct_b, &ct_b),
            BatchOp::Rescale(&sq),
        ];
        let keys = EvalKeys::with_relin(&kp.relin);

        let reference = BatchExecutor::sequential().execute(ctx, keys, &batch);

        for budget in BUDGETS {
            let got = BatchExecutor::new(budget).execute(ctx, keys, &batch);
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                prop_assert_eq!(
                    r.as_ref().unwrap(),
                    g.as_ref().unwrap(),
                    "op {} diverged at budget {}", i, budget
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_hmult_bit_identical_under_faults(
        a in vec_strategy(),
        b in vec_strategy(),
        limb_threads in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let (ctx, kp) = shared();
        let ct_a = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ct_b = ctx.encrypt_values(&b, &kp.public).unwrap();
        let batch = [BatchOp::HMult(&ct_a, &ct_b), BatchOp::HMult(&ct_b, &ct_b)];
        let keys = EvalKeys::with_relin(&kp.relin);

        let reference = BatchExecutor::sequential()
            .with_fault_plan(FaultPlan::disabled())
            .execute(ctx, keys, &batch);

        // The limb axis called directly at a width of its own.
        let split = [
            wd_ckks::ops::hmult_with(ctx, &ct_a, &ct_b, &kp.relin, limb_threads),
            wd_ckks::ops::hmult_with(ctx, &ct_b, &ct_b, &kp.relin, limb_threads),
        ];
        for (i, (r, got)) in reference.iter().zip(&split).enumerate() {
            prop_assert_eq!(
                r.as_ref().unwrap(),
                got.as_ref().unwrap(),
                "HMULT {} diverged at limb width {}", i, limb_threads
            );
        }

        // Every budget under the CI drill's rate with a per-case seed,
        // injected explicitly so the property holds whatever the process
        // environment says.
        for budget in BUDGETS {
            let fanned = BatchExecutor::new(budget)
                .with_fault_plan(FaultPlan::new(seed, 0.05))
                .execute(ctx, keys, &batch);
            for (i, (r, got)) in reference.iter().zip(&fanned).enumerate() {
                prop_assert_eq!(
                    r.as_ref().unwrap(),
                    got.as_ref().unwrap(),
                    "HMULT {} diverged at budget {}, seed {}", i, budget, seed
                );
            }
        }
    }

    #[test]
    fn prop_rotation_and_rescale_bit_identical(
        vals in vec_strategy(),
        rot in -6isize..7,
        limb_threads in 1usize..7,
    ) {
        let (ctx, kp) = shared();
        let rk = rotation_keys();
        let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
        let sq = wd_ckks::ops::hmult(ctx, &ct, &ct, &kp.relin).unwrap();
        let rot = if rot == 0 { 1 } else { rot };
        let batch = [BatchOp::HRotate(&ct, rot), BatchOp::Rescale(&sq)];
        let keys = EvalKeys::default().and_rotations(rk);

        let reference = BatchExecutor::sequential().execute(ctx, keys, &batch);

        let split = [
            wd_ckks::ops::hrotate_with(ctx, &ct, rot, rk, limb_threads),
            wd_ckks::ops::rescale_with(ctx, &sq, limb_threads),
        ];
        for (i, (r, got)) in reference.iter().zip(&split).enumerate() {
            prop_assert_eq!(
                r.as_ref().unwrap(),
                got.as_ref().unwrap(),
                "op {} diverged at limb width {}", i, limb_threads
            );
        }
        for budget in BUDGETS {
            let fanned = BatchExecutor::new(budget).execute(ctx, keys, &batch);
            for (i, (r, got)) in reference.iter().zip(&fanned).enumerate() {
                prop_assert_eq!(
                    r.as_ref().unwrap(),
                    got.as_ref().unwrap(),
                    "op {} diverged at budget {}", i, budget
                );
            }
        }
    }
}

/// The executor hands its split's limb width to every op: a lone HMULT at
/// budget 4 is a shape the scheduler splits on the limb axis, and the
/// batch still returns the sequential bits.
#[test]
fn limb_split_executor_matches_the_sequential_reference() {
    let (ctx, kp) = shared();
    let a = ctx.encrypt_values(&[1.5, -2.0, 0.25], &kp.public).unwrap();
    let b = ctx.encrypt_values(&[0.5, 3.0, -1.0], &kp.public).unwrap();
    let batch = [BatchOp::HMult(&a, &b)];
    let keys = EvalKeys::with_relin(&kp.relin);

    let budget = 4;
    let split = ParScheduler::new(budget).split(BatchShape::of_ops(&batch));
    assert!(split.limb_width > 1, "{split:?}");

    let reference = BatchExecutor::sequential().execute(ctx, keys, &batch);
    assert!(reference.iter().all(Result::is_ok));
    assert_eq!(
        BatchExecutor::new(budget).execute(ctx, keys, &batch),
        reference
    );
}
