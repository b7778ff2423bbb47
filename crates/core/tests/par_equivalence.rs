//! Property tests: homomorphic operations through the parallel execution
//! layer are **bit-identical** to the sequential fallback for random
//! inputs, limb-level widths (the `threads` argument of the `_with` ops)
//! and op-level fan-out widths.

use std::sync::OnceLock;

use proptest::prelude::*;
use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys};
use wd_ckks::keys::KeyPair;
use wd_ckks::{CkksContext, ParamSet};

/// Context + keys are expensive; share one across all cases.
fn shared() -> &'static (CkksContext, KeyPair) {
    static CELL: OnceLock<(CkksContext, KeyPair)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_b().with_degree(1 << 7).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0xC0DE).unwrap();
        let kp = ctx.keygen();
        (ctx, kp)
    })
}

fn vec_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0..4.0f64, 1..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_hmult_bit_identical_across_thread_counts(
        a in vec_strategy(),
        b in vec_strategy(),
        limb_threads in 1usize..7,
        op_threads in 1usize..7,
    ) {
        let (ctx, kp) = shared();
        let ct_a = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ct_b = ctx.encrypt_values(&b, &kp.public).unwrap();
        let batch = [BatchOp::HMult(&ct_a, &ct_b), BatchOp::HMult(&ct_b, &ct_b)];
        let keys = EvalKeys::with_relin(&kp.relin);

        let reference = BatchExecutor::sequential().execute(ctx, keys, &batch);

        // Op axis through the executor, limb axis through the op's width.
        let fanned = BatchExecutor::new(op_threads).execute(ctx, keys, &batch);
        let split = [
            wd_ckks::ops::hmult_with(ctx, &ct_a, &ct_b, &kp.relin, limb_threads),
            wd_ckks::ops::hmult_with(ctx, &ct_b, &ct_b, &kp.relin, limb_threads),
        ];

        for (i, r) in reference.iter().enumerate() {
            for got in [&fanned[i], &split[i]] {
                prop_assert_eq!(
                    r.as_ref().unwrap(),
                    got.as_ref().unwrap(),
                    "HMULT {} diverged at limb={} op={} threads", i, limb_threads, op_threads
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
        static ROT_KEYS: OnceLock<wd_ckks::keys::RotationKeys> = OnceLock::new();
        let rk = ROT_KEYS.get_or_init(|| {
            let rots: Vec<isize> = (-6..7).filter(|&r| r != 0).collect();
            ctx.gen_rotation_keys(&kp.secret, &rots, false)
        });
        let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
        let sq = wd_ckks::ops::hmult(ctx, &ct, &ct, &kp.relin).unwrap();
        let rot = if rot == 0 { 1 } else { rot };
        let batch = [BatchOp::HRotate(&ct, rot), BatchOp::Rescale(&sq)];
        let keys = EvalKeys::default().and_rotations(rk);

        let reference = BatchExecutor::sequential().execute(ctx, keys, &batch);

        let fanned = BatchExecutor::new(4).execute(ctx, keys, &batch);
        let split = [
            wd_ckks::ops::hrotate_with(ctx, &ct, rot, rk, limb_threads),
            wd_ckks::ops::rescale_with(ctx, &sq, limb_threads),
        ];

        for (i, r) in reference.iter().enumerate() {
            for got in [&fanned[i], &split[i]] {
                prop_assert_eq!(
                    r.as_ref().unwrap(),
                    got.as_ref().unwrap(),
                    "op {} diverged at limb_threads = {}", i, limb_threads
                );
            }
        }
    }
}
