//! Property tests: the `ParScheduler` split — op-level, limb-level, or
//! auto, at any thread budget — never changes results. Every scheduled
//! execution is **bit-identical** to the sequential fallback, the same
//! invariant the per-axis `par_equivalence` suite checks for raw widths.

use std::sync::OnceLock;

use proptest::prelude::*;
use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys, ParScheduler, SchedPolicy};
use wd_ckks::keys::KeyPair;
use wd_ckks::{CkksContext, ParamSet};

const POLICIES: [SchedPolicy; 3] = [SchedPolicy::Op, SchedPolicy::Limb, SchedPolicy::Auto];
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

fn vec_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0..4.0f64, 1..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_mixed_batch_bit_identical_across_policies_and_budgets(
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

        for &budget in &BUDGETS {
            for &policy in &POLICIES {
                let exec = BatchExecutor::new(budget)
                    .with_scheduler(ParScheduler::new(budget).with_policy(policy));
                let got = exec.execute(ctx, keys, &batch);
                for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                    prop_assert_eq!(
                        r.as_ref().unwrap(),
                        g.as_ref().unwrap(),
                        "op {} diverged under {:?} at budget {}", i, policy, budget
                    );
                }
            }
        }
    }
}
