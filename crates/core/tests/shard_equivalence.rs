//! Property tests: sharded execution across modeled device lanes is
//! **bit-identical** to a single-device sequential run for random inputs,
//! at every device count, placement policy, thread budget, and fault seed
//! — including the device-loss degrade ladder (lost lanes re-place onto
//! survivors; losing every device falls back to unsharded execution).

use std::sync::OnceLock;

use proptest::prelude::*;
use warpdrive_core::{
    BatchExecutor, BatchOp, EvalKeys, FaultPlan, PlacePolicy, Placer, RetryPolicy,
};
use wd_ckks::keys::KeyPair;
use wd_ckks::{CkksContext, ParamSet};

/// Context + keys are expensive; share one across all cases.
fn shared() -> &'static (CkksContext, KeyPair) {
    static CELL: OnceLock<(CkksContext, KeyPair)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_b().with_degree(1 << 7).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0x5A4D).unwrap();
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
    fn prop_sharded_bit_identical_to_sequential(
        a in vec_strategy(),
        b in vec_strategy(),
        devices in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        threads in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        policy in (0usize..3).prop_map(|i| {
            [PlacePolicy::RoundRobin, PlacePolicy::Bytes, PlacePolicy::Auto][i]
        }),
        seed in 0u64..1_000,
    ) {
        let (ctx, kp) = shared();
        let ct_a = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ct_b = ctx.encrypt_values(&b, &kp.public).unwrap();
        let batch = [
            BatchOp::HAdd(&ct_a, &ct_b),
            BatchOp::HMult(&ct_a, &ct_b),
            BatchOp::HSub(&ct_b, &ct_a),
            BatchOp::HMult(&ct_b, &ct_b),
            BatchOp::Rescale(&ct_a),
        ];
        let keys = EvalKeys::with_relin(&kp.relin);

        let reference = BatchExecutor::sequential()
            .with_fault_plan(FaultPlan::disabled())
            .execute(ctx, keys, &batch);

        // The mirror of the CI drill environment: WD_FAULT_RATE=0.05 with
        // a per-case seed, injected explicitly so the property holds
        // whatever the process environment says.
        let exec = BatchExecutor::new(threads)
            .with_fault_plan(FaultPlan::new(seed, 0.05))
            .with_placer(Placer::new(devices).with_policy(policy));
        let got = exec.execute(ctx, keys, &batch);

        prop_assert_eq!(reference.len(), got.len());
        for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
            prop_assert_eq!(
                r.as_ref().unwrap(),
                g.as_ref().unwrap(),
                "op {} diverged at devices={} threads={} policy={:?} seed={}",
                i, devices, threads, policy, seed
            );
        }
        let stats = exec.device_stats();
        prop_assert_eq!(stats.len(), devices, "one stats line per device");
        prop_assert!(
            stats.iter().all(|d| d.depth == 0 && (d.alive || d.ops == 0)),
            "nothing stays in flight and a lost device runs nothing: {:?}", stats
        );
    }

    #[test]
    fn prop_device_loss_degrades_bit_identically(
        vals in vec_strategy(),
        devices in (0usize..3).prop_map(|i| [2usize, 4, 8][i]),
        rate in (0usize..2).prop_map(|i| [0.4f64, 1.0][i]),
        seed in 0u64..1_000,
    ) {
        let (ctx, kp) = shared();
        let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
        let batch = [
            BatchOp::HMult(&ct, &ct),
            BatchOp::HAdd(&ct, &ct),
            BatchOp::HMult(&ct, &ct),
            BatchOp::Rescale(&ct),
        ];
        let keys = EvalKeys::with_relin(&kp.relin);

        let reference = BatchExecutor::sequential()
            .with_fault_plan(FaultPlan::disabled())
            .execute(ctx, keys, &batch);

        // Aggressive fault rates knock out devices (rate 1.0 loses every
        // lane and exercises the unsharded rung-2 fallback); retry with
        // zero backoff keeps the test fast while the degrade ladder
        // guarantees completion.
        let exec = BatchExecutor::new(2)
            .with_fault_plan(FaultPlan::new(seed, rate))
            .with_retry_policy(RetryPolicy {
                max_attempts: 2,
                base_backoff: std::time::Duration::ZERO,
            })
            .with_placer(Placer::new(devices));
        let got = exec.execute(ctx, keys, &batch);

        for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
            prop_assert_eq!(
                r.as_ref().unwrap(),
                g.as_ref().unwrap(),
                "op {} diverged at devices={} rate={} seed={}",
                i, devices, rate, seed
            );
        }
        let stats = exec.device_stats();
        prop_assert_eq!(stats.len(), devices);
        if (rate - 1.0).abs() < f64::EPSILON {
            prop_assert!(
                stats.iter().all(|d| !d.alive),
                "rate 1.0 must lose every device"
            );
        }
    }
}
