//! Property tests for the serving layer's two core guarantees:
//!
//! 1. **Determinism**: every response is bit-identical to a sequential
//!    fault-free execution of the same operation, at every batch size
//!    (1–32), worker/thread count (1/2/4), and fault seed (injection on or
//!    off). Batching, scheduling, and recovery change *when* an op runs,
//!    never *what* it computes.
//! 2. **Drain**: shutdown answers every accepted request exactly once —
//!    `submitted = completed + shed` — even with requests still queued and
//!    faults injecting at the acceptance drill rate (0.05).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::{CkksContext, ParamSet};
use wd_serve::{Class, Request, ServeConfig, ServeKeys, ServeOp, Server};

/// Context + keys are expensive; share one across all cases (small ring —
/// the guarantees under test are structural, not numeric).
fn shared() -> &'static (Arc<CkksContext>, KeyPair, RotationKeys) {
    static CELL: OnceLock<(Arc<CkksContext>, KeyPair, RotationKeys)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0x5E12E).unwrap();
        let kp = ctx.keygen();
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);
        (Arc::new(ctx), kp, rot)
    })
}

fn serve_keys() -> ServeKeys {
    let (_, kp, rot) = shared();
    ServeKeys::with_relin(kp.relin.clone()).and_rotations(rot.clone())
}

/// A deterministic little op mix over two fresh ciphertexts.
fn op_mix(ct_a: &Ciphertext, ct_b: &Ciphertext, count: usize) -> Vec<ServeOp> {
    (0..count)
        .map(|i| match i % 5 {
            0 => ServeOp::HAdd(ct_a.clone(), ct_b.clone()),
            1 => ServeOp::HMult(ct_a.clone(), ct_b.clone()),
            2 => ServeOp::HSub(ct_b.clone(), ct_a.clone()),
            3 => ServeOp::HRotate(ct_a.clone(), 1),
            _ => ServeOp::Rescale(ct_b.clone()),
        })
        .collect()
}

/// The reference answer: sequential, injection explicitly disabled.
fn reference(ops: &[ServeOp]) -> Vec<Result<Ciphertext, wd_fault::WdError>> {
    let (ctx, kp, rot) = shared();
    let batch: Vec<_> = ops.iter().map(ServeOp::as_batch_op).collect();
    BatchExecutor::sequential()
        .with_fault_plan(FaultPlan::disabled())
        .execute(
            ctx,
            EvalKeys::with_relin(&kp.relin).and_rotations(rot),
            &batch,
        )
}

fn vec_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0..4.0f64, 1..=8)
}

const THREADS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Responses are bit-identical to the sequential fault-free reference
    // at every (batch size, thread count, fault seed) the case draws.
    #[test]
    fn prop_responses_bit_identical_across_batch_threads_faults(
        a in vec_strategy(),
        b in vec_strategy(),
        max_batch in 1usize..=32,
        threads_idx in 0usize..3,
        fault_on in 0u8..2,
        fault_seed in 1u64..1_000,
        op_count in 3usize..=10,
    ) {
        let (ctx, kp, _) = shared();
        let ct_a = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ct_b = ctx.encrypt_values(&b, &kp.public).unwrap();
        let ops = op_mix(&ct_a, &ct_b, op_count);
        let expect = reference(&ops);

        let plan = if fault_on == 1 {
            FaultPlan::new(fault_seed, 0.05)
        } else {
            FaultPlan::disabled()
        };
        let threads = THREADS[threads_idx];
        let config = ServeConfig {
            max_batch,
            linger: Duration::from_micros(100),
            workers: threads.min(2),
            executor: BatchExecutor::auto(threads).with_fault_plan(plan),
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(ctx), serve_keys(), config);
        let tickets: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let class = if i % 2 == 0 { Class::Interactive } else { Class::Bulk };
                server.submit(Request::new(op.clone()).with_class(class)).unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait();
            prop_assert!(resp.batch_size >= 1 && resp.batch_size <= max_batch,
                "batch size {} out of range at op {}", resp.batch_size, i);
            prop_assert_eq!(
                resp.result.as_ref().unwrap(),
                expect[i].as_ref().unwrap(),
                "op {} diverged (batch {}, {} threads, fault {})",
                i, max_batch, threads, fault_on
            );
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, op_count as u64);
        prop_assert_eq!(stats.shed, 0);
    }

    // Drain answers every accepted request exactly once under injected
    // faults, with requests still sitting in the queue at shutdown.
    #[test]
    fn prop_drain_on_shutdown_loses_nothing_under_faults(
        a in vec_strategy(),
        fault_seed in 1u64..1_000,
        op_count in 1usize..=16,
        shed_every in 2usize..=5,
    ) {
        let (ctx, kp, _) = shared();
        let ct = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ops = op_mix(&ct, &ct, op_count);
        let expect = reference(&ops);

        // Nothing can flush before shutdown: a hold keeps the idle workers
        // from taking anything, the size trigger is out of reach and the
        // linger bound is far away. The whole queue drains.
        let config = ServeConfig {
            queue_capacity: 64,
            max_batch: 64,
            linger: Duration::from_secs(10),
            workers: 2,
            executor: BatchExecutor::auto(2)
                .with_fault_plan(FaultPlan::new(fault_seed, 0.05)),
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(ctx), serve_keys(), config);
        let hold = server.hold();
        let tickets: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                // Every shed_every-th request carries an already-expired
                // deadline: it must be shed, deterministically.
                let req = if i % shed_every == 0 {
                    Request::new(op.clone()).with_deadline(Duration::ZERO)
                } else {
                    Request::new(op.clone())
                };
                server.submit(req).unwrap()
            })
            .collect();
        let stats = server.drain();
        drop(hold);
        prop_assert_eq!(stats.submitted, op_count as u64);
        prop_assert_eq!(
            stats.completed + stats.shed, stats.submitted,
            "drain lost or duplicated requests: {:?}", stats
        );
        prop_assert_eq!(stats.rejected, 0);

        let mut completed = 0u64;
        let mut shed = 0u64;
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait();
            match resp.result {
                Err(wd_fault::WdError::DeadlineExceeded { .. }) => {
                    prop_assert_eq!(i % shed_every, 0, "only zero-deadline requests shed");
                    prop_assert_eq!(resp.batch_size, 0);
                    shed += 1;
                }
                ref r => {
                    prop_assert_eq!(
                        r.as_ref().unwrap(),
                        expect[i].as_ref().unwrap(),
                        "drained op {} diverged from the fault-free reference", i
                    );
                    completed += 1;
                }
            }
        }
        prop_assert_eq!(completed, stats.completed);
        prop_assert_eq!(shed, stats.shed);
    }
}
