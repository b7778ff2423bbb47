//! Property tests for the scratch-arena hot path: leasing temporaries from
//! a [`ScratchArena`] must never change a single output bit relative to the
//! fresh-allocation path, at every batch size (1–32), thread count (1/2/4),
//! and fault seed (acceptance drill rate 0.05) — including when the arena
//! is too small and leases overflow to the heap (`fallback`), and when the
//! executor's per-slot arenas are warm from earlier batches.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::{CkksContext, ParamSet};
use wd_fault::WdError;
use wd_polyring::scratch::{self, ScratchArena};
use wd_serve::{Request, ServeConfig, ServeKeys, ServeOp, Server};

/// Context + keys are expensive; share one across all cases (small ring —
/// the guarantee under test is structural, not numeric).
fn shared() -> &'static (Arc<CkksContext>, KeyPair, RotationKeys) {
    static CELL: OnceLock<(Arc<CkksContext>, KeyPair, RotationKeys)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0xA1E4A).unwrap();
        let kp = ctx.keygen();
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);
        (Arc::new(ctx), kp, rot)
    })
}

/// A deterministic little op mix over two fresh ciphertexts, heavy on the
/// keyswitch-bearing ops (HMULT, HROTATE) the arena actually serves.
fn op_mix(ct_a: &Ciphertext, ct_b: &Ciphertext, count: usize) -> Vec<ServeOp> {
    (0..count)
        .map(|i| match i % 4 {
            0 => ServeOp::HMult(ct_a.clone(), ct_b.clone()),
            1 => ServeOp::HRotate(ct_a.clone(), 1),
            2 => ServeOp::HMult(ct_b.clone(), ct_a.clone()),
            _ => ServeOp::HAdd(ct_a.clone(), ct_b.clone()),
        })
        .collect()
}

fn eval_keys() -> EvalKeys<'static> {
    let (_, kp, rot) = shared();
    EvalKeys::with_relin(&kp.relin).and_rotations(rot)
}

/// The reference answer: sequential, injection disabled, and — the point of
/// this file — a **disabled** arena installed on the calling thread, so
/// every scratch lease bypasses the shelves and takes the fresh
/// `vec![0; len]` path the code used before pooling existed.
fn fresh_reference(ops: &[ServeOp]) -> Vec<Result<Ciphertext, WdError>> {
    let (ctx, _, _) = shared();
    let batch: Vec<BatchOp<'_>> = ops.iter().map(ServeOp::as_batch_op).collect();
    scratch::with_worker_arena(&ScratchArena::disabled(), || {
        BatchExecutor::sequential()
            .with_fault_plan(FaultPlan::disabled())
            .execute(ctx, eval_keys(), &batch)
    })
}

const THREADS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Arena-leased execution — executor-owned per-slot arenas, warm or
    // cold — is bit-identical to the fresh-allocation reference at every
    // (batch size, thread count, fault seed) drawn.
    #[test]
    fn prop_arena_execution_bit_identical(
        a in proptest::collection::vec(-4.0..4.0f64, 1..=8),
        b in proptest::collection::vec(-4.0..4.0f64, 1..=8),
        batch_size in 1usize..=32,
        threads_idx in 0usize..3,
        fault_on in 0u8..2,
        fault_seed in 1u64..1_000,
    ) {
        let (ctx, kp, _) = shared();
        let ct_a = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ct_b = ctx.encrypt_values(&b, &kp.public).unwrap();
        let ops = op_mix(&ct_a, &ct_b, batch_size);
        let expect = fresh_reference(&ops);
        let batch: Vec<BatchOp<'_>> = ops.iter().map(ServeOp::as_batch_op).collect();

        let plan = if fault_on == 1 {
            FaultPlan::new(fault_seed, 0.05)
        } else {
            FaultPlan::disabled()
        };
        let threads = THREADS[threads_idx];
        let ex = BatchExecutor::auto(threads).with_fault_plan(plan);
        // Twice through the same executor: the first pass runs on cold
        // arenas (every lease is a fresh allocation parked on return), the
        // second on warm shelves (pure reuse). Both must match the
        // reference exactly.
        for pass in 0..2 {
            let got = ex.execute(ctx, eval_keys(), &batch);
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(
                    g.as_ref().unwrap(),
                    e.as_ref().unwrap(),
                    "op {} diverged (pass {}, batch {}, {} threads, fault {})",
                    i, pass, batch_size, threads, fault_on
                );
            }
        }
    }

    // A worker-owned arena installed on the calling thread (the wd-serve
    // worker shape) with a *tiny* capacity: leases overflow the cap and
    // fall back to the heap, results stay bit-identical, and the fallback
    // counter records the overflow.
    #[test]
    fn prop_exhausted_arena_falls_back_bit_identically(
        a in proptest::collection::vec(-4.0..4.0f64, 1..=8),
        batch_size in 1usize..=8,
        fault_seed in 1u64..1_000,
    ) {
        let (ctx, kp, _) = shared();
        let ct = ctx.encrypt_values(&a, &kp.public).unwrap();
        let ops = op_mix(&ct, &ct, batch_size);
        let expect = fresh_reference(&ops);
        let batch: Vec<BatchOp<'_>> = ops.iter().map(ServeOp::as_batch_op).collect();

        // 256 bytes parks nothing a 64-degree limb needs (512 bytes+):
        // every lease that tries to park gets dropped, and any lease while
        // the shelves are empty is a fallback.
        let tiny = ScratchArena::with_capacity(256);
        let got = scratch::with_worker_arena(&tiny, || {
            BatchExecutor::sequential()
                .with_fault_plan(FaultPlan::new(fault_seed, 0.05))
                .execute(ctx, eval_keys(), &batch)
        });
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(
                g.as_ref().unwrap(),
                e.as_ref().unwrap(),
                "op {} diverged under an exhausted arena", i
            );
        }
        let stats = tiny.stats();
        prop_assert!(
            stats.fallbacks > 0,
            "a 256-byte arena must overflow on real ops: {:?}", stats
        );
        // Tiny leases (per-coefficient residue buffers) may still park;
        // the cap bounds what does.
        prop_assert!(tiny.parked_bytes() <= 256);
    }
}

/// The serving layer publishes the per-batch `serve.arena.fallback` counter
/// (the worker's arena-overflow delta) whenever tracing is on — the signal
/// an operator watches to catch undersized worker arenas.
#[test]
fn server_publishes_arena_fallback_counter() {
    let (ctx, kp, rot) = shared();
    let keys = ServeKeys::with_relin(kp.relin.clone()).and_rotations(rot.clone());
    let ct = ctx.encrypt_values(&[1.0, -2.0], &kp.public).unwrap();

    wd_trace::global().reset();
    wd_trace::set_level(wd_trace::TraceLevel::Summary);
    let config = ServeConfig {
        max_batch: 4,
        linger: Duration::from_micros(100),
        workers: 1,
        executor: BatchExecutor::sequential().with_fault_plan(FaultPlan::disabled()),
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(ctx), keys, config);
    let tickets: Vec<_> = op_mix(&ct, &ct, 4)
        .into_iter()
        .map(|op| server.submit(Request::new(op)).unwrap())
        .collect();
    for t in tickets {
        assert!(t.wait().result.is_ok());
    }
    server.shutdown();
    let snap = wd_trace::global().snapshot();
    wd_trace::set_level(wd_trace::TraceLevel::Off);
    assert!(
        snap.counters
            .iter()
            .any(|(k, _)| k == "serve.arena.fallback"),
        "worker must publish serve.arena.fallback per batch; counters: {:?}",
        snap.counters
    );
    // A 64 MiB worker arena never overflows on a 64-degree ring.
    assert_eq!(snap.counter("serve.arena.fallback"), 0);
    // And the arena actually served leases (the hot path went through it).
    assert!(
        snap.counter("arena.lease") > 0,
        "ops must lease scratch from the worker arena; counters: {:?}",
        snap.counters
    );
}
