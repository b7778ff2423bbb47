//! Full-size parallel-layer smoke tests at the paper's parameter shapes.
//!
//! The regular suites use shrunken rings; the same workloads at the
//! paper's sizes live here as `#[ignore]` tests with a handful of
//! iterations (their timings are the host benchmark's business:
//! `polyring.rns_ntt_*_ms`, `core.batch2_ms`).
//! The CI bench-smoke job runs them with
//! `cargo test --release -p wd-bench --test fullsize_par_smoke -- --ignored`;
//! locally they are skipped unless you ask for them.
//!
//! What they guard: the parallel layer stays **bit-identical** to the
//! sequential fallback at full SET-E ring size (N = 2^16, 34 limbs) and
//! at the SET-B HMULT shape — not just at the shrunken rings the regular
//! test suite uses.

use std::sync::Arc;

use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::params::ParamSet;
use wd_ckks::CkksContext;
use wd_modmath::prime::generate_ntt_primes;
use wd_polyring::ntt::NttTable;
use wd_polyring::rns::RnsPoly;

fn make_batch(primes: &[u64], n: usize, count: usize) -> Vec<RnsPoly> {
    (0..count)
        .map(|j| {
            let coeffs: Vec<i64> = (0..n)
                .map(|i| (((i * 2654435761 + j * 97) % 4093) as i64) - 2046)
                .collect();
            RnsPoly::from_signed(primes, &coeffs).unwrap()
        })
        .collect()
}

/// SET-E shape (N = 2^16, L = 34): forward/inverse NTT roundtrip at 1 and
/// 4 threads, two reduced iterations each, bit-identical to the input.
#[test]
#[ignore = "full-size; run via CI bench-smoke with --ignored"]
fn fullsize_ntt_roundtrip_set_e_shape() {
    let (n, limbs) = (1usize << 16, 34usize);
    // 28-bit primes ≡ 1 mod 2^17 are plentiful; the 26-bit pool is too
    // small for 34 of them.
    let primes = generate_ntt_primes(28, 2 * n as u64, limbs).unwrap();
    let tables: Vec<Arc<NttTable>> = primes
        .iter()
        .map(|&q| Arc::new(NttTable::new(q, n).unwrap()))
        .collect();
    let polys = make_batch(&primes, n, 2);

    let mut reference = polys.clone();
    for p in &mut reference {
        p.ntt_forward_with(&tables, 1);
    }

    for threads in [1usize, 4] {
        let mut work = polys.clone();
        for _ in 0..2 {
            for p in &mut work {
                p.ntt_forward_with(&tables, threads);
            }
            assert_eq!(work, reference, "forward NTT diverged at {threads} threads");
            for p in &mut work {
                p.ntt_inverse_with(&tables, threads);
            }
            assert_eq!(work, polys, "NTT roundtrip not exact at {threads} threads");
        }
    }
}

/// SET-B HMULT batch at N = 2^12: scheduled executors (budgets 1 and 4)
/// against the sequential fallback, one reduced batch.
#[test]
#[ignore = "full-size; run via CI bench-smoke with --ignored"]
fn fullsize_hmult_batch_set_b_shape() {
    let params = ParamSet::set_b()
        .with_degree(1 << 12)
        .build()
        .expect("SET-B params");
    let ctx = CkksContext::with_seed(params, 616).unwrap();
    let kp = ctx.keygen();

    let slots = ctx.params().slots().min(64);
    let cts: Vec<Ciphertext> = (0..4)
        .map(|j| {
            let vals: Vec<f64> = (0..slots)
                .map(|i| ((i + 7 * j) % 11) as f64 * 0.125)
                .collect();
            ctx.encrypt_values(&vals, &kp.public).unwrap()
        })
        .collect();
    let batch: Vec<BatchOp> = cts
        .iter()
        .enumerate()
        .map(|(j, ct)| BatchOp::HMult(ct, &cts[(j + 1) % cts.len()]))
        .collect();
    let keys = EvalKeys::with_relin(&kp.relin);

    let reference = BatchExecutor::sequential().execute(&ctx, keys, &batch);

    for budget in [1usize, 4] {
        let out = BatchExecutor::auto(budget).execute(&ctx, keys, &batch);
        for (i, (r, o)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(
                r.as_ref().unwrap(),
                o.as_ref().unwrap(),
                "HMULT {i} diverged at budget {budget}"
            );
        }
    }
}
