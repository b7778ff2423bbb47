//! Several threads on one cold context, at the same time, on purpose.
//!
//! A `CkksContext` is immutable once `with_seed` returns, apart from its
//! RNG: every base converter and constant a keyswitch or rescale needs is
//! built with it, and a rotation key carries its own Galois permutation.
//! Both used to be filled on first use, under locks, on the request path.
//! This suite releases threads through a barrier into exactly those first
//! uses — rotation, conjugation, hoisted rotation, rescale and keyswitch at
//! two levels of a context nothing has run on — and demands, from every
//! thread, the bits of a sequential run on a second context with the same
//! seed. Encryption draws from the shared RNG, so its bits depend on the
//! schedule; those ciphertexts are checked by decryption instead.

use std::sync::Barrier;

use wd_ckks::keys::RotationKeys;
use wd_ckks::keyswitch::keyswitch;
use wd_ckks::ops::{hconjugate, hrotate, hrotate_many, level_drop, rescale};
use wd_ckks::{noise, Ciphertext, CkksContext, CkksError, KeyPair, ParamSet};
use wd_polyring::rns::RnsPoly;

const SEED: u64 = 0xC01D;
const THREADS: usize = 4;
const ROUNDS: usize = 8;
const VALUES: [f64; 4] = [1.5, -2.0, 0.25, 3.0];

fn context() -> Result<CkksContext, CkksError> {
    CkksContext::with_seed(ParamSet::set_b().with_degree(1 << 6).build()?, SEED)
}

/// Every deterministic operation under test, at the top level and two
/// levels down.
#[derive(Debug, PartialEq)]
struct Outputs {
    cts: Vec<Ciphertext>,
    switched: Vec<(RnsPoly, RnsPoly)>,
}

fn run(
    ctx: &CkksContext,
    kp: &KeyPair,
    rot: &RotationKeys,
    top: &Ciphertext,
) -> Result<Outputs, CkksError> {
    let low = level_drop(top, top.level - 2)?;
    let mut cts = Vec::new();
    let mut switched = Vec::new();
    for ct in [top, &low] {
        cts.push(hrotate(ctx, ct, 1, rot)?);
        cts.push(hconjugate(ctx, ct, rot)?);
        cts.extend(hrotate_many(ctx, ct, &[1, 2, 3], rot)?);
        cts.push(rescale(ctx, ct)?);
        switched.push(keyswitch(ctx, &ct.c1, &kp.relin)?);
    }
    Ok(Outputs { cts, switched })
}

#[test]
fn threads_on_a_cold_context_match_a_sequential_run() -> Result<(), CkksError> {
    // Keys and inputs come from the reference context, so the context
    // under test has run nothing when the threads start.
    let reference = context()?;
    let kp = reference.keygen();
    let rot = reference.gen_rotation_keys(&kp.secret, &[1, 2, 3], true);
    let top = reference.encrypt_values(&VALUES, &kp.public)?;
    let expect = run(&reference, &kp, &rot, &top)?;

    // A fresh cold context per round: the first uses race only once each.
    for round in 0..ROUNDS {
        let cold = context()?;
        let barrier = Barrier::new(THREADS);
        let results: Vec<Result<(Outputs, Ciphertext), CkksError>> = std::thread::scope(|scope| {
            let running: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let outputs = run(&cold, &kp, &rot, &top)?;
                        let fresh = cold.encrypt_values(&VALUES, &kp.public)?;
                        Ok((outputs, fresh))
                    })
                })
                .collect();
            running
                .into_iter()
                .map(|t| t.join().expect("worker panicked"))
                .collect()
        });
        for (i, result) in results.into_iter().enumerate() {
            let (outputs, fresh) = result?;
            assert!(
                outputs == expect,
                "round {round}, thread {i}: diverged from the sequential run"
            );
            noise::ensure_budget(&cold, &fresh, &kp.secret, &VALUES, 8.0)?;
        }
    }
    Ok(())
}
