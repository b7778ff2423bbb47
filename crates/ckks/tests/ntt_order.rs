//! The NTT-domain order convention, pinned from outside the crates that
//! implement it.
//!
//! `wd_polyring::ntt` leaves evaluations in bit-reversed order and every
//! pointwise kernel is order-agnostic, so nothing inside the hot path ever
//! states the order. These tests do: the merged transform against the
//! natural-order definition on every prime the paper's parameter sets use,
//! and the NTT-domain Galois automorphism against the INTT → coefficient
//! automorphism → NTT path it replaced, up through `hrotate`,
//! `hrotate_many` and `hconjugate`.

use wd_ckks::keys::RotationKeys;
use wd_ckks::keyswitch::keyswitch;
use wd_ckks::ops::{hconjugate, hrotate, hrotate_many};
use wd_ckks::{Ciphertext, CkksContext, KeyPair, ParamSet};
use wd_polyring::ntt::{galois_permutation, NttTable};

/// A small deterministic generator, so a failure names a reproducible input.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 11
    }
}

#[test]
fn merged_ntt_matches_the_definition_on_every_table_vi_prime() {
    for set in [ParamSet::set_a(), ParamSet::set_b(), ParamSet::set_c()] {
        let params = set.build().expect("Table VI set builds");
        let top = params.degree().trailing_zeros().min(13);
        for &q in params.q_chain().iter().chain(params.p_chain()) {
            let mut next = lcg(q);
            for log_n in 2..=top {
                let n = 1usize << log_n;
                let t = NttTable::new(q, n).expect("chain primes split X^n + 1");
                let inputs = [
                    (0..n).map(|_| next() % q).collect::<Vec<u64>>(),
                    // Every butterfly at the top of its lazy range.
                    vec![q - 1; n],
                ];
                for data in inputs {
                    let mut fast = data.clone();
                    t.forward(&mut fast);
                    assert!(fast.iter().all(|&v| v < q), "q = {q}, n = {n}: not reduced");
                    let mut back = fast.clone();
                    t.inverse(&mut back);
                    assert_eq!(back, data, "q = {q}, n = {n}: inverse∘forward ≠ id");
                    NttTable::bit_reverse(&mut fast);
                    // All outputs of the O(N²) oracle where that is cheap,
                    // a spread of them (both ends included) where it is not.
                    let stride = (n / 64).max(1);
                    for k in (0..n).step_by(stride).chain([n - 1]) {
                        assert_eq!(
                            fast[k],
                            t.forward_naive_at(&data, k),
                            "q = {q}, n = {n}, output {k}"
                        );
                    }
                }
            }
        }
    }
}

fn fixture() -> (CkksContext, KeyPair) {
    let params = ParamSet::set_a()
        .with_degree(1 << 7)
        .with_level(3)
        .build()
        .expect("params");
    let ctx = CkksContext::with_seed(params, 0x0D0E).expect("context");
    let kp = ctx.keygen();
    (ctx, kp)
}

/// Every Galois element the encoder can hand out for this ring: rotations
/// ±1 … ±N/4 (all of them at N = 128) and conjugation.
fn galois_elements(ctx: &CkksContext) -> Vec<usize> {
    let quarter = (ctx.params().degree() / 4) as isize;
    let mut out: Vec<usize> = (1..=quarter)
        .flat_map(|r| [r, -r])
        .map(|r| ctx.encoder().rotation_galois_element(r))
        .collect();
    out.push(ctx.encoder().conjugation_galois_element());
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn ntt_domain_automorphism_is_bit_identical_to_the_coefficient_route() {
    let (ctx, kp) = fixture();
    let ct = ctx
        .encrypt_values(&[0.5, -1.25, 3.0, 7.5], &kp.public)
        .expect("encrypt");
    let tabs = ctx.q_tables(ct.level);
    let mut coeff = ct.c1.clone();
    coeff.ntt_inverse(tabs);
    let elements = galois_elements(&ctx);
    assert!(elements.len() > ctx.params().degree() / 4);
    for g in elements {
        let mut expect = coeff.automorphism(g);
        expect.ntt_forward(tabs);
        let got = ct
            .c1
            .automorphism_ntt(&galois_permutation(ctx.params().degree(), g));
        assert_eq!(got, expect, "g = {g}");
    }
}

/// HROTATE / conjugation the way they were computed before the automorphism
/// moved into the NTT domain: both components through INTT → coefficient
/// automorphism → NTT, then the keyswitch.
fn apply_galois_by_coefficients(
    ctx: &CkksContext,
    ct: &Ciphertext,
    g: usize,
    keys: &RotationKeys,
) -> Ciphertext {
    let tabs = ctx.q_tables(ct.level);
    let through = |p: &wd_polyring::RnsPoly| {
        let mut c = p.clone();
        c.ntt_inverse(tabs);
        let mut out = c.automorphism(g);
        out.ntt_forward(tabs);
        out
    };
    let (c0g, c1g) = (through(&ct.c0), through(&ct.c1));
    let (ks0, ks1) = keyswitch(ctx, &c1g, keys.get(g).expect("key")).expect("keyswitch");
    Ciphertext {
        c0: c0g.add(&ks0).expect("same ring"),
        c1: ks1,
        level: ct.level,
        scale: ct.scale,
    }
}

fn max_abs_err(got: &[f64], want: impl Fn(usize) -> f64) -> f64 {
    got.iter()
        .enumerate()
        .map(|(i, v)| (v - want(i)).abs())
        .fold(0.0, f64::max)
}

#[test]
fn rotations_and_conjugation_decrypt_exactly_as_before() {
    let (ctx, kp) = fixture();
    let slots = ctx.params().slots();
    let vals: Vec<f64> = (0..slots).map(|i| (i as f64) * 0.25 - 4.0).collect();
    let ct = ctx.encrypt_values(&vals, &kp.public).expect("encrypt");
    let rotations = [1isize, -1, 2, 5, -7, (slots / 2) as isize];
    let keys = ctx.gen_rotation_keys(&kp.secret, &rotations, true);
    let rotated_plain = |r: isize| {
        let vals = vals.clone();
        move |i: usize| vals[(i as isize + r).rem_euclid(slots as isize) as usize]
    };

    // hrotate: the same ciphertext bit for bit, hence the same error.
    for &r in &rotations {
        let g = ctx.encoder().rotation_galois_element(r);
        let got = hrotate(&ctx, &ct, r, &keys).expect("hrotate");
        let old = apply_galois_by_coefficients(&ctx, &ct, g, &keys);
        assert_eq!(got, old, "rotation {r}");
        let dec = ctx.decrypt_values(&got, &kp.secret).expect("decrypt");
        assert!(max_abs_err(&dec, rotated_plain(r)) < 5e-2, "rotation {r}");
    }

    // hconjugate likewise (real slots conjugate to themselves).
    let g = ctx.encoder().conjugation_galois_element();
    let got = hconjugate(&ctx, &ct, &keys).expect("hconjugate");
    assert_eq!(got, apply_galois_by_coefficients(&ctx, &ct, g, &keys));
    let dec = ctx.decrypt_values(&got, &kp.secret).expect("decrypt");
    assert!(max_abs_err(&dec, |i| vals[i]) < 5e-2);

    // hrotate_many hoists ModUp over the rotations, so its keyswitch output
    // differs from the one-at-a-time path by base-conversion slack (it
    // always did); it decrypts to the same plaintext within the same error.
    let many = hrotate_many(&ctx, &ct, &rotations, &keys).expect("hrotate_many");
    for (&r, got) in rotations.iter().zip(&many) {
        let one = hrotate(&ctx, &ct, r, &keys).expect("hrotate");
        let dec_many = ctx.decrypt_values(got, &kp.secret).expect("decrypt");
        let dec_one = ctx.decrypt_values(&one, &kp.secret).expect("decrypt");
        let e_many = max_abs_err(&dec_many, rotated_plain(r));
        let e_one = max_abs_err(&dec_one, rotated_plain(r));
        assert!(e_many < 5e-2, "hoisted rotation {r}: {e_many}");
        assert!(
            (e_many - e_one).abs() < 1e-2,
            "rotation {r}: {e_many} vs {e_one}"
        );
    }
}
