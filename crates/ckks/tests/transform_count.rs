//! Pins the number of host limb transforms a keyswitch, a rescale, an
//! encryption and a BGV HMULT perform.
//!
//! Every RNS-wide transform (`RnsPoly::ntt_{forward,inverse}`, one thread
//! of their `_with` twins) and every single-limb transform of the fused
//! paths reports itself to the
//! `polyring.ntt_limb_transforms` trace counter, so the count is read from
//! the code that runs, not computed from parameters. With K special primes
//! (α = K limbs per digit, dnum = ⌈(l+1)/K⌉) a keyswitch at level l is
//!
//! - `l + 1`: the INTT of the input, shared by every digit;
//! - `dnum · (l+1+K) − (l+1)`: one forward transform per (digit, target
//!   limb) except the digit's own limbs, whose NTT is the operand limb
//!   itself and is copied;
//! - `2 · (K + l+1)`: ModDown of both accumulators — INTT of the K special
//!   limbs only, NTT of the correction over Q;
//!
//! `(dnum + 2) · (l+1+K)` in all, which at K = 1 is
//! `(l+1) + dnum·(l+1) + 2·(l+2)`. A hoisted keyswitch on a kept
//! decomposition is the ModDown part only, and one rescale at level l is
//! `2 · (1 + l)`: per component, INTT of the dropped limb and NTT of the
//! correction over the l kept limbs. (Until PR 23 the keyswitch figure was
//! `(l+1) + dnum·(l+2) + 2·(2l+3)` — 93 / 317 at the SET-B / SET-C chains —
//! and a rescale `2·(2l+1)`; `benchmark/`'s `polyring.ntt_calls_per_keyswitch`
//! is computed from parameters and still reads the old figure.)
//!
//! Encrypting a level-l plaintext is `3 · (l+1)`: forward transforms of the
//! ternary v and of both error polynomials over q_0…q_l.
//!
//! Key generation at the top level L with K = 1 is `(L+2) + (L+1) +
//! dnum·(L+2)`: the secret over the full basis, the public key's error over
//! q_0…q_L, and one error per relinearization digit over the full basis. A
//! rotation key is `dnum·(L+2)`, and BGV key generation, the same generator
//! with t-scaled noise, counts what CKKS's does.
//!
//! A BGV HMULT at level l (K = 1, so dnum = l+1) shares ModUp and the inner
//! product with the CKKS keyswitch — `(l+1) + dnum·(l+2) − (l+1) =
//! (l+1)·(l+2)` — and then runs its own ModDown per accumulator: the INTT of
//! all `l+2` limbs (the exact correction reads the centred P-residue in the
//! coefficient domain) and the NTT of the result over the `l+1` kept limbs,
//! `2 · (2l+3)` for both. `(l+1)·(l+2) + 2·(2l+3)` in all: 52 at l = 4,
//! `2·(l+1)` more than a CKKS keyswitch at the same level.
//!
//! One test function on purpose: this binary owns its process, so mutating
//! the process-global tracer level cannot race other tests.

use wd_ckks::bgv::BgvContext;
use wd_ckks::keyswitch::{keyswitch, keyswitch_hoisted, HoistedDecomposition};
use wd_ckks::{ops, CkksContext, CkksError, ParamSet};

const COUNTER: &str = "polyring.ntt_limb_transforms";

/// Limb transforms counted while `f` runs.
fn transforms_during<T>(f: impl FnOnce() -> Result<T, CkksError>) -> Result<u64, CkksError> {
    wd_trace::reset();
    f()?;
    Ok(wd_trace::snapshot().counter(COUNTER))
}

#[test]
fn keyswitch_transform_count_matches_the_formula() -> Result<(), CkksError> {
    wd_trace::set_level(wd_trace::TraceLevel::Summary);
    // The SET-B and SET-C chains (Table VI, K = 1) on a shrunken ring, and
    // the SET-B chain with two special primes (α = 2, a partial last digit).
    for (set, k, top, at_top) in [
        (ParamSet::set_b(), 1u64, 6u64, 72u64),
        (ParamSet::set_c(), 1, 14, 272),
        (ParamSet::set_b().with_special(2), 2, 6, 54),
    ] {
        let ctx = CkksContext::with_seed(set.with_degree(1 << 6).build()?, 5)?;
        assert_eq!(ctx.params().special_count() as u64, k);
        assert_eq!(ctx.params().max_level() as u64, top);
        let kp = ctx.keygen();
        if k == 1 {
            let dnum = ctx.params().dnum_at(top as usize) as u64;
            assert_eq!(
                transforms_during(|| Ok(ctx.keygen()))?,
                (top + 2) + (top + 1) + dnum * (top + 2),
                "keygen at top level {top}"
            );
            assert_eq!(
                transforms_during(|| Ok(ctx.gen_rotation_keys(&kp.secret, &[1], false)))?,
                dnum * (top + 2),
                "rotation key at top level {top}"
            );
        }
        let fresh = ctx.encrypt_values(&[1.5, -0.5], &kp.public)?;
        for l in [top, top / 2, 0] {
            let slots = [wd_ckks::encoding::C64::new(1.5, -0.5)];
            let pt = ctx.encode_complex_at(&slots, l as usize, ctx.params().scale())?;
            let d = pt.poly.clone();
            let full = l + 1 + k;
            let dnum = (l + 1).div_ceil(k);
            assert_eq!(dnum, ctx.params().dnum_at(l as usize) as u64);
            let mod_down_both = 2 * full;
            let whole = (l + 1) + (dnum * full - (l + 1)) + mod_down_both;
            if k == 1 {
                assert_eq!(whole, (l + 1) + dnum * (l + 1) + 2 * (l + 2));
            }
            if l == top {
                assert_eq!(whole, at_top);
            }
            assert_eq!(
                transforms_during(|| keyswitch(&ctx, &d, &kp.relin))?,
                whole,
                "keyswitch at level {l} of {top}, K = {k}"
            );
            let hoisted = HoistedDecomposition::new(&ctx, &d)?;
            assert_eq!(
                transforms_during(|| keyswitch_hoisted(&ctx, &hoisted, 5, &kp.relin))?,
                mod_down_both,
                "hoisted keyswitch at level {l} of {top}, K = {k}"
            );
            assert_eq!(
                transforms_during(|| ctx.encrypt(&pt, &kp.public))?,
                3 * (l + 1),
                "encrypt at level {l} of {top}"
            );
            if l > 0 {
                let ct = ops::level_drop(&fresh, l as usize)?;
                assert_eq!(
                    transforms_during(|| ops::rescale(&ctx, &ct))?,
                    2 * (1 + l),
                    "rescale at level {l} of {top}"
                );
            }
        }
    }

    let l = 4u64;
    let params = ParamSet::set_a()
        .with_degree(1 << 6)
        .with_level(l as usize)
        .build()?;
    let ckks = CkksContext::with_seed(params.clone(), 808)?;
    let ckks_keygen = transforms_during(|| Ok(ckks.keygen()))?;
    let bgv = BgvContext::new(CkksContext::with_seed(params, 808)?, 16)?;
    assert_eq!(ckks_keygen, (l + 2) + (l + 1) + (l + 1) * (l + 2));
    assert_eq!(
        transforms_during(|| Ok(bgv.keygen()))?,
        ckks_keygen,
        "BGV keygen at level {l}"
    );
    let kp = bgv.keygen();
    let ct = bgv.encrypt(&bgv.encode(&[3, 1, 4])?, &kp)?;
    assert_eq!(ct.level as u64, l);
    let bgv_hmult = (l + 1) * (l + 2) + 2 * (2 * l + 3);
    assert_eq!(bgv_hmult, 52);
    assert_eq!(
        transforms_during(|| bgv.hmult(&ct, &ct, &kp))?,
        bgv_hmult,
        "BGV hmult at level {l}"
    );
    wd_trace::set_level(wd_trace::TraceLevel::Off);
    Ok(())
}
