//! Homomorphic evaluation operations (paper §II-A).
//!
//! HADD, PMULT, HMULT (with relinearization through the hybrid keyswitch),
//! HROTATE, conjugation, and RESCALE — including the double-prime rescaling
//! mode of \[5\] via `rescale_by(ct, 2)`.

use crate::cipher::{relative_eq, Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::encoding::C64;
use crate::keys::{KeySwitchKey, RotationKeys};
use crate::keyswitch::{key_permutation, keyswitch, keyswitch_with, sub_lifted_and_scale};
use crate::CkksError;
use wd_fault::OperandMismatch;
use wd_polyring::rns::{count_limb_transforms, RnsPoly};
use wd_polyring::Poly;

/// Homomorphic addition: slot-wise ct0 + ct1.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] unless levels and scales agree (use
/// [`align_levels`] / RESCALE first).
pub fn hadd(ct0: &Ciphertext, ct1: &Ciphertext) -> Result<Ciphertext, CkksError> {
    if !ct0.compatible(ct1) {
        return Err(CkksError::operand_mismatch(
            "hadd",
            (ct0.level, ct0.scale),
            (ct1.level, ct1.scale),
        ));
    }
    Ok(Ciphertext {
        c0: ct0.c0.add(&ct1.c0)?,
        c1: ct0.c1.add(&ct1.c1)?,
        level: ct0.level,
        scale: ct0.scale,
    })
}

/// Homomorphic subtraction: slot-wise ct0 − ct1.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] unless levels and scales agree.
pub fn hsub(ct0: &Ciphertext, ct1: &Ciphertext) -> Result<Ciphertext, CkksError> {
    if !ct0.compatible(ct1) {
        return Err(CkksError::operand_mismatch(
            "hsub",
            (ct0.level, ct0.scale),
            (ct1.level, ct1.scale),
        ));
    }
    Ok(Ciphertext {
        c0: ct0.c0.sub(&ct1.c0)?,
        c1: ct0.c1.sub(&ct1.c1)?,
        level: ct0.level,
        scale: ct0.scale,
    })
}

/// Negation of every slot.
pub fn hneg(ct: &Ciphertext) -> Ciphertext {
    Ciphertext {
        c0: ct.c0.neg(),
        c1: ct.c1.neg(),
        level: ct.level,
        scale: ct.scale,
    }
}

/// Plaintext–ciphertext multiplication (PMULT). The result's scale is the
/// product of scales; rescale afterwards.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] if levels differ.
pub fn pmult(ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
    if pt.level != ct.level {
        return Err(CkksError::LevelMismatch(
            OperandMismatch::new("pmult", (ct.level, ct.scale), (pt.level, pt.scale)).with_detail(
                format!(
                    "pmult: plaintext level {} vs ciphertext {}",
                    pt.level, ct.level
                ),
            ),
        ));
    }
    Ok(Ciphertext {
        c0: ct.c0.pointwise(&pt.poly)?,
        c1: ct.c1.pointwise(&pt.poly)?,
        level: ct.level,
        scale: ct.scale * pt.scale,
    })
}

/// Adds an encoded plaintext (scales must match).
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] on level or scale disagreement.
pub fn add_plain(ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
    if pt.level != ct.level || !relative_eq(pt.scale, ct.scale) {
        return Err(CkksError::operand_mismatch(
            "add_plain",
            (ct.level, ct.scale),
            (pt.level, pt.scale),
        ));
    }
    Ok(Ciphertext {
        c0: ct.c0.add(&pt.poly)?,
        c1: ct.c1.clone(),
        level: ct.level,
        scale: ct.scale,
    })
}

/// Homomorphic multiplication with relinearization (HMULT):
/// slot-wise ct0 · ct1, keyswitching the degree-2 term back to (c0, c1).
/// One thread; [`hmult_with`] takes a width.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] on incompatible operands or key.
pub fn hmult(
    ctx: &CkksContext,
    ct0: &Ciphertext,
    ct1: &Ciphertext,
    relin: &KeySwitchKey,
) -> Result<Ciphertext, CkksError> {
    hmult_with(ctx, ct0, ct1, relin, 1)
}

/// [`hmult`] with its relinearization keyswitch fanned out over at most
/// `threads` host threads by limb (see `wd_polyring::par`). The width is the
/// caller's to hand down — nothing is stored on the shared context — and
/// every width computes bit-identical results.
///
/// # Errors
///
/// As [`hmult`].
pub fn hmult_with(
    ctx: &CkksContext,
    ct0: &Ciphertext,
    ct1: &Ciphertext,
    relin: &KeySwitchKey,
    threads: usize,
) -> Result<Ciphertext, CkksError> {
    let _span = wd_trace::span("ckks", "hmult");
    if ct0.level != ct1.level {
        return Err(CkksError::LevelMismatch(
            OperandMismatch::new("hmult", (ct0.level, ct0.scale), (ct1.level, ct1.scale))
                .with_detail(format!("hmult: levels {} vs {}", ct0.level, ct1.level)),
        ));
    }
    // Only the keyswitch takes the width; the tensor products run on the
    // calling thread, though they are not free: at SET-A, on one thread,
    // they and their sums took 0.17 of a 0.59 ms HMULT as separate
    // products, and 0.08 of 0.49 ms accumulated as below. d2 is the
    // keyswitch's input and dies with it; the other three products
    // accumulate straight into its outputs, so the op allocates only what
    // it returns. Every residue is fully reduced, so the order of the sums
    // changes no bit.
    let d2 = ct0.c1.pointwise(&ct1.c1)?;
    let (mut c0, mut c1) = keyswitch_with(ctx, &d2, relin, threads)?;
    drop(d2);
    c0.mul_add_assign(&ct0.c0, &ct1.c0)?;
    c1.mul_add_assign(&ct0.c0, &ct1.c1)?;
    c1.mul_add_assign(&ct0.c1, &ct1.c0)?;
    Ok(Ciphertext {
        c0,
        c1,
        level: ct0.level,
        scale: ct0.scale * ct1.scale,
    })
}

/// Squares a ciphertext (saves one of HMULT's three pointwise products).
///
/// # Errors
///
/// Propagates keyswitch errors.
pub fn hsquare(
    ctx: &CkksContext,
    ct: &Ciphertext,
    relin: &KeySwitchKey,
) -> Result<Ciphertext, CkksError> {
    // As in `hmult_with`: only d2 is a temporary, and the cross term
    // 2·c0·c1 is two multiply-accumulates into the keyswitch's output.
    let d2 = ct.c1.pointwise(&ct.c1)?;
    let (mut c0, mut c1) = keyswitch(ctx, &d2, relin)?;
    drop(d2);
    c0.mul_add_assign(&ct.c0, &ct.c0)?;
    c1.mul_add_assign(&ct.c0, &ct.c1)?;
    c1.mul_add_assign(&ct.c0, &ct.c1)?;
    Ok(Ciphertext {
        c0,
        c1,
        level: ct.level,
        scale: ct.scale * ct.scale,
    })
}

/// RESCALE: drops the last chain prime, dividing the message scale by it.
/// One thread; [`rescale_with`] takes a width.
///
/// # Errors
///
/// Returns [`CkksError::ModulusChainExhausted`] at level 0.
pub fn rescale(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
    rescale_steps(ctx, ct, 1, 1)
}

/// [`rescale`] with its transforms fanned out over at most `threads` host
/// threads; bit-identical at every width.
///
/// # Errors
///
/// As [`rescale`].
pub fn rescale_with(
    ctx: &CkksContext,
    ct: &Ciphertext,
    threads: usize,
) -> Result<Ciphertext, CkksError> {
    rescale_steps(ctx, ct, 1, threads)
}

/// RESCALE by `k` primes at once — `k = 2` is the double-prime rescaling of
/// \[5\] used when Δ spans two word-size primes.
///
/// # Errors
///
/// Returns [`CkksError::ModulusChainExhausted`] if fewer than `k` levels remain.
pub fn rescale_by(ctx: &CkksContext, ct: &Ciphertext, k: usize) -> Result<Ciphertext, CkksError> {
    rescale_steps(ctx, ct, k, 1)
}

fn rescale_steps(
    ctx: &CkksContext,
    ct: &Ciphertext,
    k: usize,
    threads: usize,
) -> Result<Ciphertext, CkksError> {
    let _span = wd_trace::span("ckks", "rescale");
    if ct.level < k {
        return Err(CkksError::ModulusChainExhausted);
    }
    // Ciphertexts reach this from the wire: both components must be
    // NTT-domain polynomials over exactly q_0…q_level.
    ctx.check_ciphertext(ct)?;
    let mut out = rescale_step(ctx, ct, threads)?;
    for _ in 1..k {
        out = rescale_step(ctx, &out, threads)?;
    }
    Ok(out)
}

/// One rescaling step: c_i ← (c_i − \[v\]_{q_i}) · q_ℓ⁻¹ for i < ℓ, where v
/// is the centred last limb — ModDown with the level's last prime in place
/// of P, so it runs the same NTT-domain step
/// ([`sub_lifted_and_scale`]): only the dropped limb is inverse-transformed
/// (in a leased scratch limb), and `Poly::centered`'s convention (`c > q/2`
/// is negative) is exactly the single-limb lift's. `ct` is checked by the
/// caller: level ≥ 1, both components over q_0…q_level in NTT form.
fn rescale_step(
    ctx: &CkksContext,
    ct: &Ciphertext,
    threads: usize,
) -> Result<Ciphertext, CkksError> {
    let level = ct.level;
    let dropped = ctx.params().q_at(level)[level];
    let cache = ctx.level(level);
    let conv = cache
        .last_to_rest
        .as_ref()
        .ok_or(CkksError::ModulusChainExhausted)?;
    let arena = ctx.scratch();
    let mut last = arena.lease(ct.degree());
    let mut divide = |c: &RnsPoly| {
        let limbs: Vec<&Poly> = c.limbs().collect();
        last.copy_from_slice(limbs[level].coeffs());
        cache.q_tables[level].inverse(&mut last);
        count_limb_transforms(1);
        sub_lifted_and_scale(
            &limbs[..level],
            &[&last],
            conv,
            &cache.q_last_inv,
            &ctx.level(level - 1).q_tables,
            threads,
        )
    };
    Ok(Ciphertext {
        c0: divide(&ct.c0)?,
        c1: divide(&ct.c1)?,
        level: level - 1,
        scale: ct.scale / dropped as f64,
    })
}

/// Drops ciphertext limbs without changing the scale (modulus switching used
/// to align levels before HADD/HMULT).
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] if `to_level` is above the current level.
pub fn level_drop(ct: &Ciphertext, to_level: usize) -> Result<Ciphertext, CkksError> {
    if to_level > ct.level {
        return Err(CkksError::LevelMismatch(
            OperandMismatch::levels("level_drop", ct.level, to_level)
                .with_detail(format!("cannot raise level {} to {}", ct.level, to_level)),
        ));
    }
    let mut c0 = ct.c0.clone();
    let mut c1 = ct.c1.clone();
    c0.drop_limbs(ct.level - to_level);
    c1.drop_limbs(ct.level - to_level);
    Ok(Ciphertext {
        c0,
        c1,
        level: to_level,
        scale: ct.scale,
    })
}

/// Brings two ciphertexts to a common level (the lower of the two).
///
/// # Errors
///
/// Propagates [`level_drop`] errors.
pub fn align_levels(
    ct0: &Ciphertext,
    ct1: &Ciphertext,
) -> Result<(Ciphertext, Ciphertext), CkksError> {
    let lvl = ct0.level.min(ct1.level);
    Ok((level_drop(ct0, lvl)?, level_drop(ct1, lvl)?))
}

/// HROTATE: rotates the message slots left by `r` (paper §II-A), using the
/// rotation key for Galois element 5^r. One thread; [`hrotate_with`] takes
/// a width.
///
/// # Errors
///
/// Returns [`CkksError::MissingKey`] if the rotation key is absent.
pub fn hrotate(
    ctx: &CkksContext,
    ct: &Ciphertext,
    r: isize,
    keys: &RotationKeys,
) -> Result<Ciphertext, CkksError> {
    hrotate_with(ctx, ct, r, keys, 1)
}

/// [`hrotate`] with its keyswitch fanned out over at most `threads` host
/// threads; bit-identical at every width.
///
/// # Errors
///
/// As [`hrotate`].
pub fn hrotate_with(
    ctx: &CkksContext,
    ct: &Ciphertext,
    r: isize,
    keys: &RotationKeys,
    threads: usize,
) -> Result<Ciphertext, CkksError> {
    let _span = wd_trace::span("ckks", "hrotate");
    let g = ctx.encoder().rotation_galois_element(r);
    apply_galois(ctx, ct, g, keys, threads)
}

/// Slot-wise complex conjugation, using the conjugation key.
///
/// # Errors
///
/// Returns [`CkksError::MissingKey`] if the conjugation key is absent.
pub fn hconjugate(
    ctx: &CkksContext,
    ct: &Ciphertext,
    keys: &RotationKeys,
) -> Result<Ciphertext, CkksError> {
    let g = ctx.encoder().conjugation_galois_element();
    apply_galois(ctx, ct, g, keys, 1)
}

fn apply_galois(
    ctx: &CkksContext,
    ct: &Ciphertext,
    g: usize,
    keys: &RotationKeys,
    threads: usize,
) -> Result<Ciphertext, CkksError> {
    if g == 1 {
        return Ok(ct.clone());
    }
    let ksk = keys
        .get(g)
        .ok_or_else(|| CkksError::MissingKey(format!("rotation key for g = {g}")))?;
    // φ_g permutes evaluations: the ciphertext never leaves the NTT domain.
    let perm = key_permutation(ksk, g, ct.degree())?;
    // Keyswitch φ(c1) from φ(s) to s; φ(c1) dies with the keyswitch, and
    // φ(c0) is gathered straight into its first output.
    let c1g = ct.c1.automorphism_ntt(&perm);
    let (mut c0, c1) = keyswitch_with(ctx, &c1g, ksk, threads)?;
    drop(c1g);
    c0.add_automorphism_ntt_assign(&ct.c0, &perm)?;
    Ok(Ciphertext {
        c0,
        c1,
        level: ct.level,
        scale: ct.scale,
    })
}

/// Rotates one ciphertext by many amounts with a single shared ModUp
/// (Halevi–Shoup hoisting): the decomposition of c1 — the expensive half of
/// every keyswitch — is computed once and reused per rotation. Returns the
/// rotated ciphertexts in the order of `rotations`.
///
/// # Errors
///
/// Returns [`CkksError::MissingKey`] if any rotation key is absent.
pub fn hrotate_many(
    ctx: &CkksContext,
    ct: &Ciphertext,
    rotations: &[isize],
    keys: &RotationKeys,
) -> Result<Vec<Ciphertext>, CkksError> {
    use crate::keyswitch::{keyswitch_hoisted, HoistedDecomposition};
    // One decomposition of c1 shared by every rotation.
    let hoisted = HoistedDecomposition::new(ctx, &ct.c1)?;
    let mut out = Vec::with_capacity(rotations.len());
    for &r in rotations {
        let g = ctx.encoder().rotation_galois_element(r);
        if g == 1 {
            out.push(ct.clone());
            continue;
        }
        let ksk = keys
            .get(g)
            .ok_or_else(|| CkksError::MissingKey(format!("rotation key for g = {g}")))?;
        let (mut c0, c1) = keyswitch_hoisted(ctx, &hoisted, g, ksk)?;
        c0.add_automorphism_ntt_assign(&ct.c0, &key_permutation(ksk, g, ct.degree())?)?;
        out.push(Ciphertext {
            c0,
            c1,
            level: ct.level,
            scale: ct.scale,
        });
    }
    Ok(out)
}

/// The power-of-two rotation amounts that let [`hrotate_any`] reach every
/// rotation of an N/2-slot ciphertext with log2(N/2) keys.
pub fn power_of_two_rotations(slots: usize) -> Vec<isize> {
    (0..slots.trailing_zeros()).map(|b| 1isize << b).collect()
}

/// Rotates by an arbitrary amount using only power-of-two rotation keys
/// (binary decomposition — the standard trick for bounding the rotation-key
/// set, at the cost of up to log2(slots) keyswitches).
///
/// # Errors
///
/// Returns [`CkksError::MissingKey`] if a needed power-of-two key is absent.
pub fn hrotate_any(
    ctx: &CkksContext,
    ct: &Ciphertext,
    r: isize,
    keys: &RotationKeys,
) -> Result<Ciphertext, CkksError> {
    let slots = ctx.params().slots();
    let mut remaining = r.rem_euclid(slots as isize) as usize;
    let mut out = ct.clone();
    let mut bit = 0;
    while remaining > 0 {
        if remaining & 1 == 1 {
            out = hrotate(ctx, &out, 1isize << bit, keys)?;
        }
        remaining >>= 1;
        bit += 1;
    }
    Ok(out)
}

/// Multiplies every slot by a real constant by scalar-scaling the ciphertext
/// (cheaper than PMULT; consumes scale precision, not a level).
pub fn mult_const_int(ct: &Ciphertext, c: i64) -> Ciphertext {
    let (mag, neg) = (c.unsigned_abs(), c < 0);
    let scaled0 = ct.c0.scale_scalar(mag);
    let scaled1 = ct.c1.scale_scalar(mag);
    let (c0, c1) = if neg {
        (scaled0.neg(), scaled1.neg())
    } else {
        (scaled0, scaled1)
    };
    Ciphertext {
        c0,
        c1,
        level: ct.level,
        scale: ct.scale,
    }
}

/// Encodes the constant `v` in every slot at the ciphertext's level/scale
/// and multiplies (PMULT by a broadcast constant).
///
/// # Errors
///
/// Propagates encoding errors.
pub fn mult_const(ctx: &CkksContext, ct: &Ciphertext, v: f64) -> Result<Ciphertext, CkksError> {
    let slots = ctx.params().slots();
    let pt = ctx.encode_complex_at(
        &vec![C64::new(v, 0.0); slots],
        ct.level,
        ctx.params().scale(),
    )?;
    pmult(ct, &pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use crate::CkksContext;

    fn setup() -> Result<(CkksContext, crate::keys::KeyPair), CkksError> {
        let params = ParamSet::set_a().with_degree(1 << 6).build()?;
        let ctx = CkksContext::with_seed(params, 11)?;
        let kp = ctx.keygen();
        Ok((ctx, kp))
    }

    fn close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn hadd_adds_slots() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[1.0, 2.0, 3.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, -1.0, 4.0], &kp.public)?;
        let sum = hadd(&a, &b)?;
        let out = ctx.decrypt_values(&sum, &kp.secret)?;
        close(&out[..3], &[1.5, 1.0, 7.0], 1e-3);
        Ok(())
    }

    #[test]
    fn hsub_and_hneg() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[5.0, 1.0], &kp.public)?;
        let b = ctx.encrypt_values(&[2.0, 4.0], &kp.public)?;
        let out = ctx.decrypt_values(&hsub(&a, &b)?, &kp.secret)?;
        close(&out[..2], &[3.0, -3.0], 1e-3);
        let out = ctx.decrypt_values(&hneg(&a), &kp.secret)?;
        close(&out[..2], &[-5.0, -1.0], 1e-3);
        Ok(())
    }

    #[test]
    fn pmult_then_rescale() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let ct = ctx.encrypt_values(&[1.5, -2.0, 0.25], &kp.public)?;
        let pt = ctx.encode(&[2.0, 3.0, 4.0])?;
        let prod = pmult(&ct, &pt)?;
        assert!(prod.scale > ct.scale * 1e7, "scale must grow to Δ²");
        let rs = rescale(&ctx, &prod)?;
        assert_eq!(rs.level, ct.level - 1);
        let out = ctx.decrypt_values(&rs, &kp.secret)?;
        close(&out[..3], &[3.0, -6.0, 1.0], 1e-2);
        Ok(())
    }

    #[test]
    fn hmult_multiplies_slots() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[2.0, -3.0, 0.5], &kp.public)?;
        let b = ctx.encrypt_values(&[4.0, 2.0, 8.0], &kp.public)?;
        let prod = hmult(&ctx, &a, &b, &kp.relin)?;
        let rs = rescale(&ctx, &prod)?;
        let out = ctx.decrypt_values(&rs, &kp.secret)?;
        close(&out[..3], &[8.0, -6.0, 4.0], 5e-2);
        Ok(())
    }

    #[test]
    fn hsquare_matches_hmult_self() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[3.0, -1.5], &kp.public)?;
        let sq = rescale(&ctx, &hsquare(&ctx, &a, &kp.relin)?)?;
        let out = ctx.decrypt_values(&sq, &kp.secret)?;
        close(&out[..2], &[9.0, 2.25], 5e-2);
        Ok(())
    }

    #[test]
    fn two_chained_multiplications() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let a = ctx.encrypt_values(&[1.1, 2.0], &kp.public)?;
        let b = ctx.encrypt_values(&[3.0, 0.5], &kp.public)?;
        let ab = rescale(&ctx, &hmult(&ctx, &a, &b, &kp.relin)?)?;
        let (ab2, a2) = align_levels(&ab, &a)?;
        let prod = rescale(&ctx, &hmult(&ctx, &ab2, &a2, &kp.relin)?)?;
        let out = ctx.decrypt_values(&prod, &kp.secret)?;
        close(&out[..2], &[1.1 * 3.0 * 1.1, 2.0 * 0.5 * 2.0], 0.1);
        Ok(())
    }

    #[test]
    fn rescale_out_of_levels_errors() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let l0 = level_drop(&ct, 0)?;
        assert!(matches!(
            rescale(&ctx, &l0),
            Err(CkksError::ModulusChainExhausted)
        ));
        Ok(())
    }

    #[test]
    fn double_prime_rescale_drops_two_levels() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let ct = ctx.encrypt_values(&[1.0, -1.0], &kp.public)?;
        // Lift scale to Δ³ via two plaintext multiplications, then drop two
        // primes at once (the [5] double-prime mode).
        let pt = ctx.encode(&[2.0, 2.0])?;
        let prod = pmult(&pmult(&ct, &pt)?, &pt)?;
        let rs = rescale_by(&ctx, &prod, 2)?;
        assert_eq!(rs.level, ct.level - 2);
        let out = ctx.decrypt_values(&rs, &kp.secret)?;
        close(&out[..2], &[4.0, -4.0], 5e-2);
        Ok(())
    }

    #[test]
    fn double_prime_mode_gains_precision() -> Result<(), CkksError> {
        // The [5] high-precision mode: Δ spans two chain primes (2^48 over
        // two ~26-bit primes), rescaling drops both. Multiplication error
        // should be orders of magnitude below the single-prime mode's.
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .with_level(5)
            .build()?;
        let ctx = CkksContext::with_seed(params, 90210)?;
        let kp = ctx.keygen();
        let vals = [0.7391, -0.2468, 0.9999];
        let slots: Vec<crate::encoding::C64> = vals
            .iter()
            .map(|&v| crate::encoding::C64::new(v, 0.0))
            .collect();
        let big = (1u64 << 48) as f64;
        let run = |scale: f64, drops: usize| -> Result<f64, CkksError> {
            let pt = ctx.encode_complex_at(&slots, ctx.params().max_level(), scale)?;
            let ct = ctx.encrypt(&pt, &kp.public)?;
            let prod = hmult(&ctx, &ct, &ct, &kp.relin)?;
            let rs = rescale_by(&ctx, &prod, drops)?;
            let dec = ctx.decrypt_values(&rs, &kp.secret)?;
            Ok(vals
                .iter()
                .zip(&dec)
                .map(|(v, d)| (v * v - d).abs())
                .fold(0.0f64, f64::max))
        };
        let hp_err = run(big, 2)?;
        let sp_err = run(ctx.params().scale(), 1)?;
        assert!(hp_err < 1e-4, "high-precision error {hp_err}");
        assert!(
            hp_err < sp_err / 8.0,
            "double-prime ({hp_err:.2e}) must beat single-prime ({sp_err:.2e})"
        );
        Ok(())
    }

    #[test]
    fn hrotate_rotates_slots() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64).collect();
        let ct = ctx.encrypt_values(&vals, &kp.public)?;
        let rot_keys = ctx.gen_rotation_keys(&kp.secret, &[1, 5], false);
        for r in [1usize, 5] {
            let rotated = hrotate(&ctx, &ct, r as isize, &rot_keys)?;
            let out = ctx.decrypt_values(&rotated, &kp.secret)?;
            let expect: Vec<f64> = (0..slots).map(|i| ((i + r) % slots) as f64).collect();
            close(&out, &expect, 5e-2);
        }
        Ok(())
    }

    #[test]
    fn rotate_missing_key_errors() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let keys = RotationKeys::new();
        assert!(matches!(
            hrotate(&ctx, &ct, 3, &keys),
            Err(CkksError::MissingKey(_))
        ));
        Ok(())
    }

    #[test]
    fn hconjugate_conjugates() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let slots: Vec<crate::encoding::C64> = (0..4)
            .map(|i| crate::encoding::C64::new(i as f64, 1.0 + i as f64))
            .collect();
        let pt = ctx.encode_complex(&slots)?;
        let ct = ctx.encrypt(&pt, &kp.public)?;
        let keys = ctx.gen_rotation_keys(&kp.secret, &[], true);
        let conj = hconjugate(&ctx, &ct, &keys)?;
        let out = ctx.decode_complex(&ctx.decrypt(&conj, &kp.secret)?)?;
        for (i, s) in slots.iter().enumerate() {
            assert!((out[i].re - s.re).abs() < 5e-2);
            assert!((out[i].im + s.im).abs() < 5e-2);
        }
        Ok(())
    }

    #[test]
    fn mult_const_int_scales_slots() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let ct = ctx.encrypt_values(&[1.0, -2.0], &kp.public)?;
        let out = ctx.decrypt_values(&mult_const_int(&ct, -3), &kp.secret)?;
        close(&out[..2], &[-3.0, 6.0], 1e-2);
        Ok(())
    }

    #[test]
    fn mult_const_broadcasts() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let ct = ctx.encrypt_values(&[1.0, 2.0], &kp.public)?;
        let half = rescale(&ctx, &mult_const(&ctx, &ct, 0.5)?)?;
        let out = ctx.decrypt_values(&half, &kp.secret)?;
        close(&out[..2], &[0.5, 1.0], 1e-2);
        Ok(())
    }

    #[test]
    fn rotate_any_with_pow2_keys_only() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let slots = ctx.params().slots();
        let keys = ctx.gen_rotation_keys(&kp.secret, &power_of_two_rotations(slots), false);
        let vals: Vec<f64> = (0..slots).map(|i| (i * i % 13) as f64).collect();
        let ct = ctx.encrypt_values(&vals, &kp.public)?;
        for r in [0isize, 3, 5, slots as isize - 1] {
            let rotated = hrotate_any(&ctx, &ct, r, &keys)?;
            let dec = ctx.decrypt_values(&rotated, &kp.secret)?;
            let expect: Vec<f64> = (0..slots).map(|i| vals[(i + r as usize) % slots]).collect();
            close(&dec, &expect, 0.1);
        }
        Ok(())
    }

    #[test]
    fn hoisted_rotations_match_individual_rotations() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let ct = ctx.encrypt_values(&vals, &kp.public)?;
        let rotations = [0isize, 1, 3, 7];
        let keys = ctx.gen_rotation_keys(&kp.secret, &rotations, false);
        let hoisted = hrotate_many(&ctx, &ct, &rotations, &keys)?;
        assert_eq!(hoisted.len(), rotations.len());
        for (r, h) in rotations.iter().zip(&hoisted) {
            let individual = hrotate(&ctx, &ct, *r, &keys)?;
            let a = ctx.decrypt_values(h, &kp.secret)?;
            let b = ctx.decrypt_values(&individual, &kp.secret)?;
            close(&a, &b, 5e-2);
            // And both equal the plaintext rotation.
            let expect: Vec<f64> = (0..slots)
                .map(|i| vals[(i + r.rem_euclid(slots as isize) as usize) % slots])
                .collect();
            close(&a, &expect, 5e-2);
        }
        Ok(())
    }

    #[test]
    fn hoisted_rotation_missing_key_errors() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let keys = ctx.gen_rotation_keys(&kp.secret, &[1], false);
        assert!(matches!(
            hrotate_many(&ctx, &ct, &[1, 2], &keys),
            Err(CkksError::MissingKey(_))
        ));
        Ok(())
    }

    #[test]
    fn rotation_composition() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i * i % 7) as f64).collect();
        let ct = ctx.encrypt_values(&vals, &kp.public)?;
        let keys = ctx.gen_rotation_keys(&kp.secret, &[1, 2, 3], false);
        let r12 = hrotate(&ctx, &hrotate(&ctx, &ct, 1, &keys)?, 2, &keys)?;
        let r3 = hrotate(&ctx, &ct, 3, &keys)?;
        let a = ctx.decrypt_values(&r12, &kp.secret)?;
        let b = ctx.decrypt_values(&r3, &kp.secret)?;
        close(&a, &b, 1e-1);
        Ok(())
    }
}
