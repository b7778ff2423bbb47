//! Slim CKKS bootstrapping (Chen–Han \[14\] order, Han–Ki \[26\] keyswitch).
//!
//! Pipeline: **SlotToCoeff → ModRaise → CoeffToSlot → EvalMod**.
//!
//! - SlotToCoeff multiplies the slot vector by the decoding matrix F (so the
//!   *polynomial coefficients* become the message values);
//! - ModRaise reinterprets the level-0 residues in the full modulus chain,
//!   introducing the unknown q₀·I(X) term;
//! - CoeffToSlot multiplies by F⁻¹, putting the (wrapped) coefficients back
//!   into slots as complex pairs;
//! - EvalMod removes q₀·I by evaluating q₀/(2π)·sin(2πx/q₀) with a
//!   Chebyshev approximation, applied separately to the real and imaginary
//!   parts (separated via homomorphic conjugation).
//!
//! All of it is functional — the tests bootstrap a real ciphertext on a
//! small ring and check the message survives. F and F⁻¹ are derived
//! *numerically from the encoder itself* (decode of unit vectors), so the
//! transform matrices are correct by construction.

use crate::hlt::{chebyshev_coeffs, eval_chebyshev, linear_transform_bsgs, SlotMatrix};
use wd_ckks::encoding::C64;
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::ops::{self, hadd, hconjugate, pmult, rescale};
use wd_ckks::{Ciphertext, CkksContext, CkksError};
use wd_polyring::rns::RnsPoly;

/// Precomputed bootstrapping state for one context.
#[derive(Debug)]
pub struct Bootstrapper {
    /// Decoding matrix F (slots = F · packed-coefficients).
    f: SlotMatrix,
    /// Its inverse (CoeffToSlot).
    f_inv: SlotMatrix,
    /// Chebyshev-basis coefficients of the degree-`deg` fit of sin(2πy)
    /// on \[−K, K\].
    sine: Vec<f64>,
    /// The I(X) range bound K.
    k_range: f64,
}

impl Bootstrapper {
    /// Precomputes the transform matrices and the sine approximation.
    ///
    /// `k_range` bounds |I(X)| (≈ the secret's 1-norm contribution; 12 in
    /// the paper's Table XIII `Boot` row); `degree` is the Chebyshev degree.
    pub fn new(ctx: &CkksContext, k_range: f64, degree: usize) -> Self {
        let ns = ctx.params().slots();
        let n = ctx.params().degree();
        // Column j of F = decode(unit coefficient vector e_j), by linearity.
        let mut cols: Vec<Vec<C64>> = Vec::with_capacity(ns);
        for j in 0..ns {
            let mut coeffs = vec![0.0f64; n];
            coeffs[j] = 1.0;
            cols.push(
                ctx.encoder()
                    .decode(&coeffs)
                    .expect("coeffs has length N by construction"),
            );
        }
        let mut entries = vec![C64::default(); ns * ns];
        for (j, col) in cols.iter().enumerate() {
            for i in 0..ns {
                entries[i * ns + j] = col[i];
            }
        }
        let f = SlotMatrix::new(ns, entries);
        let f_inv = f.inverse();
        let sine = chebyshev_coeffs(|y| (2.0 * std::f64::consts::PI * y).sin(), k_range, degree);
        Self {
            f,
            f_inv,
            sine,
            k_range,
        }
    }

    /// The EvalMod range bound K.
    pub fn k_range(&self) -> f64 {
        self.k_range
    }

    /// SlotToCoeff: after this, the ciphertext's polynomial coefficients
    /// hold the message (real parts in the low half, imaginary in the high
    /// half). Consumes one level.
    ///
    /// # Errors
    ///
    /// Propagates transform errors.
    pub fn slot_to_coeff(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        keys: &RotationKeys,
    ) -> Result<Ciphertext, CkksError> {
        // BSGS with hoisted baby steps — the 2·√slots keyswitch pattern the
        // performance model prices.
        linear_transform_bsgs(ctx, ct, &self.f, keys)
    }

    /// CoeffToSlot: the inverse transform. Consumes one level.
    ///
    /// # Errors
    ///
    /// Propagates transform errors.
    pub fn coeff_to_slot(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        keys: &RotationKeys,
    ) -> Result<Ciphertext, CkksError> {
        linear_transform_bsgs(ctx, ct, &self.f_inv, keys)
    }

    /// EvalMod: approximates `x mod q0` (centered) on the encrypted slots,
    /// where the input encodes x/Δ with |x/q₀| ≤ K. Returns a ciphertext
    /// encoding the de-wrapped message.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic errors (e.g. not enough levels for the degree).
    pub fn eval_mod(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        kp: &KeyPair,
    ) -> Result<Ciphertext, CkksError> {
        let q0 = ctx.params().q_chain()[0] as f64;
        let delta = ctx.params().scale();
        // y = x/q0 (the ciphertext currently encodes x/Δ): multiply by Δ/q0.
        let y = mult_const_exact(ctx, ct, delta / q0)?;
        // s = sin(2πy), evaluated in the Chebyshev basis (numerically stable
        // at the degree the K range demands).
        let s = eval_chebyshev(ctx, &y, &self.sine, self.k_range, &kp.relin)?;
        // message ≈ q0/(2πΔ) · Δ·s … decoding divides by Δ, so scale the
        // ciphertext by q0/(2π·Δ).
        mult_const_exact(ctx, &s, q0 / (2.0 * std::f64::consts::PI * delta))
    }

    /// Full slim bootstrap: takes a ciphertext at level 0 and returns one
    /// at a higher level encrypting (approximately) the same message.
    ///
    /// `keys` must contain rotation keys 1..slots and the conjugation key.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic errors.
    pub fn bootstrap(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        kp: &KeyPair,
        keys: &RotationKeys,
    ) -> Result<Ciphertext, CkksError> {
        // The input message is assumed already in coefficient form if the
        // caller ran slot_to_coeff before exhausting levels; for the common
        // case we do it here when levels remain.
        let ct0 = if ct.level > 0 {
            let stc = self.slot_to_coeff(ctx, ct, keys)?;
            ops::level_drop(&stc, 0)?
        } else {
            ct.clone()
        };
        // ModRaise.
        let raised = mod_raise(ctx, &ct0)?;
        // CoeffToSlot: slots now hold u = m + (q0/Δ)·I as complex pairs.
        let u = self.coeff_to_slot(ctx, &raised, keys)?;
        // Separate real and imaginary parts via conjugation.
        let u_conj = hconjugate(ctx, &u, keys)?;
        let re2 = hadd(&u, &u_conj)?; // 2·Re(u)
        let im2 = ops::hsub(&u, &u_conj)?; // 2i·Im(u)
        let re = mult_const_complex_exact(ctx, &re2, C64::new(0.5, 0.0))?;
        let im = mult_const_complex_exact(ctx, &im2, C64::new(0.0, -0.5))?;
        // EvalMod on both components.
        let re_m = self.eval_mod(ctx, &re, kp)?;
        let im_m = self.eval_mod(ctx, &im, kp)?;
        // Recombine: out = re + i·im.
        let i_im = mult_const_complex_exact(ctx, &im_m, C64::new(0.0, 1.0))?;
        let (a, b) = ops::align_levels(&re_m, &i_im)?;
        let mut b2 = b;
        b2.scale = a.scale;
        hadd(&a, &b2)
    }
}

/// ModRaise: reinterprets the level-0 residues of a ciphertext in the
/// full chain, i.e. Dec(out) = Dec(ct) + q₀·I(X) for a small integer
/// polynomial I. Raises to the context's maximum level.
///
/// # Errors
///
/// Propagates ring errors.
pub fn mod_raise(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
    if ct.level != 0 {
        return Err(CkksError::LevelMismatch(
            format!("mod_raise expects level 0, got {}", ct.level).into(),
        ));
    }
    let target = ctx.params().max_level();
    let primes = ctx.params().q_at(target).to_vec();
    let tabs = ctx.tables_for(&primes);
    let raise = |p: &RnsPoly| -> Result<RnsPoly, CkksError> {
        let mut coeff = p.clone();
        coeff.ntt_inverse(&ctx.tables_for(&p.primes()));
        let centered = coeff.limb(0).centered();
        let mut out = RnsPoly::from_signed(&primes, &centered)?;
        out.ntt_forward(&tabs);
        Ok(out)
    };
    Ok(Ciphertext {
        c0: raise(&ct.c0)?,
        c1: raise(&ct.c1)?,
        level: target,
        scale: ct.scale,
    })
}

/// Multiplies every slot by a real constant, consuming one level, with the
/// plaintext scale chosen so the output scale is *exactly* the input scale.
///
/// # Errors
///
/// Propagates arithmetic errors.
pub fn mult_const_exact(
    ctx: &CkksContext,
    ct: &Ciphertext,
    c: f64,
) -> Result<Ciphertext, CkksError> {
    mult_const_complex_exact(ctx, ct, C64::new(c, 0.0))
}

/// Complex-constant variant of [`mult_const_exact`].
///
/// # Errors
///
/// Propagates arithmetic errors.
pub fn mult_const_complex_exact(
    ctx: &CkksContext,
    ct: &Ciphertext,
    c: C64,
) -> Result<Ciphertext, CkksError> {
    let q_drop = ctx.params().q_chain()[ct.level] as f64;
    let slots = ctx.params().slots();
    let pt = ctx.encode_complex_at(&vec![c; slots], ct.level, q_drop)?;
    let mut out = rescale(ctx, &pmult(ct, &pt)?)?;
    out.scale = ct.scale; // q_drop/q_drop == 1 by construction
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ckks::ParamSet;

    fn boot_ctx(levels: usize) -> (CkksContext, KeyPair, RotationKeys) {
        let params = ParamSet::boot()
            .with_degree(1 << 5)
            .with_level(levels)
            .with_special(3)
            .build()
            .unwrap();
        let ctx = CkksContext::with_seed(params, 2024).unwrap();
        let kp = ctx.keygen();
        let rots: Vec<isize> = (1..ctx.params().slots() as isize).collect();
        let keys = ctx.gen_rotation_keys(&kp.secret, &rots, true);
        (ctx, kp, keys)
    }

    #[test]
    fn mod_raise_preserves_message_mod_q0() {
        let (ctx, kp, _) = boot_ctx(8);
        let vals = vec![0.02, -0.01, 0.005, 0.0];
        let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
        let low = ops::level_drop(&ct, 0).unwrap();
        let raised = mod_raise(&ctx, &low).unwrap();
        assert_eq!(raised.level, ctx.params().max_level());
        // Decrypting the raised ct and reducing coefficients mod q0 must
        // recover the original message.
        let pt = ctx.decrypt(&raised, &kp.secret).unwrap();
        let mut poly = pt.poly.clone();
        poly.ntt_inverse(&ctx.tables_for(&poly.primes()));
        let q0 = ctx.params().q_chain()[0];
        let m0 = wd_modmath::Modulus::new(q0);
        // Compare against decrypting at level 0 directly.
        let pt_low = ctx.decrypt(&low, &kp.secret).unwrap();
        let mut poly_low = pt_low.poly.clone();
        poly_low.ntt_inverse(&ctx.tables_for(&poly_low.primes()));
        for j in 0..poly.degree() {
            let raised_mod_q0 = {
                // Reconstruct the centered value from the first limbs, then
                // reduce mod q0.
                let v = poly.limb(0).centered()[j]; // limb 0 IS mod q0
                m0.reduce((v.rem_euclid(q0 as i64)) as u64)
            };
            assert_eq!(raised_mod_q0, poly_low.limb(0).coeffs()[j], "coeff {j}");
        }
    }

    #[test]
    fn slot_to_coeff_puts_message_into_coefficients() {
        let (ctx, kp, keys) = boot_ctx(6);
        let b = Bootstrapper::new(&ctx, 8.0, 59);
        let ns = ctx.params().slots();
        let vals: Vec<f64> = (0..ns).map(|i| 0.01 * i as f64).collect();
        let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
        let stc = b.slot_to_coeff(&ctx, &ct, &keys).unwrap();
        // Decrypt and inspect raw coefficients: coefficient j should be
        // ≈ scale·vals[j].
        let pt = ctx.decrypt(&stc, &kp.secret).unwrap();
        let mut poly = pt.poly.clone();
        poly.ntt_inverse(&ctx.tables_for(&poly.primes()));
        let take = poly.limb_count().min(4);
        let sub = wd_modmath::rns::RnsBasis::new(poly.primes()[..take].to_vec()).unwrap();
        for (j, &v) in vals.iter().enumerate() {
            let residues: Vec<u64> = (0..take).map(|i| poly.limb(i).coeffs()[j]).collect();
            let c = sub.crt_reconstruct_centered(&residues).unwrap() as f64 / pt.scale;
            assert!((c - v).abs() < 2e-3, "coeff {j}: {c} vs {v}");
        }
    }

    #[test]
    fn eval_mod_dewraps_integers() {
        // Feed EvalMod slots holding m + (q0/Δ)·k for small integers k; it
        // must return ≈ m.
        let (ctx, kp, _) = boot_ctx(12);
        let b = Bootstrapper::new(&ctx, 8.0, 59);
        let q0 = ctx.params().q_chain()[0] as f64;
        let delta = ctx.params().scale();
        let wrap = q0 / delta;
        let m = [0.03, -0.05, 0.01, 0.0];
        let k = [1.0, -2.0, 5.0, 0.0];
        let vals: Vec<f64> = m.iter().zip(&k).map(|(&m, &k)| m + wrap * k).collect();
        let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
        let out = b.eval_mod(&ctx, &ct, &kp).unwrap();
        let dec = ctx.decrypt_values(&out, &kp.secret).unwrap();
        for (j, &expect) in m.iter().enumerate() {
            assert!(
                (dec[j] - expect).abs() < 5e-3,
                "slot {j}: {} vs {expect}",
                dec[j]
            );
        }
    }

    #[test]
    fn full_bootstrap_recovers_message() {
        // End-to-end slim bootstrap on a small ring. Messages are kept small
        // relative to q0/Δ (the standard CKKS bootstrap regime).
        let (ctx, kp, keys) = boot_ctx(16);
        let b = Bootstrapper::new(&ctx, 10.0, 71);
        let ns = ctx.params().slots();
        let vals: Vec<f64> = (0..ns)
            .map(|i| 0.04 * ((i as f64) / ns as f64 - 0.5))
            .collect();
        let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
        let exhausted = ops::level_drop(&ct, 1).unwrap();
        let fresh = b.bootstrap(&ctx, &exhausted, &kp, &keys).unwrap();
        assert!(
            fresh.level >= 2,
            "bootstrap must return usable levels, got {}",
            fresh.level
        );
        let dec = ctx.decrypt_values(&fresh, &kp.secret).unwrap();
        for (j, &v) in vals.iter().enumerate() {
            assert!((dec[j] - v).abs() < 8e-3, "slot {j}: {} vs {v}", dec[j]);
        }
    }
}
