//! BGV on the WarpDrive substrate — the paper's §VI-B generality claim.
//!
//! "By leveraging our existing design and implementations, incorporating
//! additional logic for homomorphic operations, and integrating a few
//! supplementary kernels, WarpDrive can be easily adapted to homomorphic
//! encryption schemes that utilize RLWE ciphertexts, such as BGV and BFV."
//!
//! This module is that adaptation, executed: **exact** integer arithmetic
//! modulo a plaintext prime t, reusing the same prime chains, NTT engines,
//! basis converters and hybrid-keyswitch machinery as CKKS. The differences
//! are precisely the textbook ones, and they are the only code here that
//! is not a call into the CKKS layer:
//!
//! - key generation and encryption scale their noise by t (`b = t·e − a·s`,
//!   `c0 = b·u + t·e0 + m`): CKKS's one RLWE pass (DESIGN.md §5n) called
//!   with noise multiplier t, the relinearization key included — and
//!   decryption is the same `c0 + c1·s` pass;
//! - ModDown applies a plaintext-correction term so the rounding error is
//!   ≡ 0 (mod t), keeping decryption exact (`mod_down_bgv`); the entry
//!   check, ModUp and the inner product in front of it are
//!   [`crate::keyswitch`]'s, unchanged;
//! - batching encodes Z_t vectors through an NTT over Z_t (t ≡ 1 mod 2N).
//!
//! Tests assert **bit-exact** results — BGV has no approximation error.
//! Restriction: K = 1 special prime (the exact ModDown correction
//! reconstructs the P-residue through a single limb).

use crate::context::{restrict, CkksContext};
use crate::keys::{KeyPair, SecretKey};
use crate::keyswitch::{give_rns, mod_up_inner_product};
use crate::CkksError;
use std::sync::Arc;
use wd_modmath::prime::ntt_prime_above;
use wd_modmath::Modulus;
use wd_polyring::ntt::NttTable;
use wd_polyring::rns::RnsPoly;
use wd_polyring::scratch::{self, ScratchArena};

/// A BGV ciphertext: Dec = \[c0 + c1·s\]_Q, message = Dec mod t.
#[derive(Debug, Clone, PartialEq)]
pub struct BgvCiphertext {
    /// Component c0 (NTT domain over the chain).
    pub c0: RnsPoly,
    /// Component c1 (NTT domain).
    pub c1: RnsPoly,
    /// Current level (limb count − 1).
    pub level: usize,
}

/// BGV key material: a CKKS key pair whose public and relinearization
/// noise is scaled by t (b = −a·s + t·e).
pub type BgvKeyPair = KeyPair;

/// BGV context: a [`CkksContext`] (prime chains, NTT tables, converters)
/// plus a plaintext modulus and its batching transform.
#[derive(Debug)]
pub struct BgvContext {
    inner: CkksContext,
    t: u64,
    /// NTT over Z_t used for slot batching (t ≡ 1 mod 2N).
    t_table: Arc<NttTable>,
}

impl BgvContext {
    /// Wraps an existing CKKS context, choosing a batching-friendly
    /// plaintext prime of roughly `t_bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] if K ≠ 1 or no suitable t exists.
    pub fn new(inner: CkksContext, t_bits: u32) -> Result<Self, CkksError> {
        if inner.params().special_count() != 1 {
            return Err(CkksError::InvalidParams(
                "BGV adaptation supports K = 1 (exact ModDown correction)".into(),
            ));
        }
        let n = inner.params().degree();
        let t = ntt_prime_above(1 << t_bits, 2 * n as u64)
            .map_err(|e| CkksError::InvalidParams(e.to_string()))?;
        if inner.params().q_chain().contains(&t) || inner.params().p_chain().contains(&t) {
            return Err(CkksError::InvalidParams("t collides with the chain".into()));
        }
        let t_table = Arc::new(NttTable::new(t, n)?);
        Ok(Self { inner, t, t_table })
    }

    /// The underlying CKKS context (chains, tables).
    pub fn inner(&self) -> &CkksContext {
        &self.inner
    }

    /// The plaintext modulus t.
    pub fn plaintext_modulus(&self) -> u64 {
        self.t
    }

    /// Slot count (= N: BGV batches a full Z_t^N vector).
    pub fn slots(&self) -> usize {
        self.inner.params().degree()
    }

    /// Encodes a Z_t vector into a plaintext polynomial (coefficient
    /// domain residues mod t, batched through the Z_t inverse NTT so that
    /// ring multiplication is slot-wise multiplication).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::DimensionMismatch`] for oversized inputs.
    pub fn encode(&self, slots: &[u64]) -> Result<Vec<u64>, CkksError> {
        let n = self.slots();
        if slots.len() > n {
            return Err(CkksError::DimensionMismatch {
                got: slots.len(),
                want: n,
            });
        }
        let mt = Modulus::new(self.t);
        let mut vals: Vec<u64> = slots.iter().map(|&v| mt.reduce(v)).collect();
        vals.resize(n, 0);
        self.t_table.inverse(&mut vals);
        Ok(vals)
    }

    /// Decodes a plaintext polynomial (coeffs mod t) back to slots.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    pub fn decode(&self, coeffs: &[u64]) -> Vec<u64> {
        let mut vals = coeffs.to_vec();
        self.t_table.forward(&mut vals);
        vals
    }

    /// Generates BGV keys (fresh secret, t-scaled public/relin noise): the
    /// CKKS key generator with noise multiplier t, same draw order.
    pub fn keygen(&self) -> BgvKeyPair {
        self.inner.keygen_scaled(self.t)
    }

    /// Encrypts an encoded plaintext polynomial (coeffs mod t).
    ///
    /// # Errors
    ///
    /// Propagates ring errors.
    pub fn encrypt(
        &self,
        coeffs_mod_t: &[u64],
        kp: &BgvKeyPair,
    ) -> Result<BgvCiphertext, CkksError> {
        let level = self.inner.params().max_level();
        // m as a signed-centered polynomial, embedded in every limb.
        let mt = Modulus::new(self.t);
        let centered: Vec<i64> = coeffs_mod_t
            .iter()
            .map(|&c| {
                let c = mt.reduce(c);
                if c > self.t / 2 {
                    c as i64 - self.t as i64
                } else {
                    c as i64
                }
            })
            .collect();
        let mut m = RnsPoly::from_signed(self.inner.params().q_at(level), &centered)?;
        m.ntt_forward(self.inner.q_tables(level));
        let (c0, c1) = self.inner.encrypt_scaled(&m, level, &kp.public, self.t)?;
        Ok(BgvCiphertext { c0, c1, level })
    }

    /// Decrypts to plaintext polynomial coefficients mod t — **exact** as
    /// long as the noise stays below Q/2.
    ///
    /// # Errors
    ///
    /// Propagates CRT errors.
    pub fn decrypt(&self, ct: &BgvCiphertext, sk: &SecretKey) -> Result<Vec<u64>, CkksError> {
        let v = self.inner.decrypt_raw((&ct.c0, &ct.c1), ct.level, &sk.s)?;
        // Centered CRT per coefficient, then mod t.
        let ti = self.t as i128;
        Ok(self
            .inner
            .centered_coeffs(&v)?
            .into_iter()
            .map(|c| c.rem_euclid(ti) as u64)
            .collect())
    }

    /// Exact homomorphic addition.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] on level mismatch.
    pub fn hadd(&self, a: &BgvCiphertext, b: &BgvCiphertext) -> Result<BgvCiphertext, CkksError> {
        if a.level != b.level {
            return Err(CkksError::LevelMismatch("BGV hadd levels".into()));
        }
        Ok(BgvCiphertext {
            c0: a.c0.add(&b.c0)?,
            c1: a.c1.add(&b.c1)?,
            level: a.level,
        })
    }

    /// Exact homomorphic multiplication with relinearization. Does not
    /// modulus-switch (leveled use for shallow circuits).
    ///
    /// # Errors
    ///
    /// Propagates keyswitch errors.
    pub fn hmult(
        &self,
        a: &BgvCiphertext,
        b: &BgvCiphertext,
        kp: &BgvKeyPair,
    ) -> Result<BgvCiphertext, CkksError> {
        if a.level != b.level {
            return Err(CkksError::LevelMismatch("BGV hmult levels".into()));
        }
        let d2 = a.c1.pointwise(&b.c1)?;
        // The CKKS keyswitch up to its accumulators, then the BGV ModDown.
        let ctx = &self.inner;
        let arena = ctx.scratch();
        let (mut c0, mut c1) = scratch::with_worker_arena(&arena, || {
            let (level, acc0, acc1) = mod_up_inner_product(ctx, &arena, &d2, &kp.relin, 1)?;
            let ks0 = self.mod_down_bgv(&arena, acc0, level)?;
            let ks1 = self.mod_down_bgv(&arena, acc1, level)?;
            Ok::<_, CkksError>((ks0, ks1))
        })?;
        drop(d2);
        // The other tensor products accumulate into the keyswitch outputs,
        // as in the CKKS HMULT.
        c0.mul_add_assign(&a.c0, &b.c0)?;
        c1.mul_add_assign(&a.c0, &b.c1)?;
        c1.mul_add_assign(&a.c1, &b.c0)?;
        Ok(BgvCiphertext {
            c0,
            c1,
            level: a.level,
        })
    }

    /// ModDown with BGV plaintext correction: out = (x − u)/P − w where
    /// u ≡ x (mod P) is the centered P-residue and w ≡ −u·P⁻¹ (mod t)
    /// removes the rounding error's t-residue. Requires K = 1 so u is
    /// exactly recoverable from the single special limb. `acc` (leased by
    /// the shared inner product) goes back to `arena`.
    fn mod_down_bgv(
        &self,
        arena: &Arc<ScratchArena>,
        mut acc: RnsPoly,
        level: usize,
    ) -> Result<RnsPoly, CkksError> {
        let ctx = &self.inner;
        let q_now = ctx.params().q_at(level);
        let p0 = ctx.params().p_chain()[0];
        let lq = q_now.len();
        acc.ntt_inverse(&ctx.level(level).full_tables);
        // Exact centered P-residue per coefficient (single special limb).
        let u_centered: Vec<i64> = acc.limb(lq).centered();
        // Standard (x − u)/P over Q.
        let u_q = RnsPoly::from_signed(q_now, &u_centered)?;
        let diff = restrict(&acc, lq).sub(&u_q)?;
        give_rns(arena, acc);
        let r = diff.scale_per_limb(&ctx.level(level).p_inv);
        // Correction w ≡ −u·P⁻¹ (mod t), centered, subtracted over Q.
        let mt = Modulus::new(self.t);
        let p_inv_t = mt.inv(mt.reduce(p0))?;
        let half_t = (self.t / 2) as i64;
        let w_centered: Vec<i64> = u_centered
            .iter()
            .map(|&u| {
                let ti = self.t as i64;
                let u_mod_t = ((u % ti + ti) % ti) as u64;
                let w = mt.mul(mt.neg(u_mod_t), p_inv_t);
                let w = w as i64;
                if w > half_t {
                    w - ti
                } else {
                    w
                }
            })
            .collect();
        let w_q = RnsPoly::from_signed(q_now, &w_centered)?;
        let mut out = r.sub(&w_q)?;
        out.ntt_forward(ctx.q_tables(level));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamSet;

    fn setup() -> Result<(BgvContext, BgvKeyPair), CkksError> {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .with_level(4)
            .build()?;
        let inner = CkksContext::with_seed(params, 808)?;
        let ctx = BgvContext::new(inner, 16)?;
        let kp = ctx.keygen();
        Ok((ctx, kp))
    }

    #[test]
    fn encode_decode_is_exact() -> Result<(), CkksError> {
        let (ctx, _) = setup()?;
        let t = ctx.plaintext_modulus();
        let slots: Vec<u64> = (0..ctx.slots() as u64).map(|i| i * 37 % t).collect();
        let coeffs = ctx.encode(&slots)?;
        assert_eq!(ctx.decode(&coeffs), slots);
        Ok(())
    }

    #[test]
    fn encrypt_decrypt_is_exact() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let t = ctx.plaintext_modulus();
        let slots: Vec<u64> = (0..ctx.slots() as u64).map(|i| (i * i + 5) % t).collect();
        let pt = ctx.encode(&slots)?;
        let ct = ctx.encrypt(&pt, &kp)?;
        let dec = ctx.decrypt(&ct, &kp.secret)?;
        assert_eq!(ctx.decode(&dec), slots, "BGV must be exact");
        Ok(())
    }

    #[test]
    fn homomorphic_addition_is_exact() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let t = ctx.plaintext_modulus();
        let a: Vec<u64> = (0..ctx.slots() as u64).map(|i| i % t).collect();
        let b: Vec<u64> = (0..ctx.slots() as u64)
            .map(|i| (t - 1 - i % t) % t)
            .collect();
        let ca = ctx.encrypt(&ctx.encode(&a)?, &kp)?;
        let cb = ctx.encrypt(&ctx.encode(&b)?, &kp)?;
        let sum = ctx.hadd(&ca, &cb)?;
        let dec = ctx.decode(&ctx.decrypt(&sum, &kp.secret)?);
        let mt = Modulus::new(t);
        for i in 0..ctx.slots() {
            assert_eq!(dec[i], mt.add(mt.reduce(a[i]), mt.reduce(b[i])));
        }
        Ok(())
    }

    #[test]
    fn homomorphic_multiplication_is_exact() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let t = ctx.plaintext_modulus();
        let a: Vec<u64> = (0..ctx.slots() as u64).map(|i| (3 * i + 1) % t).collect();
        let b: Vec<u64> = (0..ctx.slots() as u64).map(|i| (7 * i + 2) % t).collect();
        let ca = ctx.encrypt(&ctx.encode(&a)?, &kp)?;
        let cb = ctx.encrypt(&ctx.encode(&b)?, &kp)?;
        let prod = ctx.hmult(&ca, &cb, &kp)?;
        let dec = ctx.decode(&ctx.decrypt(&prod, &kp.secret)?);
        let mt = Modulus::new(t);
        for i in 0..ctx.slots() {
            assert_eq!(
                dec[i],
                mt.mul(mt.reduce(a[i]), mt.reduce(b[i])),
                "slot {i} must be exact"
            );
        }
        Ok(())
    }

    #[test]
    fn mult_then_add_circuit() -> Result<(), CkksError> {
        let (ctx, kp) = setup()?;
        let t = ctx.plaintext_modulus();
        let mt = Modulus::new(t);
        let a = vec![5u64; ctx.slots()];
        let b = vec![9u64; ctx.slots()];
        let c = vec![100u64; ctx.slots()];
        let ca = ctx.encrypt(&ctx.encode(&a)?, &kp)?;
        let cb = ctx.encrypt(&ctx.encode(&b)?, &kp)?;
        let cc = ctx.encrypt(&ctx.encode(&c)?, &kp)?;
        let out = ctx.hadd(&ctx.hmult(&ca, &cb, &kp)?, &cc)?;
        let dec = ctx.decode(&ctx.decrypt(&out, &kp.secret)?);
        let expect = mt.add(mt.mul(5, 9), mt.reduce(100));
        assert!(dec.iter().all(|&v| v == expect), "5·9+100 = {expect}");
        Ok(())
    }

    #[test]
    fn rejects_multi_special_prime_configs() -> Result<(), CkksError> {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .with_special(2)
            .build()?;
        let inner = CkksContext::with_seed(params, 1)?;
        assert!(BgvContext::new(inner, 16).is_err());
        Ok(())
    }
}
