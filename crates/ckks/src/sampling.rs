//! Randomness for RLWE, and the one pass per limb that turns it into keys
//! and ciphertexts (DESIGN.md §5n). Every draw is exactly what the
//! composed samplers drew (`gen_range(0..q)` per uniform coefficient,
//! `gen_range(-1i8..=1)` per ternary one, Box–Muller with its second
//! variate discarded per Gaussian one), in the order s; a, e; a_j, e_j for
//! keys and v, e0, e1 for encryption: changing any of it is a declared
//! re-pin of `golden_bits.rs`. Nothing divides per coefficient.

use crate::keys::KeyPoly;
use rand::Rng;
use std::sync::Arc;
use wd_modmath::Modulus;
use wd_polyring::ntt::NttTable;
use wd_polyring::rns::{count_limb_transforms, Domain, RnsPoly};
use wd_polyring::Poly;

/// Standard deviation of the RLWE error distribution (the value virtually
/// every CKKS implementation uses).
pub const ERROR_STD_DEV: f64 = 3.2;

/// Samples a polynomial uniform in every limb, directly in the **NTT
/// domain** (uniform is uniform in either domain): the `a` of public keys.
/// Each limb takes the accepted words of `gen_range(0..q)` in order, with
/// the rejection zone and Barrett constant hoisted and draw `k` written
/// straight to slot `brv(k)`, the order of [`NttTable::forward`]: draw k is
/// the evaluation at ψ^{2k+1}.
///
/// # Panics
///
/// Panics if `primes` is empty or `n` invalid (propagated from `RnsPoly`).
pub fn uniform_poly<R: Rng>(rng: &mut R, primes: &[u64], n: usize) -> RnsPoly {
    // invariant: callers pass prime lists and degrees validated by
    // `CkksParams`; ring construction cannot fail for them.
    let mut p = RnsPoly::zero(primes, n).expect("valid ring");
    for (limb, &q) in p.limbs_mut().zip(primes) {
        let out = limb.coeffs_mut();
        uniform_limb(rng, q, n, |k, v| out[k] = v);
    }
    p.set_domain(Domain::Ntt);
    p
}

/// [`uniform_poly`]'s draws, written into a key slab: the `a_j` of a
/// key-switching digit.
pub(crate) fn uniform_key<R: Rng>(rng: &mut R, primes: &[u64], n: usize) -> KeyPoly {
    let mut p = KeyPoly::zero(primes, n);
    for (i, &q) in primes.iter().enumerate() {
        let out = p.limb_mut(i);
        // Lossless: every prime is below 2^30.
        uniform_limb(rng, q, n, |k, v| out[k] = v as u32);
    }
    p
}

/// One uniform limb mod q: the accepted words of `gen_range(0..q)`, draw k
/// handed to `put` with its bit-reversed slot.
#[inline(always)]
fn uniform_limb<R: Rng>(rng: &mut R, q: u64, n: usize, mut put: impl FnMut(usize, u64)) {
    let shift = usize::BITS - n.trailing_zeros();
    // μ = ⌊(2^64−1)/q⌋; the zone is `gen_range`'s: 2^64 − 1 less
    // ((2^64−1) mod q + 1) mod q.
    let mu = u64::MAX / q;
    let rem = u64::MAX - mu * q;
    let zone = u64::MAX - if rem + 1 == q { 0 } else { rem + 1 };
    for k in 0..n {
        let v = loop {
            let v = rng.next_u64();
            if v <= zone {
                break v;
            }
        };
        // The Barrett quotient is at most one short: v − t·q < 2q.
        let t = ((u128::from(v) * u128::from(mu)) >> 64) as u64;
        let over = v.wrapping_sub(t.wrapping_mul(q)).wrapping_sub(q);
        put(
            k.reverse_bits() >> shift,
            over.wrapping_add(q & 0u64.wrapping_sub(over >> 63)),
        );
    }
}

/// `n` ternary coefficients in {−1, 0, +1}: a secret, or encryption's v.
pub(crate) fn ternary_slab<R: Rng>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| i64::from(rng.gen_range(-1i8..=1))).collect()
}

/// `n` discrete Gaussian coefficients (σ = [`ERROR_STD_DEV`], Box–Muller
/// then rounding — adequate for a research implementation); |c| < 28.
pub(crate) fn gaussian_slab<R: Rng>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| sample_gaussian(rng)).collect()
}

fn sample_gaussian<R: Rng>(rng: &mut R) -> i64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (g * ERROR_STD_DEV).round() as i64
}

/// A small signed slab (|c| < q) lifted into `table`'s prime by a
/// conditional add, then forward-transformed in the same buffer — the
/// limb [`combine_limb`] writes into. The caller counts the transform.
pub(crate) fn noise_limb(table: &NttTable, slab: &[i64]) -> Vec<u64> {
    let q = table.modulus().value();
    let lift = |c: i64| (c as u64).wrapping_add(q & (c >> 63) as u64);
    let mut out: Vec<u64> = slab.iter().map(|&c| lift(c)).collect();
    table.forward(&mut out);
    out
}

/// What [`combine_limb`] adds to `t·e` besides `± x·y`.
#[derive(Clone, Copy)]
pub(crate) enum Term<'a> {
    /// `− x·y (+ f·z)`: a public key, or a key-switching digit with
    /// `z = s′` and `f = P·F_j mod r` given with its Shoup constant.
    Key(Option<(&'a [u64], u64, u64)>),
    /// `+ x·y (+ z)`: an encryption component (z the message) or c0 + c1·s.
    Sum(Option<&'a [u64]>),
}

/// The RLWE combine step on one limb, in one pass and in place:
/// `out = t·out ± x·y (+ z)` (see [`Term`]), where `out` holds the
/// transformed noise (c0 for decryption) and `x`, `y`, `z` are borrowed
/// limbs. Each (t = 1, term) case is its own loop with no branch inside.
///
/// # Panics
///
/// Panics if a limb is shorter than `out`.
pub(crate) fn combine_limb(m: &Modulus, out: &mut [u64], t: u64, xy: (&[u64], &[u64]), term: Term) {
    let n = out.len();
    let (x, y, t) = (&xy.0[..n], &xy.1[..n], m.reduce(t));
    let t_shoup = m.shoup(t);
    macro_rules! each {
        (|$e:ident, $p:ident, $k:ident| $body:expr) => {
            if t == 1 {
                for ($k, o) in out.iter_mut().enumerate() {
                    let ($e, $p) = (*o, m.mul(x[$k], y[$k]));
                    *o = $body;
                }
            } else {
                for ($k, o) in out.iter_mut().enumerate() {
                    let ($e, $p) = (m.mul_shoup(*o, t, t_shoup), m.mul(x[$k], y[$k]));
                    *o = $body;
                }
            }
        };
    }
    match term {
        Term::Key(None) => each!(|e, p, _k| m.sub(e, p)),
        Term::Key(Some((z, f, fs))) => {
            let z = &z[..n];
            each!(|e, p, k| m.add(m.sub(e, p), m.mul_shoup(z[k], f, fs)));
        }
        Term::Sum(None) => each!(|e, p, _k| m.add(e, p)),
        Term::Sum(Some(z)) => {
            let z = &z[..n];
            each!(|e, p, k| m.add(m.add(e, p), z[k]));
        }
    }
}

/// One NTT-domain polynomial over `tables`' primes, limb by limb in one
/// pass each: the slab's noise limb ([`noise_limb`]), then `fold(i, m,
/// limb)` (a [`combine_limb`] call, or nothing for a secret). Counts one
/// forward transform per limb.
pub(crate) fn noise_poly(
    tables: &[Arc<NttTable>],
    slab: &[i64],
    fold: impl FnMut(usize, &Modulus, &mut [u64]),
) -> RnsPoly {
    let mut limbs = Vec::with_capacity(tables.len());
    noise_limbs(tables, slab, fold, |i, limb| {
        // invariant: NTT tables exist only for valid (prime, degree)
        // pairs, and every kernel write is reduced.
        limbs.push(
            Poly::from_reduced_coeffs(tables[i].modulus().value(), limb).expect("table ring"),
        );
    });
    // invariant: at least one table, all of one degree.
    RnsPoly::from_limbs(limbs, Domain::Ntt).expect("non-empty basis")
}

/// [`noise_poly`] into a key slab: each finished limb is narrowed into its
/// 32-bit words as soon as it is combined, so no whole `u64` key digit ever
/// exists.
pub(crate) fn noise_key(
    tables: &[Arc<NttTable>],
    slab: &[i64],
    fold: impl FnMut(usize, &Modulus, &mut [u64]),
) -> KeyPoly {
    let primes: Vec<u64> = tables.iter().map(|t| t.modulus().value()).collect();
    let mut key = KeyPoly::zero(&primes, slab.len());
    noise_limbs(tables, slab, fold, |i, limb| {
        for (w, x) in key.limb_mut(i).iter_mut().zip(limb) {
            // Lossless: every prime is below 2^30.
            *w = x as u32;
        }
    });
    key
}

fn noise_limbs(
    tables: &[Arc<NttTable>],
    slab: &[i64],
    mut fold: impl FnMut(usize, &Modulus, &mut [u64]),
    mut keep: impl FnMut(usize, Vec<u64>),
) {
    for (i, table) in tables.iter().enumerate() {
        let mut limb = noise_limb(table, slab);
        fold(i, table.modulus(), &mut limb);
        keep(i, limb);
    }
    count_limb_transforms(tables.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksError, ParamSet};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Every chain and special prime of SET-A, SET-B and SET-C.
    fn table_vi_primes() -> Result<Vec<u64>, CkksError> {
        let mut primes = Vec::new();
        for set in [ParamSet::set_a(), ParamSet::set_b(), ParamSet::set_c()] {
            let p = set.build()?;
            primes.extend(p.q_chain().iter().chain(p.p_chain()));
        }
        Ok(primes)
    }

    /// NTT-domain limbs over `primes` from a seeded RNG.
    fn random(seed: u64, primes: &[u64], n: usize) -> RnsPoly {
        uniform_poly(&mut StdRng::seed_from_u64(seed), primes, n)
    }

    #[test]
    fn ternary_coefficients_in_range() {
        let slab = ternary_slab(&mut StdRng::seed_from_u64(1), 256);
        assert!(slab.iter().all(|c| (-1..=1).contains(c)));
        assert!((-1..=1).all(|v| slab.contains(&v)));
    }

    #[test]
    fn gaussian_has_plausible_moments() {
        let samples = gaussian_slab(&mut StdRng::seed_from_u64(2), 20_000);
        let mean = samples.iter().sum::<i64>() as f64 / samples.len() as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        assert!(mean.abs() < 0.15, "mean = {mean}");
        assert!(
            (var.sqrt() - ERROR_STD_DEV).abs() < 0.3,
            "sd = {}",
            var.sqrt()
        );
        assert!(samples.iter().all(|c| c.abs() < 28));
    }

    #[test]
    fn uniform_spans_the_range() -> Result<(), CkksError> {
        let ps = &table_vi_primes()?[..2];
        let p = random(3, ps, 1024);
        let max = p.limb(0).coeffs().iter().max().copied().unwrap_or(0);
        assert!(max > ps[0] / 2, "uniform sample suspiciously small");
        // Limbs are sampled independently: they should differ.
        assert_ne!(p.limb(0).coeffs()[..32], p.limb(1).coeffs()[..32]);
        Ok(())
    }

    #[test]
    fn deterministic_under_seed() -> Result<(), CkksError> {
        let ps = &table_vi_primes()?[..2];
        assert_eq!(random(7, ps, 64), random(7, ps, 64));
        Ok(())
    }

    /// `Poly::from_signed` (Barrett of |c| and a conditional negate) equals
    /// the `i128` remainder formula it replaced, at the extremes of `i64`
    /// and around ±q, for every prime of Table VI's SET-A…C.
    #[test]
    fn from_signed_matches_the_i128_formula() -> Result<(), CkksError> {
        let mut rng = StdRng::seed_from_u64(4);
        for q in table_vi_primes()? {
            let qi = q as i64;
            let mut cs = vec![i64::MIN, i64::MAX, i64::MIN + 1, 0, 1, -1];
            cs.extend([qi, qi - 1, qi + 1, 2 * qi].iter().flat_map(|&c| [c, -c]));
            cs.extend((cs.len()..64).map(|_| rng.next_u64() as i64 >> (rng.next_u64() % 64)));
            let want: Vec<u64> = cs
                .iter()
                .map(|&c| (i128::from(c).rem_euclid(i128::from(q))) as u64)
                .collect();
            assert_eq!(Poly::from_signed(q, &cs)?.coeffs(), &want[..], "q = {q}");
        }
        Ok(())
    }

    /// Replays a fixed list of words — the rejection boundaries
    /// `gen_range` sees only once in 2^33 draws with a real generator.
    #[derive(Clone)]
    struct Words(Vec<u64>, usize);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[(self.1 - 1) % self.0.len()]
        }
    }

    /// `uniform_poly` against `gen_range(0..q)` and `bit_reverse` on two
    /// copies of `rng`, including the generator state afterwards.
    fn check_uniform<R: RngCore + Clone>(primes: &[u64], rng: R) {
        for n in [4, 64, 1024] {
            let (mut fused, mut composed) = (rng.clone(), rng.clone());
            let got = uniform_poly(&mut fused, primes, n);
            for (limb, &q) in got.limbs().zip(primes) {
                let mut want: Vec<u64> = (0..n).map(|_| composed.gen_range(0..q)).collect();
                NttTable::bit_reverse(&mut want);
                assert_eq!(limb.coeffs(), &want[..], "q = {q}, n = {n}");
            }
            assert_eq!(fused.next_u64(), composed.next_u64(), "generator state");
        }
    }

    /// The uniform sampler takes exactly `gen_range(0..q)`'s accepted words,
    /// reduced to the same residues, in bit-reversed order, and leaves the
    /// generator where `gen_range` and `bit_reverse` leave it.
    #[test]
    fn uniform_matches_gen_range_then_bit_reverse() -> Result<(), CkksError> {
        let mut primes = table_vi_primes()?;
        primes.extend([2, 3, 4, 97, (1 << 31) - 1]);
        check_uniform(&primes, StdRng::seed_from_u64(5));
        // Words at and around every zone a modulus above has, and u64::MAX.
        let mut words = vec![u64::MAX, u64::MAX - 1, 0, 1, 12_345];
        for &q in &primes {
            let zone = u64::MAX - (u64::MAX % q + 1) % q;
            words.extend([zone, zone.wrapping_add(1), zone - 1, zone - q]);
        }
        check_uniform(&primes, Words(words, 0));
        Ok(())
    }

    /// The lifted-and-transformed noise limb is `from_signed` followed by
    /// the forward NTT.
    #[test]
    fn noise_limb_is_from_signed_then_forward() -> Result<(), CkksError> {
        let params = ParamSet::set_b().with_degree(1 << 6).build()?;
        let ctx = crate::CkksContext::with_seed(params, 6)?;
        let slab = gaussian_slab(&mut StdRng::seed_from_u64(6), 64);
        for &q in ctx.full_basis(ctx.params().max_level()) {
            let table = &ctx.tables_for(&[q])[0];
            let mut want = Poly::from_signed(q, &slab)?.into_coeffs();
            table.forward(&mut want);
            assert_eq!(noise_limb(table, &slab), want);
        }
        Ok(())
    }

    /// The combine kernel equals the composed `pointwise` / `neg` / `add` /
    /// `scale_scalar` / `scale_per_limb` chain it replaced, for every term,
    /// at t = 1 and at a BGV plaintext modulus.
    #[test]
    fn combine_limb_matches_the_composed_ops() -> Result<(), CkksError> {
        let primes = ParamSet::set_b()
            .with_degree(1 << 6)
            .build()?
            .q_chain()
            .to_vec();
        let (e, x, y, z) = (
            random(10, &primes, 64),
            random(11, &primes, 64),
            random(12, &primes, 64),
            random(13, &primes, 64),
        );
        let f: Vec<u64> = primes.iter().map(|&q| q / 3 + 7).collect();
        for t in [1, 65_537] {
            let te = e.scale_scalar(t);
            let xy = x.pointwise(&y)?;
            let composed = [
                xy.neg().add(&te)?,
                xy.neg().add(&te)?.add(&z.scale_per_limb(&f))?,
                xy.add(&te)?,
                xy.add(&te)?.add(&z)?,
            ];
            for (case, want) in composed.iter().enumerate() {
                for (i, &q) in primes.iter().enumerate() {
                    let m = Modulus::new(q);
                    let zi = z.limb(i).coeffs();
                    let term = match case {
                        0 => Term::Key(None),
                        1 => Term::Key(Some((zi, f[i], m.shoup(f[i])))),
                        2 => Term::Sum(None),
                        _ => Term::Sum(Some(zi)),
                    };
                    let mut out = e.limb(i).coeffs().to_vec();
                    let xy_i = (x.limb(i).coeffs(), y.limb(i).coeffs());
                    combine_limb(&m, &mut out, t, xy_i, term);
                    assert_eq!(out, want.limb(i).coeffs(), "t = {t}, case {case}, limb {i}");
                }
            }
        }
        Ok(())
    }
}
