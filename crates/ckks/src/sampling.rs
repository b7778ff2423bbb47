//! Randomness for RLWE: uniform, ternary, and discrete-Gaussian polynomials.

use rand::Rng;
use wd_polyring::ntt::NttTable;
use wd_polyring::rns::{Domain, RnsPoly};

/// Standard deviation of the RLWE error distribution (the value virtually
/// every CKKS implementation uses).
pub const ERROR_STD_DEV: f64 = 3.2;

/// Samples a polynomial uniform in every limb, directly in the **NTT
/// domain** (uniform is uniform in either domain, so no transform is
/// needed) — fresh randomness per limb, which is the `a` part of
/// public/evaluation keys.
///
/// Draw `k` of a limb is the evaluation at ψ^{2k+1} and is stored at its
/// bit-reversed slot (the order of [`NttTable::forward`]), so a seed names
/// the same ring element whatever the storage order of the transform: keys
/// and ciphertexts, and with them every decrypted value, are a function of
/// the seed alone.
///
/// # Panics
///
/// Panics if `primes` is empty or `n` invalid (propagated from `RnsPoly`).
pub fn uniform_poly<R: Rng>(rng: &mut R, primes: &[u64], n: usize) -> RnsPoly {
    // invariant: callers pass prime lists and degrees validated by
    // `CkksParams`; ring construction cannot fail for them (documented
    // panic contract above for anyone else).
    let mut p = RnsPoly::zero(primes, n).expect("valid ring");
    for (i, &q) in primes.iter().enumerate() {
        let limb = p.limb_mut(i).coeffs_mut();
        for c in limb.iter_mut() {
            *c = rng.gen_range(0..q);
        }
        NttTable::bit_reverse(limb);
    }
    p.set_domain(Domain::Ntt);
    p
}

/// Samples a ternary secret with coefficients in {−1, 0, +1}.
pub fn ternary_poly<R: Rng>(rng: &mut R, primes: &[u64], n: usize) -> RnsPoly {
    let coeffs: Vec<i64> = (0..n).map(|_| i64::from(rng.gen_range(-1i8..=1))).collect();
    // invariant: see `uniform_poly` — params-validated ring.
    RnsPoly::from_signed(primes, &coeffs).expect("valid ring")
}

/// Samples a discrete Gaussian error polynomial (σ = [`ERROR_STD_DEV`],
/// Box–Muller then rounding — adequate for a research implementation).
pub fn gaussian_poly<R: Rng>(rng: &mut R, primes: &[u64], n: usize) -> RnsPoly {
    let coeffs: Vec<i64> = (0..n).map(|_| sample_gaussian(rng)).collect();
    // invariant: see `uniform_poly` — params-validated ring.
    RnsPoly::from_signed(primes, &coeffs).expect("valid ring")
}

fn sample_gaussian<R: Rng>(rng: &mut R) -> i64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (g * ERROR_STD_DEV).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wd_modmath::prime::generate_ntt_primes;

    fn primes() -> Result<Vec<u64>, crate::CkksError> {
        Ok(generate_ntt_primes(26, 64, 2)?)
    }

    #[test]
    fn ternary_coefficients_in_range() -> Result<(), crate::CkksError> {
        let mut rng = StdRng::seed_from_u64(1);
        let p = ternary_poly(&mut rng, &primes()?, 256);
        for c in p.limb(0).centered() {
            assert!((-1..=1).contains(&c));
        }
        Ok(())
    }

    #[test]
    fn gaussian_has_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<i64> = (0..20_000).map(|_| sample_gaussian(&mut rng)).collect();
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
    }

    #[test]
    fn uniform_spans_the_range() -> Result<(), crate::CkksError> {
        let mut rng = StdRng::seed_from_u64(3);
        let ps = primes()?;
        let p = uniform_poly(&mut rng, &ps, 1024);
        let max = p.limb(0).coeffs().iter().max().copied().unwrap_or(0);
        assert!(max > ps[0] / 2, "uniform sample suspiciously small");
        // Limbs are sampled independently: they should differ.
        assert_ne!(p.limb(0).coeffs()[..32], p.limb(1).coeffs()[..32]);
        Ok(())
    }

    #[test]
    fn deterministic_under_seed() -> Result<(), crate::CkksError> {
        let ps = primes()?;
        let a = uniform_poly(&mut StdRng::seed_from_u64(7), &ps, 64);
        let b = uniform_poly(&mut StdRng::seed_from_u64(7), &ps, 64);
        assert_eq!(a, b);
        Ok(())
    }
}
