//! Residue number system (RNS) bases and fast basis conversion.
//!
//! RNS-CKKS stores every polynomial coefficient as its residues modulo a
//! chain of word-size primes q_0 … q_l (plus special primes p_0 … p_{K-1}
//! for hybrid keyswitching). This module provides:
//!
//! - [`RnsBasis::crt_reconstruct_centered`]: exact CRT reconstruction of a
//!   centered coefficient, one coefficient at a time and from first
//!   principles — the *definition*. [`CrtReconstructor`] is what decryption
//!   and decoding run: the same value from constants computed once per
//!   basis (Garner's mixed-radix form), over whole limb slabs.
//! - [`BasisConverter`]: the fast (Halevi–Polyakov–Shoup style) conversion of
//!   residues from one basis to another — the arithmetic core of ModUp and
//!   ModDown in Keyswitch (paper Fig. 4). [`BasisConverter::convert_coeff`]
//!   is its definition; [`BasisConverter::convert_limb_into`] is the
//!   limb-major form every caller uses.
//!
//! # A single source limb is a lift
//!
//! Table VI fixes one special prime, so α = 1 and every conversion a
//! keyswitch performs has **one** source limb (a digit is one chain prime,
//! ModDown reads the one special prime, Rescale the one dropped prime). With
//! `from = {q}` the HPS formula collapses: Q/q is the empty product 1, so
//! y = x, the overflow estimate is v = round(x/q) ∈ {0, 1}, and
//!
//! ```text
//! v     = [x > ⌊q/2⌋]
//! out_i = (x − v·q) mod p_i          the centred lift of x, reduced mod p_i
//! ```
//!
//! — one compare and one conditional add per word where q < 2·p_i (the
//! centred value then lies in (−p_i, p_i)), one Barrett reduction otherwise.
//! The exact compare and the float estimate `⌊x·fl(1/q) + 0.5⌋` of the
//! definition agree for every word-size modulus: the nearest inputs to the
//! boundary are x = (q ∓ 1)/2, where x/q = ½ ∓ 1/(2q) is at least 2^-32
//! away from ½ (q < 2^31) while the roundings of the float expression together
//! move it by less than 2^-50, so the floor lands on the same side.
//! `convert_limb_into` takes this path whenever the converter has one source
//! limb — a property of the input, not a switch — and the tests compare it
//! with `convert_coeff` at 0, 1, q − 1 and every x within 2 of q/2 for every
//! ordered pair of a 28-bit chain and a 29-bit special prime.

use crate::{MathError, Modulus};

/// An ordered set of distinct word-size prime moduli.
///
/// # Examples
///
/// ```
/// use wd_modmath::rns::RnsBasis;
/// let basis = RnsBasis::new(vec![97, 193]).unwrap();
/// let residues = basis.decompose_i128(-5);
/// assert_eq!(basis.crt_reconstruct_centered(&residues).unwrap(), -5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
}

impl RnsBasis {
    /// Builds a basis from prime values.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if any modulus is out of the
    /// word-size range or if two moduli are equal (CRT requires coprimality).
    pub fn new(primes: Vec<u64>) -> Result<Self, MathError> {
        let mut seen = primes.clone();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                return Err(MathError::InvalidModulus(w[0]));
            }
        }
        let moduli = primes
            .into_iter()
            .map(Modulus::try_new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { moduli })
    }

    /// The moduli in order.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of limbs in the basis.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The prime values in order.
    pub fn values(&self) -> Vec<u64> {
        self.moduli.iter().map(|m| m.value()).collect()
    }

    /// Product of all moduli, if it fits in `u128`.
    pub fn product_u128(&self) -> Option<u128> {
        let mut acc: u128 = 1;
        for m in &self.moduli {
            acc = acc.checked_mul(u128::from(m.value()))?;
        }
        Some(acc)
    }

    /// The product of all moduli when it is below 2^127, the width a centred
    /// reconstruction into `i128` has.
    fn product_below_2_127(&self) -> Result<u128, MathError> {
        self.product_u128()
            .filter(|&q| q < 1 << 127)
            .ok_or(MathError::BasisTooWide {
                bits: self.log2_product().floor() as u32 + 1,
            })
    }

    /// log2 of the basis product.
    pub fn log2_product(&self) -> f64 {
        self.moduli.iter().map(|m| (m.value() as f64).log2()).sum()
    }

    /// Residues of a signed integer in every limb.
    pub fn decompose_i128(&self, x: i128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|m| {
                let q = i128::from(m.value());
                ((x % q + q) % q) as u64
            })
            .collect()
    }

    /// Exact centered CRT reconstruction from one residue per limb.
    ///
    /// The reconstructed representative lies in `(-Q/2, Q/2]` where Q is the
    /// basis product. This is how decryption recovers the (small) plaintext
    /// coefficient from its RNS residues.
    ///
    /// This is the **definition** — it recomputes the basis product and one
    /// inverse per limb for every coefficient — kept for the tests to
    /// compare [`CrtReconstructor`] against; nothing on a request path calls
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BasisTooWide`] if the basis product is ≥ 2^127:
    /// the centred value would not fit an `i128`, and the modular
    /// accumulation below relies on `2·Q` fitting a `u128` (callers
    /// reconstruct from a limb subset that bounds the coefficient — see
    /// `wd-ckks`).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    pub fn crt_reconstruct_centered(&self, residues: &[u64]) -> Result<i128, MathError> {
        assert_eq!(residues.len(), self.len(), "one residue per limb");
        let q_prod = self.product_below_2_127()?;
        let mut acc: u128 = 0;
        for (m, &r) in self.moduli.iter().zip(residues) {
            let qi = u128::from(m.value());
            let q_hat = q_prod / qi; // Q / q_i
            let q_hat_inv = m.inv((q_hat % qi) as u64)?; // (Q/q_i)^{-1} mod q_i
            let y = m.mul(m.reduce(r), q_hat_inv); // < q_i
                                                   // acc += y * Q/q_i (mod Q), with mulmod over u128 to avoid overflow.
            acc = (acc + mul_mod_u128(u128::from(y), q_hat, q_prod)) % q_prod;
        }
        let half = q_prod / 2;
        if acc > half {
            Ok(acc as i128 - q_prod as i128)
        } else {
            Ok(acc as i128)
        }
    }
}

/// (a * b) mod m for u128 operands, via 4-limb schoolbook on 64-bit halves.
fn mul_mod_u128(a: u128, b: u128, m: u128) -> u128 {
    // Russian-peasant multiplication; m < 2^127 (checked by the one caller)
    // so doubling cannot overflow after one reduction.
    let mut a = a % m;
    let mut b = b % m;
    let mut acc: u128 = 0;
    while b > 0 {
        if b & 1 == 1 {
            acc += a;
            if acc >= m {
                acc -= m;
            }
        }
        a <<= 1;
        if a >= m {
            a -= m;
        }
        b >>= 1;
    }
    acc
}

/// Fast RNS basis conversion (Halevi–Polyakov–Shoup), converting residues
/// from a source basis Q = {q_j} to a target basis {p_i}:
///
/// ```text
/// y_j  = [x_j * (Q/q_j)^{-1}]_{q_j}
/// v    = round(Σ_j y_j / q_j)              (f64 estimate of the overflow)
/// x_i  = Σ_j y_j * [Q/q_j]_{p_i} - v·[Q]_{p_i}   (mod p_i)
/// ```
///
/// With the `v` correction the conversion is exact whenever the true value is
/// not within rounding error of a multiple of Q — the same guarantee GPU FHE
/// libraries rely on for ModUp/ModDown.
#[derive(Debug, Clone)]
pub struct BasisConverter {
    from: RnsBasis,
    to: RnsBasis,
    /// (Q/q_j)^{-1} mod q_j, per source limb.
    q_hat_inv: Vec<u64>,
    /// [Q/q_j] mod p_i, indexed [i][j].
    q_hat_mod_to: Vec<Vec<u64>>,
    /// [Q] mod p_i.
    q_mod_to: Vec<u64>,
    /// 1/q_j as f64, per source limb.
    inv_q: Vec<f64>,
}

impl BasisConverter {
    /// Precomputes a converter from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Propagates [`MathError`] from inverse computations (cannot happen for
    /// genuinely distinct primes).
    pub fn new(from: RnsBasis, to: RnsBasis) -> Result<Self, MathError> {
        let n_from = from.len();
        let mut q_hat_inv = Vec::with_capacity(n_from);
        let mut inv_q = Vec::with_capacity(n_from);
        for (j, mj) in from.moduli().iter().enumerate() {
            // (Q/q_j) mod q_j = prod_{k != j} q_k mod q_j
            let mut prod = 1u64;
            for (k, mk) in from.moduli().iter().enumerate() {
                if k != j {
                    prod = mj.mul(prod, mj.reduce(mk.value()));
                }
            }
            q_hat_inv.push(mj.inv(prod)?);
            inv_q.push(1.0 / mj.value() as f64);
        }
        let mut q_hat_mod_to = Vec::with_capacity(to.len());
        let mut q_mod_to = Vec::with_capacity(to.len());
        for mi in to.moduli() {
            let mut row = Vec::with_capacity(n_from);
            for j in 0..n_from {
                let mut prod = 1u64;
                for (k, mk) in from.moduli().iter().enumerate() {
                    if k != j {
                        prod = mi.mul(prod, mi.reduce(mk.value()));
                    }
                }
                row.push(prod);
            }
            let mut q_full = 1u64;
            for mk in from.moduli() {
                q_full = mi.mul(q_full, mi.reduce(mk.value()));
            }
            q_hat_mod_to.push(row);
            q_mod_to.push(q_full);
        }
        Ok(Self {
            from,
            to,
            q_hat_inv,
            q_hat_mod_to,
            q_mod_to,
            inv_q,
        })
    }

    /// The source basis.
    pub fn from_basis(&self) -> &RnsBasis {
        &self.from
    }

    /// The target basis.
    pub fn to_basis(&self) -> &RnsBasis {
        &self.to
    }

    /// Converts one coefficient's residues from the source to the target
    /// basis, writing into `out` (`out.len() == to.len()`).
    ///
    /// This is the **definition** of the conversion, kept for the tests to
    /// compare [`BasisConverter::convert_limb_into`] against; nothing on a
    /// request path calls it.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the bases.
    pub fn convert_coeff(&self, residues: &[u64], out: &mut [u64]) {
        assert_eq!(residues.len(), self.from.len());
        assert_eq!(out.len(), self.to.len());
        // y_j and the float overflow estimate.
        let mut v_est = 0.0f64;
        let mut y = [0u64; 64];
        assert!(residues.len() <= 64, "basis wider than 64 limbs");
        for (j, (mj, &x)) in self.from.moduli().iter().zip(residues).enumerate() {
            let yj = mj.mul(mj.reduce(x), self.q_hat_inv[j]);
            y[j] = yj;
            v_est += yj as f64 * self.inv_q[j];
        }
        let v = (v_est + 0.5).floor() as u64;
        for (i, mi) in self.to.moduli().iter().enumerate() {
            let mut acc = 0u64;
            let row = &self.q_hat_mod_to[i];
            for j in 0..self.from.len() {
                // y_j is reduced mod q_j, which may exceed this target
                // modulus — reduce before multiplying.
                acc = mi.add(acc, mi.mul(mi.reduce(y[j]), row[j]));
            }
            let corr = mi.mul(mi.reduce(v), self.q_mod_to[i]);
            out[i] = mi.sub(acc, corr);
        }
    }

    /// Limb-major conversion: `src[j]` is the whole slab of residues modulo
    /// the j-th source prime (canonical, `< q_j`, as every limb in the
    /// workspace is), and `out` receives the slab modulo target prime
    /// `target` — coefficient for coefficient what
    /// [`BasisConverter::convert_coeff`] writes to `out[target]`. One call
    /// per target limb is the whole conversion: no gather, no scratch, no
    /// transpose, and target limbs are independent work items.
    ///
    /// With one source limb this is the centred lift of the
    /// [module docs](self); with more it is the HPS sum, block by block.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not hold one slab per source prime, a slab's
    /// length differs from `out`'s, or `target` is out of range.
    pub fn convert_limb_into(&self, src: &[&[u64]], target: usize, out: &mut [u64]) {
        assert_eq!(src.len(), self.from.len(), "one slab per source prime");
        assert!(src.iter().all(|s| s.len() == out.len()), "slab lengths");
        let mi = &self.to.moduli()[target];
        if let ([x], [mq]) = (src, self.from.moduli()) {
            lift_slab(mq.value(), mi, self.q_mod_to[target], x, out);
            return;
        }
        // General case, in blocks small enough for both running sums to
        // stay in L1. The float sum runs over j in the same order as the
        // definition's, so the estimate is the same double.
        const BLOCK: usize = 256;
        let row = &self.q_hat_mod_to[target];
        let q_mod = self.q_mod_to[target];
        let mut acc = [0u64; BLOCK];
        let mut v_est = [0.0f64; BLOCK];
        for (b, oc) in out.chunks_mut(BLOCK).enumerate() {
            let len = oc.len();
            acc[..len].fill(0);
            v_est[..len].fill(0.0);
            for (j, mj) in self.from.moduli().iter().enumerate() {
                let xs = &src[j][b * BLOCK..b * BLOCK + len];
                let (hat_inv, inv_q, hat) = (self.q_hat_inv[j], self.inv_q[j], row[j]);
                for ((a, v), &x) in acc.iter_mut().zip(v_est.iter_mut()).zip(xs) {
                    let y = mj.mul(x, hat_inv);
                    *v += y as f64 * inv_q;
                    *a = mi.add(*a, mi.mul(mi.reduce(y), hat));
                }
            }
            for ((o, &a), &v) in oc.iter_mut().zip(&acc).zip(&v_est) {
                let v = (v + 0.5).floor() as u64;
                *o = mi.sub(a, mi.mul(mi.reduce(v), q_mod));
            }
        }
    }
}

/// The single-source-limb conversion: `out[k] = (x[k] − v·q) mod p` with
/// `v = [x[k] > ⌊q/2⌋]`, where `q_mod_p = q mod p`. Branch-free per word —
/// the compare is the sign bit of a subtraction, as in the NTT's
/// `reduce_once`, so the fast loop vectorises on baseline x86-64.
fn lift_slab(q: u64, p: &Modulus, q_mod_p: u64, x: &[u64], out: &mut [u64]) {
    debug_assert!(x.iter().all(|&x| x < q), "residues not canonical");
    let half = q / 2;
    // All-ones where x > half (x, half < 2^31: the difference's sign bit).
    let above = |x: u64| 0u64.wrapping_sub(half.wrapping_sub(x) >> 63);
    if q < 2 * p.value() {
        // x − v·q lies in (−p, p): adding p − q (mod 2^64) where v = 1 lands
        // in [0, p) directly.
        let shift = p.value().wrapping_sub(q);
        for (o, &x) in out.iter_mut().zip(x) {
            *o = x.wrapping_add(shift & above(x));
        }
    } else {
        for (o, &x) in out.iter_mut().zip(x) {
            *o = p.sub(p.reduce(x), q_mod_p & above(x));
        }
    }
}

/// Centred CRT reconstruction from constants computed once per basis — what
/// decryption and decoding run in place of the per-coefficient
/// [`RnsBasis::crt_reconstruct_centered`], and equal to it value for value.
///
/// Garner's mixed-radix form: with digits
/// `a_i = (…((r_i − a_0)·q_0⁻¹ − a_1)·q_1⁻¹ … − a_{i−1})·q_{i−1}⁻¹ mod q_i`
/// the value is `a_0 + q_0·(a_1 + q_1·(a_2 + …))`, evaluated by Horner's rule
/// in `u128` with native multiplies and centred once at the end. Every
/// inverse is a Shoup pair fixed at construction; nothing is inverted,
/// multiplied out or allocated per coefficient.
///
/// # Examples
///
/// ```
/// use wd_modmath::rns::{CrtReconstructor, RnsBasis};
/// let basis = RnsBasis::new(vec![97, 193]).unwrap();
/// let crt = CrtReconstructor::new(&basis).unwrap();
/// let r = basis.decompose_i128(-5);
/// let mut out = [0i128; 1];
/// crt.reconstruct_into(&[&r[..1], &r[1..]], &mut out);
/// assert_eq!(out[0], -5);
/// ```
#[derive(Debug, Clone)]
pub struct CrtReconstructor {
    moduli: Vec<Modulus>,
    /// `inv[i][j]` = q_j⁻¹ mod q_i with its Shoup constant, for j < i.
    inv: Vec<Vec<(u64, u64)>>,
    /// The basis product Q (< 2^127).
    product: u128,
}

impl CrtReconstructor {
    /// Precomputes the reconstruction constants of `basis`.
    ///
    /// # Errors
    ///
    /// [`MathError::BasisTooWide`] when the basis product is ≥ 2^127 (the
    /// centred value must fit an `i128`), [`MathError::InvalidModulus`] for
    /// an empty basis, [`MathError::NotInvertible`] for moduli that are not
    /// pairwise coprime.
    pub fn new(basis: &RnsBasis) -> Result<Self, MathError> {
        if basis.is_empty() {
            return Err(MathError::InvalidModulus(0));
        }
        let product = basis.product_below_2_127()?;
        let moduli = basis.moduli().to_vec();
        let inv = moduli
            .iter()
            .enumerate()
            .map(|(i, mi)| {
                moduli[..i]
                    .iter()
                    .map(|mj| {
                        let w = mi.inv(mi.reduce(mj.value()))?;
                        Ok((w, mi.shoup(w)))
                    })
                    .collect::<Result<Vec<_>, MathError>>()
            })
            .collect::<Result<Vec<_>, MathError>>()?;
        Ok(Self {
            moduli,
            inv,
            product,
        })
    }

    /// Number of limbs the reconstructor reads.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The prime values in order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.moduli.iter().map(Modulus::value)
    }

    /// Reconstructs every coefficient: `limbs[i]` is the slab of canonical
    /// residues modulo the i-th prime, `out[k]` receives the representative
    /// of coefficient k in `(−Q/2, Q/2]`.
    ///
    /// # Panics
    ///
    /// Panics if `limbs` does not hold one slab per prime or a slab's length
    /// differs from `out`'s.
    pub fn reconstruct_into(&self, limbs: &[&[u64]], out: &mut [i128]) {
        assert_eq!(limbs.len(), self.len(), "one slab per limb");
        assert!(limbs.iter().all(|l| l.len() == out.len()), "slab lengths");
        let half = self.product / 2;
        let mut digits = vec![0u64; self.len()];
        for (k, o) in out.iter_mut().enumerate() {
            for (i, mi) in self.moduli.iter().enumerate() {
                let mut t = limbs[i][k];
                for (&a, &(w, ws)) in digits[..i].iter().zip(&self.inv[i]) {
                    // A digit is reduced mod its own prime, which may exceed
                    // this one.
                    t = mi.mul_shoup(mi.sub(t, mi.reduce(a)), w, ws);
                }
                digits[i] = t;
            }
            let x = digits
                .iter()
                .zip(&self.moduli)
                .rev()
                .fold(0u128, |x, (&a, m)| {
                    x * u128::from(m.value()) + u128::from(a)
                });
            *o = if x > half {
                x as i128 - self.product as i128
            } else {
                x as i128
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use proptest::prelude::*;

    fn basis(bits: u32, n: usize, offset: usize) -> RnsBasis {
        let primes = generate_ntt_primes(bits, 1 << 8, n + offset).unwrap();
        RnsBasis::new(primes[offset..].to_vec()).unwrap()
    }

    #[test]
    fn rejects_duplicate_moduli() {
        assert!(RnsBasis::new(vec![97, 97]).is_err());
    }

    #[test]
    fn crt_round_trip_small_values() {
        let b = RnsBasis::new(vec![97, 193, 389]).unwrap();
        for x in [-1_000_000i128, -1, 0, 1, 42, 3_000_000] {
            let r = b.decompose_i128(x);
            assert_eq!(b.crt_reconstruct_centered(&r).unwrap(), x, "x = {x}");
        }
    }

    #[test]
    fn crt_centered_range_boundaries() {
        let b = RnsBasis::new(vec![97, 101]).unwrap();
        let q: i128 = 97 * 101;
        // Largest positive representative is Q/2 (floor), smallest is -(Q-1)/2.
        let hi = q / 2;
        let lo = -(q - 1) / 2;
        for x in [lo, lo + 1, -1, 0, 1, hi - 1, hi] {
            let r = b.decompose_i128(x);
            assert_eq!(b.crt_reconstruct_centered(&r).unwrap(), x);
        }
    }

    #[test]
    fn product_u128_overflow_is_none() {
        let b = basis(24, 5, 0);
        assert!(b.product_u128().is_some());
        let primes = generate_ntt_primes(30, 1 << 8, 40).unwrap();
        let wide = RnsBasis::new(primes).unwrap();
        assert!(wide.product_u128().is_none());
        assert!(wide.log2_product() > 1000.0);
    }

    #[test]
    fn basis_conversion_exact_for_small_values() {
        let from = basis(28, 3, 0);
        let to = basis(28, 2, 3);
        let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
        for x in [-123_456_789i128, -7, 0, 5, 1 << 40, -(1i128 << 50)] {
            let src = from.decompose_i128(x);
            let mut out = vec![0u64; to.len()];
            conv.convert_coeff(&src, &mut out);
            assert_eq!(out, to.decompose_i128(x), "x = {x}");
        }
    }

    #[test]
    fn basis_conversion_large_negative_values() {
        // Values close to -Q/2 exercise the v-correction path.
        let from = basis(28, 3, 0);
        let to = basis(28, 3, 3);
        let q = from.product_u128().unwrap() as i128;
        let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
        // The HPS conversion is exact away from the ±Q/2 boundary (the f64
        // overflow estimate rounds the wrong way exactly at the edge).
        for x in [-(q / 3), q / 3, -(q * 2 / 5), q * 2 / 5] {
            let src = from.decompose_i128(x);
            let mut out = vec![0u64; to.len()];
            conv.convert_coeff(&src, &mut out);
            assert_eq!(out, to.decompose_i128(x), "x = {x}");
        }
    }

    #[test]
    fn conversion_to_single_limb_matches_mod() {
        let from = basis(28, 4, 0);
        let to = RnsBasis::new(vec![ntt_prime(20)]).unwrap();
        let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
        let x = 987_654_321_012i128;
        let src = from.decompose_i128(x);
        let mut out = vec![0u64];
        conv.convert_coeff(&src, &mut out);
        assert_eq!(out[0], to.decompose_i128(x)[0]);
    }

    fn ntt_prime(bits: u32) -> u64 {
        crate::prime::ntt_prime_above(1 << bits, 1 << 8).unwrap()
    }

    /// A SET-B/C-shaped prime pool: chain primes alternating just above and
    /// just below 2^28, and one special prime just above 2^29 (so the
    /// special prime is ≥ 2× the low chain primes and < 2× the high ones:
    /// both kernels of the lift occur in both directions).
    fn chain_and_special() -> Vec<u64> {
        let mut pool = generate_ntt_primes(28, 1 << 8, 6).unwrap();
        pool.push(ntt_prime(29));
        pool
    }

    /// `convert_limb_into` over a one-coefficient slab per source limb.
    fn convert_via_limbs(conv: &BasisConverter, residues: &[u64]) -> Vec<u64> {
        let src: Vec<&[u64]> = residues.iter().map(std::slice::from_ref).collect();
        (0..conv.to_basis().len())
            .map(|i| {
                let mut out = [0u64];
                conv.convert_limb_into(&src, i, &mut out);
                out[0]
            })
            .collect()
    }

    #[test]
    fn single_limb_lift_equals_the_definition_at_the_boundary() {
        let pool = chain_and_special();
        let (mut fast, mut reduced) = (0, 0);
        for &q in &pool {
            let to: Vec<u64> = pool.iter().copied().filter(|&p| p != q).collect();
            for &p in &to {
                if q < 2 * p {
                    fast += 1;
                } else {
                    reduced += 1;
                }
            }
            let conv = BasisConverter::new(
                RnsBasis::new(vec![q]).unwrap(),
                RnsBasis::new(to.clone()).unwrap(),
            )
            .unwrap();
            // 0, 1, q − 1 and everything within 2 of q/2: where the exact
            // compare and the definition's float estimate could part ways.
            let half = q / 2;
            let xs = [0, 1, q - 1]
                .into_iter()
                .chain(half - 2..=half + 3)
                .collect::<Vec<_>>();
            for x in xs {
                let mut want = vec![0u64; to.len()];
                conv.convert_coeff(&[x], &mut want);
                assert_eq!(convert_via_limbs(&conv, &[x]), want, "q = {q}, x = {x}");
                // And both are the centred lift.
                let centred = if x > half {
                    x as i128 - q as i128
                } else {
                    x as i128
                };
                assert_eq!(want, conv.to_basis().decompose_i128(centred));
            }
        }
        assert!(fast > 0 && reduced > 0, "both lift kernels exercised");
    }

    #[test]
    fn single_limb_lift_onto_its_own_prime_is_the_identity() {
        // ModUp's target basis contains the digit's own prime.
        let q = ntt_prime(28);
        let conv = BasisConverter::new(
            RnsBasis::new(vec![q]).unwrap(),
            RnsBasis::new(vec![q, ntt_prime(29)]).unwrap(),
        )
        .unwrap();
        let src: Vec<u64> = vec![0, 1, q / 2, q / 2 + 1, q - 1];
        let mut out = vec![0u64; src.len()];
        conv.convert_limb_into(&[&src], 0, &mut out);
        assert_eq!(out, src);
    }

    #[test]
    fn limb_major_conversion_crosses_block_boundaries() {
        // Whole slabs, longer than one block of the general path and not a
        // multiple of it, against the definition coefficient by coefficient.
        let len = 600;
        for from_len in [1usize, 2, 3] {
            let from = basis(28, from_len, 0);
            let to = basis(28, 3, from_len);
            let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
            let src: Vec<Vec<u64>> = from
                .moduli()
                .iter()
                .enumerate()
                .map(|(j, m)| {
                    (0..len as u64)
                        .map(|k| (k * 2_654_435_761 + 97 * j as u64 + 1) % m.value())
                        .collect()
                })
                .collect();
            let slabs: Vec<&[u64]> = src.iter().map(Vec::as_slice).collect();
            for i in 0..to.len() {
                let mut out = vec![0u64; len];
                conv.convert_limb_into(&slabs, i, &mut out);
                for k in 0..len {
                    let residues: Vec<u64> = src.iter().map(|s| s[k]).collect();
                    let mut want = vec![0u64; to.len()];
                    conv.convert_coeff(&residues, &mut want);
                    assert_eq!(out[k], want[i], "from {from_len}, limb {i}, coeff {k}");
                }
            }
        }
    }

    #[test]
    fn reconstructor_matches_the_definition_at_the_range_boundaries() {
        // The `crt_centered_range_boundaries` cases, and ±Q/2 on 1…4 limbs.
        let b = RnsBasis::new(vec![97, 101]).unwrap();
        let q: i128 = 97 * 101;
        assert_reconstructs(
            &b,
            &[-(q - 1) / 2, -(q - 1) / 2 + 1, -1, 0, 1, q / 2 - 1, q / 2],
        );
        for limbs in 1..=4 {
            let b = basis(28, limbs, 0);
            let q = b.product_u128().unwrap() as i128;
            assert_reconstructs(&b, &[-(q - 1) / 2, -(q / 3), -1, 0, 1, q / 3, q / 2]);
        }
    }

    /// Both reconstructions of every `x` (which must lie in `(−Q/2, Q/2]`)
    /// return `x`.
    fn assert_reconstructs(b: &RnsBasis, xs: &[i128]) {
        let crt = CrtReconstructor::new(b).unwrap();
        let residues: Vec<Vec<u64>> = xs.iter().map(|&x| b.decompose_i128(x)).collect();
        let limbs: Vec<Vec<u64>> = (0..b.len())
            .map(|i| residues.iter().map(|r| r[i]).collect())
            .collect();
        let slabs: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
        let mut out = vec![0i128; xs.len()];
        crt.reconstruct_into(&slabs, &mut out);
        for ((x, r), got) in xs.iter().zip(&residues).zip(&out) {
            assert_eq!(got, x, "{} limbs", b.len());
            assert_eq!(b.crt_reconstruct_centered(r).unwrap(), *x);
        }
    }

    #[test]
    fn reconstruction_refuses_a_product_of_127_bits_or_more() {
        // Four 30-bit primes are 120 bits; a seventh-bit prime keeps the
        // product below 2^127, an eighth-bit one lands in [2^127, 2^128) —
        // where the definition's accumulation used to overflow silently —
        // and a fifth word-size prime overflows u128 altogether.
        let four = generate_ntt_primes(30, 1 << 8, 4).unwrap();
        let with = |extra: u64| {
            let mut primes = four.clone();
            primes.push(extra);
            RnsBasis::new(primes).unwrap()
        };
        let fits = with(67);
        assert!(fits.product_u128().unwrap() < 1 << 127);
        assert!(CrtReconstructor::new(&fits).is_ok());
        assert_reconstructs(&fits, &[-(1i128 << 120), -1, 0, 1 << 125]);

        let edge = with(251);
        assert!(edge.product_u128().unwrap() >= 1 << 127);
        let wide = with(ntt_prime(29));
        assert!(wide.product_u128().is_none());
        for b in [&edge, &wide] {
            assert!(matches!(
                CrtReconstructor::new(b),
                Err(MathError::BasisTooWide { .. })
            ));
            assert!(matches!(
                b.crt_reconstruct_centered(&vec![0; b.len()]),
                Err(MathError::BasisTooWide { .. })
            ));
        }
        assert!(CrtReconstructor::new(&RnsBasis::new(vec![]).unwrap()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_crt_round_trip(x in -(1i128 << 60)..(1i128 << 60)) {
            let b = basis(28, 3, 0);
            let r = b.decompose_i128(x);
            prop_assert_eq!(b.crt_reconstruct_centered(&r).unwrap(), x);
        }

        #[test]
        fn prop_conversion_matches_direct_decomposition(x in -(1i128 << 70)..(1i128 << 70)) {
            let from = basis(28, 4, 0);
            let to = basis(28, 2, 4);
            let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
            let src = from.decompose_i128(x);
            let mut out = vec![0u64; to.len()];
            conv.convert_coeff(&src, &mut out);
            prop_assert_eq!(out, to.decompose_i128(x));
        }

        #[test]
        fn prop_single_limb_lift_equals_the_definition(x in 0u64..(1 << 30), which in 0usize..7) {
            let pool = chain_and_special();
            let q = pool[which];
            let x = x % q;
            let to: Vec<u64> = pool.iter().copied().filter(|&p| p != q).collect();
            let conv = BasisConverter::new(
                RnsBasis::new(vec![q]).unwrap(),
                RnsBasis::new(to.clone()).unwrap(),
            ).unwrap();
            let mut want = vec![0u64; to.len()];
            conv.convert_coeff(&[x], &mut want);
            prop_assert_eq!(convert_via_limbs(&conv, &[x]), want);
        }

        #[test]
        fn prop_limb_major_conversion_equals_the_definition(
            a in 0u64..(1 << 28), b in 0u64..(1 << 28), c in 0u64..(1 << 28),
        ) {
            // Arbitrary residue tuples, not only small values: the float
            // estimate's sum order is part of the contract.
            for from_len in [2usize, 3] {
                let from = basis(28, from_len, 0);
                let to = basis(28, 3, from_len);
                let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
                let residues: Vec<u64> = [a, b, c][..from_len]
                    .iter()
                    .zip(from.moduli())
                    .map(|(&r, m)| r % m.value())
                    .collect();
                let mut want = vec![0u64; to.len()];
                conv.convert_coeff(&residues, &mut want);
                prop_assert_eq!(convert_via_limbs(&conv, &residues), want);
            }
        }

        #[test]
        fn prop_reconstructor_equals_the_definition(
            r0 in 0u64..(1 << 28), r1 in 0u64..(1 << 28),
            r2 in 0u64..(1 << 28), r3 in 0u64..(1 << 28),
        ) {
            for limbs in 1usize..=4 {
                let b = basis(28, limbs, 0);
                let residues: Vec<u64> = [r0, r1, r2, r3][..limbs]
                    .iter()
                    .zip(b.moduli())
                    .map(|(&r, m)| r % m.value())
                    .collect();
                let slabs: Vec<&[u64]> = residues.iter().map(std::slice::from_ref).collect();
                let mut out = [0i128];
                CrtReconstructor::new(&b).unwrap().reconstruct_into(&slabs, &mut out);
                prop_assert_eq!(out[0], b.crt_reconstruct_centered(&residues).unwrap());
            }
        }

        #[test]
        fn prop_conversion_is_additive(a in -(1i128 << 50)..(1i128 << 50),
                                       b in -(1i128 << 50)..(1i128 << 50)) {
            let from = basis(28, 4, 0);
            let to = basis(28, 2, 4);
            let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
            let (mut ra, mut rb, mut rab) =
                (vec![0u64; 2], vec![0u64; 2], vec![0u64; 2]);
            conv.convert_coeff(&from.decompose_i128(a), &mut ra);
            conv.convert_coeff(&from.decompose_i128(b), &mut rb);
            conv.convert_coeff(&from.decompose_i128(a + b), &mut rab);
            for (i, mi) in to.moduli().iter().enumerate() {
                prop_assert_eq!(mi.add(ra[i], rb[i]), rab[i]);
            }
        }
    }
}
