//! Single-modulus polynomials in R_q = Z_q\[X\]/(X^N + 1).

use crate::scratch::ScratchArena;
use crate::PolyError;
use wd_modmath::Modulus;

/// A polynomial of degree < N with coefficients reduced modulo a single
/// word-size prime. The coefficient vector may represent either the
/// coefficient domain or the NTT (evaluation) domain; domain tracking lives
/// one level up, in [`crate::rns::RnsPoly`] and the CKKS layer.
///
/// # Examples
///
/// ```
/// use wd_polyring::Poly;
/// let p = Poly::from_coeffs(97, vec![1, 96, 0, 5]).unwrap();
/// let q = Poly::from_coeffs(97, vec![0, 1, 0, 0]).unwrap();
/// assert_eq!(p.add(&q).unwrap().coeffs(), &[1, 0, 0, 5]);
/// ```
///
/// A polynomial built with [`Poly::from_pooled`] has a *home pool*: its
/// storage goes back there when it is dropped, and [`Poly::add`] /
/// [`Poly::sub`] lease their output from it. Equality ignores the home, and
/// a clone has none.
pub struct Poly {
    modulus: Modulus,
    coeffs: Vec<u64>,
    home: Option<&'static ScratchArena>,
}

impl Clone for Poly {
    fn clone(&self) -> Self {
        Self {
            modulus: self.modulus,
            coeffs: self.coeffs.clone(),
            home: None,
        }
    }
}

impl PartialEq for Poly {
    fn eq(&self, other: &Self) -> bool {
        self.modulus == other.modulus && self.coeffs == other.coeffs
    }
}

impl Eq for Poly {}

impl std::fmt::Debug for Poly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poly")
            .field("modulus", &self.modulus)
            .field("coeffs", &self.coeffs)
            .finish()
    }
}

impl Drop for Poly {
    fn drop(&mut self) {
        if let Some(pool) = self.home {
            pool.give_vec(std::mem::take(&mut self.coeffs));
        }
    }
}

/// Checks that n is a power of two ≥ 4 (smallest ring the decompositions touch).
pub(crate) fn check_degree(n: usize) -> Result<(), PolyError> {
    if n >= 4 && n.is_power_of_two() {
        Ok(())
    } else {
        Err(PolyError::BadDegree(n))
    }
}

impl Poly {
    /// Creates a polynomial from raw coefficients, reducing each mod q.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::BadDegree`] unless `coeffs.len()` is a power of
    /// two ≥ 4, and [`PolyError::BadModulus`] unless `q` fits the word-size
    /// bound — untrusted `(q, coeffs)` pairs (e.g. wire data) decode to a
    /// typed error, never a panic.
    pub fn from_coeffs(q: u64, coeffs: Vec<u64>) -> Result<Self, PolyError> {
        check_degree(coeffs.len())?;
        let modulus = Modulus::try_new(q).map_err(|_| PolyError::BadModulus(q))?;
        let coeffs = coeffs.into_iter().map(|c| modulus.reduce(c)).collect();
        Ok(Self {
            modulus,
            coeffs,
            home: None,
        })
    }

    /// Creates a polynomial from coefficients already reduced mod q, skipping
    /// the reduction pass of [`Poly::from_coeffs`] — the hot-path constructor
    /// for arena-leased storage (leases hand out zero-filled slabs, and all
    /// kernel writes stay reduced).
    ///
    /// # Errors
    ///
    /// Same contract as [`Poly::from_coeffs`]. Reduction is asserted in
    /// debug builds only.
    pub fn from_reduced_coeffs(q: u64, coeffs: Vec<u64>) -> Result<Self, PolyError> {
        check_degree(coeffs.len())?;
        let modulus = Modulus::try_new(q).map_err(|_| PolyError::BadModulus(q))?;
        debug_assert!(coeffs.iter().all(|&c| c < q), "coefficients not reduced");
        Ok(Self {
            modulus,
            coeffs,
            home: None,
        })
    }

    /// [`Poly::from_reduced_coeffs`] over storage leased from `pool`
    /// ([`ScratchArena::take_empty`] or [`ScratchArena::take_vec`]): the
    /// storage goes back to `pool` when the polynomial is dropped, and
    /// [`Poly::add`] / [`Poly::sub`] lease their result from it too.
    ///
    /// # Errors
    ///
    /// Same contract as [`Poly::from_coeffs`] (refused storage is freed,
    /// not returned).
    pub fn from_pooled(
        q: u64,
        coeffs: Vec<u64>,
        pool: &'static ScratchArena,
    ) -> Result<Self, PolyError> {
        let mut p = Self::from_reduced_coeffs(q, coeffs)?;
        p.home = Some(pool);
        Ok(p)
    }

    /// Consumes the polynomial, returning its coefficient storage — the
    /// counterpart of [`Poly::from_coeffs`] that lets arena-backed storage
    /// be given back (see `crate::scratch::ScratchArena::give_vec`). The
    /// storage leaves its home pool, if it had one.
    pub fn into_coeffs(mut self) -> Vec<u64> {
        self.home = None;
        std::mem::take(&mut self.coeffs)
    }

    /// Creates the zero polynomial of degree < n.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::BadDegree`] unless `n` is a power of two ≥ 4.
    pub fn zero(q: u64, n: usize) -> Result<Self, PolyError> {
        check_degree(n)?;
        Ok(Self {
            modulus: Modulus::new(q),
            coeffs: vec![0; n],
            home: None,
        })
    }

    /// Creates a polynomial from signed coefficients (centered representation):
    /// each is `c mod q` in `[0, q)`, a Barrett reduction of `|c|` and a
    /// conditional negate — no division, any `i64` including `i64::MIN`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::BadDegree`] unless the length is a power of two ≥ 4.
    pub fn from_signed(q: u64, coeffs: &[i64]) -> Result<Self, PolyError> {
        check_degree(coeffs.len())?;
        let modulus = Modulus::new(q);
        let coeffs = coeffs
            .iter()
            .map(|&c| {
                let r = modulus.reduce(c.unsigned_abs());
                // −r mod q for a negative c; −0 stays 0.
                if c < 0 && r != 0 {
                    q - r
                } else {
                    r
                }
            })
            .collect();
        Ok(Self {
            modulus,
            coeffs,
            home: None,
        })
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient modulus.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// Borrow the coefficients.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutably borrow the coefficients (all writes must stay reduced).
    pub fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// Centered (signed) view of the coefficients in `(-q/2, q/2]`.
    pub fn centered(&self) -> Vec<i64> {
        let q = self.modulus.value();
        let half = q / 2;
        self.coeffs
            .iter()
            .map(|&c| {
                if c > half {
                    c as i64 - q as i64
                } else {
                    c as i64
                }
            })
            .collect()
    }

    fn check_ring(&self, rhs: &Self) -> Result<(), PolyError> {
        if self.modulus != rhs.modulus || self.coeffs.len() != rhs.coeffs.len() {
            Err(PolyError::RingMismatch)
        } else {
            Ok(())
        }
    }

    /// `f` applied coefficient-wise to the pair, into storage leased from
    /// this operand's home pool when it has one (the result then has the
    /// same home), else freshly allocated.
    fn zip_with(&self, rhs: &Self, f: impl Fn(u64, u64) -> u64) -> Result<Self, PolyError> {
        self.check_ring(rhs)?;
        let mut coeffs = match self.home {
            Some(pool) => pool.take_empty(self.coeffs.len()),
            None => Vec::with_capacity(self.coeffs.len()),
        };
        coeffs.extend(self.coeffs.iter().zip(&rhs.coeffs).map(|(&a, &b)| f(a, b)));
        Ok(Self {
            modulus: self.modulus,
            coeffs,
            home: self.home,
        })
    }

    /// Coefficient-wise addition. The result leases from `self`'s home
    /// pool, if any; neither operand is touched.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] if degrees or moduli differ.
    pub fn add(&self, rhs: &Self) -> Result<Self, PolyError> {
        let m = &self.modulus;
        self.zip_with(rhs, |a, b| m.add(a, b))
    }

    /// Coefficient-wise subtraction, leasing like [`Poly::add`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] if degrees or moduli differ.
    pub fn sub(&self, rhs: &Self) -> Result<Self, PolyError> {
        let m = &self.modulus;
        self.zip_with(rhs, |a, b| m.sub(a, b))
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        let m = &self.modulus;
        Self {
            modulus: self.modulus,
            coeffs: self.coeffs.iter().map(|&a| m.neg(a)).collect(),
            home: None,
        }
    }

    /// Coefficient-wise (Hadamard) product — the pointwise multiply applied
    /// in the NTT domain.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] if degrees or moduli differ.
    pub fn pointwise(&self, rhs: &Self) -> Result<Self, PolyError> {
        self.check_ring(rhs)?;
        let m = &self.modulus;
        let coeffs = self
            .coeffs
            .iter()
            .zip(&rhs.coeffs)
            .map(|(&a, &b)| m.mul(a, b))
            .collect();
        Ok(Self {
            modulus: self.modulus,
            coeffs,
            home: None,
        })
    }

    /// Multiplies every coefficient by a scalar.
    pub fn scale(&self, s: u64) -> Self {
        let m = &self.modulus;
        let s = m.reduce(s);
        Self {
            modulus: self.modulus,
            coeffs: self.coeffs.iter().map(|&a| m.mul(a, s)).collect(),
            home: None,
        }
    }

    /// Applies the Galois automorphism X ↦ X^g (g odd), the coefficient-domain
    /// operation underlying HROTATE. Coefficient j moves to position
    /// `j*g mod 2N`, negated when the product wraps past N (X^N = -1).
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (even powers are not ring automorphisms here).
    pub fn automorphism(&self, g: usize) -> Self {
        assert!(g % 2 == 1, "Galois element must be odd");
        let n = self.coeffs.len();
        let m = &self.modulus;
        let mut out = vec![0u64; n];
        for (j, &c) in self.coeffs.iter().enumerate() {
            let t = (j * g) % (2 * n);
            if t < n {
                out[t] = m.add(out[t], c);
            } else {
                out[t - n] = m.sub(out[t - n], c);
            }
        }
        Self {
            modulus: self.modulus,
            coeffs: out,
            home: None,
        }
    }

    /// Infinity norm of the centered representation.
    pub fn inf_norm(&self) -> u64 {
        self.centered()
            .into_iter()
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 97;

    #[test]
    fn from_coeffs_reduces() {
        let p = Poly::from_coeffs(Q, vec![97, 98, 200, 0]).unwrap();
        assert_eq!(p.coeffs(), &[0, 1, 6, 0]);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            Poly::from_coeffs(Q, vec![1, 2, 3]),
            Err(PolyError::BadDegree(3))
        ));
        assert!(Poly::zero(Q, 2).is_err());
        assert!(Poly::zero(Q, 0).is_err());
    }

    #[test]
    fn signed_round_trip() {
        let p = Poly::from_signed(Q, &[-1, -48, 48, 0]).unwrap();
        assert_eq!(p.coeffs(), &[96, 49, 48, 0]);
        assert_eq!(p.centered(), vec![-1, -48, 48, 0]);
    }

    #[test]
    fn add_sub_inverse() {
        let a = Poly::from_coeffs(Q, vec![1, 2, 3, 4]).unwrap();
        let b = Poly::from_coeffs(Q, vec![96, 95, 94, 93]).unwrap();
        let s = a.add(&b).unwrap();
        assert_eq!(s.sub(&b).unwrap(), a);
        assert_eq!(a.add(&a.neg()).unwrap(), Poly::zero(Q, 4).unwrap());
    }

    #[test]
    fn ring_mismatch_detected() {
        let a = Poly::zero(Q, 4).unwrap();
        let b = Poly::zero(Q, 8).unwrap();
        let c = Poly::zero(101, 4).unwrap();
        assert!(matches!(a.add(&b), Err(PolyError::RingMismatch)));
        assert!(matches!(a.pointwise(&c), Err(PolyError::RingMismatch)));
    }

    #[test]
    fn automorphism_identity_and_composition() {
        let p = Poly::from_coeffs(Q, vec![1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(p.automorphism(1), p);
        // aut(g1) then aut(g2) == aut(g1*g2 mod 2N)
        let g1 = 3;
        let g2 = 5;
        let lhs = p.automorphism(g1).automorphism(g2);
        let rhs = p.automorphism((g1 * g2) % 16);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn automorphism_negacyclic_wrap() {
        // X ↦ X^3 on degree-4 ring: X^1 -> X^3, X^2 -> X^6 = -X^2, X^3 -> X^9 = X^1.
        let p = Poly::from_coeffs(Q, vec![0, 1, 0, 0]).unwrap();
        assert_eq!(p.automorphism(3).coeffs(), &[0, 0, 0, 1]);
        let p2 = Poly::from_coeffs(Q, vec![0, 0, 1, 0]).unwrap();
        assert_eq!(p2.automorphism(3).centered(), vec![0, 0, -1, 0]);
    }

    #[test]
    fn pooled_limbs_return_home_and_clones_do_not() {
        let pool: &'static ScratchArena = Box::leak(Box::new(ScratchArena::with_capacity(1 << 16)));
        let mut storage = pool.take_empty(4);
        storage.extend([1, 2, 3, 4]);
        let a = Poly::from_pooled(Q, storage, pool).unwrap();
        let b = Poly::from_coeffs(Q, vec![96, 0, 1, 1]).unwrap();
        // add/sub lease from the first operand's pool; the operands are
        // left as they were.
        let sum = a.add(&b).unwrap();
        let diff = b.sub(&a).unwrap();
        assert_eq!(sum.coeffs(), &[0, 2, 4, 5]);
        assert_eq!(a.coeffs(), &[1, 2, 3, 4]);
        assert_eq!(
            pool.stats().leases,
            2,
            "only the pooled left operand leases"
        );
        // Equality ignores the home; a clone has none.
        let copy = a.clone();
        assert_eq!(copy, a);
        drop((a, sum, diff, copy));
        assert_eq!(pool.parked_bytes(), 2 * 4 * 8, "a and sum came home");
        let again = Poly::from_pooled(Q, pool.take_empty(4), pool);
        assert!(again.is_err(), "an empty slab is no polynomial");
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn inf_norm_is_centered() {
        let p = Poly::from_coeffs(Q, vec![96, 1, 0, 50]).unwrap(); // 96 ≡ -1, 50 ≡ -47
        assert_eq!(p.inf_norm(), 47);
    }
}
