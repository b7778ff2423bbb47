//! Barrett reduction for word-size moduli.
//!
//! WarpDrive uses Barrett reduction "in other computations" outside the NTT
//! (paper §IV-A-4), where operands are not known in advance and the
//! Montgomery-domain conversion would not amortize. With 31-bit moduli every
//! product of two reduced operands fits in a `u64`, so a single-word Barrett
//! with `mu = floor(2^64 / q)` reduces any such product with at most two
//! conditional corrections.

use crate::MathError;

/// A word-size (< 2^31) modulus with precomputed Barrett constant.
///
/// All inputs to the arithmetic methods must already be reduced (`< q`)
/// unless documented otherwise; outputs are always reduced.
///
/// # Examples
///
/// ```
/// use wd_modmath::Modulus;
/// let m = Modulus::new(0x7ffe_6001); // a 31-bit NTT prime (q - 1 divisible by 2^13)
/// assert_eq!(m.add(m.value() - 1, 5), 4);
/// assert_eq!(m.mul(123456, 654321), 123456u64 * 654321 % 0x7ffe_6001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// floor(2^64 / q).
    mu: u64,
}

impl Modulus {
    /// Creates a Barrett context for prime or composite modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^31` (the WarpDrive word-size bound).
    pub fn new(q: u64) -> Self {
        Self::try_new(q).expect("modulus must be in [2, 2^31)")
    }

    /// Fallible variant of [`Modulus::new`].
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if `q < 2` or `q >= 2^31`.
    pub fn try_new(q: u64) -> Result<Self, MathError> {
        if !(2..(1u64 << crate::MAX_MODULUS_BITS)).contains(&q) {
            return Err(MathError::InvalidModulus(q));
        }
        // floor((2^64 - 1)/q) equals floor(2^64/q) except when q | 2^64
        // (q a power of two), where it is one less — the correction loop in
        // `reduce` absorbs that off-by-one.
        let mu = u64::MAX / q;
        Ok(Self { q, mu })
    }

    /// The modulus value q.
    #[inline]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Reduces an arbitrary `u64` into `[0, q)` via Barrett reduction.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        let t = ((u128::from(x) * u128::from(self.mu)) >> 64) as u64;
        let mut r = x.wrapping_sub(t.wrapping_mul(self.q));
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular addition of reduced operands.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of reduced operands.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of a reduced operand.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication of reduced operands via Barrett reduction.
    ///
    /// With q < 2^31 the double-width product fits in `u64`, mirroring the
    /// INT32-core multiply-high/low pair the paper's CUDA path uses.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce(a * b)
    }

    /// Precomputes the Shoup constant `floor(w * 2^64 / q)` for a fixed
    /// multiplicand `w`, enabling [`Modulus::mul_shoup`].
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((u128::from(w)) << 64) / u128::from(self.q)) as u64
    }

    /// Multiplies `a` by the fixed operand `w` given its Shoup precomputation
    /// (`w_shoup = self.shoup(w)`), using one high multiply and one low
    /// multiply — the classic constant-operand trick used for NTT twiddles.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(a < self.q && w < self.q);
        let t = ((u128::from(a) * u128::from(w_shoup)) >> 64) as u64;
        let r = a.wrapping_mul(w).wrapping_sub(t.wrapping_mul(self.q));
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// [`Modulus::mul_shoup`] without the final correction: `a` may be any
    /// `u64` (not only a reduced one) and the result is congruent to `a·w`
    /// in `[0, 2q)`. With `w' = ⌊w·2^64/q⌋` the quotient estimate is off by
    /// less than `a/2^64 + 1 < 2`, which is the whole bound — the lazy
    /// butterfly of the NTT relies on exactly this.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(w < self.q);
        let t = ((u128::from(a) * u128::from(w_shoup)) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(t.wrapping_mul(self.q))
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64 % self.q;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] when `gcd(a, q) != 1`.
    pub fn inv(&self, a: u64) -> Result<u64, MathError> {
        let a = self.reduce(a);
        let (g, x, _) = ext_gcd(i128::from(a), i128::from(self.q));
        if g != 1 {
            return Err(MathError::NotInvertible {
                value: a,
                modulus: self.q,
            });
        }
        let q = i128::from(self.q);
        Ok(((x % q + q) % q) as u64)
    }
}

/// Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b).
pub fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const Q: u64 = 0x7ffe_6001; // 31-bit prime, q ≡ 1 mod 2^13

    #[test]
    fn new_rejects_bad_moduli() {
        assert!(Modulus::try_new(0).is_err());
        assert!(Modulus::try_new(1).is_err());
        assert!(Modulus::try_new(1 << 31).is_err());
        assert!(Modulus::try_new(2).is_ok());
        assert!(Modulus::try_new((1 << 31) - 1).is_ok());
    }

    #[test]
    fn reduce_matches_remainder() {
        let m = Modulus::new(Q);
        for x in [
            0u64,
            1,
            Q - 1,
            Q,
            Q + 1,
            u64::from(u32::MAX),
            (Q - 1) * (Q - 1),
        ] {
            assert_eq!(m.reduce(x), x % Q, "x = {x}");
        }
    }

    #[test]
    fn add_sub_neg_identities() {
        let m = Modulus::new(Q);
        assert_eq!(m.add(Q - 1, 1), 0);
        assert_eq!(m.sub(0, 1), Q - 1);
        assert_eq!(m.neg(0), 0);
        assert_eq!(m.neg(5), Q - 5);
    }

    #[test]
    fn pow_fermat_little_theorem() {
        let m = Modulus::new(Q);
        for a in [2u64, 3, 12345, Q - 2] {
            assert_eq!(m.pow(a, Q - 1), 1, "a^(q-1) must be 1 for prime q");
        }
    }

    #[test]
    fn inv_of_zero_fails() {
        let m = Modulus::new(Q);
        assert!(matches!(m.inv(0), Err(MathError::NotInvertible { .. })));
    }

    #[test]
    fn inv_composite_noninvertible() {
        let m = Modulus::new(12); // composite
        assert!(m.inv(4).is_err());
        assert_eq!(m.mul(5, m.inv(5).unwrap()), 1);
    }

    #[test]
    fn shoup_matches_barrett_on_edge_values() {
        let m = Modulus::new(Q);
        for w in [0u64, 1, 2, Q / 2, Q - 1] {
            let ws = m.shoup(w);
            for a in [0u64, 1, Q / 3, Q - 1] {
                assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
            }
        }
    }

    #[test]
    fn small_modulus_two() {
        let m = Modulus::new(2);
        assert_eq!(m.add(1, 1), 0);
        assert_eq!(m.mul(1, 1), 1);
        assert_eq!(m.pow(1, 100), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = Modulus::try_new(0).unwrap_err();
        assert!(e.to_string().contains("invalid modulus"));
    }

    proptest! {
        #[test]
        fn prop_mul_matches_u128(a in 0..Q, b in 0..Q) {
            let m = Modulus::new(Q);
            let expect = (u128::from(a) * u128::from(b) % u128::from(Q)) as u64;
            prop_assert_eq!(m.mul(a, b), expect);
        }

        #[test]
        fn prop_shoup_matches_mul(a in 0..Q, w in 0..Q) {
            let m = Modulus::new(Q);
            let ws = m.shoup(w);
            prop_assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
        }

        #[test]
        fn prop_shoup_lazy_is_congruent_below_2q(a in any::<u64>(), w in 0..Q) {
            let m = Modulus::new(Q);
            let r = m.mul_shoup_lazy(a, w, m.shoup(w));
            prop_assert!(r < 2 * Q);
            let expect = (u128::from(a) * u128::from(w) % u128::from(Q)) as u64;
            prop_assert_eq!(r % Q, expect);
        }

        #[test]
        fn prop_inverse_round_trip(a in 1..Q) {
            let m = Modulus::new(Q);
            let inv = m.inv(a).unwrap();
            prop_assert_eq!(m.mul(a, inv), 1);
        }

        #[test]
        fn prop_add_commutes_and_associates(a in 0..Q, b in 0..Q, c in 0..Q) {
            let m = Modulus::new(Q);
            prop_assert_eq!(m.add(a, b), m.add(b, a));
            prop_assert_eq!(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
        }

        #[test]
        fn prop_distributive(a in 0..Q, b in 0..Q, c in 0..Q) {
            let m = Modulus::new(Q);
            prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
        }

        #[test]
        fn prop_sub_is_add_neg(a in 0..Q, b in 0..Q) {
            let m = Modulus::new(Q);
            prop_assert_eq!(m.sub(a, b), m.add(a, m.neg(b)));
        }
    }
}
