//! The negacyclic NTT/INTT every RNS limb goes through.
//!
//! WarpDrive's argument for its GPU transform (§1, Fig. 2) is that an NTT
//! should be one fused pass that never round-trips through memory between
//! logical steps. On the host the same argument applies to cache: this
//! transform has no ψ pre-/post-scaling pass and no bit-reversal pass. The
//! forward direction is Cooley–Tukey with the powers of ψ folded into the
//! stage twiddles, the inverse is Gentleman–Sande with ψ⁻¹ and N⁻¹ folded
//! in, every twiddle is a lane Shoup pair `(w, ⌊w·2^32/q⌋)`, and butterflies
//! are lazy: values ride in `[0, 4q)` (forward) or `[0, 2q)` (inverse) and
//! are corrected once, inside the last stage.
//!
//! # Lanes
//!
//! Both directions run through [`wd_modmath::lanes::dispatch`], so each
//! stage is vectorised at the widest level the CPU offers. For a value
//! `a < 2^32`, `t = ⌊a·w'/2^32⌋` and `a·w − t·q` lands in `[0, 2q)` with
//! every product 32×32→64: one `vpmuludq` per lane. The lazy `[0, 4q)`
//! values fit a lane because [`NttTable::new`] refuses q ≥ 2^30
//! ([`wd_modmath::MAX_NTT_MODULUS_BITS`]). Stages whose butterfly span is
//! below 8 have inner loops too short to vectorise, so they run at a
//! constant span that the compiler unrolls and vectorises across blocks.
//!
//! # Order convention
//!
//! [`NttTable::forward`] takes coefficients in natural order and leaves the
//! evaluations in **bit-reversed order**: with `brv` the bit reversal on
//! log2 N bits,
//!
//! ```text
//! out[i] = a(ψ^{2·brv(i)+1})  (mod q),   ψ a primitive 2N-th root of unity
//! ```
//!
//! [`NttTable::inverse`] takes that order back to natural-order
//! coefficients. Pointwise kernels do not care about the order (the
//! negacyclic convolution theorem `NTT(a·b) = NTT(a) ⊙ NTT(b)` holds slot
//! by slot in any fixed order), so NTT-domain data stays bit-reversed
//! everywhere; [`galois_permutation`] is the one place that has to know.
//! [`NttTable::forward_naive`] states the same evaluations in natural order
//! and is the oracle the tests compare against through
//! [`NttTable::bit_reverse`].

use crate::PolyError;
use wd_modmath::lanes::{dispatch, reduce_once, Kernel};
use wd_modmath::prime::primitive_root_of_unity;
use wd_modmath::{Modulus, MAX_NTT_MODULUS_BITS};

/// Precomputed twiddles for negacyclic NTTs of degree N modulo q.
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    /// ψ, a primitive 2N-th root of unity.
    psi: u64,
    /// `ψ^{brv(k)}` as lane Shoup pairs; the forward stage with `m` butterfly
    /// groups reads `fwd[m..2m]` front to back (entry 0 is unused).
    fwd: Vec<(u64, u64)>,
    /// `ψ^{-brv(k)}` as lane Shoup pairs; the inverse stage with `h` groups
    /// reads `inv[h..2h]` (entries 0 and 1 are unused: the last stage takes
    /// `n_inv` and `n_inv_w` instead).
    inv: Vec<(u64, u64)>,
    /// N⁻¹, the scaling of the sums in the last inverse stage.
    n_inv: (u64, u64),
    /// N⁻¹·ψ^{-brv(1)}, the scaling of the differences in that stage.
    n_inv_w: (u64, u64),
}

impl NttTable {
    /// Builds tables for degree `n` (power of two ≥ 4) and prime `q ≡ 1 mod 2n`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::BadDegree`], [`PolyError::BadModulus`] for
    /// q ≥ 2^30 (the lazy butterflies need `4q` to fit a 32-bit lane), or
    /// [`PolyError::NoRootOfUnity`].
    pub fn new(q: u64, n: usize) -> Result<Self, PolyError> {
        crate::poly::check_degree(n)?;
        if q >= 1 << MAX_NTT_MODULUS_BITS {
            return Err(PolyError::BadModulus(q));
        }
        let no_root = || PolyError::NoRootOfUnity {
            modulus: q,
            degree: n,
        };
        let modulus = Modulus::try_new(q).map_err(|_| no_root())?;
        let two_n = 2 * n as u64;
        if !(q - 1).is_multiple_of(two_n) {
            return Err(no_root());
        }
        let psi = primitive_root_of_unity(q, two_n).map_err(|_| no_root())?;
        let psi_inv = modulus.inv(psi).expect("psi invertible");
        let n_inv = modulus.inv(n as u64).expect("n invertible");

        let pair = |w: u64| (w, modulus.shoup_lane(w));
        let shift = usize::BITS - n.trailing_zeros();
        let mut fwd = vec![(0, 0); n];
        let mut inv = vec![(0, 0); n];
        let (mut p, mut pi) = (1u64, 1u64);
        for e in 0..n {
            let k = e.reverse_bits() >> shift;
            fwd[k] = pair(p);
            inv[k] = pair(pi);
            p = modulus.mul(p, psi);
            pi = modulus.mul(pi, psi_inv);
        }
        let n_inv_w = pair(modulus.mul(n_inv, inv[1].0));
        Ok(Self {
            modulus,
            n,
            psi,
            fwd,
            inv,
            n_inv: pair(n_inv),
            n_inv_w,
        })
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The modulus.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The primitive 2N-th root ψ.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// In-place bit-reversal permutation: the explicit map between the
    /// order [`NttTable::forward`] produces and natural order.
    pub fn bit_reverse(data: &mut [u64]) {
        let n = data.len();
        let shift = usize::BITS - n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    /// Negacyclic forward NTT, in place: natural-order coefficients below q
    /// in, bit-reversed evaluations below q out (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn forward(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n);
        dispatch(Forward { table: self, data });
    }

    /// Negacyclic inverse NTT, in place: bit-reversed evaluations below q
    /// in, natural-order coefficients below q out.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn inverse(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n);
        dispatch(Inverse { table: self, data });
    }

    /// The definition, one output at a time: `a(ψ^{2k+1})` by Horner's rule.
    pub fn forward_naive_at(&self, data: &[u64], k: usize) -> u64 {
        let m = &self.modulus;
        let x = m.pow(self.psi, (2 * k + 1) as u64);
        data.iter()
            .rev()
            .fold(0, |acc, &a| m.add(m.mul(acc, x), m.reduce(a)))
    }

    /// Direct O(N²) evaluation of the negacyclic NTT in **natural order**
    /// (`X[k] = a(ψ^{2k+1})`) — the oracle that pins down what the fast
    /// transform computes, compared through [`NttTable::bit_reverse`].
    pub fn forward_naive(&self, data: &[u64]) -> Vec<u64> {
        (0..self.n)
            .map(|k| self.forward_naive_at(data, k))
            .collect()
    }
}

/// The butterflies of one block, eight lanes at a time. Each group of eight
/// is loaded from both halves before either is stored, so the compiler
/// vectorises it without having to know that `lo` and `hi` do not overlap.
/// Left to a plain zipped loop, it checked the overlap at run time, hoisted
/// that check out of the block loop as one test of all the `lo` halves
/// against all the `hi` halves, and sent every stage with more than one
/// block down the scalar loop (2.2 ns a butterfly against 0.4).
#[inline(always)]
fn butterflies(
    lo: &mut [u64],
    hi: &mut [u64],
    (w, ws): (u64, u64),
    butterfly: &impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    let (lo8, lo_rest) = lo.as_chunks_mut::<8>();
    let (hi8, hi_rest) = hi.as_chunks_mut::<8>();
    for (xs, ys) in lo8.iter_mut().zip(hi8) {
        let (mut x, mut y) = (*xs, *ys);
        for j in 0..8 {
            (x[j], y[j]) = butterfly(x[j], y[j], w, ws);
        }
        (*xs, *ys) = (x, y);
    }
    for (x, y) in lo_rest.iter_mut().zip(hi_rest) {
        (*x, *y) = butterfly(*x, *y, w, ws);
    }
}

/// One stage of `span`-element butterflies: block `i` of `2·span` elements
/// pairs its halves under `twiddles[i]`.
#[inline(always)]
fn stage(
    data: &mut [u64],
    span: usize,
    twiddles: &[(u64, u64)],
    butterfly: impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    for (block, &w) in data.chunks_exact_mut(2 * span).zip(twiddles) {
        let (lo, hi) = block.split_at_mut(span);
        butterflies(lo, hi, w, &butterfly);
    }
}

/// [`stage`], with the spans below 8 spelled as constants: their inner
/// loops are too short to vectorise, so each is inlined at a known span,
/// unrolled, and vectorised across blocks instead of within one.
#[inline(always)]
fn any_stage(
    data: &mut [u64],
    span: usize,
    twiddles: &[(u64, u64)],
    butterfly: impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    match span {
        1 => stage(data, 1, twiddles, butterfly),
        2 => stage(data, 2, twiddles, butterfly),
        4 => stage(data, 4, twiddles, butterfly),
        _ => stage(data, span, twiddles, butterfly),
    }
}

struct Forward<'a> {
    table: &'a NttTable,
    data: &'a mut [u64],
}

impl Kernel for Forward<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (table, data) = (self.table, self.data);
        // A copy, not a reference into the table: the compiler cannot prove
        // that stores to `data` leave a borrowed modulus alone, so it would
        // reload q in every butterfly behind a runtime alias check.
        let m = table.modulus;
        let q = m.value();
        let two_q = 2 * q;
        // Harvey butterfly on [0, 4q): (x, y) → (x + w·y, x − w·y).
        let butterfly = |x: u64, y: u64, w: u64, ws: u64| {
            let u = reduce_once(x, two_q);
            let v = m.mul_shoup_lane(y, w, ws);
            (u + v, u + two_q - v)
        };
        let mut t = table.n / 2;
        let mut groups = 1;
        while t > 1 {
            any_stage(data, t, &table.fwd[groups..2 * groups], butterfly);
            t /= 2;
            groups *= 2;
        }
        // Last stage (adjacent pairs), with the one correction to [0, q).
        let correct = |x: u64| reduce_once(reduce_once(x, two_q), q);
        stage(data, 1, &table.fwd[groups..], |x, y, w, ws| {
            let (x, y) = butterfly(x, y, w, ws);
            (correct(x), correct(y))
        });
    }
}

struct Inverse<'a> {
    table: &'a NttTable,
    data: &'a mut [u64],
}

impl Kernel for Inverse<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (table, data) = (self.table, self.data);
        let m = table.modulus;
        let q = m.value();
        let two_q = 2 * q;
        // Gentleman–Sande butterfly on [0, 2q): x + y, (x − y)·w.
        let butterfly = |u: u64, v: u64, w: u64, ws: u64| {
            (
                reduce_once(u + v, two_q),
                m.mul_shoup_lane(u + two_q - v, w, ws),
            )
        };
        let mut t = 1;
        let mut groups = table.n / 2;
        while groups > 1 {
            any_stage(data, t, &table.inv[groups..2 * groups], butterfly);
            t *= 2;
            groups /= 2;
        }
        // Last stage: N⁻¹ rides on both outputs, then the one correction.
        let (lo, hi) = data.split_at_mut(t);
        let ((s, ss), (d, ds)) = (table.n_inv, table.n_inv_w);
        for (x, y) in lo.iter_mut().zip(hi) {
            let (u, v) = (*x, *y);
            *x = reduce_once(m.mul_shoup_lane(u + v, s, ss), q);
            *y = reduce_once(m.mul_shoup_lane(u + two_q - v, d, ds), q);
        }
    }
}

/// The Galois automorphism `X ↦ X^g` (g odd) as a gather on NTT-domain data
/// in the order [`NttTable::forward`] produces:
/// `NTT(φ_g(a))[i] = NTT(a)[perm[i]]`.
///
/// Slot `i` holds `a(ψ^{2k+1})` with `k = brv(i)`; `φ_g(a)` evaluated there
/// is `a(ψ^{g(2k+1)})`, which is slot `brv(k')` with
/// `2k'+1 ≡ g(2k+1) (mod 2N)`. The table depends on `(N, g)` only, not on
/// the modulus.
///
/// # Panics
///
/// Panics if `g` is even or `n` is not a power of two.
pub fn galois_permutation(n: usize, g: usize) -> Vec<u32> {
    assert!(g % 2 == 1, "Galois element must be odd");
    assert!(n.is_power_of_two() && n >= 2);
    let shift = usize::BITS - n.trailing_zeros();
    let brv = |i: usize| i.reverse_bits() >> shift;
    (0..n)
        .map(|i| {
            let k = (g * (2 * brv(i) + 1) % (2 * n) - 1) / 2;
            brv(k) as u32
        })
        .collect()
}

/// `dst[i] = src[perm[i]]` — how a [`galois_permutation`] is applied to one
/// limb.
///
/// # Panics
///
/// Panics if the three lengths differ.
pub fn gather(perm: &[u32], src: &[u64], dst: &mut [u64]) {
    assert_eq!(perm.len(), src.len());
    assert_eq!(perm.len(), dst.len());
    for (d, &i) in dst.iter_mut().zip(perm) {
        *d = src[i as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wd_modmath::prime::ntt_prime_above;

    fn table(n: usize) -> NttTable {
        let q = ntt_prime_above(1 << 25, 2 * n as u64).unwrap();
        NttTable::new(q, n).unwrap()
    }

    #[test]
    fn rejects_modulus_without_root() {
        // 97 ≡ 1 mod 32 but not mod 64, so degree 32 fails.
        assert!(NttTable::new(97, 32).is_err());
        assert!(NttTable::new(97, 16).is_ok());
    }

    #[test]
    fn forward_matches_naive_definition_through_bit_reversal() {
        for n in [4usize, 8, 16, 256] {
            let t = table(n);
            let q = t.modulus().value();
            let inputs = [
                (0..n as u64).map(|i| (i * i + 3) % q).collect::<Vec<_>>(),
                // Every butterfly at the top of its lazy range.
                vec![q - 1; n],
            ];
            for data in inputs {
                let mut fast = data.clone();
                t.forward(&mut fast);
                assert!(fast.iter().all(|&v| v < q), "n = {n}: output not reduced");
                NttTable::bit_reverse(&mut fast);
                assert_eq!(fast, t.forward_naive(&data), "n = {n}");
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let t = table(64);
        let data: Vec<u64> = (0..64u64).map(|i| i * 977 % t.modulus().value()).collect();
        let mut x = data.clone();
        t.forward(&mut x);
        assert_ne!(x, data, "forward must change the data");
        t.inverse(&mut x);
        assert_eq!(x, data);
    }

    #[test]
    fn transform_of_delta_is_constant_ish() {
        // NTT of X^0 = 1 is all-ones (evaluation of constant 1 everywhere).
        let t = table(32);
        let mut x = vec![0u64; 32];
        x[0] = 1;
        t.forward(&mut x);
        assert!(x.iter().all(|&v| v == 1));
    }

    #[test]
    fn transform_of_x_is_odd_psi_powers_in_bit_reversed_order() {
        let t = table(32);
        let m = t.modulus();
        let mut x = vec![0u64; 32];
        x[1] = 1;
        t.forward(&mut x);
        NttTable::bit_reverse(&mut x);
        for (k, &v) in x.iter().enumerate() {
            assert_eq!(v, m.pow(t.psi(), (2 * k + 1) as u64));
        }
    }

    #[test]
    fn convolution_theorem_negacyclic() {
        let t = table(16);
        let q = t.modulus().value();
        let a: Vec<u64> = (0..16).map(|i| (7 * i + 1) as u64 % q).collect();
        let b: Vec<u64> = (0..16).map(|i| (i * i) as u64 % q).collect();
        let expect = crate::naive::negacyclic_mul(t.modulus(), &a, &b);
        let (mut fa, mut fb) = (a.clone(), b.clone());
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| t.modulus().mul(x, y))
            .collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^{N-1} * X = X^N = -1: multiply and check the constant term is q-1.
        let t = table(8);
        let q = t.modulus().value();
        let mut a = vec![0u64; 8];
        a[7] = 1;
        let mut b = vec![0u64; 8];
        b[1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        let mut c: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| t.modulus().mul(x, y))
            .collect();
        t.inverse(&mut c);
        assert_eq!(c[0], q - 1);
        assert!(c[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn inverse_at_the_top_of_the_lazy_range_is_exact() {
        // All-(q−1) evaluations drive every inverse butterfly to the top of
        // [0, 2q); the result must still be the exact, reduced preimage.
        for n in [4usize, 64, 1024] {
            let t = table(n);
            let q = t.modulus().value();
            let mut x = vec![q - 1; n];
            t.inverse(&mut x);
            assert!(x.iter().all(|&v| v < q));
            t.forward(&mut x);
            assert_eq!(x, vec![q - 1; n], "n = {n}");
        }
    }

    #[test]
    fn the_lane_bound_is_decided_at_construction() {
        let n = 1 << 10;
        let below = wd_modmath::prime::ntt_prime_below(1 << 30, 2 * n as u64).unwrap();
        let above = ntt_prime_above(1 << 30, 2 * n as u64).unwrap();
        assert!(NttTable::new(below, n).is_ok(), "q = {below}");
        for q in [1 << 30, above] {
            let e = NttTable::new(q, n).unwrap_err();
            assert_eq!(e, PolyError::BadModulus(q));
            assert!(e.to_string().contains("2^30"), "{e}");
        }
    }

    #[test]
    fn every_level_matches_the_scalar_oracle() {
        use wd_modmath::lanes::{run_at, Level};
        for n in (2..=14).map(|k| 1usize << k) {
            let two_n = 2 * n as u64;
            let moduli = [
                ntt_prime_above(1 << 25, two_n).unwrap(),
                wd_modmath::prime::ntt_prime_below(1 << 30, two_n).unwrap(),
            ];
            for q in moduli {
                let t = NttTable::new(q, n).unwrap();
                let shift = usize::BITS - n.trailing_zeros();
                let inputs = [
                    (0..n as u64)
                        .map(|i| (i * 2654435761 + 7) % q)
                        .collect::<Vec<_>>(),
                    vec![q - 1; n],
                    vec![0; n],
                ];
                for data in inputs {
                    let mut want = data.clone();
                    run_at(
                        Level::Scalar,
                        Forward {
                            table: &t,
                            data: &mut want,
                        },
                    );
                    // The scalar level against the definition, at a few slots.
                    for i in (0..n).step_by((n / 8).max(1)) {
                        let k = i.reverse_bits() >> shift;
                        assert_eq!(want[i], t.forward_naive_at(&data, k), "n = {n}, q = {q}");
                    }
                    for level in Level::ALL {
                        let mut x = data.clone();
                        if run_at(
                            level,
                            Forward {
                                table: &t,
                                data: &mut x,
                            },
                        )
                        .is_none()
                        {
                            continue;
                        }
                        assert_eq!(x, want, "forward at {level:?}, n = {n}, q = {q}");
                        run_at(
                            level,
                            Inverse {
                                table: &t,
                                data: &mut x,
                            },
                        );
                        assert_eq!(x, data, "round trip at {level:?}, n = {n}, q = {q}");
                        // The inverse straight from the input, against scalar.
                        let (mut y, mut y_want) = (data.clone(), data.clone());
                        run_at(
                            level,
                            Inverse {
                                table: &t,
                                data: &mut y,
                            },
                        );
                        run_at(
                            Level::Scalar,
                            Inverse {
                                table: &t,
                                data: &mut y_want,
                            },
                        );
                        assert_eq!(y, y_want, "inverse at {level:?}, n = {n}, q = {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn galois_permutation_is_the_coefficient_automorphism() {
        let n = 64;
        let t = table(n);
        let q = t.modulus().value();
        let p = crate::Poly::from_coeffs(q, (0..n as u64).map(|i| i * 7919 % q).collect()).unwrap();
        let mut spectrum = p.coeffs().to_vec();
        t.forward(&mut spectrum);
        for g in [1usize, 3, 5, 25, 2 * n - 1] {
            let mut expect = p.automorphism(g).coeffs().to_vec();
            t.forward(&mut expect);
            let mut got = vec![0u64; n];
            gather(&galois_permutation(n, g), &spectrum, &mut got);
            assert_eq!(got, expect, "g = {g}");
        }
    }

    #[test]
    fn bit_reverse_involution() {
        let mut v: Vec<u64> = (0..32).collect();
        let orig = v.clone();
        NttTable::bit_reverse(&mut v);
        assert_ne!(v, orig);
        NttTable::bit_reverse(&mut v);
        assert_eq!(v, orig);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_round_trip(coeffs in proptest::collection::vec(0u64..(1 << 25), 64)) {
            let t = table(64);
            let reduced: Vec<u64> = coeffs.iter().map(|&c| t.modulus().reduce(c)).collect();
            let mut x = reduced.clone();
            t.forward(&mut x);
            t.inverse(&mut x);
            prop_assert_eq!(x, reduced);
        }

        #[test]
        fn prop_linearity(a in proptest::collection::vec(0u64..(1 << 25), 32),
                          b in proptest::collection::vec(0u64..(1 << 25), 32)) {
            let t = table(32);
            let m = *t.modulus();
            let ar: Vec<u64> = a.iter().map(|&c| m.reduce(c)).collect();
            let br: Vec<u64> = b.iter().map(|&c| m.reduce(c)).collect();
            let sum: Vec<u64> = ar.iter().zip(&br).map(|(&x, &y)| m.add(x, y)).collect();
            let (mut fa, mut fb, mut fs) = (ar, br, sum);
            t.forward(&mut fa);
            t.forward(&mut fb);
            t.forward(&mut fs);
            for i in 0..32 {
                prop_assert_eq!(fs[i], m.add(fa[i], fb[i]));
            }
        }
    }
}
