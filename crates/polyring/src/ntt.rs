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
//! ([`wd_modmath::MAX_NTT_MODULUS_BITS`]).
//!
//! The stages whose butterfly span is at least 8 run two to a pass
//! (radix 4): a pass loads one eight-lane group from each quarter of a
//! block, runs both stages' four butterflies on them in registers and
//! stores them once, so those stages cross memory half as often. Their
//! count is log2 N − 3; when it is odd the outermost stage runs alone
//! (N = 2^14: one lone stage, then five fused pairs). The inverse runs the
//! same passes in the mirrored (Gentleman–Sande) order. Every butterfly,
//! its lazy range and the order each element meets its butterflies are
//! those of one stage at a time, so the outputs are too. Stages whose span
//! is below 8 have inner loops too short to vectorise, so they run at a
//! constant span that the compiler unrolls and vectorises across blocks;
//! span 4 takes two blocks as one eight-lane group.
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

/// The span-4 stage, two blocks at a time: the `lo` halves of both blocks
/// form one eight-lane group and the `hi` halves another, each lane under
/// its own block's twiddle, so the butterflies are whole vectors with
/// in-register shuffles at either end. Spelled as [`stage`] at span 4,
/// LLVM's loop vectoriser took eight blocks at a time through
/// `vpgatherqq`/`vpscatterqq` under AVX-512 (1.3–1.6 ns a butterfly at
/// N = 2^14, against 0.5 for spans ≥ 16), and it does the same with this
/// loop unless the pair is passed through [`std::hint::black_box`]: the
/// opaque pointer leaves it nothing to vectorise across, so the unrolled
/// body goes to the straight-line vectoriser instead (0.8 ns a butterfly).
/// The hint costs one spilled pointer per 16 words and changes no value.
#[inline(always)]
fn stage4(
    data: &mut [u64],
    twiddles: &[(u64, u64)],
    butterfly: impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    // Slot j of a group is word (j / 4)·8 + j % 4 of the 16; its partner
    // sits 4 words later.
    let at = |j: usize| (j / 4) * 8 + j % 4;
    let (pairs, rest) = data.as_chunks_mut::<16>();
    let (tw_pairs, tw_rest) = twiddles.as_chunks::<2>();
    for (c, tw) in pairs.iter_mut().zip(tw_pairs) {
        let c = std::hint::black_box(c);
        let mut x: [u64; 8] = std::array::from_fn(|j| c[at(j)]);
        let mut y: [u64; 8] = std::array::from_fn(|j| c[at(j) + 4]);
        for j in 0..8 {
            let (w, ws) = tw[j / 4];
            (x[j], y[j]) = butterfly(x[j], y[j], w, ws);
        }
        for j in 0..8 {
            (c[at(j)], c[at(j) + 4]) = (x[j], y[j]);
        }
    }
    // N = 8 has one block, which no pair covers.
    if let ([w], false) = (tw_rest, rest.is_empty()) {
        let (lo, hi) = rest.split_at_mut(4);
        butterflies(lo, hi, *w, &butterfly);
    }
}

/// A stage whose span is below 8, spelled as a constant: the inner loops
/// are too short to vectorise, so spans 1 and 2 are inlined at a known
/// span, unrolled, and vectorised across blocks instead of within one, and
/// span 4 pairs its blocks ([`stage4`]).
#[inline(always)]
fn short_stage(
    data: &mut [u64],
    span: usize,
    twiddles: &[(u64, u64)],
    butterfly: impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    match span {
        1 => stage(data, 1, twiddles, butterfly),
        2 => stage(data, 2, twiddles, butterfly),
        4 => stage4(data, twiddles, butterfly),
        _ => unreachable!("spans of 8 and more run in fused passes"),
    }
}

/// The stages whose span is at least 8 (eleven at N = 2^14), which run
/// two to a [`radix4`] pass; an odd count leaves the outermost stage
/// alone, one contiguous butterfly run and the cheapest to leave unfused.
fn wide_stages(n: usize) -> u32 {
    n.trailing_zeros().saturating_sub(3)
}

/// Two consecutive stages as one pass over memory. The data splits into
/// `groups` blocks; block `k − groups` is four quarters, and each
/// eight-lane group of every quarter is loaded once, taken through both
/// stages in registers and stored once. The outer stage pairs the block's
/// halves (quarters 0 and 2, 1 and 3) under `twiddles[k]`, the inner stage
/// each half's halves under `twiddles[2k]` and `twiddles[2k + 1]`: the
/// bit-reversed tables are in heap order, so the pass reads exactly the
/// twiddles its stages would one at a time. `forward` runs the outer stage
/// first (Cooley–Tukey), otherwise the inner (Gentleman–Sande); `outer` is
/// the outer stage's butterfly and `inner` the inner one's.
///
/// The group loop walks four zipped quarters, the shape [`butterflies`]
/// uses for two halves: indexed as one `[[u64; 8]]` slice, LLVM's loop
/// vectoriser took eight groups at a time through `vpgatherqq`.
#[inline(always)]
fn radix4(
    data: &mut [u64],
    groups: usize,
    twiddles: &[(u64, u64)],
    forward: bool,
    inner: &impl Fn(u64, u64, u64, u64) -> (u64, u64),
    outer: &impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    let len = data.len() / groups;
    for (k, block) in (groups..).zip(data.chunks_exact_mut(len)) {
        let (w, w0, w1) = (twiddles[k], twiddles[2 * k], twiddles[2 * k + 1]);
        let (lanes, _) = block.as_chunks_mut::<8>();
        let (lo, hi) = lanes.split_at_mut(len / 16);
        let ((q0, q1), (q2, q3)) = (lo.split_at_mut(len / 32), hi.split_at_mut(len / 32));
        let quarters = q0.iter_mut().zip(q1).zip(q2.iter_mut().zip(q3));
        for ((a, b), (c, d)) in quarters {
            let (mut x0, mut x1, mut x2, mut x3) = (*a, *b, *c, *d);
            if forward {
                lanes8(&mut x0, &mut x2, w, outer);
                lanes8(&mut x1, &mut x3, w, outer);
                lanes8(&mut x0, &mut x1, w0, inner);
                lanes8(&mut x2, &mut x3, w1, inner);
            } else {
                lanes8(&mut x0, &mut x1, w0, inner);
                lanes8(&mut x2, &mut x3, w1, inner);
                lanes8(&mut x0, &mut x2, w, outer);
                lanes8(&mut x1, &mut x3, w, outer);
            }
            (*a, *b, *c, *d) = (x0, x1, x2, x3);
        }
    }
}

/// One butterfly on each of eight lanes.
#[inline(always)]
fn lanes8(
    lo: &mut [u64; 8],
    hi: &mut [u64; 8],
    (w, ws): (u64, u64),
    butterfly: &impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    for (x, y) in lo.iter_mut().zip(hi) {
        (*x, *y) = butterfly(*x, *y, w, ws);
    }
}

/// The forward stages in order: the lone outermost stage if
/// [`wide_stages`] is odd, the [`radix4`] passes, the short stages, and the
/// span-1 stage under `last`. The stage with `m` blocks reads
/// `twiddles[m..2m]`.
#[inline(always)]
fn forward_stages(
    data: &mut [u64],
    twiddles: &[(u64, u64)],
    butterfly: impl Fn(u64, u64, u64, u64) -> (u64, u64),
    last: impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    let n = data.len();
    let wide = wide_stages(n);
    let mut groups = 1;
    if wide % 2 == 1 {
        stage(data, n / 2, &twiddles[1..2], &butterfly);
        groups = 2;
    }
    for _ in 0..wide / 2 {
        radix4(data, groups, twiddles, true, &butterfly, &butterfly);
        groups *= 4;
    }
    let mut t = n / 2 / groups;
    while t > 1 {
        short_stage(data, t, &twiddles[groups..2 * groups], &butterfly);
        t /= 2;
        groups *= 2;
    }
    stage(data, 1, &twiddles[groups..], last);
}

/// The inverse stages in order, the mirror of [`forward_stages`]: the short
/// stages, the [`radix4`] passes, and the lone outermost stage if there is
/// one. The last (one-block) stage runs under `last`, which ignores its
/// twiddle.
#[inline(always)]
fn inverse_stages(
    data: &mut [u64],
    twiddles: &[(u64, u64)],
    butterfly: impl Fn(u64, u64, u64, u64) -> (u64, u64),
    last: impl Fn(u64, u64, u64, u64) -> (u64, u64),
) {
    let n = data.len();
    let mut t = 1;
    let mut groups = n / 2;
    while groups > 1 && t < 8 {
        short_stage(data, t, &twiddles[groups..2 * groups], &butterfly);
        t *= 2;
        groups /= 2;
    }
    let wide = wide_stages(n);
    if wide == 0 {
        // N ≤ 8: the last stage is short too.
        return stage(data, t, &twiddles[1..2], last);
    }
    for _ in 0..wide / 2 {
        let blocks = groups / 2;
        if blocks == 1 {
            radix4(data, blocks, twiddles, false, &butterfly, &last);
        } else {
            radix4(data, blocks, twiddles, false, &butterfly, &butterfly);
        }
        groups = blocks / 2;
    }
    if wide % 2 == 1 {
        stage(data, n / 2, &twiddles[1..2], &last);
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
        let butterfly = move |x: u64, y: u64, w: u64, ws: u64| {
            let u = reduce_once(x, two_q);
            let v = m.mul_shoup_lane(y, w, ws);
            (u + v, u + two_q - v)
        };
        // Last stage (adjacent pairs), with the one correction to [0, q).
        let correct = move |x: u64| reduce_once(reduce_once(x, two_q), q);
        forward_stages(data, &table.fwd, butterfly, move |x, y, w, ws| {
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
        // Last stage: N⁻¹ rides on both outputs, then the one correction.
        let ((s, ss), (d, ds)) = (table.n_inv, table.n_inv_w);
        inverse_stages(data, &table.inv, butterfly, |u, v, _, _| {
            (
                reduce_once(m.mul_shoup_lane(u + v, s, ss), q),
                reduce_once(m.mul_shoup_lane(u + two_q - v, d, ds), q),
            )
        });
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
    fn every_output_matches_the_definition_at_every_small_degree() {
        // Log N 2..=12 takes both parities of the pass plan: an even count
        // of wide stages (all fused), an odd one (a lone outermost stage),
        // and none at all (N ≤ 8).
        for log_n in 2..=12u32 {
            let n = 1usize << log_n;
            let two_n = 2 * n as u64;
            let moduli = [
                ntt_prime_above(1 << 25, two_n).unwrap(),
                wd_modmath::prime::ntt_prime_below(1 << 30, two_n).unwrap(),
            ];
            for q in moduli {
                let t = NttTable::new(q, n).unwrap();
                let mut state = (u64::from(log_n) * 0x9e37_79b9_7f4a_7c15) ^ q;
                let random = (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) % q
                    })
                    .collect::<Vec<_>>();
                for data in [random, vec![q - 1; n], vec![0; n]] {
                    let mut evals = t.forward_naive(&data);
                    NttTable::bit_reverse(&mut evals);
                    let mut fast = data.clone();
                    t.forward(&mut fast);
                    assert_eq!(fast, evals, "forward, n = {n}, q = {q}");
                    t.inverse(&mut evals);
                    assert_eq!(evals, data, "inverse, n = {n}, q = {q}");
                }
            }
        }
    }

    #[test]
    fn every_level_matches_the_scalar_level_at_2_15_and_2_16() {
        use wd_modmath::lanes::{run_at, Level};
        for n in [1usize << 15, 1 << 16] {
            let two_n = 2 * n as u64;
            for q in [
                ntt_prime_above(1 << 25, two_n).unwrap(),
                wd_modmath::prime::ntt_prime_below(1 << 30, two_n).unwrap(),
            ] {
                let t = NttTable::new(q, n).unwrap();
                let shift = usize::BITS - n.trailing_zeros();
                let inputs = [
                    (0..n as u64)
                        .map(|i| (i * 2654435761 + 7) % q)
                        .collect::<Vec<_>>(),
                    vec![q - 1; n],
                ];
                for data in inputs {
                    let (mut want, mut want_inv) = (data.clone(), data.clone());
                    run_at(
                        Level::Scalar,
                        Forward {
                            table: &t,
                            data: &mut want,
                        },
                    );
                    run_at(
                        Level::Scalar,
                        Inverse {
                            table: &t,
                            data: &mut want_inv,
                        },
                    );
                    for i in (0..n).step_by(n / 8) {
                        let k = i.reverse_bits() >> shift;
                        assert_eq!(want[i], t.forward_naive_at(&data, k), "n = {n}, q = {q}");
                    }
                    for level in Level::ALL {
                        let (mut x, mut y) = (data.clone(), data.clone());
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
                        run_at(
                            level,
                            Inverse {
                                table: &t,
                                data: &mut y,
                            },
                        );
                        assert_eq!(y, want_inv, "inverse at {level:?}, n = {n}, q = {q}");
                    }
                }
            }
        }
    }

    /// Every butterfly a transform's stage plan runs, as `(lo, hi, twiddle
    /// index, last)`: the data holds its own positions and the twiddle
    /// table its own indices, and the butterflies move nothing.
    fn butterflies_run(
        n: usize,
        run: impl FnOnce(
            &mut [u64],
            &[(u64, u64)],
            &dyn Fn(u64, u64, u64, u64) -> (u64, u64),
            &dyn Fn(u64, u64, u64, u64) -> (u64, u64),
        ),
    ) -> Vec<(u64, u64, u64, bool)> {
        let seen = std::cell::RefCell::new(Vec::new());
        let mut data: Vec<u64> = (0..n as u64).collect();
        let twiddles: Vec<(u64, u64)> = (0..n as u64).map(|k| (k, 0)).collect();
        let record = |last| {
            let seen = &seen;
            move |x: u64, y: u64, w: u64, _: u64| {
                seen.borrow_mut().push((x, y, w, last));
                (x, y)
            }
        };
        run(&mut data, &twiddles, &record(false), &record(true));
        assert_eq!(data, (0..n as u64).collect::<Vec<_>>());
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn the_pass_plan_runs_every_stage_once_under_each_twiddle_once() {
        for log_n in 2..=15u32 {
            let n = 1usize << log_n;
            // Stage with `m` blocks of span t = n / 2m: block i pairs
            // (2ti + j, 2ti + j + t) under twiddle m + i.
            let stages = |last_is: usize| {
                let mut want = Vec::new();
                let mut m = 1;
                while m < n {
                    let t = n / (2 * m);
                    for i in 0..m {
                        for j in 0..t {
                            let lo = (2 * t * i + j) as u64;
                            want.push((lo, lo + t as u64, (m + i) as u64, m == last_is));
                        }
                    }
                    m *= 2;
                }
                want.sort_unstable();
                want
            };
            let fwd = butterflies_run(n, |d, tw, b, last| forward_stages(d, tw, b, last));
            assert_eq!(fwd, stages(n / 2), "forward, n = {n}");
            let inv = butterflies_run(n, |d, tw, b, last| inverse_stages(d, tw, b, last));
            assert_eq!(inv, stages(1), "inverse, n = {n}");
            // Each twiddle drives exactly the span-many butterflies of its
            // one block.
            let mut uses = vec![0; n];
            for b in &fwd {
                uses[b.2 as usize] += 1;
            }
            for (k, &count) in uses.iter().enumerate().skip(1) {
                assert_eq!(count, n >> (k.ilog2() + 1), "forward twiddle {k}, n = {n}");
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
