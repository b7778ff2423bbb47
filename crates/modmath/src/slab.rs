//! Contiguous-slab modular arithmetic (the host-side "planar limb" kernels).
//!
//! An RNS limb is one contiguous `[u64]` slab. The hot host paths —
//! keyswitch inner-product accumulation, ModDown, rescale — spend their time
//! in elementwise loops over such slabs. These helpers run those loops
//! *in place and cache-blocked*: each block of [`SLAB_BLOCK`] elements is
//! loaded once, combined, and stored once, so a fused
//! multiply-accumulate makes a single pass where the naive
//! `pointwise` + `add` composition made two passes plus a temporary
//! allocation. The loop bodies are branch-free lane arithmetic
//! ([`Modulus::mul_lane`], [`Modulus::mul_shoup_lane`], [`reduce_once`]),
//! and every loop runs through [`dispatch`], so it is vectorised at the
//! widest level the CPU offers.
//!
//! Every helper is bit-identical to composing the scalar [`Modulus`]
//! operations element by element — the tests pin that equivalence at every
//! level.

use crate::lanes::{dispatch, lo32, reduce_once, Kernel};
use crate::Modulus;

/// Elements per cache block: 1024 × 8 B = 8 KiB per operand, so a fused
/// three-operand loop works on 24 KiB — comfortably inside a 32 KiB L1.
pub const SLAB_BLOCK: usize = 1024;

struct MulSlab<'a> {
    m: &'a Modulus,
    a: &'a [u64],
    b: &'a [u64],
    out: &'a mut [u64],
}

impl Kernel for MulSlab<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let m = *self.m;
        for ((o, &x), &y) in self.out.iter_mut().zip(self.a).zip(self.b) {
            *o = m.mul_lane(x, y);
        }
    }
}

struct AddSlab<'a> {
    q: u64,
    acc: &'a mut [u64],
    b: &'a [u64],
}

impl Kernel for AddSlab<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let q = self.q;
        for (c, &y) in self.acc.iter_mut().zip(self.b) {
            *c = reduce_once(*c + y, q);
        }
    }
}

struct MulAddSlab<'a> {
    m: &'a Modulus,
    acc: &'a mut [u64],
    a: &'a [u64],
    b: &'a [u64],
}

impl Kernel for MulAddSlab<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (m, q) = (*self.m, self.m.value());
        for ((cc, ac), bc) in self
            .acc
            .chunks_mut(SLAB_BLOCK)
            .zip(self.a.chunks(SLAB_BLOCK))
            .zip(self.b.chunks(SLAB_BLOCK))
        {
            for ((c, &x), &y) in cc.iter_mut().zip(ac).zip(bc) {
                *c = reduce_once(*c + m.mul_lane(x, y), q);
            }
        }
    }
}

struct MulAdd2Lazy<'a> {
    acc0: &'a mut [u64],
    acc1: &'a mut [u64],
    a: &'a [u64],
    b0: &'a [u32],
    b1: &'a [u32],
}

impl Kernel for MulAdd2Lazy<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let lanes = self.acc0.iter_mut().zip(self.acc1).zip(self.a);
        for (((c0, c1), &x), (&y0, &y1)) in lanes.zip(self.b0.iter().zip(self.b1)) {
            // Wrapping only so that a key word tampered past q gives a wrong
            // value rather than a panic; the cadence keeps honest sums exact.
            *c0 = c0.wrapping_add(lo32(x) * u64::from(y0));
            *c1 = c1.wrapping_add(lo32(x) * u64::from(y1));
        }
    }
}

struct FoldSlab<'a> {
    m: &'a Modulus,
    acc: &'a mut [u64],
}

impl Kernel for FoldSlab<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (m, q) = (*self.m, self.m.value());
        // x = h·2^32 + l ≡ h·(2^32 mod q) + l·1: two lane Shoup products of
        // 32-bit factors, each in [0, 2q), so their sum is below 4q.
        let r = (1u64 << 32) % q;
        let (rs, one_s) = (m.shoup_lane(r), m.shoup_lane(1));
        for x in self.acc.iter_mut() {
            let v = m.mul_shoup_lane(*x >> 32, r, rs) + m.mul_shoup_lane(lo32(*x), 1, one_s);
            *x = reduce_once(reduce_once(v, 2 * q), q);
        }
    }
}

struct RsubScaleSlab<'a> {
    m: &'a Modulus,
    a: &'a mut [u64],
    b: &'a [u64],
    w: u64,
}

impl Kernel for RsubScaleSlab<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (m, q, w) = (*self.m, self.m.value(), self.w);
        let ws = m.shoup_lane(w);
        for (ac, bc) in self.a.chunks_mut(SLAB_BLOCK).zip(self.b.chunks(SLAB_BLOCK)) {
            for (x, &y) in ac.iter_mut().zip(bc) {
                // The lazy product takes the unreduced difference in (0, 2q)
                // and lands in [0, 2q): one correction for both steps.
                *x = reduce_once(m.mul_shoup_lane(y + q - *x, w, ws), q);
            }
        }
    }
}

struct ScaleSlab<'a> {
    m: &'a Modulus,
    a: &'a mut [u64],
    w: u64,
}

impl Kernel for ScaleSlab<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (m, q, w) = (*self.m, self.m.value(), self.w);
        let ws = m.shoup_lane(w);
        for x in self.a.iter_mut() {
            *x = reduce_once(m.mul_shoup_lane(*x, w, ws), q);
        }
    }
}

impl Modulus {
    /// `out[i] = a[i] * b[i] mod q` over whole slabs.
    ///
    /// # Panics
    ///
    /// Panics if the slab lengths differ.
    pub fn mul_slab_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), out.len());
        dispatch(MulSlab { m: self, a, b, out });
    }

    /// In-place addition: `acc[i] = acc[i] + b[i] mod q`, for reduced
    /// operands — the sum without a fresh output slab.
    ///
    /// # Panics
    ///
    /// Panics if the slab lengths differ.
    pub fn add_slab_assign(&self, acc: &mut [u64], b: &[u64]) {
        assert_eq!(acc.len(), b.len());
        dispatch(AddSlab {
            q: self.value(),
            acc,
            b,
        });
    }

    /// Fused multiply-accumulate: `acc[i] = acc[i] + a[i] * b[i] mod q`,
    /// in place — one pass where `pointwise` + `add` made two passes and a
    /// temporary slab.
    ///
    /// # Panics
    ///
    /// Panics if the slab lengths differ.
    pub fn mul_add_slab_assign(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        dispatch(MulAddSlab { m: self, acc, a, b });
    }

    /// How many products of two residues a lane holding a reduced value can
    /// take before [`Modulus::fold_slab_assign`] must run:
    /// `⌊(2^64 − 1 − (q − 1)) / (q − 1)²⌋`, the cadence of the lazy inner
    /// product ([`mul_add2_lazy`]). 16 for q just below 2^30, about 4000
    /// for a 26-bit prime.
    pub fn lazy_terms(&self) -> usize {
        let top = self.value() - 1;
        usize::try_from((u64::MAX - top) / (top * top)).unwrap_or(usize::MAX)
    }

    /// Reduces every word of `acc`, whatever its value, into `[0, q)`: the
    /// fold that ends a run of [`mul_add2_lazy`]. Every product is 32×32→64,
    /// so it vectorises like the other lane kernels, and it holds for every
    /// q a [`Modulus`] takes.
    pub fn fold_slab_assign(&self, acc: &mut [u64]) {
        dispatch(FoldSlab { m: self, acc });
    }

    /// Fused reverse-subtract-and-scale: `a[i] = (b[i] − a[i]) · w mod q` in
    /// one pass — the last step of ModDown and Rescale, where `a` holds the
    /// correction term (and becomes the result) and `b` the operand limb.
    /// Bit-identical to `sub` followed by a Shoup (or Barrett) multiply.
    ///
    /// # Panics
    ///
    /// Panics if the slab lengths differ.
    pub fn rsub_scale_slab_assign(&self, a: &mut [u64], b: &[u64], w: u64) {
        assert_eq!(a.len(), b.len());
        debug_assert!(w < self.value());
        dispatch(RsubScaleSlab { m: self, a, b, w });
    }

    /// In-place scaling by a loop-invariant scalar via Shoup multiplication:
    /// the Shoup constant is computed once per slab, so the per-element work
    /// is one quotient estimate and one correction — cheaper than Barrett
    /// when one operand repeats (exactly the ModDown / rescale shape).
    pub fn scale_slab_assign(&self, a: &mut [u64], w: u64) {
        debug_assert!(w < self.value());
        dispatch(ScaleSlab { m: self, a, w });
    }
}

/// The lazy keyswitch inner product over one target limb:
/// `acc0[i] += a[i]·b0[i]` and `acc1[i] += a[i]·b1[i]` as plain integers,
/// one 32×32→64 product and no reduction per term. `a` is an extended digit
/// limb (residues in `u64` lanes) and `b0`, `b1` the two key limbs, stored in
/// 32-bit words so each is streamed at half the bytes from a key far larger
/// than L2; one loop over both keeps two memory streams in flight.
///
/// With every operand below q, the caller runs at most
/// [`Modulus::lazy_terms`] of these between [`Modulus::fold_slab_assign`]
/// calls (starting from zero or from a folded value), and the fold then
/// yields exactly what as many [`Modulus::mul_add_slab_assign`] calls would.
///
/// # Panics
///
/// Panics if the slab lengths differ.
pub fn mul_add2_lazy(acc0: &mut [u64], acc1: &mut [u64], a: &[u64], b0: &[u32], b1: &[u32]) {
    let len = a.len();
    assert!([acc0.len(), acc1.len(), b0.len(), b1.len()] == [len; 4]);
    dispatch(MulAdd2Lazy {
        acc0,
        acc1,
        a,
        b0,
        b1,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Modulus {
        Modulus::new(0x7ffe_6001)
    }

    fn slab(seed: u64, len: usize, q: u64) -> Vec<u64> {
        (0..len as u64)
            .map(|i| (i * 2654435761 + seed) % q)
            .collect()
    }

    #[test]
    fn mul_slab_matches_scalar() {
        let m = m();
        // Cross a block boundary to cover the chunked path.
        let len = SLAB_BLOCK + 37;
        let a = slab(1, len, m.value());
        let b = slab(2, len, m.value());
        let mut out = vec![0u64; len];
        m.mul_slab_into(&a, &b, &mut out);
        for i in 0..len {
            assert_eq!(out[i], m.mul(a[i], b[i]), "i = {i}");
        }
    }

    #[test]
    fn mul_add_slab_matches_scalar_composition() {
        let m = m();
        let len = 2 * SLAB_BLOCK + 5;
        let a = slab(3, len, m.value());
        let b = slab(4, len, m.value());
        let mut acc = slab(5, len, m.value());
        let expect: Vec<u64> = acc
            .iter()
            .zip(a.iter().zip(&b))
            .map(|(&c, (&x, &y))| m.add(c, m.mul(x, y)))
            .collect();
        m.mul_add_slab_assign(&mut acc, &a, &b);
        assert_eq!(acc, expect);
    }

    #[test]
    fn scale_slab_matches_scalar_mul() {
        let m = m();
        let len = SLAB_BLOCK + 1;
        let w = 123_456_789 % m.value();
        let orig = slab(8, len, m.value());
        let mut a = orig.clone();
        m.scale_slab_assign(&mut a, w);
        for i in 0..len {
            assert_eq!(a[i], m.mul(orig[i], w), "i = {i}");
        }
    }

    #[test]
    fn rsub_scale_slab_matches_scalar_composition() {
        let m = m();
        let len = SLAB_BLOCK + 3;
        let w = 987_654_321 % m.value();
        let b = slab(9, len, m.value());
        let orig = slab(10, len, m.value());
        let mut a = orig.clone();
        m.rsub_scale_slab_assign(&mut a, &b, w);
        for i in 0..len {
            assert_eq!(a[i], m.mul(m.sub(b[i], orig[i]), w), "i = {i}");
        }
    }

    /// Moduli for the level sweep: near 2^25, just below 2^30, 2^30 itself
    /// (a power of two, where the narrow Barrett constant is one short), a
    /// 31-bit NTT prime and the largest modulus a [`Modulus`] takes.
    const SWEEP_MODULI: [u64; 5] = [
        (1 << 25) + 1,
        (1 << 30) - 35,
        1 << 30,
        0x7ffe_6001,
        (1 << 31) - 1,
    ];

    /// Lengths that are not multiples of a vector, and that cross
    /// [`SLAB_BLOCK`].
    const SWEEP_LENS: [usize; 6] = [
        1,
        15,
        17,
        SLAB_BLOCK - 1,
        SLAB_BLOCK + 37,
        2 * SLAB_BLOCK + 5,
    ];

    /// Pseudo-random residues, all q − 1 and all 0.
    fn sweep_inputs(q: u64, len: usize, seed: u64) -> [Vec<u64>; 3] {
        [slab(seed, len, q), vec![q - 1; len], vec![0; len]]
    }

    #[test]
    fn every_kernel_matches_the_scalar_oracle_at_every_level() {
        use crate::lanes::{run_at, Level};
        let mut ran = 0;
        for level in Level::ALL {
            for q in SWEEP_MODULI {
                let m = Modulus::new(q);
                let w = q - 1 - q / 7;
                for len in SWEEP_LENS {
                    for (k, [a, b, c]) in (0..3)
                        .map(|k| {
                            [0, 1, 2].map(|j| {
                                sweep_inputs(q, len, 10 * j + 1)[(k + j as usize) % 3].clone()
                            })
                        })
                        .enumerate()
                    {
                        let at = |what: &str| {
                            format!("{what} at {level:?}, q = {q}, len = {len}, inputs {k}")
                        };
                        let mut out = vec![0; len];
                        if run_at(
                            level,
                            MulSlab {
                                m: &m,
                                a: &a,
                                b: &b,
                                out: &mut out,
                            },
                        )
                        .is_none()
                        {
                            continue;
                        }
                        ran += 1;
                        let prod: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
                        assert_eq!(out, prod, "{}", at("mul"));

                        let mut acc = c.clone();
                        run_at(
                            level,
                            MulAddSlab {
                                m: &m,
                                acc: &mut acc,
                                a: &a,
                                b: &b,
                            },
                        );
                        let want: Vec<u64> =
                            c.iter().zip(&prod).map(|(&x, &p)| m.add(x, p)).collect();
                        assert_eq!(acc, want, "{}", at("mul_add"));

                        let mut r = a.clone();
                        run_at(
                            level,
                            RsubScaleSlab {
                                m: &m,
                                a: &mut r,
                                b: &b,
                                w,
                            },
                        );
                        let want: Vec<u64> = a
                            .iter()
                            .zip(&b)
                            .map(|(&x, &y)| m.mul(m.sub(y, x), w))
                            .collect();
                        assert_eq!(r, want, "{}", at("rsub_scale"));

                        let mut r = a.clone();
                        run_at(
                            level,
                            ScaleSlab {
                                m: &m,
                                a: &mut r,
                                w,
                            },
                        );
                        let want: Vec<u64> = a.iter().map(|&x| m.mul(x, w)).collect();
                        assert_eq!(r, want, "{}", at("scale"));
                    }
                }
            }
        }
        assert!(
            ran >= SWEEP_MODULI.len() * SWEEP_LENS.len() * 3,
            "scalar always runs"
        );
    }

    /// The two in-place kernels the ciphertext ops accumulate with equal
    /// the scalar `add` (and `add` of `mul`) at every level this CPU offers:
    /// for a prime just below 2^30 and the sweep's others, all-(q − 1)
    /// operands (the largest sum each kernel sees) and pseudo-random ones,
    /// at lengths one vector tail and [`SLAB_BLOCK`] ± 37 around the block.
    #[test]
    fn in_place_add_and_mul_add_match_the_scalar_oracle_at_every_level() {
        use crate::lanes::{run_at, Level};
        let mut ran = 0;
        for q in SWEEP_MODULI {
            let m = Modulus::new(q);
            for len in [1, 17, SLAB_BLOCK - 37, SLAB_BLOCK + 37] {
                let [mix, top, _] = sweep_inputs(q, len, 7);
                let other = slab(11, len, q);
                for (acc0, a, b) in [
                    (&top, &top, &top),
                    (&mix, &other, &top),
                    (&top, &mix, &other),
                ] {
                    let sum: Vec<u64> = acc0.iter().zip(b).map(|(&c, &y)| m.add(c, y)).collect();
                    let fma: Vec<u64> = acc0
                        .iter()
                        .zip(a.iter().zip(b))
                        .map(|(&c, (&x, &y))| m.add(c, m.mul(x, y)))
                        .collect();
                    for level in Level::ALL {
                        let at = format!("{level:?}, q = {q}, len = {len}");
                        let mut acc = acc0.clone();
                        if run_at(
                            level,
                            AddSlab {
                                q,
                                acc: &mut acc,
                                b,
                            },
                        )
                        .is_none()
                        {
                            continue;
                        }
                        ran += 1;
                        assert_eq!(acc, sum, "add at {at}");
                        let mut acc = acc0.clone();
                        run_at(
                            level,
                            MulAddSlab {
                                m: &m,
                                acc: &mut acc,
                                a,
                                b,
                            },
                        );
                        assert_eq!(acc, fma, "mul_add at {at}");
                    }
                }
            }
        }
        assert!(ran >= SWEEP_MODULI.len() * 4 * 3, "scalar always runs");
    }

    /// Moduli of the lazy inner product: just below 2^30 (16 terms between
    /// folds), a 26-bit chain prime of SET-B (4096) and a prime below 2^16.
    fn lazy_moduli() -> [u64; 3] {
        let chain = crate::prime::ntt_prime_above((1 << 26) + 1, 1 << 14).expect("26-bit prime");
        [(1 << 30) - 35, chain, 40_961]
    }

    /// Runs `terms` lazy multiply-accumulates at `level` with the fold
    /// cadence [`Modulus::lazy_terms`] sets, and the scalar composition
    /// beside it; returns (lazy, scalar) for both accumulators.
    fn lazy_vs_scalar(
        level: crate::lanes::Level,
        m: &Modulus,
        len: usize,
        terms: usize,
        extreme: bool,
    ) -> Option<[(Vec<u64>, Vec<u64>); 2]> {
        use crate::lanes::run_at;
        let q = m.value();
        let draw = |seed: u64| {
            if extreme {
                vec![q - 1; len]
            } else {
                slab(seed, len, q)
            }
        };
        let narrow = |v: Vec<u64>| -> Vec<u32> { v.into_iter().map(|x| x as u32).collect() };
        let (mut acc0, mut acc1) = (vec![0u64; len], vec![0u64; len]);
        let (mut want0, mut want1) = (vec![0u64; len], vec![0u64; len]);
        for j in 0..terms as u64 {
            if j > 0 && (j as usize).is_multiple_of(m.lazy_terms()) {
                run_at(level, FoldSlab { m, acc: &mut acc0 })?;
                run_at(level, FoldSlab { m, acc: &mut acc1 })?;
            }
            let (a, b0, b1) = (draw(3 * j + 1), draw(3 * j + 2), draw(3 * j + 3));
            for i in 0..len {
                want0[i] = m.add(want0[i], m.mul(a[i], b0[i]));
                want1[i] = m.add(want1[i], m.mul(a[i], b1[i]));
            }
            let (b0, b1) = (narrow(b0), narrow(b1));
            run_at(
                level,
                MulAdd2Lazy {
                    acc0: &mut acc0,
                    acc1: &mut acc1,
                    a: &a,
                    b0: &b0,
                    b1: &b1,
                },
            )?;
        }
        run_at(level, FoldSlab { m, acc: &mut acc0 })?;
        run_at(level, FoldSlab { m, acc: &mut acc1 })?;
        Some([(acc0, want0), (acc1, want1)])
    }

    /// The lazy multiply-accumulate and its fold equal the scalar
    /// `add(acc, mul(a, b))` chain at every level, for runs longer than one
    /// fold interval, with all-(q − 1) operands (the largest sum the
    /// cadence admits) and pseudo-random ones, at lengths around the block.
    #[test]
    fn lazy_inner_product_matches_the_scalar_oracle_at_every_level() {
        use crate::lanes::Level;
        for q in lazy_moduli() {
            let m = Modulus::new(q);
            let terms = (2 * m.lazy_terms() + 3).min(40);
            for level in Level::ALL {
                for len in [1, 17, SLAB_BLOCK - 1, SLAB_BLOCK, SLAB_BLOCK + 37] {
                    for extreme in [false, true] {
                        let Some(got) = lazy_vs_scalar(level, &m, len, terms, extreme) else {
                            continue;
                        };
                        for (k, (lazy, want)) in got.into_iter().enumerate() {
                            assert_eq!(
                                lazy, want,
                                "acc{k} at {level:?}, q = {q}, len = {len}, extreme = {extreme}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The fold cadence is the formula's, and near 2^30 it is 16 terms: a
    /// deeper digit count must fold more than once per limb.
    #[test]
    fn lazy_terms_follow_the_modulus() {
        let [near30, chain, small] = lazy_moduli().map(Modulus::new);
        assert_eq!(near30.lazy_terms(), 16);
        assert!((4000..4096).contains(&chain.lazy_terms()));
        assert!(small.lazy_terms() > 1 << 32);
        for m in [near30, chain, small] {
            let (k, top) = (m.lazy_terms() as u128, u128::from(m.value() - 1));
            assert!(top + k * top * top <= u128::from(u64::MAX));
            assert!(top + (k + 1) * top * top > u128::from(u64::MAX));
        }
    }

    /// The fold reduces any word, the extremes of `u64` included, at every
    /// level and for every modulus a [`Modulus`] takes.
    #[test]
    fn fold_reduces_every_word_at_every_level() {
        use crate::lanes::{run_at, Level};
        for q in SWEEP_MODULI.into_iter().chain(lazy_moduli()).chain([2, 3]) {
            let m = Modulus::new(q);
            let mut words: Vec<u64> = vec![0, 1, q - 1, q, u64::MAX, u64::MAX - 1, 1 << 32];
            words.extend((0..SLAB_BLOCK as u64 + 9).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let want: Vec<u64> = words.iter().map(|&x| x % q).collect();
            for level in Level::ALL {
                let mut got = words.clone();
                if run_at(
                    level,
                    FoldSlab {
                        m: &m,
                        acc: &mut got,
                    },
                )
                .is_some()
                {
                    assert_eq!(got, want, "q = {q} at {level:?}");
                }
            }
        }
    }

    #[test]
    fn empty_slabs_are_noops() {
        let m = m();
        m.add_slab_assign(&mut [], &[]);
        m.mul_add_slab_assign(&mut [], &[], &[]);
        mul_add2_lazy(&mut [], &mut [], &[], &[], &[]);
        m.fold_slab_assign(&mut []);
        m.scale_slab_assign(&mut [], 5);
        let mut out: [u64; 0] = [];
        m.mul_slab_into(&[], &[], &mut out);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        m().mul_add_slab_assign(&mut [0, 0], &[1], &[2, 3]);
    }
}
