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

use crate::lanes::{dispatch, reduce_once, Kernel};
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

struct MulAdd2Slab<'a> {
    m: &'a Modulus,
    acc0: &'a mut [u64],
    acc1: &'a mut [u64],
    a: &'a [u64],
    b0: &'a [u64],
    b1: &'a [u64],
}

impl Kernel for MulAdd2Slab<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (m, q) = (*self.m, self.m.value());
        let lanes = self.acc0.iter_mut().zip(self.acc1).zip(self.a);
        for (((c0, c1), &x), (&y0, &y1)) in lanes.zip(self.b0.iter().zip(self.b1)) {
            *c0 = reduce_once(*c0 + m.mul_lane(x, y0), q);
            *c1 = reduce_once(*c1 + m.mul_lane(x, y1), q);
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

    /// Two fused multiply-accumulates that share one operand:
    /// `acc0[i] += a[i]·b0[i]` and `acc1[i] += a[i]·b1[i]` (mod q) in one
    /// pass — the keyswitch inner product, where one extended digit limb
    /// meets both key limbs. Bit-identical to two
    /// [`Modulus::mul_add_slab_assign`] calls; it exists because `b0` and
    /// `b1` are key limbs read once from a key far larger than L2, and one
    /// loop over both keeps two memory streams in flight where two loops
    /// each wait on one (measured at SET-C, N = 2^14, a 60 MiB key: 128 µs
    /// for the two passes, 66 µs fused; 20 µs a pass on hot operands).
    ///
    /// # Panics
    ///
    /// Panics if the slab lengths differ.
    pub fn mul_add2_slab_assign(
        &self,
        acc0: &mut [u64],
        acc1: &mut [u64],
        a: &[u64],
        b0: &[u64],
        b1: &[u64],
    ) {
        let len = a.len();
        assert!([acc0.len(), acc1.len(), b0.len(), b1.len()] == [len; 4]);
        dispatch(MulAdd2Slab {
            m: self,
            acc0,
            acc1,
            a,
            b0,
            b1,
        });
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
    fn mul_add2_slab_matches_two_mul_adds() {
        let m = m();
        let len = SLAB_BLOCK + 9;
        let (a, b0, b1) = (
            slab(11, len, m.value()),
            slab(12, len, m.value()),
            slab(13, len, m.value()),
        );
        let (mut want0, mut want1) = (slab(14, len, m.value()), slab(15, len, m.value()));
        let (mut acc0, mut acc1) = (want0.clone(), want1.clone());
        m.mul_add_slab_assign(&mut want0, &a, &b0);
        m.mul_add_slab_assign(&mut want1, &a, &b1);
        m.mul_add2_slab_assign(&mut acc0, &mut acc1, &a, &b0, &b1);
        assert_eq!((acc0, acc1), (want0, want1));
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

                        let (mut acc0, mut acc1) = (c.clone(), b.clone());
                        run_at(
                            level,
                            MulAdd2Slab {
                                m: &m,
                                acc0: &mut acc0,
                                acc1: &mut acc1,
                                a: &a,
                                b0: &b,
                                b1: &c,
                            },
                        );
                        let want1: Vec<u64> = b
                            .iter()
                            .zip(a.iter().zip(&c))
                            .map(|(&x, (&y, &z))| m.add(x, m.mul(y, z)))
                            .collect();
                        assert_eq!((acc0, acc1), (want, want1), "{}", at("mul_add2"));

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

    #[test]
    fn empty_slabs_are_noops() {
        let m = m();
        m.mul_add_slab_assign(&mut [], &[], &[]);
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
