//! Contiguous-slab modular arithmetic (the host-side "planar limb" kernels).
//!
//! An RNS limb is one contiguous `[u64]` slab. The hot host paths —
//! keyswitch inner-product accumulation, ModDown, rescale — spend their time
//! in elementwise loops over such slabs. These helpers run those loops
//! *in place and cache-blocked*: each block of [`SLAB_BLOCK`] elements is
//! loaded once, combined, and stored once, so a fused
//! multiply-accumulate makes a single pass where the naive
//! `pointwise` + `add` composition made two passes plus a temporary
//! allocation. The loop bodies are branch-free per element (Barrett mul,
//! add/sub with conditional correction), which the compiler can unroll and
//! autovectorize.
//!
//! Every helper is bit-identical to composing the scalar [`Modulus`]
//! operations element by element — the tests pin that equivalence.

use crate::Modulus;

/// Elements per cache block: 1024 × 8 B = 8 KiB per operand, so a fused
/// three-operand loop works on 24 KiB — comfortably inside a 32 KiB L1.
pub const SLAB_BLOCK: usize = 1024;

impl Modulus {
    /// `out[i] = a[i] * b[i] mod q` over whole slabs.
    ///
    /// # Panics
    ///
    /// Panics if the slab lengths differ.
    pub fn mul_slab_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), out.len());
        for ((oc, ac), bc) in out
            .chunks_mut(SLAB_BLOCK)
            .zip(a.chunks(SLAB_BLOCK))
            .zip(b.chunks(SLAB_BLOCK))
        {
            for ((o, &x), &y) in oc.iter_mut().zip(ac).zip(bc) {
                *o = self.mul(x, y);
            }
        }
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
        for ((cc, ac), bc) in acc
            .chunks_mut(SLAB_BLOCK)
            .zip(a.chunks(SLAB_BLOCK))
            .zip(b.chunks(SLAB_BLOCK))
        {
            for ((c, &x), &y) in cc.iter_mut().zip(ac).zip(bc) {
                *c = self.add(*c, self.mul(x, y));
            }
        }
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
        for ((((c0, c1), &x), &y0), &y1) in acc0.iter_mut().zip(acc1).zip(a).zip(b0).zip(b1) {
            *c0 = self.add(*c0, self.mul(x, y0));
            *c1 = self.add(*c1, self.mul(x, y1));
        }
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
        let q = self.value();
        let w_shoup = self.shoup(w);
        for (ac, bc) in a.chunks_mut(SLAB_BLOCK).zip(b.chunks(SLAB_BLOCK)) {
            for (x, &y) in ac.iter_mut().zip(bc) {
                // The lazy product takes the unreduced difference in (0, 2q)
                // and lands in [0, 2q): one correction for both steps, and
                // no data-dependent branch (the operands are uniform, so a
                // compare-and-branch subtraction mispredicts half the time).
                let r = self.mul_shoup_lazy(y + q - *x, w, w_shoup);
                let over = r.wrapping_sub(q);
                *x = over.wrapping_add(q & 0u64.wrapping_sub(over >> 63));
            }
        }
    }

    /// In-place scaling by a loop-invariant scalar via Shoup multiplication:
    /// the Shoup constant is computed once per slab, so the per-element work
    /// is one high-half multiply and one correction — cheaper than Barrett
    /// when one operand repeats (exactly the ModDown / rescale shape).
    pub fn scale_slab_assign(&self, a: &mut [u64], w: u64) {
        debug_assert!(w < self.value());
        let w_shoup = self.shoup(w);
        for block in a.chunks_mut(SLAB_BLOCK) {
            for x in block.iter_mut() {
                *x = self.mul_shoup(*x, w, w_shoup);
            }
        }
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
