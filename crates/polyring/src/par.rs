//! Host-thread parallel execution of limb- and batch-level work.
//!
//! WarpDrive's PE (parallelism-enhanced) kernels take a *whole ciphertext* —
//! every polynomial × every RNS limb — per launch instead of one launch per
//! polynomial (paper §III-C, Table IX), because the limb dimension is
//! embarrassingly parallel: each residue limb lives in its own ring Z_q.
//! This module is the host-side analogue: the same limb × polynomial work
//! items a PE kernel grids over are fanned out across OS threads.
//!
//! Two invariants mirror the GPU design:
//!
//! - **Work items never share state.** A work item is one limb (an NTT,
//!   one *target* limb of a base conversion) or one batch op, so scheduling
//!   order cannot change results: the parallel path is **bit-identical** to
//!   the sequential one at every thread count, and `threads = 1` short-
//!   circuits to a plain loop with zero threading overhead.
//! - **The thread budget is explicit.** Callers pass a thread count and the
//!   fan-out never exceeds it, regardless of how many work items exist.
//!   The budget is chosen above this module (`warpdrive_core::ParScheduler`).

use crate::rns::{Domain, RnsPoly};

/// The machine's available parallelism (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item, fanning the items out over at most `threads`
/// scoped worker threads. With `threads <= 1` (or one item) this is exactly
/// a sequential `for` loop.
pub fn for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let t = threads.clamp(1, items.len().max(1));
    if t <= 1 {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(t);
    std::thread::scope(|scope| {
        for ch in items.chunks_mut(chunk) {
            scope.spawn(|| {
                for item in ch {
                    f(item);
                }
            });
        }
    });
}

/// Computes `f(0), f(1), …, f(n-1)` in parallel (at most `threads` workers)
/// and returns the results **in index order** — scheduling never reorders
/// output, which is what keeps batch APIs deterministic.
pub fn map_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let t = threads.clamp(1, n.max(1));
    if t <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(t);
    std::thread::scope(|scope| {
        for (c, ch) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = c * chunk;
                for (k, slot) in ch.iter_mut().enumerate() {
                    *slot = Some(f(base + k));
                }
            });
        }
    });
    out.into_iter()
        .map(|s| s.expect("every index filled"))
        .collect()
}

/// Applies a residue-basis conversion to every coefficient of `src`
/// (coefficient domain), with the target limbs fanned out across threads.
///
/// Bit-identical to the sequential conversion: each target limb is one
/// work item that reads the (shared, read-only) source slabs and writes its
/// own slab through
/// [`wd_modmath::rns::BasisConverter::convert_limb_into`] — no gather, no
/// scratch, no transpose.
///
/// # Panics
///
/// Panics if `src` is in the NTT domain, or if its limbs are not over the
/// converter's from-basis.
pub fn convert_poly(
    conv: &wd_modmath::rns::BasisConverter,
    src: &RnsPoly,
    threads: usize,
) -> RnsPoly {
    assert_eq!(
        src.domain(),
        Domain::Coeff,
        "base conversion expects coefficient-domain input"
    );
    let from = conv.from_basis().moduli();
    assert!(
        src.limb_count() == from.len() && src.limbs().zip(from).all(|(p, m)| p.modulus() == m),
        "source limbs do not match the converter's from-basis"
    );
    let mut out = RnsPoly::zero(&conv.to_basis().values(), src.degree())
        .expect("the converter's to-basis is a valid ring");
    let slabs: Vec<&[u64]> = src.limbs().map(|p| p.coeffs()).collect();
    let mut work: Vec<(usize, &mut crate::Poly)> = out.limbs_mut().enumerate().collect();
    for_each_mut(threads, &mut work, |(i, limb)| {
        conv.convert_limb_into(&slabs, *i, limb.coeffs_mut());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttTable;
    use std::sync::Arc;
    use wd_modmath::prime::generate_ntt_primes;
    use wd_modmath::rns::{BasisConverter, RnsBasis};

    fn primes(n: usize, count: usize) -> Vec<u64> {
        generate_ntt_primes(26, 2 * n as u64, count).unwrap()
    }

    fn tables(primes: &[u64], n: usize) -> Vec<Arc<NttTable>> {
        primes
            .iter()
            .map(|&q| Arc::new(NttTable::new(q, n).unwrap()))
            .collect()
    }

    fn poly_from_seed(ps: &[u64], n: usize, seed: i64) -> RnsPoly {
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i * 31 + seed * 7 - 11).collect();
        RnsPoly::from_signed(ps, &coeffs).unwrap()
    }

    #[test]
    fn map_indexed_preserves_order_at_any_thread_count() {
        for t in [1, 2, 3, 8, 64] {
            let out = map_indexed(t, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "t = {t}");
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
        assert!(available_threads() >= 1);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        for t in [1, 3, 5, 16] {
            let mut items: Vec<u64> = (0..23).collect();
            for_each_mut(t, &mut items, |x| *x += 1000);
            assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 1000));
        }
    }

    fn converter(n: usize) -> (Vec<u64>, BasisConverter) {
        let from = primes(n, 3);
        let to = generate_ntt_primes(27, 2 * n as u64, 4).unwrap();
        let conv = BasisConverter::new(
            RnsBasis::new(from.clone()).unwrap(),
            RnsBasis::new(to).unwrap(),
        )
        .unwrap();
        (from, conv)
    }

    #[test]
    #[should_panic(expected = "coefficient-domain input")]
    fn convert_poly_rejects_ntt_domain_input() {
        let n = 32;
        let (from, conv) = converter(n);
        let mut src = poly_from_seed(&from, n, 5);
        src.ntt_forward(&tables(&from, n));
        convert_poly(&conv, &src, 2);
    }

    #[test]
    #[should_panic(expected = "converter's from-basis")]
    fn convert_poly_rejects_foreign_basis_input() {
        let n = 32;
        let (_, conv) = converter(n);
        let foreign = generate_ntt_primes(28, 2 * n as u64, 3).unwrap();
        convert_poly(&conv, &poly_from_seed(&foreign, n, 5), 2);
    }

    #[test]
    fn parallel_base_conversion_matches_sequential() {
        let n = 64;
        let (from, conv) = converter(n);
        let src = poly_from_seed(&from, n, 5);
        let seq = convert_poly(&conv, &src, 1);
        for t in [2, 3, 4, 16, 64] {
            assert_eq!(convert_poly(&conv, &src, t), seq, "t = {t}");
        }
    }
}
