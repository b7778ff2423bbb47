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
//! - **Work items never share state.** A work item is one limb (NTT,
//!   pointwise, one *target* limb of a base conversion), so scheduling
//!   order cannot change results: the parallel path is **bit-identical** to
//!   the sequential one at every thread count, and `threads = 1` short-
//!   circuits to a plain loop with zero threading overhead.
//! - **The thread budget is explicit.** Callers pass a thread count and the
//!   fan-out never exceeds it, regardless of how many work items exist.
//!   The budget is chosen above this module (`warpdrive_core::ParScheduler`).

use crate::rns::{Domain, RnsPoly};
use wd_fault::{run_isolated, WdError};

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

/// Fallible, panic-isolating variant of [`for_each_mut`]: each work item
/// runs inside `wd_fault::run_isolated`, so a panicking item surfaces as
/// [`WdError::WorkerPanicked`] instead of unwinding across the scope and
/// aborting the caller. The first failure (in chunk order, so the choice is
/// deterministic) is returned; items in other chunks may or may not have
/// run — on `Err`, treat the slice contents as unspecified and rebuild from
/// the original inputs.
pub fn try_for_each_mut<T, F>(threads: usize, items: &mut [T], f: F) -> Result<(), WdError>
where
    T: Send,
    F: Fn(&mut T) -> Result<(), WdError> + Sync,
{
    let t = threads.clamp(1, items.len().max(1));
    if t <= 1 {
        for item in items.iter_mut() {
            run_isolated(|| f(item))?;
        }
        return Ok(());
    }
    let chunk = items.len().div_ceil(t);
    let mut first_err = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|ch| {
                let f = &f;
                scope.spawn(move || -> Result<(), WdError> {
                    for item in ch {
                        run_isolated(|| f(item))?;
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            let r = h
                .join()
                .unwrap_or_else(|_| Err(WdError::WorkerPanicked("worker thread died".into())));
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
    });
    first_err.map_or(Ok(()), Err)
}

/// Applies a residue-basis conversion to every coefficient of `src`
/// (coefficient domain), with the target limbs fanned out across threads.
///
/// Bit-identical to the sequential conversion: each target limb is written
/// by one work item from the (shared, read-only) source limbs.
///
/// # Panics
///
/// Panics if `src` is in the NTT domain.
pub fn convert_poly(
    conv: &wd_modmath::rns::BasisConverter,
    src: &RnsPoly,
    threads: usize,
) -> RnsPoly {
    try_convert_poly(conv, src, threads).expect("parallel base conversion")
}

/// Fallible variant of [`convert_poly`]: an NTT-domain input or one whose
/// limbs are not over the converter's from-basis comes back as
/// [`WdError::LevelMismatch`] and a panicking worker as
/// [`WdError::WorkerPanicked`]. The source is untouched on error, so a
/// retry can reuse it directly.
///
/// The conversion is limb-major: each target limb is one work item that
/// reads the source slabs and writes its own slab through
/// [`wd_modmath::rns::BasisConverter::convert_limb_into`] — no gather, no
/// scratch, no transpose.
pub fn try_convert_poly(
    conv: &wd_modmath::rns::BasisConverter,
    src: &RnsPoly,
    threads: usize,
) -> Result<RnsPoly, WdError> {
    if src.domain() != Domain::Coeff {
        return Err(WdError::LevelMismatch(
            "base conversion expects coefficient-domain input".into(),
        ));
    }
    let from = conv.from_basis().moduli();
    if src.limb_count() != from.len() || src.limbs().zip(from).any(|(p, m)| p.modulus() != m) {
        return Err(WdError::LevelMismatch(
            "source limbs do not match the converter's from-basis".into(),
        ));
    }
    let mut out = RnsPoly::zero(&conv.to_basis().values(), src.degree()).map_err(WdError::from)?;
    let slabs: Vec<&[u64]> = src.limbs().map(|p| p.coeffs()).collect();
    let mut work: Vec<(usize, &mut crate::Poly)> = out.limbs_mut().enumerate().collect();
    try_for_each_mut(threads, &mut work, |(i, limb)| {
        conv.convert_limb_into(&slabs, *i, limb.coeffs_mut());
        Ok(())
    })?;
    Ok(out)
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

    #[test]
    fn try_for_each_mut_isolates_panics_at_every_thread_count() {
        for t in [1, 2, 4] {
            let mut items: Vec<u64> = (0..16).collect();
            let r = try_for_each_mut(t, &mut items, |x| {
                if *x == 7 {
                    panic!("poisoned item {x}");
                }
                *x += 1;
                Ok(())
            });
            match r {
                Err(WdError::WorkerPanicked(msg)) => {
                    assert!(msg.contains("poisoned item 7"), "t = {t}: {msg}")
                }
                other => panic!("expected WorkerPanicked at t = {t}, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_convert_poly_rejects_ntt_domain_input() {
        let n = 32;
        let from = primes(n, 3);
        let to = generate_ntt_primes(27, 2 * n as u64, 4).unwrap();
        let conv = BasisConverter::new(
            RnsBasis::new(from.clone()).unwrap(),
            RnsBasis::new(to).unwrap(),
        )
        .unwrap();
        let mut src = poly_from_seed(&from, n, 5);
        let ok = try_convert_poly(&conv, &src, 2).unwrap();
        assert_eq!(ok, convert_poly(&conv, &src, 1));
        src.ntt_forward(&tables(&from, n));
        assert!(matches!(
            try_convert_poly(&conv, &src, 2),
            Err(WdError::LevelMismatch(_))
        ));
    }

    #[test]
    fn parallel_base_conversion_matches_sequential() {
        let n = 64;
        let from = primes(n, 3);
        let to = generate_ntt_primes(27, 2 * n as u64, 4).unwrap();
        let conv = BasisConverter::new(
            RnsBasis::new(from.clone()).unwrap(),
            RnsBasis::new(to).unwrap(),
        )
        .unwrap();
        let src = poly_from_seed(&from, n, 5);
        let seq = convert_poly(&conv, &src, 1);
        for t in [2, 3, 4, 16, 64] {
            assert_eq!(convert_poly(&conv, &src, t), seq, "t = {t}");
        }
    }
}
