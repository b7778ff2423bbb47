//! Host scratch-arena sizing, after the §IV-D-1 pool rule.
//!
//! The paper sizes its device pool as `min(S_max, available)` with
//! `S_max = l·N·dnum·(l+k)·BS·w` — the worst-case working set of a batch
//! mid-Keyswitch. The host hot path has the same shape in miniature: each
//! worker thread runs one operation at a time, and that operation's live
//! scratch is a handful of full-basis polynomials (the INTT'd input, the
//! reused ModUp extension buffer, two InnerProduct accumulators, and
//! ModDown's base-conversion temporary).
//! This module prices that working set exactly and turns it into per-worker
//! [`ScratchArena`] capacities, so a worker parks every buffer it will ever
//! need and steady-state heap allocation drops to zero — without any worker
//! hoarding memory it cannot use.
//!
//! **Per-worker ownership rule:** each arena belongs to exactly one worker
//! thread ([`wd_polyring::scratch::with_worker_arena`]); arenas are never
//! shared across concurrently-running slots. [`crate::BatchExecutor`] keeps
//! one [`worker_arena`] per op-level slot for exactly that reason.

use std::sync::Arc;
use wd_ckks::params::CkksParams;
use wd_fault::WdError;
use wd_polyring::scratch::ScratchArena;

/// Number of full-basis polynomial buffers live at the peak of a pooled
/// keyswitch: the ModUp extension buffer, both InnerProduct accumulators,
/// and (conservatively, counted at full-basis width) the INTT'd input and
/// the ModDown conversion temporary — which actually span only the q-limbs.
const KEYSWITCH_LIVE_POLYS: u64 = 5;

/// Host word size: limb coefficients are `u64`.
const HOST_WORD: u64 = 8;

/// Slack factor numerator/denominator (25% headroom): distinct lease sizes
/// at different levels park side by side until steady state is reached.
const SLACK_NUM: u64 = 5;
const SLACK_DEN: u64 = 4;

/// Bytes of scratch one pooled keyswitch holds live at its peak for these
/// parameters: `5 × (l+1+k) × N × 8`, plus headroom for the smaller
/// per-level lease sizes that accumulate as a long-lived worker serves
/// requests at different levels.
///
/// # Errors
///
/// Returns [`WdError::InvalidParams`] on a degenerate ring (N = 0) or a
/// working set that overflows `u64`.
pub fn op_scratch_bytes(params: &CkksParams) -> Result<u64, WdError> {
    let n = params.degree() as u64;
    if n == 0 {
        return Err(WdError::InvalidParams("arena sizing: N = 0".into()));
    }
    let full = (params.max_level() + 1 + params.special_count()) as u64;
    let live = KEYSWITCH_LIVE_POLYS
        .checked_mul(full)
        .and_then(|v| v.checked_mul(n))
        .and_then(|v| v.checked_mul(HOST_WORD))
        .ok_or_else(|| WdError::InvalidParams("arena sizing: working set overflows u64".into()))?;
    live.checked_mul(SLACK_NUM)
        .map(|v| v / SLACK_DEN)
        .ok_or_else(|| WdError::InvalidParams("arena sizing: working set overflows u64".into()))
}

/// A scratch arena sized for one worker running ops over `params`, capped
/// at `available` bytes. The cap bounds **parked** bytes only (see
/// [`ScratchArena`]): a worker that momentarily needs more simply falls
/// back to plain heap allocation for the overflow.
///
/// # Errors
///
/// Propagates [`op_scratch_bytes`] validation errors.
pub fn worker_arena(params: &CkksParams, available: u64) -> Result<Arc<ScratchArena>, WdError> {
    Ok(ScratchArena::with_capacity(
        op_scratch_bytes(params)?.min(available),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ckks::params::ParamSet;

    fn params() -> CkksParams {
        ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("set_a params")
    }

    #[test]
    fn op_scratch_matches_working_set_formula() {
        let p = params();
        let full = (p.max_level() + 1 + p.special_count()) as u64;
        let expect = 5 * full * (p.degree() as u64) * 8 * 5 / 4;
        assert_eq!(op_scratch_bytes(&p).expect("sizing"), expect);
    }

    #[test]
    fn worker_arena_clamps_to_available() -> Result<(), WdError> {
        let p = params();
        let unclamped = worker_arena(&p, u64::MAX)?;
        assert_eq!(unclamped.capacity_bytes(), op_scratch_bytes(&p)?);
        let clamped = worker_arena(&p, 1024)?;
        assert_eq!(clamped.capacity_bytes(), 1024);
        Ok(())
    }

    /// The sized arena really covers a keyswitch: run one inside the arena
    /// and confirm nothing fell back to the heap once warm.
    #[test]
    fn sized_arena_covers_a_keyswitch_steady_state() -> Result<(), WdError> {
        let p = ParamSet::set_a().with_degree(1 << 6).build()?;
        let ctx = wd_ckks::CkksContext::with_seed(p, 99)?;
        let kp = ctx.keygen();
        let arena = worker_arena(ctx.params(), u64::MAX)?;
        let d = ctx.encode(&[1.0, -2.0, 3.0])?.poly;
        let (warm, after) = wd_polyring::scratch::with_worker_arena(&arena, || {
            // Warm-up populates the shelves; afterwards no lease misses.
            wd_ckks::keyswitch::keyswitch(&ctx, &d, &kp.relin)?;
            let warm = arena.stats();
            for _ in 0..3 {
                wd_ckks::keyswitch::keyswitch(&ctx, &d, &kp.relin)?;
            }
            Ok::<_, WdError>((warm, arena.stats()))
        })?;
        assert_eq!(
            after.heap_allocs(),
            warm.heap_allocs(),
            "steady-state keyswitch must lease everything from the arena"
        );
        assert!(after.reuses > warm.reuses, "shelves must actually be hit");
        Ok(())
    }
}
