//! Pins the number of host limb transforms one keyswitch performs.
//!
//! `RnsPoly::ntt_{forward,inverse}_with` add their limb count to the
//! `polyring.ntt_limb_transforms` trace counter, so the count is read from
//! the code that runs, not computed from parameters. At K = 1 (α = 1,
//! dnum = l + 1) a keyswitch at level l is
//!
//! - `l + 1`: the INTT of the input,
//! - `dnum · (l + 2)`: the NTT of each digit's full-basis extension,
//! - `2 · (2l + 3)`: ModDown of both accumulators (INTT over the full
//!   basis, NTT of the result over Q),
//!
//! and a hoisted keyswitch on a kept decomposition is the ModDown part only.
//! A change that skips a transform whose answer is already in hand (ROADMAP
//! direction 1(b)) changes these numbers on purpose, here.
//!
//! One test function on purpose: this binary owns its process, so mutating
//! the process-global tracer level cannot race other tests.

use wd_ckks::keyswitch::{keyswitch, keyswitch_hoisted, HoistedDecomposition};
use wd_ckks::{CkksContext, CkksError, ParamSet};

const COUNTER: &str = "polyring.ntt_limb_transforms";

/// Limb transforms counted while `f` runs.
fn transforms_during<T>(f: impl FnOnce() -> Result<T, CkksError>) -> Result<u64, CkksError> {
    wd_trace::reset();
    f()?;
    Ok(wd_trace::snapshot().counter(COUNTER))
}

#[test]
fn keyswitch_transform_count_matches_the_formula() -> Result<(), CkksError> {
    wd_trace::set_level(wd_trace::TraceLevel::Summary);
    // The SET-B and SET-C chains (Table VI, K = 1) on a shrunken ring.
    for (set, top, at_top) in [
        (ParamSet::set_b(), 6u64, 93u64),
        (ParamSet::set_c(), 14, 317),
    ] {
        let ctx = CkksContext::with_seed(set.with_degree(1 << 6).build()?, 5)?;
        assert_eq!(ctx.params().special_count(), 1);
        assert_eq!(ctx.params().max_level() as u64, top);
        let kp = ctx.keygen();
        for l in [top, top / 2, 0] {
            let slots = [wd_ckks::encoding::C64::new(1.5, -0.5)];
            let d = ctx
                .encode_complex_at(&slots, l as usize, ctx.params().scale())?
                .poly;
            let mod_down_both = 2 * (2 * l + 3);
            let full = (l + 1) + (l + 1) * (l + 2) + mod_down_both;
            if l == top {
                assert_eq!(full, at_top);
            }
            assert_eq!(
                transforms_during(|| keyswitch(&ctx, &d, &kp.relin))?,
                full,
                "keyswitch at level {l} of {top}"
            );
            let hoisted = HoistedDecomposition::new(&ctx, &d)?;
            assert_eq!(
                transforms_during(|| keyswitch_hoisted(&ctx, &hoisted, 5, &kp.relin))?,
                mod_down_both,
                "hoisted keyswitch at level {l} of {top}"
            );
        }
    }
    wd_trace::set_level(wd_trace::TraceLevel::Off);
    Ok(())
}
