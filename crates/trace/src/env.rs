//! One warn-and-default parser for every `WD_*` knob.
//!
//! The configuration contract is uniform across the workspace: an unset
//! variable means the documented default, a well-formed value is used
//! as-is, and a malformed value **warns through [`crate::warn`] and keeps
//! the default** — never a panic, never a silent guess. Scheduler, placer,
//! fault plan and serving layer all route through [`parse_with`]; it lives
//! here because this crate owns `warn` and sits below every other crate.

use std::fmt::Debug;
use std::str::FromStr;

/// Reads `name` from the environment. Unset → `default`. A value `parse`
/// accepts (it sees the trimmed text) → that value. Anything else → a
/// [`crate::warn`] at `site` naming the variable, the rejected value and
/// the kept default.
pub fn parse_with<T: Debug>(
    site: &str,
    name: &str,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    parse(raw.trim()).unwrap_or_else(|| {
        crate::warn(
            site,
            &format!("malformed {name}={raw:?}; keeping default {default:?}"),
        );
        default
    })
}

/// [`parse_with`] for `FromStr` values that must also satisfy `accept`.
pub fn parse_or<T>(site: &str, name: &str, default: T, accept: impl Fn(&T) -> bool) -> T
where
    T: FromStr + Debug,
{
    parse_with(site, name, default, |s| s.parse().ok().filter(&accept))
}

/// [`parse_or`] with a lower bound — the common "integer knob ≥ min" case.
pub fn parse_min<T>(site: &str, name: &str, default: T, min: T) -> T
where
    T: FromStr + Debug + PartialOrd,
{
    parse_or(site, name, default, |v| *v >= min)
}

/// [`parse_or`] with both bounds: rejects zero/underflow *and* the absurd
/// overflow values (`WD_SERVE_WORKERS=999999999` is a typo, not a fleet) —
/// either way warn-and-default, never a silent clamp.
pub fn parse_range<T>(site: &str, name: &str, default: T, min: T, max: T) -> T
where
    T: FromStr + Debug + PartialOrd,
{
    parse_or(site, name, default, |v| *v >= min && *v <= max)
}

/// Whether `name` is set at all (for knobs whose *presence* changes
/// behavior, like `WD_SERVE_AGE_US`, or whose unset default differs from
/// the malformed fallback, like `WD_THREADS`).
pub fn is_set(name: &str) -> bool {
    std::env::var(name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pure-function check only; the env-mutating contract tests are the
    // `env_config` integration tests of the crates that own the knobs
    // (their own process, one test fn each). Other unit tests warn on the
    // same global tracer, so look at this test's own site.
    #[test]
    fn unset_returns_default_without_warning() {
        assert_eq!(parse_min("env.test", "WD_SURELY_UNSET_", 7u64, 1), 7);
        assert!(!is_set("WD_SURELY_UNSET_"));
        assert!(crate::snapshot()
            .warnings
            .iter()
            .all(|w| w.site != "env.test"));
    }
}
