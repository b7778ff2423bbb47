//! One warn-and-default parser for the workspace's environment variables.
//!
//! Two settings reach the code through the environment: the fault plan
//! (`WD_FAULT_SEED` / `WD_FAULT_RATE`, read by `wd_fault::FaultPlan::from_env`)
//! and the trace level ([`crate::TRACE_ENV`]). Everything else is
//! configured by value. The contract is the same for both: an unset
//! variable means the documented default, a well-formed value is used
//! as-is, and a malformed value **warns through [`crate::warn`] and keeps
//! the default** — never a panic, never a silent guess. It lives here
//! because this crate owns `warn` and sits below every other crate.

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

#[cfg(test)]
mod tests {
    use super::*;

    // Pure-function check only; the env-mutating contract test is
    // `warpdrive-core`'s `tests/env_config.rs` (its own process, one test
    // fn). Other unit tests warn on the same global tracer, so look at this
    // test's own site.
    #[test]
    fn unset_returns_default_without_warning() {
        const UNSET: &str = "WD_SURELY_UNSET_";
        assert_eq!(parse_or("env.test", UNSET, 7u64, |v| *v >= 1), 7);
        assert_eq!(parse_with("env.test", UNSET, 7u64, |_| Some(9)), 7);
        assert!(crate::snapshot()
            .warnings
            .iter()
            .all(|w| w.site != "env.test"));
    }
}
