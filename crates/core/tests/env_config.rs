//! The one setting an executor takes from the environment: the fault plan
//! `BatchExecutor::new` reads from `WD_FAULT_SEED` / `WD_FAULT_RATE`.
//!
//! Lives in its own integration-test binary (hence its own process) because
//! it mutates both variables; everything runs inside ONE test function so
//! no parallel test observes a half-set environment.

use warpdrive_core::{BatchExecutor, FaultPlan, FAULT_RATE_ENV, FAULT_SEED_ENV};

/// The plan a fresh executor picks up, and the `fault.*` warnings building
/// it emitted. Warnings go through wd-trace (recorded at every level,
/// `WD_TRACE=off` included), so they can be asserted instead of trusting
/// stderr.
fn plan_and_warnings() -> (FaultPlan, Vec<wd_trace::Warning>) {
    wd_trace::take_warnings();
    let plan = BatchExecutor::new(1).fault_plan();
    let warnings = wd_trace::take_warnings()
        .into_iter()
        .filter(|w| w.site.starts_with("fault."))
        .collect();
    (plan, warnings)
}

#[test]
fn fault_plan_env_accepts_valid_rejects_malformed_seed_and_rate() {
    // Unset: injection disabled, silently.
    std::env::remove_var(FAULT_SEED_ENV);
    std::env::remove_var(FAULT_RATE_ENV);
    let (plan, warnings) = plan_and_warnings();
    assert_eq!(plan, FaultPlan::disabled());
    assert!(warnings.is_empty(), "unset env must not warn: {warnings:?}");

    // Well-formed: used as given, no warning.
    std::env::set_var(FAULT_RATE_ENV, "0.25");
    std::env::set_var(FAULT_SEED_ENV, "7");
    let (plan, warnings) = plan_and_warnings();
    assert_eq!((plan.seed(), plan.rate()), (7, 0.25));
    assert!(warnings.is_empty(), "valid env must not warn: {warnings:?}");

    // A malformed or out-of-range value warns at its own site, naming the
    // variable and the value, and injection stays off.
    let cases = [
        (FAULT_RATE_ENV, "x", "fault.rate"),
        (FAULT_RATE_ENV, "1.5", "fault.rate"),
        (FAULT_RATE_ENV, "-0.1", "fault.rate"),
        (FAULT_SEED_ENV, "-1", "fault.seed"),
        (FAULT_SEED_ENV, "abc", "fault.seed"),
    ];
    for (var, bad, site) in cases {
        std::env::remove_var(FAULT_SEED_ENV);
        std::env::remove_var(FAULT_RATE_ENV);
        std::env::set_var(var, bad);
        let (plan, warnings) = plan_and_warnings();
        assert_eq!(plan, FaultPlan::disabled(), "{var}={bad:?}");
        assert!(
            warnings
                .iter()
                .any(|w| w.site == site && w.message.contains(var) && w.message.contains(bad)),
            "{var}={bad:?} must emit a {site} warning, got {warnings:?}"
        );
    }

    std::env::remove_var(FAULT_SEED_ENV);
    std::env::remove_var(FAULT_RATE_ENV);
}
