//! Per-tenant circuit breakers: closed → open → half-open state machines
//! over recent request outcomes.
//!
//! A tenant whose requests keep failing or shedding (bad keys, hopeless
//! deadlines, a fault storm on its traffic) should not keep *queueing*
//! doomed work — every slot it burns is a slot another tenant's live
//! request waited for. The breaker watches a rolling window of outcomes
//! per tenant and, past a failure-rate threshold, **opens**: admission is
//! refused immediately with the typed
//! [`WdError::TenantCircuitOpen`](wd_fault::WdError::TenantCircuitOpen)
//! (carrying a `retry_after_us` hint) instead of a queue slot. After a
//! cooldown the breaker goes **half-open** and admits a bounded number of
//! probe requests: if they all succeed it closes and traffic resumes; one
//! probe failure re-opens it and restarts the cooldown.
//!
//! The state machine is pure — callers pass explicit microsecond
//! timestamps — so every transition is unit-testable without sleeping.
//! Locking and trace signals live in the tenant layer
//! ([`crate::tenant`]), which emits `serve.guard.breaker_{open,half_open,
//! closed}` counters and `serve.guard` events on every transition.
//!
//! Breakers are **off by default**: a tenant layer gets them only when its
//! [`crate::TenantConfig::breaker`] is `Some`, so single-tenant and
//! pre-breaker deployments see byte-identical behavior and counters.

use std::collections::VecDeque;
use std::time::Duration;

/// Where a tenant's breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes feed the rolling window.
    Closed,
    /// Admission refused until the cooldown elapses.
    Open,
    /// A bounded number of probes admitted; their outcomes decide.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (`closed` / `open` / `half_open`) used in
    /// trace events and the HEALTH wire frame.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Breaker tuning ([`BreakerConfig::default`]: a window of 16, trip at
/// 50 %, a 1 s cooldown, 2 probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Rolling window of most-recent outcomes consulted for tripping.
    /// The breaker never trips before the window is full, so a single
    /// early failure cannot open it.
    pub window: usize,
    /// Trip when `failures × 100 ≥ threshold_pct × window` over a full
    /// window.
    pub threshold_pct: u32,
    /// How long an open breaker refuses before probing.
    pub cooldown: Duration,
    /// Probes admitted half-open; all must succeed to close.
    pub probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 16,
            threshold_pct: 50,
            cooldown: Duration::from_millis(1000),
            probes: 2,
        }
    }
}

/// One tenant's breaker. Pure: both entry points take `now_us` explicitly
/// (microseconds on the server's epoch clock), so the whole lifecycle is
/// testable without wall-clock sleeps.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Most-recent outcomes, newest at the back (`true` = failure).
    window: VecDeque<bool>,
    /// When the breaker last opened (valid in `Open`).
    opened_at_us: u64,
    /// Probes admitted since going half-open.
    probes_issued: u32,
    /// Probe successes since going half-open.
    probes_ok: u32,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            window: VecDeque::with_capacity(config.window),
            opened_at_us: 0,
            probes_issued: 0,
            probes_ok: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Admission decision at `now_us`: `Ok(())` to admit, or
    /// `Err(retry_after_us)` — how long the client should wait before the
    /// breaker will next consider a probe.
    pub fn admit(&mut self, now_us: u64) -> Result<(), u64> {
        match self.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                let reopen_at = self.opened_at_us.saturating_add(cooldown_us(&self.config));
                if now_us < reopen_at {
                    return Err(reopen_at - now_us);
                }
                // Cooldown elapsed: go half-open and admit this request as
                // the first probe.
                self.state = BreakerState::HalfOpen;
                self.probes_issued = 1;
                self.probes_ok = 0;
                Ok(())
            }
            BreakerState::HalfOpen => {
                if self.probes_issued < self.config.probes {
                    self.probes_issued += 1;
                    Ok(())
                } else {
                    // Probe budget outstanding; try again after a cooldown.
                    Err(cooldown_us(&self.config))
                }
            }
        }
    }

    /// Records one admitted request's outcome at `now_us` (`ok = false`
    /// for an execution failure or an in-queue shed).
    pub fn record(&mut self, now_us: u64, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                if self.window.len() == self.config.window {
                    self.window.pop_front();
                }
                self.window.push_back(!ok);
                if self.window.len() == self.config.window {
                    let failures = self.window.iter().filter(|&&f| f).count();
                    if failures as u64 * 100
                        >= u64::from(self.config.threshold_pct) * self.config.window as u64
                    {
                        self.state = BreakerState::Open;
                        self.opened_at_us = now_us;
                        self.window.clear();
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.probes_ok += 1;
                    if self.probes_ok >= self.config.probes {
                        self.state = BreakerState::Closed;
                        self.window.clear();
                    }
                } else {
                    // One failed probe re-opens and restarts the cooldown.
                    self.state = BreakerState::Open;
                    self.opened_at_us = now_us;
                }
            }
            // A straggler outcome from before the trip: the window that
            // produced the trip is already cleared, nothing to learn.
            BreakerState::Open => {}
        }
    }
}

fn cooldown_us(config: &BreakerConfig) -> u64 {
    config.cooldown.as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            threshold_pct: 50,
            cooldown: Duration::from_micros(1_000),
            probes: 2,
        }
    }

    #[test]
    fn closed_admits_and_trips_only_on_a_full_window() {
        let mut b = CircuitBreaker::new(fast());
        // Three failures in a 4-window: not full yet, stays closed.
        for t in 0..3 {
            assert_eq!(b.admit(t), Ok(()));
            b.record(t, false);
            assert_eq!(b.state(), BreakerState::Closed, "window not full at {t}");
        }
        // Fourth outcome fills the window at 75% ≥ 50%: trips.
        assert_eq!(b.admit(3), Ok(()));
        b.record(3, true);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn below_threshold_windows_never_trip() {
        let mut b = CircuitBreaker::new(fast());
        // Alternating ok/fail = 50% in a window needing ≥50%… with
        // threshold 75 it must stay closed.
        let mut strict = CircuitBreaker::new(BreakerConfig {
            threshold_pct: 75,
            ..fast()
        });
        for t in 0..20 {
            assert!(strict.admit(t).is_ok());
            strict.record(t, t % 2 == 0);
            assert_eq!(strict.state(), BreakerState::Closed);
        }
        // And an all-ok stream obviously never trips the default.
        for t in 0..20 {
            assert!(b.admit(t).is_ok());
            b.record(t, true);
            assert_eq!(b.state(), BreakerState::Closed);
        }
    }

    #[test]
    fn open_refuses_with_retry_hint_until_cooldown() {
        let mut b = CircuitBreaker::new(fast());
        for t in 0..4 {
            b.admit(t).expect("closed admits");
            b.record(t, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Tripped at t=3; cooldown 1000 us.
        assert_eq!(b.admit(3), Err(1_000));
        assert_eq!(b.admit(500), Err(503));
        assert_eq!(b.admit(1_002), Err(1));
        // Cooldown elapsed: half-open, this admission is probe #1.
        assert_eq!(b.admit(1_003), Ok(()));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_budget_then_close_on_all_probes_ok() {
        let mut b = CircuitBreaker::new(fast());
        for t in 0..4 {
            b.admit(t).expect("closed admits");
            b.record(t, false);
        }
        assert!(b.admit(2_000).is_ok()); // probe 1
        assert!(b.admit(2_001).is_ok()); // probe 2 (budget = 2)
        assert_eq!(b.admit(2_002), Err(1_000), "budget outstanding");
        b.record(2_010, true);
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe is not enough");
        b.record(2_011, true);
        assert_eq!(b.state(), BreakerState::Closed, "all probes ok closes");
        // The window restarts clean: one failure does not re-trip.
        b.admit(2_012).expect("closed again");
        b.record(2_012, false);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn one_failed_probe_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(fast());
        for t in 0..4 {
            b.admit(t).expect("closed admits");
            b.record(t, false);
        }
        assert!(b.admit(2_000).is_ok()); // probe
        b.record(2_500, false);
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown restarted from the failed probe, not the original trip.
        assert_eq!(b.admit(2_500), Err(1_000));
        assert!(b.admit(3_500).is_ok());
    }

    #[test]
    fn straggler_outcomes_while_open_are_ignored() {
        let mut b = CircuitBreaker::new(fast());
        for t in 0..4 {
            b.admit(t).expect("closed admits");
            b.record(t, false);
        }
        let opened = b.clone();
        b.record(10, true); // a pre-trip request finishing late
        assert_eq!(b.state(), opened.state());
        assert_eq!(b.admit(100), opened.clone().admit(100));
    }

    #[test]
    fn state_labels_are_stable() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half_open");
    }
}
