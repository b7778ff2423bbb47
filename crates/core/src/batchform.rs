//! Dynamic batch formation: the pure decision core of the serving layer.
//!
//! WarpDrive's PE kernels only pay off when many ciphertext operations are
//! coalesced into one launch (§III-C, Table IX) — which means an FHE
//! *server* lives or dies by how it groups an asynchronous request stream
//! into batches. This module is that grouping policy, factored out of
//! `wd-serve` so it is reusable (any batching front-end — the serving
//! subsystem, a test harness, a simulator) and exhaustively testable: every
//! function is a pure map from `(now, pending set)` to a decision, with no
//! clock, no threads, and no I/O. In `wd-serve` each free worker is the
//! driver: it feeds the policy real timestamps under the inbox lock and
//! runs the batch the policy forms.
//!
//! The policy implements four flush triggers — idle / size / linger / drain
//! — plus two server-grade refinements:
//!
//! - **Size trigger**: flush as soon as [`FormPolicy::max_batch`] requests
//!   are waiting — the batch the hardware wants.
//! - **Drain trigger**: on shutdown, flush everything pending at once.
//! - **Idle trigger**: when the caller reports an idle executor, flush
//!   everything pending at once. Waiting for a fuller batch only pays while
//!   the executor is busy anyway; with nothing running, a linger is pure
//!   latency. This keeps batch formation work-conserving.
//! - **Linger trigger**: flush when the oldest request has waited
//!   [`FormPolicy::linger`] — bounds the latency cost of waiting for a
//!   fuller batch while the executor is busy.
//! - **Deadline shedding**: a request whose deadline passes while queued is
//!   dropped *before* consuming compute ([`FormPolicy::shed`]); under
//!   overload, work that can no longer meet its SLO must not steal cycles
//!   from work that still can.
//! - **Priority with aging**: interactive requests are taken before bulk
//!   ones, but a bulk request older than [`FormPolicy::age_promote`] is
//!   treated as interactive — a deterministic starvation-freedom guarantee
//!   (every request is eventually at the head of the order).
//!
//! Shedding runs first; then the triggers take precedence size > drain >
//! idle > linger.

use std::time::Duration;

/// Request priority class, in serving order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Class {
    /// Latency-sensitive traffic (served first).
    #[default]
    Interactive,
    /// Throughput traffic (served when no un-aged interactive work waits).
    Bulk,
}

/// What the batch former needs to know about one queued request — metadata
/// only, never ciphertext data. Times are microseconds on the caller's
/// monotonic epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Admission sequence number (unique, monotonically increasing).
    pub seq: u64,
    /// Priority class.
    pub class: Class,
    /// When the request was admitted, µs since the epoch.
    pub enqueued_us: u64,
    /// Absolute shedding deadline, µs since the epoch (`None` = no SLO).
    pub deadline_us: Option<u64>,
}

impl Pending {
    /// Whether this request's deadline has passed at `now_us` (a request
    /// with `deadline_us == enqueued_us` is *always* expired — "deadline
    /// zero" is the deterministic shed-everything spelling).
    pub fn expired(&self, now_us: u64) -> bool {
        self.deadline_us.is_some_and(|d| now_us >= d)
    }

    /// The class this request is served at: bulk requests older than
    /// `age_promote` count as interactive (starvation-free aging).
    pub fn effective_class(&self, now_us: u64, age_promote: Duration) -> Class {
        match self.class {
            Class::Interactive => Class::Interactive,
            Class::Bulk => {
                let waited = now_us.saturating_sub(self.enqueued_us);
                if u128::from(waited) >= age_promote.as_micros() {
                    Class::Interactive
                } else {
                    Class::Bulk
                }
            }
        }
    }
}

/// Why a batch was flushed — carried into the `serve.batch` trace event and
/// the per-response metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// `max_batch` requests were waiting.
    Size,
    /// The oldest request hit the linger bound.
    Linger,
    /// The server is draining (shutdown flushes everything immediately).
    Drain,
    /// An executor was idle, so waiting for a fuller batch bought nothing.
    Idle,
}

impl FlushTrigger {
    /// Stable lowercase label (trace events, reports).
    pub fn label(self) -> &'static str {
        match self {
            FlushTrigger::Size => "size",
            FlushTrigger::Linger => "linger",
            FlushTrigger::Drain => "drain",
            FlushTrigger::Idle => "idle",
        }
    }
}

/// The batch former's verdict for one `(now, pending)` snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Form a batch now from the pending requests at these indices (in
    /// serving order — priority first, then FIFO).
    Flush {
        /// Indices into the pending slice passed to [`FormPolicy::decide`].
        take: Vec<usize>,
        /// Which trigger fired.
        trigger: FlushTrigger,
    },
    /// Nothing to flush yet.
    Wait {
        /// The next µs timestamp at which a trigger or deadline can fire
        /// (`None` = nothing pending; sleep until new work arrives).
        wake_us: Option<u64>,
    },
}

/// The batch-formation policy (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormPolicy {
    /// Flush as soon as this many requests wait (≥ 1).
    pub max_batch: usize,
    /// Flush once the oldest pending request has waited this long.
    pub linger: Duration,
    /// Bulk requests waiting at least this long are served as interactive.
    pub age_promote: Duration,
}

impl FormPolicy {
    /// A policy with the given size/linger triggers and the default aging
    /// bound (8 × linger, min 1 ms).
    pub fn new(max_batch: usize, linger: Duration) -> Self {
        Self {
            max_batch: max_batch.max(1),
            linger,
            age_promote: (linger * 8).max(Duration::from_millis(1)),
        }
    }

    /// Overrides the aging bound.
    #[must_use]
    pub fn with_age_promote(mut self, age_promote: Duration) -> Self {
        self.age_promote = age_promote;
        self
    }

    /// Indices of requests whose deadline has passed at `now_us`, in input
    /// order. The caller must complete these with
    /// `WdError::DeadlineExceeded` and remove them before calling
    /// [`FormPolicy::decide`].
    pub fn shed(&self, now_us: u64, pending: &[Pending]) -> Vec<usize> {
        (0..pending.len())
            .filter(|&i| pending[i].expired(now_us))
            .collect()
    }

    /// Serving order over `pending`: effective class (aged bulk counts as
    /// interactive), then admission time, then sequence number. Pure and
    /// total — ties cannot survive the unique `seq`.
    pub fn order(&self, now_us: u64, pending: &[Pending]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..pending.len()).collect();
        idx.sort_by_key(|&i| {
            let p = &pending[i];
            (
                p.effective_class(now_us, self.age_promote),
                p.enqueued_us,
                p.seq,
            )
        });
        idx
    }

    /// The flush/wait decision for one snapshot. `draining` is the
    /// shutdown flag: when set, everything pending is flushed immediately
    /// (in `max_batch` chunks — the caller loops) so a drain loses nothing
    /// and still batches. `idle` says an executor is waiting for work: when
    /// set, everything pending is flushed now instead of lingering.
    pub fn decide(&self, now_us: u64, pending: &[Pending], draining: bool, idle: bool) -> Decision {
        if pending.is_empty() {
            return Decision::Wait { wake_us: None };
        }
        let take = |n: usize| -> Vec<usize> {
            let mut order = self.order(now_us, pending);
            order.truncate(n);
            order
        };
        if pending.len() >= self.max_batch {
            return Decision::Flush {
                take: take(self.max_batch),
                trigger: FlushTrigger::Size,
            };
        }
        if draining {
            return Decision::Flush {
                take: take(pending.len()),
                trigger: FlushTrigger::Drain,
            };
        }
        if idle {
            return Decision::Flush {
                take: take(pending.len()),
                trigger: FlushTrigger::Idle,
            };
        }
        let linger_us = self.linger.as_micros().min(u128::from(u64::MAX)) as u64;
        let oldest = pending.iter().map(|p| p.enqueued_us).min().unwrap_or(0);
        if now_us.saturating_sub(oldest) >= linger_us {
            return Decision::Flush {
                take: take(pending.len()),
                trigger: FlushTrigger::Linger,
            };
        }
        // Wake at the earliest linger expiry or deadline among the pending
        // set, whichever comes first.
        let linger_wake = oldest.saturating_add(linger_us);
        let deadline_wake = pending.iter().filter_map(|p| p.deadline_us).min();
        Decision::Wait {
            wake_us: Some(deadline_wake.map_or(linger_wake, |d| d.min(linger_wake))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(seq: u64, class: Class, enq: u64, deadline: Option<u64>) -> Pending {
        Pending {
            seq,
            class,
            enqueued_us: enq,
            deadline_us: deadline,
        }
    }

    fn policy() -> FormPolicy {
        FormPolicy::new(4, Duration::from_micros(2_000))
    }

    #[test]
    fn empty_queue_waits_indefinitely() {
        assert_eq!(
            policy().decide(123, &[], false, false),
            Decision::Wait { wake_us: None }
        );
    }

    #[test]
    fn size_trigger_takes_exactly_max_batch() {
        let pending: Vec<Pending> = (0..6)
            .map(|i| p(i, Class::Interactive, 100 + i, None))
            .collect();
        match policy().decide(150, &pending, false, false) {
            Decision::Flush { take, trigger } => {
                assert_eq!(trigger, FlushTrigger::Size);
                assert_eq!(take, vec![0, 1, 2, 3], "FIFO among equals");
            }
            d => panic!("expected size flush, got {d:?}"),
        }
    }

    #[test]
    fn linger_trigger_flushes_a_partial_batch() {
        let pending = [p(0, Class::Interactive, 100, None)];
        // Not lingered yet: wait until enqueue + linger.
        match policy().decide(1_000, &pending, false, false) {
            Decision::Wait { wake_us } => assert_eq!(wake_us, Some(2_100)),
            d => panic!("expected wait, got {d:?}"),
        }
        // Lingered: flush what is there.
        match policy().decide(2_100, &pending, false, false) {
            Decision::Flush { take, trigger } => {
                assert_eq!(trigger, FlushTrigger::Linger);
                assert_eq!(take, vec![0]);
            }
            d => panic!("expected linger flush, got {d:?}"),
        }
    }

    #[test]
    fn drain_flushes_immediately_without_linger() {
        let pending = [p(0, Class::Bulk, 100, None), p(1, Class::Bulk, 101, None)];
        match policy().decide(102, &pending, true, false) {
            Decision::Flush { take, trigger } => {
                assert_eq!(trigger, FlushTrigger::Drain);
                assert_eq!(take.len(), 2);
            }
            d => panic!("expected drain flush, got {d:?}"),
        }
    }

    #[test]
    fn interactive_requests_jump_ahead_of_fresh_bulk() {
        let pending = [
            p(0, Class::Bulk, 100, None),
            p(1, Class::Interactive, 200, None),
            p(2, Class::Bulk, 150, None),
            p(3, Class::Interactive, 120, None),
        ];
        // now close to enqueue: no bulk has aged.
        let order = policy().order(300, &pending);
        assert_eq!(order, vec![3, 1, 0, 2], "interactive FIFO, then bulk FIFO");
    }

    #[test]
    fn aged_bulk_is_promoted_ahead_of_younger_interactive() {
        let pol = policy().with_age_promote(Duration::from_micros(5_000));
        let pending = [
            p(0, Class::Bulk, 100, None),          // waited 9_900 ≥ 5_000: promoted
            p(1, Class::Interactive, 9_000, None), // younger
        ];
        let order = pol.order(10_000, &pending);
        assert_eq!(
            order,
            vec![0, 1],
            "promoted bulk is FIFO-ordered with interactive"
        );
        // Un-aged bulk stays behind.
        let fresh = [
            p(0, Class::Bulk, 9_500, None),
            p(1, Class::Interactive, 9_900, None),
        ];
        assert_eq!(pol.order(10_000, &fresh), vec![1, 0]);
    }

    #[test]
    fn every_request_is_eventually_first_in_order() {
        // Starvation freedom: however much interactive traffic arrives
        // later, a bulk request older than age_promote with the earliest
        // admission time heads the order.
        let pol = policy().with_age_promote(Duration::from_micros(1_000));
        let mut pending = vec![p(0, Class::Bulk, 0, None)];
        for i in 1..50 {
            pending.push(p(i, Class::Interactive, 10 + i, None));
        }
        let order = pol.order(2_000, &pending);
        assert_eq!(order[0], 0, "aged bulk request heads the order");
    }

    #[test]
    fn shed_selects_exactly_the_expired() {
        let pending = [
            p(0, Class::Interactive, 100, Some(500)),
            p(1, Class::Interactive, 100, None),
            p(2, Class::Bulk, 100, Some(2_000)),
            p(3, Class::Bulk, 300, Some(300)), // deadline == enqueue: always expired
        ];
        assert_eq!(policy().shed(400, &pending), vec![3]);
        assert_eq!(policy().shed(500, &pending), vec![0, 3], ">= semantics");
        assert_eq!(policy().shed(10_000, &pending), vec![0, 2, 3]);
    }

    #[test]
    fn wait_wakes_at_earliest_deadline_before_linger() {
        let pending = [
            p(0, Class::Interactive, 1_000, Some(1_500)),
            p(1, Class::Interactive, 1_100, None),
        ];
        match policy().decide(1_200, &pending, false, false) {
            Decision::Wait { wake_us } => {
                assert_eq!(wake_us, Some(1_500), "deadline beats linger (3_000)");
            }
            d => panic!("expected wait, got {d:?}"),
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let pending: Vec<Pending> = (0..10)
            .map(|i| {
                p(
                    i,
                    if i % 3 == 0 {
                        Class::Bulk
                    } else {
                        Class::Interactive
                    },
                    100 * i,
                    (i % 2 == 0).then_some(10_000 + i),
                )
            })
            .collect();
        let pol = policy();
        for now in [0u64, 500, 1_500, 5_000, 20_000] {
            assert_eq!(
                pol.decide(now, &pending, false, false),
                pol.decide(now, &pending, false, false)
            );
            assert_eq!(pol.shed(now, &pending), pol.shed(now, &pending));
            assert_eq!(pol.order(now, &pending), pol.order(now, &pending));
        }
    }

    #[test]
    fn max_batch_floor_is_one() {
        let pol = FormPolicy::new(0, Duration::ZERO);
        assert_eq!(pol.max_batch, 1);
        let pending = [p(0, Class::Interactive, 0, None)];
        assert!(matches!(
            pol.decide(0, &pending, false, false),
            Decision::Flush {
                trigger: FlushTrigger::Size,
                ..
            }
        ));
    }

    #[test]
    fn trigger_labels_are_stable() {
        assert_eq!(FlushTrigger::Size.label(), "size");
        assert_eq!(FlushTrigger::Linger.label(), "linger");
        assert_eq!(FlushTrigger::Drain.label(), "drain");
        assert_eq!(FlushTrigger::Idle.label(), "idle");
    }

    #[test]
    fn idle_flushes_a_single_request_without_lingering() {
        let pending = [p(0, Class::Interactive, 100, None)];
        assert_eq!(
            policy().decide(101, &pending, false, true),
            Decision::Flush {
                take: vec![0],
                trigger: FlushTrigger::Idle
            }
        );
    }

    #[test]
    fn idle_flushes_everything_pending_in_serving_order() {
        let pending = [
            p(0, Class::Bulk, 100, None),
            p(1, Class::Interactive, 200, None),
            p(2, Class::Interactive, 150, None),
        ];
        assert_eq!(
            policy().decide(250, &pending, false, true),
            Decision::Flush {
                take: policy().order(250, &pending),
                trigger: FlushTrigger::Idle
            }
        );
        assert_eq!(policy().order(250, &pending), vec![2, 1, 0]);
    }

    #[test]
    fn size_beats_idle_at_max_batch() {
        for n in [4u64, 6] {
            let pending: Vec<Pending> = (0..n)
                .map(|i| p(i, Class::Interactive, 100 + i, None))
                .collect();
            match policy().decide(150, &pending, false, true) {
                Decision::Flush { take, trigger } => {
                    assert_eq!(trigger, FlushTrigger::Size, "{n} pending");
                    assert_eq!(take, vec![0, 1, 2, 3]);
                }
                d => panic!("expected size flush, got {d:?}"),
            }
        }
    }

    #[test]
    fn drain_beats_idle() {
        let pending = [p(0, Class::Interactive, 100, None)];
        assert!(matches!(
            policy().decide(101, &pending, true, true),
            Decision::Flush {
                trigger: FlushTrigger::Drain,
                ..
            }
        ));
    }

    #[test]
    fn expired_requests_are_shed_before_an_idle_flush() {
        // The caller sheds first and decides on what is left: the expired
        // request never reaches the idle batch.
        let pol = policy();
        let pending = vec![
            p(0, Class::Interactive, 100, Some(150)),
            p(1, Class::Interactive, 120, None),
        ];
        let expired = pol.shed(200, &pending);
        assert_eq!(expired, vec![0]);
        let live: Vec<Pending> = pending
            .iter()
            .enumerate()
            .filter(|(i, _)| !expired.contains(i))
            .map(|(_, r)| *r)
            .collect();
        match pol.decide(200, &live, false, true) {
            Decision::Flush { take, trigger } => {
                assert_eq!(trigger, FlushTrigger::Idle);
                assert_eq!(take.iter().map(|&i| live[i].seq).collect::<Vec<_>>(), [1]);
            }
            d => panic!("expected idle flush, got {d:?}"),
        }
    }

    #[test]
    fn idle_with_nothing_pending_still_waits() {
        assert_eq!(
            policy().decide(0, &[], false, true),
            Decision::Wait { wake_us: None }
        );
    }
}
