//! `wd-serve`: a dynamic-batching FHE request server with admission
//! control, deadlines, and backpressure.
//!
//! WarpDrive's PE kernels amortize launch overhead by covering a whole
//! ciphertext operation — every polynomial × RNS limb — in one launch
//! (§III-C, Table IX), and they pay off *more* the more independent
//! operations share a launch. In deployment that batching decision is not
//! made by the kernel but by a **server** sitting in front of it: requests
//! arrive asynchronously, and someone must decide how long to hold them so
//! the accelerator sees full batches without blowing latency budgets. This
//! crate is that front-end, built entirely from `std` threads on top of the
//! framework the repo already has:
//!
//! - **Admission control**: a bounded queue; a submit against a full queue
//!   is rejected with the typed backpressure signal
//!   [`WdError::QueueFull`](wd_fault::WdError::QueueFull) rather than
//!   blocking or growing without bound.
//! - **Dynamic batching**: each free worker thread forms its own batch with
//!   [`warpdrive_core::FormPolicy`] — the pure decision core (idle / size /
//!   linger / drain: a free worker takes whatever is pending at once, up to
//!   `max_batch`; the linger only applies while a [`Hold`] is live; drain
//!   flushes the rest on shutdown) with deadline shedding and
//!   starvation-free priority aging.
//! - **Execution**: the worker runs the batch it formed through
//!   [`warpdrive_core::BatchExecutor`], which splits its one thread budget
//!   per batch with the [`ParScheduler`]'s deterministic cost model, inside
//!   the `wd-fault` recovery envelope. Because every operation is a pure function of its inputs,
//!   **responses are bit-identical to a sequential fault-free run** at
//!   every batch size, thread count, and fault seed.
//! - **Observability**: `wd-trace` counters (`serve.enqueued`,
//!   `serve.rejected`, `serve.shed`, `serve.completed`, `serve.batches`),
//!   histograms (`serve.batch_size`, `serve.latency_us`), a
//!   `serve.queue_depth` gauge, and a `serve.batch` event per flush.
//! - **Graceful drain**: [`server::Server::shutdown`] flushes everything
//!   still queued (in `max_batch` chunks) before the threads exit; every
//!   accepted request gets exactly one response, always.
//! - **Multi-tenancy**: a [`TenantRegistry`] maps tenant ids to their own
//!   `CkksContext` and key material behind a byte-budgeted LRU resident-key
//!   cache (keyswitch keys dominate the accelerator's working set, so key
//!   residency is the real contended resource); per-tenant admission quotas
//!   layer on top of priority classes, and every counter/histogram gains a
//!   `serve.tenant.<id>.*` twin.
//! - **A TCP front-end**: [`NetServer`] is a dependency-free `std::net`
//!   listener (thread-per-connection, connection cap, io timeouts) that
//!   speaks length-prefixed [`wire`] frames into [`Server::submit_as`],
//!   with a lossless socket-then-queue drain for SIGTERM-style shutdown.
//! - **Self-healing**: resident keys verified on every lease that reads
//!   the keys (quarantine-and-reload on a resident bit flip), a watchdog that re-queues a wedged worker's
//!   batch and replaces the thread (degrading to sequential execution
//!   under a restart storm), per-tenant [circuit breakers](breaker) that
//!   refuse doomed traffic fast, checksummed v3 wire frames, and a HEALTH
//!   frame ([`wire::HealthReport`]) reporting all of it — every rung
//!   observable as `serve.guard.*` / `fault.*` trace signals.
//!
//! [`ParScheduler`]: warpdrive_core::ParScheduler
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use wd_serve::{Request, ServeConfig, ServeKeys, ServeOp, Server};
//! use wd_ckks::{CkksContext, ParamSet};
//!
//! # fn main() -> Result<(), wd_fault::WdError> {
//! let ctx = Arc::new(CkksContext::with_seed(
//!     ParamSet::set_a().with_degree(1 << 6).build()?, 7)?);
//! let kp = ctx.keygen();
//! let server = Server::start(
//!     Arc::clone(&ctx),
//!     ServeKeys::with_relin(kp.relin.clone()),
//!     ServeConfig::default(),
//! );
//! let a = ctx.encrypt_values(&[1.0, 2.0], &kp.public)?;
//! let b = ctx.encrypt_values(&[3.0, 4.0], &kp.public)?;
//! let ticket = server.submit(Request::new(ServeOp::HAdd(a, b)))?;
//! let response = ticket.wait();
//! let sum = response.result?;
//! assert!((ctx.decrypt_values(&sum, &kp.secret)?[0] - 4.0).abs() < 1e-2);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod net;
pub mod request;
pub mod server;
pub mod tenant;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use net::{NetClient, NetConfig, NetServer, NetStats};
pub use request::{Request, Response, ServeOp, Ticket};
pub use server::{Hold, ServeConfig, ServeKeys, ServeStats, Server};
pub use tenant::{KeyCacheStats, TenantConfig, TenantRegistry, TenantStats, DEFAULT_TENANT};
pub use wire::{HealthReport, TenantHealth};
// The priority classes and flush triggers are defined by the pure decision
// core in `warpdrive-core`; re-exported so serving code needs one import.
pub use warpdrive_core::{Class, FlushTrigger};

/// Takes the guard out of a `lock()` / `wait()` result whether or not a
/// thread panicked while holding the mutex. Every critical section in this
/// crate that goes through here is a push, pop, take or field store that
/// leaves its state consistent at any unwind point, so the data behind a
/// poisoned mutex is still valid: one panicking worker must not turn every
/// later submitter, worker and health probe into a panic of its own.
pub(crate) fn recover<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
