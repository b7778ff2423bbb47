//! Requests, responses, and the ticket a client waits on.
//!
//! A [`Request`] owns its ciphertext operands ([`ServeOp`] is the owned
//! sibling of [`BatchOp`]) because it outlives the submitting call: it sits
//! in the queue until a worker takes it. The server answers through a
//! one-shot channel held by the [`Ticket`]; every accepted request gets
//! exactly one [`Response`] — a computed result, or a typed shed/failure
//! error — even across shutdown.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use warpdrive_core::{BatchOp, Class, FlushTrigger};
use wd_ckks::cipher::Ciphertext;
use wd_fault::WdError;
use wd_graph::CompiledProgram;

/// One owned whole-ciphertext operation, mirroring [`BatchOp`] — plus the
/// compiled-program request kind, which carries a whole DAG.
#[derive(Debug, Clone)]
pub enum ServeOp {
    /// Homomorphic addition.
    HAdd(Ciphertext, Ciphertext),
    /// Homomorphic subtraction.
    HSub(Ciphertext, Ciphertext),
    /// Homomorphic multiplication with relinearization.
    HMult(Ciphertext, Ciphertext),
    /// Slot rotation by a signed amount.
    HRotate(Ciphertext, isize),
    /// RESCALE by one chain prime.
    Rescale(Ciphertext),
    /// A compiled graph program with its input ciphertexts. The program
    /// must declare exactly one output (enforced at submit); workers run
    /// same-wave steps of every program in a batch as merged executor
    /// batches ([`wd_graph::execute_many`]). In-process only: the wire
    /// protocol does not carry compiled programs.
    Program(Arc<CompiledProgram>, Vec<Ciphertext>),
}

impl ServeOp {
    /// Borrows this op as a [`BatchOp`] for the executor.
    ///
    /// # Panics
    ///
    /// On [`ServeOp::Program`]: a program is a schedule of many batch ops,
    /// not one. The server partitions programs out before this is called.
    pub fn as_batch_op(&self) -> BatchOp<'_> {
        match self {
            ServeOp::HAdd(a, b) => BatchOp::HAdd(a, b),
            ServeOp::HSub(a, b) => BatchOp::HSub(a, b),
            ServeOp::HMult(a, b) => BatchOp::HMult(a, b),
            ServeOp::HRotate(ct, r) => BatchOp::HRotate(ct, *r),
            ServeOp::Rescale(ct) => BatchOp::Rescale(ct),
            ServeOp::Program(..) => {
                unreachable!("programs execute wave-by-wave, not as one BatchOp")
            }
        }
    }

    /// Whether executing this op reads evaluation keys: HMult reads the
    /// relinearization key, HRotate a Galois key, and any program may do
    /// either. HAdd, HSub and Rescale read none.
    pub(crate) fn reads_keys(&self) -> bool {
        matches!(
            self,
            ServeOp::HMult(..) | ServeOp::HRotate(..) | ServeOp::Program(..)
        )
    }

    /// Short op name (`hmult`, `rescale`, `program`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeOp::Program(..) => "program",
            _ => self.as_batch_op().kind(),
        }
    }
}

/// One serving request: the operation plus its scheduling metadata.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation to execute.
    pub op: ServeOp,
    /// Priority class (default [`Class::Interactive`]).
    pub class: Class,
    /// Shedding deadline relative to admission (`None` = no SLO). A zero
    /// deadline is always already expired — the deterministic
    /// shed-on-arrival spelling used by tests and drills.
    pub deadline: Option<Duration>,
}

impl Request {
    /// An interactive request with no deadline.
    pub fn new(op: ServeOp) -> Self {
        Self {
            op,
            class: Class::Interactive,
            deadline: None,
        }
    }

    /// A bulk (throughput-class) request with no deadline.
    pub fn bulk(op: ServeOp) -> Self {
        Self::new(op).with_class(Class::Bulk)
    }

    /// An interactive request running a compiled graph program on the given
    /// inputs. The program is `Arc`-shared so many requests (and tenants)
    /// can submit the same compiled artifact without copying it.
    pub fn program(program: Arc<CompiledProgram>, inputs: Vec<Ciphertext>) -> Self {
        Self::new(ServeOp::Program(program, inputs))
    }

    /// Overrides the priority class.
    #[must_use]
    pub fn with_class(mut self, class: Class) -> Self {
        self.class = class;
        self
    }

    /// Sets the shedding deadline, relative to admission time.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The server's answer for one request.
#[derive(Debug)]
pub struct Response {
    /// The request id (the ticket's [`Ticket::id`]).
    pub id: u64,
    /// The computed ciphertext, or the typed failure: a shed request
    /// carries [`WdError::DeadlineExceeded`], an execution failure carries
    /// the executor's error.
    pub result: Result<Ciphertext, WdError>,
    /// Queue-to-response latency in microseconds (host-measured).
    pub waited_us: u64,
    /// How many requests shared this response's batch (0 for shed
    /// requests, which never reach a batch).
    pub batch_size: usize,
    /// Which trigger flushed the batch (`None` for shed requests).
    pub trigger: Option<FlushTrigger>,
}

/// A claim on one future [`Response`]. Submitting returns a ticket
/// immediately; [`Ticket::wait`] blocks until the server answers.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// The request id this ticket redeems.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. If the serving pipeline died
    /// before answering (a bug — drain guarantees one response per
    /// accepted request), the loss is surfaced as a
    /// [`WdError::WorkerPanicked`] response rather than a panic here.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or_else(|_| Response {
            id: self.id,
            result: Err(WdError::WorkerPanicked(
                "serve: pipeline dropped before responding".into(),
            )),
            waited_us: 0,
            batch_size: 0,
            trigger: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_defaults_and_overrides() {
        let ct = dummy_ct();
        let r = Request::new(ServeOp::Rescale(ct.clone()));
        assert_eq!(r.class, Class::Interactive);
        assert_eq!(r.deadline, None);
        let r = Request::bulk(ServeOp::Rescale(ct)).with_deadline(Duration::from_micros(50));
        assert_eq!(r.class, Class::Bulk);
        assert_eq!(r.deadline, Some(Duration::from_micros(50)));
    }

    #[test]
    fn serve_op_borrows_as_matching_batch_op() {
        let ct = dummy_ct();
        let pairs: Vec<(ServeOp, &str)> = vec![
            (ServeOp::HAdd(ct.clone(), ct.clone()), "hadd"),
            (ServeOp::HSub(ct.clone(), ct.clone()), "hsub"),
            (ServeOp::HMult(ct.clone(), ct.clone()), "hmult"),
            (ServeOp::HRotate(ct.clone(), -3), "hrotate"),
            (ServeOp::Rescale(ct), "rescale"),
        ];
        for (op, kind) in &pairs {
            assert_eq!(op.kind(), *kind);
            assert_eq!(op.as_batch_op().kind(), *kind);
        }
    }

    #[test]
    fn program_requests_have_their_own_kind() {
        let ct = dummy_ct();
        let mut g = wd_graph::Graph::new();
        let x = g.input();
        let r = g.rescale(x);
        g.output(r);
        let params = wd_ckks::ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("params");
        let prog = Arc::new(
            g.compile(&params, &wd_graph::CompileOptions::new())
                .expect("compiles"),
        );
        let op = ServeOp::Program(Arc::clone(&prog), vec![ct]);
        assert_eq!(op.kind(), "program");
        let req = Request::program(prog, Vec::new());
        assert_eq!(req.class, Class::Interactive);
        assert_eq!(req.op.kind(), "program");
    }

    #[test]
    fn orphaned_ticket_reports_a_typed_loss() {
        let (tx, rx) = mpsc::channel::<Response>();
        drop(tx);
        let resp = Ticket { id: 9, rx }.wait();
        assert_eq!(resp.id, 9);
        assert!(matches!(resp.result, Err(WdError::WorkerPanicked(_))));
    }

    fn dummy_ct() -> Ciphertext {
        let params = wd_ckks::ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("params");
        let ctx = wd_ckks::CkksContext::with_seed(params, 1).expect("ctx");
        let kp = ctx.keygen();
        ctx.encrypt_values(&[1.0], &kp.public).expect("encrypt")
    }
}
