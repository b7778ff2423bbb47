//! Wire framing for serving traffic: requests and responses as compact
//! little-endian frames over the `wd-ckks` ciphertext format.
//!
//! FHE serving is inherently remote — the whole point is that an untrusted
//! server computes on ciphertexts it cannot read — so the request/response
//! shapes need a wire spelling, not just in-process structs. Frames reuse
//! the ciphertext serialization of [`wd_ckks::wire`] (32-bit coefficient
//! words, the paper's word size) and add a thin envelope:
//!
//! ```text
//! request:  magic "WDSV" | ver u8=3 | kind u8=1 | id u64
//!           | tenant label (u8 len + UTF-8 bytes; len 0 = default tenant)
//!           | class u8 | deadline flag u8 (0/1) | [deadline_us u64]
//!           | op tag u8 | operand ciphertext frame(s) | [rotate i64]
//!           | checksum u64 over every preceding byte
//! response: magic "WDSV" | ver u8=3 | kind u8=2 | id u64 | status u8
//!           | waited_us u64 | batch_size u32 | trigger u8
//!           | ok: ciphertext frame / err: len-prefixed UTF-8 message
//!           | checksum u64 over every preceding byte
//! health:   magic "WDSV" | ver u8=3 | kind u8=3 (probe) or 4 (report)
//!           | id u64 | [report payload] | trailing checksum u64
//! ```
//!
//! **One version.** Every frame is version 3 (the *guard* version; no
//! client outside this repository ever spoke the unchecksummed versions 1
//! and 2 that earlier trees also accepted): the tenant header is
//! mandatory-but-may-be-empty and the frame ends in a checksum trailer,
//! [`wd_fault::integrity::checksum_bytes`] (the four-lane FNV-1a byte feed
//! defined there) over every preceding frame byte, **verified before any
//! payload parsing** — a corrupted frame surfaces as the typed
//! [`wd_fault::WdError::IntegrityViolation`], never as a garbled operand.
//! A frame carrying any other version byte is refused with the typed
//! "unsupported serve frame version" error, so a server that verifies its
//! operands cannot be talked into serving one nobody checksummed. The function names keep
//! their `_v3` / `_versioned` suffixes because the host benchmark calls
//! them by those names.
//!
//! Errors cross the wire as their display text ([`WireResponse`] carries
//! `Result<Ciphertext, String>`): the variant taxonomy is a host-side
//! concept, and a remote client needs the message, not the enum.

use std::time::Duration;

use warpdrive_core::{Class, FlushTrigger};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::wire::{
    ciphertext_frame_len, read_ciphertext_frame, read_label_frame, write_ciphertext_frame,
    write_label_frame, MAX_LABEL_BYTES,
};
use wd_ckks::CkksError;

use crate::request::{Request, Response, ServeOp};

const MAGIC: &[u8; 4] = b"WDSV";
/// The frame version: a mandatory (possibly empty) tenant label and a
/// trailing checksum. Nothing else is spoken or accepted.
pub const VERSION_GUARD: u8 = 3;
const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
/// A health probe (no payload beyond the envelope).
pub const KIND_HEALTH_REQUEST: u8 = 3;
/// A health report answering a probe.
pub const KIND_HEALTH_RESPONSE: u8 = 4;

const OP_HADD: u8 = 0;
const OP_HSUB: u8 = 1;
const OP_HMULT: u8 = 2;
const OP_HROTATE: u8 = 3;
const OP_RESCALE: u8 = 4;

/// A [`Response`] as it crosses the wire: the error arm is the display
/// text of the host-side [`wd_fault::WdError`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The request id being answered.
    pub id: u64,
    /// The computed ciphertext, or the failure message.
    pub result: Result<Ciphertext, String>,
    /// Queue-to-response latency in microseconds.
    pub waited_us: u64,
    /// Batch size the request was served in (0 = shed).
    pub batch_size: usize,
    /// The flush trigger (`None` = shed).
    pub trigger: Option<FlushTrigger>,
}

impl WireResponse {
    /// Projects a host-side [`Response`] onto its wire shape (by value: the
    /// result ciphertext moves, it is not copied).
    pub fn of(resp: Response) -> Self {
        Self {
            id: resp.id,
            result: resp.result.map_err(|e| e.to_string()),
            waited_us: resp.waited_us,
            batch_size: resp.batch_size,
            trigger: resp.trigger,
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CkksError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| CkksError::WireDecode("truncated serve frame".into()))?;
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, CkksError> {
    Ok(take(buf, pos, 1)?[0])
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, CkksError> {
    // invariant: take(4) returns exactly 4 bytes or errors above.
    Ok(u32::from_le_bytes(
        take(buf, pos, 4)?.try_into().expect("4 bytes"),
    ))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CkksError> {
    // invariant: take(8) returns exactly 8 bytes or errors above.
    Ok(u64::from_le_bytes(
        take(buf, pos, 8)?.try_into().expect("8 bytes"),
    ))
}

fn write_envelope(out: &mut Vec<u8>, ver: u8, kind: u8, id: u64) {
    out.extend_from_slice(MAGIC);
    out.push(ver);
    out.push(kind);
    put_u64(out, id);
}

/// Reads the envelope of a `want_kind` frame, returning its id.
fn read_envelope(buf: &[u8], pos: &mut usize, want_kind: u8) -> Result<u64, CkksError> {
    let magic = take(buf, pos, 4)?;
    if magic != MAGIC {
        return Err(CkksError::WireDecode("bad serve magic".into()));
    }
    let ver = get_u8(buf, pos)?;
    if ver != VERSION_GUARD {
        return Err(CkksError::WireDecode(format!(
            "unsupported serve frame version {ver}"
        )));
    }
    let kind = get_u8(buf, pos)?;
    if kind != want_kind {
        return Err(CkksError::WireDecode(format!(
            "serve frame kind {kind}, want {want_kind}"
        )));
    }
    get_u64(buf, pos)
}

/// The most a request or response frame holds besides its ciphertext
/// frames: envelope, a full tenant label, class, deadline, op tag, rotation
/// amount (or the response's status block) and the checksum trailer.
const FRAME_OVERHEAD_MAX: usize = 14 + (1 + MAX_LABEL_BYTES) + 1 + 9 + 1 + 8 + 8;

/// A buffer that holds `req`'s frame without regrowing.
fn request_buffer(req: &Request) -> Vec<u8> {
    let operands: usize = match &req.op {
        ServeOp::HAdd(a, b) | ServeOp::HSub(a, b) | ServeOp::HMult(a, b) => {
            ciphertext_frame_len(a) + ciphertext_frame_len(b)
        }
        ServeOp::HRotate(ct, _) | ServeOp::Rescale(ct) => ciphertext_frame_len(ct),
        ServeOp::Program(..) => 0,
    };
    Vec::with_capacity(FRAME_OVERHEAD_MAX + operands)
}

/// A buffer that holds `resp`'s frame without regrowing.
fn response_buffer(resp: &WireResponse) -> Vec<u8> {
    let payload = match &resp.result {
        Ok(ct) => ciphertext_frame_len(ct),
        Err(msg) => 4 + msg.len(),
    };
    Vec::with_capacity(FRAME_OVERHEAD_MAX + payload)
}

/// Serializes one request under the given wire id: mandatory (possibly
/// empty) tenant header plus the trailing checksum. `tenant: None` encodes
/// an empty label, which the decoder routes to the default tenant.
///
/// # Errors
///
/// [`CkksError::WireDecode`] when the tenant label is longer than
/// [`wd_ckks::wire::MAX_LABEL_BYTES`], or for a [`ServeOp::Program`]
/// request (compiled programs are in-process only).
pub fn encode_request_v3(
    id: u64,
    tenant: Option<&str>,
    req: &Request,
) -> Result<Vec<u8>, CkksError> {
    let mut out = request_buffer(req);
    write_envelope(&mut out, VERSION_GUARD, KIND_REQUEST, id);
    write_label_frame(&mut out, tenant.unwrap_or(""))?;
    write_request_body(&mut out, req)?;
    let sum = wd_fault::integrity::checksum_bytes(&out);
    put_u64(&mut out, sum);
    Ok(out)
}

/// The request payload: class, deadline, op, operands.
///
/// # Errors
///
/// [`CkksError::WireDecode`] for [`ServeOp::Program`]: compiled programs
/// are in-process submissions only — the wire protocol does not carry
/// them.
fn write_request_body(out: &mut Vec<u8>, req: &Request) -> Result<(), CkksError> {
    out.push(match req.class {
        Class::Interactive => 0,
        Class::Bulk => 1,
    });
    match req.deadline {
        None => out.push(0),
        Some(d) => {
            out.push(1);
            put_u64(out, d.as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
    match &req.op {
        ServeOp::HAdd(a, b) => {
            out.push(OP_HADD);
            write_ciphertext_frame(out, a);
            write_ciphertext_frame(out, b);
        }
        ServeOp::HSub(a, b) => {
            out.push(OP_HSUB);
            write_ciphertext_frame(out, a);
            write_ciphertext_frame(out, b);
        }
        ServeOp::HMult(a, b) => {
            out.push(OP_HMULT);
            write_ciphertext_frame(out, a);
            write_ciphertext_frame(out, b);
        }
        ServeOp::HRotate(ct, r) => {
            out.push(OP_HROTATE);
            write_ciphertext_frame(out, ct);
            put_u64(out, *r as u64); // i64 bit pattern
        }
        ServeOp::Rescale(ct) => {
            out.push(OP_RESCALE);
            write_ciphertext_frame(out, ct);
        }
        ServeOp::Program(..) => {
            return Err(CkksError::WireDecode(
                "request: compiled programs are in-process only; \
                 the wire protocol does not carry them"
                    .into(),
            ));
        }
    }
    Ok(())
}

/// Splits a frame into its payload and verifies the trailing checksum
/// **before anything else is parsed** — corruption anywhere in the frame
/// (including the envelope already read) is caught here, not by whatever
/// payload parser happens to trip over it.
///
/// # Errors
///
/// [`CkksError::WireDecode`] on a frame too short to carry the trailer;
/// [`wd_fault::WdError::IntegrityViolation`] on a checksum mismatch.
fn verify_guard_trailer<'a>(buf: &'a [u8], what: &str) -> Result<&'a [u8], CkksError> {
    let Some(split) = buf.len().checked_sub(8) else {
        return Err(CkksError::WireDecode(format!(
            "{what}: frame too short for its checksum trailer"
        )));
    };
    // invariant: the slice is exactly 8 bytes by construction.
    let claimed = u64::from_le_bytes(buf[split..].try_into().expect("8 bytes"));
    let got = wd_fault::integrity::checksum_bytes(&buf[..split]);
    if claimed != got {
        return Err(wd_fault::WdError::IntegrityViolation {
            what: what.to_string(),
            expected: claimed,
            got,
        });
    }
    Ok(&buf[..split])
}

/// Deserializes one request frame, returning the frame version (always
/// [`VERSION_GUARD`]), the wire id, the tenant header (`None` for an empty
/// label — route to the default tenant), and the request. The checksum
/// trailer is verified before any payload parsing.
///
/// # Errors
///
/// [`CkksError::WireDecode`] on truncation, bad magic/kind, any version
/// other than [`VERSION_GUARD`], a bad tenant label, an unknown op tag, or
/// trailing bytes; [`wd_fault::WdError::IntegrityViolation`] when the
/// trailing checksum does not match the frame's bytes.
pub fn decode_request_versioned(
    buf: &[u8],
) -> Result<(u8, u64, Option<String>, Request), CkksError> {
    let mut pos = 0usize;
    let id = read_envelope(buf, &mut pos, KIND_REQUEST)?;
    let buf = verify_guard_trailer(buf, &format!("serve request frame id {id}"))?;
    // The header is mandatory, an empty label means the default tenant.
    let label = read_label_frame(buf, &mut pos)?;
    let tenant = (!label.is_empty()).then_some(label);
    let class = match get_u8(buf, &mut pos)? {
        0 => Class::Interactive,
        1 => Class::Bulk,
        c => return Err(CkksError::WireDecode(format!("unknown class tag {c}"))),
    };
    let deadline = match get_u8(buf, &mut pos)? {
        0 => None,
        1 => Some(Duration::from_micros(get_u64(buf, &mut pos)?)),
        f => return Err(CkksError::WireDecode(format!("bad deadline flag {f}"))),
    };
    let tag = get_u8(buf, &mut pos)?;
    let op = match tag {
        OP_HADD | OP_HSUB | OP_HMULT => {
            let a = read_ciphertext_frame(buf, &mut pos)?;
            let b = read_ciphertext_frame(buf, &mut pos)?;
            match tag {
                OP_HADD => ServeOp::HAdd(a, b),
                OP_HSUB => ServeOp::HSub(a, b),
                _ => ServeOp::HMult(a, b),
            }
        }
        OP_HROTATE => {
            let ct = read_ciphertext_frame(buf, &mut pos)?;
            let r = get_u64(buf, &mut pos)? as i64 as isize;
            ServeOp::HRotate(ct, r)
        }
        OP_RESCALE => ServeOp::Rescale(read_ciphertext_frame(buf, &mut pos)?),
        t => return Err(CkksError::WireDecode(format!("unknown serve op tag {t}"))),
    };
    if pos != buf.len() {
        return Err(CkksError::WireDecode("trailing bytes after request".into()));
    }
    Ok((
        VERSION_GUARD,
        id,
        tenant,
        Request {
            op,
            class,
            deadline,
        },
    ))
}

/// Refuses a count that does not fit the wire's u32 field. The old
/// spelling (`.min(u32::MAX as usize) as u32`) silently clamped, so an
/// oversize value decoded as a *different, plausible* value on the far
/// side; a typed error at the encoder is the only honest answer.
fn checked_wire_u32(v: usize, what: &str) -> Result<u32, CkksError> {
    u32::try_from(v)
        .map_err(|_| CkksError::WireDecode(format!("{what} {v} exceeds the u32 wire field")))
}

/// Serializes one response, trailing checksum included.
///
/// # Errors
///
/// [`CkksError::WireDecode`] when the batch size or error-message length
/// does not fit the wire's u32 fields.
pub fn encode_response_v3(resp: &WireResponse) -> Result<Vec<u8>, CkksError> {
    let mut out = response_buffer(resp);
    write_envelope(&mut out, VERSION_GUARD, KIND_RESPONSE, resp.id);
    write_response_body(&mut out, resp)?;
    let sum = wd_fault::integrity::checksum_bytes(&out);
    put_u64(&mut out, sum);
    Ok(out)
}

/// The response payload.
fn write_response_body(out: &mut Vec<u8>, resp: &WireResponse) -> Result<(), CkksError> {
    out.push(u8::from(resp.result.is_err()));
    put_u64(out, resp.waited_us);
    put_u32(
        out,
        checked_wire_u32(resp.batch_size, "response batch size")?,
    );
    out.push(match resp.trigger {
        None => 0,
        Some(FlushTrigger::Size) => 1,
        Some(FlushTrigger::Linger) => 2,
        Some(FlushTrigger::Drain) => 3,
        Some(FlushTrigger::Idle) => 4,
    });
    match &resp.result {
        Ok(ct) => write_ciphertext_frame(out, ct),
        Err(msg) => {
            let bytes = msg.as_bytes();
            put_u32(out, checked_wire_u32(bytes.len(), "error message length")?);
            out.extend_from_slice(bytes);
        }
    }
    Ok(())
}

/// Deserializes one response frame; its checksum trailer is verified
/// before any payload parsing.
///
/// # Errors
///
/// [`CkksError::WireDecode`] on truncation, bad magic/kind, any version
/// other than [`VERSION_GUARD`], a bad trigger tag, a non-UTF-8 error
/// message, or trailing bytes;
/// [`wd_fault::WdError::IntegrityViolation`] on a checksum mismatch.
pub fn decode_response(buf: &[u8]) -> Result<WireResponse, CkksError> {
    let mut pos = 0usize;
    let id = read_envelope(buf, &mut pos, KIND_RESPONSE)?;
    let buf = verify_guard_trailer(buf, &format!("serve response frame id {id}"))?;
    let is_err = match get_u8(buf, &mut pos)? {
        0 => false,
        1 => true,
        s => return Err(CkksError::WireDecode(format!("bad status byte {s}"))),
    };
    let waited_us = get_u64(buf, &mut pos)?;
    let batch_size = get_u32(buf, &mut pos)? as usize;
    let trigger = match get_u8(buf, &mut pos)? {
        0 => None,
        1 => Some(FlushTrigger::Size),
        2 => Some(FlushTrigger::Linger),
        3 => Some(FlushTrigger::Drain),
        4 => Some(FlushTrigger::Idle),
        t => return Err(CkksError::WireDecode(format!("bad trigger tag {t}"))),
    };
    let result = if is_err {
        let len = get_u32(buf, &mut pos)? as usize;
        let bytes = take(buf, &mut pos, len)?;
        let msg = std::str::from_utf8(bytes)
            .map_err(|_| CkksError::WireDecode("error message is not UTF-8".into()))?;
        Err(msg.to_string())
    } else {
        Ok(read_ciphertext_frame(buf, &mut pos)?)
    };
    if pos != buf.len() {
        return Err(CkksError::WireDecode(
            "trailing bytes after response".into(),
        ));
    }
    Ok(WireResponse {
        id,
        result,
        waited_us,
        batch_size,
        trigger,
    })
}

/// The frame kind of a raw serve frame, without decoding it — how the
/// network front-end routes HEALTH probes away from the request path.
/// `None` for anything too short or not carrying the serve magic.
pub fn peek_kind(buf: &[u8]) -> Option<u8> {
    (buf.len() >= 6 && &buf[..4] == MAGIC).then(|| buf[5])
}

/// One tenant's line in a [`HealthReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantHealth {
    /// The tenant id.
    pub id: String,
    /// Circuit-breaker state label (`closed` / `open` / `half_open`), or
    /// `None` when breakers are disabled.
    pub breaker: Option<String>,
    /// Admitted-but-unanswered requests.
    pub in_flight: u64,
}

/// The payload of a HEALTH report frame: what a supervisor (or the CI
/// guard drill) can see of a running server without touching its request
/// path. Built by `Server::health`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Requests pending in the admission queue.
    pub queue_depth: u64,
    /// Configured worker count (current-generation threads).
    pub workers: u32,
    /// Workers declared wedged and replaced since start.
    pub worker_restarts: u64,
    /// Whether a restart storm degraded replacements to sequential
    /// execution.
    pub degraded: bool,
    /// Bytes of key material resident in the lease cache.
    pub keycache_resident_bytes: u64,
    /// The cache's configured byte budget.
    pub keycache_budget_bytes: u64,
    /// Resident entries quarantined for checksum mismatches since start.
    pub keycache_quarantined: u64,
    /// Per-tenant health lines, sorted by tenant id.
    pub tenants: Vec<TenantHealth>,
}

/// Serializes a HEALTH probe (envelope + checksum only).
pub fn encode_health_request(id: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_envelope(&mut out, VERSION_GUARD, KIND_HEALTH_REQUEST, id);
    let sum = wd_fault::integrity::checksum_bytes(&out);
    put_u64(&mut out, sum);
    out
}

/// Deserializes a HEALTH probe, returning its wire id.
///
/// # Errors
///
/// [`CkksError::WireDecode`] on truncation, bad magic/version/kind or
/// trailing bytes; [`wd_fault::WdError::IntegrityViolation`] on a
/// checksum mismatch.
pub fn decode_health_request(buf: &[u8]) -> Result<u64, CkksError> {
    let mut pos = 0usize;
    let id = read_envelope(buf, &mut pos, KIND_HEALTH_REQUEST)?;
    let buf = verify_guard_trailer(buf, &format!("serve health probe id {id}"))?;
    if pos != buf.len() {
        return Err(CkksError::WireDecode(
            "trailing bytes after health probe".into(),
        ));
    }
    Ok(id)
}

/// Serializes a HEALTH report answering probe `id`.
///
/// # Errors
///
/// [`CkksError::WireDecode`] when a tenant id or breaker label exceeds the
/// label cap (cannot happen for ids that passed registration validation),
/// or when the tenant count does not fit the wire's u32 field.
pub fn encode_health_report(id: u64, report: &HealthReport) -> Result<Vec<u8>, CkksError> {
    let mut out = Vec::new();
    write_envelope(&mut out, VERSION_GUARD, KIND_HEALTH_RESPONSE, id);
    put_u64(&mut out, report.queue_depth);
    put_u32(&mut out, report.workers);
    put_u64(&mut out, report.worker_restarts);
    out.push(u8::from(report.degraded));
    put_u64(&mut out, report.keycache_resident_bytes);
    put_u64(&mut out, report.keycache_budget_bytes);
    put_u64(&mut out, report.keycache_quarantined);
    put_u32(
        &mut out,
        checked_wire_u32(report.tenants.len(), "tenant count")?,
    );
    for t in &report.tenants {
        write_label_frame(&mut out, &t.id)?;
        match &t.breaker {
            None => out.push(0),
            Some(label) => {
                out.push(1);
                write_label_frame(&mut out, label)?;
            }
        }
        put_u64(&mut out, t.in_flight);
    }
    let sum = wd_fault::integrity::checksum_bytes(&out);
    put_u64(&mut out, sum);
    Ok(out)
}

/// Deserializes a HEALTH report, returning `(probe id, report)`.
///
/// # Errors
///
/// [`CkksError::WireDecode`] on truncation, bad magic/version/kind, an
/// unknown breaker label, or trailing bytes;
/// [`wd_fault::WdError::IntegrityViolation`] on a checksum mismatch.
pub fn decode_health_report(buf: &[u8]) -> Result<(u64, HealthReport), CkksError> {
    let mut pos = 0usize;
    let id = read_envelope(buf, &mut pos, KIND_HEALTH_RESPONSE)?;
    let buf = verify_guard_trailer(buf, &format!("serve health report id {id}"))?;
    let queue_depth = get_u64(buf, &mut pos)?;
    let workers = get_u32(buf, &mut pos)?;
    let worker_restarts = get_u64(buf, &mut pos)?;
    let degraded = match get_u8(buf, &mut pos)? {
        0 => false,
        1 => true,
        d => return Err(CkksError::WireDecode(format!("bad degraded flag {d}"))),
    };
    let keycache_resident_bytes = get_u64(buf, &mut pos)?;
    let keycache_budget_bytes = get_u64(buf, &mut pos)?;
    let keycache_quarantined = get_u64(buf, &mut pos)?;
    let count = get_u32(buf, &mut pos)? as usize;
    let mut tenants = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let tenant_id = read_label_frame(buf, &mut pos)?;
        let breaker = match get_u8(buf, &mut pos)? {
            0 => None,
            1 => {
                let label = read_label_frame(buf, &mut pos)?;
                if !matches!(label.as_str(), "closed" | "open" | "half_open") {
                    return Err(CkksError::WireDecode(format!(
                        "unknown breaker label {label:?}"
                    )));
                }
                Some(label)
            }
            f => return Err(CkksError::WireDecode(format!("bad breaker flag {f}"))),
        };
        let in_flight = get_u64(buf, &mut pos)?;
        tenants.push(TenantHealth {
            id: tenant_id,
            breaker,
            in_flight,
        });
    }
    if pos != buf.len() {
        return Err(CkksError::WireDecode(
            "trailing bytes after health report".into(),
        ));
    }
    Ok((
        id,
        HealthReport {
            queue_depth,
            workers,
            worker_restarts,
            degraded,
            keycache_resident_bytes,
            keycache_budget_bytes,
            keycache_quarantined,
            tenants,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ckks::{CkksContext, ParamSet};

    #[test]
    fn program_requests_do_not_cross_the_wire() {
        let (a, _) = ct_pair();
        let mut g = wd_graph::Graph::new();
        let x = g.input();
        let r = g.rescale(x);
        g.output(r);
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("params");
        let prog = std::sync::Arc::new(
            g.compile(&params, &wd_graph::CompileOptions::new())
                .expect("compiles"),
        );
        let req = Request::program(prog, vec![a]);
        let err = encode_request_v3(9, None, &req).expect_err("programs are in-process only");
        assert!(matches!(err, CkksError::WireDecode(_)), "{err:?}");
    }

    fn ct_pair() -> (Ciphertext, Ciphertext) {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("params");
        let ctx = CkksContext::with_seed(params, 3).expect("ctx");
        let kp = ctx.keygen();
        (
            ctx.encrypt_values(&[1.0, 2.0], &kp.public).expect("a"),
            ctx.encrypt_values(&[-3.0, 0.5], &kp.public).expect("b"),
        )
    }

    /// Recomputes the checksum trailer of a tampered frame, so a test can
    /// reach the parser behind the integrity check.
    fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
        let split = frame.len() - 8;
        let sum = wd_fault::integrity::checksum_bytes(&frame[..split]);
        frame[split..].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    #[test]
    fn every_op_kind_round_trips() {
        let (a, b) = ct_pair();
        let ops = vec![
            ServeOp::HAdd(a.clone(), b.clone()),
            ServeOp::HSub(a.clone(), b.clone()),
            ServeOp::HMult(a.clone(), b.clone()),
            ServeOp::HRotate(a.clone(), -5),
            ServeOp::Rescale(a.clone()),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let req = Request::bulk(op).with_deadline(Duration::from_micros(777));
            let bytes = encode_request_v3(i as u64, None, &req).expect("encode");
            let (_, id, tenant, back) = decode_request_versioned(&bytes).expect("decode");
            assert_eq!((id, tenant), (i as u64, None));
            assert_eq!(back.class, Class::Bulk);
            assert_eq!(back.deadline, Some(Duration::from_micros(777)));
            assert_eq!(back.op.kind(), req.op.kind());
            // Operand payloads survive: re-encoding is byte-identical.
            assert_eq!(
                encode_request_v3(i as u64, None, &back).expect("re-encode"),
                bytes
            );
        }
    }

    #[test]
    fn bad_tenant_labels_are_rejected_both_ways() {
        let (a, _) = ct_pair();
        let req = Request::new(ServeOp::Rescale(a));
        let long = "x".repeat(wd_ckks::wire::MAX_LABEL_BYTES + 1);
        assert!(encode_request_v3(0, Some(&long), &req).is_err());
        // Declared label length running past the buffer is truncation
        // (resealed, so the parser — not the checksum — is what objects).
        let mut runaway = encode_request_v3(0, Some("a"), &req).expect("encode");
        runaway[14] = 200; // label length byte (after 4 magic + 1 ver + 1 kind + 8 id)
        assert!(matches!(
            decode_request_versioned(&reseal(runaway)),
            Err(CkksError::WireDecode(_))
        ));
    }

    #[test]
    fn v3_frames_round_trip_and_flag_corruption_before_parsing() {
        use wd_fault::WdError;
        let (a, b) = ct_pair();
        let req =
            Request::bulk(ServeOp::HMult(a.clone(), b)).with_deadline(Duration::from_micros(9));
        // Tenant-carrying and default-tenant v3 frames round trip.
        let v3 = encode_request_v3(7, Some("alice"), &req).expect("encode v3");
        let (ver, id, tenant, back) = decode_request_versioned(&v3).expect("decode v3");
        assert_eq!((ver, id, tenant.as_deref()), (3, 7, Some("alice")));
        assert_eq!(back.op.kind(), req.op.kind());
        let bare = encode_request_v3(8, None, &req).expect("encode bare v3");
        let (ver, id, tenant, _) = decode_request_versioned(&bare).expect("decode bare v3");
        assert_eq!((ver, id, tenant), (3, 8, None), "empty label = default");
        // A flipped payload byte is caught by the checksum, with the typed
        // integrity error — before any operand parsing.
        let mut corrupt = v3.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(
            matches!(
                decode_request_versioned(&corrupt),
                Err(WdError::IntegrityViolation { .. })
            ),
            "payload flip must be an integrity violation"
        );
        // So is a flipped trailer byte.
        let mut bad_trailer = v3.clone();
        *bad_trailer.last_mut().expect("nonempty") ^= 1;
        assert!(matches!(
            decode_request_versioned(&bad_trailer),
            Err(WdError::IntegrityViolation { .. })
        ));
        // v3 responses: round trip, corruption detection, version echo.
        let ok = WireResponse {
            id: 42,
            result: Ok(a),
            waited_us: 5,
            batch_size: 2,
            trigger: Some(FlushTrigger::Drain),
        };
        let bytes = encode_response_v3(&ok).expect("encode v3 response");
        assert_eq!(decode_response(&bytes).expect("v3 response"), ok);
        let mut corrupt = bytes;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        assert!(matches!(
            decode_response(&corrupt),
            Err(WdError::IntegrityViolation { .. })
        ));
        // peek_kind routes without decoding.
        assert_eq!(peek_kind(&v3), Some(KIND_REQUEST));
        assert_eq!(
            peek_kind(
                &encode_response_v3(&WireResponse {
                    id: 0,
                    result: Err("e".into()),
                    waited_us: 0,
                    batch_size: 0,
                    trigger: None,
                })
                .expect("encode")
            ),
            Some(KIND_RESPONSE)
        );
        assert_eq!(peek_kind(b"WDSV"), None);
        assert_eq!(peek_kind(b"XXXXXX"), None);
    }

    /// A HEALTH report with two tenant lines (breaker on and off).
    fn sample_report() -> HealthReport {
        HealthReport {
            queue_depth: 3,
            workers: 2,
            worker_restarts: 1,
            degraded: false,
            keycache_resident_bytes: 4096,
            keycache_budget_bytes: 1 << 20,
            keycache_quarantined: 2,
            tenants: vec![
                TenantHealth {
                    id: "alice".into(),
                    breaker: Some("open".into()),
                    in_flight: 5,
                },
                TenantHealth {
                    id: "bob".into(),
                    breaker: None,
                    in_flight: 0,
                },
            ],
        }
    }

    #[test]
    fn every_v3_frame_survives_truncate_flip_and_extend_at_every_offset() {
        let (a, b) = ct_pair();
        let req = Request::new(ServeOp::HSub(a.clone(), b.clone()))
            .with_deadline(Duration::from_micros(5));
        let good = encode_request_v3(42, Some("alice"), &req).expect("encode");
        assert!(
            good.len() <= good.capacity() && good.capacity() - good.len() < FRAME_OVERHEAD_MAX,
            "the encoder reserves the frame once, and tightly"
        );
        let (ver, id, tenant, back) = decode_request_versioned(&good).expect("decode");
        assert_eq!(
            (ver, id, tenant.as_deref()),
            (VERSION_GUARD, 42, Some("alice"))
        );
        assert!(matches!(back.op, ServeOp::HSub(x, y) if x == a && y == b));
        let response = |result| WireResponse {
            id: 43,
            result,
            waited_us: 1234,
            batch_size: 8,
            trigger: Some(FlushTrigger::Size),
        };
        type Decoder = fn(&[u8]) -> Result<(), CkksError>;
        let inputs: [(&str, Vec<u8>, Decoder); 5] = [
            ("request", good, |f| decode_request_versioned(f).map(drop)),
            (
                "ciphertext response",
                encode_response_v3(&response(Ok(a))).expect("encode"),
                |f| decode_response(f).map(drop),
            ),
            (
                "error response",
                encode_response_v3(&response(Err("deadline exceeded".into()))).expect("encode"),
                |f| decode_response(f).map(drop),
            ),
            ("HEALTH probe", encode_health_request(17), |f| {
                decode_health_request(f).map(drop)
            }),
            (
                "HEALTH report",
                encode_health_report(17, &sample_report()).expect("encode"),
                |f| decode_health_report(f).map(drop),
            ),
        ];
        for (name, good, decode) in inputs {
            decode(&good).unwrap_or_else(|e| panic!("{name}: {e}"));
            let typed = |r: Result<(), CkksError>, what: &str| match r {
                Ok(()) => panic!("{name}, {what}: decoded"),
                Err(CkksError::WireDecode(_)) | Err(CkksError::IntegrityViolation { .. }) => {}
                Err(e) => panic!("{name}, {what}: untyped error {e:?}"),
            };
            let mut buf = good.clone();
            for at in 0..good.len() {
                typed(decode(&good[..at]), &format!("cut {at}"));
                // The trailer covers every byte: no flip anywhere may pass.
                for bit in 0u8..8 {
                    buf[at] ^= 1 << bit;
                    typed(decode(&buf), &format!("flip {at}.{bit}"));
                    buf[at] ^= 1 << bit;
                }
            }
            for extra in [1usize, 7, 8, 9, 64] {
                let mut long = good.clone();
                long.resize(good.len() + extra, 0xA5);
                typed(decode(&long), &format!("extend {extra}"));
            }
        }
    }

    #[test]
    fn health_frames_round_trip_and_verify() {
        use wd_fault::WdError;
        let probe = encode_health_request(17);
        assert_eq!(peek_kind(&probe), Some(KIND_HEALTH_REQUEST));
        assert_eq!(decode_health_request(&probe).expect("probe"), 17);
        let mut corrupt = probe;
        corrupt[6] ^= 1; // id byte
        assert!(matches!(
            decode_health_request(&corrupt),
            Err(WdError::IntegrityViolation { .. })
        ));
        let report = sample_report();
        let bytes = encode_health_report(17, &report).expect("encode report");
        assert_eq!(peek_kind(&bytes), Some(KIND_HEALTH_RESPONSE));
        let (id, back) = decode_health_report(&bytes).expect("decode report");
        assert_eq!((id, &back), (17, &report));
        // An unknown breaker label is rejected even with a valid checksum.
        let weird = HealthReport {
            tenants: vec![TenantHealth {
                id: "t".into(),
                breaker: Some("zzz".into()),
                in_flight: 0,
            }],
            ..HealthReport::default()
        };
        let bytes = encode_health_report(0, &weird).expect("encode");
        assert!(matches!(
            decode_health_report(&bytes),
            Err(CkksError::WireDecode(_))
        ));
        // Kind confusion between the two health kinds is typed.
        let probe = encode_health_request(1);
        assert!(decode_health_report(&probe).is_err());
    }

    #[test]
    fn negative_rotation_amounts_survive() {
        let (a, _) = ct_pair();
        let req = Request::new(ServeOp::HRotate(a, -7));
        let bytes = encode_request_v3(0, None, &req).expect("encode");
        let (_, _, _, back) = decode_request_versioned(&bytes).expect("decode");
        match back.op {
            ServeOp::HRotate(_, r) => assert_eq!(r, -7),
            op => panic!("wrong op {:?}", op.kind()),
        }
    }

    #[test]
    fn ok_and_err_responses_round_trip() {
        let (a, _) = ct_pair();
        let ok = WireResponse {
            id: 42,
            result: Ok(a),
            waited_us: 1234,
            batch_size: 8,
            trigger: Some(FlushTrigger::Size),
        };
        assert_eq!(
            decode_response(&encode_response_v3(&ok).expect("encode ok")).expect("ok"),
            ok
        );
        let err = WireResponse {
            id: 43,
            result: Err("deadline exceeded after 99 us in queue".into()),
            waited_us: 99,
            batch_size: 0,
            trigger: None,
        };
        assert_eq!(
            decode_response(&encode_response_v3(&err).expect("encode err")).expect("err"),
            err
        );
    }

    #[test]
    fn every_flush_trigger_round_trips_and_an_unknown_code_is_typed() {
        let response = |trigger| WireResponse {
            id: 44,
            result: Err("e".into()),
            waited_us: 7,
            batch_size: 1,
            trigger,
        };
        for trigger in [
            None,
            Some(FlushTrigger::Size),
            Some(FlushTrigger::Linger),
            Some(FlushTrigger::Drain),
            Some(FlushTrigger::Idle),
        ] {
            let frame = encode_response_v3(&response(trigger)).expect("encode");
            assert_eq!(
                decode_response(&frame).expect("decode").trigger,
                trigger,
                "{trigger:?}"
            );
        }
        // The trigger byte follows the 14-byte envelope, the status byte,
        // waited_us and batch_size. Code 5 names no trigger: under a valid
        // checksum it is still the typed decode error.
        let mut frame = encode_response_v3(&response(Some(FlushTrigger::Idle))).expect("encode");
        const TRIGGER_AT: usize = 14 + 1 + 8 + 4;
        assert_eq!(frame[TRIGGER_AT], 4, "Idle is wire code 4");
        frame[TRIGGER_AT] = 5;
        match decode_response(&reseal(frame)) {
            Err(CkksError::WireDecode(msg)) => assert!(msg.contains("trigger tag 5"), "{msg}"),
            other => panic!("expected a typed decode error, got {other:?}"),
        }
    }

    #[test]
    fn oversize_wire_counts_are_typed_errors_not_clamps() {
        // A batch size one past the u32 field used to clamp to u32::MAX and
        // decode as a different, plausible value on the far side. Now the
        // encoder refuses it with the typed wire error.
        let over = WireResponse {
            id: 1,
            result: Err("e".into()),
            waited_us: 0,
            batch_size: u32::MAX as usize + 1,
            trigger: None,
        };
        match encode_response_v3(&over) {
            Err(CkksError::WireDecode(msg)) => {
                assert!(msg.contains("batch size"), "msg: {msg}")
            }
            other => panic!("expected a typed encode error, got {other:?}"),
        }
        // The exact boundary value still encodes and round trips.
        let max = WireResponse {
            id: 2,
            result: Err("e".into()),
            waited_us: 0,
            batch_size: u32::MAX as usize,
            trigger: None,
        };
        let bytes = encode_response_v3(&max).expect("boundary encodes");
        assert_eq!(
            decode_response(&bytes)
                .expect("boundary decodes")
                .batch_size,
            u32::MAX as usize
        );
    }

    #[test]
    fn bad_magic_version_kind_and_truncation_are_typed_errors() {
        let (a, _) = ct_pair();
        let good = encode_request_v3(1, None, &Request::new(ServeOp::Rescale(a))).expect("encode");
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_request_versioned(&bad),
            Err(CkksError::WireDecode(_))
        ));
        // So is any version byte but 3, the retired 1 and 2 included: it is
        // refused before the checksum is even looked at.
        for version in [1u8, 2, 9] {
            let mut ver = good.clone();
            ver[4] = version;
            assert!(matches!(
                decode_request_versioned(&ver),
                Err(CkksError::WireDecode(msg)) if msg.contains("unsupported serve frame version")
            ));
        }
        // A request frame fed to the response decoder is a kind error.
        assert!(decode_response(&good).is_err());
        // Cuts inside the envelope are plain truncation (later cuts fail
        // the checksum; the every-offset test above covers those).
        for cut in [0usize, 3, 7, 13] {
            assert!(
                matches!(
                    decode_request_versioned(&good[..cut]),
                    Err(CkksError::WireDecode(_))
                ),
                "cut at {cut}"
            );
        }
        // Trailing garbage under a valid checksum is rejected too.
        let mut long = good;
        long.insert(long.len() - 8, 0);
        assert!(matches!(
            decode_request_versioned(&reseal(long)),
            Err(CkksError::WireDecode(_))
        ));
    }
}
