//! The TCP front-end: a dependency-free `std::net` listener speaking
//! length-prefixed [`crate::wire`] frames into [`Server::submit_as`].
//!
//! FHE serving is inherently remote — the whole point is that an untrusted
//! server computes on ciphertexts it cannot read — and this module is the
//! socket the wire codec was built for. Deliberately boring engineering:
//!
//! - **Transport framing**: each wire frame crosses the socket as
//!   `u32 LE length | frame bytes`. A declared length above
//!   [`NetConfig::max_frame_bytes`] is refused with an error response and
//!   the connection is closed (the stream can no longer be trusted to be
//!   aligned). Short reads and split frames are handled by plain
//!   read-until-complete loops; a peer that stalls **mid-frame** past the
//!   io timeout is dropped (slow-loris defense), while a peer idle
//!   **between** frames is kept — idle ticks double as the shutdown poll.
//! - **Thread-per-connection** with a hard cap ([`NetConfig::max_conns`]):
//!   a connection over the cap receives one error frame and is closed —
//!   admission control at the socket layer, mirroring `QueueFull` at the
//!   queue layer.
//! - **Strict request→response order per connection**: the handler answers
//!   each frame before reading the next, so a client can never deadlock on
//!   an unread response. Concurrency (and batch formation) comes from many
//!   connections, which is how real multi-tenant traffic arrives anyway.
//! - **Clean drain**: [`NetServer::shutdown`] stops the accept loop, lets
//!   every in-flight request finish (handlers exit at their next idle
//!   tick), and joins every thread. Composed with [`Server::drain`] this
//!   gives the SIGTERM contract: zero accepted requests lost.
//! - **One frame version + HEALTH**: every frame in either direction is a
//!   checksummed v3 frame — responses, refusals and decode-error answers
//!   included — and a HEALTH probe is served straight from
//!   [`Server::health`] without entering the request queue.
//! - **Poisoned-connection client**: [`NetClient`] tracks partial writes;
//!   any transport or protocol failure poisons the connection and the next
//!   call reconnects instead of reusing a misaligned stream.
//! - **Reused frame buffers**: each server connection and each
//!   [`NetClient`] keeps one inbound and one outbound frame buffer for its
//!   whole life. A frame is read straight into the inbound one and encoded
//!   straight into the outbound one (`read_frame_into`,
//!   `wire::encode_request_v3_into`, `wire::encode_response_v3_into`), so
//!   once the buffers have grown to the traffic's frames a request
//!   allocates no frame memory on either end. A buffer that an oversized
//!   frame grew past [`KEPT_FRAME_BYTES`] is released as soon as that frame
//!   is done with. [`NetStats::buffer_grows`] and
//!   [`NetClient::buffer_grows`] count every time a buffer had to grow.
//!   The decoded operands live in `wd_ckks::wire::wire_pool`, the other
//!   half of the steady state.
//!
//! Responses carry the **client's** wire id (not the server's internal
//! sequence number), so clients can correlate however they number frames.

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use wd_fault::WdError;

use crate::recover;
use crate::request::Request;
use crate::server::Server;
use crate::tenant::DEFAULT_TENANT;
use crate::wire::{self, WireResponse};

/// Default cap on one transport frame (16 MiB — a SET-E ciphertext frame
/// is ~2 MiB, so this clears every legitimate request with margin).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Bytes a reused frame buffer keeps between frames. A SET-B request
/// frame is about 0.9 MiB; a buffer that a larger frame grew past this cap
/// is released once that frame is answered, so one frame near
/// [`MAX_FRAME_BYTES`] cannot pin that much memory per connection.
pub const KEPT_FRAME_BYTES: usize = 4 << 20;

/// Network front-end configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Address to bind (`host:port`; the default `127.0.0.1:0` is
    /// loopback on an OS-picked port — read it back from
    /// [`NetServer::local_addr`]). An unbindable address surfaces as
    /// [`NetServer::start`]'s io error.
    pub addr: String,
    /// Hard cap on concurrent connections.
    pub max_conns: usize,
    /// Socket read/write timeout; also the shutdown-poll granularity.
    pub io_timeout: Duration,
    /// Hard cap on one transport frame's declared length.
    pub max_frame_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_conns: 32,
            io_timeout: Duration::from_millis(500),
            max_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

/// Lifetime socket counters, snapshot by [`NetServer::stats`] and returned
/// by [`NetServer::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections accepted and handled.
    pub accepted: u64,
    /// Connections refused at the cap.
    pub refused: u64,
    /// Transport frames successfully read.
    pub frames: u64,
    /// Frames that failed to decode (or declared an over-cap length).
    pub decode_errors: u64,
    /// Times a connection's inbound or outbound frame buffer had to grow:
    /// its first frame, a larger frame, or the first frame after an
    /// oversized one released it. Flat under steady traffic.
    pub buffer_grows: u64,
}

#[derive(Debug, Default)]
struct NetCounters {
    accepted: AtomicU64,
    refused: AtomicU64,
    frames: AtomicU64,
    decode_errors: AtomicU64,
    buffer_grows: AtomicU64,
}

impl NetCounters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            buffer_grows: self.buffer_grows.load(Ordering::Relaxed),
        }
    }
}

/// One connection end's reused frame buffer (see the module docs).
#[derive(Debug, Default)]
struct FrameBuf {
    bytes: Vec<u8>,
    /// Times [`FrameBuf::fill`] had to grow the buffer.
    grows: u64,
}

impl FrameBuf {
    /// Runs `write`, which empties and refills the buffer, counting a grow
    /// when the buffer had to allocate for it.
    fn fill<T>(&mut self, write: impl FnOnce(&mut Vec<u8>) -> T) -> T {
        let before = self.bytes.capacity();
        let out = write(&mut self.bytes);
        if self.bytes.capacity() != before {
            self.grows += 1;
        }
        out
    }

    /// Moves the grows counted so far into a server's shared counter.
    fn publish(&mut self, to: &AtomicU64) {
        to.fetch_add(std::mem::take(&mut self.grows), Ordering::Relaxed);
    }

    /// Done with the frame: release the memory if an oversized frame grew
    /// the buffer past [`KEPT_FRAME_BYTES`].
    fn settle(&mut self) {
        if self.bytes.capacity() > KEPT_FRAME_BYTES {
            self.bytes = Vec::new();
        }
    }
}

/// The TCP front-end: an accept loop plus one handler thread per live
/// connection, all speaking into a shared [`Server`].
#[derive(Debug)]
pub struct NetServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: Arc<NetCounters>,
}

impl NetServer {
    /// Binds `config.addr` and starts accepting connections into `server`.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim, when the address is malformed or taken.
    pub fn start(server: Arc<Server>, config: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(NetCounters::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("wd-serve-accept".into())
                .spawn(move || accept_loop(&listener, &server, &config, &stop, &conns, &counters))
                .expect("spawn wd-serve accept loop")
        };
        wd_trace::event("serve", "net.listen", &[("addr", local.to_string())]);
        Ok(Self {
            local,
            stop,
            accept: Some(accept),
            conns,
            counters,
        })
    }

    /// The bound address (resolves the OS-picked port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A snapshot of the socket counters.
    pub fn stats(&self) -> NetStats {
        self.counters.snapshot()
    }

    /// Stops accepting, lets in-flight requests finish, joins every
    /// handler, and returns the final socket counters. The underlying
    /// [`Server`] is **not** drained — compose with [`Server::drain`] for
    /// the full SIGTERM-style sequence (socket first, then queue).
    pub fn shutdown(mut self) -> NetStats {
        self.stop_threads();
        self.counters.snapshot()
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *recover(self.conns.lock()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_threads();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    server: &Arc<Server>,
    config: &NetConfig,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: &Arc<NetCounters>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
            Ok((stream, peer)) => {
                // The accepted socket must block (the listener does not).
                let _ = stream.set_nonblocking(false);
                if active.load(Ordering::SeqCst) >= config.max_conns {
                    counters.refused.fetch_add(1, Ordering::Relaxed);
                    wd_trace::counter("serve.net.refused", 1);
                    refuse_connection(stream, config);
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                wd_trace::counter("serve.net.accepted", 1);
                let server = Arc::clone(server);
                let config = config.clone();
                let stop = Arc::clone(stop);
                let counters = Arc::clone(counters);
                let active = Arc::clone(&active);
                let handle = std::thread::Builder::new()
                    .name(format!("wd-serve-conn-{peer}"))
                    .spawn(move || {
                        handle_connection(stream, &server, &config, &stop, &counters);
                        active.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn wd-serve connection handler");
                let mut held = recover(conns.lock());
                // Reap finished handlers so a long-lived listener does not
                // accumulate joined-but-unfreed threads.
                held.retain(|h| !h.is_finished());
                held.push(handle);
            }
        }
    }
}

/// Over-cap connection: answer with one error frame, then close.
fn refuse_connection(mut stream: TcpStream, config: &NetConfig) {
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let _ = write_error_frame(
        &mut stream,
        0,
        &format!("connection limit ({}) reached", config.max_conns),
    );
}

fn error_response(id: u64, msg: &str) -> WireResponse {
    WireResponse {
        id,
        result: Err(msg.to_string()),
        waited_us: 0,
        batch_size: 0,
        trigger: None,
    }
}

/// Encodes and writes an error response (checksummed like every other
/// frame), reporting whether the connection is still usable. Encoding a
/// locally-built error response can only fail on a message over the u32
/// field — treat that as unusable rather than panic in the serving loop.
fn write_error_frame(stream: &mut TcpStream, id: u64, msg: &str) -> bool {
    match wire::encode_response_v3(&error_response(id, msg)) {
        Ok(bytes) => write_frame(stream, &bytes).is_ok(),
        Err(_) => false,
    }
}

fn handle_connection(
    mut stream: TcpStream,
    server: &Arc<Server>,
    config: &NetConfig,
    stop: &AtomicBool,
    counters: &NetCounters,
) {
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let _ = stream.set_nodelay(true);
    let (mut inbound, mut outbound) = (FrameBuf::default(), FrameBuf::default());
    loop {
        let read = inbound
            .fill(|buf| read_frame_idle_aware(&mut stream, config.max_frame_bytes, stop, buf));
        match read {
            // Clean EOF, or shutdown observed while idle.
            Ok(false) => break,
            Ok(true) => {
                counters.frames.fetch_add(1, Ordering::Relaxed);
                wd_trace::counter("serve.net.frames", 1);
                inbound.publish(&counters.buffer_grows);
                let usable =
                    answer_frame(&mut stream, server, counters, &inbound.bytes, &mut outbound);
                inbound.settle();
                outbound.settle();
                if !usable {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized declared length: refuse loudly, then close.
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                wd_trace::counter("serve.net.decode_errors", 1);
                let _ = write_error_frame(&mut stream, 0, &e.to_string());
                break;
            }
            // Slow-loris mid-frame stall, reset, or any other io failure.
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Answers one decoded-length frame: a HEALTH probe is served from
/// [`Server::health`] without touching the request queue; anything else is
/// a request, checksum-verified, decoded and answered, its response encoded
/// into the connection's `outbound` buffer. Returns whether the connection
/// is still usable.
fn answer_frame(
    stream: &mut TcpStream,
    server: &Arc<Server>,
    counters: &NetCounters,
    frame: &[u8],
    outbound: &mut FrameBuf,
) -> bool {
    if wire::peek_kind(frame) == Some(wire::KIND_HEALTH_REQUEST) {
        return match wire::decode_health_request(frame) {
            Err(e) => {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                wd_trace::counter("serve.net.decode_errors", 1);
                let _ = write_error_frame(stream, 0, &e.to_string());
                false
            }
            Ok(id) => {
                wd_trace::counter("serve.net.health", 1);
                match wire::encode_health_report(id, &server.health()) {
                    Ok(bytes) => write_frame(stream, &bytes).is_ok(),
                    Err(_) => false,
                }
            }
        };
    }
    match wire::decode_request_versioned(frame) {
        Err(e) => {
            // The stream may be misaligned after a bad frame (and a failed
            // checksum means *nothing* in it can be trusted): answer (the
            // length prefix was still sound) and close rather than guess at
            // realignment.
            counters.decode_errors.fetch_add(1, Ordering::Relaxed);
            wd_trace::counter("serve.net.decode_errors", 1);
            let _ = write_error_frame(stream, 0, &e.to_string());
            false
        }
        Ok((_ver, wire_id, tenant, req)) => {
            let tenant = tenant.unwrap_or_else(|| DEFAULT_TENANT.to_string());
            let resp = match server.submit_as(&tenant, req) {
                Ok(ticket) => {
                    let mut w = WireResponse::of(ticket.wait());
                    // Clients correlate by their own numbering.
                    w.id = wire_id;
                    w
                }
                // Admission errors (quota, QueueFull, unknown tenant, an
                // open circuit breaker, an operand off the tenant's chain)
                // answer per-request; the connection stays usable.
                Err(e) => error_response(wire_id, &e.to_string()),
            };
            let encoded = outbound.fill(|out| wire::encode_response_v3_into(out, &resp));
            // Counted before the response leaves, so a client that has it
            // also sees the count.
            outbound.publish(&counters.buffer_grows);
            match encoded {
                Ok(()) => write_frame(stream, &outbound.bytes).is_ok(),
                // The response itself does not fit the wire's u32 fields:
                // answer with the typed error text instead of a silently
                // clamped (and therefore wrong) frame.
                Err(e) => write_error_frame(stream, wire_id, &e.to_string()),
            }
        }
    }
}

/// Writes one `u32 LE length | bytes` transport frame. The send side
/// enforces the same [`MAX_FRAME_BYTES`] cap as the read side **before
/// writing anything**: the old unchecked `len() as u32` cast silently
/// truncated the length prefix of a frame over `u32::MAX` bytes, desyncing
/// the stream for every frame after it.
///
/// # Errors
///
/// `InvalidData` when `frame` exceeds [`MAX_FRAME_BYTES`] (nothing is
/// written — the stream stays aligned); any io error from the underlying
/// writer, verbatim.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    if frame.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "outbound frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                frame.len()
            ),
        ));
    }
    write_frame_tracked(w, frame).map_err(|(_, e)| e)
}

/// Reads one transport frame, blocking until it is complete. Returns
/// `Ok(None)` on clean EOF before any byte. This is the **client-side**
/// read (no idle/stop semantics); the server uses the idle-aware variant.
///
/// # Errors
///
/// `InvalidData` when the declared length exceeds `max`; `UnexpectedEof`
/// on truncation; any other io error verbatim.
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut frame = Vec::new();
    Ok(read_frame_into(r, max, &mut frame)?.then_some(frame))
}

/// [`read_frame`] into `buf`, replacing what it held: `Ok(true)` when a
/// frame was read, `Ok(false)` on clean EOF before any byte. A buffer
/// reused across frames allocates only when a frame outgrows it.
///
/// # Errors
///
/// As [`read_frame`]; `buf` then holds no valid frame.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    max: usize,
    buf: &mut Vec<u8>,
) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(false),
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    read_frame_body(r, len_buf, max, buf)?;
    Ok(true)
}

fn read_frame_body(
    r: &mut impl Read,
    len_buf: [u8; 4],
    max: usize,
    frame: &mut Vec<u8>,
) -> io::Result<()> {
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte cap"),
        ));
    }
    // Read into reserved, not zero-filled, capacity. `take` bounds the read
    // at the declared length; a body that ends early is still a truncated
    // frame, and a timeout mid-body still surfaces as its io error.
    frame.clear();
    frame.reserve_exact(len);
    let got = r.take(len as u64).read_to_end(frame)?;
    if got < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// Whether an io error is the read-timeout signal (spelled `WouldBlock` or
/// `TimedOut` depending on platform).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The server-side frame read into `buf`: a timeout with **zero bytes
/// read** is an idle tick (keep waiting, unless `stop` was set — then
/// `Ok(false)`); a timeout **mid-header or mid-body** is a slow-loris stall
/// and errors out.
fn read_frame_idle_aware(
    stream: &mut TcpStream,
    max: usize,
    stop: &AtomicBool,
    buf: &mut Vec<u8>,
) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false) // clean EOF between frames
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) && got == 0 => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(false);
                }
                // Idle between frames: keep waiting.
            }
            Err(e) => return Err(e), // mid-header stall or hard failure
        }
    }
    // The body must keep arriving: each io timeout window with no progress
    // drops the peer. (read_exact gives up at the first timeout, which is
    // exactly the per-window progress requirement.)
    read_frame_body(stream, len_buf, max, buf)?;
    Ok(true)
}

/// Writes the `u32 LE length | frame` transport frame without building it:
/// prefix and body go out through one vectored write (one segment on a
/// `TCP_NODELAY` socket, where two plain writes made two). On failure it
/// reports **how many bytes actually left**. `Write::write_all` discards
/// that count, which is exactly the information a framed client needs: a
/// failure at 0 bytes leaves the stream aligned, a failure mid-frame leaves
/// the peer holding half a length-prefixed frame and the connection
/// unusable. The caller has already checked the frame against the cap.
fn write_frame_tracked(w: &mut impl Write, frame: &[u8]) -> Result<(), (usize, io::Error)> {
    let prefix = (frame.len() as u32).to_le_bytes();
    let total = prefix.len() + frame.len();
    let mut sent = 0usize;
    while sent < total {
        let wrote = if sent < prefix.len() {
            w.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(frame)])
        } else {
            w.write(&frame[sent - prefix.len()..])
        };
        match wrote {
            Ok(0) => return Err((sent, io::ErrorKind::WriteZero.into())),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err((sent, e)),
        }
    }
    w.flush().map_err(|e| (sent, e))
}

/// A minimal blocking client for the transport: one request frame out, one
/// response frame back, in order. Used by the drills, benches and tests;
/// production clients only need to reproduce the framing.
///
/// **Failure discipline**: any transport or protocol failure — a partial
/// write that left half a frame on the wire, a recv timeout, a response
/// that fails to decode or answers the wrong id — **poisons** the
/// connection. The failing call returns a typed [`WdError::WireDecode`]
/// naming the poison, and the *next* call transparently reconnects instead
/// of resuming a stream whose framing can no longer be trusted. (The old
/// behavior — keep writing into a misaligned stream — made every
/// subsequent call fail with confusing decode errors on the server side.)
#[derive(Debug)]
pub struct NetClient {
    addr: SocketAddr,
    io_timeout: Option<Duration>,
    /// `None` = poisoned (or never connected); the next call reconnects.
    stream: Option<TcpStream>,
    next_id: u64,
    reconnects: u64,
    inbound: FrameBuf,
    outbound: FrameBuf,
}

impl NetClient {
    /// Connects to a [`NetServer`] with no socket timeouts (blocking until
    /// the server answers).
    ///
    /// # Errors
    ///
    /// The connect error, verbatim.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, None)
    }

    /// Connects with a per-direction socket io timeout, after which a stuck
    /// send or recv fails (and poisons the connection) instead of blocking
    /// forever.
    ///
    /// # Errors
    ///
    /// The connect or socket-option error, verbatim.
    pub fn connect_with(addr: SocketAddr, io_timeout: Option<Duration>) -> io::Result<Self> {
        let mut client = Self {
            addr,
            io_timeout,
            stream: None,
            next_id: 0,
            reconnects: 0,
            inbound: FrameBuf::default(),
            outbound: FrameBuf::default(),
        };
        client.reconnect()?;
        Ok(client)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Whether the last call poisoned the connection (the next call will
    /// reconnect).
    pub fn is_poisoned(&self) -> bool {
        self.stream.is_none()
    }

    /// How many times a call found the connection poisoned and reconnected.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Times this client's inbound or outbound frame buffer had to grow
    /// (see [`NetStats::buffer_grows`]).
    pub fn buffer_grows(&self) -> u64 {
        self.inbound.grows + self.outbound.grows
    }

    fn poison<T>(&mut self, what: String) -> Result<T, WdError> {
        self.stream = None;
        Err(WdError::WireDecode(format!(
            "{what}; connection poisoned, the next call reconnects"
        )))
    }

    /// One framed round trip: `encode` the request into the outbound
    /// buffer, reconnect if poisoned, send it, read the response frame into
    /// the inbound buffer and `decode` it there. Any transport failure
    /// poisons the connection; an `encode` error returns before any byte
    /// leaves and does not.
    fn exchange<T>(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), WdError>,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, WdError> {
        self.outbound.fill(encode)?;
        let frame_len = self.outbound.bytes.len();
        // Send-side frame cap, checked before any byte leaves: an over-cap
        // frame would truncate its u32 length prefix and desync the stream.
        // Nothing was written, so the connection is NOT poisoned.
        if frame_len > MAX_FRAME_BYTES {
            self.outbound.settle();
            return Err(WdError::WireDecode(format!(
                "net send: frame of {frame_len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        if self.stream.is_none() {
            self.reconnects += 1;
            self.reconnect()
                .map_err(|e| WdError::WireDecode(format!("net reconnect: {e}")))?;
        }
        let total = 4 + frame_len;
        let stream = self.stream.as_mut().expect("connected above");
        let sent = write_frame_tracked(stream, &self.outbound.bytes);
        self.outbound.settle();
        if let Err((sent, e)) = sent {
            return if sent > 0 && sent < total {
                self.poison(format!(
                    "net send: partial write of {sent}/{total} bytes ({e})"
                ))
            } else {
                self.poison(format!("net send: {e}"))
            };
        }
        let stream = self.stream.as_mut().expect("connected above");
        let got = self
            .inbound
            .fill(|buf| read_frame_into(stream, MAX_FRAME_BYTES, buf));
        let out = match got {
            Ok(true) => Ok(decode(&self.inbound.bytes)),
            Ok(false) => self.poison("connection closed before response".into()),
            Err(e) => self.poison(format!("net recv: {e}")),
        };
        self.inbound.settle();
        out
    }

    /// Submits `req` as `tenant` (`None` = the default tenant) over a
    /// checksummed frame and blocks for the response, which comes back
    /// checksummed too: [`wire::decode_response`] verifies it end to end.
    ///
    /// # Errors
    ///
    /// [`WdError::WireDecode`] on framing/transport failure or a response
    /// that fails to decode, and [`WdError::IntegrityViolation`] when the
    /// response frame fails its checksum — all of which poison
    /// the connection (see the type docs). A *served* error (shed
    /// deadline, quota, …) is not an `Err` here — it arrives inside
    /// [`WireResponse::result`].
    pub fn call_checked(
        &mut self,
        tenant: Option<&str>,
        req: &Request,
    ) -> Result<WireResponse, WdError> {
        let id = self.next_id;
        self.next_id += 1;
        let resp = self.exchange(
            |out| wire::encode_request_v3_into(out, id, tenant, req),
            wire::decode_response,
        )?;
        let resp = match resp {
            Ok(r) => r,
            Err(e) => return self.poison(format!("net response: {e}")),
        };
        if resp.id != id {
            return self.poison(format!("response id {} for request id {id}", resp.id));
        }
        Ok(resp)
    }

    /// Asks the server for a [`wire::HealthReport`] (queue depth, worker
    /// liveness, breaker states, keycache residency) over a HEALTH
    /// frame. Served without touching the request queue, so it works even
    /// when admission is shedding.
    ///
    /// # Errors
    ///
    /// [`WdError::WireDecode`] on transport failure or a malformed report,
    /// [`WdError::IntegrityViolation`] on a checksum mismatch; both poison
    /// the connection.
    pub fn health(&mut self) -> Result<wire::HealthReport, WdError> {
        let id = self.next_id;
        self.next_id += 1;
        let report = self.exchange(
            |out| {
                out.clear();
                out.extend_from_slice(&wire::encode_health_request(id));
                Ok(())
            },
            wire::decode_health_report,
        )?;
        let (rid, report) = match report {
            Ok(v) => v,
            Err(e) => return self.poison(format!("net health: {e}")),
        };
        if rid != id {
            return self.poison(format!("health response id {rid} for request id {id}"));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_transport_round_trips_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        assert_eq!(&buf[..4], &5u32.to_le_bytes());
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 64).expect("read"),
            Some(b"hello".to_vec())
        );
        // EOF before any byte is a clean None.
        assert_eq!(read_frame(&mut r, 64).expect("eof"), None);
        // An over-cap declared length is InvalidData, not an allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(huge), 64).expect_err("cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated body is UnexpectedEof.
        let mut short = Vec::new();
        write_frame(&mut short, b"hello").expect("write");
        short.truncate(6);
        let err = read_frame(&mut io::Cursor::new(short), 64).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_reused_frame_buffer_grows_once_and_lets_an_oversized_frame_go() {
        let mut wire = Vec::new();
        for len in [100, 60, KEPT_FRAME_BYTES + 1, 60, 80] {
            write_frame(&mut wire, &vec![7u8; len]).expect("write");
        }
        let mut r = io::Cursor::new(wire);
        let mut buf = FrameBuf::default();
        let mut read = |buf: &mut FrameBuf| {
            let got = buf.fill(|b| read_frame_into(&mut r, MAX_FRAME_BYTES, b));
            assert!(got.expect("read"));
            let len = buf.bytes.len();
            buf.settle();
            (len, buf.grows)
        };
        // The first frame grows the buffer, a smaller one reuses it.
        assert_eq!(read(&mut buf), (100, 1));
        assert_eq!(read(&mut buf), (60, 1));
        // An oversized frame grows it, and its memory is let go after it.
        assert_eq!(read(&mut buf), (KEPT_FRAME_BYTES + 1, 2));
        assert_eq!(buf.bytes.capacity(), 0);
        assert_eq!(read(&mut buf), (60, 3));
        assert_eq!(
            read(&mut buf),
            (80, 4),
            "80 bytes outgrow the 60-byte buffer"
        );
        assert!(!read_frame_into(&mut r, MAX_FRAME_BYTES, &mut buf.bytes).expect("eof"));
    }

    #[test]
    fn write_frame_refuses_over_cap_frames_without_writing() {
        // Regression: `frame.len() as u32` was cast unchecked, so an
        // oversize frame silently truncated its length prefix and desynced
        // the stream. The cap must be enforced BEFORE any byte is written.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &huge).expect_err("over-cap frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(buf.is_empty(), "nothing may be written for a refused frame");
        // The largest legal frame still round-trips.
        let max = vec![7u8; 32];
        write_frame(&mut buf, &max).expect("legal frame");
        assert_eq!(&buf[..4], &32u32.to_le_bytes());
    }

    /// Accepts `limit` bytes, then fails every write with `TimedOut` — the
    /// shape of a kernel send buffer filling against a stalled peer.
    struct StallingWriter {
        limit: usize,
        written: usize,
    }

    impl Write for StallingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written >= self.limit {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let n = buf.len().min(self.limit - self.written);
            self.written += n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn tracked_write_reports_exactly_how_much_left() {
        // Full success passes every byte through.
        let mut ok = StallingWriter {
            limit: 1024,
            written: 0,
        };
        write_frame_tracked(&mut ok, &[7u8; 100]).expect("fits");
        assert_eq!(ok.written, 104, "prefix and body, nothing else");
        // A stall mid-buffer reports the exact byte count that escaped,
        // even across multiple short writes.
        let mut stall = StallingWriter {
            limit: 10,
            written: 0,
        };
        let (sent, err) = write_frame_tracked(&mut stall, &[7u8; 100]).expect_err("stalls");
        assert_eq!(sent, 10);
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // A stall before any byte reports 0 — the stream is still aligned.
        let mut dead = StallingWriter {
            limit: 0,
            written: 0,
        };
        let (sent, _) = write_frame_tracked(&mut dead, &[7u8; 8]).expect_err("dead");
        assert_eq!(sent, 0);
        // A writer that takes one byte at a time still gets a whole,
        // correctly ordered frame (the vectored path resumes mid-prefix).
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(&buf[..1]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut trickle = Trickle(Vec::new());
        write_frame_tracked(&mut trickle, b"hello").expect("trickles through");
        let mut whole = Vec::new();
        write_frame(&mut whole, b"hello").expect("write");
        assert_eq!(trickle.0, whole);
    }

    #[test]
    fn net_config_defaults_are_loopback_and_bounded() {
        let d = NetConfig::default();
        assert!(d.addr.starts_with("127.0.0.1"));
        assert!(d.max_conns >= 1);
        assert!(d.io_timeout >= Duration::from_millis(10));
        assert_eq!(d.max_frame_bytes, MAX_FRAME_BYTES);
    }
}
