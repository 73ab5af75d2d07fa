//! The nonblocking readiness-poll transport (DESIGN.md §14).
//!
//! One event-loop thread owns every socket: it `poll(2)`s the listener,
//! all client connections, and a self-pipe; parses requests incrementally
//! off nonblocking reads ([`crate::conn::ConnReader`]); and flushes
//! serialized responses in pipeline order. CPU-heavy work never runs on
//! this thread — parsed requests are dispatched to a fixed
//! [`cx_par::queue::WorkerPool`], and workers hand completed responses
//! back through the connection's shared outbox, waking the loop through
//! the self-pipe.
//!
//! Why `poll(2)` by hand: the workspace is dependency-free by policy, and
//! `std` exposes nonblocking sockets but no readiness API. `poll` is in
//! POSIX libc, which `std` already links on every Unix platform; one
//! 4-line `extern "C"` declaration is the entire foreign surface.
//!
//! Admission control happens *on the event loop*: when the number of
//! in-flight requests reaches [`ServerConfig::max_inflight`], newly parsed
//! requests are answered straight from the loop with a typed `overloaded`
//! 503 + `Retry-After` — they never occupy a worker, so the server keeps
//! shedding at line rate no matter how deep the overload. Slow-loris
//! connections are bounded the same way: a connection whose first request
//! hasn't fully arrived within [`ServerConfig::header_timeout`] is closed
//! by the loop without ever touching a worker.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{ConnReader, Outbox, ParsedRequest, ReadOutcome, Slot};
use crate::http::{Request, Response};

/// Everything the transport needs to know that isn't the handler.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads executing request handlers.
    pub workers: usize,
    /// Maximum simultaneous client connections; the listener stops
    /// accepting (clients queue in the kernel backlog) at the cap.
    pub max_connections: usize,
    /// Maximum requests dispatched-but-unfinished before the loop starts
    /// shedding with `overloaded` 503s.
    pub max_inflight: usize,
    /// How long a connection may take to deliver a complete request
    /// header block (slow-loris bound).
    pub header_timeout: Duration,
    /// How long an idle keep-alive connection is kept open.
    pub idle_timeout: Duration,
    /// How long shutdown waits for in-flight responses to flush before
    /// force-closing.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_connections: 1024,
            max_inflight: 256,
            header_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// The handler contract: one framed response per request.
pub type RequestHandler = dyn Fn(&Request) -> Response + Send + Sync;

// ---------------------------------------------------------------------------
// poll(2) binding — the entire foreign surface of the crate.

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

fn poll_wait(fds: &mut [PollFd], timeout: Duration) {
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // EINTR and friends just mean "recompute and poll again".
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `PollFd`s laid out as `struct pollfd`, so the pointer is valid for
    // reads and writes of exactly `fds.len()` entries — the `nfds` passed —
    // for the whole call; poll(2) writes only their `revents` and keeps no
    // pointer after it returns.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
}

// ---------------------------------------------------------------------------

/// State shared between the loop, its workers, and the [`ServerHandle`].
struct LoopShared {
    shutdown: AtomicBool,
    inflight: AtomicUsize,
    /// Write end of the self-pipe; workers poke it after publishing a
    /// response so the loop wakes immediately instead of on the next tick.
    wake_tx: Mutex<UnixStream>,
}

impl LoopShared {
    fn wake(&self) {
        if let Ok(w) = self.wake_tx.lock() {
            // A full pipe already guarantees a pending wakeup.
            let _ = (&*w).write(&[1u8]);
        }
    }
}

/// A running server: stops accepting, drains, and joins on [`ServerHandle::shutdown`]
/// (or on drop).
pub struct ServerHandle {
    port: u16,
    shared: Arc<LoopShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Blocks until the loop exits on its own (which only happens after a
    /// `shutdown()` from another thread) — used by the foreground
    /// [`crate::Server::serve`].
    pub fn wait(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Requests shutdown and blocks until the loop has stopped accepting,
    /// drained (or force-closed after the drain timeout) every in-flight
    /// response, joined its workers, and exited.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and runs the event loop on a background thread.
pub fn spawn(
    addr: &str,
    config: ServerConfig,
    handler: Arc<RequestHandler>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let shared = Arc::new(LoopShared {
        shutdown: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        wake_tx: Mutex::new(wake_tx),
    });
    let loop_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("cx-http-loop".into())
        .spawn(move || EventLoop::new(listener, wake_rx, config, handler, loop_shared).run())?;
    Ok(ServerHandle { port, shared, thread: Some(thread) })
}

/// One client connection as the loop sees it.
struct Conn {
    stream: TcpStream,
    reader: ConnReader,
    out: Arc<Mutex<Outbox>>,
    /// Bytes staged for the socket, flushed as POLLOUT allows.
    wbuf: Vec<u8>,
    /// Peer half-closed (read returned 0) — no more requests will come.
    read_closed: bool,
    /// A request with `Connection: close` semantics was parsed: stop
    /// reading and close once everything before it has flushed.
    close_after_seq: Option<u64>,
    /// When the connection was accepted or last completed a request —
    /// drives the header (slow-loris) and idle deadlines.
    last_progress: Instant,
    /// Whether bytes of a request have arrived that haven't formed a
    /// complete request yet (switches `last_progress` into header-deadline
    /// mode).
    mid_request: bool,
}

impl Conn {
    /// True once every dispatched response has fully flushed.
    fn drained(&self) -> bool {
        let out = lock(&self.out);
        out.slots.is_empty() && self.wbuf.is_empty()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    config: ServerConfig,
    handler: Arc<RequestHandler>,
    shared: Arc<LoopShared>,
    conns: HashMap<i32, Conn>,
    pool: Option<cx_par::queue::WorkerPool>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        config: ServerConfig,
        handler: Arc<RequestHandler>,
        shared: Arc<LoopShared>,
    ) -> Self {
        let pool = cx_par::queue::WorkerPool::new("cx-http", config.workers.max(1));
        Self {
            listener,
            wake_rx,
            config,
            handler,
            shared,
            conns: HashMap::new(),
            pool: Some(pool),
        }
    }

    fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        loop {
            let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
            if shutting_down && drain_started.is_none() {
                drain_started = Some(Instant::now());
            }
            if shutting_down {
                let expired = drain_started
                    .is_some_and(|t| t.elapsed() >= self.config.drain_timeout);
                if expired || self.conns.values().all(Conn::drained) {
                    break;
                }
            }

            // Build the poll set: self-pipe, listener (unless at the
            // connection cap or shutting down), then every connection.
            fds.clear();
            fds.push(PollFd { fd: self.wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
            let accepting =
                !shutting_down && self.conns.len() < self.config.max_connections;
            if accepting {
                fds.push(PollFd {
                    fd: self.listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
            }
            for (fd, conn) in &mut self.conns {
                // Always poll for readability, to notice EOF/RST early.
                let mut events = POLLIN;
                if !conn.wbuf.is_empty() || has_flushable(&conn.out) {
                    events |= POLLOUT;
                }
                fds.push(PollFd { fd: *fd, events, revents: 0 });
            }

            // A short tick bounds every timeout check (header deadlines,
            // idle closes) without per-deadline bookkeeping.
            poll_wait(&mut fds, Duration::from_millis(50));

            // Drain the self-pipe.
            if fds[0].revents & POLLIN != 0 {
                let mut sink = [0u8; 256];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }

            if accepting && fds.get(1).is_some_and(|f| f.revents & POLLIN != 0) {
                self.accept_new();
            }

            let now = Instant::now();
            let readable_writable: Vec<(i32, i16)> = fds
                .iter()
                .skip(if accepting { 2 } else { 1 })
                .map(|f| (f.fd, f.revents))
                .collect();
            let mut dead: Vec<i32> = Vec::new();
            for (fd, revents) in readable_writable {
                let Some(conn) = self.conns.get_mut(&fd) else { continue };
                let mut remove = false;
                if revents & (POLLERR | POLLHUP) != 0 && conn.drained() {
                    remove = true;
                }
                if !remove && revents & POLLIN != 0 {
                    remove = Self::handle_readable(
                        conn,
                        &self.config,
                        &self.handler,
                        &self.shared,
                        self.pool.as_ref().expect("pool lives until loop exit"),
                        shutting_down,
                    );
                }
                if !remove {
                    Self::pump_outbox(conn, now);
                    remove = Self::flush(conn);
                }
                if !remove && Self::conn_expired(conn, &self.config, now) {
                    remove = true;
                }
                if remove {
                    dead.push(fd);
                }
            }
            // Timers and outbox progress for connections with no events.
            let fds_seen: Vec<i32> = dead.clone();
            let mut also_dead: Vec<i32> = Vec::new();
            for (fd, conn) in &mut self.conns {
                if fds_seen.contains(fd) {
                    continue;
                }
                Self::pump_outbox(conn, now);
                if Self::flush(conn) || Self::conn_expired(conn, &self.config, now) {
                    also_dead.push(*fd);
                }
            }
            dead.extend(also_dead);
            for fd in dead {
                if self.conns.remove(&fd).is_some() {
                    cx_obs::metrics::gauge_add("cx_http_connections_open", -1);
                }
            }
        }
        // Join workers: the pool drains its queue.
        self.pool.take();
        for _ in self.conns.drain() {
            cx_obs::metrics::gauge_add("cx_http_connections_open", -1);
        }
    }

    fn accept_new(&mut self) {
        while self.conns.len() < self.config.max_connections {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    cx_obs::metrics::inc("cx_http_conns_accepted_total");
                    cx_obs::metrics::gauge_add("cx_http_connections_open", 1);
                    self.conns.insert(
                        fd,
                        Conn {
                            stream,
                            reader: ConnReader::new(),
                            out: Arc::default(),
                            wbuf: Vec::new(),
                            read_closed: false,
                            close_after_seq: None,
                            last_progress: Instant::now(),
                            mid_request: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Reads what's available, parses complete requests, dispatches or
    /// sheds them. Returns true when the connection should be dropped.
    fn handle_readable(
        conn: &mut Conn,
        config: &ServerConfig,
        handler: &Arc<RequestHandler>,
        shared: &Arc<LoopShared>,
        pool: &cx_par::queue::WorkerPool,
        shutting_down: bool,
    ) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.reader.push(&buf[..n]);
                    conn.mid_request = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        if conn.read_closed && conn.reader.pending_len() == 0 && !has_undelivered(&conn.out) {
            // Clean EOF with nothing outstanding.
            return conn.drained();
        }
        let mut parsed: Vec<ParsedRequest> = Vec::new();
        // Any requests parsed before a framing error are still served —
        // the rejection takes the outbox seq after them, so pipelined
        // responses never reorder.
        let outcome = conn.reader.drain(&mut parsed);
        for p in parsed {
            if shutting_down || conn.close_after_seq.is_some() {
                // Requests pipelined after `Connection: close` are dropped.
                break;
            }
            conn.last_progress = Instant::now();
            conn.mid_request = conn.reader.pending_len() > 0;
            let seq = {
                let mut out = lock(&conn.out);
                let seq = out.next_seq;
                out.next_seq += 1;
                seq
            };
            if p.close_after {
                conn.close_after_seq = Some(seq);
            }
            let inflight = shared.inflight.load(Ordering::Relaxed);
            if inflight >= config.max_inflight {
                // Shed on the loop thread — never occupies a worker.
                cx_obs::metrics::inc("cx_http_shed_total");
                let resp = crate::routes::shed_response(&p.request);
                let keep = p.close_after || conn.read_closed;
                lock(&conn.out)
                    .slots
                    .insert(seq, Slot::Ready(resp.to_bytes(!keep)));
                continue;
            }
            shared.inflight.fetch_add(1, Ordering::Relaxed);
            cx_obs::metrics::gauge_set(
                "cx_http_inflight",
                (inflight + 1) as i64,
            );
            lock(&conn.out).slots.insert(seq, Slot::Pending);
            let conn_out = Arc::clone(&conn.out);
            let loop_shared = Arc::clone(shared);
            let handler = Arc::clone(handler);
            let keep_alive = !p.close_after;
            let req = p.request;
            pool.execute(move || {
                let bytes = handler(&req).to_bytes(keep_alive);
                lock(&conn_out).slots.insert(seq, Slot::Ready(bytes));
                loop_shared.inflight.fetch_sub(1, Ordering::Relaxed);
                loop_shared.wake();
            });
        }
        match outcome {
            ReadOutcome::NeedMore => {
                if conn.reader.pending_len() == 0 {
                    conn.mid_request = false;
                    conn.last_progress = Instant::now();
                }
            }
            ReadOutcome::Malformed(status, msg) => {
                let mut out = lock(&conn.out);
                let seq = out.next_seq;
                out.next_seq += 1;
                out.slots.insert(seq, Slot::Ready(Response::error(status, msg).to_bytes(false)));
                drop(out);
                conn.read_closed = true;
                conn.close_after_seq = Some(seq);
                cx_obs::metrics::inc("cx_http_malformed_total");
            }
        }
        false
    }

    /// Moves in-order completed responses from the outbox into the
    /// socket buffer.
    fn pump_outbox(conn: &mut Conn, now: Instant) {
        let mut out = lock(&conn.out);
        loop {
            let seq = out.next_flush;
            match out.slots.get_mut(&seq) {
                Some(Slot::Ready(bytes)) => {
                    conn.wbuf.append(bytes);
                    out.slots.remove(&seq);
                    out.next_flush += 1;
                    conn.last_progress = now;
                }
                Some(Slot::Pending) | None => break,
            }
        }
    }

    /// Writes the socket buffer out. Returns true when the connection is
    /// finished (fully flushed + marked for close, or the peer vanished).
    fn flush(conn: &mut Conn) -> bool {
        while !conn.wbuf.is_empty() {
            match conn.stream.write(&conn.wbuf) {
                Ok(0) => return true,
                Ok(n) => {
                    conn.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true, // EPIPE/RST: peer is gone
            }
        }
        if conn.wbuf.is_empty() {
            let out = lock(&conn.out);
            let outstanding = !out.slots.is_empty();
            let past_close = conn
                .close_after_seq
                .is_some_and(|s| out.next_flush > s);
            drop(out);
            if past_close && !outstanding {
                return true;
            }
            if conn.read_closed && !outstanding {
                return true;
            }
        }
        false
    }

    /// Header (slow-loris) and idle deadlines.
    fn conn_expired(conn: &Conn, config: &ServerConfig, now: Instant) -> bool {
        let since = now.duration_since(conn.last_progress);
        if conn.mid_request {
            since >= config.header_timeout
        } else if !has_undelivered(&conn.out) && conn.wbuf.is_empty() {
            since >= config.idle_timeout
        } else {
            false
        }
    }
}

fn has_flushable(out: &Mutex<Outbox>) -> bool {
    let out = lock(out);
    matches!(out.slots.get(&out.next_flush), Some(Slot::Ready(_)))
}

fn has_undelivered(out: &Mutex<Outbox>) -> bool {
    !lock(out).slots.is_empty()
}

// Re-exported for lib.rs convenience.
pub use crate::conn::MAX_BODY_BYTES;
