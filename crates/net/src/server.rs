//! The readiness event loop: one thread owning accept, read framing,
//! and write backpressure for every connection, with request handling
//! delegated to a [`NetService`] (in practice: the CLI's worker pool and
//! `BatchScheduler`).
//!
//! ## Connection state machine
//!
//! ```text
//!            accept                    full line
//!   (new) ──────────▶ Idle ──bytes──▶ Reading ──────────▶ Dispatched
//!                      ▲                                       │
//!                      │ response flushed,            completion│
//!                      │ next line not buffered                 ▼
//!                      └───────────────────────────────── Writing
//!                                                               │
//!     refusal queued (shed / oversize / idle timeout /          │ close-after-
//!     request cap / drain) ──▶ Draining ──flushed──▶ Closed ◀───┘ flush, EOF,
//!                                                                 write error
//! ```
//!
//! * `Idle`/`Reading` — registered for read interest; bytes accumulate in
//!   a capped [`LineBuffer`].
//! * `Dispatched` — a complete line has been handed to the service; read
//!   interest is dropped so a pipelining client is backpressured by TCP
//!   instead of by unbounded buffering, and responses stay in order.
//! * `Writing` — the response (queued by a `Completion`) is being
//!   flushed; partial writes arm write interest instead of blocking.
//! * `Draining` — a terminal refusal line (`ERR busy…`, `ERR line too
//!   long`, `ERR idle timeout`, `ERR connection request limit`, `ERR
//!   shutting down`) is flushing; the connection closes after it.
//!
//! The loop never blocks on a socket: the only blocking call is
//! `epoll_wait`, and cross-thread work (worker completions, shutdown)
//! arrives via an `eventfd` [`Waker`].

use crate::framing::{LineBuffer, LineOverflow};
use crate::poller::{Interest, PollEvent, Poller, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one connection for the lifetime of the loop.
pub type ConnToken = u64;

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Why the loop is refusing a connection (the service renders the
/// protocol line so wording and jitter stay owned by the wire layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// At the concurrent-connection cap — `ERR busy retry_after_ms=…`.
    Busy,
    /// Request line exceeded the byte cap.
    LineTooLong,
    /// No complete request within the idle deadline.
    IdleTimeout,
    /// Per-connection request budget spent.
    ConnRequestLimit,
    /// Server is draining.
    ShuttingDown,
}

/// What the loop should do once a dispatched response is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Keep the connection open for the next request.
    Reply,
    /// Close after flushing the response (`QUIT`, fatal wire errors).
    Close,
    /// Flush the response, then begin a server-wide drain (`SHUTDOWN`).
    Shutdown,
    /// Close without writing anything — the dispatch stage panicked and
    /// the connection cannot be trusted with a half-built response.
    Abort,
}

/// A finished request from the dispatch stage.
#[derive(Debug)]
struct Completion {
    conn: ConnToken,
    line: String,
    after: After,
}

/// Loop-observed lifecycle notifications, so the service layer can keep
/// its own instruments (`serve.accepted`, `serve.shed`, …) in sync with
/// what the transport actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A connection was accepted and registered.
    Accepted,
    /// A connection was refused at the connection cap.
    Shed,
    /// A connection hit the idle deadline.
    IdleTimedOut,
    /// A request line exceeded the byte cap.
    Oversize,
    /// A response write failed hard.
    WriteError,
    /// A connection was torn down (always fires, whatever the reason).
    Closed,
    /// The listener hit a non-transient accept error; the loop is
    /// draining and will report the error when joined.
    AcceptFailed,
}

/// The dispatch stage fed by the loop.
///
/// `dispatch` runs on the loop thread and must not block: hand the line
/// to a worker pool / queue and return. The eventual answer comes back
/// through the [`Completions`] handle. Implementations must not panic
/// (wrap untrusted work in `catch_unwind` and answer [`After::Abort`]).
pub trait NetService: Send + Sync {
    /// A complete request line for `conn`. Exactly one completion must
    /// eventually be sent for it (or the connection idles until drain).
    fn dispatch(&self, conn: ConnToken, line: String);
    /// Renders the protocol line for a loop-side refusal.
    fn refusal_line(&self, refusal: Refusal) -> String;
    /// Lifecycle notification (default: ignore).
    fn on_event(&self, _event: NetEvent) {}
    /// A dispatched response was fully flushed to `conn` — the analog of
    /// "`send_line` returned Ok" in the threads backend, used for
    /// request budgets.
    fn on_response_written(&self, _conn: ConnToken) {}
}

/// Transport counters, registered as `net.*` instruments.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// `net.conns` — currently registered connections.
    pub conns: Arc<poe_obs::Gauge>,
    /// `net.accepted` — connections accepted and registered.
    pub accepted: Arc<poe_obs::Counter>,
    /// `net.readable` — read-readiness events handled.
    pub readable: Arc<poe_obs::Counter>,
    /// `net.writable` — write-readiness events handled.
    pub writable: Arc<poe_obs::Counter>,
    /// `net.wakeups` — eventfd wakeups (completions, shutdown).
    pub wakeups: Arc<poe_obs::Counter>,
    /// `net.shed` — connections refused at the cap.
    pub shed: Arc<poe_obs::Counter>,
    /// `net.wait_errors` — `epoll_wait` failures survived.
    pub wait_errors: Arc<poe_obs::Counter>,
}

impl NetMetrics {
    /// Registers the `net.*` instruments in `registry`.
    pub fn register(registry: &poe_obs::Registry) -> NetMetrics {
        NetMetrics {
            conns: registry.gauge("net.conns"),
            accepted: registry.counter("net.accepted"),
            readable: registry.counter("net.readable"),
            writable: registry.counter("net.writable"),
            wakeups: registry.counter("net.wakeups"),
            shed: registry.counter("net.shed"),
            wait_errors: registry.counter("net.wait_errors"),
        }
    }

    fn detached() -> NetMetrics {
        NetMetrics::register(&poe_obs::Registry::default())
    }
}

/// Event-loop tuning; mirrors the serving layer's connection policy.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Per-request-line byte cap (the protocol's 8 KiB).
    pub max_line_bytes: usize,
    /// Close connections with no complete request within this window.
    pub idle_timeout: Option<Duration>,
    /// Concurrent-connection cap; excess connections are shed with the
    /// service's `Busy` line.
    pub max_conns: usize,
    /// Per-connection request budget (`u64::MAX` = unlimited).
    pub max_conn_requests: u64,
    /// How long a drain may take before stragglers are force-closed.
    pub drain_deadline: Duration,
    /// `net.*` instruments (defaults to a detached registry).
    pub metrics: Option<NetMetrics>,
    /// Flight recorder for loop lifecycle events.
    pub flight: Option<Arc<poe_obs::FlightRecorder>>,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            max_line_bytes: 8 * 1024,
            idle_timeout: None,
            max_conns: 16 * 1024,
            max_conn_requests: u64::MAX,
            drain_deadline: Duration::from_secs(5),
            metrics: None,
            flight: None,
        }
    }
}

/// What the loop thread returns once it exits.
#[derive(Debug, Default)]
pub struct LoopReport {
    /// Connections force-closed because the drain deadline passed.
    pub drain_timed_out: bool,
    /// A non-transient accept error that stopped the listener.
    pub accept_error: Option<String>,
}

/// Shared control block between the loop, its handle, and completions.
#[derive(Debug)]
struct Ctl {
    waker: Waker,
    drain: AtomicBool,
    force_close: AtomicBool,
    conns: AtomicUsize,
    completions: Mutex<Vec<Completion>>,
}

/// Cross-thread handle to a running loop.
#[derive(Debug, Clone)]
pub struct LoopHandle {
    ctl: Arc<Ctl>,
}

impl LoopHandle {
    /// Begins a graceful drain: stop accepting, refuse idle connections,
    /// let in-flight requests finish, force-close at the deadline.
    pub fn shutdown(&self) {
        self.ctl.drain.store(true, Ordering::Release);
        self.ctl.waker.wake();
    }

    /// Force-closes every connection now (the drain-deadline hammer,
    /// exposed for the serve layer's force-close path).
    pub fn force_close(&self) {
        self.ctl.force_close.store(true, Ordering::Release);
        self.ctl.waker.wake();
    }

    /// Currently registered connections.
    pub fn connections(&self) -> usize {
        self.ctl.conns.load(Ordering::Acquire)
    }

    /// The completion sender handed to dispatch workers.
    pub fn completions(&self) -> Completions {
        Completions {
            ctl: Arc::clone(&self.ctl),
        }
    }
}

/// Sends finished responses back into the loop. Clone freely; safe from
/// any thread; a completion for an already-closed connection is dropped.
#[derive(Debug, Clone)]
pub struct Completions {
    ctl: Arc<Ctl>,
}

impl Completions {
    /// Queues `line` (without trailing newline) as the response for
    /// `conn` and wakes the loop. For [`After::Abort`] the line is
    /// ignored.
    pub fn complete(&self, conn: ConnToken, line: String, after: After) {
        self.ctl
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion { conn, line, after });
        self.ctl.waker.wake();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Idle,
    Reading,
    Dispatched,
    Writing,
    Draining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingWrite {
    /// Nothing queued.
    None,
    /// A dispatched response; `close` = close once flushed.
    Response { close: bool },
    /// A refusal line; always close once flushed.
    Terminal,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    interest: Interest,
    inbuf: LineBuffer,
    outbuf: Vec<u8>,
    written: usize,
    pending: PendingWrite,
    last_activity: Instant,
    requests: u64,
}

/// A running event loop: the handle plus the loop thread's join handle.
pub struct EventLoop {
    handle: LoopHandle,
    thread: Option<JoinHandle<LoopReport>>,
}

impl EventLoop {
    /// Starts the loop on its own thread and returns it with the service
    /// it drives. `make_service` builds that service from the loop's
    /// handle *before* the loop thread starts, so the service holds its
    /// [`Completions`] (and any other handle state) by the time the first
    /// line — even one already waiting in the listener's backlog — is
    /// dispatched. Fails with `Unsupported` where the raw-epoll backend is
    /// not compiled in — callers fall back to the threads backend.
    pub fn start<S: NetService + 'static>(
        listener: TcpListener,
        make_service: impl FnOnce(&LoopHandle) -> Arc<S>,
        cfg: LoopConfig,
    ) -> io::Result<(EventLoop, Arc<S>)> {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.add(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        let ctl = Arc::new(Ctl {
            waker,
            drain: AtomicBool::new(false),
            force_close: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            completions: Mutex::new(Vec::new()),
        });
        let handle = LoopHandle {
            ctl: Arc::clone(&ctl),
        };
        let service = make_service(&handle);
        let metrics = cfg.metrics.clone().unwrap_or_else(NetMetrics::detached);
        let mut inner = LoopInner {
            poller,
            ctl,
            service: Arc::clone(&service) as Arc<dyn NetService>,
            cfg,
            metrics,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            idle_check_at: None,
            drained: false,
            drain_deadline_at: None,
            report: LoopReport::default(),
        };
        let thread = std::thread::Builder::new()
            .name("poe-net-loop".into())
            .spawn(move || inner.run())?;
        Ok((
            EventLoop {
                handle,
                thread: Some(thread),
            },
            service,
        ))
    }

    /// The cross-thread control handle.
    pub fn handle(&self) -> LoopHandle {
        self.handle.clone()
    }

    /// Waits for the loop thread to exit (after a drain completes).
    pub fn join(mut self) -> LoopReport {
        match self.thread.take() {
            Some(t) => t.join().unwrap_or_default(),
            None => LoopReport::default(),
        }
    }
}

struct LoopInner {
    poller: Poller,
    ctl: Arc<Ctl>,
    service: Arc<dyn NetService>,
    cfg: LoopConfig,
    metrics: NetMetrics,
    listener: Option<TcpListener>,
    conns: HashMap<ConnToken, Conn>,
    next_token: u64,
    /// Earliest instant any idle deadline could expire.
    idle_check_at: Option<Instant>,
    drained: bool,
    drain_deadline_at: Option<Instant>,
    report: LoopReport,
}

impl LoopInner {
    fn flight(&self, kind: &str, detail: String) {
        if let Some(f) = &self.cfg.flight {
            f.record_for(0, kind, detail);
        }
    }

    fn run(&mut self) -> LoopReport {
        self.flight(
            "net.loop.start",
            format!("max_conns={}", self.cfg.max_conns),
        );
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            poe_chaos::stall(poe_chaos::sites::NET_EPOLL_TICK_STALL);
            let now = Instant::now();
            events.clear();
            let timeout = self.wait_timeout(now);
            let wait_failed = poe_chaos::fail_io(poe_chaos::sites::NET_EPOLL_WAIT_IO).is_some();
            if wait_failed {
                self.metrics.wait_errors.inc();
                std::thread::sleep(Duration::from_millis(1));
            } else if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.metrics.wait_errors.inc();
                self.flight("net.wait.error", e.to_string());
                std::thread::sleep(Duration::from_millis(1));
            }
            let now = Instant::now();
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_burst(now),
                    WAKER_TOKEN => {
                        self.metrics.wakeups.inc();
                        self.ctl.waker.drain();
                    }
                    token => self.on_conn_event(token, ev, now),
                }
            }
            self.drain_completions(now);
            if self.ctl.force_close.swap(false, Ordering::AcqRel) {
                self.teardown_all("force_close");
            }
            if self.ctl.drain.load(Ordering::Acquire) && !self.drained {
                self.begin_drain(now);
            }
            if let Some(next) = self.idle_check_at {
                if now >= next {
                    self.scan_idle(now);
                }
            }
            if self.drained {
                if self.conns.is_empty() {
                    break;
                }
                if let Some(deadline) = self.drain_deadline_at {
                    if now >= deadline {
                        self.report.drain_timed_out = true;
                        self.flight(
                            "net.drain.force",
                            format!("stragglers={}", self.conns.len()),
                        );
                        self.teardown_all("drain_deadline");
                        break;
                    }
                }
            }
        }
        self.flight("net.loop.stop", String::new());
        std::mem::take(&mut self.report)
    }

    /// The epoll timeout: sleep until the nearest deadline (idle scan or
    /// drain), indefinitely when there is none. Rounded up so a deadline
    /// is never missed by sub-millisecond truncation.
    fn wait_timeout(&self, now: Instant) -> Option<Duration> {
        let mut next: Option<Instant> = self.idle_check_at;
        if let Some(d) = self.drain_deadline_at {
            next = Some(next.map_or(d, |n| n.min(d)));
        }
        next.map(|n| n.saturating_duration_since(now) + Duration::from_millis(1))
    }

    fn note_idle_deadline(&mut self, now: Instant) {
        if let Some(t) = self.cfg.idle_timeout {
            let deadline = now + t;
            self.idle_check_at = Some(self.idle_check_at.map_or(deadline, |n| n.min(deadline)));
        }
    }

    fn accept_burst(&mut self, now: Instant) {
        for _ in 0..1024 {
            let Some(listener) = &self.listener else {
                return;
            };
            if let Some(e) = poe_chaos::fail_io(poe_chaos::sites::NET_EPOLL_ACCEPT_IO) {
                self.flight("net.accept.error", e.to_string());
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream, now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    // EMFILE and friends: transient resource pressure.
                    // Anything else stops the listener and drains.
                    self.flight("net.accept.error", e.to_string());
                    if e.raw_os_error() == Some(24) || e.raw_os_error() == Some(23) {
                        return;
                    }
                    self.report.accept_error = Some(e.to_string());
                    self.ctl.drain.store(true, Ordering::Release);
                    self.service.on_event(NetEvent::AcceptFailed);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.drained {
            self.refuse_unregistered(stream, Refusal::ShuttingDown);
            return;
        }
        if self.conns.len() >= self.cfg.max_conns {
            self.metrics.shed.inc();
            self.service.on_event(NetEvent::Shed);
            self.refuse_unregistered(stream, Refusal::Busy);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                state: ConnState::Idle,
                interest: Interest::READ,
                inbuf: LineBuffer::new(self.cfg.max_line_bytes),
                outbuf: Vec::new(),
                written: 0,
                pending: PendingWrite::None,
                last_activity: now,
                requests: 0,
            },
        );
        self.ctl.conns.store(self.conns.len(), Ordering::Release);
        self.metrics.conns.set(self.conns.len() as f64);
        self.metrics.accepted.inc();
        self.service.on_event(NetEvent::Accepted);
        self.note_idle_deadline(now);
    }

    /// Best-effort refusal for a connection that never got registered
    /// (shed at the cap, or arriving mid-drain): one non-blocking write,
    /// then drop. A full socket buffer on a brand-new connection means
    /// the client was never reading anyway.
    fn refuse_unregistered(&self, mut stream: TcpStream, refusal: Refusal) {
        let line = self.service.refusal_line(refusal);
        let _ = crate::framing::send_line(&mut stream, &line);
    }

    fn on_conn_event(&mut self, token: ConnToken, ev: PollEvent, now: Instant) {
        if ev.writable {
            self.metrics.writable.inc();
            self.continue_flush(token, now);
        }
        if ev.readable {
            self.metrics.readable.inc();
            self.on_readable(token, now);
        }
        if ev.failed && self.conns.contains_key(&token) {
            self.teardown(token);
        }
    }

    fn on_readable(&mut self, token: ConnToken, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                return;
            }
            let mut chunk = [0u8; 4096];
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.teardown(token);
                    return;
                }
                Ok(n) => {
                    conn.inbuf.push(&chunk[..n]);
                    conn.last_activity = now;
                    conn.state = ConnState::Reading;
                    self.advance_read(token, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
    }

    /// Tries to pull the next complete line out of the connection's
    /// buffer and move it through `Reading → Dispatched`.
    fn advance_read(&mut self, token: ConnToken, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.inbuf.next_line() {
            Err(LineOverflow) => {
                self.service.on_event(NetEvent::Oversize);
                self.refuse(token, Refusal::LineTooLong, now);
            }
            Ok(None) => {
                conn.state = if conn.inbuf.pending() == 0 {
                    ConnState::Idle
                } else {
                    ConnState::Reading
                };
                self.set_interest(token, Interest::READ);
                self.note_idle_deadline(now);
            }
            Ok(Some(line)) => {
                conn.state = ConnState::Dispatched;
                self.set_interest(token, Interest::NONE);
                self.service.dispatch(token, line);
            }
        }
    }

    fn set_interest(&mut self, token: ConnToken, interest: Interest) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest != interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_ok()
        {
            let conn = self.conns.get_mut(&token).expect("conn just seen");
            conn.interest = interest;
        }
    }

    fn drain_completions(&mut self, now: Instant) {
        let batch = std::mem::take(
            &mut *self
                .ctl
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for c in batch {
            self.on_completion(c, now);
        }
    }

    fn on_completion(&mut self, c: Completion, now: Instant) {
        let Some(conn) = self.conns.get_mut(&c.conn) else {
            return; // connection already gone (force-closed, EOF, …)
        };
        if c.after == After::Abort {
            self.teardown(c.conn);
            return;
        }
        conn.outbuf.clear();
        conn.outbuf.extend_from_slice(c.line.as_bytes());
        conn.outbuf.push(b'\n');
        conn.written = 0;
        conn.requests += 1;
        // `Shutdown` closes its own connection after the flush, like the
        // threads backend does: the `OK shutting down` line is the last
        // thing that client sees, not an `ERR shutting down` refusal.
        conn.pending = PendingWrite::Response {
            close: matches!(c.after, After::Close | After::Shutdown),
        };
        conn.state = ConnState::Writing;
        if c.after == After::Shutdown {
            self.ctl.drain.store(true, Ordering::Release);
        }
        self.flush_and_advance(c.conn, now);
    }

    /// Queues a refusal line and closes once it flushes.
    fn refuse(&mut self, token: ConnToken, refusal: Refusal, now: Instant) {
        let line = self.service.refusal_line(refusal);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.outbuf.clear();
        conn.outbuf.extend_from_slice(line.as_bytes());
        conn.outbuf.push(b'\n');
        conn.written = 0;
        conn.pending = PendingWrite::Terminal;
        conn.state = ConnState::Draining;
        self.flush_and_advance(token, now);
    }

    fn flush_and_advance(&mut self, token: ConnToken, now: Instant) {
        enum Flush {
            Done,
            Partial,
            Failed,
        }
        let status = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let injected = poe_chaos::fail_io(poe_chaos::sites::NET_EPOLL_WRITE_IO).is_some();
            let mut status = Flush::Done;
            if injected {
                status = Flush::Failed;
            } else {
                while conn.written < conn.outbuf.len() {
                    match conn.stream.write(&conn.outbuf[conn.written..]) {
                        Ok(0) => {
                            status = Flush::Failed;
                            break;
                        }
                        Ok(n) => conn.written += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            status = Flush::Partial;
                            break;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            status = Flush::Failed;
                            break;
                        }
                    }
                }
            }
            status
        };
        match status {
            Flush::Failed => {
                self.service.on_event(NetEvent::WriteError);
                self.teardown(token);
            }
            Flush::Partial => self.set_interest(token, Interest::WRITE),
            Flush::Done => self.on_flushed(token, now),
        }
    }

    fn continue_flush(&mut self, token: ConnToken, now: Instant) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if matches!(conn.state, ConnState::Writing | ConnState::Draining) {
            self.flush_and_advance(token, now);
        }
    }

    fn on_flushed(&mut self, token: ConnToken, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.outbuf.clear();
        conn.written = 0;
        conn.last_activity = now;
        let pending = conn.pending;
        conn.pending = PendingWrite::None;
        match pending {
            PendingWrite::Terminal => self.teardown(token),
            PendingWrite::None => {}
            PendingWrite::Response { close } => {
                let requests = conn.requests;
                self.service.on_response_written(token);
                if close {
                    self.teardown(token);
                } else if requests >= self.cfg.max_conn_requests {
                    self.refuse(token, Refusal::ConnRequestLimit, now);
                } else if self.drained || self.ctl.drain.load(Ordering::Acquire) {
                    self.refuse(token, Refusal::ShuttingDown, now);
                } else {
                    // Back to reading; serve any pipelined line already
                    // buffered before waiting on the socket.
                    let conn = self.conns.get_mut(&token).expect("conn just seen");
                    conn.state = ConnState::Reading;
                    self.advance_read(token, now);
                }
            }
        }
    }

    fn scan_idle(&mut self, now: Instant) {
        let Some(t) = self.cfg.idle_timeout else {
            self.idle_check_at = None;
            return;
        };
        let mut next: Option<Instant> = None;
        let mut expired = Vec::new();
        for (&token, conn) in &self.conns {
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                continue;
            }
            let deadline = conn.last_activity + t;
            if deadline <= now {
                expired.push(token);
            } else {
                next = Some(next.map_or(deadline, |n: Instant| n.min(deadline)));
            }
        }
        self.idle_check_at = next;
        for token in expired {
            self.service.on_event(NetEvent::IdleTimedOut);
            self.refuse(token, Refusal::IdleTimeout, now);
        }
    }

    fn begin_drain(&mut self, now: Instant) {
        self.drained = true;
        self.drain_deadline_at = Some(now + self.cfg.drain_deadline);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        self.flight("net.drain", format!("conns={}", self.conns.len()));
        let idle: Vec<ConnToken> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Idle | ConnState::Reading))
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.refuse(token, Refusal::ShuttingDown, now);
        }
    }

    fn teardown(&mut self, token: ConnToken) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.ctl.conns.store(self.conns.len(), Ordering::Release);
            self.metrics.conns.set(self.conns.len() as f64);
            self.service.on_event(NetEvent::Closed);
        }
    }

    fn teardown_all(&mut self, reason: &str) {
        let tokens: Vec<ConnToken> = self.conns.keys().copied().collect();
        if !tokens.is_empty() {
            self.flight(
                "net.close.all",
                format!("reason={reason} n={}", tokens.len()),
            );
        }
        for token in tokens {
            self.teardown(token);
        }
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use crate::framing::{LineReader, ReadOutcome};
    use std::net::TcpStream;

    /// Echo service answering on a tiny thread pool, like the real
    /// dispatch stage.
    struct Echo {
        completions: Completions,
        shed: AtomicUsize,
    }

    impl NetService for Echo {
        fn dispatch(&self, conn: ConnToken, line: String) {
            let done = self.completions.clone();
            std::thread::spawn(move || {
                let after = match line.as_str() {
                    "QUIT" => After::Close,
                    "SHUTDOWN" => After::Shutdown,
                    "PANIC" => After::Abort,
                    _ => After::Reply,
                };
                done.complete(conn, format!("echo {line}"), after);
            });
        }
        fn refusal_line(&self, refusal: Refusal) -> String {
            match refusal {
                Refusal::Busy => {
                    self.shed.fetch_add(1, Ordering::SeqCst);
                    "ERR busy retry_after_ms=100".into()
                }
                Refusal::LineTooLong => "ERR line too long".into(),
                Refusal::IdleTimeout => "ERR idle timeout".into(),
                Refusal::ConnRequestLimit => "ERR connection request limit".into(),
                Refusal::ShuttingDown => "ERR shutting down".into(),
            }
        }
    }

    fn start(cfg: LoopConfig) -> (EventLoop, Arc<Echo>, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (el, svc) = EventLoop::start(
            listener,
            |h| {
                Arc::new(Echo {
                    completions: h.completions(),
                    shed: AtomicUsize::new(0),
                })
            },
            cfg,
        )
        .unwrap();
        (el, svc, addr)
    }

    fn roundtrip(reader: &mut LineReader<TcpStream>, line: &str) -> String {
        crate::framing::send_line(&mut reader.get_ref(), line).unwrap();
        match reader.read_line() {
            ReadOutcome::Line(l) => l,
            other => panic!("expected line, got {other:?}"),
        }
    }

    fn connect(addr: std::net::SocketAddr) -> LineReader<TcpStream> {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        LineReader::new(stream, 1 << 16)
    }

    #[test]
    fn echoes_and_pipelines() {
        let (el, _svc, addr) = start(LoopConfig::default());
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "hello"), "echo hello");
        // Pipelined: both lines in one write; responses arrive in order.
        c.get_ref()
            .try_clone()
            .unwrap()
            .write_all(b"one\ntwo\n")
            .unwrap();
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "echo one"));
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "echo two"));
        el.handle().shutdown();
        el.join();
    }

    #[test]
    fn quit_closes_and_abort_closes_silently() {
        let (el, _svc, addr) = start(LoopConfig::default());
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "QUIT"), "echo QUIT");
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        let mut c = connect(addr);
        crate::framing::send_line(&mut c.get_ref(), "PANIC").unwrap();
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        el.handle().shutdown();
        el.join();
    }

    #[test]
    fn oversize_line_is_refused_and_closed() {
        let cfg = LoopConfig {
            max_line_bytes: 16,
            ..LoopConfig::default()
        };
        let (el, _svc, addr) = start(cfg);
        let mut c = connect(addr);
        let long = "x".repeat(64);
        crate::framing::send_line(&mut c.get_ref(), &long).unwrap();
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "ERR line too long"));
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        el.handle().shutdown();
        el.join();
    }

    #[test]
    fn idle_connections_are_refused_on_deadline() {
        let cfg = LoopConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..LoopConfig::default()
        };
        let (el, _svc, addr) = start(cfg);
        let mut c = connect(addr);
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l == "ERR idle timeout"));
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        el.handle().shutdown();
        el.join();
    }

    #[test]
    fn request_budget_is_enforced() {
        let cfg = LoopConfig {
            max_conn_requests: 2,
            ..LoopConfig::default()
        };
        let (el, _svc, addr) = start(cfg);
        let mut c = connect(addr);
        assert_eq!(roundtrip(&mut c, "a"), "echo a");
        assert_eq!(roundtrip(&mut c, "b"), "echo b");
        assert!(
            matches!(c.read_line(), ReadOutcome::Line(l) if l == "ERR connection request limit")
        );
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        el.handle().shutdown();
        el.join();
    }

    #[test]
    fn connections_past_the_cap_are_shed() {
        let cfg = LoopConfig {
            max_conns: 2,
            ..LoopConfig::default()
        };
        let (el, svc, addr) = start(cfg);
        let mut a = connect(addr);
        let mut b = connect(addr);
        assert_eq!(roundtrip(&mut a, "a"), "echo a");
        assert_eq!(roundtrip(&mut b, "b"), "echo b");
        let mut c = connect(addr);
        assert!(matches!(c.read_line(), ReadOutcome::Line(l) if l.starts_with("ERR busy")));
        assert!(matches!(c.read_line(), ReadOutcome::Closed));
        assert_eq!(svc.shed.load(Ordering::SeqCst), 1);
        el.handle().shutdown();
        el.join();
    }

    #[test]
    fn shutdown_refuses_idle_and_finishes_in_flight() {
        let (el, _svc, addr) = start(LoopConfig::default());
        let mut idle = connect(addr);
        let mut active = connect(addr);
        assert_eq!(roundtrip(&mut active, "warm"), "echo warm");
        let mut shooter = connect(addr);
        assert_eq!(roundtrip(&mut shooter, "SHUTDOWN"), "echo SHUTDOWN");
        // The idle connection is refused and closed.
        assert!(matches!(idle.read_line(), ReadOutcome::Line(l) if l == "ERR shutting down"));
        assert!(matches!(idle.read_line(), ReadOutcome::Closed));
        let report = el.join();
        assert!(!report.drain_timed_out);
        drop(active);
    }
}
