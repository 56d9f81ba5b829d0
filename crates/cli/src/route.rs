//! `poe route` — the sharded scatter/gather front tier.
//!
//! Speaks the same line protocol as `poe serve` (see docs/PROTOCOL.md
//! § The router tier), but answers by scattering sub-requests across a
//! static [`ShardMap`] of `poe serve` backends and merging the logit
//! slices at the edge. All the robustness machinery — retries, hedging,
//! circuit breakers, partial degradation — lives in `poe-router`
//! ([`Router`]); this module is the TCP shell around it: bounded line
//! reads, idle timeouts, graceful drain, and the verb → response-line
//! rendering.
//!
//! A router connection is handled by its own thread (the tier is
//! I/O-bound fan-out, not CPU work, so a worker pool buys nothing), and
//! `SHUTDOWN` drains in-flight scatters before the backend connections
//! are closed — a client mid-`PREDICT` gets its answer, then the
//! sockets go away.

use crate::serve::{jittered_retry_after_ms, NetBackend};
use crate::wire::{self, MetricsFormat, Request, WireError};
use poe_net::{
    send_line, After, ConnToken, EventLoop, LineReader, LoopConfig, NetEvent, NetService,
    ReadOutcome, Refusal,
};
use poe_router::{join, GatherError, Router, RouterConfig, ShardMap};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Front-tier tuning knobs. The scatter/gather engine has its own
/// [`RouterConfig`] nested inside.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Engine knobs: deadlines, retries, breakers, hedging.
    pub router: RouterConfig,
    /// Shut down after this many requests (`u64::MAX` = run forever).
    pub max_requests: u64,
    /// Request-line byte cap (same hardening as `poe serve`).
    pub max_line_bytes: usize,
    /// Close a connection with no complete request line within this
    /// window (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// How long `SHUTDOWN` waits for in-flight requests before
    /// force-closing stragglers.
    pub drain_deadline: Duration,
    /// Base for the jittered `retry_after_ms` hint in drain refusals.
    pub retry_after_ms: u64,
    /// Dump the flight recorder here on shutdown (and for `DUMP`).
    pub recorder_dir: Option<PathBuf>,
    /// Transport backend (`--net threads|epoll`); the default honors
    /// `POE_NET`, same as `poe serve`.
    pub net: NetBackend,
    /// Dispatch worker threads for the epoll backend (the threads
    /// backend is one thread per connection and ignores this).
    pub workers: usize,
    /// Concurrent-connection cap for the epoll backend; excess
    /// connections are shed with `ERR busy`.
    pub max_conns: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            router: RouterConfig::default(),
            max_requests: u64::MAX,
            max_line_bytes: 8192,
            idle_timeout: Some(Duration::from_millis(30_000)),
            drain_deadline: Duration::from_millis(5_000),
            retry_after_ms: 100,
            recorder_dir: None,
            net: NetBackend::from_env(),
            workers: 8,
            max_conns: crate::serve::DEFAULT_MAX_CONNS,
        }
    }
}

impl RouteConfig {
    /// Starts a fluent build from the defaults:
    /// `RouteConfig::builder().router(engine_cfg).build()`.
    pub fn builder() -> RouteConfigBuilder {
        RouteConfigBuilder {
            cfg: RouteConfig::default(),
        }
    }
}

/// Fluent builder for [`RouteConfig`], mirroring
/// [`ServeConfig::builder`](crate::serve::ServeConfig::builder): every
/// knob is a named setter, unset knobs keep their [`Default`] values,
/// and [`RouteConfigBuilder::start`] builds and starts the front tier
/// in one call.
#[derive(Debug, Clone)]
pub struct RouteConfigBuilder {
    cfg: RouteConfig,
}

impl RouteConfigBuilder {
    /// Engine knobs: deadlines, retries, breakers, hedging.
    pub fn router(mut self, r: RouterConfig) -> Self {
        self.cfg.router = r;
        self
    }

    /// Shut down after this many requests (`u64::MAX` = run forever).
    pub fn max_requests(mut self, n: u64) -> Self {
        self.cfg.max_requests = n;
        self
    }

    /// Request-line byte cap.
    pub fn max_line_bytes(mut self, n: usize) -> Self {
        self.cfg.max_line_bytes = n;
        self
    }

    /// Idle-connection deadline; `None` disables it.
    pub fn idle_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.idle_timeout = t;
        self
    }

    /// How long `SHUTDOWN` waits for in-flight requests.
    pub fn drain_deadline(mut self, t: Duration) -> Self {
        self.cfg.drain_deadline = t;
        self
    }

    /// Base for the jittered `retry_after_ms` hint in drain refusals.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.cfg.retry_after_ms = ms;
        self
    }

    /// Dump the flight recorder here on shutdown (and for `DUMP`).
    pub fn recorder_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.cfg.recorder_dir = dir;
        self
    }

    /// Transport backend (`threads` or `epoll`).
    pub fn net(mut self, net: NetBackend) -> Self {
        self.cfg.net = net;
        self
    }

    /// Dispatch worker threads for the epoll backend (clamped to ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n.max(1);
        self
    }

    /// Concurrent-connection cap for the epoll backend.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.cfg.max_conns = n;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> RouteConfig {
        self.cfg
    }

    /// Builds the config and starts the router front tier in one call.
    pub fn start(self, listener: TcpListener, map: ShardMap) -> std::io::Result<RouteServer> {
        RouteServer::start(listener, map, self.build())
    }
}

/// What `join` reports after a clean exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteReport {
    /// Requests answered over the server's lifetime.
    pub handled: u64,
    /// Whether the drain deadline was hit (stragglers force-closed).
    pub drain_timed_out: bool,
}

struct RouteShared {
    router: Router,
    cfg: RouteConfig,
    addr: SocketAddr,
    draining: AtomicBool,
    handled: AtomicU64,
    /// Requests currently between read and response-written (the drain
    /// waits for this to hit zero before closing backends).
    inflight: AtomicUsize,
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    conns_alive: AtomicUsize,
    accept_error: Mutex<Option<std::io::Error>>,
    /// Set once when the epoll backend starts; shutdown and force-close
    /// route through the event loop instead of the conns map.
    net_handle: OnceLock<poe_net::LoopHandle>,
}

impl RouteShared {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn trigger_shutdown(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        self.router
            .obs()
            .flight
            .record("router.drain.begin", String::new());
        if let Some(h) = self.net_handle.get() {
            h.shutdown();
        } else {
            // Wake the acceptor out of its blocking accept().
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn force_close_conns(&self) {
        if let Some(h) = self.net_handle.get() {
            h.force_close();
            return;
        }
        for stream in self.lock_conns().values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A running router front tier: either an acceptor plus one thread per
/// connection (threads backend), or a `poe-net` event loop feeding a
/// dispatch pool (epoll backend).
pub struct RouteServer {
    shared: Arc<RouteShared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    event_loop: Option<EventLoop>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    net_svc: Option<Arc<RouteNetService>>,
}

/// A cloneable remote control for a [`RouteServer`].
#[derive(Clone)]
pub struct RouteHandle {
    shared: Arc<RouteShared>,
}

impl RouteHandle {
    /// Requests a graceful shutdown (idempotent, returns immediately;
    /// the drain happens in [`RouteServer::join`]).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Whether a shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Requests answered so far.
    pub fn handled(&self) -> u64 {
        self.shared.handled.load(Ordering::Acquire)
    }
}

impl RouteServer {
    /// Binds the front tier to `listener` and starts accepting.
    pub fn start(
        listener: TcpListener,
        map: ShardMap,
        cfg: RouteConfig,
    ) -> std::io::Result<RouteServer> {
        let addr = listener.local_addr()?;
        let obs = poe_obs::Observability::new();
        let net = if cfg.net == NetBackend::Epoll && poe_net::epoll_supported() {
            NetBackend::Epoll
        } else {
            NetBackend::Threads
        };
        let workers_n = cfg.workers.max(1);
        let router = Router::new(map, cfg.router, obs);
        router.obs().flight.record(
            "router.start",
            format!(
                "addr={addr} shards={} net={}",
                router.map().num_shards(),
                net.name()
            ),
        );
        let shared = Arc::new(RouteShared {
            router,
            cfg,
            addr,
            draining: AtomicBool::new(false),
            handled: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            conns_alive: AtomicUsize::new(0),
            accept_error: Mutex::new(None),
            net_handle: OnceLock::new(),
        });
        if net == NetBackend::Epoll {
            return RouteServer::start_epoll(listener, shared, workers_n);
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("poe-route-acceptor".into())
                .spawn(move || acceptor_loop(listener, shared))
                .expect("spawn route acceptor")
        };
        Ok(RouteServer {
            shared,
            acceptor: Some(acceptor),
            event_loop: None,
            dispatchers: Vec::new(),
            net_svc: None,
        })
    }

    /// The epoll variant: the event loop owns every client socket; the
    /// dispatch pool runs the scatter/gather engine.
    fn start_epoll(
        listener: TcpListener,
        shared: Arc<RouteShared>,
        workers_n: usize,
    ) -> std::io::Result<RouteServer> {
        let obs = shared.router.obs();
        let loop_cfg = LoopConfig {
            max_line_bytes: shared.cfg.max_line_bytes,
            idle_timeout: shared.cfg.idle_timeout,
            max_conns: shared.cfg.max_conns.max(1),
            max_conn_requests: u64::MAX,
            drain_deadline: shared.cfg.drain_deadline,
            metrics: Some(poe_net::NetMetrics::register(&obs.registry)),
            flight: Some(Arc::clone(&obs.flight)),
        };
        let (tx, rx) = channel::<(ConnToken, String)>();
        // Wired before the loop thread starts, so a line already waiting
        // in the listener's backlog finds the completions and loop handle.
        let (event_loop, svc) = EventLoop::start(
            listener,
            |handle| {
                shared
                    .net_handle
                    .set(handle.clone())
                    .expect("one event loop per route server");
                Arc::new(RouteNetService {
                    shared: Arc::clone(&shared),
                    tx: Mutex::new(Some(tx)),
                    completions: handle.completions(),
                })
            },
            loop_cfg,
        )?;
        let rx = Arc::new(Mutex::new(rx));
        let mut dispatchers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let rx = Arc::clone(&rx);
            let svc = Arc::clone(&svc);
            dispatchers.push(
                std::thread::Builder::new()
                    .name(format!("poe-route-dispatch-{i}"))
                    .spawn(move || route_dispatch_worker(rx, svc))
                    .expect("spawn route dispatch worker"),
            );
        }
        Ok(RouteServer {
            shared,
            acceptor: None,
            event_loop: Some(event_loop),
            dispatchers,
            net_svc: Some(svc),
        })
    }

    /// A cloneable control handle (usable from other threads).
    pub fn handle(&self) -> RouteHandle {
        RouteHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The engine, for tests that inspect breaker or metric state.
    pub fn router(&self) -> &Router {
        &self.shared.router
    }

    /// Blocks until the request budget is spent or a shutdown is
    /// requested, then drains: in-flight requests finish (within the
    /// drain deadline), backend connections close, client connections
    /// close, threads join.
    pub fn join(mut self) -> std::io::Result<RouteReport> {
        while !self.shared.draining.load(Ordering::Acquire)
            && self.shared.handled.load(Ordering::Acquire) < self.shared.cfg.max_requests
            && self
                .shared
                .accept_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_none()
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.trigger_shutdown();

        let mut drain_timed_out = false;
        if let Some(event_loop) = self.event_loop.take() {
            // Epoll: the loop's own drain lets in-flight scatters finish
            // (a client mid-PREDICT gets its answer) and force-closes
            // stragglers at its deadline; only after it exits do the
            // backend sockets close and the dispatch pool stop.
            let report = event_loop.join();
            drain_timed_out = report.drain_timed_out;
            if let Some(msg) = report.accept_error {
                let mut slot = self
                    .shared
                    .accept_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(std::io::Error::other(msg));
                }
            }
            self.shared.router.close_backends();
            if let Some(svc) = self.net_svc.take() {
                svc.close();
            }
            for d in self.dispatchers.drain(..) {
                let _ = d.join();
            }
        } else {
            // Threads drain order matters: first let in-flight scatters
            // finish, only then close the backend sockets, and last
            // force the client connections shut.
            let deadline = Instant::now() + self.shared.cfg.drain_deadline;
            while self.shared.inflight.load(Ordering::Acquire) > 0 {
                if Instant::now() >= deadline {
                    drain_timed_out = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            self.shared.router.close_backends();
            self.shared.force_close_conns();
            while self.shared.conns_alive.load(Ordering::Acquire) > 0 {
                if Instant::now() >= deadline + Duration::from_millis(500) {
                    break; // belt and braces; threads die with their sockets
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let flight = &self.shared.router.obs().flight;
        flight.record(
            "router.shutdown",
            format!("handled={}", self.shared.handled.load(Ordering::Acquire)),
        );
        if let Some(dir) = &self.shared.cfg.recorder_dir {
            match flight.dump_to_dir(dir) {
                Ok(path) => eprintln!("flight recorder dumped to {}", path.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
        }
        if let Some(e) = self
            .shared
            .accept_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e);
        }
        Ok(RouteReport {
            handled: self.shared.handled.load(Ordering::Acquire),
            drain_timed_out,
        })
    }
}

fn acceptor_loop(listener: TcpListener, shared: Arc<RouteShared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining.load(Ordering::Acquire) {
                    break; // the shutdown wake-up (or a late client)
                }
                shared.conns_alive.fetch_add(1, Ordering::AcqRel);
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("poe-route-conn".into())
                    .spawn(move || {
                        handle_conn(stream, &shared);
                        shared.conns_alive.fetch_sub(1, Ordering::AcqRel);
                    });
            }
            Err(e) => {
                *shared
                    .accept_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(e);
                break;
            }
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<RouteShared>) {
    let cfg = &shared.cfg;
    let _ = stream.set_nodelay(true);
    if let Some(t) = cfg.idle_timeout {
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn_id = shared.next_conn.fetch_add(1, Ordering::AcqRel);
    if let Ok(registered) = stream.try_clone() {
        shared.lock_conns().insert(conn_id, registered);
    }
    let mut reader = LineReader::new(stream, cfg.max_line_bytes);
    loop {
        if shared.draining.load(Ordering::Acquire) {
            let refusal = WireError::ShuttingDown {
                retry_after_ms: jittered_retry_after_ms(cfg.retry_after_ms),
            };
            let _ = send_line(&mut writer, &refusal.line());
            break;
        }
        let line = match reader.read_line() {
            ReadOutcome::Line(l) => l,
            ReadOutcome::TooLong => {
                let oversize = WireError::LineTooLong {
                    max_bytes: cfg.max_line_bytes,
                };
                let _ = send_line(&mut writer, &oversize.line());
                break;
            }
            ReadOutcome::TimedOut => {
                let _ = send_line(&mut writer, &WireError::IdleTimeout.line());
                break;
            }
            ReadOutcome::Closed => break,
        };
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        // Re-check after the increment is visible: a request being read
        // when the drain triggered can pass the loop-top check while
        // join() observes inflight==0 and starts closing backends; it
        // must refuse here rather than scatter against dying sockets.
        if shared.draining.load(Ordering::Acquire) {
            shared.inflight.fetch_sub(1, Ordering::AcqRel);
            let refusal = WireError::ShuttingDown {
                retry_after_ms: jittered_retry_after_ms(cfg.retry_after_ms),
            };
            let _ = send_line(&mut writer, &refusal.line());
            break;
        }
        let rid = poe_obs::next_request_id();
        let flight = Arc::clone(&shared.router.obs().flight);
        flight.record_for(rid, "request.start", format!("line={line}"));
        let action = respond_route(shared, &line, rid);
        let write_ok = send_line(&mut writer, action.line()).is_ok();
        flight.record_for(
            rid,
            "request.end",
            format!("outcome={}", action.line().split(' ').next().unwrap_or("?")),
        );
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        let handled = shared.handled.fetch_add(1, Ordering::AcqRel) + 1;
        if handled >= shared.cfg.max_requests {
            shared.trigger_shutdown();
        }
        match action {
            Action::Reply(_) if write_ok => {}
            Action::Reply(_) => break,
            Action::Close(_) => break,
            Action::Shutdown(_) => {
                shared.trigger_shutdown();
                break;
            }
        }
    }
    shared.lock_conns().remove(&conn_id);
}

/// The router front tier seen from the `poe-net` event loop.
struct RouteNetService {
    shared: Arc<RouteShared>,
    /// Dispatch queue into the worker pool; dropped to stop the workers.
    tx: Mutex<Option<Sender<(ConnToken, String)>>>,
    completions: poe_net::Completions,
}

impl RouteNetService {
    fn close(&self) {
        self.tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
    }
}

impl NetService for RouteNetService {
    fn dispatch(&self, conn: ConnToken, line: String) {
        let sent = match &*self.tx.lock().unwrap_or_else(PoisonError::into_inner) {
            Some(tx) => tx.send((conn, line)).is_ok(),
            None => false,
        };
        if !sent {
            self.completions.complete(conn, String::new(), After::Abort);
        }
    }

    fn refusal_line(&self, refusal: Refusal) -> String {
        let cfg = &self.shared.cfg;
        match refusal {
            Refusal::Busy => WireError::Busy {
                retry_after_ms: jittered_retry_after_ms(cfg.retry_after_ms),
            }
            .line(),
            Refusal::LineTooLong => WireError::LineTooLong {
                max_bytes: cfg.max_line_bytes,
            }
            .line(),
            Refusal::IdleTimeout => WireError::IdleTimeout.line(),
            Refusal::ConnRequestLimit => WireError::ConnRequestLimit.line(),
            Refusal::ShuttingDown => WireError::ShuttingDown {
                retry_after_ms: jittered_retry_after_ms(cfg.retry_after_ms),
            }
            .line(),
        }
    }

    fn on_event(&self, event: NetEvent) {
        if event == NetEvent::AcceptFailed {
            // The listener died: drain, and let `join` surface the loop
            // report's accept error.
            self.shared.trigger_shutdown();
        }
    }

    fn on_response_written(&self, _conn: ConnToken) {
        let shared = &self.shared;
        let handled = shared.handled.fetch_add(1, Ordering::AcqRel) + 1;
        if handled >= shared.cfg.max_requests {
            shared.trigger_shutdown();
        }
    }
}

/// One dispatch worker of the epoll route backend: runs the identical
/// per-request pipeline as `handle_conn` (flight events, scatter/gather,
/// drain re-check), scoped to a request instead of a connection.
fn route_dispatch_worker(rx: Arc<Mutex<Receiver<(ConnToken, String)>>>, svc: Arc<RouteNetService>) {
    let shared = &svc.shared;
    loop {
        let (conn, line) = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            match rx.recv() {
                Ok(x) => x,
                Err(_) => break, // queue closed: server is done
            }
        };
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        // A line dispatched just before the drain triggered must refuse
        // rather than scatter against closing backend sockets — the
        // same re-check the threads backend does after its increment.
        let (reply, after) = if shared.draining.load(Ordering::Acquire) {
            let refusal = WireError::ShuttingDown {
                retry_after_ms: jittered_retry_after_ms(shared.cfg.retry_after_ms),
            };
            (refusal.line(), After::Close)
        } else {
            let rid = poe_obs::next_request_id();
            let flight = Arc::clone(&shared.router.obs().flight);
            flight.record_for(rid, "request.start", format!("line={line}"));
            let action = respond_route(shared, &line, rid);
            flight.record_for(
                rid,
                "request.end",
                format!("outcome={}", action.line().split(' ').next().unwrap_or("?")),
            );
            match action {
                Action::Reply(l) => (l, After::Reply),
                Action::Close(l) => (l, After::Close),
                Action::Shutdown(l) => (l, After::Shutdown),
            }
        };
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        if after == After::Shutdown {
            shared.trigger_shutdown();
        }
        svc.completions.complete(conn, reply, after);
    }
}

/// One request's rendered outcome.
enum Action {
    /// Answer and keep the connection open.
    Reply(String),
    /// Answer and close this connection (`QUIT`).
    Close(String),
    /// Answer, then begin the drain (`SHUTDOWN`).
    Shutdown(String),
}

impl Action {
    fn line(&self) -> &str {
        match self {
            Action::Reply(l) | Action::Close(l) | Action::Shutdown(l) => l,
        }
    }
}

/// The subset of wire verbs the router front tier answers. Anything
/// outside this list — shard-local verbs like `STATS`/`TRACE`/`SWAP` —
/// stays `ERR unknown verb` here even though `parse_request` accepts it,
/// so a client can tell the tiers apart.
const ROUTER_VERBS: [&str; 9] = [
    "INFO", "QUERY", "PREDICT", "LOGITS", "HEALTH", "METRICS", "DUMP", "SHUTDOWN", "QUIT",
];

/// Renders one request line against the engine. Split out of the
/// connection loop so unit tests can drive verbs without sockets.
fn respond_route(shared: &RouteShared, line: &str, rid: u64) -> Action {
    // The router pre-filters on the raw verb token: shard-only verbs must
    // render `unknown verb` with the client's original casing, exactly as
    // an unrecognized token would.
    let verb_raw = wire::split_verb(line).0;
    if !verb_raw.is_empty() && !ROUTER_VERBS.contains(&verb_raw.to_ascii_uppercase().as_str()) {
        return Action::Reply(WireError::UnknownVerb(verb_raw.to_string()).line());
    }
    let request = match wire::parse_request(line) {
        Ok(r) => r,
        Err(e) => return Action::Reply(e.line()),
    };
    let router = &shared.router;
    let reply = match request {
        Request::Info => match router.info(rid) {
            Ok((tasks, experts, classes)) => {
                format!("OK tasks={tasks} experts={experts} classes={classes}")
            }
            Err(e) => gather_err_line(e),
        },
        Request::Query { tasks } => match router.query(&tasks, rid) {
            Ok(q) => format!(
                "OK outputs={} params={} assembly_ms={:.3} cached={} classes={} tasks={}",
                q.outputs,
                q.params,
                q.assembly_ms,
                u8::from(q.cached),
                join(&q.classes),
                join(&q.tasks)
            ),
            Err(e) => gather_err_line(e),
        },
        // Features stay the raw trimmed string — the shards validate them
        // (the router has no input dim).
        Request::Predict { tasks, features } => match router.predict(&tasks, &features, rid) {
            Ok(p) if p.missing.is_empty() => format!(
                "OK class={} task={} confidence={:.4}",
                p.class, p.task, p.confidence
            ),
            Ok(p) => format!(
                "OK partial shards={}/{} missing={} class={} task={} confidence={:.4}",
                p.shards_ok,
                p.shards_total,
                join(&p.missing),
                p.class,
                p.task,
                p.confidence
            ),
            Err(e) => gather_err_line(e),
        },
        Request::Logits { tasks, features } => match router.logits(&tasks, &features, rid) {
            Ok(l) => format!(
                "OK logits={} classes={} tasks={}",
                l.logits
                    .iter()
                    .map(|v| format!("{v:.6}"))
                    .collect::<Vec<_>>()
                    .join(","),
                join(&l.classes),
                join(&l.tasks)
            ),
            Err(e) => gather_err_line(e),
        },
        Request::Health => health_line(shared),
        Request::Metrics {
            format: MetricsFormat::Json,
        } => format!("OK {}", router.obs().registry.snapshot().to_json()),
        Request::Metrics {
            format: MetricsFormat::OpenMetrics,
        } => {
            // Same framing as the shard tier: a line count, then the
            // exposition text ending in `# EOF`.
            let text = router.obs().registry.snapshot().to_openmetrics();
            let body = text.trim_end_matches('\n');
            format!("OK openmetrics lines={}\n{body}", body.lines().count())
        }
        Request::Dump => {
            let flight = &router.obs().flight;
            let dir = shared
                .cfg
                .recorder_dir
                .clone()
                .unwrap_or_else(std::env::temp_dir);
            match flight.dump_to_dir(&dir) {
                Ok(path) => format!(
                    "OK dump path={} events={} dropped={}",
                    path.display(),
                    flight.len(),
                    flight.dropped()
                ),
                Err(e) => WireError::DumpFailed(e.to_string()).line(),
            }
        }
        Request::Shutdown => return Action::Shutdown("OK shutting down".into()),
        Request::Quit => return Action::Close("OK bye".into()),
        // Filtered above; unreachable by construction, but render the
        // documented error rather than panic if the filter drifts.
        Request::Stats | Request::Trace { .. } | Request::Swap { .. } => {
            WireError::UnknownVerb(verb_raw.to_string()).line()
        }
    };
    Action::Reply(reply)
}

fn gather_err_line(e: GatherError) -> String {
    match e {
        GatherError::NoShardForTask(t) => WireError::NoShardForTask(t).line(),
        GatherError::ShardUnavailable(f) => WireError::ShardUnavailable {
            shard: f.shard,
            detail: f.detail,
        }
        .line(),
        GatherError::Protocol { shard, line } => WireError::ShardUnavailable {
            shard,
            detail: format!("unparseable response `{line}`"),
        }
        .line(),
        GatherError::Forwarded(line) => line,
    }
}

/// The router-flavored `HEALTH` line: same leading `live=`/`ready=`
/// fields as a shard (probes parse the prefix identically), then
/// `role=router` and the aggregate shard view.
fn health_line(shared: &RouteShared) -> String {
    let (up, total) = shared.router.shards_up();
    let draining = shared.draining.load(Ordering::Acquire);
    let ready = up == total && total > 0 && !draining;
    format!(
        "OK live=1 ready={} role=router shards={total} shards_up={up}/{total} draining={} inflight={}",
        u8::from(ready),
        u8::from(draining),
        shared.inflight.load(Ordering::Acquire)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(spec: &str) -> RouteShared {
        let map = ShardMap::parse(spec).unwrap();
        let cfg = RouteConfig {
            router: RouterConfig {
                // Nothing listens on the test addresses: keep the
                // budget tiny so unavailability is decided fast.
                call_timeout: Duration::from_millis(50),
                budget: Duration::from_millis(100),
                retry: poe_router::RetryPolicy {
                    max_attempts: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        RouteShared {
            router: Router::new(map, cfg.router, poe_obs::Observability::new()),
            cfg,
            addr: "127.0.0.1:0".parse().unwrap(),
            draining: AtomicBool::new(false),
            handled: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            conns_alive: AtomicUsize::new(0),
            accept_error: Mutex::new(None),
            net_handle: OnceLock::new(),
        }
    }

    #[test]
    fn syntax_errors_render_without_backends() {
        let s = test_shared("0-9=127.0.0.1:9");
        assert_eq!(respond_route(&s, "", 1).line(), "ERR empty request");
        assert!(respond_route(&s, "FROB 1", 1)
            .line()
            .starts_with("ERR unknown verb"));
        assert_eq!(
            respond_route(&s, "PREDICT 1 2 3", 1).line(),
            WireError::PredictSyntax.line()
        );
        assert_eq!(
            respond_route(&s, "LOGITS 1", 1).line(),
            WireError::LogitsSyntax.line()
        );
        assert_eq!(
            respond_route(&s, "QUERY 99", 1).line(),
            "ERR no shard for task 99"
        );
        assert!(matches!(respond_route(&s, "QUIT", 1), Action::Close(_)));
        assert!(matches!(
            respond_route(&s, "SHUTDOWN", 1),
            Action::Shutdown(_)
        ));
    }

    #[test]
    fn dead_shard_renders_the_documented_err_row() {
        let s = test_shared("0-9=127.0.0.1:9");
        let line = respond_route(&s, "QUERY 1,2", 7).line().to_string();
        assert!(line.starts_with("ERR shard 0 unavailable: "), "{line}");
    }

    #[test]
    fn health_reports_router_role_and_aggregate() {
        let s = test_shared("0-4=127.0.0.1:9;5-9=127.0.0.1:9");
        let line = health_line(&s);
        assert!(
            line.starts_with("OK live=1 ready=0 role=router shards=2"),
            "{line}"
        );
        assert!(line.contains("shards_up=0/2"), "{line}");
        assert!(line.contains("draining=0"), "{line}");
        s.draining.store(true, Ordering::Release);
        assert!(health_line(&s).contains("draining=1"));
    }

    /// A `HEALTH` that is already in the listener's backlog when the epoll
    /// front tier starts is answered (the loop is wired to its service
    /// before it runs), and the tier keeps accepting afterwards.
    #[test]
    fn epoll_answers_a_line_queued_before_start() {
        use std::io::{BufRead, BufReader, Write};
        if !poe_net::epoll_supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Each connection sends `HEALTH` and reads one answer line.
        let ask_health = |mut stream: TcpStream| {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(b"HEALTH\n").unwrap();
            move || {
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
                line
            }
        };
        let early = ask_health(TcpStream::connect(addr).unwrap());
        let cfg = RouteConfig {
            net: NetBackend::Epoll,
            workers: 2,
            ..test_shared("0-9=127.0.0.1:9").cfg
        };
        let server =
            RouteServer::start(listener, ShardMap::parse("0-9=127.0.0.1:9").unwrap(), cfg).unwrap();
        let line = early();
        assert!(
            line.starts_with("OK live=1 ") && line.contains(" role=router "),
            "{line}"
        );
        let line = ask_health(TcpStream::connect(addr).unwrap())();
        assert!(line.starts_with("OK live=1 "), "{line}");
        server.handle().shutdown();
        server.join().unwrap();
    }

    #[test]
    fn partial_rendering_matches_the_protocol_doc() {
        // Render the partial row from a hand-built GatheredPredict so the
        // format stays pinned even without live shards.
        let p = poe_router::GatheredPredict {
            class: 3,
            task: 1,
            confidence: 0.875,
            shards_ok: 1,
            shards_total: 2,
            missing: vec![4, 5],
        };
        let line = format!(
            "OK partial shards={}/{} missing={} class={} task={} confidence={:.4}",
            p.shards_ok,
            p.shards_total,
            join(&p.missing),
            p.class,
            p.task,
            p.confidence
        );
        assert_eq!(
            line,
            "OK partial shards=1/2 missing=4,5 class=3 task=1 confidence=0.8750"
        );
    }
}
