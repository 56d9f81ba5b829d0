//! The epoll transport for `poe serve`: glue between the `poe-net`
//! readiness event loop and the serve layer's dispatch stage.
//!
//! The event loop owns every socket — accept, the 8 KiB line cap, write
//! backpressure, idle deadlines, the connection cap, and drain are all
//! connection-state transitions inside `poe-net`. What remains here is
//! the dispatch stage: complete request lines are queued to the same
//! worker pool the threads backend uses, each worker runs the identical
//! `respond_action` pipeline (request ids, spans, per-verb counters,
//! micro-batch submit), and the response is completed back into the loop
//! with an [`After`] verdict mapped from the protocol [`Action`].
//!
//! Parity notes (the conformance suite pins these):
//! * Refusal lines (`ERR busy…`, `ERR line too long`, `ERR idle
//!   timeout`, `ERR connection request limit`, `ERR shutting down`) are
//!   rendered by the same [`WireError`] constructors as the threads
//!   backend, jittered hints included.
//! * A worker panic answers nothing and closes the connection
//!   ([`After::Abort`]), exactly like a threads worker dying on a
//!   connection — and is counted in `serve.worker_panics` the same way.
//! * `SHUTDOWN` flushes its `OK shutting down`, then the connection
//!   closes and the server-wide drain begins.

use super::{respond_action, Action, ServerShared};
use crate::wire::WireError;
use poe_net::{
    After, Completions, ConnToken, EventLoop, LoopConfig, NetEvent, NetService, Refusal,
};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The running loop plus the service it drives; joined by `Server::join`.
pub(super) struct EpollParts {
    event_loop: EventLoop,
    svc: Arc<EpollService>,
}

impl EpollParts {
    /// Joins the loop thread (which performs the drain), then closes the
    /// dispatch queue so the worker pool can exit.
    pub(super) fn join(self, _shared: &Arc<ServerShared>) -> poe_net::LoopReport {
        let report = self.event_loop.join();
        self.svc.close();
        report
    }
}

/// Starts the event loop and its dispatch worker pool.
pub(super) fn start(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    workers_n: usize,
) -> std::io::Result<(EpollParts, Vec<JoinHandle<()>>)> {
    let obs = shared.service.obs();
    let loop_cfg = LoopConfig {
        max_line_bytes: shared.cfg.max_line_bytes,
        idle_timeout: shared.cfg.idle_timeout,
        max_conns: shared.cfg.max_conns.max(1),
        max_conn_requests: shared.cfg.max_conn_requests,
        drain_deadline: shared.cfg.drain_deadline,
        metrics: Some(poe_net::NetMetrics::register(&obs.registry)),
        flight: Some(Arc::clone(&obs.flight)),
    };
    let (tx, rx) = channel::<(ConnToken, String)>();
    // Wired before the loop thread starts: a line already waiting in the
    // listener's backlog finds both the completions and the loop handle.
    let (event_loop, svc) = EventLoop::start(
        listener,
        |handle| {
            shared
                .net_handle
                .set(handle.clone())
                .expect("one event loop per server");
            Arc::new(EpollService {
                shared: Arc::clone(&shared),
                tx: Mutex::new(Some(tx)),
                completions: handle.completions(),
            })
        },
        loop_cfg,
    )?;
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(workers_n);
    for i in 0..workers_n {
        let rx = Arc::clone(&rx);
        let svc = Arc::clone(&svc);
        workers.push(
            std::thread::Builder::new()
                .name(format!("poe-serve-dispatch-{i}"))
                .spawn(move || dispatch_worker(rx, svc))
                .expect("spawn serve dispatch worker"),
        );
    }
    Ok((EpollParts { event_loop, svc }, workers))
}

/// The serve layer seen from the event loop.
struct EpollService {
    shared: Arc<ServerShared>,
    /// Dispatch queue into the worker pool; dropped to stop the workers.
    tx: Mutex<Option<Sender<(ConnToken, String)>>>,
    completions: Completions,
}

impl EpollService {
    fn close(&self) {
        self.tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
    }

    /// Runs one request through the shared `respond_action` pipeline —
    /// panic-contained, exactly like a threads worker — and completes
    /// the response into the loop. Called from a dispatch worker, or
    /// inline on the loop thread for the control-verb fast path.
    fn serve_one(&self, conn: ConnToken, line: &str) {
        let shared = &self.shared;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            poe_chaos::maybe_panic(poe_chaos::sites::SERVE_WORKER_PANIC);
            respond_action(line, &shared.service, shared.input_dim, Some(shared))
        }));
        match outcome {
            Ok((response, action)) => {
                let after = match action {
                    Action::Continue => After::Reply,
                    Action::Close => After::Close,
                    Action::Shutdown => After::Shutdown,
                };
                self.completions.complete(conn, response, after);
                if matches!(action, Action::Shutdown) {
                    shared.trigger_shutdown();
                }
            }
            Err(_) => {
                shared.metrics.worker_panics.inc();
                shared.service.obs().flight.record_for(
                    0,
                    "worker.panic",
                    format!("conn={conn} contained=1"),
                );
                shared.cvar.notify_all();
                self.completions.complete(conn, String::new(), After::Abort);
            }
        }
    }
}

impl NetService for EpollService {
    fn dispatch(&self, conn: ConnToken, line: String) {
        // Control-verb fast path: `INFO` and `HEALTH` are non-blocking
        // in-memory reads, so they are answered inline on the loop
        // thread — the worker-pool hop (mpsc handoff plus eventfd
        // wakeup, two extra context switches) would roughly double
        // their round trip. Verbs that can block (micro-batching,
        // consolidation, recorder file I/O) still go to the pool.
        // `serve_one` keeps chaos/panic parity with the worker path.
        let verb = line.trim();
        if verb == "INFO" || verb == "HEALTH" {
            self.serve_one(conn, &line);
            return;
        }
        let sent = match &*self.tx.lock().unwrap_or_else(PoisonError::into_inner) {
            Some(tx) => tx.send((conn, line)).is_ok(),
            None => false,
        };
        if !sent {
            // Workers already gone (shutdown race): never leave a
            // dispatched connection waiting for a completion that cannot
            // come.
            self.completions.complete(conn, String::new(), After::Abort);
        }
    }

    fn refusal_line(&self, refusal: Refusal) -> String {
        let cfg = &self.shared.cfg;
        match refusal {
            Refusal::Busy => {
                let retry_after_ms = super::jittered_retry_after_ms(cfg.retry_after_ms);
                self.shared.service.obs().flight.record_for(
                    0,
                    "shed",
                    format!("retry_after_ms={retry_after_ms}"),
                );
                WireError::Busy { retry_after_ms }.line()
            }
            Refusal::LineTooLong => WireError::LineTooLong {
                max_bytes: cfg.max_line_bytes,
            }
            .line(),
            Refusal::IdleTimeout => WireError::IdleTimeout.line(),
            Refusal::ConnRequestLimit => WireError::ConnRequestLimit.line(),
            Refusal::ShuttingDown => WireError::ShuttingDown {
                retry_after_ms: super::jittered_retry_after_ms(cfg.retry_after_ms),
            }
            .line(),
        }
    }

    fn on_event(&self, event: NetEvent) {
        let m = &self.shared.metrics;
        match event {
            NetEvent::Accepted => m.accepted.inc(),
            NetEvent::Shed => m.shed.inc(),
            NetEvent::IdleTimedOut => m.timeouts.inc(),
            NetEvent::Oversize => m.oversize.inc(),
            NetEvent::WriteError => m.write_errors.inc(),
            NetEvent::Closed => {}
            // The listener died: begin the drain and wake `join`, which
            // surfaces the loop report's accept error.
            NetEvent::AcceptFailed => self.shared.trigger_shutdown(),
        }
    }

    fn on_response_written(&self, _conn: ConnToken) {
        // The analog of the threads backend's post-`send_line`
        // accounting: a response only counts once the transport actually
        // flushed it.
        let shared = &self.shared;
        let n = {
            let mut st = shared.lock_state();
            st.handled += 1;
            st.handled
        };
        shared.cvar.notify_all();
        if n >= shared.cfg.max_requests {
            shared.trigger_shutdown();
        }
    }
}

/// One dispatch worker: the epoll-side sibling of `worker_loop`, scoped
/// to a request instead of a connection. Panics are contained per
/// request; the worker survives and the connection is aborted.
fn dispatch_worker(rx: Arc<Mutex<Receiver<(ConnToken, String)>>>, svc: Arc<EpollService>) {
    let shared = &svc.shared;
    loop {
        let (conn, line) = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            match rx.recv() {
                Ok(x) => x,
                Err(_) => break, // queue closed: server is done
            }
        };
        svc.serve_one(conn, &line);
    }
    shared.workers_alive.fetch_sub(1, Ordering::AcqRel);
    shared.cvar.notify_all();
}
