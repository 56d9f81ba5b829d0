//! Open-loop load: requests leave on a Poisson schedule fixed in advance
//! from the workload seed, whether or not earlier ones were answered.
//!
//! The driver is one process with two load threads, both at raised
//! priority: a sender sends each request when it is due, on the pipelined
//! connection with the fewest requests in flight; a receiver reads
//! responses off both sockets through one epoll set. Responses on a connection come back in request
//! order, so each connection keeps a FIFO of what it has in flight.
//! Latency is measured from when a request was *due*, so a stall also
//! charges the requests queued behind it.

use crate::trace::{Span, Tracer};
use poe_net::poller::{Interest, PollEvent, Poller};
use poe_tensor::Prng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// With every request sent, give up on the rest after this long without
/// a response (a hung server fails the run instead of hanging it).
const STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// One scheduled request: when it is due (ns after the phase starts) and
/// which catalog item it sends.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub at_ns: u64,
    pub item: usize,
}

/// A Poisson schedule of `seconds` at `rate` req/s; `pick` chooses each
/// request's catalog item.
pub fn poisson(
    rng: &mut Prng,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut Prng) -> usize,
) -> Vec<Arrival> {
    let horizon = seconds * 1e9;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential gap from a 53-bit uniform in (0, 1].
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(Arrival {
            at_ns: t as u64,
            item: pick(rng),
        });
    }
}

/// What happened to one request. Times are ns since the run's epoch.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub item: usize,
    pub due_ns: u64,
    pub sent_ns: Option<u64>,
    pub recv_ns: Option<u64>,
    /// The response line; `None` on a socket error or a lost response.
    pub response: Option<String>,
}

/// The load connections to one server.
pub struct Driver {
    conns: Vec<TcpStream>,
    epoch: Instant,
}

struct Inflight {
    idx: usize,
    sent_ns: u64,
}

struct Received {
    idx: usize,
    sent_ns: u64,
    recv_ns: u64,
    line: String,
}

impl Driver {
    /// Opens `n` connections to `addr`. `epoch` is the zero of every
    /// timestamp the driver reports.
    pub fn connect(addr: &str, n: usize, epoch: Instant) -> io::Result<Driver> {
        let conns = (0..n)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Driver { conns, epoch })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sends `arrivals` on schedule and collects every response. `lines`
    /// are the catalog's request lines, newline-terminated. With a
    /// tracer, each request leaves a `client.request` span with
    /// `driver.lag` (due → sent) and `client.wait` (sent → answered)
    /// children.
    pub fn run(
        &mut self,
        lines: &[String],
        arrivals: &[Arrival],
        tracer: Option<&Tracer>,
    ) -> Vec<Outcome> {
        let start = Instant::now() + Duration::from_millis(2);
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let queues: Vec<Mutex<VecDeque<Inflight>>> = self
            .conns
            .iter()
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        let sending = AtomicBool::new(true);
        let received = std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                raise_priority();
                self.receive(&queues, &sending, arrivals, start_ns, tracer)
            });
            let sender = s.spawn(|| {
                raise_priority();
                let mut write_failed = vec![false; self.conns.len()];
                for (idx, a) in arrivals.iter().enumerate() {
                    let due = start + Duration::from_nanos(a.at_ns);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    // The connection with the fewest requests in flight, as
                    // a client with two pipelined connections would pick;
                    // ties alternate.
                    let depth = |c: usize| {
                        queues[c]
                            .lock()
                            .expect("receiver never panics holding a queue")
                            .len()
                    };
                    let n = self.conns.len();
                    let c = (0..n)
                        .map(|i| (idx + i) % n)
                        .filter(|&c| !write_failed[c])
                        .min_by_key(|&c| depth(c));
                    let Some(c) = c else {
                        continue;
                    };
                    let sent_ns = self.now_ns();
                    queues[c]
                        .lock()
                        .expect("receiver never panics holding a queue")
                        .push_back(Inflight { idx, sent_ns });
                    if (&self.conns[c])
                        .write_all(lines[a.item].as_bytes())
                        .is_err()
                    {
                        write_failed[c] = true;
                    }
                }
                sending.store(false, Ordering::Release);
            });
            sender.join().expect("sender thread panicked");
            receiver.join().expect("receiver thread panicked")
        });

        let mut outcomes: Vec<Outcome> = arrivals
            .iter()
            .map(|a| Outcome {
                item: a.item,
                due_ns: start_ns + a.at_ns,
                sent_ns: None,
                recv_ns: None,
                response: None,
            })
            .collect();
        for r in received {
            let o = &mut outcomes[r.idx];
            o.sent_ns = Some(r.sent_ns);
            o.recv_ns = Some(r.recv_ns);
            o.response = Some(r.line);
        }
        outcomes
    }

    /// Reads responses until every request is answered, or — once
    /// sending is over — until the sockets close or go quiet for
    /// [`STALL_TIMEOUT`].
    fn receive(
        &self,
        queues: &[Mutex<VecDeque<Inflight>>],
        sending: &AtomicBool,
        arrivals: &[Arrival],
        start_ns: u64,
        tracer: Option<&Tracer>,
    ) -> Vec<Received> {
        let total = arrivals.len();
        let poller = Poller::new().expect("epoll is available on Linux");
        for (i, c) in self.conns.iter().enumerate() {
            poller
                .add(c.as_raw_fd(), i as u64, Interest::READ)
                .expect("register load socket");
        }
        let mut open = vec![true; self.conns.len()];
        let mut bufs: Vec<Vec<u8>> = self.conns.iter().map(|_| Vec::new()).collect();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut out = Vec::with_capacity(total);
        let mut events: Vec<PollEvent> = Vec::new();
        let mut last_progress = Instant::now();
        while out.len() < total {
            events.clear();
            if poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .is_err()
            {
                break;
            }
            if events.is_empty() {
                let quiet = last_progress.elapsed() > STALL_TIMEOUT;
                if !sending.load(Ordering::Acquire) && (quiet || !open.contains(&true)) {
                    break;
                }
                continue;
            }
            for ev in &events {
                let c = ev.token as usize;
                if !open[c] {
                    continue;
                }
                // Level-triggered readiness: this read does not block.
                let n = match (&self.conns[c]).read(&mut chunk) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => 0,
                };
                if n == 0 {
                    open[c] = false;
                    let _ = poller.delete(self.conns[c].as_raw_fd());
                    continue;
                }
                let recv_ns = self.now_ns();
                last_progress = Instant::now();
                let buf = &mut bufs[c];
                buf.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&buf[consumed..consumed + nl]).into_owned();
                    consumed += nl + 1;
                    let head = queues[c]
                        .lock()
                        .expect("sender never panics holding a queue")
                        .pop_front();
                    if let Some(f) = head {
                        if let Some(t) = tracer {
                            let due_ns = start_ns + arrivals[f.idx].at_ns;
                            let rid = f.idx as u64;
                            let root = t.record(Span::root("client.request", due_ns, recv_ns, rid));
                            t.record(Span::child("driver.lag", due_ns, f.sent_ns, root, rid));
                            t.record(Span::child("client.wait", f.sent_ns, recv_ns, root, rid));
                        }
                        out.push(Received {
                            idx: f.idx,
                            sent_ns: f.sent_ns,
                            recv_ns,
                            line,
                        });
                    }
                }
                buf.drain(..consumed);
            }
        }
        out
    }
}

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Nice value of the load threads. On the one CPU the servers share
/// with them, a load thread at the servers' priority wakes when the
/// scheduler gets to it, which made the generator send up to 2 ms late
/// and timestamp answers late; at a higher priority it preempts on
/// wake-up and both times are taken when they happen.
const LOAD_NICE: i32 = -10;

/// Raises the calling thread's priority to [`LOAD_NICE`] (on Linux a nice
/// value is per thread). Without the privilege to do so the thread keeps
/// its priority, and the generator's lateness shows it.
fn raise_priority() {
    // SAFETY: setpriority takes plain integers and touches no memory;
    // PRIO_PROCESS (0) with who = 0 names the calling thread.
    unsafe {
        setpriority(0, 0, LOAD_NICE);
    }
}

/// Requests due by `t_ns` that have no response by `t_ns`.
pub fn backlog_at(outcomes: &[Outcome], t_ns: u64) -> usize {
    outcomes
        .iter()
        .filter(|o| o.due_ns <= t_ns && o.recv_ns.is_none_or(|r| r > t_ns))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson(&mut Prng::seed_from_u64(9), 2000.0, 2.0, |r| r.below(4));
        let b = poisson(&mut Prng::seed_from_u64(9), 2000.0, 2.0, |r| r.below(4));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at_ns == y.at_ns && x.item == y.item));
        assert!((3700..4300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn backlog_counts_due_and_unanswered() {
        let o = |due, recv| Outcome {
            item: 0,
            due_ns: due,
            sent_ns: Some(due),
            recv_ns: recv,
            response: None,
        };
        let outcomes = [o(0, Some(5)), o(2, Some(20)), o(4, None), o(30, Some(31))];
        assert_eq!(backlog_at(&outcomes, 10), 2);
        assert_eq!(backlog_at(&outcomes, 25), 1);
    }
}
