//! The server processes under test: spawning `poe serve` / `poe route`,
//! waiting for readiness, scraping `METRICS` and peak RSS, and stopping
//! them again. Everything here talks to the program from outside, over
//! its wire protocol and `/proc`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a process may take to bind and become ready.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a process may take to exit after `SHUTDOWN`.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);
/// Read deadline for one control round trip.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// What to launch for one workload.
#[derive(Clone, Debug)]
pub enum Deployment {
    /// One `poe serve` with these flags.
    Single { serve: Vec<String> },
    /// `poe route` with `router` flags over one `poe serve` per task
    /// range, each with `shard` flags.
    Routed {
        ranges: Vec<&'static str>,
        shard: Vec<String>,
        router: Vec<String>,
    },
}

impl Deployment {
    /// Every server command line, for the run header.
    pub fn describe(&self) -> String {
        match self {
            Deployment::Single { serve } => format!("serve {}", serve.join(" ")),
            Deployment::Routed {
                ranges,
                shard,
                router,
            } => format!(
                "route {} over serve[{}] {}",
                router.join(" "),
                ranges.join(","),
                shard.join(" ")
            ),
        }
    }
}

/// One running `poe` process.
pub struct Proc {
    child: Child,
    /// `HOST:PORT` it listens on.
    pub addr: String,
    /// True for the `poe route` front tier.
    pub is_router: bool,
}

/// The processes of one deployment, entry point last.
pub struct Fleet {
    procs: Vec<Proc>,
}

impl Fleet {
    /// Spawns the deployment and returns once every process answers
    /// `HEALTH` with `ready=1`.
    pub fn start(poe: &Path, pool: &Path, work: &Path, deploy: &Deployment) -> io::Result<Fleet> {
        let mut fleet = Fleet { procs: Vec::new() };
        let pool = pool.to_string_lossy().into_owned();
        match deploy {
            Deployment::Single { serve } => {
                let args = serve_args(&pool, serve);
                fleet.procs.push(spawn(poe, work, "serve", &args, false)?);
            }
            Deployment::Routed {
                ranges,
                shard,
                router,
            } => {
                for (i, _) in ranges.iter().enumerate() {
                    let args = serve_args(&pool, shard);
                    let child = spawn_child(poe, work, &format!("shard{i}"), &args)?;
                    fleet.procs.push(Proc {
                        child,
                        addr: String::new(),
                        is_router: false,
                    });
                }
                // Shards ready before the router starts, so the router's
                // first health probes find them serving.
                let deadline = Instant::now() + START_TIMEOUT;
                for i in 0..ranges.len() {
                    let addr = wait_addr(
                        &mut fleet.procs[i].child,
                        &out_path(work, &format!("shard{i}")),
                    )?;
                    fleet.procs[i].addr = addr;
                    wait_ready(&mut fleet.procs[i], deadline)?;
                }
                let map: Vec<String> = ranges
                    .iter()
                    .zip(&fleet.procs)
                    .map(|(r, p)| format!("{r}={}", p.addr))
                    .collect();
                let mut args = vec![
                    "route".to_string(),
                    "--shards".into(),
                    map.join(";"),
                    "--port".into(),
                    "0".into(),
                ];
                args.extend(router.iter().cloned());
                fleet.procs.push(spawn(poe, work, "router", &args, true)?);
            }
        }
        let deadline = Instant::now() + START_TIMEOUT;
        for p in &mut fleet.procs {
            wait_ready(p, deadline)?;
        }
        Ok(fleet)
    }

    /// Address the load is sent to.
    pub fn entry(&self) -> &str {
        &self.procs.last().expect("a fleet has a process").addr
    }

    /// The `poe serve` processes (every process but the router).
    pub fn servers(&self) -> impl Iterator<Item = &Proc> {
        self.procs.iter().filter(|p| !p.is_router)
    }

    /// The `poe route` process, if any.
    pub fn router(&self) -> Option<&Proc> {
        self.procs.iter().find(|p| p.is_router)
    }

    /// Peak resident set (`VmHWM`) summed over every server process,
    /// `poe route` included, in MiB.
    pub fn server_rss_mb(&self) -> io::Result<f64> {
        let mut kb = 0.0;
        for p in &self.procs {
            let status = std::fs::read_to_string(format!("/proc/{}/status", p.child.id()))?;
            let line = status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
            kb += line
                .split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other(format!("bad VmHWM line `{line}`")))?;
        }
        Ok(kb / 1024.0)
    }

    /// Sends `SHUTDOWN` to every process (front tier first) and waits
    /// for each to exit; a process that overstays is killed.
    pub fn stop(mut self) -> io::Result<()> {
        let mut first_err = None;
        for p in self.procs.iter_mut().rev() {
            if let Err(e) = stop_proc(p) {
                first_err.get_or_insert(e);
            }
        }
        self.procs.clear();
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a server behind.
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

fn serve_args(pool: &str, flags: &[String]) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "--pool", pool, "--port", "0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(flags.iter().cloned());
    args
}

fn out_path(work: &Path, name: &str) -> PathBuf {
    work.join(format!("{name}.out"))
}

fn spawn_child(poe: &Path, work: &Path, name: &str, args: &[String]) -> io::Result<Child> {
    Command::new(poe)
        .args(args)
        // Fault injection would turn a measurement into a chaos test.
        .env_remove("POE_CHAOS")
        .env_remove("POE_CHAOS_SEED")
        .stdin(Stdio::null())
        .stdout(File::create(out_path(work, name))?)
        .stderr(File::create(work.join(format!("{name}.err")))?)
        .spawn()
}

fn spawn(
    poe: &Path,
    work: &Path,
    name: &str,
    args: &[String],
    is_router: bool,
) -> io::Result<Proc> {
    let mut child = spawn_child(poe, work, name, args)?;
    match wait_addr(&mut child, &out_path(work, name)) {
        Ok(addr) => Ok(Proc {
            child,
            addr,
            is_router,
        }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Waits for the `… on 127.0.0.1:PORT …` banner a server prints once it
/// has bound its port.
fn wait_addr(child: &mut Child, out: &Path) -> io::Result<String> {
    let deadline = Instant::now() + START_TIMEOUT;
    loop {
        let text = std::fs::read_to_string(out).unwrap_or_default();
        if let Some(addr) = text
            .lines()
            .next()
            .and_then(|l| l.split(" on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
        {
            return Ok(addr.to_string());
        }
        if let Some(status) = child.try_wait()? {
            return Err(io::Error::other(format!(
                "server exited ({status}) before binding; see {}",
                out.with_extension("err").display()
            )));
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("server did not bind in time"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

fn wait_ready(p: &mut Proc, deadline: Instant) -> io::Result<()> {
    loop {
        let health = call(&p.addr, "HEALTH");
        match &health {
            Ok(line) if line.contains(" ready=1") => return Ok(()),
            // The port was bound before the banner, so a refusal means
            // the listener is gone and the process will never serve.
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                return Err(io::Error::other(format!(
                    "{} refuses connections after binding",
                    p.addr
                )));
            }
            _ => {}
        }
        if let Some(status) = p.child.try_wait()? {
            return Err(io::Error::other(format!("{} exited ({status})", p.addr)));
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "{} never became ready (last HEALTH: {health:?})",
                p.addr
            )));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

fn stop_proc(p: &mut Proc) -> io::Result<()> {
    let asked = call(&p.addr, "SHUTDOWN");
    let deadline = Instant::now() + STOP_TIMEOUT;
    loop {
        if p.child.try_wait()?.is_some() {
            return asked.map(|_| ());
        }
        if Instant::now() > deadline {
            p.child.kill()?;
            p.child.wait()?;
            return Err(io::Error::other(format!("{} ignored SHUTDOWN", p.addr)));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A blocking line-protocol connection for control and idle-latency
/// traffic.
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineConn {
    pub fn connect(addr: &str) -> io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CALL_TIMEOUT))?;
        Ok(LineConn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and returns the response line, trimmed.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut out = String::new();
        if self.reader.read_line(&mut out)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(out.trim_end().to_string())
    }
}

/// One request on a fresh connection.
pub fn call(addr: &str, line: &str) -> io::Result<String> {
    LineConn::connect(addr)?.call(line)
}

/// The `counters` object of a `METRICS` JSON response.
pub fn counters(addr: &str) -> io::Result<BTreeMap<String, f64>> {
    let line = call(addr, "METRICS")?;
    parse_counters(&line).ok_or_else(|| io::Error::other(format!("unparseable METRICS: {line}")))
}

/// Extracts the flat `"counters":{"name":n,…}` map from a `METRICS`
/// line.
fn parse_counters(line: &str) -> Option<BTreeMap<String, f64>> {
    let start = line.find("\"counters\":{")? + "\"counters\":{".len();
    let body = &line[start..start + line[start..].find('}')?];
    let mut out = BTreeMap::new();
    for pair in body.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once(':')?;
        out.insert(k.trim_matches('"').to_string(), v.parse().ok()?);
    }
    Some(out)
}

/// Per-counter difference `after − before`, summed over processes.
pub fn counter_delta(
    before: &[BTreeMap<String, f64>],
    after: &[BTreeMap<String, f64>],
    name: &str,
) -> f64 {
    let get = |m: &BTreeMap<String, f64>| m.get(name).copied().unwrap_or(0.0);
    after.iter().map(get).sum::<f64>() - before.iter().map(get).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_parse_from_a_metrics_line() {
        let line = "OK {\"counters\":{\"a.b\":3,\"c\":0},\"gauges\":{\"g\":1}}";
        let c = parse_counters(line).expect("parses");
        assert_eq!(c.get("a.b"), Some(&3.0));
        assert_eq!(c.get("c"), Some(&0.0));
        assert_eq!(c.len(), 2);
    }
}
