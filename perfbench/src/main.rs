//! Open-loop serving benchmark for `poe serve` / `poe route`.
//!
//! ```text
//! perfbench --poe PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--batch-delay-us N]
//! ```
//!
//! Extracts the shared pool with `poe preprocess`, starts the workload's
//! servers, drives them with an open-loop Poisson schedule drawn from
//! `--seed`, checks every answer against an in-process oracle over the
//! same pool, and prints the result JSON as its last stdout line: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. See README.md for the workloads and metrics.

mod fleet;
mod layers;
mod load;
mod stats;
mod trace;
mod workload;

use fleet::{counter_delta, Fleet, LineConn};
use load::{backlog_at, poisson, Driver, Outcome};
use stats::{median, quantile, ratio, result_json, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workload::{check, Catalog, Kind, Verdict, Workload};

/// `poe preprocess` arguments of the pool every workload shares: 20
/// primitive tasks × 5 classes (the paper's CIFAR-100 shape).
const POOL_ARGS: [&str; 6] = [
    "--dataset",
    "balanced:20x5",
    "--epochs",
    "2",
    "--seed",
    "2021",
];
/// Pipelined load connections.
const CONNS: usize = 2;
/// Latency limit on p99 for a rate to count towards `max_rps`. Not 5 ms:
/// on one CPU, `routed` runs four processes and its p99 is already 3–5 ms
/// at its fixed rate, 40 % of its knee, where a 5 ms limit would put its
/// `max_rps`.
const SLO_P99_MS: f64 = 10.0;
/// Failure share a rate may have and still count towards `max_rps`; the
/// fixed-rate phase must stay within it too.
const SLO_FAIL_SHARE: f64 = 0.001;
/// Ratio between neighbouring rates of the `max_rps` grid.
const GRID_STEP: f64 = 1.05;
/// Grid point the `max_rps` walk starts from: `GRID_STEP^19` ≈ 2.5 times
/// the fixed rate, the knee measured when the benchmark was defined, so
/// that the walk takes few steps whichever side of the knee it starts on.
const WALK_FROM: i32 = 19;
/// Length of one `max_rps` step: long enough that one stall of 10–20 ms
/// alone cannot push its p99 past the limit.
const STEP_S: f64 = 2.0;
/// Pool extractions per untraced run; `extract_s` is their median.
const EXTRACT_REPS: usize = 3;
/// Backlog samples per quarter of a phase for its growth.
const BACKLOG_SAMPLES: u64 = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Attempts at one set-up before the run fails. The `routed` shards'
/// start-up race (see README.md) can hit several set-ups in a row.
const START_ATTEMPTS: usize = 10;
/// Unmeasured load at the fixed rate before the first measured phase.
const WARMUP_S: f64 = 1.0;
/// Idle round trips for `net.rtt_us` and the idle ledger.
const IDLE_CALLS: usize = 400;
/// A run is invalid when the generator's p99 lateness at the fixed rate
/// exceeds this: the generator, not the server, fell behind.
const LAG_INVALID_US: f64 = 2000.0;
/// Seed of the request catalog (task sets and feature rows). It is the
/// same for every run, so runs with different `--seed`s send the same
/// requests and differ only in their Poisson schedule.
const CATALOG_SEED: u64 = 2021;

struct Args {
    poe: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    batch_delay_us: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let take = |k: &str| kv.get(k).cloned().ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        take(k)?
            .parse()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    let args = Args {
        poe: PathBuf::from(take("poe")?),
        workload: take("workload")?,
        seed: num("seed")?,
        seconds: num("seconds")? as f64,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace wants 0 or 1, got `{v}`")),
        },
        batch_delay_us: kv
            .get("batch-delay-us")
            .map(|_| num("batch-delay-us"))
            .transpose()?,
    };
    if args.seconds < 4.0 {
        return Err("--seconds must be at least 4".into());
    }
    for k in kv.keys() {
        if ![
            "poe",
            "workload",
            "seed",
            "seconds",
            "trace",
            "batch-delay-us",
        ]
        .contains(&k.as_str())
        {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Identifies the code under test: the git commit when there is one,
/// else a digest of the sources.
fn commit_id() -> String {
    if Path::new(".git").exists() {
        let git = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    // FNV-1a over every path and its bytes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = workload::find(&args.workload, args.batch_delay_us)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if !args.poe.is_file() {
        return Err(format!("no poe binary at {}", args.poe.display()));
    }
    let root = PathBuf::from(".bench_build").join("perfbench");
    let work = root.join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = Bench::new(args, w, &work).and_then(|mut b| b.run(&root));
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// One phase's verdict.
struct Eval {
    sent: u64,
    failed: u64,
    mismatches: Vec<String>,
    /// Latency from due time of each answered request, in due order.
    lat_ms: Vec<f64>,
    /// How late each sent request left, in due order.
    lag_us: Vec<f64>,
    /// Mean backlog over the phase's last quarter minus over its first.
    backlog_growth: f64,
    backlog_end: usize,
    ok_rps: f64,
}

impl Eval {
    fn of(catalog: &Catalog, outcomes: &[Outcome], seconds: f64) -> Eval {
        let mut e = Eval {
            sent: outcomes.len() as u64,
            failed: 0,
            mismatches: Vec::new(),
            lat_ms: Vec::with_capacity(outcomes.len()),
            lag_us: Vec::with_capacity(outcomes.len()),
            backlog_growth: 0.0,
            backlog_end: 0,
            ok_rps: 0.0,
        };
        for o in outcomes {
            if let Some(sent) = o.sent_ns {
                e.lag_us.push(sent.saturating_sub(o.due_ns) as f64 / 1e3);
            }
            match check(&catalog.items[o.item], o.response.as_deref()) {
                Verdict::Ok => {
                    let recv = o.recv_ns.expect("an answered request has a receive time");
                    e.lat_ms.push(recv.saturating_sub(o.due_ns) as f64 / 1e6);
                }
                Verdict::Failed => e.failed += 1,
                Verdict::Mismatch(m) => e.mismatches.push(m),
            }
        }
        if let (Some(first), Some(last)) = (outcomes.first(), outcomes.last()) {
            let span = last.due_ns - first.due_ns;
            let mean = |from: u64| -> f64 {
                (0..BACKLOG_SAMPLES)
                    .map(|i| backlog_at(outcomes, from + span / 4 * i / BACKLOG_SAMPLES) as f64)
                    .sum::<f64>()
                    / BACKLOG_SAMPLES as f64
            };
            e.backlog_growth = mean(first.due_ns + span / 4 * 3) - mean(first.due_ns);
            e.backlog_end = backlog_at(outcomes, last.due_ns);
        }
        e.ok_rps = e.lat_ms.len() as f64 / seconds;
        e
    }

    /// p50 over every answered request; infinite when none was.
    fn p50(&self) -> f64 {
        quantile(&self.lat_ms, 0.5).unwrap_or(f64::INFINITY)
    }

    /// p99 over every answered request; infinite when none was.
    fn p99(&self) -> f64 {
        quantile(&self.lat_ms, 0.99).unwrap_or(f64::INFINITY)
    }

    fn lag_p99(&self) -> f64 {
        quantile(&self.lag_us, 0.99).unwrap_or(0.0)
    }

    fn fail_share(&self) -> f64 {
        ratio(self.failed as f64, self.sent as f64)
    }

    /// Whether this phase meets every limit at its offered `rate`: p99
    /// within the latency limit, failures within their share, no answer
    /// wrong, and a backlog that grew by less than the latency limit's
    /// worth of arrivals from the phase's first quarter to its last.
    fn passes(&self, rate: f64) -> bool {
        self.p99() <= SLO_P99_MS
            && self.fail_share() <= SLO_FAIL_SHARE
            && self.mismatches.is_empty()
            && self.backlog_growth <= (rate * SLO_P99_MS / 1e3).max(4.0)
    }
}

/// Runs `poe preprocess` `reps` times into `work`; returns the last
/// pool and the median wall time.
fn extract(poe: &Path, work: &Path, reps: usize) -> Result<(PathBuf, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut pool = PathBuf::new();
    for i in 0..reps {
        pool = work.join(format!("pool{i}"));
        let log = std::fs::File::create(work.join(format!("preprocess{i}.err")))
            .map_err(|e| format!("create preprocess log: {e}"))?;
        let t = Instant::now();
        let status = Command::new(poe)
            .arg("preprocess")
            .args(POOL_ARGS)
            .arg("--out")
            .arg(&pool)
            .env_remove("POE_CHAOS")
            .env_remove("POE_CHAOS_SEED")
            .stdout(Stdio::null())
            .stderr(log)
            .status()
            .map_err(|e| format!("run poe preprocess: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("poe preprocess failed ({status})"));
        }
    }
    Ok((pool, median(&times)))
}

struct Bench<'a> {
    args: &'a Args,
    w: Workload,
    work: PathBuf,
    pool: PathBuf,
    epoch: Instant,
    extract_s: f64,
    catalog: Catalog,
    lines: Vec<String>,
    rng: poe_tensor::Prng,
    sent: u64,
    failed: u64,
    mismatches: Vec<String>,
    /// Set-ups in which a server died (see [`Bench::start_fleet`]).
    failed_setups: u64,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args, w: Workload, work: &Path) -> Result<Bench<'a>, String> {
        let reps = if args.trace { 1 } else { EXTRACT_REPS };
        let (pool, extract_s) = extract(&args.poe, work, reps)?;
        let (oracle, input_dim) = layers::service(&pool, 0)?;
        let mut catalog_rng = poe_tensor::Prng::seed_from_u64(CATALOG_SEED);
        let catalog = Catalog::build(w.kind, &mut catalog_rng, &oracle, input_dim);
        Ok(Bench {
            args,
            lines: catalog.lines(),
            catalog,
            w,
            work: work.to_path_buf(),
            pool,
            epoch: Instant::now(),
            extract_s,
            rng: poe_tensor::Prng::seed_from_u64(args.seed),
            sent: 0,
            failed: 0,
            mismatches: Vec::new(),
            failed_setups: 0,
        })
    }

    /// Starts the workload's servers; returns them with the set-up time.
    /// A set-up in which a server dies is reported and made again, up to
    /// [`START_ATTEMPTS`] times; its time is not a set-up time.
    fn start_fleet(&mut self) -> Result<(Fleet, f64), String> {
        let mut attempt = 1;
        loop {
            let t = Instant::now();
            match Fleet::start(&self.args.poe, &self.pool, &self.work, &self.w.deploy) {
                Ok(fleet) => return Ok((fleet, t.elapsed().as_secs_f64())),
                Err(e) => {
                    let e = format!("start servers: {e}{}", self.panics());
                    self.failed_setups += 1;
                    if attempt == START_ATTEMPTS {
                        return Err(e);
                    }
                    eprintln!("perfbench: SET-UP FAILED, starting again: {e}");
                }
            }
            attempt += 1;
        }
    }

    /// The panic messages in the servers' stderr logs, if any.
    fn panics(&self) -> String {
        let mut out = String::new();
        for name in ["serve", "shard0", "shard1", "router"] {
            let log = std::fs::read_to_string(self.work.join(format!("{name}.err")));
            let log = log.unwrap_or_default();
            let mut lines = log.lines();
            while let Some(l) = lines.next() {
                if l.contains("panicked at") {
                    let msg = lines.next().unwrap_or("");
                    out.push_str(&format!("; {name}: {} {msg}", l.trim()));
                }
            }
        }
        out
    }

    /// Runs `seconds` of Poisson arrivals at `rate`; every phase after
    /// the warm-up adds to the run's attempted/failed totals, and wrong
    /// answers always count.
    fn phase(
        &mut self,
        driver: &mut Driver,
        rate: f64,
        seconds: f64,
        counted: bool,
        tracer: Option<&Tracer>,
    ) -> (Vec<Outcome>, Eval) {
        let catalog = &self.catalog;
        let arrivals = poisson(&mut self.rng, rate, seconds, |r| catalog.pick(r));
        let outcomes = driver.run(&self.lines, &arrivals, tracer);
        let eval = Eval::of(&self.catalog, &outcomes, seconds);
        if counted {
            self.sent += eval.sent;
            self.failed += eval.failed;
        }
        self.mismatches.extend(eval.mismatches.iter().cloned());
        (outcomes, eval)
    }

    fn run(&mut self, out_dir: &Path) -> Result<String, String> {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} commit={} rate={} conns={} \
             deploy=[{}] pool=[{}]",
            self.w.name,
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace),
            commit_id(),
            self.w.rate,
            CONNS,
            self.w.deploy.describe(),
            POOL_ARGS.join(" "),
        );
        let reps = if self.args.trace { 1 } else { SETUP_REPS };
        let mut setups = Vec::with_capacity(reps);
        for _ in 1..reps {
            let (fleet, s) = self.start_fleet()?;
            setups.push(s);
            fleet.stop().map_err(|e| format!("stop servers: {e}"))?;
        }
        let (fleet, s) = self.start_fleet()?;
        setups.push(s);
        let mut driver = Driver::connect(fleet.entry(), CONNS, self.epoch)
            .map_err(|e| format!("connect: {e}"))?;
        self.phase(&mut driver, self.w.rate, WARMUP_S, false, None);

        let metrics = if self.args.trace {
            self.traced(driver, fleet, out_dir)?
        } else {
            self.untraced(driver, fleet, median(&setups))?
        };
        if self.failed_setups > 0 {
            println!(
                "perfbench: {} of the set-ups failed (a server died) and were made again",
                self.failed_setups
            );
        }
        for m in self.mismatches.iter().take(10) {
            eprintln!("perfbench: WRONG ANSWER {m}");
        }
        let correct = self.mismatches.is_empty();
        result_json(correct, self.sent.max(1), self.failed, &metrics)
    }

    fn untraced(
        &mut self,
        mut driver: Driver,
        fleet: Fleet,
        setup_s: f64,
    ) -> Result<Vec<Metric>, String> {
        let seconds = self.args.seconds * 0.6;
        let (_, fixed) = self.phase(&mut driver, self.w.rate, seconds, true, None);
        let (p50_ms, p99_ms, lag_p99) = (fixed.p50(), fixed.p99(), fixed.lag_p99());
        eprintln!(
            "perfbench: {} req/s: sent={} failed={} p50={p50_ms:.3} ms p99={p99_ms:.3} ms \
             lag_p99={lag_p99:.0} µs backlog_growth={:.1}",
            self.w.rate, fixed.sent, fixed.failed, fixed.backlog_growth
        );
        if fixed.lat_ms.is_empty() || fixed.fail_share() > SLO_FAIL_SHARE {
            return Err(format!(
                "at the fixed rate of {} req/s, {} of {} requests failed and {} were wrong{}",
                self.w.rate,
                fixed.failed,
                fixed.sent,
                fixed.mismatches.len(),
                fixed
                    .mismatches
                    .first()
                    .map_or(String::new(), |m| format!(" (first: {m})"))
            ));
        }
        if lag_p99 > LAG_INVALID_US {
            // Marked, not failed: the answers were still right.
            println!("perfbench: INVALID run: the generator, not the server, fell behind");
        }
        let max_rps = self.max_rps(&mut driver, &fixed, self.args.seconds * 0.4);
        let rss = fleet
            .server_rss_mb()
            .map_err(|e| format!("read RSS: {e}"))?;
        drop(driver);
        fleet.stop().map_err(|e| format!("stop servers: {e}"))?;
        let m = |name, value, unit| Metric { name, value, unit };
        Ok(vec![
            m("setup_s", setup_s, "s"),
            m("extract_s", self.extract_s, "s"),
            m("p50_ms", p50_ms, "ms"),
            m("max_rps", max_rps, "req/s"),
            m("server_rss_mb", rss, "MiB"),
        ])
    }

    /// Walks the grid `rate · 1.05^k` in steps of [`STEP_S`], from grid
    /// point [`WALK_FROM`] up while steps pass [`Eval::passes`], or, when
    /// that point fails, down until one passes (the fixed rate, grid
    /// point 0, is the floor: `fixed` is its step). Returns the answered
    /// requests per second of the highest step that passed. A failed
    /// step is run once more before it counts: on shared cores a burst
    /// of host stalls can fail a step, while a server that is really past
    /// its limit fails both times. A run whose `budget_s` runs out before
    /// the walk ends is marked invalid.
    fn max_rps(&mut self, driver: &mut Driver, fixed: &Eval, budget_s: f64) -> f64 {
        let rate = self.w.rate;
        let t0 = Instant::now();
        let mut best = fixed.ok_rps;
        let mut point = WALK_FROM;
        // +1 walking up, -1 walking down; the first step decides.
        let mut dir = 0;
        while point > 0 {
            if t0.elapsed().as_secs_f64() + STEP_S > budget_s {
                println!(
                    "perfbench: INVALID run: max_rps search ran out of time at {best:.0} req/s"
                );
                break;
            }
            let offered = rate * GRID_STEP.powi(point);
            let mut step = |b: &mut Self| {
                let (_, e) = b.phase(driver, offered, STEP_S, true, None);
                let pass = e.passes(offered);
                eprintln!(
                    "perfbench: step {offered:.0} req/s: p50={:.3} ms p99={:.3} ms failed={} \
                     backlog_growth={:.1} lag_p99={:.0} µs {}",
                    e.p50(),
                    e.p99(),
                    e.failed,
                    e.backlog_growth,
                    e.lag_p99(),
                    if pass { "pass" } else { "FAIL" }
                );
                (pass, e)
            };
            let (mut pass, mut e) = step(self);
            if !pass {
                (pass, e) = step(self);
            }
            if pass {
                best = e.ok_rps;
            }
            if dir == 0 {
                dir = if pass { 1 } else { -1 };
            } else if pass != (dir == 1) {
                break;
            }
            point += dir;
        }
        best
    }

    fn traced(
        &mut self,
        mut driver: Driver,
        fleet: Fleet,
        out_dir: &Path,
    ) -> Result<Vec<Metric>, String> {
        let tracer = Tracer::new(self.epoch);
        let servers: Vec<String> = fleet.servers().map(|p| p.addr.clone()).collect();
        let router_addr = fleet.router().map(|p| p.addr.clone());
        let scrape = |addrs: &[String]| -> Result<Vec<BTreeMap<String, f64>>, String> {
            addrs
                .iter()
                .map(|a| fleet::counters(a).map_err(|e| format!("METRICS from {a}: {e}")))
                .collect()
        };
        let routers: Vec<String> = router_addr.iter().cloned().collect();
        let (srv0, rtr0) = (scrape(&servers)?, scrape(&routers)?);

        // Load at the fixed rate in alternating one-second halves without
        // and with the benchmark's spans.
        let halves = ((self.args.seconds * 0.5).round() as usize).max(2) & !1;
        let (mut lat_plain, mut lat_traced) = (Vec::new(), Vec::new());
        let mut all: Vec<Outcome> = Vec::new();
        let mut last = None;
        for h in 0..halves {
            let t = (h % 2 == 1).then_some(&tracer);
            let (outcomes, e) = self.phase(&mut driver, self.w.rate, 1.0, true, t);
            (if t.is_some() {
                &mut lat_traced
            } else {
                &mut lat_plain
            })
            .extend(&e.lat_ms);
            all.extend(outcomes);
            last = Some(e);
        }
        let (srv1, rtr1) = (scrape(&servers)?, scrape(&routers)?);
        let all_eval = Eval::of(&self.catalog, &all, 1.0);
        let backlog_end = last.map_or(0, |e| e.backlog_end);

        // Idle round trips: transport alone, then the workload's lines.
        drop(driver);
        let mut conn = LineConn::connect(&servers[0]).map_err(|e| format!("connect: {e}"))?;
        for i in 0..IDLE_CALLS {
            let (r, _) = tracer.time("net.rtt", i as u64, || conn.call("INFO"));
            r.map_err(|e| format!("INFO: {e}"))?;
        }
        conn = LineConn::connect(fleet.entry()).map_err(|e| format!("connect: {e}"))?;
        for i in 0..IDLE_CALLS {
            let item = self.catalog.pick(&mut self.rng);
            let line = self.lines[item].trim_end();
            let (r, _) = tracer.time("client.idle", i as u64, || conn.call(line));
            let r = r.map_err(|e| format!("{line}: {e}"))?;
            if let Verdict::Mismatch(m) = check(&self.catalog.items[item], Some(&r)) {
                self.mismatches.push(m);
            }
        }
        let replay: Vec<usize> = all.iter().take(layers::REPLAYS).map(|o| o.item).collect();
        let overhead = if self.w.kind == Kind::Routed {
            layers::router(&tracer, &self.catalog, &replay, &servers)?
        } else {
            Vec::new()
        };
        drop(conn);
        fleet.stop().map_err(|e| format!("stop servers: {e}"))?;

        // In-process replays, with the servers gone.
        let budget = self.w.resident_experts;
        layers::respond(
            &tracer,
            self.w.kind,
            &self.catalog,
            &replay,
            &self.pool,
            budget,
        )?;
        layers::core(&tracer, &self.catalog, &replay, &self.pool, budget)?;
        let weight_bytes = if self.w.kind == Kind::QueryCold {
            0.0
        } else {
            layers::infer(&tracer, &self.catalog, &replay, &self.pool)?
        };

        let p50 = |name: &str| median(&tracer.micros_of(name));
        let p99 = |name: &str| quantile(&tracer.micros_of(name), 0.99).unwrap_or(0.0);
        let sd = |name: &str| counter_delta(&srv0, &srv1, name);
        let rd = |name: &str| counter_delta(&rtr0, &rtr1, name);
        let plain_p50_us = median(&lat_plain) * 1e3;
        let traced_p50_us = median(&lat_traced) * 1e3;
        let rtt = p50("net.rtt");
        let respond = p50("serve.respond");
        // The ledger: rtt + middle + residual = p50, where the middle term
        // is the in-process serve layer, or on `routed` the router engine.
        let middle = if self.w.kind == Kind::Routed {
            p50("router.predict")
        } else {
            respond
        };
        let residual = plain_p50_us - rtt - middle;
        let idle_residual = p50("client.idle") - rtt - middle;
        let gap = residual - idle_residual;
        let slack = (0.25 * plain_p50_us).max(100.0);
        eprintln!(
            "perfbench: ledger p50 {plain_p50_us:.1} µs = rtt {rtt:.1} + {} {middle:.1} + residual {residual:.1}; \
             idle residual {idle_residual:.1}; gap {gap:.1} µs (slack ±{slack:.1}){}",
            if self.w.kind == Kind::Routed { "router.predict" } else { "serve.respond" },
            if gap.abs() > slack { " BEYOND SLACK" } else { "" }
        );
        let flushes = sd("serve.batch.flush.timeout")
            + sd("serve.batch.flush.full")
            + sd("serve.batch.flush.drain");
        let rows = sd("service.batch.rows") + sd("serve.requests.logits");
        let served = sd("service.queries_served");
        let spans = tracer
            .write_jsonl(&out_dir.join(format!("trace-{}-{}.jsonl", self.w.name, self.args.seed)))
            .map_err(|e| format!("write trace: {e}"))?;
        eprintln!("perfbench: {spans} spans written to {}", out_dir.display());
        let m = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            m("net.rtt_us.p50", rtt, "us"),
            m("net.rtt_us.p99", p99("net.rtt"), "us"),
            m("serve.respond_us.p50", respond, "us"),
            m("serve.residual_us.p50", residual, "us"),
            m(
                "serve.batch_rows_per_flush",
                ratio(sd("service.batch.rows"), sd("service.batch.calls")),
                "rows",
            ),
            m(
                "serve.flush_timeout_share",
                ratio(sd("serve.batch.flush.timeout"), flushes),
                "ratio",
            ),
            m(
                "serve.shed",
                sd("serve.shed") + sd("net.shed") + rd("net.shed"),
                "count",
            ),
            m(
                "core.cache_hit_ratio",
                ratio(
                    sd("service.cache.hits"),
                    sd("service.cache.hits") + sd("service.cache.misses"),
                ),
                "ratio",
            ),
            m("core.query_hit_us.p50", p50("core.query_hit"), "us"),
            m("core.consolidate_us.p50", p50("core.consolidate"), "us"),
            m("core.consolidate_us.p99", p99("core.consolidate"), "us"),
            m(
                "core.assembly_us_mean",
                ratio(sd("service.assembly_ns_total"), served) / 1e3,
                "us",
            ),
            m(
                "core.refaults_per_query",
                ratio(sd("pool.lazy.loads"), served),
                "loads/query",
            ),
            m("core.refault_us.p50", p50("core.refault"), "us"),
            m("models.infer_us.p50", p50("models.infer"), "us"),
            m(
                "tensor.matmul_calls_per_row",
                ratio(sd("tensor.matmul_a_bt.calls"), rows),
                "calls/row",
            ),
            m("tensor.weight_bytes_per_row", weight_bytes, "B-computed"),
            m("router.predict_us.p50", p50("router.predict"), "us"),
            m("router.call_shard_us.p50", p50("router.call_shard"), "us"),
            m("router.scatter_overhead_us.p50", median(&overhead), "us"),
            m("router.retries", rd("router.retries"), "count"),
            m("router.hedges", rd("router.hedges"), "count"),
            m("router.partial", rd("router.partial_responses"), "count"),
            m(
                "p99_ms",
                quantile(&lat_plain, 0.99).unwrap_or(f64::INFINITY),
                "ms",
            ),
            m(
                "driver.lag_us.p99",
                quantile(&all_eval.lag_us, 0.99).unwrap_or(0.0),
                "us",
            ),
            m("driver.backlog_end", backlog_end as f64, "requests"),
            m("driver.fail_share", all_eval.fail_share(), "ratio"),
            m("ledger.gap_us", gap, "us"),
            m(
                "trace_overhead_pct",
                ratio(traced_p50_us - plain_p50_us, plain_p50_us) * 100.0,
                "%",
            ),
        ];
        Ok(metrics)
    }
}
