//! `serve_closed`: the real `serve --quick --threads 1` binary on
//! loopback under a closed loop of two clients, one connection each.
//! Each client submits a campaign of seed-drawn processor counts, polls
//! its status with a fixed think time until done, then fetches the
//! results; one submission in four repeats an earlier one, exercising
//! the content-addressed dedup path.
//!
//! The traced run serves the same load from an in-process gateway
//! (`Gateway::open_on` + `handle_shared` + `pump`, behind one mutex as
//! `serve` does) so spans can bracket the gateway's public calls. It
//! serves it twice, untraced and traced, and the difference is the
//! tracing overhead; the `serve` binary serves it once more so its
//! journals can be compared with the traced ones.

use crate::counting::CountingFs;
use crate::probes::{charmm_metrics, kernels, CellBook, CellCounts, CellRunner};
use crate::report::{oversubscribed, Outcome};
use crate::trace::{covered, percentile, Recorder, Timing};
use crate::{Ctx, Rng};
use cpc_gateway::{CampaignModel, Conn, Gateway, GatewayConfig, TcpConn};
use cpc_md::{EnergyModel, System};
use cpc_vfs::{real_fs, SharedFs};
use cpc_workload::factors::ExperimentPoint;
use cpc_workload::full_factorial;
use cpc_workload::runner::{quick_pme_params, quick_system};
use cpc_workload::service::{artifact_digest, task_key, JobService, ServiceConfig};
use cpc_workload::Measurement;
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each (the reference host's
/// nproc).
const CLIENTS: usize = 2;
/// Pause between status polls.
const THINK: Duration = Duration::from_millis(5);
/// One submission in this many repeats an earlier one.
const REPEAT_EVERY: usize = 4;
/// Rounds a run measures at least: a p50 needs ten beyond it.
const MIN_ROUNDS: usize = 20;
/// Requests a traced pass needs before the p90 lock wait may be
/// reported (a p99 would need a thousand: minutes of this load).
const MIN_TRACED_REQUESTS: usize = 100;
/// Set-ups (server starts) timed per run.
const SETUPS: usize = 9;
/// Rounds in each pass of a traced run.
const TRACED_ROUNDS: usize = 20;
/// MD steps of a quick cell, as `serve --quick` runs them.
const QUICK_STEPS: usize = 2;
/// A request that takes longer than this has failed.
const TIMEOUT: Duration = Duration::from_secs(30);

fn model() -> EnergyModel {
    EnergyModel::Pme(quick_pme_params())
}

fn protocol() -> String {
    format!("campaign steps={QUICK_STEPS} model={:?}", model())
}

/// Which rounds repeat earlier submissions: one round in
/// [`REPEAT_EVERY`], at a seed-drawn place in each block (never the
/// first round), so the repeated share is fixed.
fn repeat_round(seed: u64, round: usize) -> bool {
    let block = (round / REPEAT_EVERY) as u64;
    let slot = 1 + Rng::new(seed, 0x4E9EA7 + block).below(REPEAT_EVERY - 1);
    round % REPEAT_EVERY == slot
}

/// The submissions of one client. A fresh campaign names one
/// seed-drawn pair of processor counts {p, 9-p} (the pairs cost about
/// the same, and every four fresh campaigns cover 1..=8 once) under a
/// tenant of its own, so no two fresh campaigns share a content
/// address; a repeat resubmits one of the client's earlier fresh
/// campaigns exactly.
struct Plan {
    client: usize,
    rng: Rng,
    fresh: Vec<(String, Vec<usize>)>,
    pending: Vec<Vec<usize>>,
}

impl Plan {
    fn new(seed: u64, client: usize) -> Self {
        Plan {
            client,
            rng: Rng::new(seed, 0x5E57E + client as u64),
            fresh: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The next submission: its tenant and processor counts.
    fn next(&mut self, repeat: bool) -> (String, Vec<usize>) {
        if repeat && !self.fresh.is_empty() {
            let k = self.rng.below(self.fresh.len());
            return self.fresh[k].clone();
        }
        if self.pending.is_empty() {
            let mut pairs: Vec<Vec<usize>> = (1..=4).map(|p| vec![p, 9 - p]).collect();
            for i in (1..pairs.len()).rev() {
                let j = self.rng.below(i + 1);
                pairs.swap(i, j);
            }
            for pair in &mut pairs {
                if self.rng.below(2) == 1 {
                    pair.reverse();
                }
            }
            self.pending = pairs;
        }
        let counts = self.pending.pop().expect("refilled");
        let sub = (format!("c{}-{}", self.client, self.fresh.len()), counts);
        self.fresh.push(sub.clone());
        sub
    }
}

/// One HTTP exchange as the client saw it.
struct Exchange {
    status: u16,
    body: String,
    ttfb_ms: f64,
    total_ms: f64,
}

fn http(port: u16, method: &str, path: &str, body: &str) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = vec![0u8; 1];
    stream.read_exact(&mut response)?;
    let ttfb_ms = t0.elapsed().as_secs_f64() * 1e3;
    stream.read_to_end(&mut response)?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8_lossy(&response).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok(Exchange {
        status,
        body,
        ttfb_ms,
        total_ms,
    })
}

/// What the clients of one pass observed.
#[derive(Default)]
struct Load {
    req_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    /// Why each failed request failed: a non-2xx status, an I/O error
    /// or a timeout.
    failed_requests: Vec<String>,
    campaign_s: Vec<f64>,
    /// Makespan of each round (both clients' campaigns).
    round_s: Vec<f64>,
    /// Campaign id -> processor counts, for every campaign submitted.
    campaigns: BTreeMap<String, Vec<usize>>,
    bad_results: Vec<String>,
    elapsed: f64,
}

/// When a pass stops: after a time window with enough rounds, or
/// after a number of rounds with enough requests.
#[derive(Clone, Copy)]
enum Stop {
    Window(f64),
    Rounds(usize),
}

impl Stop {
    fn reached(self, elapsed: f64, rounds: usize, requests: usize) -> bool {
        match self {
            Stop::Window(seconds) => elapsed >= seconds && rounds >= MIN_ROUNDS,
            Stop::Rounds(n) => rounds >= n && requests >= MIN_TRACED_REQUESTS,
        }
    }
}

/// Runs the closed loop against `port` until `stop`, in rounds: the
/// clients start each round together, each submits one campaign, polls
/// it to completion and fetches its results. A round's makespan is the
/// time until both campaigns' results are in.
fn closed_loop(port: u16, seed: u64, stop: Stop) -> Load {
    let load = Mutex::new(Load::default());
    let requests = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(CLIENTS);
    let round_start = Mutex::new(Instant::now());
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (load, requests, done, barrier, round_start) =
                (&load, &requests, &done, &barrier, &round_start);
            s.spawn(move || {
                let mut plan = Plan::new(seed, client);
                let exchange = |method: &str, path: &str, body: &str| -> Option<Exchange> {
                    requests.fetch_add(1, Ordering::Relaxed);
                    let r = http(port, method, path, body);
                    let mut l = load.lock().expect("load poisoned");
                    match r {
                        Ok(x) if (200..300).contains(&x.status) => {
                            l.req_ms.push(x.total_ms);
                            l.ttfb_ms.push(x.ttfb_ms);
                            Some(x)
                        }
                        Ok(x) => {
                            let why = format!("{method} {path} answered {}", x.status);
                            l.failed_requests.push(why);
                            None
                        }
                        Err(e) => {
                            l.failed_requests
                                .push(format!("{method} {path} failed: {e}"));
                            None
                        }
                    }
                };
                for round in 0.. {
                    if barrier.wait().is_leader() {
                        *round_start.lock().expect("round clock poisoned") = Instant::now();
                    }
                    barrier.wait();
                    let (tenant, counts) = plan.next(repeat_round(seed, round));
                    let t0 = Instant::now();
                    let outcome = campaign(&exchange, &tenant, &counts);
                    let took = t0.elapsed().as_secs_f64();
                    let mut l = load.lock().expect("load poisoned");
                    l.campaign_s.push(took);
                    match outcome {
                        Ok(id) => {
                            l.campaigns.insert(id, counts);
                        }
                        Err(why) => l.bad_results.push(why),
                    }
                    drop(l);
                    if barrier.wait().is_leader() {
                        let began = *round_start.lock().expect("round clock poisoned");
                        let mut l = load.lock().expect("load poisoned");
                        l.round_s.push(began.elapsed().as_secs_f64());
                        let reached = stop.reached(
                            start.elapsed().as_secs_f64(),
                            l.round_s.len(),
                            requests.load(Ordering::Relaxed),
                        );
                        done.store(reached, Ordering::Relaxed);
                    }
                    barrier.wait();
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
    });
    let mut load = load.into_inner().expect("load poisoned");
    load.elapsed = start.elapsed().as_secs_f64();
    load
}

/// One campaign, submit to results: returns its id, or why its
/// results were not what was asked for.
fn campaign(
    exchange: &dyn Fn(&str, &str, &str) -> Option<Exchange>,
    tenant: &str,
    counts: &[usize],
) -> Result<String, String> {
    let cells = counts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let body = format!("{{\"tenant\":\"{tenant}\",\"cells\":[{cells}]}}");
    let x = exchange("POST", "/campaigns", &body).ok_or("submission refused")?;
    let id = serde_json::from_str::<Value>(&x.body)
        .ok()
        .and_then(|v| {
            v.get("campaign")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .ok_or_else(|| format!("submission answered {}", x.body))?;
    let t0 = Instant::now();
    loop {
        std::thread::sleep(THINK);
        if let Some(x) = exchange("GET", &format!("/campaigns/{id}"), "") {
            if x.body.contains("\"done\":true") {
                break;
            }
        }
        if t0.elapsed() > TIMEOUT {
            return Err(format!("campaign {id} not done after {TIMEOUT:?}"));
        }
    }
    let x = exchange("GET", &format!("/campaigns/{id}/results"), "")
        .ok_or_else(|| format!("campaign {id}: results refused"))?;
    let v: Value = serde_json::from_str(&x.body).map_err(|e| format!("campaign {id}: {e}"))?;
    let complete = v.get("done").and_then(Value::as_bool) == Some(true)
        && v.get("results")
            .and_then(Value::as_array)
            .is_some_and(|r| r.len() == counts.len() * 12);
    if complete {
        Ok(id)
    } else {
        Err(format!("campaign {id}: results incomplete"))
    }
}

/// A running `serve` process; killed and reaped on drop.
struct Server {
    child: Child,
    port: u16,
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `serve` binary, built from this checkout into the target
/// directory this benchmark was built in.
fn serve_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let release = exe.parent().expect("the benchmark lives in a directory");
    let target = release.parent().expect("release/ has a parent");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "cpc-bench", "--bin", "serve", "--target-dir"])
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| crate::die(format!("cannot run cargo to build serve: {e}")));
    if !status.success() {
        crate::die("building the serve binary failed");
    }
    release.join("serve")
}

fn start_server(bin: &Path, root: &Path) -> Server {
    let log = std::fs::File::create(root.with_extension("log"))
        .unwrap_or_else(|e| crate::die(format!("cannot create server log: {e}")));
    let mut child = Command::new(bin)
        .arg("--root")
        .arg(root)
        .args(["--port", "0", "--quick", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .unwrap_or_else(|e| crate::die(format!("cannot start serve: {e}")));
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let port = stdout
        .read_line(&mut line)
        .ok()
        .and_then(|_| line.split("127.0.0.1:").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|p| p.parse().ok());
    let Some(port) = port else {
        let _ = child.kill();
        let _ = child.wait();
        crate::die(format!("serve did not report its address: {line:?}"));
    };
    Server {
        child,
        port,
        _stdout: stdout,
    }
}

/// Runs `serve` and the closed loop against it; the server is stopped
/// before this returns.
fn serve_pass(bin: &Path, root: &Path, seed: u64, stop: Stop) -> Load {
    let server = start_server(bin, root);
    let load = closed_loop(server.port, seed, stop);
    drop(server);
    load
}

/// The direct path: each campaign's cells through a plain `JobService`
/// (one cache shared by all campaigns). Returns each campaign's journal
/// digest and the cache hit ratio.
fn reference(
    campaigns: &BTreeMap<String, Vec<usize>>,
    system: &System,
    dir: &Path,
) -> (HashMap<String, Option<u64>>, f64) {
    let runner = CellRunner::program(system, QUICK_STEPS, model());
    let key_of = |m: &Measurement| task_key(&m.point).expect("experiment point serializes");
    let (mut hits, mut executed) = (0, 0);
    let mut digests = HashMap::new();
    for (id, counts) in campaigns {
        let mut cfg = ServiceConfig::new(dir.join(id), protocol());
        cfg.cache = Some(dir.join("cache"));
        let journal = cfg.journal_path();
        let mut service = JobService::<Measurement>::open(cfg, key_of)
            .unwrap_or_else(|e| crate::die(format!("reference service: {e}")));
        let out = service
            .run(&full_factorial(counts), |p| runner.run(p))
            .unwrap_or_else(|e| crate::die(format!("reference service: {e}")));
        hits += out.cache_hits;
        executed += out.executed;
        digests.insert(id.clone(), artifact_digest(&journal));
    }
    (digests, hits as f64 / (hits + executed).max(1) as f64)
}

fn journal_lines(root: &Path, id: &str) -> usize {
    std::fs::read_to_string(root.join("campaigns").join(id).join("journal.jsonl"))
        .map_or(0, |t| t.lines().count())
}

/// The output oracles: every request answered with a 2xx status,
/// every campaign journal byte-identical to the direct path's, every
/// result set complete. Returns the failed requests and campaigns.
fn check(
    load: &Load,
    root: &Path,
    digests: &HashMap<String, Option<u64>>,
    out: &mut Outcome,
) -> u64 {
    let mut failed = 0;
    for why in &load.failed_requests {
        failed += 1;
        out.fail(format!("request: {why}"));
    }
    for id in load.campaigns.keys() {
        let got = artifact_digest(root.join("campaigns").join(id).join("journal.jsonl"));
        if got.is_none() || got != digests[id] {
            failed += 1;
            out.fail(format!(
                "campaign {id}: journal differs from the direct JobService run"
            ));
        }
    }
    for bad in &load.bad_results {
        failed += 1;
        out.fail(bad.clone());
    }
    out.note(format!(
        "oracle: {} campaign journal(s) checked against direct JobService runs",
        load.campaigns.len()
    ));
    oversubscribed(load.campaigns.values().flatten().copied(), out);
    failed
}

pub fn serve_closed(ctx: &Ctx, out: &mut Outcome) {
    let bin = serve_binary();
    if ctx.traced() {
        return traced(ctx, &bin, out);
    }
    let setups = ctx.dir.join("setups");
    std::fs::create_dir_all(&setups).unwrap_or_else(|e| crate::die(e));
    let mut i = 0;
    crate::timed_setups(SETUPS, out, || {
        i += 1;
        drop(start_server(&bin, &setups.join(format!("root-{i}"))));
    });
    let root = ctx.dir.join("root");
    let load = serve_pass(&bin, &root, ctx.seed, Stop::Window(ctx.seconds));
    let system = quick_system();
    let (digests, hit_ratio) = reference(&load.campaigns, &system, &ctx.dir.join("reference"));
    out.failed = check(&load, &root, &digests, out);
    out.attempted = (load.req_ms.len() + load.failed_requests.len()) as u64;
    let cells: usize = load
        .campaigns
        .keys()
        .map(|id| journal_lines(&root, id))
        .sum();
    let cells_per_s = cells as f64 / load.elapsed;
    out.note(format!(
        "cells_per_s = {cells_per_s:.4} 1/s ({cells} journaled cells in {:.3} s, {} rounds, \
         {} submissions of {} distinct campaigns; direct-path cache hit ratio {hit_ratio:.3})",
        load.elapsed,
        load.round_s.len(),
        load.campaign_s.len(),
        load.campaigns.len()
    ));
    out.metric("cells_per_s", cells_per_s);
    // One campaign alone is served in about T, or about 2T when the
    // pump is busy with the other client's: the per-campaign median
    // flips between the two. The round makespan (both campaigns
    // submitted together, both results in) is the steady figure.
    match Timing::of(&load.campaign_s) {
        Ok(t) => out.note(format!("campaign_p50_s: {t} s")),
        Err(e) => out.fail(format!("campaign_p50_s: {e}")),
    }
    let n = load.campaign_s.len().max(1);
    out.note(format!(
        "campaign_mean_s = {:.4} s (n={n})",
        load.campaign_s.iter().sum::<f64>() / n as f64
    ));
    match Timing::of(&load.round_s) {
        Ok(t) => {
            out.note(format!("round_p50_s: {t} s"));
            out.metric("op_p50_s", t.p50);
        }
        Err(e) => out.fail(format!("round_p50_s: {e}")),
    }
    match Timing::of(&load.req_ms) {
        Ok(t) => out.note(format!("req_p50_ms: {t} ms")),
        Err(e) => out.fail(format!("req_p50_ms: {e}")),
    }
    match percentile(&load.req_ms, 99.0) {
        Ok(p99) => out.note(format!(
            "req_p99_ms = {p99:.4} ms (n={})",
            load.req_ms.len()
        )),
        Err(e) => out.note(format!("req_p99_ms: {e}")),
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "fail_frac = {fail_frac} ({} of {})",
        out.failed, out.attempted
    ));
    out.metric("ok_frac", 1.0 - fail_frac);
}

/// The real campaign model of `serve --quick`, with its cells run
/// through the spanned [`CellRunner`].
struct TracedModel<'a> {
    runner: &'a CellRunner<'a>,
}

impl CampaignModel for TracedModel<'_> {
    type Task = ExperimentPoint;
    type Result = Measurement;

    fn parse_cells(&self, cells: &Value) -> Result<Vec<ExperimentPoint>, String> {
        let counts: Option<Vec<usize>> = cells.as_array().and_then(|a| {
            a.iter()
                .map(|v| {
                    v.as_u64()
                        .filter(|n| (1..=64).contains(n))
                        .map(|n| n as usize)
                })
                .collect()
        });
        match counts {
            Some(c) if !c.is_empty() => Ok(full_factorial(&c)),
            _ => Err("cells must be a non-empty array of processor counts".into()),
        }
    }

    fn key_of(r: &Measurement) -> String {
        task_key(&r.point).expect("experiment point serializes")
    }

    fn exec(&self, point: &ExperimentPoint) -> (Measurement, f64) {
        self.runner.run(point)
    }
}

/// A connection that notes when the request was fully read and when
/// the response began, so routing time can be told from I/O.
struct TimedConn {
    inner: TcpConn,
    head: Vec<u8>,
    read_done: Option<Instant>,
    first_write: Option<Instant>,
}

impl Conn for TimedConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if self.head.len() < 64 {
            self.head.extend_from_slice(&buf[..n.min(64)]);
        }
        self.read_done = Some(Instant::now());
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.first_write.get_or_insert_with(Instant::now);
        self.inner.write_all(buf)
    }

    fn elapsed(&self) -> f64 {
        self.inner.elapsed()
    }
}

/// Route intervals and pump lock holds recorded by the in-process
/// server.
#[derive(Default)]
struct ServerBook {
    /// Per request: route kind, accepted, fully read, first byte out.
    routes: Vec<(&'static str, Instant, Instant, Instant)>,
    holds: Vec<(Instant, Instant)>,
    pumps: Vec<(Instant, Instant, usize)>,
}

fn route_kind(head: &[u8]) -> &'static str {
    let line = String::from_utf8_lossy(head);
    if line.starts_with("POST /campaigns") {
        "submit"
    } else if line.starts_with("GET /campaigns/") && line.contains("/results") {
        "results"
    } else if line.starts_with("GET /campaigns/") {
        "status"
    } else {
        "other"
    }
}

/// Serves the closed loop from an in-process gateway with the same
/// thread shape as `serve`: bounded accept workers calling
/// `handle_shared`, a pump thread parked on a condvar between grants.
/// Route and lock intervals are booked only when `rec` is enabled.
fn in_process_pass(
    rec: &Recorder,
    seed: u64,
    model: TracedModel<'_>,
    fs: SharedFs,
    root: &Path,
) -> (Load, ServerBook, usize) {
    let mut cfg = GatewayConfig::new(root, protocol());
    cfg.threads = 1;
    let deadline = cfg.limits.deadline;
    let gw = Gateway::open_on(fs, cfg, model)
        .unwrap_or_else(|e| crate::die(format!("cannot open gateway: {e}")));
    let gw = Mutex::new(gw);
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap_or_else(|e| crate::die(e));
    let port = listener.local_addr().expect("bound").port();
    let book = Mutex::new(ServerBook::default());
    let wake = (Mutex::new(false), Condvar::new());
    let stop = AtomicBool::new(false);
    let workers = cpc_pool::global().threads().clamp(1, 8);
    let booked = rec.enabled();
    let load = std::thread::scope(|s| {
        let (gw, book, wake, stop, listener) = (&gw, &book, &wake, &stop, &listener);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let mut g = gw.lock().expect("gateway lock");
                let held = Instant::now();
                let report = {
                    let _s = rec.span("gateway.pump");
                    g.pump(4)
                };
                drop(g);
                let released = Instant::now();
                if booked {
                    let mut b = book.lock().expect("server book poisoned");
                    b.holds.push((held, released));
                    if report.granted > 0 {
                        b.pumps.push((held, released, report.granted));
                    }
                }
                if report.granted > 0 {
                    continue;
                }
                let (pending, bell) = wake;
                let mut rung = pending.lock().expect("pump wake lock");
                if !*rung {
                    rung = bell
                        .wait_timeout(rung, Duration::from_millis(500))
                        .expect("pump wake lock")
                        .0;
                }
                *rung = false;
            }
        });
        for _ in 0..workers {
            s.spawn(move || loop {
                let Ok((stream, _)) = listener.accept() else {
                    continue;
                };
                let accepted = Instant::now();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let mut conn = TimedConn {
                    inner: TcpConn::new(stream, deadline),
                    head: Vec::new(),
                    read_done: None,
                    first_write: None,
                };
                Gateway::handle_shared(gw, &mut conn);
                if let (true, Some(read), Some(written)) =
                    (booked, conn.read_done, conn.first_write)
                {
                    let kind = route_kind(&conn.head);
                    let mut book = book.lock().expect("server book poisoned");
                    book.routes.push((kind, accepted, read, written));
                }
                let (pending, bell) = wake;
                *pending.lock().expect("pump wake lock") = true;
                bell.notify_one();
            });
        }
        let load = closed_loop(port, seed, Stop::Rounds(TRACED_ROUNDS));
        stop.store(true, Ordering::Relaxed);
        let (pending, bell) = wake;
        *pending.lock().expect("pump wake lock") = true;
        bell.notify_one();
        for _ in 0..workers {
            let _ = TcpStream::connect(("127.0.0.1", port));
        }
        load
    });
    let shed = gw.into_inner().expect("gateway lock").stats().shed;
    (load, book.into_inner().expect("server book poisoned"), shed)
}

fn traced(ctx: &Ctx, bin: &Path, out: &mut Outcome) {
    let system = quick_system();
    // The real binary under the same fixed load, for the journal
    // identity oracle.
    let bin_root = ctx.dir.join("binary");
    let binary = serve_pass(bin, &bin_root, ctx.seed, Stop::Rounds(TRACED_ROUNDS));

    // The in-process server, untraced and then traced: the same cells
    // through the spanned cell, so the virtual counts can be compared.
    let quiet = Recorder::new(false);
    let plain = CellRunner::spanned(&quiet, &system, QUICK_STEPS, model());
    let base_root = ctx.dir.join("untraced");
    let (base, _, _) = in_process_pass(
        &quiet,
        ctx.seed,
        TracedModel { runner: &plain },
        real_fs(),
        &base_root,
    );
    let base_book = plain.book.into_inner().expect("cell book poisoned");

    let disk = CountingFs::default();
    let root = ctx.dir.join("traced");
    let runner = CellRunner::spanned(&ctx.rec, &system, QUICK_STEPS, model());
    let (load, server, shed) = in_process_pass(
        &ctx.rec,
        ctx.seed,
        TracedModel { runner: &runner },
        Arc::new(disk.clone()),
        &root,
    );
    let book = runner.book.into_inner().expect("cell book poisoned");

    let mut all = binary.campaigns.clone();
    all.extend(base.campaigns.clone());
    all.extend(load.campaigns.clone());
    let (digests, hit_ratio) = reference(&all, &system, &ctx.dir.join("reference"));
    out.failed = check(&load, &root, &digests, out)
        + check(&base, &base_root, &digests, out)
        + check(&binary, &bin_root, &digests, out);
    out.attempted = [&load, &base, &binary]
        .iter()
        .map(|l| (l.req_ms.len() + l.failed_requests.len()) as u64)
        .sum();

    // Tracing must not move a virtual output: every journal matches
    // the one reference (checked above), the binary serves the same
    // campaigns, and each cell has the same virtual counts traced and
    // untraced.
    let shared = |a: &Load, b: &Load| {
        a.campaigns
            .keys()
            .filter(|id| b.campaigns.contains_key(*id))
            .count()
    };
    let (with_binary, with_base) = (shared(&load, &binary), shared(&load, &base));
    if with_binary < load.campaigns.len().min(binary.campaigns.len()) / 2
        || with_base < load.campaigns.len().min(base.campaigns.len()) / 2
    {
        out.fail("traced and untraced passes share too few campaigns to compare");
    }
    let by_key =
        |b: &CellBook| -> BTreeMap<String, CellCounts> { b.cells.iter().cloned().collect() };
    let (traced_counts, base_counts) = (by_key(&book), by_key(&base_book));
    let compared = traced_counts
        .iter()
        .filter(|(k, _)| base_counts.contains_key(*k))
        .count();
    if traced_counts
        .iter()
        .any(|(k, v)| base_counts.get(k).is_some_and(|b| b != v))
        || compared == 0
    {
        out.fail("traced virtual counts differ from the untraced pass's");
    } else {
        out.note(format!(
            "tracing moved no virtual output: {with_binary} campaign journal(s) byte-identical \
             to the serve binary's, {compared} cell(s) with identical virtual counts"
        ));
    }
    let cells =
        |l: &Load, r: &Path| -> usize { l.campaigns.keys().map(|id| journal_lines(r, id)).sum() };
    let (base_rate, rate) = (
        cells(&base, &base_root) as f64 / base.elapsed,
        cells(&load, &root) as f64 / load.elapsed,
    );
    let overhead = (base_rate / rate - 1.0) * 100.0;
    out.note(format!(
        "trace overhead: {overhead:+.2}% ({rate:.4} cells/s traced vs {base_rate:.4} cells/s \
         untraced, both in-process)"
    ));
    out.metric("trace.overhead_pct", overhead);

    let spans = ctx.rec.spans();
    charmm_metrics(&spans, &book, out);
    let origin = server
        .holds
        .iter()
        .map(|h| h.0)
        .chain(server.routes.iter().map(|r| r.1))
        .min()
        .unwrap_or_else(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let holds: Vec<(u64, u64)> = server.holds.iter().map(|&(a, b)| (ns(a), ns(b))).collect();
    let mut waits = Vec::new();
    let mut route: HashMap<&str, Vec<f64>> = HashMap::new();
    // A request waits for the gateway lock wherever the pump holds it
    // between accept and the first response byte; routing is the time
    // from the request being read to the response starting, less the
    // part of that the pump held the lock.
    for &(kind, accepted, read, written) in &server.routes {
        let (accepted, read, written) = (ns(accepted), ns(read), ns(written));
        waits.push(covered(accepted, written, &holds) as f64 / 1e6);
        let routing = written.saturating_sub(read) - covered(read, written, &holds);
        route.entry(kind).or_default().push(routing as f64 / 1e6);
    }
    match percentile(&waits, 90.0) {
        Ok(v) => out.metric("gateway.lock_wait_p90_ms", v),
        Err(e) => out.fail(format!("gateway.lock_wait_p90_ms: {e}")),
    }
    for (kind, name) in [
        ("submit", "gateway.route_ms.submit"),
        ("status", "gateway.route_ms.status"),
        ("results", "gateway.route_ms.results"),
    ] {
        match percentile(route.get(kind).map_or(&[][..], Vec::as_slice), 50.0) {
            Ok(v) => out.metric(name, v),
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }
    let granted: usize = server.pumps.iter().map(|p| p.2).sum();
    let pump_ms: f64 = server
        .pumps
        .iter()
        .map(|p| (p.1 - p.0).as_secs_f64() * 1e3)
        .sum();
    out.metric("gateway.pump_ms_per_cell", pump_ms / granted.max(1) as f64);
    out.metric("gateway.shed", shed as f64);
    match percentile(&load.ttfb_ms, 50.0) {
        Ok(v) => out.metric("http.ttfb_p50_ms", v),
        Err(e) => out.fail(format!("http.ttfb_p50_ms: {e}")),
    }
    // Service overhead: each granting pump call minus the cell
    // executions inside it, per cell granted.
    let pumps: Vec<&crate::trace::Span> =
        spans.iter().filter(|s| s.name == "gateway.pump").collect();
    let execs: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "exec")
        .map(|s| (s.start, s.end))
        .collect();
    let overhead_ms: Vec<f64> = pumps
        .iter()
        .filter_map(|p| {
            let cells = execs
                .iter()
                .filter(|e| e.0 >= p.start && e.1 <= p.end)
                .count();
            (cells > 0)
                .then(|| (p.dur() - covered(p.start, p.end, &execs)) as f64 / 1e6 / cells as f64)
        })
        .collect();
    match percentile(&overhead_ms, 50.0) {
        Ok(v) => out.metric("workload.service.overhead_ms", v),
        Err(e) => out.fail(format!("workload.service.overhead_ms: {e}")),
    }
    out.metric("workload.cache.hit_ratio", hit_ratio);
    let journaled = cells(&load, &root);
    out.metric("workload.journal.appends", journaled as f64);
    disk.report(journaled, out);
    out.note(format!(
        "in-process server: {} requests, {} pump calls granting {granted} cell(s), {} lock-wait samples",
        server.routes.len(),
        server.holds.len(),
        waits.len()
    ));

    kernels(&ctx.rec, &system, model(), quick_pme_params(), out);
}
