//! Work-stealing pool throughput benchmark: the campaign smoke at
//! every sweep thread count plus the sched-chaos harness rate, written
//! as `BENCH_pool.json` so the executor's perf trajectory has a curve.
//!
//! ```text
//! cargo run --release -p cpc-bench --bin bench_pool -- \
//!     [--out FILE] [--cells N] [--spin K] [--sched N] [--seed S]
//! ```
//!
//! Two measurements:
//!
//! * **Campaign smoke**: a synthetic campaign of `--cells` cells, each
//!   burning `--spin` rounds of deterministic integer mixing, driven
//!   through the crash-safe [`JobService`] on a [`Pool`] at threads
//!   {1, 2, 4, 8}. Reported as cells/sec per thread count, plus the
//!   4-thread speedup over 1 thread. The artifact digest is checked
//!   across all four runs — a benchmark that broke determinism would
//!   be measuring the wrong executor.
//! * **Sched chaos**: `--sched` sampled adversarial schedules through
//!   [`run_sched_chaos`], reported as schedules/sec (each schedule
//!   internally runs the campaign six ways: serial reference,
//!   fault-free sweep at {1,2,4,8} threads, chaotic run).
//!
//! `host_cpus` is recorded because the speedup claim is only
//! meaningful where the cores exist: with fewer than 4 CPUs the
//! 4-thread run measures the host, not the pool, so the speedup is
//! recorded as skipped with the reason. CI gates the ≥2x bound on
//! hosts with 4 or more CPUs.

use cpc_bench::cli::Args;
use cpc_cluster::SchedFaultSpace;
use cpc_pool::Pool;
use cpc_workload::run_sched_chaos;
use cpc_workload::service::{artifact_digest, JobService, ServiceConfig};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "usage: bench_pool [--out FILE] [--cells N] [--spin K] [--sched N] [--seed S]";

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("bench_pool: {msg}");
    std::process::exit(2);
}

/// One campaign-smoke sample at a fixed thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PoolSample {
    /// Pool width.
    threads: usize,
    /// Cells executed.
    cells: usize,
    /// Wall-clock seconds for the drained campaign.
    wall_s: f64,
    /// Cells per wall-clock second.
    cells_per_sec: f64,
    /// Artifact digest — identical across every row by construction.
    digest: u64,
}

/// The sched-chaos harness rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SchedSample {
    /// Schedules checked.
    schedules: u64,
    /// Sampler seed.
    seed: u64,
    /// Wall-clock seconds for the whole campaign.
    wall_s: f64,
    /// Schedules per wall-clock second.
    schedules_per_sec: f64,
    /// Oracle violations across all schedules (must be 0).
    violations: usize,
}

/// The 4-thread speedup, or why it could not be measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Speedup {
    /// cells/sec at 4 threads over cells/sec at 1 thread.
    Measured(f64),
    /// The host cannot run 4 threads in parallel.
    Skipped(String),
}

/// The whole `BENCH_pool.json` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchPool {
    /// Cores visible to the process; scaling claims only hold where
    /// the cores exist.
    host_cpus: usize,
    /// Spin rounds of integer mixing per cell.
    spin: u64,
    /// Campaign smoke at each sweep thread count.
    campaign: Vec<PoolSample>,
    /// cells/sec at 4 threads over cells/sec at 1 thread.
    speedup_4_threads: Speedup,
    /// The sched-chaos harness rate.
    sched: SchedSample,
}

/// Deterministic CPU burn: `spin` rounds of the splitmix finalizer.
/// Pure integer mixing — no allocation, no syscalls — so the measured
/// quantity is executor throughput, not the memory subsystem.
fn burn(task: u64, spin: u64) -> u64 {
    let mut x = task.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for _ in 0..spin {
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x << 13;
    }
    x
}

/// Runs the synthetic campaign once at `threads` and returns the
/// sample. Fresh service directory per run: the benchmark measures
/// execution, not cache hits.
fn campaign_sample(dir: &Path, threads: usize, cells: usize, spin: u64) -> PoolSample {
    let dir = dir.join(format!("threads-{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig::new(&dir, "bench-pool");
    let journal = cfg.journal_path();
    let key_of = |r: &Vec<f64>| serde_json::to_string(&(r[0] as u64)).expect("key serializes");
    let mut svc = JobService::<Vec<f64>>::open(cfg, key_of)
        .unwrap_or_else(|e| die(format!("cannot open service in {}: {e}", dir.display())));
    let tasks: Vec<u64> = (0..cells as u64).collect();
    let pool = Pool::new(threads);
    let start = Instant::now();
    let outcome = svc
        .run_pooled(&tasks, &pool, |t| {
            (vec![*t as f64, (burn(*t, spin) % 1_000_000) as f64], 0.25)
        })
        .unwrap_or_else(|e| die(format!("campaign at {threads} thread(s) failed: {e}")));
    let wall_s = start.elapsed().as_secs_f64();
    drop(svc);
    if !outcome.drained || outcome.completed != cells {
        die(format!(
            "campaign at {threads} thread(s) did not drain: {}/{} cells",
            outcome.completed, cells
        ));
    }
    let digest = artifact_digest(&journal)
        .unwrap_or_else(|| die(format!("campaign at {threads} thread(s) left no artifact")));
    let _ = std::fs::remove_dir_all(&dir);
    PoolSample {
        threads,
        cells,
        wall_s,
        cells_per_sec: cells as f64 / wall_s.max(1e-9),
        digest,
    }
}

fn main() {
    let mut args = Args::parse("bench_pool", USAGE);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_pool.json".to_string());
    let cells: usize = args
        .parsed("--cells", "an integer cell count")
        .unwrap_or(64);
    let spin: u64 = args
        .parsed("--spin", "an integer spin count")
        .unwrap_or(400_000);
    let sched: u64 = args
        .parsed("--sched", "an integer schedule count")
        .unwrap_or(10);
    let seed: u64 = args.parsed("--seed", "an integer seed").unwrap_or(7);
    args.finish();

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = std::env::temp_dir().join(format!("cpc-bench-pool-{}", std::process::id()));
    println!(
        "bench_pool: {cells} cells x {spin} spin rounds on {host_cpus} host cpu(s), \
         {sched} sched schedule(s)"
    );

    // Campaign smoke across the sweep. One untimed warmup at a single
    // thread pays the first-touch costs (directory creation, lazy
    // statics) outside every timed window.
    let _ = campaign_sample(&scratch, 1, cells.min(8), spin);
    let mut campaign = Vec::new();
    for threads in cpc_workload::SWEEP_THREADS {
        let sample = campaign_sample(&scratch, threads, cells, spin);
        println!(
            "  {} thread(s): {:.2} cells/sec ({:.3} s)",
            sample.threads, sample.cells_per_sec, sample.wall_s
        );
        campaign.push(sample);
    }
    let digest0 = campaign[0].digest;
    if campaign.iter().any(|s| s.digest != digest0) {
        die("thread counts disagree on the artifact digest — determinism broke");
    }
    let speedup_4_threads = if host_cpus < 4 {
        Speedup::Skipped(format!(
            "host has {host_cpus} cpu(s); 4 threads need 4 to measure scaling"
        ))
    } else {
        Speedup::Measured(
            campaign
                .iter()
                .find(|s| s.threads == 4)
                .map(|s| s.cells_per_sec / campaign[0].cells_per_sec.max(1e-9))
                .unwrap_or(0.0),
        )
    };
    let speedup_line = match &speedup_4_threads {
        Speedup::Measured(x) => format!("speedup at 4 threads {x:.2}x on {host_cpus} cpu(s)"),
        Speedup::Skipped(why) => format!("speedup at 4 threads skipped ({why})"),
    };

    // Sched-chaos harness rate over the same synthetic campaign shape
    // the `chaos --sched` gate runs.
    let space = SchedFaultSpace::new(8);
    let tasks: Vec<u64> = (0..8).collect();
    let key_of = |r: &Vec<f64>| serde_json::to_string(&(r[0] as u64)).expect("key serializes");
    let exec = |t: &u64| -> (Vec<f64>, f64) { (vec![*t as f64, (*t * *t) as f64], 0.25) };
    let start = Instant::now();
    let mut violations = 0usize;
    for index in 0..sched {
        let plan = space.sample(seed, index);
        let dir = scratch.join(format!("sched-{index:05}"));
        let report = run_sched_chaos(&dir, &tasks, "bench-sched", &plan, key_of, exec)
            .unwrap_or_else(|e| die(format!("sched schedule {index} failed: {e}")));
        let _ = std::fs::remove_dir_all(&dir);
        violations += report.violations.len();
    }
    let sched_wall = start.elapsed().as_secs_f64();
    let sched_sample = SchedSample {
        schedules: sched,
        seed,
        wall_s: sched_wall,
        schedules_per_sec: sched as f64 / sched_wall.max(1e-9),
        violations,
    };
    println!(
        "  sched chaos: {:.2} schedules/sec ({:.3} s), {} violation(s)",
        sched_sample.schedules_per_sec, sched_sample.wall_s, violations
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let bench = BenchPool {
        host_cpus,
        spin,
        campaign,
        speedup_4_threads,
        sched: sched_sample,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench artifact serializes");
    if let Err(e) = std::fs::write(&out, json) {
        die(format!("cannot write {out}: {e}"));
    }
    println!("bench_pool: {speedup_line}; artifact {out}");
    if violations > 0 {
        std::process::exit(1);
    }
}
