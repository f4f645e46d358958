//! Host-time benchmark of the CHARMM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Two seeded workloads drive the
//! public API and the `serve` binary; every run checks its outputs
//! against oracles and prints, last, one JSON line with the verdict,
//! the operation counts and the metrics. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` records spans
//! around the benchmark's own calls into each crate and reports the
//! per-layer metrics. Spans and provenance are written under
//! `.perfbench_out/`. See README.md for why each workload exists.

mod counting;
mod md;
mod probes;
mod report;
mod serve;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Recorder;

const USAGE: &str =
    "usage: perfbench --workload pme_platforms|serve_closed --seed N --seconds S --trace 0|1";

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub rec: Recorder,
    /// Scratch directory of this run, inside the checkout, removed at
    /// exit.
    pub dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }
}

/// Stops the run without a result line.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn usage(msg: impl std::fmt::Display) -> ! {
    die(format!("{msg}\n{USAGE}"))
}

fn parse() -> (String, u64, f64, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(format!("{flag} needs a value"));
        };
        let slot_taken = match flag.as_str() {
            "--workload" => workload.replace(value.clone()).is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
                .is_some(),
            "--seconds" => seconds
                .replace(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                )
                .is_some(),
            "--trace" => traced
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
                .is_some(),
            _ => usage(format!("unknown flag {flag}")),
        };
        if slot_taken {
            usage(format!("{flag} given twice"));
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(w), Some(s), Some(t), Some(tr)) => (w, s, t, tr),
        _ => usage("--workload, --seed, --seconds and --trace are all required"),
    }
}

fn main() {
    let (workload, seed, seconds, traced) = parse();
    let run: fn(&Ctx, &mut Outcome) = match workload.as_str() {
        "pme_platforms" => md::pme_platforms,
        "serve_closed" => serve::serve_closed,
        other => usage(format!("unknown workload {other}")),
    };
    // The repository's crates are compiled in; a checkout without its
    // sources could not have built this binary, but its data files
    // must be present too.
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        die("run from the root of the repository checkout");
    }
    let out_dir = PathBuf::from(".perfbench_out");
    let dir = out_dir.join(format!("run-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        die(format!("cannot create {}: {e}", dir.display()));
    }
    let ctx = Ctx {
        seed,
        seconds,
        rec: Recorder::new(traced),
        dir,
    };
    let provenance = report::provenance(&workload, seed);
    let mut outcome = Outcome::new();
    run(&ctx, &mut outcome);

    let tag = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
    let _ = std::fs::write(out_dir.join(format!("{tag}.provenance.json")), &provenance);
    if traced {
        let path = out_dir.join(format!("{tag}.spans.jsonl"));
        if let Err(e) = report::write_spans(&path, &ctx.rec.spans()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.dir);

    println!("provenance: {provenance}");
    for line in &outcome.text {
        println!("{line}");
    }
    let catalogue: &[(&str, &str)] = if traced {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    match outcome.json(catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: no result: {e}");
            std::process::exit(1);
        }
    }
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (Linux clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// SplitMix64: the benchmark's only source of randomness, keyed by the
/// seed so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Median of a non-empty sample (used for set-up times, which are too
/// few for the percentile discipline and are reported as such).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Times `n` set-ups and keeps the last result: `setup_s` is their
/// median, so work moved into set-up shows and one slow start does not
/// decide the figure.
pub fn timed_setups<T>(n: usize, out: &mut Outcome, mut make: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let v = make();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    let setup = median(&times);
    out.note(format!(
        "setup_s = {setup:.4} s (median of {n} set-ups: {})",
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.metric("setup_s", setup);
    last.expect("at least one set-up")
}
