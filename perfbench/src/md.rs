//! `pme_platforms`: the paper protocol on every platform configuration
//! at p=2, driven cell by cell through the crash-safe `JobService`, the
//! way `campaign --workers 1` runs.

use crate::counting::CountingFs;
use crate::probes::{charmm_metrics, golden_entry, kernels, CellRunner};
use crate::report::{oversubscribed, Outcome};
use crate::trace::{self, percentile, Recorder, Timing};
use crate::Ctx;
use cpc_md::builder::{myoglobin_system_with, MyoglobinOptions};
use cpc_md::{EnergyModel, System};
use cpc_vfs::{real_fs, SharedFs};
use cpc_workload::factors::ExperimentPoint;
use cpc_workload::full_factorial;
use cpc_workload::runner::{paper_pme_params, PAPER_STEPS};
use cpc_workload::service::{task_key, JobService, ServiceConfig, StepOutcome};
use cpc_workload::Measurement;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cells a run measures at least: a p50 needs ten samples beyond it.
const MIN_CELLS: usize = 20;
/// Set-ups timed per run for `setup_s`.
const SETUPS: usize = 3;
/// The checked-in p=2 cells of `results/measurements.json`, which the
/// default seed must reproduce byte for byte.
const GOLDEN: &str = "perfbench/golden/measurements_p2_seed2002.json";
const GOLDEN_SEED: u64 = 2002;

/// The processor count every cell runs at.
const PROCS: usize = 2;

fn model() -> EnergyModel {
    EnergyModel::Pme(paper_pme_params())
}

/// When a pass stops.
#[derive(Clone, Copy)]
enum Target {
    /// After a fixed number of cells (traced runs, so counts repeat
    /// exactly).
    Cells(usize),
    /// After this many seconds, once it has run [`MIN_CELLS`].
    Window(f64),
}

impl Target {
    fn reached(self, cells: usize, elapsed: f64) -> bool {
        match self {
            Target::Cells(n) => cells >= n,
            Target::Window(seconds) => elapsed >= seconds && cells >= MIN_CELLS,
        }
    }
}

/// What one pass over the cells produced.
struct Pass {
    results: Vec<Measurement>,
    cell_s: Vec<f64>,
    journals: Vec<PathBuf>,
    elapsed: f64,
    executed: usize,
    cache_hits: usize,
}

fn protocol() -> String {
    format!("campaign steps={PAPER_STEPS} model={:?}", model())
}

fn build_system(seed: u64) -> System {
    myoglobin_system_with(MyoglobinOptions {
        minimize_steps: 120,
        temperature: 300.0,
        seed,
    })
}

/// Runs cells through one `JobService` per cycle of the 12 platform
/// configurations until `target`.
fn pass(
    runner: &CellRunner<'_>,
    rec: &Recorder,
    fs: SharedFs,
    dir: &Path,
    target: Target,
) -> std::io::Result<Pass> {
    let key_of = |m: &Measurement| task_key(&m.point).expect("experiment point serializes");
    let tasks = full_factorial(&[PROCS]);
    let mut out = Pass {
        results: Vec::new(),
        cell_s: Vec::new(),
        journals: Vec::new(),
        elapsed: 0.0,
        executed: 0,
        cache_hits: 0,
    };
    let start = Instant::now();
    for cycle in 0.. {
        let cdir = dir.join(format!("cycle-{cycle:03}"));
        let mut service = JobService::<Measurement>::open_on(
            fs.clone(),
            ServiceConfig::new(&cdir, protocol()),
            key_of,
        )?;
        service.prepare(&tasks)?;
        let mut reached = false;
        while !reached {
            let t0 = Instant::now();
            let mut exec = |point: &ExperimentPoint| {
                let (m, cost) = runner.run(point);
                out.results.push(m.clone());
                (m, cost)
            };
            let step = {
                let _s = rec.span("service.step");
                service.step(&tasks, &mut exec)?
            };
            match step {
                StepOutcome::Progress => out.cell_s.push(t0.elapsed().as_secs_f64()),
                StepOutcome::Drained => break,
                StepOutcome::Killed => {
                    return Err(std::io::Error::other("service killed with no kill armed"))
                }
            }
            reached = target.reached(out.cell_s.len(), start.elapsed().as_secs_f64());
        }
        let o = service.outcome();
        out.executed += o.executed;
        out.cache_hits += o.cache_hits;
        out.journals.push(cdir.join("journal.jsonl"));
        if reached {
            break;
        }
    }
    out.elapsed = start.elapsed().as_secs_f64();
    Ok(out)
}

fn journal_lines(paths: &[PathBuf]) -> Vec<String> {
    paths
        .iter()
        .flat_map(|p| {
            std::fs::read_to_string(p)
                .unwrap_or_default()
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The output oracles of one pass; returns the number of failed cells.
fn check(seed: u64, p: &Pass, out: &mut Outcome) -> u64 {
    let mut failed = vec![false; p.results.len()];
    let journaled = journal_lines(&p.journals).len();
    if journaled != p.results.len() || p.executed != p.results.len() || p.cache_hits != 0 {
        out.fail(format!(
            "{} cells executed, {} journaled, {} executions, {} cache hits",
            p.results.len(),
            journaled,
            p.executed,
            p.cache_hits
        ));
    }
    // Every platform at one rank count integrates the same trajectory:
    // the final energy must agree to the bit.
    let e0 = p.results.first().map(|m| m.final_total_energy.to_bits());
    for (i, m) in p.results.iter().enumerate() {
        if m.steps != PAPER_STEPS || !m.final_total_energy.is_finite() {
            failed[i] = true;
            out.fail(format!(
                "cell {i} ({}) has a malformed result",
                m.point.label()
            ));
        }
        if Some(m.final_total_energy.to_bits()) != e0 {
            failed[i] = true;
            out.fail(format!(
                "cell {i} ({}) final energy {} differs from cell 0",
                m.point.label(),
                m.final_total_energy
            ));
        }
    }
    if seed == GOLDEN_SEED {
        let mut goldens = vec![GOLDEN];
        if Path::new("results/measurements.json").is_file() {
            goldens.push("results/measurements.json");
        }
        for g in goldens {
            let Ok(text) = std::fs::read_to_string(g) else {
                out.fail(format!("cannot read {g}"));
                continue;
            };
            for (i, m) in p.results.iter().enumerate() {
                if !text.contains(&golden_entry(m)) {
                    failed[i] = true;
                    out.fail(format!(
                        "cell {i} ({}) is not byte-equal to its entry in {g}",
                        m.point.label()
                    ));
                }
            }
        }
        out.note(format!(
            "oracle: {} cell(s) byte-equal to results/measurements.json",
            p.results.len()
        ));
    }
    oversubscribed(p.results.iter().map(|m| m.point.procs), out);
    failed.iter().filter(|&&f| f).count() as u64
}

pub fn pme_platforms(ctx: &Ctx, out: &mut Outcome) {
    if ctx.traced() {
        return traced(ctx, out);
    }
    let mut systems = Vec::new();
    let system = crate::timed_setups(SETUPS, out, || {
        let s = build_system(ctx.seed);
        systems.push(s.positions.clone());
        s
    });
    if systems.windows(2).any(|w| w[0] != w[1]) {
        out.fail("set-ups of one seed built different systems");
    }
    let runner = CellRunner::program(&system, PAPER_STEPS, model());
    let p = pass(
        &runner,
        &ctx.rec,
        real_fs(),
        &ctx.dir.join("measure"),
        Target::Window(ctx.seconds),
    )
    .unwrap_or_else(|e| crate::die(format!("pme_platforms: job service failed: {e}")));
    out.failed = check(ctx.seed, &p, out);
    out.attempted = p.results.len() as u64;
    let journaled = journal_lines(&p.journals).len();
    let cells_per_s = journaled as f64 / p.elapsed;
    match Timing::of(&p.cell_s) {
        Ok(t) => {
            out.note(format!("cell_p50_s: {t} s"));
            out.metric("op_p50_s", t.p50);
        }
        Err(e) => out.fail(format!("cell_p50_s: {e}")),
    }
    out.note(format!(
        "cells_per_s = {cells_per_s:.5} 1/s ({journaled} journaled cells in {:.3} s)",
        p.elapsed
    ));
    out.metric("cells_per_s", cells_per_s);
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "fail_frac = {fail_frac} ({} of {})",
        out.failed, out.attempted
    ));
    out.metric("ok_frac", 1.0 - fail_frac);
}

/// The traced run: an untraced pass over a prefix of the cells, then a
/// traced pass over a fixed cell list, both through the spanned cell,
/// so the virtual counts repeat exactly and can be compared.
fn traced(ctx: &Ctx, out: &mut Outcome) {
    const PREFIX: usize = 4;
    let system = build_system(ctx.seed);
    let quiet = Recorder::new(false);
    let plain = CellRunner::spanned(&quiet, &system, PAPER_STEPS, model());
    let fail =
        |e: std::io::Error| -> ! { crate::die(format!("pme_platforms: job service failed: {e}")) };
    let base = pass(
        &plain,
        &quiet,
        real_fs(),
        &ctx.dir.join("untraced"),
        Target::Cells(PREFIX),
    )
    .unwrap_or_else(|e| fail(e));

    let disk = CountingFs::default();
    let runner = CellRunner::spanned(&ctx.rec, &system, PAPER_STEPS, model());
    let p = pass(
        &runner,
        &ctx.rec,
        Arc::new(disk.clone()),
        &ctx.dir.join("traced"),
        Target::Cells(MIN_CELLS),
    )
    .unwrap_or_else(|e| fail(e));
    out.failed = check(ctx.seed, &p, out);
    out.attempted = p.results.len() as u64;

    // Tracing must not move a virtual output: the same cells give the
    // same journal bytes and the same virtual counts.
    let traced_lines = journal_lines(&p.journals);
    let base_lines = journal_lines(&base.journals);
    if traced_lines[..PREFIX] != base_lines[..] {
        out.fail("traced journal bytes differ from the untraced run's");
    }
    let base_book = plain.book.lock().expect("cell book poisoned").clone();
    let book = runner.book.lock().expect("cell book poisoned").clone();
    if book.cells[..PREFIX] != base_book.cells[..] {
        out.fail("traced virtual counts differ from the untraced run's");
    } else {
        out.note(format!(
            "tracing moved no virtual output: {PREFIX} cell(s) byte-identical in journal and counts"
        ));
    }
    let base_s: f64 = base.cell_s.iter().sum();
    let traced_s: f64 = p.cell_s[..PREFIX].iter().sum();
    let overhead = (traced_s / base_s - 1.0) * 100.0;
    out.note(format!(
        "trace overhead: {overhead:+.2}% over {PREFIX} cell(s) ({traced_s:.4} s traced vs {base_s:.4} s untraced)"
    ));
    out.metric("trace.overhead_pct", overhead);

    let spans = ctx.rec.spans();
    charmm_metrics(&spans, &book, out);
    let overhead_ms: Vec<f64> = trace::self_times(&spans, "service.step")
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    match percentile(&overhead_ms, 50.0) {
        Ok(v) => out.metric("workload.service.overhead_ms", v),
        Err(e) => out.fail(format!("workload.service.overhead_ms: {e}")),
    }
    let lookups = (p.cache_hits + p.executed).max(1) as f64;
    out.metric("workload.cache.hit_ratio", p.cache_hits as f64 / lookups);
    out.metric("workload.journal.appends", traced_lines.len() as f64);
    disk.report(p.results.len(), out);

    kernels(&ctx.rec, &system, model(), paper_pme_params(), out);
    out.note("not on this workload's path (reported as 0): gateway.*, http.*");
    for name in [
        "gateway.lock_wait_p90_ms",
        "gateway.route_ms.submit",
        "gateway.route_ms.status",
        "gateway.route_ms.results",
        "gateway.pump_ms_per_cell",
        "gateway.shed",
        "http.ttfb_p50_ms",
    ] {
        out.metric(name, 0.0);
    }
}
