//! Calls into the MD layers, each wrapped in a span: the kernel probes
//! of `cpc-md` and `cpc-fft` on a workload's own system and options,
//! and the measurement cell (`cpc-charmm` over `cpc-cluster` and
//! `cpc-mpi`) that both workloads execute.

use crate::report::Outcome;
use crate::trace::{durations, percentile, Recorder, Span};
use cpc_charmm::{run_parallel_md, MdConfig};
use cpc_fft::{Complex64, Fft3d};
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::{nonbonded_energy_forces, NonbondedOptions};
use cpc_md::pme::{compute_splines, spread_charges, Pme, PmeParams};
use cpc_md::{EnergyModel, Evaluator, System, Vec3};
use cpc_workload::factors::ExperimentPoint;
use cpc_workload::runner::{measure_with_model, summarize};
use cpc_workload::service::task_key;
use cpc_workload::Measurement;
use std::hint::black_box;
use std::sync::Mutex;

/// Repetitions of each kernel probe: enough for a p50 with ten samples
/// beyond it.
pub const PROBE_REPS: usize = 20;
/// `erfc` calls per probe repetition.
const ERFC_CALLS: usize = 20_000;
/// Neighbour-list skin, as the parallel driver uses.
const SKIN: f64 = 2.0;

/// p50 of the durations of spans named `name`, in milliseconds.
pub fn p50_ms(spans: &[Span], name: &str) -> Result<f64, String> {
    let ms: Vec<f64> = durations(spans, name)
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    percentile(&ms, 50.0).map_err(|e| format!("{name}: {e}"))
}

/// Runs every kernel probe on `sys` and reports the `md.*` and `fft.*`
/// per-layer metrics. `pme` is the mesh the workload uses (or, for a
/// cutoff-only workload, the paper mesh fitted to its box).
pub fn kernels(
    rec: &Recorder,
    sys: &System,
    model: EnergyModel,
    pme: PmeParams,
    out: &mut Outcome,
) {
    let opts = match model {
        EnergyModel::Classic => NonbondedOptions::classic(),
        EnergyModel::Pme(p) => NonbondedOptions::pme_direct(p.beta),
    };
    let topo = &sys.topology;
    let mut pairs = 0;
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    for _ in 0..PROBE_REPS {
        let list = {
            let _s = rec.span("md.neighbor.build");
            NeighborList::build(
                topo,
                &sys.pbox,
                black_box(&sys.positions),
                opts.cutoff,
                SKIN,
            )
        };
        pairs = list.pairs.len();
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        let _s = rec.span("md.nonbonded");
        black_box(nonbonded_energy_forces(
            topo,
            &sys.pbox,
            black_box(&sys.positions),
            &list.pairs,
            &opts,
            &mut forces,
        ));
    }
    for _ in 0..PROBE_REPS {
        let _s = rec.span("md.erfc");
        let mut acc = 0.0;
        for i in 0..ERFC_CALLS {
            acc += cpc_md::special::erfc(black_box(i as f64 * (4.0 / ERFC_CALLS as f64)));
        }
        black_box(acc);
    }
    let mut mesh = vec![Complex64::ZERO; pme.grid.len()];
    let mut engine = Pme::new(pme, &sys.pbox);
    for _ in 0..PROBE_REPS {
        let splines = {
            let _s = rec.span("md.pme.splines");
            compute_splines(&sys.pbox, black_box(&sys.positions), pme.grid, pme.order)
        };
        {
            mesh.iter_mut().for_each(|m| *m = Complex64::ZERO);
            let _s = rec.span("md.pme.spread");
            spread_charges(topo, black_box(&splines), pme.grid, pme.order, &mut mesh);
        }
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        let _s = rec.span("md.pme.recip");
        black_box(engine.energy_forces(topo, &sys.pbox, black_box(&sys.positions), &mut forces));
    }
    let mut evaluator = Evaluator::new(model);
    black_box(evaluator.evaluate(sys, &mut forces));
    for _ in 0..PROBE_REPS {
        let _s = rec.span("md.evaluate");
        black_box(evaluator.evaluate(black_box(sys), &mut forces));
    }
    let fft = Fft3d::new(pme.grid);
    let signal: Vec<Complex64> = (0..pme.grid.len())
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    for _ in 0..PROBE_REPS {
        let mut data = signal.clone();
        let _s = rec.span("fft.fft3d.forward");
        fft.forward(black_box(&mut data));
    }

    let spans = rec.spans();
    let metric = |out: &mut Outcome, name: &'static str, span: &str, scale: f64| match p50_ms(
        &spans, span,
    ) {
        Ok(ms) => out.metric(name, ms * scale),
        Err(e) => out.fail(e),
    };
    let per_pair = 1e6 / pairs.max(1) as f64;
    metric(out, "md.nonbonded.ns_per_pair", "md.nonbonded", per_pair);
    out.metric("md.nonbonded.pairs", pairs as f64);
    metric(out, "md.neighbor.build_ms", "md.neighbor.build", 1.0);
    metric(
        out,
        "md.erfc.ns_per_call",
        "md.erfc",
        1e6 / ERFC_CALLS as f64,
    );
    metric(out, "md.pme.splines_ms", "md.pme.splines", 1.0);
    metric(out, "md.pme.spread_ms", "md.pme.spread", 1.0);
    metric(out, "md.pme.recip_ms", "md.pme.recip", 1.0);
    metric(out, "md.evaluate_ms", "md.evaluate", 1.0);
    metric(out, "fft.fft3d.forward_ms", "fft.fft3d.forward", 1.0);
    out.metric("fft.fft3d.mflop_computed", fft.flops() / 1e6);
    out.note(format!(
        "kernel probes: {} atoms, {pairs} pairs, model {model:?}, mesh {}x{}x{}, {PROBE_REPS} reps each",
        sys.n_atoms(),
        pme.grid.nx,
        pme.grid.ny,
        pme.grid.nz
    ));
}

/// What one cell cost on the virtual cluster, keyed by its task: the
/// counts must repeat exactly for the same cell, traced or not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellCounts {
    pub msgs: u64,
    pub bytes: u64,
    /// Virtual energy-calculation seconds, as bits so equality is exact.
    pub virtual_bits: u64,
    pub spawns: u64,
}

/// Per-cell accounting of the cells a runner executed.
#[derive(Default, Clone, Debug)]
pub struct CellBook {
    pub cells: Vec<(String, CellCounts)>,
    /// Process CPU seconds per cell (traced runs only).
    pub cpu_s: Vec<f64>,
}

/// One measurement cell. The program path calls
/// `cpc_workload::runner::measure_with_model`, as `campaign` does, and
/// is what untraced runs time. The spanned path makes the two calls
/// that function makes, `run_parallel_md` and then `summarize`, with a
/// span around each, so a traced run can attribute the cell's time and
/// book its virtual counts.
pub struct CellRunner<'a> {
    /// `None` for the program path. `Some` for the spanned path,
    /// recording into this recorder; a disabled one gives the untraced
    /// pass a traced run compares itself with.
    rec: Option<&'a Recorder>,
    system: &'a System,
    steps: usize,
    model: EnergyModel,
    /// The cells the spanned path ran (the program path books none).
    pub book: Mutex<CellBook>,
}

impl<'a> CellRunner<'a> {
    pub fn program(system: &'a System, steps: usize, model: EnergyModel) -> Self {
        CellRunner {
            rec: None,
            system,
            steps,
            model,
            book: Mutex::new(CellBook::default()),
        }
    }

    pub fn spanned(
        rec: &'a Recorder,
        system: &'a System,
        steps: usize,
        model: EnergyModel,
    ) -> Self {
        CellRunner {
            rec: Some(rec),
            ..CellRunner::program(system, steps, model)
        }
    }

    /// Runs one cell; returns the measurement and its virtual cost.
    pub fn run(&self, point: &ExperimentPoint) -> (Measurement, f64) {
        let Some(rec) = self.rec else {
            let m = measure_with_model(self.system, *point, self.steps, self.model);
            let cost = m.energy_time();
            return (m, cost);
        };
        let _exec = rec.span("exec");
        let cfg = MdConfig {
            steps: self.steps,
            ..MdConfig::paper_protocol(self.model, point.middleware, point.cluster())
        };
        let spawns0 = cpc_pool::scoped_threads_spawned();
        let cpu0 = rec.enabled().then(crate::cpu_seconds);
        let report = {
            let _s = rec.span("charmm.run");
            run_parallel_md(self.system, &cfg)
        };
        let cpu = cpu0.map(|c0| crate::cpu_seconds() - c0);
        let spawns = cpc_pool::scoped_threads_spawned() - spawns0;
        let m = {
            let _s = rec.span("charmm.summarize");
            summarize(*point, &report)
        };
        let cost = m.energy_time();
        let counts = CellCounts {
            msgs: report.per_rank.iter().map(|r| r.msgs_sent).sum(),
            bytes: report.per_rank.iter().map(|r| r.bytes_sent).sum(),
            virtual_bits: cost.to_bits(),
            spawns,
        };
        let key = task_key(point).expect("experiment point serializes");
        let mut book = self.book.lock().expect("cell book poisoned");
        book.cpu_s.extend(cpu);
        book.cells.push((key, counts));
        (m, cost)
    }
}

/// Reports the `charmm.*`, `mpi.*` and `pool.*` per-layer metrics from
/// the spans and the cell book of a traced pass.
pub fn charmm_metrics(spans: &[Span], book: &CellBook, out: &mut Outcome) {
    let n = book.cells.len().max(1) as f64;
    let total = |f: fn(&CellCounts) -> f64| book.cells.iter().map(|(_, c)| f(c)).sum::<f64>();
    let (msgs, bytes) = (total(|c| c.msgs as f64), total(|c| c.bytes as f64));
    let virtual_s = total(|c| f64::from_bits(c.virtual_bits));
    let spawns = total(|c| c.spawns as f64);
    match p50_ms(spans, "charmm.run") {
        Ok(ms) => out.metric("charmm.run_s", ms / 1e3),
        Err(e) => out.fail(e),
    }
    // Process CPU ticks are 10 ms, coarser than many cells: report the
    // mean over the traced cells rather than a per-cell median.
    out.metric("charmm.cpu_s", book.cpu_s.iter().sum::<f64>() / n);
    out.metric("mpi.msgs_per_cell", msgs / n);
    out.metric("mpi.bytes_per_cell", bytes / n);
    out.metric("charmm.virtual_energy_s", virtual_s / n);
    out.metric("pool.scoped_spawns", spawns / n);
    out.note(format!(
        "cells traced: {} ({msgs} msgs, {bytes} bytes, {spawns} scoped spawns, \
         {virtual_s:.9} virtual s in total)",
        book.cells.len()
    ));
}

/// The serialized form of one measurement exactly as it appears as an
/// element of `results/measurements.json`.
pub fn golden_entry(m: &Measurement) -> String {
    let text = serde_json::to_string_pretty(&vec![m.clone()]).expect("measurement serializes");
    text["[\n".len()..text.len() - "\n]".len()].to_string()
}
