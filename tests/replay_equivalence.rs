//! Replay ≡ live: a tape recorded by one live run, replayed on every
//! platform configuration, gives exactly the report a live run on that
//! platform gives — virtual times to the bit, every per-rank stats
//! bucket, message and byte counts, step energies, final positions and
//! velocities — and `summarize` serializes it to the same bytes. With
//! message tracing on, every replayed message also matches its live
//! counterpart: size, departure and arrival.

use cpc::prelude::*;
use cpc_charmm::{run_parallel_md, trajectory_counts, CommTuning, PmeImpl, Tape};
use cpc_mpi::CombineAlgo;
use cpc_workload::full_factorial;
use cpc_workload::runner::{quick_pme_params, quick_system, summarize};

const STEPS: usize = 2;

/// The three `CommTuning` variants `collective_tuning_changes_time_not_physics`
/// compares.
fn tunings() -> [CommTuning; 3] {
    [
        CommTuning::default(),
        CommTuning {
            force_combine: CombineAlgo::Tree,
            grid_sum: CombineAlgo::Tree,
        },
        CommTuning {
            force_combine: CombineAlgo::Ring,
            grid_sum: CombineAlgo::Ring,
        },
    ]
}

fn engines() -> [(&'static str, EnergyModel, PmeImpl); 3] {
    let pme = EnergyModel::Pme(quick_pme_params());
    [
        ("classic", EnergyModel::Classic, PmeImpl::Replicated),
        ("pme replicated", pme, PmeImpl::Replicated),
        ("pme spatial", pme, PmeImpl::Spatial),
    ]
}

#[test]
fn every_replay_is_bit_identical_to_its_live_run() {
    let sys = quick_system();
    for (engine, model, pme_impl) in engines() {
        for tuning in tunings() {
            for p in [1usize, 2, 3, 4, 8] {
                let points: Vec<_> = full_factorial(&[p]);
                assert_eq!(points.len(), 12);
                let cfg = |point: &ExperimentPoint| MdConfig {
                    steps: STEPS,
                    tuning,
                    pme_impl,
                    ..MdConfig::paper_protocol(model, point.middleware, point.cluster())
                };
                let (_, tape) = Tape::record(&sys, &cfg(&points[0]));
                for (point, record_trace) in points.iter().flat_map(|pt| [(pt, false), (pt, true)])
                {
                    let what =
                        format!("{engine} {tuning:?} {} trace={record_trace}", point.label());
                    let mut cfg = cfg(point);
                    cfg.cluster.record_trace = record_trace;
                    let live = Tape::record(&sys, &cfg).0;
                    let replayed = tape.replay(&cfg);
                    assert_eq!(
                        live.wall_time.to_bits(),
                        replayed.wall_time.to_bits(),
                        "{what}"
                    );
                    assert_eq!(
                        format!("{live:?}"),
                        format!("{replayed:?}"),
                        "{what}: reports differ"
                    );
                    for (a, b) in live.per_rank.iter().zip(&replayed.per_rank) {
                        assert_eq!(a.trace.len(), b.trace.len(), "{what}");
                        assert_eq!(a.trace.is_empty(), !record_trace || p == 1, "{what}");
                        for (x, y) in a.trace.iter().zip(&b.trace) {
                            assert_eq!((x.src, x.dst), (y.src, y.dst), "{what}");
                            assert_eq!(x.bytes, y.bytes, "{what}");
                            assert_eq!(x.departure.to_bits(), y.departure.to_bits(), "{what}");
                            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits(), "{what}");
                        }
                    }
                    let bytes = |r: &RunReport| {
                        serde_json::to_string(&summarize(*point, r)).expect("serializes")
                    };
                    assert_eq!(bytes(&live), bytes(&replayed), "{what}");
                }
            }
        }
    }
}

#[test]
fn the_cached_entry_point_replays_after_one_live_run() {
    // A system no other test runs, so the process-wide cache starts
    // cold for it; no other test in this binary goes through the
    // cached entry point, so the counts move by exactly this test's.
    let mut sys = quick_system();
    sys.assign_velocities(123.0, 99);
    let points = full_factorial(&[2]);
    let cfg = |point: &ExperimentPoint| MdConfig {
        steps: STEPS,
        ..MdConfig::paper_protocol(EnergyModel::Classic, point.middleware, point.cluster())
    };
    let before = trajectory_counts();
    for point in &points {
        let cached = run_parallel_md(&sys, &cfg(point));
        let live = Tape::record(&sys, &cfg(point)).0;
        assert_eq!(
            format!("{cached:?}"),
            format!("{live:?}"),
            "{}",
            point.label()
        );
    }
    let after = trajectory_counts();
    assert_eq!(after.live - before.live, 1);
    assert_eq!(after.replayed - before.replayed, points.len() as u64 - 1);
}
