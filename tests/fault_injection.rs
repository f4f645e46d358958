//! End-to-end acceptance tests for the fault-injection subsystem:
//! all-zero plans must not perturb anything, injected faults must cost
//! time deterministically, and a mid-run crash must complete via
//! checkpoint-restart with the recovery booked under its own phase.

use cpc::prelude::*;
use cpc_charmm::{run_parallel_md, run_parallel_md_faulty, FaultConfig, Tape};
use cpc_cluster::FaultPlan;
use cpc_workload::runner::quick_system;

fn cfg(p: usize, steps: usize) -> MdConfig {
    MdConfig {
        steps,
        ..MdConfig::paper_protocol(
            EnergyModel::Classic,
            Middleware::Mpi,
            ClusterConfig::uni(p, NetworkKind::ScoreGigE),
        )
    }
}

#[test]
fn zero_plan_changes_nothing() {
    let sys = quick_system();
    let cfg = cfg(4, 2);
    let a = Tape::record(&sys, &cfg).0;
    let b = Tape::record(&sys, &cfg).0;
    assert_eq!(a.wall_time, b.wall_time, "fault-free figures stay stable");
    assert_eq!(a.final_positions, b.final_positions);
    let cached = run_parallel_md(&sys, &cfg);
    assert_eq!(format!("{cached:?}"), format!("{a:?}"), "replay agrees");

    let ft = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
    assert!(ft.completed);
    assert_eq!(ft.survivors, 4);
    assert_eq!(ft.recoveries, 0);
    assert_eq!(ft.recovery_time, 0.0);
    assert_eq!(
        ft.report.phase_breakdown(Phase::Recovery).total(),
        0.0,
        "no recovery time without faults"
    );
    // Same physics, bit for bit.
    assert_eq!(ft.report.final_positions, a.final_positions);
    assert_eq!(ft.report.final_velocities, a.final_velocities);
    let retransmits: u64 = ft.report.per_rank.iter().map(|s| s.retransmits).sum();
    assert_eq!(retransmits, 0, "no retransmissions on clean links");
}

#[test]
fn packet_loss_costs_time_not_physics() {
    let sys = quick_system();
    let cfg = cfg(4, 2);
    let clean = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
    let lossy = run_parallel_md_faulty(
        &sys,
        &cfg,
        &FaultConfig::new(FaultPlan::none().with_loss(0.1)),
    )
    .unwrap();
    assert!(
        lossy.report.wall_time > clean.report.wall_time,
        "retransmissions must cost time: {} vs {}",
        lossy.report.wall_time,
        clean.report.wall_time
    );
    let retransmits: u64 = lossy.report.per_rank.iter().map(|s| s.retransmits).sum();
    assert!(retransmits > 0, "loss must show up in the counters");
    assert_eq!(lossy.report.final_positions, clean.report.final_positions);
}

#[test]
fn straggler_slows_the_whole_run() {
    let sys = quick_system();
    let cfg = cfg(4, 2);
    let clean = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
    let straggling = run_parallel_md_faulty(
        &sys,
        &cfg,
        &FaultConfig::new(FaultPlan::none().with_straggler(0, 2.0)),
    )
    .unwrap();
    // Lockstep collectives drag everyone down to the straggler's pace.
    assert!(
        straggling.report.wall_time > 1.2 * clean.report.wall_time,
        "straggler {} vs clean {}",
        straggling.report.wall_time,
        clean.report.wall_time
    );
    assert_eq!(
        straggling.report.final_positions,
        clean.report.final_positions
    );
}

#[test]
fn mid_run_crash_completes_via_checkpoint_restart() {
    let sys = quick_system();
    let cfg = cfg(3, 4);
    let wall = run_parallel_md(&sys, &cfg).wall_time;
    let ft = run_parallel_md_faulty(
        &sys,
        &cfg,
        &FaultConfig::new(FaultPlan::none().with_crash(2, 0.5 * wall)),
    )
    .unwrap();
    assert_eq!(ft.crashed_ranks, vec![2]);
    assert_eq!(ft.survivors, 2);
    assert!(ft.completed, "survivors must finish all steps");
    assert_eq!(ft.report.step_energies.len(), 4);
    assert!(ft.recoveries >= 1);
    assert!(ft.recovery_time > 0.0);
    assert!(
        ft.report.phase_breakdown(Phase::Recovery).total() > 0.0,
        "recovery must be booked under its own phase"
    );
    // The trajectory survives the rollback and re-execution.
    let plain = run_parallel_md(&sys, &cfg);
    let max_dev = ft
        .report
        .final_positions
        .iter()
        .zip(&plain.final_positions)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0f64, f64::max);
    assert!(max_dev < 1e-7, "max deviation {max_dev}");
}

#[test]
fn faulty_runs_replay_bit_identically() {
    let sys = quick_system();
    let cfg = cfg(4, 3);
    let wall = run_parallel_md(&sys, &cfg).wall_time;
    let fault = FaultConfig::new(
        FaultPlan::none()
            .with_loss(0.05)
            .with_straggler(1, 1.5)
            .with_crash(3, 0.6 * wall),
    );
    let run = || run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
    let (a, b) = (run(), run());
    assert_eq!(a.report.wall_time, b.report.wall_time);
    assert_eq!(a.report.final_positions, b.report.final_positions);
    assert_eq!(a.crashed_ranks, b.crashed_ranks);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.recovery_time, b.recovery_time);
    for (sa, sb) in a.report.per_rank.iter().zip(&b.report.per_rank) {
        assert_eq!(sa.retransmits, sb.retransmits);
        assert_eq!(sa.msgs_lost, sb.msgs_lost);
    }
}
