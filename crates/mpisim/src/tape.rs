//! Comm-level tapes: one rank's program as the sequence of calls it
//! makes on its [`Comm`], with every payload reduced to its length.
//!
//! Virtual time is charged from op counts and payload sizes, never
//! from payload values, so a tape recorded on one platform replays on
//! any other with the same rank count: the middleware still expands
//! each collective into its messages, and the network, jitter and node
//! scaling of the replaying cluster still price them. A replay carries
//! lengths only: it runs the very collectives a live run runs, over
//! length-only blocks, so its messages are priced and booked as the
//! live ones are but hold no values, and nothing is copied or summed
//! on the host. Recording is
//! switched on with [`Comm::start_recording`]; the recorded calls are
//! exactly the ones [`CommOp`] lists, and a recording `Comm` panics on
//! every other public call that acts on the cluster (`ctx()`,
//! point-to-point `send`/`recv` and their retrying forms, heartbeats,
//! `shrink`, `try_barrier`, `ring_sync`, `broadcast`, `gather`,
//! `scatter`, `reduce_sum`).

use crate::block::Len;
use crate::comm::Comm;
use crate::middleware::CombineAlgo;
use cpc_cluster::{MsgClass, OpShape, Phase};

/// One recorded call on a [`Comm`]. Reduction charges and messages a
/// collective makes internally are not recorded: replaying the
/// collective makes them again.
#[derive(Debug, Clone, PartialEq)]
pub enum CommOp {
    /// [`Comm::set_phase`].
    Phase(Phase),
    /// [`Comm::charge_compute`], with the exact seconds charged.
    Compute(f64),
    /// [`Comm::barrier`].
    Barrier,
    /// [`Comm::allgather`] of a local block of this many elements.
    Allgather(usize),
    /// A global sum ([`Comm::allreduce_flat`], [`Comm::allreduce_sum`]
    /// or [`Comm::allreduce_ring`]) of this many elements.
    Allreduce(CombineAlgo, usize),
    /// [`Comm::alltoallv`] with these per-destination block lengths.
    Alltoallv(Vec<usize>),
    /// [`Comm::raw_send`] of a payload of `len` elements.
    Send {
        /// Destination engine rank.
        dst: usize,
        /// Raw tag.
        tag: u64,
        /// Payload length in elements.
        len: usize,
        /// Message class.
        class: MsgClass,
        /// Enclosing operation shape.
        shape: OpShape,
    },
    /// [`Comm::raw_recv`].
    Recv {
        /// Source engine rank.
        src: usize,
        /// Raw tag.
        tag: u64,
    },
}

impl Comm<'_> {
    /// Replays a tape recorded on a communicator of the same size. Each
    /// collective runs the same code a live call runs, over length-only
    /// blocks of the recorded lengths, and each send is a length-only
    /// send ([`RankCtx::send_len`](cpc_cluster::RankCtx::send_len)):
    /// every message is priced and booked as in the live run, but
    /// carries no values. Every rank of the cluster must replay its own
    /// tape.
    ///
    /// # Panics
    /// As the live collectives do, e.g. with "reduction length
    /// mismatch" when ranks' tapes disagree on a global sum's length.
    pub fn replay(&mut self, tape: &[CommOp]) {
        for op in tape {
            match op {
                CommOp::Phase(phase) => self.set_phase(*phase),
                CommOp::Compute(seconds) => self.charge_compute(*seconds),
                CommOp::Barrier => self.barrier(),
                CommOp::Allgather(len) => {
                    self.allgather_block(Len(*len));
                }
                CommOp::Allreduce(algo, len) => self.allreduce_block(*algo, &mut Len(*len)),
                CommOp::Alltoallv(lens) => {
                    self.alltoallv_block(lens.iter().map(|&n| Len(n)).collect());
                }
                CommOp::Send {
                    dst,
                    tag,
                    len,
                    class,
                    shape,
                } => {
                    self.send_block(*dst, *tag, Len(*len), *class, *shape);
                }
                CommOp::Recv { src, tag } => {
                    self.raw_recv(*src, *tag);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Middleware;
    use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind};

    /// A small program touching every recorded call.
    fn program(comm: &mut Comm<'_>) -> f64 {
        let p = comm.size();
        let r = comm.rank();
        comm.set_phase(Phase::Classic);
        comm.charge_compute(1e-4 * (r + 1) as f64);
        comm.barrier();
        let parts = comm.allgather(vec![r as f64; r + 1]);
        let mut v = vec![1.0; 7];
        comm.allreduce_with(CombineAlgo::Flat, &mut v);
        comm.allreduce_with(CombineAlgo::Tree, &mut v);
        comm.allreduce_with(CombineAlgo::Ring, &mut v);
        comm.set_phase(Phase::Pme);
        let back = comm.alltoallv((0..p).map(|d| vec![d as f64; d + r]).collect());
        if p > 1 {
            let right = (r + 1) % p;
            let left = (r + p - 1) % p;
            comm.raw_send(right, 77, vec![2.0; 5], MsgClass::Payload, OpShape::p2p());
            comm.raw_recv(left, 77);
        }
        parts.len() as f64 + v[0] + back.len() as f64
    }

    #[test]
    fn replay_reproduces_the_recorded_timing_on_any_platform() {
        for p in [1usize, 2, 3, 5] {
            let record_cfg = ClusterConfig::uni(p, NetworkKind::TcpGigE);
            let recorded = run_cluster(record_cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                comm.start_recording();
                program(&mut comm);
                comm.take_recording().expect("recording was on")
            });
            for network in [NetworkKind::TcpGigE, NetworkKind::MyrinetGm] {
                for mw in Middleware::ALL {
                    for record_trace in [false, true] {
                        let mut cfg = ClusterConfig::uni(p, network);
                        cfg.record_trace = record_trace;
                        let live = run_cluster(cfg, |ctx| {
                            program(&mut Comm::new(ctx, mw));
                        });
                        let replayed = run_cluster(cfg, |ctx| {
                            let tape = &recorded[ctx.rank()].result;
                            Comm::new(ctx, mw).replay(tape);
                        });
                        for (a, b) in live.iter().zip(&replayed) {
                            assert_eq!(a.finish_time.to_bits(), b.finish_time.to_bits());
                            assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
                            // Message by message, not just in aggregate.
                            assert_eq!(a.stats.trace.len(), b.stats.trace.len());
                            assert_eq!(a.stats.trace.is_empty(), !record_trace || p == 1);
                            for (x, y) in a.stats.trace.iter().zip(&b.stats.trace) {
                                assert_eq!(
                                    (x.dst, x.bytes, x.payload),
                                    (y.dst, y.bytes, y.payload)
                                );
                                assert_eq!(x.departure.to_bits(), y.departure.to_bits());
                                assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tapes_that_disagree_on_a_global_sum_length_panic_on_replay() {
        use cpc_cluster::{try_run_cluster, SimError};
        for algo in [CombineAlgo::Flat, CombineAlgo::Tree, CombineAlgo::Ring] {
            // The ranks that wait on the panicking one stall; the panic
            // is what the run reports.
            let cfg = ClusterConfig::uni(2, NetworkKind::TcpGigE).with_stall_timeout(0.2);
            let result = try_run_cluster(cfg, |ctx| {
                let len = 4 + 2 * ctx.rank();
                Comm::new(ctx, Middleware::Mpi).replay(&[CommOp::Allreduce(algo, len)]);
            });
            match result {
                Err(SimError::RankPanicked { message, .. }) => assert!(
                    message.contains("reduction length mismatch"),
                    "{algo:?}: {message}"
                ),
                other => panic!("{algo:?}: expected a panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_recording_comm_refuses_every_call_the_tape_cannot_hold() {
        use crate::{FailureDetector, RetryPolicy};
        type Call = fn(&mut Comm<'_>);
        let calls: [(&str, Call); 16] = [
            ("ctx()", |c| c.ctx().charge_compute(1.0)),
            ("shrink", |c| c.shrink(&[])),
            ("heartbeat", |c| {
                c.heartbeat();
            }),
            ("heartbeat_observed_with", |c| {
                c.heartbeat_observed(&mut FailureDetector::new(1, Default::default()), 1.0);
            }),
            ("send", |c| c.send(0, 1, vec![1.0])),
            ("recv", |c| {
                c.recv(0, 1);
            }),
            ("try_recv", |c| {
                let _ = c.try_recv(0, 1);
            }),
            ("send_with_retry", |c| {
                let _ = c.send_with_retry(0, 1, vec![1.0], RetryPolicy::default());
            }),
            ("recv_with_retry", |c| {
                let _ = c.recv_with_retry(0, 1, RetryPolicy::default());
            }),
            ("try_barrier", |c| {
                let _ = c.try_barrier();
            }),
            ("ring_sync", |c| c.ring_sync()),
            ("broadcast", |c| c.broadcast(0, &mut vec![1.0])),
            ("gather", |c| {
                c.gather(0, vec![1.0]);
            }),
            ("scatter", |c| {
                c.scatter(0, Some(vec![vec![1.0]]));
            }),
            ("scatter", |c| {
                let _ = c.try_scatter(0, Some(vec![vec![1.0]]));
            }),
            ("reduce_sum", |c| {
                c.reduce_sum(0, vec![1.0]);
            }),
        ];
        for (name, call) in calls {
            let refused = run_cluster(ClusterConfig::uni(1, NetworkKind::TcpGigE), |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                comm.start_recording();
                let refused =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut comm)));
                let why = refused
                    .err()
                    .and_then(|e| e.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                (why, comm.ctx_ref().now())
            });
            let (why, now) = &refused[0].result;
            assert!(
                why.starts_with(&format!("{name} is not recorded")),
                "{name} on a recording Comm: {why:?}"
            );
            assert_eq!(*now, 0.0, "{name} moved the clock before refusing");
        }
    }
}
