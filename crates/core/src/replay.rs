//! Physics once, timing per platform: the trajectory cache behind
//! [`run_parallel_md`](crate::run_parallel_md).
//!
//! A live run records a [`Tape`]: every rank's `Comm`-level calls (see
//! [`CommOp`]) plus rank 0's physics. Virtual time is charged from op
//! counts and payload lengths, so replaying the tape on any network,
//! middleware or node configuration with the same rank count gives the
//! report a live run on that platform would give, bit for bit, at a
//! fraction of the host time. A process-wide cache of at most
//! [`CAPACITY`] tapes holds the trajectories seen so far, keyed by
//! exactly the inputs that can change a recorded charge or a byte of
//! physics (DESIGN.md, "Physics once, timing per platform").

use crate::driver::{run_recorded, CommTuning, MdConfig, PmeImpl};
use crate::report::{RankPayload, RunReport};
use cpc_cluster::{run_cluster, CostModel, RankOutcome};
use cpc_md::{EnergyModel, System, Vec3};
use cpc_mpi::{Comm, CommOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The most tapes the process-wide cache holds; the least recently
/// used one is evicted first.
pub const CAPACITY: usize = 16;

/// One trajectory recorded from a live run: each rank's `Comm`-level
/// program and rank 0's physics.
#[derive(Debug)]
pub struct Tape {
    ops: Vec<Vec<CommOp>>,
    physics: RankPayload,
}

impl Tape {
    /// Runs `cfg` live and records its tape alongside the report.
    pub fn record(system: &System, cfg: &MdConfig) -> (RunReport, Tape) {
        let mut ops = Vec::with_capacity(cfg.cluster.ranks);
        let outcomes: Vec<RankOutcome<RankPayload>> = run_recorded(system, cfg)
            .into_iter()
            .map(|o| {
                let (payload, tape) = o.result;
                ops.push(tape);
                RankOutcome {
                    rank: o.rank,
                    result: payload,
                    stats: o.stats,
                    finish_time: o.finish_time,
                }
            })
            .collect();
        let physics = outcomes[0].result.clone();
        (
            RunReport::from_outcomes(cfg, outcomes),
            Tape { ops, physics },
        )
    }

    /// Replays the tape on `cfg`'s own cluster and middleware.
    ///
    /// # Panics
    /// If `cfg` asks for a different rank count than the tape's.
    pub fn replay(&self, cfg: &MdConfig) -> RunReport {
        assert_eq!(
            cfg.cluster.ranks,
            self.ops.len(),
            "a tape replays at the rank count it was recorded at"
        );
        let mut outcomes = run_cluster(cfg.cluster, |ctx| {
            let ops = &self.ops[ctx.rank()];
            Comm::new(ctx, cfg.middleware).replay(ops);
            RankPayload::default()
        });
        outcomes[0].result = self.physics.clone();
        RunReport::from_outcomes(cfg, outcomes)
    }
}

/// Live runs and replays served by [`run_parallel_md`](crate::run_parallel_md)
/// in this process.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryCounts {
    /// Runs that integrated their physics live (cache misses).
    pub live: u64,
    /// Runs replayed from a cached tape (cache hits).
    pub replayed: u64,
}

impl std::fmt::Display for TrajectoryCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trajectories live, {} replayed",
            self.live, self.replayed
        )
    }
}

static LIVE: AtomicU64 = AtomicU64::new(0);
static REPLAYED: AtomicU64 = AtomicU64::new(0);
static CACHE: Mutex<TapeCache> = Mutex::new(TapeCache::new());

/// How many runs this process has served live and by replay so far.
pub fn trajectory_counts() -> TrajectoryCounts {
    TrajectoryCounts {
        live: LIVE.load(Ordering::Relaxed),
        replayed: REPLAYED.load(Ordering::Relaxed),
    }
}

/// The cached path of [`run_parallel_md`](crate::run_parallel_md). The
/// cache lock is never held across a run, so a live run on one thread
/// does not block replays on others.
pub(crate) fn run_cached(system: &System, cfg: &MdConfig) -> RunReport {
    let key = Key::of(cfg);
    let cached = cache().get(&key, system);
    if let Some(tape) = cached {
        REPLAYED.fetch_add(1, Ordering::Relaxed);
        return tape.replay(cfg);
    }
    let (report, tape) = Tape::record(system, cfg);
    LIVE.fetch_add(1, Ordering::Relaxed);
    cache().insert(key, system, Arc::new(tape));
    report
}

fn cache() -> MutexGuard<'static, TapeCache> {
    // Entries are replaced whole, so a panic elsewhere cannot leave
    // one half-written.
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The inputs besides the system that can change a recorded charge or
/// a byte of physics. The rest of an [`MdConfig`] (network, middleware,
/// CPUs per node, CPU, seed, trace recording, slow nodes, stall
/// watchdog) acts only inside the engine and the middleware, which
/// replay re-runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key {
    model: EnergyModel,
    ranks: usize,
    cost: CostModel,
    steps: usize,
    dt: f64,
    tuning: CommTuning,
    pme_impl: PmeImpl,
}

impl Key {
    fn of(cfg: &MdConfig) -> Self {
        Key {
            model: cfg.model,
            ranks: cfg.cluster.ranks,
            cost: cfg.cluster.cost,
            steps: cfg.steps,
            dt: cfg.dt,
            tuning: cfg.tuning,
            pme_impl: cfg.pme_impl,
        }
    }
}

/// Whether two systems start the same trajectory: coordinates,
/// velocities and box compared bit for bit, the topology by value.
fn same_system(a: &System, b: &System) -> bool {
    fn bits(v: &[Vec3]) -> impl Iterator<Item = u64> + '_ {
        v.iter().flat_map(|p| [p.x, p.y, p.z]).map(f64::to_bits)
    }
    bits(&[a.pbox.lengths]).eq(bits(&[b.pbox.lengths]))
        && bits(&a.positions).eq(bits(&b.positions))
        && bits(&a.velocities).eq(bits(&b.velocities))
        && a.topology == b.topology
}

struct Entry {
    key: Key,
    system: System,
    tape: Arc<Tape>,
}

/// At most [`CAPACITY`] tapes, least recently used first. A lookup
/// matches only on an equal key *and* a stored copy of the same
/// system.
struct TapeCache {
    entries: Vec<Entry>,
}

impl TapeCache {
    const fn new() -> Self {
        TapeCache {
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &Key, system: &System) -> Option<Arc<Tape>> {
        let i = self
            .entries
            .iter()
            .position(|e| e.key == *key && same_system(&e.system, system))?;
        let entry = self.entries.remove(i);
        let tape = Arc::clone(&entry.tape);
        self.entries.push(entry);
        Some(tape)
    }

    /// Adds a tape unless another thread's live run of the same inputs
    /// got there first.
    fn insert(&mut self, key: Key, system: &System, tape: Arc<Tape>) {
        if self.get(&key, system).is_some() {
            return;
        }
        if self.entries.len() == CAPACITY {
            self.entries.remove(0);
        }
        self.entries.push(Entry {
            key,
            system: system.clone(),
            tape,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::{ClusterConfig, NetworkKind};
    use cpc_md::builder::water_box;
    use cpc_mpi::{CombineAlgo, Middleware};

    fn system() -> System {
        let mut sys = water_box(2, 3.1);
        sys.assign_velocities(150.0, 3);
        sys
    }

    fn cfg() -> MdConfig {
        MdConfig {
            steps: 1,
            ..MdConfig::paper_protocol(
                EnergyModel::Classic,
                Middleware::Mpi,
                ClusterConfig::uni(2, NetworkKind::TcpGigE),
            )
        }
    }

    fn tape() -> Arc<Tape> {
        Arc::new(Tape {
            ops: vec![Vec::new(); 2],
            physics: RankPayload::default(),
        })
    }

    #[test]
    fn only_the_same_inputs_hit() {
        let sys = system();
        let base = cfg();
        let mut cache = TapeCache::new();
        cache.insert(Key::of(&base), &sys, tape());

        // The platform is not part of the key.
        let mut platform = base;
        platform.middleware = Middleware::Cmpi;
        platform.cluster = ClusterConfig::dual(2, NetworkKind::MyrinetGm);
        platform.cluster.seed = 7;
        platform.cluster.record_trace = true;
        platform.cluster.stall_timeout = 1.0;
        assert!(cache.get(&Key::of(&platform), &sys).is_some());

        let mut nudged = sys.clone();
        nudged.positions[5].y = f64::from_bits(nudged.positions[5].y.to_bits() + 1);
        assert!(cache.get(&Key::of(&base), &nudged).is_none(), "one ulp");
        let mut kicked = sys.clone();
        kicked.velocities[0].x = -kicked.velocities[0].x;
        assert!(cache.get(&Key::of(&base), &kicked).is_none(), "velocity");

        let misses: [(&str, MdConfig); 7] = [
            ("steps", MdConfig { steps: 2, ..base }),
            ("dt", MdConfig { dt: 0.002, ..base }),
            (
                "ranks",
                MdConfig {
                    cluster: ClusterConfig::uni(4, NetworkKind::TcpGigE),
                    ..base
                },
            ),
            ("cost", {
                let mut c = base;
                c.cluster.cost.pair_eval *= 1.5;
                c
            }),
            (
                "tuning",
                MdConfig {
                    tuning: CommTuning {
                        force_combine: CombineAlgo::Tree,
                        ..base.tuning
                    },
                    ..base
                },
            ),
            (
                "pme_impl",
                MdConfig {
                    pme_impl: PmeImpl::Spatial,
                    ..base
                },
            ),
            (
                "model",
                MdConfig {
                    model: EnergyModel::Pme(cpc_md::pme::PmeParams {
                        grid: cpc_fft::Dims3::new(16, 16, 16),
                        order: 4,
                        beta: 0.34,
                    }),
                    ..base
                },
            ),
        ];
        for (what, other) in misses {
            assert!(cache.get(&Key::of(&other), &sys).is_none(), "{what}");
        }
    }

    #[test]
    fn the_cache_stays_within_its_capacity_and_evicts_the_least_recent() {
        let sys = system();
        let mut cache = TapeCache::new();
        let key = |steps| Key::of(&MdConfig { steps, ..cfg() });
        for steps in 0..3 * CAPACITY {
            cache.insert(key(steps), &sys, tape());
            assert!(cache.entries.len() <= CAPACITY);
            // Keep the first entry warm: it must survive every eviction.
            assert!(cache.get(&key(0), &sys).is_some(), "after {steps}");
        }
        assert_eq!(cache.entries.len(), CAPACITY);
        assert!(cache.get(&key(1), &sys).is_none(), "evicted");
        assert!(cache.get(&key(3 * CAPACITY - 1), &sys).is_some());
        // A second insert of cached inputs adds nothing.
        cache.insert(key(0), &sys, tape());
        assert_eq!(cache.entries.len(), CAPACITY);
    }
}
