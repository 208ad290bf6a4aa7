//! Workload drivers: batch-first runs (the paper's completion-time
//! metric) and a sharded multi-client mode (scoped threads) for
//! scalability ablations, including heterogeneous per-shard storage
//! backends.
//!
//! Every driver submits through [`Frontend::submit`], i.e. through the
//! staged batch pipeline (`datacase_engine::exec`) when
//! [`EngineConfig::pipeline`] is on: within each submitted chunk, point
//! reads defer their payload work to the end of the span while barriers
//! (compliance verbs, log-redacting deletes) flush it first. Batch size
//! and pipeline mode never change results — only boundary crossings and
//! wall-clock time (the `prop_frontend` parity suite holds the engine to
//! that).

use std::sync::Arc;
use std::time::Instant;

use datacase_sim::time::Dur;
use datacase_sim::{Meter, MeterSnapshot, SimClock};
use datacase_storage::backend::BackendKind;
use datacase_workloads::opstream::Op;

use crate::db::Actor;
use crate::error::EngineError;
use crate::frontend::{Frontend, Response, Session};
use crate::profiles::EngineConfig;

/// Default number of requests per submitted batch in the drivers.
pub const DEFAULT_BATCH: usize = 64;

/// Statistics of one workload run, tallied from the typed
/// [`EngineError`] taxonomy (not sentinel reply values).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Operations executed.
    pub ops: usize,
    /// Operations denied by policy enforcement ([`EngineError::Denied`]).
    pub denied: usize,
    /// Operations targeting keys that never existed
    /// ([`EngineError::NotFound`]).
    pub not_found: usize,
    /// Operations targeting erased records
    /// ([`EngineError::RetentionExpired`]).
    pub expired: usize,
    /// Operations failed by the substrate ([`EngineError::Backend`]).
    pub failed: usize,
    /// Simulated completion time.
    pub simulated: Dur,
    /// Wall-clock time of the run (host-side, for criterion context).
    pub wall: std::time::Duration,
    /// Work counters accumulated during the run.
    pub work: MeterSnapshot,
}

impl RunStats {
    /// Simulated throughput in ops per simulated second.
    pub fn sim_ops_per_sec(&self) -> f64 {
        let secs = self.simulated.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Fold one response's outcome into the error tallies.
    fn tally(&mut self, response: &Response) {
        match &response.outcome {
            Ok(_) => {}
            Err(EngineError::Denied { .. }) => self.denied += 1,
            Err(EngineError::NotFound { .. }) => self.not_found += 1,
            Err(EngineError::RetentionExpired { .. }) => self.expired += 1,
            Err(EngineError::Backend { .. }) => self.failed += 1,
        }
    }
}

/// Run `ops` on `frontend` as `actor` in batches of [`DEFAULT_BATCH`],
/// returning completion stats.
pub fn run_ops(frontend: &mut Frontend, ops: &[Op], actor: Actor) -> RunStats {
    run_ops_batched(frontend, ops, actor, DEFAULT_BATCH)
}

/// [`run_ops`] with an explicit batch size. Batch size never changes
/// results (the `prop_frontend` parity suite holds the engine to that);
/// it only changes how many submissions cross the frontend boundary.
pub fn run_ops_batched(
    frontend: &mut Frontend,
    ops: &[Op],
    actor: Actor,
    batch_size: usize,
) -> RunStats {
    let batch_size = batch_size.max(1);
    let session = Session::new(actor);
    let sim_start = frontend.clock().now();
    let meter_start = frontend.meter().snapshot();
    let wall_start = Instant::now();
    let mut stats = RunStats {
        ops: ops.len(),
        ..RunStats::default()
    };
    for chunk in ops.chunks(batch_size) {
        for response in frontend.submit_ops(&session, chunk) {
            stats.tally(&response);
        }
    }
    stats.simulated = frontend.clock().now().since(sim_start);
    stats.wall = wall_start.elapsed();
    stats.work = frontend.meter().snapshot().diff(&meter_start);
    stats
}

/// Results of a sharded run: per-shard stats plus the work counters
/// aggregated over every shard.
#[derive(Clone, Debug, Default)]
pub struct ShardedRun {
    /// One entry per shard, in shard order. Each shard runs on its own
    /// [`Meter`], so its `work` field counts exactly that shard's
    /// transaction-phase work — no cross-shard bleed, whatever the
    /// thread interleaving.
    pub shards: Vec<RunStats>,
    /// Work counters merged over all shards ([`MeterSnapshot::merge`]),
    /// load phase included. Addition is commutative, so the aggregate is
    /// deterministic regardless of how the workers interleaved.
    pub work: MeterSnapshot,
}

impl ShardedRun {
    /// The aggregate completion time: the slowest shard (the end barrier
    /// of a multi-client run).
    pub fn completion(&self) -> Dur {
        sharded_completion(&self.shards)
    }

    /// Total operations executed across shards (transaction phase).
    pub fn total_ops(&self) -> usize {
        self.shards.iter().map(|s| s.ops).sum()
    }
}

/// Per-shard execution plan for [`sharded_run_plan`]: which storage
/// substrate each shard runs on (heap and LSM shards can serve one job —
/// a hot tier next to a capacity tier), and how requests are batched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// One [`BackendKind`] per shard; the vector's length is the shard
    /// count.
    pub backends: Vec<BackendKind>,
    /// Requests per submitted batch on every shard.
    pub batch: usize,
}

impl ShardPlan {
    /// A homogeneous plan: `shards` shards, all on `backend`.
    pub fn uniform(backend: BackendKind, shards: usize) -> ShardPlan {
        ShardPlan {
            backends: vec![backend; shards],
            batch: DEFAULT_BATCH,
        }
    }

    /// A heterogeneous plan from an explicit backend list.
    pub fn of(backends: &[BackendKind]) -> ShardPlan {
        ShardPlan {
            backends: backends.to_vec(),
            batch: DEFAULT_BATCH,
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.backends.len()
    }
}

/// Sharded multi-client run on a homogeneous plan: all shards use
/// `config.backend`. See [`sharded_run_plan`] for heterogeneous tiers.
pub fn sharded_run(
    config: &EngineConfig,
    load: &[Op],
    txns: &[Op],
    actor: Actor,
    shards: usize,
) -> ShardedRun {
    sharded_run_plan(
        config,
        load,
        txns,
        actor,
        &ShardPlan::uniform(config.backend, shards),
    )
}

/// Sharded multi-client run: keys are hash-partitioned over the plan's
/// shards — independent frontends executing in parallel threads, each
/// over the substrate its [`ShardPlan`] slot names; completion time is
/// the slowest shard's simulated time (a barrier at the end, as in
/// multi-client YCSB runs). Every shard is built through
/// [`Frontend::with_clock`] on its own clock **and its own [`Meter`]**:
/// counters never race across threads, each shard's [`RunStats::work`]
/// is exactly its own work, and the run total in [`ShardedRun::work`]
/// is the order-independent merge of the per-shard snapshots.
pub fn sharded_run_plan(
    config: &EngineConfig,
    load: &[Op],
    txns: &[Op],
    actor: Actor,
    plan: &ShardPlan,
) -> ShardedRun {
    let shards = plan.shards();
    assert!(shards > 0, "a shard plan needs at least one shard");
    let shard_of = |op: &Op, i: usize| -> usize {
        match op.key() {
            Some(k) => (k % shards as u64) as usize,
            None => i % shards, // scans round-robin
        }
    };
    let mut load_parts: Vec<Vec<Op>> = vec![Vec::new(); shards];
    for (i, op) in load.iter().enumerate() {
        load_parts[shard_of(op, i)].push(op.clone());
    }
    let mut txn_parts: Vec<Vec<Op>> = vec![Vec::new(); shards];
    for (i, op) in txns.iter().enumerate() {
        txn_parts[shard_of(op, i)].push(op.clone());
    }
    let shard_results: Vec<(RunStats, MeterSnapshot)> = std::thread::scope(|scope| {
        // Spawn every shard before joining any (collect is eager), then
        // join in shard order so the result index is the shard index.
        let handles: Vec<_> = load_parts
            .into_iter()
            .zip(txn_parts)
            .zip(&plan.backends)
            .map(|((load_ops, txn_ops), &backend)| {
                let cfg = config.clone().with_backend(backend);
                let batch = plan.batch;
                scope.spawn(move || {
                    // Own clock and own meter: shards progress — and
                    // count — independently; aggregation is a merge
                    // after the join, not a shared counter during the
                    // run.
                    let meter = Arc::new(Meter::new());
                    let mut fe = Frontend::with_clock(cfg, SimClock::commodity(), meter.clone());
                    let controller = Session::new(Actor::Controller);
                    for chunk in load_ops.chunks(batch.max(1)) {
                        fe.submit_ops(&controller, chunk);
                    }
                    let stats = run_ops_batched(&mut fe, &txn_ops, actor, batch);
                    (stats, meter.snapshot())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let work = shard_results
        .iter()
        .fold(MeterSnapshot::default(), |acc, (_, m)| acc.merge(m));
    ShardedRun {
        shards: shard_results.into_iter().map(|(s, _)| s).collect(),
        work,
    }
}

/// The aggregate completion time of a sharded run: the slowest shard.
pub fn sharded_completion(stats: &[RunStats]) -> Dur {
    stats.iter().map(|s| s.simulated).max().unwrap_or(Dur::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ProfileKind;
    use datacase_workloads::gdprbench::{GdprBench, Mix};

    #[test]
    fn run_ops_reports_stats() {
        let mut fe = Frontend::new(EngineConfig::for_profile(ProfileKind::PBase));
        let mut bench = GdprBench::new(1, 50);
        let load = bench.load_phase(100);
        let stats = run_ops(&mut fe, &load, Actor::Controller);
        assert_eq!(stats.ops, 100);
        assert_eq!(stats.denied, 0);
        assert_eq!(stats.failed, 0);
        assert!(stats.simulated > Dur::ZERO);
        assert!(stats.work.log_records >= 100);
        assert!(stats.sim_ops_per_sec() > 0.0);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let run = |batch: usize| {
            let mut fe = Frontend::new(EngineConfig::for_profile(ProfileKind::PBase));
            let mut bench = GdprBench::new(4, 50);
            let load = bench.load_phase(150);
            run_ops_batched(&mut fe, &load, Actor::Controller, batch);
            let txns = bench.ops(200, Mix::wcus());
            run_ops_batched(&mut fe, &txns, Actor::Subject, batch)
        };
        let a = run(1);
        let b = run(128);
        assert_eq!(a.denied, b.denied);
        assert_eq!(a.not_found, b.not_found);
        assert_eq!(a.expired, b.expired);
        assert_eq!(a.simulated, b.simulated);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn pipeline_mode_does_not_change_driver_results() {
        let run = |pipeline: bool| {
            let config = EngineConfig::for_profile(ProfileKind::PSys)
                .with_pipeline(pipeline)
                .with_decision_cache(512);
            let mut fe = Frontend::new(config);
            let mut bench = GdprBench::new(9, 50);
            let load = bench.load_phase(150);
            run_ops_batched(&mut fe, &load, Actor::Controller, 64);
            let txns = bench.ops(300, Mix::wcus());
            run_ops_batched(&mut fe, &txns, Actor::Subject, 64)
        };
        let serial = run(false);
        let pipelined = run(true);
        assert_eq!(serial.denied, pipelined.denied);
        assert_eq!(serial.not_found, pipelined.not_found);
        assert_eq!(serial.expired, pipelined.expired);
        assert_eq!(serial.simulated, pipelined.simulated);
        assert_eq!(serial.work, pipelined.work);
    }

    #[test]
    fn sharded_run_covers_all_ops() {
        let config = EngineConfig::for_profile(ProfileKind::PBase);
        let mut bench = GdprBench::new(2, 50);
        let load = bench.load_phase(200);
        let txns = bench.ops(200, Mix::wcus());
        let run = sharded_run(&config, &load, &txns, Actor::Subject, 4);
        assert_eq!(run.shards.len(), 4);
        assert_eq!(run.total_ops(), 200);
        assert!(run.completion() > Dur::ZERO);
    }

    #[test]
    fn sharded_run_merges_per_shard_meters_deterministically() {
        let config = EngineConfig::for_profile(ProfileKind::PBase);
        let mut bench = GdprBench::new(5, 50);
        let load = bench.load_phase(200);
        let txns = bench.ops(100, Mix::wcus());
        let run = sharded_run(&config, &load, &txns, Actor::Subject, 4);
        // Every load op logs at least one audit record; the merged
        // snapshot must see all shards' work, not one shard's.
        assert!(
            run.work.log_records >= 200,
            "aggregate log records: {}",
            run.work.log_records
        );
        assert!(run.work.tuples_scanned > 0);
        // Shards count on private meters: each shard's transaction-phase
        // work is bounded by (and sums into) the aggregate, which cannot
        // happen when shards bleed counts into each other's diffs.
        let txn_sum = run
            .shards
            .iter()
            .fold(MeterSnapshot::default(), |acc, s| acc.merge(&s.work));
        assert!(txn_sum.log_records <= run.work.log_records);
        for shard in &run.shards {
            assert!(shard.work.log_records <= txn_sum.log_records);
        }
        // And the aggregate is reproducible: same partitioning, same
        // per-shard streams, same merged counters on a rerun, however
        // the 4 threads interleaved.
        let again = sharded_run(&config, &load, &txns, Actor::Subject, 4);
        assert_eq!(run.work, again.work, "merge must be interleaving-free");
    }

    #[test]
    fn sharding_reduces_completion_time() {
        let config = EngineConfig::for_profile(ProfileKind::PBase);
        let mut bench = GdprBench::new(3, 100);
        let load = bench.load_phase(400);
        let txns = bench.ops(400, Mix::wcus());
        let seq = sharded_run(&config, &load, &txns, Actor::Subject, 1);
        let par = sharded_run(&config, &load, &txns, Actor::Subject, 4);
        assert!(
            par.completion() < seq.completion(),
            "4 shards {:?} vs 1 shard {:?}",
            par.completion(),
            seq.completion()
        );
    }

    #[test]
    fn mixed_backend_plan_runs_heap_and_lsm_shards_together() {
        let config = EngineConfig::for_profile(ProfileKind::PBase);
        let mut bench = GdprBench::new(11, 50);
        let load = bench.load_phase(200);
        let txns = bench.ops(200, Mix::wcus());
        let plan = ShardPlan::of(&[
            BackendKind::Heap,
            BackendKind::Lsm,
            BackendKind::Heap,
            BackendKind::Lsm,
        ]);
        let run = sharded_run_plan(&config, &load, &txns, Actor::Subject, &plan);
        assert_eq!(run.shards.len(), 4);
        assert_eq!(run.total_ops(), 200);
        // Backend parity: heterogeneous substrates agree on enforcement
        // outcomes for the same key partition — compare against an
        // all-heap run of the same partitioning.
        let uniform = sharded_run(&config, &load, &txns, Actor::Subject, 4);
        for (mixed, heap) in run.shards.iter().zip(&uniform.shards) {
            assert_eq!(mixed.ops, heap.ops);
            assert_eq!(mixed.denied, heap.denied);
            assert_eq!(mixed.not_found, heap.not_found);
            assert_eq!(mixed.expired, heap.expired);
        }
    }
}
