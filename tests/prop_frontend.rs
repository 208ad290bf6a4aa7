//! Property-based parity suite for the session frontend.
//!
//! Two contracts are enforced, on **both** storage backends:
//!
//! * **Batch parity** — submitting one batch of *n* requests must be
//!   indistinguishable from *n* single-request submissions: same reply
//!   stream, same work-meter counters, same forensic residuals. This is
//!   what makes the drivers' batch-first execution safe.
//! * **Pipeline parity** — executing through the staged batch pipeline
//!   (plan → decide → apply → account, with read decryption and audit
//!   appends deferred to each span's end) must be indistinguishable from
//!   plain serial execution, down to the **bytes of the audit chain**:
//!   every record's sequence number, timestamp, and payload must match,
//!   or the chain heads diverge. Pipelining amortizes wall-clock time, never
//!   semantics.
//! * **Multi-session parity** — interleaved batches from ≥3 concurrent
//!   sessions through the sharded [`ConcurrentEngine`] must replay
//!   serially: the (shard, seq) stamps recorded by the concurrent run,
//!   re-executed one submission at a time, reproduce every reply, the
//!   forensic residual census, and the merged audit chain byte for byte.
//!   This is the linearizability gate for the concurrent frontend.

use proptest::prelude::*;

use data_case::prelude::*;
use data_case::storage::backend::BackendKind;
use data_case::workloads::gdprbench::{GdprBench, Mix};

/// Per-submission `(responses, stamps)` pairs in firing order.
type StampedReplies = Vec<(Vec<Response>, Vec<SubmitStamp>)>;

/// One multi-session run against the sharded concurrent engine: load
/// through the handle, then fire `schedule`-ordered sub-batches from
/// `sessions` interleaved sessions. With `overlap` every ticket is
/// submitted before any is redeemed, so shard queues back up and workers
/// fuse cross-session bursts through one staged pipeline; without it each
/// ticket is awaited immediately — the serial witness with the identical
/// per-shard arrival order. Returns the per-submission responses and
/// stamps (in firing order), the engine-wide forensic residual count, and
/// the merged audit chain head.
fn concurrent_run(
    backend: BackendKind,
    seed: u64,
    sessions: usize,
    shards: usize,
    schedule: &[usize],
    overlap: bool,
) -> (StampedReplies, usize, [u8; 32]) {
    let config = EngineConfig::p_base()
        .with_backend(backend)
        .with_decision_cache(1024);
    let engine = ConcurrentEngine::new(config, shards);
    let handle = engine.handle();
    let controller = Session::new(Actor::Controller);
    let mut bench = GdprBench::new(seed, 60);
    let load: Vec<Request> = bench.load_phase(50).iter().map(Request::from).collect();
    handle.submit(&controller, &load).wait();
    // Per-session request streams, pre-chunked into sub-batches. Actors
    // rotate so enforcement sees genuinely different sessions.
    let actors = [Actor::Subject, Actor::Processor, Actor::Controller];
    let streams: Vec<(Session, Vec<Vec<Request>>)> = (0..sessions)
        .map(|s| {
            let chunks = bench
                .ops(24, Mix::wcus())
                .chunks(6)
                .map(|c| c.iter().map(Request::from).collect())
                .collect();
            (Session::new(actors[s % actors.len()]), chunks)
        })
        .collect();
    let mut cursors = vec![0usize; sessions];
    let mut fired = Vec::new();
    let mut tickets = Vec::new();
    for &s in schedule {
        let (session, chunks) = &streams[s];
        let Some(batch) = chunks.get(cursors[s]) else {
            continue;
        };
        cursors[s] += 1;
        let ticket = handle.submit(session, batch);
        if overlap {
            tickets.push(ticket);
        } else {
            fired.push(ticket.wait());
        }
    }
    fired.extend(tickets.into_iter().map(Ticket::wait));
    drop(handle);
    let mut frontends = engine.shutdown();
    let head = merged_chain_head(&mut frontends);
    let residuals = frontends
        .iter_mut()
        .map(|fe| fe.forensic().scan(b"person=").total())
        .sum();
    (fired, residuals, head)
}

/// One full run: load `records`, then execute `txns` WCus requests in
/// submissions of `batch_size`, with the pipeline forced on or off and a
/// decision cache of `cache` entries. Returns the outcome stream, the
/// meter counters, the count of forensic residuals for the workload's
/// payload marker, and the audit chain's head MAC.
#[allow(clippy::too_many_arguments)]
fn run(
    backend: BackendKind,
    profile: ProfileKind,
    seed: u64,
    records: usize,
    txns: usize,
    batch_size: usize,
    pipeline: bool,
    cache: usize,
) -> (
    Vec<Result<Reply, EngineError>>,
    MeterSnapshot,
    usize,
    [u8; 32],
) {
    let mut config = EngineConfig::for_profile(profile)
        .with_backend(backend)
        .with_pipeline(pipeline)
        .with_decision_cache(cache);
    config.maintenance_every = 25;
    let mut fe = Frontend::new(config);
    let mut bench = GdprBench::new(seed, 60);
    let controller = Session::new(Actor::Controller);
    let subject = Session::new(Actor::Subject);
    let mut outcomes = Vec::new();
    for chunk in bench.load_phase(records).chunks(batch_size) {
        for r in fe.submit_ops(&controller, chunk) {
            outcomes.push(r.outcome);
        }
    }
    for chunk in bench.ops(txns, Mix::wcus()).chunks(batch_size) {
        for r in fe.submit_ops(&subject, chunk) {
            outcomes.push(r.outcome);
        }
    }
    let work = fe.meter().snapshot();
    let chain = fe.forensic().chain_head();
    // GDPRBench payloads embed a "person=" marker; the residual count is
    // the physical-retention fingerprint of the whole run.
    let residuals = fe.forensic().scan(b"person=").total();
    (outcomes, work, residuals, chain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batch-submit ≡ sequential-execute, on heap and LSM: the reply
    /// stream, the meter snapshot, and the forensic-residual count all
    /// agree between single-request submissions and arbitrary batch
    /// sizes.
    #[test]
    fn batch_submit_matches_sequential_execute(
        seed in 0u64..10_000,
        batch_size in 2usize..96,
        txns in 40usize..120,
    ) {
        for backend in BackendKind::ALL {
            for profile in [ProfileKind::PBase, ProfileKind::PSys] {
                let sequential = run(backend, profile, seed, 60, txns, 1, true, 0);
                let batched = run(backend, profile, seed, 60, txns, batch_size, true, 0);
                prop_assert_eq!(
                    &sequential.0,
                    &batched.0,
                    "{:?}/{:?}: reply streams diverged (batch={})",
                    backend,
                    profile,
                    batch_size
                );
                prop_assert_eq!(
                    sequential.1,
                    batched.1,
                    "{:?}/{:?}: meter snapshots diverged (batch={})",
                    backend,
                    profile,
                    batch_size
                );
                prop_assert_eq!(
                    sequential.2,
                    batched.2,
                    "{:?}/{:?}: forensic residuals diverged (batch={})",
                    backend,
                    profile,
                    batch_size
                );
            }
        }
    }

    /// Pipeline parity: with the pipeline forced on and off over the same
    /// request stream (and with or without the decision cache), replies,
    /// meter counters, forensic residuals, **and the audit chain's
    /// bytes** all agree — every record's sequence number, timestamp, and
    /// payload is identical, or the chain-head MACs would diverge.
    #[test]
    fn pipeline_on_and_off_produce_identical_runs_and_audit_chains(
        seed in 0u64..10_000,
        batch_size in 24usize..128,
        txns in 60usize..160,
        cached in proptest::bool::ANY,
    ) {
        let cache = if cached { 1024 } else { 0 };
        for backend in BackendKind::ALL {
            for profile in [ProfileKind::PBase, ProfileKind::PGBench, ProfileKind::PSys] {
                let serial = run(backend, profile, seed, 60, txns, batch_size, false, cache);
                let piped = run(backend, profile, seed, 60, txns, batch_size, true, cache);
                prop_assert_eq!(
                    &serial.0,
                    &piped.0,
                    "{:?}/{:?}: reply streams diverged between modes",
                    backend,
                    profile
                );
                prop_assert_eq!(
                    serial.1,
                    piped.1,
                    "{:?}/{:?}: meter snapshots diverged between modes",
                    backend,
                    profile
                );
                prop_assert_eq!(
                    serial.2,
                    piped.2,
                    "{:?}/{:?}: forensic residuals diverged between modes",
                    backend,
                    profile
                );
                prop_assert_eq!(
                    serial.3,
                    piped.3,
                    "{:?}/{:?}: audit chains are not byte-identical between modes",
                    backend,
                    profile
                );
            }
        }
    }

    /// The erasure compliance path obeys the same parity: a batch of
    /// erase requests equals one-by-one erasure, down to the forensic
    /// residual count.
    #[test]
    fn erase_batches_match_sequential_erasure(
        seed in 0u64..10_000,
        erased_keys in proptest::collection::vec(0u64..40, 1..12),
    ) {
        for backend in BackendKind::ALL {
            let mk = || {
                let mut config = EngineConfig::p_sys().with_backend(backend);
                config.tuple_encryption = None;
                let mut fe = Frontend::new(config);
                let mut bench = GdprBench::new(seed, 60);
                fe.submit_ops(&Session::new(Actor::Controller), &bench.load_phase(40));
                fe
            };
            let controller = Session::new(Actor::Controller);
            let requests: Vec<Request> = erased_keys
                .iter()
                .map(|&key| Request::Erase {
                    key,
                    interpretation: ErasureInterpretation::PermanentlyDeleted,
                })
                .collect();

            let mut fe_seq = mk();
            let seq: Vec<_> = requests
                .iter()
                .map(|r| fe_seq.run(&controller, r.clone()).outcome)
                .collect();
            let seq_residuals = fe_seq.forensic().scan(b"person=").total();

            let mut fe_batch = mk();
            let batch: Vec<_> = fe_batch
                .submit(&controller, &Batch::from(requests))
                .into_iter()
                .map(|r| r.outcome)
                .collect();
            prop_assert_eq!(
                fe_seq.forensic().chain_head(),
                fe_batch.forensic().chain_head(),
                "{:?}: erase audit chains diverged",
                backend
            );
            let batch_residuals = fe_batch.forensic().scan(b"person=").total();

            prop_assert_eq!(&seq, &batch, "{:?}: erase outcomes diverged", backend);
            prop_assert_eq!(
                seq_residuals,
                batch_residuals,
                "{:?}: erase residuals diverged",
                backend
            );
        }
    }

    /// Multi-session parity: ≥3 sessions firing interleaved sub-batches
    /// into the sharded concurrent engine — tickets outstanding
    /// simultaneously, shard workers fusing cross-session bursts — must be
    /// indistinguishable from replaying the same per-shard arrival order
    /// one submission at a time: same replies, same (shard, seq) stamps,
    /// same forensic residuals, and a byte-identical merged audit chain.
    /// On heap and LSM both.
    #[test]
    fn multi_session_interleavings_replay_serially(
        seed in 0u64..10_000,
        sessions in 3usize..6,
        schedule in proptest::collection::vec(0usize..6, 10..24),
    ) {
        for backend in BackendKind::ALL {
            let schedule: Vec<usize> = schedule.iter().map(|&s| s % sessions).collect();
            let concurrent = concurrent_run(backend, seed, sessions, 3, &schedule, true);
            let serial = concurrent_run(backend, seed, sessions, 3, &schedule, false);
            prop_assert_eq!(
                &concurrent.0,
                &serial.0,
                "{:?}: concurrent replies or stamps diverged from serial replay",
                backend
            );
            prop_assert_eq!(
                concurrent.1,
                serial.1,
                "{:?}: forensic residuals diverged",
                backend
            );
            prop_assert_eq!(
                concurrent.2,
                serial.2,
                "{:?}: merged audit chains are not byte-identical",
                backend
            );
        }
    }
}
