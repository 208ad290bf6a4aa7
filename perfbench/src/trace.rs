//! The traced run: one trial's request stream replayed at three entry
//! points, with spans timed only around calls the benchmark makes.
//!
//! 1. **Wire** — the gateway over loopback TCP, once untraced and once
//!    with the codec calls timed ([`crate::wire`]).
//! 2. **Handle** — an in-process [`ConcurrentEngine`] fed the same
//!    batches through [`EngineHandle::submit`] and [`Ticket::wait`],
//!    keyed and scoped exactly as the gateway would.
//! 3. **Frontends** — one [`Frontend`] per shard, single-threaded, fed
//!    each batch's per-shard sub-batches; per-batch [`Meter`] and
//!    [`SimClock`] deltas supply counts and the cost model's charge.
//!
//! A layer's self time is its span minus the span of the layer below:
//! gateway = wire round trip − handle wait; concurrent = handle wait −
//! slowest shard's `Frontend::submit`.
//!
//! [`EngineHandle::submit`]: datacase_engine::concurrent::EngineHandle::submit
//! [`Ticket::wait`]: datacase_engine::concurrent::Ticket::wait
//! [`Meter`]: datacase_sim::Meter
//! [`SimClock`]: datacase_sim::SimClock

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacase_crypto::sector::SectorCipher;
use datacase_crypto::{AesCtr, KeySize};
use datacase_engine::concurrent::ConcurrentEngine;
use datacase_engine::exec::{classify, RequestClass};
use datacase_engine::frontend::{Frontend, Request, Session};
use datacase_engine::profiles::EngineConfig;
use datacase_engine::space::SpaceReport;
use datacase_engine::sweeper::{sweep, SweeperConfig};
use datacase_sim::{Meter, MeterSnapshot, SimClock};
use datacase_storage::page::PAGE_SIZE;
use datacase_workloads::opstream::MetaSelector;

use crate::gate::{self, BENCH_TENANT};
use crate::report::Report;
use crate::served;
use crate::workload::{self, Sizes, Streams, Workload, SHARDS};

/// Rewrite a tenant-local request into the shared keyspace, as the
/// gateway does before submitting.
pub fn to_global(request: &Request) -> Request {
    let key = gate::global;
    let subject = |s: u32| {
        BENCH_TENANT
            .global_subject(s)
            .expect("benchmark subjects fit the tenant block")
    };
    match request {
        Request::Create {
            key: k,
            payload,
            metadata,
        } => {
            let mut metadata = metadata.clone();
            metadata.subject = subject(metadata.subject);
            Request::Create {
                key: key(*k),
                payload: payload.clone(),
                metadata,
            }
        }
        Request::Read { key: k } => Request::Read { key: key(*k) },
        Request::Update { key: k, payload } => Request::Update {
            key: key(*k),
            payload: payload.clone(),
        },
        Request::Delete { key: k } => Request::Delete { key: key(*k) },
        Request::ReadMeta { key: k } => Request::ReadMeta { key: key(*k) },
        Request::UpdateMeta { key: k, field } => Request::UpdateMeta {
            key: key(*k),
            field: *field,
        },
        Request::ReadByMeta { selector } => Request::ReadByMeta {
            selector: match selector {
                MetaSelector::BySubject(s) => MetaSelector::BySubject(subject(*s)),
                MetaSelector::ByPurpose(p) => MetaSelector::ByPurpose(*p),
            },
        },
        Request::Erase {
            key: k,
            interpretation,
        } => Request::Erase {
            key: key(*k),
            interpretation: *interpretation,
        },
        Request::Restore { key: k } => Request::Restore { key: key(*k) },
    }
}

fn session(actor: datacase_engine::Actor) -> Session {
    Session::new(actor).scoped(BENCH_TENANT.key_range())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traffic batches a wire pass sent, per connection, in global keys.
fn replayed_batches(streams: &Streams, consumed: &[usize]) -> Vec<Vec<Vec<Request>>> {
    consumed
        .iter()
        .enumerate()
        .map(|(conn, &n)| {
            streams
                .batches(conn)
                .take(n)
                .map(|batch| batch.iter().map(to_global).collect())
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// Pass 2: the in-process engine handle
// ---------------------------------------------------------------------

/// Mean `submit`→`wait` time per traffic batch through an in-process
/// engine handle, with the erasures sent as in the wire pass.
fn handle_pass(
    workload: Workload,
    sizes: &Sizes,
    streams: &Streams,
    traffic: &[Vec<Vec<Request>>],
) -> f64 {
    let engine = ConcurrentEngine::new(workload.config(sizes), SHARDS);
    let controller = session(datacase_engine::Actor::Controller);
    for chunk in streams.load.chunks(workload::LOAD_BATCH) {
        let global: Vec<Request> = chunk.iter().map(to_global).collect();
        engine.submit(&controller, &global).wait();
    }
    let erasures: Vec<Request> = streams
        .erase_keys
        .iter()
        .map(|&k| to_global(&streams.erase_request(k)))
        .collect();
    let traffic_session = session(workload::TRAFFIC_ACTOR);
    let send_erasures = |handle: &datacase_engine::concurrent::EngineHandle| {
        let start = Instant::now();
        for (i, request) in erasures.iter().enumerate() {
            if let Some(rate) = sizes.erase_rate {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            handle
                .submit(&controller, std::slice::from_ref(request))
                .wait();
        }
    };
    let waits: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = traffic
            .iter()
            .map(|batches| {
                let handle = engine.handle();
                let traffic_session = &traffic_session;
                scope.spawn(move || {
                    batches
                        .iter()
                        .map(|batch| {
                            let t = Instant::now();
                            handle.submit(traffic_session, batch).wait();
                            ms(t.elapsed())
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        if workload.erases_under_load() {
            send_erasures(&engine.handle());
        }
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("handle client"))
            .collect()
    });
    if !workload.erases_under_load() {
        send_erasures(&engine.handle());
    }
    drop(engine.shutdown());
    mean(&waits)
}

// ---------------------------------------------------------------------
// Pass 3: one frontend per shard
// ---------------------------------------------------------------------

/// One shard's frontend and its meter.
struct Shard {
    fe: Frontend,
    meter: Arc<Meter>,
}

/// What pass 3 measured over the traffic batches and the erasures.
#[derive(Default)]
struct FrontendPass {
    /// Per traffic batch: Σ over shards of `Frontend::submit` wall, ms.
    wall_sum: Vec<f64>,
    /// Per traffic batch: the slowest shard's wall, ms.
    wall_max: Vec<f64>,
    /// Per traffic batch: slowest over mean shard wall.
    imbalance: Vec<f64>,
    /// Per traffic batch: Σ over shards of the sim clock's charge, ms.
    sim_sum: Vec<f64>,
    /// Meter deltas summed over traffic batches.
    traffic: MeterSnapshot,
    /// Traffic requests, reads among them, barrier requests, and payload
    /// bytes written by creates and updates.
    ops: u64,
    reads: u64,
    barriers: u64,
    user_bytes: u64,
    /// Per erasure: `Frontend::submit` wall, ms.
    erase_wall: Vec<f64>,
    /// Meter deltas summed over erasures.
    erase: MeterSnapshot,
}

fn shards(config: &EngineConfig) -> Vec<Shard> {
    (0..SHARDS)
        .map(|_| {
            let meter = Arc::new(Meter::new());
            let fe =
                Frontend::with_clock(config.clone(), SimClock::commodity(), Arc::clone(&meter));
            Shard { fe, meter }
        })
        .collect()
}

/// Split a global-key batch into per-shard sub-batches, as the engine
/// handle does (keyless scans go to every shard).
fn split(batch: &[Request]) -> Vec<Vec<Request>> {
    let mut parts = vec![Vec::new(); SHARDS];
    for request in batch {
        match datacase_engine::concurrent::shard_of(request, SHARDS) {
            Some(shard) => parts[shard].push(request.clone()),
            None => parts.iter_mut().for_each(|p| p.push(request.clone())),
        }
    }
    parts
}

/// Submit one batch's sub-batches, returning (wall, sim, meter delta)
/// per touched shard.
fn submit_split(
    shards: &mut [Shard],
    session: &Session,
    batch: &[Request],
) -> Vec<(f64, f64, MeterSnapshot)> {
    split(batch)
        .into_iter()
        .zip(shards.iter_mut())
        .filter(|(part, _)| !part.is_empty())
        .map(|(part, shard)| {
            let before = shard.meter.snapshot();
            let sim_before = shard.fe.clock().now();
            let t = Instant::now();
            shard.fe.submit(session, &part.into());
            let wall = ms(t.elapsed());
            let sim = shard.fe.clock().now().since(sim_before).as_millis_f64();
            (wall, sim, shard.meter.snapshot().diff(&before))
        })
        .collect()
}

fn frontend_pass(
    workload: Workload,
    sizes: &Sizes,
    streams: &Streams,
    traffic: &[Vec<Vec<Request>>],
) -> FrontendPass {
    let config = workload.config(sizes);
    let mut shards = shards(&config);
    let controller = session(datacase_engine::Actor::Controller);
    for chunk in streams.load.chunks(workload::LOAD_BATCH) {
        let global: Vec<Request> = chunk.iter().map(to_global).collect();
        submit_split(&mut shards, &controller, &global);
    }
    // Connections' batches round-robin; erasures spread evenly through
    // the traffic when they ran under load, after it otherwise.
    let rounds = traffic.iter().map(Vec::len).max().unwrap_or(0);
    let order: Vec<&Vec<Request>> = (0..rounds)
        .flat_map(|i| traffic.iter().filter_map(move |c| c.get(i)))
        .collect();
    let erasures: Vec<Request> = streams
        .erase_keys
        .iter()
        .map(|&k| to_global(&streams.erase_request(k)))
        .collect();
    let slot = |j: usize| {
        if workload.erases_under_load() {
            j * order.len() / erasures.len().max(1)
        } else {
            order.len()
        }
    };
    let traffic_session = session(workload::TRAFFIC_ACTOR);
    let mut pass = FrontendPass::default();
    let mut next_erase = 0;
    let mut erase_until = |pass: &mut FrontendPass, shards: &mut [Shard], i: usize| {
        while next_erase < erasures.len() && slot(next_erase) <= i {
            for (wall, _, delta) in submit_split(
                shards,
                &controller,
                std::slice::from_ref(&erasures[next_erase]),
            ) {
                pass.erase_wall.push(wall);
                pass.erase = pass.erase.merge(&delta);
            }
            next_erase += 1;
        }
    };
    for (i, batch) in order.iter().enumerate() {
        erase_until(&mut pass, &mut shards, i);
        let per_shard = submit_split(&mut shards, &traffic_session, batch);
        let walls: Vec<f64> = per_shard.iter().map(|(w, _, _)| *w).collect();
        let max = walls.iter().copied().fold(0.0, f64::max);
        pass.wall_sum.push(walls.iter().sum());
        pass.wall_max.push(max);
        pass.imbalance.push(ratio(max, mean(&walls)));
        pass.sim_sum
            .push(per_shard.iter().map(|(_, s, _)| *s).sum());
        for (_, _, delta) in &per_shard {
            pass.traffic = pass.traffic.merge(delta);
        }
        for request in batch.iter() {
            pass.ops += 1;
            match request {
                Request::Read { .. } => pass.reads += 1,
                Request::Create { payload, .. } | Request::Update { payload, .. } => {
                    pass.user_bytes += payload.len() as u64
                }
                _ => {}
            }
            let barrier = match classify(request) {
                RequestClass::Compliance => true,
                RequestClass::Mutating => {
                    matches!(request, Request::Delete { .. }) && config.delete_logs_on_erase
                }
                RequestClass::ReadOnly | RequestClass::Scan => false,
            };
            pass.barriers += u64::from(barrier);
        }
    }
    erase_until(&mut pass, &mut shards, usize::MAX);
    pass
}

// ---------------------------------------------------------------------
// Crypto micro-timings at the workload's sizes
// ---------------------------------------------------------------------

/// Repetitions of each timed crypto call.
const CRYPTO_REPS: usize = 20_000;

/// ns per byte of `AesCtr::apply` on one row, under the profile's tuple
/// key size; 0 when the profile does not encrypt tuples.
fn tuple_ns_per_byte(config: &EngineConfig, row_bytes: usize) -> f64 {
    let Some(size) = config.tuple_encryption else {
        return 0.0;
    };
    let key = vec![0x5a; size.key_len()];
    let ctr = AesCtr::from_key(size, &key).with_backend(config.crypto_backend);
    let mut row = vec![0u8; row_bytes];
    let t = Instant::now();
    for i in 0..CRYPTO_REPS {
        ctr.apply(
            AesCtr::iv_from_nonce(i as u64),
            std::hint::black_box(&mut row),
        );
    }
    t.elapsed().as_nanos() as f64 / (CRYPTO_REPS * row_bytes) as f64
}

/// ns per page of `SectorCipher::apply`; 0 without sector encryption.
fn sector_ns_per_page(config: &EngineConfig) -> f64 {
    let Some(passphrase) = config
        .heap
        .disk_passphrase
        .as_deref()
        .filter(|_| config.backend == datacase_engine::BackendKind::Heap)
    else {
        return 0.0;
    };
    let cipher = SectorCipher::from_passphrase(passphrase, KeySize::Aes256)
        .with_backend(config.crypto_backend);
    let mut page = vec![0u8; PAGE_SIZE];
    let reps = CRYPTO_REPS / 10;
    let t = Instant::now();
    for sector in 0..reps {
        cipher.apply(sector as u64, std::hint::black_box(&mut page));
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Run every pass and report the per-layer metrics.
pub fn run(workload: Workload, quick: bool, seed: u64) -> Report {
    let sizes = workload.sizes(quick);
    let streams = workload::streams(workload, &sizes, seed);
    let config = workload.config(&sizes);
    let mut report = Report::new(workload, seed);

    // Pass 1a: untraced wire, the baseline for the tracing overhead.
    let mut plain = served::trial(workload, &sizes, &streams, false);
    gate::check(
        workload,
        &sizes,
        quick,
        &streams,
        &mut plain.frontends,
        &mut plain.breaches,
    );
    plain.frontends.clear();

    // Pass 1b: traced wire; its engine also serves the end-of-run calls.
    let mut wire = served::trial(workload, &sizes, &streams, true);
    let times = gate::check(
        workload,
        &sizes,
        quick,
        &streams,
        &mut wire.frontends,
        &mut wire.breaches,
    );
    let (mut storage_bytes, mut personal_bytes, mut segments) = (0u64, 0u64, 0u64);
    for fe in &wire.frontends {
        let stats = fe.backend_stats();
        storage_bytes += stats.disk_bytes + stats.index_bytes + stats.log_bytes;
        segments += stats.segments as u64;
        personal_bytes += SpaceReport::measure(fe).personal_bytes;
    }
    let t = Instant::now();
    let swept: usize = wire
        .frontends
        .iter_mut()
        .map(|fe| sweep(fe, SweeperConfig::default()).erased.len())
        .sum();
    let sweep_ms = ms(t.elapsed());
    wire.frontends.clear();

    // Passes 2 and 3 replay exactly the batches the traced pass sent.
    let traffic = replayed_batches(&streams, &wire.consumed);
    let handle_ms = handle_pass(workload, &sizes, &streams, &traffic);
    let fp = frontend_pass(workload, &sizes, &streams, &traffic);

    let rtt = mean(&wire.batch_ms);
    let batches = wire.codec.batches as f64;
    let encode_ms = ratio(ms(wire.codec.encode), batches);
    let decode_ms = ratio(ms(wire.codec.decode), batches);
    let slowest = mean(&fp.wall_max);
    let ops = fp.ops as f64;
    let m = &fp.traffic;

    report.push(
        "wire.encode_us_per_batch",
        encode_ms * 1e3,
        "us",
        format!("{batches} batches"),
    );
    report.push("wire.decode_us_per_batch", decode_ms * 1e3, "us", "");
    report.push(
        "wire.bytes_per_op",
        ratio(wire.codec.bytes as f64, ops),
        "B",
        "",
    );
    report.push(
        "gateway.self_ms_per_batch",
        rtt - handle_ms,
        "ms",
        format!("round trip {rtt:.4} ms - handle {handle_ms:.4} ms"),
    );
    report.push(
        "gateway.refused_share",
        ratio(wire.refused as f64, wire.batches as f64),
        "share",
        "",
    );
    report.push("concurrent.wait_ms_per_batch", handle_ms, "ms", "");
    report.push(
        "concurrent.self_ms_per_batch",
        handle_ms - slowest,
        "ms",
        format!("slowest shard {slowest:.4} ms"),
    );
    report.push(
        "concurrent.shard_imbalance",
        mean(&fp.imbalance),
        "ratio",
        "slowest / mean shard",
    );
    report.push(
        "frontend.wall_ms_per_batch",
        mean(&fp.wall_sum),
        "ms",
        "summed over shards",
    );
    report.push(
        "frontend.sim_ms_per_batch",
        mean(&fp.sim_sum),
        "ms",
        "CostModel charge",
    );
    report.push(
        "frontend.wall_over_sim",
        ratio(fp.wall_sum.iter().sum(), fp.sim_sum.iter().sum()),
        "ratio",
        "",
    );
    report.push(
        "exec.barrier_share",
        ratio(fp.barriers as f64, ops),
        "share",
        "",
    );
    report.push(
        "policy.checks_per_op",
        ratio(m.policy_checks as f64, ops),
        "count",
        "",
    );
    report.push(
        "policy.denial_share",
        ratio(m.denials as f64, ops),
        "share",
        "",
    );
    let page_reads = (m.pages_read_cached + m.pages_read_disk) as f64;
    report.push(
        "storage.buffer_hit_ratio",
        ratio(m.pages_read_cached as f64, page_reads),
        "share",
        "",
    );
    report.push(
        "storage.disk_pages_read_per_op",
        ratio(m.pages_read_disk as f64, ops),
        "count",
        "",
    );
    report.push(
        "storage.pages_written_per_op",
        ratio(m.pages_written as f64, ops),
        "count",
        "",
    );
    report.push(
        "storage.dead_skipped_per_read",
        ratio(m.dead_tuples_skipped as f64, fp.reads as f64),
        "count",
        "",
    );
    report.push(
        "storage.index_probes_per_op",
        ratio(m.index_probes as f64, ops),
        "count",
        "",
    );
    report.push(
        "storage.wal_records_per_op",
        ratio(m.wal_records as f64, ops),
        "count",
        "",
    );
    report.push(
        "storage.compaction_bytes_per_user_byte",
        ratio(m.compaction_bytes as f64, fp.user_bytes as f64),
        "ratio",
        "",
    );
    report.push(
        "storage.space_amp",
        ratio(storage_bytes as f64, personal_bytes as f64),
        "ratio",
        "stored / personal bytes",
    );
    report.push(
        "crypto.bytes_per_op",
        ratio(m.crypto_bytes as f64, ops),
        "B",
        "",
    );
    report.push(
        "crypto.tuple_ns_per_byte",
        tuple_ns_per_byte(&config, sizes.row_bytes),
        "ns/B",
        "",
    );
    report.push(
        "crypto.sector_ns_per_page",
        sector_ns_per_page(&config),
        "ns",
        "",
    );
    report.push(
        "audit.records_per_op",
        ratio(m.log_records as f64, ops),
        "count",
        "",
    );
    report.push(
        "audit.bytes_per_op",
        ratio(m.log_bytes as f64, ops),
        "B",
        "",
    );
    report.push(
        "audit.verify_ms",
        ms(times.verify),
        "ms",
        format!("{} records", times.records),
    );
    report.push(
        "audit.verify_ns_per_record",
        ratio(times.verify.as_nanos() as f64, times.records as f64),
        "ns",
        "",
    );
    report.push(
        "erasure.frontend_ms",
        mean(&fp.erase_wall),
        "ms",
        format!("{} erasures", fp.erase_wall.len()),
    );
    report.push(
        "erasure.compaction_bytes_per_erase",
        ratio(fp.erase.compaction_bytes as f64, fp.erase_wall.len() as f64),
        "B",
        "",
    );
    report.push("sweeper.pass_ms", sweep_ms, "ms", "");
    report.push("sweeper.units_swept", swept as f64, "count", "");
    report.push("checker.report_ms", ms(times.report), "ms", "");
    report.push(
        "loadgen.late_ms_max",
        plain.late_ms_max.max(wire.late_ms_max),
        "ms",
        "",
    );
    report.push(
        "trace.overhead_share",
        1.0 - ratio(wire.kops(), plain.kops()),
        "share",
        "traced vs untraced throughput",
    );
    report.push(
        "trace.reconciled_share",
        ratio(encode_ms + decode_ms + slowest, rtt),
        "share",
        "directly timed spans / round trip",
    );
    report.push("failed_share", wire.tally.failed_share(), "share", "");

    for trial in [&plain, &wire] {
        report.attempted += trial.tally.attempted;
        report.failed += trial.tally.failed;
        report.breaches.extend(trial.breaches.iter().cloned());
    }
    report.counts = vec![
        ("storage_segments", segments),
        ("buffer_pages_per_shard", config.heap.buffer_pages as u64),
        ("traffic_requests", fp.ops),
        ("traffic_batches", wire.batches),
        ("erasures", fp.erase_wall.len() as u64),
        ("rtt_samples", wire.batch_ms.len() as u64),
    ];
    report
}
