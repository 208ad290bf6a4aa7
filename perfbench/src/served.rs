//! One trial against the served engine: spawn the gateway, load, drive
//! the closed-loop connections and the open-loop erasure stream, shut
//! down, and hand the shard frontends to the correctness gate.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use datacase_engine::frontend::{Frontend, Reply, Request, Response};
use datacase_engine::Actor;
use datacase_server::{Server, TenantSpec, WireError};

use crate::outcome::{self, Outcome, Tally};
use crate::report;
use crate::wire::{CodecTrace, Conn};
use crate::workload::{self, Sizes, Streams, Workload, SHARDS, TENANT, TOKEN};

/// What one trial measured.
#[derive(Default)]
pub struct Trial {
    /// Spawn plus load.
    pub setup: Duration,
    /// Share of the host's CPU time the hypervisor stole from this
    /// machine while the trial ran (see [`report::cpu_ticks`]).
    pub steal_share: f64,
    /// Wall time of the closed-loop phase.
    pub phase: Duration,
    /// Closed-loop requests that got an answer (grounded ones included).
    pub completed: u64,
    /// Round trip of every closed-loop batch, in ms.
    pub batch_ms: Vec<f64>,
    /// Due time to reply of every erasure, in ms.
    pub erase_ms: Vec<f64>,
    /// How late the erasure generator sent its latest request, in ms.
    pub late_ms_max: f64,
    /// Attempted and failed requests, erasures included.
    pub tally: Tally,
    /// Batches the gateway refused as overloaded.
    pub refused: u64,
    /// Closed-loop batches sent.
    pub batches: u64,
    /// Codec timings (traced passes only).
    pub codec: CodecTrace,
    /// Closed-loop batches each connection sent.
    pub consumed: Vec<usize>,
    /// Reply-level correctness breaches.
    pub breaches: Vec<String>,
    /// The shard frontends after shutdown.
    pub frontends: Vec<Frontend>,
}

impl Trial {
    /// Closed-loop throughput in kops/s.
    pub fn kops(&self) -> f64 {
        self.completed as f64 / self.phase.as_secs_f64() / 1e3
    }
}

/// Checks one batch's replies against the requests that produced them.
pub fn check_replies(
    workload: Workload,
    sizes: &Sizes,
    requests: &[Request],
    responses: &[Response],
    breaches: &mut Vec<String>,
) {
    if responses.len() != requests.len() {
        breaches.push(format!(
            "{} replies to a batch of {}",
            responses.len(),
            requests.len()
        ));
        return;
    }
    for (i, (request, response)) in requests.iter().zip(responses).enumerate() {
        if response.index != i {
            breaches.push(format!("reply {i} carries index {}", response.index));
        }
        let expected = match (workload, request) {
            (_, Request::Erase { interpretation, .. }) => Some(Reply::Erased(*interpretation)),
            (Workload::YcsbBHot, Request::Read { .. }) => Some(Reply::Value(sizes.row_bytes)),
            (Workload::YcsbBHot, Request::Update { .. }) => Some(Reply::Done),
            (Workload::GbenchCold, Request::Read { .. }) => match &response.outcome {
                Ok(_) => Some(Reply::Value(sizes.row_bytes)),
                Err(_) => None,
            },
            _ => None,
        };
        if let Some(expected) = expected {
            if response.outcome != Ok(expected) && breaches.len() < 16 {
                breaches.push(format!(
                    "{} got {:?}, expected {expected:?}",
                    request.label(),
                    response.outcome
                ));
            }
        }
    }
}

fn spawn(workload: Workload, sizes: &Sizes) -> Server {
    Server::spawn(
        workload.config(sizes),
        SHARDS,
        &[TenantSpec::new(TENANT, TOKEN)],
    )
}

fn connect(addr: SocketAddr, actor: Actor) -> Conn {
    Conn::connect(addr, TENANT, TOKEN, actor).expect("handshake with the local gateway")
}

/// Load the streams' rows through a controller connection.
fn load(conn: &mut Conn, streams: &Streams, breaches: &mut Vec<String>) {
    for chunk in streams.load.chunks(workload::LOAD_BATCH) {
        match conn.call(chunk.to_vec(), None).1 {
            Ok(responses) => {
                if responses.len() != chunk.len()
                    || responses.iter().any(|r| r.outcome != Ok(Reply::Done))
                {
                    breaches.push("a load batch was not fully applied".into());
                }
            }
            Err(e) => breaches.push(format!("load batch failed: {e}")),
        }
    }
}

/// What one connection saw: its closed-loop batches or its erasures.
#[derive(Default)]
struct Run {
    /// Round trip of each batch (closed loop) or due time to reply of
    /// each erasure, in ms.
    ms: Vec<f64>,
    completed: u64,
    tally: Tally,
    refused: u64,
    consumed: usize,
    codec: CodecTrace,
    breaches: Vec<String>,
    end: Option<Instant>,
    late_ms_max: f64,
}

impl Run {
    /// Check and count the outcome of one batch.
    fn account(
        &mut self,
        workload: Workload,
        sizes: &Sizes,
        batch: &[Request],
        result: Result<Vec<Response>, WireError>,
    ) {
        self.consumed += 1;
        match result {
            Ok(responses) => {
                check_replies(workload, sizes, batch, &responses, &mut self.breaches);
                for response in &responses {
                    let o = outcome::of_reply(&response.outcome);
                    self.tally.add(o);
                    self.completed += u64::from(o != Outcome::Failed);
                }
                for _ in responses.len()..batch.len() {
                    self.tally.add(Outcome::Failed);
                }
            }
            Err(error) => {
                self.refused += u64::from(outcome::is_refusal(&error));
                // No replies at all: every request of the batch failed.
                for _ in batch {
                    self.tally.add(Outcome::Failed);
                }
            }
        }
    }
}

/// Drive one closed-loop connection through its batches.
fn closed_loop(
    workload: Workload,
    sizes: &Sizes,
    conn: &mut Conn,
    batches: impl Iterator<Item = Vec<Request>>,
    traced: bool,
) -> Run {
    let mut run = Run::default();
    for batch in batches {
        let t = Instant::now();
        let (batch, result) = conn.call(batch, traced.then_some(&mut run.codec));
        run.ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.account(workload, sizes, &batch, result);
    }
    run.end = Some(Instant::now());
    run
}

/// Send one single-request erasure per schedule slot. Open loop: each is
/// due at `start + i / rate` and timed from its due time. Closed loop: each
/// is due when the previous one is answered.
fn open_loop_erasures(
    workload: Workload,
    sizes: &Sizes,
    conn: &mut Conn,
    streams: &Streams,
) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    for (i, &key) in streams.erase_keys.iter().enumerate() {
        let due = match sizes.erase_rate {
            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
            None => Instant::now(),
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = Instant::now().saturating_duration_since(due);
        run.late_ms_max = run.late_ms_max.max(late.as_secs_f64() * 1e3);
        let (request, result) = conn.call(vec![streams.erase_request(key)], None);
        run.ms.push(due.elapsed().as_secs_f64() * 1e3);
        run.account(workload, sizes, &request, result);
    }
    run
}

/// Run one trial. `traced` times the wire codec calls.
pub fn trial(workload: Workload, sizes: &Sizes, streams: &Streams, traced: bool) -> Trial {
    let mut out = Trial::default();
    let ticks = report::cpu_ticks();
    let t0 = Instant::now();
    let server = spawn(workload, sizes);
    let addr = server.addr();
    let mut controller = Some(connect(addr, Actor::Controller));
    load(
        controller.as_mut().expect("just connected"),
        streams,
        &mut out.breaches,
    );
    let mut conns: Vec<Conn> = (0..streams.conns())
        .map(|_| connect(addr, workload::TRAFFIC_ACTOR))
        .collect();
    out.setup = t0.elapsed();

    let under_load = workload.erases_under_load();
    if !under_load {
        // The probe reopens a controller connection after the traffic;
        // the traffic connections are the only ones open meanwhile.
        controller.take().expect("loader connection").goodbye();
    }
    let barrier = Barrier::new(conns.len() + usize::from(under_load) + 1);
    let (runs, erase_run, start) = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    let batches = streams.batches(i);
                    barrier.wait();
                    closed_loop(workload, sizes, conn, batches, traced)
                })
            })
            .collect();
        let eraser = under_load.then(|| {
            let controller = controller.as_mut().expect("controller connection");
            scope.spawn(move || {
                barrier.wait();
                open_loop_erasures(workload, sizes, controller, streams)
            })
        });
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<Run> = handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client"))
            .collect();
        let erase_run = eraser.map(|h| h.join().expect("erasure generator"));
        (runs, erase_run, start)
    });
    let end = runs.iter().filter_map(|r| r.end).max().unwrap_or(start);
    out.phase = end.saturating_duration_since(start);
    for run in runs {
        out.batch_ms.extend(run.ms);
        out.completed += run.completed;
        out.tally.merge(run.tally);
        out.refused += run.refused;
        out.batches += run.consumed as u64;
        out.consumed.push(run.consumed);
        out.codec.merge(&run.codec);
        out.breaches.extend(run.breaches);
    }
    let erase_run = match erase_run {
        Some(run) => run,
        None => {
            // Erasure probe with the closed loop quiet: one traffic
            // connection makes way for the controller's.
            conns.pop().expect("a traffic connection").goodbye();
            let mut probe = connect(addr, Actor::Controller);
            let run = open_loop_erasures(workload, sizes, &mut probe, streams);
            probe.goodbye();
            run
        }
    };
    out.erase_ms = erase_run.ms;
    out.late_ms_max = erase_run.late_ms_max;
    out.tally.merge(erase_run.tally);
    out.breaches.extend(erase_run.breaches);
    for conn in conns.into_iter().chain(controller) {
        conn.goodbye();
    }
    out.frontends = server.shutdown();
    out.steal_share = report::steal_share(ticks, report::cpu_ticks());
    out
}
