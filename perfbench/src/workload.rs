//! The three workloads: engine configuration, sizes, and the seeded
//! request streams. The engine only ever sees the generated requests.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_engine::frontend::Request;
use datacase_engine::profiles::EngineConfig;
use datacase_engine::{Actor, BackendKind};
use datacase_sim::rng::{child_seed, SplitMix64};
use datacase_workloads::gdprbench::{GdprBench, Mix};
use datacase_workloads::record::MallGenerator;
use datacase_workloads::ycsb::{Ycsb, YcsbWorkload};

/// Engine shards behind the gateway (one per core of the reference
/// two-core host).
pub const SHARDS: usize = 2;
/// The one tenant every workload runs as.
pub const TENANT: &str = "bench";
/// Its handshake token.
pub const TOKEN: &str = "bench-token";
/// Requests per load batch.
pub const LOAD_BATCH: usize = 128;
/// Tenant-local key where the `gdpr-erase` erasure pool starts, far
/// above any key the GDPRBench generator hands out.
pub const ERASE_POOL_BASE: u64 = 1 << 30;
/// The actor the closed-loop connections run as: the records' own data
/// subjects. A processor's YCSB updates fall outside every active
/// policy, which the compliance checker flags (invariants IV and G6) on
/// P_Base and P_GBench.
pub const TRAFFIC_ACTOR: Actor = Actor::Subject;
/// Row size of the erasure pool (GDPRBench's 100-byte rows).
pub const GDPR_ROW: usize = 100;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// P_Base on the heap, YCSB-B over a table that stays resident.
    YcsbBHot,
    /// P_SYS on the LSM, GDPRBench subject traffic plus an open-loop
    /// stream of permanent erasures.
    GdprErase,
    /// P_GBench on the heap, YCSB-A over a table ten times the buffer
    /// pool.
    GbenchCold,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [
    Workload::YcsbBHot,
    Workload::GdprErase,
    Workload::GbenchCold,
];

/// How big one trial of a workload is.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Rows loaded before the transaction phase.
    pub rows: u64,
    /// Payload bytes per row.
    pub row_bytes: usize,
    /// Requests per closed-loop batch.
    pub batch: usize,
    /// Closed-loop requests per connection per trial.
    pub ops_per_conn: usize,
    /// Closed-loop connections.
    pub conns: usize,
    /// Erasures per trial.
    pub erases: usize,
    /// Erasures due per second (open loop), or `None` for a closed-loop
    /// probe that sends each erasure when the previous one is answered.
    pub erase_rate: Option<f64>,
    /// Heap buffer-pool pages per shard (`None`: the profile default).
    pub buffer_pages: Option<usize>,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbBHot => "ycsb-b-hot",
            Workload::GdprErase => "gdpr-erase",
            Workload::GbenchCold => "gbench-cold",
        }
    }

    /// Full-size trial dimensions, or the small ones the smoke tests use.
    pub fn sizes(self, quick: bool) -> Sizes {
        match (self, quick) {
            (Workload::YcsbBHot, false) => Sizes {
                rows: 10_000,
                row_bytes: 1024,
                batch: 128,
                ops_per_conn: 20_000,
                conns: 2,
                erases: 1_000,
                erase_rate: None,
                buffer_pages: Some(2_048),
            },
            (Workload::GdprErase, false) => Sizes {
                rows: 5_000,
                row_bytes: GDPR_ROW,
                batch: 128,
                ops_per_conn: 320_000,
                conns: 1,
                erases: 340,
                erase_rate: Some(125.0),
                buffer_pages: None,
            },
            (Workload::GbenchCold, false) => Sizes {
                rows: 60_000,
                row_bytes: 1024,
                batch: 32,
                ops_per_conn: 10_000,
                conns: 2,
                erases: 1_000,
                erase_rate: None,
                buffer_pages: None,
            },
            (w, true) => Sizes {
                rows: 600,
                ops_per_conn: 512,
                erases: 120,
                erase_rate: w.sizes(false).erase_rate.map(|_| 400.0),
                buffer_pages: w.sizes(false).buffer_pages.map(|_| 256),
                ..w.sizes(false)
            },
        }
    }

    /// The engine configuration: a profile constructor, a backend, and
    /// deployment sizing only — no opt-in knob.
    pub fn config(self, sizes: &Sizes) -> EngineConfig {
        let mut config = match self {
            Workload::YcsbBHot => EngineConfig::p_base().with_backend(BackendKind::Heap),
            Workload::GdprErase => EngineConfig::p_sys().with_backend(BackendKind::Lsm),
            Workload::GbenchCold => EngineConfig::p_gbench().with_backend(BackendKind::Heap),
        };
        if let Some(pages) = sizes.buffer_pages {
            config.heap.buffer_pages = pages;
        }
        config
    }

    /// Is the erasure stream concurrent with the closed-loop traffic
    /// (`gdpr-erase`), or a probe run after it (the other two)?
    pub fn erases_under_load(self) -> bool {
        self == Workload::GdprErase
    }
}

/// Everything one run sends, generated from the seed and replayed
/// identically by every trial and every traced pass.
#[derive(Clone, Debug)]
pub struct Streams {
    /// The load phase, sent by the controller before timing starts.
    pub load: Vec<Request>,
    traffic: Traffic,
    /// Tenant-local keys of the open-loop erasures, in due order.
    pub erase_keys: Vec<u64>,
    /// The payload each erased key was loaded with (forensic needles).
    pub erase_needles: Vec<Vec<u8>>,
    /// A loaded key the erasure stream never touches, with its payload:
    /// the forensic check's positive control.
    pub control: (u64, Vec<u8>),
    /// The erasure grounding the stream requests.
    pub interpretation: ErasureInterpretation,
}

/// Where the closed-loop batches come from.
#[derive(Clone, Debug)]
enum Traffic {
    /// A fixed number of batches per connection, generated up front.
    Fixed(Vec<Vec<Vec<Request>>>),
    /// A GDPRBench stream for one connection, generated as it is
    /// consumed: it is long, and its rows are small next to the cost of
    /// holding them all.
    Gdpr {
        seed: u64,
        rows: usize,
        batch: usize,
        batches: usize,
    },
}

impl Streams {
    /// Closed-loop connections.
    pub fn conns(&self) -> usize {
        match &self.traffic {
            Traffic::Fixed(conns) => conns.len(),
            Traffic::Gdpr { .. } => 1,
        }
    }

    /// The batches of closed-loop connection `conn`, in order.
    pub fn batches(&self, conn: usize) -> Box<dyn Iterator<Item = Vec<Request>> + Send + '_> {
        match &self.traffic {
            Traffic::Fixed(conns) => Box::new(conns[conn].iter().cloned()),
            &Traffic::Gdpr {
                seed,
                rows,
                batch,
                batches,
            } => {
                let mut bench = gdpr_bench(seed);
                bench.load_phase(rows);
                Box::new(
                    std::iter::repeat_with(move || {
                        bench
                            .ops(batch, balanced_customer_mix())
                            .into_iter()
                            .map(Request::from)
                            .collect()
                    })
                    .take(batches),
                )
            }
        }
    }

    /// The single erasure request the open-loop stream sends for `key`.
    pub fn erase_request(&self, key: u64) -> Request {
        Request::Erase {
            key,
            interpretation: self.interpretation,
        }
    }
}

/// Generate a run's streams from its seed.
pub fn streams(workload: Workload, sizes: &Sizes, seed: u64) -> Streams {
    match workload {
        Workload::YcsbBHot => ycsb_streams(sizes, seed, YcsbWorkload::B),
        Workload::GbenchCold => ycsb_streams(sizes, seed, YcsbWorkload::A),
        Workload::GdprErase => gdpr_streams(sizes, seed),
    }
}

fn batches(ops: Vec<Request>, batch: usize) -> Vec<Vec<Request>> {
    ops.chunks(batch).map(<[Request]>::to_vec).collect()
}

/// `n` distinct values below `bound`, in a seeded order.
fn distinct_sample(seed: u64, bound: u64, n: usize) -> Vec<u64> {
    assert!(n as u64 <= bound, "sample larger than its population");
    let mut rng = SplitMix64::new(seed);
    let mut all: Vec<u64> = (0..bound).collect();
    for i in 0..n {
        let j = i + rng.next_below(bound - i as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

fn ycsb_streams(sizes: &Sizes, seed: u64, mix: YcsbWorkload) -> Streams {
    let mut ycsb =
        Ycsb::new(child_seed(seed, "ycsb"), sizes.rows).with_payload_size(sizes.row_bytes);
    let load: Vec<Request> = ycsb.load_phase().into_iter().map(Request::from).collect();
    let traffic = (0..sizes.conns)
        .map(|_| {
            let ops = ycsb.ops(sizes.ops_per_conn, mix);
            batches(ops.into_iter().map(Request::from).collect(), sizes.batch)
        })
        .collect();
    // The erasure probe runs after the traffic, over loaded keys.
    let mut picked = distinct_sample(child_seed(seed, "erase"), sizes.rows, sizes.erases + 1);
    let control_key = picked.pop().expect("control key");
    let payload_of = |key: u64| match &load[key as usize] {
        Request::Create { payload, .. } => payload.clone(),
        other => unreachable!("load phase holds creates only, got {other:?}"),
    };
    Streams {
        erase_needles: picked.iter().map(|&k| payload_of(k)).collect(),
        control: (control_key, payload_of(control_key)),
        erase_keys: picked,
        interpretation: ErasureInterpretation::Deleted,
        load,
        traffic: Traffic::Fixed(traffic),
    }
}

/// Subject traffic whose creates balance its deletes, so the live set
/// keeps its size (stock WCus only deletes and empties the table).
pub fn balanced_customer_mix() -> Mix {
    Mix {
        create: 10,
        read_data: 30,
        update_data: 20,
        delete_data: 10,
        read_meta: 20,
        update_meta: 10,
        read_by_meta: 0,
    }
}

fn gdpr_bench(seed: u64) -> GdprBench {
    GdprBench::new(child_seed(seed, "gdprbench"), 1000)
}

/// A unique, fixed-width payload for erasure-pool row `i`.
fn pool_payload(seed: u64, i: usize) -> Vec<u8> {
    let mut payload = format!("ERASE-TARGET-{seed:016x}-{i:08}-").into_bytes();
    payload.resize(GDPR_ROW, b'#');
    payload
}

fn gdpr_streams(sizes: &Sizes, seed: u64) -> Streams {
    assert_eq!(
        sizes.conns, 1,
        "one subject connection next to the erasure stream"
    );
    let mut load: Vec<Request> = gdpr_bench(seed)
        .load_phase(sizes.rows as usize)
        .into_iter()
        .map(Request::from)
        .collect();
    // The erasure pool: rows of their own that the subject traffic never
    // addresses, so every erasure finds its target live.
    let pool = sizes.erases + 1;
    let mut mall = MallGenerator::new(child_seed(seed, "erase-pool"), 1000, 64);
    for i in 0..pool {
        let (_, metadata, _) = mall.record();
        load.push(Request::Create {
            key: ERASE_POOL_BASE + i as u64,
            payload: pool_payload(seed, i),
            metadata,
        });
    }
    let mut order = distinct_sample(child_seed(seed, "erase"), pool as u64, pool);
    let control = order.pop().expect("control key") as usize;
    Streams {
        erase_keys: order.iter().map(|&i| ERASE_POOL_BASE + i).collect(),
        erase_needles: order
            .iter()
            .map(|&i| pool_payload(seed, i as usize))
            .collect(),
        control: (
            ERASE_POOL_BASE + control as u64,
            pool_payload(seed, control),
        ),
        interpretation: ErasureInterpretation::PermanentlyDeleted,
        load,
        traffic: Traffic::Gdpr {
            seed,
            rows: sizes.rows as usize,
            batch: sizes.batch,
            batches: sizes.ops_per_conn.div_ceil(sizes.batch),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn streams_are_seeded() {
        for w in ALL {
            let sizes = w.sizes(true);
            let a = streams(w, &sizes, 7);
            let b = streams(w, &sizes, 7);
            let c = streams(w, &sizes, 8);
            assert!(a.batches(0).take(5).eq(b.batches(0).take(5)));
            assert_eq!(a.erase_keys, b.erase_keys);
            assert!(!a.batches(0).take(5).eq(c.batches(0).take(5)));
        }
    }

    #[test]
    fn erasure_targets_are_distinct_loaded_keys() {
        for w in ALL {
            let sizes = w.sizes(true);
            let s = streams(w, &sizes, 3);
            let loaded: std::collections::HashSet<u64> =
                s.load.iter().filter_map(Request::key).collect();
            let targets: std::collections::HashSet<u64> = s.erase_keys.iter().copied().collect();
            assert_eq!(targets.len(), sizes.erases);
            assert!(targets.iter().all(|k| loaded.contains(k)));
            assert!(loaded.contains(&s.control.0) && !targets.contains(&s.control.0));
        }
    }

    #[test]
    fn configs_set_no_opt_in_knob() {
        for w in ALL {
            let sizes = w.sizes(false);
            let c = w.config(&sizes);
            assert!(c.pipeline, "{}: default pipeline", w.name());
            assert_eq!(c.decision_cache, 0);
            assert_eq!(c.keystream_cache, 0);
            assert_eq!(c.crypto_backend, datacase_crypto::CryptoBackend::Auto);
        }
    }
}
