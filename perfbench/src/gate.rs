//! The correctness gate run on the shard frontends after every trial.

use std::time::{Duration, Instant};

use datacase_core::regulation::Regulation;
use datacase_core::tenant::TenantId;
use datacase_engine::frontend::Frontend;

use crate::workload::{Sizes, Streams, Workload, SHARDS};

/// Erased keys whose payload must leave no physical residual.
pub const RESIDUAL_SAMPLE: usize = 100;

/// The tenant the gateway assigns to the benchmark's one tenant.
pub const BENCH_TENANT: TenantId = TenantId(1);

/// Shard that owns a tenant-local key.
pub fn shard_of_local(key: u64) -> usize {
    (global(key) % SHARDS as u64) as usize
}

/// The shared-keyspace key the gateway stores a tenant-local key under.
pub fn global(key: u64) -> u64 {
    BENCH_TENANT
        .global_key(key)
        .expect("benchmark keys fit the tenant block")
}

/// How long the gate's audit and checker calls took.
#[derive(Clone, Copy, Debug, Default)]
pub struct GateTimes {
    /// `verify_chain` over every shard.
    pub verify: Duration,
    /// Audit records verified.
    pub records: u64,
    /// `compliance_report` over every shard.
    pub report: Duration,
}

/// Check the frontends of a finished trial, appending any breach. The
/// sizing checks (table resident for `ycsb-b-hot`, table larger than the
/// buffer pool and the sector-keystream cache for `gbench-cold`) apply
/// at full size only.
pub fn check(
    workload: Workload,
    sizes: &Sizes,
    quick: bool,
    streams: &Streams,
    frontends: &mut [Frontend],
    breaches: &mut Vec<String>,
) -> GateTimes {
    let mut times = GateTimes::default();
    let regulation = Regulation::gdpr();
    for (shard, fe) in frontends.iter_mut().enumerate() {
        let t = Instant::now();
        let chain_ok = fe.forensic().verify_chain();
        times.verify += t.elapsed();
        times.records += fe.audit_records() as u64;
        if !chain_ok {
            breaches.push(format!("shard {shard}: audit chain does not verify"));
        }
        let t = Instant::now();
        let report = fe.compliance_report(&regulation);
        times.report += t.elapsed();
        if !report.is_compliant() {
            breaches.push(format!("shard {shard}: not compliant\n{}", report.render()));
        }
        let pages = fe.backend_stats().segments;
        let heap = &fe.config().heap;
        let sizing = match workload {
            Workload::YcsbBHot if pages > heap.buffer_pages => Some(format!("{pages} heap pages outgrew the {}-page buffer pool", heap.buffer_pages)),
            Workload::GbenchCold if pages < 10 * heap.buffer_pages || pages <= heap.sector_keystream_pages => Some(format!(
                "{pages} heap pages are not 10x the {}-page buffer pool and past the {}-page keystream cache",
                heap.buffer_pages, heap.sector_keystream_pages
            )),
            _ => None,
        };
        if let Some(breach) = sizing.filter(|_| !quick) {
            breaches.push(format!("shard {shard}: {breach}"));
        }
    }
    if workload == Workload::GdprErase {
        check_residuals(sizes, streams, frontends, breaches);
    }
    times
}

/// A seeded sample of erased keys must leave nothing behind: no
/// physical residual of the payload, no stored version of the key. A
/// key never erased must still be found, or the check proves nothing.
fn check_residuals(
    sizes: &Sizes,
    streams: &Streams,
    frontends: &mut [Frontend],
    breaches: &mut Vec<String>,
) {
    let sample = RESIDUAL_SAMPLE.min(sizes.erases);
    for (key, needle) in streams
        .erase_keys
        .iter()
        .zip(&streams.erase_needles)
        .take(sample)
    {
        let mut forensic = frontends[shard_of_local(*key)].forensic();
        let residuals = forensic.scan(needle).total();
        if residuals > 0 {
            breaches.push(format!("erased key {key}: {residuals} physical residuals"));
        }
        if forensic.raw_read(global(*key), true).is_some() {
            breaches.push(format!("erased key {key}: a stored version survives"));
        }
    }
    let (key, _) = &streams.control;
    if frontends[shard_of_local(*key)]
        .forensic()
        .raw_read(global(*key), true)
        .is_none()
    {
        breaches.push(format!(
            "control key {key} was never erased but reads back empty"
        ));
    }
}
