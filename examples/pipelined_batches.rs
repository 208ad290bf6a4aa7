//! Pipelined batch execution with the versioned policy-decision cache.
//!
//! A processor hammers a hot working set through large batches — exactly
//! the "heavy traffic" regime where compliance checking must not become
//! the bottleneck. The engine answers with its staged pipeline:
//!
//! * the **decide** stage resolves repeated policy checks from an
//!   epoch-versioned cache (allows *and* denials), invalidated by epoch
//!   comparison the instant any grant/revoke/erasure lands;
//! * the **apply** stage runs each span's deferred per-tuple AES work in
//!   one pass, on the calling thread;
//! * the **account** stage commits audit records in batch order, so the
//!   tamper-evidence chain is byte-identical to serial execution.
//!
//! Run with `cargo run --example pipelined_batches`.

use std::time::Instant;

use data_case::engine::driver::RunStats;
use data_case::prelude::*;
use data_case::workloads::ycsb::{Ycsb, YcsbWorkload};

fn run(pipeline: bool, cache: usize) -> (RunStats, [u8; 32], u64) {
    let config = EngineConfig::p_base()
        .with_pipeline(pipeline)
        .with_decision_cache(cache);
    let mut fe = Frontend::new(config);
    let mut y = Ycsb::new(11, 5_000);
    data_case::engine::driver::run_ops_batched(&mut fe, &y.load_phase(), Actor::Controller, 256);
    let ops = y.ops(10_000, YcsbWorkload::B);
    let stats = data_case::engine::driver::run_ops_batched(&mut fe, &ops, Actor::Processor, 256);
    let checks = fe.meter().snapshot().policy_checks;
    (stats, fe.forensic().chain_head(), checks)
}

fn main() {
    println!("== Pipelined batches vs serial submit (YCSB-B, P_Base) ==\n");
    // Same configuration, only the execution mode differs: the pipeline's
    // contract is that everything observable — simulated completion and
    // the audit chain's bytes — is identical, and only wall-clock moves.
    let wall = Instant::now();
    let (serial, serial_chain, _) = run(false, 4096);
    let serial_wall = wall.elapsed();
    let wall = Instant::now();
    let (piped, piped_chain, _) = run(true, 4096);
    let piped_wall = wall.elapsed();
    println!(
        "serial submit:    {:>8.1} ms wall",
        serial_wall.as_secs_f64() * 1e3,
    );
    println!(
        "pipelined submit: {:>8.1} ms wall",
        piped_wall.as_secs_f64() * 1e3,
    );
    assert_eq!(serial.simulated, piped.simulated);
    assert_eq!(serial_chain, piped_chain);
    println!(
        "simulated completion identical: true ({:.3} sim s)",
        piped.simulated.as_secs_f64(),
    );
    println!("audit chains byte-identical:    true");

    // The versioned decision cache amortizes enforcement across the hot
    // set — independently of the pipeline, and off by default so the
    // paper's measured costs stay faithful.
    let (_, _, uncached_checks) = run(true, 0);
    let (_, _, cached_checks) = run(true, 4096);
    println!(
        "\npolicy checks over 10k requests: {uncached_checks} uncached -> {cached_checks} with the epoch cache",
    );

    // The cache is *versioned*, not a TTL: revoke in one session and the
    // next read — any session — re-evaluates at the new epoch.
    let mut fe = Frontend::new(EngineConfig::p_sys().with_decision_cache(1024));
    let mut y = Ycsb::new(3, 100);
    data_case::engine::driver::run_ops_batched(&mut fe, &y.load_phase(), Actor::Controller, 64);
    let processor = Session::new(Actor::Processor);
    let before = fe.policy_epoch();
    assert!(fe
        .run(&processor, Request::Read { key: 42 })
        .value()
        .is_some());
    let subject = Session::new(Actor::Subject);
    fe.run(
        &subject,
        Request::Erase {
            key: 42,
            interpretation: ErasureInterpretation::Deleted,
        },
    );
    let r = fe.run(&processor, Request::Read { key: 42 });
    println!(
        "\nepoch {before} -> {} after erasure; processor's cached allow now: {:?}",
        fe.policy_epoch(),
        r.outcome.err().map(|e| e.to_string()).unwrap_or_default(),
    );
}
