//! Staged batch execution: the engine's pipeline behind
//! [`Frontend::submit`](crate::frontend::Frontend::submit).
//!
//! A submitted batch flows through four explicit stages:
//!
//! 1. **Plan** — requests are classified ([`classify`]) and grouped into
//!    *spans* separated by *barriers*. A barrier is a request that may
//!    mutate the audit store itself (the compliance verbs, and workload
//!    deletes on profiles that redact logs on erasure); everything else —
//!    reads **and** benign mutations — shares a span. Mutations always
//!    execute serially in submission order, so per-unit order is exactly
//!    the batch order.
//! 2. **Decide** — policy checks run against the epoch-versioned decision
//!    cache (`DecisionCache`): outcomes (allows **and** denials) are
//!    stamped with the [`PolicyEpoch`] they were computed at plus the
//!    policy-window horizon they hold until, and revalidated by
//!    comparison against the enforcer's current epoch — fine-grained,
//!    structural invalidation instead of a TTL or a wholesale flush.
//! 3. **Apply** — the span's deferred payload work (AES decryption of
//!    every read tuple) runs once the span's serial pass is done.
//!    Everything that charges the simulated clock or assigns audit
//!    sequence numbers ran in the serial pass, so the cost stream — and
//!    with it every audit-record timestamp — is identical to sequential
//!    execution.
//! 4. **Account** — the span's audit records, queued in sequence order
//!    during the serial pass, are committed to the log store in that
//!    order (decrypted payloads patched in first), so the
//!    tamper-evidence chain is byte-identical to a sequential run's.
//!
//! Every stage runs on the calling thread: a shard's engine spawns no
//! threads, and parallelism comes from running shards side by side
//! (see [`crate::concurrent`]).
//!
//! The `prop_frontend` parity suite holds both modes — pipeline on and
//! off — to the same replies, meter counters, forensic residuals, and
//! audit-chain head, which is what makes the pipeline a safe default.

use std::borrow::Borrow;
use std::collections::HashMap;

use datacase_core::action::ActionKind;
use datacase_core::ids::EntityId;
use datacase_core::purpose::PurposeId;
use datacase_crypto::ctr::AesCtr;
use datacase_policy::enforcer::{PolicyEpoch, UnitClass, VersionedEnforcer};
use datacase_sim::fault::CrashPoint;
use datacase_sim::time::Ts;

use crate::db::CompliantDb;
use crate::error::EngineError;
use crate::frontend::{AuditRef, Request, Response, Session};
use crate::profiles::EngineConfig;

// ---------------------------------------------------------------------
// Plan stage
// ---------------------------------------------------------------------

/// How the plan stage sees a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// A point read (`Read`, `ReadMeta`): its payload work (decryption)
    /// is deferred to the span's apply stage.
    ReadOnly,
    /// A scan-shaped read (`ReadByMeta`): read-only, executed serially
    /// within its span (it touches many units under one audit record).
    Scan,
    /// A workload mutation (`Create`, `Update`, `Delete`, `UpdateMeta`):
    /// executed serially in submission order within its span.
    Mutating,
    /// The compliance path (`Erase`, `Restore`): always a barrier — an
    /// erasure may redact already-written audit records, so every
    /// deferred record must be committed before it runs.
    Compliance,
}

/// Classify a request for the plan stage.
pub fn classify(request: &Request) -> RequestClass {
    match request {
        Request::Read { .. } | Request::ReadMeta { .. } => RequestClass::ReadOnly,
        Request::ReadByMeta { .. } => RequestClass::Scan,
        Request::Create { .. }
        | Request::Update { .. }
        | Request::Delete { .. }
        | Request::UpdateMeta { .. } => RequestClass::Mutating,
        Request::Erase { .. } | Request::Restore { .. } => RequestClass::Compliance,
    }
}

/// Does `request` require committing all deferred audit records before it
/// executes? True for anything that may redact the audit store: the
/// compliance verbs always (permanent erasure redacts the unit's log
/// records), and workload deletes on profiles that redact logs on every
/// erase (P_SYS).
fn flush_barrier(request: &Request, config: &EngineConfig) -> bool {
    match classify(request) {
        RequestClass::Compliance => true,
        RequestClass::Mutating => {
            matches!(request, Request::Delete { .. }) && config.delete_logs_on_erase
        }
        RequestClass::ReadOnly | RequestClass::Scan => false,
    }
}

/// One planned segment of a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Segment {
    /// Requests `[start, end)` executed in one deferred span: reads queue
    /// decryption jobs, everything runs in submission order, and the
    /// span's audit records commit together at the next flush.
    Span(std::ops::Range<usize>),
    /// A request that must see a fully-committed audit store: the
    /// preceding span is flushed first.
    Barrier(usize),
}

/// Group a batch into spans and barriers.
pub(crate) fn plan<'r>(
    requests: impl Iterator<Item = &'r Request>,
    config: &EngineConfig,
) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut span_start: Option<usize> = None;
    let mut n = 0;
    let flush = |segments: &mut Vec<Segment>, start: Option<usize>, end: usize| {
        if let Some(start) = start {
            segments.push(Segment::Span(start..end));
        }
    };
    for (i, request) in requests.enumerate() {
        n = i + 1;
        if flush_barrier(request, config) {
            flush(&mut segments, span_start.take(), i);
            segments.push(Segment::Barrier(i));
        } else {
            span_start.get_or_insert(i);
        }
    }
    flush(&mut segments, span_start.take(), n);
    segments
}

// ---------------------------------------------------------------------
// Decide stage: the epoch-versioned decision cache
// ---------------------------------------------------------------------

/// A decision-cache key: the unit's equivalence class under the active
/// enforcement mechanism, plus the (actor entity, purpose, action) triple.
pub(crate) type CacheKey = (UnitClass, EntityId, PurposeId, ActionKind);

/// One cached, epoch-stamped policy decision.
#[derive(Clone, Debug)]
pub(crate) struct CachedDecision {
    /// Epoch the decision was computed at.
    pub epoch: PolicyEpoch,
    /// The decision holds through this instant (policy-window horizon).
    pub until: Ts,
    /// `None` = allow; `Some(reason)` = deny (denials are cached too —
    /// the re-logged DENIED audit record is cheap, the policy evaluation
    /// is not).
    pub deny_reason: Option<String>,
}

/// The versioned policy-decision cache: entries are validated by epoch
/// comparison against the [`VersionedEnforcer`], never expired by TTL and
/// never flushed wholesale. A policy mutation bumps the epoch for the
/// touched unit class, which strands exactly the entries it invalidated.
pub(crate) struct DecisionCache {
    capacity: usize,
    entries: HashMap<CacheKey, CachedDecision>,
}

impl DecisionCache {
    /// A cache holding at most `capacity` decisions (0 = disabled).
    pub fn new(capacity: usize) -> DecisionCache {
        DecisionCache {
            capacity,
            entries: HashMap::new(),
        }
    }

    /// Is caching enabled?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Live entries (stale ones linger until evicted or overwritten).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A still-valid cached decision for `key`, if any: the stamp must be
    /// current for the key's unit class and the clock must not have
    /// passed the decision's policy-window horizon.
    pub fn lookup(
        &self,
        key: &CacheKey,
        enforcer: &VersionedEnforcer,
        now: Ts,
    ) -> Option<&CachedDecision> {
        let cached = self.entries.get(key)?;
        (enforcer.is_current(key.0, cached.epoch) && now <= cached.until).then_some(cached)
    }

    /// Insert (or refresh) a decision. At capacity, stale entries are
    /// dropped first; if every entry is still valid the cache resets —
    /// a deterministic, bounded-memory relief valve that two runs of the
    /// same request stream hit identically.
    pub fn insert(
        &mut self,
        key: CacheKey,
        decision: CachedDecision,
        enforcer: &VersionedEnforcer,
        now: Ts,
    ) {
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.entries
                .retain(|k, v| enforcer.is_current(k.0, v.epoch) && now <= v.until);
            if self.entries.len() >= self.capacity {
                self.entries.clear();
            }
        }
        self.entries.insert(key, decision);
    }
}

// ---------------------------------------------------------------------
// Apply stage: deferred payload work
// ---------------------------------------------------------------------

/// A point read's payload decryption, deferred out of the serial pass:
/// it turns stored tuple bytes into a queued audit record's payload. All
/// simulated costs were charged when the job was created; running it is
/// pure host CPU.
pub(crate) struct CipherJob {
    /// Index of the record this job's output belongs to, within the
    /// engine's deferred-record queue.
    pub slot: usize,
    /// The vault's expanded cipher schedule — never re-expanded per job.
    pub cipher: std::sync::Arc<AesCtr>,
    /// The payload's IV.
    pub iv: [u8; 16],
    /// Stored ciphertext in, plaintext out.
    pub data: Vec<u8>,
}

impl CipherJob {
    /// Perform the AES work in place (charges were paid at staging).
    pub(crate) fn run(&mut self) {
        self.cipher.apply(self.iv, &mut self.data);
    }
}

/// A staged point read: the typed outcome plus the audit record and
/// payload work still owed to the account/apply stages.
pub(crate) struct StagedRead {
    /// The request's outcome (complete — payload lengths are known
    /// without decrypting; AES-CTR preserves length).
    pub outcome: Result<crate::frontend::Reply, EngineError>,
    /// The audit record to route into the log, already charged and
    /// sequenced. Its payload is empty when `job` is set — the decrypted
    /// bytes fill it in before the record reaches the store.
    pub pending: Option<datacase_audit::record::LogRecord>,
    /// Deferred decryption feeding `pending`'s payload.
    pub job: Option<CipherJob>,
}

impl StagedRead {
    /// A read that failed before producing audit records or work.
    pub fn fail(error: EngineError) -> StagedRead {
        StagedRead {
            outcome: Err(error),
            pending: None,
            job: None,
        }
    }
}

/// Apply + account: run the span's decrypt jobs on this thread, patch
/// their plaintexts into the deferred audit records, and commit the queue
/// to the log store in sequence order.
fn flush_span(db: &mut CompliantDb, jobs: &mut Vec<CipherJob>) {
    db.config().fault.hit(CrashPoint::Apply);
    for mut job in jobs.drain(..) {
        job.run();
        db.fill_deferred(job.slot, job.data);
    }
    db.config().fault.hit(CrashPoint::Account);
    db.commit_deferred();
}

// ---------------------------------------------------------------------
// The pipeline driver
// ---------------------------------------------------------------------

/// Execute a batch under `session`, returning one [`Response`] per
/// request in submission order. Routes through the staged pipeline when
/// [`EngineConfig::pipeline`] is set, and through the plain sequential
/// loop otherwise; both paths share every cost-charging code line, so
/// their observable behaviour is identical.
pub(crate) fn execute<T: Borrow<Request>>(
    db: &mut CompliantDb,
    session: &Session,
    requests: &[T],
) -> Vec<Response> {
    db.config().fault.hit(CrashPoint::Plan);
    let mut responses = Vec::with_capacity(requests.len());
    if !db.config().pipeline {
        for (i, request) in requests.iter().enumerate() {
            responses.push(run_one(db, session, request.borrow(), i, None));
        }
        return responses;
    }
    let segments = plan(requests.iter().map(Borrow::borrow), db.config());
    let mut jobs: Vec<CipherJob> = Vec::new();
    db.set_deferred(true);
    for segment in segments {
        match segment {
            Segment::Span(range) => {
                for i in range {
                    responses.push(run_one(
                        db,
                        session,
                        requests[i].borrow(),
                        i,
                        Some(&mut jobs),
                    ));
                }
            }
            Segment::Barrier(i) => {
                // The barrier may redact the audit store: commit every
                // deferred record first, exactly as sequential execution
                // would have by this point.
                flush_span(db, &mut jobs);
                responses.push(run_one(db, session, requests[i].borrow(), i, None));
            }
        }
    }
    flush_span(db, &mut jobs);
    db.set_deferred(false);
    responses
}

/// Execute a queued burst of submissions — possibly from different
/// sessions — through **one** staged pipeline, overlapping plan/decide/
/// apply across submission boundaries: a read wave at the tail of one
/// submission and the head of the next flush as a single span, so a
/// queue burst pays one flush where per-call execution pays several.
///
/// The contract is the same as [`execute`]'s, extended across the burst:
/// the account pass stays serial in global submission order, records are
/// charged and sequenced exactly when sequential execution would have
/// charged them, and each [`Response`] carries its index *within its own
/// submission* — so replies, meter counters, forensic residuals and the
/// audit chain's bytes are all indistinguishable from executing the
/// submissions one at a time (the multi-session parity gate holds a
/// concurrent engine to precisely this).
///
/// Before each submission's first decide the engine-wide [`EpochBus`] is
/// observed, so a revoke published by any shard strands stale cached
/// global allows here no later than the submission boundary.
///
/// [`EpochBus`]: datacase_policy::enforcer::EpochBus
pub(crate) fn execute_many(
    db: &mut CompliantDb,
    submissions: &[(Session, Vec<Request>)],
) -> Vec<Vec<Response>> {
    if !db.config().pipeline {
        return submissions
            .iter()
            .map(|(session, requests)| {
                db.sync_epoch_bus();
                execute(db, session, requests)
            })
            .collect();
    }
    db.config().fault.hit(CrashPoint::Plan);
    // Flatten the burst while remembering each request's origin: plan()
    // sees one stream (spans may straddle submission boundaries), but
    // sessions and reply indices stay per-submission.
    let mut origin: Vec<(usize, usize)> = Vec::new();
    let mut flat: Vec<&Request> = Vec::new();
    for (s, (_, requests)) in submissions.iter().enumerate() {
        for (i, request) in requests.iter().enumerate() {
            origin.push((s, i));
            flat.push(request);
        }
    }
    let segments = plan(flat.iter().copied(), db.config());
    let mut out: Vec<Vec<Response>> = submissions
        .iter()
        .map(|(_, requests)| Vec::with_capacity(requests.len()))
        .collect();
    let mut jobs: Vec<CipherJob> = Vec::new();
    let mut current = usize::MAX;
    let mut sync_boundary = |db: &mut CompliantDb, s: usize| {
        if s != current {
            current = s;
            db.sync_epoch_bus();
        }
    };
    db.set_deferred(true);
    for segment in segments {
        match segment {
            Segment::Span(range) => {
                for g in range {
                    let (s, i) = origin[g];
                    sync_boundary(db, s);
                    let response = run_one(db, &submissions[s].0, flat[g], i, Some(&mut jobs));
                    out[s].push(response);
                }
            }
            Segment::Barrier(g) => {
                // The barrier may redact the audit store: commit every
                // deferred record first, exactly as per-call execution
                // would have by this point.
                flush_span(db, &mut jobs);
                let (s, i) = origin[g];
                sync_boundary(db, s);
                out[s].push(run_one(db, &submissions[s].0, flat[g], i, None));
            }
        }
    }
    flush_span(db, &mut jobs);
    db.set_deferred(false);
    out
}

/// Admission control: a session past its deadline is denied without
/// touching enforcement — checked per request, so a deadline crossing
/// mid-batch behaves exactly like it would across single-request
/// submissions.
fn admitted(db: &CompliantDb, session: &Session) -> bool {
    session
        .deadline()
        .map(|d| db.clock().now() <= d)
        .unwrap_or(true)
}

/// Key-scope admission: a scoped session may only address keys inside
/// its block. Like the deadline gate, denial happens before enforcement
/// and writes no audit records — the request never names a record the
/// session could legitimately see. Scans carry no key and are admitted;
/// their candidate set is filtered to the scope inside the engine.
fn in_scope(session: &Session, request: &Request) -> bool {
    match (session.scope(), request.key()) {
        (Some(scope), Some(key)) => scope.contains(key),
        _ => true,
    }
}

/// Execute one request in submission order. With `jobs` present (a
/// pipelined span), point reads defer their decryption into the job
/// queue; everything else runs to completion here either way.
fn run_one(
    db: &mut CompliantDb,
    session: &Session,
    request: &Request,
    index: usize,
    jobs: Option<&mut Vec<CipherJob>>,
) -> Response {
    db.config().fault.hit(CrashPoint::Decide);
    let seq_before = db.log_seq();
    let outcome = if !in_scope(session, request) {
        Err(EngineError::Denied {
            reason: "key outside session scope".into(),
        })
    } else if admitted(db, session) {
        match (jobs, classify(request)) {
            (Some(jobs), RequestClass::ReadOnly) => {
                db.tick_cadence();
                let (outcome, job) = match request {
                    Request::Read { key } => {
                        db.read_deferred(*key, session.actor(), session.purpose())
                    }
                    Request::ReadMeta { key } => {
                        db.read_meta_deferred(*key, session.actor(), session.purpose())
                    }
                    _ => unreachable!("ReadOnly covers exactly Read and ReadMeta"),
                };
                jobs.extend(job);
                outcome
            }
            _ => db.apply(request, session.actor(), session.purpose(), session.scope()),
        }
    } else {
        Err(EngineError::Denied {
            reason: "session deadline passed".into(),
        })
    };
    let seq_after = db.log_seq();
    Response {
        index,
        outcome,
        audit: AuditRef {
            start: seq_before + 1,
            records: seq_after - seq_before,
            at: db.clock().now(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ProfileKind;

    fn read(key: u64) -> Request {
        Request::Read { key }
    }

    #[test]
    fn classify_covers_the_vocabulary() {
        use datacase_core::grounding::erasure::ErasureInterpretation;
        assert_eq!(classify(&read(1)), RequestClass::ReadOnly);
        assert_eq!(
            classify(&Request::ReadMeta { key: 1 }),
            RequestClass::ReadOnly
        );
        assert_eq!(
            classify(&Request::ReadByMeta {
                selector: datacase_workloads::opstream::MetaSelector::BySubject(1),
            }),
            RequestClass::Scan
        );
        assert_eq!(
            classify(&Request::Delete { key: 1 }),
            RequestClass::Mutating
        );
        assert_eq!(
            classify(&Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::Deleted,
            }),
            RequestClass::Compliance
        );
    }

    #[test]
    fn plan_spans_benign_mutations_and_breaks_at_compliance_verbs() {
        use datacase_core::grounding::erasure::ErasureInterpretation;
        let config = EngineConfig::p_base(); // no log redaction on delete
        let reqs = [
            read(1),
            Request::Delete { key: 9 },
            read(2),
            Request::Erase {
                key: 3,
                interpretation: ErasureInterpretation::Deleted,
            },
            read(4),
            read(5),
        ];
        let segments = plan(reqs.iter(), &config);
        assert_eq!(
            segments,
            vec![
                Segment::Span(0..3), // delete without log redaction stays in-span
                Segment::Barrier(3), // erasure may redact the audit store
                Segment::Span(4..6),
            ]
        );
    }

    #[test]
    fn plan_breaks_at_deletes_on_log_redacting_profiles() {
        let config = EngineConfig::for_profile(ProfileKind::PSys);
        assert!(config.delete_logs_on_erase);
        let reqs = [read(1), Request::Delete { key: 9 }, read(2)];
        let segments = plan(reqs.iter(), &config);
        assert_eq!(
            segments,
            vec![
                Segment::Span(0..1),
                Segment::Barrier(1),
                Segment::Span(2..3),
            ]
        );
    }
}
