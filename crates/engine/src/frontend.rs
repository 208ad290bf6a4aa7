#![deny(missing_docs)]
//! The session-scoped, batch-first engine frontend.
//!
//! This module is the **only public write path** into a compliant engine:
//! callers open a [`Frontend`] over an [`EngineConfig`], describe who is
//! asking (and why, and until when) with a [`Session`], and submit typed
//! [`Request`]s as [`Batch`]es. Every request is answered with a
//! [`Response`] carrying `Result<Reply, EngineError>` plus an [`AuditRef`]
//! pointing at the audit-log records the request produced — so the
//! regulation groundings (policy enforcement, erasure semantics, audit
//! completeness) hold at the system boundary by construction, with no
//! raw-accessor side doors.
//!
//! ```
//! use datacase_engine::frontend::{Frontend, Request, Session};
//! use datacase_engine::profiles::EngineConfig;
//! use datacase_engine::Actor;
//!
//! let mut fe = Frontend::new(EngineConfig::p_base());
//! let controller = Session::new(Actor::Controller);
//! let metadata = datacase_workloads::record::GdprMetadata {
//!     subject: 7,
//!     purpose: datacase_core::purpose::well_known::billing(),
//!     ttl: datacase_sim::time::Ts::from_secs(3600),
//!     origin_device: 0,
//!     objects_to_sharing: false,
//! };
//! let resp = fe.run(
//!     &controller,
//!     Request::Create { key: 1, payload: b"reading".to_vec(), metadata },
//! );
//! assert!(resp.is_done());
//! ```
//!
//! Deliberate escape hatch: [`Frontend::forensic`] returns a
//! clearly-marked guard for tests, probes, and seized-disk simulations.
//! It bypasses enforcement and must never appear on a production path.

use datacase_core::grounding::erasure::ErasureInterpretation;
use datacase_core::history::HistoryTuple;
use datacase_core::ids::UnitId;
use datacase_core::purpose::PurposeId;
use datacase_core::value::Value;
use datacase_sim::time::Ts;
use datacase_storage::backend::DurableSnapshot;
use datacase_storage::forensic::ForensicFindings;
use datacase_workloads::opstream::{MetaField, MetaSelector, Op};
use datacase_workloads::record::GdprMetadata;

use crate::db::{Actor, CompliantDb};
use crate::error::EngineError;
use crate::profiles::EngineConfig;

// ---------------------------------------------------------------------
// Requests and batches
// ---------------------------------------------------------------------

/// One typed request to the engine.
///
/// The first seven variants mirror the workload vocabulary
/// ([`Op`]); the last two are the compliance path (right to erasure,
/// Table 1) that previously required reaching into the engine's internals.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Insert a new record with GDPR metadata (consent capture).
    Create {
        /// Record key.
        key: u64,
        /// Personal-data payload.
        payload: Vec<u8>,
        /// GDPR metadata attached at collection.
        metadata: GdprMetadata,
    },
    /// Point read of the record's payload.
    Read {
        /// Record key.
        key: u64,
    },
    /// Replace the record's payload.
    Update {
        /// Record key.
        key: u64,
        /// New payload.
        payload: Vec<u8>,
    },
    /// Workload-path delete (grounded per the engine's
    /// [`DeleteStrategy`](crate::profiles::DeleteStrategy)).
    Delete {
        /// Record key.
        key: u64,
    },
    /// Read the record's metadata row (policies, purpose, TTL).
    ReadMeta {
        /// Record key.
        key: u64,
    },
    /// Update one metadata field (policy change + subject notification).
    UpdateMeta {
        /// Record key.
        key: u64,
        /// Which field.
        field: MetaField,
    },
    /// Read data *via* metadata (e.g. "all records for purpose X").
    ReadByMeta {
        /// The selector.
        selector: MetaSelector,
    },
    /// Execute a grounded erasure interpretation immediately (the
    /// compliance path: an Art. 17 request, not a workload delete).
    Erase {
        /// Record key.
        key: u64,
        /// The grounding to execute.
        interpretation: ErasureInterpretation,
    },
    /// Restore a reversibly-inaccessible record (the inverse action that
    /// makes that grounding invertible).
    Restore {
        /// Record key.
        key: u64,
    },
}

impl Request {
    /// Short label for statistics.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Create { .. } => "create",
            Request::Read { .. } => "read",
            Request::Update { .. } => "update",
            Request::Delete { .. } => "delete",
            Request::ReadMeta { .. } => "read-meta",
            Request::UpdateMeta { .. } => "update-meta",
            Request::ReadByMeta { .. } => "read-by-meta",
            Request::Erase { .. } => "erase",
            Request::Restore { .. } => "restore",
        }
    }

    /// The key the request targets, when key-addressed.
    pub fn key(&self) -> Option<u64> {
        match self {
            Request::Create { key, .. }
            | Request::Read { key }
            | Request::Update { key, .. }
            | Request::Delete { key }
            | Request::ReadMeta { key }
            | Request::UpdateMeta { key, .. }
            | Request::Erase { key, .. }
            | Request::Restore { key } => Some(*key),
            Request::ReadByMeta { .. } => None,
        }
    }
}

impl From<&Op> for Request {
    fn from(op: &Op) -> Request {
        match op {
            Op::Create {
                key,
                payload,
                metadata,
            } => Request::Create {
                key: *key,
                payload: payload.clone(),
                metadata: metadata.clone(),
            },
            Op::ReadData { key } => Request::Read { key: *key },
            Op::UpdateData { key, payload } => Request::Update {
                key: *key,
                payload: payload.clone(),
            },
            Op::DeleteData { key } => Request::Delete { key: *key },
            Op::ReadMeta { key } => Request::ReadMeta { key: *key },
            Op::UpdateMeta { key, field } => Request::UpdateMeta {
                key: *key,
                field: *field,
            },
            Op::ReadByMetadata { selector } => Request::ReadByMeta {
                selector: *selector,
            },
        }
    }
}

impl From<Op> for Request {
    fn from(op: Op) -> Request {
        Request::from(&op)
    }
}

/// An ordered batch of [`Request`]s submitted as one unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    requests: Vec<Request>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Append a request, builder-style.
    pub fn with(mut self, request: Request) -> Batch {
        self.requests.push(request);
        self
    }

    /// Append a request.
    pub fn push(&mut self, request: Request) {
        self.requests.push(request);
    }

    /// Convert a workload op stream into a batch.
    pub fn from_ops(ops: &[Op]) -> Batch {
        ops.iter().map(Request::from).collect()
    }

    /// The requests, in submission order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

impl From<Vec<Request>> for Batch {
    fn from(requests: Vec<Request>) -> Batch {
        Batch { requests }
    }
}

impl FromIterator<Request> for Batch {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Batch {
        Batch {
            requests: iter.into_iter().collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Replies and responses
// ---------------------------------------------------------------------

/// The successful outcome of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Mutation applied.
    Done,
    /// Read returned this many payload bytes.
    Value(usize),
    /// Metadata-based read returned this many rows.
    Rows(usize),
    /// The erasure grounding executed.
    Erased(ErasureInterpretation),
    /// The record was restored from reversible inaccessibility.
    Restored,
}

/// A pointer into the audit log: the records one request produced.
///
/// Sequence numbers are the engine's global, monotonically increasing
/// audit sequence; `records == 0` means the request wrote no audit
/// records (e.g. it failed before reaching the logging layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditRef {
    /// First audit sequence number written by the request.
    pub start: u64,
    /// How many audit records the request wrote.
    pub records: u64,
    /// Engine time when the response was produced.
    pub at: Ts,
}

impl AuditRef {
    /// Did the request write any audit records?
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Last audit sequence number covered, if any.
    pub fn last(&self) -> Option<u64> {
        (self.records > 0).then(|| self.start + self.records - 1)
    }
}

/// The engine's answer to one [`Request`] of a batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Position of the request within its batch.
    pub index: usize,
    /// What happened: a typed reply, or a typed error.
    pub outcome: Result<Reply, EngineError>,
    /// The audit-log records this request produced.
    pub audit: AuditRef,
}

impl Response {
    /// The reply, if the request succeeded.
    pub fn reply(&self) -> Option<Reply> {
        self.outcome.as_ref().ok().copied()
    }

    /// The error, if the request failed.
    pub fn err(&self) -> Option<&EngineError> {
        self.outcome.as_ref().err()
    }

    /// Did the request succeed with [`Reply::Done`]?
    pub fn is_done(&self) -> bool {
        matches!(self.outcome, Ok(Reply::Done))
    }

    /// Bytes returned, when the reply is a [`Reply::Value`].
    pub fn value(&self) -> Option<usize> {
        match self.outcome {
            Ok(Reply::Value(n)) => Some(n),
            _ => None,
        }
    }

    /// Rows returned, when the reply is a [`Reply::Rows`].
    pub fn rows(&self) -> Option<usize> {
        match self.outcome {
            Ok(Reply::Rows(n)) => Some(n),
            _ => None,
        }
    }

    /// Was the request denied by policy enforcement?
    pub fn is_denied(&self) -> bool {
        self.err().is_some_and(EngineError::is_denied)
    }

    /// Did the request target a key that never existed?
    pub fn is_not_found(&self) -> bool {
        self.err().is_some_and(EngineError::is_not_found)
    }
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

/// Who is asking, for what declared purpose, and until when.
///
/// A session is the unit of authentication and intent: every batch is
/// submitted under exactly one session, and the frontend's single
/// enforcement choke point derives entities, purposes, and deadline
/// gating from it. Sessions are cheap descriptors — build one per actor
/// and reuse it across batches.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    actor: Actor,
    purpose: Option<PurposeId>,
    deadline: Option<Ts>,
    scope: Option<datacase_core::tenant::KeyRange>,
}

impl Session {
    /// A session for `actor` with no declared purpose (each request's
    /// purpose is derived from the actor and the record's collection
    /// metadata, as workload streams expect), no deadline, and no
    /// key-scope.
    pub fn new(actor: Actor) -> Session {
        Session {
            actor,
            purpose: None,
            deadline: None,
            scope: None,
        }
    }

    /// Declare a processing purpose: data-access requests in this session
    /// are checked against `purpose` instead of the per-record default —
    /// purpose limitation made explicit at the boundary.
    pub fn for_purpose(mut self, purpose: PurposeId) -> Session {
        self.purpose = Some(purpose);
        self
    }

    /// Gate the session with a deadline: batches submitted after
    /// `deadline` (engine time) are denied wholesale at admission.
    pub fn until(mut self, deadline: Ts) -> Session {
        self.deadline = Some(deadline);
        self
    }

    /// The authenticated actor.
    pub fn actor(&self) -> Actor {
        self.actor
    }

    /// The declared purpose, if any.
    pub fn purpose(&self) -> Option<PurposeId> {
        self.purpose
    }

    /// Confine the session to a half-open block of the keyspace: any
    /// key-addressed request outside `scope` is denied at admission, and
    /// metadata scans only see records inside it. This is how the
    /// multi-tenant gateway pins each tenant's sessions to the tenant's
    /// own keyspace block.
    pub fn scoped(mut self, scope: datacase_core::tenant::KeyRange) -> Session {
        self.scope = Some(scope);
        self
    }

    /// The admission deadline, if any.
    pub fn deadline(&self) -> Option<Ts> {
        self.deadline
    }

    /// The key-scope, if any.
    pub fn scope(&self) -> Option<datacase_core::tenant::KeyRange> {
        self.scope
    }
}

// ---------------------------------------------------------------------
// The frontend
// ---------------------------------------------------------------------

/// The compliant engine's public face: owns the (crate-internal)
/// `CompliantDb` and executes [`Batch`]es of [`Request`]s through a
/// single enforcement choke point.
pub struct Frontend {
    db: CompliantDb,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend").field("db", &self.db).finish()
    }
}

impl Frontend {
    /// Build a frontend over a fresh engine for `config`.
    pub fn new(config: EngineConfig) -> Frontend {
        Frontend {
            db: CompliantDb::new(config),
        }
    }

    /// Build a frontend sharing an existing clock/meter (sharded runs).
    pub fn with_clock(
        config: EngineConfig,
        clock: datacase_sim::SimClock,
        meter: std::sync::Arc<datacase_sim::Meter>,
    ) -> Frontend {
        Frontend {
            db: CompliantDb::with_clock(config, clock, meter),
        }
    }

    /// Submit a batch under `session`, returning one [`Response`] per
    /// request in order.
    ///
    /// This is the single enforcement choke point: session admission
    /// (deadline), purpose resolution, policy checks, audit-ref
    /// assignment, and checkpoint cadence all happen here and nowhere
    /// else — execution itself runs through the staged batch pipeline
    /// ([`crate::exec`]): requests are *planned* into read waves and
    /// serial barriers, *decided* against the epoch-versioned policy
    /// cache, *applied* (each span's deferred read decryption runs in one
    /// pass), and *accounted* (audit records committed in batch
    /// order). Submitting one batch of *n* requests is semantically
    /// identical to submitting *n* single-request batches, and pipelined
    /// execution is observably identical to serial execution down to the
    /// audit chain's bytes (the `prop_frontend` parity suite holds the
    /// engine to both) — which is why the deadline gate is evaluated per
    /// request: a deadline crossing mid-batch denies the tail exactly as
    /// single-request submissions would.
    pub fn submit(&mut self, session: &Session, batch: &Batch) -> Vec<Response> {
        crate::exec::execute(&mut self.db, session, batch.requests())
    }

    /// Submit a single request (a one-element batch).
    pub fn run(&mut self, session: &Session, request: Request) -> Response {
        crate::exec::execute(&mut self.db, session, std::slice::from_ref(&request))
            .pop()
            .expect("one request in, one response out")
    }

    /// Submit a workload op stream as one batch under `session`.
    ///
    /// Ops are converted (each conversion clones the op's payload into
    /// its [`Request`]) and executed in bounded sub-batches, so the whole
    /// stream is never materialized as a second copy; response indices
    /// still number the full stream. Sub-batching is invisible by the
    /// batch-parity contract — splitting a batch never changes results.
    pub fn submit_ops(&mut self, session: &Session, ops: &[Op]) -> Vec<Response> {
        const SUBMIT_CHUNK: usize = 1024;
        let mut responses = Vec::with_capacity(ops.len());
        for (chunk_idx, chunk) in ops.chunks(SUBMIT_CHUNK).enumerate() {
            let requests: Vec<Request> = chunk.iter().map(Request::from).collect();
            let offset = chunk_idx * SUBMIT_CHUNK;
            responses.extend(
                crate::exec::execute(&mut self.db, session, &requests)
                    .into_iter()
                    .map(|mut r| {
                        r.index += offset;
                        r
                    }),
            );
        }
        responses
    }

    // -- read-only surface -------------------------------------------------

    /// The shared simulated clock.
    pub fn clock(&self) -> &datacase_sim::SimClock {
        self.db.clock()
    }

    /// The shared work meter.
    pub fn meter(&self) -> &std::sync::Arc<datacase_sim::Meter> {
        self.db.meter()
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.db.config()
    }

    /// The abstract Data-CASE state.
    pub fn state(&self) -> &datacase_core::state::DatabaseState {
        self.db.state()
    }

    /// The action history.
    pub fn history(&self) -> &datacase_core::history::ActionHistory {
        self.db.history()
    }

    /// The entity registry.
    pub fn entities(&self) -> &datacase_core::entity::EntityRegistry {
        self.db.entities()
    }

    /// The purpose registry.
    pub fn purposes(&self) -> &datacase_core::purpose::PurposeRegistry {
        self.db.purposes()
    }

    /// Number of requests denied by policy enforcement so far.
    pub fn denied(&self) -> u64 {
        self.db.denied()
    }

    /// The engine's current policy epoch: bumped by every policy-mutating
    /// action (grant, revocation, erasure, metadata update). Decision
    /// caching is correct because entries stamped below the epoch of
    /// their unit class are structurally unreachable.
    pub fn policy_epoch(&self) -> datacase_policy::enforcer::PolicyEpoch {
        self.db.policy_epoch()
    }

    /// Unit id stored under a key.
    pub fn unit_of_key(&self, key: u64) -> Option<UnitId> {
        self.db.unit_of_key(key)
    }

    /// Key a unit is stored under.
    pub fn key_of_unit(&self, unit: UnitId) -> Option<u64> {
        self.db.key_of_unit(unit)
    }

    /// Backend statistics on the substrate-independent vocabulary.
    pub fn backend_stats(&self) -> datacase_storage::backend::BackendStats {
        self.db.backend_stats()
    }

    /// Number of audit-log records written so far.
    pub fn audit_records(&self) -> usize {
        self.db.logger().records()
    }

    /// Run the compliance checker against this engine's model.
    pub fn compliance_report(
        &mut self,
        regulation: &datacase_core::regulation::Regulation,
    ) -> datacase_core::checker::ComplianceReport {
        self.db.compliance_report(regulation)
    }

    /// The raw engine, for in-crate subsystems (sweeper, space, PIA).
    pub(crate) fn db(&self) -> &CompliantDb {
        &self.db
    }

    /// Mutable raw engine, for in-crate subsystems only.
    pub(crate) fn db_mut(&mut self) -> &mut CompliantDb {
        &mut self.db
    }

    /// The forensic / test-only escape hatch.
    ///
    /// Everything behind this guard **bypasses enforcement**: it models
    /// what a seized disk, a rogue administrator, or a test harness can
    /// see and do. Production paths must never call it — the compliant
    /// write path is [`Frontend::submit`].
    pub fn forensic(&mut self) -> Forensic<'_> {
        Forensic { db: &mut self.db }
    }
}

/// Enforcement-bypassing guard returned by [`Frontend::forensic`].
///
/// Intended for tests, property probes, and the seized-disk scenarios in
/// the examples; clearly not part of the compliant request path.
pub struct Forensic<'f> {
    db: &'f mut CompliantDb,
}

impl Forensic<'_> {
    /// Scan all persistent layers (pages, WAL, runs, audit logs) for
    /// `needle`, checkpointing first so buffered state is visible.
    pub fn scan(&mut self, needle: &[u8]) -> ForensicFindings {
        self.db.forensic(needle)
    }

    /// Read a record's stored bytes directly off the substrate,
    /// optionally including reversibly-hidden versions.
    pub fn raw_read(&mut self, key: u64, include_hidden: bool) -> Option<Vec<u8>> {
        self.db.backend_mut().read(key, include_hidden)
    }

    /// Force a checkpoint (flush + WAL recycle) now.
    pub fn checkpoint(&mut self) {
        self.db.backend_mut().checkpoint();
    }

    /// Inject a history tuple as if enforcement had been bypassed (the
    /// violation-injection scenarios feeding the compliance checker).
    pub fn inject_history(&mut self, tuple: HistoryTuple) {
        self.db.record_history(tuple);
    }

    /// Derive a unit from `sources` (a mirror/backup copy), store its
    /// payload under `key`, and bind it so erasure cascades can find it.
    pub fn plant_derived(
        &mut self,
        sources: &[UnitId],
        how: &str,
        identifying: bool,
        invertible: bool,
        payload: &[u8],
        key: u64,
    ) -> UnitId {
        let now = self.db.clock().now();
        let unit = self.db.state_mut().derive(
            sources,
            how,
            identifying,
            invertible,
            Value::Bytes(payload.to_vec()),
            now,
        );
        self.db
            .backend_mut()
            .insert(key, unit.0, payload)
            .expect("derived insert");
        self.db.bind_derived_key(unit, key);
        unit
    }

    /// Destroy a unit's encryption key (crypto-erasure). Returns false
    /// when tuple encryption is off or the key is already gone.
    pub fn destroy_key(&mut self, unit: UnitId) -> bool {
        match self.db.vault_mut() {
            Some(vault) => vault.destroy_key(unit.0),
            None => false,
        }
    }

    /// How many keystream entries the tuple vault currently caches —
    /// `0` when tuple encryption or the keystream cache is off. Lets the
    /// erasure harnesses assert the cache actually warmed before an
    /// erasure, and actually emptied after one.
    pub fn cached_keystreams(&mut self) -> usize {
        self.db
            .vault_mut()
            .map_or(0, |vault| vault.cached_keystreams())
    }

    /// Verify the audit log's tamper-evident chain.
    pub fn verify_chain(&mut self) -> bool {
        self.db.logger_mut().verify_chain()
    }

    /// The audit chain's head MAC — a 32-byte digest over every record's
    /// bytes in order. Two engines whose heads match hold byte-identical
    /// audit chains (the pipeline-parity gate compares pipelined and
    /// serial runs through this).
    pub fn chain_head(&mut self) -> [u8; 32] {
        self.db.logger_mut().chain_head()
    }

    /// Salvage the storage substrate's durable state — exactly what
    /// survives a crash: the heap's WAL records or the LSM's committed
    /// run manifest. The chaos harness calls this on a wrecked engine
    /// (after a [`CrashSignal`](datacase_sim::fault::CrashSignal) panic
    /// was caught) and rebuilds from it via
    /// [`recover_backend`](datacase_storage::backend::recover_backend).
    pub fn durable_snapshot(&mut self) -> DurableSnapshot {
        self.db.backend_mut().durable_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::purpose::well_known as wk;
    use datacase_workloads::gdprbench::{GdprBench, Mix};

    fn meta(subject: u32) -> GdprMetadata {
        GdprMetadata {
            subject,
            purpose: wk::billing(),
            ttl: Ts::from_secs(1_000_000),
            origin_device: 0,
            objects_to_sharing: false,
        }
    }

    fn loaded(config: EngineConfig, n: usize) -> (Frontend, GdprBench) {
        let mut fe = Frontend::new(config);
        let mut bench = GdprBench::new(42, 50);
        let controller = Session::new(Actor::Controller);
        for r in fe.submit_ops(&controller, &bench.load_phase(n)) {
            assert!(r.is_done(), "load failed: {:?}", r.outcome);
        }
        (fe, bench)
    }

    #[test]
    fn op_stream_batch_roundtrip() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 100);
        let processor = Session::new(Actor::Processor);
        let r = fe.run(&processor, Request::Read { key: 5 });
        assert_eq!(r.value(), Some(100));
        assert!(!r.audit.is_empty(), "reads are audit-logged");
    }

    #[test]
    fn error_taxonomy_separates_outcomes() {
        let (mut fe, _) = loaded(EngineConfig::p_gbench(), 20);
        let subject = Session::new(Actor::Subject);
        let processor = Session::new(Actor::Processor);
        // Never-stored key: NotFound.
        let r = fe.run(&processor, Request::Read { key: 999_999 });
        assert!(matches!(r.outcome, Err(EngineError::NotFound { key }) if key == 999_999));
        // Post-erasure read on an enforcing profile: Denied (policies
        // were revoked with the erasure request).
        assert!(fe.run(&subject, Request::Delete { key: 3 }).is_done());
        let r = fe.run(&processor, Request::Read { key: 3 });
        assert!(r.is_denied(), "{:?}", r.outcome);
        // The same on a non-enforcing engine: RetentionExpired, not a
        // bare NotFound — the record is gone by design.
        let (mut fe2, _) = loaded(
            EngineConfig::stock(crate::profiles::DeleteStrategy::DeleteVacuum),
            20,
        );
        let controller = Session::new(Actor::Controller);
        assert!(fe2.run(&controller, Request::Delete { key: 3 }).is_done());
        let r = fe2.run(&controller, Request::Read { key: 3 });
        assert!(
            matches!(r.outcome, Err(EngineError::RetentionExpired { key: 3, .. })),
            "{:?}",
            r.outcome
        );
        // Duplicate create: a backend (constraint) failure.
        let r = fe2.run(
            &controller,
            Request::Create {
                key: 5,
                payload: vec![1],
                metadata: meta(1),
            },
        );
        assert!(
            r.err().is_some_and(EngineError::is_backend),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn session_deadline_gates_admission() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 10);
        let expired = Session::new(Actor::Processor).until(Ts::ZERO);
        let rs = fe.submit(
            &expired,
            &Batch::new()
                .with(Request::Read { key: 1 })
                .with(Request::Read { key: 2 }),
        );
        assert!(rs.iter().all(Response::is_denied), "{rs:?}");
        assert!(rs.iter().all(|r| r.audit.is_empty()));
        // A live deadline admits normally.
        let live = Session::new(Actor::Processor).until(Ts::MAX);
        assert_eq!(fe.run(&live, Request::Read { key: 1 }).value(), Some(100));
    }

    #[test]
    fn declared_purpose_narrows_access() {
        let (mut fe, _) = loaded(EngineConfig::p_sys(), 10);
        // The processor declaring the audit purpose has no policy for it.
        let wrong = Session::new(Actor::Processor).for_purpose(wk::audit());
        assert!(fe.run(&wrong, Request::Read { key: 1 }).is_denied());
        // Declaring the record's collection purpose works where granted.
        let (mut fe2, _) = loaded(EngineConfig::p_sys(), 10);
        let subject = Session::new(Actor::Subject).for_purpose(wk::subject_access());
        assert!(fe2
            .run(&subject, Request::Read { key: 1 })
            .value()
            .is_some());
    }

    #[test]
    fn audit_refs_are_contiguous_and_monotone() {
        let (mut fe, mut bench) = loaded(EngineConfig::p_base(), 50);
        let subject = Session::new(Actor::Subject);
        let rs = fe.submit_ops(&subject, &bench.ops(120, Mix::wcus()));
        let mut next = None::<u64>;
        for r in &rs {
            if let Some(expected) = next {
                assert_eq!(r.audit.start, expected, "audit refs must tile the log");
            }
            next = Some(r.audit.start + r.audit.records);
        }
        assert_eq!(
            next.unwrap() - 1,
            rs.last().unwrap().audit.last().unwrap_or(next.unwrap() - 1)
        );
    }

    #[test]
    fn decision_cache_amortizes_policy_checks_without_changing_replies() {
        let run = |capacity: usize| -> (Vec<Result<Reply, EngineError>>, u64) {
            let (mut fe, _) = loaded(EngineConfig::p_sys().with_decision_cache(capacity), 10);
            let session = Session::new(Actor::Processor);
            let mut batch = Batch::new();
            for _ in 0..50 {
                batch.push(Request::Read { key: 1 });
            }
            let before = fe.meter().snapshot().policy_checks;
            let outcomes = fe
                .submit(&session, &batch)
                .into_iter()
                .map(|r| r.outcome)
                .collect();
            (outcomes, fe.meter().snapshot().policy_checks - before)
        };
        let (plain_replies, plain_checks) = run(0);
        let (cached_replies, cached_checks) = run(1024);
        assert_eq!(plain_replies, cached_replies, "caching must be invisible");
        assert!(
            cached_checks < plain_checks,
            "cache must amortize: {cached_checks} vs {plain_checks}"
        );
    }

    #[test]
    fn decision_cache_invalidated_by_policy_mutation() {
        let (mut fe, _) = loaded(EngineConfig::p_sys().with_decision_cache(1024), 10);
        let session = Session::new(Actor::Processor);
        let epoch_before = fe.policy_epoch();
        assert!(fe.run(&session, Request::Read { key: 2 }).value().is_some());
        // Erase revokes policies: the epoch moves, so the cached allow
        // (stamped at the lower epoch) is structurally stale.
        let controller = Session::new(Actor::Controller);
        assert!(fe
            .run(
                &controller,
                Request::Erase {
                    key: 2,
                    interpretation: ErasureInterpretation::Deleted,
                },
            )
            .outcome
            .is_ok());
        assert!(fe.policy_epoch() > epoch_before, "erase bumps the epoch");
        let r = fe.run(&session, Request::Read { key: 2 });
        assert!(
            r.outcome.is_err(),
            "stale cached allow leaked: {:?}",
            r.outcome
        );
    }

    #[test]
    fn cross_session_revoke_invalidates_other_sessions_cached_allow() {
        // Session B warms the cache with an allow; a revoke issued in
        // session A (the subject's erasure request) must strand that
        // entry even though B never observed the mutation: the cache is
        // frontend-wide and validity is an epoch comparison, so there is
        // no per-session staleness window at all.
        for profile in [
            crate::profiles::ProfileKind::PGBench,
            crate::profiles::ProfileKind::PSys,
        ] {
            let mut config = EngineConfig::for_profile(profile).with_decision_cache(1024);
            config.delete_strategy = crate::profiles::DeleteStrategy::TombstoneAttribute;
            let (mut fe, _) = loaded(config, 10);
            let session_b = Session::new(Actor::Processor);
            let allowed = fe.run(&session_b, Request::Read { key: 3 });
            assert!(
                allowed.value().is_some(),
                "{profile:?}: {:?}",
                allowed.outcome
            );
            let session_a = Session::new(Actor::Subject);
            assert!(fe.run(&session_a, Request::Delete { key: 3 }).is_done());
            let r = fe.run(&session_b, Request::Read { key: 3 });
            assert!(
                r.is_denied(),
                "{profile:?}: session B reused a stale allow: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn cached_denial_is_reevaluated_after_grant_bumps_epoch() {
        // The deny-then-grant flow: a processor reading under a purpose
        // it holds no policy for is denied (and the denial cached); the
        // controller's metadata update then grants the analytics policy,
        // bumping the epoch — the cached deny must not outlive it.
        let (mut fe, _) = loaded(EngineConfig::p_sys().with_decision_cache(1024), 10);
        let analyst = Session::new(Actor::Processor).for_purpose(wk::analytics());
        let denied = fe.run(&analyst, Request::Read { key: 4 });
        assert!(denied.is_denied(), "{:?}", denied.outcome);
        // Same request again: the denial is served from the cache (no
        // fresh policy evaluation), but still metered and audit-logged.
        let before = fe.meter().snapshot();
        let denied_again = fe.run(&analyst, Request::Read { key: 4 });
        assert!(denied_again.is_denied());
        assert!(
            !denied_again.audit.is_empty(),
            "cached denials still write DENIED audit records"
        );
        let diff = fe.meter().snapshot().diff(&before);
        assert_eq!(diff.policy_checks, 0, "cached denial skips re-evaluation");
        assert_eq!(diff.denials, 1, "but the denial itself is metered");
        // MetaField::Purpose grants the processor an analytics policy.
        let controller = Session::new(Actor::Controller);
        assert!(fe
            .run(
                &controller,
                Request::UpdateMeta {
                    key: 4,
                    field: MetaField::Purpose,
                },
            )
            .is_done());
        let r = fe.run(&analyst, Request::Read { key: 4 });
        assert!(
            r.value().is_some(),
            "grant must flip the cached deny: {:?}",
            r.outcome
        );
    }

    #[test]
    fn erase_and_restore_requests_drive_the_compliance_path() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 10);
        let controller = Session::new(Actor::Controller);
        let r = fe.run(
            &controller,
            Request::Erase {
                key: 4,
                interpretation: ErasureInterpretation::ReversiblyInaccessible,
            },
        );
        assert_eq!(
            r.reply(),
            Some(Reply::Erased(ErasureInterpretation::ReversiblyInaccessible))
        );
        assert_eq!(
            fe.run(&controller, Request::Restore { key: 4 }).reply(),
            Some(Reply::Restored)
        );
        // Restoring a live record is refused.
        assert!(fe
            .run(&controller, Request::Restore { key: 4 })
            .outcome
            .is_err());
        // Erasing an unknown key is NotFound.
        let r = fe.run(
            &controller,
            Request::Erase {
                key: 12345,
                interpretation: ErasureInterpretation::Deleted,
            },
        );
        assert!(r.is_not_found());
    }

    #[test]
    fn erase_requests_are_policy_checked() {
        // A processor holds no compliance-erase policy: its erase request
        // is denied at the boundary and the record stays live. The
        // subject's and controller's requests are authorised.
        for profile in [
            crate::profiles::ProfileKind::PBase,
            crate::profiles::ProfileKind::PSys,
        ] {
            let (mut fe, _) = loaded(EngineConfig::for_profile(profile), 10);
            let r = fe.run(
                &Session::new(Actor::Processor),
                Request::Erase {
                    key: 1,
                    interpretation: ErasureInterpretation::Deleted,
                },
            );
            assert!(r.is_denied(), "{profile:?}: {:?}", r.outcome);
            let unit = fe.unit_of_key(1).unwrap();
            assert!(!fe.state().unit(unit).unwrap().erasure.is_erased());
            assert!(fe
                .run(
                    &Session::new(Actor::Subject),
                    Request::Erase {
                        key: 1,
                        interpretation: ErasureInterpretation::Deleted,
                    },
                )
                .outcome
                .is_ok());
            // Escalating the already-erased unit stays authorised even
            // though its policies were revoked with the first request.
            assert!(fe
                .run(
                    &Session::new(Actor::Controller),
                    Request::Erase {
                        key: 1,
                        interpretation: ErasureInterpretation::PermanentlyDeleted,
                    },
                )
                .outcome
                .is_ok());
        }
    }

    #[test]
    fn overdue_units_stay_erasable_after_policies_lapse() {
        let (mut fe, _) = loaded(EngineConfig::p_sys(), 5);
        // Way past every record's retention deadline: the unit policies
        // have lapsed, but retention execution must still be possible.
        fe.clock().advance_to(Ts::from_secs(400 * 24 * 3600));
        let r = fe.run(
            &Session::new(Actor::Controller),
            Request::Erase {
                key: 1,
                interpretation: ErasureInterpretation::Deleted,
            },
        );
        assert!(r.outcome.is_ok(), "{:?}", r.outcome);
    }

    #[test]
    fn restore_denied_for_processors() {
        let (mut fe, _) = loaded(EngineConfig::p_base(), 5);
        let controller = Session::new(Actor::Controller);
        assert!(fe
            .run(
                &controller,
                Request::Erase {
                    key: 1,
                    interpretation: ErasureInterpretation::ReversiblyInaccessible,
                },
            )
            .outcome
            .is_ok());
        let r = fe.run(&Session::new(Actor::Processor), Request::Restore { key: 1 });
        assert!(r.is_denied(), "{:?}", r.outcome);
        assert!(fe
            .run(&Session::new(Actor::Subject), Request::Restore { key: 1 })
            .outcome
            .is_ok());
    }

    #[test]
    fn batch_vocabulary_roundtrips_ops() {
        let mut bench = GdprBench::new(7, 20);
        let ops = bench.ops(50, Mix::wcus());
        let batch = Batch::from_ops(&ops);
        assert_eq!(batch.len(), 50);
        for (op, req) in ops.iter().zip(batch.requests()) {
            assert_eq!(op.key(), req.key());
        }
    }
}
