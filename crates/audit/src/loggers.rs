//! The three logging backends of the compliance profiles.

use datacase_core::ids::UnitId;
use datacase_crypto::aes::KeySize;
use datacase_crypto::ctr::AesCtr;
use datacase_sim::{Meter, SimClock};

use crate::record::{HmacChain, LogRecord};

/// A logging backend: persists records, accounts bytes, stays
/// tamper-evident, and supports per-unit redaction.
///
/// Persisting a record is split into two halves so a pipelined engine can
/// keep its simulated cost stream identical to sequential execution:
/// [`charge`](AuditLogger::charge) pays the record's costs at the instant
/// the operation happens (only the payload *length* is needed), and
/// [`append_precharged`](AuditLogger::append_precharged) commits the
/// finished record — possibly later, at the end of the span, once the
/// read's deferred decryption has filled its payload — without charging
/// again. Any at-rest payload encryption happens inside
/// `append_precharged`. The plain [`log`](AuditLogger::log) is the
/// sequential composition of the two.
pub trait AuditLogger: Send {
    /// Backend display name.
    fn name(&self) -> &'static str;

    /// Persist one record (charges log costs): exactly
    /// `charge(&rec, rec.payload.len())` then `append_precharged(rec)`.
    fn log(&mut self, rec: LogRecord) {
        self.charge(&rec, rec.payload.len());
        self.append_precharged(rec);
    }

    /// Charge the simulated costs of persisting `rec` as if its payload
    /// held `payload_len` bytes, without storing anything. `rec.payload`
    /// may still be empty at charge time — only the final length drives
    /// costs (log bytes, AES work), never the content.
    fn charge(&mut self, rec: &LogRecord, payload_len: usize);

    /// Commit a record whose costs were already charged via
    /// [`charge`](AuditLogger::charge). The record joins the store and the
    /// tamper-evidence chain in call order.
    fn append_precharged(&mut self, rec: LogRecord);

    /// The chain's current head MAC, resealing pending redactions first —
    /// a 32-byte digest two logs can be compared by.
    fn chain_head(&mut self) -> [u8; 32];

    /// Retained records.
    fn records(&self) -> usize;

    /// Retained bytes (Table 2 metadata accounting).
    fn bytes(&self) -> u64;

    /// Redact all records of `unit` (zero payloads, reseal the chain).
    /// Returns how many records were redacted.
    fn redact_unit(&mut self, unit: UnitId) -> usize;

    /// Forensic scan of retained payloads.
    fn scan(&self, needle: &[u8]) -> usize;

    /// Verify the tamper-evidence chain (invariant IX's input). Reseals
    /// any batched redactions first (an audit-time operation).
    fn verify_chain(&mut self) -> bool;

    /// Drop records older than `before` (retention). Returns dropped count.
    fn expire_before(&mut self, before: datacase_sim::time::Ts) -> usize;
}

/// Shared storage + chain logic for the backends.
///
/// Redaction and expiry mark the chain *dirty* instead of resealing
/// immediately: like real audit systems, redactions batch and the chain is
/// resealed once, when the next verification (or audit export) happens.
/// Without this, per-delete redaction would re-MAC the whole log —
/// quadratic work under delete-heavy workloads.
struct LogCore {
    records: Vec<LogRecord>,
    by_unit: std::collections::HashMap<UnitId, Vec<u32>>,
    bytes: u64,
    chain: HmacChain,
    chain_key: Vec<u8>,
    chain_dirty: bool,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
}

impl LogCore {
    fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> LogCore {
        LogCore {
            records: Vec::new(),
            by_unit: std::collections::HashMap::new(),
            bytes: 0,
            chain: HmacChain::new(key),
            chain_key: key.to_vec(),
            chain_dirty: false,
            clock,
            meter,
        }
    }

    /// Pay for a record of `size` stored bytes (clock + meter + space
    /// accounting) without storing anything yet.
    fn charge(&mut self, size: usize) {
        self.clock.charge(self.clock.model().log_cost(size));
        Meter::bump(&self.meter.log_records, 1);
        Meter::bump(&self.meter.log_bytes, size as u64);
        self.bytes += size as u64;
    }

    /// Store a record whose costs were already charged.
    fn store(&mut self, rec: LogRecord) {
        self.chain.extend(&rec.chain_bytes());
        if let Some(unit) = rec.unit {
            self.by_unit
                .entry(unit)
                .or_default()
                .push(self.records.len() as u32);
        }
        self.records.push(rec);
    }

    fn reseal(&mut self) {
        let mut chain = HmacChain::new(&self.chain_key);
        for r in &self.records {
            chain.extend(&r.chain_bytes());
        }
        self.chain = chain;
    }

    fn redact_unit(&mut self, unit: UnitId) -> usize {
        let Some(positions) = self.by_unit.get(&unit) else {
            return 0;
        };
        let mut n = 0;
        let mut freed = 0u64;
        let mut touched = 0usize;
        for &i in positions {
            let r = &mut self.records[i as usize];
            if !r.redacted {
                freed += r.payload.len() as u64;
                touched += r.size();
                r.payload = Vec::new();
                r.redacted = true;
                n += 1;
            }
        }
        if n > 0 {
            self.bytes = self.bytes.saturating_sub(freed);
            // Charge the indexed redaction (the unit's records only); the
            // chain reseal batches until the next verification.
            self.clock.charge(self.clock.model().log_cost(touched));
            self.chain_dirty = true;
        }
        n
    }

    fn scan(&self, needle: &[u8]) -> usize {
        if needle.is_empty() {
            return 0;
        }
        self.records
            .iter()
            .filter(|r| r.payload.windows(needle.len()).any(|w| w == needle))
            .count()
    }

    fn verify(&mut self) -> bool {
        if self.chain_dirty {
            self.reseal();
            self.chain_dirty = false;
        }
        self.chain.verify(
            &self.chain_key,
            self.records.iter().map(|r| r.chain_bytes()),
        )
    }

    fn head(&mut self) -> [u8; 32] {
        if self.chain_dirty {
            self.reseal();
            self.chain_dirty = false;
        }
        self.chain.head()
    }

    fn expire_before(&mut self, before: datacase_sim::time::Ts) -> usize {
        let before_len = self.records.len();
        self.records.retain(|r| r.at >= before);
        let dropped = before_len - self.records.len();
        if dropped > 0 {
            self.bytes = self.records.iter().map(|r| r.size() as u64).sum();
            // Rebuild the unit index (positions shifted) and reseal lazily.
            self.by_unit.clear();
            for (i, r) in self.records.iter().enumerate() {
                if let Some(unit) = r.unit {
                    self.by_unit.entry(unit).or_default().push(i as u32);
                }
            }
            self.chain_dirty = true;
        }
        dropped
    }
}

/// Row cap for [`CsvRowLogger`]: only this many payload bytes are kept.
const CSV_ROW_CAP: usize = 48;

/// P_Base: CSV row-level response logging. Stores a compact row rendering
/// of the response — cheap and small.
pub struct CsvRowLogger {
    core: LogCore,
}

impl CsvRowLogger {
    /// A fresh CSV logger.
    pub fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> CsvRowLogger {
        CsvRowLogger {
            core: LogCore::new(key, clock, meter),
        }
    }
}

impl AuditLogger for CsvRowLogger {
    fn name(&self) -> &'static str {
        "csv row-level (P_Base)"
    }

    fn charge(&mut self, rec: &LogRecord, payload_len: usize) {
        // Row-level: only a truncated response row is stored.
        let stored = payload_len.min(CSV_ROW_CAP);
        self.core.charge(rec.size_with(stored));
    }

    fn append_precharged(&mut self, mut rec: LogRecord) {
        if rec.payload.len() > CSV_ROW_CAP {
            rec.payload.truncate(CSV_ROW_CAP);
        }
        self.core.store(rec);
    }

    fn chain_head(&mut self) -> [u8; 32] {
        self.core.head()
    }

    fn records(&self) -> usize {
        self.core.records.len()
    }
    fn bytes(&self) -> u64 {
        self.core.bytes
    }
    fn redact_unit(&mut self, unit: UnitId) -> usize {
        self.core.redact_unit(unit)
    }
    fn scan(&self, needle: &[u8]) -> usize {
        self.core.scan(needle)
    }
    fn verify_chain(&mut self) -> bool {
        self.core.verify()
    }
    fn expire_before(&mut self, before: datacase_sim::time::Ts) -> usize {
        self.core.expire_before(before)
    }
}

/// The query text [`FullQueryLogger`] synthesises for a record.
fn query_text(rec: &LogRecord) -> String {
    format!(
        "{} unit={} purpose={} entity={};",
        rec.op,
        rec.unit.map(|u| u.0).unwrap_or(0),
        rec.purpose,
        rec.entity
    )
}

/// P_GBench: full query + response logging ("logging all queries and
/// responses (no csv logs)"). Keeps the whole payload plus the query text,
/// so it is strictly chattier than row-level CSV.
pub struct FullQueryLogger {
    core: LogCore,
}

impl FullQueryLogger {
    /// A fresh full-query logger.
    pub fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> FullQueryLogger {
        FullQueryLogger {
            core: LogCore::new(key, clock, meter),
        }
    }
}

impl AuditLogger for FullQueryLogger {
    fn name(&self) -> &'static str {
        "full query+response (P_GBench)"
    }

    fn charge(&mut self, rec: &LogRecord, payload_len: usize) {
        // The stored payload is the synthesised query text plus the
        // response payload.
        let query_len = query_text(rec).len();
        self.core
            .charge(40 + rec.op.len() + query_len + payload_len);
    }

    fn append_precharged(&mut self, mut rec: LogRecord) {
        let mut payload = query_text(&rec).into_bytes();
        payload.extend_from_slice(&rec.payload);
        rec.payload = payload;
        self.core.store(rec);
    }

    fn chain_head(&mut self) -> [u8; 32] {
        self.core.head()
    }

    fn records(&self) -> usize {
        self.core.records.len()
    }
    fn bytes(&self) -> u64 {
        self.core.bytes
    }
    fn redact_unit(&mut self, unit: UnitId) -> usize {
        self.core.redact_unit(unit)
    }
    fn scan(&self, needle: &[u8]) -> usize {
        self.core.scan(needle)
    }
    fn verify_chain(&mut self) -> bool {
        self.core.verify()
    }
    fn expire_before(&mut self, before: datacase_sim::time::Ts) -> usize {
        self.core.expire_before(before)
    }
}

/// P_SYS: encrypted logging (AES-128) with per-unit deletion. Payloads are
/// stored as ciphertext; scanning for plaintext finds nothing, and erasing
/// a unit redacts its records. The cipher schedule is expanded once at
/// construction.
pub struct EncryptedLogger {
    core: LogCore,
    cipher: AesCtr,
}

impl EncryptedLogger {
    /// A fresh encrypted logger (AES-128, as P_SYS specifies), deriving
    /// its payload key by hashing `key`. Construction-heavy call sites
    /// (tests, benches constructing many loggers) can pre-expand once and
    /// use [`with_cipher`](EncryptedLogger::with_cipher) instead.
    pub fn new(key: &[u8], clock: SimClock, meter: std::sync::Arc<Meter>) -> EncryptedLogger {
        let digest = datacase_crypto::sha256::Sha256::digest(key);
        Self::with_cipher(
            AesCtr::from_key(KeySize::Aes128, &digest[..16]),
            key,
            clock,
            meter,
        )
    }

    /// A logger reusing an already-expanded payload cipher — no hashing,
    /// no key expansion. `chain_key` seals the tamper-evidence chain
    /// exactly as in [`new`](EncryptedLogger::new).
    pub fn with_cipher(
        cipher: AesCtr,
        chain_key: &[u8],
        clock: SimClock,
        meter: std::sync::Arc<Meter>,
    ) -> EncryptedLogger {
        EncryptedLogger {
            cipher,
            core: LogCore::new(chain_key, clock, meter),
        }
    }

    /// Rebuild the payload cipher under `backend` (see
    /// [`AesCtr::with_backend`]) — per-logger, for A/B bench engines.
    /// Ciphertext bytes are unchanged, only the implementation measured.
    pub fn with_crypto_backend(
        mut self,
        backend: datacase_crypto::CryptoBackend,
    ) -> EncryptedLogger {
        self.cipher = self.cipher.with_backend(backend);
        self
    }
}

impl AuditLogger for EncryptedLogger {
    fn name(&self) -> &'static str {
        "encrypted AES-128 (P_SYS)"
    }

    fn charge(&mut self, rec: &LogRecord, payload_len: usize) {
        self.core
            .clock
            .charge(self.core.clock.model().aes_cost(128, payload_len));
        Meter::bump(&self.core.meter.crypto_bytes, payload_len as u64);
        // AES-CTR: ciphertext length equals plaintext length.
        self.core.charge(rec.size_with(payload_len));
    }

    fn append_precharged(&mut self, mut rec: LogRecord) {
        self.cipher
            .apply(AesCtr::iv_from_nonce(rec.seq), &mut rec.payload);
        self.core.store(rec);
    }

    fn chain_head(&mut self) -> [u8; 32] {
        self.core.head()
    }

    fn records(&self) -> usize {
        self.core.records.len()
    }
    fn bytes(&self) -> u64 {
        self.core.bytes
    }
    fn redact_unit(&mut self, unit: UnitId) -> usize {
        self.core.redact_unit(unit)
    }
    fn scan(&self, needle: &[u8]) -> usize {
        self.core.scan(needle)
    }
    fn verify_chain(&mut self) -> bool {
        self.core.verify()
    }
    fn expire_before(&mut self, before: datacase_sim::time::Ts) -> usize {
        self.core.expire_before(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_core::ids::EntityId;
    use datacase_core::purpose::well_known as wk;
    use datacase_sim::time::Ts;
    use std::sync::Arc;

    fn rec(seq: u64, unit: u64, payload: &[u8]) -> LogRecord {
        LogRecord {
            seq,
            at: Ts::from_secs(seq),
            unit: Some(UnitId(unit)),
            entity: EntityId(1),
            purpose: wk::billing(),
            op: "read".into(),
            payload: payload.to_vec(),
            redacted: false,
        }
    }

    fn backends() -> Vec<Box<dyn AuditLogger>> {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        vec![
            Box::new(CsvRowLogger::new(b"k", clock.clone(), meter.clone())),
            Box::new(FullQueryLogger::new(b"k", clock.clone(), meter.clone())),
            Box::new(EncryptedLogger::new(b"k", clock, meter)),
        ]
    }

    #[test]
    fn all_backends_log_and_verify() {
        for mut b in backends() {
            b.log(rec(1, 1, b"payload-a"));
            b.log(rec(2, 2, b"payload-b"));
            assert_eq!(b.records(), 2, "{}", b.name());
            assert!(b.bytes() > 0);
            assert!(b.verify_chain(), "{}", b.name());
        }
    }

    #[test]
    fn full_query_logs_more_bytes_than_csv() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut csv = CsvRowLogger::new(b"k", clock.clone(), meter.clone());
        let mut full = FullQueryLogger::new(b"k", clock, meter);
        let payload = vec![7u8; 100];
        csv.log(rec(1, 1, &payload));
        full.log(rec(1, 1, &payload));
        assert!(
            full.bytes() > csv.bytes(),
            "full {} vs csv {}",
            full.bytes(),
            csv.bytes()
        );
    }

    #[test]
    fn encrypted_logger_hides_plaintext() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut enc = EncryptedLogger::new(b"k", clock.clone(), meter.clone());
        let mut csv = CsvRowLogger::new(b"k", clock, meter);
        enc.log(rec(1, 1, b"SECRET-PII-IN-LOG"));
        csv.log(rec(1, 1, b"SECRET-PII-IN-LOG"));
        assert_eq!(enc.scan(b"SECRET-PII"), 0, "ciphertext at rest");
        assert_eq!(csv.scan(b"SECRET-PII"), 1, "csv keeps plaintext");
    }

    #[test]
    fn redact_unit_blanks_and_reseals() {
        for mut b in backends() {
            b.log(rec(1, 7, b"unit7-first"));
            b.log(rec(2, 8, b"unit8-data"));
            b.log(rec(3, 7, b"unit7-second"));
            let n = b.redact_unit(UnitId(7));
            assert_eq!(n, 2, "{}", b.name());
            assert_eq!(b.scan(b"unit7"), 0, "{}", b.name());
            assert!(b.verify_chain(), "chain resealed: {}", b.name());
            assert_eq!(b.records(), 3, "records preserved, payloads blanked");
        }
    }

    #[test]
    fn expire_before_drops_old_records() {
        for mut b in backends() {
            b.log(rec(1, 1, b"old"));
            b.log(rec(100, 2, b"new"));
            let dropped = b.expire_before(Ts::from_secs(50));
            assert_eq!(dropped, 1, "{}", b.name());
            assert_eq!(b.records(), 1);
            assert!(b.verify_chain(), "{}", b.name());
        }
    }

    #[test]
    fn csv_truncates_row_payloads() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut csv = CsvRowLogger::new(b"k", clock, meter);
        csv.log(rec(1, 1, &vec![9u8; 500]));
        assert!(csv.bytes() < 200, "row-level keeps it compact");
    }

    #[test]
    fn charge_then_append_equals_log() {
        // The split halves must compose to exactly what log() does —
        // same bytes, same meter counts, same clock charges, same chain.
        for (mut split, mut whole) in backends().into_iter().zip(backends()) {
            let r = rec(1, 1, b"some-payload-bytes");
            split.charge(&r, r.payload.len());
            split.append_precharged(r.clone());
            whole.log(r);
            assert_eq!(split.records(), whole.records(), "{}", split.name());
            assert_eq!(split.bytes(), whole.bytes(), "{}", split.name());
            assert_eq!(split.chain_head(), whole.chain_head(), "{}", split.name());
        }
    }

    #[test]
    fn with_cipher_matches_new() {
        // The cheap constructor must be observationally identical to the
        // hashing one: same ciphertext at rest, same chain.
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let digest = datacase_crypto::sha256::Sha256::digest(b"k");
        let cipher = AesCtr::from_key(KeySize::Aes128, &digest[..16]);
        let mut cheap = EncryptedLogger::with_cipher(cipher, b"k", clock.clone(), meter.clone());
        let mut hashed = EncryptedLogger::new(b"k", clock, meter);
        cheap.log(rec(1, 1, b"payload"));
        hashed.log(rec(1, 1, b"payload"));
        assert_eq!(cheap.chain_head(), hashed.chain_head());
        assert_eq!(cheap.bytes(), hashed.bytes());
    }

    #[test]
    fn chain_head_distinguishes_diverging_logs() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut a = CsvRowLogger::new(b"k", clock.clone(), meter.clone());
        let mut b = CsvRowLogger::new(b"k", clock, meter);
        a.log(rec(1, 1, b"same"));
        b.log(rec(1, 1, b"same"));
        assert_eq!(a.chain_head(), b.chain_head());
        b.log(rec(2, 1, b"extra"));
        assert_ne!(a.chain_head(), b.chain_head());
    }

    #[test]
    fn logging_charges_cost_and_meter() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut b = CsvRowLogger::new(b"k", clock.clone(), meter.clone());
        let t0 = clock.now();
        b.log(rec(1, 1, b"x"));
        assert!(clock.now() > t0);
        assert_eq!(meter.snapshot().log_records, 1);
    }
}
