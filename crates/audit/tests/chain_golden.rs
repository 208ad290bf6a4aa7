//! Golden chain-head vector: the audit chain's evidence bytes must never
//! drift.
//!
//! A fixed sequence of 1000 [`LogRecord`]s is chained under a fixed key
//! and the head MAC is compared against a pinned hex value. Any change to
//! `LogRecord::chain_bytes`, `HmacChain::extend`, HMAC-SHA-256 or the
//! SHA-256 compression underneath it that alters one output byte fails
//! here. The records come from a local SplitMix64, so no generator
//! elsewhere in the workspace can move the vector either.

use datacase_audit::{HmacChain, LogRecord};
use datacase_core::ids::{EntityId, UnitId};
use datacase_core::purpose::well_known as wk;
use datacase_core::purpose::PurposeId;
use datacase_sim::time::Ts;

/// The head after chaining [`golden_records`] under `b"golden-audit-key"`.
const GOLDEN_HEAD: &str = "c15dc8c3eb52ebeb1526f3656daa93766185c82339c1b2f3d71d3d32e11e4db9";

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 1000 records covering every field's shapes: unit-less records,
/// every well-known purpose, empty to 1.2 KiB payloads (so the MAC input
/// crosses the SHA-256 padding boundaries), and redacted records.
fn golden_records() -> Vec<LogRecord> {
    let purposes: [fn() -> PurposeId; 9] = [
        wk::billing,
        wk::retention,
        wk::advertising,
        wk::analytics,
        wk::compliance_erase,
        wk::contract,
        wk::audit,
        wk::smart_space,
        wk::subject_access,
    ];
    let ops = [
        "read",
        "update",
        "update-meta",
        "insert",
        "delete",
        "SELECT * FROM t",
    ];
    let mut rng = SplitMix64(0x00da_7aca_5e00_0001);
    (0..1000u64)
        .map(|seq| {
            let redacted = rng.below(7) == 0;
            let payload_len = match rng.below(4) {
                0 => rng.below(64),
                1 => 40 + rng.below(120),
                2 => 1024 + rng.below(160),
                _ => rng.below(300),
            };
            let payload = if redacted {
                Vec::new()
            } else {
                (0..payload_len).map(|_| rng.next() as u8).collect()
            };
            LogRecord {
                seq,
                at: Ts::from_micros(seq * 1_000 + rng.below(1_000)),
                unit: (rng.below(5) != 0).then(|| UnitId(rng.below(10_000))),
                entity: EntityId(rng.below(64) as u32),
                purpose: purposes[rng.below(purposes.len() as u64) as usize](),
                op: ops[rng.below(ops.len() as u64) as usize].to_string(),
                payload,
                redacted,
            }
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_chain_head_is_pinned() {
    let records = golden_records();
    let mut chain = HmacChain::new(b"golden-audit-key");
    for r in &records {
        chain.extend(&r.chain_bytes());
    }
    assert_eq!(chain.links(), 1000);
    assert_eq!(hex(&chain.head()), GOLDEN_HEAD);
    assert!(chain.verify(
        b"golden-audit-key",
        records.iter().map(LogRecord::chain_bytes)
    ));
}
