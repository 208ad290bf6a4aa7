#![warn(missing_docs)]
//! # datacase-crypto
//!
//! From-scratch cryptographic primitives for the Data-CASE reproduction.
//!
//! The paper's compliance profiles encrypt data at rest: P_Base uses AES-256,
//! P_SYS uses AES-128, and P_GBench uses LUKS (SHA-256-keyed) full-disk
//! encryption. No cryptography crates are available offline, so this crate
//! implements the standards directly and validates them against the official
//! test vectors (FIPS-197 Appendix C, NIST SP 800-38A, FIPS-180-4, RFC 4231).
//!
//! **Scope note:** these implementations are table-driven and *not*
//! constant-time; they exist to reproduce the computational and storage
//! behaviour of encrypted data paths inside a simulator, not to protect real
//! secrets.
//!
//! The hot path is throughput-oriented and **backend-dispatched**: the
//! [`backend::CryptoBackend`] selector picks between hardware AES-NI
//! ([`aesni`], runtime-detected on x86_64), the software fused-T-table
//! path with x4-batched keystream and u128-lane XOR ([`aes`]/[`ctr`]),
//! and the retained byte-oriented reference rounds (`*_ref` entry
//! points) that a property-based equivalence gate pins both fast paths
//! against — see the workspace `tests/prop_crypto.rs`. The per-unit
//! [`vault`] caches expanded key schedules (hardware round keys
//! included) per live unit.
//!
//! The hash lane has no selector: [`sha256`] compresses on SHA-NI
//! ([`shani`]) whenever the host has it and on the portable rounds
//! otherwise, and the same equivalence gate calls both directly. The
//! audit chain's HMAC, the sector ESSIV hash, vault key derivation and
//! PBKDF2 all run on it.
//!
//! Modules:
//! * [`aes`] — AES-128/192/256 block cipher (encrypt + decrypt).
//! * [`aesni`] — hardware AES via `std::arch` intrinsics.
//! * [`backend`] — the `Auto`/`Software`/`Hardware`/`Reference` selector.
//! * [`ctr`] — AES-CTR stream mode used for tuple- and page-level encryption.
//! * [`sha256`] — SHA-256 digest.
//! * [`shani`] — hardware SHA-256 compression via `std::arch` intrinsics.
//! * [`hmac`] — HMAC-SHA-256, with keys prepared once ([`hmac::HmacKey`]).
//! * [`kdf`] — a LUKS-flavoured iterated-hash key-derivation shim.
//! * [`vault`] — per-data-unit key vault enabling *crypto-erasure* (destroy
//!   the key ⇒ ciphertext is permanently unreadable), the alternative
//!   grounding of permanent deletion discussed in the paper's related work.
//! * [`sector`] — sector/page encryption helper emulating LUKS-style
//!   disk-layer encryption for the P_GBench profile.
//!
//! [`aesni`] and [`shani`] are the crate's only modules with `unsafe`
//! code. Each confines it behind one checked constructor that detects the
//! CPU feature; both compile out with the `hw-aes` feature disabled.

pub mod aes;
pub mod aesni;
pub mod backend;
pub mod ctr;
pub mod hmac;
pub mod kdf;
pub mod sector;
pub mod sha256;
pub mod shani;
pub mod vault;

pub use aes::{Aes, KeySize};
pub use backend::{ActiveBackend, CryptoBackend};
pub use ctr::AesCtr;
pub use sha256::Sha256;

/// Constant-time equality for secret material (tokens, MACs).
///
/// Inequality of *lengths* is revealed — lengths are public for every
/// caller here — but for equal-length inputs the comparison touches all
/// bytes and accumulates differences with XOR, so timing does not leak
/// *where* two values diverge. [`std::hint::black_box`] keeps the
/// accumulator from being short-circuited by the optimiser.
///
/// The gateway's Hello handshake uses this for tenant-token checks; a
/// naive early-exit `==` would let a byte-at-a-time guessing attack
/// walk the token.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    std::hint::black_box(diff) == 0
}

#[cfg(test)]
mod ct_tests {
    use super::ct_eq;

    #[test]
    fn ct_eq_matches_plain_equality() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"secret-token", b"secret-token"));
        assert!(!ct_eq(b"secret-token", b"secret-tokeN"));
        assert!(!ct_eq(b"secret-token", b"Xecret-token"));
        assert!(!ct_eq(b"short", b"longer-value"));
        assert!(!ct_eq(b"a", b""));
    }

    #[test]
    fn ct_eq_catches_single_bit_differences_at_every_position() {
        let a = [0x5Au8; 32];
        for pos in 0..a.len() {
            for bit in 0..8 {
                let mut b = a;
                b[pos] ^= 1 << bit;
                assert!(!ct_eq(&a, &b), "flip at byte {pos} bit {bit}");
            }
        }
    }
}
