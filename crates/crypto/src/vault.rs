//! Per-data-unit key vault for *crypto-erasure*.
//!
//! The paper's related work (\[66\] "Purging compliance from database backups
//! by encryption") motivates an alternative grounding of **permanent
//! deletion**: encrypt each data unit under its own key and destroy the key
//! on erasure. The ciphertext may physically persist (in backups, WAL, old
//! SSTable runs) yet the unit is unrecoverable — a *non-invertible*
//! transformation in Data-CASE terms. The engine's crypto-erasure ablation
//! compares this against VACUUM FULL + drive sanitisation.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::aes::KeySize;
use crate::backend::CryptoBackend;
use crate::ctr::AesCtr;
use crate::sha256::Sha256;

/// Errors surfaced by the vault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VaultError {
    /// No live key for the requested unit (never created, or destroyed).
    KeyUnavailable(u64),
}

impl std::fmt::Display for VaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VaultError::KeyUnavailable(id) => {
                write!(
                    f,
                    "no live key for data unit {id} (destroyed or never created)"
                )
            }
        }
    }
}

impl std::error::Error for VaultError {}

/// One cached keystream segment: the CTR stream for a (unit, IV) pair
/// from block 0, stamped with the key generation it was generated under.
///
/// Only *keystream* is cached — never plaintext, never ciphertext — so a
/// cache entry on its own reveals nothing about the data it protected:
/// the encryption-at-rest capsule stays sealed.
#[derive(Debug)]
struct KeystreamEntry {
    generation: u64,
    keystream: Vec<u8>,
}

/// State of a unit's key, kept for audit purposes after destruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyState {
    /// Key material is live and usable.
    Live,
    /// Key material has been destroyed (crypto-erased).
    Destroyed,
}

/// A vault holding one symmetric key per data unit.
///
/// Keys are derived deterministically from a vault master secret and the
/// unit id, then stored; destroying a key removes the material and records
/// a tombstone so audits can prove *when* erasure became irreversible.
///
/// The vault also owns each live key's **expanded schedule**: the
/// [`AesCtr`] is built once when the key materialises and handed out as a
/// shared [`Arc`] by [`cipher`](KeyVault::cipher), so per-operation crypto
/// never re-runs key expansion. [`destroy_key`](KeyVault::destroy_key)
/// drops the cached schedule together with the key material — after it,
/// no path through the vault can reach a working cipher, which is what
/// keeps crypto-erasure semantics intact under caching.
#[derive(Debug)]
pub struct KeyVault {
    master: [u8; 32],
    size: KeySize,
    keys: HashMap<u64, Vec<u8>>,
    schedules: HashMap<u64, Arc<AesCtr>>,
    states: HashMap<u64, KeyState>,
    /// Monotonic per-unit key generation, bumped by every
    /// [`destroy_key`](KeyVault::destroy_key) and hashed into the
    /// derivation — so no destroyed generation's material can ever be
    /// re-derived, no matter how many destroy/recreate cycles a unit
    /// goes through.
    generations: HashMap<u64, u64>,
    /// The backend every schedule in this vault is expanded under — a
    /// **construction-time invariant**: the builder asserts no schedule
    /// exists yet, so a vault can never hold mixed-backend schedules.
    backend: CryptoBackend,
    /// Bounded keystream cache for repeated same-IV re-reads (zipfian
    /// hot tuples). `0` capacity disables it. See
    /// [`keystream_apply`](KeyVault::keystream_apply).
    ks_cache: HashMap<(u64, [u8; 16]), KeystreamEntry>,
    /// Insertion order of `ks_cache` keys — deterministic FIFO eviction.
    ks_order: VecDeque<(u64, [u8; 16])>,
    /// Maximum number of cached keystream segments.
    ks_capacity: usize,
}

impl KeyVault {
    /// A vault deriving keys of the given size from `master_secret`.
    pub fn new(master_secret: &[u8], size: KeySize) -> KeyVault {
        KeyVault {
            master: Sha256::digest(master_secret),
            size,
            keys: HashMap::new(),
            schedules: HashMap::new(),
            states: HashMap::new(),
            generations: HashMap::new(),
            backend: CryptoBackend::Auto,
            ks_cache: HashMap::new(),
            ks_order: VecDeque::new(),
            ks_capacity: 0,
        }
    }

    /// Enable the keystream cache with room for `capacity` (unit, IV)
    /// segments (`0` disables it — the default, so measured crypto costs
    /// stay paper-faithful unless a configuration opts in).
    pub fn with_keystream_cache(mut self, capacity: usize) -> KeyVault {
        self.ks_capacity = capacity;
        self
    }

    /// Expand every schedule in this vault under `backend` — per-vault,
    /// so one bench engine's A/B cannot reroute any other engine in the
    /// process. Derived key *material* is unchanged (the backends are
    /// byte-identical); only expansion and round implementation differ.
    ///
    /// Must be called before any key materialises: the backend is a
    /// construction-time invariant, so a vault can never hold schedules
    /// expanded by different backends.
    ///
    /// # Panics
    /// Panics if any schedule has already been expanded.
    pub fn with_backend(mut self, backend: CryptoBackend) -> KeyVault {
        assert!(
            self.schedules.is_empty(),
            "KeyVault backend is a construction-time invariant: set it \
             before the first ensure_key, not after schedules exist"
        );
        self.backend = backend;
        self
    }

    /// The backend this vault expands schedules under.
    pub fn backend(&self) -> CryptoBackend {
        self.backend
    }

    /// The configured key size.
    pub fn key_size(&self) -> KeySize {
        self.size
    }

    /// Create (or return the existing) key for `unit`, expanding its
    /// cipher schedule into the cache alongside.
    pub fn ensure_key(&mut self, unit: u64) -> &[u8] {
        // A destroyed key must never be silently recreated with the same
        // material: every destroy bumped the unit's generation, and the
        // generation is hashed into the derivation.
        let generation = self.generations.get(&unit).copied().unwrap_or(0);
        self.states.insert(unit, KeyState::Live);
        if !self.keys.contains_key(&unit) {
            let key = Self::derive_raw(&self.master, self.size, unit, generation);
            self.schedules.insert(
                unit,
                Arc::new(AesCtr::from_key(self.size, &key).with_backend(self.backend)),
            );
            self.keys.insert(unit, key);
        }
        self.keys.get(&unit).expect("just ensured")
    }

    fn derive_raw(master: &[u8; 32], size: KeySize, unit: u64, generation: u64) -> Vec<u8> {
        let mut h = Sha256::new();
        h.update(master);
        h.update(&unit.to_be_bytes());
        h.update(&generation.to_be_bytes());
        let d = h.finalize();
        match size {
            KeySize::Aes128 => d[..16].to_vec(),
            KeySize::Aes192 => d[..24].to_vec(),
            KeySize::Aes256 => {
                let mut h2 = Sha256::new();
                h2.update(&d);
                h2.update(b"ext");
                let d2 = h2.finalize();
                let mut k = d.to_vec();
                k.truncate(16);
                k.extend_from_slice(&d2[..16]);
                k
            }
        }
    }

    /// The unit's CTR cipher, if its key is live — a shared handle to the
    /// schedule expanded once at [`ensure_key`](KeyVault::ensure_key)
    /// time, cheap enough to hand to every operation (and to deferred
    /// decrypt jobs that outlive the borrow of the vault).
    pub fn cipher(&self, unit: u64) -> Result<Arc<AesCtr>, VaultError> {
        match self.schedules.get(&unit) {
            Some(c) => {
                // The construction-time invariant makes a mismatch
                // unreachable; the assertion guards against future
                // refactors reintroducing post-construction rerouting
                // (mixed-backend streams are a silent perf lie).
                debug_assert_eq!(
                    c.active_backend(),
                    self.backend.resolve(),
                    "cached schedule was built by a different backend"
                );
                Ok(Arc::clone(c))
            }
            None => Err(VaultError::KeyUnavailable(unit)),
        }
    }

    /// Apply the unit's CTR stream for `iv` to `data` via the keystream
    /// cache: a hit XORs the cached stream (no AES at all), a miss (or a
    /// too-short entry) generates the uncovered blocks through the
    /// unit's cipher and caches them for the next same-IV operation —
    /// exactly the hot-tuple re-read pattern of zipfian workloads, where
    /// the IV is bound to the unit and never changes.
    ///
    /// Returns `Ok(true)` if the cache served (fully or after extension),
    /// `Ok(false)` if caching is disabled (caller takes the ordinary
    /// [`cipher`](KeyVault::cipher) path), and `Err` if the unit's key is
    /// destroyed or was never created. Output bytes are identical to
    /// `cipher(unit)?.apply(iv, data)` in every case.
    ///
    /// Entries are stamped with the unit's key generation: a destroyed
    /// key's stream can never be served for a recreated key, even though
    /// [`destroy_key`](KeyVault::destroy_key) also drops the entries
    /// eagerly (the stamp is defence in depth).
    pub fn keystream_apply(
        &mut self,
        unit: u64,
        iv: [u8; 16],
        data: &mut [u8],
    ) -> Result<bool, VaultError> {
        if self.ks_capacity == 0 {
            return Ok(false);
        }
        let cipher = match self.schedules.get(&unit) {
            Some(c) => {
                debug_assert_eq!(
                    c.active_backend(),
                    self.backend.resolve(),
                    "cached schedule was built by a different backend"
                );
                Arc::clone(c)
            }
            None => return Err(VaultError::KeyUnavailable(unit)),
        };
        let generation = self.generations.get(&unit).copied().unwrap_or(0);
        let needed = data.len().next_multiple_of(16);
        let key = (unit, iv);
        let stale = self
            .ks_cache
            .get(&key)
            .is_some_and(|e| e.generation != generation);
        if stale {
            self.ks_cache.remove(&key);
            self.ks_order.retain(|k| *k != key);
        }
        let entry = match self.ks_cache.get_mut(&key) {
            Some(e) => e,
            None => {
                if self.ks_cache.len() >= self.ks_capacity {
                    if let Some(oldest) = self.ks_order.pop_front() {
                        self.ks_cache.remove(&oldest);
                    }
                }
                self.ks_order.push_back(key);
                self.ks_cache.entry(key).or_insert(KeystreamEntry {
                    generation,
                    keystream: Vec::new(),
                })
            }
        };
        if entry.keystream.len() < needed {
            // Keystream is the encryption of zeros: extend the cached
            // prefix by running the cipher from the first uncovered block.
            let covered_blocks = (entry.keystream.len() / 16) as u64;
            let mut suffix = vec![0u8; needed - entry.keystream.len()];
            cipher.apply_at(iv, covered_blocks, &mut suffix);
            entry.keystream.extend_from_slice(&suffix);
        }
        for (d, k) in data.iter_mut().zip(entry.keystream.iter()) {
            *d ^= k;
        }
        Ok(true)
    }

    /// Drop every cached keystream segment for `unit` without touching
    /// its key — the cache-invalidation half of
    /// [`destroy_key`](KeyVault::destroy_key), exposed for purge paths
    /// that scrub a unit's physical traces while the key stays live.
    pub fn purge_unit(&mut self, unit: u64) {
        self.ks_cache.retain(|(u, _), _| *u != unit);
        self.ks_order.retain(|(u, _)| *u != unit);
    }

    /// Cached keystream segments currently held (tests and space
    /// accounting).
    pub fn cached_keystreams(&self) -> usize {
        self.ks_cache.len()
    }

    /// Destroy the key for `unit` — the crypto-erasure system-action.
    ///
    /// Returns true if a live key existed. After this call, ciphertexts of
    /// the unit are permanently unreadable through the vault: both the key
    /// material and its cached cipher schedule are dropped. (Handles
    /// already held by in-flight work finish their operation — exactly
    /// like sequential execution, where the erase only takes effect after
    /// the preceding operation completed.)
    pub fn destroy_key(&mut self, unit: u64) -> bool {
        let existed = self.keys.remove(&unit).is_some();
        self.schedules.remove(&unit);
        // Cached keystream goes with the key: XORing it with ciphertext
        // would reveal plaintext, so erasure must not leave it behind.
        self.purge_unit(unit);
        if existed {
            self.states.insert(unit, KeyState::Destroyed);
            *self.generations.entry(unit).or_insert(0) += 1;
        }
        existed
    }

    /// Audit view: the key state for `unit`, if it was ever created.
    pub fn key_state(&self, unit: u64) -> Option<KeyState> {
        self.states.get(&unit).copied()
    }

    /// Number of live keys (contributes to metadata space accounting).
    pub fn live_keys(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::AesCtr;

    #[test]
    fn roundtrip_through_unit_cipher() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        v.ensure_key(7);
        let c = v.cipher(7).unwrap();
        let mut data = b"personal data".to_vec();
        c.apply(AesCtr::iv_from_nonce(7), &mut data);
        assert_ne!(&data, b"personal data");
        c.apply(AesCtr::iv_from_nonce(7), &mut data);
        assert_eq!(&data, b"personal data");
    }

    #[test]
    fn destroy_makes_cipher_unavailable() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256);
        v.ensure_key(1);
        assert!(v.destroy_key(1));
        assert_eq!(v.cipher(1).unwrap_err(), VaultError::KeyUnavailable(1));
        assert_eq!(v.key_state(1), Some(KeyState::Destroyed));
        assert!(!v.destroy_key(1), "double destroy reports no live key");
    }

    #[test]
    fn recreated_key_differs_from_destroyed_one() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        let k1 = v.ensure_key(9).to_vec();
        v.destroy_key(9);
        let k2 = v.ensure_key(9).to_vec();
        assert_ne!(k1, k2, "a destroyed key must never come back");
    }

    #[test]
    fn distinct_units_have_distinct_keys() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256);
        let a = v.ensure_key(1).to_vec();
        let b = v.ensure_key(2).to_vec();
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn key_sizes_respected() {
        for (size, len) in [
            (KeySize::Aes128, 16),
            (KeySize::Aes192, 24),
            (KeySize::Aes256, 32),
        ] {
            let mut v = KeyVault::new(b"m", size);
            assert_eq!(v.ensure_key(1).len(), len);
        }
    }

    #[test]
    fn destroy_drops_cached_schedule_and_blocks_reencryption() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        v.ensure_key(5);
        let cipher = v.cipher(5).unwrap();
        let mut data = b"unit-5-plaintext".to_vec();
        cipher.apply(AesCtr::iv_from_nonce(5), &mut data);
        v.destroy_key(5);
        // The cached schedule went with the key: any attempt to encrypt
        // or decrypt through the vault now fails typed.
        assert_eq!(v.cipher(5).unwrap_err(), VaultError::KeyUnavailable(5));
        // A handle obtained before the destroy still works (in-flight
        // operations complete, like sequential execution), but the vault
        // itself can never mint another.
        cipher.apply(AesCtr::iv_from_nonce(5), &mut data);
        assert_eq!(&data, b"unit-5-plaintext");
    }

    #[test]
    fn destroyed_generations_never_return_across_cycles() {
        // The generation counter is monotonic: a second (third, …)
        // destroy/recreate cycle must not resurrect any previously
        // destroyed generation's material.
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        let mut seen: Vec<Vec<u8>> = Vec::new();
        for cycle in 0..4 {
            let key = v.ensure_key(11).to_vec();
            assert!(
                !seen.contains(&key),
                "cycle {cycle} re-derived a destroyed generation's key"
            );
            seen.push(key);
            v.destroy_key(11);
        }
    }

    #[test]
    fn cached_schedule_is_shared_not_reexpanded() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256);
        v.ensure_key(3);
        let a = v.cipher(3).unwrap();
        let b = v.cipher(3).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "cipher() must hand out the one cached schedule"
        );
    }

    #[test]
    fn recreated_key_gets_fresh_schedule() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        v.ensure_key(9);
        let old = v.cipher(9).unwrap();
        v.destroy_key(9);
        v.ensure_key(9);
        let new = v.cipher(9).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        // And the fresh schedule encrypts under the *new* generation.
        let mut a = b"x".repeat(32);
        let mut b = a.clone();
        old.apply(AesCtr::iv_from_nonce(9), &mut a);
        new.apply(AesCtr::iv_from_nonce(9), &mut b);
        assert_ne!(a, b, "destroyed-generation keystream must not return");
    }

    #[test]
    fn keystream_cache_matches_direct_cipher_and_extends() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(8);
        v.ensure_key(4);
        let iv = AesCtr::iv_from_nonce(4);
        let plain: Vec<u8> = (0..100).map(|i| i as u8).collect();
        // Cold: generates + caches. Warm: served from cache. Longer than
        // cached: extends the segment. All byte-identical to the cipher.
        for len in [40usize, 40, 100, 7] {
            let mut via_cache = plain[..len].to_vec();
            assert_eq!(v.keystream_apply(4, iv, &mut via_cache), Ok(true));
            let mut direct = plain[..len].to_vec();
            v.cipher(4).unwrap().apply(iv, &mut direct);
            assert_eq!(via_cache, direct, "len {len}");
        }
        assert_eq!(v.cached_keystreams(), 1, "one (unit, iv) segment");
    }

    #[test]
    fn keystream_cache_disabled_returns_false() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128);
        v.ensure_key(1);
        let mut data = vec![0xAB; 32];
        assert_eq!(
            v.keystream_apply(1, AesCtr::iv_from_nonce(1), &mut data),
            Ok(false)
        );
        assert_eq!(data, vec![0xAB; 32], "disabled cache must not touch data");
    }

    #[test]
    fn destroy_key_purges_cached_keystream() {
        let mut v = KeyVault::new(b"master", KeySize::Aes256).with_keystream_cache(8);
        v.ensure_key(6);
        let iv = AesCtr::iv_from_nonce(6);
        let mut data = vec![0u8; 64];
        v.keystream_apply(6, iv, &mut data).unwrap();
        assert_eq!(v.cached_keystreams(), 1);
        v.destroy_key(6);
        assert_eq!(
            v.cached_keystreams(),
            0,
            "keystream must not outlive the key"
        );
        let mut again = vec![0u8; 64];
        assert_eq!(
            v.keystream_apply(6, iv, &mut again),
            Err(VaultError::KeyUnavailable(6)),
            "no stale keystream after crypto-erasure"
        );
    }

    #[test]
    fn purge_unit_invalidates_cache_but_keeps_key() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(8);
        v.ensure_key(2);
        let iv = AesCtr::iv_from_nonce(2);
        let mut data = vec![0u8; 32];
        v.keystream_apply(2, iv, &mut data).unwrap();
        v.purge_unit(2);
        assert_eq!(v.cached_keystreams(), 0);
        // Key still live: the next apply regenerates and still matches.
        let mut a = b"regenerated-after-purge!".to_vec();
        let mut b = a.clone();
        assert_eq!(v.keystream_apply(2, iv, &mut a), Ok(true));
        v.cipher(2).unwrap().apply(iv, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn recreated_key_never_sees_the_old_generations_stream() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(8);
        v.ensure_key(9);
        let iv = AesCtr::iv_from_nonce(9);
        let mut old_stream = vec![0u8; 32];
        v.keystream_apply(9, iv, &mut old_stream).unwrap();
        v.destroy_key(9);
        v.ensure_key(9);
        let mut new_stream = vec![0u8; 32];
        v.keystream_apply(9, iv, &mut new_stream).unwrap();
        assert_ne!(old_stream, new_stream, "generations must not alias");
        let mut direct = vec![0u8; 32];
        v.cipher(9).unwrap().apply(iv, &mut direct);
        assert_eq!(new_stream, direct);
    }

    #[test]
    fn keystream_cache_capacity_is_bounded_fifo() {
        let mut v = KeyVault::new(b"master", KeySize::Aes128).with_keystream_cache(2);
        for unit in 1..=3u64 {
            v.ensure_key(unit);
            let mut data = vec![0u8; 16];
            v.keystream_apply(unit, AesCtr::iv_from_nonce(unit), &mut data)
                .unwrap();
        }
        assert_eq!(v.cached_keystreams(), 2, "oldest segment evicted");
        // The evicted (oldest) entry regenerates correctly on re-probe.
        let mut a = vec![0x11; 48];
        let mut b = a.clone();
        v.keystream_apply(1, AesCtr::iv_from_nonce(1), &mut a)
            .unwrap();
        v.cipher(1).unwrap().apply(AesCtr::iv_from_nonce(1), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn backend_is_a_construction_time_invariant() {
        // Setting the backend before any key exists is fine…
        let mut v = KeyVault::new(b"m", KeySize::Aes128).with_backend(CryptoBackend::Software);
        assert_eq!(v.backend(), CryptoBackend::Software);
        v.ensure_key(1);
        assert_eq!(
            v.cipher(1).unwrap().active_backend(),
            CryptoBackend::Software.resolve()
        );
    }

    #[test]
    #[should_panic(expected = "construction-time invariant")]
    fn backend_change_after_first_key_is_impossible() {
        let mut v = KeyVault::new(b"m", KeySize::Aes128);
        v.ensure_key(1);
        // A schedule exists: rerouting now would silently mix backends.
        let _ = v.with_backend(CryptoBackend::Reference);
    }

    #[test]
    fn all_backends_derive_identical_key_material() {
        for backend in [
            CryptoBackend::Auto,
            CryptoBackend::Software,
            CryptoBackend::Hardware,
            CryptoBackend::Reference,
        ] {
            let mut v = KeyVault::new(b"master", KeySize::Aes256).with_backend(backend);
            let mut base = KeyVault::new(b"master", KeySize::Aes256);
            assert_eq!(
                v.ensure_key(3),
                base.ensure_key(3),
                "backend {backend} changed derived key material"
            );
        }
    }

    #[test]
    fn live_key_count_tracks_lifecycle() {
        let mut v = KeyVault::new(b"m", KeySize::Aes128);
        v.ensure_key(1);
        v.ensure_key(2);
        assert_eq!(v.live_keys(), 2);
        v.destroy_key(1);
        assert_eq!(v.live_keys(), 1);
    }
}
