//! The simulated disk: page-granular persistent storage, optionally
//! encrypted at the sector layer (the LUKS shim used by P_GBench).
//!
//! The disk is the ground truth the forensic scanner inspects: whatever
//! bytes live here after an "erasure" are what a seized drive would
//! reveal. With sector encryption enabled, residuals are ciphertext and a
//! plaintext scan comes back clean — exactly the protection the paper's
//! profile P_GBench buys with LUKS.
//!
//! Every encrypted page read/write routes through
//! [`SectorCipher::apply`], whose page-sized buffers take the
//! whole-block T-table fast path (`AesCtr::apply_blocks`) — the sector
//! layer is the biggest per-byte AES consumer in the system, so this is
//! where the crypto overhaul pays the most.

use std::cell::RefCell;

use datacase_crypto::sector::SectorCipher;
use datacase_sim::{Meter, SimClock};

use crate::page::PAGE_SIZE;

/// A page-granular simulated disk.
///
/// Besides the live sector contents, the disk models *drive remanence*:
/// when a sector is overwritten, its previous content lingers at the
/// physical layer (one generation) until a sanitisation pass clears it.
/// This is the distinction between *strong* deletion (file-level bytes
/// gone after VACUUM FULL) and *permanent* deletion (drive sanitised per
/// NISP-style guidance \[21\] in the paper).
pub struct Disk {
    sectors: Vec<Vec<u8>>,
    remanence: Vec<Option<Vec<u8>>>,
    cipher: Option<SectorCipher>,
    clock: SimClock,
    meter: std::sync::Arc<Meter>,
    /// Direct-mapped sector-keystream cache: slot `sector % capacity`
    /// holds `(sector, keystream page)`. A sector's CTR keystream depends
    /// only on the disk key and the sector number — it never goes stale —
    /// so hot sectors cross the cipher as a XOR against the cached
    /// stream. `RefCell` because reads are `&self`; empty = disabled.
    ks_cache: RefCell<Vec<KeystreamSlot>>,
}

/// One direct-mapped cache slot: the resident sector and its keystream.
type KeystreamSlot = Option<(u32, Vec<u8>)>;

/// XOR a whole page against its keystream in u128 lanes.
fn xor_page(data: &mut [u8], ks: &[u8]) {
    debug_assert_eq!(data.len(), ks.len());
    for (d, k) in data.chunks_exact_mut(16).zip(ks.chunks_exact(16)) {
        let x =
            u128::from_ne_bytes(d.try_into().unwrap()) ^ u128::from_ne_bytes(k.try_into().unwrap());
        d.copy_from_slice(&x.to_ne_bytes());
    }
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("pages", &self.sectors.len())
            .field("encrypted", &self.cipher.is_some())
            .finish()
    }
}

impl Disk {
    /// An empty, unencrypted disk.
    pub fn new(clock: SimClock, meter: std::sync::Arc<Meter>) -> Disk {
        Disk {
            sectors: Vec::new(),
            remanence: Vec::new(),
            cipher: None,
            clock,
            meter,
            ks_cache: RefCell::new(Vec::new()),
        }
    }

    /// An empty disk with LUKS-style sector encryption.
    pub fn encrypted(clock: SimClock, meter: std::sync::Arc<Meter>, cipher: SectorCipher) -> Disk {
        Disk {
            sectors: Vec::new(),
            remanence: Vec::new(),
            cipher: Some(cipher),
            clock,
            meter,
            ks_cache: RefCell::new(Vec::new()),
        }
    }

    /// Bound the sector-keystream cache at `pages` entries (`0` disables
    /// it, the construction default). Cached entries hold *keystream*
    /// (the CTR encryption of a zero page), never sector content: a hit
    /// turns a page encrypt/decrypt into a XOR without touching what is
    /// stored, charged, or observable — ciphertext bytes, remanence
    /// ghosts, and every simulated cost are bit-identical with the cache
    /// on or off. Reference-mode ciphers bypass the cache so A/B
    /// baselines keep their honest cost.
    pub fn with_keystream_cache(self, pages: usize) -> Disk {
        *self.ks_cache.borrow_mut() = vec![None; pages];
        self
    }

    /// Whether sector encryption is active.
    pub fn is_encrypted(&self) -> bool {
        self.cipher.is_some()
    }

    /// Number of allocated pages.
    pub fn len(&self) -> usize {
        self.sectors.len()
    }

    /// True if no page was allocated yet.
    pub fn is_empty(&self) -> bool {
        self.sectors.is_empty()
    }

    /// Total on-disk bytes.
    pub fn bytes(&self) -> u64 {
        (self.sectors.len() * PAGE_SIZE) as u64
    }

    /// Host-side page crypt routed through the sector-keystream cache.
    /// On a hit the AES collapses to [`xor_page`]; a miss derives the
    /// keystream once (CTR encryption of a zero page *is* the keystream)
    /// and fills the direct-mapped slot. Bypassed for ragged buffers,
    /// with the cache disabled, and in reference mode. Callers charge
    /// `aes_cost` identically on every path — only host work moves.
    fn host_crypt(&self, c: &SectorCipher, id: u32, data: &mut [u8]) {
        let mut cache = self.ks_cache.borrow_mut();
        if cache.is_empty() || data.len() != PAGE_SIZE || c.reference_mode() {
            c.apply(id as u64, data);
            return;
        }
        let slot = id as usize % cache.len();
        match &cache[slot] {
            Some((sector, ks)) if *sector == id => xor_page(data, ks),
            _ => {
                let mut ks = vec![0u8; PAGE_SIZE];
                c.apply(id as u64, &mut ks);
                xor_page(data, &ks);
                cache[slot] = Some((id, ks));
            }
        }
    }

    /// Allocate a fresh zeroed page, returning its id. On an encrypted
    /// disk the stored bytes are the *ciphertext* of a zero page, so a
    /// later `read_page` decrypts back to logical zeros.
    pub fn allocate(&mut self) -> u32 {
        let id = self.sectors.len() as u32;
        let mut sector = vec![0u8; PAGE_SIZE];
        if let Some(c) = &self.cipher {
            self.host_crypt(c, id, &mut sector);
        }
        self.sectors.push(sector);
        self.remanence.push(None);
        id
    }

    /// Read a page from disk (decrypting if enabled). Charges random
    /// disk-read and crypto costs.
    pub fn read_page(&self, id: u32) -> Vec<u8> {
        self.read_page_inner(id, false)
    }

    /// Read a page as part of a sequential pass (scans, vacuum) — charged
    /// at the much cheaper sequential-I/O rate.
    pub fn read_page_seq(&self, id: u32) -> Vec<u8> {
        self.read_page_inner(id, true)
    }

    fn read_page_inner(&self, id: u32, sequential: bool) -> Vec<u8> {
        let model = self.clock.model().clone();
        self.clock.charge_nanos(if sequential {
            model.page_read_seq
        } else {
            model.page_read_disk
        });
        Meter::bump(&self.meter.pages_read_disk, 1);
        let mut data = self.sectors[id as usize].clone();
        if let Some(c) = &self.cipher {
            self.clock
                .charge(model.aes_cost(c.key_size().bits(), data.len()));
            Meter::bump(&self.meter.crypto_bytes, data.len() as u64);
            self.host_crypt(c, id, &mut data);
        }
        data
    }

    /// Write a page to disk (encrypting if enabled). Charges random
    /// disk-write and crypto costs.
    pub fn write_page(&mut self, id: u32, data: &[u8]) {
        self.write_page_inner(id, data, false)
    }

    /// Write a page as part of a sequential batch (vacuum ring buffer).
    pub fn write_page_seq(&mut self, id: u32, data: &[u8]) {
        self.write_page_inner(id, data, true)
    }

    fn write_page_inner(&mut self, id: u32, data: &[u8], sequential: bool) {
        assert_eq!(data.len(), PAGE_SIZE, "disk writes are page-sized");
        let model = self.clock.model().clone();
        self.clock.charge_nanos(if sequential {
            model.page_write_seq
        } else {
            model.page_write_disk
        });
        Meter::bump(&self.meter.pages_written, 1);
        let mut buf = data.to_vec();
        if let Some(c) = &self.cipher {
            self.clock
                .charge(model.aes_cost(c.key_size().bits(), buf.len()));
            Meter::bump(&self.meter.crypto_bytes, buf.len() as u64);
            self.host_crypt(c, id, &mut buf);
        }
        // Physical remanence: the previous sector content lingers at the
        // drive layer until sanitised.
        let old = std::mem::replace(&mut self.sectors[id as usize], buf);
        if old.iter().any(|&b| b != 0) {
            self.remanence[id as usize] = Some(old);
        }
    }

    /// The raw on-disk bytes of a page — ciphertext if encryption is on.
    /// This is what forensics sees; no cost is charged (it is the
    /// *observer's* read, not the system's).
    pub fn raw(&self, id: u32) -> &[u8] {
        &self.sectors[id as usize]
    }

    /// Overwrite a page with a sanitisation pattern `passes` times,
    /// charging sanitisation cost. The final pass leaves zeros, and the
    /// drive-level remanence for the sector is destroyed.
    pub fn sanitize_page(&mut self, id: u32, passes: u32) {
        let model = self.clock.model().clone();
        self.clock.charge(model.sanitize_cost(PAGE_SIZE, passes));
        let sector = &mut self.sectors[id as usize];
        // Model the alternating-pattern passes; the end state is zeros.
        for pass in 0..passes {
            let pattern = match pass % 3 {
                0 => 0xFFu8,
                1 => 0x00u8,
                _ => 0xAAu8,
            };
            sector.fill(pattern);
        }
        sector.fill(0);
        self.remanence[id as usize] = None;
    }

    /// Scan every raw page for `needle`, returning matching page ids.
    /// (Forensic observer: free of simulation cost.)
    pub fn scan_raw(&self, needle: &[u8]) -> Vec<u32> {
        if needle.is_empty() {
            return Vec::new();
        }
        let mut hits = Vec::new();
        for (id, sector) in self.sectors.iter().enumerate() {
            if sector.windows(needle.len()).any(|w| w == needle) {
                hits.push(id as u32);
            }
        }
        hits
    }

    /// Scan the drive-remanence layer for `needle` (what an advanced lab
    /// could recover from overwritten-but-unsanitised sectors).
    pub fn scan_remanent(&self, needle: &[u8]) -> Vec<u32> {
        if needle.is_empty() {
            return Vec::new();
        }
        let mut hits = Vec::new();
        for (id, ghost) in self.remanence.iter().enumerate() {
            if let Some(g) = ghost {
                if g.windows(needle.len()).any(|w| w == needle) {
                    hits.push(id as u32);
                }
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_crypto::aes::KeySize;
    use std::sync::Arc;

    fn mk_disk(encrypted: bool) -> Disk {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        if encrypted {
            Disk::encrypted(
                clock,
                meter,
                SectorCipher::from_passphrase(b"test", KeySize::Aes256),
            )
        } else {
            Disk::new(clock, meter)
        }
    }

    fn page_with(content: &[u8]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        p[100..100 + content.len()].copy_from_slice(content);
        p
    }

    #[test]
    fn write_read_roundtrip_plain() {
        let mut d = mk_disk(false);
        let id = d.allocate();
        d.write_page(id, &page_with(b"hello-disk"));
        let back = d.read_page(id);
        assert_eq!(&back[100..110], b"hello-disk");
    }

    #[test]
    fn write_read_roundtrip_encrypted() {
        let mut d = mk_disk(true);
        let id = d.allocate();
        d.write_page(id, &page_with(b"hello-disk"));
        let back = d.read_page(id);
        assert_eq!(&back[100..110], b"hello-disk");
    }

    #[test]
    fn raw_shows_plaintext_only_without_encryption() {
        let mut plain = mk_disk(false);
        let id = plain.allocate();
        plain.write_page(id, &page_with(b"SECRET-PII"));
        assert_eq!(plain.scan_raw(b"SECRET-PII"), vec![id]);

        let mut enc = mk_disk(true);
        let id2 = enc.allocate();
        enc.write_page(id2, &page_with(b"SECRET-PII"));
        assert!(
            enc.scan_raw(b"SECRET-PII").is_empty(),
            "sector encryption hides plaintext from the raw disk"
        );
        // An overwrite leaves the first write as a remanence ghost: it
        // must be ciphertext too, as must the new sector content.
        enc.write_page(id2, &page_with(b"SECRET-NEW"));
        assert!(enc.scan_raw(b"SECRET-NEW").is_empty());
        assert!(enc.scan_remanent(b"SECRET-PII").is_empty());
        assert!(enc.remanence[id2 as usize].is_some(), "ghost retained");
    }

    #[test]
    fn sanitize_wipes_raw_bytes() {
        let mut d = mk_disk(false);
        let id = d.allocate();
        d.write_page(id, &page_with(b"TO-WIPE"));
        assert!(!d.scan_raw(b"TO-WIPE").is_empty());
        d.sanitize_page(id, 3);
        assert!(d.scan_raw(b"TO-WIPE").is_empty());
        assert!(d.raw(id).iter().all(|&b| b == 0));
    }

    #[test]
    fn io_charges_time_and_meter() {
        let clock = SimClock::commodity();
        let meter = Arc::new(Meter::new());
        let mut d = Disk::new(clock.clone(), meter.clone());
        let id = d.allocate();
        let t0 = clock.now();
        d.write_page(id, &vec![0u8; PAGE_SIZE]);
        let _ = d.read_page(id);
        assert!(clock.now() > t0);
        let snap = meter.snapshot();
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.pages_read_disk, 1);
    }

    #[test]
    fn encrypted_io_costs_more_than_plain() {
        let c1 = SimClock::commodity();
        let m1 = Arc::new(Meter::new());
        let mut plain = Disk::new(c1.clone(), m1);
        let c2 = SimClock::commodity();
        let m2 = Arc::new(Meter::new());
        let mut enc = Disk::encrypted(
            c2.clone(),
            m2,
            SectorCipher::from_passphrase(b"x", KeySize::Aes256),
        );
        let p = vec![0u8; PAGE_SIZE];
        let a = plain.allocate();
        let b = enc.allocate();
        plain.write_page(a, &p);
        enc.write_page(b, &p);
        assert!(c2.now() > c1.now(), "crypto adds cost");
    }

    #[test]
    fn empty_needle_matches_nothing() {
        let d = mk_disk(false);
        assert!(d.scan_raw(b"").is_empty());
        assert!(d.scan_remanent(b"").is_empty());
    }

    #[test]
    fn keystream_cache_is_invisible_in_bytes_and_charges() {
        // The same write/overwrite/read sequence on a cached and an
        // uncached encrypted disk: raw sector bytes, remanence ghosts,
        // decrypted reads, simulated time and meter must all agree —
        // the cache only moves host work.
        let clock_a = SimClock::commodity();
        let clock_b = SimClock::commodity();
        let meter_a = Arc::new(Meter::new());
        let meter_b = Arc::new(Meter::new());
        let cipher = || SectorCipher::from_passphrase(b"ks-cache", KeySize::Aes256);
        let mut cached =
            Disk::encrypted(clock_a.clone(), meter_a.clone(), cipher()).with_keystream_cache(8);
        let mut plain_path = Disk::encrypted(clock_b.clone(), meter_b.clone(), cipher());
        for d in [&mut cached, &mut plain_path] {
            for _ in 0..12 {
                d.allocate(); // 12 pages > 8 slots: exercises collisions
            }
            for round in 0..3u8 {
                for id in 0..12u32 {
                    d.write_page(id, &page_with(&[round + 1, id as u8, 0x5A]));
                }
            }
        }
        for id in 0..12u32 {
            assert_eq!(cached.raw(id), plain_path.raw(id), "sector {id}");
            assert_eq!(cached.read_page(id), plain_path.read_page(id));
            assert_eq!(
                cached.remanence[id as usize], plain_path.remanence[id as usize],
                "remanence ghost {id}"
            );
        }
        assert_eq!(clock_a.now(), clock_b.now(), "simulated time diverged");
        assert_eq!(
            meter_a.snapshot(),
            meter_b.snapshot(),
            "meter counters diverged"
        );
    }

    #[test]
    fn overwrite_leaves_remanence_until_sanitised() {
        let mut d = mk_disk(false);
        let id = d.allocate();
        d.write_page(id, &page_with(b"GHOST-DATA"));
        // Overwrite with zeros: the file no longer shows it…
        d.write_page(id, &vec![0u8; PAGE_SIZE]);
        assert!(d.scan_raw(b"GHOST-DATA").is_empty());
        // …but the drive layer still does.
        assert_eq!(d.scan_remanent(b"GHOST-DATA"), vec![id]);
        d.sanitize_page(id, 3);
        assert!(d.scan_remanent(b"GHOST-DATA").is_empty());
    }
}
