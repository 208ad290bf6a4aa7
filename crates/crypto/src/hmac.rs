//! HMAC-SHA-256 (RFC 2104 / FIPS-198-1).
//!
//! Used by the audit layer to make log segments tamper-evident, which is
//! what lets an auditor treat them as compliance evidence (invariant IX).

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// An HMAC-SHA-256 key, prepared once: the inner and outer hashes already
/// hold their padded key block (`K ⊕ ipad`, `K ⊕ opad`), so each MAC
/// clones the two midstates instead of rehashing the pads.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are key material.
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Prepare `key` (hashed first when longer than a block, RFC 2104).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ byte));
            h
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// The MAC of the concatenation of `parts`, without building it.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Compute HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(&[data])
}

/// Constant-shape comparison of two MACs (length + bytes).
pub fn verify(key: &[u8], data: &[u8], mac: &[u8]) -> bool {
    crate::ct_eq(&hmac_sha256(key, data), mac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_long_key_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_oversized_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mac = hmac_sha256(b"k", b"msg");
        assert!(verify(b"k", b"msg", &mac));
        assert!(!verify(b"k", b"msg!", &mac));
        assert!(!verify(b"k2", b"msg", &mac));
        assert!(!verify(b"k", b"msg", &mac[..31]));
    }
}
