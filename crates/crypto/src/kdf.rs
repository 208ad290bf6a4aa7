//! LUKS-flavoured key derivation shim.
//!
//! LUKS1 derives the disk master key from a passphrase with PBKDF2; we
//! implement PBKDF2-HMAC-SHA-256 (RFC 2898 / RFC 6070-style) with a small
//! default iteration count since the derived keys only feed the simulator.

use crate::hmac::HmacKey;

/// PBKDF2-HMAC-SHA-256, producing `dk_len` bytes.
pub fn pbkdf2_sha256(password: &[u8], salt: &[u8], iterations: u32, dk_len: usize) -> Vec<u8> {
    assert!(iterations > 0, "iterations must be positive");
    let prf = HmacKey::new(password);
    let mut out = Vec::with_capacity(dk_len);
    let mut block_index: u32 = 1;
    while out.len() < dk_len {
        let mut u = prf.mac(&[salt, &block_index.to_be_bytes()]);
        let mut t = u;
        for _ in 1..iterations {
            u = prf.mac(&[&u]);
            for (ti, ui) in t.iter_mut().zip(u.iter()) {
                *ti ^= ui;
            }
        }
        out.extend_from_slice(&t);
        block_index += 1;
    }
    out.truncate(dk_len);
    out
}

/// Derive an AES key of `key_len` bytes from a passphrase the way our
/// simulated LUKS header does: PBKDF2 with a fixed label-salt.
pub fn luks_derive_key(passphrase: &[u8], key_len: usize) -> Vec<u8> {
    pbkdf2_sha256(passphrase, b"datacase-luks-v1", 1000, key_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn pbkdf2_known_vector_1_iter() {
        // RFC 6070 adapted to SHA-256 (well-known community vector):
        // PBKDF2-HMAC-SHA256("password","salt",1,32)
        let dk = pbkdf2_sha256(b"password", b"salt", 1, 32);
        assert_eq!(
            to_hex(&dk),
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"
        );
    }

    #[test]
    fn pbkdf2_known_vector_2_iters() {
        let dk = pbkdf2_sha256(b"password", b"salt", 2, 32);
        assert_eq!(
            to_hex(&dk),
            "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43"
        );
    }

    #[test]
    fn pbkdf2_known_vector_4096_iters() {
        let dk = pbkdf2_sha256(b"password", b"salt", 4096, 32);
        assert_eq!(
            to_hex(&dk),
            "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"
        );
    }

    #[test]
    fn pbkdf2_longer_output() {
        let dk = pbkdf2_sha256(
            b"passwordPASSWORDpassword",
            b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
            4096,
            40,
        );
        assert_eq!(
            to_hex(&dk),
            "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1c635518c7dac47e9"
        );
    }

    #[test]
    fn luks_keys_differ_by_passphrase_and_length() {
        let k1 = luks_derive_key(b"a", 16);
        let k2 = luks_derive_key(b"b", 16);
        let k3 = luks_derive_key(b"a", 32);
        assert_ne!(k1, k2);
        assert_eq!(k1, k3[..16].to_vec().as_slice());
        assert_eq!(k3.len(), 32);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_iterations_panics() {
        let _ = pbkdf2_sha256(b"p", b"s", 0, 32);
    }
}
