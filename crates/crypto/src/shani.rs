//! Hardware SHA-256 compression (SHA-NI) via `std::arch::x86_64`
//! intrinsics.
//!
//! Like [`aesni`](crate::aesni), every unsafe block here reduces to one
//! precondition: the host CPU supports the `sha` and `sse4.1` instruction
//! sets. That precondition is checked at [`ShaNi::detect`], the only way
//! to obtain a [`ShaNi`] value, so holding one *is* the proof that the
//! `#[target_feature(enable = "sha,sse4.1")]` functions below may run.
//! Callers never touch `unsafe`.
//!
//! Implementation notes:
//!
//! * The eight state words live in two XMM registers in the order the
//!   instructions want: `ABEF` and `CDGH` (high lane first). They are
//!   shuffled in from, and back out to, FIPS-180 `a..h` order once per
//!   [`ShaNi::compress`] call, not once per block.
//! * Each group of four rounds adds four round constants to four message
//!   words and issues two `SHA256RNDS2` (two rounds each). From round 16
//!   on, the group's message words come from the four groups before it
//!   through `SHA256MSG1` (σ0 terms), a `PALIGNR` for `W[t-7]`, and
//!   `SHA256MSG2` (σ1 terms).
//!
//! On non-x86_64 targets, or with the crate's `hw-aes` feature disabled
//! (which gates every hardware lane of this crate), the implementation
//! compiles out and [`ShaNi::detect`] is a constant `None`, so the
//! dispatch in [`Sha256`](crate::sha256::Sha256) folds to the portable
//! compression.

#[cfg(all(target_arch = "x86_64", feature = "hw-aes"))]
mod imp {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use crate::sha256::K;

    /// Proof that the host has SHA-NI; see the module docs.
    #[derive(Clone, Copy, Debug)]
    pub struct ShaNi(());

    impl ShaNi {
        /// `Some` when the host supports `sha` and `sse4.1` (runtime
        /// CPUID detection, cached by the standard library). This is the
        /// module's one checked entry point.
        #[inline]
        pub fn detect() -> Option<ShaNi> {
            (std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("sse4.1"))
            .then_some(ShaNi(()))
        }

        /// Run the SHA-256 compression function over each 64-byte block
        /// of `blocks` in turn, updating `state` (FIPS-180 `a..h` order).
        /// Same contract as
        /// [`compress_software`](crate::sha256::compress_software).
        ///
        /// # Panics
        /// Panics if `blocks.len()` is not a multiple of 64.
        pub fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            assert!(
                blocks.len().is_multiple_of(64),
                "compress requires whole 64-byte blocks"
            );
            // SAFETY: `self` exists ⇒ `ShaNi::detect` found sha + sse4.1.
            unsafe { compress_hw(state, blocks) }
        }
    }

    /// Four rounds: `w` holds message words `4i..4i+4`.
    ///
    /// # Safety
    /// Requires the `sha` and `sse4.1` target features, and `i < 16` (the
    /// round constants are read as `K[4i..4i+4]`).
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let kw = _mm_add_epi32(w, _mm_loadu_si128(K[4 * i..].as_ptr() as *const __m128i));
        // Two rounds turn ABEF into the new ABEF and the old ABEF into the
        // new CDGH, so the registers swap roles between the two issues.
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, kw);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(kw));
    }

    /// Message words `4i..4i+4` from the groups `i-4 .. i-1`.
    ///
    /// # Safety
    /// Requires the `sha` and `sse4.1` target features.
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// # Safety
    /// Requires the `sha` and `sse4.1` target features.
    #[target_feature(enable = "sha,sse4.1")]
    unsafe fn compress_hw(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let p = state.as_mut_ptr() as *mut __m128i;
        let cdab = _mm_shuffle_epi32::<0xB1>(_mm_loadu_si128(p));
        let efgh = _mm_shuffle_epi32::<0x1B>(_mm_loadu_si128(p.add(1)));
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef0, cdgh0) = (abef, cdgh);
            let m = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(m), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(m.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(m.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(m.add(3)), bswap);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Each new group replaces the group 16 rounds back.
            for i in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        _mm_storeu_si128(p, _mm_blend_epi16::<0xF0>(feba, dchg));
        _mm_storeu_si128(p.add(1), _mm_alignr_epi8::<8>(dchg, feba));
    }
}

#[cfg(not(all(target_arch = "x86_64", feature = "hw-aes")))]
mod imp {
    /// Uninstantiable stand-in: [`ShaNi::detect`] always returns `None`
    /// on this build, so [`ShaNi::compress`] is unreachable.
    #[derive(Clone, Copy, Debug)]
    pub struct ShaNi {
        never: core::convert::Infallible,
    }

    impl ShaNi {
        /// Always `None`: the target is not x86_64 or the `hw-aes`
        /// feature is disabled.
        #[inline]
        pub fn detect() -> Option<ShaNi> {
            None
        }

        /// Unreachable: no value of this type exists.
        pub fn compress(self, _state: &mut [u32; 8], _blocks: &[u8]) {
            match self.never {}
        }
    }
}

pub use imp::ShaNi;
