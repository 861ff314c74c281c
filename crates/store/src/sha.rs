//! A minimal SHA-256 for content addressing.
//!
//! The store keys runs by a cryptographic digest of everything that
//! influences the result (dataset bytes, hierarchies, policies,
//! configuration, seed, sweep point, schema version).  A 64-bit hash
//! like the `FxHash` used elsewhere in the workspace is fine for hash
//! maps but far too collision-prone to *address* durable results, so
//! the store carries its own dependency-free SHA-256 (FIPS 180-4).
//!
//! Every store read verifies its payload and every session digest
//! hashes the whole rendered dataset, so the compression function sits
//! on the hot path of a store-backed sweep. On x86-64 CPUs with the SHA
//! extensions (`sha_ni`), [`Sha256::update`] compresses with them, seven to
//! eight times faster than the portable code. The portable compression
//! function runs everywhere else (other targets, older x86) and is the
//! oracle the tests hold the hardware path to. The choice is made at
//! run time from what the CPU reports, per call; both paths give the
//! same digest, so there is nothing for a user to choose.

use std::io;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feed `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Finalize, returning the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress_blocks)
    }

    /// [`Sha256::update`] over the given compression function. Whole
    /// blocks of `data` go to `compress` in one call, straight from the
    /// caller's slice; only a partial block is buffered.
    fn absorb(&mut self, mut data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// [`Sha256::finalize`] over the given compression function.
    fn finish(mut self, compress: Compress) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.absorb(&[0x80], compress);
        while self.buf_len != 56 {
            self.absorb(&[0], compress);
        }
        // bypass absorb() for the length so total_len stays frozen
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Finalize and render as lowercase hex.
    pub fn finalize_hex(self) -> String {
        to_hex(&self.finalize())
    }
}

/// A compression function over a run of whole 64-byte blocks.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Compress whole 64-byte `blocks` into `state`, with the SHA
/// extensions when the CPU has them and the portable code otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The portable path: the fallback off x86-64 SHA-NI hardware, and
/// the oracle the tests compare the hardware path with.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(
            state,
            block.try_into().expect("chunks_exact yields 64 bytes"),
        );
    }
}

/// FIPS 180-4 §6.2.2: one block, one round at a time.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI compression function: four rounds per
/// `sha256rnds2` pair, the message schedule in `sha256msg1/2`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// True when this CPU can run [`compress_blocks`]. sse2 is part of
    /// the x86-64 baseline; std caches the other answers after the
    /// first query.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compress whole 64-byte `blocks` into `state` when this CPU has
    /// the SHA extensions; false, with `state` untouched, when it has
    /// not.
    pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected` has just confirmed at run time that this
        // CPU supports every feature `compress_blocks` is compiled for
        // (sha, ssse3 and sse4.1, plus the baseline sse2).
        unsafe { compress_blocks(state, blocks) };
        true
    }

    /// Compress whole 64-byte `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support sha, sse2, ssse3 and sse4.1; [`detected`]
    /// checks exactly that.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // SAFETY: the caller guarantees the target features; every load
        // and store below reads or writes 16 bytes inside `state` (32
        // bytes) or inside one 64-byte chunk of `blocks`, and the
        // unaligned forms have no alignment requirement.
        unsafe {
            // big-endian words: reverse the bytes of each 32-bit lane
            let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            // the instructions keep the state as (a, b, e, f) and (c, d, g, h)
            let dcba = _mm_loadu_si128(state.as_ptr().cast());
            let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
            let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

            // four rounds on message group `$i` (words 4i..4i+4)
            macro_rules! rounds4 {
                ($w:expr, $i:expr) => {{
                    let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }};
            }
            // group i from groups i-4, i-3, i-2 and i-1
            macro_rules! schedule {
                ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                    _mm_sha256msg2_epu32(
                        _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                        $w3,
                    )
                };
            }

            for block in blocks.chunks_exact(64) {
                let (abef_in, cdgh_in) = (abef, cdgh);
                let p = block.as_ptr();
                let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
                let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
                let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
                let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);
                rounds4!(w0, 0);
                rounds4!(w1, 1);
                rounds4!(w2, 2);
                rounds4!(w3, 3);
                for i in (4..16).step_by(4) {
                    w0 = schedule!(w0, w1, w2, w3);
                    rounds4!(w0, i);
                    w1 = schedule!(w1, w2, w3, w0);
                    rounds4!(w1, i + 1);
                    w2 = schedule!(w2, w3, w0, w1);
                    rounds4!(w2, i + 2);
                    w3 = schedule!(w3, w0, w1, w2);
                    rounds4!(w3, i + 3);
                }
                abef = _mm_add_epi32(abef, abef_in);
                cdgh = _mm_add_epi32(cdgh, cdgh_in);
            }

            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }
}

/// One-shot digest of a byte slice, as lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize_hex()
}

fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// An [`io::Write`] sink that feeds a [`Sha256`].
///
/// Lets the existing dataset/hierarchy/policy *writers* double as
/// digest functions: serialize into a `DigestWriter` instead of a file
/// and you get a content hash without materializing the bytes.
pub struct DigestWriter {
    hasher: Sha256,
}

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestWriter {
    /// A writer over a fresh hasher.
    pub fn new() -> Self {
        DigestWriter {
            hasher: Sha256::new(),
        }
    }

    /// Feed `data` into the digest directly (without going through
    /// [`io::Write`]).
    pub fn update(&mut self, data: &[u8]) {
        self.hasher.update(data);
    }

    /// Finalize the underlying hasher as lowercase hex.
    pub fn finalize_hex(self) -> String {
        self.hasher.finalize_hex()
    }
}

impl io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.hasher.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The digest of `pieces`, fed in order, over the portable
    /// compression function only.
    fn portable_hex(pieces: &[&[u8]]) -> String {
        let mut h = Sha256::new();
        for p in pieces {
            h.absorb(p, compress_portable);
        }
        to_hex(&h.finish(compress_portable))
    }

    /// The digest of `pieces` through the public, dispatched hasher.
    fn dispatched_hex(pieces: &[&[u8]]) -> String {
        let mut h = Sha256::new();
        for p in pieces {
            h.update(p);
        }
        h.finalize_hex()
    }

    /// Which compression function the dispatched hasher runs here. On
    /// a CPU without the SHA extensions both sides of every comparison
    /// below are the portable code, and the test log says so: the
    /// note goes to the process's stderr, which the test harness does
    /// not capture.
    fn dispatched_path() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            return "SHA-NI";
        }
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "note: no SHA-NI on this CPU; the dispatched and portable SHA-256 \
             both ran the portable compression function"
        );
        "portable"
    }

    /// Both paths give `want` for `pieces` fed in order.
    fn assert_both(pieces: &[&[u8]], want: &str) {
        let path = dispatched_path();
        assert_eq!(dispatched_hex(pieces), want, "{path}");
        assert_eq!(portable_hex(pieces), want, "portable");
    }

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn empty_input() {
        assert_both(
            &[b""],
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_both(
            &[b"abc"],
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_both(
            &[b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"],
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_streamed() {
        let chunk = [b'a'; 997]; // deliberately not a multiple of 64
        let pieces: Vec<&[u8]> = (0..1_000_000)
            .step_by(chunk.len())
            .map(|fed| &chunk[..chunk.len().min(1_000_000 - fed)])
            .collect();
        assert_both(
            &pieces,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u32..3000).map(|i| (i % 251) as u8).collect();
        let one = portable_hex(&[&data]);
        assert_eq!(sha256_hex(&data), one);
        for split in [0, 1, 63, 64, 65, 128, 1000, 2999, 3000] {
            let (head, tail) = data.split_at(split);
            assert_both(&[head, tail], &one);
        }
    }

    #[test]
    fn every_length_matches_the_portable_path() {
        let path = dispatched_path();
        let data: Vec<u8> = (0u32..12_345)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        // the portable side grows one byte at a time and finalizes a
        // copy at each length; the dispatched side hashes each prefix
        // in one call, whole blocks straight from the slice
        let mut portable = Sha256::new();
        for len in 0..=data.len() {
            if len > 0 {
                portable.absorb(&data[len - 1..len], compress_portable);
            }
            assert_eq!(
                sha256_hex(&data[..len]),
                to_hex(&portable.clone().finish(compress_portable)),
                "{path} vs portable at length {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn split_updates_match_the_portable_path(
            data in prop::collection::vec(any::<u8>(), 0..2000),
            cuts in prop::collection::vec(0usize..2000, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut at = 0;
            for c in cuts.into_iter().chain([data.len()]) {
                pieces.push(&data[at..c]);
                at = c;
            }
            prop_assert_eq!(dispatched_hex(&pieces), portable_hex(&[&data]));
        }
    }

    #[test]
    fn digest_writer_matches() {
        use std::io::Write;
        let mut w = DigestWriter::new();
        w.write_all(b"abc").unwrap();
        assert_eq!(w.finalize_hex(), sha256_hex(b"abc"));
    }
}
