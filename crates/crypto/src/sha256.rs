//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Every compression runs through one private `compress_blocks`, which
//! takes whole 64-byte blocks and picks its path from the CPU alone:
//!
//! * on `x86_64` CPUs with the SHA extensions (plus SSSE3 and SSE4.1, as
//!   `is_x86_feature_detected!` reports them at run time), a kernel built
//!   on `sha256rnds2`/`sha256msg1`/`sha256msg2`, which shuffles the state
//!   into the instructions' ABEF/CDGH layout once per call, not per block;
//! * everywhere else, the portable core: 64 rounds fully unrolled through a
//!   register-rotating macro over a rolling 16-word schedule.
//!
//! The portable core is the reference: the tests below run the NIST
//! vectors through each path explicitly and pin the hardware path to the
//! portable one on every message length up to 1 KiB. There is no setting
//! to choose a path. `BENCH_speed.json` records both (`oneshot` and
//! `portable_oneshot`) on 4 KiB blobs: about 1,000 MB/s against 210 MB/s
//! on a 2-core x86-64 box with `sha_ni`.
//!
//! Two entry points share it:
//!
//! * [`Sha256`] — the streaming API (`update`/`finalize`), with a partial
//!   block buffer for callers that feed arbitrary slices.
//! * [`sha256`] — a one-shot path that compresses whole blocks straight
//!   out of the input slice (no partial-block copy) and builds the
//!   padding in at most two stack blocks. This is what fingerprinting a
//!   certificate blob costs.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
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

#[inline(always)]
fn small_s0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

#[inline(always)]
fn small_s1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// One compression of `block` into `state` — the portable core. The message
/// schedule lives in a rolling 16-word window and the 64 rounds are fully
/// unrolled with rotating register names, so the working variables never
/// shuffle through memory.
// The rolling-schedule writes in rounds 49–64 are dead stores by design
// (no later round reads them); the unrolled macro keeps them for symmetry.
#[allow(unused_assignments)]
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round with explicit registers: only d and h are written, so
    // invoking the macro with rotated argument orders unrolls the whole
    // a..h shuffle away.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {{
            // `$t & 15` == `$t` for the first 16 rounds; masking keeps the
            // dead >=16 arm in-bounds for the const-index lint.
            let wt = if $t < 16 {
                w[$t & 15]
            } else {
                let wt = w[$t & 15]
                    .wrapping_add(small_s0(w[($t + 1) & 15]))
                    .wrapping_add(w[($t + 9) & 15])
                    .wrapping_add(small_s1(w[($t + 14) & 15]));
                w[$t & 15] = wt;
                wt
            };
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add(K[$t])
                .wrapping_add(wt);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        }};
    }
    macro_rules! eight_rounds {
        ($base:expr) => {{
            round!(a, b, c, d, e, f, g, h, $base);
            round!(h, a, b, c, d, e, f, g, $base + 1);
            round!(g, h, a, b, c, d, e, f, $base + 2);
            round!(f, g, h, a, b, c, d, e, $base + 3);
            round!(e, f, g, h, a, b, c, d, $base + 4);
            round!(d, e, f, g, h, a, b, c, $base + 5);
            round!(c, d, e, f, g, h, a, b, $base + 6);
            round!(b, c, d, e, f, g, h, a, $base + 7);
        }};
    }
    eight_rounds!(0);
    eight_rounds!(8);
    eight_rounds!(16);
    eight_rounds!(24);
    eight_rounds!(32);
    eight_rounds!(40);
    eight_rounds!(48);
    eight_rounds!(56);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The portable path over whole blocks (`blocks.len()` a multiple of 64):
/// the reference every other path must match.
pub(crate) fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    for block in blocks.chunks_exact(64) {
        compress_block(state, block.try_into().expect("64-byte block"));
    }
}

/// Compress whole blocks (`blocks.len()` a multiple of 64) into `state`:
/// the only place a compression runs. The CPU picks the path.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    if blocks.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        // SAFETY: `x86::detected()` just reported `sha`, `ssse3` and
        // `sse4.1` on this CPU (`sse2` is part of the x86_64 baseline),
        // which is everything the kernel is compiled for.
        unsafe { x86::compress_blocks(state, blocks) };
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// The compression path this CPU runs: `"x86-sha"` or `"portable"`.
/// For benchmark reports; not part of the hashing API.
#[doc(hidden)]
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        return "x86-sha";
    }
    "portable"
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every extension [`compress_blocks`] is
    /// compiled for. std caches the CPUID answer, so this is a few loads.
    #[inline]
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }

    /// Compress whole blocks with the SHA extensions. The state enters
    /// and leaves the ABEF/CDGH lane layout once per call.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`, as [`detected`]
    /// reports. `blocks.len()` should be a multiple of 64; a trailing
    /// partial block is ignored, never read.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte shuffle that turns each big-endian message word into a lane.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Lanes are named high to low: `dcba` holds a in lane 0.
        // SAFETY: the caller's `detected()` check guarantees the CPU
        // features (see `# Safety`); the two unaligned 16-byte loads cover
        // the 32-byte `state` exactly.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        // Rounds 4i..4i+4 on schedule quad `w`, two per `sha256rnds2`. The
        // first call leaves the new ABEF in `cdgh`, so the second call's
        // CDGH is the old ABEF.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                let k = _mm_set_epi32(
                    K[4 * $i + 3] as i32,
                    K[4 * $i + 2] as i32,
                    K[4 * $i + 1] as i32,
                    K[4 * $i] as i32,
                );
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // The next schedule quad from the four before it, oldest first.
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
            // SAFETY: the caller's `detected()` check guarantees the CPU
            // features (see `# Safety`); `block` is 64 bytes, read as four
            // unaligned 16-byte quarters.
            let [mut w0, mut w1, mut w2, mut w3] = unsafe {
                let p = block.as_ptr();
                [
                    _mm_loadu_si128(p.cast()),
                    _mm_loadu_si128(p.add(16).cast()),
                    _mm_loadu_si128(p.add(32).cast()),
                    _mm_loadu_si128(p.add(48).cast()),
                ]
            };
            w0 = _mm_shuffle_epi8(w0, be_words);
            w1 = _mm_shuffle_epi8(w1, be_words);
            w2 = _mm_shuffle_epi8(w2, be_words);
            w3 = _mm_shuffle_epi8(w3, be_words);
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            // Rounds 16..64: each new quad overwrites the oldest.
            for i in [4, 8, 12] {
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
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: the caller's `detected()` check guarantees the CPU
        // features (see `# Safety`); the two unaligned 16-byte stores cover
        // the 32-byte `state` exactly.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

fn digest_of(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The 1–2 padding blocks for a message of `len` bytes whose last
/// incomplete block is `tail` (`tail.len() < 64`). Returns the buffer and
/// how many of its bytes (64 or 128) are live.
fn padding_blocks(tail: &[u8], len: u64) -> ([u8; 128], usize) {
    debug_assert!(tail.len() < 64);
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    // The 8-byte bit length needs tail + 1 + 8 <= n.
    let n = if tail.len() < 56 { 64 } else { 128 };
    pad[n - 8..n].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    (pad, n)
}

/// Length of the whole-block prefix of a `len`-byte slice.
fn whole_blocks(len: usize) -> usize {
    len - len % 64
}

/// One-shot digest of `data` through `compress`: whole blocks straight out
/// of `data`, then the padding block(s).
fn oneshot(data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut state = H0;
    let (blocks, tail) = data.split_at(whole_blocks(data.len()));
    compress(&mut state, blocks);
    let (pad, n) = padding_blocks(tail, data.len() as u64);
    compress(&mut state, &pad[..n]);
    digest_of(&state)
}

/// One-shot SHA-256: whole blocks compress straight out of `data` — no
/// partial-block buffering, no copies except the final padding block(s).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    oneshot(data, compress_blocks)
}

/// [`sha256`] forced onto the portable core, whatever the CPU: the
/// reference for equivalence tests and benchmarks; not part of the
/// hashing API.
#[doc(hidden)]
pub fn sha256_portable(data: &[u8]) -> [u8; 32] {
    oneshot(data, compress_blocks_portable)
}

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    total_len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            total_len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.split_at(whole_blocks(data.len()));
        compress_blocks(&mut self.state, blocks);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        let mut state = self.state;
        let (pad, n) = padding_blocks(&self.buf[..self.buf_len], self.total_len);
        compress_blocks(&mut state, &pad[..n]);
        digest_of(&state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// A one-shot digest function forced onto one path.
    type Oneshot = fn(&[u8]) -> [u8; 32];

    /// The hardware one-shot, if this CPU has the kernel's extensions;
    /// otherwise `None`, after saying why the hardware half skips.
    fn hardware() -> Option<Oneshot> {
        #[cfg(target_arch = "x86_64")]
        if x86::detected() {
            return Some(|data| {
                oneshot(data, |state, blocks| {
                    // SAFETY: this closure is only returned after
                    // `x86::detected()` reported the kernel's features.
                    unsafe { x86::compress_blocks(state, blocks) }
                })
            });
        }
        eprintln!("skipping the hardware half: this CPU lacks the SHA extensions");
        None
    }

    /// `data` must hash to `want` on the portable path, the hardware path
    /// (when present) and the dispatched public API.
    fn assert_vector(data: &[u8], want: &str) {
        assert_eq!(hex::encode(&sha256_portable(data)), want, "portable");
        if let Some(hw) = hardware() {
            assert_eq!(hex::encode(&hw(data)), want, "hardware");
        }
        assert_eq!(hex::encode(&sha256(data)), want, "dispatched");
    }

    /// `len` deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn nist_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn every_length_to_1024_matches_portable() {
        // 0..=1024 covers one- and two-block padding at every tail length
        // (55/56 and 63/64/65 straddle the one-vs-two block decision) and
        // up to 16 whole blocks in a single kernel call.
        let data = noise(1024);
        let hw = hardware();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = sha256_portable(msg);
            assert_eq!(sha256(msg), want, "dispatched, len {len}");
            let mut h = Sha256::new();
            h.update(msg);
            assert_eq!(h.finalize(), want, "streaming, len {len}");
            if let Some(hw) = hw {
                assert_eq!(hw(msg), want, "hardware, len {len}");
            }
        }
    }

    #[test]
    fn three_block_stream_split_at_every_offset_matches_portable() {
        // The streaming API runs the dispatched path; the one-shot runs the
        // portable core, so on a SHA-capable CPU this pins buffered
        // hardware compressions to the reference.
        let data = noise(192);
        let want = sha256_portable(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn streaming_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        for split in [1usize, 7, 55, 56, 63, 64, 65, 128, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_equals_oneshot() {
        let data = b"mutual TLS in practice";
        let mut h = Sha256::new();
        for &b in data.iter() {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }
}
