//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Two paths share one unrolled compression core:
//!
//! * [`Sha256`] — the streaming API (`update`/`finalize`), with a partial
//!   block buffer for callers that feed arbitrary slices.
//! * [`sha256`] — a one-shot path that compresses whole blocks straight
//!   out of the input slice (no partial-block copy) and builds the
//!   padding in at most two stack blocks. This is what fingerprinting a
//!   certificate blob costs.
//!
//! Both paths are bit-identical — asserted against the NIST short-message
//! vectors, the million-'a' vector, and the cross-path property tests.

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

/// One compression of `block` into `state` — the shared core. The message
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

/// One-shot SHA-256: whole blocks compress straight out of `data` — no
/// partial-block buffering, no copies except the final padding block(s).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress_block(&mut state, block.try_into().expect("64-byte block"));
    }
    let (pad, n) = padding_blocks(blocks.remainder(), data.len() as u64);
    compress_block(&mut state, pad[..64].try_into().expect("64-byte block"));
    if n == 128 {
        compress_block(&mut state, pad[64..].try_into().expect("64-byte block"));
    }
    digest_of(&state)
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
            if self.buf_len == 64 {
                let block = self.buf;
                compress_block(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress_block(&mut self.state, block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        let mut state = self.state;
        let (pad, n) = padding_blocks(&self.buf[..self.buf_len], self.total_len);
        compress_block(&mut state, pad[..64].try_into().expect("64-byte block"));
        if n == 128 {
            compress_block(&mut state, pad[64..].try_into().expect("64-byte block"));
        }
        digest_of(&state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_eq!(
            hex_digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
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

    #[test]
    fn oneshot_covers_every_padding_boundary() {
        // 55/56/57 and 63/64/65 bytes straddle the one-vs-two padding
        // block decision; each must match the streaming reference.
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for len in (0..=130).chain([191, 192, 193]) {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.finalize(), sha256(&data[..len]), "len {len}");
        }
    }
}
