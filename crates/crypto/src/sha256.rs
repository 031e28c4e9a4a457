//! SHA-256 (FIPS 180-4).
//!
//! Used for transaction/block hashing, script `OP_SHA256`/`OP_HASH256`,
//! HMAC, and ECDSA message digests.

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use bcwan_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     bcwan_crypto::hex::encode(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad in one step: 0x80, zeros, and the 64-bit length in the last
        // eight bytes — in this block if they fit behind the data, else in
        // one more.
        let len = self.buffer_len;
        self.buffer[len] = 0x80;
        self.buffer[len + 1..].fill(0);
        if len >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        self.digest()
    }

    /// The state words as a big-endian digest.
    fn digest(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One block of the compression function. The message schedule
    /// rolls through 16 words (`w[i mod 16]` holds `W[i]` from round
    /// `i` on), and the 64 rounds are unrolled, the working variables
    /// renamed instead of shifted.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        // `W[i]` for round `i`: the loaded word for the first 16 rounds,
        // then `W[i-16] + σ0(W[i-15]) + W[i-7] + σ1(W[i-2])` written over
        // `W[i-16]`'s slot (`i-15 ≡ i+1`, `i-7 ≡ i+9`, `i-2 ≡ i+14`).
        macro_rules! load {
            ($i:expr) => {
                w[$i]
            };
        }
        macro_rules! schedule {
            ($i:expr) => {{
                let j = $i & 15;
                let (x, y) = (w[(j + 1) & 15], w[(j + 14) & 15]);
                let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
                let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
                w[j] = w[j]
                    .wrapping_add(s0)
                    .wrapping_add(w[(j + 9) & 15])
                    .wrapping_add(s1);
                w[j]
            }};
        }
        // Round `i` with the variables named in their round-`i` roles:
        // `h` becomes the new `a` and `d` the new `e`.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
             $i:expr, $word:ident) => {{
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[$i])
                    .wrapping_add($word!($i));
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0.wrapping_add(maj));
            }};
        }
        macro_rules! eight_rounds {
            ($i:expr, $word:ident) => {
                round!(a, b, c, d, e, f, g, h, $i, $word);
                round!(h, a, b, c, d, e, f, g, $i + 1, $word);
                round!(g, h, a, b, c, d, e, f, $i + 2, $word);
                round!(f, g, h, a, b, c, d, e, $i + 3, $word);
                round!(e, f, g, h, a, b, c, d, $i + 4, $word);
                round!(d, e, f, g, h, a, b, c, $i + 5, $word);
                round!(c, d, e, f, g, h, a, b, $i + 6, $word);
                round!(b, c, d, e, f, g, h, a, $i + 7, $word);
            };
        }
        eight_rounds!(0, load);
        eight_rounds!(8, load);
        eight_rounds!(16, schedule);
        eight_rounds!(24, schedule);
        eight_rounds!(32, schedule);
        eight_rounds!(40, schedule);
        eight_rounds!(48, schedule);
        eight_rounds!(56, schedule);

        for (word, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Double SHA-256 (Bitcoin's block/transaction hash).
pub fn sha256d(data: &[u8]) -> [u8; 32] {
    // The second pass hashes 32 bytes: one block, padded in place — the
    // digest, 0x80, zeros, and the bit length 256 (0x0100) at the end.
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(&sha256(data));
    block[32] = 0x80;
    block[62] = 0x01;
    let mut h = Sha256::new();
    h.compress(&block);
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex::encode(&sha256(input)), *expected);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0, 1, 17, 63, 64, 65, 128, 200, 255] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    /// One-shot and byte-at-a-time hashing agree at every length up to
    /// 200 bytes: every place the padding can fall, in one block or
    /// spilling into a second.
    #[test]
    fn byte_at_a_time_matches_oneshot_at_every_length() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=200 {
            let mut h = Sha256::new();
            for byte in &data[..len] {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), sha256(&data[..len]), "length {len}");
        }
    }

    /// The padding boundaries: 55 bytes leave room for the length in the
    /// same block, 56..=63 push it into a second, 64 fills a block
    /// exactly; 119/120 are the same edges one block later.
    #[test]
    fn padding_boundaries() {
        let cases: &[(usize, &str)] = &[
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ];
        for &(len, want) in cases {
            assert_eq!(hex::encode(&sha256(&vec![b'a'; len])), want, "{len} x 'a'");
        }
    }

    /// The fixed-block second pass of `sha256d` is the plain hash of the
    /// first digest.
    #[test]
    fn double_sha_is_sha_of_sha() {
        for len in [0, 1, 32, 55, 56, 63, 64, 80, 88, 119, 120, 200] {
            let data: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
            assert_eq!(sha256d(&data), sha256(&sha256(&data)), "length {len}");
        }
    }

    /// The textbook compression (FIPS 180-4 § 6.2.2): the whole 64-word
    /// schedule first, then 64 rounds shifting the working variables.
    fn reference_compress(state: &mut [u32; 8], block: &[u8; 64]) {
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
        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }

    /// The unrolled, rolling-schedule compression equals the textbook
    /// one on 16 384 seeded blocks, each chained onto the state the last
    /// left (so states are arbitrary too), plus the all-zero and all-one
    /// blocks from the initial state.
    #[test]
    fn compress_matches_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut fast = Sha256::new();
        let mut slow = H0;
        for n in 0..16_384 {
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            fast.compress(&block);
            reference_compress(&mut slow, &block);
            assert_eq!(fast.state, slow, "block {n}");
        }
        for fill in [0x00, 0xff] {
            let mut fast = Sha256::new();
            let mut slow = H0;
            fast.compress(&[fill; 64]);
            reference_compress(&mut slow, &[fill; 64]);
            assert_eq!(fast.state, slow, "all-{fill:#04x} block");
        }
    }

    #[test]
    fn double_sha() {
        // sha256d("hello") — well-known value used in Bitcoin examples.
        assert_eq!(
            hex::encode(&sha256d(b"hello")),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }
}
