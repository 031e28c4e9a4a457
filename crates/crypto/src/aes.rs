//! AES-256 block cipher and CBC mode with PKCS#7 padding (FIPS 197,
//! NIST SP 800-38A).
//!
//! This is the symmetric layer of BcWAN (paper §5.1): the node and the
//! recipient share an AES-256 key `K`; payloads are encrypted in CBC mode
//! with a random 16-byte IV, producing the 34-byte frame of paper Fig. 4
//! for plaintexts of at most 16 bytes.

/// AES block size in bytes.
pub(crate) const BLOCK_SIZE: usize = 16;
/// AES-256 key size in bytes.
pub(crate) const KEY_SIZE: usize = 32;

const NK: usize = 8; // 256-bit key words
const NR: usize = 14; // rounds for AES-256

static SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

static INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES-256 key ready for block operations.
///
/// # Examples
///
/// ```
/// use bcwan_crypto::aes::Aes256;
///
/// let key = [0u8; 32];
/// let aes = Aes256::new(&key);
/// let block = [0u8; 16];
/// let ct = aes.encrypt_block(&block);
/// assert_eq!(aes.decrypt_block(&ct), block);
/// ```
#[derive(Clone)]
pub struct Aes256 {
    round_keys: [[u8; 16]; NR + 1],
}

impl std::fmt::Debug for Aes256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes256 { .. }")
    }
}

impl Aes256 {
    /// Expands a 256-bit key.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        let mut w = [[0u8; 4]; 4 * (NR + 1)];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = [chunk[0], chunk[1], chunk[2], chunk[3]];
        }
        for i in NK..4 * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / NK - 1];
            } else if i % NK == 4 {
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - NK][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Aes256 { round_keys }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..NR {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[NR]);
        state
    }

    /// Decrypts a single 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[NR]);
        for round in (1..NR).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

// State is column-major: state[4*c + r] is row r, column c (FIPS 197 layout).
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = INV_SBOX[*s as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    let copy = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[c * 4 + r] = copy[((c + r) % 4) * 4 + r];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let copy = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[((c + r) % 4) * 4 + r] = copy[c * 4 + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[c * 4],
            state[c * 4 + 1],
            state[c * 4 + 2],
            state[c * 4 + 3],
        ];
        state[c * 4] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[c * 4 + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[c * 4 + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[c * 4 + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[c * 4],
            state[c * 4 + 1],
            state[c * 4 + 2],
            state[c * 4 + 3],
        ];
        state[c * 4] =
            gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        state[c * 4 + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        state[c * 4 + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        state[c * 4 + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

/// Error returned by CBC decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbcError {
    /// Ciphertext length is not a multiple of the block size (or empty).
    BadLength(usize),
    /// PKCS#7 padding was malformed after decryption.
    BadPadding,
}

impl std::fmt::Display for CbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CbcError::BadLength(n) => {
                write!(f, "ciphertext length {n} is not a positive multiple of 16")
            }
            CbcError::BadPadding => write!(f, "invalid pkcs#7 padding"),
        }
    }
}

impl std::error::Error for CbcError {}

/// Encrypts `plaintext` with AES-256-CBC and PKCS#7 padding.
///
/// The output length is `plaintext.len()` rounded up to the next multiple of
/// 16 (a full extra block when already aligned) — for the paper's ≤16-byte
/// sensor readings this is exactly one 16-byte ciphertext block (Fig. 4).
pub fn cbc_encrypt(key: &[u8; KEY_SIZE], iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    let aes = Aes256::new(key);
    let pad = BLOCK_SIZE - plaintext.len() % BLOCK_SIZE;
    let mut data = plaintext.to_vec();
    data.extend(std::iter::repeat_n(pad as u8, pad));

    let mut out = Vec::with_capacity(data.len());
    let mut prev = *iv;
    for chunk in data.chunks_exact(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            block[i] = chunk[i] ^ prev[i];
        }
        prev = aes.encrypt_block(&block);
        out.extend_from_slice(&prev);
    }
    out
}

/// Decrypts AES-256-CBC ciphertext and strips PKCS#7 padding.
///
/// # Errors
///
/// Returns [`CbcError`] when the length is not a positive multiple of 16 or
/// the padding is malformed (wrong key/IV typically surfaces this way).
pub fn cbc_decrypt(
    key: &[u8; KEY_SIZE],
    iv: &[u8; BLOCK_SIZE],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CbcError> {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CbcError::BadLength(ciphertext.len()));
    }
    let aes = Aes256::new(key);
    let mut out = Vec::with_capacity(ciphertext.len());
    let mut prev = *iv;
    for chunk in ciphertext.chunks_exact(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(chunk);
        let decrypted = aes.decrypt_block(&block);
        for i in 0..BLOCK_SIZE {
            out.push(decrypted[i] ^ prev[i]);
        }
        prev = block;
    }
    let pad = *out.last().expect("non-empty") as usize;
    if pad == 0 || pad > BLOCK_SIZE || out.len() < pad {
        return Err(CbcError::BadPadding);
    }
    if out[out.len() - pad..].iter().any(|&b| b as usize != pad) {
        return Err(CbcError::BadPadding);
    }
    out.truncate(out.len() - pad);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // FIPS 197 Appendix C.3 known-answer test for AES-256.
    #[test]
    fn fips197_appendix_c3() {
        let key: [u8; 32] =
            hex::decode("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .unwrap()
                .try_into()
                .unwrap();
        let plain: [u8; 16] = hex::decode("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes256::new(&key);
        let ct = aes.encrypt_block(&plain);
        assert_eq!(hex::encode(&ct), "8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(aes.decrypt_block(&ct), plain);
    }

    // NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt), first block, no padding
    // interference because we check the raw first block only.
    #[test]
    fn sp800_38a_cbc_first_block() {
        let key: [u8; 32] =
            hex::decode("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .unwrap()
                .try_into()
                .unwrap();
        let iv: [u8; 16] = hex::decode("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let plaintext = hex::decode("6bc1bee22e409f96e93d7e117393172a").unwrap();
        let ct = cbc_encrypt(&key, &iv, &plaintext);
        assert_eq!(hex::encode(&ct[..16]), "f58c4c04d6e5f1ba779eabfb5f7bfbd6");
    }

    #[test]
    fn cbc_round_trip_various_lengths() {
        let key = [0x42u8; 32];
        let iv = [0x24u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100] {
            let plaintext: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = cbc_encrypt(&key, &iv, &plaintext);
            assert_eq!(ct.len(), (len / 16 + 1) * 16);
            assert_eq!(cbc_decrypt(&key, &iv, &ct).unwrap(), plaintext, "len {len}");
        }
    }

    #[test]
    fn paper_fig4_sixteen_byte_reading_is_one_block() {
        // A <16-byte sensor reading (paper: "temperature, humidity level...")
        // yields exactly 16 ciphertext bytes: with the IV that is the 34-byte
        // frame of Fig. 4 (1 len + 16 IV + 1 len + 16 ct).
        let key = [7u8; 32];
        let iv = [9u8; 16];
        let ct = cbc_encrypt(&key, &iv, b"t=21.5C;h=40%");
        assert_eq!(ct.len(), 16);
    }

    #[test]
    fn cbc_decrypt_errors() {
        let key = [0u8; 32];
        let iv = [0u8; 16];
        assert_eq!(cbc_decrypt(&key, &iv, &[]), Err(CbcError::BadLength(0)));
        assert_eq!(
            cbc_decrypt(&key, &iv, &[0u8; 15]),
            Err(CbcError::BadLength(15))
        );
        // Random block: overwhelmingly likely to have bad padding.
        let garbage = [0xa5u8; 16];
        assert_eq!(cbc_decrypt(&key, &iv, &garbage), Err(CbcError::BadPadding));
    }

    #[test]
    fn wrong_key_fails_or_differs() {
        let key = [1u8; 32];
        let wrong = [2u8; 32];
        let iv = [3u8; 16];
        let ct = cbc_encrypt(&key, &iv, b"secret sensor data");
        match cbc_decrypt(&wrong, &iv, &ct) {
            Err(CbcError::BadPadding) => {}
            Ok(pt) => assert_ne!(pt, b"secret sensor data".to_vec()),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn different_iv_different_ciphertext() {
        let key = [5u8; 32];
        let ct1 = cbc_encrypt(&key, &[0u8; 16], b"same message");
        let ct2 = cbc_encrypt(&key, &[1u8; 16], b"same message");
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn debug_hides_key() {
        let aes = Aes256::new(&[0xaau8; 32]);
        assert_eq!(format!("{aes:?}"), "Aes256 { .. }");
    }
}
