//! CRC-32/IEEE (the Ethernet/zip polynomial, reflected `0xEDB88320`).
//!
//! The one checksum behind the overlay's frames (`p2p::transport::frame`)
//! and the chain store's records (`chain::store::files`). It is not a
//! MAC — the frame tag is — but it sits on the same per-byte path, so it
//! is computed slicing-by-8: eight bytes a step through eight 256-entry
//! tables, each step one xor-fold of eight lookups instead of eight
//! dependent shifts.

/// Incremental CRC-32/IEEE: feed the message in any number of parts.
///
/// # Examples
///
/// ```
/// use bcwan_crypto::crc32::{crc32, Crc32};
///
/// let mut crc = Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finalize(), 0xcbf4_3926);
/// assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC register
/// after byte `b` and then `k` zero bytes, so one step can fold eight
/// input bytes at eight distances.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A CRC over no bytes yet.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = t7[(lo & 0xff) as usize]
                ^ t6[((lo >> 8) & 0xff) as usize]
                ^ t5[((lo >> 16) & 0xff) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xff) as usize]
                ^ t2[((hi >> 8) & 0xff) as usize]
                ^ t1[((hi >> 16) & 0xff) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t0[((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The CRC of everything absorbed.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32/IEEE of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time: what the tables must agree with.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xedb8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Seeded bytes (xorshift), so every table index gets hit.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(bitwise(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length up to 1 KiB: each remainder length after each number
    /// of whole eight-byte steps.
    #[test]
    fn sliced_equals_bitwise_at_every_length() {
        let data = noise(1024, 0x5eed);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    /// Feeding in two parts, split anywhere, equals one part — the
    /// register carries across an eight-byte step cut in two.
    #[test]
    fn every_two_part_split_equals_one_shot() {
        let data = noise(300, 0xc0de);
        let whole = bitwise(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finalize(), whole, "split at {split}");
        }
    }
}
