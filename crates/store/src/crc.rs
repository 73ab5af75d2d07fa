//! CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant), slice-by-8.
//!
//! The workspace is dependency-free, so the checksum is implemented here:
//! 8 KiB of lazily built lookup tables, eight bytes folded per step (the
//! checkpoint payload is >100 MB at the paper's scale and is checksummed
//! on every boot and every compaction). Used by the WAL frame codec,
//! snapshot files and the manifest to detect torn writes and bit rot.
//! [`Crc32`] is the same checksum taken as the bytes arrive, so a
//! checkpoint is checked piece by piece while it is decoded.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// `tables()[0]` is the classic byte-at-a-time table; `tables()[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor, reflected — matches
/// zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// A running CRC-32 over bytes that arrive in pieces: feeding the
/// pieces in order to [`Crc32::update`] gives [`crc32`] of their
/// concatenation.
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// The checksum of no bytes yet.
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `data` in.
    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.0;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of every byte folded in so far.
    pub(crate) fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one table lookup per byte.
    fn bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slice_by_8_equals_bytewise_at_every_length_and_alignment() {
        // Seeded xorshift bytes; every length 0..=64 at every offset into
        // the buffer, so each split of head words and tail bytes occurs at
        // each address alignment.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..64 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
        let long: Vec<u8> = buf.iter().cycle().take(100_003).copied().collect();
        assert_eq!(crc32(&long), bytewise(&long));
    }

    #[test]
    fn pieces_fed_in_order_give_the_one_shot_checksum() {
        let data: Vec<u8> = (0..1_000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for piece in [1, 3, 7, 8, 9, 64, 999, 1_000] {
            let mut c = Crc32::new();
            for p in data.chunks(piece) {
                c.update(p);
            }
            assert_eq!(c.finish(), crc32(&data), "pieces of {piece}");
        }
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
