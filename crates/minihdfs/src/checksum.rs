//! Block checksums — the HDFS `DataChecksum` analogue.
//!
//! Real HDFS writes a CRC per 512-byte chunk into `.meta` sidecar
//! files and verifies on every read, failing over to another replica
//! on a mismatch. This module provides the same guarantee one level
//! coarser: one IEEE CRC-32 per block, computed by `write_lines` and
//! re-verified by every block read.

/// The reflected IEEE polynomial, as used by HDFS, zlib and ethernet.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time
/// table, and `TABLES[k][b]` is the CRC register after byte `b` is
/// followed by `k` zero bytes, so eight table lookups advance the CRC
/// over one 8-byte word.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// IEEE CRC-32 of `bytes`, eight bytes per step (slicing-by-8); the
/// tail of fewer than eight bytes goes through the byte loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    // The block-verification kernel of every DFS read and write.
    // tidy:alloc-free:start
    let t = &TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
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
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    // tidy:alloc-free:end
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_bytewise_reference_at_every_short_length() {
        let buf = noise(64, 0x9E37_79B9);
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn matches_bytewise_reference_on_unaligned_slices() {
        let buf = noise(4096, 0xC0FF_EE00_1234);
        for start in 0..16 {
            for len in [0, 1, 7, 8, 9, 63, 255, 1000, 4096 - 16] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        // A few odd windows across the whole buffer.
        for (start, end) in [(3, 4093), (1, 4096), (4095, 4096), (777, 3333)] {
            let s = &buf[start..end];
            assert_eq!(crc32(s), crc32_bytewise(s), "{start}..{end}");
        }
    }

    #[test]
    fn matches_bytewise_reference_on_a_full_block() {
        // One block at the DFS default size, built from text lines as
        // `write_lines` would store it.
        let block = crate::DEFAULT_BLOCK_SIZE;
        let mut data = Vec::with_capacity(block);
        let mut i = 0u64;
        while data.len() < block {
            data.extend_from_slice(
                format!("{i}\tPOINT ({} {})\n", i * 7 % 1000, i % 97).as_bytes(),
            );
            i += 1;
        }
        data.truncate(block);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let clean = b"some block payload\n".to_vec();
        let base = crc32(&clean);
        for i in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc32(&bad), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
