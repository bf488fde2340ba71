//! CRC-32 (IEEE 802.3 polynomial, reflected) used for WAL record framing and
//! page trailers. Table-driven, generated at compile time.

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Compute the CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_seeded(0, data)
}

/// The CRC-32 of `data` continued from `seed`, the CRC-32 of whatever came
/// before it: `crc32_seeded(crc32(a), b) == crc32(a ++ b)`, and a seed of 0
/// is [`crc32`] itself. The log chains its frames this way.
pub fn crc32_seeded(seed: u32, data: &[u8]) -> u32 {
    let mut crc = !seed;
    for &byte in data {
        let idx = ((crc ^ byte as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn a_seed_continues_the_checksum() {
        let (a, b) = (&b"1234"[..], &b"56789"[..]);
        assert_eq!(crc32_seeded(crc32(a), b), 0xCBF4_3926);
        assert_eq!(crc32_seeded(0, b), crc32(b));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 256];
        let base = crc32(&data);
        data[100] ^= 0x10;
        assert_ne!(crc32(&data), base);
    }
}
