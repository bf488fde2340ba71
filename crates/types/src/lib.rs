//! Shared primitive types for the LOBSTER engine.
//!
//! Everything in this crate is dependency-free and used by every other crate
//! in the workspace: page identifiers, byte/page geometry, the common error
//! type, and a small CRC-32 implementation used for log-record framing.

#![forbid(unsafe_code)]

mod crc32;
mod error;
mod geometry;
mod pid;
mod retry;

pub use crc32::{crc32, crc32_seeded};
pub use error::{Error, Result};
pub use geometry::Geometry;
pub use pid::{Pid, INVALID_PID};
pub use retry::{RetryPolicy, RetryStats};

/// Default page size in bytes (4 KiB), matching the paper's assumption of a
/// buffer cache with fixed-size pages in the 4–64 KiB range.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Maximum number of extents in an extent sequence (excluding the tail
/// extent). The paper's Blob State stores the extent count in a single byte
/// and cites 127 extents as sufficient for a 10 PB BLOB.
pub const MAX_EXTENTS_PER_BLOB: usize = 127;

/// Read a little-endian `u64` from the start of `buf`.
#[inline]
pub fn read_u64(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[..8].try_into().expect("buffer shorter than 8 bytes"))
}

/// Read a little-endian `u32` from the start of `buf`.
#[inline]
pub fn read_u32(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[..4].try_into().expect("buffer shorter than 4 bytes"))
}

/// Read a little-endian `u16` from the start of `buf`.
#[inline]
pub fn read_u16(buf: &[u8]) -> u16 {
    u16::from_le_bytes(buf[..2].try_into().expect("buffer shorter than 2 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endian_helpers_roundtrip() {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&0xdead_beef_cafe_f00du64.to_le_bytes());
        assert_eq!(read_u64(&buf), 0xdead_beef_cafe_f00d);
        assert_eq!(read_u32(&buf), 0xcafe_f00d);
        assert_eq!(read_u16(&buf), 0xf00d);
    }
}
