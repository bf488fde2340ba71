//! `lobster-sha256`. Pinned: `Sha256::digest`.

use lobster_sha256::Sha256;

pub fn digest(data: &[u8]) -> [u8; 32] {
    Sha256::digest(data)
}
