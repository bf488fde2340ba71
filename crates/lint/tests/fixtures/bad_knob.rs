//! Fixture for the dead-knob rule: a configuration struct whose
//! `lock_wait` nothing outside this file ever sets. `pool_frames` and
//! `commit_wait` are set by `bad_knob_user.rs`; `page_size` carries the
//! note. Linted together with that file.

pub struct Config {
    // knob: fixed at create; read back from the header on open
    pub page_size: usize,
    pub pool_frames: u64,
    pub lock_wait: u64,
    pub commit_wait: bool,
    pub(crate) scratch: u8,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            page_size: 4096,
            pool_frames: 16,
            lock_wait: 5,
            commit_wait: true,
            scratch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    fn sets_it_in_a_test() -> super::Config {
        super::Config {
            lock_wait: 1,
            ..Default::default()
        }
    }
}
