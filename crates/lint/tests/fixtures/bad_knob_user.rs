//! The production caller of `bad_knob.rs`'s `Config`: sets two of its
//! knobs and only *reads* `lock_wait`.

pub fn engine_config(frames: u64) -> Config {
    let mut cfg = Config {
        pool_frames: frames,
        ..Config::default()
    };
    cfg.commit_wait = false;
    if cfg.lock_wait == 5 {
        cfg.commit_wait = true;
    }
    cfg
}
