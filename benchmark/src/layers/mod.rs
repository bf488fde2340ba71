//! One adapter per layer crate. An adapter is the only file that names
//! its crate's items, so the list of what the benchmark pins (README,
//! "Pinned API") can be read off the `use` lines, and it is where the
//! front-door spans of the traced run are opened.

pub mod btree;
pub mod buffer;
pub mod core;
pub mod extent;
pub mod serve;
pub mod sha256;
pub mod storage;
pub mod wal;
