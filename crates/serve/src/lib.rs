//! `lobster-serve`: a zero-copy TCP blob-serving front end for the
//! LOBSTER engine.
//!
//! The paper's client/server baselines charge a *modeled* per-request
//! overhead (round trip + per-KiB transfer); this crate makes that cost
//! real: a length-prefixed binary protocol (ping / put / get / get_range
//! / stat) served directly from [`lobster_core::ShardedDatabase`], with
//! range reads streamed chunk-by-chunk straight out of the buffer pool's
//! frames under `prevent_evict` streaming leases — no intermediate
//! response buffer. See DESIGN.md §"serving path" for the frame layout,
//! the pin-lease lifecycle, and the backpressure rules.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod server;

pub use protocol::{
    encode_request, parse_borrowed, parse_request, read_response, write_response,
    write_response_header, Client, Opcode, Parsed, Request, Response, StatReply, Status,
    DEFAULT_MAX_FRAME,
};
pub use server::{ServeConfig, Server, ServerHandle, WorkerSlots};
