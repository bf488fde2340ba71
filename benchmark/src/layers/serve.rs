//! `lobster-serve`: the TCP front door.
//!
//! Pinned: `Server::start`, `ServeConfig { addr, .. }` + `Default`,
//! `ServerHandle::{local_addr, shutdown}`, `Client::{connect, ping, stat,
//! get, put}`, `Response::{status, body}`, `Status::{Ok, Busy, ServerErr}`, and for
//! the codec probe `encode_request`, `parse_request`, `Request::Put`,
//! `Parsed::Req`.

use crate::layers::core::Engine;
use crate::trace;
use lobster_serve::{encode_request, parse_request, Client, Parsed, Request, ServeConfig, Server};
use lobster_types::Result;

pub use lobster_serve::{ServerHandle, Status};

/// Serve `engine` on an ephemeral loopback port.
pub fn start(engine: &Engine) -> Result<ServerHandle> {
    Server::start(
        engine.sdb.clone(),
        engine.rel.clone(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
}

/// One persistent connection.
pub struct Conn(Client);

impl Conn {
    pub fn connect(server: &ServerHandle) -> Result<Conn> {
        Client::connect(&server.local_addr().to_string()).map(Conn)
    }

    pub fn ping(&mut self) -> Result<Status> {
        let _s = trace::span("serve.ping");
        self.0.ping()
    }

    /// Status and the 40-byte size + SHA-256 reply.
    pub fn stat(&mut self, key: &[u8]) -> Result<(Status, Vec<u8>)> {
        let _s = trace::span("serve.stat");
        self.0.stat(key).map(|r| (r.status, r.body))
    }

    pub fn get(&mut self, key: &[u8]) -> Result<(Status, Vec<u8>)> {
        let _s = trace::span("serve.get");
        self.0.get(key).map(|r| (r.status, r.body))
    }

    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Status> {
        let _s = trace::span("serve.put");
        self.0.put(key, value)
    }
}

/// Encode a PUT into a frame and parse it back: the codec work of one
/// request on both ends, without a socket. Returns the parsed value length.
pub fn codec_roundtrip(key: &[u8], value: &[u8]) -> usize {
    let frame = encode_request(&Request::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    });
    match parse_request(&frame[4..]) {
        Parsed::Req(Request::Put { value, .. }) => value.len(),
        _ => 0,
    }
}
