//! Wire protocol for `lobster-serve`: length-prefixed binary frames over
//! TCP, little-endian throughout.
//!
//! # Request frame
//!
//! ```text
//! u32 body_len | body
//! body = u8 opcode | payload
//!   PING      (1): (empty)
//!   PUT       (2): u16 klen | key | u32 vlen | value
//!   GET       (3): u16 klen | key
//!   GET_RANGE (4): u16 klen | key | u64 offset | u64 len
//!   STAT      (5): u16 klen | key
//! ```
//!
//! # Response frame
//!
//! ```text
//! u8 status | u64 body_len | body
//!   OK + GET/GET_RANGE: body = payload bytes (streamed in chunks)
//!   OK + STAT:          body = u64 size | [u8; 32] sha256
//!   OK + PING/PUT:      body empty
//!   any error status:   body empty
//! ```
//!
//! A GET/GET_RANGE response's `body_len` is computed from the Blob State
//! *before* streaming, so clients always know how many payload bytes
//! follow; a mid-stream server/client failure surfaces as a short body
//! (connection close), never a corrupt frame. The header leaves in the
//! same vectored write as the first body bytes ([`write_response`]), so a
//! response that fits one chunk is one system call and one segment; how a
//! frame is split across writes is never part of the format. Error statuses are sent as
//! complete frames and — except for [`Status::TooLarge`] on an oversized
//! *request* frame, where the stream can no longer be re-synchronized —
//! leave the connection open for the next request.

use lobster_types::{Error, Result};
use std::io::{BufReader, ErrorKind, IoSlice, Read, Write};

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    Ping = 1,
    Put = 2,
    Get = 3,
    GetRange = 4,
    Stat = 5,
}

impl Opcode {
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::Ping),
            2 => Some(Opcode::Put),
            3 => Some(Opcode::Get),
            4 => Some(Opcode::GetRange),
            5 => Some(Opcode::Stat),
            _ => None,
        }
    }
}

/// Response status codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    Ok = 0,
    NotFound = 1,
    /// Request frame or value exceeds the server's configured maximum.
    TooLarge = 2,
    /// Malformed request body (short fields, trailing garbage).
    BadFrame = 3,
    UnknownOpcode = 4,
    /// Shed by admission control or the pin-gate; retry later.
    Busy = 5,
    /// Engine-side failure (I/O error, conflict retries exhausted).
    ServerErr = 6,
    /// Server is draining for shutdown.
    ShuttingDown = 7,
}

impl Status {
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::NotFound),
            2 => Some(Status::TooLarge),
            3 => Some(Status::BadFrame),
            4 => Some(Status::UnknownOpcode),
            5 => Some(Status::Busy),
            6 => Some(Status::ServerErr),
            7 => Some(Status::ShuttingDown),
            _ => None,
        }
    }
}

/// Default cap on request frame bodies (opcode + payload). PUT values must
/// fit in a frame; GET responses stream and are not capped by this.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// What a connection keeps buffered between requests, on either end: room
/// for any small request or response in one read. A larger frame grows the
/// buffer for as long as it is in flight only.
const SMALL_FRAME: usize = 16 << 10;

/// One request. `B` is how it holds key and value bytes: the server parses
/// `Request<&[u8]>` views into its read buffer ([`parse_borrowed`]) and
/// the client encodes from the caller's slices; the owned default is for
/// code that builds a request to keep or compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request<B = Vec<u8>> {
    Ping,
    Put { key: B, value: B },
    Get { key: B },
    GetRange { key: B, offset: u64, len: u64 },
    Stat { key: B },
}

impl<B: AsRef<[u8]>> Request<B> {
    fn map<'a, C>(&'a self, f: impl Fn(&'a B) -> C) -> Request<C> {
        match self {
            Request::Ping => Request::Ping,
            Request::Put { key, value } => Request::Put {
                key: f(key),
                value: f(value),
            },
            Request::Get { key } => Request::Get { key: f(key) },
            Request::GetRange { key, offset, len } => Request::GetRange {
                key: f(key),
                offset: *offset,
                len: *len,
            },
            Request::Stat { key } => Request::Stat { key: f(key) },
        }
    }

    /// Append this request's length-prefixed frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        fn open(out: &mut Vec<u8>, op: Opcode, key: &[u8]) {
            out.push(op as u8);
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key);
        }
        let at = out.len();
        out.extend_from_slice(&[0; 4]); // body length, patched below
        match self.map(AsRef::as_ref) {
            Request::Ping => out.push(Opcode::Ping as u8),
            Request::Put { key, value } => {
                out.reserve(7 + key.len() + value.len());
                open(out, Opcode::Put, key);
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            Request::Get { key } => open(out, Opcode::Get, key),
            Request::GetRange { key, offset, len } => {
                open(out, Opcode::GetRange, key);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::Stat { key } => open(out, Opcode::Stat, key),
        }
        let body_len = (out.len() - at - 4) as u32;
        if let Some(prefix) = out.get_mut(at..at + 4) {
            prefix.copy_from_slice(&body_len.to_le_bytes());
        }
    }
}

/// Encode a request into a length-prefixed frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    req.encode_into(&mut frame);
    frame
}

/// Outcome of parsing one complete request body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parsed<R = Request> {
    Req(R),
    /// Opcode byte not in the protocol — answer [`Status::UnknownOpcode`].
    UnknownOpcode,
    /// Structurally invalid body — answer [`Status::BadFrame`].
    Bad,
}

/// Parse a request body (everything after the `u32` length prefix) into
/// views of `body`: nothing is copied. Never panics on malformed input —
/// the torture fuzz loop feeds this arbitrary bytes.
pub fn parse_borrowed(body: &[u8]) -> Parsed<Request<&[u8]>> {
    fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        let (head, tail) = b.split_at_checked(n)?;
        *b = tail;
        Some(head)
    }
    fn take_key<'a>(b: &mut &'a [u8]) -> Option<&'a [u8]> {
        let klen = u16::from_le_bytes(*take(b, 2)?.first_chunk()?);
        take(b, klen as usize)
    }
    fn take_u32(b: &mut &[u8]) -> Option<u32> {
        Some(u32::from_le_bytes(*take(b, 4)?.first_chunk()?))
    }
    fn take_u64(b: &mut &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(*take(b, 8)?.first_chunk()?))
    }

    let Some((&op, mut b)) = body.split_first() else {
        return Parsed::Bad;
    };
    let Some(op) = Opcode::from_u8(op) else {
        return Parsed::UnknownOpcode;
    };
    let parsed = (|| {
        let req = match op {
            Opcode::Ping => Request::Ping,
            Opcode::Put => {
                let key = take_key(&mut b)?;
                let vlen = take_u32(&mut b)? as usize;
                let value = take(&mut b, vlen)?;
                Request::Put { key, value }
            }
            Opcode::Get => Request::Get {
                key: take_key(&mut b)?,
            },
            Opcode::GetRange => Request::GetRange {
                key: take_key(&mut b)?,
                offset: take_u64(&mut b)?,
                len: take_u64(&mut b)?,
            },
            Opcode::Stat => Request::Stat {
                key: take_key(&mut b)?,
            },
        };
        // Trailing garbage after a well-formed request is a framing bug.
        b.is_empty().then_some(req)
    })();
    match parsed {
        Some(req) => Parsed::Req(req),
        None => Parsed::Bad,
    }
}

/// [`parse_borrowed`] with the key and value copied out of `body`.
pub fn parse_request(body: &[u8]) -> Parsed {
    match parse_borrowed(body) {
        Parsed::Req(req) => Parsed::Req(req.map(|b| b.to_vec())),
        Parsed::UnknownOpcode => Parsed::UnknownOpcode,
        Parsed::Bad => Parsed::Bad,
    }
}

/// Result of waiting for one complete request frame.
pub(crate) enum FrameRead<'a> {
    /// The frame's body (opcode + payload), a view into the [`FrameBuf`].
    Body(&'a [u8]),
    /// Length prefix exceeds `max_frame`; the stream cannot be re-synced.
    TooLarge,
    /// Peer closed between frames.
    CleanEof,
    /// Peer closed mid-frame or errored.
    DirtyEof,
    /// `stop` answered true and no complete frame is pending.
    Stopped,
}

/// A connection's request buffer: one allocation reused for every frame,
/// consumed by cursor, so back-to-back (pipelined) requests cost no
/// copying and a request split across reads is assembled in place. It
/// holds [`SMALL_FRAME`] bytes between requests. A length prefix is the
/// peer's claim, not yet bytes, so a longer frame grows the buffer only
/// as its bytes arrive — when full, to at most twice what has arrived
/// and never past the frame — and it returns to the small size when the
/// next, shorter frame is awaited.
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf {
            buf: vec![0; SMALL_FRAME],
            start: 0,
            end: 0,
        }
    }
}

impl FrameBuf {
    /// Read from `r` until one complete frame is buffered and return its
    /// body. `stop` is consulted whenever more bytes are needed — so also
    /// on every read-timeout tick of `r` — and ends the wait; fully
    /// received frames are still handed out first.
    pub(crate) fn next_frame(
        &mut self,
        r: &mut impl Read,
        max_frame: u32,
        stop: impl Fn() -> bool,
    ) -> FrameRead<'_> {
        let body = loop {
            let pending = self.buf.get(self.start..self.end).unwrap_or_default();
            // Bytes the frame at the cursor needs in all; until its length
            // prefix is in, the prefix.
            let mut want = 4;
            if let Some(len) = pending.first_chunk::<4>() {
                let len = u32::from_le_bytes(*len);
                if len > max_frame {
                    return FrameRead::TooLarge;
                }
                want += len as usize;
                if pending.len() >= want {
                    let at = self.start;
                    self.start += want;
                    break at + 4..at + want;
                }
            }
            if stop() {
                return FrameRead::Stopped;
            }
            self.make_room(want);
            match r.read(self.buf.get_mut(self.end..).unwrap_or_default()) {
                Ok(0) if self.start == self.end => return FrameRead::CleanEof,
                Ok(0) => return FrameRead::DirtyEof,
                Ok(n) => self.end += n,
                // Timeout tick or signal: go round and ask `stop` again.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return FrameRead::DirtyEof,
            }
        };
        match self.buf.get(body) {
            Some(body) => FrameRead::Body(body),
            None => FrameRead::DirtyEof,
        }
    }

    /// Give the next read somewhere to land for a frame of `want` bytes
    /// in all, more than are pending: move the pending bytes to the front
    /// when the frame would run past the end, and resize the buffer when
    /// it is full or holds more than this frame has earned so far.
    fn make_room(&mut self, want: usize) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let pending = self.end - self.start;
        let earned = want.min(2 * pending).max(SMALL_FRAME);
        let len = self.buf.len();
        if self.start + want > len || len > earned {
            self.buf.copy_within(self.start..self.end, 0);
            self.start = 0;
            self.end = pending;
            if pending == len || len > earned {
                self.buf.resize(earned, 0);
                self.buf.shrink_to(earned);
            }
        }
    }
}

/// Write one response frame: the header (`status | u64 body_len`) and
/// `first`, the body's first bytes (all of them when the body is one
/// chunk), in a single vectored write. A writer that accepts only part
/// is handed the rest until everything is out. The remaining
/// `body_len - first.len()` body bytes, if any, follow via plain
/// `write_all` calls.
pub fn write_response(
    w: &mut impl Write,
    status: Status,
    body_len: u64,
    first: &[u8],
) -> Result<()> {
    let mut hdr = [0u8; 9];
    let [status_byte, len_bytes @ ..] = &mut hdr;
    *status_byte = status as u8;
    *len_bytes = body_len.to_le_bytes();

    let (mut head, mut body): (&[u8], &[u8]) = (&hdr, first);
    while !head.is_empty() && !body.is_empty() {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(Error::Io(ErrorKind::WriteZero.into())),
            Ok(n) => {
                let from_head = n.min(head.len());
                head = head.get(from_head..).unwrap_or_default();
                body = body.get(n - from_head..).unwrap_or_default();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Io(e)),
        }
    }
    w.write_all(head).map_err(Error::Io)?;
    w.write_all(body).map_err(Error::Io)
}

/// Write a response with no body bytes of its own: every error status,
/// and `OK` for PING/PUT or an empty range.
pub fn write_response_header(w: &mut impl Write, status: Status, body_len: u64) -> Result<()> {
    write_response(w, status, body_len, &[])
}

/// Blob metadata returned by STAT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatReply {
    pub size: u64,
    pub sha256: [u8; 32],
}

/// One parsed response: status plus body (payload for GET, 40-byte
/// metadata for STAT, empty otherwise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: Status,
    pub body: Vec<u8>,
}

impl Response {
    pub fn stat(&self) -> Option<StatReply> {
        if self.status != Status::Ok || self.body.len() != 40 {
            return None;
        }
        let (size, sha256) = self.body.split_first_chunk::<8>()?;
        Some(StatReply {
            size: u64::from_le_bytes(*size),
            sha256: *sha256.first_chunk()?,
        })
    }
}

/// Most a response header may make [`read_response`] allocate before any
/// body byte has arrived.
const MAX_BODY_RESERVE: u64 = 1 << 20;

/// Read one full response (header + body) from `r`.
///
/// The header's `body_len` comes from the wire, so it is taken at its
/// word only once the body's first 1 MiB (`MAX_BODY_RESERVE`) have
/// arrived; the rest is then reserved in one piece, fallibly, and read in
/// place. A header claiming more than the peer sends ends as
/// `Error::Io(UnexpectedEof)`, one claiming more than can be reserved as
/// `Error::Io(OutOfMemory)`.
pub fn read_response(r: &mut impl Read) -> Result<Response> {
    let mut hdr = [0u8; 9];
    r.read_exact(&mut hdr).map_err(Error::Io)?;
    let [status_byte, len_bytes @ ..] = hdr;
    let Some(status) = Status::from_u8(status_byte) else {
        return Err(Error::Corruption(format!(
            "unknown response status {status_byte}"
        )));
    };
    let mut left = u64::from_le_bytes(len_bytes);
    let mut body = Vec::new();
    while left > 0 {
        let step = if body.is_empty() {
            left.min(MAX_BODY_RESERVE)
        } else {
            left
        };
        usize::try_from(step)
            .ok()
            .and_then(|n| body.try_reserve_exact(n).ok())
            .ok_or_else(|| Error::Io(ErrorKind::OutOfMemory.into()))?;
        let got = r.take(step).read_to_end(&mut body).map_err(Error::Io)?;
        if (got as u64) < step {
            return Err(Error::Io(ErrorKind::UnexpectedEof.into()));
        }
        left -= step;
    }
    Ok(Response { status, body })
}

/// Blocking protocol client over one TCP connection. Used by the load
/// generator, the smoke tests, and as the reference implementation of the
/// wire format.
pub struct Client {
    /// Buffered so a response's header and a small body arrive in one
    /// `read`; a body larger than the buffer is read straight into place.
    conn: BufReader<std::net::TcpStream>,
    /// The request frame being sent, reused across calls.
    frame: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = std::net::TcpStream::connect(addr).map_err(Error::Io)?;
        stream.set_nodelay(true).map_err(Error::Io)?;
        Ok(Client::from_stream(stream))
    }

    pub fn from_stream(stream: std::net::TcpStream) -> Client {
        Client {
            conn: BufReader::with_capacity(SMALL_FRAME, stream),
            frame: Vec::new(),
        }
    }

    pub fn stream(&self) -> &std::net::TcpStream {
        self.conn.get_ref()
    }

    fn call(&mut self, req: Request<&[u8]>) -> Result<Response> {
        self.frame.clear();
        req.encode_into(&mut self.frame);
        let sent = self.conn.get_mut().write_all(&self.frame);
        if self.frame.capacity() > SMALL_FRAME {
            // A large PUT's frame is not kept for the connection's life.
            self.frame = Vec::new();
        }
        sent.map_err(Error::Io)?;
        read_response(&mut self.conn)
    }

    pub fn ping(&mut self) -> Result<Status> {
        Ok(self.call(Request::Ping)?.status)
    }

    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Status> {
        Ok(self.call(Request::Put { key, value })?.status)
    }

    pub fn get(&mut self, key: &[u8]) -> Result<Response> {
        self.call(Request::Get { key })
    }

    pub fn get_range(&mut self, key: &[u8], offset: u64, len: u64) -> Result<Response> {
        self.call(Request::GetRange { key, offset, len })
    }

    pub fn stat(&mut self, key: &[u8]) -> Result<Response> {
        self.call(Request::Stat { key })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A writer that accepts at most `per_call` bytes per call and counts
    /// how it was called.
    pub(crate) struct ChoppyWriter {
        pub per_call: usize,
        pub bytes: Vec<u8>,
        pub writes: usize,
        pub vectored_writes: usize,
    }

    impl ChoppyWriter {
        pub fn new(per_call: usize) -> Self {
            ChoppyWriter {
                per_call,
                bytes: Vec::new(),
                writes: 0,
                vectored_writes: 0,
            }
        }
    }

    impl Write for ChoppyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.per_call);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_writes += 1;
            let mut left = self.per_call;
            for b in bufs {
                let n = b.len().min(left);
                self.bytes.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.per_call - left)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A reader that hands out at most `per_call` bytes per call.
    struct ChoppyReader<'a> {
        data: &'a [u8],
        per_call: usize,
        reads: usize,
    }

    impl Read for ChoppyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.per_call).min(self.data.len());
            let (head, tail) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = tail;
            Ok(n)
        }
    }

    fn samples() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Put {
                key: b"k".to_vec(),
                value: vec![7; 1000],
            },
            Request::Get {
                key: b"xy".to_vec(),
            },
            Request::GetRange {
                key: b"r".to_vec(),
                offset: 123,
                len: 456,
            },
            Request::Stat { key: vec![] },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in samples() {
            let frame = encode_request(&req);
            let body_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(body_len, frame.len() - 4);
            assert_eq!(parse_request(&frame[4..]), Parsed::Req(req.clone()));
            // The borrowed parse sees the same request without copying,
            // and encodes to the same bytes from slices.
            let Parsed::Req(view) = parse_borrowed(&frame[4..]) else {
                panic!("borrowed parse of {req:?}");
            };
            assert_eq!(view, req.map(|b| &b[..]));
            let mut again = vec![0xAA]; // appended after what is there
            view.encode_into(&mut again);
            assert_eq!(again[1..], frame[..]);
        }
    }

    #[test]
    fn malformed_bodies_never_panic() {
        assert_eq!(parse_request(&[]), Parsed::Bad);
        assert_eq!(parse_request(&[99]), Parsed::UnknownOpcode);
        assert_eq!(parse_request(&[0]), Parsed::UnknownOpcode);
        // Truncated PUT: klen says 10 but only 2 key bytes follow.
        assert_eq!(parse_request(&[2, 10, 0, b'a', b'b']), Parsed::Bad);
        // Trailing garbage after a valid GET.
        assert_eq!(parse_request(&[3, 1, 0, b'k', 0xFF]), Parsed::Bad);
        // vlen pointing past the end.
        assert_eq!(
            parse_request(&[2, 1, 0, b'k', 0xFF, 0xFF, 0xFF, 0x7F]),
            Parsed::Bad
        );
    }

    #[test]
    fn small_response_is_one_vectored_write() {
        let body: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let mut expected = vec![Status::Ok as u8];
        expected.extend_from_slice(&4096u64.to_le_bytes());
        expected.extend_from_slice(&body);

        let mut w = ChoppyWriter::new(usize::MAX);
        write_response(&mut w, Status::Ok, 4096, &body).unwrap();
        assert_eq!((w.vectored_writes, w.writes), (1, 0));
        assert_eq!(w.bytes, expected);

        // A writer taking k bytes a call gets the rest handed back until
        // the same bytes are out: inside the header, at its edge, just
        // past it, and one short of everything.
        for k in [1, 8, 9, 10, 4095] {
            let mut w = ChoppyWriter::new(k);
            write_response(&mut w, Status::Ok, 4096, &body).unwrap();
            assert_eq!(w.bytes, expected, "{k} bytes per call");
        }

        // No body bytes: the header alone, one plain write.
        let mut w = ChoppyWriter::new(usize::MAX);
        write_response_header(&mut w, Status::Busy, 0).unwrap();
        assert_eq!((w.vectored_writes, w.writes), (0, 1));
        assert_eq!(w.bytes, [5, 0, 0, 0, 0, 0, 0, 0, 0]);

        // A writer that accepts nothing is an error, not a spin.
        let mut w = ChoppyWriter::new(0);
        assert!(write_response(&mut w, Status::Ok, 4096, &body).is_err());
    }

    #[test]
    fn lying_response_header_is_eof_not_an_allocation() {
        // Nine bytes claiming a 2^62-byte body, then three bytes and EOF.
        let mut wire = vec![Status::Ok as u8];
        wire.extend_from_slice(&(1u64 << 62).to_le_bytes());
        wire.extend_from_slice(b"abc");
        match read_response(&mut &wire[..]) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
        // The same claim backed by a first MiB is refused when the rest
        // cannot be reserved.
        wire.resize(9 + (1 << 20), 0);
        match read_response(&mut &wire[..]) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), ErrorKind::OutOfMemory),
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // An honest header still reads back whole, and a body past the
        // first MiB lands in one allocation sized by the header.
        for len in [3usize, (1 << 20) + 5] {
            let sent: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut wire = vec![Status::Ok as u8];
            wire.extend_from_slice(&(len as u64).to_le_bytes());
            wire.extend_from_slice(&sent);
            let r = read_response(&mut &wire[..]).unwrap();
            assert_eq!((r.status, r.body.capacity()), (Status::Ok, len));
            assert!(r.body == sent);
        }
    }

    fn bodies(wire: &[u8], per_call: usize) -> Vec<Vec<u8>> {
        let mut r = ChoppyReader {
            data: wire,
            per_call,
            reads: 0,
        };
        let mut frames = FrameBuf::default();
        let mut out = Vec::new();
        loop {
            match frames.next_frame(&mut r, DEFAULT_MAX_FRAME, || false) {
                FrameRead::Body(b) => out.push(b.to_vec()),
                FrameRead::CleanEof => return out,
                _ => panic!("stream of whole frames ended dirty"),
            }
        }
    }

    #[test]
    fn frames_assemble_however_the_bytes_arrive() {
        let frames: Vec<Vec<u8>> = samples().iter().map(encode_request).collect();
        let want: Vec<Vec<u8>> = frames.iter().map(|f| f[4..].to_vec()).collect();
        // Enough back-to-back requests to run off the end of the buffer
        // several times, so pending bytes are moved to the front.
        let wire: Vec<u8> = frames.concat().repeat(40);
        assert!(wire.len() > 2 * SMALL_FRAME);
        for per_call in [1, 3, 4, 5, 1000, usize::MAX] {
            let got = bodies(&wire, per_call);
            assert_eq!(got.len(), 40 * want.len(), "{per_call} bytes per read");
            assert!(got.iter().zip(want.iter().cycle()).all(|(g, w)| g == w));
        }
    }

    #[test]
    fn large_frame_grows_with_its_bytes_and_is_not_kept() {
        let big = encode_request(&Request::Put {
            key: b"big".to_vec(),
            value: vec![9; 1 << 20],
        });
        let small = encode_request(&Request::Get {
            key: b"big".to_vec(),
        });
        let wire = [&big[..], &small[..], &small[..]].concat();
        let mut r = ChoppyReader {
            data: &wire,
            per_call: usize::MAX,
            reads: 0,
        };
        let mut frames = FrameBuf::default();
        let FrameRead::Body(b) = frames.next_frame(&mut r, DEFAULT_MAX_FRAME, || false) else {
            panic!("big frame");
        };
        assert_eq!(b, &big[4..]);
        // Each read is offered as much again as has arrived, up to the
        // frame's end: 16 KiB doubling to 1 MiB, then the last few bytes —
        // not one read per 16 KiB.
        assert_eq!(r.reads, 8);
        assert_eq!(frames.buf.len(), big.len());

        // The last read was offered the big frame and no more; waiting for
        // the next, short frame returns the buffer to its small size.
        for _ in 0..2 {
            let FrameRead::Body(b) = frames.next_frame(&mut r, DEFAULT_MAX_FRAME, || false) else {
                panic!("small frame");
            };
            assert_eq!(b, &small[4..]);
        }
        assert_eq!(frames.buf.capacity(), SMALL_FRAME);
        assert!(matches!(
            frames.next_frame(&mut r, DEFAULT_MAX_FRAME, || false),
            FrameRead::CleanEof
        ));

        // An announced length over the cap is refused before it is read.
        let mut r = ChoppyReader {
            data: &big,
            per_call: usize::MAX,
            reads: 0,
        };
        assert!(matches!(
            FrameBuf::default().next_frame(&mut r, 1 << 10, || false),
            FrameRead::TooLarge
        ));
        // A stop request ends the wait for a frame that is not all there.
        let mut r = ChoppyReader {
            data: &small[..3],
            per_call: usize::MAX,
            reads: 0,
        };
        let mut frames = FrameBuf::default();
        let polls = std::cell::Cell::new(0);
        let stop = || polls.replace(polls.get() + 1) >= 1;
        assert!(matches!(
            frames.next_frame(&mut r, DEFAULT_MAX_FRAME, stop),
            FrameRead::Stopped
        ));
    }

    #[test]
    fn unproven_length_prefix_commits_no_memory() {
        // Four bytes claiming the largest frame, then EOF: the claim alone
        // allocates nothing.
        let prefix = DEFAULT_MAX_FRAME.to_le_bytes();
        let mut frames = FrameBuf::default();
        assert!(matches!(
            frames.next_frame(&mut &prefix[..], DEFAULT_MAX_FRAME, || false),
            FrameRead::DirtyEof
        ));
        assert_eq!(frames.buf.capacity(), SMALL_FRAME);

        // A frame trickling in 1000 bytes a read never holds more than
        // twice what has arrived.
        let big = encode_request(&Request::Put {
            key: b"big".to_vec(),
            value: vec![9; 200_000],
        });
        let mut from = 0;
        let mut frames = FrameBuf::default();
        for cut in (1000..big.len()).step_by(1000) {
            let mut r = ChoppyReader {
                data: &big[from..cut],
                per_call: 1000,
                reads: 0,
            };
            from = cut;
            // The reader runs dry mid-frame, which reads as a dirty EOF;
            // what arrived stays buffered for the next reader.
            assert!(matches!(
                frames.next_frame(&mut r, DEFAULT_MAX_FRAME, || false),
                FrameRead::DirtyEof
            ));
            assert!(
                frames.buf.capacity() <= (2 * cut).max(SMALL_FRAME),
                "at {cut}"
            );
        }
        let FrameRead::Body(b) = frames.next_frame(&mut &big[from..], DEFAULT_MAX_FRAME, || false)
        else {
            panic!("big frame");
        };
        assert_eq!(b, &big[4..]);
    }
}
