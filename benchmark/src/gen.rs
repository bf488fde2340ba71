//! Benchmark-owned input generators: PRNG, key distributions, payloads
//! and the per-client operation stream. Everything here is a function of
//! `--seed`; the engine sees only the generated keys and bytes, and no
//! generator depends on a repository crate, so refactors of
//! `lobster-workloads` or the `rand` stand-in cannot move the inputs.

/// SplitMix64: seeds the main generator and mixes (seed, stream) pairs.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** — small, fast, and frozen here on purpose.
#[derive(Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = mix64(seed) ^ mix64(stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = mix64(z);
            *slot = z;
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias at n << 2^64 is far below anything a
        // benchmark key distribution can see.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// How a workload picks keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// Zipfian ranks over `[0, n)` with exponent `theta` (Gray et al., the
/// YCSB generator): rank 0 is the hottest key.
#[derive(Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Theoretical probability of rank 0.
    pub fn p_first(&self) -> f64 {
        1.0 / self.zetan
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Key sampler for one client.
#[derive(Clone)]
pub enum KeyPicker {
    Uniform(u64),
    Zipf(Zipf),
}

impl KeyPicker {
    pub fn new(dist: KeyDist, n: u64) -> KeyPicker {
        match dist {
            KeyDist::Uniform => KeyPicker::Uniform(n),
            KeyDist::Zipf(theta) => KeyPicker::Zipf(Zipf::new(n, theta)),
        }
    }

    pub fn pick(&self, rng: &mut Rng) -> u64 {
        match self {
            KeyPicker::Uniform(n) => rng.below(*n),
            KeyPicker::Zipf(z) => z.sample(rng),
        }
    }
}

/// 16-byte key of a key id (fixed width, so B-Tree separators and wire
/// frames have one size per workload).
pub fn key_bytes(id: u64) -> [u8; 16] {
    let mut k = *b"k000000000000000";
    let mut v = id;
    for slot in k.iter_mut().skip(1).rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
    k
}

/// Length of the payload header: key id and version, little endian.
pub const HEADER: usize = 8;

/// Payload source. A payload is `header(key, version) ++ noise[off..]`
/// where `noise` is a seed-derived byte pool and `off` a hash of (key,
/// version): any byte of any version of any key can be recomputed for
/// verification without storing what was written, and making a payload is
/// one `memcpy`, so generation stays out of the way of what is measured.
pub struct Payloads {
    noise: Vec<u8>,
    size: usize,
}

impl Payloads {
    pub fn new(seed: u64, size: usize) -> Payloads {
        assert!(size > HEADER);
        // Twice the body plus slack: every offset in [0, body] is valid.
        let len = 2 * size + 4096;
        let mut rng = Rng::new(seed, 0x7061_796c_6f61_6473);
        let mut noise = vec![0u8; len];
        for chunk in noise.chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        Payloads { noise, size }
    }

    fn body(&self, key: u32, version: u32) -> &[u8] {
        let body_len = self.size - HEADER;
        let span = (self.noise.len() - body_len) as u64;
        let off = (mix64((key as u64) << 32 | version as u64) % span) as usize;
        &self.noise[off..off + body_len]
    }

    /// Write the payload of (`key`, `version`) into `out` (`out.len()` must
    /// equal the payload size).
    pub fn fill(&self, key: u32, version: u32, out: &mut [u8]) {
        assert_eq!(out.len(), self.size);
        let (head, body) = out.split_at_mut(HEADER);
        head[..4].copy_from_slice(&key.to_le_bytes());
        head[4..].copy_from_slice(&version.to_le_bytes());
        body.copy_from_slice(self.body(key, version));
    }

    /// `(key, version)` claimed by the header of `data`, if it is long
    /// enough to have one.
    pub fn header_of(data: &[u8]) -> Option<(u32, u32)> {
        let key = u32::from_le_bytes(data.get(..4)?.try_into().ok()?);
        let version = u32::from_le_bytes(data.get(4..8)?.try_into().ok()?);
        Some((key, version))
    }

    /// Does `data` equal bytes `[offset, offset + data.len())` of the
    /// payload of (`key`, `version`)?
    pub fn matches(&self, key: u32, version: u32, offset: usize, data: &[u8]) -> bool {
        if offset + data.len() > self.size {
            return false;
        }
        let mut head = [0u8; HEADER];
        head[..4].copy_from_slice(&key.to_le_bytes());
        head[4..].copy_from_slice(&version.to_le_bytes());
        let body = self.body(key, version);
        // The part of `data` that overlaps the header, then the body part.
        let in_head = HEADER.saturating_sub(offset).min(data.len());
        let (dh, db) = data.split_at(in_head);
        let head_off = offset.min(HEADER);
        let body_off = (offset + in_head).saturating_sub(HEADER);
        dh == &head[head_off..head_off + in_head] && db == &body[body_off..body_off + db.len()]
    }
}

/// What one operation does. Key ids are indices into the workload's key
/// space; for [`OpKind::Ingest`] the key is chosen by the client's own
/// monotone counter and `key` is unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Read the whole blob.
    Get,
    /// Read `len` bytes at `offset`.
    GetRange { offset: u32, len: u32 },
    /// Replace the blob under an existing key.
    Overwrite,
    /// Insert a new key and retire the oldest live one.
    Ingest,
    /// Read one of the client's own recently ingested keys; `key` is how
    /// many ingests back.
    GetRecent,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

/// Shares of each operation in a workload, in per-mille.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u32,
    pub get_range: u32,
    pub overwrite: u32,
    pub ingest: u32,
    pub get_recent: u32,
}

/// Bytes a ranged read asks for.
pub const RANGE_LEN: usize = 64 << 10;
/// How far back `GetRecent` reaches: few enough blobs that random
/// eviction has rarely reached them, so these reads are hits.
pub const RECENT_WINDOW: u64 = 8;

/// The deterministic operation stream of one client.
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    keys: KeyPicker,
    size: usize,
}

impl OpStream {
    pub fn new(seed: u64, client: u64, mix: Mix, dist: KeyDist, nkeys: u64, size: usize) -> Self {
        assert_eq!(
            mix.get + mix.get_range + mix.overwrite + mix.ingest + mix.get_recent,
            1000
        );
        OpStream {
            rng: Rng::new(seed, 1 + client),
            mix,
            keys: KeyPicker::new(dist, nkeys),
            size,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(1000) as u32;
        let m = self.mix;
        let kind = if roll < m.get {
            OpKind::Get
        } else if roll < m.get + m.get_range {
            let len = RANGE_LEN.min(self.size);
            let offset = self.rng.below((self.size - len + 1) as u64);
            OpKind::GetRange {
                offset: offset as u32,
                len: len as u32,
            }
        } else if roll < m.get + m.get_range + m.overwrite {
            OpKind::Overwrite
        } else if roll < m.get + m.get_range + m.overwrite + m.ingest {
            OpKind::Ingest
        } else {
            OpKind::GetRecent
        };
        let key = match kind {
            OpKind::Ingest => 0,
            OpKind::GetRecent => self.rng.below(RECENT_WINDOW),
            _ => self.keys.pick(&mut self.rng),
        };
        Op { kind, key }
    }

    /// Order-sensitive hash of the next `n` operations (consumes them).
    pub fn sequence_hash(&mut self, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..n {
            let op = self.next_op();
            let (tag, a, b) = match op.kind {
                OpKind::Get => (1u64, 0u64, 0u64),
                OpKind::GetRange { offset, len } => (2, offset as u64, len as u64),
                OpKind::Overwrite => (3, 0, 0),
                OpKind::Ingest => (4, 0, 0),
                OpKind::GetRecent => (5, 0, 0),
            };
            for v in [tag, op.key, a, b] {
                h = mix64(h ^ v);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        get: 700,
        get_range: 200,
        overwrite: 100,
        ingest: 0,
        get_recent: 0,
    };

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let hash = |seed| {
            OpStream::new(seed, 0, MIX, KeyDist::Zipf(0.99), 16384, 1 << 20).sequence_hash(100_000)
        };
        assert_eq!(hash(7), hash(7));
        assert_ne!(hash(7), hash(8));
        let other_client =
            OpStream::new(7, 1, MIX, KeyDist::Zipf(0.99), 16384, 1 << 20).sequence_hash(100_000);
        assert_ne!(hash(7), other_client);
    }

    #[test]
    fn zipf_first_rank_matches_theory() {
        let z = Zipf::new(16384, 0.99);
        let mut rng = Rng::new(42, 0);
        let n = 2_000_000;
        let hits = (0..n).filter(|_| z.sample(&mut rng) == 0).count();
        let got = hits as f64 / n as f64;
        let want = z.p_first();
        assert!(
            (got - want).abs() / want < 0.05,
            "rank-1 frequency {got} vs theory {want}"
        );
    }

    #[test]
    fn uniform_covers_the_key_space() {
        let mut rng = Rng::new(1, 0);
        let mut seen = [false; 64];
        for _ in 0..10_000 {
            seen[rng.below(64) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn payload_roundtrip_and_ranges() {
        let p = Payloads::new(3, 4096);
        let mut buf = vec![0u8; 4096];
        p.fill(17, 5, &mut buf);
        assert_eq!(Payloads::header_of(&buf), Some((17, 5)));
        assert!(p.matches(17, 5, 0, &buf));
        assert!(p.matches(17, 5, 3, &buf[3..100]));
        assert!(p.matches(17, 5, 8, &buf[8..]));
        assert!(p.matches(17, 5, 1000, &buf[1000..2000]));
        assert!(!p.matches(17, 6, 0, &buf));
        assert!(!p.matches(18, 5, 1000, &buf[1000..2000]));
        buf[2000] ^= 1;
        assert!(!p.matches(17, 5, 0, &buf));
        assert!(!p.matches(17, 5, 4000, &[0u8; 200]), "past the end");
    }

    #[test]
    fn keys_are_fixed_width_and_ordered() {
        assert_eq!(&key_bytes(0), b"k000000000000000");
        assert_eq!(&key_bytes(1234), b"k000000000001234");
        assert!(key_bytes(9) < key_bytes(10));
    }
}
