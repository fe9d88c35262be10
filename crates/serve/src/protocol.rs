//! Length-prefixed binary wire protocol.
//!
//! There is exactly one protocol version, [`VERSION`]. A connection
//! opens with a fixed 8-byte hello from each side (magic `AMSV` + `u32`
//! version): the client sends its version, the server always answers
//! with its own, and a server whose peer offered any other version
//! closes the connection right after its hello. A peer built against
//! another version therefore learns the server's version and gets a
//! clean EOF instead of misparsing frames. After the handshake both
//! sides exchange *frames*: a little-endian `u32` payload length
//! followed by the payload. The first payload byte is a tag; the rest
//! is the tag-specific body. All integers are little-endian, all floats
//! IEEE-754 `f32`/`f64` LE — the same conventions as the `AMOE`
//! checkpoint format.
//!
//! Eleven tags. Requests: `SCORE` (feature rows to rank, with a
//! client-chosen trace id, `0` = none), `RELOAD` (checkpoint
//! hot-swap), `SHUTDOWN` (drain and exit), `STATS` (counters probe),
//! `TRACE_DUMP` (fetch the server's trace ring as Chrome trace JSON).
//! Responses: `SCORES`, `SCORE_ERROR` (a failed score carrying its
//! request id and an overload flag), `ERROR` (with message), `OK`,
//! `STATS_REPLY` (lifetime counters, sliding-window stage quantiles and
//! per-shard batcher counters) and `TRACE_DUMP_REPLY`. The gaps in
//! the numbering (`0x05`, `0x82`, `0x86`, `0x88`) are unassigned and
//! decode as unknown tags.
//!
//! Connections are **pipelined**: a client may have any number of
//! `SCORE`s in flight at once, the server completes them in whatever
//! order its batcher shards finish, and the `request_id` in
//! `SCORES`/`SCORE_ERROR` is the multiplexing key. Admin requests
//! (`RELOAD`/`STATS`/`SHUTDOWN`/`TRACE_DUMP`) are answered in
//! submission order, though score completions may interleave ahead of
//! their replies. `ERROR` answers a frame that did not decode (no
//! request id to correlate) or a failed admin request.

use std::io::{self, Read, Write};

use amoe_obs::registry::Histogram;

/// Handshake magic: "AMSV" (AMoe SerVe).
pub const MAGIC: [u8; 4] = *b"AMSV";
/// The one wire protocol version this build speaks. Peers offering
/// any other version are refused at the hello.
pub const VERSION: u32 = 4;
/// Upper bound on a frame payload; larger lengths are treated as
/// protocol corruption rather than allocated.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Request tags.
pub const TAG_SCORE: u8 = 0x01;
/// See [`TAG_SCORE`].
pub const TAG_RELOAD: u8 = 0x02;
/// See [`TAG_SCORE`].
pub const TAG_SHUTDOWN: u8 = 0x03;
/// See [`TAG_SCORE`].
pub const TAG_STATS: u8 = 0x04;
/// See [`TAG_SCORE`].
pub const TAG_TRACE_DUMP: u8 = 0x06;

/// Response tags.
pub const TAG_SCORES: u8 = 0x81;
/// See [`TAG_SCORES`].
pub const TAG_ERROR: u8 = 0x83;
/// See [`TAG_SCORES`].
pub const TAG_OK: u8 = 0x84;
/// See [`TAG_SCORES`].
pub const TAG_STATS_REPLY: u8 = 0x85;
/// See [`TAG_SCORES`].
pub const TAG_TRACE_DUMP_REPLY: u8 = 0x87;
/// A score request failed; the body carries the request id so a
/// pipelined client can correlate the failure (see [`TAG_SCORES`]).
pub const TAG_SCORE_ERROR: u8 = 0x89;

/// One example to score: the seven sparse feature ids plus the dense
/// numeric features, mirroring `amoe_dataset::Example` minus the label.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureRow {
    /// Query-predicted sub-category id (gate input).
    pub sc: u32,
    /// Query-predicted top-category id.
    pub tc: u32,
    /// Brand id.
    pub brand: u32,
    /// Shop id.
    pub shop: u32,
    /// User-segment id.
    pub user_segment: u32,
    /// Price-bucket id.
    pub price_bucket: u32,
    /// Query id.
    pub query: u32,
    /// Dense numeric features (`meta.n_numeric` values).
    pub numeric: Vec<f32>,
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Score a batch of feature rows.
    Score {
        /// Client-chosen id echoed in the response.
        request_id: u64,
        /// Client-chosen trace id (`0` = none; the server then applies
        /// its own sampling).
        trace_id: u64,
        /// Rows to score (at least one; all the same numeric width).
        rows: Vec<FeatureRow>,
    },
    /// Hot-swap the serving weights from a checkpoint on the server's
    /// filesystem.
    Reload {
        /// Checkpoint path as seen by the server process.
        path: String,
    },
    /// Drain the queue, finish in-flight batches, and exit.
    Shutdown,
    /// Read the server counters.
    Stats,
    /// Fetch the server's trace ring as Chrome trace JSON.
    TraceDump,
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Per-row scores for a `Score` request.
    Scores {
        /// Echo of the request's id.
        request_id: u64,
        /// One sigmoid score per submitted row, in row order.
        scores: Vec<f32>,
    },
    /// The request failed; human-readable reason.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Acknowledgement for `Reload`/`Shutdown`.
    Ok,
    /// Reply to `Stats`: counters, window quantiles and shard block.
    Stats {
        /// Lifetime counters.
        snapshot: StatsSnapshot,
        /// Sliding-window stage quantiles. Boxed so the common small
        /// responses don't pay the block's enum size.
        window: Box<WindowedStats>,
        /// Per-shard batcher counters, indexed by shard id.
        shards: Vec<ShardStats>,
    },
    /// The server's trace ring as Chrome trace-event JSON.
    TraceDump {
        /// A complete Chrome trace JSON document.
        json: String,
    },
    /// A score request failed (validation, overload, or shutdown).
    /// Carries the request id so a pipelined connection can correlate
    /// the failure with one of its in-flight submissions.
    ScoreError {
        /// Echo of the request's id.
        request_id: u64,
        /// True when admission control shed the request; the client
        /// should back off and may retry.
        overloaded: bool,
        /// Human-readable reason (empty for pure overload).
        message: String,
    },
}

/// Per-shard batcher counters inside a `STATS` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Model calls this shard's batcher has made.
    pub batches: u64,
    /// Score requests this shard's admission queue shed.
    pub overloaded: u64,
    /// This shard's queue depth at snapshot time.
    pub queue_depth: u64,
    /// p99 of this shard's queue depth over the sliding stats window.
    pub queue_depth_p99: f64,
}

/// Point-in-time server counters (also the body of the `STATS` reply).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Score requests received (before admission control).
    pub requests: u64,
    /// Feature rows received across all score requests.
    pub rows: u64,
    /// Score requests answered with scores.
    pub ok: u64,
    /// Score requests rejected by admission control.
    pub overloaded: u64,
    /// Requests answered with `ERROR` (validation or internal).
    pub errors: u64,
    /// Model calls made by the batcher.
    pub batches: u64,
    /// Successful checkpoint hot-swaps.
    pub reloads: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
}

/// Count + p50/p95/p99 readout of one sliding-window histogram.
/// Quantiles inherit the log-bucket relative error bound
/// (`2^(1/4) − 1 ≈ 19%`); all values are finite by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QuantileSummary {
    /// Samples inside the window.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl QuantileSummary {
    /// Reads a summary off a (merged sliding-window) histogram.
    #[must_use]
    pub fn from_histogram(h: &Histogram) -> QuantileSummary {
        QuantileSummary {
            count: h.count(),
            p50: h.quantile(0.5),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }
}

/// Stage-broken-down sliding-window quantiles: what the last
/// `window_secs` of traffic looked like, split into the pipeline
/// stages a request passes through (queue wait vs batch compute vs
/// reply write, plus end-to-end latency and queue depth).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowedStats {
    /// Window length the summaries cover, seconds.
    pub window_secs: f64,
    /// End-to-end request latency (admission → reply written), µs.
    pub request_latency_us: QuantileSummary,
    /// Time spent waiting in the admission queue, µs.
    pub queue_wait_us: QuantileSummary,
    /// Model compute per batch (gate + experts + scatter), µs.
    pub compute_us: QuantileSummary,
    /// Reply serialisation + socket write, µs.
    pub reply_write_us: QuantileSummary,
    /// Queue depth observed at every push/pop.
    pub queue_depth: QuantileSummary,
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one side's handshake hello: magic + its version (always
/// [`VERSION`] for this build's client and server).
pub fn write_hello(w: &mut impl Write, version: u32) -> io::Result<()> {
    let mut wire = [0u8; 8];
    wire[..4].copy_from_slice(&MAGIC);
    wire[4..].copy_from_slice(&version.to_le_bytes());
    w.write_all(&wire)?;
    w.flush()
}

/// Reads the peer's handshake hello, returning the version it speaks.
/// The caller decides what a version other than [`VERSION`] means.
pub fn read_hello(r: &mut impl Read) -> io::Result<u32> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad_data("bad handshake magic (not an amoe-serve peer)"));
    }
    read_u32(r)
}

/// Writes one length-prefixed frame.
///
/// Prefix and payload go out as a single write: two small writes on an
/// unbuffered socket would interact with Nagle's algorithm and the
/// peer's delayed ACK, adding ~40 ms to every small frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| bad_data("frame too large"))?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data("frame too large"));
    }
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&len.to_le_bytes());
    wire.extend_from_slice(payload);
    w.write_all(&wire)?;
    w.flush()
}

/// Reads one length-prefixed frame payload.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_u32(r)?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data(format!("frame length {len} exceeds limit")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------
// Request / response codecs
// ---------------------------------------------------------------------

impl Request {
    /// Serialises the request into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Score {
                request_id,
                trace_id,
                rows,
            } => {
                out.push(TAG_SCORE);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *trace_id);
                let n_numeric = rows.first().map_or(0, |r| r.numeric.len());
                put_u32(&mut out, rows.len() as u32);
                put_u32(&mut out, n_numeric as u32);
                for row in rows {
                    for id in [
                        row.sc,
                        row.tc,
                        row.brand,
                        row.shop,
                        row.user_segment,
                        row.price_bucket,
                        row.query,
                    ] {
                        put_u32(&mut out, id);
                    }
                    debug_assert_eq!(row.numeric.len(), n_numeric);
                    for &v in &row.numeric {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Request::Reload { path } => {
                out.push(TAG_RELOAD);
                put_str(&mut out, path);
            }
            Request::Shutdown => out.push(TAG_SHUTDOWN),
            Request::Stats => out.push(TAG_STATS),
            Request::TraceDump => out.push(TAG_TRACE_DUMP),
        }
        out
    }

    /// Parses a frame payload into a request.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            TAG_SCORE => {
                let request_id = c.u64()?;
                let trace_id = c.u64()?;
                let n_rows = c.u32()? as usize;
                let n_numeric = c.u32()? as usize;
                if n_rows == 0 {
                    return Err(bad_data("score request with zero rows"));
                }
                // 7 ids + numeric values, 4 bytes each. The header
                // counts are peer-controlled, so the size arithmetic is
                // checked: a wrapped product could otherwise match the
                // real body length and size the allocation below.
                let body_len = n_numeric
                    .checked_add(7)
                    .and_then(|n| n.checked_mul(4))
                    .and_then(|row_bytes| n_rows.checked_mul(row_bytes));
                if body_len != Some(c.remaining()) {
                    return Err(bad_data("score request body length mismatch"));
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let mut ids = [0u32; 7];
                    for id in &mut ids {
                        *id = c.u32()?;
                    }
                    let mut numeric = Vec::with_capacity(n_numeric);
                    for _ in 0..n_numeric {
                        numeric.push(c.f32()?);
                    }
                    rows.push(FeatureRow {
                        sc: ids[0],
                        tc: ids[1],
                        brand: ids[2],
                        shop: ids[3],
                        user_segment: ids[4],
                        price_bucket: ids[5],
                        query: ids[6],
                        numeric,
                    });
                }
                Request::Score {
                    request_id,
                    trace_id,
                    rows,
                }
            }
            TAG_RELOAD => Request::Reload { path: c.str()? },
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_STATS => Request::Stats,
            TAG_TRACE_DUMP => Request::TraceDump,
            tag => return Err(bad_data(format!("unknown request tag {tag:#04x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises the response into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Scores { request_id, scores } => {
                out.push(TAG_SCORES);
                put_u64(&mut out, *request_id);
                put_u32(&mut out, scores.len() as u32);
                for &s in scores {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            Response::Error { message } => {
                out.push(TAG_ERROR);
                put_str(&mut out, message);
            }
            Response::Ok => out.push(TAG_OK),
            Response::Stats {
                snapshot,
                window,
                shards,
            } => {
                out.push(TAG_STATS_REPLY);
                for v in [
                    snapshot.requests,
                    snapshot.rows,
                    snapshot.ok,
                    snapshot.overloaded,
                    snapshot.errors,
                    snapshot.batches,
                    snapshot.reloads,
                    snapshot.queue_depth,
                ] {
                    put_u64(&mut out, v);
                }
                put_f64(&mut out, window.window_secs);
                for s in [
                    &window.request_latency_us,
                    &window.queue_wait_us,
                    &window.compute_us,
                    &window.reply_write_us,
                    &window.queue_depth,
                ] {
                    put_u64(&mut out, s.count);
                    put_f64(&mut out, s.p50);
                    put_f64(&mut out, s.p95);
                    put_f64(&mut out, s.p99);
                }
                put_u32(&mut out, shards.len() as u32);
                for s in shards {
                    put_u64(&mut out, s.batches);
                    put_u64(&mut out, s.overloaded);
                    put_u64(&mut out, s.queue_depth);
                    put_f64(&mut out, s.queue_depth_p99);
                }
            }
            Response::TraceDump { json } => {
                out.push(TAG_TRACE_DUMP_REPLY);
                put_str(&mut out, json);
            }
            Response::ScoreError {
                request_id,
                overloaded,
                message,
            } => {
                out.push(TAG_SCORE_ERROR);
                put_u64(&mut out, *request_id);
                out.push(u8::from(*overloaded));
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Parses a frame payload into a response.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            TAG_SCORES => {
                let request_id = c.u64()?;
                let n = c.u32()? as usize;
                if n.checked_mul(4) != Some(c.remaining()) {
                    return Err(bad_data("scores body length mismatch"));
                }
                let mut scores = Vec::with_capacity(n);
                for _ in 0..n {
                    scores.push(c.f32()?);
                }
                Response::Scores { request_id, scores }
            }
            TAG_ERROR => Response::Error { message: c.str()? },
            TAG_OK => Response::Ok,
            TAG_STATS_REPLY => {
                let snapshot = StatsSnapshot {
                    requests: c.u64()?,
                    rows: c.u64()?,
                    ok: c.u64()?,
                    overloaded: c.u64()?,
                    errors: c.u64()?,
                    batches: c.u64()?,
                    reloads: c.u64()?,
                    queue_depth: c.u64()?,
                };
                let window_secs = c.f64()?;
                let mut summaries = [QuantileSummary::default(); 5];
                for s in &mut summaries {
                    *s = QuantileSummary {
                        count: c.u64()?,
                        p50: c.f64()?,
                        p95: c.f64()?,
                        p99: c.f64()?,
                    };
                }
                let window = Box::new(WindowedStats {
                    window_secs,
                    request_latency_us: summaries[0],
                    queue_wait_us: summaries[1],
                    compute_us: summaries[2],
                    reply_write_us: summaries[3],
                    queue_depth: summaries[4],
                });
                let n = c.u32()? as usize;
                // Each entry is 3×u64 + f64; reject count/body
                // mismatches before allocating.
                if n.checked_mul(32) != Some(c.remaining()) {
                    return Err(bad_data("shard stats body length mismatch"));
                }
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(ShardStats {
                        batches: c.u64()?,
                        overloaded: c.u64()?,
                        queue_depth: c.u64()?,
                        queue_depth_p99: c.f64()?,
                    });
                }
                Response::Stats {
                    snapshot,
                    window,
                    shards,
                }
            }
            TAG_TRACE_DUMP_REPLY => Response::TraceDump { json: c.str()? },
            TAG_SCORE_ERROR => {
                let request_id = c.u64()?;
                let overloaded = match c.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(bad_data(format!("bad score-error flag {b:#04x}"))),
                };
                Response::ScoreError {
                    request_id,
                    overloaded,
                    message: c.str()?,
                }
            }
            tag => return Err(bad_data(format!("unknown response tag {tag:#04x}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Little-endian helpers
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bounds-checked reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad_data("truncated frame payload"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad_data("invalid utf-8 in string field"))
    }

    /// Rejects trailing garbage after a fully decoded message.
    fn finish(self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad_data("trailing bytes after message"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_tensor::check::{ensure, Checker};
    use amoe_tensor::rng::Rng;

    fn row(seed: u32) -> FeatureRow {
        FeatureRow {
            sc: seed,
            tc: seed + 1,
            brand: seed + 2,
            shop: seed + 3,
            user_segment: seed + 4,
            price_bucket: seed + 5,
            query: seed + 6,
            numeric: vec![0.5 * seed as f32, -1.25, 3.0],
        }
    }

    fn sample_stats() -> StatsSnapshot {
        StatsSnapshot {
            requests: 1,
            rows: 2,
            ok: 3,
            overloaded: 4,
            errors: 5,
            batches: 6,
            reloads: 7,
            queue_depth: 8,
        }
    }

    fn sample_window() -> WindowedStats {
        let s = |k: u64| QuantileSummary {
            count: k,
            p50: 1.5 * k as f64,
            p95: 9.5 * k as f64,
            p99: 99.0 * k as f64,
        };
        WindowedStats {
            window_secs: 60.0,
            request_latency_us: s(10),
            queue_wait_us: s(11),
            compute_us: s(3),
            reply_write_us: s(10),
            queue_depth: s(21),
        }
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Score {
                request_id: 77,
                trace_id: 0,
                rows: vec![row(0), row(10)],
            },
            Request::Score {
                request_id: 78,
                trace_id: 0xABCD_EF01,
                rows: vec![row(4)],
            },
            Request::Reload {
                path: "/tmp/model.amoe".into(),
            },
            Request::Shutdown,
            Request::Stats,
            Request::TraceDump,
        ];
        for req in cases {
            let decoded = Request::decode(&req.encode()).expect("decode");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Scores {
                request_id: 9,
                scores: vec![0.25, 0.75, 1.0],
            },
            Response::Error {
                message: "bad id".into(),
            },
            Response::Ok,
            Response::Stats {
                snapshot: sample_stats(),
                window: Box::new(sample_window()),
                shards: vec![
                    ShardStats {
                        batches: 4,
                        overloaded: 1,
                        queue_depth: 2,
                        queue_depth_p99: 3.5,
                    },
                    ShardStats::default(),
                ],
            },
            Response::TraceDump {
                json: "{\"traceEvents\":[]}".into(),
            },
            Response::ScoreError {
                request_id: 42,
                overloaded: true,
                message: String::new(),
            },
            Response::ScoreError {
                request_id: 43,
                overloaded: false,
                message: "unknown sc id".into(),
            },
        ];
        for resp in cases {
            let decoded = Response::decode(&resp.encode()).expect("decode");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn score_error_flag_must_be_boolean() {
        let mut payload = Response::ScoreError {
            request_id: 7,
            overloaded: true,
            message: "x".into(),
        }
        .encode();
        assert!(Response::decode(&payload).is_ok());
        payload[9] = 2; // the flag byte follows tag + u64 request id
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let payload = Request::Score {
            request_id: 1,
            trace_id: 0,
            rows: vec![row(3)],
        }
        .encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), payload);
    }

    #[test]
    fn handshake_round_trips_and_rejects_wrong_magic() {
        let mut wire = Vec::new();
        write_hello(&mut wire, VERSION).unwrap();
        assert_eq!(read_hello(&mut &wire[..]).unwrap(), VERSION);
        wire[0] = b'X';
        assert!(read_hello(&mut &wire[..]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Request::Shutdown.encode();
        payload.push(0xFF);
        assert!(Request::decode(&payload).is_err());
    }

    /// A SCORE header (no body) with the given counts.
    fn score_header(n_rows: u32, n_numeric: u32) -> Vec<u8> {
        let mut payload = vec![TAG_SCORE];
        payload.extend_from_slice(&0u64.to_le_bytes()); // request id
        payload.extend_from_slice(&0u64.to_le_bytes()); // trace id
        payload.extend_from_slice(&n_rows.to_le_bytes());
        payload.extend_from_slice(&n_numeric.to_le_bytes());
        payload
    }

    #[test]
    fn zero_row_score_rejected() {
        assert!(Request::decode(&score_header(0, 3)).is_err());
    }

    #[test]
    fn score_size_overflow_rejected() {
        // n_rows · (7 + n_numeric) · 4 = 2^31 · 2^33 = 2^64: unchecked,
        // the product wraps to 0, matches the empty body, and the row
        // allocation asks for 2^31 rows.
        let (n_rows, n_numeric) = (1u32 << 31, (1u32 << 31) - 7);
        assert!(Request::decode(&score_header(n_rows, n_numeric)).is_err());
        // The same counts in a header without the trace-id field.
        let mut short = vec![TAG_SCORE];
        short.extend_from_slice(&0u64.to_le_bytes());
        short.extend_from_slice(&n_rows.to_le_bytes());
        short.extend_from_slice(&n_numeric.to_le_bytes());
        assert_eq!(short.len(), 17);
        assert!(Request::decode(&short).is_err());
    }

    // -----------------------------------------------------------------
    // Seeded codec properties
    // -----------------------------------------------------------------

    fn gen_u64(rng: &mut Rng) -> u64 {
        // Bias towards the edges: zero ids and all-ones are legal too.
        match rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64(),
        }
    }

    fn gen_f64(rng: &mut Rng) -> f64 {
        (rng.uniform() - 0.5) * 1e6
    }

    fn gen_string(rng: &mut Rng) -> String {
        const ALPHABET: [char; 8] = ['a', 'Z', '0', '/', ' ', '"', 'é', '✓'];
        (0..rng.below(12))
            .map(|_| ALPHABET[rng.below(ALPHABET.len())])
            .collect()
    }

    fn gen_request(rng: &mut Rng) -> Request {
        match rng.below(5) {
            0 => {
                let width = rng.below(6);
                let rows = (0..1 + rng.below(4))
                    .map(|_| {
                        let mut id = || rng.next_u64() as u32;
                        FeatureRow {
                            sc: id(),
                            tc: id(),
                            brand: id(),
                            shop: id(),
                            user_segment: id(),
                            price_bucket: id(),
                            query: id(),
                            numeric: (0..width).map(|_| rng.uniform_in(-1e3, 1e3)).collect(),
                        }
                    })
                    .collect();
                Request::Score {
                    request_id: gen_u64(rng),
                    trace_id: gen_u64(rng),
                    rows,
                }
            }
            1 => Request::Reload {
                path: gen_string(rng),
            },
            2 => Request::Shutdown,
            3 => Request::Stats,
            _ => Request::TraceDump,
        }
    }

    fn gen_response(rng: &mut Rng) -> Response {
        let summary = |rng: &mut Rng| QuantileSummary {
            count: gen_u64(rng),
            p50: gen_f64(rng),
            p95: gen_f64(rng),
            p99: gen_f64(rng),
        };
        match rng.below(6) {
            0 => Response::Scores {
                request_id: gen_u64(rng),
                scores: (0..rng.below(7)).map(|_| rng.uniform() as f32).collect(),
            },
            1 => Response::Error {
                message: gen_string(rng),
            },
            2 => Response::Ok,
            3 => Response::Stats {
                snapshot: StatsSnapshot {
                    requests: gen_u64(rng),
                    rows: gen_u64(rng),
                    ok: gen_u64(rng),
                    overloaded: gen_u64(rng),
                    errors: gen_u64(rng),
                    batches: gen_u64(rng),
                    reloads: gen_u64(rng),
                    queue_depth: gen_u64(rng),
                },
                window: Box::new(WindowedStats {
                    window_secs: gen_f64(rng),
                    request_latency_us: summary(rng),
                    queue_wait_us: summary(rng),
                    compute_us: summary(rng),
                    reply_write_us: summary(rng),
                    queue_depth: summary(rng),
                }),
                shards: (0..rng.below(5))
                    .map(|_| ShardStats {
                        batches: gen_u64(rng),
                        overloaded: gen_u64(rng),
                        queue_depth: gen_u64(rng),
                        queue_depth_p99: gen_f64(rng),
                    })
                    .collect(),
            },
            4 => Response::TraceDump {
                json: gen_string(rng),
            },
            _ => Response::ScoreError {
                request_id: gen_u64(rng),
                overloaded: rng.below(2) == 1,
                message: gen_string(rng),
            },
        }
    }

    /// The codec law shared by requests and responses: encoding
    /// round-trips; every strict prefix is rejected (messages are
    /// self-delimiting); and every single-byte corruption either is
    /// rejected or decodes to a message that re-encodes to exactly the
    /// corrupted bytes (the codec is canonical). None of it may panic.
    fn codec_law<T: PartialEq + std::fmt::Debug>(
        rng: &mut Rng,
        value: &T,
        encode: impl Fn(&T) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> io::Result<T>,
    ) -> amoe_tensor::check::CaseResult {
        let wire = encode(value);
        let back = decode(&wire).map_err(|e| format!("{value:?} failed to decode: {e}"))?;
        ensure(back == *value, format!("{value:?} decoded as {back:?}"))?;
        for cut in 0..wire.len() {
            ensure(
                decode(&wire[..cut]).is_err(),
                format!("{cut}-byte prefix of {value:?} decoded"),
            )?;
        }
        for at in 0..wire.len() {
            let mut bad = wire.clone();
            bad[at] ^= 1 + rng.below(255) as u8;
            if let Ok(other) = decode(&bad) {
                ensure(
                    encode(&other) == bad,
                    format!("corrupting byte {at} of {value:?} gave non-canonical {other:?}"),
                )?;
            }
        }
        Ok(())
    }

    #[test]
    fn request_codec_round_trips_and_rejects_damage() {
        Checker::new("request_codec").run(|rng| {
            let req = gen_request(rng);
            codec_law(rng, &req, Request::encode, Request::decode)
        });
    }

    #[test]
    fn response_codec_round_trips_and_rejects_damage() {
        Checker::new("response_codec").run(|rng| {
            let resp = gen_response(rng);
            codec_law(rng, &resp, Response::encode, Response::decode)
        });
    }
}
