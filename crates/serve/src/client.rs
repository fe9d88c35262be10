//! A synchronous client for the amoe-serve protocol, with a pipelined
//! `submit`/`poll` API.
//!
//! The classic calls ([`Client::score`], [`Client::reload`], ...)
//! block for their reply. The client may also keep several scores in
//! flight at once: [`Client::submit`] writes a `SCORE` without
//! waiting, [`Client::poll`] / [`Client::wait`] read completions in
//! whatever order the server's batcher shards finish them, matched
//! back to their request by correlation id. Replies for ids that were
//! never submitted (or already answered) are protocol errors — the
//! client never silently trusts reply ordering.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    self, FeatureRow, Request, Response, ShardStats, StatsSnapshot, WindowedStats,
};

/// What a serve call can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(io::Error),
    /// The server shed the request under load; retry later or
    /// elsewhere.
    Overloaded,
    /// The server answered with an error message (validation, bad
    /// checkpoint, shutdown in progress, ...).
    Server(String),
    /// The peer violated the wire protocol, or the caller asked for a
    /// request the protocol cannot carry (no rows, ragged numeric
    /// widths, a zero explicit trace id).
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Overloaded => write!(f, "server overloaded"),
            ServeError::Server(m) => write!(f, "server error: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One finished pipelined request: which request, and how it ended.
#[derive(Debug)]
pub struct Completion {
    /// The id [`Client::submit`] returned for this request.
    pub request_id: u64,
    /// One score per submitted row in row order, or the request's own
    /// failure ([`ServeError::Overloaded`], a validation error, ...).
    pub result: Result<Vec<f32>, ServeError>,
}

/// One connection to an amoe-serve server. Use one client per thread
/// for concurrency.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Submitted but not yet completed request ids → expected row
    /// count.
    outstanding: HashMap<u64, usize>,
    /// Completions read off the wire while looking for something else
    /// (admin replies, a different `wait` target), in arrival order.
    completed: VecDeque<Completion>,
}

impl Client {
    /// Connects and exchanges hellos. A server speaking any protocol
    /// version other than [`protocol::VERSION`] is refused with
    /// [`ServeError::Protocol`] (it closes its end too).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        protocol::write_hello(&mut stream, protocol::VERSION)?;
        let answered =
            protocol::read_hello(&mut stream).map_err(|e| ServeError::Protocol(e.to_string()))?;
        if answered != protocol::VERSION {
            return Err(ServeError::Protocol(format!(
                "server speaks protocol v{answered}, this client speaks v{}",
                protocol::VERSION
            )));
        }
        Ok(Client {
            stream,
            next_id: 1,
            outstanding: HashMap::new(),
            completed: VecDeque::new(),
        })
    }

    /// Requests submitted or completed but not yet handed to the
    /// caller.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.outstanding.len() + self.completed.len()
    }

    fn read_response(&mut self) -> Result<Response, ServeError> {
        let payload = protocol::read_frame(&mut self.stream)?;
        Response::decode(&payload).map_err(|e| ServeError::Protocol(e.to_string()))
    }

    /// Writes an admin request and blocks for its reply. Score
    /// completions may arrive first; they are stashed for a later
    /// [`Client::poll`].
    fn round_trip(&mut self, request: &Request) -> Result<Response, ServeError> {
        protocol::write_frame(&mut self.stream, &request.encode())?;
        loop {
            let resp = self.read_response()?;
            if self.is_inflight_completion(&resp) {
                let done = self.take_completion(resp)?;
                self.completed.push_back(done);
                continue;
            }
            return Ok(resp);
        }
    }

    /// Is this frame the completion of a request we have in flight?
    fn is_inflight_completion(&self, resp: &Response) -> bool {
        match resp {
            Response::Scores { request_id, .. } | Response::ScoreError { request_id, .. } => {
                self.outstanding.contains_key(request_id)
            }
            _ => false,
        }
    }

    /// Resolves a score completion frame against the outstanding set.
    /// A completion for an id we never submitted (or already resolved)
    /// means the server lost track of the conversation — that is a
    /// connection-level protocol error, not a per-request failure.
    fn take_completion(&mut self, resp: Response) -> Result<Completion, ServeError> {
        match resp {
            Response::Scores { request_id, scores } => {
                let Some(expected_rows) = self.outstanding.remove(&request_id) else {
                    return Err(ServeError::Protocol(format!(
                        "scores for unknown request id {request_id}"
                    )));
                };
                let result = if scores.len() == expected_rows {
                    Ok(scores)
                } else {
                    Err(ServeError::Protocol(format!(
                        "{} scores for {} rows",
                        scores.len(),
                        expected_rows
                    )))
                };
                Ok(Completion { request_id, result })
            }
            Response::ScoreError {
                request_id,
                overloaded,
                message,
            } => {
                if self.outstanding.remove(&request_id).is_none() {
                    return Err(ServeError::Protocol(format!(
                        "score error for unknown request id {request_id}"
                    )));
                }
                let result = if overloaded {
                    Err(ServeError::Overloaded)
                } else {
                    Err(ServeError::Server(message))
                };
                Ok(Completion { request_id, result })
            }
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?} while awaiting scores"
            ))),
        }
    }

    /// Submits a score request without waiting for its reply; returns
    /// the correlation id to pass to [`Client::wait`] (or match
    /// against [`Client::poll`] completions).
    pub fn submit(&mut self, rows: &[FeatureRow]) -> Result<u64, ServeError> {
        self.submit_inner(rows, 0)
    }

    /// Like [`Client::submit`], but asks the server to trace this
    /// request under `trace_id` (non-zero; bypasses trace sampling).
    pub fn submit_traced(&mut self, rows: &[FeatureRow], trace_id: u64) -> Result<u64, ServeError> {
        if trace_id == 0 {
            return Err(ServeError::Protocol("trace_id must be non-zero".into()));
        }
        self.submit_inner(rows, trace_id)
    }

    fn submit_inner(&mut self, rows: &[FeatureRow], trace_id: u64) -> Result<u64, ServeError> {
        // A SCORE frame carries one numeric width for all its rows, and
        // the server cannot correlate a frame it fails to decode, so
        // both shapes are refused here, before an id is spent.
        let Some(first) = rows.first() else {
            return Err(ServeError::Protocol(
                "score request needs at least one row".into(),
            ));
        };
        let width = first.numeric.len();
        if let Some(i) = rows.iter().position(|r| r.numeric.len() != width) {
            return Err(ServeError::Protocol(format!(
                "row {i} has {} numeric features, row 0 has {width}",
                rows[i].numeric.len()
            )));
        }
        let request_id = self.next_id;
        self.next_id += 1;
        let request = Request::Score {
            request_id,
            trace_id,
            rows: rows.to_vec(),
        };
        protocol::write_frame(&mut self.stream, &request.encode())?;
        self.outstanding.insert(request_id, rows.len());
        Ok(request_id)
    }

    /// Returns the next completion, in whichever order the server
    /// finished them: a previously stashed one if available, otherwise
    /// blocks on the wire. Errors with [`ServeError::Protocol`] when
    /// nothing is in flight.
    pub fn poll(&mut self) -> Result<Completion, ServeError> {
        if let Some(done) = self.completed.pop_front() {
            return Ok(done);
        }
        if self.outstanding.is_empty() {
            return Err(ServeError::Protocol(
                "poll with no requests in flight".into(),
            ));
        }
        let resp = self.read_response()?;
        self.take_completion(resp)
    }

    /// Blocks until `request_id` completes, stashing any other
    /// completions that arrive first for later [`Client::poll`] calls.
    pub fn wait(&mut self, request_id: u64) -> Result<Vec<f32>, ServeError> {
        if let Some(at) = self
            .completed
            .iter()
            .position(|c| c.request_id == request_id)
        {
            return self
                .completed
                .remove(at)
                .expect("position is in range")
                .result;
        }
        if !self.outstanding.contains_key(&request_id) {
            return Err(ServeError::Protocol(format!(
                "request {request_id} is not in flight"
            )));
        }
        loop {
            let resp = self.read_response()?;
            let done = self.take_completion(resp)?;
            if done.request_id == request_id {
                return done.result;
            }
            self.completed.push_back(done);
        }
    }

    /// Scores a batch of feature rows; returns one score per row, in
    /// row order.
    pub fn score(&mut self, rows: &[FeatureRow]) -> Result<Vec<f32>, ServeError> {
        let request_id = self.submit(rows)?;
        self.wait(request_id)
    }

    /// Like [`Client::score`], but asks the server to trace this
    /// request under `trace_id` (non-zero; bypasses trace sampling).
    pub fn score_traced(
        &mut self,
        rows: &[FeatureRow],
        trace_id: u64,
    ) -> Result<Vec<f32>, ServeError> {
        let request_id = self.submit_traced(rows, trace_id)?;
        self.wait(request_id)
    }

    /// Asks the server to hot-swap its weights from a checkpoint path
    /// on the *server's* filesystem.
    pub fn reload(&mut self, path: &str) -> Result<(), ServeError> {
        match self.round_trip(&Request::Reload { path: path.into() })? {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Initiates graceful shutdown: the server drains every shard's
    /// queue, answers every admitted request, and exits.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Reads the server's counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServeError> {
        self.stats_report().map(|(snapshot, _, _)| snapshot)
    }

    /// Reads counters, window quantiles and per-shard batcher counters.
    ///
    /// Every `STATS_REPLY` carries all three blocks, so the window and
    /// shard entries are always `Some`. They stay `Option`s so the
    /// signature callers already match on (e.g. the `perfbench`
    /// harness's `Ok((snapshot, Some(window), _))`) keeps compiling
    /// unchanged.
    #[allow(clippy::type_complexity)]
    pub fn stats_report(
        &mut self,
    ) -> Result<
        (
            StatsSnapshot,
            Option<WindowedStats>,
            Option<Vec<ShardStats>>,
        ),
        ServeError,
    > {
        match self.round_trip(&Request::Stats)? {
            Response::Stats {
                snapshot,
                window,
                shards,
            } => Ok((snapshot, Some(*window), Some(shards))),
            Response::Error { message } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetches the server's trace ring as Chrome trace-event JSON
    /// (empty document when tracing is off).
    pub fn trace_dump(&mut self) -> Result<String, ServeError> {
        match self.round_trip(&Request::TraceDump)? {
            Response::TraceDump { json } => Ok(json),
            Response::Error { message } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    fn row() -> FeatureRow {
        FeatureRow {
            sc: 0,
            tc: 0,
            brand: 0,
            shop: 0,
            user_segment: 0,
            price_bucket: 0,
            query: 0,
            numeric: vec![0.5],
        }
    }

    /// A hand-rolled one-connection server that answers the hello with
    /// `version` and then hands the connection to `f` — for scripting
    /// deliberately broken reply sequences.
    fn spawn_fake(
        version: u32,
        f: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let offered = protocol::read_hello(&mut stream).expect("hello");
            assert_eq!(offered, protocol::VERSION);
            protocol::write_hello(&mut stream, version).expect("hello reply");
            f(stream);
        });
        (addr, handle)
    }

    fn read_score_id(stream: &mut TcpStream) -> u64 {
        let payload = protocol::read_frame(stream).expect("request frame");
        match Request::decode(&payload).expect("decode request") {
            Request::Score { request_id, .. } => request_id,
            other => panic!("expected a score request, got {other:?}"),
        }
    }

    fn write_scores(stream: &mut TcpStream, request_id: u64, scores: Vec<f32>) {
        let resp = Response::Scores { request_id, scores };
        protocol::write_frame(stream, &resp.encode()).expect("write scores");
    }

    #[test]
    fn reply_with_wrong_request_id_is_a_protocol_error() {
        let (addr, server) = spawn_fake(protocol::VERSION, |mut stream| {
            let _ = read_score_id(&mut stream);
            // Reply to an id the client never submitted.
            write_scores(&mut stream, 999, vec![0.5]);
        });
        let mut client = Client::connect(addr).expect("connect");
        let err = client.score(&[row()]).expect_err("mismatched id must fail");
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("unknown request id 999")),
            "unexpected error: {err}"
        );
        server.join().unwrap();
    }

    #[test]
    fn duplicate_score_reply_is_a_protocol_error() {
        let (addr, server) = spawn_fake(protocol::VERSION, |mut stream| {
            let first = read_score_id(&mut stream);
            write_scores(&mut stream, first, vec![0.25]);
            let _second = read_score_id(&mut stream);
            // Answer the second request with the first one's id again.
            write_scores(&mut stream, first, vec![0.25]);
        });
        let mut client = Client::connect(addr).expect("connect");
        let id = client.submit(&[row()]).expect("submit");
        assert_eq!(client.wait(id).expect("first reply is fine"), vec![0.25]);
        let _second = client.submit(&[row()]).expect("submit again");
        let err = client.poll().expect_err("duplicate reply must fail");
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("unknown request id")),
            "unexpected error: {err}"
        );
        server.join().unwrap();
    }

    #[test]
    fn server_of_another_version_is_refused() {
        for version in [protocol::VERSION - 1, protocol::VERSION + 1] {
            let (addr, server) = spawn_fake(version, |_stream| {});
            let err = Client::connect(addr)
                .err()
                .expect("a version mismatch must fail the connect");
            assert!(
                matches!(&err, ServeError::Protocol(m) if m.contains(&format!("v{version}"))),
                "unexpected error: {err}"
            );
            server.join().unwrap();
        }
    }

    #[test]
    fn unencodable_rows_are_refused_before_any_frame_is_written() {
        let (addr, server) = spawn_fake(protocol::VERSION, |mut stream| {
            // The first frame on the wire must be the valid request, and
            // the refused ones must not have spent an id.
            let id = read_score_id(&mut stream);
            assert_eq!(id, 1);
            write_scores(&mut stream, id, vec![0.75]);
        });
        let mut client = Client::connect(addr).expect("connect");
        let mut wide = row();
        wide.numeric.push(1.0);
        for (what, rows) in [("empty", vec![]), ("ragged", vec![row(), wide])] {
            let err = client.score(&rows).expect_err(what);
            assert!(matches!(err, ServeError::Protocol(_)), "{what}: {err}");
            assert_eq!(client.in_flight(), 0, "{what}");
        }
        assert_eq!(client.score(&[row()]).expect("valid score"), vec![0.75]);
        server.join().unwrap();
    }
}
