//! End-to-end tests of the request-tracing and windowed-telemetry
//! pipeline added in the observability PR:
//!
//! - a traced request must leave the **full stage chain** (admitted →
//!   enqueued → queue_exit → batch_assembled → reply_written, plus the
//!   compute-side gate/expert/scatter events of its batch) with
//!   causally monotone timestamps, and the `TRACE_DUMP` export must
//!   round-trip through the same Chrome-trace validator CI uses;
//! - windowed STATS quantiles must agree with an exact-sort oracle
//!   within the log-bucket error bound `2^(1/4)`;
//! - scores must stay **bit-identical** with tracing on at any sample
//!   rate — telemetry may never perturb the model;
//! - a hand-rolled client pins the one wire version byte for byte:
//!   other versions are refused at the hello, and the SCORE,
//!   STATS_REPLY, ERROR and OK frames keep their documented layout.
//!
//! The trace ring, its enable gate and the sample rate are process
//! globals, so every test that touches them runs under one mutex.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use adv_hsc_moe::dataset::{generate, Batch, Dataset, GeneratorConfig};
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel};
use adv_hsc_moe::obs::json::{parse, Value};
use adv_hsc_moe::obs::registry::SUB_BUCKETS;
use adv_hsc_moe::obs::{trace, WindowedHistogram};
use adv_hsc_moe::serve::{protocol, Client, FeatureRow, QuantileSummary, ServeConfig, Server};
use amoe_bench::obs_check::validate_chrome_trace;

/// Serialises tests that mutate the global trace state (enable gate,
/// sample rate, ring contents).
static TRACE_STATE: Mutex<()> = Mutex::new(());

fn trained_model(seed: u64, steps: usize) -> (Dataset, MoeModel) {
    let d = generate(&GeneratorConfig::tiny(41));
    let cfg = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        seed,
        ..MoeConfig::default()
    };
    let mut m = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..steps {
        m.train_step(&batch);
    }
    (d, m)
}

fn feature_rows(d: &Dataset, range: std::ops::Range<usize>) -> Vec<FeatureRow> {
    d.test.examples[range]
        .iter()
        .map(|e| FeatureRow {
            sc: e.pred_sc as u32,
            tc: e.pred_tc as u32,
            brand: e.brand as u32,
            shop: e.shop as u32,
            user_segment: e.user_segment as u32,
            price_bucket: e.price_bucket as u32,
            query: e.query,
            numeric: e.numeric.to_vec(),
        })
        .collect()
}

/// Finds the start timestamp (µs) of `stage` among `events` filtered
/// by a numeric `args` field equal to `key`.
fn stage_ts(events: &[Value], field: &str, key: f64, stage: &str) -> Option<f64> {
    events
        .iter()
        .find(|e| {
            e.get("name").and_then(Value::as_str) == Some(stage)
                && e.get("args")
                    .and_then(|a| a.get(field))
                    .and_then(Value::as_f64)
                    == Some(key)
        })
        .and_then(|e| e.get("ts").and_then(Value::as_f64))
}

/// A traced request leaves the full stage chain with causally monotone
/// timestamps, and the `TRACE_DUMP` export passes the CI validator.
#[test]
fn traced_request_emits_full_stage_chain() {
    let _guard = TRACE_STATE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    trace::set_sample(1);
    trace::reset();

    let (d, model) = trained_model(901, 5);
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let rows = feature_rows(&d, 0..8);
    for _ in 0..6 {
        client.score(&rows).expect("score");
    }
    const TRACE_ID: u64 = 0xE2E;
    client.score_traced(&rows, TRACE_ID).expect("score_traced");

    // The dump must round-trip through the validator CI uses.
    let dump = client.trace_dump().expect("trace_dump");
    let n = validate_chrome_trace(&dump).expect("chrome trace contract");
    assert!(n > 0, "tracing on but dump is empty");

    let doc = parse(&dump).expect("dump parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents")
        .to_vec();

    // Request-scoped chain, in causal order. Events live on different
    // threads (connection vs batcher) but share one clock anchor, so
    // the start timestamps must be non-decreasing along the chain.
    let id = TRACE_ID as f64;
    let mut prev = f64::NEG_INFINITY;
    for stage in [
        "admitted",
        "enqueued",
        "queue_exit",
        "batch_assembled",
        "reply_written",
    ] {
        let ts = stage_ts(&events, "trace_id", id, stage)
            .unwrap_or_else(|| panic!("trace id {TRACE_ID:#x} has no '{stage}' event"));
        assert!(
            ts >= prev,
            "'{stage}' ts {ts} precedes the previous stage ({prev})"
        );
        prev = ts;
    }

    // The batch that carried the request must have compute-side
    // events tagged with its id, all between assembly and reply.
    let assembled = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Value::as_str) == Some("batch_assembled")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Value::as_f64)
                    == Some(id)
        })
        .expect("batch_assembled event");
    let batch_id = assembled
        .get("args")
        .and_then(|a| a.get("batch_id"))
        .and_then(Value::as_f64)
        .expect("batch id");
    assert!(batch_id > 0.0, "batch_assembled carries no batch id");
    for stage in ["gate", "expert", "scatter"] {
        let ts = stage_ts(&events, "batch_id", batch_id, stage)
            .unwrap_or_else(|| panic!("batch {batch_id} has no '{stage}' event"));
        assert!(ts >= 0.0);
    }

    // Windowed stats are live on the same connection: every score
    // request of THIS server landed in the always-on windows.
    let (snapshot, window, _) = client.stats_report().expect("stats");
    let w = window.expect("stats must carry the windowed block");
    assert_eq!(snapshot.ok, 7);
    assert_eq!(w.request_latency_us.count, 7);
    assert_eq!(w.queue_wait_us.count, 7);
    assert_eq!(w.reply_write_us.count, 7);
    assert!(w.compute_us.count >= 1, "at least one batch computed");
    assert!(
        w.request_latency_us.p50 <= w.request_latency_us.p95
            && w.request_latency_us.p95 <= w.request_latency_us.p99,
        "quantiles must be ordered"
    );
    assert!(w.window_secs > 0.0);

    client.shutdown().expect("shutdown");
    server.join();
    trace::set_enabled(false);
    trace::reset();
}

/// Windowed p50/p95/p99 agree with an exact-sort oracle within the
/// log-bucket error bound: `truth ≤ estimate ≤ truth · 2^(1/4)`.
/// Seeded xorshift stream; covers the single-bucket and empty edges.
#[test]
fn windowed_quantiles_agree_with_exact_oracle() {
    let factor = 2f64.powf(1.0 / SUB_BUCKETS as f64);
    // Exact oracle with the histogram's rank rule (1-based ceil).
    let oracle = |sorted: &[f64], q: f64| {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    };

    let mut state = 0x9E37_79B9_7F4A_7C15u64; // fixed seed
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for trial in 0..20 {
        let n = 1 + (next() % 400) as usize;
        let mut w = WindowedHistogram::with_defaults();
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            // Latency-like magnitudes, ≥ 1 so the relative bound of
            // the log buckets applies (bucket 0 is absolute [0, 1)).
            let v = 1.0 + (next() % 1_000_000) as f64 / 7.0;
            values.push(v);
            w.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = QuantileSummary::from_histogram(&w.merged());
        assert_eq!(s.count, n as u64, "trial {trial}");
        for (q, est) in [(0.5, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let truth = oracle(&values, q);
            assert!(
                est >= truth * (1.0 - 1e-9) && est <= truth * factor * (1.0 + 1e-9),
                "trial {trial}: q={q} estimate {est} outside \
                 [{truth}, {truth} · {factor}]"
            );
        }
    }

    // Single-bucket edge: identical samples read back exactly (the
    // estimate clamps to the observed min == max).
    let mut w = WindowedHistogram::with_defaults();
    for _ in 0..32 {
        w.record(1234.5);
    }
    let s = QuantileSummary::from_histogram(&w.merged());
    assert_eq!((s.p50, s.p95, s.p99), (1234.5, 1234.5, 1234.5));

    // Empty edge: count 0, all quantiles 0.
    let s = QuantileSummary::from_histogram(&WindowedHistogram::with_defaults().merged());
    assert_eq!(s, QuantileSummary::default());
}

/// Tracing must be a pure observer: scores stay bit-identical to
/// direct in-process predict with tracing off, and with tracing on at
/// every sample rate.
#[test]
fn scores_bit_identical_with_tracing_on_at_any_sample_rate() {
    let _guard = TRACE_STATE.lock().unwrap_or_else(|e| e.into_inner());

    let (d, model) = trained_model(902, 8);
    let idx: Vec<usize> = (0..25).collect();
    let expected = ServingMoe::new(&model).predict(&Batch::from_split(&d.test, &idx));
    let rows = feature_rows(&d, 0..25);

    // (enabled, sample rate): off, every request, 1-in-4, 1-in-16.
    for (on, sample) in [(false, 1u64), (true, 1), (true, 4), (true, 16)] {
        trace::set_enabled(on);
        trace::set_sample(sample);
        trace::reset();
        let (d, model) = trained_model(902, 8);
        let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
            .expect("server start");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let got = client.score(&rows).expect("score");
        assert_eq!(
            got, expected,
            "tracing on={on} sample=1/{sample}: scores diverged from direct predict"
        );
        client.shutdown().expect("shutdown");
        server.join();
    }
    trace::set_enabled(false);
    trace::reset();
}

/// A hand-rolled client pins the one wire version byte for byte,
/// independently of the crate's codec: hellos offering another version
/// get the server's hello and then EOF; a SCORE frame (with its
/// trace-id field) scores bit-identically to direct predict; the
/// STATS_REPLY always carries counters, window and shard blocks; an
/// overflowing SCORE header is answered with ERROR without hurting the
/// connection; and SHUTDOWN gets OK.
#[test]
fn raw_wire_client_pins_the_protocol_layout() {
    const WIRE_VERSION: u32 = 4;
    const SHARDS: usize = 2;
    assert_eq!(protocol::VERSION, WIRE_VERSION);
    let _guard = TRACE_STATE.lock().unwrap_or_else(|e| e.into_inner());

    let (d, model) = trained_model(903, 8);
    let idx: Vec<usize> = (0..5).collect();
    let expected = ServingMoe::new(&model).predict(&Batch::from_split(&d.test, &idx));
    let rows = feature_rows(&d, 0..5);

    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            max_wait: Duration::from_millis(1),
            shards: SHARDS,
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let connect = |offer: u32| {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"AMSV").expect("hello magic");
        s.write_all(&offer.to_le_bytes()).expect("hello version");
        let mut hello = [0u8; 8];
        s.read_exact(&mut hello).expect("hello reply");
        assert_eq!(&hello[..4], b"AMSV");
        assert_eq!(
            u32::from_le_bytes(hello[4..8].try_into().unwrap()),
            WIRE_VERSION,
            "the server answers every hello with its own version"
        );
        s
    };

    // Any other offered version: the server's hello, then EOF.
    for offer in [1, WIRE_VERSION + 1] {
        let mut s = connect(offer);
        let mut rest = [0u8; 1];
        assert_eq!(
            s.read(&mut rest).expect("clean close"),
            0,
            "a v{offer} hello must be refused"
        );
    }

    let mut s = connect(WIRE_VERSION);
    let write_frame = |s: &mut TcpStream, payload: &[u8]| {
        s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        s.write_all(payload).unwrap();
    };
    let read_frame = |s: &mut TcpStream| -> Vec<u8> {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        s.read_exact(&mut payload).unwrap();
        payload
    };
    // SCORE: tag 0x01, request id, trace id, row count, numeric width,
    // then 7 ids + numerics per row.
    let score_frame = |request_id: u64, trace_id: u64| {
        let mut req = vec![0x01u8];
        req.extend_from_slice(&request_id.to_le_bytes());
        req.extend_from_slice(&trace_id.to_le_bytes());
        req.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        req.extend_from_slice(&(rows[0].numeric.len() as u32).to_le_bytes());
        for r in &rows {
            for id in [
                r.sc,
                r.tc,
                r.brand,
                r.shop,
                r.user_segment,
                r.price_bucket,
                r.query,
            ] {
                req.extend_from_slice(&id.to_le_bytes());
            }
            for &v in &r.numeric {
                req.extend_from_slice(&v.to_le_bytes());
            }
        }
        req
    };
    // SCORES: tag 0x81, request id, score count, f32 scores.
    let check_scores = |reply: &[u8], request_id: u64| {
        assert_eq!(reply[0], 0x81, "expected SCORES tag");
        assert_eq!(
            u64::from_le_bytes(reply[1..9].try_into().unwrap()),
            request_id
        );
        let n = u32::from_le_bytes(reply[9..13].try_into().unwrap()) as usize;
        assert_eq!(n, rows.len());
        assert_eq!(reply.len(), 13 + 4 * n);
        let scores: Vec<f32> = reply[13..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(
            scores, expected,
            "raw-wire scores diverged from direct predict"
        );
    };

    write_frame(&mut s, &score_frame(7, 0));
    check_scores(&read_frame(&mut s), 7);

    // STATS: tag 0x04 → STATS_REPLY 0x85 with 8 counters, the window
    // block (secs + 5 summaries of count/p50/p95/p99) and the shard
    // block (count + 3×u64 + f64 per shard).
    write_frame(&mut s, &[0x04]);
    let reply = read_frame(&mut s);
    assert_eq!(reply[0], 0x85, "expected STATS_REPLY tag");
    assert_eq!(reply.len(), 1 + 64 + 8 + 5 * 32 + 4 + 32 * SHARDS);
    let ok = u64::from_le_bytes(reply[1 + 16..1 + 24].try_into().unwrap());
    assert_eq!(ok, 1, "the score request must be counted");
    let at = 1 + 64 + 8 + 5 * 32;
    let n_shards = u32::from_le_bytes(reply[at..at + 4].try_into().unwrap());
    assert_eq!(n_shards as usize, SHARDS);

    // n_rows · (7 + n_numeric) · 4 = 2^31 · 2^33 wraps to 0 unchecked:
    // the header must be rejected as malformed, not sized from.
    let mut overflow = vec![0x01u8];
    overflow.extend_from_slice(&8u64.to_le_bytes());
    overflow.extend_from_slice(&0u64.to_le_bytes());
    overflow.extend_from_slice(&(1u32 << 31).to_le_bytes());
    overflow.extend_from_slice(&((1u32 << 31) - 7).to_le_bytes());
    write_frame(&mut s, &overflow);
    let reply = read_frame(&mut s);
    assert_eq!(reply[0], 0x83, "expected ERROR tag for the overflow frame");

    // The connection survives, and a non-zero trace id rides the same
    // SCORE tag.
    write_frame(&mut s, &score_frame(9, 0xABC));
    check_scores(&read_frame(&mut s), 9);

    // SHUTDOWN: tag 0x03 → OK (0x84).
    write_frame(&mut s, &[0x03]);
    assert_eq!(read_frame(&mut s), [0x84], "expected OK reply to shutdown");
    server.join();
}
