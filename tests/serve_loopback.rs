//! End-to-end tests of the `amoe-serve` service over loopback TCP:
//! batched scores must be **bit-identical** to direct in-process
//! `ServingMoe::predict` at every pool width, overload must surface as
//! `ServeError::Overloaded`, a hot-swap under load must not fail a single
//! in-flight request, and `SHUTDOWN` must drain every admitted
//! request before the server exits.
//!
//! The tests share one process, and the pool thread-override is a
//! process-wide global, so each test sets it explicitly where it
//! matters and restores the default before returning.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adv_hsc_moe::dataset::{generate, Batch, Dataset, GeneratorConfig};
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel};
use adv_hsc_moe::serve::{
    shard_of, Client, FeatureRow, ModelSpec, OverloadPolicy, ServeConfig, ServeError, Server,
};
use adv_hsc_moe::tensor::pool;

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

/// Batched serving over TCP returns exactly the scores the model
/// produces in-process — bitwise, for every pool width, even though
/// concurrent requests are coalesced into shared micro-batches.
#[test]
fn scores_over_tcp_are_bit_identical_to_direct_predict() {
    // Mixed-size concurrent requests, one expected score vector each.
    let spans: Vec<std::ops::Range<usize>> = vec![0..3, 3..4, 4..11, 11..16, 16..17, 17..25];

    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        let (d, model) = trained_model(900, 8);
        let expected: Vec<Vec<f32>> = spans
            .iter()
            .map(|s| {
                let batch = Batch::from_split(&d.test, &s.clone().collect::<Vec<_>>());
                ServingMoe::new(&model).predict(&batch)
            })
            .collect();
        let server = Server::start(
            "127.0.0.1:0",
            model,
            d.meta.clone(),
            ServeConfig {
                // Generous window so concurrent requests coalesce.
                max_wait: Duration::from_millis(20),
                ..ServeConfig::default()
            },
        )
        .expect("server start");
        let addr = server.local_addr();

        let handles: Vec<_> = spans
            .iter()
            .cloned()
            .map(|span| {
                let rows = feature_rows(&d, span);
                std::thread::spawn(move || {
                    Client::connect(addr)
                        .expect("connect")
                        .score(&rows)
                        .expect("score")
                })
            })
            .collect();
        let got: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g, e,
                "threads={threads}: request {i} scores differ from direct predict"
            );
        }
        let mut admin = Client::connect(addr).expect("admin connect");
        let stats = admin.stats().expect("stats");
        assert_eq!(stats.ok, spans.len() as u64, "threads={threads}");
        assert_eq!(stats.errors, 0, "threads={threads}");
        admin.shutdown().expect("shutdown");
        server.join();
    }
    pool::clear_threads_override();
}

/// A full queue with a throttled batcher rejects with `ServeError::Overloaded`
/// (and counts it) instead of erroring or hanging.
#[test]
fn full_queue_returns_overloaded() {
    let (d, model) = trained_model(901, 2);
    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            queue_cap: 2,
            max_batch_rows: 2,
            overload: OverloadPolicy::Reject,
            batcher_delay: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();

    let overloaded = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let rows = feature_rows(&d, i..i + 1);
            let overloaded = Arc::clone(&overloaded);
            std::thread::spawn(
                move || match Client::connect(addr).expect("connect").score(&rows) {
                    Ok(scores) => assert_eq!(scores.len(), 1),
                    Err(ServeError::Overloaded) => {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                },
            )
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        overloaded.load(Ordering::Relaxed) > 0,
        "8 concurrent requests against a queue of 2 should shed load"
    );
    let mut admin = Client::connect(addr).expect("admin connect");
    let stats = admin.stats().expect("stats");
    assert_eq!(
        stats.overloaded,
        overloaded.load(Ordering::Relaxed) as u64,
        "server-side overload count disagrees with clients"
    );
    admin.shutdown().expect("shutdown");
    server.join();
}

/// `SHUTDOWN` drains: requests admitted before the shutdown arrives
/// are all answered with real scores, never dropped.
#[test]
fn shutdown_drains_admitted_requests() {
    let (d, model) = trained_model(902, 2);
    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            queue_cap: 64,
            // Slow batches so the queue still holds requests when the
            // shutdown lands.
            batcher_delay: Some(Duration::from_millis(20)),
            max_batch_rows: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();

    let answered = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let rows = feature_rows(&d, i..i + 1);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let scores = Client::connect(addr)
                    .expect("connect")
                    .score(&rows)
                    .expect("admitted request must be answered during drain");
                assert_eq!(scores.len(), 1);
                answered.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    // Wait until all 10 requests have reached the server (the slow
    // batcher guarantees a backlog remains), then shut down mid-drain.
    let mut admin = Client::connect(addr).expect("admin connect");
    while admin.stats().expect("stats").requests < 10 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(5));
    admin.shutdown().expect("shutdown");
    for h in handles {
        h.join().unwrap();
    }
    server.join();
    assert_eq!(answered.load(Ordering::Relaxed), 10);
}

/// RELOAD under load: every response is bitwise one of {old-model
/// scores, new-model scores}, nothing fails, and the swap is counted.
#[test]
fn reload_hot_swaps_without_failing_requests() {
    let (d, model_a) = trained_model(903, 4);
    let (_, model_b) = trained_model(904, 9);
    let dir = std::env::temp_dir().join(format!("amoe_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("model_b.amoe");
    model_b.params().save(&ckpt).expect("save checkpoint");
    ModelSpec {
        meta: d.meta.clone(),
        config: model_b.config().clone(),
        serve_quantized: false,
    }
    .save(dir.join("model_b.spec"))
    .expect("save spec");

    let span = 0..6;
    let batch = Batch::from_split(&d.test, &span.clone().collect::<Vec<_>>());
    let scores_a = ServingMoe::new(&model_a).predict(&batch);
    let scores_b = ServingMoe::new(&model_b).predict(&batch);
    assert_ne!(scores_a, scores_b, "models must actually differ");

    let server = Server::start(
        "127.0.0.1:0",
        model_a,
        d.meta.clone(),
        ServeConfig::default(),
    )
    .expect("server start");
    let addr = server.local_addr();

    let rows = feature_rows(&d, span);
    let saw_b = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let rows = rows.clone();
            let (scores_a, scores_b) = (scores_a.clone(), scores_b.clone());
            let saw_b = Arc::clone(&saw_b);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..40 {
                    let got = client.score(&rows).expect("score during reload");
                    if got == scores_b {
                        saw_b.fetch_add(1, Ordering::Relaxed);
                    } else {
                        assert_eq!(got, scores_a, "response matches neither model");
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .reload(ckpt.to_str().expect("utf-8 path"))
        .expect("reload");
    for w in workers {
        w.join().unwrap();
    }
    // After the swap acknowledgement, fresh requests use the new model.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.score(&rows).expect("score"), scores_b);
    let stats = admin.stats().expect("stats");
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.errors, 0);
    admin.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad RELOAD (missing file, incompatible checkpoint) keeps the old
/// model serving and reports an error.
#[test]
fn failed_reload_keeps_serving_old_model() {
    let (d, model) = trained_model(905, 3);
    let rows = feature_rows(&d, 0..4);
    let batch = Batch::from_split(&d.test, &(0..4).collect::<Vec<_>>());
    let expected = ServingMoe::new(&model).predict(&batch);

    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    match client.reload("/nonexistent/amoe_serve_missing.amoe") {
        Err(ServeError::Server(msg)) => {
            assert!(msg.contains("checkpoint load failed"), "message: {msg}")
        }
        other => panic!("expected server error, got {other:?}"),
    }
    assert_eq!(client.score(&rows).expect("score"), expected);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.reloads, 0);
    client.shutdown().expect("shutdown");
    server.join();
}

/// Batcher shards never change scores: at every shard count × pool
/// width, serving the same weights returns bitwise the single-shard
/// direct-predict scores, even with concurrent mixed-size requests.
#[test]
fn sharded_scores_are_bit_identical_across_shard_and_thread_counts() {
    let spans: Vec<std::ops::Range<usize>> = vec![0..3, 3..4, 4..11, 11..16, 16..17, 17..25];
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        let (d, model) = trained_model(910, 4);
        let expected: Vec<Vec<f32>> = spans
            .iter()
            .map(|s| {
                let batch = Batch::from_split(&d.test, &s.clone().collect::<Vec<_>>());
                ServingMoe::new(&model).predict(&batch)
            })
            .collect();
        for shards in [1usize, 2, 4] {
            // Rebuild from the same ParamSet so every shard count
            // serves bitwise-identical weights.
            let served = MoeModel::from_params(
                &d.meta,
                model.config().clone(),
                OptimConfig::default(),
                model.params(),
            )
            .expect("rebuild from params");
            let server = Server::start(
                "127.0.0.1:0",
                served,
                d.meta.clone(),
                ServeConfig {
                    shards,
                    max_wait: Duration::from_millis(20),
                    ..ServeConfig::default()
                },
            )
            .expect("server start");
            let addr = server.local_addr();
            let handles: Vec<_> = spans
                .iter()
                .cloned()
                .map(|span| {
                    let rows = feature_rows(&d, span);
                    std::thread::spawn(move || {
                        Client::connect(addr)
                            .expect("connect")
                            .score(&rows)
                            .expect("score")
                    })
                })
                .collect();
            let got: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    g, e,
                    "threads={threads} shards={shards}: request {i} differs from direct predict"
                );
            }
            let mut admin = Client::connect(addr).expect("admin connect");
            let stats = admin.stats().expect("stats");
            assert_eq!(
                stats.ok,
                spans.len() as u64,
                "threads={threads} shards={shards}"
            );
            assert_eq!(stats.errors, 0, "threads={threads} shards={shards}");
            admin.shutdown().expect("shutdown");
            server.join();
        }
    }
    pool::clear_threads_override();
}

/// One pipelined connection with several requests in flight completes
/// them out of submission order when their shards drain at different
/// speeds — and every completion still carries the right scores.
#[test]
fn pipelined_connection_completes_out_of_order() {
    let (d, model) = trained_model(911, 2);
    const N: usize = 10;
    const SHARDS: usize = 3;
    let delay = Duration::from_millis(40);
    let expected: Vec<Vec<f32>> = (0..N)
        .map(|i| {
            let batch = Batch::from_split(&d.test, &[i]);
            ServingMoe::new(&model).predict(&batch)
        })
        .collect();

    // With one request per batch and a fixed per-batch delay, a
    // shard's requests complete serially in submission order, so a
    // request's completion time grows with its in-shard rank. The
    // shard hash is deterministic, so find a submission pair (j < k)
    // where j sits ≥ 2 ranks deeper in its shard than k: k must then
    // finish at least one full delay period before j.
    let mut rank = [0usize; N + 1];
    let mut cnt = [0usize; SHARDS];
    for id in 1..=N as u64 {
        let s = shard_of(id, SHARDS);
        rank[id as usize] = cnt[s];
        cnt[s] += 1;
    }
    let pair = (1..=N as u64)
        .flat_map(|j| (j + 1..=N as u64).map(move |k| (j, k)))
        .filter(|&(j, k)| rank[j as usize] >= rank[k as usize] + 2)
        .max_by_key(|&(j, k)| rank[j as usize] - rank[k as usize]);
    let (deep, shallow) = pair.expect("precondition: the shard hash must imbalance ids 1..=N");

    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            shards: SHARDS,
            max_batch_rows: 1,
            queue_cap: 64,
            batcher_delay: Some(delay),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let ids: Vec<u64> = (0..N)
        .map(|i| {
            client
                .submit(&feature_rows(&d, i..i + 1))
                .expect("pipelined submit")
        })
        .collect();
    assert_eq!(ids, (1..=N as u64).collect::<Vec<_>>());
    assert_eq!(client.in_flight(), N);

    let mut completion_pos = [usize::MAX; N + 1];
    for pos in 0..N {
        let done = client.poll().expect("poll");
        let scores = done.result.expect("pipelined score");
        assert_eq!(
            scores,
            expected[done.request_id as usize - 1],
            "request {} scored wrong",
            done.request_id
        );
        completion_pos[done.request_id as usize] = pos;
    }
    assert_eq!(client.in_flight(), 0);
    assert!(
        completion_pos[shallow as usize] < completion_pos[deep as usize],
        "request {shallow} (shard rank {}) should complete before {deep} (shard rank {}): \
         completion order {completion_pos:?}",
        rank[shallow as usize],
        rank[deep as usize],
    );
    client.shutdown().expect("shutdown");
    server.join();
}

/// Overload and drain are per shard: each shard sheds its own
/// overflow (counted in the per-shard stats), every submission gets
/// exactly one completion, and a SHUTDOWN still answers every admitted
/// request on every shard.
#[test]
fn overload_and_drain_are_per_shard() {
    let (d, model) = trained_model(912, 2);
    const SHARDS: usize = 2;
    // Precompute before `model` moves into the server.
    let expected: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            let batch = Batch::from_split(&d.test, &[i]);
            ServingMoe::new(&model).predict(&batch)
        })
        .collect();
    let expected = |i: usize| expected[i].clone();
    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            shards: SHARDS,
            queue_cap: 1,
            max_batch_rows: 1,
            overload: OverloadPolicy::Reject,
            batcher_delay: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // Wave 1: 12 single-row submits land ~6 per shard within the first
    // batch delay. Per shard at most one fits the batcher and one the
    // queue (cap 1), so each shard must shed at least one request.
    let wave1: Vec<u64> = (0..12)
        .map(|i| client.submit(&feature_rows(&d, i..i + 1)).expect("submit"))
        .collect();
    let mut shard_ok = [0u64; SHARDS];
    let mut shard_shed = [0u64; SHARDS];
    for _ in &wave1 {
        let done = client.poll().expect("poll");
        let shard = shard_of(done.request_id, SHARDS);
        match done.result {
            Ok(scores) => {
                assert_eq!(scores, expected(done.request_id as usize - 1));
                shard_ok[shard] += 1;
            }
            Err(ServeError::Overloaded) => shard_shed[shard] += 1,
            Err(e) => panic!("request {}: unexpected error {e}", done.request_id),
        }
    }
    assert_eq!(
        client.in_flight(),
        0,
        "every submission completes exactly once"
    );
    for s in 0..SHARDS {
        assert!(
            shard_shed[s] >= 1,
            "shard {s} should shed overflow: ok={shard_ok:?} shed={shard_shed:?}"
        );
        assert!(shard_ok[s] >= 1, "shard {s} should admit its first request");
    }

    // The server's per-shard counters agree with what the client saw.
    let mut admin = Client::connect(addr).expect("admin connect");
    let (snapshot, _, shards) = admin.stats_report().expect("stats");
    let shards = shards.expect("stats carry per-shard counters");
    assert_eq!(shards.len(), SHARDS);
    for s in 0..SHARDS {
        assert_eq!(
            shards[s].overloaded, shard_shed[s],
            "shard {s} overload count disagrees with the client"
        );
    }
    assert_eq!(snapshot.overloaded, shard_shed.iter().sum::<u64>());

    // Wave 2: refill both shards, then shut down from the admin
    // connection while batches are still sleeping. Every admitted
    // request must still be answered with real scores during drain.
    let wave2: Vec<u64> = (12..16)
        .map(|i| client.submit(&feature_rows(&d, i..i + 1)).expect("submit"))
        .collect();
    // Only shut down once all four submits have been through
    // admission (the 50 ms batch delay keeps them queued or in the
    // batcher), so each shard has an admitted request to drain.
    while admin.stats().expect("stats").requests < 16 {
        std::thread::sleep(Duration::from_millis(2));
    }
    admin.shutdown().expect("shutdown");
    let mut drained_ok = 0;
    for _ in &wave2 {
        let done = client.poll().expect("poll during drain");
        match done.result {
            Ok(scores) => {
                assert_eq!(scores, expected(done.request_id as usize - 1));
                drained_ok += 1;
            }
            Err(ServeError::Overloaded) => {}
            // A submit that raced the queue close is refused, not lost.
            Err(ServeError::Server(msg)) => {
                assert!(msg.contains("shutting down"), "message: {msg}");
            }
            Err(e) => panic!("request {}: unexpected error {e}", done.request_id),
        }
    }
    assert_eq!(
        client.in_flight(),
        0,
        "drain answers every admitted request"
    );
    assert!(
        drained_ok >= 1,
        "at least each shard's first wave-2 request is admitted and drained"
    );
    server.join();
}

/// Every gate-input ablation is servable (PR 8 lifted the old
/// `GateInput::Sc`-only restriction): the server starts, and TCP
/// scores stay bit-identical to direct predicts for each variant.
#[test]
fn non_sc_gate_inputs_are_servable_bit_identical() {
    use adv_hsc_moe::moe::config::GateInput;
    for which in [GateInput::TcSc, GateInput::QueryTcSc, GateInput::All] {
        let d = generate(&GeneratorConfig::tiny(41));
        let cfg = MoeConfig {
            n_experts: 4,
            top_k: 2,
            tower: TowerConfig { hidden: vec![8] },
            gate_input: which,
            seed: 913,
            ..MoeConfig::default()
        };
        let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
        for _ in 0..2 {
            model.train_step(&batch);
        }
        let probe = Batch::from_split(&d.test, &(0..9).collect::<Vec<_>>());
        let expected = ServingMoe::new(&model).predict(&probe);

        let server = Server::start(
            "127.0.0.1:0",
            model,
            d.meta.clone(),
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{which:?}: server start: {e}"));
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let got = client
            .score(&feature_rows(&d, 0..9))
            .unwrap_or_else(|e| panic!("{which:?}: score: {e}"));
        assert_eq!(
            got, expected,
            "{which:?}: TCP scores differ from direct predict"
        );
        client.shutdown().expect("shutdown");
        server.join();
    }
}

/// Schema violations (out-of-vocabulary ids) are rejected per request
/// with a message naming the field, and the connection stays usable.
#[test]
fn out_of_vocab_request_is_rejected_not_fatal() {
    let (d, model) = trained_model(906, 2);
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let mut bad = feature_rows(&d, 0..1);
    bad[0].shop = u32::MAX;
    match client.score(&bad) {
        Err(ServeError::Server(msg)) => assert!(msg.contains("shop"), "message: {msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Same connection still serves valid requests afterwards.
    let good = feature_rows(&d, 0..2);
    assert_eq!(client.score(&good).expect("score").len(), 2);
    client.shutdown().expect("shutdown");
    server.join();
}
