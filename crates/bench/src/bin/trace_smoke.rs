//! Tracing smoke gate: a live server with `AMOE_TRACE` on, traffic
//! with both server-sampled and client-supplied trace ids, then the
//! two export paths — the `TRACE_DUMP` protocol frame and the
//! drain-time `AMOE_TRACE` file — validated against the Chrome
//! trace-event contract (schema, finite numbers, monotone per-thread
//! timestamps) by [`amoe_bench::obs_check::validate_chrome_trace`].
//!
//! Exit status is the contract: `0` means the tracing pipeline is
//! healthy end-to-end; any violation aborts with a message and status
//! `1`. `scripts/ci.sh` runs this with `AMOE_TRACE` pointing into
//! `target/`.

use std::path::Path;
use std::process::exit;

use amoe_bench::obs_check;
use amoe_core::ranker::{OptimConfig, Ranker};
use amoe_core::{MoeConfig, MoeModel, TowerConfig};
use amoe_dataset::{generate, Batch, Dataset, GeneratorConfig};
use amoe_obs::json::{parse, Value};
use amoe_obs::trace;
use amoe_serve::{Client, FeatureRow, ServeConfig, Server};

fn fail(msg: &str) -> ! {
    eprintln!("trace_smoke: FAIL: {msg}");
    exit(1);
}

fn feature_rows(d: &Dataset, n: usize) -> Vec<FeatureRow> {
    d.test.examples[..n]
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

fn main() {
    // Honour AMOE_TRACE when the caller (CI) set it; fall back to a
    // file under target/. Start from a clean file either way.
    let path =
        std::env::var("AMOE_TRACE").unwrap_or_else(|_| "target/trace_smoke.json".to_string());
    let _ = std::fs::remove_file(&path);
    trace::set_trace_path(Some(Path::new(&path))); // also enables tracing
    trace::set_sample(1);
    trace::reset();

    let d = generate(&GeneratorConfig::tiny(41));
    let cfg = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        ..MoeConfig::default()
    };
    let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..5 {
        model.train_step(&batch);
    }

    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .unwrap_or_else(|e| fail(&format!("server start: {e}")));
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));

    let rows = feature_rows(&d, 8);
    // Server-sampled requests plus explicit client trace ids.
    for _ in 0..6 {
        client
            .score(&rows)
            .unwrap_or_else(|e| fail(&format!("score: {e}")));
    }
    const CLIENT_TRACE_ID: u64 = 0xC0FFEE;
    client
        .score_traced(&rows, CLIENT_TRACE_ID)
        .unwrap_or_else(|e| fail(&format!("score_traced: {e}")));

    // Export path 1: the TRACE_DUMP protocol frame.
    let dump = client
        .trace_dump()
        .unwrap_or_else(|e| fail(&format!("trace_dump: {e}")));
    let n_live = obs_check::validate_chrome_trace(&dump).unwrap_or_else(|e| fail(&e));
    if n_live == 0 {
        fail("TRACE_DUMP returned zero events with tracing on");
    }
    check_stage_chain(&dump, CLIENT_TRACE_ID);

    // Windowed quantiles must be live on the same connection.
    let (snapshot, window, _) = client
        .stats_report()
        .unwrap_or_else(|e| fail(&format!("stats: {e}")));
    let Some(window) = window else {
        fail("STATS reply carried no windowed block");
    };
    if snapshot.ok < 7 || window.request_latency_us.count == 0 {
        fail(&format!(
            "stats incomplete: ok={} windowed latency count={}",
            snapshot.ok, window.request_latency_us.count
        ));
    }

    client
        .shutdown()
        .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    server.join();

    // Export path 2: the drain-time AMOE_TRACE file.
    let body =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let n_file = obs_check::validate_chrome_trace(&body).unwrap_or_else(|e| fail(&e));
    if n_file < n_live {
        fail(&format!(
            "drain dump lost events: file has {n_file}, TRACE_DUMP saw {n_live}"
        ));
    }
    trace::set_trace_path(None);
    trace::set_enabled(false);
    println!(
        "trace_smoke: OK — {n_file} trace events validated in {path} \
         (windowed p95 latency {:.0} us over {:.0}s)",
        window.request_latency_us.p95, window.window_secs
    );
}

/// Asserts the full request-stage chain for one trace id inside a
/// Chrome trace document, in pipeline order.
fn check_stage_chain(dump: &str, trace_id: u64) {
    let doc = parse(dump).unwrap_or_else(|e| fail(&format!("dump reparse: {e}")));
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("dump has no traceEvents"));
    let mine: Vec<&Value> = events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Value::as_f64)
                == Some(trace_id as f64)
        })
        .collect();
    let mut batch_id = 0.0;
    for stage in [
        "admitted",
        "enqueued",
        "queue_exit",
        "batch_assembled",
        "reply_written",
    ] {
        let Some(ev) = mine
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(stage))
        else {
            fail(&format!("trace id {trace_id} has no '{stage}' event"));
        };
        if stage == "batch_assembled" {
            batch_id = ev
                .get("args")
                .and_then(|a| a.get("batch_id"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if batch_id <= 0.0 {
                fail("batch_assembled carries no batch id");
            }
        }
    }
    // The batch that carried the request must have compute-side events
    // (gate / expert / scatter) tagged with its id.
    for stage in ["gate", "expert", "scatter"] {
        let found = events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some(stage)
                && e.get("args")
                    .and_then(|a| a.get("batch_id"))
                    .and_then(Value::as_f64)
                    == Some(batch_id)
        });
        if !found {
            fail(&format!("batch {batch_id} has no '{stage}' event"));
        }
    }
}
