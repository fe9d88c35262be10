//! Standalone inference server.
//!
//! ```text
//! amoe-serve demo-export --out DIR [--seed N] [--steps N]
//!     Train a small model on the synthetic dataset and write
//!     DIR/model.amoe (weights) + DIR/model.spec (architecture).
//!
//! amoe-serve serve --ckpt FILE --spec FILE [--addr HOST:PORT]
//!                  [--obs-addr HOST:PORT] [--max-batch-rows N]
//!                  [--max-wait-us N] [--queue-cap N] [--shards N]
//!                  [--block-ms N] [--quantized]
//!     Serve the checkpoint over TCP. Prints the bound address on
//!     stdout, then blocks until a SHUTDOWN request. `--shards` runs
//!     N batcher shards, each with its own `--queue-cap`-deep
//!     admission queue (scores are bit-identical at any shard count).
//!     `--quantized` (or `serve_quantized=true` in the spec) serves
//!     int8 expert weights; see DESIGN.md for the error contract.
//!     `--obs-addr` starts the HTTP observability listener (GET
//!     /metrics /healthz /readyz /vars /trace) on a second port,
//!     printed as an `obs HOST:PORT` line after the protocol address.
//!
//! amoe-serve stats --addr HOST:PORT [--watch] [--interval-ms N]
//!     Print the server's counters, sliding-window stage quantiles
//!     (p50/p95/p99 over the server's stats window) and per-shard
//!     batcher counters. `--watch` refreshes every `--interval-ms`
//!     (default 1000) until interrupted.
//!
//! amoe-serve trace-dump --addr HOST:PORT [--out FILE]
//!     Fetch the server's trace ring as Chrome trace-event JSON
//!     (load in ui.perfetto.dev). Writes FILE or stdout.
//!
//! amoe-serve shutdown --addr HOST:PORT
//!     Ask the server to drain gracefully: every shard queue closes,
//!     every admitted request is answered, then the process exits.
//!
//! amoe-serve scrape --obs-addr HOST:PORT [--path /metrics] [--lint]
//!     Fetch one observability endpoint with the in-repo HTTP client
//!     and print the body. `--lint` additionally runs the Prometheus
//!     exposition linter on the response (exit 1 on violations) —
//!     the CI smoke stage's scrape-correctness gate.
//! ```

use std::process::ExitCode;
use std::time::Duration;

use amoe_core::ranker::OptimConfig;
use amoe_core::{MoeConfig, MoeModel, Ranker, TowerConfig};
use amoe_dataset::{generate, Batch, GeneratorConfig};
use amoe_nn::ParamSet;
use amoe_serve::{
    Client, ModelSpec, OverloadPolicy, QuantileSummary, ServeConfig, Server, ShardStats,
    StatsSnapshot, WindowedStats,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo-export") => demo_export(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("trace-dump") => trace_dump(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        Some("scrape") => scrape(&args[1..]),
        _ => {
            eprintln!(
                "usage: amoe-serve <demo-export|serve|stats|trace-dump|shutdown|scrape> [options]"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("amoe-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` option lookup; repeated keys take the last value.
fn opt(args: &[String], key: &str) -> Result<Option<String>, String> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == key {
            match it.next() {
                Some(v) => found = Some(v.clone()),
                None => return Err(format!("{key} needs a value")),
            }
        }
    }
    Ok(found)
}

fn opt_parse<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    match opt(args, key)? {
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{key}: cannot parse {v:?}")),
        None => Ok(None),
    }
}

fn demo_export(args: &[String]) -> Result<(), String> {
    let out = opt(args, "--out")?.ok_or("demo-export: --out DIR is required")?;
    let seed: u64 = opt_parse(args, "--seed")?.unwrap_or(41);
    let steps: usize = opt_parse(args, "--steps")?.unwrap_or(20);

    let dataset = generate(&GeneratorConfig::tiny(seed));
    let config = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        seed,
        ..MoeConfig::default()
    };
    let mut model = MoeModel::new(&dataset.meta, config.clone(), OptimConfig::default());
    let n = dataset.train.len().min(256);
    let batch = Batch::from_split(&dataset.train, &(0..n).collect::<Vec<_>>());
    for _ in 0..steps {
        model.train_step(&batch);
    }

    std::fs::create_dir_all(&out).map_err(|e| format!("create {out}: {e}"))?;
    let ckpt = format!("{out}/model.amoe");
    let spec_path = format!("{out}/model.spec");
    model
        .params()
        .save(&ckpt)
        .map_err(|e| format!("save {ckpt}: {e}"))?;
    ModelSpec {
        meta: dataset.meta.clone(),
        config,
        serve_quantized: false,
    }
    .save(&spec_path)
    .map_err(|e| format!("save {spec_path}: {e}"))?;
    println!("{ckpt}");
    println!("{spec_path}");
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let ckpt = opt(args, "--ckpt")?.ok_or("serve: --ckpt FILE is required")?;
    let spec_path = opt(args, "--spec")?.ok_or("serve: --spec FILE is required")?;
    let addr = opt(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into());

    let mut config = ServeConfig::default();
    if let Some(v) = opt_parse::<usize>(args, "--max-batch-rows")? {
        config.max_batch_rows = v;
    }
    if let Some(v) = opt_parse::<u64>(args, "--max-wait-us")? {
        config.max_wait = Duration::from_micros(v);
    }
    if let Some(v) = opt_parse::<usize>(args, "--queue-cap")? {
        config.queue_cap = v;
    }
    if let Some(v) = opt_parse::<usize>(args, "--shards")? {
        if v == 0 {
            return Err("serve: --shards must be positive".into());
        }
        config.shards = v;
    }
    if let Some(v) = opt_parse::<u64>(args, "--block-ms")? {
        config.overload = OverloadPolicy::Block(Duration::from_millis(v));
    }
    config.obs_addr = opt(args, "--obs-addr")?;

    let spec = ModelSpec::load(&spec_path).map_err(|e| format!("load {spec_path}: {e}"))?;
    // Either side may opt in: the operator's flag or the checkpoint's
    // deployment hint.
    config.quantized = args.iter().any(|a| a == "--quantized") || spec.serve_quantized;
    let params = ParamSet::load(&ckpt).map_err(|e| format!("load {ckpt}: {e}"))?;
    let model = MoeModel::from_params(
        &spec.meta,
        spec.config.clone(),
        OptimConfig::default(),
        &params,
    )
    .map_err(|e| format!("checkpoint does not match spec: {e}"))?;

    let server =
        Server::start(&addr, model, spec.meta, config).map_err(|e| format!("bind {addr}: {e}"))?;
    // The load generator (and humans) read the bound address from the
    // first stdout line; ephemeral ports make parallel runs safe. The
    // observability port, when enabled, follows on a second line.
    println!("{}", server.local_addr());
    if let Some(obs) = server.obs_addr() {
        println!("obs {obs}");
    }
    server.join();
    Ok(())
}

fn scrape(args: &[String]) -> Result<(), String> {
    let addr = opt(args, "--obs-addr")?.ok_or("scrape: --obs-addr HOST:PORT is required")?;
    let path = opt(args, "--path")?.unwrap_or_else(|| "/metrics".into());
    let lint = args.iter().any(|a| a == "--lint");
    let (status, body) = amoe_serve::http_get(&addr, &path, Duration::from_secs(10))
        .map_err(|e| format!("GET {addr}{path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {addr}{path}: HTTP {status}"));
    }
    print!("{body}");
    if lint {
        let samples = amoe_obs::expose::validate_exposition(&body)
            .map_err(|e| format!("exposition lint failed: {e}"))?;
        eprintln!("scrape: {samples} samples, lint clean");
    }
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let addr = opt(args, "--addr")?.ok_or("stats: --addr HOST:PORT is required")?;
    let watch = args.iter().any(|a| a == "--watch");
    let interval_ms: u64 = opt_parse(args, "--interval-ms")?.unwrap_or(1000);
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    loop {
        let (snapshot, window, shards) = client
            .stats_report()
            .map_err(|e| format!("stats from {addr}: {e}"))?;
        print_stats(&snapshot, window.as_ref(), shards.as_deref());
        if !watch {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(50)));
        println!();
    }
}

fn print_stats(s: &StatsSnapshot, w: Option<&WindowedStats>, shards: Option<&[ShardStats]>) {
    println!(
        "requests={} rows={} ok={} overloaded={} errors={} batches={} reloads={} queue_depth={}",
        s.requests, s.rows, s.ok, s.overloaded, s.errors, s.batches, s.reloads, s.queue_depth
    );
    if let Some(w) = w {
        println!("window={}s", w.window_secs);
        let stages: [(&str, &QuantileSummary); 5] = [
            ("latency_us", &w.request_latency_us),
            ("queue_wait_us", &w.queue_wait_us),
            ("compute_us", &w.compute_us),
            ("reply_write_us", &w.reply_write_us),
            ("queue_depth", &w.queue_depth),
        ];
        for (name, q) in stages {
            println!(
                "  {name:<16} n={:<8} p50={:<12.1} p95={:<12.1} p99={:.1}",
                q.count, q.p50, q.p95, q.p99
            );
        }
    }
    if let Some(shards) = shards {
        for (i, sh) in shards.iter().enumerate() {
            println!(
                "  shard{i:<11} batches={:<8} overloaded={:<8} queue_depth={:<6} depth_p99={:.1}",
                sh.batches, sh.overloaded, sh.queue_depth, sh.queue_depth_p99
            );
        }
    }
}

fn trace_dump(args: &[String]) -> Result<(), String> {
    let addr = opt(args, "--addr")?.ok_or("trace-dump: --addr HOST:PORT is required")?;
    let out = opt(args, "--out")?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let json = client
        .trace_dump()
        .map_err(|e| format!("trace-dump: {e}"))?;
    match out {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {} bytes to {path}", json.len());
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn shutdown(args: &[String]) -> Result<(), String> {
    let addr = opt(args, "--addr")?.ok_or("shutdown: --addr HOST:PORT is required")?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("server at {addr} draining");
    Ok(())
}
