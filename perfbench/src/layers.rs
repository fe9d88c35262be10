//! Per-layer measurements for the traced run: in-process timings
//! around each layer's public functions, on the workload's own model
//! and rows.

use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use amoe_core::ranker::OptimConfig;
use amoe_core::serving::ServingMoe;
use amoe_core::{MoeModel, Ranker};
use amoe_dataset::{Batch, DatasetMeta, Split};
use amoe_online::{CheckpointStore, SessionStream};
use amoe_serve::protocol::{Request, Response};
use amoe_serve::{http_get, FeatureRow, ModelSpec};
use amoe_tensor::quant::{matmul_nt_q, QuantMatrix};
use amoe_tensor::{matmul, pool, Matrix, Rng};

use crate::harness::{median, metric, quantile, spread, time_us, Metric};

/// `serve::protocol`: encode/decode of the workload's own requests and
/// replies, per request.
pub fn protocol(sessions: &[Vec<FeatureRow>]) -> Result<Vec<Metric>, String> {
    let requests: Vec<Request> = sessions
        .iter()
        .enumerate()
        .map(|(i, rows)| Request::Score {
            request_id: i as u64 + 1,
            trace_id: 0,
            rows: rows.clone(),
        })
        .collect();
    let responses: Vec<Response> = sessions
        .iter()
        .enumerate()
        .map(|(i, rows)| Response::Scores {
            request_id: i as u64 + 1,
            scores: (0..rows.len()).map(|r| 1.0 / (r as f32 + 2.0)).collect(),
        })
        .collect();
    let per_request = |total_us: Vec<f64>| median(&total_us) / sessions.len() as f64;
    let encode = per_request(time_us(15, || {
        for (q, a) in requests.iter().zip(&responses) {
            black_box(q.encode());
            black_box(a.encode());
        }
    }));
    let wire_q: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let wire_a: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
    for (q, bytes) in requests.iter().zip(&wire_q) {
        if Request::decode(bytes).map_err(|e| e.to_string())? != *q {
            return Err("protocol: request does not survive encode/decode".into());
        }
    }
    let decode = per_request(time_us(15, || {
        for (q, a) in wire_q.iter().zip(&wire_a) {
            black_box(Request::decode(q).expect("decoded above"));
            black_box(Response::decode(a).expect("encoded by this process"));
        }
    }));
    // Each frame also carries a 4-byte length prefix.
    let bytes: usize = wire_q.iter().chain(&wire_a).map(|f| f.len() + 4).sum();
    let rows: usize = sessions.iter().map(Vec::len).sum();
    Ok(vec![
        metric("protocol.encode_us", encode, "us"),
        metric("protocol.decode_us", decode, "us"),
        metric(
            "protocol.bytes_per_row",
            bytes as f64 / rows as f64,
            "bytes",
        ),
    ])
}

/// `core::serving` + `tensor::pool`: stage split of one 16-row request
/// and of a coalesced 16 × 16-row batch, cold calls after the
/// low-load idle gap, and the pool wake.
pub fn serving(model: &MoeModel, test: &Split, idle_gap: Duration) -> Vec<Metric> {
    let serving = ServingMoe::new(model);
    let rows = |p: usize| Batch::from_split(test, &(p * 16..p * 16 + 16).collect::<Vec<_>>());
    let parts: Vec<Batch> = (0..16).map(rows).collect();
    let b16 = [rows(0)];
    let mut out = Vec::new();
    let mut dispatch_share = Vec::new();
    for (label, batch, calls) in [("b16", &b16[..], 2000), ("b256", &parts[..], 400)] {
        let refs: Vec<&Batch> = batch.iter().collect();
        for _ in 0..calls / 10 {
            black_box(serving.predict_many_with_stats(&refs));
        }
        let (mut wall, mut gate, mut experts, mut scatter, mut glue) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..calls {
            let t = std::time::Instant::now();
            let (scores, stats) = serving.predict_many_with_stats(&refs);
            let total = t.elapsed();
            black_box(scores);
            wall.push(total.as_secs_f64() * 1e6);
            gate.push(stats.gate_time.as_secs_f64() * 1e6);
            experts.push(stats.expert_time.as_secs_f64() * 1e6);
            scatter.push(stats.scatter_time.as_secs_f64() * 1e6);
            glue.push(total.saturating_sub(stats.total_time()).as_secs_f64() * 1e6);
            if label == "b256" {
                let routed: usize = stats.dispatch.iter().sum();
                let busiest = stats.dispatch.iter().copied().max().unwrap_or(0);
                dispatch_share.push(busiest as f64 / routed.max(1) as f64);
            }
        }
        out.push(metric(
            format!("serving.predict_us.{label}"),
            median(&wall),
            "us",
        ));
        out.push(metric(
            format!("serving.gate_us.{label}"),
            median(&gate),
            "us",
        ));
        out.push(metric(
            format!("serving.experts_us.{label}"),
            median(&experts),
            "us",
        ));
        out.push(metric(
            format!("serving.scatter_us.{label}"),
            median(&scatter),
            "us",
        ));
        out.push(metric(
            format!("serving.glue_us.{label}"),
            median(&glue),
            "us",
        ));
    }
    out.push(metric(
        "serving.dispatch_max_share",
        median(&dispatch_share),
        "ratio",
    ));

    let one: Vec<&Batch> = b16.iter().collect();
    let cold = (0..150)
        .map(|_| {
            std::thread::sleep(idle_gap);
            time_us(1, || {
                black_box(serving.predict_many_with_stats(&one));
            })[0]
        })
        .collect::<Vec<_>>();
    out.push(metric("serving.predict_cold_us.b16", median(&cold), "us"));

    let lanes = pool::threads();
    let wake = (0..150)
        .map(|_| {
            std::thread::sleep(idle_gap);
            time_us(1, || {
                pool::for_each_task(lanes, |i| {
                    black_box(i);
                })
            })[0]
        })
        .collect::<Vec<_>>();
    let hot = time_us(2000, || {
        pool::for_each_task(lanes, |i| {
            black_box(i);
        })
    });
    out.push(metric("pool.wake_us", median(&wake), "us"));
    out.push(metric("pool.wake_hot_us", median(&hot), "us"));
    out
}

/// One timed GEMM shape: `m × k` by `k × n`.
struct Gemm {
    a: Matrix,
    b: Matrix,
}

impl Gemm {
    fn flops(&self) -> f64 {
        2.0 * (self.a.rows() * self.a.cols() * self.b.cols()) as f64
    }
}

/// Median GFLOP/s and spread over trials of `run` on a set of shapes
/// whose total operation count is `flops`.
fn gflops(flops: f64, mut run: impl FnMut()) -> (f64, f64) {
    let reps = 50;
    let rates: Vec<f64> = (0..25)
        .map(|_| {
            let us = time_us(1, || {
                for _ in 0..reps {
                    run();
                }
            })[0];
            flops * reps as f64 / us / 1e3
        })
        .collect();
    (median(&rates), spread(&rates))
}

/// `tensor::matmul` and `tensor::quant` at the model's real shapes:
/// each expert tower layer on the rows one expert receives from a
/// 256-row batch, the gate on 256 rows, and the batch-256 backward
/// GEMMs of every tower layer.
pub fn kernels(model: &MoeModel, meta: &DatasetMeta, seed: u64) -> (Vec<Metric>, Vec<String>) {
    let params = model.params();
    let cfg = model.config();
    let routed = 256 * cfg.top_k / cfg.n_experts;
    let mut rng = Rng::seed_from(seed ^ 0x6e6d);
    let mut random = |r: usize, c: usize| {
        Matrix::from_vec(
            r,
            c,
            (0..r * c).map(|_| rng.uniform_in(-1.0, 1.0)).collect(),
        )
    };
    let weights: Vec<&Matrix> = model.experts()[0]
        .layers()
        .iter()
        .map(|l| params.value(l.weight()))
        .collect();
    let tower: Vec<Gemm> = weights
        .iter()
        .map(|w| Gemm {
            a: random(routed, w.rows()),
            b: (*w).clone(),
        })
        .collect();
    let quantized: Vec<QuantMatrix> = weights
        .iter()
        .map(|w| QuantMatrix::from_transposed(w))
        .collect();
    let gate = Gemm {
        a: random(256, cfg.gate_input_dim(meta)),
        b: random(cfg.gate_input_dim(meta), cfg.n_experts),
    };
    // Backward of y = x·W at batch 256: dW = xᵀ·dy and dx = dy·Wᵀ.
    let train: Vec<(Matrix, Matrix, &Matrix)> = weights
        .iter()
        .map(|w| (random(256, w.rows()), random(256, w.cols()), *w))
        .collect();

    let tower_flops: f64 = tower.iter().map(Gemm::flops).sum();
    let (tower_rate, tower_spread) = gflops(tower_flops, || {
        for g in &tower {
            black_box(matmul::matmul(&g.a, &g.b));
        }
    });
    let (quant_rate, quant_spread) = gflops(tower_flops, || {
        for (g, q) in tower.iter().zip(&quantized) {
            black_box(matmul_nt_q(&g.a, q));
        }
    });
    let (gate_rate, _) = gflops(gate.flops(), || {
        black_box(matmul::matmul(&gate.a, &gate.b));
    });
    let train_flops: f64 = train
        .iter()
        .map(|(x, dy, _)| 2.0 * 2.0 * (x.rows() * x.cols() * dy.cols()) as f64)
        .sum();
    let (train_rate, _) = gflops(train_flops, || {
        for (x, dy, w) in &train {
            black_box(matmul::matmul_tn(x, dy));
            black_box(matmul::matmul_nt(dy, w));
        }
    });

    let bytes = |m: usize, k: usize, n: usize| 4 * (m * k + k * n + m * n);
    let tower_bytes: usize = tower
        .iter()
        .map(|g| bytes(g.a.rows(), g.a.cols(), g.b.cols()))
        .sum();
    let notes = vec![
        format!(
            "matmul.tower per call: {tower_flops} flop, {tower_bytes} bytes moved (shapes {})",
            tower
                .iter()
                .map(|g| format!("{}x{}x{}", g.a.rows(), g.a.cols(), g.b.cols()))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "matmul.gate per call: {} flop, {} bytes moved",
            gate.flops(),
            bytes(gate.a.rows(), gate.a.cols(), gate.b.cols())
        ),
        format!("matmul.train per call: {train_flops} flop"),
        format!(
            "int8 vs f32 tower GEMM: {:.3}x ({quant_rate:.3} vs {tower_rate:.3} GFLOP/s, spreads {quant_spread:.3} / {tower_spread:.3})",
            quant_rate / tower_rate
        ),
    ];
    let metrics = vec![
        metric("matmul.tower_gflops", tower_rate, "GFLOP/s"),
        metric("matmul.tower_gflops_spread", tower_spread, "ratio"),
        metric("matmul.gate_gflops", gate_rate, "GFLOP/s"),
        metric("matmul.train_gflops", train_rate, "GFLOP/s"),
        metric("quant.tower_gflops", quant_rate, "GFLOP/s"),
        metric("quant.tower_gflops_spread", quant_spread, "ratio"),
    ];
    (metrics, notes)
}

/// `core::models` + `autograd` + `nn::optim`: one batch-256 gradient
/// pass, and the optimizer step on top of it, on the refits' lane
/// budget. The optimizer's share is small against the gradient pass's
/// jitter, so it is the difference of the fastest of interleaved
/// `train_step` and gradient-only calls.
pub fn training(mut model: MoeModel, batch: &Batch) -> Vec<Metric> {
    pool::set_threads(crate::refit::TRAIN_LANES);
    let (mut grad, mut step) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        grad.extend(time_us(1, || {
            black_box(model.accumulate_gradients(batch));
        }));
        step.extend(time_us(1, || {
            black_box(model.train_step(batch));
        }));
    }
    pool::clear_threads_override();
    vec![
        metric("train.grad_ms", median(&grad) / 1e3, "ms"),
        metric(
            "train.optim_ms",
            (quantile(&step, 0.0) - quantile(&grad, 0.0)) / 1e3,
            "ms",
        ),
    ]
}

/// `nn::serialize` + `online::export`: exporting and loading one
/// generation of the served model.
pub fn checkpoints(model: &MoeModel, spec: &ModelSpec, dir: &Path) -> Result<Vec<Metric>, String> {
    let store = CheckpointStore::new(dir, spec.clone()).map_err(|e| e.to_string())?;
    let mut generation = 0;
    let mut failure = None;
    let export = time_us(15, || {
        generation += 1;
        if let Err(e) = store.export(generation, model.params()) {
            failure = Some(e.to_string());
        }
    });
    if let Some(e) = failure {
        return Err(format!("export: {e}"));
    }
    let path = store.checkpoint_path(generation);
    let load = time_us(15, || {
        black_box(
            MoeModel::from_checkpoint(
                &spec.meta,
                spec.config.clone(),
                OptimConfig::default(),
                &path,
            )
            .expect("checkpoint exported just above"),
        );
    });
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(vec![
        metric("ckpt.export_ms", median(&export) / 1e3, "ms"),
        metric("ckpt.load_ms", median(&load) / 1e3, "ms"),
        metric("ckpt.bytes", bytes as f64, "bytes"),
    ])
}

/// `dataset::drift` + `online::stream`: materialising one window.
pub fn stream(stream: &SessionStream) -> Vec<Metric> {
    let mut tick = 0;
    let window = time_us(12, || {
        black_box(stream.window_at(tick));
        tick += 1;
    });
    vec![metric("stream.window_ms", median(&window) / 1e3, "ms")]
}

/// `obs` + `serve::http`: one `/metrics` scrape of the live server.
pub fn scrape(obs_addr: &str) -> Result<Vec<Metric>, String> {
    let mut bytes = 0;
    let mut failure = None;
    let times = time_us(20, || {
        match http_get(obs_addr, "/metrics", Duration::from_secs(5)) {
            Ok((200, body)) => bytes = body.len(),
            Ok((status, _)) => failure = Some(format!("/metrics answered {status}")),
            Err(e) => failure = Some(format!("/metrics: {e}")),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(vec![
        metric("obs.scrape_ms", median(&times) / 1e3, "ms"),
        metric("obs.metrics_bytes", bytes as f64, "bytes"),
    ])
}
