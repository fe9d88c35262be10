//! Staleness bench: what does *not* retraining cost, and what does a
//! hot-swap cost the serving path?
//!
//! Fully self-contained. The bench trains a seed model on the static
//! snapshot (tick-0 distribution), freezes it, and starts an
//! in-process [`Server`] from its exported checkpoint. It then replays
//! one deterministic drifting stream ([`amoe_dataset::DriftWorld`])
//! through an [`OnlineLoop`] driven via `step_window` — the exact
//! refit/export path the `amoe-online` daemon runs — while measuring,
//! per window:
//!
//! * **frozen AUC** — the seed model scored on the window (a deployment
//!   that never retrains);
//! * **fresh AUC** — the loop's warm-started, continuously refitted
//!   model on the same window;
//!
//! and, per refit, the serving disruption of deploying it: closed-loop
//! clients hammer the server while the new generation is `RELOAD`ed,
//! and latencies are bucketed into before / during / after the swap.
//! Every admitted request must be answered — a non-overload
//! failure anywhere aborts the bench.
//!
//! Output: one human line plus a JSONL record per window
//! (`online_window_row`), per swap (`online_swap_row`), and a final
//! `online_summary` whose `auc_margin` (mean fresh − frozen AUC over
//! post-first-swap windows) is the price of staleness; the bench fails
//! unless it is positive. When `AMOE_OBS` is set the run log is
//! re-validated with the same schema checks as the other benches.
//! `--smoke` / `AMOE_BENCH_SMOKE=1` shrinks the workload for CI.

use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoe_bench::obs_check;
use amoe_core::ranker::OptimConfig;
use amoe_core::{MoeConfig, MoeModel, Ranker, TowerConfig, TrainConfig, Trainer};
use amoe_dataset::{generate, DriftConfig, GeneratorConfig, Split};
use amoe_metrics::roc_auc;
use amoe_obs::json::Value;
use amoe_online::daemon::feature_row;
use amoe_online::{OnlineConfig, OnlineLoop};
use amoe_serve::{Client, FeatureRow, ServeConfig, ServeError, Server};

fn fail(msg: &str) -> ! {
    eprintln!("online_sweep: FAIL: {msg}");
    exit(1);
}

fn smoke() -> bool {
    std::env::var("AMOE_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1")
        || std::env::args().any(|a| a == "--smoke")
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// Global AUC of `model` on a window, `None` when single-class.
fn window_auc(trainer: &Trainer, model: &dyn Ranker, split: &Split) -> Option<f64> {
    let scores = trainer.score_split(model, split);
    let labels: Vec<bool> = split.examples.iter().map(|e| e.label).collect();
    roc_auc(&scores, &labels)
}

/// Continuous closed-loop hammer against `addr`; every sample is
/// timestamped so the caller can bucket it around a swap instant.
struct Hammer {
    stop: Arc<AtomicBool>,
    overloaded: Arc<AtomicU64>,
    handles: Vec<std::thread::JoinHandle<Vec<(Instant, u64)>>>,
}

impl Hammer {
    fn start(addr: std::net::SocketAddr, pool: Arc<Vec<FeatureRow>>, clients: usize) -> Hammer {
        let stop = Arc::new(AtomicBool::new(false));
        let overloaded = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for c in 0..clients {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let overloaded = Arc::clone(&overloaded);
            handles.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr)
                    .unwrap_or_else(|e| fail(&format!("hammer {c}: connect: {e}")));
                let rows = &pool[..pool.len().min(8)];
                let mut samples = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    match client.score(rows) {
                        Ok(scores) => {
                            if scores.len() != rows.len() {
                                fail(&format!(
                                    "hammer {c}: {} scores for {} rows",
                                    scores.len(),
                                    rows.len()
                                ));
                            }
                            samples.push((t, t.elapsed().as_micros() as u64));
                        }
                        Err(ServeError::Overloaded) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => fail(&format!(
                            "hammer {c}: request failed during swap window: {e}"
                        )),
                    }
                }
                samples
            }));
        }
        Hammer {
            stop,
            overloaded,
            handles,
        }
    }

    fn finish(self) -> (Vec<(Instant, u64)>, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = Vec::new();
        for h in self.handles {
            samples.extend(h.join().unwrap_or_else(|_| fail("hammer thread panicked")));
        }
        samples.sort_by_key(|&(t, _)| t);
        (samples, self.overloaded.load(Ordering::Relaxed))
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = smoke();
    let (ticks, sessions_per_tick, refit_every, epochs, hammer_clients) = if smoke {
        (9u64, 16, 3u64, 2, 2)
    } else {
        (18u64, 24, 3u64, 3, 3)
    };
    let seed = 41u64;

    let base = GeneratorConfig::tiny(seed);
    // Harder drift than the daemon default: the bench exists to expose
    // the staleness gap, so every drift channel is turned up.
    let drift = DriftConfig {
        emerging_boost: 4.0,
        brand_shift_per_tick: 0.12,
        season_amplitude: 1.3,
        ..DriftConfig::default()
    };

    // The frozen deployment: a model trained once on the static
    // snapshot, exported, and never touched again.
    let dataset = generate(&base);
    let model_config = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        seed,
        ..MoeConfig::default()
    };
    let trainer = Trainer::new(TrainConfig {
        batch_size: 64,
        verbose: false,
        ..TrainConfig::default()
    });
    let mut frozen = MoeModel::new(&dataset.meta, model_config.clone(), OptimConfig::default());
    trainer.fit(&mut frozen, &dataset.train);

    let export_dir = std::env::temp_dir().join(format!("amoe-online-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&export_dir);
    std::fs::create_dir_all(&export_dir).unwrap_or_else(|e| fail(&format!("export dir: {e}")));
    let seed_ckpt = export_dir.join("gen-000000.amoe");
    frozen
        .params()
        .save_atomic(&seed_ckpt)
        .unwrap_or_else(|e| fail(&format!("seed export: {e}")));

    // Serve the frozen checkpoint; the swap stages RELOAD fresher
    // generations into this process.
    let boot = MoeModel::from_checkpoint(
        &dataset.meta,
        model_config.clone(),
        OptimConfig::default(),
        &seed_ckpt,
    )
    .unwrap_or_else(|e| fail(&format!("boot model: {e}")));
    let server = Server::start(
        "127.0.0.1:0",
        boot,
        dataset.meta.clone(),
        ServeConfig::default(),
    )
    .unwrap_or_else(|e| fail(&format!("server start: {e}")));
    let addr = server.local_addr();
    println!("online_sweep: serving frozen generation on {addr}");

    // The refit path: identical to the daemon's, but offline — this
    // bench owns the RELOAD push so it can wrap it in a hammer.
    let mut config = OnlineConfig::demo(base, &export_dir);
    config.drift = drift;
    config.sessions_per_tick = sessions_per_tick;
    config.refit_every = refit_every;
    config.refit_epochs = epochs;
    config.model = model_config;
    config.seed_checkpoint = Some(seed_ckpt);
    config.serve_addr = None;
    config.probe_rows = 0;
    let mut lp = OnlineLoop::new(config).unwrap_or_else(|e| fail(&e));

    let mut admin = Client::connect(addr).unwrap_or_else(|e| fail(&format!("admin connect: {e}")));

    let mut frozen_aucs: Vec<f64> = Vec::new();
    let mut fresh_aucs: Vec<f64> = Vec::new();
    let mut swaps = 0u64;
    let mut reload_us_max = 0u64;

    for tick in 0..ticks {
        let window = lp.stream().window_at(tick);
        let pool: Arc<Vec<FeatureRow>> =
            Arc::new(window.split.examples.iter().map(feature_row).collect());

        let gen_before = lp.generation();
        let f_auc = window_auc(&trainer, &frozen, &window.split);
        let g_auc = window_auc(&trainer, lp.model(), &window.split);

        let report = lp.step().unwrap_or_else(|e| fail(&e));
        assert_eq!(report.tick, tick, "bench and loop streams must agree");

        if let (Some(f), Some(g)) = (f_auc, g_auc) {
            // The staleness comparison only counts windows scored by a
            // genuinely refreshed model (the first refit hasn't landed
            // before then, so fresh == frozen by construction).
            if gen_before > 0 {
                frozen_aucs.push(f);
                fresh_aucs.push(g);
            }
            println!(
                "online_sweep[window] tick={tick} gen={} frozen_auc={f:.4} fresh_auc={g:.4}",
                lp.generation(),
            );
            amoe_obs::emit(
                &amoe_obs::Event::new("online_window_row")
                    .u64("tick", tick)
                    .u64("generation", lp.generation())
                    .u64("examples", window.split.len() as u64)
                    .f64("frozen_auc", f)
                    .f64("fresh_auc", g),
            );
        }

        // A refit landed this tick: deploy it under load and price the
        // swap. The hammer runs before, across, and after the RELOAD;
        // any non-overload failure aborts inside the hammer thread.
        if let Some(refit) = &report.refit {
            let hammer = Hammer::start(addr, Arc::clone(&pool), hammer_clients);
            std::thread::sleep(Duration::from_millis(if smoke { 60 } else { 120 }));
            let path = refit
                .export_path
                .to_str()
                .unwrap_or_else(|| fail("non-utf8 export path"));
            let t_reload = Instant::now();
            admin
                .reload(path)
                .unwrap_or_else(|e| fail(&format!("reload gen {}: {e}", refit.generation)));
            let reload_us = t_reload.elapsed().as_micros() as u64;
            let t_done = Instant::now();
            std::thread::sleep(Duration::from_millis(if smoke { 60 } else { 120 }));
            let (samples, overloaded) = hammer.finish();

            let mut before = Vec::new();
            let mut during = Vec::new();
            let mut after = Vec::new();
            for &(t, us) in &samples {
                if t < t_reload {
                    before.push(us);
                } else if t <= t_done {
                    during.push(us);
                } else {
                    after.push(us);
                }
            }
            before.sort_unstable();
            during.sort_unstable();
            after.sort_unstable();
            if before.is_empty() || after.is_empty() {
                fail(&format!(
                    "swap gen {}: hammer produced no samples on both sides of the reload \
                     ({} before, {} after)",
                    refit.generation,
                    before.len(),
                    after.len()
                ));
            }
            swaps += 1;
            reload_us_max = reload_us_max.max(reload_us);
            let p99_before = percentile_us(&before, 0.99);
            let p99_during = percentile_us(&during, 0.99);
            let p99_after = percentile_us(&after, 0.99);
            println!(
                "online_sweep[swap] gen={} fit_ms={:.1} reload_us={reload_us} \
                 p99_before={p99_before:.0}us p99_during={p99_during:.0}us \
                 p99_after={p99_after:.0}us ok={} overloaded={overloaded}",
                refit.generation,
                refit.fit_ms,
                samples.len(),
            );
            amoe_obs::emit(
                &amoe_obs::Event::new("online_swap_row")
                    .u64("generation", refit.generation)
                    .u64("tick", tick)
                    .f64("fit_ms", refit.fit_ms)
                    .u64("reload_us", reload_us)
                    .u64("ok", samples.len() as u64)
                    .u64("overloaded", overloaded)
                    .f64("p99_before_us", p99_before)
                    .f64("p99_during_us", p99_during)
                    .f64("p99_after_us", p99_after),
            );
        }
    }

    if swaps == 0 {
        fail("no refit/RELOAD cycle completed");
    }
    if frozen_aucs.is_empty() {
        fail("no comparable windows after the first swap");
    }
    let frozen_mean = frozen_aucs.iter().sum::<f64>() / frozen_aucs.len() as f64;
    let fresh_mean = fresh_aucs.iter().sum::<f64>() / fresh_aucs.len() as f64;
    let margin = fresh_mean - frozen_mean;
    let stats = lp.stats();
    println!(
        "online_sweep[summary] ticks={ticks} swaps={swaps} windows={} \
         frozen_auc={frozen_mean:.4} fresh_auc={fresh_mean:.4} auc_margin={margin:+.4} \
         reload_us_max={reload_us_max}",
        frozen_aucs.len(),
    );
    amoe_obs::emit(
        &amoe_obs::Event::new("online_summary")
            .u64("ticks", ticks)
            .u64("swaps", swaps)
            .u64("refits", stats.refits)
            .u64("windows", frozen_aucs.len() as u64)
            .f64("frozen_auc", frozen_mean)
            .f64("fresh_auc", fresh_mean)
            .f64("auc_margin", margin)
            .u64("reload_us_max", reload_us_max),
    );
    if margin <= 0.0 {
        fail(&format!(
            "staleness margin not positive: fresh {fresh_mean:.4} vs frozen {frozen_mean:.4} \
             — the refreshed model must beat the frozen seed under drift"
        ));
    }

    admin
        .shutdown()
        .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    server.join();
    let _ = std::fs::remove_dir_all(&export_dir);

    // With telemetry on, the emitted rows must honour the schema.
    if let Ok(path) = std::env::var("AMOE_OBS") {
        amoe_obs::sink::set_sink_path(None); // flush + close
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let records = obs_check::validate_jsonl(&body).unwrap_or_else(|e| fail(&e));
        let mut windows = 0usize;
        let mut swap_rows = 0usize;
        let mut summaries = 0usize;
        for r in &records {
            let checked = match r.kind.as_str() {
                "online_window_row" => {
                    windows += 1;
                    obs_check::require_fields(
                        &r.value,
                        "online_window_row",
                        &["tick", "generation", "examples", "frozen_auc", "fresh_auc"],
                    )
                }
                "online_swap_row" => {
                    swap_rows += 1;
                    obs_check::require_fields(
                        &r.value,
                        "online_swap_row",
                        &[
                            "generation",
                            "fit_ms",
                            "reload_us",
                            "p99_before_us",
                            "p99_during_us",
                            "p99_after_us",
                        ],
                    )
                }
                "online_summary" => {
                    summaries += 1;
                    let checked = obs_check::require_fields(
                        &r.value,
                        "online_summary",
                        &["swaps", "frozen_auc", "fresh_auc", "auc_margin"],
                    );
                    if checked.is_ok()
                        && r.value
                            .get("auc_margin")
                            .and_then(Value::as_f64)
                            .unwrap_or(-1.0)
                            <= 0.0
                    {
                        fail("online_summary.auc_margin must be positive");
                    }
                    checked
                }
                _ => Ok(()),
            };
            checked.unwrap_or_else(|e| fail(&e));
        }
        if windows == 0 || swap_rows == 0 || summaries != 1 {
            fail(&format!(
                "incomplete run log: {windows} window rows, {swap_rows} swap rows, \
                 {summaries} summaries in {path}"
            ));
        }
        println!("online_sweep: run log OK ({} records)", records.len());
    }
    println!("online_sweep: PASS");
}
