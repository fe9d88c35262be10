//! The train → export → `RELOAD` side: drives the public `OnlineLoop`
//! against the benchmark's server and checks what it deployed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use amoe_core::ranker::OptimConfig;
use amoe_core::serving::ServingMoe;
use amoe_core::trainer::evaluate_scores;
use amoe_core::{MoeConfig, MoeModel, TrainConfig};
use amoe_dataset::{Batch, DriftConfig, GeneratorConfig, Split};
use amoe_online::{OnlineConfig, OnlineLoop};
use amoe_serve::{Client, FeatureRow};
use amoe_tensor::pool;

use crate::traffic::us;

/// Generations whose next-window AUC forms the quality guard. Fixed,
/// so the guard does not depend on how many refits a run fits in.
pub const QUALITY_GENERATIONS: usize = 8;
/// Sessions of the following tick each generation is scored on; a
/// stream window alone (128 sessions) leaves the AUC too noisy to rank
/// fresh against frozen reliably.
const EVAL_SESSIONS: usize = 512;
/// Passes over the sliding window per refit.
const REFIT_EPOCHS: usize = 2;
/// Pool lanes the refits (and the per-layer training timings) use.
pub const TRAIN_LANES: usize = 1;

/// The online loop's settings: paper-default model, refits warm-started
/// from the served seed checkpoint, pushed to the served address.
pub fn online_config(
    base: &GeneratorConfig,
    model: &MoeConfig,
    export_dir: &Path,
    seed_checkpoint: &Path,
    serve_addr: &str,
) -> OnlineConfig {
    let mut config = OnlineConfig::demo(base.clone(), export_dir);
    // Every drift channel turned well up, so over the quality
    // generations a stale model loses to the refreshed ones on every
    // seed tried (1-8), by 0.015 AUC or more.
    config.drift = DriftConfig {
        seed: base.seed,
        emerging_boost: 6.0,
        brand_shift_per_tick: 0.2,
        season_amplitude: 1.6,
        ..DriftConfig::default()
    };
    config.sessions_per_tick = 128;
    config.refit_epochs = REFIT_EPOCHS;
    config.train = TrainConfig {
        batch_size: 256,
        seed: base.seed,
        verbose: false,
        ..TrainConfig::default()
    };
    config.model = model.clone();
    config.seed_checkpoint = Some(seed_checkpoint.to_path_buf());
    config.serve_addr = Some(serve_addr.to_string());
    config.probe_rows = 16;
    config
}

/// One deployed generation.
pub struct Generation {
    pub tick: u64,
    pub path: PathBuf,
    /// `RELOAD` was sent no earlier than this ...
    pub swap_start: Instant,
    /// ... and had been acknowledged by this.
    pub swap_end: Instant,
    /// The in-process model's logits on the probe batch right after
    /// the refit: the exported checkpoint must reproduce them.
    pub probe_logits: Vec<f32>,
    /// Scores the server returned for the check rows right after the
    /// swap, when the caller asked for them.
    pub served: Option<Vec<f32>>,
}

#[derive(Default)]
pub struct RefitReport {
    /// Wall time of each refit period (`refit_every` ticks: windows,
    /// probes, warm-start, fit, export, `RELOAD`), ms.
    pub cycle_ms: Vec<f64>,
    pub train_rows_per_s: Vec<f64>,
    pub reload_ms: Vec<f64>,
    pub generations: Vec<Generation>,
}

/// Steps the loop until at least `min_generations` refits landed and
/// `until` has passed. With an `admin` client, `check` rows are scored
/// on the server after every swap.
///
/// The loop trains on one pool lane, leaving the other core to the
/// server: with both lanes training beside live traffic, scheduling
/// noise swamped every latency figure (refit results do not depend on
/// the lane count).
pub fn run(
    lp: &mut OnlineLoop,
    admin: Option<&mut Client>,
    min_generations: usize,
    until: Instant,
    probe: &Batch,
    check: &[FeatureRow],
) -> Result<RefitReport, String> {
    pool::set_threads(TRAIN_LANES);
    let report = run_loop(lp, admin, min_generations, until, probe, check);
    pool::clear_threads_override();
    report
}

fn run_loop(
    lp: &mut OnlineLoop,
    mut admin: Option<&mut Client>,
    min_generations: usize,
    until: Instant,
    probe: &Batch,
    check: &[FeatureRow],
) -> Result<RefitReport, String> {
    let mut report = RefitReport::default();
    let mut period = Instant::now();
    while report.generations.len() < min_generations || Instant::now() < until {
        let tick = lp.step()?;
        let Some(refit) = tick.refit else { continue };
        let swap_end = Instant::now();
        report.cycle_ms.push(us(swap_end - period) / 1e3);
        report
            .train_rows_per_s
            .push((refit.window_examples * REFIT_EPOCHS) as f64 / (refit.fit_ms / 1e3));
        let reload_us = refit.reload_us.ok_or("the loop has no server attached")?;
        report.reload_ms.push(reload_us as f64 / 1e3);
        report.generations.push(Generation {
            tick: refit.tick,
            path: refit.export_path,
            swap_start: swap_end - std::time::Duration::from_micros(reload_us),
            swap_end,
            probe_logits: ServingMoe::new(lp.model()).predict_logits(probe),
            served: match admin.as_deref_mut() {
                Some(client) => Some(
                    client
                        .score(check)
                        .map_err(|e| format!("score after RELOAD: {e}"))?,
                ),
                None => None,
            },
        });
        period = Instant::now();
    }
    Ok(report)
}

/// Loads every exported generation and checks it reproduces the
/// in-process model's probe logits bit for bit.
pub fn load_generations(
    report: &RefitReport,
    lp: &OnlineLoop,
    model: &MoeConfig,
    probe: &Batch,
) -> Result<Vec<MoeModel>, String> {
    report
        .generations
        .iter()
        .enumerate()
        .map(|(g, gen)| {
            let m = MoeModel::from_checkpoint(
                lp.stream().meta(),
                model.clone(),
                OptimConfig::default(),
                &gen.path,
            )
            .map_err(|e| format!("load generation {}: {e}", g + 1))?;
            if !bit_equal(
                &ServingMoe::new(&m).predict_logits(probe),
                &gen.probe_logits,
            ) {
                return Err(format!(
                    "generation {}: exported checkpoint differs from the in-process model",
                    g + 1
                ));
            }
            Ok(m)
        })
        .collect()
}

/// Mean session AUC on the tick after each deployment, for the first
/// [`QUALITY_GENERATIONS`] generations and for the frozen seed model on
/// the same sessions: `(fresh, frozen)`.
pub fn next_window_auc(
    report: &RefitReport,
    models: &[MoeModel],
    lp: &OnlineLoop,
    frozen: &MoeModel,
) -> (f64, f64) {
    let n = QUALITY_GENERATIONS.min(models.len());
    let (mut fresh, mut stale) = (0.0, 0.0);
    for (gen, model) in report.generations.iter().zip(models).take(n) {
        let window = lp
            .stream()
            .world()
            .window(gen.tick + 1, EVAL_SESSIONS)
            .split;
        fresh += session_auc(model, &window);
        stale += session_auc(frozen, &window);
    }
    (fresh / n as f64, stale / n as f64)
}

fn session_auc(model: &MoeModel, split: &Split) -> f64 {
    let all: Vec<usize> = (0..split.len()).collect();
    let scores = ServingMoe::new(model).predict(&Batch::from_split(split, &all));
    evaluate_scores(&scores, split).auc
}

/// Which generation served a reply sent at `sent` and received at
/// `done` (0 is the seed model), or `None` when a swap may have landed
/// in between.
pub fn serving_generation(gens: &[Generation], sent: Instant, done: Instant) -> Option<usize> {
    let g = gens.iter().take_while(|gen| gen.swap_end <= sent).count();
    gens.get(g)
        .is_none_or(|next| done <= next.swap_start)
        .then_some(g)
}

pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
