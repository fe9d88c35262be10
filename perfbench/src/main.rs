//! The repository benchmark: the paper's headline Adv & HSC-MoE model
//! served by the shipped `amoe-serve` binary, driven only through the
//! public client API (`Client`, `http_get`, `OnlineLoop`).
//!
//! ```text
//! perfbench --workload <serve_low_load|serve_saturated|online_refit>
//!           --seed N --seconds S --trace <0|1> --server PATH
//! ```
//!
//! Set-up (timed as `setup_s`, done three times, median reported):
//! generate a `GeneratorConfig::default()` world from the seed, train
//! `MoeConfig::adv_hsc_moe()` on it for one epoch, export it, start
//! `amoe-serve serve` as a child process on ephemeral ports (default
//! `ServeConfig`), and warm it with the workload's own traffic so lazily
//! spawned pool workers are running before anything is timed.
//!
//! Workloads:
//! * `serve_low_load` — open loop, seeded Poisson arrivals at 200 req/s
//!   over two connections, one test session per request, each timed
//!   from its due time. The server idles between requests, so batching
//!   deadlines and pool wake-ups dominate.
//! * `serve_saturated` — one pipelined connection keeping 48 sessions
//!   in flight (more than a full 256-row batch always queued) while a
//!   second thread scrapes `/metrics` once a second. Kernels, allocation
//!   and protocol costs dominate. Every figure it sets is CPU speed, so
//!   it is run by hand rather than listed in `BENCHMARK.json`.
//! * `online_refit` — the `OnlineLoop` refits on the seeded drift
//!   stream and `RELOAD`s the server every period while the low-load
//!   traffic runs beside it.
//!
//! The result line carries the end-to-end metrics that hold still on a
//! shared host: open-loop latency p50 (set by the batcher's flush
//! deadline), served rows per second, the server's peak RSS, the
//! refreshed generations' next-window AUC, and the set-up time. The
//! figures that are pure CPU speed (saturated throughput and latency,
//! server CPU per row, refit period, reload round trip, training rate,
//! p99) are printed as `perfbench:` lines on every run but kept out of
//! the result: they follow the host's CPU speed, which moved ~1.5x
//! between minutes on a shared 2-vCPU VM (see [`GATED_WHY`]). The
//! per-layer run carries their layer-level causes. The serving
//! workloads run the refits after their timed traffic, with no traffic
//! running, for the AUC guard and the printed refit figures.
//!
//! Correctness (any failure prints `"correct": false` and exits 1):
//! sampled served scores are bit-identical to an in-process
//! `ServingMoe` on the generation that served them, scores right after
//! every `RELOAD` match that generation, each exported generation
//! reproduces the in-process model, and the refreshed generations beat
//! the frozen seed model on the next tick's session AUC.
//!
//! `--trace 1` prints the per-layer metrics instead: the timed traffic
//! runs in an untraced half and a traced half (the difference is the
//! tracing overhead), then each layer is timed in-process around its
//! public functions; server-side stages come from the `STATS` window
//! quantiles. Request spans are written to
//! `.perfbench/trace-<workload>-<seed>.json` (Chrome trace format).
//! Everything else the run learns (host facts, generator lateness,
//! error rate, closure, overhead) is printed as `perfbench:` lines
//! before the JSON result.

mod harness;
mod layers;
mod refit;
mod traffic;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use amoe_core::ranker::OptimConfig;
use amoe_core::serving::ServingMoe;
use amoe_core::{MoeConfig, MoeModel, TrainConfig, Trainer};
use amoe_dataset::{generate, Batch, Dataset, GeneratorConfig};
use amoe_online::daemon::feature_row;
use amoe_online::{CheckpointStore, OnlineLoop};
use amoe_serve::{Client, FeatureRow, ModelSpec, StatsSnapshot, WindowedStats};
use amoe_tensor::pool;

use harness::{median, metric, quantile, result_json, Metric, ServerProcess};
use refit::RefitReport;
use traffic::{Plan, Recording, TrafficReport};

/// Mean open-loop arrival rate.
const LOW_LOAD_RATE: f64 = 200.0;
/// Sessions the saturated loop keeps in flight: three full 256-row
/// batches of 16-row sessions, and well under the default admission
/// queue (128 requests), so nothing is shed.
const SATURATED_WINDOW: usize = 48;
const SETUP_REPEATS: usize = 3;
const WARM_UP: Duration = Duration::from_millis(500);
/// Why only some end-to-end figures go into the result line.
const GATED_WHY: &str = "kept out of the result (pure CPU speed: on a shared 2-vCPU VM a fixed compute loop's fastest 0.5 ms run moved from 473 to 340 us and saturated throughput from 350k to 620k rows/s between minutes)";
/// Every n-th reply's scores are checked bit for bit.
const CHECK_EVERY: usize = 16;
const WORK_DIR: &str = ".perfbench";
/// Slice of a timed phase in the per-second report.
const WINDOW: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    LowLoad,
    Saturated,
    OnlineRefit,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::LowLoad => "serve_low_load",
            Workload::Saturated => "serve_saturated",
            Workload::OnlineRefit => "online_refit",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = match get("--workload")? {
        "serve_low_load" => Workload::LowLoad,
        "serve_saturated" => Workload::Saturated,
        "online_refit" => Workload::OnlineRefit,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        server: PathBuf::from(get("--server")?),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The trained seed model, its checkpoint and the server serving it.
struct Deployment {
    base: GeneratorConfig,
    dataset: Dataset,
    model: MoeModel,
    spec: ModelSpec,
    ckpt: PathBuf,
    server: ServerProcess,
    /// Test-split sessions as wire rows: the request pool.
    sessions: Vec<Vec<FeatureRow>>,
    online: Option<OnlineLoop>,
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn set_up(args: &Args, dir: &Path) -> Result<Deployment, String> {
    let base = GeneratorConfig {
        seed: args.seed,
        ..GeneratorConfig::default()
    };
    let dataset = generate(&base);
    let config = MoeConfig::adv_hsc_moe().with_seed(args.seed);
    let mut model = MoeModel::new(&dataset.meta, config.clone(), OptimConfig::default());
    Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 256,
        seed: args.seed,
        verbose: false,
        ..TrainConfig::default()
    })
    .fit(&mut model, &dataset.train);
    let spec = ModelSpec {
        meta: dataset.meta.clone(),
        config,
        serve_quantized: false,
    };
    let store = CheckpointStore::new(dir, spec.clone()).map_err(|e| format!("{e}"))?;
    let ckpt = store
        .export(0, model.params())
        .map_err(|e| format!("export seed model: {e}"))?;
    let server = ServerProcess::spawn(&args.server, &ckpt, &store.spec_path(0))?;
    let sessions = dataset
        .test
        .sessions
        .iter()
        .map(|r| {
            dataset.test.examples[r.clone()]
                .iter()
                .map(feature_row)
                .collect()
        })
        .collect();
    let mut deployment = Deployment {
        base,
        dataset,
        model,
        spec,
        ckpt,
        server,
        sessions,
        online: None,
    };
    if args.workload == Workload::OnlineRefit {
        deployment.online = Some(online_loop(&deployment, dir)?);
    }
    Ok(deployment)
}

fn online_loop(d: &Deployment, dir: &Path) -> Result<OnlineLoop, String> {
    let mut lp = OnlineLoop::new(refit::online_config(
        &d.base,
        &d.spec.config,
        &dir.join("generations"),
        &d.ckpt,
        &d.server.addr,
    ))?;
    lp.connect()?;
    Ok(lp)
}

/// Traffic of one timed phase plus the server-side accounting around it.
struct Phase {
    traffic: TrafficReport,
    refit: Option<RefitReport>,
    server_cpu_s: f64,
    before: StatsSnapshot,
    after: StatsSnapshot,
    window: WindowedStats,
    peak_rss_mb: f64,
    /// Host `(when, steal ticks, total ticks)`, sampled through the
    /// phase.
    steal_samples: Vec<(Instant, u64, u64)>,
}

fn stats(admin: &mut Client) -> Result<(StatsSnapshot, WindowedStats), String> {
    match admin.stats_report() {
        Ok((snapshot, Some(window), _)) => Ok((snapshot, window)),
        Ok(_) => Err("server sent no window quantiles".into()),
        Err(e) => Err(format!("STATS: {e}")),
    }
}

/// Sends the workload's traffic for `span`. The open-loop schedule is
/// seeded by `(seed, phase)` so every phase of a run differs.
fn traffic(
    args: &Args,
    d: &mut Deployment,
    phase: u64,
    span: Duration,
    rec: Recording,
    probe: &Batch,
) -> Result<(TrafficReport, Option<RefitReport>), String> {
    let seed = args.seed.wrapping_mul(31).wrapping_add(phase);
    let stop = AtomicBool::new(false);
    let addr = d.server.addr.clone();
    Ok(match args.workload {
        Workload::LowLoad => {
            let plan = Plan::poisson(seed, LOW_LOAD_RATE, span, d.sessions.len());
            (
                traffic::open_loop(&addr, &d.sessions, &plan, 2, &stop, rec),
                None,
            )
        }
        Workload::Saturated => (
            traffic::closed_loop(
                &addr,
                &d.server.obs_addr,
                &d.sessions,
                seed,
                SATURATED_WINDOW,
                span,
                rec,
            ),
            None,
        ),
        Workload::OnlineRefit => {
            // The loop decides when the phase ends (at least the
            // quality generations must land), so the schedule runs
            // until it is told to stop.
            let plan = Plan::poisson(
                seed,
                LOW_LOAD_RATE,
                Duration::from_secs(170),
                d.sessions.len(),
            );
            let lp = d.online.as_mut().expect("online_refit sets up its loop");
            let min_gens = if phase == 0 {
                refit::QUALITY_GENERATIONS
            } else {
                1
            };
            let until = Instant::now() + span;
            std::thread::scope(|s| {
                let load = s.spawn(|| traffic::open_loop(&addr, &d.sessions, &plan, 2, &stop, rec));
                let refits = refit::run(lp, None, min_gens, until, probe, &[]);
                stop.store(true, Ordering::Relaxed);
                let load = load.join().expect("load thread panicked");
                refits.map(|r| (load, Some(r)))
            })?
        }
    })
}

fn timed_phase(
    args: &Args,
    d: &mut Deployment,
    admin: &mut Client,
    phase: u64,
    span: Duration,
    rec: Recording,
    probe: &Batch,
) -> Result<Phase, String> {
    let pid = d.server.pid();
    let (before, _) = stats(admin)?;
    let cpu = harness::cpu_seconds(pid)?;
    let sampling = AtomicBool::new(true);
    let (traffic, steal_samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| harness::sample_steal(&sampling));
        let traffic = traffic(args, d, phase, span, rec, probe);
        sampling.store(false, Ordering::Relaxed);
        (traffic, sampler.join().expect("steal sampler panicked"))
    });
    let (traffic, refit) = traffic?;
    let server_cpu_s = harness::cpu_seconds(pid)? - cpu;
    let (after, window) = stats(admin)?;
    if let Some(e) = &traffic.first_error {
        return Err(format!("{}: request failed: {e}", args.workload.name()));
    }
    Ok(Phase {
        traffic,
        refit,
        server_cpu_s,
        before,
        after,
        window,
        peak_rss_mb: harness::peak_rss_mb(pid)?,
        steal_samples: steal_samples?,
    })
}

/// The serving metrics of one timed phase, over every timed request:
/// latency p50, throughput and peak RSS (in the result line), then
/// latency p99 and server CPU per row (printed only).
fn serving_metrics(p: &Phase) -> Vec<Metric> {
    let latency = &p.traffic.latency_us;
    let served_rows = (p.after.rows - p.before.rows).max(1);
    vec![
        metric("latency_p50_ms", quantile(latency, 0.5) / 1e3, "ms"),
        metric(
            "throughput_rows_per_s",
            p.traffic.rows as f64 / p.traffic.elapsed.as_secs_f64(),
            "rows/s",
        ),
        metric("server_peak_rss_mb", p.peak_rss_mb, "MiB"),
        metric("latency_p99_ms", quantile(latency, 0.99) / 1e3, "ms"),
        metric(
            "server_cpu_us_per_row",
            p.server_cpu_s * 1e6 / served_rows as f64,
            "us",
        ),
    ]
}

/// How many of [`serving_metrics`] go into the result line.
const GATED_SERVING: usize = 3;

fn run(args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(WORK_DIR);
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    let wl = args.workload;
    let report = |line: String| println!("perfbench: {line}");

    // ---- set-up, repeated; the last deployment is the one measured.
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for rep in 0..SETUP_REPEATS {
        let dir = work.0.join(format!("setup-{rep}"));
        let t = Instant::now();
        let mut d = set_up(args, &dir)?;
        warm_up(args, &mut d)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPEATS {
            d.online = None;
            d.server.shutdown()?;
        } else {
            deployment = Some(d);
        }
    }
    let mut d = deployment.expect("at least one set-up");
    let mut admin = Client::connect(d.server.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
    let probe = Batch::from_split(&d.dataset.test, &(0..16).collect::<Vec<_>>());

    host_facts(args, &report);

    // ---- timed traffic: one phase, or untraced + traced halves.
    let untraced = Recording {
        check_every: CHECK_EVERY,
        spans: false,
    };
    let traced = Recording {
        check_every: CHECK_EVERY,
        spans: true,
    };
    let span = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut phases = vec![timed_phase(
        args, &mut d, &mut admin, 0, span, untraced, &probe,
    )?];
    if args.trace {
        phases.push(timed_phase(
            args, &mut d, &mut admin, 1, span, traced, &probe,
        )?);
    }

    // ---- refits: concurrent with traffic on online_refit, afterwards
    // (no traffic) on the serving workloads.
    let mut refits = match phases[0].refit.take() {
        Some(r) => r,
        None => {
            let mut lp = online_loop(&d, &work.0.join("refit"))?;
            let check = &d.sessions[0];
            let r = refit::run(
                &mut lp,
                Some(&mut admin),
                refit::QUALITY_GENERATIONS,
                Instant::now(),
                &probe,
                check,
            )?;
            d.online = Some(lp);
            r
        }
    };
    // Later phases' swaps only matter for attributing their replies.
    for p in &mut phases[1..] {
        if let Some(r) = p.refit.take() {
            refits.generations.extend(r.generations);
        }
    }
    let lp = d.online.as_ref().expect("refits ran on a loop");

    let verdict = verify(&d, &phases, &refits, &probe);
    let (fresh_auc, frozen_auc) = (verdict.fresh_auc, verdict.frozen_auc);
    report(format!(
        "correctness: {} sampled replies bit-identical checks, {} generations reloaded, next-window AUC fresh {fresh_auc:.4} vs frozen {frozen_auc:.4}",
        verdict.checked,
        refits.generations.len()
    ));
    for p in verdict.problems.iter().take(10) {
        report(format!("MISMATCH: {p}"));
    }
    if verdict.problems.len() > 10 {
        report(format!(
            "... and {} more mismatches",
            verdict.problems.len() - 10
        ));
    }

    // ---- what went out and what failed.
    let base = &phases[0];
    let loop_stats = lp.stats();
    let mut attempted = base.traffic.attempted;
    let mut failed = base.traffic.failed;
    if wl == Workload::OnlineRefit {
        attempted += loop_stats.probes_ok + loop_stats.probes_overloaded + loop_stats.failed;
        failed += loop_stats.probes_overloaded + loop_stats.failed;
    }
    report(format!(
        "requests: attempted {attempted}, failed {failed} (of which OVERLOADED {}), error_rate {} ratio",
        base.traffic.overloaded + loop_stats.probes_overloaded,
        failed as f64 / attempted.max(1) as f64
    ));
    if !base.traffic.late_us.is_empty() {
        let late = &base.traffic.late_us;
        report(format!(
            "generator lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms, {:.1}% sent more than 1 ms late",
            quantile(late, 0.5) / 1e3,
            quantile(late, 0.99) / 1e3,
            quantile(late, 1.0) / 1e3,
            100.0 * late.iter().filter(|&&l| l > 1e3).count() as f64 / late.len() as f64
        ));
    }

    let mut serving = serving_metrics(base);
    let mut cpu_bound = serving.split_off(GATED_SERVING);
    cpu_bound.extend([
        metric("refit_cycle_ms", median(&refits.cycle_ms), "ms"),
        metric("reload_ms", median(&refits.reload_ms), "ms"),
        metric(
            "train_rows_per_s",
            median(&refits.train_rows_per_s),
            "rows/s",
        ),
    ]);
    let mut end_to_end = vec![metric("setup_s", median(&setup_s), "s")];
    end_to_end.extend(serving);
    end_to_end.push(metric("next_window_auc", fresh_auc, "auc"));
    report(format!(
        "{}: {GATED_WHY}",
        cpu_bound
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.value, m.unit))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let lat = &base.traffic.latency_us;
    report(format!(
        "latency percentiles (ms): p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} p99.9 {:.3} max {:.3}",
        quantile(lat, 0.5) / 1e3,
        quantile(lat, 0.9) / 1e3,
        quantile(lat, 0.95) / 1e3,
        quantile(lat, 0.99) / 1e3,
        quantile(lat, 0.999) / 1e3,
        quantile(lat, 1.0) / 1e3
    ));
    let windows = traffic::windows(&base.traffic, WINDOW, &base.steal_samples);
    report(format!(
        "per-second windows (steal %, rows/s): {}",
        windows
            .iter()
            .map(|w| format!("({:.1}, {})", 100.0 * w.steal, w.rows))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let all = windows.iter().map(|w| w.steal).sum::<f64>() / windows.len().max(1) as f64;
    report(format!(
        "{} latency samples, {} refit periods, set-up runs {:?} s, host CPU steal {:.1}% over the timed traffic",
        base.traffic.latency_us.len(),
        refits.cycle_ms.len(),
        setup_s,
        100.0 * all
    ));
    for m in &end_to_end {
        report(format!("{} {} {}", m.name, m.value, m.unit));
    }

    let metrics = if args.trace {
        let traced = &phases[1];
        for (u, t) in serving_metrics(base).iter().zip(serving_metrics(traced)) {
            report(format!(
                "trace_overhead {} {:+} {} (traced {} vs untraced {})",
                u.name,
                t.value - u.value,
                u.unit,
                t.value,
                u.value
            ));
        }
        write_spans(&out_dir, args, &traced.traffic)?;
        per_layer(args, &d, traced, lp, &work.0, &report)?
    } else {
        end_to_end
    };
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }

    drop(admin);
    d.online = None;
    let server = d.server;
    server.shutdown()?;
    let correct = verdict.problems.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// What the correctness gate found.
struct Verdict {
    problems: Vec<String>,
    /// Sampled replies compared bit for bit.
    checked: usize,
    fresh_auc: f64,
    frozen_auc: f64,
}

fn verify(d: &Deployment, phases: &[Phase], refits: &RefitReport, probe: &Batch) -> Verdict {
    let lp = d.online.as_ref().expect("refits ran on a loop");
    let mut problems = Vec::new();
    let models = refit::load_generations(refits, lp, &d.spec.config, probe).unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    let (fresh_auc, frozen_auc) = refit::next_window_auc(refits, &models, lp, &d.model);
    if fresh_auc.is_nan() || fresh_auc <= frozen_auc {
        problems.push(format!(
            "refreshed generations do not beat the frozen seed model: next-window AUC {fresh_auc:.4} vs {frozen_auc:.4}"
        ));
    }
    for (g, gen) in refits.generations.iter().enumerate() {
        if let (Some(served), Some(model)) = (&gen.served, models.get(g)) {
            if !refit::bit_equal(
                served,
                &ServingMoe::new(model).predict(&session_batch(d, 0)),
            ) {
                problems.push(format!(
                    "generation {}: served scores differ after RELOAD",
                    g + 1
                ));
            }
        }
    }
    let mut expected: HashMap<(usize, usize), Vec<f32>> = HashMap::new();
    let mut checked = 0;
    for c in phases.iter().flat_map(|p| &p.traffic.checked) {
        let Some(gen) = refit::serving_generation(&refits.generations, c.sent, c.done) else {
            continue;
        };
        let Some(model) = gen.checked_sub(1).map_or(Some(&d.model), |g| models.get(g)) else {
            continue;
        };
        let want = expected
            .entry((gen, c.session))
            .or_insert_with(|| ServingMoe::new(model).predict(&session_batch(d, c.session)));
        checked += 1;
        if !refit::bit_equal(&c.scores, want) {
            problems.push(format!(
                "session {} (generation {gen}): served scores differ from the in-process model",
                c.session
            ));
        }
    }
    if checked == 0 {
        problems.push("no served reply could be checked".into());
    }
    Verdict {
        problems,
        checked,
        fresh_auc,
        frozen_auc,
    }
}

fn session_batch(d: &Deployment, session: usize) -> Batch {
    let range = d.dataset.test.sessions[session].clone();
    Batch::from_split(&d.dataset.test, &range.collect::<Vec<_>>())
}

fn warm_up(args: &Args, d: &mut Deployment) -> Result<(), String> {
    let rec = Recording {
        check_every: usize::MAX,
        spans: false,
    };
    let stop = AtomicBool::new(false);
    let addr = d.server.addr.clone();
    let seed = args.seed ^ 0x5741_524d;
    let report = match args.workload {
        Workload::Saturated => traffic::closed_loop(
            &addr,
            &d.server.obs_addr,
            &d.sessions,
            seed,
            SATURATED_WINDOW,
            WARM_UP,
            rec,
        ),
        Workload::LowLoad | Workload::OnlineRefit => {
            let plan = Plan::poisson(seed, LOW_LOAD_RATE, WARM_UP, d.sessions.len());
            traffic::open_loop(&addr, &d.sessions, &plan, 2, &stop, rec)
        }
    };
    match report.first_error {
        Some(e) => Err(format!("warm-up: {e}")),
        None if report.latency_us.is_empty() => Err("warm-up: no request completed".into()),
        None => Ok(()),
    }
}

fn host_facts(args: &Args, report: &impl Fn(String)) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string())
    };
    let flags = field("flags");
    let simd: Vec<&str> = [
        "sse4_2",
        "avx",
        "avx2",
        "fma",
        "avx512f",
        "avx512_vnni",
        "avx_vnni",
    ]
    .into_iter()
    .filter(|f| flags.split_whitespace().any(|g| g == *f))
    .collect();
    report(format!(
        "host: nproc {}, cpu {:?}, simd flags [{}], AMOE_THREADS {:?} (effective {}), source {}, workload {} seed {}, trace {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        field("model name"),
        simd.join(" "),
        std::env::var("AMOE_THREADS").ok(),
        pool::threads(),
        std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into()),
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
}

/// The traced phase's request spans as Chrome trace events (at most a
/// few thousand requests, evenly sampled).
fn write_spans(out_dir: &Path, args: &Args, t: &TrafficReport) -> Result<(), String> {
    let Some(epoch) = t.spans.iter().map(|s| s.due).min() else {
        return Ok(());
    };
    let step = t.spans.len().div_ceil(4000).max(1);
    let at = |i: Instant| (i - epoch).as_secs_f64() * 1e6;
    let mut events = Vec::new();
    for (id, s) in t.spans.iter().enumerate().step_by(step) {
        for (name, from, to) in [
            ("late", s.due, s.sent),
            ("request", s.sent, s.done),
            ("send", s.sent, s.submitted),
            ("await", s.submitted, s.done),
        ] {
            if to > from {
                events.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{id}}}}}",
                    s.thread,
                    at(from),
                    at(to) - at(from)
                ));
            }
        }
    }
    let path = out_dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(
        &path,
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}

fn per_layer(
    args: &Args,
    d: &Deployment,
    traced: &Phase,
    lp: &OnlineLoop,
    work: &Path,
    report: &impl Fn(String),
) -> Result<Vec<Metric>, String> {
    let mut out = layers::protocol(&d.sessions[..256.min(d.sessions.len())])?;
    let (b, a, w) = (&traced.before, &traced.after, &traced.window);
    let batches = (a.batches - b.batches).max(1) as f64;
    out.extend([
        metric("batcher.queue_wait_p50_us", w.queue_wait_us.p50, "us"),
        metric("batcher.queue_wait_p99_us", w.queue_wait_us.p99, "us"),
        metric("batcher.compute_p50_us", w.compute_us.p50, "us"),
        metric("batcher.reply_write_p50_us", w.reply_write_us.p50, "us"),
        metric("batcher.queue_depth_p99", w.queue_depth.p99, "requests"),
        metric(
            "batcher.overloaded",
            (a.overloaded - b.overloaded) as f64,
            "count",
        ),
        metric(
            "batcher.rows_per_batch",
            (a.rows - b.rows) as f64 / batches,
            "rows",
        ),
        metric(
            "batcher.requests_per_batch",
            (a.requests - b.requests) as f64 / batches,
            "requests",
        ),
    ]);
    // Closure: how much of the client-observed median (submit → reply)
    // the wire, queue-wait, compute and reply-write stages cover.
    let observed = quantile(&traced.traffic.rtt_us, 0.5);
    let value = |name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let wire = value("protocol.encode_us") + value("protocol.decode_us");
    let stages = wire + w.queue_wait_us.p50 + w.compute_us.p50 + w.reply_write_us.p50;
    report(format!(
        "closure: observed p50 {observed:.1} us = wire {wire:.1} + queue wait {:.1} + compute {:.1} + reply write {:.1} + unattributed {:.1} us",
        w.queue_wait_us.p50,
        w.compute_us.p50,
        w.reply_write_us.p50,
        observed - stages
    ));
    out.push(metric(
        "closure.unattributed_frac",
        1.0 - stages / observed,
        "ratio",
    ));

    out.extend(layers::serving(
        &d.model,
        &d.dataset.test,
        Duration::from_secs_f64(1.0 / LOW_LOAD_RATE),
    ));
    let (kernels, notes) = layers::kernels(&d.model, &d.dataset.meta, args.seed);
    out.extend(kernels);
    for n in notes {
        report(n);
    }
    let batch = Batch::from_split(&d.dataset.train, &(0..256).collect::<Vec<_>>());
    let model = MoeModel::from_checkpoint(
        &d.spec.meta,
        d.spec.config.clone(),
        OptimConfig::default(),
        &d.ckpt,
    )
    .map_err(|e| format!("reload seed checkpoint: {e}"))?;
    out.extend(layers::training(model, &batch));
    out.extend(layers::checkpoints(
        &d.model,
        &d.spec,
        &work.join("ckpt-probe"),
    )?);
    out.extend(layers::stream(lp.stream()));
    out.extend(layers::scrape(&d.server.obs_addr)?);
    Ok(out)
}
