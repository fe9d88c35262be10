//! Load generators. Every request goes through the public
//! `amoe_serve::Client`; observability scrapes through `http_get`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use amoe_serve::{http_get, Client, FeatureRow, ServeError};
use amoe_tensor::Rng;

/// One request as it crossed the client, kept in memory for the
/// traced run's span file and for the closure report.
#[derive(Clone, Copy)]
pub struct Span {
    pub thread: usize,
    /// When the open-loop schedule wanted it sent (`sent` in a closed
    /// loop).
    pub due: Instant,
    pub sent: Instant,
    /// `submit` returned: the frame is encoded and written.
    pub submitted: Instant,
    pub done: Instant,
}

/// Served scores kept for the bit-identity check after the run.
pub struct Checked {
    pub session: usize,
    pub scores: Vec<f32>,
    pub sent: Instant,
    pub done: Instant,
}

#[derive(Default)]
pub struct TrafficReport {
    /// Client-observed latency: from the due time (open loop) or from
    /// submit (closed loop), microseconds.
    pub latency_us: Vec<f64>,
    /// Submit → completion, microseconds (the part the server and the
    /// wire own; equals `latency_us` in a closed loop).
    pub rtt_us: Vec<f64>,
    /// When each timed request completed and how many rows it scored,
    /// in `latency_us` order.
    pub completions: Vec<(Instant, usize)>,
    /// How late the generator sent each open-loop request.
    pub late_us: Vec<f64>,
    pub rows: u64,
    pub attempted: u64,
    pub failed: u64,
    pub overloaded: u64,
    pub first_error: Option<String>,
    pub checked: Vec<Checked>,
    pub spans: Vec<Span>,
    pub start: Option<Instant>,
    pub elapsed: Duration,
}

impl TrafficReport {
    fn absorb(&mut self, other: TrafficReport) {
        self.latency_us.extend(other.latency_us);
        self.rtt_us.extend(other.rtt_us);
        self.completions.extend(other.completions);
        self.late_us.extend(other.late_us);
        self.rows += other.rows;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.checked.extend(other.checked);
        self.spans.extend(other.spans);
    }

    /// Counts a failed request; a refused one (`OVERLOADED`) counts as
    /// failed too. Returns whether the connection is still usable.
    fn fail(&mut self, err: ServeError) -> bool {
        self.failed += 1;
        if matches!(err, ServeError::Overloaded) {
            self.overloaded += 1;
            return true;
        }
        self.first_error.get_or_insert_with(|| err.to_string());
        false
    }
}

/// What the load threads do with each request besides timing it.
#[derive(Clone, Copy)]
pub struct Recording {
    /// Keep every n-th reply's scores for the bit-identity check.
    pub check_every: usize,
    /// Keep every request's span (the traced run).
    pub spans: bool,
}

/// A seeded open-loop plan: Poisson arrivals and the session each
/// arrival sends.
pub struct Plan {
    pub due: Vec<Duration>,
    pub session: Vec<usize>,
}

impl Plan {
    pub fn poisson(seed: u64, rate_per_s: f64, span: Duration, sessions: usize) -> Plan {
        let mut rng = Rng::seed_from(seed);
        let (mut due, mut session) = (Vec::new(), Vec::new());
        let mut t = 0.0;
        loop {
            // Exponential gap; `1 - u` keeps the log argument positive.
            t += -(1.0 - rng.uniform()).ln() / rate_per_s;
            if t >= span.as_secs_f64() {
                return Plan { due, session };
            }
            due.push(Duration::from_secs_f64(t));
            session.push(rng.below(sessions));
        }
    }
}

/// Open loop: `threads` connections share one arrival schedule; each
/// arrival is sent by whichever thread is free once it is due. Stops
/// at the end of the plan or when `stop` is raised.
pub fn open_loop(
    addr: &str,
    sessions: &[Vec<FeatureRow>],
    plan: &Plan,
    threads: usize,
    stop: &AtomicBool,
    rec: Recording,
) -> TrafficReport {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let mut total = TrafficReport::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let next = &next;
                s.spawn(move || {
                    let mut r = TrafficReport::default();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            r.first_error = Some(format!("connect: {e}"));
                            return r;
                        }
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= plan.due.len() || stop.load(Ordering::Relaxed) {
                            return r;
                        }
                        let due = start + plan.due[i];
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let session = plan.session[i];
                        if !send_one(&mut client, &mut r, thread, due, session, sessions, i, rec) {
                            return r;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("load thread panicked"));
        }
    });
    total.start = Some(start);
    total.elapsed = start.elapsed();
    total
}

#[allow(clippy::too_many_arguments)]
fn send_one(
    client: &mut Client,
    r: &mut TrafficReport,
    thread: usize,
    due: Instant,
    session: usize,
    sessions: &[Vec<FeatureRow>],
    seq: usize,
    rec: Recording,
) -> bool {
    let rows = &sessions[session];
    r.attempted += 1;
    let sent = Instant::now();
    let scores = client.submit(rows).and_then(|id| {
        let submitted = Instant::now();
        client.wait(id).map(|s| (submitted, s))
    });
    let (submitted, scores) = match scores {
        Ok(v) => v,
        Err(e) => return r.fail(e),
    };
    let done = Instant::now();
    r.rows += rows.len() as u64;
    r.latency_us.push(us(done - due));
    r.completions.push((done, rows.len()));
    r.rtt_us.push(us(done - sent));
    r.late_us.push(us(sent - due));
    if rec.spans {
        r.spans.push(Span {
            thread,
            due,
            sent,
            submitted,
            done,
        });
    }
    if seq.is_multiple_of(rec.check_every) {
        r.checked.push(Checked {
            session,
            scores,
            sent,
            done,
        });
    }
    true
}

/// Closed loop on one pipelined connection holding `window` sessions
/// in flight, while a second thread scrapes `/metrics` once a second.
pub fn closed_loop(
    addr: &str,
    obs_addr: &str,
    sessions: &[Vec<FeatureRow>],
    seed: u64,
    window: usize,
    span: Duration,
    rec: Recording,
) -> TrafficReport {
    let stop = AtomicBool::new(false);
    let mut total = TrafficReport::default();
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut next = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                if Instant::now() >= next {
                    next += Duration::from_secs(1);
                    match http_get(obs_addr, "/metrics", Duration::from_secs(5)) {
                        Ok((200, _)) => {}
                        Ok((status, _)) => return Some(format!("/metrics answered {status}")),
                        Err(e) => return Some(format!("/metrics: {e}")),
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            None
        });
        total = pipelined(addr, sessions, seed, window, span, rec);
        stop.store(true, Ordering::Relaxed);
        let error = scraper.join().expect("scrape thread panicked");
        if total.first_error.is_none() {
            total.first_error = error;
        }
    });
    total
}

fn pipelined(
    addr: &str,
    sessions: &[Vec<FeatureRow>],
    seed: u64,
    window: usize,
    span: Duration,
    rec: Recording,
) -> TrafficReport {
    let mut r = TrafficReport::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.first_error = Some(format!("connect: {e}"));
            return r;
        }
    };
    let mut rng = Rng::seed_from(seed);
    // id → (session, sent, submitted, sequence number)
    let mut in_flight: HashMap<u64, (usize, Instant, Instant, usize)> = HashMap::new();
    let mut seq = 0usize;
    let start = Instant::now();
    let end = start + span;
    let mut submit = |client: &mut Client, r: &mut TrafficReport, in_flight: &mut HashMap<_, _>| {
        let session = rng.below(sessions.len());
        let sent = Instant::now();
        r.attempted += 1;
        match client.submit(&sessions[session]) {
            Ok(id) => {
                in_flight.insert(id, (session, sent, Instant::now(), seq));
                seq += 1;
                true
            }
            Err(e) => r.fail(e),
        }
    };
    let mut healthy = (0..window).all(|_| submit(&mut client, &mut r, &mut in_flight));
    while healthy && Instant::now() < end {
        let done = match client.poll() {
            Ok(c) => c,
            Err(e) => {
                r.fail(e);
                break;
            }
        };
        let now = Instant::now();
        let (session, sent, submitted, n) = in_flight
            .remove(&done.request_id)
            .expect("the client only completes ids it submitted");
        match done.result {
            Ok(scores) => {
                r.rows += scores.len() as u64;
                r.latency_us.push(us(now - sent));
                r.completions.push((now, scores.len()));
                r.rtt_us.push(us(now - sent));
                if rec.spans {
                    r.spans.push(Span {
                        thread: 0,
                        due: sent,
                        sent,
                        submitted,
                        done: now,
                    });
                }
                if n.is_multiple_of(rec.check_every) {
                    r.checked.push(Checked {
                        session,
                        scores,
                        sent,
                        done: now,
                    });
                }
            }
            Err(e) => healthy = r.fail(e),
        }
        if healthy {
            healthy = submit(&mut client, &mut r, &mut in_flight);
        }
    }
    r.start = Some(start);
    r.elapsed = start.elapsed();
    // Drain what is still in flight; those requests fall outside the
    // timed span and are neither counted nor timed.
    r.attempted -= in_flight.len() as u64;
    while healthy && !in_flight.is_empty() {
        match client.poll() {
            Ok(c) => {
                in_flight.remove(&c.request_id);
            }
            Err(_) => break,
        }
    }
    r
}

/// One fixed slice of a timed phase.
pub struct Window {
    /// Rows of the requests that completed in it.
    pub rows: usize,
    /// Share of host CPU time the hypervisor stole meanwhile.
    pub steal: f64,
}

/// Splits the report's completions into consecutive `window`s (a
/// partial trailing window is left out) and attaches each window's
/// host steal share from `(when, steal ticks, total ticks)` samples.
pub fn windows(t: &TrafficReport, window: Duration, steal: &[(Instant, u64, u64)]) -> Vec<Window> {
    let Some(start) = t.start else {
        return Vec::new();
    };
    let n = (t.elapsed.as_secs_f64() / window.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let mut out: Vec<Window> = (0..n)
        .map(|w| {
            // The samples nearest the window's two edges.
            let edge = |at: Instant| {
                steal
                    .iter()
                    .min_by_key(|s| if s.0 > at { s.0 - at } else { at - s.0 })
                    .map_or((0, 0), |s| (s.1, s.2))
            };
            let (s0, t0) = edge(start + window * w as u32);
            let (s1, t1) = edge(start + window * (w as u32 + 1));
            Window {
                rows: 0,
                steal: s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64,
            }
        })
        .collect();
    for &(done, rows) in &t.completions {
        let w =
            (done.saturating_duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
        if let Some(win) = out.get_mut(w) {
            win.rows += rows;
        }
    }
    out
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
