//! Measurement plumbing shared by every workload: quantiles, the
//! server child process, `/proc` accounting, and result formatting.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use amoe_serve::Client;

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`);
/// `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median: the run-to-run
/// spread the benchmark reports beside kernel rates.
pub fn spread(values: &[f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// Times `f` `n` times and returns every duration in microseconds.
pub fn time_us(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The `amoe-serve serve` child process. Dropping it kills and reaps
/// a server still running, so no exit path of the benchmark leaves one
/// behind; [`ServerProcess::shutdown`] is the graceful stop.
pub struct ServerProcess {
    child: Child,
    // Held open for the child's lifetime: closing the pipe would make
    // a later write to stdout fail inside the server.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub obs_addr: String,
}

impl ServerProcess {
    /// Starts the server on ephemeral ports with the default
    /// `ServeConfig` and reads back the bound addresses.
    pub fn spawn(bin: &Path, ckpt: &Path, spec: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--ckpt")
            .arg(ckpt)
            .arg("--spec")
            .arg(spec)
            .args(["--addr", "127.0.0.1:0", "--obs-addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = ServerProcess {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            obs_addr: String::new(),
        };
        server.addr = server.read_line()?;
        server.obs_addr = server.read_line()?.trim_start_matches("obs ").to_string();
        if server.addr.is_empty() || server.obs_addr.is_empty() {
            return Err("server exited before printing its addresses".into());
        }
        Ok(server)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server addresses: {e}"))?;
        Ok(line.trim().to_string())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful `SHUTDOWN`, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr.as_str()).and_then(|mut c| c.shutdown());
        let exited = wait_timeout(&mut self.child, Duration::from_secs(10));
        asked.map_err(|e| format!("server shutdown: {e}"))?;
        match exited {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(format!("server exited with {status}")),
            None => Err("server did not exit within 10 s of SHUTDOWN".into()),
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn wait_timeout(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

/// User + system CPU seconds a process has used (`/proc/<pid>/stat`,
/// in the kernel's fixed 100 Hz `USER_HZ` ticks).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Host-wide CPU ticks `(steal, total)` from `/proc/stat`: time the
/// hypervisor gave the host's CPUs to someone else.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|_| "malformed /proc/stat".to_string()))
        .collect::<Result<_, _>>()?;
    Ok((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
}

/// Samples [`steal_ticks`] every 100 ms until `running` drops.
pub fn sample_steal(running: &AtomicBool) -> Result<Vec<(Instant, u64, u64)>, String> {
    let mut samples = Vec::new();
    loop {
        let (steal, total) = steal_ticks()?;
        samples.push((Instant::now(), steal, total));
        if !running.load(Ordering::Relaxed) {
            return Ok(samples);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".into())
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result object the benchmark prints as its last stdout line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
