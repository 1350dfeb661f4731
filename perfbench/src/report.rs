//! Turning a measured window into named metrics.

use std::time::Duration;

use snipe_util::time::{SimDuration, SimTime};

use crate::ledger::{Layer, Totals};
use crate::{Extras, Workload};

/// The window's own slice of the request record.
#[derive(Clone, Debug, Default)]
pub struct WindowBook {
    /// Requests completed inside the window.
    pub completed: u64,
    /// Virtual latencies of the prefix requests, in ns.
    pub latencies: Vec<u64>,
    /// Payload bytes the prefix requests delivered.
    pub prefix_bytes: u64,
}

/// One stretch of the window.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Its wall time.
    pub wall: Duration,
    /// Process CPU time in it.
    pub cpu_ns: u64,
    /// Requests completed in it.
    pub completed: u64,
}

/// Everything one run measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// Which workload.
    pub workload: Workload,
    /// Whether the ledger was recording.
    pub trace: bool,
    /// Engine threads that ran regions.
    pub threads: usize,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of the window.
    pub wall: Duration,
    /// Of which inside the engine's `run_for`.
    pub in_engine: Duration,
    /// Process CPU time in the window, all threads.
    pub cpu_ns: u64,
    /// Window figures.
    pub window: WindowBook,
    /// The window cut into stretches of about equal wall time.
    pub chunks: Vec<Chunk>,
    /// Virtual length of the prefix.
    pub prefix: SimDuration,
    /// Requests issued over the whole run.
    pub attempted: u64,
    /// Requests that failed or never completed.
    pub failed: u64,
    /// Check failures.
    pub errors: Vec<String>,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Registry snapshot when the window opened.
    pub reg0: String,
    /// Registry snapshot when it closed.
    pub reg1: String,
    /// Ledger totals.
    pub totals: Totals,
    /// Wire retransmissions from the flight recorder (one engine thread
    /// only: the recorder is per thread).
    pub retransmits: Option<u64>,
    /// Workload-specific figures.
    pub extras: Extras,
    /// Host index → engine region, for the imbalance figure.
    pub regions: Vec<usize>,
    /// Virtual time when the window closed.
    pub vt_end: SimTime,
    /// Engine digest when the window closed.
    pub digest: u64,
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; `None` when the layer is absent from this workload.
    pub value: Option<f64>,
}

fn m(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// The median of a non-empty slice.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1] as f64
}

/// A counter or gauge by exact name from a registry JSON snapshot;
/// `None` when the snapshot has no such name.
pub fn registry_value(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let at = json.find(&key)? + key.len();
    let digits: String = json[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Every `(name, value)` whose name starts with `prefix` and ends with
/// `suffix`.
pub(crate) fn registry_matching(json: &str, prefix: &str, suffix: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut rest = json;
    let needle = format!("\"{prefix}");
    while let Some(i) = rest.find(&needle) {
        let tail = &rest[i + 1..];
        let Some(end) = tail.find('"') else { break };
        let name = &tail[..end];
        if name.ends_with(suffix) {
            if let Some(v) = registry_value(rest, name) {
                out.push((name.to_string(), v));
            }
        }
        rest = &tail[end..];
    }
    out
}

fn delta(r: &Report, name: &str) -> Option<f64> {
    let a = registry_value(&r.reg0, name)?;
    let b = registry_value(&r.reg1, name)?;
    Some(b.saturating_sub(a) as f64)
}

fn delta_sum(r: &Report, prefix: &str) -> Option<f64> {
    let a: Vec<(String, u64)> = registry_matching(&r.reg0, prefix, "");
    let b: Vec<(String, u64)> = registry_matching(&r.reg1, prefix, "");
    if b.is_empty() {
        return None;
    }
    let sa: u64 = a.iter().map(|x| x.1).sum();
    let sb: u64 = b.iter().map(|x| x.1).sum();
    Some(sb.saturating_sub(sa) as f64)
}

impl Report {
    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The end-to-end metrics (tracing off).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut lat = self.window.latencies.clone();
        lat.sort_unstable();
        // Median over chunks; the whole window when it is too short
        // to cut.
        let whole =
            Chunk { wall: self.wall, cpu_ns: self.cpu_ns, completed: self.window.completed };
        let chunks =
            if self.chunks.is_empty() { std::slice::from_ref(&whole) } else { &self.chunks };
        let rates: Vec<f64> =
            chunks.iter().map(|c| c.completed as f64 / c.wall.as_secs_f64()).collect();
        let cpu: Vec<f64> =
            chunks.iter().map(|c| c.cpu_ns as f64 / 1e3 / c.completed.max(1) as f64).collect();
        let (p50, p99) = if lat.is_empty() {
            (None, None)
        } else {
            (Some(quantile(&lat, 0.50) / 1e6), Some(quantile(&lat, 0.99) / 1e6))
        };
        let prefix_s = self.prefix.as_secs_f64();
        vec![
            m("setup_s", "s", Some(median(&self.setup_s))),
            m("req_per_s", "1/s", Some(median(&rates))),
            m("cpu_us_per_req", "us", Some(median(&cpu))),
            m("vt_p50_ms", "ms", p50),
            m("vt_p99_ms", "ms", p99),
            m(
                "goodput_mbps",
                "Mbit/s",
                Some(self.window.prefix_bytes as f64 * 8.0 / prefix_s / 1e6),
            ),
            m("peak_rss_mb", "MiB", Some(self.peak_rss_mb)),
        ]
    }

    /// Exclusive milliseconds of a layer, averaged over engine threads.
    fn layer_ms(&self, l: Layer) -> f64 {
        self.totals.ns[l as usize] as f64 / 1e6 / self.threads as f64
    }

    fn present(&self, l: Layer) -> bool {
        self.extras.layers.contains(&l)
    }

    fn extra(&self, name: &str) -> Option<f64> {
        self.extras.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The per-layer ledger (tracing on). Rows in milliseconds add up
    /// to the window's wall time: the engine row is the time inside
    /// `run_for` not charged to any wrapped layer, and the bench row
    /// takes the time outside it.
    pub fn per_layer(&self) -> Vec<Metric> {
        let wall_ms = self.wall.as_secs_f64() * 1e3;
        let in_engine_ms = self.in_engine.as_secs_f64() * 1e3;
        let charged: f64 = Layer::ALL.iter().map(|&l| self.layer_ms(l)).sum::<f64>();
        let engine_self = in_engine_ms - charged;
        let bench_ms = (wall_ms - in_engine_ms) + self.layer_ms(Layer::Bench);
        let row = |l: Layer| -> Option<f64> { self.present(l).then(|| self.layer_ms(l)) };
        let events = delta(self, "net.events");
        let imbalance = {
            let nregions = self.regions.iter().copied().max().map(|r| r + 1).unwrap_or(0);
            let mut per = vec![0u64; nregions];
            for (h, &r) in self.regions.iter().enumerate() {
                per[r] += self.totals.host_events.get(h).copied().unwrap_or(0);
            }
            let total: u64 = per.iter().sum();
            (total > 0 && nregions > 0).then(|| {
                let mean = total as f64 / nregions as f64;
                *per.iter().max().expect("nonempty") as f64 / mean
            })
        };
        let mailbox_hwm = {
            let v = registry_matching(&self.reg1, "shard.", ".mailbox_hwm");
            (!v.is_empty()).then(|| v.iter().map(|x| x.1).max().unwrap_or(0) as f64)
        };
        let wire_sends: u64 =
            self.extras.wire_senders.iter().map(|&l| self.totals.sends[l as usize]).sum();
        let first_tx_frac = match self.retransmits {
            Some(rt) if wire_sends > 0 => Some(1.0 - rt as f64 / wire_sends as f64),
            _ => None,
        };
        let retransmits = if wire_sends > 0 { self.retransmits.map(|r| r as f64) } else { None };
        let server = Layer::RcdsServer as usize;
        let rc_present = self.present(Layer::RcdsServer);
        vec![
            m("netsim.events", "count", events),
            m("netsim.events_per_s", "1/s", events.map(|e| e / self.wall.as_secs_f64())),
            m("netsim.self_ms", "ms", Some(engine_self)),
            m("netsim.packets", "count", delta(self, "net.sent")),
            m("netsim.bytes", "B", delta_sum(self, "net.bytes.")),
            m("netsim.drops", "count", delta_sum(self, "net.drop.")),
            m("shard.mailbox_hwm", "count", mailbox_hwm),
            m("shard.imbalance", "ratio", imbalance),
            m("wire.send_ms", "ms", row(Layer::WireSend)),
            m("wire.on_datagram_ms", "ms", row(Layer::WireDatagram)),
            m("wire.on_timer_ms", "ms", row(Layer::WireTimer)),
            m("wire.drain_ms", "ms", row(Layer::WireDrain)),
            m("wire.retransmits", "count", retransmits),
            m("wire.first_tx_frac", "ratio", first_tx_frac),
            m("wire.fec_delivered", "count", self.extra("wire.fec_delivered")),
            m("rcds.client_ms", "ms", row(Layer::RcdsClient)),
            m("rcds.server_ms", "ms", row(Layer::RcdsServer)),
            m(
                "rcds.sync_ms",
                "ms",
                rc_present.then(|| self.totals.peer_ns[server] as f64 / 1e6 / self.threads as f64),
            ),
            m("rcds.sync_bytes", "B", rc_present.then(|| self.totals.peer_bytes[server] as f64)),
            m("rcds.log_len", "count", self.extra("rcds.log_len")),
            m("rcds.cache_hits", "count", self.extra("rcds.cache_hits")),
            m("rcds.cache_hit_frac", "ratio", self.extra("rcds.cache_hit_frac")),
            m("rcds.sends_per_op", "ratio", self.extra("rcds.sends_per_op")),
            m("files.fetch_ms", "ms", row(Layer::FilesFetch)),
            m("files.server_ms", "ms", row(Layer::FilesServer)),
            m("files.stripes", "count", self.extra("files.stripes")),
            m("files.stripe_timeouts", "count", self.extra("files.stripe_timeouts")),
            m("core.process_ms", "ms", row(Layer::CoreProcess)),
            m("core.app_ms", "ms", row(Layer::CoreApp)),
            m("daemon.ms", "ms", row(Layer::Daemon)),
            m("rm.ms", "ms", row(Layer::Rm)),
            m("core.spawns", "count", self.extra("core.spawns")),
            m("bench.gen_ms", "ms", Some(bench_ms)),
            m("bench.window_ms", "ms", Some(wall_ms)),
        ]
    }

    /// Sum of the ledger's time rows (engine, layers, bench), which by
    /// construction equals the window's wall time when every layer that
    /// recorded time is listed as present.
    pub fn ledger_sum_ms(&self) -> f64 {
        self.per_layer()
            .iter()
            .filter(|x| x.unit == "ms")
            .filter(|x| x.name != "bench.window_ms" && x.name != "rcds.sync_ms")
            .filter_map(|x| x.value)
            .sum()
    }

    /// The metrics this run prints.
    pub fn metrics(&self) -> Vec<Metric> {
        if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    /// The result line: one JSON object. An absent per-layer metric
    /// prints as 0 and is named on the `absent:` line before it.
    pub fn json(&self) -> String {
        let mut parts = Vec::new();
        for x in self.metrics() {
            let v = x.value.unwrap_or(0.0);
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(v),
                x.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }

    /// Human-readable lines printed before the result line.
    pub fn summary(&self) -> Vec<String> {
        let mut out = vec![format!(
            "workload={} trace={} threads={} window={:.3}s vt_end={:.3}s digest={:#018x} \
             attempted={} failed={} setups={:?}",
            self.workload.name(),
            self.trace,
            self.threads,
            self.wall.as_secs_f64(),
            self.vt_end.as_secs_f64(),
            self.digest,
            self.attempted,
            self.failed,
            self.setup_s,
        )];
        out.push(format!("prefix requests={}", self.window.latencies.len()));
        let rates: Vec<String> = self
            .chunks
            .iter()
            .map(|c| format!("{:.0}", c.completed as f64 / c.wall.as_secs_f64()))
            .collect();
        out.push(format!("req/s per chunk: {}", rates.join(" ")));
        for x in self.metrics() {
            match x.value {
                Some(v) => out.push(format!("  {:<24} {:>16.4} {}", x.name, v, x.unit)),
                None => out.push(format!("  {:<24} {:>16} {}", x.name, "absent", x.unit)),
            }
        }
        if self.trace {
            out.push(format!(
                "ledger: rows sum {:.3} ms, window {:.3} ms",
                self.ledger_sum_ms(),
                self.wall.as_secs_f64() * 1e3
            ));
            // Engine traffic each probed actor layer asked for.
            for &l in &self.extras.layers {
                let i = l as usize;
                if self.totals.sends[i] + self.totals.timers[i] == 0 {
                    continue;
                }
                out.push(format!(
                    "  layer {:<12} sends {:>9} bytes {:>12} timers {:>9}",
                    format!("{l:?}"),
                    self.totals.sends[i],
                    self.totals.bytes[i],
                    self.totals.timers[i]
                ));
            }
            let absent: Vec<&str> =
                self.metrics().iter().filter(|x| x.value.is_none()).map(|x| x.name).collect();
            out.push(format!("absent: {}", absent.join(", ")));
        }
        for e in &self.errors {
            out.push(format!("CHECK FAILED: {e}"));
        }
        out
    }
}

/// A JSON number: integers without a fraction, others with every digit.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// CPU time of the whole process (every thread, user + system), in ns.
pub(crate) fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of a
    // 64-bit Linux target, and the clock id is a constant the kernel
    // defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
