//! The SNIPE end-to-end benchmark.
//!
//! Four workloads, each on the sharded engine and each in its own
//! process: `resolve` (RCDS metadata plane), `fetch` (striped file
//! reads over SRUDP), `spray` (FEC-coded bulk transfer over lossy WANs)
//! and `spawn` (processes started through the resource manager and the
//! daemons). A run sets its workload up several times, measures one
//! window of host time, checks every output, and reports either the
//! end-to-end metrics or, when traced, the per-layer ledger. See
//! README.md for the metrics and what each should move.

pub mod fetch;
pub mod ledger;
pub mod report;
pub mod resolve;
pub mod spawn;
pub mod spray;
pub mod wire;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snipe_netsim::shard::ShardedWorld;
use snipe_netsim::trace::TraceKind;
use snipe_util::time::{SimDuration, SimTime};

pub use report::Report;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sharded RCDS gets and puts.
    Resolve,
    /// Striped whole-file fetches.
    Fetch,
    /// FEC-sprayed bulk messages.
    Spray,
    /// Spawns through the resource manager.
    Spawn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Resolve, Workload::Fetch, Workload::Spray, Workload::Spawn];

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Resolve => "resolve",
            Workload::Fetch => "fetch",
            Workload::Spray => "spray",
            Workload::Spawn => "spawn",
        }
    }

    /// Set-ups per run whose median is `setup_s`: more where a set-up
    /// is short enough for scheduling noise to show.
    pub fn setups(self) -> usize {
        match self {
            Workload::Resolve => 3,
            Workload::Fetch | Workload::Spray | Workload::Spawn => 7,
        }
    }
}

/// How large a run is: the full benchmark, or the short horizon the
/// self-test uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as reported.
    Full,
    /// Small inputs and a short measured prefix.
    Small,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Least wall-clock length of the measured window; 0 ends it as
    /// soon as the virtual-time prefix is complete.
    pub seconds: f64,
    /// Record the per-layer ledger.
    pub trace: bool,
    /// How many times to set up (the last set-up is measured).
    pub setups: usize,
    /// Input size.
    pub scale: Scale,
    /// Engine worker threads; `None` takes the workload's own.
    pub threads: Option<usize>,
}

/// The benchmark's record of requests, shared with its actors.
#[derive(Debug, Default)]
pub struct Book {
    /// Requests issued, warm-up included.
    pub issued: u64,
    /// Requests that completed and passed their check; the others
    /// count as failed.
    pub completed: u64,
    /// Arrivals inside the prefix `[window_start, prefix_end)`.
    pub prefix_issued: u64,
    /// Of those, completed.
    pub prefix_done: u64,
    /// Virtual latency of each completed prefix request, in ns.
    pub latencies: Vec<u64>,
    /// Payload bytes delivered by completed prefix requests.
    pub prefix_bytes: u64,
    /// The first few check failures, for the log.
    pub errors: Vec<String>,
}

/// The shared handle actors record into.
pub type SharedBook = Arc<Mutex<Book>>;

/// Virtual-time frame of a run: traffic starts, the measured window
/// opens, the deterministic prefix closes, generators stop.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Generators issue nothing before this.
    pub traffic_start: SimTime,
    /// Start of the measured window and the prefix.
    pub window_start: SimTime,
    /// End of the prefix whose requests give the virtual-time metrics.
    pub prefix_end: SimTime,
    /// Generators issue nothing at or after this (set when the window
    /// closes; `u64::MAX` ns until then).
    pub stop_at: Arc<std::sync::atomic::AtomicU64>,
}

impl Frame {
    /// A frame with traffic at `traffic_start`, `warm` of warm-up and a
    /// prefix of `prefix`.
    pub fn new(traffic_start: SimTime, warm: SimDuration, prefix: SimDuration) -> Frame {
        let window_start = traffic_start + warm;
        Frame {
            traffic_start,
            window_start,
            prefix_end: window_start + prefix,
            stop_at: Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX)),
        }
    }

    /// May a generator issue a request arriving at `at`?
    pub fn open(&self, at: SimTime) -> bool {
        at >= self.traffic_start
            && at.as_nanos() < self.stop_at.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Is `at` inside the prefix?
    pub fn in_prefix(&self, at: SimTime) -> bool {
        at >= self.window_start && at < self.prefix_end
    }
}

impl Book {
    /// Record an issued request arriving at `at`.
    pub fn issue(&mut self, frame: &Frame, at: SimTime) {
        self.issued += 1;
        if frame.in_prefix(at) {
            self.prefix_issued += 1;
        }
    }

    /// Record a completion: `ok` after its check, `bytes` of payload.
    pub fn complete(&mut self, frame: &Frame, at: SimTime, now: SimTime, ok: bool, bytes: u64) {
        if ok {
            self.completed += 1;
        }
        if frame.in_prefix(at) {
            self.prefix_done += 1;
            if ok {
                self.latencies.push(now.saturating_since(at).as_nanos());
                self.prefix_bytes += bytes;
            }
        }
    }

    /// Record a check failure.
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }
}

/// Workload-specific per-layer figures, read after the window.
#[derive(Clone, Debug, Default)]
pub struct Extras {
    /// `(metric, value)` pairs; absent metrics are simply not listed.
    pub values: Vec<(&'static str, f64)>,
    /// Layers this workload runs actors or calls of; the others'
    /// rows are absent.
    pub layers: Vec<ledger::Layer>,
    /// Layers whose actors own a `WireStack`: their datagrams are the
    /// wire transmissions `wire.first_tx_frac` divides by.
    pub wire_senders: Vec<ledger::Layer>,
}

/// A workload after set-up, ready to be measured.
pub trait Bench {
    /// The engine.
    fn world(&mut self) -> &mut ShardedWorld;
    /// The virtual-time frame.
    fn frame(&self) -> &Frame;
    /// The request record.
    fn book(&self) -> &SharedBook;
    /// Virtual time advanced between wall-clock checks.
    fn slice(&self) -> SimDuration;
    /// Per-layer figures only this workload has, at the window's end.
    fn extras(&mut self) -> Extras;
    /// Stop traffic, let the system settle and run the output checks.
    /// Failures are recorded in the book.
    fn finish(&mut self);
}

/// Set one workload up (build, preload, warm up).
pub(crate) fn setup(cfg: &Config) -> Box<dyn Bench> {
    match cfg.workload {
        Workload::Resolve => Box::new(resolve::Resolve::setup(cfg)),
        Workload::Fetch => Box::new(fetch::Fetch::setup(cfg)),
        Workload::Spray => Box::new(spray::Spray::setup(cfg)),
        Workload::Spawn => Box::new(spawn::Spawn::setup(cfg)),
    }
}

/// Wall time per chunk of the window; host rates are the median over
/// chunks, so a burst of interference from outside the process moves
/// one chunk, not the result.
const CHUNK: Duration = Duration::from_millis(500);

/// Fewest prefix requests a full run reports percentiles over: p99
/// then has at least ten samples beyond it.
const MIN_PREFIX: usize = 1000;

/// Longest virtual time the window may run past the prefix waiting for
/// prefix requests to complete before the run is declared stuck.
const PREFIX_DRAIN_LIMIT: SimDuration = SimDuration::from_secs(120);

/// Run one configured benchmark.
pub fn run(cfg: &Config) -> Report {
    let mut setup_s = Vec::with_capacity(cfg.setups.max(1));
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..cfg.setups.max(1) {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(setup(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    measure(cfg, bench.as_mut(), setup_s)
}

fn measure(cfg: &Config, bench: &mut dyn Bench, setup_s: Vec<f64>) -> Report {
    let frame = bench.frame().clone();
    let slice = bench.slice();
    let threads = bench.world().threads().min(bench.world().regions()).max(1);
    let reg0 = bench.world().metrics_json(0);
    let completed0 = bench.book().lock().expect("book").completed;
    ledger::reset(cfg.trace);
    if cfg.trace {
        snipe_netsim::trace::enable(1024);
    }
    let cpu0 = report::process_cpu_ns();
    let wall0 = Instant::now();
    let mut in_engine = Duration::ZERO;
    let min_wall = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut stuck = false;
    let mut chunks = Vec::new();
    let mut chunk_start = (wall0, cpu0, completed0);
    // Peak memory once the fixed-work prefix is done: later growth
    // would scale with how far a faster or slower build got.
    let mut prefix_rss_mb = None;
    loop {
        let t = Instant::now();
        bench.world().run_for(slice);
        in_engine += t.elapsed();
        let now = bench.world().now();
        let book = bench.book().lock().expect("book");
        let t_now = Instant::now();
        if t_now - chunk_start.0 >= CHUNK {
            let cpu = report::process_cpu_ns();
            chunks.push(report::Chunk {
                wall: t_now - chunk_start.0,
                cpu_ns: cpu - chunk_start.1,
                completed: book.completed - chunk_start.2,
            });
            chunk_start = (t_now, cpu, book.completed);
        }
        let prefix_complete = now >= frame.prefix_end && book.prefix_done >= book.prefix_issued;
        if prefix_complete && prefix_rss_mb.is_none() {
            prefix_rss_mb = Some(report::peak_rss_mb());
        }
        if now < frame.prefix_end || t_now - wall0 < min_wall {
            continue;
        }
        if prefix_complete {
            break;
        }
        if now > frame.prefix_end + PREFIX_DRAIN_LIMIT {
            stuck = true;
            break;
        }
    }
    let wall = wall0.elapsed();
    let cpu = report::process_cpu_ns().saturating_sub(cpu0);
    let totals = ledger::totals();
    // The flight recorder is per thread: on one engine thread it saw
    // every retransmission the wire drivers recorded.
    let retransmits = (cfg.trace && threads == 1).then(|| {
        let kind = TraceKind::Retransmit { peer: 0, len: 0 }.tag();
        snipe_netsim::trace::kind_counts()[kind]
    });
    snipe_netsim::trace::disable();
    ledger::reset(false);
    let reg1 = bench.world().metrics_json(0);
    let extras = bench.extras();
    let vt_end = bench.world().now();
    let regions = {
        let world = bench.world();
        let hosts = world.topology().host_count();
        (0..hosts)
            .map(|h| world.partition().region_of_host(snipe_util::id::HostId::from_index(h)))
            .collect()
    };
    let digest = bench.world().digest();
    frame.stop_at.store(vt_end.as_nanos(), std::sync::atomic::Ordering::Relaxed);
    let window_book = {
        let b = bench.book().lock().expect("book");
        report::WindowBook {
            completed: b.completed - completed0,
            latencies: b.latencies.clone(),
            prefix_bytes: b.prefix_bytes,
        }
    };
    let peak_rss_mb = prefix_rss_mb.unwrap_or_else(report::peak_rss_mb);
    bench.finish();
    let book = bench.book().lock().expect("book");
    let mut errors = book.errors.clone();
    if stuck {
        errors.push(format!(
            "prefix never completed: {} of {} requests done",
            book.prefix_done, book.prefix_issued
        ));
    }
    if cfg.scale == Scale::Full && book.latencies.len() < MIN_PREFIX {
        errors.push(format!(
            "prefix holds {} requests; p99 needs at least {MIN_PREFIX}",
            book.latencies.len()
        ));
    }
    Report {
        workload: cfg.workload,
        trace: cfg.trace,
        threads,
        setup_s,
        wall,
        in_engine,
        cpu_ns: cpu,
        window: window_book,
        chunks,
        prefix: frame.prefix_end.since(frame.window_start),
        attempted: book.issued,
        failed: book.issued.saturating_sub(book.completed),
        errors,
        peak_rss_mb,
        reg0,
        reg1,
        totals,
        retransmits,
        extras,
        regions,
        vt_end,
        digest,
    }
}

/// Deterministic 64-bit mix (splitmix64), for deriving sub-seeds and
/// content bytes from the run seed.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `len` content bytes determined by `key` alone.
pub(crate) fn content(key: u64, len: usize) -> bytes::Bytes {
    let mut out = Vec::with_capacity(len + 8);
    let mut s = mix(key);
    while out.len() < len {
        s = mix(s);
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.truncate(len);
    bytes::Bytes::from(out)
}

/// Exponential inter-arrival gap of a Poisson process with `rate` per
/// virtual second.
pub(crate) fn poisson_gap(rng: &mut snipe_util::rng::Xoshiro256, rate: f64) -> SimDuration {
    SimDuration::from_secs_f64(rng.gen_exp(1.0 / rate))
}

/// The random stream of component `i` of kind `tag`. Mixing the seed
/// before adding `i` keeps every seed's set of streams distinct (a plain
/// `seed ^ i` hands seeds 0..8 the same eight streams, permuted).
pub(crate) fn stream(seed: u64, tag: u64, i: u64) -> snipe_util::rng::Xoshiro256 {
    snipe_util::rng::Xoshiro256::seed_from_u64(mix(mix(seed ^ tag).wrapping_add(i)))
}
