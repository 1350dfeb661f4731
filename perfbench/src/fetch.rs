//! `fetch`: open-loop whole-file reads striped over ranked replicas.
//!
//! Three `FileServerActor` replicas, each behind a network of a
//! different latency with light loss, hold preloaded files of one to
//! many stripes. Each Poisson arrival spawns one fetcher, which runs
//! `StripedFetch` over its own `WireStack` exactly as `FetchActor`
//! does, checks the assembled file, lingers to acknowledge the last
//! data and exits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use snipe_files::fetch::{rank_replicas, StripedFetch};
use snipe_files::proto::FileMsg;
use snipe_files::{FileServerActor, FileServerConfig};
use snipe_netsim::actor::{Event, PortableActor, SimCtx, TimerGate};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::ShardedWorld;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::ports;
use snipe_wire::stack::{endpoint_key, StackConfig, WireStack};

use crate::ledger::{scope, Layer, Probe};
use crate::wire::Wire;
use crate::{content, mix, poisson_gap, stream, Bench, Config, Extras, Frame, Scale, SharedBook};

struct Params {
    files: usize,
    clients: usize,
    rate_per_client: f64,
    prefix: SimDuration,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                files: 48,
                clients: 4,
                rate_per_client: 15.0,
                prefix: SimDuration::from_secs(30),
            },
            Scale::Small => Params {
                files: 12,
                clients: 2,
                rate_per_client: 15.0,
                prefix: SimDuration::from_secs(4),
            },
        }
    }
}

/// Bytes per stripe.
const STRIPE: u32 = 16 * 1024;
/// File sizes are log-spaced between these.
const MIN_FILE: f64 = 2.0 * 1024.0;
const MAX_FILE: f64 = 256.0 * 1024.0;
/// One-way latency of each replica's network.
const REPLICA_LATENCY_US: [u64; 3] = [100, 400, 1200];
/// Loss on each replica's network.
const REPLICA_LOSS: f64 = 0.002;
/// Per-stripe timeout before straggler re-dispatch.
const STRIPE_TIMEOUT: SimDuration = SimDuration::from_millis(400);
/// A finished fetcher stays this long to acknowledge the last data.
const LINGER: SimDuration = SimDuration::from_millis(50);
const TRAFFIC_START: SimTime = SimTime::from_nanos(200_000_000);
const WARM: SimDuration = SimDuration::from_secs(1);
const GEN_PORT: u16 = 500;

const T_ARRIVE: u64 = 1;
const T_STACK: u64 = 2;
const T_FETCH: u64 = 3;
const T_EXIT: u64 = 4;

struct Shared {
    files: Vec<(String, Bytes)>,
    replicas: Vec<Endpoint>,
    frame: Frame,
    book: SharedBook,
    stripes: AtomicU64,
    requests: AtomicU64,
}

/// Issues Poisson arrivals, each spawning a [`Fetcher`].
struct Generator {
    sh: Arc<Shared>,
    rng: Xoshiro256,
    /// Files still to request in this cycle.
    order: Vec<usize>,
    rate: f64,
    next_arrival: SimTime,
}

impl PortableActor for Generator {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => self.next_arrival = self.sh.frame.traffic_start,
            Event::Timer { token: T_ARRIVE } => {
                let at = self.next_arrival;
                if !self.sh.frame.open(at) {
                    return;
                }
                if self.order.is_empty() {
                    // Each cycle requests every file once, in a seeded
                    // order, so every seed reads the same mix of sizes.
                    self.order = (0..self.sh.files.len()).collect();
                    self.rng.shuffle(&mut self.order);
                }
                let file = self.order.pop().expect("refilled above");
                self.sh.book.lock().expect("book").issue(&self.sh.frame, at);
                let host = ctx.host();
                let port = ctx.alloc_port(host);
                let fetcher = Fetcher {
                    sh: self.sh.clone(),
                    file,
                    at,
                    wire: None,
                    fetch: None,
                    gate: TimerGate::new(),
                    finished: false,
                    requests: 0,
                };
                ctx.spawn_portable(host, port, Probe::new(Layer::Bench, fetcher).boxed())
                    .expect("allocated port is free");
            }
            _ => return,
        }
        self.next_arrival += poisson_gap(&mut self.rng, self.rate);
        ctx.set_timer(self.next_arrival.saturating_since(ctx.now()), T_ARRIVE);
    }
}

/// One whole-file fetch.
struct Fetcher {
    sh: Arc<Shared>,
    file: usize,
    at: SimTime,
    wire: Option<Wire>,
    fetch: Option<StripedFetch>,
    gate: TimerGate,
    finished: bool,
    /// Stripe requests this fetch sent, re-dispatches included.
    requests: u64,
}

impl Fetcher {
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        let (Some(wire), Some(fetch)) = (self.wire.as_mut(), self.fetch.as_mut()) else { return };
        let mut delivered = Vec::new();
        loop {
            let stack = &wire.stack;
            let sends = scope(Layer::FilesFetch, || {
                fetch.rank_hint(rank_replicas(stack, &self.sh.replicas));
                fetch.drain_outbox()
            });
            let had_sends = !sends.is_empty();
            self.requests += sends.len() as u64;
            for (to, msg) in sends {
                wire.send(now, endpoint_key(to), msg.encode_to_bytes());
            }
            delivered.clear();
            wire.flush(ctx, &mut delivered);
            let had_deliveries = !delivered.is_empty();
            for (_, from, msg) in delivered.drain(..) {
                scope(Layer::FilesFetch, || {
                    if let Ok(m) = FileMsg::decode_from_bytes(msg) {
                        fetch.on_msg(now, from, m);
                    }
                });
            }
            if !had_sends && !had_deliveries {
                break;
            }
        }
        if let Some(dl) = fetch.next_deadline() {
            self.gate.arm_at(ctx, dl + SimDuration::from_micros(1), T_FETCH);
        }
        if !self.finished && fetch.done() {
            self.finished = true;
            self.check(ctx);
            ctx.set_timer(LINGER, T_EXIT);
        }
    }

    /// The file must equal the generator's bytes, and every stripe must
    /// have completed exactly once.
    fn check(&mut self, ctx: &mut dyn SimCtx) {
        let fetch = self.fetch.as_ref().expect("started");
        let (name, want) = &self.sh.files[self.file];
        let stripes = (want.len() as u32).div_ceil(STRIPE).max(1);
        let mut seen = fetch.completions.clone();
        seen.sort_unstable();
        let exactly_once = seen.iter().copied().eq(0..stripes);
        let err = match fetch.result() {
            _ if fetch.is_failed() => Some(format!("fetch of {name} gave up")),
            Some(got) if got == want && exactly_once => None,
            Some(got) if got != want => Some(format!("fetch of {name} returned wrong bytes")),
            Some(_) => Some(format!("fetch of {name} completed stripes {seen:?}")),
            None => Some(format!("fetch of {name} ended without a result")),
        };
        self.sh.stripes.fetch_add(fetch.completions.len() as u64, Ordering::Relaxed);
        self.sh.requests.fetch_add(self.requests, Ordering::Relaxed);
        let mut book = self.sh.book.lock().expect("book");
        book.complete(&self.sh.frame, self.at, ctx.now(), err.is_none(), want.len() as u64);
        if let Some(e) = err {
            book.error(e);
        }
    }
}

impl PortableActor for Fetcher {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start => {
                let mut stack = WireStack::new(endpoint_key(ctx.me()), StackConfig::default());
                for &peer in &self.sh.replicas {
                    stack.set_peer(endpoint_key(peer), peer, vec![]);
                }
                let lifn = self.sh.files[self.file].0.clone();
                let replicas = &self.sh.replicas;
                let fetch = scope(Layer::FilesFetch, || {
                    let ranked = rank_replicas(&stack, replicas);
                    let mut fetch = StripedFetch::new(lifn, ranked, STRIPE, STRIPE_TIMEOUT);
                    fetch.start(now);
                    fetch
                });
                self.wire = Some(Wire::new(stack, T_STACK));
                self.fetch = Some(fetch);
            }
            Event::Packet { from, payload } => {
                if let Some(wire) = self.wire.as_mut() {
                    wire.on_datagram(now, from, payload);
                }
            }
            Event::Timer { token: T_STACK } => {
                if let Some(wire) = self.wire.as_mut() {
                    wire.on_timer(now);
                }
            }
            Event::Timer { token: T_FETCH } => {
                self.gate.fired();
                if let Some(fetch) = self.fetch.as_mut() {
                    scope(Layer::FilesFetch, || fetch.on_timer(now));
                }
            }
            Event::Timer { token: T_EXIT } => {
                let me = ctx.me();
                ctx.kill(me);
                return;
            }
            _ => return,
        }
        self.pump(ctx);
    }
}

/// A set-up fetch run.
pub struct Fetch {
    world: ShardedWorld,
    sh: Arc<Shared>,
}

impl Fetch {
    /// Build the replicas and clients, preload the files and warm up.
    pub fn setup(cfg: &Config) -> Fetch {
        let p = Params::of(cfg.scale);
        let seed = cfg.seed;
        let mut topo = Topology::new();
        let mut server_hosts: Vec<HostId> = Vec::new();
        for (i, &lat) in REPLICA_LATENCY_US.iter().enumerate() {
            let mut medium = Medium::ethernet100();
            medium.latency = SimDuration::from_micros(lat);
            medium.loss = REPLICA_LOSS;
            let net = topo.add_network(format!("fs{i}"), medium, true);
            let h = topo.add_host(HostCfg::named(format!("fs{i}")));
            topo.attach(h, net);
            server_hosts.push(h);
        }
        let cli = topo.add_network("clients", Medium::ethernet100(), true);
        let clients: Vec<HostId> = (0..p.clients)
            .map(|i| {
                let h = topo.add_host(HostCfg::named(format!("c{i}")));
                topo.attach(h, cli);
                h
            })
            .collect();
        let mut world = ShardedWorld::new(topo, seed, cfg.threads.unwrap_or(1));

        // Sizes are a fixed log-spaced ladder; the seed decides which
        // name holds which size and every file's bytes.
        let mut rng = Xoshiro256::seed_from_u64(mix(seed ^ 0x6669_6c65));
        let mut ladder: Vec<usize> = (0..p.files).collect();
        rng.shuffle(&mut ladder);
        let files: Vec<(String, Bytes)> = ladder
            .iter()
            .enumerate()
            .map(|(i, &rank)| {
                // A few percent of seeded jitter keeps latencies from
                // collapsing onto a handful of exact values.
                let v = rank as f64 / (p.files - 1) as f64;
                let size = MIN_FILE * (MAX_FILE / MIN_FILE).powf(v) * (1.0 + 0.05 * rng.gen_f64());
                (format!("lifn:bench:file{i}"), content(mix(seed) ^ i as u64, size as usize))
            })
            .collect();
        let replicas: Vec<Endpoint> =
            server_hosts.iter().map(|&h| Endpoint::new(h, ports::FILE_SERVER)).collect();
        for &ep in &replicas {
            let mut fs = FileServerActor::new(FileServerConfig::new(
                format!("fs{}", ep.host.0),
                Vec::new(),
                Vec::new(),
            ));
            for (name, bytes) in &files {
                fs.preload(name.clone(), bytes.clone());
            }
            world
                .spawn_portable(ep.host, ep.port, Probe::new(Layer::FilesServer, fs).boxed())
                .expect("free port");
        }
        let frame = Frame::new(TRAFFIC_START, WARM, p.prefix);
        let sh = Arc::new(Shared {
            files,
            replicas,
            frame,
            book: SharedBook::default(),
            stripes: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        for (i, &h) in clients.iter().enumerate() {
            let generator = Generator {
                sh: sh.clone(),
                rng: stream(seed, 0xF37C, i as u64),
                order: Vec::new(),
                rate: p.rate_per_client,
                next_arrival: SimTime::ZERO,
            };
            world.spawn_portable(h, GEN_PORT, Probe::new(Layer::Bench, generator).boxed());
        }
        world.run_until(sh.frame.window_start);
        sh.stripes.store(0, Ordering::Relaxed);
        sh.requests.store(0, Ordering::Relaxed);
        Fetch { world, sh }
    }
}

impl Bench for Fetch {
    fn world(&mut self) -> &mut ShardedWorld {
        &mut self.world
    }
    fn frame(&self) -> &Frame {
        &self.sh.frame
    }
    fn book(&self) -> &SharedBook {
        &self.sh.book
    }
    fn slice(&self) -> SimDuration {
        SimDuration::from_millis(50)
    }
    fn extras(&mut self) -> Extras {
        let stripes = self.sh.stripes.load(Ordering::Relaxed);
        let requests = self.sh.requests.load(Ordering::Relaxed);
        Extras {
            values: vec![
                ("files.stripes", stripes as f64),
                ("files.stripe_timeouts", requests.saturating_sub(stripes) as f64),
            ],
            layers: vec![
                Layer::WireSend,
                Layer::WireDatagram,
                Layer::WireTimer,
                Layer::WireDrain,
                Layer::FilesFetch,
                Layer::FilesServer,
                Layer::Bench,
            ],
            wire_senders: vec![Layer::Bench, Layer::FilesServer],
        }
    }
    fn finish(&mut self) {
        // Let in-flight fetches finish (stragglers included).
        self.world.run_for(SimDuration::from_secs(5));
    }
}
