//! `resolve`: open-loop gets and puts against a sharded RCDS catalog.
//!
//! Shard groups of three `RcServerActor`s hold a preloaded catalog;
//! clients on separate clusters issue Poisson gets and puts through
//! `RcClient::with_shard_map(..).with_cache_ttl(..)` with Zipf name
//! popularity. Each name has one writer, which issues its next put only
//! after the previous one completed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use snipe_netsim::actor::{Event, PortableActor, SimCtx, TimerGate};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::ShardedWorld;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::shard::ShardMap;
use snipe_rcds::uri::Uri;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::ports;

use crate::ledger::{scope, Layer, Probe};
use crate::{mix, poisson_gap, stream, Bench, Config, Extras, Frame, Scale, SharedBook};

/// Sizes of one resolve run.
struct Params {
    names: usize,
    groups: usize,
    server_clusters: usize,
    clients: usize,
    client_clusters: usize,
    rate_per_client: f64,
    prefix: SimDuration,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                names: 100_000,
                groups: 96,
                server_clusters: 8,
                clients: 16,
                client_clusters: 4,
                rate_per_client: 250.0,
                prefix: SimDuration::from_millis(1500),
            },
            Scale::Small => Params {
                names: 3_000,
                groups: 4,
                server_clusters: 4,
                clients: 4,
                client_clusters: 2,
                rate_per_client: 250.0,
                prefix: SimDuration::from_millis(1200),
            },
        }
    }
}

/// Zipf exponent of name popularity.
const ZIPF_S: f64 = 1.0;
/// One request in this many is a put.
const PUT_EVERY: u64 = 10;
/// Client lookup-cache lifetime.
const CACHE_TTL: SimDuration = SimDuration::from_millis(200);
/// Client request timeout before replica failover.
const RC_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Anti-entropy interval of every replica.
const SYNC_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Replicas bootstrap the catalog by anti-entropy before traffic.
const TRAFFIC_START: SimTime = SimTime::from_nanos(3_000_000_000);
/// Client traffic before the window opens.
const WARM: SimDuration = SimDuration::from_millis(500);
/// Port every client listens on.
const CLIENT_PORT: u16 = 500;
/// Names carry up to this many padding bytes, drawn from the seed.
const NAME_PAD: u64 = 32;
/// The attribute every catalog entry carries.
const ATTR: &str = "val";

const T_ARRIVE: u64 = 1;
const T_RC: u64 = 2;

/// Read-mostly state every client shares.
struct Shared {
    salt: u64,
    uris: Vec<Uri>,
    zipf_cdf: Vec<f64>,
    perm: Vec<u32>,
    puts_issued: Vec<AtomicU32>,
    frame: Frame,
    book: SharedBook,
    gets: AtomicU64,
    cache_hits: AtomicU64,
    ops: AtomicU64,
    client_sends: AtomicU64,
}

impl Shared {
    fn preload_value(&self, name: u32) -> String {
        format!("p{name}-{:x}", self.salt)
    }

    fn put_value(&self, name: u32, k: u32) -> String {
        format!("w{name}-{k}-{:x}", self.salt)
    }

    /// Was `v` preloaded or put for `name`?
    fn value_ok(&self, name: u32, v: &str) -> bool {
        if v == self.preload_value(name) {
            return true;
        }
        let issued = self.puts_issued[name as usize].load(Ordering::Relaxed);
        let Some(rest) = v.strip_prefix(&format!("w{name}-")) else { return false };
        let Some((k, salt)) = rest.split_once('-') else { return false };
        matches!(k.parse::<u32>(), Ok(k) if k < issued) && salt == format!("{:x}", self.salt)
    }

    fn zipf(&self, rng: &mut Xoshiro256) -> u32 {
        let u = rng.gen_f64();
        let rank = self.zipf_cdf.partition_point(|&c| c < u).min(self.perm.len() - 1);
        self.perm[rank]
    }
}

enum Op {
    Get(u32),
    Put(u32),
}

/// One client: a Poisson generator over an `RcClient`.
struct Client {
    idx: u32,
    clients: u32,
    rate: f64,
    sh: Arc<Shared>,
    rc: RcClient,
    rc_gate: TimerGate,
    rng: Xoshiro256,
    next_arrival: SimTime,
    pending: HashMap<u64, (Op, SimTime)>,
    /// Names with a put in flight, and the arrivals of puts waiting
    /// behind it.
    writing: HashMap<u32, VecDeque<SimTime>>,
}

impl Client {
    fn arm_next(&mut self, ctx: &mut dyn SimCtx) {
        self.next_arrival += poisson_gap(&mut self.rng, self.rate);
        ctx.set_timer(self.next_arrival.saturating_since(ctx.now()), T_ARRIVE);
    }

    fn arrive(&mut self, ctx: &mut dyn SimCtx) {
        let at = self.next_arrival;
        let now = ctx.now();
        let counted = at >= self.sh.frame.window_start;
        self.sh.book.lock().expect("book").issue(&self.sh.frame, at);
        if counted {
            self.sh.ops.fetch_add(1, Ordering::Relaxed);
        }
        let name = self.sh.zipf(&mut self.rng);
        if self.rng.gen_range(PUT_EVERY) == 0 {
            // The writer of `name` is client `name % clients`: move to
            // the nearest name this client owns.
            let mut own = name - name % self.clients + self.idx;
            if own as usize >= self.sh.uris.len() {
                own -= self.clients;
            }
            match self.writing.get_mut(&own) {
                Some(queue) => queue.push_back(at),
                None => {
                    self.writing.insert(own, VecDeque::new());
                    self.start_put(now, own, at);
                }
            }
        } else {
            if counted {
                self.sh.gets.fetch_add(1, Ordering::Relaxed);
            }
            let uri = &self.sh.uris[name as usize];
            let rc = &mut self.rc;
            let id = scope(Layer::RcdsClient, || rc.get(now, uri));
            self.pending.insert(id, (Op::Get(name), at));
        }
    }

    fn start_put(&mut self, now: SimTime, name: u32, at: SimTime) {
        let k = self.sh.puts_issued[name as usize].fetch_add(1, Ordering::Relaxed);
        let a = Assertion::new(ATTR, self.sh.put_value(name, k));
        let uri = &self.sh.uris[name as usize];
        let rc = &mut self.rc;
        let id = scope(Layer::RcdsClient, || rc.put(now, uri, vec![a]));
        self.pending.insert(id, (Op::Put(name), at));
    }

    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        let rc = &mut self.rc;
        let done = scope(Layer::RcdsClient, || rc.drain_done());
        for (id, result) in done {
            let Some((op, at)) = self.pending.remove(&id) else { continue };
            let (ok, bytes, err) = match (&op, &result) {
                (Op::Get(name), Ok(reply)) => {
                    let v = reply.assertions.iter().find(|a| a.name == ATTR);
                    match v {
                        Some(a) if self.sh.value_ok(*name, &a.value) => {
                            (true, a.value.len() as u64, None)
                        }
                        other => (
                            false,
                            0,
                            Some(format!(
                                "get of name {name} returned {:?}",
                                other.map(|a| &a.value)
                            )),
                        ),
                    }
                }
                (Op::Put(_), Ok(reply)) if !reply.assertions.is_empty() => (true, 0, None),
                (Op::Put(name), Ok(_)) => {
                    (false, 0, Some(format!("put of name {name} stored nothing")))
                }
                (_, Err(e)) => (false, 0, Some(format!("request failed: {e}"))),
            };
            if let Op::Get(_) = op {
                if ok && now == at && at >= self.sh.frame.window_start {
                    self.sh.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            {
                let mut book = self.sh.book.lock().expect("book");
                book.complete(&self.sh.frame, at, now, ok, bytes);
                if let Some(e) = err {
                    book.error(e);
                }
            }
            if let Op::Put(name) = op {
                let next = self.writing.get_mut(&name).and_then(|q| q.pop_front());
                match next {
                    Some(next_at) => self.start_put(now, name, next_at),
                    None => {
                        self.writing.remove(&name);
                    }
                }
            }
        }
        // Sends last: a put queued behind one that just completed was
        // issued above.
        let rc = &mut self.rc;
        let sends = scope(Layer::RcdsClient, || rc.drain_sends());
        if now >= self.sh.frame.window_start {
            self.sh.client_sends.fetch_add(sends.len() as u64, Ordering::Relaxed);
        }
        for (to, bytes) in sends {
            ctx.send(to, seal(Proto::Raw, bytes));
        }
        if let Some(dl) = self.rc.next_deadline() {
            self.rc_gate.arm_at(ctx, dl + SimDuration::from_micros(1), T_RC);
        }
    }
}

impl PortableActor for Client {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                self.next_arrival = self.sh.frame.traffic_start;
                self.arm_next(ctx);
            }
            Event::Timer { token: T_ARRIVE } => {
                if !self.sh.frame.open(self.next_arrival) {
                    return;
                }
                self.arrive(ctx);
                self.pump(ctx);
                self.arm_next(ctx);
            }
            Event::Timer { token: T_RC } => {
                self.rc_gate.fired();
                let now = ctx.now();
                let rc = &mut self.rc;
                scope(Layer::RcdsClient, || rc.on_timer(now));
                self.pump(ctx);
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                if let Ok((Proto::Raw, body)) = open(payload) {
                    let rc = &mut self.rc;
                    scope(Layer::RcdsClient, || rc.on_packet(now, from, body));
                }
                self.pump(ctx);
            }
            _ => {}
        }
    }
}

/// A set-up resolve run.
pub struct Resolve {
    world: ShardedWorld,
    sh: Arc<Shared>,
    /// Replica endpoints per group.
    groups: Vec<Vec<Endpoint>>,
    map: ShardMap,
}

impl Resolve {
    /// Build the campus, preload the catalog on each group's first
    /// replica, let anti-entropy copy it to the others, and warm up.
    pub fn setup(cfg: &Config) -> Resolve {
        let p = Params::of(cfg.scale);
        let seed = cfg.seed;
        let mut topo = Topology::new();
        let server_hosts = p.groups * 3;
        let per_cluster = server_hosts.div_ceil(p.server_clusters);
        let mut servers: Vec<HostId> = Vec::new();
        for c in 0..p.server_clusters {
            // Clusters differ in latency, so replicas sit at different
            // distances from the clients.
            let mut medium = Medium::ethernet100();
            medium.latency = SimDuration::from_micros(50 + 30 * c as u64);
            let net = topo.add_network(format!("srv{c}"), medium, true);
            for i in 0..per_cluster {
                let h = topo.add_host(HostCfg::named(format!("s{c}h{i}")));
                topo.attach(h, net);
                servers.push(h);
            }
        }
        let mut clients: Vec<HostId> = Vec::new();
        let per_client_cluster = p.clients.div_ceil(p.client_clusters);
        for c in 0..p.client_clusters {
            let net = topo.add_network(format!("cli{c}"), Medium::ethernet100(), true);
            for i in 0..per_client_cluster {
                let h = topo.add_host(HostCfg::named(format!("k{c}h{i}")));
                topo.attach(h, net);
                clients.push(h);
            }
        }
        let threads = cfg.threads.unwrap_or(1);
        let mut world = ShardedWorld::new(topo, seed, threads);

        // Replica r of group g sits on server host r * groups + g, so a
        // group spans clusters.
        let groups: Vec<Vec<Endpoint>> = (0..p.groups)
            .map(|g| {
                (0..3).map(|r| Endpoint::new(servers[r * p.groups + g], ports::RC_SERVER)).collect()
            })
            .collect();
        let map = ShardMap::new(groups.clone());

        let salt = mix(seed ^ 0x7265_736f_6c76);
        let uris: Vec<Uri> = (0..p.names)
            .map(|i| {
                // Names differ in length, so datagrams differ in
                // transmission time and latencies spread continuously.
                let pad = (mix(salt ^ i as u64) % NAME_PAD) as usize;
                Uri::parse(format!("lifn:bench:{i}:{}", "x".repeat(pad))).expect("valid URI")
            })
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(mix(seed));
        let mut perm: Vec<u32> = (0..p.names as u32).collect();
        rng.shuffle(&mut perm);
        let mut zipf_cdf = Vec::with_capacity(p.names);
        let mut acc = 0.0;
        for i in 0..p.names {
            acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
            zipf_cdf.push(acc);
        }
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        let frame = Frame::new(TRAFFIC_START, WARM, p.prefix);
        let sh = Arc::new(Shared {
            salt,
            uris,
            zipf_cdf,
            perm,
            puts_issued: (0..p.names).map(|_| AtomicU32::new(0)).collect(),
            frame,
            book: SharedBook::default(),
            gets: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            client_sends: AtomicU64::new(0),
        });

        let mut replicas: Vec<Vec<RcServerActor>> = groups
            .iter()
            .enumerate()
            .map(|(g, eps)| {
                eps.iter()
                    .enumerate()
                    .map(|(r, ep)| {
                        let peers = eps.iter().copied().filter(|e| e != ep).collect();
                        RcServerActor::new((r * p.groups + g + 1) as u64, peers, SYNC_INTERVAL)
                            .with_shard(map.clone(), g)
                    })
                    .collect()
            })
            .collect();
        for (i, uri) in sh.uris.iter().enumerate() {
            let g = map.shard_of(uri.as_str());
            replicas[g][0].preload(uri, Assertion::new(ATTR, sh.preload_value(i as u32)));
        }
        for (eps, actors) in groups.iter().zip(replicas) {
            for (ep, actor) in eps.iter().zip(actors) {
                let probe = Probe::new(Layer::RcdsServer, actor).with_peer_port(ports::RC_SERVER);
                world.spawn_portable(ep.host, ep.port, probe.boxed()).expect("free port");
            }
        }
        for (i, &h) in clients.iter().enumerate() {
            let rc = RcClient::new(Vec::new(), RC_TIMEOUT)
                .with_shard_map(map.clone())
                .with_cache_ttl(CACHE_TTL);
            let client = Client {
                idx: i as u32,
                clients: p.clients as u32,
                rate: p.rate_per_client,
                sh: sh.clone(),
                rc,
                rc_gate: TimerGate::new(),
                rng: stream(seed, 0xC11E, i as u64),
                next_arrival: SimTime::ZERO,
                pending: HashMap::new(),
                writing: HashMap::new(),
            };
            world.spawn_portable(h, CLIENT_PORT, Probe::new(Layer::Bench, client).boxed());
        }
        world.run_until(sh.frame.window_start);
        Resolve { world, sh, groups, map }
    }

    fn store_of(&self, ep: Endpoint) -> &snipe_rcds::store::RcStore {
        self.world
            .portable_ref::<Probe<RcServerActor>>(ep)
            .expect("replica is running")
            .inner()
            .store()
    }
}

impl Bench for Resolve {
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
        SimDuration::from_millis(10)
    }
    fn extras(&mut self) -> Extras {
        let log_len: usize =
            self.groups.iter().flatten().map(|&ep| self.store_of(ep).log_len()).sum();
        let gets = self.sh.gets.load(Ordering::Relaxed).max(1) as f64;
        let hits = self.sh.cache_hits.load(Ordering::Relaxed) as f64;
        let ops = self.sh.ops.load(Ordering::Relaxed).max(1) as f64;
        Extras {
            values: vec![
                ("rcds.log_len", log_len as f64),
                ("rcds.cache_hits", hits),
                ("rcds.cache_hit_frac", hits / gets),
                ("rcds.sends_per_op", self.sh.client_sends.load(Ordering::Relaxed) as f64 / ops),
            ],
            layers: vec![Layer::RcdsClient, Layer::RcdsServer, Layer::Bench],
            wire_senders: Vec::new(),
        }
    }

    /// Let in-flight requests finish and anti-entropy settle, then check
    /// that every replica of each written name's group holds the
    /// writer's last value.
    fn finish(&mut self) {
        self.world.run_for(SimDuration::from_secs(2));
        self.world.run_for(SYNC_INTERVAL * 20);
        let mut errors = Vec::new();
        for (name, issued) in self.sh.puts_issued.iter().enumerate() {
            let issued = issued.load(Ordering::Relaxed);
            if issued == 0 {
                continue;
            }
            let uri = &self.sh.uris[name];
            let want = self.sh.put_value(name as u32, issued - 1);
            let g = self.map.shard_of(uri.as_str());
            for &ep in &self.groups[g] {
                let got = self.store_of(ep).get_one(uri, ATTR).map(|a| a.value.clone());
                if got.as_deref() != Some(want.as_str()) {
                    errors.push(format!(
                        "replica {ep:?} holds {got:?} for name {name}, writer's last is {want}"
                    ));
                }
            }
        }
        let mut book = self.sh.book.lock().expect("book");
        for e in errors {
            book.error(e);
        }
    }
}
