//! `spray`: the bulk transfer of Fig. 1, FEC-coded and sprayed.
//!
//! Sender/receiver pairs are dual-homed on three lossy routable WANs.
//! Each pair owns `WireStack`s with `FragStrategy::Fec`, so messages
//! larger than one fragment go out as `2b-1` Reed-Solomon shares spread
//! over distinct paths. Each flow is a closed loop: a fixed window of
//! messages in flight, the next sent when the receiver acknowledges one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use snipe_netsim::actor::{Event, PortableActor, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::ShardedWorld;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_util::id::NetId;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::fec::FragStrategy;
use snipe_wire::srudp::NodeKey;
use snipe_wire::stack::{endpoint_key, StackConfig, WireStack};

use crate::ledger::{Layer, Probe};
use crate::wire::{Delivery, Wire};
use crate::{content, mix, Bench, Config, Extras, Frame, Scale, SharedBook};

struct Params {
    flows: usize,
    window: u64,
    prefix: SimDuration,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params { flows: 6, window: 6, prefix: SimDuration::from_secs(40) },
            Scale::Small => Params { flows: 2, window: 4, prefix: SimDuration::from_secs(3) },
        }
    }
}

/// `(one-way latency ms, loss)` of each WAN.
const WANS: [(u64, f64); 3] = [(20, 0.01), (35, 0.02), (50, 0.03)];
/// Message sizes cycle through a ladder of this many (a power of two).
const LADDER: usize = 64;
/// Share of the ladder below one fragment (sent uncoded).
const SMALL_SHARE: f64 = 0.2;
/// Coded message sizes are log-uniform between these.
const MIN_CODED: f64 = 2.0 * 1024.0;
const MAX_CODED: f64 = 48.0 * 1024.0;
/// Message header: flow (u32), seq (u64), issue time (u64).
const HEADER: usize = 20;
const TRAFFIC_START: SimTime = SimTime::from_nanos(100_000_000);
const WARM: SimDuration = SimDuration::from_secs(1);
const PORT: u16 = 20;
const T_STACK: u64 = 1;
const T_START: u64 = 2;

struct Shared {
    seed: u64,
    frag_size: usize,
    frame: Frame,
    book: SharedBook,
    fec_delivered: AtomicU64,
}

impl Shared {
    /// Body length of message `seq` of `flow`. Every run of
    /// [`LADDER`] consecutive messages of a flow sends each ladder size
    /// once, in an order drawn from the seed, so every seed offers the
    /// same mix of sizes.
    fn size(&self, flow: u32, seq: u64) -> usize {
        let n = LADDER as u64;
        let r = mix(self.seed ^ ((flow as u64) << 48) ^ (seq / n));
        // An odd multiplier makes `i -> a*i + b` a permutation mod 64.
        let (a, b) = ((r | 1) % n, (r >> 32) % n);
        let i = ((a * (seq % n) + b) % n) as usize;
        let small = (LADDER as f64 * SMALL_SHARE) as usize;
        if i < small {
            64 + i * (self.frag_size - HEADER - 64) / small
        } else {
            let v = (i - small) as f64 / (LADDER - small - 1) as f64;
            (MIN_CODED * (MAX_CODED / MIN_CODED).powf(v)) as usize
        }
    }

    fn body(&self, flow: u32, seq: u64) -> Bytes {
        content(self.seed ^ ((flow as u64) << 40) ^ seq.rotate_left(17), self.size(flow, seq))
    }
}

fn stack_for(ctx: &dyn SimCtx, peer: Endpoint, wans: &[NetId]) -> Wire {
    let mut cfg = StackConfig::default();
    cfg.srudp.frag_strategy = FragStrategy::Fec;
    let mut stack = WireStack::new(endpoint_key(ctx.me()), cfg);
    stack.set_peer(endpoint_key(peer), peer, wans.to_vec());
    Wire::new(stack, T_STACK)
}

struct Sender {
    sh: Arc<Shared>,
    flow: u32,
    peer: Endpoint,
    wans: Vec<NetId>,
    window: u64,
    next_seq: u64,
    wire: Option<Wire>,
}

impl Sender {
    fn issue(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        if !self.sh.frame.open(now) {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let body = self.sh.body(self.flow, seq);
        let mut msg = Vec::with_capacity(HEADER + body.len());
        msg.extend_from_slice(&self.flow.to_le_bytes());
        msg.extend_from_slice(&seq.to_le_bytes());
        msg.extend_from_slice(&now.as_nanos().to_le_bytes());
        msg.extend_from_slice(&body);
        self.sh.book.lock().expect("book").issue(&self.sh.frame, now);
        let wire = self.wire.as_mut().expect("started");
        wire.send(now, endpoint_key(self.peer), Bytes::from(msg));
    }
}

impl PortableActor for Sender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        let mut acks: Vec<Delivery> = Vec::new();
        match event {
            Event::Start => {
                self.wire = Some(stack_for(ctx, self.peer, &self.wans));
                ctx.set_timer(self.sh.frame.traffic_start.saturating_since(now), T_START);
                return;
            }
            Event::Timer { token: T_START } => {
                for _ in 0..self.window {
                    self.issue(ctx);
                }
            }
            Event::Timer { token: T_STACK } => self.wire.as_mut().expect("started").on_timer(now),
            Event::Packet { from, payload } => {
                self.wire.as_mut().expect("started").on_datagram(now, from, payload);
            }
            _ => return,
        }
        self.wire.as_mut().expect("started").flush(ctx, &mut acks);
        if !acks.is_empty() {
            for _ in 0..acks.len() {
                self.issue(ctx);
            }
            self.wire.as_mut().expect("started").flush(ctx, &mut acks);
        }
    }
}

struct Receiver {
    sh: Arc<Shared>,
    flow: u32,
    peer: Endpoint,
    wans: Vec<NetId>,
    wire: Option<Wire>,
    /// Next sequence number expected (SRUDP delivers FIFO).
    expect: u64,
}

impl Receiver {
    /// Every (flow, seq) must arrive exactly once, in order, with the
    /// generator's bytes; each is acknowledged to the sender.
    fn deliver(&mut self, ctx: &mut dyn SimCtx, from: NodeKey, msg: Bytes) {
        let now = ctx.now();
        let parsed = (msg.len() >= HEADER).then(|| {
            let flow = u32::from_le_bytes(msg[0..4].try_into().expect("4 bytes"));
            let seq = u64::from_le_bytes(msg[4..12].try_into().expect("8 bytes"));
            let at = u64::from_le_bytes(msg[12..20].try_into().expect("8 bytes"));
            (flow, seq, SimTime::from_nanos(at))
        });
        let Some((flow, seq, at)) = parsed else {
            let mut book = self.sh.book.lock().expect("book");
            book.error(format!(
                "flow {} delivered a {}-byte fragment of a header",
                self.flow,
                msg.len()
            ));
            return;
        };
        let ok =
            flow == self.flow && seq == self.expect && msg[HEADER..] == self.sh.body(flow, seq)[..];
        if msg.len() > self.sh.frag_size {
            self.sh.fec_delivered.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut book = self.sh.book.lock().expect("book");
            book.complete(&self.sh.frame, at, now, ok, (msg.len() - HEADER) as u64);
            if !ok {
                book.error(format!(
                    "flow {} expected seq {}, got flow {flow} seq {seq} ({} bytes)",
                    self.flow,
                    self.expect,
                    msg.len()
                ));
            }
        }
        self.expect = self.expect.max(seq + 1);
        let wire = self.wire.as_mut().expect("started");
        wire.send(now, from, Bytes::copy_from_slice(&seq.to_le_bytes()));
    }
}

impl PortableActor for Receiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start => {
                self.wire = Some(stack_for(ctx, self.peer, &self.wans));
                return;
            }
            Event::Timer { token: T_STACK } => self.wire.as_mut().expect("started").on_timer(now),
            Event::Packet { from, payload } => {
                self.wire.as_mut().expect("started").on_datagram(now, from, payload);
            }
            _ => return,
        }
        let mut delivered = Vec::new();
        self.wire.as_mut().expect("started").flush(ctx, &mut delivered);
        if !delivered.is_empty() {
            for (key, _, msg) in delivered.drain(..) {
                self.deliver(ctx, key, msg);
            }
            self.wire.as_mut().expect("started").flush(ctx, &mut delivered);
        }
    }
}

/// A set-up spray run.
pub struct Spray {
    world: ShardedWorld,
    sh: Arc<Shared>,
}

impl Spray {
    /// Build the dual-homed pairs and warm the flows up.
    pub fn setup(cfg: &Config) -> Spray {
        let p = Params::of(cfg.scale);
        let mut topo = Topology::new();
        let wans: Vec<NetId> = WANS
            .iter()
            .enumerate()
            .map(|(i, &(ms, loss))| {
                let mut m = Medium::wan_lossy(loss);
                m.latency = SimDuration::from_millis(ms);
                topo.add_network(format!("wan{i}"), m, true)
            })
            .collect();
        let mut pairs = Vec::new();
        for f in 0..p.flows {
            let a = topo.add_host(HostCfg::named(format!("tx{f}")));
            let b = topo.add_host(HostCfg::named(format!("rx{f}")));
            for &n in &wans {
                topo.attach(a, n);
                topo.attach(b, n);
            }
            pairs.push((Endpoint::new(a, PORT), Endpoint::new(b, PORT)));
        }
        let mut world = ShardedWorld::new(topo, cfg.seed, cfg.threads.unwrap_or(1));
        let sh = Arc::new(Shared {
            seed: mix(cfg.seed ^ 0x0073_7072_6179),
            frag_size: StackConfig::default().srudp.frag_size,
            frame: Frame::new(TRAFFIC_START, WARM, p.prefix),
            book: SharedBook::default(),
            fec_delivered: AtomicU64::new(0),
        });
        for (f, &(tx, rx)) in pairs.iter().enumerate() {
            let receiver = Receiver {
                sh: sh.clone(),
                flow: f as u32,
                peer: tx,
                wans: wans.clone(),
                wire: None,
                expect: 0,
            };
            world.spawn_portable(rx.host, rx.port, Probe::new(Layer::Bench, receiver).boxed());
            let sender = Sender {
                sh: sh.clone(),
                flow: f as u32,
                peer: rx,
                wans: wans.clone(),
                window: p.window,
                next_seq: 0,
                wire: None,
            };
            world.spawn_portable(tx.host, tx.port, Probe::new(Layer::Bench, sender).boxed());
        }
        world.run_until(sh.frame.window_start);
        sh.fec_delivered.store(0, Ordering::Relaxed);
        Spray { world, sh }
    }
}

impl Bench for Spray {
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
        Extras {
            values: vec![(
                "wire.fec_delivered",
                self.sh.fec_delivered.load(Ordering::Relaxed) as f64,
            )],
            layers: vec![
                Layer::WireSend,
                Layer::WireDatagram,
                Layer::WireTimer,
                Layer::WireDrain,
                Layer::Bench,
            ],
            wire_senders: vec![Layer::Bench],
        }
    }
    fn finish(&mut self) {
        // Senders stopped issuing when the window closed; let the
        // messages in flight land.
        self.world.run_for(SimDuration::from_secs(10));
    }
}
