//! `spawn`: open-loop process spawns through the resource manager.
//!
//! The roster of `SnipeWorldBuilder::campus(..)` (an RC replica on the
//! first cluster head, a daemon on every host, the resource manager on
//! cluster 0; file servers are left out, the workload never touches
//! them), assembled here so every actor runs inside a probe. Root
//! processes issue Poisson spawns through the resource manager; each
//! child computes a function of its arguments, resolves its parent
//! through RCDS, sends the result over SRUDP and exits.
//!
//! The engine runs one worker thread unless `--threads` says otherwise:
//! at two threads the barrier rounds make the host rate both several
//! times lower and dependent on how the machine schedules the threads
//! (README.md has the figures), which no bound could hold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use snipe_core::actor::{ProcessActor, ProcessConfig};
use snipe_core::api::{ProcRef, SnipeApi, SnipeProcess, SpawnTarget, TicketResult};
use snipe_daemon::proto::TaskState;
use snipe_daemon::registry::ProgramRegistry;
use snipe_daemon::{DaemonActor, DaemonConfig};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::ShardedWorld;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_rcds::server::RcServerActor;
use snipe_rm::{RmActor, RmConfig};
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::ports;

use crate::ledger::{scope, Layer, Probe};
use crate::{mix, poisson_gap, stream, Bench, Config, Extras, Frame, Scale, SharedBook};

struct Params {
    clusters: usize,
    per_cluster: usize,
    roots: usize,
    rate_per_root: f64,
    prefix: SimDuration,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                clusters: 4,
                per_cluster: 8,
                roots: 8,
                rate_per_root: 25.0,
                prefix: SimDuration::from_secs(8),
            },
            Scale::Small => Params {
                clusters: 2,
                per_cluster: 4,
                roots: 2,
                rate_per_root: 25.0,
                prefix: SimDuration::from_secs(4),
            },
        }
    }
}

/// Spawn arguments carry up to this many padding bytes.
const ARG_PAD: u64 = 256;
/// Rounds of mixing a child performs on its argument.
const WORK_ROUNDS: u32 = 256;
/// RC replicas. The campus roster has three, but with three the
/// anti-entropy cost grows with every registration (each `SyncReq`
/// rescans the whole update log) and the workload's throughput decays
/// through the window; one replica keeps the process plane in front.
const RC_REPLICAS: usize = 1;
/// RC anti-entropy interval (the builder's default).
const SYNC_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Daemons register and the RM learns the hosts before traffic.
const TRAFFIC_START: SimTime = SimTime::from_nanos(3_000_000_000);
const WARM: SimDuration = SimDuration::from_secs(1);
const ROOT_PROGRAM: &str = "bench-root";
const CHILD_PROGRAM: &str = "bench-child";
const T_ARRIVE: u64 = 1;

/// The child's result: a function of its request id, computed by the
/// child and, independently, by the checker.
pub fn child_result(n: u64) -> u64 {
    (0..WORK_ROUNDS).fold(n, |acc, i| mix(acc ^ i as u64))
}

struct Shared {
    frame: Frame,
    book: SharedBook,
    /// Endpoint of every child that started.
    children: Mutex<Vec<Endpoint>>,
    spawns: AtomicU64,
}

/// Charges a hosted application's callbacks to the `core.app` row.
struct Timed<P>(P);

impl<P: SnipeProcess> SnipeProcess for Timed<P> {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        scope(Layer::CoreApp, || self.0.on_start(api));
    }
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, msg: Bytes) {
        scope(Layer::CoreApp, || self.0.on_message(api, from, msg));
    }
    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, ticket: u64, result: TicketResult) {
        scope(Layer::CoreApp, || self.0.on_ticket(api, ticket, result));
    }
    fn on_task_event(&mut self, api: &mut SnipeApi<'_, '_>, proc_key: u64, state: TaskState) {
        scope(Layer::CoreApp, || self.0.on_task_event(api, proc_key, state));
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, token: u64) {
        scope(Layer::CoreApp, || self.0.on_timer(api, token));
    }
    fn on_signal(&mut self, api: &mut SnipeApi<'_, '_>, signum: u32) {
        scope(Layer::CoreApp, || self.0.on_signal(api, signum));
    }
}

/// Issues Poisson spawns and checks the replies.
struct Root {
    sh: Arc<Shared>,
    idx: u64,
    rng: Xoshiro256,
    rate: f64,
    next_arrival: SimTime,
    next_n: u64,
    /// Request id → scheduled arrival, until its reply lands.
    pending: HashMap<u64, SimTime>,
    /// Spawn ticket → request id, until the spawn is acknowledged.
    tickets: HashMap<u64, u64>,
}

impl Root {
    fn arm(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.next_arrival += poisson_gap(&mut self.rng, self.rate);
        api.set_timer(self.next_arrival.saturating_since(api.now()), T_ARRIVE);
    }
}

impl SnipeProcess for Root {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.next_arrival = self.sh.frame.traffic_start;
        self.arm(api);
    }

    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        let at = self.next_arrival;
        if !self.sh.frame.open(at) {
            return;
        }
        let n = (self.idx << 40) | self.next_n;
        self.next_n += 1;
        let mut args = api.my_key().to_le_bytes().to_vec();
        args.extend_from_slice(&n.to_le_bytes());
        // Arguments differ in length, so spawn requests differ in
        // transmission time and latencies spread continuously.
        args.resize(16 + (mix(n) % ARG_PAD) as usize, 0);
        let ticket = api.spawn(SpawnTarget::ResourceManager, CHILD_PROGRAM, args);
        self.tickets.insert(ticket, n);
        self.pending.insert(n, at);
        self.sh.book.lock().expect("book").issue(&self.sh.frame, at);
        self.arm(api);
    }

    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, ticket: u64, result: TicketResult) {
        let Some(n) = self.tickets.remove(&ticket) else { return };
        if let TicketResult::Spawned(Err(e)) = result {
            let at = self.pending.remove(&n).expect("pending spawn");
            let mut book = self.sh.book.lock().expect("book");
            book.complete(&self.sh.frame, at, api.now(), false, 0);
            book.error(format!("spawn {n:#x} failed: {e}"));
        }
    }

    /// Every reply must answer a pending spawn exactly once with the
    /// function of its argument.
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, _from: ProcRef, msg: Bytes) {
        let mut book = self.sh.book.lock().expect("book");
        if msg.len() != 16 {
            book.error(format!("reply of {} bytes", msg.len()));
            return;
        }
        let n = u64::from_le_bytes(msg[0..8].try_into().expect("8 bytes"));
        let r = u64::from_le_bytes(msg[8..16].try_into().expect("8 bytes"));
        let Some(at) = self.pending.remove(&n) else {
            book.error(format!("reply for {n:#x}, which is not pending"));
            return;
        };
        let ok = r == child_result(n);
        book.complete(&self.sh.frame, at, api.now(), ok, 16);
        if !ok {
            book.error(format!("child {n:#x} replied {r:#x}"));
        }
    }
}

/// Computes its result, resolves its parent, replies and exits.
struct Child {
    sh: Arc<Shared>,
    parent: u64,
    n: u64,
    lookup: u64,
}

impl SnipeProcess for Child {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        self.sh.children.lock().expect("children").push(api.my_endpoint());
        self.sh.spawns.fetch_add(1, Ordering::Relaxed);
        self.lookup = api.lookup(self.parent);
    }

    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, ticket: u64, result: TicketResult) {
        if ticket != self.lookup {
            return;
        }
        if let TicketResult::Lookup(Ok(parent)) = result {
            let mut reply = self.n.to_le_bytes().to_vec();
            reply.extend_from_slice(&child_result(self.n).to_le_bytes());
            api.send(parent.key, reply);
        }
        api.exit();
    }
}

/// A set-up spawn run.
pub struct Spawn {
    world: ShardedWorld,
    sh: Arc<Shared>,
    rc_eps: Vec<Endpoint>,
}

impl Spawn {
    /// Build the campus roster, let daemons register and the RM learn
    /// the hosts, start the roots and warm up.
    pub fn setup(cfg: &Config) -> Spawn {
        let p = Params::of(cfg.scale);
        let mut topo = Topology::new();
        let mut heads = Vec::new();
        let mut hosts: Vec<HostId> = Vec::new();
        for c in 0..p.clusters {
            let net = topo.add_network(format!("cluster{c}"), Medium::ethernet100(), true);
            for i in 0..p.per_cluster {
                let h = topo.add_host(HostCfg::named(format!("c{c}h{i}")));
                topo.attach(h, net);
                if i == 0 {
                    heads.push(h);
                }
                hosts.push(h);
            }
        }
        let names: Vec<String> = hosts.iter().map(|&h| topo.host(h).name.clone()).collect();
        let mut world = ShardedWorld::new(topo, cfg.seed, cfg.threads.unwrap_or(1));
        let rc_eps: Vec<Endpoint> =
            heads.iter().take(RC_REPLICAS).map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
        let rm_ep = Endpoint::new(heads[0], ports::RESOURCE_MANAGER);
        for (i, ep) in rc_eps.iter().enumerate() {
            let peers = rc_eps.iter().copied().filter(|e| e != ep).collect();
            let server = RcServerActor::new(i as u64 + 1, peers, SYNC_INTERVAL);
            let probe = Probe::new(Layer::RcdsServer, server).with_peer_port(ports::RC_SERVER);
            world.spawn_portable(ep.host, ep.port, probe.boxed()).expect("free port");
        }
        let registry = ProgramRegistry::new();
        for (&h, name) in hosts.iter().zip(&names) {
            let daemon =
                DaemonActor::new(DaemonConfig::new(name.clone(), rc_eps.clone()), registry.clone());
            world.spawn_portable(h, ports::DAEMON, Probe::new(Layer::Daemon, daemon).boxed());
        }
        let rm = RmActor::new(RmConfig::new(rc_eps.clone()));
        world.spawn_portable(rm_ep.host, rm_ep.port, Probe::new(Layer::Rm, rm).boxed());

        let proc_cfg = ProcessConfig {
            rc_replicas: rc_eps.clone(),
            file_servers: Vec::new(),
            resource_managers: vec![rm_ep],
            ..ProcessConfig::default()
        };
        let sh = Arc::new(Shared {
            frame: Frame::new(TRAFFIC_START, WARM, p.prefix),
            book: SharedBook::default(),
            children: Mutex::new(Vec::new()),
            spawns: AtomicU64::new(0),
        });
        {
            let (cfg, sh) = (proc_cfg.clone(), sh.clone());
            registry.register(CHILD_PROGRAM, move |sctx| {
                let parent = u64::from_le_bytes(sctx.args[0..8].try_into().expect("8 bytes"));
                let n = u64::from_le_bytes(sctx.args[8..16].try_into().expect("8 bytes"));
                let child = Child { sh: sh.clone(), parent, n, lookup: 0 };
                let actor = ProcessActor::new(
                    cfg.clone(),
                    sctx.proc_key,
                    CHILD_PROGRAM,
                    sctx.args.clone(),
                    Box::new(Timed(child)),
                );
                Probe::new(Layer::CoreProcess, actor).boxed()
            });
        }
        // Roots sit on the hosts after each cluster head, round-robin
        // over clusters 1.. so the RM's host stays free of them.
        for r in 0..p.roots {
            let c = 1 + r % (p.clusters - 1);
            let h = hosts[c * p.per_cluster + 1 + r / (p.clusters - 1)];
            let root = Root {
                sh: sh.clone(),
                idx: r as u64,
                rng: stream(cfg.seed, 0x5EA7, r as u64),
                rate: p.rate_per_root,
                next_arrival: SimTime::ZERO,
                next_n: 0,
                pending: HashMap::new(),
                tickets: HashMap::new(),
            };
            let key = ((h.0 as u64) << 32) | (1 << 20) | r as u64;
            let actor = ProcessActor::new(
                proc_cfg.clone(),
                key,
                ROOT_PROGRAM,
                Bytes::new(),
                Box::new(Timed(root)),
            );
            let port = world.alloc_port(h);
            world.spawn_portable(h, port, Probe::new(Layer::CoreProcess, actor).boxed());
        }
        world.run_until(sh.frame.window_start);
        sh.spawns.store(0, Ordering::Relaxed);
        Spawn { world, sh, rc_eps }
    }
}

impl Bench for Spawn {
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
        let log_len: usize = self
            .rc_eps
            .iter()
            .map(|&ep| {
                let server = self.world.portable_ref::<Probe<RcServerActor>>(ep);
                server.expect("replica is running").inner().store().log_len()
            })
            .sum();
        Extras {
            values: vec![
                ("core.spawns", self.sh.spawns.load(Ordering::Relaxed) as f64),
                ("rcds.log_len", log_len as f64),
            ],
            layers: vec![
                Layer::RcdsServer,
                Layer::CoreProcess,
                Layer::CoreApp,
                Layer::Daemon,
                Layer::Rm,
            ],
            wire_senders: vec![Layer::CoreProcess],
        }
    }

    /// Let the last children reply and exit; none may still be bound.
    fn finish(&mut self) {
        self.world.run_for(SimDuration::from_secs(5));
        let children = self.sh.children.lock().expect("children").clone();
        let running: Vec<Endpoint> =
            children.into_iter().filter(|&ep| self.world.is_bound(ep)).collect();
        if !running.is_empty() {
            self.sh.book.lock().expect("book").error(format!(
                "{} children still running, first {:?}",
                running.len(),
                running[0]
            ));
        }
    }
}
