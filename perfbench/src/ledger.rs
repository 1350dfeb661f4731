//! The per-layer ledger, measured from outside the program.
//!
//! Three instruments, all inert unless tracing is switched on:
//!
//! * [`scope`] charges the wall time of a call to one [`Layer`]. Scopes
//!   nest, and time is exclusive: while a wire call made by a bench
//!   actor runs, the clock counts for the wire row and not the actor's.
//!   Time spent outside every scope on an engine thread is the engine's
//!   own, which the window computes as a remainder.
//! * [`Probe`] wraps a [`PortableActor`] and runs each `on_event` inside
//!   its layer's scope, counting events per host.
//! * [`CountingCtx`] wraps the [`SimCtx`] a probed actor sees and counts
//!   its sends, bytes and timers per layer.
//!
//! Totals live in process-wide atomics, so actors on every engine
//! thread add into one ledger.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use snipe_netsim::actor::{Event, PortableActor, SimCtx};
use snipe_netsim::topology::{Endpoint, Topology};
use snipe_util::id::{HostId, NetId};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};

/// One row of the ledger besides the engine remainder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `WireStack::send` (fragmentation, FEC encode).
    WireSend,
    /// `WireStack::on_datagram` (demux, decode, reassembly).
    WireDatagram,
    /// `WireStack::on_timer` (retransmission, path scoring).
    WireTimer,
    /// `WireStack::drain` (harvest and route selection).
    WireDrain,
    /// Calls into `RcClient`.
    RcdsClient,
    /// `RcServerActor` event handling.
    RcdsServer,
    /// Striped-fetch state machine calls (stripe sha256 included).
    FilesFetch,
    /// `FileServerActor` event handling.
    FilesServer,
    /// `ProcessActor` event handling, minus the application.
    CoreProcess,
    /// The application callbacks a `ProcessActor` hosts.
    CoreApp,
    /// `DaemonActor` event handling.
    Daemon,
    /// `RmActor` event handling.
    Rm,
    /// The benchmark's own generators, checks and bookkeeping.
    Bench,
}

/// Number of [`Layer`] rows.
pub const LAYERS: usize = 13;

impl Layer {
    /// Every layer, indexed by `as usize`.
    pub const ALL: [Layer; LAYERS] = [
        Layer::WireSend,
        Layer::WireDatagram,
        Layer::WireTimer,
        Layer::WireDrain,
        Layer::RcdsClient,
        Layer::RcdsServer,
        Layer::FilesFetch,
        Layer::FilesServer,
        Layer::CoreProcess,
        Layer::CoreApp,
        Layer::Daemon,
        Layer::Rm,
        Layer::Bench,
    ];
}

/// Hosts whose events are counted individually (the workloads stay
/// far below this).
pub const MAX_HOSTS: usize = 1024;

static TRACING: AtomicBool = AtomicBool::new(false);
static NS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static PEER_NS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static SENDS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static PEER_BYTES: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static TIMERS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static HOST_EVENTS: [AtomicU64; MAX_HOSTS] = [const { AtomicU64::new(0) }; MAX_HOSTS];

const ROOT: usize = usize::MAX;

thread_local! {
    /// The layer this thread is charging and since when.
    static CURRENT: Cell<(usize, Instant)> = Cell::new((ROOT, Instant::now()));
}

/// Is the ledger recording?
#[inline]
pub(crate) fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Switch recording on or off and zero every total.
pub(crate) fn reset(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
    for arr in [&NS, &PEER_NS, &SENDS, &BYTES, &PEER_BYTES, &TIMERS] {
        for a in arr.iter() {
            a.store(0, Ordering::Relaxed);
        }
    }
    for a in HOST_EVENTS.iter() {
        a.store(0, Ordering::Relaxed);
    }
}

fn switch_to(to: usize) -> usize {
    let now = Instant::now();
    CURRENT.with(|c| {
        let (cur, since) = c.get();
        if cur != ROOT {
            NS[cur].fetch_add(now.duration_since(since).as_nanos() as u64, Ordering::Relaxed);
        }
        c.set((to, now));
        cur
    })
}

/// Run `f`, charging its exclusive wall time to `layer`.
#[inline]
pub(crate) fn scope<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let prev = switch_to(layer as usize);
    let r = f();
    switch_to(prev);
    r
}

/// A snapshot of the ledger's totals.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Exclusive nanoseconds per layer.
    pub ns: [u64; LAYERS],
    /// Nanoseconds of events a probe classed as peer traffic (timers and
    /// packets from its peer port), per layer; a subset of `ns`.
    pub peer_ns: [u64; LAYERS],
    /// Datagrams sent per layer.
    pub sends: [u64; LAYERS],
    /// Payload bytes sent per layer.
    pub bytes: [u64; LAYERS],
    /// Payload bytes sent to the probe's peer port, per layer.
    pub peer_bytes: [u64; LAYERS],
    /// Timers set per layer.
    pub timers: [u64; LAYERS],
    /// Actor events per host index.
    pub host_events: Vec<u64>,
}

/// Read every total.
pub(crate) fn totals() -> Totals {
    let load = |arr: &[AtomicU64; LAYERS]| -> [u64; LAYERS] {
        std::array::from_fn(|i| arr[i].load(Ordering::Relaxed))
    };
    Totals {
        ns: load(&NS),
        peer_ns: load(&PEER_NS),
        sends: load(&SENDS),
        bytes: load(&BYTES),
        peer_bytes: load(&PEER_BYTES),
        timers: load(&TIMERS),
        host_events: HOST_EVENTS.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
    }
}

/// Wraps an actor so its event handling is charged to `layer`.
pub struct Probe<A> {
    inner: A,
    layer: Layer,
    /// Datagrams to this port, and events from it, count as peer
    /// traffic (RC anti-entropy between replicas).
    peer_port: Option<u16>,
}

impl<A: PortableActor + 'static> Probe<A> {
    /// Probe `inner` as `layer`.
    pub fn new(layer: Layer, inner: A) -> Probe<A> {
        Probe { inner, layer, peer_port: None }
    }

    /// Also split out traffic with actors listening on `port`.
    pub fn with_peer_port(mut self, port: u16) -> Probe<A> {
        self.peer_port = Some(port);
        self
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Box for spawning.
    pub fn boxed(self) -> Box<dyn PortableActor> {
        Box::new(self)
    }
}

impl<A: PortableActor + 'static> PortableActor for Probe<A> {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if !tracing() {
            self.inner.on_event(ctx, event);
            return;
        }
        let host = ctx.host().0 as usize;
        if host < MAX_HOSTS {
            HOST_EVENTS[host].fetch_add(1, Ordering::Relaxed);
        }
        let layer = self.layer;
        let peer = match (&event, self.peer_port) {
            (Event::Timer { .. }, Some(_)) => true,
            (Event::Packet { from, .. }, Some(p)) => from.port == p,
            _ => false,
        };
        let started = peer.then(Instant::now);
        let mut counting = CountingCtx { inner: ctx, layer, peer_port: self.peer_port };
        let inner = &mut self.inner;
        scope(layer, || inner.on_event(&mut counting, event));
        if let Some(t) = started {
            PEER_NS[layer as usize].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// A [`SimCtx`] that counts what a probed actor asks of the engine.
pub struct CountingCtx<'a> {
    inner: &'a mut dyn SimCtx,
    layer: Layer,
    peer_port: Option<u16>,
}

impl CountingCtx<'_> {
    fn count_send(&self, to: Endpoint, len: usize) {
        let l = self.layer as usize;
        SENDS[l].fetch_add(1, Ordering::Relaxed);
        BYTES[l].fetch_add(len as u64, Ordering::Relaxed);
        if self.peer_port == Some(to.port) {
            PEER_BYTES[l].fetch_add(len as u64, Ordering::Relaxed);
        }
    }
}

impl SimCtx for CountingCtx<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> Endpoint {
        self.inner.me()
    }
    fn host(&self) -> HostId {
        self.inner.host()
    }
    fn send(&mut self, to: Endpoint, payload: Bytes) {
        self.count_send(to, payload.len());
        self.inner.send(to, payload);
    }
    fn send_via(&mut self, to: Endpoint, payload: Bytes, via: NetId) {
        self.count_send(to, payload.len());
        self.inner.send_via(to, payload, via);
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        TIMERS[self.layer as usize].fetch_add(1, Ordering::Relaxed);
        self.inner.set_timer(delay, token);
    }
    fn spawn_portable(
        &mut self,
        host: HostId,
        port: u16,
        actor: Box<dyn PortableActor>,
    ) -> Option<Endpoint> {
        self.inner.spawn_portable(host, port, actor)
    }
    fn alloc_port(&mut self, host: HostId) -> u16 {
        self.inner.alloc_port(host)
    }
    fn is_bound(&self, ep: Endpoint) -> bool {
        self.inner.is_bound(ep)
    }
    fn kill(&mut self, ep: Endpoint) {
        self.inner.kill(ep);
    }
    fn signal(&mut self, to: Endpoint, signum: u32) {
        self.inner.signal(to, signum);
    }
    fn rng(&mut self) -> &mut Xoshiro256 {
        self.inner.rng()
    }
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }
    fn host_up(&self, h: HostId) -> bool {
        self.inner.host_up(h)
    }
}
