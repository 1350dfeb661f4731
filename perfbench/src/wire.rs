//! A bench actor's handle on its `WireStack`: every call is timed into
//! its wire row of the ledger, and emitted sends go to the engine.

use bytes::Bytes;
use snipe_netsim::actor::{SimCtx, TimerGate};
use snipe_netsim::topology::Endpoint;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::srudp::NodeKey;
use snipe_wire::stack::{Incoming, WireStack};
use snipe_wire::Out;

use crate::ledger::{scope, Layer};

/// A delivered message: sender key, sender endpoint, bytes.
pub type Delivery = (NodeKey, Endpoint, Bytes);

/// A `WireStack` plus the gate for its protocol timer.
pub struct Wire {
    /// The stack.
    pub stack: WireStack,
    gate: TimerGate,
    token: u64,
}

impl Wire {
    /// Own `stack`; its protocol timer uses `token`.
    pub fn new(stack: WireStack, token: u64) -> Wire {
        Wire { stack, gate: TimerGate::new(), token }
    }

    /// Queue a reliable message.
    pub fn send(&mut self, now: SimTime, to: NodeKey, msg: Bytes) {
        let stack = &mut self.stack;
        scope(Layer::WireSend, || stack.send(now, to, msg)).expect("frag size is nonzero");
    }

    /// Feed a datagram; returns what the stack did not consume.
    pub fn on_datagram(
        &mut self,
        now: SimTime,
        from: Endpoint,
        payload: Bytes,
    ) -> Option<Incoming> {
        let stack = &mut self.stack;
        scope(Layer::WireDatagram, || stack.on_datagram(now, from, payload)).ok().flatten()
    }

    /// The protocol timer fired.
    pub fn on_timer(&mut self, now: SimTime) {
        self.gate.fired();
        let stack = &mut self.stack;
        scope(Layer::WireTimer, || stack.on_timer(now));
    }

    /// Put emitted datagrams on the engine, re-arm the protocol timer
    /// and append completed messages to `out`.
    pub fn flush(&mut self, ctx: &mut dyn SimCtx, out: &mut Vec<Delivery>) {
        let stack = &mut self.stack;
        for o in scope(Layer::WireDrain, || stack.drain()) {
            match o {
                Out::Send { to, via: Some(n), bytes, .. } => ctx.send_via(to, bytes, n),
                Out::Send { to, via: None, bytes, .. } => ctx.send(to, bytes),
                Out::Deliver { from_key, from_ep, msg, .. } => out.push((from_key, from_ep, msg)),
                Out::Wake { .. } => {}
            }
        }
        if let Some(dl) = self.stack.next_deadline() {
            self.gate.arm_at(ctx, dl + SimDuration::from_micros(1), self.token);
        }
    }
}
