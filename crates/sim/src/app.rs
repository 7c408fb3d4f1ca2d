//! Applications: workload endpoints driving and receiving traffic.
//!
//! An [`App`] is attached to a node and bound to a transmit device (its
//! "socket"). The [`crate::world::World`] invokes its callbacks; the app
//! responds by queueing actions on the [`AppCtx`] — sending packets and
//! arming timers. Workload generators (Sockperf-, iPerf-, Netperf- and
//! memcached-style) in `vnet-workloads` implement this trait.

use crate::ids::{AppId, NodeId};
use crate::packet::Packet;
use crate::time::SimDuration;

/// An action an application requests during a callback.
#[derive(Debug)]
pub enum AppAction {
    /// Send a packet through the app's bound transmit device.
    Send(Packet),
    /// Arm a timer that fires `delay` from now with the given tag.
    Timer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Tag passed back to [`App::on_timer`].
        tag: u64,
    },
}

/// The context handed to application callbacks.
#[derive(Debug)]
pub struct AppCtx<'w> {
    /// The application's id.
    pub app: AppId,
    /// The node the application runs on.
    pub node: NodeId,
    monotonic_ns: u64,
    /// The world's action list, lent for one callback: the world carries
    /// the actions out and keeps the list's capacity for the next.
    actions: &'w mut Vec<AppAction>,
}

impl<'w> AppCtx<'w> {
    /// Creates a context that queues its actions on `actions` (called by
    /// the world).
    pub(crate) fn new(
        app: AppId,
        node: NodeId,
        monotonic_ns: u64,
        actions: &'w mut Vec<AppAction>,
    ) -> Self {
        AppCtx {
            app,
            node,
            monotonic_ns,
            actions,
        }
    }

    /// The node's `CLOCK_MONOTONIC` reading, in nanoseconds.
    pub fn monotonic_ns(&self) -> u64 {
        self.monotonic_ns
    }

    /// Sends `pkt` through the app's bound transmit device.
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(AppAction::Send(pkt));
    }

    /// Arms a timer firing `delay` from now, delivered to
    /// [`App::on_timer`] with `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(AppAction::Timer { delay, tag });
    }
}

/// A workload endpoint.
///
/// All callbacks receive an [`AppCtx`] for timing and actions.
pub trait App {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a packet is delivered to a port this app is bound to.
    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet);

    /// Called when a timer armed with [`AppCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_actions_on_the_lent_list() {
        let mut actions = Vec::new();
        let mut ctx = AppCtx::new(AppId(0), NodeId(0), 5_000, &mut actions);
        assert_eq!(ctx.monotonic_ns(), 5_000);
        ctx.set_timer(SimDuration::from_micros(10), 42);
        ctx.send(Packet::from_bytes(vec![0u8; 8]));
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], AppAction::Timer { tag: 42, .. }));
        assert!(matches!(actions[1], AppAction::Send(_)));
    }
}
