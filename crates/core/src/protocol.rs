//! The Section V.C search as a *distributed protocol*: node actors
//! exchanging messages over a (possibly lossy) broadcast bus.
//!
//! [`crate::search::run_search`] is the centralized abstraction of the
//! algorithm; this module is its distributed implementation. Every node is
//! a state machine ([`SearchActor`]): the leader walks the window and
//! broadcasts `Ready`, followers retune on every `Ready`, and the final
//! `Broadcast` commits the efficient window network-wide. A configurable
//! per-message loss probability exposes the protocol's real-world failure
//! mode — followers missing a `Ready` measure the leader's payoff on a
//! *stale* profile — and the driver quantifies the resulting desync.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::error::GameError;
use crate::game::GameConfig;
use crate::search::{PayoffProbe, SearchMessage};

/// Role-dependent actor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum ActorState {
    /// Waiting for a search to start.
    Idle,
    /// Following `Ready` messages.
    Following,
    /// Search finished; committed to the broadcast window.
    Committed,
}

/// One protocol participant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchActor {
    id: usize,
    window: u32,
    state: ActorState,
    /// `Ready` messages this actor actually received.
    pub readies_received: usize,
    /// `Ready` messages it missed (diagnosed post-hoc by the driver).
    pub readies_missed: usize,
}

impl SearchActor {
    /// Creates a follower starting at `window`.
    #[must_use]
    pub fn new(id: usize, window: u32) -> Self {
        SearchActor { id, window, state: ActorState::Idle, readies_received: 0, readies_missed: 0 }
    }

    /// The actor's node id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The window the actor currently operates on.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Whether the actor has committed to a final window.
    #[must_use]
    pub fn committed(&self) -> bool {
        self.state == ActorState::Committed
    }

    /// Handles one received protocol message.
    pub fn handle(&mut self, message: SearchMessage) {
        match message {
            SearchMessage::StartSearch { w0 } => {
                self.window = w0.max(1);
                self.state = ActorState::Following;
            }
            SearchMessage::Ready { w } => {
                if self.state == ActorState::Following {
                    self.window = w.max(1);
                    self.readies_received += 1;
                }
            }
            SearchMessage::Broadcast { w_m } => {
                self.window = w_m.max(1);
                self.state = ActorState::Committed;
            }
        }
    }
}

/// A lossy broadcast bus: each delivery to each recipient independently
/// drops with probability `loss`.
#[derive(Debug)]
pub struct BroadcastBus {
    loss: f64,
    rng: ChaCha8Rng,
    /// Total deliveries attempted.
    pub deliveries: u64,
    /// Deliveries dropped.
    pub dropped: u64,
}

impl BroadcastBus {
    /// Creates a bus with per-delivery loss probability `loss`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] unless `loss ∈ [0, 1)`.
    pub fn new(loss: f64, seed: u64) -> Result<Self, GameError> {
        if !(0.0..1.0).contains(&loss) {
            return Err(GameError::InvalidConfig("loss must be in [0, 1)".into()));
        }
        Ok(BroadcastBus { loss, rng: ChaCha8Rng::seed_from_u64(seed), deliveries: 0, dropped: 0 })
    }

    /// Delivers `message` to every actor except `from`; returns how many
    /// deliveries were dropped.
    pub fn broadcast(
        &mut self,
        from: usize,
        message: SearchMessage,
        actors: &mut [SearchActor],
    ) -> usize {
        let mut lost = 0;
        for actor in actors.iter_mut() {
            if actor.id() == from {
                continue;
            }
            self.deliveries += 1;
            if self.rng.gen::<f64>() < self.loss {
                self.dropped += 1;
                lost += 1;
                if matches!(message, SearchMessage::Ready { .. }) {
                    actor.readies_missed += 1;
                }
            } else {
                actor.handle(message);
            }
        }
        lost
    }
}

/// Outcome of a distributed protocol round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolOutcome {
    /// The window the leader committed and broadcast.
    pub w_m: u32,
    /// Final per-actor windows (desync shows up here under loss).
    pub final_windows: Vec<u32>,
    /// Leaders' payoff measurements `(window, payoff)` in order.
    pub trace: Vec<(u32, f64)>,
    /// Total messages the leader sent.
    pub messages_sent: usize,
    /// Deliveries dropped by the bus.
    pub deliveries_dropped: u64,
}

/// Runs the distributed search: the leader (actor 0) hill-climbs exactly
/// as in Section V.C, each move broadcast as `Ready` over `bus`; follower
/// windows track the messages they actually receive. `probe` measures the
/// leader's payoff at each step (on the *intended* profile — the desync a
/// lossy bus causes is reported, not simulated, keeping the probe
/// abstraction of the search module).
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an empty actor set or a
/// starting window outside the strategy space; propagates probe failures.
pub fn run_protocol(
    probe: &mut dyn PayoffProbe,
    game: &GameConfig,
    actors: &mut [SearchActor],
    bus: &mut BroadcastBus,
    w0: u32,
    min_improvement: f64,
) -> Result<ProtocolOutcome, GameError> {
    if actors.is_empty() {
        return Err(GameError::InvalidConfig("need at least one actor".into()));
    }
    if w0 == 0 || w0 > game.w_max() {
        return Err(GameError::InvalidConfig(format!(
            "starting window {w0} outside strategy space [1, {}]",
            game.w_max()
        )));
    }
    let improves = |new: f64, old: f64| new > old + min_improvement * old.abs();
    let leader = 0usize;
    let mut messages_sent = 0usize;

    // Start-Search: everyone (including the leader) adopts W₀.
    actors[leader].handle(SearchMessage::StartSearch { w0 });
    bus.broadcast(leader, SearchMessage::StartSearch { w0 }, actors);
    messages_sent += 1;

    let mut trace = Vec::new();
    let mut current = w0;
    let mut best = probe.measure(current)?;
    trace.push((current, best));

    // Right-Search.
    let mut moved_right = false;
    while current < game.w_max() {
        let w = current + 1;
        actors[leader].handle(SearchMessage::Ready { w });
        bus.broadcast(leader, SearchMessage::Ready { w }, actors);
        messages_sent += 1;
        let payoff = probe.measure(w)?;
        trace.push((w, payoff));
        if improves(payoff, best) {
            current = w;
            best = payoff;
            moved_right = true;
        } else {
            break;
        }
    }
    // Left-Search only if the first right step already hurt.
    if !moved_right {
        while current > 1 {
            let w = current - 1;
            actors[leader].handle(SearchMessage::Ready { w });
            bus.broadcast(leader, SearchMessage::Ready { w }, actors);
            messages_sent += 1;
            let payoff = probe.measure(w)?;
            trace.push((w, payoff));
            if improves(payoff, best) {
                current = w;
                best = payoff;
            } else {
                break;
            }
        }
    }

    // Final broadcast commits everyone who hears it.
    actors[leader].handle(SearchMessage::Broadcast { w_m: current });
    bus.broadcast(leader, SearchMessage::Broadcast { w_m: current }, actors);
    messages_sent += 1;

    Ok(ProtocolOutcome {
        w_m: current,
        final_windows: actors.iter().map(SearchActor::window).collect(),
        trace,
        messages_sent,
        deliveries_dropped: bus.dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::efficient_ne;
    use crate::search::AnalyticProbe;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    fn actors(n: usize, w: u32) -> Vec<SearchActor> {
        (0..n).map(|i| SearchActor::new(i, w)).collect()
    }

    #[test]
    fn lossless_protocol_synchronizes_at_w_star() {
        let g = game(5);
        let w_star = efficient_ne(&g).unwrap().window;
        let mut probe = AnalyticProbe::new(g.clone());
        let mut nodes = actors(5, 32);
        let mut bus = BroadcastBus::new(0.0, 1).unwrap();
        let outcome = run_protocol(&mut probe, &g, &mut nodes, &mut bus, w_star - 10, 0.0).unwrap();
        assert_eq!(outcome.w_m, w_star);
        assert!(outcome.final_windows.iter().all(|&w| w == outcome.w_m));
        assert!(nodes.iter().all(SearchActor::committed));
        assert_eq!(outcome.deliveries_dropped, 0);
        // One Start + one Ready per move + one Broadcast.
        assert_eq!(outcome.messages_sent, outcome.trace.len() + 1);
    }

    #[test]
    fn lossy_bus_desynchronizes_followers() {
        let g = game(5);
        let w_star = efficient_ne(&g).unwrap().window;
        let mut probe = AnalyticProbe::new(g.clone());
        let mut nodes = actors(5, 32);
        let mut bus = BroadcastBus::new(0.4, 9).unwrap();
        let outcome = run_protocol(&mut probe, &g, &mut nodes, &mut bus, w_star - 25, 0.0).unwrap();
        assert!(outcome.deliveries_dropped > 0);
        // The leader still finds the optimum — its own measurements never
        // traverse the bus.
        assert_eq!(outcome.w_m, w_star);
        // Followers missed Readies; the driver records it.
        let missed: usize = nodes.iter().map(|a| a.readies_missed).sum();
        assert!(missed > 0);
    }

    #[test]
    fn final_broadcast_heals_mid_search_losses() {
        // Even a very lossy bus ends synchronized *if* the final Broadcast
        // gets through; run many seeds and check the invariant: an actor is
        // desynchronized iff it missed the final Broadcast.
        let g = game(4);
        let mut probe = AnalyticProbe::new(g.clone());
        for seed in 0..20 {
            let mut nodes = actors(4, 60);
            let mut bus = BroadcastBus::new(0.3, seed).unwrap();
            let outcome = run_protocol(&mut probe, &g, &mut nodes, &mut bus, 60, 0.0).unwrap();
            for node in &nodes[1..] {
                // A committed actor heard the final Broadcast and must sit
                // exactly on the committed window, regardless of how many
                // mid-search Readies it missed.
                if node.committed() {
                    assert_eq!(node.window(), outcome.w_m);
                }
            }
        }
    }

    #[test]
    fn actor_ignores_ready_before_start() {
        let mut actor = SearchActor::new(3, 64);
        actor.handle(SearchMessage::Ready { w: 10 });
        assert_eq!(actor.window(), 64, "idle actors must not follow stray Readies");
        actor.handle(SearchMessage::StartSearch { w0: 32 });
        actor.handle(SearchMessage::Ready { w: 33 });
        assert_eq!(actor.window(), 33);
    }

    #[test]
    fn validation() {
        let g = game(3);
        let mut probe = AnalyticProbe::new(g.clone());
        let mut empty: Vec<SearchActor> = Vec::new();
        let mut bus = BroadcastBus::new(0.0, 0).unwrap();
        assert!(run_protocol(&mut probe, &g, &mut empty, &mut bus, 10, 0.0).is_err());
        let mut nodes = actors(3, 10);
        assert!(run_protocol(&mut probe, &g, &mut nodes, &mut bus, 0, 0.0).is_err());
        assert!(BroadcastBus::new(1.0, 0).is_err());
        assert!(BroadcastBus::new(-0.1, 0).is_err());
    }
}
