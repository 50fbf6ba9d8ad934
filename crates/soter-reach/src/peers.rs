//! Peer reach-sets as unsafe regions: the separation invariant φ_sep.
//!
//! In a multi-drone airspace every drone is a *dynamic* obstacle for every
//! other drone.  The decision module of a fleet drone therefore evaluates,
//! alongside the static `Reach(s, *, 2Δ) ⊄ φ_safe` check of [`crate::ttf`],
//! whether its own forward reachable set can intersect a **peer's** forward
//! reachable set (inflated by the separation radius `r_sep`) within the
//! horizon.  When it can, the pair might violate
//! `φ_sep := ‖pᵢ − pⱼ‖ > r_sep` before the next decision, and the module
//! must fall back to its safe controller.
//!
//! The check is deliberately symmetric and worst-case: the peer is assumed
//! to fly *any* admissible control (it might itself be in AC mode under an
//! untrusted controller), so its occupancy is the same directed
//! over-approximation used for the drone's own reach set.  Both occupancies
//! include the braking footprint, so "safe for `2Δ`" also means "the safe
//! controllers can still stop both vehicles without closing the gap".

use crate::forward::ForwardReach;
use serde::{Deserialize, Serialize};
use soter_sim::dynamics::DroneState;
use soter_sim::geometry::Aabb;
use soter_sim::vec3::Vec3;

/// Pairwise separation checking against peer forward-reach sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerSeparation {
    reach: ForwardReach,
    /// Minimum admissible centre-to-centre distance `r_sep` (metres).
    separation_radius: f64,
}

impl PeerSeparation {
    /// Creates a separation checker.
    ///
    /// # Panics
    ///
    /// Panics if `separation_radius` is not positive.
    pub fn new(reach: ForwardReach, separation_radius: f64) -> Self {
        assert!(
            separation_radius > 0.0,
            "separation radius must be positive"
        );
        PeerSeparation {
            reach,
            separation_radius,
        }
    }

    /// The forward-reach computer shared by own and peer occupancies.
    pub fn reach(&self) -> &ForwardReach {
        &self.reach
    }

    /// The separation radius `r_sep`.
    pub fn separation_radius(&self) -> f64 {
        self.separation_radius
    }

    /// Point-wise φ_sep: `true` when the two positions are strictly further
    /// apart than `r_sep`.
    pub fn separated(&self, own: Vec3, peer: Vec3) -> bool {
        own.distance(&peer) > self.separation_radius
    }

    /// The unsafe region a peer induces over `horizon` seconds: the peer's
    /// directed forward occupancy (braking included) inflated by `r_sep`.
    /// Any own-state occupancy disjoint from this box provably keeps φ_sep
    /// for the horizon.
    pub fn peer_region(&self, peer: &DroneState, horizon: f64) -> Aabb {
        self.reach
            .occupancy_directed(peer, horizon, true)
            .inflate(self.separation_radius)
    }

    /// The paper's `ttf` check lifted to φ_sep: `true` when the own state's
    /// forward occupancy intersects any peer's induced unsafe region within
    /// `horizon` — i.e. the pair may violate separation before the next
    /// decision instant under some admissible controls.
    pub fn may_violate_within(
        &self,
        own: &DroneState,
        peers: impl IntoIterator<Item = DroneState>,
        horizon: f64,
    ) -> bool {
        let own_occupancy = self.reach.occupancy_directed(own, horizon, true);
        peers
            .into_iter()
            .any(|peer| own_occupancy.intersects(&self.peer_region(&peer, horizon)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_sim::dynamics::QuadrotorDynamics;

    fn peers(radius: f64) -> PeerSeparation {
        PeerSeparation::new(
            ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.05),
            radius,
        )
    }

    #[test]
    fn distant_peers_cannot_violate_soon() {
        let p = peers(1.5);
        let own = DroneState::at_rest(Vec3::new(0.0, 0.0, 5.0));
        let far = DroneState::at_rest(Vec3::new(40.0, 0.0, 5.0));
        assert!(p.separated(own.position, far.position));
        assert!(!p.may_violate_within(&own, [far], 0.2));
        assert!(!p.may_violate_within(&own, [], 10.0));
    }

    #[test]
    fn head_on_approach_is_flagged() {
        let p = peers(1.5);
        let own = DroneState {
            position: Vec3::new(0.0, 0.0, 5.0),
            velocity: Vec3::new(6.0, 0.0, 0.0),
        };
        let oncoming = DroneState {
            position: Vec3::new(10.0, 0.0, 5.0),
            velocity: Vec3::new(-6.0, 0.0, 0.0),
        };
        assert!(p.separated(own.position, oncoming.position));
        assert!(
            p.may_violate_within(&own, [oncoming], 1.0),
            "closing at 12 m/s from 10 m apart must be flagged within 1 s"
        );
    }

    #[test]
    fn flag_is_monotone_in_horizon_and_radius() {
        let own = DroneState {
            position: Vec3::new(0.0, 0.0, 5.0),
            velocity: Vec3::new(3.0, 0.0, 0.0),
        };
        let peer = DroneState::at_rest(Vec3::new(12.0, 0.0, 5.0));
        let tight = peers(0.5);
        let wide = peers(4.0);
        for horizon in [0.1, 0.5, 1.0, 2.0] {
            if tight.may_violate_within(&own, [peer], horizon) {
                assert!(
                    wide.may_violate_within(&own, [peer], horizon),
                    "a larger r_sep must flag at least as often (h = {horizon})"
                );
            }
        }
        if tight.may_violate_within(&own, [peer], 0.5) {
            assert!(tight.may_violate_within(&own, [peer], 2.0));
        }
    }

    #[test]
    fn peer_region_contains_the_peer_and_its_bubble() {
        let p = peers(2.0);
        let peer = DroneState::at_rest(Vec3::new(5.0, 5.0, 5.0));
        let region = p.peer_region(&peer, 0.2);
        assert!(region.contains(&peer.position));
        // The separation bubble around the current position is inside.
        assert!(region.contains(&Vec3::new(7.0, 5.0, 5.0)));
        assert!(region.contains(&Vec3::new(5.0, 3.0, 5.0)));
    }

    #[test]
    #[should_panic(expected = "separation radius")]
    fn non_positive_radius_is_rejected() {
        let _ = peers(0.0);
    }
}
