//! Time-to-failure checks against an obstacle workspace.
//!
//! The paper defines `ttf_2Δ : S × 2^S → B`, which returns `true` when the
//! minimum time after which `φ_safe` may stop holding is at most `2Δ`
//! (Sec. III-C, "From theory to practice").  The decision-module check
//! `Reach(s, *, 2Δ) ⊄ φ_safe` of Fig. 9 is exactly `ttf_2Δ(s, φ_safe)`.
//! [`ObstacleTtf`] implements that check for the obstacle-avoidance safety
//! specification of the motion-primitive RTA module: `φ_safe` is the free
//! space of a [`Workspace`], and the forward reachable set is the
//! over-approximation computed by [`ForwardReach`].

use crate::forward::ForwardReach;
use serde::{Deserialize, Serialize};
use soter_sim::dynamics::DroneState;
use soter_sim::geometry::Aabb;
use soter_sim::vec3::Vec3;
use soter_sim::world::{ClearanceChecker, Workspace};

/// Bisection probes of [`ObstacleTtf::project_command_accel`].
const PROJECTION_PROBES: usize = 16;

/// Plant steps a projection ray records for certified probes (0.64 s at a
/// 10 ms plant step); longer horizons probe by exact rollouts only.
const RAY_STEPS: usize = 64;

/// Floor of the certification tolerance ε (metres).
const CERT_EPS: f64 = 1e-7;

/// Relative rounding headroom of certified probes: ε grows with the
/// coordinate scale at this rate, and the speed clamp counts as engaged
/// within this fraction of `max_speed`.
const CERT_REL: f64 = 1e-11;

/// Time-to-failure computation against a static obstacle workspace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObstacleTtf {
    workspace: Workspace,
    reach: ForwardReach,
    /// Extra clearance margin (metres) required around obstacles; typically
    /// the safe controller's certified tracking-error bound, so that a state
    /// declared "safe for 2Δ" is still recoverable by the SC afterwards.
    margin: f64,
    /// The workspace's obstacles and bounds, inflated and shrunk by
    /// `margin` once at construction.
    checker: ClearanceChecker,
}

impl ObstacleTtf {
    /// Creates a time-to-failure checker.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative.
    pub fn new(workspace: Workspace, reach: ForwardReach, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        let checker = workspace.clearance_checker(margin);
        ObstacleTtf {
            workspace,
            reach,
            margin,
            checker,
        }
    }

    /// The workspace defining `φ_safe`.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The forward-reach computer.
    pub fn reach(&self) -> &ForwardReach {
        &self.reach
    }

    /// The clearance margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Returns `true` if the current state itself satisfies `φ_safe`
    /// (inside the workspace and outside every obstacle).  The extra margin
    /// is *not* applied here: it only buffers the forward-reach check, so
    /// that legitimate states such as a drone parked on the ground are not
    /// misclassified as unsafe.
    pub fn is_safe(&self, state: &DroneState) -> bool {
        self.workspace.is_free(state.position)
    }

    /// The paper's `ttf_horizon(s, φ_safe)`: `true` when the plant may leave
    /// `φ_safe` within `horizon` seconds under any admissible control, or
    /// may reach a state from which even maximal braking can no longer avoid
    /// leaving it — equivalently, when the direction-aware occupancy
    /// (including the braking footprint needed by the safe controller to
    /// recover) is not entirely contained in free space.
    pub fn may_leave_safe_within(&self, state: &DroneState, horizon: f64) -> bool {
        let occupancy = self.reach.occupancy_directed(state, horizon, true);
        !self.checker.region_free(&occupancy)
    }

    /// The command-conditional variant of
    /// [`ObstacleTtf::may_leave_safe_within`]: `true` when the plant may
    /// leave `φ_safe` within `horizon` seconds while executing the *given
    /// commanded acceleration* (held constant), including the braking
    /// footprint needed by the safe controller to recover afterwards.  This
    /// is the check the implicit-Simplex filter runs on the AC's proposed
    /// command instead of the worst case over all controls.
    pub fn command_may_leave_safe_within(
        &self,
        state: &DroneState,
        accel: Vec3,
        horizon: f64,
    ) -> bool {
        let occupancy = self.reach.occupancy_under_command(state, accel, horizon);
        !self.checker.region_free(&occupancy)
    }

    /// ASIF-style minimal intervention: projects a proposed acceleration
    /// command onto the nearest admissible command along the ray from the
    /// full-brake command to the proposal, where "admissible" means the
    /// commanded occupancy over `horizon` stays in free space with margin.
    /// Deterministic bisection (fixed iteration count, no solver); returns
    /// `None` when the proposal is already admissible and `Some(clipped)`
    /// when the filter must intervene.  If even full braking is not
    /// admissible the brake command itself is returned — the least-bad
    /// minimal intervention.
    ///
    /// Each probe is first decided from the two endpoint rollouts, between
    /// which the rollout is affine in the ray parameter away from the
    /// clamps and the ground; a probe the interpolation cannot prove either
    /// way is rolled out exactly, so the result equals exact bisection bit
    /// for bit.
    pub fn project_command_accel(
        &self,
        state: &DroneState,
        proposed: Vec3,
        horizon: f64,
    ) -> Option<Vec3> {
        let tip = RayEndpoint::record(&self.reach, state, proposed, horizon);
        if self
            .checker
            .region_free(&tip.occupancy(&self.reach, horizon))
        {
            return None;
        }
        // The anchor of the ray: brake as hard as the plant allows against
        // the current velocity (zero acceleration when already at rest).
        let brake = (state.velocity * -1e6).clamp_norm(self.reach.dynamics.max_acceleration);
        let anchor = RayEndpoint::record(&self.reach, state, brake, horizon);
        if !self
            .checker
            .region_free(&anchor.occupancy(&self.reach, horizon))
        {
            return Some(brake);
        }
        // The plant clamps a proposal beyond `max_acceleration`, which bends
        // the tip rollout off the ray's affine family; probes interpolate
        // toward the proposal's rollout under a limit lifted to its norm
        // instead, which every unclamped probe command lies on.
        let unclamped;
        let ray_tip = if proposed.norm() <= self.reach.dynamics.max_acceleration {
            &tip
        } else {
            let mut lifted = self.reach;
            lifted.dynamics.max_acceleration = proposed.norm();
            unclamped = RayEndpoint::record(&lifted, state, proposed, horizon);
            &unclamped
        };
        let ray = AffineRay::new(&anchor, ray_tip);
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..PROJECTION_PROBES {
            let mid = 0.5 * (lo + hi);
            let command = brake.lerp(&proposed, mid);
            let certified = ray
                .as_ref()
                .and_then(|ray| ray.certify(&self.checker, &self.reach, mid, command, horizon));
            let admissible = certified
                .unwrap_or_else(|| !self.command_may_leave_safe_within(state, command, horizon));
            if admissible {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(brake.lerp(&proposed, lo))
    }

    /// A scalar time-to-failure estimate: the largest horizon `t ≤ max_horizon`
    /// (to within `tolerance`) for which the state provably cannot leave
    /// `φ_safe`.  Returns `0.0` if the state is already unsafe and
    /// `max_horizon` if no failure is reachable within the window.  Used to
    /// plot the operating regions of Fig. 10 and by the Δ-ablation bench.
    pub fn time_to_failure(&self, state: &DroneState, max_horizon: f64, tolerance: f64) -> f64 {
        assert!(max_horizon > 0.0 && tolerance > 0.0);
        if !self.is_safe(state) {
            return 0.0;
        }
        if !self.may_leave_safe_within(state, max_horizon) {
            return max_horizon;
        }
        // Binary search for the boundary between "provably safe for t" and
        // "may fail within t".
        let (mut lo, mut hi) = (0.0, max_horizon);
        while hi - lo > tolerance {
            let mid = 0.5 * (lo + hi);
            if self.may_leave_safe_within(state, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }
}

/// One endpoint of a projection ray: a commanded rollout (the one
/// [`ForwardReach::occupancy_under_command`] runs), with the samples a
/// certified probe interpolates.
struct RayEndpoint {
    start: Vec3,
    /// Positions after each plant step; only the first `RAY_STEPS` are kept.
    positions: [Vec3; RAY_STEPS],
    steps: usize,
    sampled: Aabb,
    final_velocity: Vec3,
    /// Lowest altitude over the successor states.
    min_z: f64,
    /// Whether some successor state is within rounding of the speed cap
    /// (the plant may have clamped its speed), or the rollout left the
    /// finite numbers, which it never re-enters.
    irregular: bool,
}

impl RayEndpoint {
    fn record(reach: &ForwardReach, state: &DroneState, accel: Vec3, horizon: f64) -> Self {
        let mut positions = [Vec3::ZERO; RAY_STEPS];
        let (mut steps, mut min_z, mut max_speed_sq) = (0, f64::INFINITY, 0.0f64);
        let (sampled, last) = reach.roll_out_command(state, accel, horizon, |s| {
            if let Some(slot) = positions.get_mut(steps) {
                *slot = s.position;
            }
            steps += 1;
            min_z = min_z.min(s.position.z);
            max_speed_sq = max_speed_sq.max(s.velocity.norm_squared());
        });
        let cap = reach.dynamics.max_speed * (1.0 - CERT_REL);
        RayEndpoint {
            start: state.position,
            positions,
            steps,
            sampled,
            final_velocity: last.velocity,
            min_z,
            irregular: max_speed_sq >= cap * cap
                || !(last.position.is_finite() && last.velocity.is_finite()),
        }
    }

    /// The command occupancy of this endpoint, exactly as
    /// [`ForwardReach::occupancy_under_command`] computes it.
    fn occupancy(&self, reach: &ForwardReach, horizon: f64) -> Aabb {
        self.sampled
            .inflate(reach.command_inflation(self.final_velocity.norm(), horizon))
    }
}

/// A projection ray whose rollouts are affine in the ray parameter `t`.
///
/// The plant step is affine in state and command except where it clamps
/// the command to `max_acceleration`, clamps the speed to `max_speed`, or
/// stops the vehicle at the ground.  A rollout that stays clear of all
/// three is therefore, up to rounding, the lerp of the anchor (`t = 0`)
/// and tip (`t = 1`) rollouts, and so is every rollout in between whose
/// command is within the limit: the speed ball is convex, and a convex
/// combination of altitudes above the ground stays above it.  Rounding
/// moves the lerp less than `eps` from the exact rollout, so a box test
/// with `eps` of headroom either way decides the exact rollout's
/// admissibility.
struct AffineRay<'a> {
    anchor: &'a RayEndpoint,
    tip: &'a RayEndpoint,
    eps: f64,
}

impl<'a> AffineRay<'a> {
    /// The ray between two unclamped endpoint rollouts, or `None` when the
    /// affine argument does not cover it: the horizon outruns the recorded
    /// steps, or an endpoint comes within `eps` of the ground or within
    /// rounding of the speed cap.
    fn new(anchor: &'a RayEndpoint, tip: &'a RayEndpoint) -> Option<Self> {
        let scale = [anchor.sampled, tip.sampled]
            .iter()
            .flat_map(|b| [b.min.abs().max_component(), b.max.abs().max_component()])
            .fold(0.0, f64::max);
        let eps = CERT_EPS.max(CERT_REL * scale);
        let clear = |e: &RayEndpoint| e.steps <= RAY_STEPS && e.min_z > eps && !e.irregular;
        (clear(anchor) && clear(tip)).then_some(AffineRay { anchor, tip, eps })
    }

    /// Decides the admissibility of `command`, the command at ray
    /// parameter `t`, from the interpolated occupancy: admissible when it
    /// is free grown by `eps`, inadmissible when it is not free shrunk by
    /// `eps`, and `None` (roll out exactly) when it is within `eps` of the
    /// boundary or too thin to shrink, or when the plant would clamp
    /// `command`.
    fn certify(
        &self,
        checker: &ClearanceChecker,
        reach: &ForwardReach,
        t: f64,
        command: Vec3,
        horizon: f64,
    ) -> Option<bool> {
        // The test the plant's command clamp applies.
        let unclamped = command.norm() <= reach.dynamics.max_acceleration;
        if !unclamped {
            return None;
        }
        let (a, b) = (self.anchor, self.tip);
        let (mut lo, mut hi) = (a.start, a.start);
        for (pa, pb) in a.positions[..a.steps].iter().zip(&b.positions[..b.steps]) {
            let p = pa.lerp(pb, t);
            lo = lo.min(&p);
            hi = hi.max(&p);
        }
        let speed = a.final_velocity.lerp(&b.final_velocity, t).norm();
        let occupancy = Aabb { min: lo, max: hi }.inflate(reach.command_inflation(speed, horizon));
        if checker.region_free(&occupancy.inflate(self.eps)) {
            return Some(true);
        }
        let extents = occupancy.extents();
        if extents.x.min(extents.y).min(extents.z) < 2.0 * self.eps {
            return None;
        }
        (!checker.region_free(&occupancy.inflate(-self.eps))).then_some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_sim::dynamics::QuadrotorDynamics;
    use soter_sim::vec3::Vec3;

    fn ttf() -> ObstacleTtf {
        ObstacleTtf::new(
            Workspace::city_block(),
            ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.05),
            0.2,
        )
    }

    #[test]
    fn state_far_from_obstacles_cannot_fail_soon() {
        let t = ttf();
        // Hovering high above the buildings in the middle of a street.
        let s = DroneState::at_rest(Vec3::new(5.0, 5.0, 2.5));
        assert!(t.is_safe(&s));
        assert!(!t.may_leave_safe_within(&s, 0.2));
    }

    #[test]
    fn state_adjacent_to_obstacle_may_fail_quickly() {
        let t = ttf();
        // 1 m from a house face, flying toward it fast.
        let s = DroneState {
            position: Vec3::new(8.0, 13.0, 3.0),
            velocity: Vec3::new(6.0, 0.0, 0.0),
        };
        assert!(t.is_safe(&s));
        assert!(t.may_leave_safe_within(&s, 1.0));
    }

    #[test]
    fn unsafe_state_has_zero_ttf() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(13.0, 13.0, 3.0)); // inside a house
        assert!(!t.is_safe(&s));
        assert_eq!(t.time_to_failure(&s, 5.0, 0.01), 0.0);
    }

    #[test]
    fn ttf_monotone_with_distance_to_obstacles() {
        let t = ttf();
        let near = DroneState::at_rest(Vec3::new(8.3, 13.0, 3.0));
        let far = DroneState::at_rest(Vec3::new(4.0, 4.0, 2.0));
        let ttf_near = t.time_to_failure(&near, 5.0, 0.01);
        let ttf_far = t.time_to_failure(&far, 5.0, 0.01);
        assert!(ttf_near < ttf_far, "near {ttf_near} vs far {ttf_far}");
    }

    #[test]
    fn ttf_saturates_at_max_horizon() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(4.0, 4.0, 2.0));
        let v = t.time_to_failure(&s, 0.1, 0.01);
        assert_eq!(v, 0.1);
    }

    #[test]
    fn ttf_respects_velocity_direction_magnitude() {
        let t = ttf();
        // Same position, but one state is moving fast: its worst-case reach
        // is larger, so its time-to-failure is smaller.
        let slow = DroneState::at_rest(Vec3::new(6.0, 13.0, 3.0));
        let fast = DroneState {
            position: Vec3::new(6.0, 13.0, 3.0),
            velocity: Vec3::new(8.0, 0.0, 0.0),
        };
        let ttf_slow = t.time_to_failure(&slow, 5.0, 0.01);
        let ttf_fast = t.time_to_failure(&fast, 5.0, 0.01);
        assert!(ttf_fast < ttf_slow);
    }

    #[test]
    fn may_leave_is_monotone_in_horizon() {
        let t = ttf();
        let s = DroneState {
            position: Vec3::new(7.0, 13.0, 3.0),
            velocity: Vec3::new(2.0, 0.0, 0.0),
        };
        // If the state may fail within 0.3 s it may certainly fail within 1 s.
        if t.may_leave_safe_within(&s, 0.3) {
            assert!(t.may_leave_safe_within(&s, 1.0));
        }
        // And conversely, if it cannot fail within 1 s it cannot fail within 0.3 s.
        if !t.may_leave_safe_within(&s, 1.0) {
            assert!(!t.may_leave_safe_within(&s, 0.3));
        }
    }

    #[test]
    fn command_check_is_tighter_than_worst_case() {
        let t = ttf();
        // Hovering 2 m from a house face: the any-control check must assume
        // a full-power dash at the wall, but the hover command itself goes
        // nowhere.
        let s = DroneState::at_rest(Vec3::new(7.0, 13.0, 3.0));
        assert!(t.may_leave_safe_within(&s, 1.0));
        assert!(!t.command_may_leave_safe_within(&s, Vec3::ZERO, 1.0));
        // A commanded dash at the wall is caught by the command check too.
        assert!(t.command_may_leave_safe_within(&s, Vec3::new(6.0, 0.0, 0.0), 1.0));
    }

    #[test]
    fn projection_passes_admissible_commands_through() {
        let t = ttf();
        // In the middle of a street, far from every obstacle.
        let s = DroneState::at_rest(Vec3::new(5.0, 5.0, 2.5));
        assert_eq!(
            t.project_command_accel(&s, Vec3::new(1.0, 0.0, 0.0), 0.2),
            None
        );
    }

    /// The ray of a clipping projection from `state`, recorded at `horizon`.
    fn endpoints(
        t: &ObstacleTtf,
        state: &DroneState,
        proposed: Vec3,
        horizon: f64,
    ) -> (RayEndpoint, RayEndpoint) {
        let brake = (state.velocity * -1e6).clamp_norm(t.reach.dynamics.max_acceleration);
        (
            RayEndpoint::record(&t.reach, state, brake, horizon),
            RayEndpoint::record(&t.reach, state, proposed, horizon),
        )
    }

    #[test]
    fn certified_probes_agree_with_exact_rollouts_and_rarely_fall_back() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let t = ttf();
        let mut rng = SmallRng::seed_from_u64(5);
        let (mut certified, mut fallback) = (0usize, 0usize);
        while certified + fallback < 5_000 {
            let state = DroneState {
                position: Vec3::new(
                    rng.random_range(0.0..50.0),
                    rng.random_range(0.0..50.0),
                    rng.random_range(0.5..8.0),
                ),
                velocity: Vec3::new(
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-1.0..1.0),
                ),
            };
            let proposed = Vec3::new(
                rng.random_range(-4.0..4.0),
                rng.random_range(-4.0..4.0),
                rng.random_range(-1.0..1.0),
            );
            let (anchor, tip) = endpoints(&t, &state, proposed, 0.2);
            let brake = (state.velocity * -1e6).clamp_norm(6.0);
            if !t.is_safe(&state)
                || t.checker.region_free(&tip.occupancy(&t.reach, 0.2))
                || !t.checker.region_free(&anchor.occupancy(&t.reach, 0.2))
            {
                continue;
            }
            let ray =
                AffineRay::new(&anchor, &tip).expect("an ordinary clip is in the affine regime");
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..PROJECTION_PROBES {
                let mid = 0.5 * (lo + hi);
                let command = brake.lerp(&proposed, mid);
                let exact = !t.command_may_leave_safe_within(&state, command, 0.2);
                match ray.certify(&t.checker, &t.reach, mid, command, 0.2) {
                    Some(verdict) => {
                        assert_eq!(verdict, exact, "probe {mid} from {state:?}");
                        certified += 1;
                    }
                    None => fallback += 1,
                }
                if exact {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        assert!(
            fallback * 100 < certified,
            "{fallback} of {} probes fell back to exact rollouts",
            certified + fallback
        );
    }

    #[test]
    fn affine_ray_excludes_the_non_affine_regimes() {
        let t = ttf();
        let cruising = DroneState {
            position: Vec3::new(5.0, 13.0, 3.0),
            velocity: Vec3::new(4.0, 0.0, 0.0),
        };
        let ahead = Vec3::new(3.0, 0.0, 0.0);
        let ray_exists = |state: &DroneState, horizon: f64| {
            let (anchor, tip) = endpoints(&t, state, ahead, horizon);
            AffineRay::new(&anchor, &tip).is_some()
        };
        assert!(ray_exists(&cruising, 0.2));
        // The speed clamp: already at the cap and pushing along it.
        let capped = DroneState {
            velocity: Vec3::new(8.0, 0.0, 0.0),
            ..cruising
        };
        assert!(!ray_exists(&capped, 0.2));
        // Ground contact: sinking a hair above the ground.
        let landing = DroneState {
            position: Vec3::new(5.0, 13.0, 1e-7),
            velocity: Vec3::new(1.0, 0.0, -0.5),
        };
        assert!(!ray_exists(&landing, 0.2));
        // More plant steps than a ray records.
        assert!(!ray_exists(&cruising, 1.0));
        // The command clamp: toward a proposal beyond `max_acceleration`
        // (rolled out under a lifted limit), probe commands within the
        // limit are certified and those beyond it left to exact rollouts.
        let dash = Vec3::new(12.0, 0.0, 0.0);
        let mut lifted = t.reach;
        lifted.dynamics.max_acceleration = dash.norm();
        let (anchor, _) = endpoints(&t, &cruising, dash, 0.2);
        let tip = RayEndpoint::record(&lifted, &cruising, dash, 0.2);
        let ray = AffineRay::new(&anchor, &tip).expect("in the affine regime");
        let brake = Vec3::new(-6.0, 0.0, 0.0);
        for (t_ray, certified) in [(0.5, true), (0.9, false)] {
            let command = brake.lerp(&dash, t_ray);
            let verdict = ray.certify(&t.checker, &t.reach, t_ray, command, 0.2);
            assert_eq!(verdict.is_some(), certified, "probe at {t_ray}");
        }
    }

    #[test]
    fn projection_clips_along_the_command_ray() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(7.0, 13.0, 3.0));
        let proposed = Vec3::new(6.0, 0.0, 0.0);
        let clipped = t
            .project_command_accel(&s, proposed, 1.0)
            .expect("a dash at the wall must be clipped");
        // The clip lies on the segment [brake, proposed] (brake = hover
        // here, since the state is at rest), keeps the direction of the
        // proposal, and is itself admissible.
        assert!(clipped.x >= 0.0 && clipped.x < proposed.x);
        assert!(clipped.y.abs() < 1e-9 && clipped.z.abs() < 1e-9);
        assert!(!t.command_may_leave_safe_within(&s, clipped, 1.0));
    }

    #[test]
    fn out_of_bounds_is_unsafe() {
        let t = ttf();
        let s = DroneState::at_rest(Vec3::new(-5.0, 5.0, 2.0));
        assert!(!t.is_safe(&s));
    }

    #[test]
    #[should_panic]
    fn negative_margin_panics() {
        let _ = ObstacleTtf::new(
            Workspace::city_block(),
            ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.0),
            -0.5,
        );
    }
}
