//! Differential property test of the ASIF projection.
//!
//! [`ObstacleTtf::project_command_accel`] decides most bisection probes by
//! interpolating its two endpoint rollouts and rolls a probe out exactly
//! only when the interpolation cannot prove it either way.  That must be
//! invisible: over random states in two workspaces — including the regimes
//! where the rollout stops being affine in the command (ground contact,
//! speed and command saturation) and horizons longer than the recorded
//! rollout — the projection must equal, bit for bit, the plain bisection
//! below that rolls every probe out exactly.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_reach::{ForwardReach, ObstacleTtf};
use soter_sim::dynamics::{DroneState, QuadrotorDynamics};
use soter_sim::geometry::Aabb;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// The reference: 16-probe bisection along the brake → proposal ray, every
/// probe an exact command rollout checked against the workspace.
fn exact_projection(
    ttf: &ObstacleTtf,
    state: &DroneState,
    proposed: Vec3,
    horizon: f64,
) -> Option<Vec3> {
    let admissible = |a: Vec3| {
        let occupancy = ttf.reach().occupancy_under_command(state, a, horizon);
        ttf.workspace()
            .region_is_free_with_margin(&occupancy, ttf.margin())
    };
    if admissible(proposed) {
        return None;
    }
    let brake = (state.velocity * -1e6).clamp_norm(ttf.reach().dynamics.max_acceleration);
    if !admissible(brake) {
        return Some(brake);
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..16 {
        let mid = 0.5 * (lo + hi);
        if admissible(brake.lerp(&proposed, mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(brake.lerp(&proposed, lo))
}

/// The city block with its bounds extended 5 m below the ground.  A
/// near-ground occupancy always pokes out of a workspace whose bounds start
/// at the ground, so near-ground rays only bisect in this one.
fn sunken_city_block() -> Workspace {
    let city = Workspace::city_block();
    let b = *city.bounds();
    Workspace::new(
        Aabb::new(b.min - Vec3::new(0.0, 0.0, 5.0), b.max),
        city.obstacles().to_vec(),
        city.robot_radius(),
    )
}

fn workspaces() -> [Workspace; 3] {
    [
        Workspace::city_block(),
        Workspace::contested_corridor(),
        sunken_city_block(),
    ]
}

fn bits(v: Option<Vec3>) -> Option<[u64; 3]> {
    v.map(|v| v.to_array().map(f64::to_bits))
}

/// Which part of the state space a case is drawn from.
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Anywhere free, moderate speeds and in-limit proposals.
    Free,
    /// At most 1e-6 m above the ground and sinking.
    NearGround,
    /// At the speed cap, pushed further along the velocity.
    SpeedSaturated,
    /// Proposals beyond `max_acceleration`.
    OverLimit,
    /// A 1 s horizon: more plant steps than the projection records.
    LongHorizon,
}

const REGIMES: [Regime; 5] = [
    Regime::Free,
    Regime::NearGround,
    Regime::SpeedSaturated,
    Regime::OverLimit,
    Regime::LongHorizon,
];

fn random_vec(rng: &mut SmallRng, max: f64) -> Vec3 {
    Vec3::new(
        rng.random_range(-max..max),
        rng.random_range(-max..max),
        rng.random_range(-max..max),
    )
}

/// A free state of `ws`, a proposal and a horizon drawn from `regime`.
fn random_case(rng: &mut SmallRng, ws: &Workspace, regime: Regime) -> (DroneState, Vec3, f64) {
    let d = QuadrotorDynamics::default();
    let b = *ws.bounds();
    loop {
        let mut position = Vec3::new(
            rng.random_range(b.min.x..b.max.x),
            rng.random_range(b.min.y..b.max.y),
            rng.random_range(b.min.z..b.max.z),
        );
        let mut velocity = random_vec(rng, 6.0).clamp_norm(d.max_speed);
        let mut proposed = random_vec(rng, d.max_acceleration).clamp_norm(d.max_acceleration);
        let mut horizon = rng.random_range(0.05..0.5);
        match regime {
            Regime::Free => {}
            Regime::NearGround => {
                position.z = rng.random_range(0.0..1e-6);
                velocity.z = -rng.random_range(0.0..1.0f64);
                proposed.z = -rng.random_range(0.0..d.max_acceleration);
                proposed = proposed.clamp_norm(d.max_acceleration);
            }
            Regime::SpeedSaturated => {
                let dir = random_vec(rng, 1.0).normalized();
                velocity = dir * d.max_speed;
                proposed = (dir * 0.8 + random_vec(rng, 0.2)).normalized() * d.max_acceleration;
            }
            Regime::OverLimit => {
                proposed = random_vec(rng, 1.0).normalized()
                    * rng.random_range(1.01..3.0)
                    * d.max_acceleration;
            }
            Regime::LongHorizon => horizon = 1.0,
        }
        if ws.is_free(position) {
            return (DroneState { position, velocity }, proposed, horizon);
        }
    }
}

fn check_workspace(ws: Workspace, seed: u64) {
    let ttf = ObstacleTtf::new(
        ws.clone(),
        ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.1),
        0.3,
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    for regime in REGIMES {
        for _ in 0..16 {
            let (state, proposed, horizon) = random_case(&mut rng, &ws, regime);
            let got = ttf.project_command_accel(&state, proposed, horizon);
            let want = exact_projection(&ttf, &state, proposed, horizon);
            assert_eq!(
                bits(got),
                bits(want),
                "{:?}: state {:?}, proposed {}, horizon {}: {:?} vs exact {:?}",
                regime,
                state,
                proposed,
                horizon,
                got,
                want
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn projection_matches_exact_bisection_in_city_block(seed in 0u64..1_000_000) {
        check_workspace(Workspace::city_block(), seed);
    }

    #[test]
    fn projection_matches_exact_bisection_in_contested_corridor(seed in 0u64..1_000_000) {
        check_workspace(Workspace::contested_corridor(), seed);
    }

    #[test]
    fn projection_matches_exact_bisection_in_sunken_city_block(seed in 0u64..1_000_000) {
        check_workspace(sunken_city_block(), seed);
    }
}

/// The properties above must not pass vacuously: in every regime, many of
/// the cases they draw clip strictly inside the ray, so the bisection runs.
#[test]
fn random_cases_exercise_the_bisection() {
    let mut rng = SmallRng::seed_from_u64(3);
    for regime in REGIMES {
        let bisected: usize = workspaces()
            .into_iter()
            .map(|ws| {
                let ttf = ObstacleTtf::new(
                    ws.clone(),
                    ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.1),
                    0.3,
                );
                (0..1000)
                    .filter(|_| {
                        let (state, proposed, horizon) = random_case(&mut rng, &ws, regime);
                        let brake = (state.velocity * -1e6).clamp_norm(6.0);
                        ttf.project_command_accel(&state, proposed, horizon)
                            .is_some_and(|clip| clip != brake)
                    })
                    .count()
            })
            .sum();
        assert!(
            bisected >= 50,
            "{regime:?}: only {bisected}/3000 cases bisect"
        );
    }
}
