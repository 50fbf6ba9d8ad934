//! The obstacle workspace the drone patrols.
//!
//! The paper's case study (Fig. 2) is a city block in Gazebo with static,
//! a-priori-known obstacles (houses, cars) and a set of surveillance points
//! the drone must visit infinitely often.  [`Workspace`] models exactly that:
//! an axis-aligned bounding volume, a list of axis-aligned obstacles, and a
//! set of named surveillance points, with the collision/clearance queries the
//! planners, controllers and decision modules need.

use crate::geometry::Aabb;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// A static 3-D workspace with axis-aligned obstacles.
///
/// ```
/// use soter_sim::{world::Workspace, Vec3};
/// let w = Workspace::city_block();
/// assert!(w.is_free(Vec3::new(1.0, 1.0, 2.0)));
/// assert!(!w.surveillance_points().is_empty());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workspace {
    bounds: Aabb,
    obstacles: Vec<Aabb>,
    surveillance_points: Vec<Vec3>,
    /// Physical radius of the vehicle; obstacle queries inflate obstacles by
    /// this margin so a point-robot check is conservative for the real drone.
    robot_radius: f64,
}

impl Workspace {
    /// Creates a workspace from explicit bounds and obstacles.
    ///
    /// # Panics
    ///
    /// Panics if `robot_radius` is negative.
    pub fn new(bounds: Aabb, obstacles: Vec<Aabb>, robot_radius: f64) -> Self {
        assert!(robot_radius >= 0.0, "robot radius must be non-negative");
        Workspace {
            bounds,
            obstacles,
            surveillance_points: Vec::new(),
            robot_radius,
        }
    }

    /// An empty workspace (no obstacles) with the given bounds — useful in
    /// unit tests and as the environment for the battery-safety module, whose
    /// safety property does not involve obstacles.
    pub fn empty(bounds: Aabb) -> Self {
        Workspace::new(bounds, Vec::new(), 0.0)
    }

    /// The city-block workspace modelled on Fig. 2 of the paper.
    ///
    /// A 50 m × 50 m block with a 3 × 3 grid of "houses" separated by
    /// streets, a few "parked cars" along the streets, a flight ceiling of
    /// 12 m, and four surveillance points near the corners (the `g1..g4`
    /// circuit used in Fig. 5 and Fig. 12a) plus the block centre.
    pub fn city_block() -> Self {
        let bounds = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(50.0, 50.0, 12.0));
        let mut obstacles = Vec::new();
        // 3x3 grid of houses, 8 m x 8 m footprint, 6 m tall, 8 m streets.
        for i in 0..3 {
            for j in 0..3 {
                let cx = 13.0 + i as f64 * 16.0;
                let cy = 13.0 + j as f64 * 16.0;
                obstacles.push(Aabb::from_center_extents(
                    Vec3::new(cx, cy, 3.0),
                    Vec3::new(8.0, 8.0, 6.0),
                ));
            }
        }
        // Parked cars along the central horizontal street.
        for k in 0..4 {
            let cx = 6.0 + k as f64 * 12.0;
            obstacles.push(Aabb::from_center_extents(
                Vec3::new(cx, 21.0, 0.75),
                Vec3::new(4.0, 2.0, 1.5),
            ));
        }
        // A tall antenna tower near one corner: forces planners to route around
        // even at higher altitude.
        obstacles.push(Aabb::from_center_extents(
            Vec3::new(45.0, 45.0, 5.5),
            Vec3::new(2.0, 2.0, 11.0),
        ));
        let mut ws = Workspace::new(bounds, obstacles, 0.3);
        // Patrol points sit mid-street at 5 m altitude (below the 6 m house
        // roofline, well above the parked cars) so the straight legs between
        // consecutive points run through open streets.
        ws.surveillance_points = vec![
            Vec3::new(3.0, 3.0, 5.0),
            Vec3::new(47.0, 3.0, 5.0),
            Vec3::new(47.0, 21.0, 5.0),
            Vec3::new(3.0, 47.0, 5.0),
            Vec3::new(21.0, 21.0, 5.0),
        ];
        ws
    }

    /// A small open workspace used by the Fig. 5 (right) / Fig. 12a circuit
    /// experiments: a central building, and a "parked car" pillar just past
    /// each circuit corner in the direction of travel.  The straight legs of
    /// the `g1..g4` circuit are collision-free, but an aggressive controller
    /// overshooting a corner at speed clips the pillar beyond it — the
    /// failure mode of the paper's PX4 experiment.
    pub fn corner_cut_course() -> Self {
        let bounds = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(20.0, 20.0, 12.0));
        let obstacles = vec![
            // Central building.
            Aabb::from_center_extents(Vec3::new(10.0, 10.0, 4.0), Vec3::new(6.0, 6.0, 8.0)),
            // Corner pillars, each ~1.5 m beyond a corner along the circuit
            // direction of travel (counter-clockwise g1→g2→g3→g4).
            Aabb::from_center_extents(Vec3::new(18.7, 3.0, 4.0), Vec3::new(1.2, 1.2, 8.0)),
            Aabb::from_center_extents(Vec3::new(17.0, 18.7, 4.0), Vec3::new(1.2, 1.2, 8.0)),
            Aabb::from_center_extents(Vec3::new(1.3, 17.0, 4.0), Vec3::new(1.2, 1.2, 8.0)),
            Aabb::from_center_extents(Vec3::new(3.0, 1.3, 4.0), Vec3::new(1.2, 1.2, 8.0)),
        ];
        let mut ws = Workspace::new(bounds, obstacles, 0.3);
        ws.surveillance_points = vec![
            Vec3::new(3.0, 3.0, 5.0),
            Vec3::new(17.0, 3.0, 5.0),
            Vec3::new(17.0, 17.0, 5.0),
            Vec3::new(3.0, 17.0, 5.0),
        ];
        ws
    }

    /// A contested corridor for multi-drone airspace scenarios: a long
    /// 60 m × 20 m block whose interior is walled off except for a single
    /// 6 m-wide street running the full length, so that every drone of a
    /// fleet must funnel through the same corridor.  The surveillance
    /// points are the two corridor mouths; airspace scenarios assign each
    /// drone its own lane (lateral/vertical offsets around the centreline)
    /// and opposing directions of travel.
    pub fn contested_corridor() -> Self {
        let bounds = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(60.0, 20.0, 10.0));
        let obstacles = vec![
            // Two full-length walls leaving a street between y = 7 and y = 13.
            Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(60.0, 7.0, 10.0)),
            Aabb::new(Vec3::new(0.0, 13.0, 0.0), Vec3::new(60.0, 20.0, 10.0)),
        ];
        let mut ws = Workspace::new(bounds, obstacles, 0.3);
        ws.surveillance_points = vec![Vec3::new(4.0, 10.0, 4.0), Vec3::new(56.0, 10.0, 4.0)];
        ws
    }

    /// Adds a surveillance point.
    pub fn add_surveillance_point(&mut self, p: Vec3) {
        self.surveillance_points.push(p);
    }

    /// The named surveillance points (the `g1..g4` targets of the paper).
    pub fn surveillance_points(&self) -> &[Vec3] {
        &self.surveillance_points
    }

    /// The workspace bounding volume.
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// The raw (uninflated) obstacle boxes.
    pub fn obstacles(&self) -> &[Aabb] {
        &self.obstacles
    }

    /// The robot radius used to inflate obstacles in queries.
    pub fn robot_radius(&self) -> f64 {
        self.robot_radius
    }

    /// Returns `true` if the point is inside the workspace bounds and outside
    /// every (inflated) obstacle — i.e. the point is in the `φ_safe` region
    /// used by the motion-primitive RTA module.
    pub fn is_free(&self, p: Vec3) -> bool {
        self.is_free_with_margin(p, 0.0)
    }

    /// Like [`Workspace::is_free`] but requiring an additional clearance
    /// margin around obstacles (and from the workspace boundary).
    pub fn is_free_with_margin(&self, p: Vec3, margin: f64) -> bool {
        let shrunk = Aabb {
            min: self.bounds.min + Vec3::splat(margin),
            max: self.bounds.max - Vec3::splat(margin),
        };
        if !shrunk.contains(&p) {
            return false;
        }
        let total = self.robot_radius + margin;
        !self.obstacles.iter().any(|o| o.inflate(total).contains(&p))
    }

    /// Returns `true` if the straight segment `a`–`b` stays entirely in free
    /// space (with the robot-radius inflation).
    pub fn segment_is_free(&self, a: Vec3, b: Vec3) -> bool {
        self.segment_is_free_with_margin(a, b, 0.0)
    }

    /// Segment freeness with an extra margin; used by the safe motion planner
    /// to certify plans with the safe controller's tracking-error bound.
    pub fn segment_is_free_with_margin(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
        if !self.is_free_with_margin(a, margin) || !self.is_free_with_margin(b, margin) {
            return false;
        }
        let total = self.robot_radius + margin;
        // Endpoint freeness covers the interior against the (convex,
        // margin-shrunk) bounds, and the slab test is an exact
        // segment-vs-box intersection, so together the two checks decide
        // the whole segment — no interior sampling needed.  Planners run
        // this thousands of times per query, so obstacles are first
        // rejected against the segment's bounding box (an intersection
        // implies overlapping boxes), leaving the division-heavy slab test
        // to the few candidates that survive.
        let seg = Aabb::new(a, b);
        !self.obstacles.iter().any(|o| {
            let inflated = o.inflate(total);
            inflated.intersects(&seg) && inflated.intersects_segment(&a, &b)
        })
    }

    /// Returns `true` if an axis-aligned region (for instance, a forward
    /// reachable set over-approximation) is entirely inside free space.
    pub fn region_is_free(&self, region: &Aabb) -> bool {
        self.region_is_free_with_margin(region, 0.0)
    }

    /// Region freeness with an extra margin.
    pub fn region_is_free_with_margin(&self, region: &Aabb, margin: f64) -> bool {
        let shrunk = Aabb {
            min: self.bounds.min + Vec3::splat(margin),
            max: self.bounds.max - Vec3::splat(margin),
        };
        if !(shrunk.contains(&region.min) && shrunk.contains(&region.max)) {
            return false;
        }
        let total = self.robot_radius + margin;
        !self
            .obstacles
            .iter()
            .any(|o| o.inflate(total).intersects(region))
    }

    /// Minimum clearance from `p` to the nearest (inflated) obstacle or to
    /// the workspace boundary.  Negative values mean the point is in
    /// collision.
    pub fn clearance(&self, p: Vec3) -> f64 {
        let to_bounds = [
            p.x - self.bounds.min.x,
            self.bounds.max.x - p.x,
            p.y - self.bounds.min.y,
            self.bounds.max.y - p.y,
            p.z - self.bounds.min.z,
            self.bounds.max.z - p.z,
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        let to_obstacles = self
            .obstacles
            .iter()
            .map(|o| {
                let inflated = o.inflate(self.robot_radius);
                if inflated.contains(&p) {
                    // Inside an obstacle: negative penetration depth estimate.
                    -inflated
                        .closest_point(&p)
                        .distance(&inflated.center())
                        .max(1e-6)
                } else {
                    inflated.distance_to_point(&p)
                }
            })
            .fold(f64::INFINITY, f64::min);
        to_bounds.min(to_obstacles)
    }

    /// Returns `true` if the point collides with an obstacle or lies outside
    /// the workspace — the `φ_unsafe` predicate of the motion-primitive
    /// safety specification.
    pub fn in_collision(&self, p: Vec3) -> bool {
        !self.is_free(p)
    }

    /// Builds a [`ClearanceChecker`] for a fixed query margin: the
    /// margin-inflated obstacles and margin-shrunk bounds are computed once,
    /// so planners issuing thousands of clearance queries per plan skip the
    /// per-query inflation arithmetic.  Results are identical to the
    /// `*_with_margin` queries with the same margin.
    pub fn clearance_checker(&self, margin: f64) -> ClearanceChecker {
        let total = self.robot_radius + margin;
        ClearanceChecker {
            shrunk: Aabb {
                min: self.bounds.min + Vec3::splat(margin),
                max: self.bounds.max - Vec3::splat(margin),
            },
            inflated: self.obstacles.iter().map(|o| o.inflate(total)).collect(),
        }
    }

    /// Samples a uniformly random free point inside the bounds using the
    /// provided RNG.  Returns `None` if no free point is found within
    /// `max_tries` attempts.
    pub fn sample_free_point<R: rand::Rng>(&self, rng: &mut R, max_tries: usize) -> Option<Vec3> {
        for _ in 0..max_tries {
            let p = Vec3::new(
                rng.random_range(self.bounds.min.x..=self.bounds.max.x),
                rng.random_range(self.bounds.min.y..=self.bounds.max.y),
                rng.random_range(self.bounds.min.z..=self.bounds.max.z),
            );
            if self.is_free_with_margin(p, 0.5) {
                return Some(p);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn city_block_surveillance_points_are_free() {
        let w = Workspace::city_block();
        for p in w.surveillance_points() {
            assert!(w.is_free(*p), "surveillance point {p} must be free");
        }
    }

    #[test]
    fn city_block_house_centers_are_occupied() {
        let w = Workspace::city_block();
        assert!(w.in_collision(Vec3::new(13.0, 13.0, 3.0)));
        assert!(w.in_collision(Vec3::new(29.0, 29.0, 1.0)));
    }

    #[test]
    fn above_houses_is_free() {
        let w = Workspace::city_block();
        // Houses are 6 m tall; 8 m altitude clears them.
        assert!(w.is_free(Vec3::new(13.0, 13.0, 8.0)));
    }

    #[test]
    fn out_of_bounds_is_not_free() {
        let w = Workspace::city_block();
        assert!(!w.is_free(Vec3::new(-1.0, 5.0, 2.0)));
        assert!(!w.is_free(Vec3::new(5.0, 5.0, 20.0)));
    }

    #[test]
    fn segment_through_house_is_blocked() {
        let w = Workspace::city_block();
        let a = Vec3::new(3.0, 13.0, 3.0);
        let b = Vec3::new(25.0, 13.0, 3.0);
        assert!(!w.segment_is_free(a, b));
        // Going above the houses is fine.
        let a_high = Vec3::new(3.0, 13.0, 9.0);
        let b_high = Vec3::new(25.0, 13.0, 9.0);
        assert!(w.segment_is_free(a_high, b_high));
    }

    #[test]
    fn street_segment_is_free() {
        let w = Workspace::city_block();
        // The vertical street at x=5 (houses start at x=9).
        assert!(w.segment_is_free(Vec3::new(4.0, 3.0, 2.5), Vec3::new(4.0, 47.0, 2.5)));
    }

    #[test]
    fn margin_makes_near_miss_unsafe() {
        let w = Workspace::city_block();
        // A point just clear of the house face at x = 9 - robot_radius.
        let p = Vec3::new(8.5, 13.0, 3.0);
        assert!(w.is_free(p));
        assert!(!w.is_free_with_margin(p, 1.0));
    }

    #[test]
    fn region_queries() {
        let w = Workspace::city_block();
        let free_region =
            Aabb::from_center_extents(Vec3::new(4.0, 4.0, 2.0), Vec3::new(1.0, 1.0, 1.0));
        assert!(w.region_is_free(&free_region));
        let bad_region =
            Aabb::from_center_extents(Vec3::new(13.0, 13.0, 3.0), Vec3::new(1.0, 1.0, 1.0));
        assert!(!w.region_is_free(&bad_region));
        let out_region =
            Aabb::from_center_extents(Vec3::new(0.0, 0.0, 2.0), Vec3::new(3.0, 3.0, 1.0));
        assert!(
            !w.region_is_free(&out_region),
            "regions leaving the bounds are unsafe"
        );
    }

    #[test]
    fn clearance_sign_matches_collision_state() {
        let w = Workspace::city_block();
        assert!(w.clearance(Vec3::new(4.0, 4.0, 2.0)) > 0.0);
        assert!(w.clearance(Vec3::new(13.0, 13.0, 3.0)) <= 0.0);
    }

    #[test]
    fn sampling_returns_free_points() {
        let w = Workspace::city_block();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = w
                .sample_free_point(&mut rng, 100)
                .expect("sampling must succeed");
            assert!(w.is_free(p));
        }
    }

    #[test]
    fn empty_workspace_has_no_obstacles() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
        let w = Workspace::empty(b);
        assert!(w.obstacles().is_empty());
        assert!(w.is_free(Vec3::splat(5.0)));
    }

    #[test]
    fn contested_corridor_funnels_through_one_street() {
        let w = Workspace::contested_corridor();
        for p in w.surveillance_points() {
            assert!(w.is_free(*p), "corridor mouth {p} must be free");
        }
        let [a, b] = [w.surveillance_points()[0], w.surveillance_points()[1]];
        assert!(w.segment_is_free(a, b), "the corridor itself is clear");
        // Anything off the centreline street is walled.
        assert!(w.in_collision(Vec3::new(30.0, 3.0, 4.0)));
        assert!(w.in_collision(Vec3::new(30.0, 17.0, 4.0)));
        // There is no way over the walls: they reach the ceiling.
        assert!(w.in_collision(Vec3::new(30.0, 3.0, 9.5)));
    }

    #[test]
    fn corner_cut_course_has_central_obstacle() {
        let w = Workspace::corner_cut_course();
        assert!(w.in_collision(Vec3::new(10.0, 10.0, 2.0)));
        for p in w.surveillance_points() {
            assert!(w.is_free(*p));
        }
        // The circuit legs between consecutive corners are collision-free,
        // but each corner has a pillar just beyond it in the direction of
        // travel (so overshooting the corner is dangerous).
        let pts = w.surveillance_points().to_vec();
        for i in 0..pts.len() {
            let a = pts[i];
            let b = pts[(i + 1) % pts.len()];
            assert!(
                w.segment_is_free(a, b),
                "circuit leg {a} -> {b} must be free"
            );
        }
        assert!(w.in_collision(Vec3::new(18.7, 3.0, 5.0)));
    }

    proptest! {
        #[test]
        fn prop_free_with_margin_implies_free(
            x in 0.0..50.0f64, y in 0.0..50.0f64, z in 0.0..12.0f64, m in 0.0..2.0f64
        ) {
            let w = Workspace::city_block();
            let p = Vec3::new(x, y, z);
            if w.is_free_with_margin(p, m) {
                prop_assert!(w.is_free(p));
            }
        }

        #[test]
        fn prop_clearance_positive_iff_free(
            x in 0.5..49.5f64, y in 0.5..49.5f64, z in 0.5..11.5f64
        ) {
            let w = Workspace::city_block();
            let p = Vec3::new(x, y, z);
            if w.is_free(p) {
                prop_assert!(w.clearance(p) >= 0.0);
            }
        }

        #[test]
        fn prop_degenerate_segment_matches_point_query(
            x in 0.0..50.0f64, y in 0.0..50.0f64, z in 0.0..12.0f64
        ) {
            let w = Workspace::city_block();
            let p = Vec3::new(x, y, z);
            prop_assert_eq!(w.segment_is_free(p, p), w.is_free(p));
        }

        #[test]
        fn prop_checker_region_matches_margin_query(
            x in -2.0..52.0f64, y in -2.0..52.0f64, z in -1.0..13.0f64,
            ex in 0.0..6.0f64, ey in 0.0..6.0f64, ez in 0.0..6.0f64,
            m in 0.0..1.0f64
        ) {
            let w = Workspace::city_block();
            let region = Aabb::from_center_extents(Vec3::new(x, y, z), Vec3::new(ex, ey, ez));
            prop_assert_eq!(
                w.clearance_checker(m).region_free(&region),
                w.region_is_free_with_margin(&region, m)
            );
        }

        #[test]
        fn prop_checker_segment_matches_margin_query(
            ax in -2.0..52.0f64, ay in -2.0..52.0f64, az in -1.0..13.0f64,
            bx in -2.0..52.0f64, by in -2.0..52.0f64, bz in -1.0..13.0f64,
            m in 0.0..1.0f64
        ) {
            let w = Workspace::city_block();
            let (a, b) = (Vec3::new(ax, ay, az), Vec3::new(bx, by, bz));
            prop_assert_eq!(
                w.clearance_checker(m).segment_free(a, b),
                w.segment_is_free_with_margin(a, b, m)
            );
        }
    }
}

/// Precomputed clearance queries for one fixed margin (see
/// [`Workspace::clearance_checker`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClearanceChecker {
    shrunk: Aabb,
    inflated: Vec<Aabb>,
}

impl ClearanceChecker {
    /// Equivalent to [`Workspace::is_free_with_margin`] at the checker's
    /// margin.
    pub fn point_free(&self, p: Vec3) -> bool {
        self.shrunk.contains(&p) && !self.inflated.iter().any(|o| o.contains(&p))
    }

    /// Equivalent to [`Workspace::region_is_free_with_margin`] at the
    /// checker's margin.
    pub fn region_free(&self, region: &Aabb) -> bool {
        self.shrunk.contains(&region.min)
            && self.shrunk.contains(&region.max)
            && !self.inflated.iter().any(|o| o.intersects(region))
    }

    /// Equivalent to [`Workspace::segment_is_free_with_margin`] at the
    /// checker's margin.
    pub fn segment_free(&self, a: Vec3, b: Vec3) -> bool {
        self.point_free(a) && self.point_free(b) && self.segment_clear(a, b)
    }

    /// The obstacle half of [`ClearanceChecker::segment_free`]: whether the
    /// segment misses every inflated obstacle.  Combined with both
    /// endpoints being [`ClearanceChecker::point_free`] (the caller's
    /// precondition — bounds are convex, so endpoint containment covers the
    /// interior), this decides full segment freeness without re-testing the
    /// endpoints.
    pub fn segment_clear(&self, a: Vec3, b: Vec3) -> bool {
        let seg = Aabb::new(a, b);
        !self
            .inflated
            .iter()
            .any(|o| o.intersects(&seg) && o.intersects_segment(&a, &b))
    }
}
