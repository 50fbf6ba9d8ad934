//! RRT* sampling-based motion planning (OMPL substitute).
//!
//! The paper implements its surveillance motion planner with the RRT*
//! algorithm from OMPL.  This is a from-scratch RRT* over the
//! [`Workspace`]: incremental sampling with goal bias, steering with a
//! bounded step, choose-parent and rewire within a neighbourhood radius,
//! and path extraction followed by shortcut smoothing.  It is used as the
//! *untrusted advanced planner* of the planner RTA module (unmodified it is
//! quite reliable; its fault-injected variant lives in [`crate::buggy`]).

use crate::traits::MotionPlanner;
use crate::validate::shortcut;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use soter_sim::vec3::Vec3;
use soter_sim::world::{ClearanceChecker, Workspace};

/// RRT* configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RrtStarConfig {
    /// Maximum number of sampling iterations per query.
    pub max_iterations: usize,
    /// Maximum length of a tree edge (metres).
    pub step_size: f64,
    /// Probability of sampling the goal instead of a random point.
    pub goal_bias: f64,
    /// Radius within which parents are reconsidered and rewiring happens.
    pub neighbor_radius: f64,
    /// Distance at which the goal counts as reached.
    pub goal_tolerance: f64,
    /// Clearance margin used during collision checks (metres).
    pub margin: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RrtStarConfig {
    fn default() -> Self {
        RrtStarConfig {
            max_iterations: 4000,
            step_size: 3.0,
            goal_bias: 0.1,
            neighbor_radius: 6.0,
            goal_tolerance: 1.0,
            margin: 0.3,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct TreeNode {
    position: Vec3,
    parent: Option<usize>,
    cost: f64,
}

/// A uniform bucket grid over the workspace bounds, indexing tree nodes by
/// position for the planner's two hot queries.  Both reproduce a linear
/// scan over squared distances: `nearest` returns the lexicographically
/// minimal `(d², index)` pair (a linear scan's first-minimum) and `within`
/// returns exactly the linear scan's `(index, d²)` set, in bucket order —
/// its consumers in `plan` are order-free.  Squared distances order
/// identically to true distances in exact arithmetic; versus the historical
/// `fl(sqrt(d²))`-based scan they can differ only when two distances
/// collide within one sqrt ulp — the pinned golden suite verifies that no
/// shipped scenario is affected.
#[derive(Debug, Clone)]
struct BucketGrid {
    min: Vec3,
    cell: f64,
    dims: [i64; 3],
    /// Entries carry the position inline so bucket scans read densely
    /// instead of chasing indices through the tree array.
    buckets: Vec<Vec<(u32, Vec3)>>,
}

impl BucketGrid {
    fn new(min: Vec3, max: Vec3, cell: f64) -> Self {
        assert!(cell > 0.0, "bucket cell size must be positive");
        let dim = |lo: f64, hi: f64| (((hi - lo) / cell).floor() as i64 + 1).max(1);
        let dims = [dim(min.x, max.x), dim(min.y, max.y), dim(min.z, max.z)];
        BucketGrid {
            min,
            cell,
            dims,
            buckets: vec![Vec::new(); (dims[0] * dims[1] * dims[2]) as usize],
        }
    }

    fn coords(&self, p: Vec3) -> [i64; 3] {
        let clamp =
            |v: f64, lo: f64, n: i64| (((v - lo) / self.cell).floor() as i64).clamp(0, n - 1);
        [
            clamp(p.x, self.min.x, self.dims[0]),
            clamp(p.y, self.min.y, self.dims[1]),
            clamp(p.z, self.min.z, self.dims[2]),
        ]
    }

    fn bucket_index(&self, c: [i64; 3]) -> usize {
        ((c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]) as usize
    }

    fn insert(&mut self, p: Vec3, index: u32) {
        let b = self.bucket_index(self.coords(p));
        self.buckets[b].push((index, p));
    }

    /// Visits every bucket whose Chebyshev cell distance from `c` is
    /// exactly `ring`.
    fn for_ring(&self, c: [i64; 3], ring: i64, mut f: impl FnMut([i64; 3], &[(u32, Vec3)])) {
        let (x0, x1) = (c[0] - ring, c[0] + ring);
        for x in x0.max(0)..=x1.min(self.dims[0] - 1) {
            for y in (c[1] - ring).max(0)..=(c[1] + ring).min(self.dims[1] - 1) {
                for z in (c[2] - ring).max(0)..=(c[2] + ring).min(self.dims[2] - 1) {
                    let on_ring = x == x0
                        || x == x1
                        || y == c[1] - ring
                        || y == c[1] + ring
                        || z == c[2] - ring
                        || z == c[2] + ring;
                    if ring == 0 || on_ring {
                        f([x, y, z], &self.buckets[self.bucket_index([x, y, z])]);
                    }
                }
            }
        }
    }

    /// The exact lower bound of the squared distance from `p` to any node
    /// stored in bucket `c` — boundary buckets absorb clamped coordinates,
    /// so their box extends to infinity on the clamped side.  A generous
    /// slack keeps the bound conservative against the rounding of the box
    /// corner arithmetic (over-scanning never changes a query result).
    fn bucket_min_dist2(&self, p: Vec3, c: [i64; 3]) -> f64 {
        let dx = self.axis_gap(p.x, self.min.x, c[0], self.dims[0]);
        let dy = self.axis_gap(p.y, self.min.y, c[1], self.dims[1]);
        let dz = self.axis_gap(p.z, self.min.z, c[2], self.dims[2]);
        (dx * dx + dy * dy + dz * dz) * (1.0 - 1e-9)
    }

    /// The index of the node nearest to `p` (first index on exact
    /// squared-distance ties, like a linear scan; see the type-level note
    /// on squared-distance comparisons).
    fn nearest(&self, p: Vec3) -> usize {
        let c = self.coords(p);
        let max_ring = self.dims.iter().copied().max().unwrap_or(1);
        let mut best = 0usize;
        let mut best_d2 = f64::INFINITY;
        let mut found = false;
        for ring in 0..=max_ring {
            // Ring-level pruning: reaching a ring-`ring` bucket crosses at
            // least `ring - 1` whole cell layers (conservatively slacked;
            // over-scanning never changes the argmin).
            let bound = ((ring - 1).max(0) as f64 * self.cell) * (1.0 - 1e-12);
            if found && bound > 0.0 && bound * bound > best_d2 {
                break;
            }
            self.for_ring(c, ring, |bucket_c, bucket| {
                if bucket.is_empty() || (found && self.bucket_min_dist2(p, bucket_c) > best_d2) {
                    return;
                }
                for &(i, pos) in bucket {
                    let d2 = (pos - p).norm_squared();
                    if d2 < best_d2 || (d2 == best_d2 && (i as usize) < best) {
                        best_d2 = d2;
                        best = i as usize;
                        found = true;
                    }
                }
            });
        }
        best
    }

    /// The conservative gap between coordinate `v` and bucket slab `ci`
    /// along one axis (0 when `v` falls inside the slab; boundary slabs
    /// absorb clamped coordinates, so they extend to infinity outward).
    fn axis_gap(&self, v: f64, lo: f64, ci: i64, n: i64) -> f64 {
        let b_lo = if ci == 0 {
            f64::NEG_INFINITY
        } else {
            lo + ci as f64 * self.cell
        };
        let b_hi = if ci == n - 1 {
            f64::INFINITY
        } else {
            lo + (ci + 1) as f64 * self.cell
        };
        (b_lo - v).max(v - b_hi).max(0.0)
    }

    /// Collects into `out` every node within `radius` of `p` as an
    /// `(index, d²)` pair, in bucket order.  Whole (x, y) columns of
    /// buckets are pruned by their conservative squared gap to `p` — a
    /// pruned column's points all sit strictly beyond `radius`, so the
    /// result set is exactly the linear scan's.
    fn within(&self, p: Vec3, radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let c = self.coords(p);
        let r2 = radius * radius;
        let reach = (radius / self.cell).ceil() as i64;
        for x in (c[0] - reach).max(0)..=(c[0] + reach).min(self.dims[0] - 1) {
            let gx = self.axis_gap(p.x, self.min.x, x, self.dims[0]);
            for y in (c[1] - reach).max(0)..=(c[1] + reach).min(self.dims[1] - 1) {
                let gy = self.axis_gap(p.y, self.min.y, y, self.dims[1]);
                if (gx * gx + gy * gy) * (1.0 - 1e-9) > r2 {
                    continue;
                }
                for z in (c[2] - reach).max(0)..=(c[2] + reach).min(self.dims[2] - 1) {
                    for &(i, pos) in &self.buckets[self.bucket_index([x, y, z])] {
                        let d2 = (pos - p).norm_squared();
                        if d2 <= r2 {
                            out.push((i as usize, d2));
                        }
                    }
                }
            }
        }
    }
}

/// The RRT* planner.
#[derive(Debug, Clone)]
pub struct RrtStar {
    config: RrtStarConfig,
    rng: SmallRng,
    /// Neighbourhood scratch, reused across iterations so the inner loop
    /// allocates nothing (tree growth aside).
    neighbor_scratch: Vec<(usize, f64)>,
}

impl Default for RrtStar {
    fn default() -> Self {
        RrtStar::new(RrtStarConfig::default())
    }
}

impl RrtStar {
    /// Creates an RRT* planner with the given configuration.
    pub fn new(config: RrtStarConfig) -> Self {
        RrtStar {
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            neighbor_scratch: Vec::new(),
        }
    }

    /// The planner configuration.
    pub fn config(&self) -> &RrtStarConfig {
        &self.config
    }

    fn sample(&mut self, workspace: &Workspace, goal: Vec3) -> Vec3 {
        if self.rng.random::<f64>() < self.config.goal_bias {
            return goal;
        }
        let b = workspace.bounds();
        Vec3::new(
            self.rng.random_range(b.min.x..=b.max.x),
            self.rng.random_range(b.min.y..=b.max.y),
            self.rng.random_range(b.min.z..=b.max.z),
        )
    }

    fn steer(&self, from: Vec3, toward: Vec3) -> Vec3 {
        let d = from.distance(&toward);
        if d <= self.config.step_size {
            toward
        } else {
            from + (toward - from) * (self.config.step_size / d)
        }
    }

    /// Extracts and shortcut-smooths the path ending at `goal_index`.
    fn extract_path(checker: &ClearanceChecker, tree: &[TreeNode], goal_index: usize) -> Vec<Vec3> {
        let mut path = Vec::new();
        let mut idx = Some(goal_index);
        while let Some(i) = idx {
            path.push(tree[i].position);
            idx = tree[i].parent;
        }
        path.reverse();
        shortcut(checker, path)
    }
}

impl MotionPlanner for RrtStar {
    fn name(&self) -> &str {
        "rrt-star"
    }

    fn plan(&mut self, workspace: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        let cfg = self.config;
        if !workspace.is_free_with_margin(start, 0.0) || !workspace.is_free_with_margin(goal, 0.0) {
            return None;
        }
        let checker = workspace.clearance_checker(cfg.margin);
        // Trivial case: straight shot.
        if checker.segment_free(start, goal) {
            return Some(vec![start, goal]);
        }
        // Whether start/goal are free at the *query margin* (the entry
        // check above uses margin 0): every segment touching them must
        // still include that endpoint condition, as the full segment check
        // would.
        let start_margin_ok = checker.point_free(start);
        let goal_margin_ok = checker.point_free(goal);
        let mut tree = vec![TreeNode {
            position: start,
            parent: None,
            cost: 0.0,
        }];
        let b = workspace.bounds();
        // Radius-sized cells won the layout shootout: the 3x3x3
        // neighbourhood block needs no ring logic, and finer cells pay more
        // in bucket-iteration overhead than they save in distance tests.
        // The cell size only affects performance, never results (queries
        // filter by the true radius), so degenerate configurations —
        // neighbor_radius of zero, or tiny radii that would explode the
        // bucket count — fall back to a 1 m floor.
        // Every non-start node inserted below is point-free at the query
        // margin (the `edge_free` precondition).
        let mut grid = BucketGrid::new(b.min, b.max, cfg.neighbor_radius.max(1.0));
        grid.insert(start, 0);
        // Full segment freeness for a tree edge: endpoint freeness (only
        // node 0 can fail it, see above) plus obstacle clearance.
        let edge_free =
            |i: usize, a: Vec3, b: Vec3| (i != 0 || start_margin_ok) && checker.segment_clear(a, b);
        let mut best_goal: Option<(usize, f64)> = None;
        for _ in 0..cfg.max_iterations {
            let sample = self.sample(workspace, goal);
            let nearest = grid.nearest(sample);
            let new_pos = self.steer(tree[nearest].position, sample);
            if !checker.point_free(new_pos) {
                continue;
            }
            if !edge_free(nearest, tree[nearest].position, new_pos) {
                continue;
            }
            // Choose the best parent within the neighbourhood: the
            // lexicographic minimum of `(cost via i, i)` over edge-free
            // neighbours strictly cheaper than via `nearest`, else
            // `nearest` — what a strict-`<` scan in ascending index order
            // picks.  The neighbours arrive in bucket order, so an exact
            // cost tie (the goal-bias sample inserts the goal position more
            // than once) falls to the lower index, except against the
            // initial incumbent, which only a strictly cheaper neighbour
            // displaces.  `edge_free` is pure, so checking fewer or more
            // edges cannot change the pick.  `d².sqrt()` is bitwise
            // `Vec3::distance`: same operands, same operations.
            let mut parent = nearest;
            let mut cost = tree[nearest].cost + tree[nearest].position.distance(&new_pos);
            let mut displaced = false;
            let mut neighbors = std::mem::take(&mut self.neighbor_scratch);
            grid.within(new_pos, cfg.neighbor_radius, &mut neighbors);
            for &(i, d2) in &neighbors {
                // Distances are non-negative, so a neighbour whose cost
                // alone exceeds the incumbent can never win — skip it
                // before paying for the square root.  (Not `>=`: an exact
                // tie may still win on index.)
                if tree[i].cost > cost {
                    continue;
                }
                let candidate_cost = tree[i].cost + d2.sqrt();
                let wins =
                    candidate_cost < cost || candidate_cost == cost && displaced && i < parent;
                if wins && edge_free(i, tree[i].position, new_pos) {
                    parent = i;
                    cost = candidate_cost;
                    displaced = true;
                }
            }
            let new_index = tree.len();
            tree.push(TreeNode {
                position: new_pos,
                parent: Some(parent),
                cost,
            });
            grid.insert(new_pos, new_index as u32);
            // Rewire the neighbourhood through the new node when cheaper.
            // Each test reads only neighbour `i` and the new node's cost, so
            // the visiting order is irrelevant; `d²` is symmetric to the bit
            // (a negated difference squares identically).
            for &(i, d2) in &neighbors {
                // Same prefilter in reverse: rewiring needs
                // `cost + d + 1e-9 < tree[i].cost`, impossible once the new
                // node's cost alone reaches the neighbour's.
                if cost + 1e-9 >= tree[i].cost {
                    continue;
                }
                let through_new = cost + d2.sqrt();
                if through_new + 1e-9 < tree[i].cost && edge_free(i, new_pos, tree[i].position) {
                    tree[i].parent = Some(new_index);
                    tree[i].cost = through_new;
                }
            }
            self.neighbor_scratch = neighbors;
            // Track the best connection to the goal (distance tests first:
            // most nodes are too far for the segment check to matter).
            let goal_gap = new_pos.distance(&goal);
            if goal_gap <= cfg.goal_tolerance
                || goal_margin_ok
                    && goal_gap <= cfg.step_size
                    && checker.segment_clear(new_pos, goal)
            {
                let goal_cost = cost + new_pos.distance(&goal);
                if best_goal.map(|(_, c)| goal_cost < c).unwrap_or(true) {
                    best_goal = Some((new_index, goal_cost));
                }
            }
        }
        let (goal_parent, _) = best_goal?;
        let mut path = Self::extract_path(&checker, &tree, goal_parent);
        if path
            .last()
            .map(|p| p.distance(&goal) > 1e-9)
            .unwrap_or(true)
        {
            path.push(goal);
        }
        Some(path)
    }

    fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.config.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_plan;

    /// The bucket grid must reproduce the plain linear scans *exactly* —
    /// argmin tie-breaking, the neighbour set and each neighbour's `d²`
    /// included (the neighbour order is unspecified) — on random point
    /// clouds (including stacked duplicate positions, the worst case for
    /// ties).
    #[test]
    fn bucket_grid_matches_linear_scans() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let (lo, hi) = (Vec3::new(0.0, 0.0, 0.0), Vec3::new(50.0, 50.0, 12.0));
        let radius = 6.0;
        let mut tree: Vec<TreeNode> = Vec::new();
        let mut grid = BucketGrid::new(lo, hi, radius);
        let mut scratch = Vec::new();
        for round in 0..600 {
            let rand_point = |rng: &mut SmallRng| {
                Vec3::new(
                    rng.random_range(lo.x..=hi.x),
                    rng.random_range(lo.y..=hi.y),
                    rng.random_range(lo.z..=hi.z),
                )
            };
            let p = if round % 7 == 0 && !tree.is_empty() {
                // Exact duplicate of an existing node: forces distance ties.
                tree[round % tree.len()].position
            } else {
                rand_point(&mut rng)
            };
            grid.insert(p, tree.len() as u32);
            tree.push(TreeNode {
                position: p,
                parent: None,
                cost: 0.0,
            });
            let q = if round % 5 == 0 {
                p
            } else {
                rand_point(&mut rng)
            };
            // Reference: the original linear scans.
            let mut naive_best = 0;
            let mut naive_d = f64::INFINITY;
            let mut naive_within = Vec::new();
            for (i, n) in tree.iter().enumerate() {
                let d = n.position.distance(&q);
                if d < naive_d {
                    naive_d = d;
                    naive_best = i;
                }
                if d <= radius {
                    naive_within.push((i, (n.position - q).norm_squared()));
                }
            }
            assert_eq!(grid.nearest(q), naive_best, "round {round}");
            grid.within(q, radius, &mut scratch);
            scratch.sort_unstable_by_key(|&(i, _)| i);
            let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                v.iter().map(|&(i, d2)| (i, d2.to_bits())).collect()
            };
            assert_eq!(bits(&scratch), bits(&naive_within), "round {round}");
        }
    }

    #[test]
    fn plans_straight_line_in_open_space() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let plan = p
            .plan(&w, Vec3::new(3.0, 3.0, 2.5), Vec3::new(3.0, 40.0, 2.5))
            .expect("open-street query must succeed");
        assert_eq!(
            plan.len(),
            2,
            "straight shot should not need intermediate waypoints"
        );
    }

    #[test]
    fn plans_around_buildings() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let start = Vec3::new(3.0, 13.0, 2.5);
        let goal = Vec3::new(47.0, 21.0, 2.5);
        let plan = p
            .plan(&w, start, goal)
            .expect("cross-block query must succeed");
        assert!(
            plan.len() >= 3,
            "the straight line is blocked, so waypoints are needed"
        );
        assert_eq!(plan[0], start);
        assert_eq!(*plan.last().unwrap(), goal);
        assert!(
            validate_plan(&w, &plan, 0.0).is_ok(),
            "RRT* plans must be collision-free"
        );
    }

    #[test]
    fn all_surveillance_pairs_are_plannable() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let pts = w.surveillance_points().to_vec();
        for (i, a) in pts.iter().enumerate() {
            for b in pts.iter().skip(i + 1) {
                let plan = p
                    .plan(&w, *a, *b)
                    .unwrap_or_else(|| panic!("no plan {a} -> {b}"));
                assert!(
                    validate_plan(&w, &plan, 0.0).is_ok(),
                    "colliding plan {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn unreachable_queries_return_none() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        // Goal inside a building.
        assert!(p
            .plan(&w, Vec3::new(3.0, 3.0, 2.5), Vec3::new(13.0, 13.0, 2.0))
            .is_none());
        // Start outside the workspace.
        assert!(p
            .plan(&w, Vec3::new(-5.0, 3.0, 2.5), Vec3::new(3.0, 3.0, 2.5))
            .is_none());
    }

    #[test]
    fn zero_neighbor_radius_degrades_gracefully() {
        // A degenerate but representable configuration: no rewiring
        // neighbourhood at all.  The planner must still answer instead of
        // panicking on the grid cell size.
        let w = Workspace::city_block();
        let mut p = RrtStar::new(RrtStarConfig {
            neighbor_radius: 0.0,
            ..RrtStarConfig::default()
        });
        let plan = p
            .plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5))
            .expect("plain RRT (no rewiring) still finds the detour");
        assert!(validate_plan(&w, &plan, 0.0).is_ok());
    }

    #[test]
    fn planning_is_deterministic_per_seed() {
        let w = Workspace::city_block();
        let run = |seed| {
            let mut p = RrtStar::new(RrtStarConfig {
                seed,
                ..RrtStarConfig::default()
            });
            p.plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5))
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn reset_restores_the_sampling_stream() {
        let w = Workspace::city_block();
        let mut p = RrtStar::default();
        let a = p.plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5));
        p.reset();
        let b = p.plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5));
        assert_eq!(a, b);
    }

    #[test]
    fn shortcutting_reduces_waypoint_count() {
        let w = Workspace::city_block();
        let p = RrtStar::default();
        // A needlessly zig-zagging path along an open street.
        let zigzag = vec![
            Vec3::new(3.0, 3.0, 2.5),
            Vec3::new(4.0, 10.0, 2.5),
            Vec3::new(3.0, 20.0, 2.5),
            Vec3::new(4.5, 30.0, 2.5),
            Vec3::new(3.0, 40.0, 2.5),
        ];
        let short = shortcut(&w.clearance_checker(p.config().margin), zigzag.clone());
        assert!(short.len() < zigzag.len());
        assert_eq!(short[0], zigzag[0]);
        assert_eq!(*short.last().unwrap(), *zigzag.last().unwrap());
    }
}
