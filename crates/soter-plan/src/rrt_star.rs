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

/// A uniform bucket grid over the workspace bounds, indexing tree nodes by
/// position for the planner's two hot queries.  Both reproduce a linear
/// scan over squared distances: `nearest` returns the lexicographically
/// minimal `(d², index)` pair (a linear scan's first-minimum) and `within`
/// returns exactly the linear scan's `(index, d²)` set, in bucket order —
/// its consumers in `plan` are order-free.  Nodes are inserted in index
/// order, so indices rise within every bucket.  Squared distances order
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
    /// instead of chasing indices through the tree arrays.
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
    fn for_ring(&self, c: [i64; 3], ring: i64, mut f: impl FnMut(&[(u32, Vec3)])) {
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
                        f(&self.buckets[self.bucket_index([x, y, z])]);
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

    /// Lowers `best`, a `(d², index)` pair, to the lexicographically
    /// minimal entry of one bucket when that entry is smaller.  A
    /// branch-free fold finds the bucket's minimal `d²`; only when it can
    /// win does a second pass look for the first entry at that minimum,
    /// which carries the lowest index because indices rise within a
    /// bucket.  Recomputing an entry's `d²` reproduces the fold's bits.
    fn bucket_nearest(p: Vec3, bucket: &[(u32, Vec3)], best: &mut (f64, usize)) {
        let d2 = bucket.iter().fold(f64::INFINITY, |m, &(_, pos)| {
            let d2 = (pos - p).norm_squared();
            if d2 < m {
                d2
            } else {
                m
            }
        });
        if d2 > best.0 {
            return;
        }
        if let Some(&(i, _)) = bucket
            .iter()
            .find(|&&(_, pos)| (pos - p).norm_squared() == d2)
        {
            if d2 < best.0 || (i as usize) < best.1 {
                *best = (d2, i as usize);
            }
        }
    }

    /// The index of the node nearest to `p` (first index on exact
    /// squared-distance ties, like a linear scan; see the type-level note
    /// on squared-distance comparisons).  The home bucket — or, when it is
    /// empty, the first ring of buckets holding any node — bounds the
    /// answer's `d²`; then only the buckets overlapping the box of that
    /// radius around `p` can hold a nearer node.  Every node within
    /// `sqrt(d²)` of `p` lies in the box because `coords` is monotone per
    /// axis; the slack on the radius covers the rounding of `p ± r`.
    fn nearest(&self, p: Vec3) -> usize {
        let c = self.coords(p);
        let mut best = (f64::INFINITY, usize::MAX);
        // Rings `0..seeded` have been scanned in full.
        let mut seeded = 0;
        while best.0 == f64::INFINITY && seeded < self.dims.iter().copied().max().unwrap_or(1) {
            self.for_ring(c, seeded, |bucket| {
                Self::bucket_nearest(p, bucket, &mut best)
            });
            seeded += 1;
        }
        let r = best.0.sqrt() * (1.0 + 1e-9) + 1e-9;
        let lo = self.coords(p - Vec3::new(r, r, r));
        let hi = self.coords(p + Vec3::new(r, r, r));
        for x in lo[0]..=hi[0] {
            for y in lo[1]..=hi[1] {
                for z in lo[2]..=hi[2] {
                    let ring = (x - c[0]).abs().max((y - c[1]).abs()).max((z - c[2]).abs());
                    let bucket = &self.buckets[self.bucket_index([x, y, z])];
                    if ring < seeded
                        || bucket.is_empty()
                        || self.bucket_min_dist2(p, [x, y, z]) > best.0
                    {
                        continue;
                    }
                    Self::bucket_nearest(p, bucket, &mut best);
                }
            }
        }
        best.1
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

    /// Writes every node within `radius` of `p` as an `(index, d²)` pair,
    /// in bucket order, to the front of `out` and returns how many there
    /// are; `out` only grows, and entries past the count are stale.  Whole
    /// (x, y) columns of buckets are pruned by their conservative squared
    /// gap to `p` — a pruned column's points all sit strictly beyond
    /// `radius`, so the result set is exactly the linear scan's.  Every
    /// scanned pair is written unconditionally and the count advances only
    /// past the ones in range, so the scan has no data-dependent branch.
    fn within(&self, p: Vec3, radius: f64, out: &mut Vec<(usize, f64)>) -> usize {
        let c = self.coords(p);
        let r2 = radius * radius;
        let reach = (radius / self.cell).ceil() as i64;
        let mut count = 0;
        for x in (c[0] - reach).max(0)..=(c[0] + reach).min(self.dims[0] - 1) {
            let gx = self.axis_gap(p.x, self.min.x, x, self.dims[0]);
            for y in (c[1] - reach).max(0)..=(c[1] + reach).min(self.dims[1] - 1) {
                let gy = self.axis_gap(p.y, self.min.y, y, self.dims[1]);
                if (gx * gx + gy * gy) * (1.0 - 1e-9) > r2 {
                    continue;
                }
                for z in (c[2] - reach).max(0)..=(c[2] + reach).min(self.dims[2] - 1) {
                    let bucket = &self.buckets[self.bucket_index([x, y, z])];
                    if out.len() < count + bucket.len() {
                        out.resize(count + bucket.len(), (0, 0.0));
                    }
                    for &(i, pos) in bucket {
                        let d2 = (pos - p).norm_squared();
                        out[count] = (i as usize, d2);
                        count += usize::from(d2 <= r2);
                    }
                }
            }
        }
        count
    }
}

/// The RRT* planner.
#[derive(Debug, Clone)]
pub struct RrtStar {
    config: RrtStarConfig,
    rng: SmallRng,
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
    fn extract_path(
        checker: &ClearanceChecker,
        positions: &[Vec3],
        parents: &[Option<usize>],
        goal_index: usize,
    ) -> Vec<Vec3> {
        let mut path = Vec::new();
        let mut idx = Some(goal_index);
        while let Some(i) = idx {
            path.push(positions[i]);
            idx = parents[i];
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
        // The tree as parallel arrays: the per-neighbour passes below
        // gather from the dense `costs` array alone.
        let mut positions = vec![start];
        let mut parents: Vec<Option<usize>> = vec![None];
        let mut costs = vec![0.0f64];
        let b = workspace.bounds();
        // Radius-sized cells: `within` then walks at most the 3x3x3 block
        // around the new node, and `nearest` walks the few cells its
        // bounding box covers (half-radius cells measured slower: more
        // buckets per `within`).  The cell size only affects performance,
        // never results (queries filter by true distances), so degenerate
        // configurations — neighbor_radius of zero, or tiny radii that
        // would explode the bucket count — fall back to a 1 m floor.
        // Every non-start node inserted below is point-free at the query
        // margin (the `edge_free` precondition).
        let mut grid = BucketGrid::new(b.min, b.max, cfg.neighbor_radius.max(1.0));
        grid.insert(start, 0);
        // Full segment freeness for a tree edge: endpoint freeness (only
        // node 0 can fail it, see above) plus obstacle clearance.
        let edge_free =
            |i: usize, a: Vec3, b: Vec3| (i != 0 || start_margin_ok) && checker.segment_clear(a, b);
        // Per-query scratch, grown on demand and never shrunk: the
        // neighbourhood as `(index, d²)` pairs and the choose-parent
        // candidates as `(cost via i, i)` pairs.
        let mut scratch = Vec::new();
        let mut candidates: Vec<(f64, usize)> = Vec::new();
        let mut best_goal: Option<(usize, f64)> = None;
        for _ in 0..cfg.max_iterations {
            let sample = self.sample(workspace, goal);
            let nearest = grid.nearest(sample);
            let new_pos = self.steer(positions[nearest], sample);
            if !checker.point_free(new_pos) {
                continue;
            }
            if !edge_free(nearest, positions[nearest], new_pos) {
                continue;
            }
            // Choose the best parent within the neighbourhood: the
            // lexicographic minimum of `(cost via i, i)` over edge-free
            // neighbours strictly cheaper than via `nearest`, else
            // `nearest` — what a strict-`<` scan in ascending index order
            // picks.  The candidates are edge-checked in exactly that
            // order (each round selects the least unchecked one) and the
            // first free one wins; `edge_free` is pure, so checking fewer
            // edges cannot change the pick.  The pass turns each `d²` into
            // the distance in place, for the rewire below: `d².sqrt()` is
            // bitwise `Vec3::distance` (same operands, same operations),
            // and every candidate is written but only kept when cheaper.
            let mut parent = nearest;
            let mut cost = costs[nearest] + positions[nearest].distance(&new_pos);
            let count = grid.within(new_pos, cfg.neighbor_radius, &mut scratch);
            let neighbors = &mut scratch[..count];
            if candidates.len() < count {
                candidates.resize(count, (0.0, 0));
            }
            let mut unchecked = 0;
            for entry in neighbors.iter_mut() {
                entry.1 = entry.1.sqrt();
                let (i, d) = *entry;
                let via = costs[i] + d;
                candidates[unchecked] = (via, i);
                unchecked += usize::from(via < cost);
            }
            while unchecked > 0 {
                let k = (1..unchecked).fold(0, |k, j| {
                    let (a, b) = (candidates[j], candidates[k]);
                    if a.0 < b.0 || a.0 == b.0 && a.1 < b.1 {
                        j
                    } else {
                        k
                    }
                });
                let (via, i) = candidates[k];
                if edge_free(i, positions[i], new_pos) {
                    parent = i;
                    cost = via;
                    break;
                }
                unchecked -= 1;
                candidates.swap(k, unchecked);
            }
            let new_index = positions.len();
            positions.push(new_pos);
            parents.push(Some(parent));
            costs.push(cost);
            grid.insert(new_pos, new_index as u32);
            // Rewire the neighbourhood through the new node when cheaper.
            // Each test reads only neighbour `i` and the new node's cost, so
            // the visiting order is irrelevant; the distance is symmetric
            // to the bit (a negated difference squares identically).
            for &(i, d) in neighbors.iter() {
                let through_new = cost + d;
                if through_new + 1e-9 < costs[i] && edge_free(i, new_pos, positions[i]) {
                    parents[i] = Some(new_index);
                    costs[i] = through_new;
                }
            }
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
        let mut path = Self::extract_path(&checker, &positions, &parents, goal_parent);
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
    /// argmin tie-breaking and its `d²`, the neighbour set and each
    /// neighbour's `d²` included (the neighbour order is unspecified) — on
    /// random point clouds (including stacked duplicate positions, the
    /// worst case for ties).  Queries also land exactly on the bounds and
    /// outside them (the clamped boundary cells extend to infinity), hit
    /// empty home buckets while the cloud is sparse (so `nearest` seeds its
    /// bound from a ring), and run on grids whose cell size differs from
    /// the query radius.  One cloud sits on the whole-metre lattice, where
    /// squared distances are exact integers and the nearest node often
    /// ties with nodes in other buckets.
    #[test]
    fn bucket_grid_matches_linear_scans() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (lo, hi) = (Vec3::new(0.0, 0.0, 0.0), Vec3::new(50.0, 50.0, 12.0));
        let radius = 6.0;
        let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
            v.iter().map(|&(i, d2)| (i, d2.to_bits())).collect()
        };
        let (mut empty_home, mut cross_bucket_ties) = (0, 0);
        for (seed, cell, lattice) in [
            (42, radius, false),
            (7, 2.5, false),
            (9, 13.0, false),
            (3, radius, true),
        ] {
            let snap = |v: Vec3| {
                if lattice {
                    Vec3::new(v.x.round(), v.y.round(), v.z.round())
                } else {
                    v
                }
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut points: Vec<Vec3> = Vec::new();
            let mut grid = BucketGrid::new(lo, hi, cell);
            let mut scratch = Vec::new();
            for round in 0..600 {
                let rand_point = |rng: &mut SmallRng| {
                    Vec3::new(
                        rng.random_range(lo.x..=hi.x),
                        rng.random_range(lo.y..=hi.y),
                        rng.random_range(lo.z..=hi.z),
                    )
                };
                // Per axis: a random coordinate, a bound, or beyond one.
                let edge_point = |rng: &mut SmallRng| {
                    let mut axis = |l: f64, h: f64| match rng.random_range(0..5) {
                        0 => l,
                        1 => h,
                        2 => l - rng.random_range(0.0..20.0),
                        3 => h + rng.random_range(0.0..20.0),
                        _ => rng.random_range(l..=h),
                    };
                    Vec3::new(axis(lo.x, hi.x), axis(lo.y, hi.y), axis(lo.z, hi.z))
                };
                let p = snap(if round % 7 == 0 && !points.is_empty() {
                    // Exact duplicate of an existing node: forces distance ties.
                    points[round % points.len()]
                } else if round % 11 == 0 {
                    // A node on or next to the bounds.
                    let q = edge_point(&mut rng);
                    Vec3::new(
                        q.x.clamp(lo.x, hi.x),
                        q.y.clamp(lo.y, hi.y),
                        q.z.clamp(lo.z, hi.z),
                    )
                } else {
                    rand_point(&mut rng)
                });
                grid.insert(p, points.len() as u32);
                points.push(p);
                let q = snap(match round % 5 {
                    0 => p,
                    1 | 2 => edge_point(&mut rng),
                    _ => rand_point(&mut rng),
                });
                empty_home +=
                    usize::from(grid.buckets[grid.bucket_index(grid.coords(q))].is_empty());
                // Reference: the plain linear scans over squared distances.
                let mut naive_best = (0, f64::INFINITY);
                let mut naive_within = Vec::new();
                for (i, n) in points.iter().enumerate() {
                    let d2 = (*n - q).norm_squared();
                    if d2 < naive_best.1 {
                        naive_best = (i, d2);
                    }
                    if d2 <= radius * radius {
                        naive_within.push((i, d2));
                    }
                }
                let home = grid.coords(points[naive_best.0]);
                cross_bucket_ties +=
                    usize::from(points.iter().any(|&n| {
                        (n - q).norm_squared() == naive_best.1 && grid.coords(n) != home
                    }));
                let nearest = grid.nearest(q);
                let label = format!("cell {cell}, round {round}, query {q}");
                assert_eq!(
                    bits(&[(nearest, (points[nearest] - q).norm_squared())]),
                    bits(&[naive_best]),
                    "{label}"
                );
                let count = grid.within(q, radius, &mut scratch);
                let mut got = scratch[..count].to_vec();
                got.sort_unstable_by_key(|&(i, _)| i);
                assert_eq!(bits(&got), bits(&naive_within), "{label}");
            }
        }
        assert!(empty_home > 0, "no query seeded `nearest` from a ring");
        assert!(cross_bucket_ties > 0, "no nearest-node tie across buckets");
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
