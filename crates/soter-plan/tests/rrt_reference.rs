//! Differential check of [`RrtStar::plan`] against a plain reference RRT*.
//!
//! The reference below is the textbook form of the planner's algorithm:
//! linear scans over squared distances, the neighbourhood visited in
//! ascending index order, a strict-`<` choose-parent and rewire with no
//! cost prefilters, and every clearance query asked of the [`Workspace`]
//! directly.  It consumes the random stream exactly like the planner, so
//! the two must agree bit for bit on every waypoint of every query — across
//! whole query sequences, because one stateful planner (and one stateful
//! reference) answers all queries of a workspace and the sampling stream
//! carries over between them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter_plan::buggy::BuggyRrtStarConfig;
use soter_plan::{BuggyRrtStar, MotionPlanner, RrtStar, RrtStarConfig};
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// Queries per workspace and configuration.
const QUERIES: usize = 40;

/// The iteration budget: below the default 4000 so the quadratic reference
/// stays fast in debug builds, still enough to solve most detours.  The
/// shipped budget, where the tree is dense, has its own release-only case.
const ITERATIONS: usize = 600;

struct ReferenceRrtStar {
    cfg: RrtStarConfig,
    rng: SmallRng,
}

impl ReferenceRrtStar {
    fn new(cfg: RrtStarConfig) -> Self {
        ReferenceRrtStar {
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed),
        }
    }

    fn sample(&mut self, w: &Workspace, goal: Vec3) -> Vec3 {
        if self.rng.random::<f64>() < self.cfg.goal_bias {
            return goal;
        }
        let b = w.bounds();
        Vec3::new(
            self.rng.random_range(b.min.x..=b.max.x),
            self.rng.random_range(b.min.y..=b.max.y),
            self.rng.random_range(b.min.z..=b.max.z),
        )
    }

    fn steer(&self, from: Vec3, toward: Vec3) -> Vec3 {
        let d = from.distance(&toward);
        if d <= self.cfg.step_size {
            toward
        } else {
            from + (toward - from) * (self.cfg.step_size / d)
        }
    }

    fn plan(&mut self, w: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        let cfg = self.cfg;
        let free = |a: Vec3, b: Vec3| w.segment_is_free_with_margin(a, b, cfg.margin);
        if !w.is_free(start) || !w.is_free(goal) {
            return None;
        }
        if free(start, goal) {
            return Some(vec![start, goal]);
        }
        let mut pos = vec![start];
        let mut parent: Vec<Option<usize>> = vec![None];
        let mut cost = vec![0.0f64];
        let r2 = cfg.neighbor_radius * cfg.neighbor_radius;
        let mut best_goal: Option<(usize, f64)> = None;
        for _ in 0..cfg.max_iterations {
            let sample = self.sample(w, goal);
            let mut nearest = 0;
            let mut nearest_d2 = f64::INFINITY;
            for (i, p) in pos.iter().enumerate() {
                let d2 = (*p - sample).norm_squared();
                if d2 < nearest_d2 {
                    nearest_d2 = d2;
                    nearest = i;
                }
            }
            let new_pos = self.steer(pos[nearest], sample);
            if !w.is_free_with_margin(new_pos, cfg.margin) || !free(pos[nearest], new_pos) {
                continue;
            }
            let neighbors: Vec<usize> = (0..pos.len())
                .filter(|&i| (pos[i] - new_pos).norm_squared() <= r2)
                .collect();
            let mut best_parent = nearest;
            let mut best_cost = cost[nearest] + pos[nearest].distance(&new_pos);
            for &i in &neighbors {
                let c = cost[i] + pos[i].distance(&new_pos);
                if c < best_cost && free(pos[i], new_pos) {
                    best_parent = i;
                    best_cost = c;
                }
            }
            let new_index = pos.len();
            pos.push(new_pos);
            parent.push(Some(best_parent));
            cost.push(best_cost);
            for &i in &neighbors {
                let through_new = best_cost + new_pos.distance(&pos[i]);
                if through_new + 1e-9 < cost[i] && free(new_pos, pos[i]) {
                    parent[i] = Some(new_index);
                    cost[i] = through_new;
                }
            }
            let gap = new_pos.distance(&goal);
            if gap <= cfg.goal_tolerance || gap <= cfg.step_size && free(new_pos, goal) {
                let goal_cost = best_cost + gap;
                if best_goal.is_none_or(|(_, c)| goal_cost < c) {
                    best_goal = Some((new_index, goal_cost));
                }
            }
        }
        let (goal_parent, _) = best_goal?;
        let mut raw = Vec::new();
        let mut idx = Some(goal_parent);
        while let Some(i) = idx {
            raw.push(pos[i]);
            idx = parent[i];
        }
        raw.reverse();
        let mut path = shortcut(&free, raw);
        if path.last().is_none_or(|p| p.distance(&goal) > 1e-9) {
            path.push(goal);
        }
        Some(path)
    }
}

fn shortcut(free: &impl Fn(Vec3, Vec3) -> bool, path: Vec<Vec3>) -> Vec<Vec3> {
    if path.len() <= 2 {
        return path;
    }
    let mut out = vec![path[0]];
    let mut i = 0;
    while i + 1 < path.len() {
        let mut j = path.len() - 1;
        while j > i + 1 && !free(path[i], path[j]) {
            j -= 1;
        }
        out.push(path[j]);
        i = j;
    }
    out
}

/// The reference counterpart of [`BuggyRrtStar`]: the same bug trigger
/// stream in front of the reference planner.
struct ReferenceBuggy {
    inner: ReferenceRrtStar,
    bug_probability: f64,
    rng: SmallRng,
}

impl ReferenceBuggy {
    fn plan(&mut self, w: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        if self.rng.random::<f64>() < self.bug_probability {
            return Some(vec![start, goal]);
        }
        self.inner.plan(w, start, goal)
    }
}

/// `QUERIES` start/goal pairs drawn uniformly from free space.  Every
/// fourth pair is only free at margin zero, so it may sit inside the
/// planner's clearance margin and exercise the start/goal margin special
/// cases; the rest are free at the planner's margin.
fn queries(w: &Workspace, seed: u64) -> Vec<(Vec3, Vec3)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let b = *w.bounds();
    let mut point = move |margin: f64| loop {
        let p = Vec3::new(
            rng.random_range(b.min.x..=b.max.x),
            rng.random_range(b.min.y..=b.max.y),
            rng.random_range(b.min.z..=b.max.z),
        );
        if w.is_free_with_margin(p, margin) {
            return p;
        }
    };
    (0..QUERIES)
        .map(|k| {
            let margin = if k % 4 == 0 {
                0.0
            } else {
                RrtStarConfig::default().margin
            };
            (point(margin), point(margin))
        })
        .collect()
}

fn bits(plan: &Option<Vec<Vec3>>) -> Option<Vec<[u64; 3]>> {
    plan.as_ref().map(|p| {
        p.iter()
            .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect()
    })
}

fn workspaces() -> [(&'static str, Workspace); 3] {
    [
        ("city_block", Workspace::city_block()),
        ("corner_cut_course", Workspace::corner_cut_course()),
        ("contested_corridor", Workspace::contested_corridor()),
    ]
}

/// Runs both planners over one workspace's query sequence, asserts
/// bit-identical answers, and returns how many answers needed waypoints
/// beyond start and goal (the queries that exercised the tree).
fn compare(
    label: &str,
    queries: Vec<(Vec3, Vec3)>,
    mut planner: impl FnMut(Vec3, Vec3) -> Option<Vec<Vec3>>,
    mut reference: impl FnMut(Vec3, Vec3) -> Option<Vec<Vec3>>,
) -> usize {
    let mut detours = 0;
    for (q, (start, goal)) in queries.into_iter().enumerate() {
        let got = planner(start, goal);
        let want = reference(start, goal);
        assert_eq!(
            bits(&got),
            bits(&want),
            "{label}: query {q} {start} -> {goal}"
        );
        detours += usize::from(got.is_some_and(|p| p.len() > 2));
    }
    detours
}

fn config(overrides: impl Fn(&mut RrtStarConfig)) -> RrtStarConfig {
    let mut cfg = RrtStarConfig {
        max_iterations: ITERATIONS,
        ..RrtStarConfig::default()
    };
    overrides(&mut cfg);
    cfg
}

/// Free start/goal pairs more than 5 m apart, drawn the way the stress
/// scenario's random-target policy draws its queries.
fn stress_queries(w: &Workspace, seed: u64) -> Vec<(Vec3, Vec3)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    while pairs.len() < QUERIES {
        let (Some(a), Some(b)) = (
            w.sample_free_point(&mut rng, 200),
            w.sample_free_point(&mut rng, 200),
        ) else {
            continue;
        };
        if a.distance(&b) > 5.0 {
            pairs.push((a, b));
        }
    }
    pairs
}

fn check_config(name: &str, cfg: RrtStarConfig) {
    let mut detours = 0;
    for (ws_name, w) in workspaces() {
        let mut planner = RrtStar::new(cfg);
        let mut reference = ReferenceRrtStar::new(cfg);
        detours += compare(
            &format!("{name}/{ws_name}"),
            queries(&w, 7),
            |s, g| planner.plan(&w, s, g),
            |s, g| reference.plan(&w, s, g),
        );
    }
    assert!(detours > 0, "{name}: no query exercised the tree");
}

#[test]
fn rrt_star_matches_reference() {
    check_config("default", config(|_| {}));
}

#[test]
fn rrt_star_matches_reference_under_heavy_goal_bias() {
    // Every other sample is the goal itself, so the goal position enters
    // the tree repeatedly and exact cost ties between neighbours are real.
    check_config("goal_bias=0.5", config(|c| c.goal_bias = 0.5));
}

#[test]
fn rrt_star_matches_reference_without_neighbourhood() {
    check_config("neighbor_radius=0", config(|c| c.neighbor_radius = 0.0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "quadratic reference; run with --release")]
fn rrt_star_matches_reference_at_the_shipped_budget() {
    // The default 4000 iterations grow a dense tree, where `nearest` walks
    // its bounding box over many populated buckets and neighbourhoods are
    // large.
    let cfg = RrtStarConfig::default();
    let w = Workspace::city_block();
    let mut planner = RrtStar::new(cfg);
    let mut reference = ReferenceRrtStar::new(cfg);
    let detours = compare(
        "shipped-budget/city_block",
        stress_queries(&w, 11),
        |s, g| planner.plan(&w, s, g),
        |s, g| reference.plan(&w, s, g),
    );
    assert!(detours > 0, "shipped budget: no query exercised the tree");
}

#[test]
fn buggy_rrt_star_matches_reference() {
    let cfg = BuggyRrtStarConfig {
        inner: config(|_| {}),
        ..BuggyRrtStarConfig::default()
    };
    let mut detours = 0;
    for (ws_name, w) in workspaces() {
        let mut planner = BuggyRrtStar::new(cfg);
        let mut reference = ReferenceBuggy {
            inner: ReferenceRrtStar::new(cfg.inner),
            bug_probability: cfg.bug_probability,
            rng: SmallRng::seed_from_u64(cfg.bug_seed),
        };
        detours += compare(
            &format!("buggy/{ws_name}"),
            queries(&w, 7),
            |s, g| planner.plan(&w, s, g),
            |s, g| reference.plan(&w, s, g),
        );
    }
    assert!(detours > 0, "buggy: no query exercised the tree");
}
