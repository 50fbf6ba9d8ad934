//! Fault-injected RRT* (the untrusted planner of Sec. V-C).
//!
//! The paper "injected bugs into the implementation of RRT* such that in
//! some cases the generated motion plan can collide with obstacles" and then
//! wrapped the planner in an RTA module to guarantee `φ_plan`.
//! [`BuggyRrtStar`] reproduces that setup: with a configurable probability
//! per query it takes a buggy code path that skips collision checking and
//! returns the straight start→goal segment (even when blocked); every other
//! query is answered by the correct planner.

use crate::rrt_star::{RrtStar, RrtStarConfig};
use crate::traits::MotionPlanner;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;

/// Configuration of the fault-injected planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuggyRrtStarConfig {
    /// Configuration of the underlying (correct) RRT*.
    pub inner: RrtStarConfig,
    /// Probability per query of taking the buggy code path.
    pub bug_probability: f64,
    /// RNG seed of the bug trigger (independent of the planner seed).
    pub bug_seed: u64,
}

impl Default for BuggyRrtStarConfig {
    fn default() -> Self {
        BuggyRrtStarConfig {
            inner: RrtStarConfig::default(),
            bug_probability: 0.3,
            bug_seed: 1,
        }
    }
}

/// The fault-injected RRT* planner.
#[derive(Debug, Clone)]
pub struct BuggyRrtStar {
    inner: RrtStar,
    config: BuggyRrtStarConfig,
    rng: SmallRng,
    buggy_plans: usize,
    total_plans: usize,
}

impl Default for BuggyRrtStar {
    fn default() -> Self {
        BuggyRrtStar::new(BuggyRrtStarConfig::default())
    }
}

impl BuggyRrtStar {
    /// Creates the fault-injected planner.
    pub fn new(config: BuggyRrtStarConfig) -> Self {
        BuggyRrtStar {
            inner: RrtStar::new(config.inner),
            config,
            rng: SmallRng::seed_from_u64(config.bug_seed),
            buggy_plans: 0,
            total_plans: 0,
        }
    }

    /// Number of queries answered through the buggy code path so far.
    pub fn buggy_plan_count(&self) -> usize {
        self.buggy_plans
    }

    /// Total number of queries answered so far.
    pub fn total_plan_count(&self) -> usize {
        self.total_plans
    }
}

impl MotionPlanner for BuggyRrtStar {
    fn name(&self) -> &str {
        "buggy-rrt-star"
    }

    fn plan(&mut self, workspace: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        self.total_plans += 1;
        if self.rng.random::<f64>() < self.config.bug_probability {
            self.buggy_plans += 1;
            // Buggy path: return the direct segment without any collision
            // check — exactly the class of bug the paper injects.
            return Some(vec![start, goal]);
        }
        self.inner.plan(workspace, start, goal)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.rng = SmallRng::seed_from_u64(self.config.bug_seed);
        self.buggy_plans = 0;
        self.total_plans = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_plan;

    #[test]
    fn sometimes_emits_colliding_plans() {
        let w = Workspace::city_block();
        let mut p = BuggyRrtStar::default();
        // Start and goal on opposite sides of the first row of houses.
        let start = Vec3::new(3.0, 13.0, 2.5);
        let goal = Vec3::new(47.0, 21.0, 2.5);
        let mut colliding = 0;
        let mut valid = 0;
        for _ in 0..40 {
            let plan = p
                .plan(&w, start, goal)
                .expect("planner always returns something here");
            if validate_plan(&w, &plan, 0.0).is_err() {
                colliding += 1;
            } else {
                valid += 1;
            }
        }
        assert!(
            colliding > 0,
            "the injected bug must show up across 40 queries"
        );
        assert!(valid > 0, "the planner is not always buggy");
        assert_eq!(p.total_plan_count(), 40);
        assert!(p.buggy_plan_count() >= colliding);
    }

    #[test]
    fn zero_probability_behaves_like_correct_planner() {
        let w = Workspace::city_block();
        let mut p = BuggyRrtStar::new(BuggyRrtStarConfig {
            bug_probability: 0.0,
            ..BuggyRrtStarConfig::default()
        });
        for _ in 0..5 {
            let plan = p
                .plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5))
                .expect("plan must exist");
            assert!(validate_plan(&w, &plan, 0.0).is_ok());
        }
        assert_eq!(p.buggy_plan_count(), 0);
    }

    #[test]
    fn reset_clears_counters_and_restores_determinism() {
        let w = Workspace::city_block();
        let start = Vec3::new(3.0, 3.0, 2.5);
        let goal = Vec3::new(47.0, 40.0, 2.5);
        let mut p = BuggyRrtStar::default();
        let first: Vec<_> = (0..10).map(|_| p.plan(&w, start, goal)).collect();
        p.reset();
        assert_eq!(p.buggy_plan_count(), 0);
        assert_eq!(p.total_plan_count(), 0);
        let second: Vec<_> = (0..10).map(|_| p.plan(&w, start, goal)).collect();
        assert_eq!(first, second);
    }
}
