//! Grid A* — the certified safe motion planner.
//!
//! The planner RTA module needs a safe-controller counterpart to the
//! untrusted RRT*: a planner that is simple enough to certify and always
//! produces collision-free plans (possibly longer ones).  [`GridAstar`]
//! discretises the workspace into a uniform 3-D grid with a conservative
//! clearance margin and runs A* with 6-connectivity, then shortcut-smooths
//! the result.  Because every expanded cell is checked against the inflated
//! obstacles and every smoothed segment is re-validated, the returned plan
//! always satisfies `φ_plan`.

use crate::traits::MotionPlanner;
use crate::validate::shortcut;
use serde::{Deserialize, Serialize};
use soter_sim::vec3::Vec3;
use soter_sim::world::{ClearanceChecker, Workspace};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Grid A* configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridAstarConfig {
    /// Grid resolution in metres.
    pub resolution: f64,
    /// Clearance margin required around obstacles (metres).
    pub margin: f64,
    /// Maximum number of node expansions per query.
    pub max_expansions: usize,
}

impl Default for GridAstarConfig {
    fn default() -> Self {
        GridAstarConfig {
            resolution: 1.0,
            margin: 0.5,
            max_expansions: 2_000_000,
        }
    }
}

/// The grid A* planner.
#[derive(Debug, Clone, Default)]
pub struct GridAstar {
    config: GridAstarConfig,
}

#[derive(Copy, Clone, PartialEq)]
struct QueueEntry {
    f: f64,
    cell: (i64, i64, i64),
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the smallest f.
        other.f.partial_cmp(&self.f).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl GridAstar {
    /// Creates the planner with the given configuration.
    pub fn new(config: GridAstarConfig) -> Self {
        GridAstar { config }
    }

    /// The planner configuration.
    pub fn config(&self) -> &GridAstarConfig {
        &self.config
    }

    fn to_cell(&self, p: Vec3) -> (i64, i64, i64) {
        let r = self.config.resolution;
        (
            (p.x / r).round() as i64,
            (p.y / r).round() as i64,
            (p.z / r).round() as i64,
        )
    }

    fn to_point(&self, c: (i64, i64, i64)) -> Vec3 {
        let r = self.config.resolution;
        Vec3::new(c.0 as f64 * r, c.1 as f64 * r, c.2 as f64 * r)
    }

    fn cell_is_free(&self, checker: &ClearanceChecker, c: (i64, i64, i64)) -> bool {
        checker.point_free(self.to_point(c))
    }

    fn heuristic(&self, a: (i64, i64, i64), b: (i64, i64, i64)) -> f64 {
        self.to_point(a).distance(&self.to_point(b))
    }
}

/// Dense per-query grid state: the search only ever touches cells within
/// one step of the workspace bounds, so scores, parents and the freeness
/// cache live in flat arrays indexed by cell — no hashing on the hot path.
/// (Freeness memoisation and flat storage change nothing observable: the
/// queries are pure and no map iteration order is consumed.)
struct DenseGrid {
    min: (i64, i64, i64),
    dims: (i64, i64, i64),
    g: Vec<f64>,
    /// Parent cell index per cell; `u32::MAX` = none.
    parent: Vec<u32>,
    /// 0 = unknown, 1 = free, 2 = blocked.
    free: Vec<u8>,
    /// Whether the cell has already been expanded (heuristic is consistent,
    /// so later pops of an expanded cell can never change any state — they
    /// are skipped without perturbing the search).
    expanded: Vec<bool>,
}

impl DenseGrid {
    fn new(min: (i64, i64, i64), max: (i64, i64, i64)) -> Self {
        let dims = (max.0 - min.0 + 1, max.1 - min.1 + 1, max.2 - min.2 + 1);
        let len = (dims.0 * dims.1 * dims.2) as usize;
        DenseGrid {
            min,
            dims,
            g: vec![f64::INFINITY; len],
            parent: vec![u32::MAX; len],
            free: vec![0; len],
            expanded: vec![false; len],
        }
    }

    fn index(&self, c: (i64, i64, i64)) -> Option<usize> {
        let (x, y, z) = (c.0 - self.min.0, c.1 - self.min.1, c.2 - self.min.2);
        (x >= 0 && x < self.dims.0 && y >= 0 && y < self.dims.1 && z >= 0 && z < self.dims.2)
            .then(|| ((x * self.dims.1 + y) * self.dims.2 + z) as usize)
    }

    fn cell_of(&self, index: u32) -> (i64, i64, i64) {
        let i = index as i64;
        let z = i % self.dims.2;
        let y = (i / self.dims.2) % self.dims.1;
        let x = i / (self.dims.1 * self.dims.2);
        (x + self.min.0, y + self.min.1, z + self.min.2)
    }
}

impl MotionPlanner for GridAstar {
    fn name(&self) -> &str {
        "grid-astar"
    }

    fn plan(&mut self, workspace: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        if !workspace.is_free(start) || !workspace.is_free(goal) {
            return None;
        }
        let start_cell = self.to_cell(start);
        let goal_cell = self.to_cell(goal);
        // Every reachable cell snaps into the workspace bounds; pad by one
        // so the (never-free) boundary ring of neighbours is addressable.
        let b = workspace.bounds();
        let bounds_min = self.to_cell(b.min);
        let bounds_max = self.to_cell(b.max);
        let mut grid = DenseGrid::new(
            (bounds_min.0 - 1, bounds_min.1 - 1, bounds_min.2 - 1),
            (bounds_max.0 + 1, bounds_max.1 + 1, bounds_max.2 + 1),
        );
        // The snapped start/goal cells must themselves be usable; if the
        // margin makes them unusable, fall back to requiring plain freeness.
        let checker = workspace.clearance_checker(self.config.margin);
        let cell_ok = |this: &Self, grid: &mut DenseGrid, c: (i64, i64, i64), i: usize| {
            if grid.free[i] == 0 {
                grid.free[i] = if this.cell_is_free(&checker, c) { 1 } else { 2 };
            }
            grid.free[i] == 1 || c == start_cell || c == goal_cell
        };
        let mut open = BinaryHeap::new();
        let start_idx = grid.index(start_cell)?;
        grid.g[start_idx] = 0.0;
        open.push(QueueEntry {
            f: self.heuristic(start_cell, goal_cell),
            cell: start_cell,
        });
        let neighbors = [
            (1, 0, 0),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
            (0, 0, -1),
        ];
        let mut expansions = 0usize;
        let mut reached = false;
        while let Some(QueueEntry { cell, .. }) = open.pop() {
            if cell == goal_cell {
                reached = true;
                break;
            }
            expansions += 1;
            if expansions > self.config.max_expansions {
                break;
            }
            let cell_idx = grid.index(cell).expect("expanded cells are in range");
            if grid.expanded[cell_idx] {
                continue;
            }
            grid.expanded[cell_idx] = true;
            let current_g = grid.g[cell_idx];
            for d in neighbors {
                let n = (cell.0 + d.0, cell.1 + d.1, cell.2 + d.2);
                let Some(n_idx) = grid.index(n) else {
                    continue;
                };
                if !cell_ok(self, &mut grid, n, n_idx) {
                    continue;
                }
                let tentative = current_g + self.config.resolution;
                if tentative < grid.g[n_idx] {
                    grid.g[n_idx] = tentative;
                    grid.parent[n_idx] = cell_idx as u32;
                    open.push(QueueEntry {
                        f: tentative + self.heuristic(n, goal_cell),
                        cell: n,
                    });
                }
            }
        }
        if !reached {
            return None;
        }
        // Reconstruct, snap the endpoints to the exact start/goal, smooth.
        let mut cells = vec![goal_cell];
        let mut cur = grid.index(goal_cell).expect("goal cell is in range");
        while grid.parent[cur] != u32::MAX {
            cur = grid.parent[cur] as usize;
            cells.push(grid.cell_of(cur as u32));
        }
        cells.reverse();
        let mut path: Vec<Vec3> = cells.into_iter().map(|c| self.to_point(c)).collect();
        if let Some(first) = path.first_mut() {
            *first = start;
        }
        if let Some(last) = path.last_mut() {
            *last = goal;
        }
        Some(shortcut(&checker, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_plan;

    #[test]
    fn plans_are_always_collision_free() {
        let w = Workspace::city_block();
        let mut p = GridAstar::default();
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
                assert_eq!(plan[0], *a);
                assert_eq!(*plan.last().unwrap(), *b);
            }
        }
    }

    #[test]
    fn routes_around_the_blocked_street() {
        let w = Workspace::city_block();
        let mut p = GridAstar::default();
        let start = Vec3::new(3.0, 13.0, 2.5);
        let goal = Vec3::new(47.0, 21.0, 2.5);
        let plan = p.plan(&w, start, goal).expect("query must succeed");
        assert!(plan.len() >= 3);
        assert!(validate_plan(&w, &plan, 0.0).is_ok());
        // The detour is longer than the (blocked) straight line.
        let direct = start.distance(&goal);
        assert!(crate::validate::plan_length(&plan) > direct);
    }

    #[test]
    fn goal_in_collision_returns_none() {
        let w = Workspace::city_block();
        let mut p = GridAstar::default();
        assert!(p
            .plan(&w, Vec3::new(3.0, 3.0, 2.5), Vec3::new(13.0, 13.0, 3.0))
            .is_none());
    }

    #[test]
    fn expansion_budget_is_respected() {
        let w = Workspace::city_block();
        let mut p = GridAstar::new(GridAstarConfig {
            max_expansions: 10,
            ..Default::default()
        });
        // A long query cannot be solved within 10 expansions.
        assert!(p
            .plan(&w, Vec3::new(3.0, 13.0, 2.5), Vec3::new(47.0, 21.0, 2.5))
            .is_none());
    }

    #[test]
    fn determinism() {
        let w = Workspace::city_block();
        let mut p = GridAstar::default();
        let a = p.plan(&w, Vec3::new(3.0, 3.0, 2.5), Vec3::new(47.0, 40.0, 2.5));
        let b = p.plan(&w, Vec3::new(3.0, 3.0, 2.5), Vec3::new(47.0, 40.0, 2.5));
        assert_eq!(a, b);
    }
}
