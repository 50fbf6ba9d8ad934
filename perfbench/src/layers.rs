//! Per-layer accounting for the traced run: span timers with self time,
//! and decorators around the public `Node`, `SafetyOracle` and
//! `MotionPlanner` seams.
//!
//! A span's *self time* is its wall-clock minus the time of the decorated
//! spans nested inside it (a planner query inside a planner node, a
//! decorated node inside an `Executor::step_instant`), so the layer rows
//! add up without double counting.

use soter_core::node::{Node, NodeInfo};
use soter_core::rta::{FilterKind, SafetyOracle};
use soter_core::time::{Duration, Time};
use soter_core::topic::{TopicName, TopicRead, TopicWriter, Value};
use soter_plan::cache::PlanCache;
use soter_plan::traits::MotionPlanner;
use soter_sim::vec3::Vec3;
use soter_sim::world::Workspace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Nanoseconds spent in completed child spans of the innermost open span.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Calls and self time of one span kind.  Statistics only, so `Relaxed`.
#[derive(Default, Debug)]
pub struct Counter {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Counter {
    /// Number of recorded spans.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total self time of the recorded spans.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean self time per span, `None` without spans.
    pub fn ns_per_call(&self) -> Option<f64> {
        let calls = self.calls();
        (calls > 0).then(|| self.ns() as f64 / calls as f64)
    }

    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Runs `f` as one span of this kind and records its self time.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let saved = CHILD_NS.with(|c| c.replace(0));
        let start = Instant::now();
        let result = f();
        let total = start.elapsed().as_nanos() as u64;
        let children = CHILD_NS.with(|c| c.replace(saved + total));
        self.add(total.saturating_sub(children));
        result
    }
}

/// The oracle entry points the reach layer is timed at.
#[derive(Clone, Copy, Debug)]
pub enum ReachCall {
    /// `SafetyOracle::may_leave_safe_within`.
    MayLeave = 0,
    /// `SafetyOracle::is_safe` and `is_safer`.
    IsSafe = 1,
    /// `SafetyOracle::command_may_leave_safe`.
    CommandMayLeave = 2,
    /// `SafetyOracle::project_command`.
    ProjectCommand = 3,
}

/// Names of [`ReachCall`] in index order.
pub const REACH_CALLS: [&str; 4] = [
    "may_leave_safe_within",
    "is_safe/is_safer",
    "command_may_leave_safe",
    "project_command",
];

/// Index of a filter in per-filter arrays (`FilterKind::ALL` order).
pub fn filter_index(filter: FilterKind) -> usize {
    FilterKind::ALL
        .iter()
        .position(|f| *f == filter)
        .expect("every filter kind is listed in FilterKind::ALL")
}

/// Spans of every traced layer, shared by the decorators of one run.
#[derive(Default, Debug)]
pub struct Layers {
    /// `Executor::step_instant` self time (dispatch + DM bookkeeping).
    pub step: Counter,
    /// `Executor::with_config` (system compilation).
    pub compile: Counter,
    /// Workspace + stack assembly through the public constructors.
    pub build: Counter,
    /// `PlantNode` firings (the simulator).
    pub plant: Counter,
    /// Every other node firing: controllers, application, mission feeder,
    /// plan follower, planner nodes (planner queries excluded).
    pub nodes: Counter,
    /// Planner queries answered by the plan cache.
    pub plan_hit: Counter,
    /// Planner queries computed by the planner (cache misses and
    /// uncached planners).
    pub plan_miss: Counter,
    /// Oracle calls by `[filter][ReachCall]`.
    pub reach: [[Counter; 4]; 3],
    /// Node firings observed by the executor.
    pub firings: AtomicU64,
}

impl Layers {
    /// A fresh, shareable set of counters.
    pub fn new() -> Arc<Self> {
        Arc::new(Layers::default())
    }

    /// Oracle calls summed over filters and entry points.
    pub fn reach_total(&self) -> (u64, u64) {
        self.reach
            .iter()
            .flatten()
            .fold((0, 0), |(c, n), k| (c + k.calls(), n + k.ns()))
    }

    /// Self time of every layer span, in nanoseconds.
    pub fn self_ns(&self) -> u64 {
        let (_, reach_ns) = self.reach_total();
        self.step.ns()
            + self.compile.ns()
            + self.build.ns()
            + self.plant.ns()
            + self.nodes.ns()
            + self.plan_hit.ns()
            + self.plan_miss.ns()
            + reach_ns
    }
}

/// What a decorated node counts as.
#[derive(Clone, Copy)]
pub enum NodeLayer {
    /// The simulated vehicle.
    Plant,
    /// Controllers, application, mission and planner nodes.
    Drone,
}

/// A `Node` decorator timing every `step`.
pub struct TimedNode {
    inner: Box<dyn Node>,
    layers: Arc<Layers>,
    layer: NodeLayer,
}

impl TimedNode {
    /// Wraps `inner`, charging its steps to `layer`.
    pub fn boxed(inner: Box<dyn Node>, layers: &Arc<Layers>, layer: NodeLayer) -> Box<dyn Node> {
        Box::new(TimedNode {
            inner,
            layers: Arc::clone(layers),
            layer,
        })
    }
}

impl Node for TimedNode {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        self.inner.subscriptions()
    }

    fn outputs(&self) -> Vec<TopicName> {
        self.inner.outputs()
    }

    fn period(&self) -> Duration {
        self.inner.period()
    }

    fn step(&mut self, now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        let counter = match self.layer {
            NodeLayer::Plant => &self.layers.plant,
            NodeLayer::Drone => &self.layers.nodes,
        };
        let inner = &mut self.inner;
        counter.time(|| inner.step(now, inputs, out));
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn info(&self) -> NodeInfo {
        self.inner.info()
    }
}

/// A `SafetyOracle` decorator timing every entry point, per filter.
pub struct TimedOracle<O> {
    inner: O,
    layers: Arc<Layers>,
    filter: usize,
}

impl<O: SafetyOracle> TimedOracle<O> {
    /// Wraps `inner`, an oracle consulted under `filter`.
    pub fn new(inner: O, layers: &Arc<Layers>, filter: FilterKind) -> Self {
        TimedOracle {
            inner,
            layers: Arc::clone(layers),
            filter: filter_index(filter),
        }
    }

    fn counter(&self, call: ReachCall) -> &Counter {
        &self.layers.reach[self.filter][call as usize]
    }
}

impl<O: SafetyOracle> SafetyOracle for TimedOracle<O> {
    fn is_safe(&self, observed: &dyn TopicRead) -> bool {
        self.counter(ReachCall::IsSafe)
            .time(|| self.inner.is_safe(observed))
    }

    fn is_safer(&self, observed: &dyn TopicRead) -> bool {
        self.counter(ReachCall::IsSafe)
            .time(|| self.inner.is_safer(observed))
    }

    fn may_leave_safe_within(&self, observed: &dyn TopicRead, horizon: Duration) -> bool {
        self.counter(ReachCall::MayLeave)
            .time(|| self.inner.may_leave_safe_within(observed, horizon))
    }

    fn supports_command_checks(&self) -> bool {
        self.inner.supports_command_checks()
    }

    fn command_may_leave_safe(
        &self,
        observed: &dyn TopicRead,
        command: &Value,
        horizon: Duration,
    ) -> bool {
        self.counter(ReachCall::CommandMayLeave).time(|| {
            self.inner
                .command_may_leave_safe(observed, command, horizon)
        })
    }

    fn project_command(
        &self,
        observed: &dyn TopicRead,
        proposed: &Value,
        horizon: Duration,
    ) -> Option<Value> {
        self.counter(ReachCall::ProjectCommand)
            .time(|| self.inner.project_command(observed, proposed, horizon))
    }
}

/// A `MotionPlanner` decorator splitting queries into plan-cache hits and
/// misses by the cache's `hits()` delta across the call.
pub struct TimedPlanner {
    inner: Box<dyn MotionPlanner>,
    cache: Option<Arc<PlanCache>>,
    layers: Arc<Layers>,
}

impl TimedPlanner {
    /// Wraps `inner` (a `CachedPlanner` over `cache`, or an uncached
    /// planner when `cache` is `None`).
    pub fn new(
        inner: Box<dyn MotionPlanner>,
        cache: Option<Arc<PlanCache>>,
        layers: &Arc<Layers>,
    ) -> Self {
        TimedPlanner {
            inner,
            cache,
            layers: Arc::clone(layers),
        }
    }
}

impl MotionPlanner for TimedPlanner {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, workspace: &Workspace, start: Vec3, goal: Vec3) -> Option<Vec<Vec3>> {
        let hits_before = self.cache.as_ref().map(|c| c.hits());
        let saved = CHILD_NS.with(|c| c.replace(0));
        let begin = Instant::now();
        let plan = self.inner.plan(workspace, start, goal);
        let total = begin.elapsed().as_nanos() as u64;
        CHILD_NS.with(|c| c.replace(saved + total));
        let hit = matches!(
            (hits_before, self.cache.as_ref()),
            (Some(before), Some(cache)) if cache.hits() > before
        );
        let counter = if hit {
            &self.layers.plan_hit
        } else {
            &self.layers.plan_miss
        };
        counter.add(total);
        plan
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}
