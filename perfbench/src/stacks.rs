//! Traced execution of single scenario cells.
//!
//! Each cell runs twice: once untraced, through `build_circuit_stack`,
//! `build_full_stack` or `build_airspace_stack` and `run_stack`, and once
//! traced, through a stack assembled from the same public constructors
//! those functions use, with every node, oracle and planner
//! wrapped in a decorator from [`crate::layers`], stepped by a loop that
//! mirrors `run_stack`'s stopping rule.  The two executor trace digests
//! and event counts must be equal: that is the proof that tracing did not
//! perturb the run.

use crate::layers::{filter_index, Layers, NodeLayer, TimedNode, TimedOracle, TimedPlanner};
use soter_core::composition::RtaSystem;
use soter_core::node::Node;
use soter_core::rta::{FilterKind, RtaModule};
use soter_core::time::Duration;
use soter_core::topic::Value;
use soter_ctrl::reference::WaypointMission;
use soter_drone::airspace::{
    build_airspace_stack, drone_prefix, module_name, scoped_topic, AirspaceStackConfig, ScopedNode,
    SeparationOracle, YieldingSafeNode,
};
use soter_drone::nodes::{
    CircuitNode, ControllerNode, LandingNode, PlanFollowerNode, PlannerNode, SurveillanceNode,
};
use soter_drone::oracles::{BatteryOracle, PlanOracle};
use soter_drone::stack::{build_circuit_stack, build_full_stack, DroneStackConfig, Protection};
use soter_drone::{topics, PlantNode};
use soter_plan::astar::GridAstar;
use soter_plan::buggy::{BuggyRrtStar, BuggyRrtStarConfig};
use soter_plan::cache::{identity_key, workspace_fingerprint, CachedPlanner, PlanCache};
use soter_plan::rrt_star::{RrtStar, RrtStarConfig};
use soter_plan::surveillance::SurveillanceApp;
use soter_plan::traits::MotionPlanner;
use soter_reach::{ForwardReach, PeerSeparation};
use soter_runtime::executor::{Executor, ExecutorConfig};
use soter_scenarios::fleet::fleet_agents;
use soter_scenarios::runner::run_stack;
use soter_scenarios::{MissionSpec, Scenario};
use soter_sim::dynamics::QuadrotorDynamics;
use std::sync::Arc;
use std::time::Instant;

/// Whether a scenario can be run as a stack cell (planner-query missions
/// never build a stack).
pub fn is_stack_cell(scenario: &Scenario) -> bool {
    !matches!(scenario.mission, MissionSpec::PlannerQueries { .. })
}

/// The per-run counts read back from a traced executor.
#[derive(Default, Debug, Clone)]
pub struct DmCounts {
    /// DM evaluations per filter.
    pub decisions: [u64; 3],
    /// Mode switches per filter.
    pub switches: [u64; 3],
    /// Filter interventions per filter.
    pub interventions: [u64; 3],
    /// Simulated time in SC per filter, in milliseconds.
    pub time_in_sc_ms: [u64; 3],
}

impl DmCounts {
    /// Adds another run's counts.
    pub fn add(&mut self, other: &DmCounts) {
        for i in 0..3 {
            self.decisions[i] += other.decisions[i];
            self.switches[i] += other.switches[i];
            self.interventions[i] += other.interventions[i];
            self.time_in_sc_ms[i] += other.time_in_sc_ms[i];
        }
    }
}

/// One cell run both ways.
#[derive(Debug)]
pub struct CellTrace {
    /// Untraced wall-clock (library build + `run_stack`).
    pub untraced_s: f64,
    /// Traced wall-clock (decorated build + stepping loop).
    pub traced_s: f64,
    /// Whether digest and event count agree between the two runs.
    pub digest_equal: bool,
    /// Decision-module counts of the traced run.
    pub dm: DmCounts,
}

/// Decorates nodes, oracles and planners of one traced stack.
struct Deco<'a> {
    layers: &'a Arc<Layers>,
}

impl Deco<'_> {
    fn node(&self, node: Box<dyn Node>) -> Box<dyn Node> {
        TimedNode::boxed(node, self.layers, NodeLayer::Drone)
    }

    fn plant(&self, node: Box<dyn Node>) -> Box<dyn Node> {
        TimedNode::boxed(node, self.layers, NodeLayer::Plant)
    }

    fn planner(
        &self,
        planner: Box<dyn MotionPlanner>,
        cache: &Option<Arc<PlanCache>>,
    ) -> TimedPlanner {
        TimedPlanner::new(planner, cache.clone(), self.layers)
    }

    fn sc_node(&self, config: &DroneStackConfig) -> Box<dyn Node> {
        self.node(Box::new(ControllerNode::new(
            "mpr_sc",
            config.safe_controller(),
            config.controller_period,
            config.start.z,
        )))
    }

    /// `DroneStackConfig::motion_primitive_module`, decorated.
    fn motion_primitive_module(&self, config: &DroneStackConfig) -> RtaModule {
        RtaModule::builder("safe_motion_primitive")
            .advanced_boxed(self.node(config.advanced_mpr_node()))
            .safe_boxed(self.sc_node(config))
            .delta(config.delta_mpr)
            .oracle(TimedOracle::new(
                config.mpr_oracle(),
                self.layers,
                config.filter,
            ))
            .filter(config.filter)
            .build()
            .expect("the motion-primitive module is structurally well-formed")
    }

    /// `DroneStackConfig::add_motion_primitive`, decorated.
    fn add_motion_primitive(&self, config: &DroneStackConfig, system: &mut RtaSystem) {
        match config.protection {
            Protection::Rta => system
                .add_module(self.motion_primitive_module(config))
                .expect("module composes with the stack"),
            Protection::AcOnly => system
                .add_node_boxed(self.node(config.advanced_mpr_node()))
                .expect("node composes with the stack"),
            Protection::ScOnly => system
                .add_node_boxed(self.sc_node(config))
                .expect("node composes with the stack"),
        }
    }

    /// `DroneStackConfig::battery_module`, decorated.
    fn battery_module(&self, config: &DroneStackConfig) -> RtaModule {
        let ceiling = config.workspace.bounds().max.z;
        RtaModule::builder("battery_safety")
            .advanced_boxed(self.node(Box::new(PlanFollowerNode::new(
                "bat_ac",
                config.controller_period,
                1.5,
            ))))
            .safe_boxed(self.node(Box::new(LandingNode::new(
                "bat_sc",
                config.controller_period,
            ))))
            .delta(config.delta_bat)
            .oracle(TimedOracle::new(
                BatteryOracle::new(config.battery_model, ceiling, 0.85),
                self.layers,
                FilterKind::ExplicitSimplex,
            ))
            .dm_subscribes([topics::BATTERY_CHARGE])
            .build()
            .expect("the battery-safety module is structurally well-formed")
    }

    /// `DroneStackConfig::planner_module`, decorated.
    fn planner_module(&self, config: &DroneStackConfig) -> RtaModule {
        let wf = workspace_fingerprint(&config.workspace);
        let rrt = RrtStarConfig {
            seed: config.seed,
            ..RrtStarConfig::default()
        };
        let advanced = if config.buggy_planner {
            let planner = BuggyRrtStar::new(BuggyRrtStarConfig {
                inner: rrt,
                bug_probability: 0.3,
                bug_seed: config.seed.wrapping_add(17),
            });
            match &config.plan_cache {
                Some(cache) => Box::new(CachedPlanner::new(
                    Box::new(planner),
                    identity_key("buggy-rrt*", &[config.seed, wf]),
                    Arc::clone(cache),
                )),
                None => Box::new(planner) as Box<dyn MotionPlanner>,
            }
        } else {
            match &config.plan_cache {
                Some(cache) => Box::new(CachedPlanner::new(
                    Box::new(RrtStar::new(rrt)),
                    identity_key("rrt*", &[config.seed, wf]),
                    Arc::clone(cache),
                )),
                None => Box::new(RrtStar::new(rrt)) as Box<dyn MotionPlanner>,
            }
        };
        let safe: Box<dyn MotionPlanner> = match &config.plan_cache {
            Some(cache) => Box::new(CachedPlanner::new(
                Box::new(GridAstar::default()),
                identity_key("grid-astar", &[wf]),
                Arc::clone(cache),
            )),
            None => Box::new(GridAstar::default()),
        };
        let ac = PlannerNode::new(
            "planner_ac",
            self.planner(advanced, &config.plan_cache),
            config.workspace.clone(),
            config.delta_plan,
        );
        let sc = PlannerNode::new(
            "planner_sc",
            self.planner(safe, &config.plan_cache),
            config.workspace.clone(),
            config.delta_plan,
        );
        RtaModule::builder("safe_motion_planner")
            .advanced_boxed(self.node(Box::new(ac)))
            .safe_boxed(self.node(Box::new(sc)))
            .delta(config.delta_plan)
            .oracle(TimedOracle::new(
                PlanOracle::new(config.workspace.clone(), 0.0),
                self.layers,
                FilterKind::ExplicitSimplex,
            ))
            .dm_subscribes([topics::MOTION_PLAN])
            .build()
            .expect("the planner module is structurally well-formed")
    }

    fn plant_node(&self, config: &DroneStackConfig) -> (Box<dyn Node>, soter_drone::PlantHandle) {
        let (plant, handle) = PlantNode::new(config.drone(), config.plant_period);
        (self.plant(Box::new(plant)), handle)
    }

    /// `build_circuit_stack`, decorated.
    fn circuit_stack(
        &self,
        config: &DroneStackConfig,
        waypoints: Vec<soter_sim::vec3::Vec3>,
        looping: bool,
    ) -> RtaSystem {
        let mut system = RtaSystem::new("circuit-stack");
        let (plant, _handle) = self.plant_node(config);
        system.add_node_boxed(plant).expect("plant composes");
        let mission = WaypointMission::new(waypoints, 1.5, looping);
        system
            .add_node_boxed(self.node(Box::new(CircuitNode::new(
                mission,
                Duration::from_millis(100),
            ))))
            .expect("mission feeder composes");
        self.add_motion_primitive(config, &mut system);
        system
    }

    /// `build_full_stack`, decorated.
    fn full_stack(&self, config: &DroneStackConfig, scenario: &Scenario) -> RtaSystem {
        let MissionSpec::Surveillance { policy, .. } = &scenario.mission else {
            unreachable!("full stacks fly surveillance missions")
        };
        let mut system = RtaSystem::new("surveillance-stack");
        let (plant, _handle) = self.plant_node(config);
        system.add_node_boxed(plant).expect("plant composes");
        let app = SurveillanceApp::new(&config.workspace, policy.build(scenario.seed));
        system
            .add_node_boxed(self.node(Box::new(SurveillanceNode::new(
                app,
                config.workspace.clone(),
                Duration::from_millis(500),
                2.0,
            ))))
            .expect("application layer composes");
        system
            .add_module(self.planner_module(config))
            .expect("planner module composes");
        system
            .add_module(self.battery_module(config))
            .expect("battery module composes");
        self.add_motion_primitive(config, &mut system);
        system
    }

    /// `build_airspace_stack`, decorated.  The per-drone
    /// `SeparationOracle` is wrapped whole: its inner obstacle and peer
    /// checks are not separately reachable from outside.
    fn airspace_stack(&self, config: &AirspaceStackConfig) -> RtaSystem {
        let mut system = RtaSystem::new("airspace-stack");
        let n = config.agents.len();
        for (i, agent) in config.agents.iter().enumerate() {
            let prefix = drone_prefix(i);
            let dcfg = DroneStackConfig {
                start: agent.start,
                protection: agent.protection,
                advanced: agent.advanced.clone(),
                seed: agent.seed,
                ..config.base.clone()
            };
            let (plant, _handle) = PlantNode::new(dcfg.drone(), dcfg.plant_period);
            system
                .add_node_boxed(self.plant(Box::new(ScopedNode::new(&prefix, plant))))
                .expect("scoped plant composes");
            let mission = WaypointMission::new(agent.circuit.clone(), 1.5, config.looping);
            system
                .add_node_boxed(self.node(Box::new(ScopedNode::new(
                    &prefix,
                    CircuitNode::new(mission, Duration::from_millis(100)),
                ))))
                .expect("scoped mission feeder composes");
            let peer_topics: Vec<String> = (0..n)
                .filter(|&j| j != i)
                .map(|j| scoped_topic(&drone_prefix(j), topics::LOCAL_POSITION))
                .collect();
            let yield_radius = config.separation_radius + config.yield_margin;
            let yielding =
                || YieldingSafeNode::new(&prefix, &dcfg, peer_topics.clone(), yield_radius);
            match agent.protection {
                Protection::Rta => {
                    let reach = ForwardReach::new(
                        QuadrotorDynamics::default(),
                        dcfg.plant_period.as_secs_f64(),
                        0.1,
                    );
                    let oracle = SeparationOracle::new(
                        &prefix,
                        dcfg.mpr_oracle(),
                        peer_topics.clone(),
                        PeerSeparation::new(reach, config.separation_radius),
                        dcfg.safer_factor,
                        dcfg.delta_mpr.as_secs_f64(),
                    );
                    let module = RtaModule::builder(module_name(i))
                        .advanced_boxed(self.node(Box::new(ScopedNode::boxed(
                            &prefix,
                            dcfg.advanced_mpr_node(),
                        ))))
                        .safe_boxed(self.node(Box::new(yielding())))
                        .delta(dcfg.delta_mpr)
                        .oracle(TimedOracle::new(oracle, self.layers, dcfg.filter))
                        .filter(dcfg.filter)
                        .build()
                        .expect("the fleet motion-primitive module is structurally well-formed");
                    system
                        .add_module(module)
                        .expect("fleet module composes with the stack");
                }
                Protection::AcOnly => system
                    .add_node_boxed(self.node(Box::new(ScopedNode::boxed(
                        &prefix,
                        dcfg.advanced_mpr_node(),
                    ))))
                    .expect("unprotected controller composes"),
                Protection::ScOnly => system
                    .add_node_boxed(self.node(Box::new(yielding())))
                    .expect("safe-only controller composes"),
            }
        }
        system
    }
}

/// What a scenario cell compiles to, before any stack is built.
enum Shape {
    Circuit {
        waypoints: Vec<soter_sim::vec3::Vec3>,
        looping: bool,
    },
    Full,
    Airspace(Box<AirspaceStackConfig>),
}

/// A cell's stack configuration and `run_stack` stopping rule, as the
/// scenario runner derives them.
struct Cell {
    config: DroneStackConfig,
    shape: Shape,
    target: Option<i64>,
}

fn cell(scenario: &Scenario, cache: Option<&Arc<PlanCache>>) -> Cell {
    let workspace = scenario.workspace.build();
    let mut config = scenario.stack_config(&workspace);
    config.plan_cache = cache.cloned();
    if let Some(fleet) = &scenario.fleet {
        let agents = fleet_agents(scenario, &workspace, fleet);
        let airspace = AirspaceStackConfig {
            base: config.clone(),
            agents,
            separation_radius: fleet.separation_radius,
            yield_margin: fleet.yield_margin,
            looping: matches!(scenario.mission, MissionSpec::CircuitLoop),
        };
        return Cell {
            config,
            shape: Shape::Airspace(Box::new(airspace)),
            target: None,
        };
    }
    match &scenario.mission {
        MissionSpec::CircuitLoop | MissionSpec::CircuitLap => {
            let looping = matches!(scenario.mission, MissionSpec::CircuitLoop);
            let waypoints = workspace.surveillance_points().to_vec();
            let target = (!looping).then_some(waypoints.len() as i64);
            Cell {
                config,
                shape: Shape::Circuit { waypoints, looping },
                target,
            }
        }
        MissionSpec::Surveillance { targets, .. } => Cell {
            config,
            shape: Shape::Full,
            target: *targets,
        },
        MissionSpec::PlannerQueries { .. } => {
            unreachable!("planner-query scenarios are not stack cells")
        }
    }
}

fn executor_config(scenario: &Scenario) -> ExecutorConfig {
    // `run_stack`'s configuration: no event storage, monitors on (the
    // default).
    ExecutorConfig {
        schedule: scenario.jitter.model(scenario.seed),
        record_trace: false,
        ..ExecutorConfig::default()
    }
}

/// Runs `scenario` untraced through the library's stack functions and `run_stack`,
/// returning `(trace_digest, trace_events)`.
fn run_untraced(scenario: &Scenario, cache: Option<&Arc<PlanCache>>) -> (u64, u64) {
    let Cell {
        config,
        shape,
        target,
    } = cell(scenario, cache);
    let (system, handle) = match shape {
        Shape::Circuit { waypoints, looping } => build_circuit_stack(&config, waypoints, looping),
        Shape::Full => {
            let MissionSpec::Surveillance { policy, .. } = &scenario.mission else {
                unreachable!("full stacks fly surveillance missions")
            };
            build_full_stack(&config, policy.build(scenario.seed))
        }
        Shape::Airspace(airspace) => {
            let (system, handles) = build_airspace_stack(&airspace);
            let first = handles
                .into_iter()
                .next()
                .expect("an airspace has at least two drones");
            (system, first)
        }
    };
    let schedule = scenario.jitter.model(scenario.seed);
    let outcome = run_stack(system, handle, scenario.horizon, target, schedule);
    (outcome.trace_digest, outcome.trace_events)
}

/// Runs `scenario` both ways and accounts the traced run into `layers`.
/// `cache` is the plan cache the planners consult (`None`: uncached, as
/// in an in-process campaign); the untraced reference gets its own
/// `reference_cache` so both runs see the same cache state.
pub fn trace_cell(
    scenario: &Scenario,
    layers: &Arc<Layers>,
    cache: Option<&Arc<PlanCache>>,
    reference_cache: Option<&Arc<PlanCache>>,
) -> CellTrace {
    let start = Instant::now();
    let reference = run_untraced(scenario, reference_cache);
    let untraced_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let deco = Deco { layers };
    let (system, target) = layers.build.time(|| {
        let Cell {
            config,
            shape,
            target,
        } = cell(scenario, cache);
        let system = match &shape {
            Shape::Circuit { waypoints, looping } => {
                deco.circuit_stack(&config, waypoints.clone(), *looping)
            }
            Shape::Full => deco.full_stack(&config, scenario),
            Shape::Airspace(airspace) => deco.airspace_stack(airspace),
        };
        (system, target)
    });
    let mut exec = layers
        .compile
        .time(|| Executor::with_config(system, executor_config(scenario)));
    // `run_stack`'s stopping rule: past the horizon, or the progress target.
    while let Some(now) = layers.step.time(|| exec.step_instant()) {
        if now.as_secs_f64() > scenario.horizon {
            break;
        }
        if let Some(target) = target {
            let progress = exec
                .topic(topics::MISSION_PROGRESS)
                .and_then(Value::as_int)
                .unwrap_or(0);
            if progress >= target {
                break;
            }
        }
    }
    let traced_s = start.elapsed().as_secs_f64();
    let mut dm = DmCounts::default();
    for module in exec.system().modules() {
        let f = filter_index(module.filter());
        dm.decisions[f] += module.dm().evaluations();
        dm.switches[f] += module.dm().switches().len() as u64;
        dm.interventions[f] += module.interventions() as u64;
        dm.time_in_sc_ms[f] += module.dm().time_in_sc(exec.now()).as_micros() / 1000;
    }
    let firings = exec.fired_steps();
    layers
        .firings
        .fetch_add(firings, std::sync::atomic::Ordering::Relaxed);
    CellTrace {
        untraced_s,
        traced_s,
        digest_equal: (exec.trace().digest(), exec.trace().recorded_events()) == reference,
        dm,
    }
}
