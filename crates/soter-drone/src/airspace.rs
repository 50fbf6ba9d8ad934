//! Multi-drone airspace stacks: N RTA-protected stacks over one shared
//! workspace.
//!
//! Theorem 4.1 of the paper says RTA-module invariants survive composition
//! when node names and output topics are pairwise disjoint.  An airspace
//! stack exploits exactly that: every drone runs its own copy of the
//! circuit stack (plant + mission feeder + motion primitive), with all
//! topics and node names *scoped* under a per-drone prefix
//! (`drone0/localPosition`, `drone1/controlAction`, …) so the composed
//! system stays well-formed.  The drones couple in two places only:
//!
//! * **ground truth** — they share one workspace and must keep the
//!   separation invariant `φ_sep` of [`soter_sim::airspace`], and
//! * **decision modules** — each drone's DM subscribes to every peer's
//!   (scoped) position estimate, and its [`SeparationOracle`] treats peer
//!   forward-reach sets as dynamic unsafe regions
//!   ([`soter_reach::peers::PeerSeparation`]) alongside the static
//!   obstacle check `φ_mpr`.
//!
//! The certified safe controller of a fleet drone is the
//! [`YieldingSafeNode`]: the shielded tracker of the single-drone stack
//! plus a *yield* rule — brake to hover whenever a peer is inside the
//! yield bubble.  Braking is the classic certified separation maneuver:
//! the decision module's reach check includes both vehicles' braking
//! footprints, so by the time two drones are mutually yielding their
//! stopping envelopes are still disjoint.

use crate::nodes::CircuitNode;
use crate::oracles::MotionPrimitiveOracle;
use crate::plant::{PlantHandle, PlantNode};
use crate::stack::{AdvancedKind, DroneStackConfig, Protection};
use crate::topics;
use soter_core::composition::RtaSystem;
use soter_core::node::Node;
use soter_core::rta::{RtaModule, SafetyOracle};
use soter_core::time::{Duration, Time};
use soter_core::topic::{RenamedView, SingleTopic, TopicName, TopicRead, TopicWriter, Value};
use soter_ctrl::reference::WaypointMission;
use soter_ctrl::shielded::{ShieldedSafeConfig, ShieldedSafeController};
use soter_ctrl::traits::MotionController;
use soter_reach::forward::ForwardReach;
use soter_reach::peers::PeerSeparation;
use soter_sim::dynamics::DroneState;
use soter_sim::vec3::Vec3;

/// The topic/node prefix of drone `index` in an airspace stack.
pub fn drone_prefix(index: usize) -> String {
    format!("drone{index}")
}

/// Scopes a topic name under a drone prefix (`drone0/localPosition`).
pub fn scoped_topic(prefix: &str, topic: &str) -> String {
    format!("{prefix}/{topic}")
}

/// The module name of drone `index`'s motion primitive in an airspace
/// stack (`drone0/safe_motion_primitive`).
pub fn module_name(index: usize) -> String {
    scoped_topic(&drone_prefix(index), "safe_motion_primitive")
}

/// Wraps any [`Node`] so that its name, subscriptions and outputs are
/// scoped under a per-drone prefix.  The inner node is completely unaware
/// of the scoping: its inputs are translated back to the unscoped names
/// before each step and its outputs are re-scoped afterwards, so every
/// single-drone node of the case study can be reused verbatim in a fleet.
pub struct ScopedNode {
    name: String,
    inner: Box<dyn Node>,
    /// `(unscoped, scoped)` subscription names, precomputed once — the
    /// inner node's topic sets are static, and `step` runs on the hot
    /// simulation path.
    subscriptions: Vec<(TopicName, TopicName)>,
    /// `(unscoped, scoped)` output names, precomputed once.
    outputs: Vec<(TopicName, TopicName)>,
    /// The unscoped output names alone, index-aligned with `outputs` — the
    /// alias list handed to the writer on every firing.
    unscoped_outputs: Vec<TopicName>,
}

impl ScopedNode {
    /// Scopes `inner` under `prefix`.
    pub fn new(prefix: impl Into<String>, inner: impl Node + 'static) -> Self {
        ScopedNode::boxed(prefix, Box::new(inner))
    }

    /// Scopes an already boxed node under `prefix`.
    pub fn boxed(prefix: impl Into<String>, inner: Box<dyn Node>) -> Self {
        let prefix = prefix.into();
        let name = scoped_topic(&prefix, inner.name());
        let scope_all = |topics: Vec<TopicName>| -> Vec<(TopicName, TopicName)> {
            topics
                .into_iter()
                .map(|t| {
                    let scoped = TopicName::new(scoped_topic(&prefix, t.as_str()));
                    (t, scoped)
                })
                .collect()
        };
        let subscriptions = scope_all(inner.subscriptions());
        let outputs = scope_all(inner.outputs());
        let unscoped_outputs = outputs.iter().map(|(plain, _)| plain.clone()).collect();
        ScopedNode {
            name,
            inner,
            subscriptions,
            outputs,
            unscoped_outputs,
        }
    }
}

impl Node for ScopedNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        self.subscriptions
            .iter()
            .map(|(_, scoped)| scoped.clone())
            .collect()
    }

    fn outputs(&self) -> Vec<TopicName> {
        self.outputs
            .iter()
            .map(|(_, scoped)| scoped.clone())
            .collect()
    }

    fn period(&self) -> Duration {
        self.inner.period()
    }

    fn step(&mut self, now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        // Both directions are pure renamings, resolved without copying any
        // values: reads go through a view that maps unscoped names to the
        // scoped valuation, and writes reuse the outer writer's buffer with
        // the alias list swapped in (scoping a name preserves relative
        // order, so the two output lists are index-aligned by
        // construction).
        let view = RenamedView::new(&self.subscriptions, inputs);
        let mut inner_out = out.reindexed(&self.name, &self.unscoped_outputs);
        self.inner.step(now, &view, &mut inner_out);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The certified safe motion primitive of a fleet drone: the shielded
/// obstacle-aware tracker, plus the **yield rule** — brake to hover
/// whenever a peer is inside `yield_radius`.  Unlike the nodes wrapped in
/// [`ScopedNode`], this node is natively scoped because it must subscribe
/// to the *other* drones' position topics.
pub struct YieldingSafeNode {
    name: String,
    controller: ShieldedSafeController,
    period: Duration,
    hold_altitude: f64,
    position_topic: String,
    target_topic: String,
    output_topic: String,
    peer_topics: Vec<String>,
    yield_radius: f64,
    brake_gain: f64,
}

impl YieldingSafeNode {
    /// Creates the yielding safe controller for the drone with the given
    /// prefix.  `peer_topics` are the scoped position topics of every
    /// *other* drone in the airspace.
    pub fn new(
        prefix: &str,
        config: &DroneStackConfig,
        peer_topics: Vec<String>,
        yield_radius: f64,
    ) -> Self {
        assert!(yield_radius > 0.0, "yield radius must be positive");
        YieldingSafeNode {
            name: scoped_topic(prefix, "mpr_sc"),
            controller: ShieldedSafeController::new(
                config.workspace.clone(),
                ShieldedSafeConfig {
                    speed_cap: config.sc_speed_cap,
                    ..ShieldedSafeConfig::default()
                },
            ),
            period: config.controller_period,
            hold_altitude: config.start.z,
            position_topic: scoped_topic(prefix, topics::LOCAL_POSITION),
            target_topic: scoped_topic(prefix, topics::TARGET_WAYPOINT),
            output_topic: scoped_topic(prefix, topics::CONTROL_ACTION),
            peer_topics,
            yield_radius,
            brake_gain: 3.0,
        }
    }

    /// The peer (if any) that triggers the yield rule: the gap to it is no
    /// larger than the yield radius plus both vehicles' braking distances,
    /// so continuing to track the waypoint could close the remaining gap
    /// before either vehicle can stop.  Returns the most urgent such peer
    /// (smallest slack).
    fn yield_trigger(&self, own: &DroneState, inputs: &dyn TopicRead) -> Option<DroneState> {
        const A_BRAKE: f64 = 6.0;
        let stop = |speed: f64| speed * speed / (2.0 * A_BRAKE);
        let mut trigger: Option<(f64, DroneState)> = None;
        for peer in self
            .peer_topics
            .iter()
            .filter_map(|t| inputs.get(t).and_then(topics::value_to_state))
        {
            let gap = own.position.distance(&peer.position);
            let slack = gap - (self.yield_radius + stop(own.speed()) + stop(peer.speed()));
            if slack <= 0.0 && trigger.as_ref().map(|(s, _)| slack < *s).unwrap_or(true) {
                trigger = Some((slack, peer));
            }
        }
        trigger.map(|(_, peer)| peer)
    }
}

impl Node for YieldingSafeNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<TopicName> {
        let mut subs = vec![
            TopicName::new(&self.position_topic),
            TopicName::new(&self.target_topic),
        ];
        subs.extend(self.peer_topics.iter().map(TopicName::new));
        subs
    }

    fn outputs(&self) -> Vec<TopicName> {
        vec![TopicName::new(&self.output_topic)]
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn step(&mut self, _now: Time, inputs: &dyn TopicRead, out: &mut TopicWriter<'_>) {
        let Some(state) = inputs
            .get(&self.position_topic)
            .and_then(topics::value_to_state)
        else {
            return;
        };
        let control = if let Some(peer) = self.yield_trigger(&state, inputs) {
            // Yield: brake against the own velocity and sidestep to the
            // right of the line to the peer (both maneuvers are
            // deterministic and admissible — the plant clamps).  Two
            // head-on drones brake and dodge to *opposite* sides, so the
            // encounter resolves laterally instead of deadlocking.
            let brake = state.velocity * -self.brake_gain;
            let to_peer = peer.position - state.position;
            let right = to_peer.cross(&Vec3::new(0.0, 0.0, 1.0));
            let dodge = if right.norm() > 1e-6 {
                right.normalized() * 2.0
            } else {
                // Peer directly above/below: dodge along +x by convention.
                Vec3::new(2.0, 0.0, 0.0)
            };
            soter_sim::dynamics::ControlInput::accel((brake + dodge).clamp_norm(6.0))
        } else {
            let target = inputs
                .get(&self.target_topic)
                .and_then(Value::as_vector)
                .map(Vec3::from_array)
                .unwrap_or_else(|| {
                    Vec3::new(state.position.x, state.position.y, self.hold_altitude)
                });
            self.controller
                .control(&state, target, self.period.as_secs_f64())
        };
        out.insert(&self.output_topic, topics::control_to_value(&control));
    }

    fn reset(&mut self) {
        self.controller.reset();
    }
}

/// Safety oracle of a fleet drone's motion-primitive module: the static
/// `φ_mpr` of the single-drone stack *and* the separation invariant
/// `φ_sep`, with peer forward-reach sets treated as dynamic unsafe
/// regions.
///
/// * `φ_safe := φ_mpr ∧ φ_sep` — own position in free space and further
///   than `r_sep` from every peer,
/// * `ttf_2Δ` — the static obstacle check **or** a possible reach-set
///   intersection with a peer bubble within the horizon,
/// * `φ_safer` — the static `φ_safer` **and** no possible peer conflict
///   within the hysteresis horizon `k·2Δ`.
///
/// Peer observations come from the peers' scoped position topics, which
/// the decision module subscribes to through the safe controller's input
/// set.  A missing own or peer estimate is treated conservatively (not
/// safe, may fail).
pub struct SeparationOracle {
    inner: MotionPrimitiveOracle,
    position_topic: String,
    peer_topics: Vec<String>,
    peers: PeerSeparation,
    safer_factor: f64,
    delta: f64,
}

impl SeparationOracle {
    /// Creates the oracle for the drone with the given prefix.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not positive (the hysteresis horizon is
    /// `safer_factor · 2Δ`).
    pub fn new(
        prefix: &str,
        inner: MotionPrimitiveOracle,
        peer_topics: Vec<String>,
        peers: PeerSeparation,
        safer_factor: f64,
        delta: f64,
    ) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        SeparationOracle {
            inner,
            position_topic: scoped_topic(prefix, topics::LOCAL_POSITION),
            peer_topics,
            peers,
            safer_factor,
            delta,
        }
    }

    /// The underlying separation checker.
    pub fn peers(&self) -> &PeerSeparation {
        &self.peers
    }

    fn own_state(&self, observed: &dyn TopicRead) -> Option<DroneState> {
        observed
            .get(&self.position_topic)
            .and_then(topics::value_to_state)
    }

    /// The observed peer states, in one allocation-free pass.  An
    /// unobserved peer could be anywhere, so it ends the iteration and sets
    /// `missing`: every query then gives its conservative answer, the one a
    /// conflicting peer would give.
    fn observed_peers<'a>(
        &'a self,
        observed: &'a dyn TopicRead,
        missing: &'a mut bool,
    ) -> impl Iterator<Item = DroneState> + 'a {
        self.peer_topics.iter().map_while(move |t| {
            let state = observed.get(t).and_then(topics::value_to_state);
            *missing |= state.is_none();
            state
        })
    }

    /// Point-wise φ_sep against every peer; `false` if any peer estimate
    /// is missing.
    fn peers_separated(&self, own: &DroneState, observed: &dyn TopicRead) -> bool {
        let mut missing = false;
        let separated = self
            .observed_peers(observed, &mut missing)
            .all(|p| self.peers.separated(own.position, p.position));
        separated && !missing
    }

    /// Whether some peer may violate φ_sep within `horizon`; `true` if any
    /// peer estimate is missing.
    fn peer_conflict(&self, own: &DroneState, observed: &dyn TopicRead, horizon: f64) -> bool {
        let mut missing = false;
        let conflict = self.peers.may_violate_within(
            own,
            self.observed_peers(observed, &mut missing),
            horizon,
        );
        conflict || missing
    }

    /// Re-keys the own position under the unscoped name the single-drone
    /// oracle expects — a borrowed single-topic view, no map is built.
    fn translated<'a>(&self, observed: &'a dyn TopicRead) -> SingleTopic<'a> {
        SingleTopic::new(topics::LOCAL_POSITION, observed.get(&self.position_topic))
    }
}

impl SafetyOracle for SeparationOracle {
    fn is_safe(&self, observed: &dyn TopicRead) -> bool {
        let Some(own) = self.own_state(observed) else {
            return false;
        };
        self.inner.is_safe(&self.translated(observed)) && self.peers_separated(&own, observed)
    }

    fn is_safer(&self, observed: &dyn TopicRead) -> bool {
        let Some(own) = self.own_state(observed) else {
            return false;
        };
        let horizon = self.safer_factor * 2.0 * self.delta;
        self.inner.is_safer(&self.translated(observed))
            && !self.peer_conflict(&own, observed, horizon)
    }

    fn may_leave_safe_within(
        &self,
        observed: &dyn TopicRead,
        horizon: soter_core::time::Duration,
    ) -> bool {
        let Some(own) = self.own_state(observed) else {
            return true;
        };
        self.inner
            .may_leave_safe_within(&self.translated(observed), horizon)
            || self.peer_conflict(&own, observed, horizon.as_secs_f64())
    }

    fn supports_command_checks(&self) -> bool {
        self.inner.supports_command_checks()
    }

    fn command_may_leave_safe(
        &self,
        observed: &dyn TopicRead,
        command: &Value,
        horizon: soter_core::time::Duration,
    ) -> bool {
        let Some(own) = self.own_state(observed) else {
            return true;
        };
        // The peer conjunct stays worst-case: `may_violate_within` already
        // ranges over every control either vehicle may apply, so knowing the
        // own command cannot relax it without also predicting the peers'.
        self.inner
            .command_may_leave_safe(&self.translated(observed), command, horizon)
            || self.peer_conflict(&own, observed, horizon.as_secs_f64())
    }

    fn project_command(
        &self,
        observed: &dyn TopicRead,
        proposed: &Value,
        horizon: soter_core::time::Duration,
    ) -> Option<Value> {
        // Only the static-obstacle conjunct is command-conditional, so the
        // static projection is the only ray worth clipping along; a live
        // peer conflict is command-independent here and is handled by the
        // decision module's state check, which disengages to the yielding
        // safe controller.
        self.inner
            .project_command(&self.translated(observed), proposed, horizon)
    }
}

/// One drone of an airspace: its spawn point, patrol circuit and the
/// per-drone knobs that may differ across the fleet.
#[derive(Debug, Clone)]
pub struct DroneAgent {
    /// Spawn position (also the SC hold altitude reference).
    pub start: Vec3,
    /// The waypoint circuit this drone patrols.
    pub circuit: Vec<Vec3>,
    /// Protection configuration of this drone's motion primitive.
    pub protection: Protection,
    /// Advanced controller of this drone.
    pub advanced: AdvancedKind,
    /// Simulation seed of this drone (sensor noise, faults).
    pub seed: u64,
}

/// Configuration of a multi-drone airspace stack.
#[derive(Debug, Clone)]
pub struct AirspaceStackConfig {
    /// Shared stack knobs (workspace, periods, Δs, wind, battery).  The
    /// per-drone fields (`start`, `protection`, `advanced`, `seed`) are
    /// overridden by each [`DroneAgent`].
    pub base: DroneStackConfig,
    /// The fleet, one entry per drone; index `i` becomes prefix `drone{i}`.
    pub agents: Vec<DroneAgent>,
    /// Minimum separation radius `r_sep` of φ_sep (metres).
    pub separation_radius: f64,
    /// Extra margin added to `r_sep` for the safe controller's yield
    /// bubble (the SC starts braking before φ_sep is at stake).
    pub yield_margin: f64,
    /// Whether the circuits loop forever (`true`) or stop after one lap.
    pub looping: bool,
}

impl AirspaceStackConfig {
    /// An airspace over `base` with the given agents, a 1.5 m separation
    /// radius, a 1.0 m yield margin and looping circuits.
    pub fn new(base: DroneStackConfig, agents: Vec<DroneAgent>) -> Self {
        AirspaceStackConfig {
            base,
            agents,
            separation_radius: 1.5,
            yield_margin: 1.0,
            looping: true,
        }
    }

    fn agent_config(&self, agent: &DroneAgent) -> DroneStackConfig {
        DroneStackConfig {
            start: agent.start,
            protection: agent.protection,
            advanced: agent.advanced.clone(),
            seed: agent.seed,
            ..self.base.clone()
        }
    }

    fn peer_topics(&self, own: usize) -> Vec<String> {
        (0..self.agents.len())
            .filter(|&j| j != own)
            .map(|j| scoped_topic(&drone_prefix(j), topics::LOCAL_POSITION))
            .collect()
    }
}

/// Builds the airspace stack: per drone, a scoped plant + circuit feeder +
/// motion primitive, composed into one [`RtaSystem`].  Returns the system
/// and one [`PlantHandle`] per drone, in fleet order.
///
/// # Panics
///
/// Panics if the fleet has fewer than two drones (a one-drone "airspace"
/// is just the circuit stack of [`crate::stack::build_circuit_stack`]).
pub fn build_airspace_stack(config: &AirspaceStackConfig) -> (RtaSystem, Vec<PlantHandle>) {
    assert!(
        config.agents.len() >= 2,
        "an airspace needs at least two drones"
    );
    let mut system = RtaSystem::new("airspace-stack");
    let mut handles = Vec::new();
    for (i, agent) in config.agents.iter().enumerate() {
        let prefix = drone_prefix(i);
        let dcfg = config.agent_config(agent);
        let (plant, handle) = PlantNode::new(dcfg.drone(), dcfg.plant_period);
        system
            .add_node(ScopedNode::new(&prefix, plant))
            .expect("scoped plant composes");
        handles.push(handle);
        let mission = WaypointMission::new(agent.circuit.clone(), 1.5, config.looping);
        system
            .add_node(ScopedNode::new(
                &prefix,
                CircuitNode::new(mission, Duration::from_millis(100)),
            ))
            .expect("scoped mission feeder composes");
        let peer_topics = config.peer_topics(i);
        let yield_radius = config.separation_radius + config.yield_margin;
        match agent.protection {
            Protection::Rta => {
                let ac = ScopedNode::new(&prefix, dcfg.advanced_mpr_node());
                let sc = YieldingSafeNode::new(&prefix, &dcfg, peer_topics.clone(), yield_radius);
                let reach = ForwardReach::new(
                    soter_sim::dynamics::QuadrotorDynamics::default(),
                    dcfg.plant_period.as_secs_f64(),
                    0.1,
                );
                let oracle = SeparationOracle::new(
                    &prefix,
                    dcfg.mpr_oracle(),
                    peer_topics,
                    PeerSeparation::new(reach, config.separation_radius),
                    dcfg.safer_factor,
                    dcfg.delta_mpr.as_secs_f64(),
                );
                let module = RtaModule::builder(module_name(i))
                    .advanced(ac)
                    .safe(sc)
                    .delta(dcfg.delta_mpr)
                    .oracle(oracle)
                    .filter(dcfg.filter)
                    .build()
                    .expect("the fleet motion-primitive module is structurally well-formed");
                system
                    .add_module(module)
                    .expect("fleet module composes with the stack");
            }
            Protection::AcOnly => {
                system
                    .add_node(ScopedNode::new(&prefix, dcfg.advanced_mpr_node()))
                    .expect("unprotected controller composes");
            }
            Protection::ScOnly => {
                system
                    .add_node(YieldingSafeNode::new(
                        &prefix,
                        &dcfg,
                        peer_topics,
                        yield_radius,
                    ))
                    .expect("safe-only controller composes");
            }
        }
    }
    (system, handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_core::node::FnNode;
    use soter_core::topic::TopicMap;

    fn two_drone_config(protection: Protection) -> AirspaceStackConfig {
        let base = DroneStackConfig {
            workspace: soter_sim::world::Workspace::corner_cut_course(),
            ..DroneStackConfig::default()
        };
        let pts = base.workspace.surveillance_points().to_vec();
        let agents = vec![
            DroneAgent {
                start: pts[0],
                circuit: pts.clone(),
                protection,
                advanced: AdvancedKind::Px4Like,
                seed: 1,
            },
            DroneAgent {
                start: pts[2],
                circuit: vec![pts[2], pts[3], pts[0], pts[1]],
                protection,
                advanced: AdvancedKind::Px4Like,
                seed: 2,
            },
        ];
        AirspaceStackConfig::new(base, agents)
    }

    #[test]
    fn scoped_node_translates_topics_both_ways() {
        let inner = FnNode::builder("relay")
            .subscribes(["in"])
            .publishes(["out"])
            .period(Duration::from_millis(10))
            .step(|_, inputs, outputs| {
                if let Some(v) = inputs.get("in") {
                    outputs.insert("out", v.clone());
                }
            })
            .build();
        let mut scoped = ScopedNode::new("drone3", inner);
        assert_eq!(scoped.name(), "drone3/relay");
        assert_eq!(scoped.subscriptions(), vec![TopicName::new("drone3/in")]);
        assert_eq!(scoped.outputs(), vec![TopicName::new("drone3/out")]);
        let mut inputs = TopicMap::new();
        inputs.insert("drone3/in", Value::Float(7.0));
        // A same-named topic of another drone must be invisible.
        inputs.insert("drone1/in", Value::Float(-1.0));
        let out = scoped.step_to_map(Time::ZERO, &inputs);
        assert_eq!(out.get("drone3/out"), Some(&Value::Float(7.0)));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn airspace_stack_composes_per_protection() {
        for (protection, modules, nodes) in [
            (Protection::Rta, 2, 2 * 2 + 2 * 3),
            (Protection::AcOnly, 0, 2 * 3),
            (Protection::ScOnly, 0, 2 * 3),
        ] {
            let cfg = two_drone_config(protection);
            let (system, handles) = build_airspace_stack(&cfg);
            assert_eq!(system.modules().len(), modules, "{protection:?}");
            assert_eq!(system.node_count(), nodes, "{protection:?}");
            assert_eq!(handles.len(), 2);
        }
    }

    #[test]
    fn airspace_output_topics_are_disjoint_per_drone() {
        let cfg = two_drone_config(Protection::Rta);
        let (system, _) = build_airspace_stack(&cfg);
        let outputs = system.output_topics();
        for i in 0..2 {
            for t in [
                topics::CONTROL_ACTION,
                topics::LOCAL_POSITION,
                topics::TARGET_WAYPOINT,
                topics::MISSION_PROGRESS,
            ] {
                let scoped = scoped_topic(&drone_prefix(i), t);
                assert!(outputs.contains(scoped.as_str()), "missing {scoped}");
            }
        }
        // Every DM observes its peer: the peer's position topic is among
        // the module's DM subscriptions.
        let dm_subs = system.modules()[0].dm().subscriptions();
        assert!(dm_subs.contains(&TopicName::new("drone1/localPosition")));
    }

    #[test]
    fn airspace_modules_thread_the_filter_kind() {
        for filter in soter_core::rta::FilterKind::ALL {
            let mut cfg = two_drone_config(Protection::Rta);
            cfg.base.filter = filter;
            let (system, _) = build_airspace_stack(&cfg);
            for module in system.modules() {
                assert_eq!(module.filter(), filter, "{filter}");
            }
        }
    }

    #[test]
    fn yielding_safe_node_brakes_near_peers() {
        let cfg = two_drone_config(Protection::Rta);
        let dcfg = cfg.agent_config(&cfg.agents[0]);
        let mut sc =
            YieldingSafeNode::new("drone0", &dcfg, vec!["drone1/localPosition".into()], 2.5);
        let own = DroneState::at_rest(Vec3::new(10.0, 3.0, 5.0));
        let mut inputs = TopicMap::new();
        inputs.insert("drone0/localPosition", topics::state_to_value(&own));
        inputs.insert("drone0/targetWaypoint", Value::Vector([17.0, 3.0, 5.0]));
        // Peer far away: tracks the waypoint (accelerates forward).
        inputs.insert(
            "drone1/localPosition",
            topics::state_to_value(&DroneState::at_rest(Vec3::new(17.0, 17.0, 5.0))),
        );
        let out = sc.step_to_map(Time::ZERO, &inputs);
        let u = out
            .get("drone0/controlAction")
            .and_then(topics::value_to_control)
            .unwrap();
        assert!(u.acceleration.x > 0.0, "must track the waypoint");
        // Peer inside the yield bubble: brakes against its own velocity.
        let moving = DroneState {
            position: Vec3::new(10.0, 3.0, 5.0),
            velocity: Vec3::new(2.0, 0.0, 0.0),
        };
        inputs.insert("drone0/localPosition", topics::state_to_value(&moving));
        inputs.insert(
            "drone1/localPosition",
            topics::state_to_value(&DroneState::at_rest(Vec3::new(11.5, 3.0, 5.0))),
        );
        let out = sc.step_to_map(Time::ZERO, &inputs);
        let u = out
            .get("drone0/controlAction")
            .and_then(topics::value_to_control)
            .unwrap();
        assert!(u.acceleration.x < 0.0, "must brake toward hover");
    }

    #[test]
    fn separation_oracle_composes_static_and_peer_checks() {
        let cfg = two_drone_config(Protection::Rta);
        let dcfg = cfg.agent_config(&cfg.agents[0]);
        let reach = ForwardReach::new(
            soter_sim::dynamics::QuadrotorDynamics::default(),
            dcfg.plant_period.as_secs_f64(),
            0.1,
        );
        let oracle = SeparationOracle::new(
            "drone0",
            dcfg.mpr_oracle(),
            vec!["drone1/localPosition".into()],
            PeerSeparation::new(reach, 1.5),
            dcfg.safer_factor,
            dcfg.delta_mpr.as_secs_f64(),
        );
        let own = DroneState::at_rest(Vec3::new(10.0, 3.0, 5.0));
        let mut observed = TopicMap::new();
        // Missing peer estimate: conservative.
        observed.insert("drone0/localPosition", topics::state_to_value(&own));
        assert!(!oracle.is_safe(&observed));
        assert!(oracle.may_leave_safe_within(&observed, Duration::from_millis(200)));
        // Distant peer: safe and safer.
        observed.insert(
            "drone1/localPosition",
            topics::state_to_value(&DroneState::at_rest(Vec3::new(17.0, 17.0, 5.0))),
        );
        assert!(oracle.is_safe(&observed));
        assert!(oracle.is_safer(&observed));
        assert!(!oracle.may_leave_safe_within(&observed, Duration::from_millis(200)));
        // Peer within r_sep: φ_sep broken even though φ_mpr holds.
        observed.insert(
            "drone1/localPosition",
            topics::state_to_value(&DroneState::at_rest(Vec3::new(10.8, 3.0, 5.0))),
        );
        assert!(!oracle.is_safe(&observed));
        // Peer outside r_sep but closing fast: still safe now, flagged ahead.
        observed.insert(
            "drone1/localPosition",
            topics::state_to_value(&DroneState {
                position: Vec3::new(15.0, 3.0, 5.0),
                velocity: Vec3::new(-7.0, 0.0, 0.0),
            }),
        );
        assert!(oracle.is_safe(&observed));
        assert!(oracle.may_leave_safe_within(&observed, Duration::from_millis(500)));
        assert!(!oracle.is_safer(&observed));
    }

    #[test]
    #[should_panic(expected = "at least two drones")]
    fn one_drone_airspace_is_rejected() {
        let mut cfg = two_drone_config(Protection::Rta);
        cfg.agents.truncate(1);
        let _ = build_airspace_stack(&cfg);
    }
}
