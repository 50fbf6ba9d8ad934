//! The timeout-based discrete-event executor (operational semantics of
//! Fig. 11).
//!
//! The executor owns an [`RtaSystem`] and a configuration
//! `(L, OE, ct, FN, Topics)`:
//!
//! * `L` — the local state of every node lives inside the node trait
//!   objects,
//! * `OE` — the output-enable map gating which controller of each RTA
//!   module may publish (`true` for the SC and `false` for the AC in the
//!   initial configuration),
//! * `ct` — the current time,
//! * `FN` — the set of nodes whose calendar entry equals `ct` and which
//!   have not fired yet at this instant,
//! * `Topics` — the globally visible topic valuation.
//!
//! The four transition rules map onto the executor as follows:
//! ENVIRONMENT-INPUT is produced by an optional [`EnvironmentModel`];
//! DISCRETE-TIME-PROGRESS-STEP advances `ct` to the earliest pending
//! calendar entry and populates `FN`; DM-STEP fires a decision module and
//! rewrites the OE entries of its controllers; AC-OR-SC-STEP fires a
//! controller or free node and merges its outputs into `Topics` only when
//! its output is enabled.
//!
//! ## Hot-path layout
//!
//! Everything name- or map-shaped is compiled away at construction time so
//! that steady-state execution performs **zero heap allocation per node
//! firing** (see `tests/zero_alloc.rs` and the "Hot path & performance
//! model" section of `docs/ARCHITECTURE.md`):
//!
//! * all declared topics are interned into a [`TopicInterner`]; the global
//!   valuation is a dense `Vec<Value>` slot store indexed by [`TopicId`]
//!   (plus a `published` bitset distinguishing "never published" from an
//!   explicit `Unit`),
//! * every node is compiled to a `CompiledNode`: interned name, period,
//!   and its subscription/output lists resolved to `TopicId`s once,
//! * nodes read through borrowed [`SlotView`]s (semantically identical to
//!   the former `TopicMap::restrict` projection) and publish through a
//!   [`TopicWriter`] into one scratch buffer reused across firings,
//! * the calendar is a per-node `next_due: Vec<Time>` with O(1) reschedule
//!   and a single linear minimum scan per instant (node counts are tens,
//!   not thousands — a flat scan beats a heap and keeps firing order
//!   trivially canonical),
//! * the OE map is a `Vec<bool>` indexed by node, and trace events carry
//!   interned [`TopicName`]s, so recording is a refcount bump.

use crate::schedule::{JitterSchedule, NodeId, ScheduleSampler};
use crate::trace::{Trace, TraceEvent};
use soter_core::composition::RtaSystem;
use soter_core::invariant::InvariantMonitor;
use soter_core::node::Node;
use soter_core::rta::Mode;
use soter_core::time::{Duration, Time};
use soter_core::topic::{
    SlotView, TopicId, TopicInterner, TopicMap, TopicName, TopicRead, TopicWriter, Value,
};

/// A source of ENVIRONMENT-INPUT transitions: values published onto the
/// system's environment topics from outside the node system.
pub trait EnvironmentModel: Send {
    /// Called once per discrete instant, immediately after time advances to
    /// `now` and before any node fires; returns the topic updates to inject.
    fn inputs_at(&mut self, now: Time) -> Vec<(TopicName, Value)>;
}

/// An [`EnvironmentModel`] backed by a closure.
pub struct FnEnvironment<F>(pub F);

impl<F> EnvironmentModel for FnEnvironment<F>
where
    F: FnMut(Time) -> Vec<(TopicName, Value)> + Send,
{
    fn inputs_at(&mut self, now: Time) -> Vec<(TopicName, Value)> {
        (self.0)(now)
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Scheduling-jitter schedule applied to node firings
    /// ([`JitterSchedule::Ideal`] for the ideal calendar; any
    /// [`crate::jitter::JitterModel`] converts via `.into()` for the legacy
    /// i.i.d. behaviour).
    pub schedule: JitterSchedule,
    /// Whether to record a full [`Trace`] (disable for long campaigns).
    pub record_trace: bool,
    /// Whether to evaluate the Theorem 3.1 invariant monitors at every DM
    /// firing.
    pub monitor_invariants: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            schedule: JitterSchedule::Ideal,
            record_trace: true,
            monitor_invariants: true,
        }
    }
}

/// Identifies a node within the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    /// Decision module of module `i`.
    Dm(usize),
    /// Advanced controller of module `i`.
    Ac(usize),
    /// Safe controller of module `i`.
    Sc(usize),
    /// Free node `i`.
    Free(usize),
}

/// One node's construction-time compilation: everything `fire` needs,
/// resolved once so the firing itself touches no maps and no strings
/// (except borrowed `&str` comparisons inside the view).
struct CompiledNode {
    kind: NodeRef,
    name: TopicName,
    period: Duration,
    /// Subscriptions in declaration order; parallel to `sub_ids`.
    sub_names: Vec<TopicName>,
    sub_ids: Vec<TopicId>,
    /// Declared outputs in declaration order; parallel to `out_ids`.
    out_names: Vec<TopicName>,
    out_ids: Vec<TopicId>,
}

/// The construction-time compilation of an [`RtaSystem`]'s static shape:
/// the topic interner, the per-node tables (interned names, resolved
/// subscription/output ids, periods), the canonical firing order and the
/// module-name index.  Each executor compiles its system once and owns the
/// result.
struct CompiledSystem {
    interner: TopicInterner,
    /// All nodes in canonical firing order: DMs, then ACs, then SCs (module
    /// order within each block), then free nodes.
    nodes: Vec<CompiledNode>,
    /// Initial OE map in node order (`true` for DMs, SCs and free nodes).
    initial_oe: Vec<bool>,
    /// Interned module names, in module order.
    module_names: Vec<TopicName>,
    /// `(module name, module index)` sorted by name, for O(log n) mode
    /// lookups by name.
    module_lookup: Vec<(TopicName, usize)>,
}

impl CompiledSystem {
    /// Compiles a system's static shape.  All interning and id resolution
    /// happens here, once.
    fn compile(system: &RtaSystem) -> Self {
        let infos = system.all_node_infos();
        let interner = TopicInterner::new(
            infos
                .iter()
                .flat_map(|i| i.subscriptions.iter().chain(i.outputs.iter()).cloned()),
        );
        let compile = |kind: NodeRef, info: &soter_core::node::NodeInfo| {
            let resolve = |names: &[TopicName]| -> Vec<TopicId> {
                names
                    .iter()
                    .map(|n| interner.id(n.as_str()).expect("declared topic is interned"))
                    .collect()
            };
            CompiledNode {
                kind,
                name: TopicName::new(&info.name),
                period: info.period,
                sub_ids: resolve(&info.subscriptions),
                sub_names: info.subscriptions.clone(),
                out_ids: resolve(&info.outputs),
                out_names: info.outputs.clone(),
            }
        };
        let mut nodes = Vec::new();
        let mut initial_oe = Vec::new();
        let mut module_names = Vec::new();
        // Canonical order: all DMs, then all ACs, then all SCs, then the
        // free nodes — the firing order of simultaneously scheduled nodes.
        for (i, m) in system.modules().iter().enumerate() {
            nodes.push(compile(NodeRef::Dm(i), &m.dm().info()));
            initial_oe.push(true);
            module_names.push(TopicName::new(m.name()));
        }
        for (i, m) in system.modules().iter().enumerate() {
            nodes.push(compile(NodeRef::Ac(i), &m.ac().info()));
            // Initial configuration: every module starts in SC mode, so the
            // SC output is enabled and the AC output disabled.
            initial_oe.push(false);
        }
        for (i, m) in system.modules().iter().enumerate() {
            nodes.push(compile(NodeRef::Sc(i), &m.sc().info()));
            initial_oe.push(true);
        }
        for (i, n) in system.free_nodes().iter().enumerate() {
            nodes.push(compile(NodeRef::Free(i), &n.info()));
            initial_oe.push(true);
        }
        let mut module_lookup: Vec<(TopicName, usize)> = module_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        module_lookup.sort_by(|a, b| a.0.cmp(&b.0));
        CompiledSystem {
            interner,
            nodes,
            initial_oe,
            module_names,
            module_lookup,
        }
    }
}

/// Borrowed read access to the executor's entire topic valuation (every
/// published slot plus undeclared extras) — see [`Executor::reader`].
pub struct GlobalView<'a> {
    exec: &'a Executor,
}

impl TopicRead for GlobalView<'_> {
    fn get(&self, topic: &str) -> Option<&Value> {
        self.exec.topic(topic)
    }
}

/// A snapshot of one RTA module's mode, passed to observers.
pub type ModeSnapshot = Vec<(String, Mode)>;

type Observer = Box<dyn FnMut(Time, &TopicMap, &ModeSnapshot) + Send>;

/// The discrete-event executor.
pub struct Executor {
    system: RtaSystem,
    config: ExecutorConfig,
    /// The static shape: interner, node tables, firing order.
    compiled: CompiledSystem,
    /// The global valuation: one slot per interned topic, `Unit` until
    /// first published.
    slots: Vec<Value>,
    /// Whether each slot has ever been published (so [`Executor::topics`]
    /// reports exactly the topics a `TopicMap`-based valuation would hold).
    published: Vec<bool>,
    /// Values published on topics no node declares (one-off test inputs);
    /// invisible to nodes, visible through [`Executor::topics`].
    extra: TopicMap,
    /// The calendar: the next due instant of each node.
    next_due: Vec<Time>,
    /// The OE map, indexed like the compiled node table.
    oe: Vec<bool>,
    now: Time,
    trace: Trace,
    monitors: Vec<InvariantMonitor>,
    environment: Option<Box<dyn EnvironmentModel>>,
    sampler: Box<dyn ScheduleSampler>,
    observers: Vec<Observer>,
    fired_steps: u64,
    /// Scratch: indices of the nodes firing at the current instant.
    fireable_scratch: Vec<u32>,
    /// Scratch: output entries of the node currently firing.
    out_scratch: Vec<(u32, Value)>,
}

impl Executor {
    /// Creates an executor with the default configuration.
    pub fn new(system: RtaSystem) -> Self {
        Executor::with_config(system, ExecutorConfig::default())
    }

    /// Creates an executor with an explicit configuration.  All interning
    /// and per-node compilation happens here, once.
    pub fn with_config(system: RtaSystem, config: ExecutorConfig) -> Self {
        let compiled = CompiledSystem::compile(&system);
        // Monitors are stateful, hence built per run rather than compiled.
        let monitors = system
            .modules()
            .iter()
            .map(|m| {
                InvariantMonitor::new(m.name(), m.oracle(), m.delta())
                    .with_filter(m.filter(), m.command_topic())
            })
            .collect();
        let trace = if config.record_trace {
            Trace::new()
        } else {
            Trace::disabled()
        };
        let sampler = config.schedule.sampler();
        Executor {
            slots: vec![Value::Unit; compiled.interner.len()],
            published: vec![false; compiled.interner.len()],
            extra: TopicMap::new(),
            system,
            config,
            // The initial calendar: every node first due one period after
            // zero.
            next_due: compiled
                .nodes
                .iter()
                .map(|n| Time::ZERO + n.period)
                .collect(),
            oe: compiled.initial_oe.clone(),
            compiled,
            now: Time::ZERO,
            trace,
            monitors,
            environment: None,
            sampler,
            observers: Vec::new(),
            fired_steps: 0,
            fireable_scratch: Vec::new(),
            out_scratch: Vec::new(),
        }
    }

    /// Replaces the schedule sampler (e.g. with a custom
    /// [`ScheduleSampler`] implementation not expressible as a
    /// [`JitterSchedule`]).  Must be called before the first instant is
    /// stepped for the run to be reproducible from the sampler alone.
    pub fn set_schedule_sampler(&mut self, sampler: Box<dyn ScheduleSampler>) {
        self.sampler = sampler;
    }

    /// Installs the environment model producing ENVIRONMENT-INPUT
    /// transitions.
    pub fn set_environment(&mut self, env: impl EnvironmentModel + 'static) {
        self.environment = Some(Box::new(env));
    }

    /// Registers an observer called after every discrete instant with the
    /// current time, the topic valuation and the modes of all RTA modules.
    ///
    /// Observer support is pay-as-you-go: with no observers registered the
    /// executor never materialises the valuation or the mode snapshot.
    pub fn add_observer<F>(&mut self, f: F)
    where
        F: FnMut(Time, &TopicMap, &ModeSnapshot) + Send + 'static,
    {
        self.observers.push(Box::new(f));
    }

    /// Directly publishes a value on a topic (a one-off ENVIRONMENT-INPUT
    /// transition), e.g. to set an initial target before running.
    pub fn publish(&mut self, topic: impl Into<TopicName>, value: Value) {
        let topic = topic.into();
        self.trace.record(TraceEvent::EnvironmentInput {
            time: self.now,
            topic: topic.clone(),
        });
        self.set_topic(topic, value);
    }

    fn set_topic(&mut self, topic: TopicName, value: Value) {
        match self.compiled.interner.id(topic.as_str()) {
            Some(id) => {
                self.slots[id.index()] = value;
                self.published[id.index()] = true;
            }
            // A topic no node declares: nodes can never read it, but it
            // stays visible through `topics()` like any map entry would.
            None => {
                self.extra.insert(topic, value);
            }
        }
    }

    /// The current time `ct`.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The current global topic valuation, materialised as an owned map
    /// (name-ordered, published topics only).  This walks every slot — use
    /// [`Executor::topic`] for cheap single-topic reads in loops.
    pub fn topics(&self) -> TopicMap {
        let mut map = self.extra.clone();
        for (id, name) in self.compiled.interner.iter() {
            if self.published[id.index()] {
                map.insert(name.clone(), self.slots[id.index()].clone());
            }
        }
        map
    }

    /// Reads one topic of the global valuation without materialising a map
    /// (`None` if nothing was ever published on it).
    pub fn topic(&self, name: &str) -> Option<&Value> {
        match self.compiled.interner.id(name) {
            Some(id) => self.published[id.index()].then(|| &self.slots[id.index()]),
            None => self.extra.get(name),
        }
    }

    /// A borrowed [`TopicRead`] over the whole global valuation —
    /// allocation-free read access for per-instant consumers (observers of
    /// the exploration engine, predicates) that would otherwise
    /// materialise [`Executor::topics`] every instant.
    pub fn reader(&self) -> GlobalView<'_> {
        GlobalView { exec: self }
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The Theorem 3.1 monitors, one per RTA module, in module order.
    pub fn monitors(&self) -> &[InvariantMonitor] {
        &self.monitors
    }

    /// The executed system.
    pub fn system(&self) -> &RtaSystem {
        &self.system
    }

    /// Mutable access to the executed system (e.g. to inspect controllers
    /// after a run).
    pub fn system_mut(&mut self) -> &mut RtaSystem {
        &mut self.system
    }

    /// Consumes the executor, returning the system (with all node state as
    /// it was at the end of the run).
    pub fn into_system(self) -> RtaSystem {
        self.system
    }

    /// The mode of a module by name, if it exists (O(log n) via the
    /// construction-time name index).
    pub fn module_mode(&self, name: &str) -> Option<Mode> {
        self.compiled
            .module_lookup
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.system.modules()[self.compiled.module_lookup[i].1].mode())
    }

    /// The modes of all modules, in module order.
    pub fn mode_snapshot(&self) -> ModeSnapshot {
        self.system
            .modules()
            .iter()
            .map(|m| (m.name().to_string(), m.mode()))
            .collect()
    }

    /// Whether a node's output is currently enabled (controllers only; free
    /// nodes and DMs are not in the OE map).
    pub fn output_enabled(&self, node: &str) -> Option<bool> {
        self.compiled.nodes.iter().enumerate().find_map(|(i, n)| {
            (matches!(n.kind, NodeRef::Ac(_) | NodeRef::Sc(_)) && n.name == node)
                .then(|| self.oe[i])
        })
    }

    /// Total number of node firings executed so far.
    pub fn fired_steps(&self) -> u64 {
        self.fired_steps
    }

    /// Executes one discrete instant: advances time to the earliest calendar
    /// entry, injects environment inputs, and fires every node scheduled at
    /// that instant (decision modules first, then controllers, then free
    /// nodes).  Returns the new time, or `None` if the calendar is empty.
    pub fn step_instant(&mut self) -> Option<Time> {
        let next_time = self.begin_instant()?;
        let mut fireable = std::mem::take(&mut self.fireable_scratch);
        self.collect_fireable(next_time, &mut fireable);
        // The canonical order needs no chooser: fire straight through.
        for &idx in &fireable {
            self.fire(idx as usize);
            self.reschedule(idx as usize);
        }
        fireable.clear();
        self.fireable_scratch = fireable;
        self.notify_observers(next_time);
        Some(next_time)
    }

    /// Like [`Executor::step_instant`], but the order in which
    /// simultaneously enabled nodes fire is chosen by `chooser`, which is
    /// given the names of the not-yet-fired nodes of this instant and must
    /// return the index of the one to fire next.  This is the hook the
    /// bounded-asynchrony systematic tester uses to explore interleavings.
    /// (Building the candidate name list allocates; the default
    /// [`Executor::step_instant`] path does not.)
    pub fn step_instant_with_order<F>(&mut self, mut chooser: F) -> Option<Time>
    where
        F: FnMut(&[&str]) -> usize,
    {
        let next_time = self.begin_instant()?;
        let mut fireable = std::mem::take(&mut self.fireable_scratch);
        self.collect_fireable(next_time, &mut fireable);
        while !fireable.is_empty() {
            let names: Vec<&str> = fireable
                .iter()
                .map(|&i| self.compiled.nodes[i as usize].name.as_str())
                .collect();
            let mut idx = chooser(&names);
            if idx >= fireable.len() {
                idx = 0;
            }
            let node = fireable.remove(idx) as usize;
            self.fire(node);
            self.reschedule(node);
        }
        self.fireable_scratch = fireable;
        self.notify_observers(next_time);
        Some(next_time)
    }

    /// DISCRETE-TIME-PROGRESS-STEP plus ENVIRONMENT-INPUT: advances `ct` to
    /// the earliest pending calendar entry and injects environment inputs.
    fn begin_instant(&mut self) -> Option<Time> {
        let next_time = self.next_due.iter().copied().min()?;
        self.now = next_time;
        if let Some(env) = self.environment.as_mut() {
            for (topic, value) in env.inputs_at(next_time) {
                self.trace.record(TraceEvent::EnvironmentInput {
                    time: next_time,
                    topic: topic.clone(),
                });
                self.set_topic(topic, value);
            }
        }
        Some(next_time)
    }

    /// FN = nodes scheduled at this instant.  `nodes` is stored in the
    /// canonical order (DMs, ACs, SCs, free nodes), so an index scan
    /// produces FN already canonically ordered.
    fn collect_fireable(&self, at: Time, fireable: &mut Vec<u32>) {
        fireable.clear();
        for (i, due) in self.next_due.iter().enumerate() {
            if *due == at {
                fireable.push(i as u32);
            }
        }
    }

    fn notify_observers(&mut self, now: Time) {
        if self.observers.is_empty() {
            return;
        }
        let snapshot = self.mode_snapshot();
        let topics = self.topics();
        for obs in &mut self.observers {
            obs(now, &topics, &snapshot);
        }
    }

    /// Runs the system until the current time reaches or exceeds `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while self.now < deadline {
            if self.step_instant().is_none() {
                break;
            }
        }
    }

    /// Runs the system for an additional `duration` of simulated time.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    fn reschedule(&mut self, idx: usize) {
        let delay = self.sampler.delay(
            NodeId(idx as u32),
            self.compiled.nodes[idx].name.as_str(),
            self.now,
        );
        self.next_due[idx] = self.now + self.compiled.nodes[idx].period + delay;
    }

    fn fire(&mut self, idx: usize) {
        self.fired_steps += 1;
        if let NodeRef::Dm(i) = self.compiled.nodes[idx].kind {
            self.fire_dm(idx, i);
            return;
        }
        // AC-OR-SC-STEP (and free-node firing): step the node against a
        // borrowed view of its subscriptions, collecting outputs into the
        // reused scratch buffer.
        let now = self.now;
        let mut entries = std::mem::take(&mut self.out_scratch);
        entries.clear();
        {
            let node = &self.compiled.nodes[idx];
            let view = SlotView::new(&node.sub_names, &node.sub_ids, &self.slots);
            let mut writer =
                TopicWriter::new(node.name.as_str(), now, &node.out_names, &mut entries);
            match node.kind {
                NodeRef::Ac(i) => {
                    self.system.modules_mut()[i]
                        .ac_mut()
                        .step(now, &view, &mut writer)
                }
                NodeRef::Sc(i) => {
                    self.system.modules_mut()[i]
                        .sc_mut()
                        .step(now, &view, &mut writer)
                }
                NodeRef::Free(i) => self.system.free_nodes_mut()[i].step(now, &view, &mut writer),
                NodeRef::Dm(_) => unreachable!("DM firings take the fire_dm path"),
            }
        }
        let enabled = self.oe[idx];
        if enabled {
            // `out ∪ Topics[T \ dom(out)]`: later writes win, like a map.
            let node = &self.compiled.nodes[idx];
            for (local, value) in entries.drain(..) {
                let slot = node.out_ids[local as usize].index();
                self.slots[slot] = value;
                self.published[slot] = true;
            }
        } else {
            entries.clear();
        }
        self.out_scratch = entries;
        self.trace.record(TraceEvent::NodeFired {
            time: now,
            node: self.compiled.nodes[idx].name.clone(),
            output_enabled: enabled,
        });
    }

    fn fire_dm(&mut self, idx: usize, i: usize) {
        let now = self.now;
        let modules = self.system.modules().len();
        let before = self.system.modules()[i].mode();
        let mut entries = std::mem::take(&mut self.out_scratch);
        entries.clear();
        {
            let node = &self.compiled.nodes[idx];
            let view = SlotView::new(&node.sub_names, &node.sub_ids, &self.slots);
            let mut writer =
                TopicWriter::new(node.name.as_str(), now, &node.out_names, &mut entries);
            self.system.modules_mut()[i]
                .dm_mut()
                .step(now, &view, &mut writer);
        }
        self.out_scratch = entries;
        let after = self.system.modules()[i].mode();
        // DM-STEP: rewrite the OE entries of the module's controllers
        // (AC block starts at `modules`, SC block at `2 * modules`).
        self.oe[modules + i] = after == Mode::Ac;
        self.oe[2 * modules + i] = after == Mode::Sc;
        self.trace.record(TraceEvent::NodeFired {
            time: now,
            node: self.compiled.nodes[idx].name.clone(),
            output_enabled: true,
        });
        if before != after {
            let reason = self.system.modules()[i]
                .dm()
                .switches()
                .last()
                .expect("a mode change records a switch event")
                .reason;
            self.trace.record(TraceEvent::ModeSwitch {
                time: now,
                module: self.compiled.module_names[i].clone(),
                from: before,
                to: after,
                reason,
            });
        }
        if self.config.monitor_invariants {
            let node = &self.compiled.nodes[idx];
            let view = SlotView::new(&node.sub_names, &node.sub_ids, &self.slots);
            let status = self.monitors[i].check(now, after, &view);
            if !status.holds() {
                self.trace.record(TraceEvent::InvariantViolation {
                    time: now,
                    module: self.compiled.module_names[i].clone(),
                    mode: after,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::JitterModel;
    use soter_core::node::FnNode;
    use soter_core::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    /// Oracle over the `state` topic (1-D position), identical to the one in
    /// the core tests: φ_safe = |x| ≤ 10, φ_safer = |x| ≤ 5, max speed 1.
    struct LineOracle;

    impl SafetyOracle for LineOracle {
        fn is_safe(&self, observed: &dyn TopicRead) -> bool {
            observed
                .get("state")
                .and_then(Value::as_float)
                .map(|x| x.abs() <= 10.0)
                .unwrap_or(false)
        }
        fn is_safer(&self, observed: &dyn TopicRead) -> bool {
            observed
                .get("state")
                .and_then(Value::as_float)
                .map(|x| x.abs() <= 5.0)
                .unwrap_or(false)
        }
        fn may_leave_safe_within(&self, observed: &dyn TopicRead, horizon: Duration) -> bool {
            match observed.get("state").and_then(Value::as_float) {
                Some(x) => x.abs() + horizon.as_secs_f64() > 10.0,
                None => true,
            }
        }
    }

    /// Builds a 1-D system: a plant node integrating a `command` velocity
    /// into the `state` topic every 10 ms, an aggressive AC pushing outward
    /// and a safe SC pushing back toward the origin, under an RTA module
    /// with Δ = 100 ms.
    fn line_system() -> RtaSystem {
        let ac = FnNode::builder("ac")
            .subscribes(["state"])
            .publishes(["command"])
            .period(Duration::from_millis(100))
            .step(|_, _, out| {
                out.insert("command", Value::Float(1.0));
            })
            .build();
        let sc = FnNode::builder("sc")
            .subscribes(["state"])
            .publishes(["command"])
            .period(Duration::from_millis(100))
            .step(|_, inputs, out| {
                let x = inputs.get("state").and_then(Value::as_float).unwrap_or(0.0);
                let v = if x.abs() < 0.1 {
                    0.0
                } else if x > 0.0 {
                    -1.0
                } else {
                    1.0
                };
                out.insert("command", Value::Float(v));
            })
            .build();
        let module = RtaModule::builder("line")
            .advanced(ac)
            .safe(sc)
            .delta(Duration::from_millis(100))
            .oracle(LineOracle)
            .build()
            .unwrap();
        let mut state = 0.0f64;
        let plant = FnNode::builder("plant")
            .subscribes(["command"])
            .publishes(["state"])
            .period(Duration::from_millis(10))
            .step(move |_, inputs, out| {
                let v = inputs
                    .get("command")
                    .and_then(Value::as_float)
                    .unwrap_or(0.0);
                state += v * 0.01;
                out.insert("state", Value::Float(state));
            })
            .build();
        let mut sys = RtaSystem::new("line-system");
        sys.add_module(module).unwrap();
        sys.add_node(plant).unwrap();
        sys
    }

    #[test]
    fn initial_configuration_matches_semantics() {
        let exec = Executor::new(line_system());
        assert_eq!(exec.now(), Time::ZERO);
        assert!(exec.topics().is_empty());
        assert_eq!(exec.module_mode("line"), Some(Mode::Sc));
        assert_eq!(exec.output_enabled("ac"), Some(false));
        assert_eq!(exec.output_enabled("sc"), Some(true));
        assert_eq!(exec.output_enabled("plant"), None);
        assert_eq!(exec.fired_steps(), 0);
    }

    #[test]
    fn time_advances_to_calendar_entries() {
        let mut exec = Executor::new(line_system());
        let t1 = exec.step_instant().unwrap();
        assert_eq!(t1, Time::from_millis(10), "plant has the earliest period");
        let t2 = exec.step_instant().unwrap();
        assert_eq!(t2, Time::from_millis(20));
        assert!(exec.topics().get("state").is_some());
        assert!(exec.topic("state").is_some());
        assert_eq!(exec.topic("command"), None, "not yet published");
    }

    #[test]
    fn dm_engages_ac_when_state_is_safer_and_system_stays_safe() {
        let mut exec = Executor::new(line_system());
        exec.run_until(Time::from_secs_f64(2.0));
        // The state starts at 0 (φ_safer), so the DM hands control to the AC.
        assert_eq!(exec.module_mode("line"), Some(Mode::Ac));
        let x = exec
            .topics()
            .get("state")
            .and_then(Value::as_float)
            .unwrap();
        assert!(
            x > 0.0,
            "the aggressive AC should be driving the state outward"
        );
        // Run long enough for the AC to approach the boundary: the DM must
        // disengage it before |x| > 10 and the invariant must never break.
        exec.run_until(Time::from_secs_f64(60.0));
        let x = exec
            .topics()
            .get("state")
            .and_then(Value::as_float)
            .unwrap();
        assert!(x.abs() <= 10.0, "safety must hold, got {x}");
        assert!(
            exec.monitors()[0].is_clean(),
            "Theorem 3.1 invariant must hold"
        );
        let switches = exec.trace().mode_switches("line");
        assert!(
            !switches.is_empty(),
            "the DM must have switched at least once"
        );
        // The module keeps oscillating between the boundary and φ_safer, so
        // both disengagements and re-engagements occur.
        assert!(exec.system().modules()[0].dm().disengagement_count() >= 1);
        assert!(exec.system().modules()[0].dm().reengagement_count() >= 1);
    }

    /// Like [`line_system`] but without the plant node, so the `state`
    /// topic only changes when published externally.
    fn module_only_system() -> RtaSystem {
        let ac = FnNode::builder("ac")
            .subscribes(["state"])
            .publishes(["command"])
            .period(Duration::from_millis(100))
            .step(|_, _, out| {
                out.insert("command", Value::Float(1.0));
            })
            .build();
        let sc = FnNode::builder("sc")
            .subscribes(["state"])
            .publishes(["command"])
            .period(Duration::from_millis(100))
            .step(|_, _, out| {
                out.insert("command", Value::Float(-1.0));
            })
            .build();
        let module = RtaModule::builder("line")
            .advanced(ac)
            .safe(sc)
            .delta(Duration::from_millis(100))
            .oracle(LineOracle)
            .build()
            .unwrap();
        let mut sys = RtaSystem::new("module-only");
        sys.add_module(module).unwrap();
        sys
    }

    #[test]
    fn disabled_controller_outputs_are_discarded() {
        let mut exec = Executor::new(module_only_system());
        // state = 7 is inside φ_safe but outside φ_safer, so the DM keeps the
        // module in SC mode and the AC's outputs must be discarded.
        exec.publish("state", Value::Float(7.0));
        exec.run_until(Time::from_millis(100));
        // state = 7 is safe but not safer: module must still be in SC mode.
        assert_eq!(exec.module_mode("line"), Some(Mode::Sc));
        let ac_firings: Vec<bool> = exec
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::NodeFired {
                    node,
                    output_enabled,
                    ..
                } if node == "ac" => Some(*output_enabled),
                _ => None,
            })
            .collect();
        assert!(!ac_firings.is_empty());
        assert!(
            ac_firings.iter().all(|enabled| !enabled),
            "AC output must be gated off in SC mode"
        );
    }

    #[test]
    fn publishing_on_an_undeclared_topic_is_visible_but_unread() {
        // `state` is declared (subscribed by the module); `wholly_unknown`
        // is not declared by any node: it must surface in `topics()` (like
        // any map entry) without perturbing execution.
        let mut exec = Executor::new(module_only_system());
        exec.publish("wholly_unknown", Value::Int(42));
        exec.publish("state", Value::Float(7.0));
        assert_eq!(exec.topic("wholly_unknown"), Some(&Value::Int(42)));
        exec.run_until(Time::from_millis(200));
        assert_eq!(exec.topics().get("wholly_unknown"), Some(&Value::Int(42)),);
    }

    #[test]
    fn observers_see_every_instant() {
        let counter = StdArc::new(AtomicUsize::new(0));
        let c2 = StdArc::clone(&counter);
        let mut exec = Executor::new(line_system());
        exec.add_observer(move |_, _, modes| {
            assert_eq!(modes.len(), 1);
            c2.fetch_add(1, Ordering::SeqCst);
        });
        exec.run_until(Time::from_millis(100));
        // Plant fires at 10..100 ms (10 instants); AC/SC/DM share the 100 ms
        // instant with the plant, so there are exactly 10 distinct instants.
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn environment_model_injects_inputs() {
        let mut sys = RtaSystem::new("env-test");
        sys.add_node(
            FnNode::builder("reader")
                .subscribes(["wind"])
                .publishes(["echo"])
                .period(Duration::from_millis(50))
                .step(|_, inputs, out| {
                    out.insert("echo", inputs.get_or_unit("wind"));
                })
                .build(),
        )
        .unwrap();
        let mut exec = Executor::new(sys);
        exec.set_environment(FnEnvironment(|now: Time| {
            vec![(TopicName::new("wind"), Value::Float(now.as_secs_f64()))]
        }));
        exec.run_until(Time::from_millis(200));
        let echoed = exec.topics().get("echo").and_then(Value::as_float).unwrap();
        assert!(echoed > 0.0);
        assert!(exec
            .trace()
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::EnvironmentInput { topic, .. } if topic == "wind")));
    }

    #[test]
    fn run_for_advances_relative_duration() {
        let mut exec = Executor::new(line_system());
        exec.run_for(Duration::from_millis(300));
        assert!(exec.now() >= Time::from_millis(300));
    }

    #[test]
    #[should_panic(expected = "undeclared topic")]
    fn publishing_on_undeclared_topic_panics() {
        let mut sys = RtaSystem::new("bad");
        sys.add_node(
            FnNode::builder("rogue")
                .publishes(["declared"])
                .period(Duration::from_millis(10))
                .step(|_, _, out| {
                    out.insert("undeclared", Value::Bool(true));
                })
                .build(),
        )
        .unwrap();
        let mut exec = Executor::new(sys);
        exec.step_instant();
    }

    #[test]
    fn jitter_delays_firings() {
        let config = ExecutorConfig {
            schedule: JitterModel::new(1.0, Duration::from_millis(20), 42).into(),
            ..ExecutorConfig::default()
        };
        let mut exec = Executor::with_config(line_system(), config);
        exec.run_until(Time::from_secs_f64(1.0));
        // With jitter, the plant fires fewer times than the ideal 100.
        let ideal = 100;
        let actual = exec.trace().firing_count("plant");
        assert!(
            actual < ideal,
            "jitter should reduce firing count ({actual} >= {ideal})"
        );
        assert!(actual > 30, "but the node still fires regularly");
    }

    #[test]
    fn custom_order_chooser_is_respected() {
        let mut exec = Executor::new(line_system());
        // Always pick the last candidate: exercises the reordering path.
        let mut picked = Vec::new();
        while exec.now() < Time::from_millis(100) {
            let before = exec.trace().len();
            exec.step_instant_with_order(|names| if names.len() > 1 { names.len() - 1 } else { 0 });
            picked.push(exec.trace().len() - before);
        }
        assert!(exec.topics().get("state").is_some());
    }

    #[test]
    fn default_chooser_and_hot_path_agree() {
        // step_instant and step_instant_with_order(|_| 0) must produce the
        // exact same execution (the hot path skips the name list entirely).
        let run = |ordered: bool| {
            let mut exec = Executor::new(line_system());
            while exec.now() < Time::from_secs_f64(2.0) {
                let step = if ordered {
                    exec.step_instant_with_order(|_| 0)
                } else {
                    exec.step_instant()
                };
                if step.is_none() {
                    break;
                }
            }
            (exec.trace().digest(), exec.fired_steps())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn empty_system_returns_none() {
        let mut exec = Executor::new(RtaSystem::new("empty"));
        assert!(exec.step_instant().is_none());
    }

    /// Regression test: jitter seeding is explicit per run (the sampler is
    /// constructed from `ExecutorConfig::schedule` alone), so consecutive
    /// or interleaved runs must not couple through any shared state.
    #[test]
    fn jitter_seeding_is_per_run_and_uncoupled() {
        let config = ExecutorConfig {
            schedule: JitterModel::new(0.5, Duration::from_millis(30), 99).into(),
            ..ExecutorConfig::default()
        };
        let run_alone = |cfg: &ExecutorConfig| {
            let mut exec = Executor::with_config(line_system(), cfg.clone());
            exec.run_until(Time::from_secs_f64(3.0));
            (exec.trace().digest(), exec.fired_steps())
        };
        let first = run_alone(&config);
        // A second run from the same config must be byte-identical: nothing
        // from the first run may leak into the second.
        assert_eq!(first, run_alone(&config), "consecutive runs are coupled");
        // Two executors advanced in lock-step must each reproduce their
        // standalone runs — per-executor samplers share no state.
        let mut a = Executor::with_config(line_system(), config.clone());
        let mut b = Executor::with_config(line_system(), config.clone());
        loop {
            let sa = a.now() < Time::from_secs_f64(3.0) && a.step_instant().is_some();
            let sb = b.now() < Time::from_secs_f64(3.0) && b.step_instant().is_some();
            if !sa && !sb {
                break;
            }
        }
        assert_eq!((a.trace().digest(), a.fired_steps()), first);
        assert_eq!((b.trace().digest(), b.fired_steps()), first);
    }

    /// The streaming trace digest is stable per seed, differs across jitter
    /// seeds, and distinguishes jittered from ideal-calendar runs.
    #[test]
    fn trace_digest_separates_jitter_configurations() {
        let digest_with = |jitter: JitterModel| {
            let config = ExecutorConfig {
                schedule: jitter.into(),
                ..ExecutorConfig::default()
            };
            let mut exec = Executor::with_config(line_system(), config);
            exec.run_until(Time::from_secs_f64(2.0));
            exec.trace().digest()
        };
        let ideal = digest_with(JitterModel::none());
        assert_eq!(ideal, digest_with(JitterModel::none()));
        let jittered = digest_with(JitterModel::new(0.8, Duration::from_millis(25), 7));
        assert_eq!(
            jittered,
            digest_with(JitterModel::new(0.8, Duration::from_millis(25), 7))
        );
        assert_ne!(ideal, jittered, "jitter must perturb the firing schedule");
        assert_ne!(
            jittered,
            digest_with(JitterModel::new(0.8, Duration::from_millis(25), 8)),
            "different jitter seeds must explore different schedules"
        );
    }

    /// Trace storage (on/off) must not affect the digest — long campaigns
    /// run with `record_trace: false` and still regression-compare digests.
    #[test]
    fn digest_is_independent_of_trace_storage() {
        let run = |record_trace: bool| {
            let config = ExecutorConfig {
                record_trace,
                ..ExecutorConfig::default()
            };
            let mut exec = Executor::with_config(line_system(), config);
            exec.run_until(Time::from_secs_f64(2.0));
            (exec.trace().digest(), exec.trace().recorded_events())
        };
        let stored = run(true);
        let dropped = run(false);
        assert_eq!(stored, dropped);
    }

    #[test]
    fn into_system_returns_final_state() {
        let mut exec = Executor::new(line_system());
        exec.run_until(Time::from_millis(500));
        let sys = exec.into_system();
        assert_eq!(sys.modules().len(), 1);
    }
}
