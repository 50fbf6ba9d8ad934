//! Proof that the steady-state executor hot path performs **zero heap
//! allocation per node firing** — the tentpole property of the interned
//! slot-store rewrite.
//!
//! A counting global allocator tallies every allocation in the process; the
//! executor runs a warm-up phase (scratch buffers grow to their steady
//! capacity, the schedule sampler materialises its per-node state) and then
//! thousands of further firings during which the allocation counter must
//! not move at all.
//!
//! The file contains a single `#[test]` so no concurrent test can perturb
//! the counter; trace *storage* is off (the streaming digest is still
//! maintained), matching the campaign/falsifier configuration this hot
//! path serves.  The executor probes use arithmetic-only nodes and oracles
//! (one module under explicit Simplex, one behind the ASIF gate); the
//! drone stack's command-level oracles — the motion-primitive projection
//! and the airspace separation checks — are measured by direct calls.

use soter::core::prelude::*;
use soter::drone::airspace::SeparationOracle;
use soter::drone::oracles::MotionPrimitiveOracle;
use soter::drone::{topics, DroneStackConfig};
use soter::reach::{ForwardReach, PeerSeparation};
use soter::runtime::executor::{Executor, ExecutorConfig};
use soter::runtime::schedule::JitterSchedule;
use soter::sim::dynamics::{ControlInput, DroneState, QuadrotorDynamics};
use soter::sim::Vec3;
use soter::vm::VmNode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the measuring thread, only around the measured loop —
    /// harness threads (libtest bookkeeping) allocate at their leisure
    /// without polluting the count.  Const-initialised so reading it inside
    /// the allocator itself cannot allocate.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a relaxed atomic with no other side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// φ_safe = |x| ≤ 10, φ_safer = |x| ≤ 5 over the `state` topic; pure
/// arithmetic, no allocation.  As an ASIF oracle it clips commands above
/// 0.5 to 0.5.
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
    fn supports_command_checks(&self) -> bool {
        true
    }
    fn project_command(
        &self,
        _observed: &dyn TopicRead,
        proposed: &Value,
        _horizon: Duration,
    ) -> Option<Value> {
        proposed
            .as_float()
            .filter(|u| *u > 0.5)
            .map(|_| Value::Float(0.5))
    }
}

/// The advanced controller of the measured module, hosted in the bytecode
/// sandbox: the VM interpreter (register reset, a bounded loop, a guarded
/// division, a topic load and a publish) is part of the measured hot path,
/// so the verifier's allocation-discipline claim is proven here, not just
/// asserted.  With `state = 7` this publishes `min(state / 4, 1) = 1.0`,
/// the same command the old closure AC produced.
const VM_AC: &str = "
node ac
period 100ms
budget 64
sub state
pub command

ld.f   r0, state, 0.0
fconst r1, 0.0
fconst r2, 1.0
loop 4
fadd   r1, r1, r2
endloop
fconst r3, 0.001
fmax   r4, r1, r3
fdiv   r5, r0, r4
fconst r6, 1.0
fmin   r5, r5, r6
st.f   command, r5
halt
";

/// An RTA module plus a fast free node: every firing kind (DM with monitor
/// check, gated VM-hosted AC, enabled SC, free node) runs inside the
/// measured window.  Under [`FilterKind::Asif`] the AC fires behind the
/// projecting gate, which clips every command it proposes.
fn system(filter: FilterKind) -> RtaSystem {
    let controller = |name: &str, v: f64| {
        FnNode::builder(name)
            .subscribes(["state"])
            .publishes(["command"])
            .period(Duration::from_millis(100))
            .step(move |_, _, out| {
                out.insert("command", Value::Float(v));
            })
            .build()
    };
    let module = RtaModule::builder("line")
        .advanced(VmNode::load(VM_AC).expect("the bytecode AC passes verification"))
        .safe(controller("sc", -1.0))
        .delta(Duration::from_millis(100))
        .oracle(LineOracle)
        .filter(filter)
        .build()
        .expect("line module is well-formed");
    let mut phase = 0.0f64;
    let ticker = FnNode::builder("ticker")
        .subscribes(["command"])
        .publishes(["tick"])
        .period(Duration::from_millis(10))
        .step(move |_, inputs, out| {
            phase += inputs
                .get("command")
                .and_then(Value::as_float)
                .unwrap_or(0.0);
            out.insert("tick", Value::Float(phase));
        })
        .build();
    let mut sys = RtaSystem::new("alloc-probe");
    sys.add_module(module).expect("module composes");
    sys.add_node(ticker).expect("ticker composes");
    sys
}

fn run_steady_state(schedule: JitterSchedule, filter: FilterKind) -> u64 {
    let config = ExecutorConfig {
        schedule,
        record_trace: false,
        monitor_invariants: true,
    };
    let mut exec = Executor::with_config(system(filter), config);
    // state = 7: inside φ_safe, outside φ_safer — the DM evaluates its full
    // switching logic every Δ yet never switches, so the measured window
    // contains no mode-switch bookkeeping growth.
    exec.publish("state", Value::Float(7.0));
    // Warm-up: scratch buffers and sampler state reach steady capacity.
    for _ in 0..200 {
        exec.step_instant();
    }
    let fired_before = exec.fired_steps();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..2_000 {
        exec.step_instant();
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let fired = exec.fired_steps() - fired_before;
    assert!(fired >= 2_000, "the probe must keep firing ({fired})");
    assert!(
        exec.trace().recorded_events() > 0,
        "the streaming digest still observes every firing"
    );
    allocs
}

#[test]
fn steady_state_step_instant_allocates_nothing() {
    command_oracles_allocate_nothing();
    // Ideal calendar and a jittered one (the i.i.d. sampler draws from its
    // RNG on every reschedule): both must be allocation-free per firing.
    for (label, schedule) in [
        ("ideal", JitterSchedule::Ideal),
        (
            "iid-jitter",
            JitterSchedule::iid(0.5, Duration::from_millis(4), 11),
        ),
        (
            "targeted-window",
            JitterSchedule::TargetedNode {
                node: "sc".into(),
                start: Time::from_secs_f64(1.0),
                width: Duration::from_secs(3600),
                delay: Duration::from_millis(3),
            },
        ),
    ] {
        for filter in [FilterKind::ExplicitSimplex, FilterKind::Asif] {
            let allocs = run_steady_state(schedule.clone(), filter);
            assert_eq!(
                allocs, 0,
                "steady-state executor allocated {allocs} times under the {label} schedule \
                 with the {filter} filter"
            );
        }
    }
}

/// Counts the allocations `probe` makes over 200 calls, after 20 warm-up
/// calls.
fn allocations_of(mut probe: impl FnMut()) -> u64 {
    for _ in 0..20 {
        probe();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..200 {
        probe();
    }
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The command-level oracle path of the drone stack allocates nothing: the
/// motion-primitive implicit-Simplex check and ASIF projection (pass-through,
/// certified bisection, and the exact fallback of a horizon longer than a
/// projection ray records), and the four separation-oracle entry points,
/// with every peer observed and with one peer missing.
fn command_oracles_allocate_nothing() {
    let config = DroneStackConfig::default();
    let mpr = config.mpr_oracle();
    let cmd = |a: Vec3| topics::control_to_value(&ControlInput::accel(a));
    let state = |p: Vec3, v: Vec3| {
        topics::state_to_value(&DroneState {
            position: p,
            velocity: v,
        })
    };
    // 2 m short of a house face, 2 m/s towards it, proposing a dash at it:
    // braking is admissible, the dash is not, so the projection bisects.
    let mut observed = TopicMap::new();
    observed.insert(
        topics::LOCAL_POSITION,
        state(Vec3::new(7.0, 13.0, 3.0), Vec3::new(2.0, 0.0, 0.0)),
    );
    let dash = cmd(Vec3::new(6.0, 0.0, 0.0));
    let hover = cmd(Vec3::ZERO);
    let (delta2, long) = (Duration::from_millis(200), Duration::from_secs(1));
    let clipped = MotionPrimitiveOracle::project_command(&mpr, &observed, &dash, delta2)
        .and_then(|v| topics::value_to_control(&v))
        .expect("the dash is clipped");
    assert!(clipped.acceleration.x > -6.0 && clipped.acceleration.x < 6.0);
    assert!(MotionPrimitiveOracle::project_command(&mpr, &observed, &hover, delta2).is_none());
    let allocs = allocations_of(|| {
        std::hint::black_box(mpr.command_may_leave_safe(&observed, &dash, delta2));
        std::hint::black_box(mpr.project_command(&observed, &dash, delta2));
        std::hint::black_box(mpr.project_command(&observed, &hover, delta2));
        std::hint::black_box(mpr.project_command(&observed, &dash, long));
    });
    assert_eq!(
        allocs, 0,
        "the motion-primitive command checks allocated {allocs} times"
    );

    let peer_topics = ["drone1/localPosition", "drone2/localPosition"];
    let separation = SeparationOracle::new(
        "drone0",
        config.mpr_oracle(),
        peer_topics.iter().map(|t| t.to_string()).collect(),
        PeerSeparation::new(
            ForwardReach::new(QuadrotorDynamics::default(), 0.01, 0.1),
            1.5,
        ),
        config.safer_factor,
        config.delta_mpr.as_secs_f64(),
    );
    let mut observed = TopicMap::new();
    observed.insert(
        "drone0/localPosition",
        state(Vec3::new(4.0, 20.0, 3.0), Vec3::new(0.0, 1.0, 0.0)),
    );
    observed.insert(peer_topics[0], state(Vec3::new(4.0, 26.0, 3.0), Vec3::ZERO));
    let one_missing = observed.clone();
    observed.insert(
        peer_topics[1],
        state(Vec3::new(44.0, 44.0, 3.0), Vec3::ZERO),
    );
    for view in [&observed, &one_missing] {
        let allocs = allocations_of(|| {
            std::hint::black_box(separation.is_safe(view));
            std::hint::black_box(separation.is_safer(view));
            std::hint::black_box(separation.may_leave_safe_within(view, delta2));
            std::hint::black_box(separation.command_may_leave_safe(view, &dash, delta2));
        });
        assert_eq!(allocs, 0, "the separation oracle allocated {allocs} times");
    }
    assert!(!separation.is_safe(&one_missing));
    assert!(separation.may_leave_safe_within(&one_missing, delta2));
}
