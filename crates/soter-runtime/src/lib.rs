//! # soter-runtime — discrete-event execution of SOTER systems
//!
//! This crate executes the RTA systems declared with `soter-core` according
//! to the operational semantics of Fig. 11 of the SOTER paper:
//!
//! * [`executor`] — the timeout-based discrete-event executor: it maintains
//!   the configuration `(L, OE, ct, FN, Topics)`, advances time to the next
//!   calendar entry (DISCRETE-TIME-PROGRESS-STEP), fires decision modules
//!   (DM-STEP, updating the output-enable map), fires controller and free
//!   nodes (AC-OR-SC-STEP, gating their outputs on the OE map), and lets an
//!   [`executor::EnvironmentModel`] inject ENVIRONMENT-INPUT transitions,
//! * [`trace`] — structured execution traces (node firings, mode switches,
//!   invariant violations) used by the experiment harness and tests,
//! * [`jitter`] — the stochastic i.i.d. scheduling-jitter model that delays
//!   node firings, used to reproduce the scheduling-starvation crashes
//!   reported in the paper's stress campaign (Sec. V-D),
//! * [`schedule`] — deterministic, per-node jitter *schedules* behind the
//!   [`schedule::ScheduleSampler`] trait the executor consults per firing:
//!   bursts, targeted node starvation (the paper's exact crash class),
//!   phase-locked windows and exact replayable recordings, searched over by
//!   the falsification engine in `soter-scenarios`,
//! * [`explore`] — a bounded-asynchrony systematic-testing engine in the
//!   style of the P/DRONA backend the paper builds on: it enumerates firing
//!   orders of simultaneously enabled nodes and checks a safety predicate on
//!   every reached configuration.
//!
//! ```
//! use soter_core::prelude::*;
//! use soter_runtime::executor::Executor;
//!
//! let mut sys = RtaSystem::new("demo");
//! sys.add_node(
//!     FnNode::builder("ticker")
//!         .publishes(["tick"])
//!         .period(Duration::from_millis(100))
//!         .step(|now, _, out| { out.insert("tick", Value::Float(now.as_secs_f64())); })
//!         .build(),
//! ).unwrap();
//! let mut exec = Executor::new(sys);
//! exec.run_until(Time::from_millis(500));
//! assert!(exec.topics().get("tick").is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod executor;
pub mod explore;
pub mod jitter;
pub mod schedule;
pub mod trace;

pub use executor::{EnvironmentModel, Executor, ExecutorConfig};
pub use explore::{ExplorationReport, SystematicTester};
pub use jitter::JitterModel;
pub use schedule::{delta_slack, JitterSchedule, RecordedDelay, RecordedSchedule, ScheduleSampler};
pub use trace::{Trace, TraceEvent, TraceHasher};
