//! The per-layer ledger of a traced run: every per-layer metric by name,
//! the tracing overhead, the digest proof, and the closure check.

use crate::layers::{Layers, ReachCall, REACH_CALLS};
use crate::probes::ProbeCosts;
use crate::stacks::{CellTrace, DmCounts};
use crate::stats::Report;
use soter_core::rta::FilterKind;
use std::sync::Arc;

/// Closure below this share of traced wall-clock is flagged unexplained.
const CLOSURE_FLOOR: f64 = 0.90;

/// Everything a traced run measured.
pub struct Ledger {
    /// Spans of the traced cell replays.
    pub layers: Arc<Layers>,
    /// Complete replays of the workload's cells; counts are per replay.
    pub passes: u64,
    /// Traced cells.
    pub cells: u64,
    /// Traced cells whose digest and event count equal the untraced run's.
    pub digests_equal: u64,
    /// Summed untraced wall-clock of the traced cells.
    pub untraced_s: f64,
    /// Summed traced wall-clock of the traced cells.
    pub traced_s: f64,
    /// Decision-module counts of the traced cells.
    pub dm: DmCounts,
    /// φ_safe violation episodes over the workload's records.
    pub phi_violations: u64,
    /// φ_sep violation episodes over the workload's records.
    pub sep_violations: u64,
    /// New plan-store entries reported by the daemon (`serve` only).
    pub plan_entries: u64,
    /// Jobs moved by work stealing (`serve` only).
    pub stolen: u64,
    /// Result-cache hit ratio observed on the workload's own path, when
    /// it has one (`serve`); otherwise the probe cache's.
    pub cache_hit_ratio: Option<f64>,
    /// Direct-call probe costs.
    pub probes: ProbeCosts,
    /// Work the traced run cannot reach through a public seam.
    pub not_reached: Vec<&'static str>,
}

impl Ledger {
    /// An empty ledger over fresh counters.
    pub fn new() -> Self {
        Ledger {
            layers: Layers::new(),
            passes: 0,
            cells: 0,
            digests_equal: 0,
            untraced_s: 0.0,
            traced_s: 0.0,
            dm: DmCounts::default(),
            phi_violations: 0,
            sep_violations: 0,
            plan_entries: 0,
            stolen: 0,
            cache_hit_ratio: None,
            probes: ProbeCosts::default(),
            not_reached: Vec::new(),
        }
    }

    /// Accounts one traced cell.
    pub fn add_cell(&mut self, trace: &CellTrace) {
        self.cells += 1;
        self.digests_equal += u64::from(trace.digest_equal);
        self.untraced_s += trace.untraced_s;
        self.traced_s += trace.traced_s;
        self.dm.add(&trace.dm);
    }

    /// Prints the ledger and adds every per-layer metric to `report`.
    pub fn emit(&self, workload: &str, report: &mut Report) {
        let l = &self.layers;
        let firings = l.firings.load(std::sync::atomic::Ordering::Relaxed);
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let passes = self.passes.max(1);
        let count = |n: u64| (n / passes) as f64;
        let mut row = |name: &str, value: f64, unit: &'static str| {
            println!("layer {name} = {value:.4} {unit}");
            report.metric(name, value, unit);
        };

        // Executor: step_instant self time is dispatch + DM bookkeeping.
        row("runtime.firings", count(firings), "count");
        row(
            "runtime.dispatch_ns_per_firing",
            per(l.step.ns(), firings),
            "ns",
        );
        row(
            "runtime.compile_us_per_run",
            per(l.compile.ns(), l.compile.calls()) / 1e3,
            "us",
        );

        for (f, filter) in FilterKind::ALL.iter().enumerate() {
            let slug = filter.slug();
            row(
                &format!("core.dm.decisions.{slug}"),
                count(self.dm.decisions[f]),
                "count",
            );
            row(
                &format!("core.dm.switches.{slug}"),
                count(self.dm.switches[f]),
                "count",
            );
            row(
                &format!("core.dm.interventions.{slug}"),
                count(self.dm.interventions[f]),
                "count",
            );
            row(
                &format!("core.dm.time_in_sc_ms.{slug}"),
                count(self.dm.time_in_sc_ms[f]),
                "sim_ms",
            );
        }

        let (reach_calls, reach_ns) = l.reach_total();
        row("reach.calls", count(reach_calls), "count");
        row("reach.ns_per_call", per(reach_ns, reach_calls), "ns");
        for (call, key) in [
            (ReachCall::MayLeave, "may_leave"),
            (ReachCall::IsSafe, "is_safe"),
            (ReachCall::CommandMayLeave, "command_may_leave"),
            (ReachCall::ProjectCommand, "project_command"),
        ] {
            let (calls, ns) = (0..3).fold((0, 0), |(c, n), f| {
                let k = &l.reach[f][call as usize];
                (c + k.calls(), n + k.ns())
            });
            row(&format!("reach.{key}.calls"), count(calls), "count");
            // Only the implicit filter calls `command_may_leave_safe`, so
            // its time is a detail line: on other workloads it has no calls.
            if matches!(call, ReachCall::CommandMayLeave) {
                println!("detail reach.{key}.ns_per_call = {:.1} ns", per(ns, calls));
            } else {
                row(&format!("reach.{key}.ns_per_call"), per(ns, calls), "ns");
            }
        }
        for (f, filter) in FilterKind::ALL.iter().enumerate() {
            for (c, name) in REACH_CALLS.iter().enumerate() {
                let k = &l.reach[f][c];
                match k.ns_per_call() {
                    Some(ns) => println!(
                        "detail reach {name} under {}: {} calls, {ns:.1} ns/call",
                        filter.slug(),
                        count(k.calls())
                    ),
                    None => println!("detail reach {name} under {}: 0 calls", filter.slug()),
                }
            }
        }

        let (hits, misses) = (l.plan_hit.calls(), l.plan_miss.calls());
        let queries = hits + misses;
        row("plan.queries", count(queries), "count");
        row("plan.hits", count(hits), "count");
        row("plan.misses", count(misses), "count");
        row("plan.hit_ratio", per(hits, queries), "ratio");
        row(
            "plan.us_per_query",
            per(l.plan_hit.ns() + l.plan_miss.ns(), queries) / 1e3,
            "us",
        );
        for (label, k) in [("plan.hit_us", &l.plan_hit), ("plan.miss_us", &l.plan_miss)] {
            match k.ns_per_call() {
                Some(ns) => println!(
                    "detail {label} = {:.3} us ({} queries)",
                    ns / 1e3,
                    count(k.calls())
                ),
                None => println!("detail {label} = n/a (0 queries)"),
            }
        }

        row("sim.plant_steps", count(l.plant.calls()), "count");
        row(
            "sim.plant_ns_per_step",
            per(l.plant.ns(), l.plant.calls()),
            "ns",
        );
        row("drone.node_firings", count(l.nodes.calls()), "count");
        row(
            "drone.node_ns_per_firing",
            per(l.nodes.ns(), l.nodes.calls()),
            "ns",
        );

        let p = &self.probes;
        row(
            "scenarios.build_us_per_run",
            per(l.build.ns(), l.build.calls()) / 1e3,
            "us",
        );
        row("scenarios.record_render_ns", p.render_ns, "ns");
        row("scenarios.record_parse_ns", p.parse_ns, "ns");
        row("scenarios.fingerprint_ns", p.fingerprint_ns, "ns");
        row(
            "scenarios.phi_violations",
            self.phi_violations as f64,
            "count",
        );
        row(
            "scenarios.sep_violations",
            self.sep_violations as f64,
            "count",
        );

        row("cache.lookup_ns", p.lookup_ns, "ns");
        row("cache.insert_ns", p.insert_ns, "ns");
        row(
            "cache.hit_ratio",
            self.cache_hit_ratio.unwrap_or(p.hit_ratio),
            "ratio",
        );
        row("cache.segment_bytes", p.segment_bytes as f64, "bytes");
        row("cache.segment_load_ms", p.segment_load_ms, "ms");

        row("serve.spawn_ms", p.spawn_ms, "ms");
        row("serve.wire_ns_per_frame", p.wire_ns_per_frame, "ns");
        row(
            "serve.wire_bytes_per_record",
            p.wire_bytes_per_record,
            "bytes",
        );
        row("serve.request_parse_ns", p.request_parse_ns, "ns");
        row("serve.plan_entries", self.plan_entries as f64, "count");
        row("serve.stolen", self.stolen as f64, "count");
        row("serve.accept_wait_ms", p.accept_wait_ms, "ms");

        // Tracing proof, overhead and closure.
        let overhead = (self.traced_s - self.untraced_s) / passes as f64;
        let closure = if self.traced_s > 0.0 {
            l.self_ns() as f64 / 1e9 / self.traced_s
        } else {
            0.0
        };
        row("trace.cells", count(self.cells), "count");
        row("trace.digests_equal", count(self.digests_equal), "count");
        row("trace.overhead_s", overhead, "s");
        row("trace.closure_pct", closure * 100.0, "%");
        println!(
            "tracing: {} passes, {} cells, {} digests equal; untraced {:.4} s, traced {:.4} s; \
             overhead {overhead:.4} s per pass ({:+.1}%)",
            self.passes,
            self.cells,
            self.digests_equal,
            self.untraced_s,
            self.traced_s,
            100.0 * (self.traced_s - self.untraced_s) / self.untraced_s.max(1e-9)
        );
        let shares = [
            ("executor dispatch + DM", l.step.ns()),
            ("system compile", l.compile.ns()),
            ("workspace + stack build", l.build.ns()),
            ("plant", l.plant.ns()),
            ("nodes", l.nodes.ns()),
            ("planner", l.plan_hit.ns() + l.plan_miss.ns()),
            ("reach (oracles)", reach_ns),
        ];
        for (name, ns) in shares {
            println!(
                "closure {workload}: {name} {:.1}% of traced wall-clock",
                100.0 * ns as f64 / 1e9 / self.traced_s.max(1e-9)
            );
        }
        let verdict = if closure >= CLOSURE_FLOOR {
            "explained"
        } else {
            "UNEXPLAINED (below 90%)"
        };
        println!(
            "closure {workload}: layer rows account for {:.1}% of traced wall-clock: {verdict}",
            closure * 100.0
        );
        for what in &self.not_reached {
            println!("not reached from outside: {what}");
        }
        for (layer, moves, still) in PREDICTIONS {
            println!("prediction {layer}: should move {moves}; should not move {still}");
        }
    }
}

/// Which end-to-end metric a faster layer should move, and where it
/// should not (`campaign.runs_per_s` is `throughput` on `campaign`, and
/// so on).
const PREDICTIONS: [(&str, &str, &str); 9] = [
    (
        "executor (runtime.*)",
        "campaign.runs_per_s on campaign",
        "serve.warm_ms on serve",
    ),
    (
        "decision module (core.dm.*)",
        "nothing by itself: explains filter-variant cost on campaign",
        "-",
    ),
    (
        "reach (reach.*)",
        "campaign.runs_per_s (implicit/ASIF cells); falsify.search_s (ASIF search)",
        "serve.* on serve",
    ),
    (
        "planner (plan.*)",
        "falsify.search_s and falsify.schedules_per_s; serve.cold_s",
        "campaign.runs_per_s (a single planning cell)",
    ),
    (
        "plant (sim.*)",
        "campaign.runs_per_s on campaign",
        "serve.warm_ms on serve",
    ),
    (
        "nodes (drone.*)",
        "campaign.runs_per_s on campaign",
        "serve.warm_ms on serve",
    ),
    (
        "runner and records (scenarios.*)",
        "campaign.runs_per_s (short cells); serve.warm_ms",
        "-",
    ),
    (
        "result cache (cache.*)",
        "serve.warm_ms, serve.mixed_s, serve.restart_ms",
        "campaign.* and falsify.*",
    ),
    (
        "wire and daemon (serve.*)",
        "serve.cold_s (spawn, wire); serve.warm_ms (parse, render)",
        "campaign.*",
    ),
];
