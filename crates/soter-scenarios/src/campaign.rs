//! Campaign fan-out: run a scenario × seed matrix on a work-stealing
//! thread pool, streaming per-run records as they complete.
//!
//! A [`Campaign`] is a matrix of scenarios and seeds.  Jobs are dealt
//! round-robin into one deque per worker; a worker pops its own deque from
//! the front and, when empty, *steals* from the back of a peer's deque, so
//! a worker stuck on one long airspace run cannot strand the jobs dealt
//! behind it (static chunking would).  Because each job is an independent,
//! seed-deterministic simulation, the per-run results are identical
//! whatever the schedule:
//!
//! * [`Campaign::run`] returns a [`CampaignReport`] whose records are
//!   always in matrix order — an 8-worker campaign is byte-for-byte
//!   comparable with a sequential one (pinned by `tests/campaign.rs`,
//!   fleets included),
//! * [`Campaign::stream`] returns an iterator yielding records in
//!   *completion* order through a bounded channel, so a 10k-run campaign
//!   holds only O(workers + channel capacity) records in memory at a time;
//!   each record carries its matrix index for deterministic reassembly.
//!   Dropping the stream early cancels all outstanding work.

use crate::cache::{scenario_fingerprint, ResultCache};
use crate::runner::{run_scenario_cached, ScenarioOutcome};
use crate::spec::Scenario;
use serde::{Deserialize, Serialize};
use soter_plan::cache::PlanCache;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A scenario × seed matrix with a worker count.
///
/// ```
/// use soter_scenarios::campaign::Campaign;
/// use soter_scenarios::spec::{MissionSpec, Scenario};
///
/// let scenario = Scenario::new("doc").with_mission(MissionSpec::PlannerQueries {
///     queries: 2,
///     bug_probability: 0.0,
/// });
/// let report = Campaign::new(vec![scenario])
///     .with_seeds([1, 2])
///     .with_workers(2)
///     .run();
/// assert_eq!(report.runs(), 2);
/// assert_eq!(report.records[0].seed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    workers: usize,
    channel_capacity: Option<usize>,
    plan_cache: Option<Arc<PlanCache>>,
    result_cache: Option<Arc<ResultCache>>,
}

impl Campaign {
    /// A campaign over the given scenarios, each run once with its own
    /// built-in seed, on one worker.
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Campaign {
            scenarios,
            seeds: Vec::new(),
            workers: 1,
            channel_capacity: None,
            plan_cache: None,
            result_cache: None,
        }
    }

    /// Fans every scenario out across the given seeds (replacing each
    /// scenario's built-in seed).  An empty slice restores built-in seeds.
    pub fn with_seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = seeds.into();
        self
    }

    /// Sets the number of worker threads (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the bound of the streaming channel (default: twice the
    /// worker count).  Smaller bounds trade throughput for a tighter peak
    /// record buffer; the bound is what keeps 10k-run campaigns in bounded
    /// memory when the consumer is slower than the workers.
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = Some(capacity.max(1));
        self
    }

    /// Shares one planner-query cache across every run of the campaign
    /// (see `soter_plan::cache`).  The cache replays exact query
    /// histories, so records — digests included — are byte-identical with
    /// or without it; the win is that seeds repeating the same RRT*/A*
    /// queries stop paying per-run replanning.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Shares a content-addressed [`ResultCache`] across runs: jobs whose
    /// fingerprint (resolved spec + seed + filter + engine salt, see
    /// `crate::cache`) is already cached return the stored record without
    /// simulating, and fresh records are inserted for the next campaign.
    /// Because every run is seed-deterministic, a hit is byte-identical to
    /// re-running the job — the same guarantee the golden suite pins.
    pub fn with_result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.result_cache = Some(cache);
        self
    }

    /// The fully expanded job list, in deterministic matrix order
    /// (scenario-major, then seed).
    pub fn jobs(&self) -> Vec<Scenario> {
        if self.seeds.is_empty() {
            self.scenarios.clone()
        } else {
            self.scenarios
                .iter()
                .flat_map(|s| self.seeds.iter().map(|&seed| s.clone().with_seed(seed)))
                .collect()
        }
    }

    /// Runs every job and aggregates a [`CampaignReport`] with records in
    /// matrix order (independent of the worker count and schedule).
    ///
    /// # Panics
    ///
    /// If a job panicked, the original panic is re-raised here as
    /// `campaign worker panicked at job #i (\`name\`): message` — always
    /// from the recorded panic message, never masked by the missing-slot
    /// unwrap below.
    pub fn run(&self) -> CampaignReport {
        let started = Instant::now();
        let mut stream = self.stream();
        let total = stream.progress().total();
        let mut slots: Vec<Option<RunRecord>> = (0..total).map(|_| None).collect();
        for item in stream.by_ref() {
            slots[item.index] = Some(item.record);
        }
        // Deterministic re-raise: if any worker recorded a panic, surface
        // it *before* touching the slots.  A panicking job cancels the
        // campaign, so other slots are legitimately empty — unwrapping one
        // of those first would die with "every job was claimed and
        // completed" and mask the root cause.
        stream.reraise_worker_panic();
        let records = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|| {
                    panic!(
                        "campaign job #{index} never completed \
                         (a worker thread died without recording a panic)"
                    )
                })
            })
            .collect();
        CampaignReport {
            records,
            workers: self.workers.max(1),
            wall_clock: started.elapsed().as_secs_f64(),
        }
    }

    /// Starts the campaign on the worker pool and returns a stream of
    /// per-run records in *completion* order.  The channel between workers
    /// and consumer is bounded, so the peak number of buffered records is
    /// O(workers + capacity) however large the campaign; dropping the
    /// stream before exhaustion cancels all not-yet-started jobs and joins
    /// the workers.
    pub fn stream(&self) -> CampaignStream {
        let jobs = Arc::new(self.jobs());
        // Degenerate campaigns (no scenarios, or scenarios × no jobs) must
        // terminate cleanly rather than wait on workers that have nothing
        // to do: spawn no threads and hand back an already-closed channel,
        // so the stream drains to an empty report immediately.
        if jobs.is_empty() {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            drop(tx);
            return CampaignStream {
                rx: Some(rx),
                cancel: Arc::new(AtomicBool::new(false)),
                panic_slot: Arc::new(Mutex::new(None)),
                handles: Vec::new(),
                progress: CampaignProgress {
                    executed: Arc::new(AtomicUsize::new(0)),
                    buffered: Arc::new(AtomicUsize::new(0)),
                    peak_buffered: Arc::new(AtomicUsize::new(0)),
                    total: 0,
                },
            };
        }
        // `with_workers` clamps to ≥ 1 at the setter; clamp again here so
        // the worker count can never reach 0 (a zero step would panic the
        // round-robin deal below) and never exceeds the job count.
        let workers = self.workers.clamp(1, jobs.len());
        let capacity = self.channel_capacity.unwrap_or(2 * workers);
        let queues: Arc<Vec<Mutex<VecDeque<usize>>>> = Arc::new(
            (0..workers)
                .map(|w| Mutex::new((w..jobs.len()).step_by(workers).collect()))
                .collect(),
        );
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        let cancel = Arc::new(AtomicBool::new(false));
        let panic_slot: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let progress = CampaignProgress {
            executed: Arc::new(AtomicUsize::new(0)),
            buffered: Arc::new(AtomicUsize::new(0)),
            peak_buffered: Arc::new(AtomicUsize::new(0)),
            total: jobs.len(),
        };
        let handles = (0..workers)
            .map(|w| {
                let jobs = Arc::clone(&jobs);
                let queues = Arc::clone(&queues);
                let tx = tx.clone();
                let cancel = Arc::clone(&cancel);
                let panic_slot = Arc::clone(&panic_slot);
                let progress = progress.clone();
                let cache = self.plan_cache.clone();
                let results = self.result_cache.clone();
                std::thread::spawn(move || {
                    worker_loop(
                        w,
                        &jobs,
                        &queues,
                        &tx,
                        &cancel,
                        &panic_slot,
                        &progress,
                        cache.as_ref(),
                        results.as_ref(),
                    )
                })
            })
            .collect();
        drop(tx);
        CampaignStream {
            rx: Some(rx),
            cancel,
            panic_slot,
            handles,
            progress,
        }
    }
}

/// Runs one job: a result-cache hit skips simulation entirely; a miss runs
/// the scenario and is inserted for the next campaign.
fn run_job(
    job: &Scenario,
    cache: Option<&Arc<PlanCache>>,
    result_cache: Option<&Arc<ResultCache>>,
) -> RunRecord {
    let Some(rc) = result_cache else {
        return RunRecord::from_outcome(&run_scenario_cached(job, cache));
    };
    let fingerprint = scenario_fingerprint(job);
    if let Some(record) = rc.lookup(fingerprint) {
        return record;
    }
    let record = RunRecord::from_outcome(&run_scenario_cached(job, cache));
    rc.insert(fingerprint, &record);
    record
}

/// One worker: drain the own deque front-to-back, then steal from peers
/// back-to-front, one job at a time, stopping as soon as the consumer went
/// away.  A panic in a job is caught, recorded in `panic_slot` and
/// re-raised on the consumer's side when the stream drains (workers are
/// detached threads, so an unobserved panic would otherwise silently
/// truncate the stream).
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    own: usize,
    jobs: &[Scenario],
    queues: &[Mutex<VecDeque<usize>>],
    tx: &SyncSender<CampaignRecord>,
    cancel: &AtomicBool,
    panic_slot: &Mutex<Option<String>>,
    progress: &CampaignProgress,
    cache: Option<&Arc<PlanCache>>,
    result_cache: Option<&Arc<ResultCache>>,
) {
    // The front of the own deque first, else the back of the first peer
    // deque that has a job.
    let next_job = || -> Option<usize> {
        if let Some(index) = queues[own].lock().expect("queue lock").pop_front() {
            return Some(index);
        }
        (1..queues.len()).find_map(|offset| {
            let victim = (own + offset) % queues.len();
            queues[victim].lock().expect("queue lock").pop_back()
        })
    };
    while !cancel.load(Ordering::Relaxed) {
        let Some(index) = next_job() else {
            break;
        };
        let record = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(&jobs[index], cache, result_cache)
        }));
        let record = match record {
            Ok(record) => record,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic payload".into());
                let mut slot = panic_slot.lock().expect("panic slot lock");
                slot.get_or_insert(format!("job #{index} (`{}`): {message}", jobs[index].name));
                cancel.store(true, Ordering::Relaxed);
                break;
            }
        };
        progress.executed.fetch_add(1, Ordering::Relaxed);
        let buffered = progress.buffered.fetch_add(1, Ordering::Relaxed) + 1;
        progress
            .peak_buffered
            .fetch_max(buffered, Ordering::Relaxed);
        if tx.send(CampaignRecord { index, record }).is_err() {
            // The consumer dropped the stream: the record was never
            // buffered, so roll the accounting back before cancelling
            // everyone — otherwise `buffered` leaks one count per worker
            // on every cancellation.
            progress.buffered.fetch_sub(1, Ordering::Relaxed);
            cancel.store(true, Ordering::Relaxed);
            break;
        }
    }
}

/// A record streamed out of a running campaign, tagged with its position
/// in the deterministic matrix order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRecord {
    /// Index of the job in [`Campaign::jobs`] order.
    pub index: usize,
    /// The run's record.
    pub record: RunRecord,
}

/// A cloneable live view of a streaming campaign's progress.
#[derive(Debug, Clone)]
pub struct CampaignProgress {
    executed: Arc<AtomicUsize>,
    buffered: Arc<AtomicUsize>,
    peak_buffered: Arc<AtomicUsize>,
    total: usize,
}

impl CampaignProgress {
    /// Jobs fully executed so far (whether or not consumed yet).
    pub fn executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }

    /// Records currently buffered between the workers and the consumer.
    ///
    /// Every buffered record is eventually accounted back out — consumed
    /// through the stream, discarded by the stream's `Drop`, or rolled back
    /// when a send fails — so this returns to 0 once the stream is drained
    /// *or* dropped mid-campaign (pinned by
    /// `buffered_accounting_returns_to_zero_after_a_dropped_stream`).
    pub fn buffered(&self) -> usize {
        self.buffered.load(Ordering::Relaxed)
    }

    /// The highest number of records ever buffered between the workers and
    /// the consumer — bounded by `workers + channel capacity + 1` however
    /// long the campaign runs (each worker holds at most one record while
    /// blocked on the channel, and the consumer's bookkeeping lags one
    /// receive behind).
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered.load(Ordering::Relaxed)
    }

    /// Total number of jobs in the campaign.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// The streaming side of a running campaign: an iterator over
/// [`CampaignRecord`]s in completion order.  Dropping it cancels all
/// outstanding work and joins the worker threads.
pub struct CampaignStream {
    rx: Option<Receiver<CampaignRecord>>,
    cancel: Arc<AtomicBool>,
    panic_slot: Arc<Mutex<Option<String>>>,
    handles: Vec<JoinHandle<()>>,
    progress: CampaignProgress,
}

impl CampaignStream {
    /// A cloneable progress handle (live even after the stream is dropped).
    pub fn progress(&self) -> CampaignProgress {
        self.progress.clone()
    }

    /// Re-raises a worker panic recorded while the campaign ran, naming
    /// the offending job (`job #i (\`name\`): message`).  A no-op when no
    /// worker panicked.  The iterator re-raises automatically when the
    /// stream drains; callers that reassemble records afterwards (like
    /// [`Campaign::run`]) call this again before unwrapping, so a
    /// cancelled campaign's missing records can never mask the panic.
    pub fn reraise_worker_panic(&self) {
        if let Some(message) = self.panic_slot.lock().expect("panic slot lock").take() {
            panic!("campaign worker panicked at {message}");
        }
    }
}

impl Iterator for CampaignStream {
    type Item = CampaignRecord;

    /// Yields the next completed record.  When the channel drains because
    /// a worker *panicked* (rather than because the campaign finished),
    /// the panic is re-raised here so a truncated campaign can never be
    /// mistaken for a complete one.
    fn next(&mut self) -> Option<CampaignRecord> {
        match self.rx.as_ref()?.recv() {
            Ok(item) => {
                self.progress.buffered.fetch_sub(1, Ordering::Relaxed);
                Some(item)
            }
            Err(_) => {
                self.reraise_worker_panic();
                None
            }
        }
    }
}

impl Drop for CampaignStream {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
        // Drain (rather than just close) the channel: unblocks any worker
        // waiting on a full buffer, and accounts every already-buffered
        // record back out of `buffered`, which must return to 0 on
        // cancellation instead of leaking the in-flight records.  Workers
        // see the cancel flag before claiming another job, so this
        // terminates as soon as in-flight jobs finish.
        if let Some(rx) = self.rx.take() {
            for _ in rx.iter() {
                self.progress.buffered.fetch_sub(1, Ordering::Relaxed);
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The compact, fully deterministic result of one campaign run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Behavioural digest of the run (see
    /// [`ScenarioOutcome::digest`](crate::runner::ScenarioOutcome)).
    pub digest: u64,
    /// φ_safe violations observed.
    pub safety_violations: usize,
    /// φ_sep violation episodes (0 for single-drone scenarios).
    pub separation_violations: usize,
    /// Theorem 3.1 invariant-monitor violations.
    pub invariant_violations: usize,
    /// RTA mode switches (see `ScenarioOutcome::mode_switches`).
    pub mode_switches: usize,
    /// Surveillance targets / circuit waypoints reached.
    pub targets_reached: usize,
    /// Whether the mission objective completed within the horizon.
    pub completed: bool,
    /// Safety-filter interventions (AC→SC disengagements plus ASIF command
    /// clips) of the motion-primitive modules — RTAEval's intervention
    /// count (see [`ScenarioOutcome::interventions`]).
    pub interventions: usize,
    /// Milliseconds spent under safe control by the motion-primitive
    /// modules — RTAEval's conservatism metric, in whole milliseconds so
    /// the golden text format stays integer-only.
    pub time_in_sc_ms: u64,
}

impl RunRecord {
    /// Summarises a scenario outcome (dropping the heavyweight
    /// trajectories).
    pub fn from_outcome(outcome: &ScenarioOutcome) -> Self {
        RunRecord {
            scenario: outcome.scenario.clone(),
            seed: outcome.seed,
            digest: outcome.digest,
            safety_violations: outcome.safety_violations,
            separation_violations: outcome.separation_violations,
            invariant_violations: outcome.invariant_violations,
            mode_switches: outcome.mode_switches,
            targets_reached: outcome.targets_reached(),
            completed: outcome.completed,
            interventions: outcome.interventions,
            time_in_sc_ms: outcome.time_in_sc.as_micros() / 1_000,
        }
    }
}

/// Per-scenario aggregate statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioStats {
    /// Scenario name.
    pub scenario: String,
    /// Number of (seed) runs aggregated.
    pub runs: usize,
    /// Total φ_safe violations across runs.
    pub safety_violations: usize,
    /// Total φ_sep violation episodes across runs.
    pub separation_violations: usize,
    /// Total invariant-monitor violations across runs.
    pub invariant_violations: usize,
    /// Total mode switches across runs.
    pub mode_switches: usize,
    /// Mean mode switches per run.
    pub mean_mode_switches: f64,
    /// Runs whose mission objective completed.
    pub completed_runs: usize,
}

/// The aggregated result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One record per job, in deterministic matrix order.
    pub records: Vec<RunRecord>,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the campaign (seconds).
    pub wall_clock: f64,
}

impl CampaignReport {
    /// Total number of runs.
    pub fn runs(&self) -> usize {
        self.records.len()
    }

    /// Wall-clock throughput in runs per second.
    pub fn runs_per_second(&self) -> f64 {
        if self.wall_clock > 0.0 {
            self.records.len() as f64 / self.wall_clock
        } else {
            0.0
        }
    }

    /// Total φ_safe violations across every run.
    pub fn total_safety_violations(&self) -> usize {
        self.records.iter().map(|r| r.safety_violations).sum()
    }

    /// Total φ_sep violation episodes across every run.
    pub fn total_separation_violations(&self) -> usize {
        self.records.iter().map(|r| r.separation_violations).sum()
    }

    /// Total invariant-monitor violations across every run.
    pub fn total_invariant_violations(&self) -> usize {
        self.records.iter().map(|r| r.invariant_violations).sum()
    }

    /// Per-scenario aggregates, in first-appearance order.
    ///
    /// Aggregation is O(runs) — scenario names are resolved through a hash
    /// index instead of a linear scan of the stats table, so wide
    /// campaigns (many scenarios × many seeds) do not degrade to
    /// O(runs × scenarios).  First-appearance order of the records is
    /// preserved (pinned by `per_scenario_preserves_first_appearance_order`).
    pub fn per_scenario(&self) -> Vec<ScenarioStats> {
        let mut stats: Vec<ScenarioStats> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for record in &self.records {
            let slot = match index.get(record.scenario.as_str()) {
                Some(&slot) => slot,
                None => {
                    stats.push(ScenarioStats {
                        scenario: record.scenario.clone(),
                        runs: 0,
                        safety_violations: 0,
                        separation_violations: 0,
                        invariant_violations: 0,
                        mode_switches: 0,
                        mean_mode_switches: 0.0,
                        completed_runs: 0,
                    });
                    index.insert(record.scenario.as_str(), stats.len() - 1);
                    stats.len() - 1
                }
            };
            let entry = &mut stats[slot];
            entry.runs += 1;
            entry.safety_violations += record.safety_violations;
            entry.separation_violations += record.separation_violations;
            entry.invariant_violations += record.invariant_violations;
            entry.mode_switches += record.mode_switches;
            entry.completed_runs += record.completed as usize;
        }
        for entry in &mut stats {
            entry.mean_mode_switches = entry.mode_switches as f64 / entry.runs.max(1) as f64;
        }
        stats
    }

    /// A human-readable summary table (what the CI campaign-smoke job
    /// uploads as a build artifact).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} runs on {} workers",
            self.runs(),
            self.workers
        );
        let _ = writeln!(
            out,
            "wall clock: {:.2} s ({:.1} runs/s)",
            self.wall_clock,
            self.runs_per_second()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "scenario", "runs", "phi-viol", "sep-viol", "inv-viol", "switches", "completed"
        );
        for s in self.per_scenario() {
            let _ = writeln!(
                out,
                "{:<26} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
                s.scenario,
                s.runs,
                s.safety_violations,
                s.separation_violations,
                s.invariant_violations,
                s.mode_switches,
                s.completed_runs
            );
        }
        let _ = writeln!(
            out,
            "total: {} phi_safe violations, {} phi_sep violations, {} invariant violations",
            self.total_safety_violations(),
            self.total_separation_violations(),
            self.total_invariant_violations()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MissionSpec, WorkspaceSpec};

    fn tiny_scenario(name: &str) -> Scenario {
        Scenario::new(name)
            .with_workspace(WorkspaceSpec::CornerCutCourse)
            .with_mission(MissionSpec::CircuitLap)
            .with_horizon(10.0)
    }

    /// A near-instant job (planner queries with an empty query budget) for
    /// scheduling-focused tests.
    fn instant_scenario(name: &str) -> Scenario {
        Scenario::new(name).with_mission(MissionSpec::PlannerQueries {
            queries: 0,
            bug_probability: 0.0,
        })
    }

    #[test]
    fn jobs_expand_in_matrix_order() {
        let campaign =
            Campaign::new(vec![tiny_scenario("a"), tiny_scenario("b")]).with_seeds([1, 2, 3]);
        let jobs = campaign.jobs();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[2].seed, 3);
        assert_eq!(jobs[3].name, "b");
        assert_eq!(jobs[3].seed, 1);
    }

    #[test]
    fn empty_seed_list_keeps_built_in_seeds() {
        let campaign = Campaign::new(vec![tiny_scenario("a").with_seed(42)]);
        let jobs = campaign.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].seed, 42);
    }

    #[test]
    fn report_aggregates_per_scenario() {
        let record = |scenario: &str, seed: u64, violations: usize, completed: bool| RunRecord {
            scenario: scenario.into(),
            seed,
            digest: seed,
            safety_violations: violations,
            separation_violations: 1,
            invariant_violations: 0,
            mode_switches: 2,
            targets_reached: 4,
            completed,
            interventions: 3,
            time_in_sc_ms: 500,
        };
        let report = CampaignReport {
            records: vec![
                record("a", 1, 0, true),
                record("a", 2, 1, false),
                record("b", 1, 0, true),
            ],
            workers: 4,
            wall_clock: 2.0,
        };
        assert_eq!(report.runs(), 3);
        assert_eq!(report.runs_per_second(), 1.5);
        assert_eq!(report.total_safety_violations(), 1);
        assert_eq!(report.total_separation_violations(), 3);
        let stats = report.per_scenario();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].scenario, "a");
        assert_eq!(stats[0].runs, 2);
        assert_eq!(stats[0].safety_violations, 1);
        assert_eq!(stats[0].separation_violations, 2);
        assert_eq!(stats[0].completed_runs, 1);
        assert_eq!(stats[0].mean_mode_switches, 2.0);
        let summary = report.summary();
        assert!(summary.contains("3 runs on 4 workers"));
        assert!(summary.contains("sep-viol"));
    }

    #[test]
    fn workers_are_clamped_to_one() {
        let campaign = Campaign::new(vec![tiny_scenario("a")]).with_workers(0);
        assert_eq!(campaign.workers, 1);
    }

    /// Regression test for the per-scenario aggregation rewrite: records
    /// interleaved across many scenarios must aggregate into stats in
    /// *first-appearance* order (the order the summary table prints), with
    /// every record attributed to the right row — the hash-indexed
    /// aggregation must be observationally identical to the old linear
    /// scan, just O(runs) instead of O(runs × scenarios).
    #[test]
    fn per_scenario_preserves_first_appearance_order() {
        let record = |scenario: &str, switches: usize| RunRecord {
            scenario: scenario.into(),
            seed: 0,
            digest: 0,
            safety_violations: 0,
            separation_violations: 0,
            invariant_violations: 0,
            mode_switches: switches,
            targets_reached: 0,
            completed: true,
            interventions: 0,
            time_in_sc_ms: 0,
        };
        // First appearances: z, m, a — deliberately not sorted, and
        // revisited out of order.
        let report = CampaignReport {
            records: vec![
                record("z", 1),
                record("m", 2),
                record("a", 3),
                record("m", 4),
                record("z", 5),
                record("a", 6),
                record("z", 7),
            ],
            workers: 1,
            wall_clock: 1.0,
        };
        let stats = report.per_scenario();
        let order: Vec<&str> = stats.iter().map(|s| s.scenario.as_str()).collect();
        assert_eq!(order, vec!["z", "m", "a"], "first-appearance order");
        assert_eq!(stats[0].runs, 3);
        assert_eq!(stats[0].mode_switches, 1 + 5 + 7);
        assert_eq!(stats[1].runs, 2);
        assert_eq!(stats[1].mode_switches, 2 + 4);
        assert_eq!(stats[2].runs, 2);
        assert_eq!(stats[2].mode_switches, 3 + 6);
        // A wide synthetic campaign exercises the indexed path at scale.
        let wide = CampaignReport {
            records: (0..512)
                .flat_map(|i| {
                    let name = format!("s{i:03}");
                    [record(&name, i), record(&name, i)]
                })
                .collect(),
            workers: 1,
            wall_clock: 1.0,
        };
        let stats = wide.per_scenario();
        assert_eq!(stats.len(), 512);
        assert!(stats.iter().all(|s| s.runs == 2));
        assert_eq!(stats[0].scenario, "s000");
        assert_eq!(stats[511].scenario, "s511");
    }

    /// A shared result cache is purely a memoization layer: the warm
    /// repeat must reproduce the cold records byte for byte with every job
    /// answered from the cache, and it must compose with the planner
    /// cache.
    #[test]
    fn result_cache_warm_repeat_is_byte_identical_and_all_hits() {
        let scenarios = vec![tiny_scenario("warm"), tiny_scenario("warm-b").with_seed(9)];
        let cache = Arc::new(crate::cache::ResultCache::new(64));
        let campaign = Campaign::new(scenarios)
            .with_seeds([1, 2, 3])
            .with_workers(2)
            .with_plan_cache(Arc::new(soter_plan::cache::PlanCache::new()))
            .with_result_cache(Arc::clone(&cache));
        let cold = campaign.run();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 6);
        let warm = campaign.run();
        assert_eq!(cold.records, warm.records, "a hit must be byte-identical");
        assert_eq!(cache.hits(), 6, "the warm pass answers fully from cache");
        assert_eq!(cache.misses(), 6, "no new simulation on the warm pass");
    }

    #[test]
    fn small_campaign_runs_deterministically_across_worker_counts() {
        let scenarios = vec![tiny_scenario("det")];
        let sequential = Campaign::new(scenarios.clone())
            .with_seeds([1, 2])
            .with_workers(1)
            .run();
        let parallel = Campaign::new(scenarios)
            .with_seeds([1, 2])
            .with_workers(4)
            .run();
        assert_eq!(sequential.records, parallel.records);
    }

    #[test]
    fn stream_yields_every_job_exactly_once_with_indices() {
        let campaign = Campaign::new(vec![instant_scenario("s")])
            .with_seeds((1..=40).collect::<Vec<u64>>())
            .with_workers(4);
        let stream = campaign.stream();
        let progress = stream.progress();
        assert_eq!(progress.total(), 40);
        let mut seen: Vec<usize> = stream.map(|r| r.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<usize>>());
        assert_eq!(progress.executed(), 40);
    }

    #[test]
    #[should_panic(expected = "campaign worker panicked")]
    fn worker_panics_propagate_to_the_consumer() {
        // A fleet spec on a non-circuit mission panics inside run_scenario;
        // the campaign must re-raise that instead of yielding a silently
        // truncated (and seemingly clean) record stream.
        let poisoned = Scenario::new("poisoned")
            .with_mission(MissionSpec::PlannerQueries {
                queries: 0,
                bug_probability: 0.0,
            })
            .with_fleet(crate::spec::FleetSpec::new(
                2,
                crate::spec::FleetLayout::Crossing,
            ));
        let _ = Campaign::new(vec![instant_scenario("fine"), poisoned])
            .with_workers(2)
            .run();
    }

    /// Regression test for the buffered-counter leak: incrementing
    /// `buffered` before `tx.send` meant a failed send (consumer dropped
    /// the stream) left the counter permanently raised — `buffered` and
    /// `peak_buffered` over-reported on every cancellation.  After the
    /// fix, every buffered record is accounted back out (consumed,
    /// discarded by Drop, or rolled back on send failure), so the counter
    /// returns to exactly 0 once the stream is dropped.
    #[test]
    fn buffered_accounting_returns_to_zero_after_a_dropped_stream() {
        let workers = 4;
        let capacity = 2;
        let campaign = Campaign::new(vec![instant_scenario("acct")])
            .with_seeds((0..200).collect::<Vec<u64>>())
            .with_workers(workers)
            .with_channel_capacity(capacity);
        let mut stream = campaign.stream();
        let progress = stream.progress();
        // Consume a few records, then drop mid-campaign with workers
        // blocked on the full channel.
        let taken: Vec<_> = stream.by_ref().take(3).collect();
        assert_eq!(taken.len(), 3);
        drop(stream); // cancels, drains, joins
        assert_eq!(
            progress.buffered(),
            0,
            "cancellation must not leak buffered-record accounting"
        );
        assert!(
            progress.peak_buffered() <= workers + capacity + 1,
            "peak {} exceeds workers + capacity + 1",
            progress.peak_buffered()
        );
        // A fully drained stream also lands on 0.
        let drained = campaign.stream();
        let drained_progress = drained.progress();
        assert_eq!(drained.count(), 200);
        assert_eq!(drained_progress.buffered(), 0);
    }

    /// Regression test for the panic-masking path: a job panic cancels the
    /// campaign, which legitimately leaves other matrix slots empty; the
    /// drain in `run` must re-raise the *original* `job #i (\`name\`)`
    /// message from the panic slot rather than dying on a missing-slot
    /// unwrap.  Four workers, one poisoned job in the middle of the
    /// matrix.
    #[test]
    fn panic_reraise_names_the_poisoned_job_under_four_workers() {
        // A fleet spec on a non-circuit mission panics inside run_scenario.
        let poisoned = instant_scenario("poisoned-job").with_fleet(crate::spec::FleetSpec::new(
            2,
            crate::spec::FleetLayout::Crossing,
        ));
        let mut scenarios: Vec<Scenario> = (0..8)
            .map(|i| instant_scenario(&format!("ok{i}")))
            .collect();
        scenarios.insert(5, poisoned);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Campaign::new(scenarios).with_workers(4).run()
        }));
        let Err(payload) = result else {
            panic!("the poisoned campaign must panic");
        };
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into());
        assert!(
            message.contains("campaign worker panicked"),
            "unexpected panic: {message}"
        );
        assert!(
            message.contains("job #5") && message.contains("poisoned-job"),
            "the re-raised panic must name the poisoned job: {message}"
        );
    }

    #[test]
    fn work_stealing_drains_queues_regardless_of_skew() {
        // 1 long job + many instant jobs, 2 workers: round-robin dealing
        // gives worker 0 the long job and half the instant ones; worker 1
        // must steal the rest of worker 0's deque while it is busy.
        let mut scenarios = vec![tiny_scenario("long")];
        scenarios.extend((0..15).map(|i| instant_scenario(&format!("quick{i}"))));
        let report = Campaign::new(scenarios).with_workers(2).run();
        assert_eq!(report.runs(), 16);
        // Determinism across schedules, long job or not.
        let report2 = {
            let mut scenarios = vec![tiny_scenario("long")];
            scenarios.extend((0..15).map(|i| instant_scenario(&format!("quick{i}"))));
            Campaign::new(scenarios).with_workers(5).run()
        };
        assert_eq!(report.records, report2.records);
    }
}
