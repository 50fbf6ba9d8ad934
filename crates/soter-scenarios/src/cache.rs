//! Content-addressed campaign result cache.
//!
//! A campaign cell is fully determined by its resolved [`Scenario`] value
//! (which embeds the seed and safety filter): re-running it reproduces the
//! same [`RunRecord`] byte for byte — that determinism is what the golden
//! suite pins.  [`ResultCache`] exploits it: records are stored under a
//! [`ScenarioFingerprint`] content hash of the resolved spec, so repeated
//! campaign requests (the daemon's bread and butter: the same comparison
//! matrix re-swept after an unrelated change) answer from memory instead
//! of re-simulating.
//!
//! # Content addressing and invalidation
//!
//! The fingerprint is a 128-bit **structural** hash of the fully-resolved
//! spec fields plus an engine-version salt ([`ENGINE_VERSION`]).  The walk
//! destructures [`Scenario`] and every nested spec type exhaustively (no
//! `..` in a pattern, no `_` match arm), so adding a field or a variant
//! anywhere fails to compile until the walk covers it.  Each field becomes
//! 64-bit words: strings and `Vec`s length-prefixed, `f64`s by `to_bits`,
//! enums as a variant tag followed by their fields, `Option`s as a 0/1
//! tag.  That word stream is a prefix-free encoding of the spec, so two
//! specs produce the same stream exactly when their `Debug` renderings are
//! equal (NaNs aside: distinct NaN payloads miss, they never alias).
//!
//! The words feed two independent 64-bit lanes — a word-wise FNV-1a and a
//! splitmix64 chain, each from its own seed — packed into one `u128`.  The
//! cache keys on all 128 bits, so serving another cell's record takes a
//! simultaneous collision in both lanes.
//!
//! * Editing any spec field — a workspace bound, the seed, the filter, a
//!   jitter window — changes the hash, so stale entries are unreachable
//!   rather than invalidated by bookkeeping.
//! * Bumping [`ENGINE_VERSION`] (the releasing change: executor, physics
//!   or record semantics changed behaviour, or the key format changed)
//!   orphans every old entry at once.
//! * The catalog is *not* consulted: a scenario hashed today and the same
//!   scenario reconstructed from a request tomorrow produce the same key,
//!   whether or not a catalog entry still points at them.  The `name`
//!   field does participate — not as a registry key, but because the run
//!   digest folds the name into the trace hash, so a renamed alias of an
//!   identical spec legitimately produces different record *bytes* and
//!   must not share an entry.
//!
//! # Storage
//!
//! In memory the cache is a bounded LRU.  Optionally it is backed by an
//! append-only on-disk **segment**: each insert appends one framed entry
//! (a `CACHE 0x<32 hex digits>` header, the record in golden text format,
//! an `END` terminator) in a single write, and a daemon restart replays
//! the segment to start warm.  Loading is tolerant exactly where appending
//! can tear: a torn final entry truncates the tail, and a corrupt entry in
//! the middle (a 64-bit header from an older engine, a hand edit the
//! parser rejects) is skipped — validated by the same strict
//! [`record_from_text`] parser the golden suite and the shard wire
//! protocol use.  Entries carry no checksum, so a corruption that still
//! parses (one flipped digit in a count) loads as written.

use crate::campaign::RunRecord;
use crate::golden::{record_from_text, record_to_text};
use crate::spec::{
    splitmix64, FleetLayout, FleetOverride, FleetSpec, JitterSpec, MissionSpec, Scenario,
    TargetPolicySpec, WorkspaceSpec,
};
use soter_core::rta::FilterKind;
use soter_core::time::{Duration, Time};
use soter_drone::stack::{AdvancedKind, FaultSpec, Protection};
use soter_runtime::jitter::JitterModel;
use soter_runtime::schedule::{JitterSchedule, RecordedDelay, RecordedSchedule};
use soter_sim::battery::BatteryModel;
use soter_sim::vec3::Vec3;
use soter_sim::wind::WindModel;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The engine-version salt folded into every fingerprint.  Bump it when a
/// behaviour-affecting engine change (executor scheduling, plant physics,
/// oracle semantics, record fields) makes previously-cached records stale
/// for unchanged specs — the golden suite catches exactly these changes,
/// so "the goldens needed re-blessing" is the signal to bump, and
/// `tests/golden_pin.rs` fails a re-bless that forgets to.  Version 2 is
/// the 128-bit structural key.
pub const ENGINE_VERSION: u64 = 2;

/// Content hash of one fully-resolved campaign cell (spec, seed, filter
/// and engine salt): two 64-bit lanes, the FNV-1a lane in the high half.
/// Display renders the `{:#034x}` form used by the disk segment and
/// hit/miss reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioFingerprint(pub u128);

impl fmt::Display for ScenarioFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#034x}", self.0)
    }
}

/// Fingerprints a scenario under the current [`ENGINE_VERSION`].
pub fn scenario_fingerprint(scenario: &Scenario) -> ScenarioFingerprint {
    fingerprint_with_salt(scenario, ENGINE_VERSION)
}

/// Fingerprints a scenario under an explicit engine salt — exposed so
/// tests can prove a salt bump misses; production code uses
/// [`scenario_fingerprint`].
pub fn fingerprint_with_salt(scenario: &Scenario, salt: u64) -> ScenarioFingerprint {
    let mut lanes = Lanes {
        fnv: 0xcbf2_9ce4_8422_2325,
        mix: 0x243f_6a88_85a3_08d3,
    };
    salt.feed(&mut lanes);
    scenario.feed(&mut lanes);
    ScenarioFingerprint((u128::from(lanes.fnv) << 64) | u128::from(lanes.mix))
}

/// The two hash lanes of a fingerprint.
struct Lanes {
    fnv: u64,
    mix: u64,
}

impl Lanes {
    fn word(&mut self, w: u64) {
        // Word-wise FNV-1a; the xor-shift folds high product bits down so
        // a flipped high input bit cannot cancel against a later one.
        let fnv = (self.fnv ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.fnv = fnv ^ (fnv >> 32);
        self.mix = splitmix64(self.mix ^ w);
    }
}

/// A spec value written into the fingerprint lanes as 64-bit words; an
/// enum writes its variant index, then the variant's fields.
trait Feed {
    fn feed(&self, lanes: &mut Lanes);
}

impl Feed for u64 {
    fn feed(&self, lanes: &mut Lanes) {
        lanes.word(*self);
    }
}

impl Feed for usize {
    fn feed(&self, lanes: &mut Lanes) {
        lanes.word(*self as u64);
    }
}

impl Feed for i64 {
    fn feed(&self, lanes: &mut Lanes) {
        lanes.word(*self as u64);
    }
}

impl Feed for bool {
    fn feed(&self, lanes: &mut Lanes) {
        lanes.word(u64::from(*self));
    }
}

impl Feed for f64 {
    fn feed(&self, lanes: &mut Lanes) {
        lanes.word(self.to_bits());
    }
}

impl Feed for str {
    fn feed(&self, lanes: &mut Lanes) {
        let bytes = self.as_bytes();
        bytes.len().feed(lanes);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            lanes.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            lanes.word(u64::from_le_bytes(last));
        }
    }
}

impl<T: Feed> Feed for [T] {
    fn feed(&self, lanes: &mut Lanes) {
        self.len().feed(lanes);
        for item in self {
            item.feed(lanes);
        }
    }
}

impl<T: Feed> Feed for Option<T> {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            None => lanes.word(0),
            Some(value) => {
                lanes.word(1);
                value.feed(lanes);
            }
        }
    }
}

impl<A: Feed, B: Feed> Feed for (A, B) {
    fn feed(&self, lanes: &mut Lanes) {
        self.0.feed(lanes);
        self.1.feed(lanes);
    }
}

impl Feed for Vec3 {
    fn feed(&self, lanes: &mut Lanes) {
        let Vec3 { x, y, z } = self;
        x.feed(lanes);
        y.feed(lanes);
        z.feed(lanes);
    }
}

impl Feed for Duration {
    fn feed(&self, lanes: &mut Lanes) {
        self.as_micros().feed(lanes);
    }
}

impl Feed for Time {
    fn feed(&self, lanes: &mut Lanes) {
        self.as_micros().feed(lanes);
    }
}

impl Feed for Scenario {
    fn feed(&self, lanes: &mut Lanes) {
        let Scenario {
            name,
            workspace,
            mission,
            protection,
            advanced,
            wind,
            battery_model,
            initial_battery,
            buggy_planner,
            jitter,
            horizon,
            delta_mpr,
            delta_bat,
            delta_plan,
            safer_factor,
            filter,
            fleet,
            start,
            seed,
        } = self;
        name.feed(lanes);
        workspace.feed(lanes);
        mission.feed(lanes);
        protection.feed(lanes);
        advanced.feed(lanes);
        wind.feed(lanes);
        battery_model.feed(lanes);
        initial_battery.feed(lanes);
        buggy_planner.feed(lanes);
        jitter.feed(lanes);
        horizon.feed(lanes);
        delta_mpr.feed(lanes);
        delta_bat.feed(lanes);
        delta_plan.feed(lanes);
        safer_factor.feed(lanes);
        filter.feed(lanes);
        fleet.feed(lanes);
        start.feed(lanes);
        seed.feed(lanes);
    }
}

impl Feed for WorkspaceSpec {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            WorkspaceSpec::CornerCutCourse => lanes.word(0),
            WorkspaceSpec::CityBlock => lanes.word(1),
            WorkspaceSpec::ContestedCorridor => lanes.word(2),
            WorkspaceSpec::Custom {
                bounds,
                obstacles,
                robot_radius,
                surveillance_points,
            } => {
                lanes.word(3);
                bounds.feed(lanes);
                obstacles.feed(lanes);
                robot_radius.feed(lanes);
                surveillance_points.feed(lanes);
            }
        }
    }
}

impl Feed for MissionSpec {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            MissionSpec::CircuitLoop => lanes.word(0),
            MissionSpec::CircuitLap => lanes.word(1),
            MissionSpec::Surveillance { policy, targets } => {
                lanes.word(2);
                policy.feed(lanes);
                targets.feed(lanes);
            }
            MissionSpec::PlannerQueries {
                queries,
                bug_probability,
            } => {
                lanes.word(3);
                queries.feed(lanes);
                bug_probability.feed(lanes);
            }
        }
    }
}

impl Feed for TargetPolicySpec {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            TargetPolicySpec::RoundRobin => lanes.word(0),
            TargetPolicySpec::Random => lanes.word(1),
        }
    }
}

impl Feed for Protection {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            Protection::AcOnly => lanes.word(0),
            Protection::ScOnly => lanes.word(1),
            Protection::Rta => lanes.word(2),
        }
    }
}

impl Feed for AdvancedKind {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            AdvancedKind::Px4Like => lanes.word(0),
            AdvancedKind::Learned { seed } => {
                lanes.word(1);
                seed.feed(lanes);
            }
            AdvancedKind::Faulted { fault, seed } => {
                lanes.word(2);
                fault.feed(lanes);
                seed.feed(lanes);
            }
            AdvancedKind::Vm { asm } => {
                lanes.word(3);
                asm.feed(lanes);
            }
        }
    }
}

impl Feed for FaultSpec {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            FaultSpec::None => lanes.word(0),
            FaultSpec::Bias { bias } => {
                lanes.word(1);
                bias.feed(lanes);
            }
            FaultSpec::StuckOutput {
                from_step,
                duration,
                value,
            } => {
                lanes.word(2);
                from_step.feed(lanes);
                duration.feed(lanes);
                value.feed(lanes);
            }
            FaultSpec::RandomSpike {
                probability,
                magnitude,
            } => {
                lanes.word(3);
                probability.feed(lanes);
                magnitude.feed(lanes);
            }
        }
    }
}

impl Feed for WindModel {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            WindModel::Calm => lanes.word(0),
            WindModel::Constant { acceleration } => {
                lanes.word(1);
                acceleration.feed(lanes);
            }
            WindModel::Gusty { magnitude } => {
                lanes.word(2);
                magnitude.feed(lanes);
            }
        }
    }
}

impl Feed for BatteryModel {
    fn feed(&self, lanes: &mut Lanes) {
        let BatteryModel {
            idle_rate,
            accel_rate,
            max_acceleration,
            landing_cost_per_meter,
        } = self;
        idle_rate.feed(lanes);
        accel_rate.feed(lanes);
        max_acceleration.feed(lanes);
        landing_cost_per_meter.feed(lanes);
    }
}

impl Feed for JitterSpec {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            JitterSpec::None => lanes.word(0),
            JitterSpec::Iid {
                probability,
                max_delay,
            } => {
                lanes.word(1);
                probability.feed(lanes);
                max_delay.feed(lanes);
            }
            JitterSpec::Schedule(schedule) => {
                lanes.word(2);
                schedule.feed(lanes);
            }
        }
    }
}

impl Feed for JitterSchedule {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            JitterSchedule::Ideal => lanes.word(0),
            JitterSchedule::Iid(model) => {
                lanes.word(1);
                let JitterModel {
                    probability,
                    max_delay,
                    seed,
                } = model;
                probability.feed(lanes);
                max_delay.feed(lanes);
                seed.feed(lanes);
            }
            JitterSchedule::Burst {
                start,
                width,
                delay,
            } => {
                lanes.word(2);
                start.feed(lanes);
                width.feed(lanes);
                delay.feed(lanes);
            }
            JitterSchedule::TargetedNode {
                node,
                start,
                width,
                delay,
            } => {
                lanes.word(3);
                node.feed(lanes);
                start.feed(lanes);
                width.feed(lanes);
                delay.feed(lanes);
            }
            JitterSchedule::PhaseLocked {
                period,
                offset,
                width,
                delay,
            } => {
                lanes.word(4);
                period.feed(lanes);
                offset.feed(lanes);
                width.feed(lanes);
                delay.feed(lanes);
            }
            JitterSchedule::Recorded(RecordedSchedule { delays }) => {
                lanes.word(5);
                delays.feed(lanes);
            }
        }
    }
}

impl Feed for RecordedDelay {
    fn feed(&self, lanes: &mut Lanes) {
        let RecordedDelay {
            node,
            firing,
            delay,
        } = self;
        node.feed(lanes);
        firing.feed(lanes);
        delay.feed(lanes);
    }
}

impl Feed for FilterKind {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            FilterKind::ExplicitSimplex => lanes.word(0),
            FilterKind::ImplicitSimplex => lanes.word(1),
            FilterKind::Asif => lanes.word(2),
        }
    }
}

impl Feed for FleetSpec {
    fn feed(&self, lanes: &mut Lanes) {
        let FleetSpec {
            drones,
            layout,
            separation_radius,
            yield_margin,
            overrides,
        } = self;
        drones.feed(lanes);
        layout.feed(lanes);
        separation_radius.feed(lanes);
        yield_margin.feed(lanes);
        overrides.feed(lanes);
    }
}

impl Feed for FleetLayout {
    fn feed(&self, lanes: &mut Lanes) {
        match self {
            FleetLayout::Crossing => lanes.word(0),
            FleetLayout::Convoy => lanes.word(1),
            FleetLayout::Corridor => lanes.word(2),
        }
    }
}

impl Feed for FleetOverride {
    fn feed(&self, lanes: &mut Lanes) {
        let FleetOverride {
            drone,
            protection,
            advanced,
        } = self;
        drone.feed(lanes);
        protection.feed(lanes);
        advanced.feed(lanes);
    }
}

struct Slot {
    record: RunRecord,
    stamp: u64,
}

struct LruInner {
    map: HashMap<u128, Slot>,
    /// `stamp -> fingerprint`, oldest first; stamps are unique (a single
    /// monotonically-increasing clock), so eviction pops the first entry.
    order: BTreeMap<u64, u128>,
    clock: u64,
}

impl LruInner {
    fn touch(&mut self, fingerprint: u128) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(slot) = self.map.get_mut(&fingerprint) {
            self.order.remove(&slot.stamp);
            slot.stamp = stamp;
            self.order.insert(stamp, fingerprint);
        }
    }
}

/// How a segment load went; see [`ResultCache::segment_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Entries loaded into the LRU.
    pub loaded: usize,
    /// Corrupt mid-segment entries skipped (strict-parser rejects).
    pub skipped: usize,
    /// Whether a torn final entry was truncated away.
    pub truncated: bool,
}

/// A bounded, optionally disk-backed result cache (see the module docs).
/// Shared by `Arc`: all methods take `&self`.
pub struct ResultCache {
    inner: Mutex<LruInner>,
    segment: Mutex<Option<File>>,
    segment_path: Option<PathBuf>,
    segment_stats: SegmentStats,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("segment", &self.segment_path)
            .finish()
    }
}

impl ResultCache {
    /// An in-memory cache holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
            }),
            segment: Mutex::new(None),
            segment_path: None,
            segment_stats: SegmentStats::default(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache backed by the append-only segment at `path`: existing
    /// entries are replayed into the LRU (tolerantly — see the module
    /// docs), a torn tail is truncated in place, and every future insert
    /// is appended.  Errors are real I/O failures (unreadable file,
    /// uncreatable parent), never corrupt content.
    pub fn with_segment(capacity: usize, path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut cache = ResultCache::new(capacity);
        let mut stats = SegmentStats::default();
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            let load = parse_segment(&text);
            stats.skipped = load.skipped;
            if let Some(keep) = load.truncate_at {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(keep as u64)?;
                stats.truncated = true;
            }
            for (fingerprint, record) in load.entries {
                cache.insert_in_memory(fingerprint, record);
                stats.loaded += 1;
            }
        } else if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        cache.segment = Mutex::new(Some(file));
        cache.segment_path = Some(path);
        cache.segment_stats = stats;
        Ok(cache)
    }

    /// Records answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (and presumably went on to simulate).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records currently held in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("result cache lock").map.len()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How the segment load went (all zeros for an in-memory cache).
    pub fn segment_stats(&self) -> SegmentStats {
        self.segment_stats
    }

    /// Looks up a record by all 128 bits of its fingerprint.  Hit and
    /// miss counters feed campaign reports; a hit also refreshes the
    /// entry's LRU position.
    pub fn lookup(&self, fingerprint: ScenarioFingerprint) -> Option<RunRecord> {
        let mut inner = self.inner.lock().expect("result cache lock");
        match inner.map.get(&fingerprint.0) {
            Some(slot) => {
                let record = slot.record.clone();
                inner.touch(fingerprint.0);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(record)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly-computed record, appending it to the segment if
    /// one is attached.  Re-inserting an existing fingerprint refreshes
    /// its LRU position without duplicating the disk entry.
    pub fn insert(&self, fingerprint: ScenarioFingerprint, record: &RunRecord) {
        if !self.insert_in_memory(fingerprint.0, record.clone()) {
            return;
        }
        let mut segment = self.segment.lock().expect("result cache segment lock");
        if let Some(file) = segment.as_mut() {
            // One write per entry: a crash mid-write tears at most the
            // final entry, which the loader truncates away.
            let framed = format!("CACHE {fingerprint}\n{}END\n", record_to_text(record));
            let _ = file.write_all(framed.as_bytes());
            let _ = file.flush();
        }
    }

    /// Returns whether the fingerprint was new.
    fn insert_in_memory(&self, fingerprint: u128, record: RunRecord) -> bool {
        let mut inner = self.inner.lock().expect("result cache lock");
        if inner.map.contains_key(&fingerprint) {
            inner.touch(fingerprint);
            return false;
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(fingerprint, Slot { record, stamp });
        inner.order.insert(stamp, fingerprint);
        while inner.map.len() > self.capacity {
            let (&oldest, &victim) = inner
                .order
                .iter()
                .next()
                .expect("order tracks every map entry");
            inner.order.remove(&oldest);
            inner.map.remove(&victim);
        }
        true
    }
}

struct SegmentLoad {
    entries: Vec<(u128, RunRecord)>,
    skipped: usize,
    /// Byte offset to truncate the file to, if the tail entry is torn.
    truncate_at: Option<usize>,
}

/// Splits off the next line (newline excluded); returns `None` for a
/// trailing fragment with no newline — a torn write, not a line.
fn next_line<'a>(text: &'a str, pos: &mut usize) -> Option<&'a str> {
    let rest = &text[*pos..];
    let end = rest.find('\n')?;
    *pos += end + 1;
    Some(&rest[..end])
}

/// The fingerprint of a `CACHE 0x<32 hex digits>` frame header.  Any
/// other width (an old 16-digit key) or a stray sign is not a header.
fn parse_header(line: &str) -> Option<u128> {
    let hex = line.strip_prefix("CACHE 0x")?;
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(hex, 16).ok()
}

fn parse_segment(text: &str) -> SegmentLoad {
    let mut load = SegmentLoad {
        entries: Vec::new(),
        skipped: 0,
        truncate_at: None,
    };
    let mut pos = 0usize;
    while pos < text.len() {
        let entry_start = pos;
        let Some(header) = next_line(text, &mut pos) else {
            // Torn header line at EOF.
            load.truncate_at = Some(entry_start);
            break;
        };
        let Some(fingerprint) = parse_header(header) else {
            // Junk where a header should be (including a 64-bit header
            // from an older engine): drop it and resync at the next
            // header line.
            load.skipped += 1;
            loop {
                let probe = pos;
                match next_line(text, &mut pos) {
                    Some(line) if line.starts_with("CACHE 0x") => {
                        pos = probe;
                        break;
                    }
                    Some(_) => continue,
                    None => {
                        pos = text.len();
                        break;
                    }
                }
            }
            continue;
        };
        let mut body = String::new();
        let terminated = loop {
            match next_line(text, &mut pos) {
                Some("END") => break true,
                Some(line) => {
                    body.push_str(line);
                    body.push('\n');
                }
                None => break false,
            }
        };
        if !terminated {
            // The tail entry never reached its END: a torn append.
            load.truncate_at = Some(entry_start);
            break;
        }
        match record_from_text(&body) {
            Ok(record) => load.entries.push((fingerprint, record)),
            Err(_) => load.skipped += 1,
        }
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn record(name: &str, seed: u64) -> RunRecord {
        RunRecord {
            scenario: name.to_string(),
            seed,
            digest: 0xabcd_0000 + seed,
            safety_violations: 0,
            separation_violations: 0,
            invariant_violations: 0,
            mode_switches: 2,
            targets_reached: 3,
            completed: true,
            interventions: 1,
            time_in_sc_ms: 1500,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let base = catalog::golden_suite()
            .into_iter()
            .next()
            .expect("the golden suite is never empty");
        let fp = scenario_fingerprint(&base);
        assert_eq!(fp, scenario_fingerprint(&base.clone()), "deterministic");

        // Every one-field edit must miss: the cache may never serve a
        // record computed under different physics, seed or filter.
        let edits: Vec<(&str, Scenario)> = vec![
            ("seed", base.clone().with_seed(base.seed + 1)),
            ("horizon", {
                let mut s = base.clone();
                s.horizon += 1.0;
                s
            }),
            ("initial_battery", {
                let mut s = base.clone();
                s.initial_battery *= 0.5;
                s
            }),
            ("buggy_planner", {
                let mut s = base.clone();
                s.buggy_planner = !s.buggy_planner;
                s
            }),
        ];
        for (what, edited) in edits {
            assert_ne!(
                fp,
                scenario_fingerprint(&edited),
                "editing `{what}` must change the fingerprint"
            );
        }

        // An engine-salt bump orphans every entry.
        assert_ne!(
            fingerprint_with_salt(&base, ENGINE_VERSION),
            fingerprint_with_salt(&base, ENGINE_VERSION + 1)
        );
        assert_eq!(fp, fingerprint_with_salt(&base, ENGINE_VERSION));
    }

    /// A falsifier-style random schedule over small value sets, so the
    /// corpus holds both near misses and exact repeats.
    fn sample_schedule(rng: &mut SmallRng) -> JitterSchedule {
        let nodes = ["mpr_sc", "safe_motion_primitive_dm"];
        let node = |rng: &mut SmallRng| nodes[rng.random_range(0..nodes.len())].to_string();
        let ms = |rng: &mut SmallRng, choices: &[u64]| choices[rng.random_range(0..choices.len())];
        let start = Time::from_millis(ms(rng, &[0, 500, 1_000]));
        let width = Duration::from_millis(ms(rng, &[1_000, 2_000]));
        let delay = Duration::from_millis(ms(rng, &[100, 600]));
        match rng.random_range(0..3u32) {
            0 => JitterSchedule::TargetedNode {
                node: node(rng),
                start,
                width,
                delay,
            },
            1 => JitterSchedule::Burst {
                start,
                width,
                delay,
            },
            _ => JitterSchedule::Recorded(RecordedSchedule::new(
                (0..rng.random_range(0..3usize))
                    .map(|_| RecordedDelay {
                        node: node(rng),
                        firing: rng.random_range(0..3u64),
                        delay: Duration::from_millis(ms(rng, &[0, 100, 600])),
                    })
                    .collect(),
            )),
        }
    }

    /// One base cell with every variant of every spec enum swapped in,
    /// one position at a time, with all-zero payloads: the stream must
    /// keep variants apart by their tags alone.
    fn variant_sweep() -> Vec<Scenario> {
        let base = catalog::airspace_corridor(2, 0, 10.0).with_name("cell");
        let (zero, d0, t0) = (Vec3::ZERO, Duration::ZERO, Time::ZERO);
        let mut out = Vec::new();
        for workspace in [
            WorkspaceSpec::CornerCutCourse,
            WorkspaceSpec::CityBlock,
            WorkspaceSpec::ContestedCorridor,
            WorkspaceSpec::Custom {
                bounds: (zero, zero),
                obstacles: vec![],
                robot_radius: 0.0,
                surveillance_points: vec![],
            },
        ] {
            out.push(base.clone().with_workspace(workspace));
        }
        for mission in [
            MissionSpec::CircuitLoop,
            MissionSpec::CircuitLap,
            MissionSpec::Surveillance {
                policy: TargetPolicySpec::RoundRobin,
                targets: None,
            },
            MissionSpec::Surveillance {
                policy: TargetPolicySpec::Random,
                targets: None,
            },
            MissionSpec::Surveillance {
                policy: TargetPolicySpec::RoundRobin,
                targets: Some(0),
            },
            MissionSpec::PlannerQueries {
                queries: 0,
                bug_probability: 0.0,
            },
        ] {
            out.push(base.clone().with_mission(mission));
        }
        for protection in [Protection::AcOnly, Protection::ScOnly, Protection::Rta] {
            out.push(base.clone().with_protection(protection));
        }
        let faults = [
            FaultSpec::None,
            FaultSpec::Bias { bias: [0.0; 3] },
            FaultSpec::StuckOutput {
                from_step: 0,
                duration: 0,
                value: [0.0; 3],
            },
            FaultSpec::RandomSpike {
                probability: 0.0,
                magnitude: 0.0,
            },
        ];
        let advanced = [
            AdvancedKind::Px4Like,
            AdvancedKind::Learned { seed: 0 },
            AdvancedKind::Vm { asm: "".into() },
        ];
        let faulted = faults.map(|fault| AdvancedKind::Faulted { fault, seed: 0 });
        for advanced in advanced.into_iter().chain(faulted) {
            out.push(base.clone().with_advanced(advanced));
        }
        for wind in [
            WindModel::Calm,
            WindModel::Constant { acceleration: zero },
            WindModel::Gusty { magnitude: 0.0 },
        ] {
            out.push(base.clone().with_wind(wind));
        }
        let targeted = |node: &str| JitterSchedule::TargetedNode {
            node: node.into(),
            start: t0,
            width: d0,
            delay: d0,
        };
        let recorded = |node: &str| {
            JitterSchedule::Recorded(RecordedSchedule::new(vec![RecordedDelay {
                node: node.into(),
                firing: 0,
                delay: d0,
            }]))
        };
        let schedules = [
            JitterSchedule::Ideal,
            JitterSchedule::Iid(JitterModel {
                probability: 0.0,
                max_delay: d0,
                seed: 0,
            }),
            JitterSchedule::Burst {
                start: t0,
                width: d0,
                delay: d0,
            },
            targeted(""),
            targeted("a"),
            targeted("a\0"),
            JitterSchedule::PhaseLocked {
                period: d0,
                offset: d0,
                width: d0,
                delay: d0,
            },
            JitterSchedule::Recorded(RecordedSchedule::default()),
            recorded(""),
            recorded("a\0"),
        ];
        out.push(base.clone().with_jitter(JitterSpec::None));
        out.push(base.clone().with_jitter(JitterSpec::iid(0.0, d0)));
        for schedule in schedules {
            out.push(base.clone().with_jitter(JitterSpec::Schedule(schedule)));
        }
        let fleet = base.fleet.clone().expect("an airspace base");
        for layout in [
            FleetLayout::Crossing,
            FleetLayout::Convoy,
            FleetLayout::Corridor,
        ] {
            let mut variant = base.clone();
            variant.fleet = Some(FleetSpec {
                layout,
                ..fleet.clone()
            });
            out.push(variant);
        }
        for (protection, advanced) in [
            (None, None),
            (Some(Protection::AcOnly), None),
            (None, Some(AdvancedKind::Px4Like)),
        ] {
            out.push(
                base.clone()
                    .with_fleet(fleet.clone().with_override(FleetOverride {
                        drone: 0,
                        protection,
                        advanced,
                    })),
            );
        }
        let mut single = base.clone();
        single.fleet = None;
        out.push(single);
        out.push(base.clone().with_start(zero));
        out
    }

    /// The structural walk against the `Debug` rendering it replaced: over
    /// the corpus, two scenarios share a fingerprint exactly when they
    /// share a `Debug` rendering.
    #[test]
    fn structural_fingerprint_agrees_with_debug_equality() {
        let mut corpus = Vec::new();
        for cell in catalog::registry() {
            // Renamed copies drop the name's help: only the other fields
            // can tell these cells apart.
            for cell in [cell.clone(), cell.with_name("cell")] {
                for seed in 0..8 {
                    for filter in FilterKind::ALL {
                        corpus.push(cell.clone().with_seed(seed).with_filter(filter));
                    }
                }
            }
        }
        corpus.extend(variant_sweep());
        let base = catalog::sc_starvation();
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for _ in 0..256 {
            let schedule = sample_schedule(&mut rng);
            corpus.push(base.clone().with_jitter(JitterSpec::Schedule(schedule)));
        }
        for zero in [0.0, -0.0] {
            corpus.push(base.clone().with_horizon(zero));
            corpus.push(base.clone().with_safer_factor(zero));
            corpus.push(base.clone().with_start(Vec3::new(zero, 1.0, 2.0)));
            corpus.push(base.clone().with_wind(WindModel::Constant {
                acceleration: Vec3::new(0.0, zero, 0.0),
            }));
        }
        // Custom geometry: the same boxes in another order, or one box
        // split across the bounds/obstacle boundary, are different specs.
        let a = (Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        let b = (Vec3::new(2.0, 2.0, 0.0), Vec3::new(3.0, 3.0, 1.0));
        for obstacles in [vec![a, b], vec![b, a], vec![a], vec![]] {
            corpus.push(base.clone().with_workspace(WorkspaceSpec::Custom {
                bounds: (Vec3::ZERO, Vec3::new(9.0, 9.0, 3.0)),
                obstacles,
                robot_radius: 0.25,
                surveillance_points: vec![Vec3::new(5.0, 5.0, 1.0)],
            }));
        }

        let mut by_debug: HashMap<String, ScenarioFingerprint> = HashMap::new();
        // Each lane on its own must also separate the corpus, so neither
        // rides on the other.
        let mut by_lane: [HashMap<u64, String>; 2] = Default::default();
        let mut repeats = 0;
        for scenario in &corpus {
            let debug = format!("{scenario:?}");
            let fp = scenario_fingerprint(scenario);
            if let Some(previous) = by_debug.insert(debug.clone(), fp) {
                assert_eq!(previous, fp, "Debug-equal specs split: {debug}");
                repeats += 1;
                continue;
            }
            let lanes = [(fp.0 >> 64) as u64, fp.0 as u64];
            for (map, lane) in by_lane.iter_mut().zip(lanes) {
                if let Some(previous) = map.insert(lane, debug.clone()) {
                    panic!("{fp} collides in lane {lane:#x}:\n{previous}\n{debug}");
                }
            }
        }
        assert!(repeats > 0, "the corpus must exercise equal specs too");
        assert!(by_debug.len() > 700, "the corpus must be mostly distinct");
    }

    #[test]
    fn fingerprints_render_as_32_hex_digits() {
        assert_eq!(
            ScenarioFingerprint(0xab).to_string(),
            "0x000000000000000000000000000000ab"
        );
        let fp = scenario_fingerprint(&catalog::serve_smoke());
        assert_eq!(parse_header(&format!("CACHE {fp}")), Some(fp.0));
        for bad in [
            "CACHE 0x00000000000000ab",
            "CACHE 0x+0000000000000000000000000000ab",
            "CACHE 0x000000000000000000000000000000ab0",
            "CACHE ab",
        ] {
            assert_eq!(parse_header(bad), None, "{bad}");
        }
    }

    #[test]
    fn lru_evicts_oldest_and_refreshes_on_hit() {
        let cache = ResultCache::new(2);
        let fps: Vec<_> = (0..3).map(ScenarioFingerprint).collect();
        cache.insert(fps[0], &record("a", 0));
        cache.insert(fps[1], &record("b", 1));
        // Touch the older entry so the *other* one is evicted.
        assert!(cache.lookup(fps[0]).is_some());
        cache.insert(fps[2], &record("c", 2));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fps[0]).is_some(), "refreshed entry survives");
        assert!(cache.lookup(fps[1]).is_none(), "LRU victim evicted");
        assert!(cache.lookup(fps[2]).is_some());
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn segment_round_trips_and_survives_restart() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "round-trip"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        let fp = ScenarioFingerprint(0x1234_5678_9abc_def0);
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            cache.insert(fp, &record("fig12b", 7));
            cache.insert(fp, &record("fig12b", 7)); // refresh, no duplicate
        }
        let reborn = ResultCache::with_segment(16, &path).expect("reload segment");
        assert_eq!(
            reborn.segment_stats(),
            SegmentStats {
                loaded: 1,
                skipped: 0,
                truncated: false
            }
        );
        assert_eq!(reborn.lookup(fp), Some(record("fig12b", 7)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_torn_segment_entries_are_skipped_and_truncated() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "corrupt"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            for i in 0..3u64 {
                cache.insert(ScenarioFingerprint(i.into()), &record(&format!("s{i}"), i));
            }
        }
        // Corrupt the middle entry's digest line and tear a fourth entry's
        // tail, exactly what bit rot and a crash mid-append produce.
        let text = std::fs::read_to_string(&path).expect("read segment");
        let corrupted = text.replacen("digest = 0x00000000abcd0001", "digest = GARBAGE", 1)
            + "CACHE 0x00000000000000000000000000000009\nscenario = torn\nseed = 9\n";
        std::fs::write(&path, &corrupted).expect("rewrite segment");

        let reborn = ResultCache::with_segment(16, &path).expect("tolerant reload");
        assert_eq!(
            reborn.segment_stats(),
            SegmentStats {
                loaded: 2,
                skipped: 1,
                truncated: true
            }
        );
        assert_eq!(reborn.lookup(ScenarioFingerprint(0)), Some(record("s0", 0)));
        assert!(reborn.lookup(ScenarioFingerprint(1)).is_none(), "corrupt");
        assert_eq!(reborn.lookup(ScenarioFingerprint(2)), Some(record("s2", 2)));
        // The torn tail is gone from disk, and appending still works.
        let after = std::fs::read_to_string(&path).expect("read truncated");
        assert!(!after.contains("torn"));
        reborn.insert(ScenarioFingerprint(9), &record("fresh", 9));
        let again = ResultCache::with_segment(16, &path).expect("reload after append");
        assert_eq!(again.segment_stats().loaded, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_64_bit_frames_are_skipped_not_misread() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "old-frames"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("results.seg");
        // A segment written by the 64-bit engine: well-formed records
        // under 16-digit headers.
        let old: String = (0..2u64)
            .map(|i| {
                format!(
                    "CACHE 0x{i:016x}\n{}END\n",
                    record_to_text(&record("old", i))
                )
            })
            .collect();
        std::fs::write(&path, old).expect("write old segment");
        {
            let cache = ResultCache::with_segment(16, &path).expect("load old segment");
            assert_eq!(
                cache.segment_stats(),
                SegmentStats {
                    loaded: 0,
                    skipped: 2,
                    truncated: false
                }
            );
            assert!(cache.lookup(ScenarioFingerprint(1)).is_none());
            cache.insert(ScenarioFingerprint(1), &record("new", 1));
        }
        let reborn = ResultCache::with_segment(16, &path).expect("reload");
        assert_eq!(reborn.segment_stats().loaded, 1);
        assert_eq!(reborn.segment_stats().skipped, 2);
        assert_eq!(
            reborn.lookup(ScenarioFingerprint(1)),
            Some(record("new", 1))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn junk_between_entries_resyncs_at_the_next_header() {
        let dir = std::env::temp_dir().join(format!(
            "soter-result-cache-{}-{}",
            std::process::id(),
            "resync"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.seg");
        {
            let cache = ResultCache::with_segment(16, &path).expect("create segment");
            cache.insert(ScenarioFingerprint(1), &record("a", 1));
        }
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.insert_str(0, "not a header\nstill junk\n");
        std::fs::write(&path, &text).expect("rewrite");
        let reborn = ResultCache::with_segment(16, &path).expect("reload");
        assert_eq!(reborn.segment_stats().loaded, 1);
        assert_eq!(reborn.segment_stats().skipped, 1);
        assert_eq!(reborn.lookup(ScenarioFingerprint(1)), Some(record("a", 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
