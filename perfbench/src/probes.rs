//! Direct timed calls into the layers a workload reaches only through
//! plain functions: record text, fingerprints, the result cache and its
//! segment, wire frames, request parsing, worker spawn and socket accept.
//! Each probe replays the workload's own records (or request lines).

use crate::stats::Samples;
use soter_plan::cache::PlanEntry;
use soter_scenarios::golden::{record_from_text, record_to_text};
use soter_scenarios::{scenario_fingerprint, ResultCache, RunRecord, Scenario};
use soter_serve::daemon::{parse_request, parse_response, read_response};
use soter_serve::{worker_binary, Daemon, ServeConfig, WorkerMsg};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-operation costs measured by the probes.
#[derive(Debug, Default)]
pub struct ProbeCosts {
    /// `record_to_text`, ns per record.
    pub render_ns: f64,
    /// `record_from_text`, ns per record.
    pub parse_ns: f64,
    /// `scenario_fingerprint`, ns per scenario.
    pub fingerprint_ns: f64,
    /// `ResultCache::lookup`, ns per lookup (half hits, half misses).
    pub lookup_ns: f64,
    /// `ResultCache::insert` into a segment-backed cache, ns per insert.
    pub insert_ns: f64,
    /// Hits over lookups of the probe cache.
    pub hit_ratio: f64,
    /// Size of the probe segment after inserting every record.
    pub segment_bytes: u64,
    /// `ResultCache::with_segment` over that segment, ms.
    pub segment_load_ms: f64,
    /// `WorkerMsg` write + read of REC and PLAN frames, ns per frame.
    pub wire_ns_per_frame: f64,
    /// Bytes of one REC frame.
    pub wire_bytes_per_record: f64,
    /// `parse_request`, ns per request line.
    pub request_parse_ns: f64,
    /// Worker spawn until its `HELLO`, ms.
    pub spawn_ms: f64,
    /// Fresh unix-socket connect until the reply of a cached request
    /// through `serve_unix_until`, ms.
    pub accept_wait_ms: f64,
}

/// Times `op` over `items` in rounds until about `budget` has passed and
/// returns the median per-item nanoseconds.
fn per_item_ns<T>(items: &[T], budget: Duration, mut op: impl FnMut(&T)) -> f64 {
    let mut rounds = Samples::default();
    let start = Instant::now();
    while rounds.len() < 3 || start.elapsed() < budget {
        let round = Instant::now();
        for item in items {
            op(item);
        }
        rounds.push(round.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
    }
    rounds.median()
}

/// Runs every probe.  `cells` are the workload's scenarios with their
/// records, `plans` plan-cache entries for PLAN frames, `requests` the
/// request lines of the workload.  Failed round trips are returned as
/// errors naming the probe.
pub fn run(
    cells: &[(Scenario, RunRecord)],
    plans: &[PlanEntry],
    requests: &[String],
    dir: &Path,
) -> Result<ProbeCosts, String> {
    let budget = Duration::from_millis(60);
    let mut costs = ProbeCosts::default();
    let texts: Vec<String> = cells.iter().map(|(_, r)| record_to_text(r)).collect();
    for ((_, record), text) in cells.iter().zip(&texts) {
        if record_from_text(text).ok().as_ref() != Some(record) {
            return Err(format!(
                "record text round trip failed for {}",
                record.scenario
            ));
        }
    }
    costs.render_ns = per_item_ns(cells, budget, |(_, r)| {
        black_box(record_to_text(black_box(r)));
    });
    costs.parse_ns = per_item_ns(&texts, budget, |t| {
        black_box(record_from_text(black_box(t)).ok());
    });
    costs.fingerprint_ns = per_item_ns(cells, budget, |(s, _)| {
        black_box(scenario_fingerprint(black_box(s)));
    });

    // Result cache: inserts into a fresh segment-backed cache, then
    // lookups of every record (hits) and of re-seeded variants (misses).
    let segment = dir.join("probe.segment");
    let _ = std::fs::remove_file(&segment);
    let capacity = cells.len() * 2 + 1;
    let cache = ResultCache::with_segment(capacity, &segment)
        .map_err(|e| format!("probe segment {}: {e}", segment.display()))?;
    let mut keyed: Vec<_> = cells
        .iter()
        .map(|(s, r)| (scenario_fingerprint(s), r.clone()))
        .collect();
    keyed.sort_by_key(|(fp, _)| fp.0);
    keyed.dedup_by_key(|(fp, _)| fp.0);
    let start = Instant::now();
    for (fp, record) in &keyed {
        cache.insert(*fp, record);
    }
    costs.insert_ns = start.elapsed().as_nanos() as f64 / keyed.len().max(1) as f64;
    let misses: Vec<_> = cells
        .iter()
        .map(|(s, _)| scenario_fingerprint(&s.clone().with_seed(s.seed ^ 0x5EED_0000_0000)))
        .collect();
    let mut probes: Vec<_> = keyed.iter().map(|(fp, _)| *fp).collect();
    probes.extend(misses);
    for (fp, record) in &keyed {
        if cache.lookup(*fp).as_ref() != Some(record) {
            return Err(format!("result cache lost {}", record.scenario));
        }
    }
    let (hits0, misses0) = (cache.hits(), cache.misses());
    costs.lookup_ns = per_item_ns(&probes, budget, |fp| {
        black_box(cache.lookup(*fp));
    });
    let (hits, lookups) = (
        cache.hits() - hits0,
        cache.hits() + cache.misses() - hits0 - misses0,
    );
    costs.hit_ratio = hits as f64 / lookups.max(1) as f64;
    drop(cache);
    costs.segment_bytes = std::fs::metadata(&segment).map(|m| m.len()).unwrap_or(0);
    let mut loads = Samples::default();
    for _ in 0..3 {
        let start = Instant::now();
        let loaded = ResultCache::with_segment(capacity, &segment)
            .map_err(|e| format!("probe segment reload: {e}"))?;
        loads.push(start.elapsed().as_secs_f64() * 1e3);
        if loaded.segment_stats().loaded != keyed.len() {
            return Err(format!(
                "segment reload found {} of {} entries",
                loaded.segment_stats().loaded,
                keyed.len()
            ));
        }
    }
    costs.segment_load_ms = loads.median();
    let _ = std::fs::remove_file(&segment);

    // Wire frames: REC frames of every record plus PLAN frames.
    let mut frames: Vec<WorkerMsg> = cells
        .iter()
        .enumerate()
        .map(|(index, (_, record))| WorkerMsg::Record {
            index,
            record: record.clone(),
        })
        .collect();
    let rec_frames = frames.len();
    frames.extend(plans.iter().cloned().map(WorkerMsg::Plan));
    let mut rec_bytes = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        let mut buf = Vec::new();
        frame
            .write_to(&mut buf)
            .map_err(|e| format!("wire write: {e}"))?;
        if i < rec_frames {
            rec_bytes += buf.len();
        }
        let back = WorkerMsg::read_from(&mut buf.as_slice()).map_err(|e| e.to_string())?;
        if back.as_ref() != Some(frame) {
            return Err(format!("wire round trip changed frame {i}"));
        }
    }
    costs.wire_bytes_per_record = rec_bytes as f64 / rec_frames.max(1) as f64;
    let mut buf = Vec::with_capacity(4096);
    costs.wire_ns_per_frame = per_item_ns(&frames, budget, |frame| {
        buf.clear();
        let _ = frame.write_to(&mut buf);
        black_box(WorkerMsg::read_from(&mut buf.as_slice()).ok());
    });

    for line in requests {
        parse_request(line, 2).map_err(|e| format!("request `{line}`: {e}"))?;
    }
    costs.request_parse_ns = per_item_ns(requests, budget, |line| {
        black_box(parse_request(black_box(line), 2).ok());
    });

    costs.spawn_ms = spawn_ms()?;
    costs.accept_wait_ms = accept_wait_ms(dir)?;
    Ok(costs)
}

/// Median of three worker spawns, each timed until the worker's `HELLO`.
fn spawn_ms() -> Result<f64, String> {
    let bin = worker_binary().map_err(|e| e.to_string())?;
    let mut samples = Samples::default();
    for _ in 0..3 {
        let start = Instant::now();
        let mut child = Command::new(&bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let hello = WorkerMsg::read_from(&mut BufReader::new(stdout));
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        // Closing stdin is the worker's end of input: it exits cleanly.
        drop(child.stdin.take());
        let status = child.wait().map_err(|e| format!("worker wait: {e}"))?;
        match hello {
            Ok(Some(WorkerMsg::Hello { .. })) if status.success() => samples.push(elapsed),
            other => return Err(format!("worker greeting {other:?}, exit {status}")),
        }
    }
    Ok(samples.median())
}

/// Median of three fresh connections to a daemon serving a unix socket,
/// each timed from connect until the full reply to a cached request.
fn accept_wait_ms(dir: &Path) -> Result<f64, String> {
    let daemon = Daemon::new(ServeConfig {
        pool_capacity: 2,
        ..ServeConfig::default()
    });
    let request = "CAMPAIGN probe scenarios=serve-smoke seeds=1 shards=1\n";
    let warm = daemon.handle_request_line(request);
    if !warm.starts_with("REPORT ") {
        return Err(format!("probe request failed: {warm}"));
    }
    let socket = dir.join("probe.sock");
    let _ = std::fs::remove_file(&socket);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let daemon = daemon.clone();
        let socket = socket.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || daemon.serve_unix_until(&socket, stop))
    };
    let bound = Instant::now();
    while !socket.exists() && bound.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut samples = Samples::default();
    let mut result = Ok(());
    for _ in 0..3 {
        let start = Instant::now();
        let stream = loop {
            match std::os::unix::net::UnixStream::connect(&socket) {
                Ok(stream) => break Ok(stream),
                Err(_) if start.elapsed() < Duration::from_secs(5) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break Err(format!("connect {}: {e}", socket.display())),
            }
        };
        let reply = stream.and_then(|mut stream| {
            stream
                .write_all(request.as_bytes())
                .map_err(|e| e.to_string())?;
            let mut reader = BufReader::new(stream);
            read_response(&mut reader as &mut dyn BufRead).map_err(|e| e.to_string())
        });
        let same = |block: &str| parse_response(block).ok().map(|(_, records)| records);
        match reply {
            Ok(reply) if same(&reply).is_some() && same(&reply) == same(&warm) => {
                samples.push(start.elapsed().as_secs_f64() * 1e3)
            }
            Ok(reply) => result = Err(format!("socket reply differs: {reply}")),
            Err(e) => result = Err(e),
        }
        if result.is_err() {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("serve_unix_until: {e}")),
        Err(_) => return Err("serve_unix_until panicked".into()),
    }
    result.map(|()| samples.median())
}
