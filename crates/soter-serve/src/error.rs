//! Error type shared across the sharding coordinator and the daemon.

use std::fmt;
use std::path::PathBuf;

/// Errors surfaced by the sharded-campaign machinery.
#[derive(Debug)]
pub enum ServeError {
    /// A requested scenario name is not in the catalog registry.
    UnknownScenario(String),
    /// The `soter-worker` binary could not be located (build it with
    /// `cargo build -p soter-serve --bin soter-worker`, or point the
    /// `SOTER_WORKER_BIN` environment variable at it).
    WorkerBinary(PathBuf),
    /// A worker process could not be spawned.
    Spawn(std::io::Error),
    /// A shard kept failing: every re-issue attempt was burned without the
    /// shard completing.
    ShardFailed {
        /// Which shard (index into the plan).
        shard: usize,
        /// Attempts made (spawned worker processes).
        attempts: usize,
        /// What the last attempt died of.
        last: String,
    },
    /// A worker announced a protocol version other than the coordinator's
    /// — a stale `soter-worker` binary.  Named so the fix (rebuild the
    /// worker, or point `SOTER_WORKER_BIN` at a current one) is obvious
    /// instead of failing obscurely mid-campaign; never re-issued, since
    /// respawning the same binary would announce the same version.
    ProtocolMismatch {
        /// The version the worker announced in its `HELLO`.
        worker: u32,
        /// The coordinator's `protocol::PROTOCOL_VERSION`.
        coordinator: u32,
    },
    /// A worker reported a fatal error (`ERR` on the wire) — deterministic
    /// failures like an unknown scenario or a panicking job are not
    /// re-issued.
    Worker(String),
    /// A malformed request line reached the daemon.
    Request(String),
    /// A request line longer than
    /// [`MAX_REQUEST_LINE`](crate::daemon::MAX_REQUEST_LINE) bytes; the
    /// daemon discards it through its newline without storing it.
    RequestTooLong {
        /// The line-length bound in bytes.
        limit: usize,
    },
    /// A request whose `scenarios × seeds` matrix exceeds
    /// [`MAX_REQUEST_CELLS`](crate::daemon::MAX_REQUEST_CELLS); rejected
    /// before any name is resolved.
    MatrixTooLarge {
        /// Cells the request asked for.
        cells: usize,
        /// The matrix bound.
        limit: usize,
    },
    /// The merge finished with holes — some matrix index was never
    /// delivered (should be unreachable while shard supervisors succeed).
    Incomplete {
        /// Number of matrix slots never filled.
        missing: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownScenario(name) => {
                write!(f, "unknown catalog scenario `{name}`")
            }
            ServeError::WorkerBinary(path) => write!(
                f,
                "soter-worker binary not found at {} (build it with \
                 `cargo build -p soter-serve --bin soter-worker` or set SOTER_WORKER_BIN)",
                path.display()
            ),
            ServeError::Spawn(e) => write!(f, "failed to spawn worker process: {e}"),
            ServeError::ShardFailed {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard #{shard} failed after {attempts} attempts (last: {last})"
            ),
            ServeError::ProtocolMismatch {
                worker,
                coordinator,
            } => write!(
                f,
                "protocol mismatch: worker announced version {worker} but this coordinator \
                 speaks version {coordinator} — rebuild soter-worker (or update SOTER_WORKER_BIN) \
                 so both ends are from the same build"
            ),
            ServeError::Worker(message) => write!(f, "worker reported a fatal error: {message}"),
            ServeError::Request(message) => write!(f, "malformed request: {message}"),
            ServeError::RequestTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ServeError::MatrixTooLarge { cells, limit } => write!(
                f,
                "campaign matrix of {cells} cells exceeds the {limit}-cell limit"
            ),
            ServeError::Incomplete { missing } => {
                write!(f, "merged report is missing {missing} matrix slots")
            }
        }
    }
}

impl std::error::Error for ServeError {}
