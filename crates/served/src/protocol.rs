//! The daemon's newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated.
//! Frames are capped at [`MAX_FRAME_BYTES`]; anything longer is a typed
//! [`ProtocolError::Oversized`], not an allocation bomb. Every decode
//! failure is a typed error — malformed input can never panic the
//! server (the protocol fuzz test enforces this).
//!
//! 64-bit identifiers (job ids, cell keys, state digests) travel as
//! `0x`-prefixed hex strings because JSON numbers are `f64` and would
//! silently round them.

use crate::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

/// Hard cap on one wire frame (request or response line), newline
/// included. A submit for the full 16-scene suite is under 1 KiB, so
/// 64 KiB leaves two orders of magnitude of headroom.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u64 = 1;

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum ProtocolError {
    /// The line exceeded [`MAX_FRAME_BYTES`] before a newline arrived.
    Oversized { len: usize, max: usize },
    /// The stream ended mid-frame (bytes after the last newline).
    Truncated,
    /// The line was not valid JSON.
    Garbage(JsonError),
    /// The frame parsed but was not a JSON object.
    NotAnObject,
    /// The frame advertised an unsupported protocol version.
    UnsupportedVersion { found: u64 },
    /// A required field was absent.
    MissingField { field: &'static str },
    /// A field was present but of the wrong shape.
    BadField {
        field: &'static str,
        expected: &'static str,
    },
    /// An unrecognized `cmd` value.
    UnknownCommand { found: String },
    /// An unrecognized reply shape from a server.
    UnknownReply { found: String },
    /// Socket-level failure while reading a frame.
    Io(std::io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len}+ bytes exceeds the {max}-byte cap")
            }
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::Garbage(e) => write!(f, "frame is not valid JSON: {e}"),
            ProtocolError::NotAnObject => write!(f, "frame is not a JSON object"),
            ProtocolError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            ProtocolError::MissingField { field } => write!(f, "missing field `{field}`"),
            ProtocolError::BadField { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
            ProtocolError::UnknownCommand { found } => write!(f, "unknown command `{found}`"),
            ProtocolError::UnknownReply { found } => write!(f, "unknown reply shape: {found}"),
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Garbage(e)
    }
}

/// Formats a 64-bit identifier the way the protocol carries it.
pub fn hex_id(id: u64) -> String {
    format!("{id:#018x}")
}

/// Parses a `0x`-prefixed hex identifier.
pub fn parse_hex_id(s: &str) -> Option<u64> {
    let digits = s.strip_prefix("0x")?;
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// Reads one newline-terminated frame.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary. Enforces the
/// size cap incrementally, so an endless unterminated line costs a
/// bounded buffer, not memory proportional to the attack.
///
/// # Errors
///
/// [`ProtocolError::Oversized`], [`ProtocolError::Truncated`], or
/// [`ProtocolError::Io`].
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, ProtocolError> {
    let mut line = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        };
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ProtocolError::Truncated)
            };
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => (&buf[..nl], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > MAX_FRAME_BYTES {
            let len = line.len() + chunk.len();
            let consumed = chunk.len() + usize::from(done);
            reader.consume(consumed);
            return Err(ProtocolError::Oversized {
                len,
                max: MAX_FRAME_BYTES,
            });
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(done);
        reader.consume(consumed);
        if done {
            let text = String::from_utf8(line).map_err(|e| {
                ProtocolError::Garbage(JsonError::Unexpected {
                    at: e.utf8_error().valid_up_to(),
                    found: "invalid UTF-8".to_string(),
                })
            })?;
            return Ok(Some(text));
        }
    }
}

/// Lifecycle of a job, as reported over the wire and in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    TimedOut,
}

impl JobState {
    /// The wire/journal spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timed-out",
        }
    }

    /// Inverse of [`JobState::as_str`].
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "timed-out" => JobState::TimedOut,
            _ => return None,
        })
    }

    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::TimedOut)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A sweep request: the cross product of `scenes` × `configs`, each
/// cell simulated at the given detail/resolution/workload.
///
/// Scene, config, and workload names are carried as strings and
/// validated by the supervisor against the simulator's registries, so
/// the protocol layer stays decoupled from the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scene names (e.g. `"CAR"`); must be non-empty.
    pub scenes: Vec<String>,
    /// Config names (`baseline` | `traversal` | `prefetch`).
    pub configs: Vec<String>,
    /// Scene tessellation detail (positive, finite).
    pub detail: f32,
    /// Workload image resolution (res × res rays).
    pub res: u32,
    /// Workload kind (`primary` | `diffuse` | `shadow`).
    pub workload: String,
    /// Treelet capacity in bytes.
    pub treelet_bytes: u64,
    /// Optional cycle budget override.
    pub max_cycles: Option<u64>,
    /// Optional per-job wall-clock budget override, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Cycles between checkpoints while a cell runs.
    pub checkpoint_every: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            scenes: Vec::new(),
            configs: vec!["prefetch".to_string()],
            detail: 0.1,
            res: 16,
            workload: "primary".to_string(),
            treelet_bytes: 512,
            max_cycles: None,
            timeout_ms: None,
            checkpoint_every: 5_000,
        }
    }
}

impl JobSpec {
    /// Content digest identifying this job's *results*.
    ///
    /// Budget knobs (`timeout_ms`, `max_cycles`, `checkpoint_every`) are
    /// deliberately excluded: they bound how long we are willing to
    /// compute, not what the deterministic simulator computes, so a
    /// resubmit with a different budget must hit the same cache entries.
    pub fn identity(&self) -> u64 {
        rt_gpu_sim::fnv1a64(self.identity_string().as_bytes())
    }

    /// Content digest for one (scene, config) cell of this job.
    pub fn cell_identity(&self, scene: &str, config: &str) -> u64 {
        let tail = format!("|cell|{scene}|{config}");
        rt_gpu_sim::fnv1a64((self.identity_string() + &tail).as_bytes())
    }

    fn identity_string(&self) -> String {
        format!(
            "rt-served-job-v1|scenes={}|configs={}|detail={}|res={}|workload={}|treelet_bytes={}",
            self.scenes.join(","),
            self.configs.join(","),
            self.detail,
            self.res,
            self.workload,
            self.treelet_bytes,
        )
    }

    /// The (scene, config) cells, scene-major, in deterministic order.
    pub fn cells(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(self.scenes.len() * self.configs.len());
        for scene in &self.scenes {
            for config in &self.configs {
                out.push((scene.clone(), config.clone()));
            }
        }
        out
    }

    /// Encodes as a JSON object (the `spec` field of submit frames and
    /// journal entries).
    pub fn to_json(&self) -> Json {
        let mut fields: BTreeMap<String, Json> = BTreeMap::new();
        fields.insert(
            "scenes".into(),
            Json::Arr(self.scenes.iter().map(Json::str).collect()),
        );
        fields.insert(
            "configs".into(),
            Json::Arr(self.configs.iter().map(Json::str).collect()),
        );
        fields.insert("detail".into(), Json::Num(f64::from(self.detail)));
        fields.insert("res".into(), Json::num(u64::from(self.res)));
        fields.insert("workload".into(), Json::str(&self.workload));
        fields.insert("treelet_bytes".into(), Json::num(self.treelet_bytes));
        if let Some(mc) = self.max_cycles {
            fields.insert("max_cycles".into(), Json::num(mc));
        }
        if let Some(t) = self.timeout_ms {
            fields.insert("timeout_ms".into(), Json::num(t));
        }
        fields.insert("checkpoint_every".into(), Json::num(self.checkpoint_every));
        Json::Obj(fields)
    }

    /// Decodes from the JSON object produced by [`JobSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Typed [`ProtocolError`]s for missing or ill-shaped fields. Value
    /// validation (are the scene names real?) is the supervisor's job.
    pub fn from_json(v: &Json) -> Result<JobSpec, ProtocolError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(ProtocolError::BadField {
                field: "spec",
                expected: "an object",
            });
        }
        let mut spec = JobSpec {
            scenes: string_array(v, "scenes")?,
            ..JobSpec::default()
        };
        if let Some(configs) = v.get("configs") {
            spec.configs = array_of_strings("configs", configs)?;
        }
        if let Some(d) = v.get("detail") {
            spec.detail = d.as_f64().ok_or(ProtocolError::BadField {
                field: "detail",
                expected: "a number",
            })? as f32;
        }
        if let Some(r) = v.get("res") {
            let r = r.as_u64().ok_or(ProtocolError::BadField {
                field: "res",
                expected: "a non-negative integer",
            })?;
            spec.res = u32::try_from(r).map_err(|_| ProtocolError::BadField {
                field: "res",
                expected: "an integer below 2^32",
            })?;
        }
        if let Some(w) = v.get("workload") {
            spec.workload = w
                .as_str()
                .ok_or(ProtocolError::BadField {
                    field: "workload",
                    expected: "a string",
                })?
                .to_string();
        }
        if let Some(t) = v.get("treelet_bytes") {
            spec.treelet_bytes = t.as_u64().ok_or(ProtocolError::BadField {
                field: "treelet_bytes",
                expected: "a non-negative integer",
            })?;
        }
        if let Some(mc) = v.get("max_cycles") {
            spec.max_cycles = Some(mc.as_u64().ok_or(ProtocolError::BadField {
                field: "max_cycles",
                expected: "a non-negative integer",
            })?);
        }
        if let Some(t) = v.get("timeout_ms") {
            spec.timeout_ms = Some(t.as_u64().ok_or(ProtocolError::BadField {
                field: "timeout_ms",
                expected: "a non-negative integer",
            })?);
        }
        if let Some(c) = v.get("checkpoint_every") {
            spec.checkpoint_every = c.as_u64().ok_or(ProtocolError::BadField {
                field: "checkpoint_every",
                expected: "a non-negative integer",
            })?;
        }
        Ok(spec)
    }
}

fn string_array(v: &Json, field: &'static str) -> Result<Vec<String>, ProtocolError> {
    let arr = v.get(field).ok_or(ProtocolError::MissingField { field })?;
    array_of_strings(field, arr)
}

fn array_of_strings(field: &'static str, v: &Json) -> Result<Vec<String>, ProtocolError> {
    let items = v.as_arr().ok_or(ProtocolError::BadField {
        field,
        expected: "an array of strings",
    })?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or(ProtocolError::BadField {
                    field,
                    expected: "an array of strings",
                })
        })
        .collect()
}

/// One completed (scene, config) simulation, as cached and served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Content-address of this cell.
    pub cell: u64,
    /// Scene name.
    pub scene: String,
    /// Config name.
    pub config: String,
    /// Cycles to retire every ray.
    pub cycles: u64,
    /// Rays simulated.
    pub rays: u64,
    /// The deterministic end-of-run state digest.
    pub state_digest: u64,
}

impl CellResult {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cell", Json::str(hex_id(self.cell))),
            ("scene", Json::str(&self.scene)),
            ("config", Json::str(&self.config)),
            ("cycles", Json::num(self.cycles)),
            ("rays", Json::num(self.rays)),
            ("state_digest", Json::str(hex_id(self.state_digest))),
        ])
    }

    /// Decodes from the object produced by [`CellResult::to_json`].
    ///
    /// # Errors
    ///
    /// Typed [`ProtocolError`]s for missing or ill-shaped fields.
    pub fn from_json(v: &Json) -> Result<CellResult, ProtocolError> {
        Ok(CellResult {
            cell: hex_field(v, "cell")?,
            scene: str_field(v, "scene")?,
            config: str_field(v, "config")?,
            cycles: u64_field(v, "cycles")?,
            rays: u64_field(v, "rays")?,
            state_digest: hex_field(v, "state_digest")?,
        })
    }
}

fn str_field(v: &Json, field: &'static str) -> Result<String, ProtocolError> {
    v.get(field)
        .ok_or(ProtocolError::MissingField { field })?
        .as_str()
        .map(str::to_string)
        .ok_or(ProtocolError::BadField {
            field,
            expected: "a string",
        })
}

fn u64_field(v: &Json, field: &'static str) -> Result<u64, ProtocolError> {
    v.get(field)
        .ok_or(ProtocolError::MissingField { field })?
        .as_u64()
        .ok_or(ProtocolError::BadField {
            field,
            expected: "a non-negative integer",
        })
}

fn hex_field(v: &Json, field: &'static str) -> Result<u64, ProtocolError> {
    let s = v
        .get(field)
        .ok_or(ProtocolError::MissingField { field })?
        .as_str()
        .ok_or(ProtocolError::BadField {
            field,
            expected: "a 0x-prefixed hex string",
        })?;
    parse_hex_id(s).ok_or(ProtocolError::BadField {
        field,
        expected: "a 0x-prefixed hex string",
    })
}

/// A job's externally visible status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id (content-address of the spec).
    pub job: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Cells in the job.
    pub cells_total: u64,
    /// Cells with cached results.
    pub cells_done: u64,
    /// Error description for `failed` / `timed-out` jobs.
    pub error: Option<String>,
    /// Whether the job was served entirely from cache at submit time.
    pub cached: bool,
}

impl JobStatus {
    fn to_json(&self) -> Json {
        let mut fields: BTreeMap<String, Json> = BTreeMap::new();
        fields.insert("job".into(), Json::str(hex_id(self.job)));
        fields.insert("state".into(), Json::str(self.state.as_str()));
        fields.insert("cells_total".into(), Json::num(self.cells_total));
        fields.insert("cells_done".into(), Json::num(self.cells_done));
        if let Some(e) = &self.error {
            fields.insert("error".into(), Json::str(e));
        }
        fields.insert("cached".into(), Json::Bool(self.cached));
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<JobStatus, ProtocolError> {
        let state_name = str_field(v, "state")?;
        let state = JobState::parse(&state_name).ok_or(ProtocolError::BadField {
            field: "state",
            expected: "a job state name",
        })?;
        Ok(JobStatus {
            job: hex_field(v, "job")?,
            state,
            cells_total: u64_field(v, "cells_total")?,
            cells_done: u64_field(v, "cells_done")?,
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue (or cache-hit) a sweep.
    Submit(JobSpec),
    /// Query a job's status by id.
    Status { job: u64 },
    /// Fetch a completed job's cell results.
    Result { job: u64 },
    /// Ask the daemon to shut down cleanly.
    Shutdown,
}

impl Request {
    /// Encodes to one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Request::Ping => Json::obj([
                ("v", Json::num(PROTOCOL_VERSION)),
                ("cmd", Json::str("ping")),
            ]),
            Request::Submit(spec) => Json::obj([
                ("v", Json::num(PROTOCOL_VERSION)),
                ("cmd", Json::str("submit")),
                ("spec", spec.to_json()),
            ]),
            Request::Status { job } => Json::obj([
                ("v", Json::num(PROTOCOL_VERSION)),
                ("cmd", Json::str("status")),
                ("job", Json::str(hex_id(*job))),
            ]),
            Request::Result { job } => Json::obj([
                ("v", Json::num(PROTOCOL_VERSION)),
                ("cmd", Json::str("result")),
                ("job", Json::str(hex_id(*job))),
            ]),
            Request::Shutdown => Json::obj([
                ("v", Json::num(PROTOCOL_VERSION)),
                ("cmd", Json::str("shutdown")),
            ]),
        };
        v.encode()
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Typed [`ProtocolError`]s; never panics, whatever the line holds.
    pub fn decode(line: &str) -> Result<Request, ProtocolError> {
        let v = Json::parse(line)?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ProtocolError::NotAnObject);
        }
        let version = v
            .get("v")
            .ok_or(ProtocolError::MissingField { field: "v" })?
            .as_u64()
            .ok_or(ProtocolError::BadField {
                field: "v",
                expected: "a protocol version number",
            })?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::UnsupportedVersion { found: version });
        }
        let cmd = v
            .get("cmd")
            .ok_or(ProtocolError::MissingField { field: "cmd" })?
            .as_str()
            .ok_or(ProtocolError::BadField {
                field: "cmd",
                expected: "a command name",
            })?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let spec = v
                    .get("spec")
                    .ok_or(ProtocolError::MissingField { field: "spec" })?;
                Ok(Request::Submit(JobSpec::from_json(spec)?))
            }
            "status" => Ok(Request::Status {
                job: hex_field(&v, "job")?,
            }),
            "result" => Ok(Request::Result {
                job: hex_field(&v, "job")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::UnknownCommand {
                found: other.to_string(),
            }),
        }
    }
}

/// Failure classes a server can report in an error reply. `Busy` is the
/// load-shedding signal: the queue is full and the client should back
/// off and resubmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Queue full — retry later.
    Busy,
    /// The request was well-formed JSON but semantically invalid.
    Invalid,
    /// No job with that id.
    UnknownJob,
    /// The job exists but is not `done`, so results are unavailable.
    NotDone,
    /// The frame failed protocol decoding.
    Protocol,
    /// Internal server failure.
    Internal,
}

impl ErrorKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::Invalid => "invalid",
            ErrorKind::UnknownJob => "unknown-job",
            ErrorKind::NotDone => "not-done",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Internal => "internal",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "busy" => ErrorKind::Busy,
            "invalid" => ErrorKind::Invalid,
            "unknown-job" => ErrorKind::UnknownJob,
            "not-done" => ErrorKind::NotDone,
            "protocol" => ErrorKind::Protocol,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `ping`.
    Pong,
    /// Reply to `submit`: the job's id and current status (which is the
    /// full answer immediately when the submit was a cache hit).
    Submitted(JobStatus),
    /// Reply to `status`.
    Status(JobStatus),
    /// Reply to `result`: one row per cell.
    Rows(Vec<CellResult>),
    /// Reply to `shutdown`: acknowledged, daemon is exiting.
    ShuttingDown,
    /// Typed failure reply.
    Error { kind: ErrorKind, message: String },
}

impl Response {
    /// Encodes to one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Response::Pong => ok_reply(Json::obj([("pong", Json::Bool(true))])),
            Response::Submitted(status) => ok_reply(status.to_json()),
            Response::Status(status) => ok_reply(status.to_json()),
            Response::Rows(rows) => ok_reply(Json::obj([(
                "rows",
                Json::Arr(rows.iter().map(CellResult::to_json).collect()),
            )])),
            Response::ShuttingDown => ok_reply(Json::obj([("shutdown", Json::Bool(true))])),
            Response::Error { kind, message } => Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::str(kind.as_str())),
                ("message", Json::str(message)),
            ]),
        };
        v.encode()
    }

    /// Decodes one wire line.
    ///
    /// The submit/status distinction does not survive the wire (both
    /// carry a status object); decoding yields [`Response::Status`] for
    /// either, which is all clients need.
    ///
    /// # Errors
    ///
    /// Typed [`ProtocolError`]s; never panics, whatever the line holds.
    pub fn decode(line: &str) -> Result<Response, ProtocolError> {
        let v = Json::parse(line)?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ProtocolError::NotAnObject);
        }
        let ok = v
            .get("ok")
            .ok_or(ProtocolError::MissingField { field: "ok" })?
            .as_bool()
            .ok_or(ProtocolError::BadField {
                field: "ok",
                expected: "a boolean",
            })?;
        if !ok {
            let kind_name = str_field(&v, "error")?;
            let kind = ErrorKind::parse(&kind_name).ok_or(ProtocolError::BadField {
                field: "error",
                expected: "an error kind name",
            })?;
            return Ok(Response::Error {
                kind,
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        let reply = v
            .get("reply")
            .ok_or(ProtocolError::MissingField { field: "reply" })?;
        if reply.get("pong").is_some() {
            return Ok(Response::Pong);
        }
        if reply.get("shutdown").is_some() {
            return Ok(Response::ShuttingDown);
        }
        if let Some(rows) = reply.get("rows") {
            let rows = rows.as_arr().ok_or(ProtocolError::BadField {
                field: "rows",
                expected: "an array",
            })?;
            return Ok(Response::Rows(
                rows.iter()
                    .map(CellResult::from_json)
                    .collect::<Result<_, _>>()?,
            ));
        }
        if reply.get("job").is_some() {
            return Ok(Response::Status(JobStatus::from_json(reply)?));
        }
        Err(ProtocolError::UnknownReply {
            found: reply.encode(),
        })
    }
}

fn ok_reply(reply: Json) -> Json {
    Json::obj([("ok", Json::Bool(true)), ("reply", reply)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            scenes: vec!["WKND".to_string(), "CAR".to_string()],
            configs: vec!["baseline".to_string(), "prefetch".to_string()],
            detail: 0.25,
            res: 8,
            workload: "diffuse".to_string(),
            treelet_bytes: 1024,
            max_cycles: Some(1_000_000),
            timeout_ms: Some(30_000),
            checkpoint_every: 2_000,
        }
    }

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Ping,
            Request::Submit(spec()),
            Request::Status { job: 0xdead_beef },
            Request::Result { job: u64::MAX },
            Request::Shutdown,
        ];
        for req in cases {
            let line = req.encode();
            assert!(!line.contains('\n'), "one frame per line: {line}");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let status = JobStatus {
            job: 0x0123_4567_89ab_cdef,
            state: JobState::Running,
            cells_total: 4,
            cells_done: 1,
            error: None,
            cached: false,
        };
        let row = CellResult {
            cell: 42,
            scene: "CAR".to_string(),
            config: "prefetch".to_string(),
            cycles: 50_985,
            rays: 65_536,
            state_digest: 0xfe9f_734f_03cd_6a14,
        };
        let cases = [
            (Response::Pong, Response::Pong),
            (
                Response::Submitted(status.clone()),
                Response::Status(status.clone()),
            ),
            (
                Response::Status(status.clone()),
                Response::Status(status.clone()),
            ),
            (Response::Rows(vec![row.clone()]), Response::Rows(vec![row])),
            (Response::ShuttingDown, Response::ShuttingDown),
            (
                Response::Error {
                    kind: ErrorKind::Busy,
                    message: "queue full".to_string(),
                },
                Response::Error {
                    kind: ErrorKind::Busy,
                    message: "queue full".to_string(),
                },
            ),
        ];
        for (sent, expect) in cases {
            let line = sent.encode();
            assert_eq!(Response::decode(&line).unwrap(), expect, "{line}");
        }
    }

    #[test]
    fn identity_ignores_budget_knobs() {
        let a = spec();
        let mut b = spec();
        b.timeout_ms = Some(1);
        b.max_cycles = None;
        b.checkpoint_every = 77;
        assert_eq!(a.identity(), b.identity());

        let mut c = spec();
        c.treelet_bytes = 2048;
        assert_ne!(a.identity(), c.identity());
    }

    #[test]
    fn cell_identity_distinguishes_cells() {
        let s = spec();
        let mut keys: Vec<u64> = s
            .cells()
            .iter()
            .map(|(scene, config)| s.cell_identity(scene, config))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4, "4 distinct cells hash to 4 distinct keys");
    }

    #[test]
    fn hex_ids_round_trip() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex_id(&hex_id(id)), Some(id));
        }
        assert_eq!(parse_hex_id("0x"), None);
        assert_eq!(parse_hex_id("123"), None);
        assert_eq!(parse_hex_id("0x1_2"), None);
        assert_eq!(parse_hex_id("0x11223344556677889"), None);
    }

    #[test]
    fn read_frame_caps_unterminated_lines() {
        let huge = vec![b'a'; MAX_FRAME_BYTES + 1000];
        let mut reader = std::io::BufReader::new(&huge[..]);
        match read_frame(&mut reader) {
            Err(ProtocolError::Oversized { max, .. }) => assert_eq!(max, MAX_FRAME_BYTES),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_reports_truncation_and_clean_eof() {
        let mut reader = std::io::BufReader::new(&b"{\"v\":1}\n"[..]);
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Some("{\"v\":1}".to_string())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), None);

        let mut reader = std::io::BufReader::new(&b"{\"v\":1"[..]);
        assert!(matches!(
            read_frame(&mut reader),
            Err(ProtocolError::Truncated)
        ));
    }
}
