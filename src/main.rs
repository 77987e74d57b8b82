//! `treelet-sim` — command-line front end for the treelet-prefetching
//! simulator.
//!
//! ```text
//! treelet-prefetching scenes
//! treelet-prefetching stats --scene CAR [--detail 1.0] [--treelet-bytes 512]
//! treelet-prefetching run   --scene CAR [--detail 1.0] [--res 32]
//!                           [--config baseline|traversal|prefetch]
//!                           [--prefetch none|treelet|mta|ghb]
//!                           [--heuristic always|partial|pop:<t>]
//!                           [--scheduler baseline|omr|pmr]
//!                           [--treelet-bytes N] [--workload primary|diffuse|shadow]
//!                           [--obj path.obj] [--compare]
//! ```

use std::borrow::Cow;
use std::process::ExitCode;
use treelet_prefetching::bvh::MemoryImage;
use treelet_prefetching::bvh::NODE_SIZE_BYTES;
use treelet_prefetching::gpu::FaultInjection;
use treelet_prefetching::scene::{
    load_obj, Camera, ParseObjError, Scene, SceneId, Workload, WorkloadKind,
};
use treelet_prefetching::treelet::{
    compile_trace, default_jobs_for, first_divergence, read_digest_log, trace_ray, write_traces,
    Bench, BvhCache, CheckpointOptions, PrefetchConfig, PrefetchHeuristic, SchedulerPolicy,
    SimConfig, SimError, Sweep, SweepOutcome, Telemetry, TelemetryOptions, TreeletAssignment,
    DEFAULT_TELEMETRY_EVERY, DEFAULT_TREELET_BYTES,
};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Scenes,
    Stats(Options),
    Run(Options),
    Trace(Options, String),
    Bisect(String, String),
    Suite(SweepOptions),
    Sweep(SweepOptions),
    Serve(ServeOptions),
    Client(ClientOptions),
    Help,
}

/// Options for the `serve` subcommand (the rt-served daemon).
#[derive(Debug, Clone, PartialEq)]
struct ServeOptions {
    addr: String,
    store: String,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    timeout_ms: Option<u64>,
    retries: Option<u32>,
    backoff_ms: Option<u64>,
    /// Chaos seed (fault injection); `--chaos` overrides `RT_CHAOS`.
    chaos: Option<u64>,
}

/// Options for the `client` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct ClientOptions {
    addr: String,
    action: ClientAction,
}

/// What the client should ask the daemon to do.
#[derive(Debug, Clone, PartialEq)]
enum ClientAction {
    Ping,
    Submit {
        spec: rt_served::JobSpec,
        wait: bool,
    },
    Status {
        job: u64,
    },
    Result {
        job: u64,
    },
    Shutdown,
}

/// Options shared by `stats` and `run`.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    scene: SceneId,
    obj: Option<String>,
    detail: f32,
    res: u32,
    config: ConfigKind,
    prefetch: Option<PrefetchKind>,
    heuristic: Option<PrefetchHeuristic>,
    scheduler: Option<SchedulerPolicy>,
    treelet_bytes: u64,
    workload: WorkloadKind,
    compare: bool,
    max_cycles: Option<u64>,
    inject_faults: Option<u64>,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<String>,
    digest_log: Option<String>,
    resume: bool,
    telemetry: bool,
    telemetry_path: Option<String>,
    telemetry_every: Option<u64>,
    /// `--bvh-cache DIR`: content-addressed preparation cache root.
    /// `None` falls back to the `RT_BVH_CACHE` environment variable.
    bvh_cache: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConfigKind {
    Baseline,
    TraversalOnly,
    Prefetch,
}

/// The `--prefetch` selector: which prefetcher rides on top of the base
/// `--config`. Overrides the base config's prefetcher via
/// [`SimConfig::with_prefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrefetchKind {
    None,
    Treelet,
    Mta,
    Ghb,
}

impl PrefetchKind {
    fn parse(text: &str) -> Result<PrefetchKind, String> {
        match text {
            "none" => Ok(PrefetchKind::None),
            "treelet" => Ok(PrefetchKind::Treelet),
            "mta" => Ok(PrefetchKind::Mta),
            "ghb" => Ok(PrefetchKind::Ghb),
            other => Err(format!(
                "unknown --prefetch {other:?} (none | treelet | mta | ghb)"
            )),
        }
    }
}

impl ConfigKind {
    fn parse(text: &str) -> Result<ConfigKind, String> {
        match text {
            "baseline" => Ok(ConfigKind::Baseline),
            "traversal" => Ok(ConfigKind::TraversalOnly),
            "prefetch" => Ok(ConfigKind::Prefetch),
            other => Err(format!("unknown --config {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ConfigKind::Baseline => "baseline",
            ConfigKind::TraversalOnly => "traversal",
            ConfigKind::Prefetch => "prefetch",
        }
    }

    fn build(self) -> SimConfig {
        match self {
            ConfigKind::Baseline => SimConfig::paper_baseline(),
            ConfigKind::TraversalOnly => SimConfig::paper_treelet_traversal_only(),
            ConfigKind::Prefetch => SimConfig::paper_treelet_prefetch(),
        }
    }
}

/// Options for the `suite` and `sweep` subcommands: a (scene × config)
/// grid sharded across a worker pool.
#[derive(Debug, Clone, PartialEq)]
struct SweepOptions {
    scenes: Vec<SceneId>,
    detail: f32,
    res: u32,
    workload: WorkloadKind,
    configs: Vec<ConfigKind>,
    treelet_bytes: Vec<u64>,
    /// Worker count; `None` means the machine's available parallelism.
    jobs: Option<usize>,
    digest_dir: Option<String>,
    max_cycles: Option<u64>,
    /// `--bvh-cache DIR`: content-addressed preparation cache root.
    /// `None` falls back to the `RT_BVH_CACHE` environment variable.
    bvh_cache: Option<String>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scenes: SceneId::ALL.to_vec(),
            detail: 1.0,
            res: 32,
            workload: WorkloadKind::Primary,
            configs: vec![ConfigKind::Prefetch],
            treelet_bytes: vec![512],
            jobs: None,
            digest_dir: None,
            max_cycles: None,
            bvh_cache: None,
        }
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scene: SceneId::Bunny,
            obj: None,
            detail: 1.0,
            res: 32,
            config: ConfigKind::Prefetch,
            prefetch: None,
            heuristic: None,
            scheduler: None,
            treelet_bytes: 512,
            workload: WorkloadKind::Primary,
            compare: false,
            max_cycles: None,
            inject_faults: None,
            checkpoint_every: None,
            checkpoint_path: None,
            digest_log: None,
            resume: false,
            telemetry: false,
            telemetry_path: None,
            telemetry_every: None,
            bvh_cache: None,
        }
    }
}

/// A failed command: the message for stderr plus the process exit code.
///
/// Exit codes are part of the CLI contract so scripts can react per
/// cause: 1 generic, 2 invalid config or input, 3 cycle budget exceeded,
/// 4 livelock (no forward progress), 5 corrupted or foreign checkpoint,
/// 6 divergence found by `bisect-divergence`, 7 daemon bind failure,
/// 8 daemon store corruption, 9 daemon shutdown on signal.
#[derive(Debug)]
struct Failure {
    message: String,
    code: u8,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { message, code: 1 }
    }
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Self {
        let code = match &e {
            SimError::Config(_) | SimError::EmptyInput { .. } => 2,
            SimError::CycleLimitExceeded { .. } => 3,
            SimError::NoForwardProgress { .. } => 4,
            SimError::Snapshot(_) => 5,
            SimError::TreeletCoverage { .. }
            | SimError::Trace(_)
            | SimError::WorkerPanicked { .. } => 1,
        };
        Failure {
            message: e.to_string(),
            code,
        }
    }
}

/// Parses the full argument vector (excluding `argv[0]`).
fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "scenes" => Ok(Command::Scenes),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "stats" => Ok(Command::Stats(parse_options(&args[1..])?)),
        "run" => Ok(Command::Run(parse_options(&args[1..])?)),
        "trace" => {
            // The last `--out FILE` pair is extracted; the rest are the
            // shared options.
            let mut rest: Vec<String> = Vec::new();
            let mut out = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--out" {
                    out = Some(
                        it.next()
                            .ok_or_else(|| "--out needs a value".to_string())?
                            .clone(),
                    );
                } else {
                    rest.push(a.clone());
                }
            }
            let out = out.ok_or_else(|| "trace requires --out FILE".to_string())?;
            Ok(Command::Trace(parse_options(&rest)?, out))
        }
        "bisect-divergence" => match &args[1..] {
            [a, b] => Ok(Command::Bisect(a.clone(), b.clone())),
            _ => Err("bisect-divergence takes exactly two digest-log paths".to_string()),
        },
        "suite" => Ok(Command::Suite(parse_sweep_options(&args[1..], false)?)),
        "sweep" => Ok(Command::Sweep(parse_sweep_options(&args[1..], true)?)),
        "serve" => Ok(Command::Serve(parse_serve_options(&args[1..])?)),
        "client" => Ok(Command::Client(parse_client_options(&args[1..])?)),
        other => Err(format!("unknown subcommand {other:?}; try `help`")),
    }
}

/// Pulls the value token following a flag, or errors naming the flag.
fn next_value<'a>(
    it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    name: &str,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{name} needs a value"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scene" => {
                let v = next_value(&mut it, "--scene")?;
                options.scene = SceneId::from_name(v)
                    .ok_or_else(|| format!("unknown scene {v:?}; see `scenes`"))?;
            }
            "--obj" => options.obj = Some(next_value(&mut it, "--obj")?.clone()),
            "--detail" => {
                options.detail = next_value(&mut it, "--detail")?
                    .parse()
                    .map_err(|e| format!("bad --detail: {e}"))?;
                if !options.detail.is_finite() || options.detail <= 0.0 {
                    return Err("--detail must be positive and finite".into());
                }
            }
            "--res" => {
                options.res = next_value(&mut it, "--res")?
                    .parse()
                    .map_err(|e| format!("bad --res: {e}"))?;
                if options.res == 0 {
                    return Err("--res must be positive".into());
                }
            }
            "--config" => {
                options.config = ConfigKind::parse(next_value(&mut it, "--config")?)?;
            }
            "--prefetch" => {
                options.prefetch = Some(PrefetchKind::parse(next_value(&mut it, "--prefetch")?)?);
            }
            "--heuristic" => {
                let v = next_value(&mut it, "--heuristic")?;
                options.heuristic = Some(parse_heuristic(v)?);
            }
            "--scheduler" => {
                options.scheduler = Some(match next_value(&mut it, "--scheduler")?.as_str() {
                    "baseline" => SchedulerPolicy::Baseline,
                    "omr" => SchedulerPolicy::OldestMatchingRay,
                    "pmr" => SchedulerPolicy::PrioritizeMostRays,
                    other => return Err(format!("unknown --scheduler {other:?}")),
                });
            }
            "--treelet-bytes" => {
                options.treelet_bytes = next_value(&mut it, "--treelet-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --treelet-bytes: {e}"))?;
                if options.treelet_bytes < NODE_SIZE_BYTES {
                    return Err(format!(
                        "--treelet-bytes must be at least one node ({NODE_SIZE_BYTES} B)"
                    ));
                }
            }
            "--workload" => {
                options.workload = match next_value(&mut it, "--workload")?.as_str() {
                    "primary" => WorkloadKind::Primary,
                    "diffuse" => WorkloadKind::Diffuse,
                    "shadow" => WorkloadKind::Shadow,
                    other => return Err(format!("unknown --workload {other:?}")),
                };
            }
            "--compare" => options.compare = true,
            "--max-cycles" => {
                let v: u64 = next_value(&mut it, "--max-cycles")?
                    .parse()
                    .map_err(|e| format!("bad --max-cycles: {e}"))?;
                if v == 0 {
                    return Err("--max-cycles must be positive".into());
                }
                options.max_cycles = Some(v);
            }
            "--inject-faults" => {
                options.inject_faults = Some(
                    next_value(&mut it, "--inject-faults")?
                        .parse()
                        .map_err(|e| format!("bad --inject-faults seed: {e}"))?,
                );
            }
            "--checkpoint-every" => {
                let v: u64 = next_value(&mut it, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if v == 0 {
                    return Err("--checkpoint-every must be positive".into());
                }
                options.checkpoint_every = Some(v);
            }
            "--checkpoint-path" => {
                options.checkpoint_path = Some(next_value(&mut it, "--checkpoint-path")?.clone());
            }
            "--bvh-cache" => {
                options.bvh_cache = Some(next_value(&mut it, "--bvh-cache")?.clone());
            }
            "--digest-log" => {
                options.digest_log = Some(next_value(&mut it, "--digest-log")?.clone());
            }
            "--resume" => options.resume = true,
            "--telemetry" => {
                options.telemetry = true;
                // The output path is optional: `--telemetry out.csv`
                // writes a file, bare `--telemetry` only prints a
                // summary (and is what `stats --telemetry` uses).
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        options.telemetry_path =
                            Some(it.next().expect("peeked token must be present").clone());
                    }
                }
            }
            "--telemetry-every" => {
                let v: u64 = next_value(&mut it, "--telemetry-every")?
                    .parse()
                    .map_err(|e| format!("bad --telemetry-every: {e}"))?;
                if v == 0 {
                    return Err("--telemetry-every must be positive".into());
                }
                options.telemetry_every = Some(v);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

fn parse_heuristic(text: &str) -> Result<PrefetchHeuristic, String> {
    match text {
        "always" => Ok(PrefetchHeuristic::Always),
        "partial" => Ok(PrefetchHeuristic::Partial),
        other => {
            if let Some(t) = other.strip_prefix("pop:") {
                let threshold: f32 = t.parse().map_err(|e| format!("bad threshold: {e}"))?;
                if !(0.0..=1.0).contains(&threshold) {
                    return Err("threshold must be in [0, 1]".into());
                }
                Ok(PrefetchHeuristic::Popularity(threshold))
            } else {
                Err(format!(
                    "unknown heuristic {other:?} (always | partial | pop:<t>)"
                ))
            }
        }
    }
}

/// Parses `suite`/`sweep` flags. `grid` enables the sweep-only flags
/// that multiply the grid (`--configs`, `--treelet-bytes-list`); `suite`
/// instead takes the single `--config` the `run` subcommand uses.
fn parse_sweep_options(args: &[String], grid: bool) -> Result<SweepOptions, String> {
    let mut options = SweepOptions::default();
    if grid {
        options.configs = vec![ConfigKind::Baseline, ConfigKind::Prefetch];
    }
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scenes" => {
                options.scenes = next_value(&mut it, "--scenes")?
                    .split(',')
                    .map(|name| {
                        SceneId::from_name(name)
                            .ok_or_else(|| format!("unknown scene {name:?}; see `scenes`"))
                    })
                    .collect::<Result<_, _>>()?;
                if options.scenes.is_empty() {
                    return Err("--scenes needs at least one scene".into());
                }
            }
            "--detail" => {
                options.detail = next_value(&mut it, "--detail")?
                    .parse()
                    .map_err(|e| format!("bad --detail: {e}"))?;
                if !options.detail.is_finite() || options.detail <= 0.0 {
                    return Err("--detail must be positive and finite".into());
                }
            }
            "--res" => {
                options.res = next_value(&mut it, "--res")?
                    .parse()
                    .map_err(|e| format!("bad --res: {e}"))?;
                if options.res == 0 {
                    return Err("--res must be positive".into());
                }
            }
            "--workload" => {
                options.workload = match next_value(&mut it, "--workload")?.as_str() {
                    "primary" => WorkloadKind::Primary,
                    "diffuse" => WorkloadKind::Diffuse,
                    "shadow" => WorkloadKind::Shadow,
                    other => return Err(format!("unknown --workload {other:?}")),
                };
            }
            "--config" if !grid => {
                options.configs = vec![ConfigKind::parse(next_value(&mut it, "--config")?)?];
            }
            "--configs" if grid => {
                options.configs = next_value(&mut it, "--configs")?
                    .split(',')
                    .map(ConfigKind::parse)
                    .collect::<Result<_, _>>()?;
                if options.configs.is_empty() {
                    return Err("--configs needs at least one config".into());
                }
            }
            "--treelet-bytes-list" if grid => {
                options.treelet_bytes = next_value(&mut it, "--treelet-bytes-list")?
                    .split(',')
                    .map(|b| b.parse().map_err(|e| format!("bad treelet budget: {e}")))
                    .collect::<Result<_, _>>()?;
                if options.treelet_bytes.iter().any(|&b| b < NODE_SIZE_BYTES) {
                    return Err(format!(
                        "every treelet budget must be at least one node ({NODE_SIZE_BYTES} B)"
                    ));
                }
            }
            "--jobs" => {
                let v: usize = next_value(&mut it, "--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if v == 0 {
                    return Err("--jobs must be positive".into());
                }
                options.jobs = Some(v);
            }
            "--bvh-cache" => {
                options.bvh_cache = Some(next_value(&mut it, "--bvh-cache")?.clone());
            }
            "--digest-dir" => {
                options.digest_dir = Some(next_value(&mut it, "--digest-dir")?.clone());
            }
            "--max-cycles" => {
                let v: u64 = next_value(&mut it, "--max-cycles")?
                    .parse()
                    .map_err(|e| format!("bad --max-cycles: {e}"))?;
                if v == 0 {
                    return Err("--max-cycles must be positive".into());
                }
                options.max_cycles = Some(v);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut addr = None;
    let mut store = None;
    let mut options = ServeOptions {
        addr: String::new(),
        store: String::new(),
        workers: None,
        queue_cap: None,
        timeout_ms: None,
        retries: None,
        backoff_ms: None,
        chaos: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = Some(next_value(&mut it, "--addr")?.clone()),
            "--store" => store = Some(next_value(&mut it, "--store")?.clone()),
            "--workers" => {
                let v: usize = next_value(&mut it, "--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if v == 0 {
                    return Err("--workers must be positive".into());
                }
                options.workers = Some(v);
            }
            "--queue-cap" => {
                let v: usize = next_value(&mut it, "--queue-cap")?
                    .parse()
                    .map_err(|e| format!("bad --queue-cap: {e}"))?;
                if v == 0 {
                    return Err("--queue-cap must be positive".into());
                }
                options.queue_cap = Some(v);
            }
            "--timeout-ms" => {
                let v: u64 = next_value(&mut it, "--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --timeout-ms: {e}"))?;
                if v == 0 {
                    return Err("--timeout-ms must be positive".into());
                }
                options.timeout_ms = Some(v);
            }
            "--retries" => {
                options.retries = Some(
                    next_value(&mut it, "--retries")?
                        .parse()
                        .map_err(|e| format!("bad --retries: {e}"))?,
                );
            }
            "--backoff-ms" => {
                let v: u64 = next_value(&mut it, "--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("bad --backoff-ms: {e}"))?;
                if v == 0 {
                    return Err("--backoff-ms must be positive".into());
                }
                options.backoff_ms = Some(v);
            }
            "--chaos" => {
                let v = next_value(&mut it, "--chaos")?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                options.chaos = Some(parsed.map_err(|_| {
                    format!("bad --chaos {v:?} (expected a u64 seed, e.g. 42 or 0x2a)")
                })?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    options.addr = addr.ok_or_else(|| "serve requires --addr HOST:PORT".to_string())?;
    options.store = store.ok_or_else(|| "serve requires --store DIR".to_string())?;
    Ok(options)
}

fn parse_client_options(args: &[String]) -> Result<ClientOptions, String> {
    let Some(action_word) = args.first() else {
        return Err("client requires an action: ping | submit | status | result | shutdown".into());
    };
    let mut addr = None;
    let mut job = None;
    let mut wait = false;
    let mut spec = rt_served::JobSpec {
        scenes: SceneId::ALL.iter().map(|s| s.name().to_string()).collect(),
        ..rt_served::JobSpec::default()
    };
    let mut it = args[1..].iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = Some(next_value(&mut it, "--addr")?.clone()),
            "--job" => {
                let v = next_value(&mut it, "--job")?;
                job = Some(
                    rt_served::protocol::parse_hex_id(v)
                        .ok_or_else(|| format!("bad --job {v:?} (expected 0x-prefixed hex)"))?,
                );
            }
            "--wait" => wait = true,
            "--scenes" => {
                let names = next_value(&mut it, "--scenes")?;
                spec.scenes = names.split(',').map(str::to_string).collect();
                for name in &spec.scenes {
                    if SceneId::from_name(name).is_none() {
                        return Err(format!("unknown scene {name:?}; see `scenes`"));
                    }
                }
            }
            "--configs" => {
                spec.configs = next_value(&mut it, "--configs")?
                    .split(',')
                    .map(|c| ConfigKind::parse(c).map(|k| k.name().to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--detail" => {
                spec.detail = next_value(&mut it, "--detail")?
                    .parse()
                    .map_err(|e| format!("bad --detail: {e}"))?;
                if !spec.detail.is_finite() || spec.detail <= 0.0 {
                    return Err("--detail must be positive and finite".into());
                }
            }
            "--res" => {
                spec.res = next_value(&mut it, "--res")?
                    .parse()
                    .map_err(|e| format!("bad --res: {e}"))?;
                if spec.res == 0 {
                    return Err("--res must be positive".into());
                }
            }
            "--workload" => {
                let v = next_value(&mut it, "--workload")?;
                if !matches!(v.as_str(), "primary" | "diffuse" | "shadow") {
                    return Err(format!("unknown --workload {v:?}"));
                }
                spec.workload = v.clone();
            }
            "--treelet-bytes" => {
                spec.treelet_bytes = next_value(&mut it, "--treelet-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --treelet-bytes: {e}"))?;
                if spec.treelet_bytes < NODE_SIZE_BYTES {
                    return Err(format!(
                        "--treelet-bytes must be at least one node ({NODE_SIZE_BYTES} B)"
                    ));
                }
            }
            "--max-cycles" => {
                let v: u64 = next_value(&mut it, "--max-cycles")?
                    .parse()
                    .map_err(|e| format!("bad --max-cycles: {e}"))?;
                if v == 0 {
                    return Err("--max-cycles must be positive".into());
                }
                spec.max_cycles = Some(v);
            }
            "--timeout-ms" => {
                let v: u64 = next_value(&mut it, "--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --timeout-ms: {e}"))?;
                if v == 0 {
                    return Err("--timeout-ms must be positive".into());
                }
                spec.timeout_ms = Some(v);
            }
            "--checkpoint-every" => {
                let v: u64 = next_value(&mut it, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if v == 0 {
                    return Err("--checkpoint-every must be positive".into());
                }
                spec.checkpoint_every = v;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let addr = addr.ok_or_else(|| "client requires --addr HOST:PORT".to_string())?;
    let action = match action_word.as_str() {
        "ping" => ClientAction::Ping,
        "shutdown" => ClientAction::Shutdown,
        "submit" => ClientAction::Submit { spec, wait },
        "status" => ClientAction::Status {
            job: job.ok_or_else(|| "status requires --job 0xID".to_string())?,
        },
        "result" => ClientAction::Result {
            job: job.ok_or_else(|| "result requires --job 0xID".to_string())?,
        },
        other => {
            return Err(format!(
                "unknown client action {other:?} (ping | submit | status | result | shutdown)"
            ))
        }
    };
    Ok(ClientOptions { addr, action })
}

fn build_config(options: &Options) -> SimConfig {
    let mut config = options
        .config
        .build()
        .with_treelet_bytes(options.treelet_bytes);
    // The prefetcher override comes first so `--prefetch treelet
    // --heuristic partial` composes (the heuristic setter only touches a
    // treelet prefetcher).
    if let Some(kind) = options.prefetch {
        config = config.with_prefetcher(build_prefetch(kind));
    }
    if let Some(h) = options.heuristic {
        config = config.with_heuristic(h);
    }
    if let Some(s) = options.scheduler {
        config = config.with_scheduler(s);
    }
    apply_robustness(config, options)
}

/// Expands a `--prefetch` selection into its [`PrefetchConfig`].
fn build_prefetch(kind: PrefetchKind) -> PrefetchConfig {
    match kind {
        PrefetchKind::None => PrefetchConfig::none(),
        PrefetchKind::Treelet => PrefetchConfig::treelet(),
        PrefetchKind::Mta => PrefetchConfig::mta(),
        PrefetchKind::Ghb => PrefetchConfig::ghb(),
    }
}

/// Applies the watchdog/fault flags shared by every config the CLI
/// builds (including the `--compare` baseline, so both runs abort under
/// the same budget).
fn apply_robustness(mut config: SimConfig, options: &Options) -> SimConfig {
    if let Some(limit) = options.max_cycles {
        config.max_cycles = limit;
    }
    if let Some(seed) = options.inject_faults {
        config.mem.fault_injection = Some(FaultInjection::latency_storm(seed));
    }
    config
}

/// Builds the workload geometry: either a named procedural scene or a
/// user OBJ framed by the same camera logic.
///
/// Resolves the preparation cache for a command: an explicit
/// `--bvh-cache` flag wins, and an unusable directory is invalid input
/// (exit 2); with no flag, the `RT_BVH_CACHE` environment variable
/// applies best-effort (unusable directory warns and disables caching).
fn resolve_bvh_cache(flag: Option<&str>) -> Result<Option<BvhCache>, Failure> {
    match flag {
        Some(dir) => BvhCache::open(dir)
            .map(Some)
            .map_err(|e| invalid(format!("--bvh-cache {dir}: {e}"))),
        None => Ok(BvhCache::from_env()),
    }
}

/// Prepares the command's bench (BVH, workload rays, default treelets),
/// going through the content-addressed preparation cache when one is
/// configured. `--obj` meshes are never cached: the cache key identifies
/// paper scenes by name and detail, not arbitrary mesh files.
fn prepare_inputs(options: &Options) -> Result<Bench, Failure> {
    let workload = Workload::new(options.workload, options.res, options.res);
    if options.obj.is_none() {
        let cache = resolve_bvh_cache(options.bvh_cache.as_deref())?;
        return Bench::try_prepare_cached(options.scene, options.detail, workload, cache.as_ref())
            .map_err(|e| Failure {
                message: e.to_string(),
                code: 2,
            });
    }
    Ok(Bench::from_scene(build_scene(options)?, workload))
}

/// The bench's own treelets when `bytes` is the default budget, else a
/// fresh breadth-first assignment at `bytes`.
fn treelets_at(bench: &Bench, bytes: u64) -> Result<Cow<'_, TreeletAssignment>, Failure> {
    if bytes == DEFAULT_TREELET_BYTES {
        return Ok(Cow::Borrowed(bench.treelets()));
    }
    let formed = TreeletAssignment::try_form(bench.bvh(), bytes).map_err(SimError::from)?;
    Ok(Cow::Owned(formed))
}

/// Scene-construction failures (bad detail, triangle-budget overflow)
/// are invalid input — exit code 2 — not generic errors.
fn build_scene(options: &Options) -> Result<Scene, Failure> {
    match &options.obj {
        None => Scene::try_build_with_detail(options.scene, options.detail).map_err(|e| Failure {
            message: e.to_string(),
            code: 2,
        }),
        Some(path) => {
            // A file that cannot be read is a generic failure; one that
            // reads but does not parse is bad input.
            let mesh = load_obj(path).map_err(|e| Failure {
                code: match &e {
                    ParseObjError::Malformed { .. } => 2,
                    ParseObjError::Io(_) => 1,
                },
                message: format!("{path}: {e}"),
            })?;
            if mesh.is_empty() {
                return Err(format!("{path}: no triangles found").into());
            }
            let aabb = mesh.aabb();
            let center = aabb.center();
            let radius = aabb.extent().length().max(1.0);
            let eye = center
                + treelet_prefetching::geometry::Vec3::new(0.55, 0.4, 0.73).normalized() * radius;
            let camera = Camera::look_at(
                eye,
                center,
                treelet_prefetching::geometry::Vec3::Y,
                50.0_f32.to_radians(),
                1.0,
            );
            Ok(Scene {
                id: options.scene,
                mesh,
                camera,
            })
        }
    }
}

fn cmd_scenes() {
    println!(
        "{:<7} {:>12} {:>7} {:>12}",
        "Scene", "paper MB", "depth", "treelets"
    );
    for id in SceneId::ALL {
        let p = id.paper_stats();
        println!(
            "{:<7} {:>12.1} {:>7} {:>12}",
            id.name(),
            p.tree_size_mb,
            p.tree_depth,
            p.total_treelets
        );
    }
}

fn cmd_stats(options: &Options) -> Result<(), Failure> {
    let bench = prepare_inputs(options)?;
    let stats = bench.tree_stats();
    let treelets = treelets_at(&bench, options.treelet_bytes)?;
    println!(
        "scene:     {}",
        options.obj.as_deref().unwrap_or(options.scene.name())
    );
    println!("triangles: {}", stats.triangle_count);
    println!(
        "nodes:     {} ({} internal, {} leaf)",
        stats.node_count, stats.internal_count, stats.leaf_count
    );
    println!("depth:     {}", stats.max_depth);
    println!("size:      {:.2} MB", stats.total_mb());
    println!(
        "treelets:  {} at {} B max ({:.0}% mean occupancy)",
        treelets.count(),
        options.treelet_bytes,
        treelets.mean_occupancy() * 100.0
    );
    // `stats --telemetry` additionally runs the workload once and
    // summarizes the sampled time-series (writing it out when a path
    // was given), so a scene can be profiled in one command.
    if let Some(telemetry_opts) = telemetry_options(options).map_err(invalid)? {
        let config = build_config(options);
        let mut telemetry = Telemetry::new(&telemetry_opts);
        let result = bench.session(config).telemetry(&mut telemetry).run()?;
        print_telemetry_summary(&telemetry, result.cycles);
        if let Some(path) = &options.telemetry_path {
            write_telemetry(&telemetry, path)?;
            println!("telemetry: wrote {} samples to {path}", telemetry.len());
        }
    }
    Ok(())
}

/// Wraps a flag-validation message as the invalid-input failure (exit 2).
fn invalid(message: String) -> Failure {
    Failure { message, code: 2 }
}

/// Assembles [`TelemetryOptions`] from the CLI flags, or `None` when
/// telemetry was not requested.
fn telemetry_options(options: &Options) -> Result<Option<TelemetryOptions>, String> {
    if !options.telemetry {
        if options.telemetry_every.is_some() {
            return Err("--telemetry-every requires --telemetry".into());
        }
        return Ok(None);
    }
    let every = options.telemetry_every.unwrap_or(DEFAULT_TELEMETRY_EVERY);
    Ok(Some(TelemetryOptions::new(every)))
}

/// Writes the telemetry time-series to `path`: JSON when the extension
/// is `.json`, CSV otherwise.
fn write_telemetry(telemetry: &Telemetry, path: &str) -> Result<(), Failure> {
    let p = std::path::Path::new(path);
    let json = p
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("json"));
    let io = if json {
        telemetry.write_json(p)
    } else {
        telemetry.write_csv(p)
    };
    io.map_err(|e| Failure::from(format!("{path}: {e}")))
}

/// Prints the compact per-run telemetry digest shared by `run` and
/// `stats --telemetry`.
fn print_telemetry_summary(telemetry: &Telemetry, cycles: u64) {
    let samples = telemetry.samples();
    let Some(last) = samples.last() else {
        println!("telemetry: no samples collected");
        return;
    };
    println!(
        "telemetry: {} samples over {} cycles (every {} cycles)",
        samples.len(),
        cycles,
        telemetry.every()
    );
    let mean = |f: fn(&treelet_prefetching::treelet::TelemetrySample) -> f64| -> f64 {
        samples.iter().map(f).sum::<f64>() / samples.len() as f64
    };
    println!(
        "  warp buffer occupancy: {:.1} mean / {} peak",
        mean(|s| s.warp_buffer_occupancy as f64),
        samples
            .iter()
            .map(|s| s.warp_buffer_occupancy)
            .max()
            .unwrap_or(0)
    );
    println!(
        "  L1 hit rate:           {:.1}% mean (final {:.1}%)",
        mean(|s| s.l1_hit_rate * 100.0),
        last.l1_hit_rate * 100.0
    );
    println!(
        "  L2 hit rate:           {:.1}% mean (final {:.1}%)",
        mean(|s| s.l2_hit_rate * 100.0),
        last.l2_hit_rate * 100.0
    );
    println!(
        "  prefetches:            {} useful, {} late, {} useless",
        last.prefetch_useful, last.prefetch_late, last.prefetch_useless
    );
    let per_channel: Vec<String> = last
        .dram_channel_bytes
        .iter()
        .map(|b| format!("{:.1}", *b as f64 / 1024.0))
        .collect();
    println!("  DRAM KiB per channel:  [{}]", per_channel.join(", "));
}

/// Assembles [`CheckpointOptions`] from the CLI flags, or `None` when
/// checkpointing was not requested. `--resume` and `--checkpoint-path`
/// imply checkpointing with a default interval.
fn checkpoint_options(options: &Options) -> Result<Option<CheckpointOptions>, String> {
    let wants =
        options.checkpoint_every.is_some() || options.checkpoint_path.is_some() || options.resume;
    if !wants {
        if options.digest_log.is_some() {
            return Err("--digest-log requires --checkpoint-every".into());
        }
        return Ok(None);
    }
    let every = options.checkpoint_every.unwrap_or(100_000);
    let path = options
        .checkpoint_path
        .clone()
        .unwrap_or_else(|| "checkpoint.rtsnap".to_string());
    let mut opts = CheckpointOptions::new(every, path);
    if let Some(log) = &options.digest_log {
        opts = opts.with_digest_log(log);
    }
    Ok(Some(opts))
}

fn cmd_run(options: &Options) -> Result<(), Failure> {
    let bench = prepare_inputs(options)?;
    let config = build_config(options);
    let mut telemetry = telemetry_options(options)
        .map_err(invalid)?
        .map(|opts| Telemetry::new(&opts));
    let mut session = bench.session(config);
    if let Some(ck) = checkpoint_options(options).map_err(invalid)? {
        session = session.checkpoint(ck);
        if options.resume {
            session = session.resume_from_checkpoint();
        }
    }
    if let Some(sink) = telemetry.as_mut() {
        session = session.telemetry(sink);
    }
    let result = session.run()?;
    if options.compare {
        let base_config = apply_robustness(SimConfig::paper_baseline(), options);
        let base = bench.session(base_config).run()?;
        println!(
            "baseline: {:>10} cycles | selected: {:>10} cycles | speedup {:.3}x",
            base.cycles,
            result.cycles,
            result.speedup_over(&base)
        );
    } else {
        println!("cycles:            {}", result.cycles);
    }
    println!("rays:              {}", result.rays);
    println!(
        "avg nodes/ray:     {:.1}",
        result.traversal.avg_nodes_per_ray
    );
    println!("node load latency: {:.0} cycles", result.node_load_latency);
    println!(
        "L1 hit rate:       {:.1}%",
        result.l1.demand_hit_rate() * 100.0
    );
    println!("DRAM utilization:  {:.1}%", result.dram_utilization * 100.0);
    println!("avg power:         {:.2} W", result.power.avg_power_w);
    if result.prefetch_effect.total() > 0 {
        let e = result.prefetch_effect;
        println!(
            "prefetches:        {} timely, {} late, {} too late, {} early, {} unused",
            e.timely, e.late, e.too_late, e.early, e.unused
        );
    }
    // Scripts (the CI kill-and-resume job among them) compare this line
    // between a resumed and an uninterrupted run.
    println!("state digest:      {:#018x}", result.state_digest);
    if let Some(telemetry) = telemetry {
        print_telemetry_summary(&telemetry, result.cycles);
        if let Some(path) = &options.telemetry_path {
            write_telemetry(&telemetry, path)?;
            println!("telemetry: wrote {} samples to {path}", telemetry.len());
        }
    }
    Ok(())
}

/// Compares two digest logs and reports the first epoch where their
/// simulations diverged.
fn cmd_bisect(log_a: &str, log_b: &str) -> Result<(), Failure> {
    let a = read_digest_log(std::path::Path::new(log_a)).map_err(SimError::from)?;
    let b = read_digest_log(std::path::Path::new(log_b)).map_err(SimError::from)?;
    println!("{log_a}: {} epochs", a.len());
    println!("{log_b}: {} epochs", b.len());
    match first_divergence(&a, &b) {
        None => {
            println!("digest histories agree over their common prefix");
            Ok(())
        }
        Some((ra, rb)) => {
            println!("first divergence at epoch {}:", ra.epoch);
            println!("  a: {ra}");
            println!("  b: {rb}");
            if ra.cycle != rb.cycle {
                println!("  cycle differs: {} vs {}", ra.cycle, rb.cycle);
            }
            if ra.digest != rb.digest {
                println!(
                    "  state digest differs: {:#018x} vs {:#018x}",
                    ra.digest, rb.digest
                );
            }
            if ra.rays_remaining != rb.rays_remaining {
                println!(
                    "  rays remaining differ: {} vs {}",
                    ra.rays_remaining, rb.rays_remaining
                );
            }
            Err(Failure {
                message: format!("runs diverge at epoch {}", ra.epoch),
                code: 6,
            })
        }
    }
}

fn cmd_trace(options: &Options, out_path: &str) -> Result<(), Failure> {
    use treelet_prefetching::treelet::TraversalAlgorithm;
    let bench = prepare_inputs(options)?;
    let (bvh, rays) = (bench.bvh(), bench.rays());
    let config = build_config(options);
    let treelets = treelets_at(&bench, options.treelet_bytes)?;
    let image = match config.traversal {
        // The trace dump pairs the algorithm with its natural layout.
        TraversalAlgorithm::BaselineDfs => MemoryImage::depth_first(bvh),
        TraversalAlgorithm::TwoStackTreelet => MemoryImage::treelet_packed(
            bvh,
            treelets.as_slices(),
            treelet_prefetching::bvh::PackOptions {
                slot_bytes: options.treelet_bytes,
                extra_stride: 0,
            },
        ),
    };
    let traces: Vec<_> = rays
        .iter()
        .map(|r| compile_trace(&trace_ray(bvh, &treelets, r, config.traversal), &image, 64))
        .collect();
    let file =
        std::fs::File::create(out_path).map_err(|e| Failure::from(format!("{out_path}: {e}")))?;
    write_traces(std::io::BufWriter::new(file), &traces)
        .map_err(|e| Failure::from(e.to_string()))?;
    let steps: usize = traces.iter().map(Vec::len).sum();
    println!(
        "wrote {} rays / {} steps ({}) to {out_path}",
        traces.len(),
        steps,
        config.traversal
    );
    Ok(())
}

/// Expands the sweep options into the labeled config grid, config-major:
/// every `(config kind × treelet budget)` pair becomes one column. The
/// budget suffix is dropped when only one budget is swept, so `suite`
/// labels read as plain config names.
fn sweep_grid(options: &SweepOptions) -> Vec<(String, SimConfig)> {
    let mut grid = Vec::new();
    for kind in &options.configs {
        for &bytes in &options.treelet_bytes {
            let label = if options.treelet_bytes.len() > 1 {
                format!("{}/{}B", kind.name(), bytes)
            } else {
                kind.name().to_string()
            };
            let mut config = kind.build().with_treelet_bytes(bytes);
            if let Some(limit) = options.max_cycles {
                config.max_cycles = limit;
            }
            grid.push((label, config));
        }
    }
    grid
}

/// Writes one digest log per scene into `dir`: each line is one
/// (config, scene) cell in config-major grid order, so two runs of the
/// same grid produce byte-identical files regardless of `--jobs`. The
/// CI determinism job diffs these between `--jobs 1` and `--jobs 4`.
///
/// Each log is committed atomically (write-then-rename via the snapshot
/// module), so a sweep killed mid-write leaves either the previous log
/// or the new one — never a torn file that would poison a later diff.
fn write_digest_logs(dir: &str, outcomes: &[SweepOutcome]) -> Result<(), Failure> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| Failure::from(format!("{}: {e}", dir.display())))?;
    let mut files: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    for cell in outcomes {
        let log = files
            .entry(cell.scene.name().to_ascii_lowercase())
            .or_default();
        match &cell.result {
            Ok(r) => log.push_str(&format!(
                "config={} scene={} cycles={} digest={:#018x}\n",
                cell.label,
                cell.scene.name(),
                r.cycles,
                r.state_digest
            )),
            Err(e) => log.push_str(&format!(
                "config={} scene={} failed={e}\n",
                cell.label,
                cell.scene.name()
            )),
        }
    }
    for (slug, contents) in files {
        let path = dir.join(format!("{slug}.digests"));
        treelet_prefetching::treelet::write_atomic(&path, contents.as_bytes())
            .map_err(|e| Failure::from(e.to_string()))?;
    }
    Ok(())
}

/// Shared implementation of `suite` (one config × the scene list) and
/// `sweep` (config grid × the scene list): prepare the benches, shard
/// the (scene, config) cells across the worker pool, and report results
/// in deterministic config-major order.
fn cmd_sweep(options: &SweepOptions) -> Result<(), Failure> {
    let grid = sweep_grid(options);
    let cells = options.scenes.len() * grid.len();
    let jobs = options.jobs.unwrap_or_else(|| default_jobs_for(cells));
    let workload = Workload::new(options.workload, options.res, options.res);
    eprintln!(
        "preparing {} scene(s), then running {} cell(s) on {jobs} worker(s)",
        options.scenes.len(),
        options.scenes.len() * grid.len()
    );
    let cache = resolve_bvh_cache(options.bvh_cache.as_deref())?;
    let benches = Bench::prepare_all(
        &options.scenes,
        options.detail,
        workload,
        jobs,
        cache.as_ref(),
    )
    .map_err(|e| Failure {
        message: e.to_string(),
        code: 2,
    })?;
    if let Some(cache) = &cache {
        eprintln!(
            "bvh cache: {} hit(s), {} miss(es) at {}",
            cache.hits(),
            cache.misses(),
            cache.root().display()
        );
    }
    let mut sweep = Sweep::new(benches);
    for (label, config) in grid {
        sweep = sweep.with_config(label, config);
    }
    let outcomes = sweep.run_parallel(jobs);

    println!(
        "{:<18} {:<7} {:>12} {:>20}",
        "config", "scene", "cycles", "state digest"
    );
    for cell in &outcomes {
        match &cell.result {
            Ok(r) => println!(
                "{:<18} {:<7} {:>12} {:>#20x}",
                cell.label,
                cell.scene.name(),
                r.cycles,
                r.state_digest
            ),
            Err(e) => println!(
                "{:<18} {:<7} {:>12} {e}",
                cell.label,
                cell.scene.name(),
                "FAILED"
            ),
        }
    }
    if let Some(dir) = &options.digest_dir {
        write_digest_logs(dir, &outcomes)?;
        println!("digest logs written to {dir}/");
    }
    let failures = outcomes.iter().filter(|c| c.result.is_err()).count();
    if failures > 0 {
        // Exit with the first failure's per-cause code so scripts react
        // to a failed sweep exactly as they would to a failed `run`.
        let first = outcomes
            .into_iter()
            .find_map(|c| c.result.err())
            .expect("at least one cell failed");
        return Err(Failure {
            message: format!("{failures} cell(s) failed; first: {first}"),
            code: Failure::from(first).code,
        });
    }
    Ok(())
}

/// Installs a SIGTERM/SIGINT handler that flips a static flag the
/// daemon's accept loop polls, giving `kill`-style supervision a clean
/// drain path (exit code 9) instead of an abrupt death. Hand-rolled via
/// the C `signal` entry point std already links — the workspace is
/// dependency-free by policy.
#[cfg(unix)]
fn install_signal_flag() -> &'static std::sync::atomic::AtomicBool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static FLAG: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        // Only the async-signal-safe atomic store happens here.
        FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    &FLAG
}

/// Runs the rt-served daemon. Owns its exit-code mapping (7 bind
/// failure, 8 store corruption, 9 shutdown on signal) because unlike
/// every other subcommand a *clean* exit here has two flavors.
fn cmd_serve(options: &ServeOptions) -> ExitCode {
    let mut supervisor = rt_served::SupervisorConfig::default();
    if let Some(v) = options.workers {
        supervisor.workers = v;
    }
    if let Some(v) = options.queue_cap {
        supervisor.queue_cap = v;
    }
    if let Some(v) = options.timeout_ms {
        supervisor.default_timeout_ms = v;
    }
    if let Some(v) = options.retries {
        supervisor.max_retries = v;
    }
    if let Some(v) = options.backoff_ms {
        supervisor.backoff_base_ms = v;
    }
    #[cfg(unix)]
    let signal_flag = Some(install_signal_flag());
    #[cfg(not(unix))]
    let signal_flag = None;

    // `--chaos` beats `RT_CHAOS`; a malformed env var is refused as
    // invalid input rather than silently running without faults.
    let chaos = match options.chaos {
        Some(seed) => rt_served::Chaos::seeded(seed),
        None => match rt_served::Chaos::from_env() {
            Ok(chaos) => chaos,
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
        },
    };
    if let Some(seed) = chaos.seed() {
        eprintln!("chaos: fault injection active (seed {seed}); not for production use");
    }

    let server = match rt_served::Server::bind(rt_served::ServerConfig {
        addr: options.addr.clone(),
        store_dir: options.store.clone().into(),
        supervisor,
        signal_flag,
        chaos,
    }) {
        Ok(server) => server,
        Err(e @ rt_served::ServeError::Bind { .. }) => {
            eprintln!("error: {e}");
            return ExitCode::from(7);
        }
        Err(e @ rt_served::ServeError::Store(_)) => {
            eprintln!("error: {e}");
            return ExitCode::from(8);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("rt-served listening on {}", server.local_addr());
    println!("store: {}", options.store);
    match server.run() {
        Ok(rt_served::ShutdownReason::Requested) => {
            println!("shutdown requested by client; drained cleanly");
            ExitCode::SUCCESS
        }
        Ok(rt_served::ShutdownReason::Signal) => {
            eprintln!("received termination signal; drained cleanly");
            ExitCode::from(9)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Maps a client-side failure to the CLI exit-code contract: a daemon
/// rejecting the spec is invalid input (2); everything else — daemon
/// unreachable, busy, transport failure — is generic (1).
fn client_failure(e: rt_served::ClientError) -> Failure {
    let code = match &e {
        rt_served::ClientError::Server {
            kind: rt_served::ErrorKind::Invalid,
            ..
        } => 2,
        _ => 1,
    };
    Failure {
        message: e.to_string(),
        code,
    }
}

fn print_job_status(status: &rt_served::JobStatus) {
    println!("job:    {}", rt_served::protocol::hex_id(status.job));
    println!(
        "state:  {}{}",
        status.state,
        if status.cached { " (cached)" } else { "" }
    );
    println!("cells:  {}/{}", status.cells_done, status.cells_total);
    if let Some(e) = &status.error {
        println!("error:  {e}");
    }
}

fn print_job_rows(rows: &[rt_served::CellResult]) {
    println!(
        "{:<18} {:<7} {:>12} {:>20}",
        "config", "scene", "cycles", "state digest"
    );
    for row in rows {
        println!(
            "{:<18} {:<7} {:>12} {:>#20x}",
            row.config, row.scene, row.cycles, row.state_digest
        );
    }
}

fn cmd_client(options: &ClientOptions) -> Result<(), Failure> {
    // The client honors RT_CHAOS too, so a chaos campaign can shake the
    // client side of the protocol without code changes.
    let chaos = rt_served::Chaos::from_env().map_err(|message| Failure { message, code: 2 })?;
    let client = rt_served::Client::with_chaos(options.addr.clone(), &chaos);
    match &options.action {
        ClientAction::Ping => {
            client.ping().map_err(client_failure)?;
            println!("pong from {}", options.addr);
            Ok(())
        }
        ClientAction::Shutdown => {
            client.shutdown().map_err(client_failure)?;
            println!("daemon at {} acknowledged shutdown", options.addr);
            Ok(())
        }
        ClientAction::Status { job } => {
            let status = client.status(*job).map_err(client_failure)?;
            print_job_status(&status);
            Ok(())
        }
        ClientAction::Result { job } => {
            let rows = client.result(*job).map_err(client_failure)?;
            print_job_rows(&rows);
            Ok(())
        }
        ClientAction::Submit { spec, wait } => {
            let submitted = client.submit(spec.clone()).map_err(client_failure)?;
            print_job_status(&submitted);
            let status = if *wait && !submitted.state.is_terminal() {
                let status = client
                    .wait(
                        submitted.job,
                        std::time::Duration::from_millis(200),
                        std::time::Duration::from_secs(24 * 60 * 60),
                    )
                    .map_err(client_failure)?;
                print_job_status(&status);
                status
            } else {
                submitted
            };
            if status.state == rt_served::JobState::Done && *wait {
                let rows = client.result(status.job).map_err(client_failure)?;
                print_job_rows(&rows);
            }
            match status.state {
                rt_served::JobState::Failed | rt_served::JobState::TimedOut => Err(Failure {
                    message: format!(
                        "job {} {}: {}",
                        rt_served::protocol::hex_id(status.job),
                        status.state,
                        status.error.as_deref().unwrap_or("no detail")
                    ),
                    code: 1,
                }),
                _ => Ok(()),
            }
        }
    }
}

fn print_help() {
    println!(
        "treelet-prefetching — RT-unit treelet prefetching simulator (MICRO 2023 reproduction)

USAGE:
  treelet-prefetching scenes
  treelet-prefetching stats --scene CAR [--detail 1.0] [--treelet-bytes 512] [--obj path.obj]
  treelet-prefetching trace --scene CAR --out trace.txt [--config traversal] [--res 32]
  treelet-prefetching run   --scene CAR [--detail 1.0] [--res 32]
                            [--config baseline|traversal|prefetch]
                            [--prefetch none|treelet|mta|ghb]
                            [--heuristic always|partial|pop:<t>]
                            [--scheduler baseline|omr|pmr]
                            [--treelet-bytes N]
                            [--workload primary|diffuse|shadow]
                            [--obj path.obj] [--compare]
                            [--max-cycles N] [--inject-faults SEED]
                            [--checkpoint-every N] [--checkpoint-path FILE]
                            [--digest-log FILE] [--resume]
                            [--telemetry [FILE]] [--telemetry-every N]
                            [--bvh-cache DIR]
  treelet-prefetching suite [--scenes CAR,BUNNY,..] [--config prefetch]
                            [--detail 1.0] [--res 32] [--workload primary]
                            [--jobs N] [--digest-dir DIR] [--max-cycles N]
                            [--bvh-cache DIR]
  treelet-prefetching sweep [--scenes CAR,BUNNY,..]
                            [--configs baseline,prefetch]
                            [--treelet-bytes-list 256,512,1024]
                            [--detail 1.0] [--res 32] [--workload primary]
                            [--jobs N] [--digest-dir DIR] [--max-cycles N]
                            [--bvh-cache DIR]
  treelet-prefetching bisect-divergence LOG_A LOG_B
  treelet-prefetching serve  --addr HOST:PORT --store DIR [--workers N]
                             [--queue-cap N] [--timeout-ms N]
                             [--retries N] [--backoff-ms N] [--chaos SEED]
  treelet-prefetching client ping|submit|status|result|shutdown --addr HOST:PORT
                             [--job 0xID] [--wait] [--scenes CAR,BUNNY,..]
                             [--configs baseline,prefetch] [--detail 0.1]
                             [--res 16] [--workload primary]
                             [--treelet-bytes N] [--max-cycles N]
                             [--timeout-ms N] [--checkpoint-every N]

PREFETCHERS:
  --prefetch KIND      override the base --config's prefetcher: none,
                       treelet (majority-voted treelet prefetch), mta
                       (Lee et al. many-thread-aware stride), or ghb
                       (global history buffer over misses)

PARALLEL EXECUTION:
  suite                run one config across a scene list (default: all
                       scenes, prefetch config) and print per-scene
                       cycles + state digests
  sweep                run the full config grid (--configs crossed with
                       --treelet-bytes-list) across the scene list
  --jobs N             shard independent (scene, config) cells across N
                       worker threads (default: available cores). Results
                       and digest logs are deterministic and bit-identical
                       for every N; `--jobs 1` runs inline with no threads
  --digest-dir DIR     write one digest log per scene into DIR; byte-
                       identical across job counts (CI diffs jobs=1 vs
                       jobs=4 output to enforce the determinism contract)
  --bvh-cache DIR      content-addressed preparation cache: store each
                       scene's built BVH + rays + treelet assignment in
                       DIR keyed by (scene, detail, workload, build
                       params) and reuse on later runs; cached and fresh
                       preparations are bit-identical. The RT_BVH_CACHE
                       environment variable sets a default; corrupt
                       entries self-heal as misses. Not applied to --obj
                       meshes (the key names paper scenes, not files)

ROBUSTNESS:
  --max-cycles N       abort with exit code 3 if the run exceeds N cycles
  --inject-faults SEED deterministic memory-latency fault storm (timing
                       changes; traversal results do not)

CHECKPOINTING:
  --checkpoint-every N   write a crash-safe checkpoint every N cycles
                         (atomic write-then-rename; default path
                         checkpoint.rtsnap, override --checkpoint-path)
  --digest-log FILE      append a per-epoch state digest line alongside
                         each checkpoint, for bisect-divergence
  --resume               resume from the checkpoint at --checkpoint-path;
                         scene/config flags must match the original run,
                         or the run is refused with exit code 5
  bisect-divergence      binary-search two digest logs for the first
                         epoch whose state digests disagree; exit 0 if
                         they agree, 6 on divergence

TELEMETRY:
  --telemetry [FILE]   sample runtime counters every N cycles (warp
                       buffer occupancy, cache hit rates and MSHR
                       pressure, per-channel DRAM load, prefetch
                       useful/late/useless counts) and print a summary;
                       with FILE, also write the full time-series
                       (.json extension selects JSON, anything else CSV).
                       Sampling is read-only: the run's state digest is
                       bit-identical with telemetry on or off. Works
                       with `run` and with `stats` (which then runs the
                       workload once); combinable with checkpointing
  --telemetry-every N  sampling interval in cycles (default 1000)

SERVICE:
  serve                run the rt-served sweep daemon: a line-protocol
                       TCP server with a bounded job queue, per-job
                       wall-clock timeouts, retry with exponential
                       backoff, and a persistent content-addressed
                       result cache under --store. Interrupted jobs
                       (SIGKILL, power loss) resume from checkpoints on
                       restart; identical resubmits are served from
                       cache without re-simulating
  client               talk to a running daemon: ping, submit a sweep
                       (--wait polls to completion and prints the result
                       table), query status/result by --job id, or ask
                       for a clean shutdown
  --chaos SEED         serve only: deterministic fault injection into
                       the daemon's filesystem and socket I/O (short
                       writes, disk-full, failed renames, connection
                       resets, partial reads, delays) from the given
                       seed. Test hook, not for production. The RT_CHAOS
                       env var does the same for serve and client;
                       --chaos wins when both are set

EXIT CODES:
  0 ok · 1 generic error · 2 invalid config/input · 3 cycle budget
  exceeded · 4 no forward progress (livelock) · 5 corrupted or foreign
  checkpoint · 6 digest logs diverge · 7 daemon bind failure · 8 daemon
  store corruption · 9 daemon shutdown on signal"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            // Unparseable or invalid flags are invalid input (exit 2),
            // distinct from generic runtime failures (exit 1).
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<(), Failure> = match command {
        Command::Help => {
            print_help();
            Ok(())
        }
        Command::Scenes => {
            cmd_scenes();
            Ok(())
        }
        Command::Stats(options) => cmd_stats(&options),
        Command::Run(options) => cmd_run(&options),
        Command::Trace(options, out) => cmd_trace(&options, &out),
        Command::Bisect(a, b) => cmd_bisect(&a, &b),
        Command::Suite(options) | Command::Sweep(options) => cmd_sweep(&options),
        // The daemon owns its exit codes (0/7/8/9) — see `cmd_serve`.
        Command::Serve(options) => return cmd_serve(&options),
        Command::Client(options) => cmd_client(&options),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("error: {}", f.message);
            ExitCode::from(f.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    #[test]
    fn trace_requires_out() {
        assert!(parse(&["trace", "--scene", "WKND"]).is_err());
        match parse(&["trace", "--scene", "WKND", "--out", "/tmp/t.txt"]).unwrap() {
            Command::Trace(o, out) => {
                assert_eq!(o.scene, SceneId::Wknd);
                assert_eq!(out, "/tmp/t.txt");
            }
            other => panic!("expected trace, got {other:?}"),
        }
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
    }

    #[test]
    fn scenes_subcommand() {
        assert_eq!(parse(&["scenes"]), Ok(Command::Scenes));
    }

    #[test]
    fn run_with_flags() {
        let cmd = parse(&[
            "run",
            "--scene",
            "car",
            "--detail",
            "0.5",
            "--res",
            "16",
            "--config",
            "prefetch",
            "--heuristic",
            "pop:0.5",
            "--scheduler",
            "omr",
            "--treelet-bytes",
            "1024",
            "--compare",
        ])
        .unwrap();
        match cmd {
            Command::Run(o) => {
                assert_eq!(o.scene, SceneId::Car);
                assert_eq!(o.detail, 0.5);
                assert_eq!(o.res, 16);
                assert_eq!(o.config, ConfigKind::Prefetch);
                assert_eq!(o.heuristic, Some(PrefetchHeuristic::Popularity(0.5)));
                assert_eq!(o.scheduler, Some(SchedulerPolicy::OldestMatchingRay));
                assert_eq!(o.treelet_bytes, 1024);
                assert!(o.compare);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn unknown_scene_is_an_error() {
        assert!(parse(&["run", "--scene", "NOPE"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse(&["run", "--frobnicate"]).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["run", "--scene"]).is_err());
    }

    #[test]
    fn heuristic_parsing() {
        assert_eq!(parse_heuristic("always"), Ok(PrefetchHeuristic::Always));
        assert_eq!(parse_heuristic("partial"), Ok(PrefetchHeuristic::Partial));
        assert_eq!(
            parse_heuristic("pop:0.25"),
            Ok(PrefetchHeuristic::Popularity(0.25))
        );
        assert!(parse_heuristic("pop:1.5").is_err());
        assert!(parse_heuristic("sometimes").is_err());
    }

    #[test]
    fn prefetch_selector_parses() {
        let opts = match parse(&["run", "--prefetch", "ghb"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(opts.prefetch, Some(PrefetchKind::Ghb));
        for (text, kind) in [
            ("none", PrefetchKind::None),
            ("treelet", PrefetchKind::Treelet),
            ("mta", PrefetchKind::Mta),
            ("ghb", PrefetchKind::Ghb),
        ] {
            assert_eq!(PrefetchKind::parse(text), Ok(kind));
        }
        for unknown in ["stride", "hash"] {
            assert!(PrefetchKind::parse(unknown).is_err());
            assert!(parse(&["run", "--prefetch", unknown]).is_err());
        }
    }

    #[test]
    fn prefetch_selector_rewrites_the_config() {
        let opts = match parse(&["run", "--config", "baseline", "--prefetch", "mta"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        let config = build_config(&opts);
        assert_eq!(config.prefetch, PrefetchConfig::Mta);
        config.validate().expect("MTA CLI config validates");

        // `--prefetch treelet` composes with the heuristic setter.
        let opts = match parse(&[
            "run",
            "--config",
            "baseline",
            "--prefetch",
            "treelet",
            "--heuristic",
            "partial",
        ])
        .unwrap()
        {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        let config = build_config(&opts);
        match config.prefetch {
            PrefetchConfig::Treelet { heuristic, .. } => {
                assert_eq!(heuristic, PrefetchHeuristic::Partial);
            }
            other => panic!("expected treelet prefetch config, got {other:?}"),
        }

        // `--prefetch none` strips the prefetcher off a prefetch config.
        let opts = match parse(&["run", "--config", "prefetch", "--prefetch", "none"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(build_config(&opts).prefetch, PrefetchConfig::None);
    }

    #[test]
    fn invalid_detail_and_res_rejected() {
        assert!(parse(&["run", "--detail", "0"]).is_err());
        assert!(parse(&["run", "--detail", "-1"]).is_err());
        // Non-finite details used to slip through the old `<= 0 || NaN`
        // check and panic deep inside scene generation.
        assert!(parse(&["run", "--detail", "inf"]).is_err());
        assert!(parse(&["run", "--detail", "-inf"]).is_err());
        assert!(parse(&["run", "--detail", "NaN"]).is_err());
        assert!(parse(&["run", "--res", "0"]).is_err());
    }

    #[test]
    fn undersized_treelet_budget_rejected_at_parse_time() {
        assert!(parse(&["run", "--treelet-bytes", "0"]).is_err());
        assert!(parse(&["run", "--treelet-bytes", "63"]).is_err());
        assert!(parse(&["stats", "--treelet-bytes", "0"]).is_err());
        assert!(parse(&["run", "--treelet-bytes", "64"]).is_ok());
    }

    #[test]
    fn bvh_cache_flag_parses() {
        let opts = match parse(&["run", "--bvh-cache", "prep"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(opts.bvh_cache.as_deref(), Some("prep"));
        // Default: no flag leaves the decision to RT_BVH_CACHE.
        let opts = match parse(&["run"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(opts.bvh_cache, None);
        // The flag needs a value.
        assert!(parse(&["run", "--bvh-cache"]).is_err());
        assert!(parse(&["sweep", "--bvh-cache"]).is_err());
    }

    #[test]
    fn suite_and_sweep_flags_parse() {
        // Bare suite: every scene, one prefetch column, auto job count.
        let opts = match parse(&["suite"]).unwrap() {
            Command::Suite(o) => o,
            other => panic!("expected suite, got {other:?}"),
        };
        assert_eq!(opts.scenes, SceneId::ALL.to_vec());
        assert_eq!(opts.configs, vec![ConfigKind::Prefetch]);
        assert_eq!(opts.jobs, None);

        let opts = match parse(&[
            "suite",
            "--scenes",
            "CAR,BUNNY",
            "--config",
            "baseline",
            "--jobs",
            "3",
            "--digest-dir",
            "logs",
            "--max-cycles",
            "5000",
            "--bvh-cache",
            "prep-cache",
        ])
        .unwrap()
        {
            Command::Suite(o) => o,
            other => panic!("expected suite, got {other:?}"),
        };
        assert_eq!(opts.scenes, vec![SceneId::Car, SceneId::Bunny]);
        assert_eq!(opts.configs, vec![ConfigKind::Baseline]);
        assert_eq!(opts.jobs, Some(3));
        assert_eq!(opts.digest_dir.as_deref(), Some("logs"));
        assert_eq!(opts.max_cycles, Some(5000));
        assert_eq!(opts.bvh_cache.as_deref(), Some("prep-cache"));

        // Sweep defaults to the baseline-vs-prefetch grid and accepts
        // the grid-only list flags.
        let opts = match parse(&["sweep"]).unwrap() {
            Command::Sweep(o) => o,
            other => panic!("expected sweep, got {other:?}"),
        };
        assert_eq!(
            opts.configs,
            vec![ConfigKind::Baseline, ConfigKind::Prefetch]
        );
        let opts = match parse(&[
            "sweep",
            "--configs",
            "baseline,prefetch",
            "--treelet-bytes-list",
            "256,512",
        ])
        .unwrap()
        {
            Command::Sweep(o) => o,
            other => panic!("expected sweep, got {other:?}"),
        };
        assert_eq!(opts.treelet_bytes, vec![256, 512]);
        assert_eq!(sweep_grid(&opts).len(), 4);
        // With several budgets every column label carries its budget.
        assert_eq!(sweep_grid(&opts)[0].0, "baseline/256B");

        // Bad input is rejected at parse time, not at run time.
        assert!(parse(&["suite", "--jobs", "0"]).is_err());
        assert!(parse(&["suite", "--jobs", "lots"]).is_err());
        assert!(parse(&["suite", "--scenes", "CAR,NOPE"]).is_err());
        assert!(parse(&["suite", "--configs", "baseline"]).is_err()); // grid-only flag
        assert!(parse(&["sweep", "--config", "baseline"]).is_err()); // suite-only flag
        assert!(parse(&["sweep", "--treelet-bytes-list", "0"]).is_err());
        assert!(parse(&["sweep", "--configs", ""]).is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        // Bare --telemetry: summary only, default interval.
        let opts = match parse(&["run", "--telemetry"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert!(opts.telemetry);
        assert_eq!(opts.telemetry_path, None);
        let t = telemetry_options(&opts).unwrap().expect("telemetry on");
        assert_eq!(t.every, DEFAULT_TELEMETRY_EVERY);
        // --telemetry FILE captures the path; a following flag does not.
        let opts = match parse(&["run", "--telemetry", "out.csv", "--res", "8"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(opts.telemetry_path.as_deref(), Some("out.csv"));
        assert_eq!(opts.res, 8);
        let opts = match parse(&["stats", "--telemetry", "--res", "8"]).unwrap() {
            Command::Stats(o) => o,
            other => panic!("expected stats, got {other:?}"),
        };
        assert!(opts.telemetry);
        assert_eq!(opts.telemetry_path, None);
        assert_eq!(opts.res, 8);
        // Interval plumbing and its zero rejection.
        let opts = match parse(&["run", "--telemetry", "--telemetry-every", "250"]).unwrap() {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(telemetry_options(&opts).unwrap().unwrap().every, 250);
        assert!(parse(&["run", "--telemetry", "--telemetry-every", "0"]).is_err());
    }

    #[test]
    fn telemetry_conflicts_are_rejected() {
        // --telemetry-every without --telemetry.
        let lonely = Options {
            telemetry_every: Some(100),
            ..Options::default()
        };
        assert!(telemetry_options(&lonely).is_err());
        // Telemetry and checkpointing compose now that the session owns
        // both: sampling stays read-only across checkpoint epochs.
        let both = Options {
            telemetry: true,
            checkpoint_every: Some(1000),
            ..Options::default()
        };
        assert!(telemetry_options(&both).unwrap().is_some());
        // No telemetry flags at all: no telemetry.
        assert_eq!(telemetry_options(&Options::default()).unwrap(), None);
    }

    #[test]
    fn config_builds_from_options() {
        let mut options = Options {
            config: ConfigKind::Baseline,
            ..Options::default()
        };
        let c = build_config(&options);
        assert!(!c.prefetch.is_enabled());
        options.config = ConfigKind::Prefetch;
        options.heuristic = Some(PrefetchHeuristic::Partial);
        options.treelet_bytes = 256;
        let c = build_config(&options);
        assert!(c.prefetch.is_enabled());
        assert_eq!(c.treelet_bytes, 256);
        c.validate().unwrap();
    }

    #[test]
    fn robustness_flags_parse_and_apply() {
        let cmd = parse(&[
            "run",
            "--scene",
            "car",
            "--max-cycles",
            "5000",
            "--inject-faults",
            "7",
        ])
        .unwrap();
        let options = match cmd {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(options.max_cycles, Some(5000));
        assert_eq!(options.inject_faults, Some(7));
        let config = build_config(&options);
        assert_eq!(config.max_cycles, 5000);
        let faults = config.mem.fault_injection.expect("faults configured");
        assert_eq!(faults.seed, 7);
        assert!(parse(&["run", "--max-cycles", "0"]).is_err());
        assert!(parse(&["run", "--max-cycles", "lots"]).is_err());
        assert!(parse(&["run", "--inject-faults", "-1"]).is_err());
    }

    #[test]
    fn failures_map_sim_errors_to_exit_codes() {
        let f = Failure::from(SimError::EmptyInput { what: "ray" });
        assert_eq!(f.code, 2);
        assert!(f.message.contains("need at least one ray"));
        let snapshot = || treelet_prefetching::treelet::ProgressSnapshot {
            cycle: 1,
            rays_remaining: 1,
            warp_buffer_occupancy: vec![],
            outstanding_requests: 0,
            outstanding_request_ids: vec![],
            l2_queue_depth: 0,
            dram_in_flight: 0,
            prefetch_queue_depths: vec![],
        };
        let f = Failure::from(SimError::CycleLimitExceeded {
            limit: 1,
            snapshot: snapshot(),
        });
        assert_eq!(f.code, 3);
        let f = Failure::from(SimError::NoForwardProgress {
            window: 1,
            snapshot: snapshot(),
        });
        assert_eq!(f.code, 4);
        let f = Failure::from(SimError::Snapshot(
            treelet_prefetching::treelet::SnapshotError::IdentityMismatch {
                expected: 1,
                found: 2,
            },
        ));
        assert_eq!(f.code, 5);
        assert!(f.message.contains("different run"));
        let f = Failure::from("plain error".to_string());
        assert_eq!(f.code, 1);
    }

    #[test]
    fn checkpoint_flags_parse_and_assemble() {
        let cmd = parse(&[
            "run",
            "--scene",
            "car",
            "--checkpoint-every",
            "5000",
            "--checkpoint-path",
            "/tmp/car.rtsnap",
            "--digest-log",
            "/tmp/car.digests",
            "--resume",
        ])
        .unwrap();
        let options = match cmd {
            Command::Run(o) => o,
            other => panic!("expected run, got {other:?}"),
        };
        assert!(options.resume);
        let ck = checkpoint_options(&options)
            .unwrap()
            .expect("checkpointing");
        assert_eq!(ck.every, 5000);
        assert_eq!(ck.path, std::path::Path::new("/tmp/car.rtsnap"));
        assert_eq!(
            ck.digest_log.as_deref(),
            Some(std::path::Path::new("/tmp/car.digests"))
        );
        // No checkpoint flags at all: no checkpointing.
        assert_eq!(checkpoint_options(&Options::default()).unwrap(), None);
        // --resume alone implies checkpointing at the default path.
        let implied = checkpoint_options(&Options {
            resume: true,
            ..Options::default()
        })
        .unwrap()
        .expect("implied");
        assert_eq!(implied.path, std::path::Path::new("checkpoint.rtsnap"));
        // An orphan --digest-log is rejected; a zero interval is too.
        assert!(checkpoint_options(&Options {
            digest_log: Some("x".into()),
            ..Options::default()
        })
        .is_err());
        assert!(parse(&["run", "--checkpoint-every", "0"]).is_err());
    }

    #[test]
    fn bisect_takes_exactly_two_logs() {
        match parse(&["bisect-divergence", "a.log", "b.log"]).unwrap() {
            Command::Bisect(a, b) => {
                assert_eq!(a, "a.log");
                assert_eq!(b, "b.log");
            }
            other => panic!("expected bisect, got {other:?}"),
        }
        assert!(parse(&["bisect-divergence", "a.log"]).is_err());
        assert!(parse(&["bisect-divergence", "a", "b", "c"]).is_err());
    }

    #[test]
    fn bisect_reports_missing_and_divergent_logs() {
        let dir = std::env::temp_dir().join(format!("treelet-cli-bisect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.digests");
        let b = dir.join("b.digests");
        let missing = cmd_bisect(a.to_str().unwrap(), b.to_str().unwrap()).unwrap_err();
        assert_eq!(missing.code, 5);
        std::fs::write(
            &a,
            "epoch=0 cycle=100 digest=0x1 rays_remaining=9\n\
             epoch=1 cycle=200 digest=0x2 rays_remaining=5\n",
        )
        .unwrap();
        std::fs::write(
            &b,
            "epoch=0 cycle=100 digest=0x1 rays_remaining=9\n\
             epoch=1 cycle=200 digest=0xff rays_remaining=5\n",
        )
        .unwrap();
        let diverged = cmd_bisect(a.to_str().unwrap(), b.to_str().unwrap()).unwrap_err();
        assert_eq!(diverged.code, 6);
        assert!(diverged.message.contains("epoch 1"));
        std::fs::copy(&a, &b).unwrap();
        cmd_bisect(a.to_str().unwrap(), b.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_parses_chaos_seeds_and_rejects_garbage() {
        match parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            "/tmp/s",
            "--chaos",
            "42",
        ])
        .unwrap()
        {
            Command::Serve(options) => assert_eq!(options.chaos, Some(42)),
            other => panic!("expected serve, got {other:?}"),
        }
        match parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            "/tmp/s",
            "--chaos",
            "0x2a",
        ])
        .unwrap()
        {
            Command::Serve(options) => assert_eq!(options.chaos, Some(0x2a)),
            other => panic!("expected serve, got {other:?}"),
        }
        let err = parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            "/tmp/s",
            "--chaos",
            "entropy",
        ])
        .unwrap_err();
        assert!(err.contains("--chaos"), "{err}");
        // Chaos stays opt-in: absent flag parses to none.
        match parse(&["serve", "--addr", "127.0.0.1:0", "--store", "/tmp/s"]).unwrap() {
            Command::Serve(options) => assert_eq!(options.chaos, None),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn obj_scene_builds() {
        let path = std::env::temp_dir().join("treelet_cli_test.obj");
        std::fs::write(&path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n").unwrap();
        let options = Options {
            obj: Some(path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        let scene = build_scene(&options).unwrap();
        assert_eq!(scene.mesh.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_obj_file_is_an_error() {
        let options = Options {
            obj: Some("/nonexistent/file.obj".into()),
            ..Options::default()
        };
        assert!(build_scene(&options).is_err());
    }
}
