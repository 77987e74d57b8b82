//! The job supervisor: a bounded queue, a worker pool, and the
//! robustness policy (timeouts, retry with backoff, crash resume).
//!
//! Each job is a sweep over (scene × config) cells. Cells run on
//! dedicated threads so the supervising worker can enforce a wall-clock
//! budget with `recv_timeout` — a cell that blows its budget is
//! abandoned (the thread keeps running detached and still caches its
//! result if it ever finishes; the deterministic store makes that a
//! harmless prefill) and the job reports [`JobError::TimedOut`] without
//! disturbing concurrent jobs.
//!
//! Transient failures — a panicking worker, an I/O error while
//! checkpointing — are retried with exponential backoff.
//! Deterministic simulation failures are not retried: re-running the
//! same inputs would fail identically.
//!
//! Every lifecycle transition is journaled through the store *before*
//! it takes effect in memory, so a SIGKILL at any instant leaves a
//! journal from which [`Supervisor::start`] re-enqueues interrupted
//! jobs; completed cells are already cached and are skipped on resume,
//! and the in-progress cell resumes from its checkpoint.

use crate::protocol::{CellResult, JobSpec, JobState, JobStatus};
use crate::store::{ArtifactStore, StoreError, StoreLock};
use rt_scene::{SceneId, Workload, WorkloadKind};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};
use treelet_rt::{
    catch_job_panic, decode_prepared_bench, encode_prepared_bench, panic_message,
    prepare_cache_key, Bench, CheckpointOptions, SimConfig,
};

/// Locks a mutex, recovering from poisoning.
///
/// A thread that panics while holding one of the supervisor's locks
/// must surface as that job's typed failure, not cascade the whole
/// daemon down with lock-poisoning panics. Recovery is sound here
/// because every guarded update is a single assignment over coarse
/// state (counters, state enums, queued ids) — an unwound holder leaves
/// the map consistent, at worst a little stale, and the journal remains
/// the durable source of truth.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for the supervisor.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Concurrent jobs (worker threads).
    pub workers: usize,
    /// Queue slots; a submit past this is load-shed with a typed Busy.
    pub queue_cap: usize,
    /// Per-job wall-clock budget when the spec does not override it.
    pub default_timeout_ms: u64,
    /// Retries after the first attempt of a transiently failing cell.
    pub max_retries: u32,
    /// Base backoff delay; attempt *n* waits `base << (n-1)`, capped at
    /// five seconds.
    pub backoff_base_ms: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            queue_cap: 32,
            default_timeout_ms: 300_000,
            max_retries: 2,
            backoff_base_ms: 100,
        }
    }
}

/// Why a job stopped without completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's wall-clock budget expired.
    TimedOut { budget_ms: u64 },
    /// A cell failed (after retries, when the failure was transient).
    Cell {
        scene: String,
        config: String,
        attempts: u32,
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TimedOut { budget_ms } => {
                write!(f, "job exceeded its {budget_ms} ms wall-clock budget")
            }
            JobError::Cell {
                scene,
                config,
                attempts,
                message,
            } => write!(
                f,
                "cell {scene}/{config} failed after {attempts} attempt(s): {message}"
            ),
        }
    }
}

/// Why a submit was rejected.
#[derive(Debug)]
pub enum SubmitRejection {
    /// The queue is full; the client should back off and retry.
    Busy { queue_cap: usize },
    /// The spec failed validation.
    Invalid { message: String },
    /// The journal could not be written.
    Store(StoreError),
}

impl fmt::Display for SubmitRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitRejection::Busy { queue_cap } => {
                write!(f, "queue full ({queue_cap} jobs); retry later")
            }
            SubmitRejection::Invalid { message } => write!(f, "invalid job spec: {message}"),
            SubmitRejection::Store(e) => write!(f, "cannot journal job: {e}"),
        }
    }
}

/// Why a result fetch failed.
#[derive(Debug)]
pub enum ResultError {
    /// No such job.
    UnknownJob,
    /// The job exists but has not completed.
    NotDone {
        state: JobState,
        error: Option<String>,
    },
    /// A cell of a done job is missing from the cache (store tampering).
    MissingCell { cell: u64 },
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    cells_done: usize,
    error: Option<String>,
    cached: bool,
}

struct Shared {
    store: ArtifactStore,
    cfg: SupervisorConfig,
    queue: Mutex<VecDeque<u64>>,
    wake: Condvar,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    shutdown: AtomicBool,
}

/// The running supervisor. Dropping it without calling
/// [`Supervisor::shutdown`] detaches the workers (the process is
/// exiting anyway); the journal protects the work either way.
pub struct Supervisor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Exclusive ownership of the store, released at shutdown (or drop).
    lock: Mutex<Option<StoreLock>>,
}

impl Supervisor {
    /// Takes the store's exclusive lock, opens the journal, re-enqueues
    /// any job the previous process left `queued` or `running`, and
    /// starts the worker pool.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] if another live daemon owns the store,
    /// and [`StoreError`] if the journal is unreadable or corrupt —
    /// startup must fail loudly rather than silently drop journaled
    /// work or interleave writes with a concurrent daemon.
    pub fn start(store: ArtifactStore, cfg: SupervisorConfig) -> Result<Supervisor, StoreError> {
        let lock = store.lock()?;
        let journaled = store.load_jobs()?;
        let shared = Arc::new(Shared {
            store,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });

        for job in journaled {
            let cells_done = count_cached_cells(&shared.store, &job.spec);
            let resume = !job.state.is_terminal();
            let state = if resume { JobState::Queued } else { job.state };
            if resume {
                // Re-journal as queued so a crash between here and the
                // worker picking it up changes nothing.
                shared
                    .store
                    .journal_job(job.id, &job.spec, JobState::Queued, None)?;
            }
            relock(&shared.jobs).insert(
                job.id,
                JobRecord {
                    spec: job.spec,
                    state,
                    cells_done,
                    error: job.error,
                    cached: false,
                },
            );
            if resume {
                relock(&shared.queue).push_back(job.id);
            }
        }

        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Supervisor {
            shared,
            workers: Mutex::new(workers),
            lock: Mutex::new(Some(lock)),
        })
    }

    /// Submits a job: validates, content-addresses, and either returns
    /// the existing/cached status or journals and enqueues it.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection::Invalid`] for bad specs,
    /// [`SubmitRejection::Busy`] when the queue is full, and
    /// [`SubmitRejection::Store`] when the journal write fails.
    pub fn submit(&self, spec: JobSpec) -> Result<JobStatus, SubmitRejection> {
        if let Err(message) = validate_spec(&spec) {
            return Err(SubmitRejection::Invalid { message });
        }
        let id = spec.identity();
        let shared = &self.shared;
        let mut jobs = relock(&shared.jobs);

        if let Some(record) = jobs.get(&id) {
            // Queued/running/done: the earlier submission answers this
            // one. Failed/timed-out: fall through and requeue a fresh
            // attempt below.
            if !record.state.is_terminal() || record.state == JobState::Done {
                let mut status = status_of(id, record);
                // A submit answered by an already-done job never
                // simulated anything on this request: that is a cache
                // hit from the submitter's point of view, whichever
                // process originally ran the job.
                status.cached |= record.state == JobState::Done;
                return Ok(status);
            }
        }

        // Full cache hit: every cell already has a result, so the job
        // completes at submit time without touching the queue.
        let cells = spec.cells();
        let cells_done = count_cached_cells(&shared.store, &spec);
        if cells_done == cells.len() {
            shared
                .store
                .journal_job(id, &spec, JobState::Done, None)
                .map_err(SubmitRejection::Store)?;
            let record = JobRecord {
                spec,
                state: JobState::Done,
                cells_done,
                error: None,
                cached: true,
            };
            let status = status_of(id, &record);
            jobs.insert(id, record);
            return Ok(status);
        }

        {
            let queue = relock(&shared.queue);
            if queue.len() >= shared.cfg.queue_cap {
                return Err(SubmitRejection::Busy {
                    queue_cap: shared.cfg.queue_cap,
                });
            }
        }
        shared
            .store
            .journal_job(id, &spec, JobState::Queued, None)
            .map_err(SubmitRejection::Store)?;
        let record = JobRecord {
            spec,
            state: JobState::Queued,
            cells_done,
            error: None,
            cached: false,
        };
        let status = status_of(id, &record);
        jobs.insert(id, record);
        drop(jobs);
        relock(&shared.queue).push_back(id);
        shared.wake.notify_one();
        Ok(status)
    }

    /// A job's current status, or `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let jobs = relock(&self.shared.jobs);
        jobs.get(&id).map(|record| status_of(id, record))
    }

    /// A completed job's cell results, in the spec's cell order.
    ///
    /// # Errors
    ///
    /// [`ResultError::UnknownJob`], [`ResultError::NotDone`], or
    /// [`ResultError::MissingCell`] if the cache was tampered with.
    pub fn result(&self, id: u64) -> Result<Vec<CellResult>, ResultError> {
        let (spec, state, error) = {
            let jobs = relock(&self.shared.jobs);
            let record = jobs.get(&id).ok_or(ResultError::UnknownJob)?;
            (record.spec.clone(), record.state, record.error.clone())
        };
        if state != JobState::Done {
            return Err(ResultError::NotDone { state, error });
        }
        spec.cells()
            .iter()
            .map(|(scene, config)| {
                let key = spec.cell_identity(scene, config);
                self.shared
                    .store
                    .read_cell_result(key)
                    .ok_or(ResultError::MissingCell { cell: key })
            })
            .collect()
    }

    /// Blocks until job `id` reaches a terminal state or `budget`
    /// elapses — the driver the crash-point harness uses to run one
    /// daemon lifecycle to quiescence without a TCP round trip per
    /// poll. Returns `None` for unknown ids and expired budgets.
    pub fn wait_terminal(&self, id: u64, poll: Duration, budget: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + budget;
        loop {
            let status = self.status(id)?;
            if status.state.is_terminal() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return None;
            }
            thread::sleep(poll);
        }
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        relock(&self.shared.queue).len()
    }

    /// Stops accepting work and joins the workers.
    ///
    /// In-flight cells are abandoned mid-run; their jobs stay journaled
    /// as `running` and resume from checkpoints on the next
    /// [`Supervisor::start`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        let workers = std::mem::take(&mut *relock(&self.workers));
        for handle in workers {
            let _ = handle.join();
        }
        // Release the store for the next daemon only after the workers
        // can no longer write to it.
        relock(&self.lock).take();
    }
}

fn status_of(id: u64, record: &JobRecord) -> JobStatus {
    JobStatus {
        job: id,
        state: record.state,
        cells_total: record.spec.cells().len() as u64,
        cells_done: record.cells_done as u64,
        error: record.error.clone(),
        cached: record.cached,
    }
}

fn count_cached_cells(store: &ArtifactStore, spec: &JobSpec) -> usize {
    spec.cells()
        .iter()
        .filter(|(scene, config)| {
            store
                .read_cell_result(spec.cell_identity(scene, config))
                .is_some()
        })
        .count()
}

/// Validates a spec against the simulator's registries. Returns a
/// human-readable complaint on failure.
fn validate_spec(spec: &JobSpec) -> Result<(), String> {
    if spec.scenes.is_empty() {
        return Err("`scenes` must name at least one scene".to_string());
    }
    for scene in &spec.scenes {
        if SceneId::from_name(scene).is_none() {
            return Err(format!("unknown scene `{scene}`"));
        }
    }
    if spec.configs.is_empty() {
        return Err("`configs` must name at least one config".to_string());
    }
    for config in &spec.configs {
        if build_config(config, spec).is_none() {
            return Err(format!(
                "unknown config `{config}` (expected baseline | traversal | prefetch)"
            ));
        }
    }
    if !(spec.detail.is_finite() && spec.detail > 0.0) {
        return Err(format!("detail {} is not a positive number", spec.detail));
    }
    if spec.res == 0 || spec.res > 4096 {
        return Err(format!("res {} is not in 1..=4096", spec.res));
    }
    if workload_kind(&spec.workload).is_none() {
        return Err(format!(
            "unknown workload `{}` (expected primary | diffuse | shadow)",
            spec.workload
        ));
    }
    if spec.treelet_bytes < 64 {
        return Err(format!(
            "treelet_bytes {} is below the 64-byte node size",
            spec.treelet_bytes
        ));
    }
    if spec.checkpoint_every == 0 {
        return Err("checkpoint_every must be nonzero".to_string());
    }
    Ok(())
}

fn workload_kind(name: &str) -> Option<WorkloadKind> {
    Some(match name {
        "primary" => WorkloadKind::Primary,
        "diffuse" => WorkloadKind::Diffuse,
        "shadow" => WorkloadKind::Shadow,
        _ => return None,
    })
}

fn build_config(name: &str, spec: &JobSpec) -> Option<SimConfig> {
    let mut config = match name {
        "baseline" => SimConfig::paper_baseline(),
        "traversal" => SimConfig::paper_treelet_traversal_only(),
        "prefetch" => SimConfig::paper_treelet_prefetch(),
        _ => return None,
    };
    config.treelet_bytes = spec.treelet_bytes;
    if let Some(max_cycles) = spec.max_cycles {
        config.max_cycles = max_cycles;
    }
    Some(config)
}

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut queue = relock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        run_job(shared, id);
    }
}

/// Transitions a job's state in memory and in the journal. Journal
/// write failures are swallowed here — the in-memory state still
/// serves clients, and the worst crash outcome is a redundant re-run.
fn transition(shared: &Shared, id: u64, state: JobState, error: Option<&JobError>) {
    let mut jobs = relock(&shared.jobs);
    if let Some(record) = jobs.get_mut(&id) {
        record.state = state;
        record.error = error.map(|e| e.to_string());
        let spec = record.spec.clone();
        drop(jobs);
        let message = error.map(|e| e.to_string());
        let _ = shared
            .store
            .journal_job(id, &spec, state, message.as_deref());
    }
}

fn run_job(shared: &Shared, id: u64) {
    let spec = match relock(&shared.jobs).get(&id) {
        Some(record) => record.spec.clone(),
        None => return,
    };
    transition(shared, id, JobState::Running, None);

    let budget_ms = spec.timeout_ms.unwrap_or(shared.cfg.default_timeout_ms);
    let deadline = Instant::now() + Duration::from_millis(budget_ms);

    for (index, (scene, config)) in spec.cells().into_iter().enumerate() {
        let key = spec.cell_identity(&scene, &config);
        if shared.store.read_cell_result(key).is_some() {
            bump_cells_done(shared, id);
            continue;
        }

        let mut attempts = 0u32;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                // Leave the journal saying `running`; the next start
                // re-enqueues and resumes from the checkpoint.
                return;
            }
            attempts += 1;
            let outcome = match run_cell_with_deadline(
                shared, &spec, index, &scene, &config, key, deadline,
            ) {
                CellOutcome::Done => {
                    bump_cells_done(shared, id);
                    break;
                }
                CellOutcome::Abandoned => return,
                CellOutcome::TimedOut => {
                    transition(
                        shared,
                        id,
                        JobState::TimedOut,
                        Some(&JobError::TimedOut { budget_ms }),
                    );
                    return;
                }
                CellOutcome::Failed(failure) => failure,
            };
            let out_of_retries = attempts > shared.cfg.max_retries;
            if !outcome.transient || out_of_retries {
                transition(
                    shared,
                    id,
                    JobState::Failed,
                    Some(&JobError::Cell {
                        scene,
                        config,
                        attempts,
                        message: outcome.message,
                    }),
                );
                return;
            }
            backoff(shared, attempts);
        }
    }
    transition(shared, id, JobState::Done, None);
}

fn bump_cells_done(shared: &Shared, id: u64) {
    if let Some(record) = relock(&shared.jobs).get_mut(&id) {
        record.cells_done += 1;
    }
}

/// Exponential backoff before a retry: `base << (attempt-1)`, capped at
/// five seconds, sliced so shutdown stays responsive.
fn backoff(shared: &Shared, attempt: u32) {
    let base = shared.cfg.backoff_base_ms.max(1);
    let delay_ms = base
        .saturating_mul(1u64 << (attempt - 1).min(16))
        .min(5_000);
    let until = Instant::now() + Duration::from_millis(delay_ms);
    while Instant::now() < until {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

enum CellOutcome {
    Done,
    TimedOut,
    /// Shutdown was requested while the cell ran.
    Abandoned,
    Failed(CellFailure),
}

struct CellFailure {
    transient: bool,
    message: String,
}

/// Runs one cell on a dedicated thread, supervising it against the
/// job's deadline in 50 ms slices. On timeout the thread is abandoned,
/// not killed: if it eventually finishes, it writes its (deterministic)
/// result into the cache, which only helps a future resubmit.
fn run_cell_with_deadline(
    shared: &Shared,
    spec: &JobSpec,
    cell_index: usize,
    scene: &str,
    config: &str,
    key: u64,
    deadline: Instant,
) -> CellOutcome {
    let (tx, rx) = mpsc::channel::<Result<(), CellFailure>>();
    {
        let store = shared.store.clone();
        let spec = spec.clone();
        let scene = scene.to_string();
        let config = config.to_string();
        thread::spawn(move || {
            let outcome = run_cell(&store, &spec, cell_index, &scene, &config, key);
            let _ = tx.send(outcome);
        });
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Ok(())) => return CellOutcome::Done,
            Ok(Err(failure)) => return CellOutcome::Failed(failure),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return CellOutcome::Abandoned;
                }
                if Instant::now() >= deadline {
                    return CellOutcome::TimedOut;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return CellOutcome::Failed(CellFailure {
                    transient: true,
                    message: "cell thread vanished without reporting".to_string(),
                })
            }
        }
    }
}

/// Prepares a cell's bench through the store's preparation-artifact
/// cache: a valid cached `RTBVH01` entry skips scene generation, BVH
/// construction, and ray generation; a miss (or a corrupt entry, which
/// self-heals) builds fresh and repopulates the cache, so every later
/// cell — and every resubmitted job — sharing this (scene, detail,
/// workload) skips the build entirely. Bad spec inputs surface as
/// fatal typed failures via [`Bench::try_prepare`].
fn prepare_bench_cached(
    store: &ArtifactStore,
    scene_id: SceneId,
    detail: f32,
    workload: Workload,
) -> Result<Bench, CellFailure> {
    let key = prepare_cache_key(scene_id, detail, &workload);
    if let Some(bytes) = store.read_bvh_artifact(key) {
        match decode_prepared_bench(scene_id, key, &bytes) {
            Ok((bench, _assignment)) => return Ok(bench),
            Err(_) => store.remove_bvh_artifact(key),
        }
    }
    let bench = Bench::try_prepare(scene_id, detail, workload).map_err(|e| CellFailure {
        transient: false,
        message: e.to_string(),
    })?;
    // Population is best-effort: a store that cannot take the artifact
    // (full disk, injected fault) costs future build time, never this
    // cell's result.
    let _ = store.write_bvh_artifact(key, &encode_prepared_bench(&bench, key));
    Ok(bench)
}

/// Builds and simulates one cell, caching the result on success. Runs
/// on the cell thread; panics are contained at this boundary into
/// typed `WorkerPanicked` errors.
fn run_cell(
    store: &ArtifactStore,
    spec: &JobSpec,
    cell_index: usize,
    scene: &str,
    config: &str,
    key: u64,
) -> Result<(), CellFailure> {
    let fatal = |message: String| CellFailure {
        transient: false,
        message,
    };
    let scene_id =
        SceneId::from_name(scene).ok_or_else(|| fatal(format!("unknown scene `{scene}`")))?;
    let sim_config =
        build_config(config, spec).ok_or_else(|| fatal(format!("unknown config `{config}`")))?;
    let kind = workload_kind(&spec.workload)
        .ok_or_else(|| fatal(format!("unknown workload `{}`", spec.workload)))?;
    store.ensure_cell_dir(key).map_err(|e| CellFailure {
        transient: true,
        message: e.to_string(),
    })?;

    let detail = spec.detail;
    let workload = Workload::new(kind, spec.res, spec.res);
    let opts = CheckpointOptions::new(spec.checkpoint_every, store.checkpoint_path(key))
        .with_digest_log(store.digest_log_path(key));
    // Preparation first, through the store's BVH artifact cache and
    // the fallible path: a bad detail in a job spec is a fatal typed
    // failure for this cell, not a daemon-thread panic. Panics from
    // deeper in scene/BVH construction are still contained.
    let prepared = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        prepare_bench_cached(store, scene_id, detail, workload)
    }));
    let bench = match prepared {
        Ok(Ok(bench)) => bench,
        Ok(Err(failure)) => return Err(failure),
        Err(payload) => {
            return Err(CellFailure {
                transient: true,
                message: format!("job {cell_index} panicked: {}", panic_message(&*payload)),
            })
        }
    };
    // The closure's Err type is the simulator's SimError (128+ bytes
    // with its ProgressSnapshot payload); one cell runs per thread, so
    // the large-variant cost is irrelevant here.
    #[allow(clippy::result_large_err)]
    let outcome = catch_job_panic(cell_index, || bench.try_run_resumable(&sim_config, &opts));
    match outcome {
        Ok(result) => {
            let cell = CellResult {
                cell: key,
                scene: scene.to_string(),
                config: config.to_string(),
                cycles: result.cycles,
                rays: result.rays as u64,
                state_digest: result.state_digest,
            };
            store.write_cell_result(&cell).map_err(|e| CellFailure {
                transient: true,
                message: e.to_string(),
            })?;
            Ok(())
        }
        Err(e) => Err(CellFailure {
            transient: e.is_transient(),
            message: e.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("rt-served-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open store")
    }

    fn tiny_spec() -> JobSpec {
        JobSpec {
            scenes: vec!["WKND".to_string()],
            configs: vec!["prefetch".to_string()],
            detail: 0.05,
            res: 4,
            workload: "primary".to_string(),
            treelet_bytes: 512,
            max_cycles: None,
            timeout_ms: None,
            checkpoint_every: 5_000,
        }
    }

    fn wait_terminal(sup: &Supervisor, id: u64) -> JobStatus {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = sup.status(id).expect("job known");
            if status.state.is_terminal() {
                return status;
            }
            assert!(Instant::now() < deadline, "job {id:#x} never finished");
            thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn runs_a_job_and_serves_the_resubmit_from_cache() {
        let store = temp_store("cache");
        let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
        let spec = tiny_spec();

        let status = sup.submit(spec.clone()).unwrap();
        assert!(!status.cached);
        let done = wait_terminal(&sup, status.job);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.cells_done, 1);
        let rows = sup.result(status.job).unwrap();
        assert_eq!(rows.len(), 1);
        sup.shutdown();

        // A fresh supervisor over the same store answers the identical
        // spec at submit time, from cache, without re-running.
        let sup2 = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
        let hit = sup2.submit(spec).unwrap();
        assert_eq!(hit.state, JobState::Done);
        assert!(hit.cached, "identical resubmit must be a cache hit");
        assert_eq!(sup2.result(hit.job).unwrap(), rows, "same cached rows");
        sup2.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn invalid_specs_are_rejected_with_reasons() {
        let store = temp_store("invalid");
        let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
        let cases: Vec<(JobSpec, &str)> = vec![
            (
                JobSpec {
                    scenes: vec![],
                    ..tiny_spec()
                },
                "at least one scene",
            ),
            (
                JobSpec {
                    scenes: vec!["NOPE".to_string()],
                    ..tiny_spec()
                },
                "unknown scene",
            ),
            (
                JobSpec {
                    configs: vec!["warp-drive".to_string()],
                    ..tiny_spec()
                },
                "unknown config",
            ),
            (
                JobSpec {
                    detail: -1.0,
                    ..tiny_spec()
                },
                "positive",
            ),
            (
                JobSpec {
                    res: 0,
                    ..tiny_spec()
                },
                "res",
            ),
            (
                JobSpec {
                    workload: "bounce".to_string(),
                    ..tiny_spec()
                },
                "unknown workload",
            ),
            (
                JobSpec {
                    treelet_bytes: 8,
                    ..tiny_spec()
                },
                "treelet_bytes",
            ),
            (
                JobSpec {
                    checkpoint_every: 0,
                    ..tiny_spec()
                },
                "checkpoint_every",
            ),
        ];
        for (spec, needle) in cases {
            match sup.submit(spec) {
                Err(SubmitRejection::Invalid { message }) => {
                    assert!(message.contains(needle), "`{message}` mentions {needle}")
                }
                other => panic!("expected Invalid({needle}), got {other:?}"),
            }
        }
        sup.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn timed_out_job_reports_timeout_while_others_complete() {
        let store = temp_store("timeout");
        let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();

        // A 1 ms budget on a scene that takes ~2 s: must time out.
        let doomed = JobSpec {
            scenes: vec!["CAR".to_string()],
            detail: 1.0,
            res: 256,
            timeout_ms: Some(1),
            ..tiny_spec()
        };
        // A normal tiny job submitted alongside: must be unaffected.
        let fine = tiny_spec();

        let doomed_id = sup.submit(doomed).unwrap().job;
        let fine_id = sup.submit(fine).unwrap().job;

        let doomed_status = wait_terminal(&sup, doomed_id);
        assert_eq!(doomed_status.state, JobState::TimedOut);
        let message = doomed_status.error.expect("timeout carries an error");
        assert!(message.contains("wall-clock budget"), "{message}");
        assert!(matches!(
            sup.result(doomed_id),
            Err(ResultError::NotDone {
                state: JobState::TimedOut,
                ..
            })
        ));

        let fine_status = wait_terminal(&sup, fine_id);
        assert_eq!(
            fine_status.state,
            JobState::Done,
            "a concurrent job must not be disturbed by another job's timeout"
        );
        sup.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn queue_overflow_sheds_load_with_typed_busy() {
        let store = temp_store("busy");
        // One worker, one queue slot, and a job slow enough to occupy
        // the worker while we overfill the queue.
        let cfg = SupervisorConfig {
            workers: 1,
            queue_cap: 1,
            ..SupervisorConfig::default()
        };
        let sup = Supervisor::start(store.clone(), cfg).unwrap();

        let slow = JobSpec {
            scenes: vec!["CAR".to_string()],
            detail: 0.5,
            res: 64,
            ..tiny_spec()
        };
        let a = JobSpec {
            detail: 0.06,
            ..tiny_spec()
        };
        let b = JobSpec {
            detail: 0.07,
            ..tiny_spec()
        };
        sup.submit(slow).unwrap();
        // The worker may grab either queued entry quickly; keep filling
        // until the queue genuinely overflows or both fit (in which
        // case a third distinct spec must bounce).
        let c = JobSpec {
            detail: 0.08,
            ..tiny_spec()
        };
        let mut saw_busy = false;
        for spec in [a, b, c] {
            match sup.submit(spec) {
                Ok(_) => {}
                Err(SubmitRejection::Busy { queue_cap }) => {
                    assert_eq!(queue_cap, 1);
                    saw_busy = true;
                    break;
                }
                Err(other) => panic!("expected Busy, got {other:?}"),
            }
        }
        assert!(saw_busy, "an overfull queue must shed load");
        sup.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn interrupted_jobs_resume_on_restart() {
        let store = temp_store("resume");
        let spec = tiny_spec();
        let id = spec.identity();
        // Simulate a daemon that journaled a running job and was then
        // SIGKILLed: the journal says `running`, no result is cached.
        store
            .journal_job(id, &spec, JobState::Running, None)
            .unwrap();

        let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
        let status = wait_terminal(&sup, id);
        assert_eq!(
            status.state,
            JobState::Done,
            "a journaled running job must be re-run to completion on restart"
        );
        assert_eq!(sup.result(id).unwrap().len(), 1);
        sup.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn second_supervisor_on_a_locked_store_is_refused() {
        let store = temp_store("locked");
        let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
        match Supervisor::start(store.clone(), SupervisorConfig::default()) {
            Err(StoreError::Locked { .. }) => {}
            Err(other) => panic!("expected Locked, got {other}"),
            Ok(_) => panic!("two daemons must not share a store"),
        }
        sup.shutdown();
        // Shutdown released the lock; the next daemon starts cleanly.
        let sup2 = Supervisor::start(store.clone(), SupervisorConfig::default())
            .expect("restart after clean shutdown");
        sup2.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn poisoned_locks_do_not_cascade() {
        let store = temp_store("poison");
        let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
        let spec = tiny_spec();
        let id = sup.submit(spec.clone()).unwrap().job;
        wait_terminal(&sup, id);

        // Panic while holding each supervisor lock, poisoning it.
        for _ in 0..2 {
            let shared = Arc::clone(&sup.shared);
            let _ = thread::spawn(move || {
                let _jobs = shared.jobs.lock().unwrap();
                panic!("deliberate poison");
            })
            .join();
            let shared = Arc::clone(&sup.shared);
            let _ = thread::spawn(move || {
                let _queue = shared.queue.lock().unwrap();
                panic!("deliberate poison");
            })
            .join();
        }

        // Every API that takes those locks must still answer.
        assert_eq!(sup.status(id).unwrap().state, JobState::Done);
        assert_eq!(sup.queue_depth(), 0);
        let resubmit = sup.submit(spec).unwrap();
        assert!(resubmit.cached, "cache hit must survive poisoned locks");
        assert_eq!(sup.result(id).unwrap().len(), 1);
        sup.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn unknown_jobs_are_typed_errors() {
        let store = temp_store("unknown");
        let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
        assert!(sup.status(0x1234).is_none());
        assert!(matches!(sup.result(0x1234), Err(ResultError::UnknownJob)));
        sup.shutdown();
        let _ = std::fs::remove_dir_all(store.root());
    }
}
