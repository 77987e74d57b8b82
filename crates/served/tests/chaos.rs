//! The chaos campaign: deterministic fault injection and exhaustive
//! crash-point recovery for the daemon's store and protocol.
//!
//! Three layers of proof, strongest first:
//!
//! 1. **Exhaustive crash points.** A counting pass numbers every
//!    mutating store operation in one full daemon lifecycle (open →
//!    lock → journal → simulate → cache → journal done). Then, for each
//!    point *k*, a fresh lifecycle is killed at exactly op *k* — the op
//!    lands at most a torn, unsynced prefix and every later operation
//!    fails — and a restarted daemon over the wreckage must reproduce
//!    the reference rows bit-for-bit. Not the crashes we happen to hit:
//!    all of them.
//! 2. **Seeded fault schedules.** Whole lifecycles run under
//!    rng-scheduled disk-full errors, short writes, and failed renames;
//!    the retrying daemon must converge to the same bit-identical rows
//!    once the fault budget is spent. A failure reproduces from its
//!    seed.
//! 3. **Zero perturbation.** With chaos off (and with chaos plumbed but
//!    quiet), per-cell state digests equal the simulator run directly —
//!    the shims provably change nothing in production.
//!
//! Plus the hand-crafted wreckage the fault model documents: truncated
//! journals are the typed exit-8 corruption error, truncated cell
//! results and garbage checkpoints self-heal as cache misses, and
//! socket-level chaos (partial reads, delays, resets) perturbs nothing
//! or fails typed.

use rt_scene::{SceneId, Workload, WorkloadKind};
use rt_served::{
    ArtifactStore, Chaos, Client, ClientError, FaultPlan, JobSpec, JobState, Server, ServerConfig,
    StoreError, Supervisor, SupervisorConfig,
};
use std::path::{Path, PathBuf};
use std::time::Duration;
use treelet_rt::SimConfig;

/// The lifecycle every test runs: one small two-cell sweep.
fn harness_spec() -> JobSpec {
    JobSpec {
        scenes: vec!["WKND".to_string()],
        configs: vec!["prefetch".to_string(), "baseline".to_string()],
        detail: 0.05,
        res: 4,
        ..JobSpec::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rt-served-chaos-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn supervisor_config(max_retries: u32) -> SupervisorConfig {
    SupervisorConfig {
        // One worker keeps the store's operation order deterministic,
        // so the counting pass and every crash pass number the same
        // write points.
        workers: 1,
        max_retries,
        backoff_base_ms: 1,
        ..SupervisorConfig::default()
    }
}

/// One full daemon lifecycle over `dir` through `chaos`: start a
/// supervisor, submit the harness spec, drive it to a terminal state,
/// fetch the rows, shut down. Every failure comes back as a message —
/// under chaos, failing typed is a correct outcome; panicking or
/// hanging never is.
fn run_once(
    dir: &Path,
    chaos: &Chaos,
    max_retries: u32,
) -> Result<Vec<rt_served::CellResult>, String> {
    let store = ArtifactStore::open_with_fs(dir, chaos.fs()).map_err(|e| format!("open: {e}"))?;
    let sup = Supervisor::start(store, supervisor_config(max_retries))
        .map_err(|e| format!("start: {e}"))?;
    let outcome = (|| {
        let status = sup
            .submit(harness_spec())
            .map_err(|e| format!("submit: {e}"))?;
        let done = sup
            .wait_terminal(
                status.job,
                Duration::from_millis(5),
                Duration::from_secs(120),
            )
            .ok_or("job never reached a terminal state")?;
        if done.state != JobState::Done {
            return Err(format!("job ended {}: {:?}", done.state, done.error));
        }
        sup.result(status.job).map_err(|e| format!("result: {e:?}"))
    })();
    sup.shutdown();
    outcome
}

/// The reference rows, computed through production passthrough shims.
fn reference_rows(tag: &str) -> Vec<rt_served::CellResult> {
    let dir = fresh_dir(tag);
    let rows = run_once(&dir, &Chaos::off(), 2).expect("reference lifecycle");
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

#[test]
fn chaos_off_shims_are_zero_perturbation() {
    let spec = harness_spec();
    let rows = reference_rows("zero-ref");
    assert_eq!(rows.len(), 2);

    // Against the simulator run directly, with no service layer and no
    // shims at all: the daemon's digests must be the simulator's.
    let scene = SceneId::from_name(&spec.scenes[0]).unwrap();
    let workload = Workload::new(WorkloadKind::Primary, spec.res, spec.res);
    let bench = treelet_rt::Bench::prepare(scene, spec.detail, workload);
    for row in &rows {
        let mut config = match row.config.as_str() {
            "prefetch" => SimConfig::paper_treelet_prefetch(),
            "baseline" => SimConfig::paper_baseline(),
            other => panic!("unexpected config {other}"),
        };
        config.treelet_bytes = spec.treelet_bytes;
        let direct = bench.try_run(&config).expect("direct run");
        assert_eq!(
            row.state_digest, direct.state_digest,
            "daemon and direct digests for {} must match",
            row.config
        );
        assert_eq!(row.cycles, direct.cycles);
        assert_eq!(row.rays, direct.rays as u64);
    }

    // And with the chaos plumbing active but injecting nothing: the
    // instrumented path is the production path.
    let dir = fresh_dir("zero-quiet");
    let quiet = Chaos::counting();
    let counted = run_once(&dir, &quiet, 2).expect("quiet chaos lifecycle");
    assert_eq!(counted, rows, "quiet chaos must be bit-identical");
    assert_eq!(quiet.faults_injected(), 0);
    assert!(quiet.write_points() > 0, "the shims were actually in path");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_store_write_point_crash_recovers_bit_identically() {
    let reference = reference_rows("crash-ref");

    // Counting pass: number the mutating store ops of one lifecycle.
    let count_dir = fresh_dir("crash-count");
    let counting = Chaos::counting();
    let counted = run_once(&count_dir, &counting, 2).expect("counting lifecycle");
    assert_eq!(counted, reference);
    let points = counting.write_points();
    assert!(
        points >= 22,
        "the lifecycle must expose at least 22 distinct store write points \
         (including the BVH artifact cache writes), counted {points}"
    );
    // The counting lifecycle must have populated the preparation cache:
    // its write points are part of the exhaustive pass below.
    let bvh_entries = std::fs::read_dir(count_dir.join("bvh"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert!(
        bvh_entries > 0,
        "the lifecycle must write at least one BVH artifact cache entry"
    );
    let _ = std::fs::remove_dir_all(&count_dir);

    // Exhaustive pass: die at each point, restart, demand bit-identical
    // recovery.
    for k in 0..points {
        let dir = fresh_dir(&format!("crash-{k}"));
        let chaos = Chaos::crash_at(k);
        // The dying run may fail anywhere (typed) or even report done
        // in memory; the only hard requirements are that the crash
        // actually fired and nothing panicked or hung.
        let _ = run_once(&dir, &chaos, 2);
        assert!(chaos.crashed(), "crash point {k} of {points} never fired");

        let recovered = run_once(&dir, &Chaos::off(), 2)
            .unwrap_or_else(|e| panic!("recovery after a crash at write point {k} failed: {e}"));
        assert_eq!(
            recovered, reference,
            "recovery after a crash at write point {k} must be bit-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn seeded_fault_schedules_converge_to_identical_results() {
    let reference = reference_rows("seed-ref");
    for seed in [1u64, 7, 0xC0FFEE] {
        let dir = fresh_dir(&format!("seed-{seed}"));
        let chaos = Chaos::seeded(seed);
        let mut recovered = None;
        // Each failed lifecycle spends fault budget; the budget is
        // finite, so convergence is guaranteed long before this cap.
        for _ in 0..50 {
            match run_once(&dir, &chaos, 20) {
                Ok(rows) => {
                    recovered = Some(rows);
                    break;
                }
                Err(message) => {
                    // Typed failure under injected faults: the expected
                    // shape. Anything untyped would have panicked.
                    assert!(!message.is_empty());
                }
            }
        }
        let rows = recovered
            .unwrap_or_else(|| panic!("seed {seed} never converged; reproduce with this seed"));
        assert_eq!(
            rows, reference,
            "seed {seed} must converge to the reference rows"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_journal_is_the_typed_corruption_error() {
    let dir = fresh_dir("torn-journal");
    run_once(&dir, &Chaos::off(), 2).expect("reference lifecycle");

    // Tear the journal in half, as a torn non-atomic write would have.
    let jobs_dir = dir.join("jobs");
    let journal = std::fs::read_dir(&jobs_dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .expect("a journal exists");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();

    // Startup must refuse with the typed corruption error (the CLI's
    // exit-8 path), never silently drop journaled work.
    let store = ArtifactStore::open(&dir).unwrap();
    match Supervisor::start(store, supervisor_config(2)) {
        Err(StoreError::Corrupt { path, .. }) => assert_eq!(path, journal),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("a torn journal must fail startup"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_cell_result_self_heals_as_a_cache_miss() {
    let dir = fresh_dir("torn-result");
    let reference = run_once(&dir, &Chaos::off(), 2).expect("reference lifecycle");

    let spec = harness_spec();
    let store = ArtifactStore::open(&dir).unwrap();
    let key = spec.cell_identity(&spec.scenes[0], &spec.configs[0]);
    let result_path = store.cell_result_path(key);
    let bytes = std::fs::read(&result_path).unwrap();
    std::fs::write(&result_path, &bytes[..bytes.len() / 3]).unwrap();
    assert!(
        store.read_cell_result(key).is_none(),
        "a torn cell result must read as a cache miss, not an error"
    );
    // Leave the journal saying `running`, as a daemon killed mid-job
    // would have; the restart must recompute the torn cell.
    store
        .journal_job(spec.identity(), &spec, JobState::Running, None)
        .unwrap();
    drop(store);

    let healed = run_once(&dir, &Chaos::off(), 2).expect("self-healing lifecycle");
    assert_eq!(
        healed, reference,
        "recomputing a torn cell must reproduce identical digests"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_checkpoint_is_discarded_and_the_rerun_matches() {
    let dir = fresh_dir("bad-ck");
    let reference = run_once(&dir, &Chaos::off(), 2).expect("reference lifecycle");

    let spec = harness_spec();
    let store = ArtifactStore::open(&dir).unwrap();
    let key = spec.cell_identity(&spec.scenes[0], &spec.configs[0]);
    // Drop the cached result so the cell must re-run, and plant a
    // checkpoint of pure garbage for the resume path to trip over.
    std::fs::remove_file(store.cell_result_path(key)).unwrap();
    std::fs::write(store.checkpoint_path(key), b"\x00\xffnot a checkpoint").unwrap();
    store
        .journal_job(spec.identity(), &spec, JobState::Running, None)
        .unwrap();
    drop(store);

    let healed = run_once(&dir, &Chaos::off(), 2).expect("rerun lifecycle");
    assert_eq!(
        healed, reference,
        "a garbage checkpoint must be discarded, not trusted or fatal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns a real TCP daemon over `dir` with the given chaos config.
fn spawn_daemon(dir: PathBuf, chaos: Chaos) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: dir,
        supervisor: supervisor_config(2),
        signal_flag: None,
        chaos,
    })
    .expect("bind daemon");
    let addr = server.local_addr().to_string();
    let runner = std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, runner)
}

#[test]
fn partial_reads_and_delays_do_not_perturb_the_protocol() {
    // Aggressive partial transfers and small delays on BOTH sides of
    // every socket: legal Read/Write behavior the frame layer must
    // already absorb, so the exchange must succeed bit-identically.
    let net_plan = |seed: u64| FaultPlan {
        fault_budget: u64::MAX,
        p_net_partial: 0.6,
        max_delay_ms: 1,
        ..FaultPlan::quiet(seed)
    };
    let dir = fresh_dir("net-partial");
    let server_chaos = Chaos::with_plan(net_plan(21));
    let (addr, runner) = spawn_daemon(dir.clone(), server_chaos.clone());
    let client_chaos = Chaos::with_plan(net_plan(22));
    let client = Client::with_chaos(&addr, &client_chaos);

    client.ping().expect("ping through partial transfers");
    let spec = JobSpec {
        configs: vec!["prefetch".to_string()],
        ..harness_spec()
    };
    let submitted = client.submit(spec).expect("submit");
    let done = client
        .wait(
            submitted.job,
            Duration::from_millis(10),
            Duration::from_secs(120),
        )
        .expect("job finishes");
    assert_eq!(done.state, JobState::Done);
    let rows = client.result(done.job).expect("rows survive partial reads");
    assert_eq!(rows.len(), 1);
    assert!(
        client_chaos.faults_injected() + server_chaos.faults_injected() > 0,
        "the chaos actually perturbed the sockets"
    );

    client.shutdown().expect("shutdown");
    runner.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_resets_surface_as_typed_client_errors() {
    let dir = fresh_dir("net-reset");
    let (addr, runner) = spawn_daemon(dir.clone(), Chaos::off());
    let chaos = Chaos::with_plan(FaultPlan {
        fault_budget: 2,
        p_net_reset: 1.0,
        ..FaultPlan::quiet(31)
    });
    let client = Client::with_chaos(&addr, &chaos);

    // Two resets in the budget: both calls must fail typed, not hang.
    for attempt in 0..2 {
        match client.ping() {
            Err(ClientError::Io(e)) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset,
                    "attempt {attempt}"
                );
            }
            other => panic!("expected a typed reset on attempt {attempt}, got {other:?}"),
        }
    }
    assert_eq!(chaos.faults_injected(), 2);
    // Budget spent: the same client works again.
    client
        .ping()
        .expect("ping after the fault budget is exhausted");

    Client::new(&addr).shutdown().expect("shutdown");
    runner.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
