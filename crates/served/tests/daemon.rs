//! End-to-end daemon tests: a real `Server` bound to an OS-assigned
//! port, exercised through the real TCP `Client`.
//!
//! These cover the robustness headlines the crate exists for: cache
//! hits on identical resubmits, typed timeouts that leave concurrent
//! jobs untouched, load-shedding, resume of interrupted jobs on
//! restart, and clean protocol-driven shutdown.

use rt_served::{
    Chaos, Client, ClientError, ErrorKind, JobSpec, JobState, Server, ServerConfig, ShutdownReason,
    SupervisorConfig,
};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A daemon on an ephemeral port over a temp store, plus the handle
/// needed to join its accept loop.
struct TestDaemon {
    client: Client,
    runner: std::thread::JoinHandle<ShutdownReason>,
}

fn fresh_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rt-served-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(store_dir: PathBuf, supervisor: SupervisorConfig) -> TestDaemon {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: store_dir.clone(),
        supervisor,
        signal_flag: None,
        chaos: Chaos::off(),
    })
    .expect("bind daemon");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run().expect("daemon run"));
    TestDaemon {
        client: Client::new(addr.to_string()),
        runner,
    }
}

impl TestDaemon {
    /// Requests shutdown over the protocol and joins the accept loop.
    fn stop(self) -> ShutdownReason {
        self.client.shutdown().expect("shutdown ack");
        self.runner.join().expect("daemon thread")
    }
}

fn tiny_spec() -> JobSpec {
    JobSpec {
        scenes: vec!["WKND".to_string()],
        configs: vec!["prefetch".to_string()],
        detail: 0.05,
        res: 4,
        ..JobSpec::default()
    }
}

const POLL: Duration = Duration::from_millis(25);
const BUDGET: Duration = Duration::from_secs(120);

#[test]
fn submit_runs_and_identical_resubmit_is_a_cache_hit() {
    let daemon = spawn_daemon(fresh_store("cache"), SupervisorConfig::default());
    daemon.client.ping().expect("ping");

    let first = daemon.client.submit(tiny_spec()).expect("submit");
    assert!(!first.cached);
    let done = daemon
        .client
        .wait(first.job, POLL, BUDGET)
        .expect("job finishes");
    assert_eq!(done.state, JobState::Done);
    let rows = daemon.client.result(done.job).expect("rows");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].scene, "WKND");

    // Identical spec (even with different budget knobs): same job id,
    // answered from cache at submit time, byte-identical digest.
    let resubmit = JobSpec {
        timeout_ms: Some(999_999),
        ..tiny_spec()
    };
    let hit = daemon.client.submit(resubmit).expect("resubmit");
    assert_eq!(hit.job, first.job, "identity ignores budget knobs");
    assert_eq!(hit.state, JobState::Done);
    assert!(hit.cached, "identical resubmit must be served from cache");
    let rows2 = daemon.client.result(hit.job).expect("cached rows");
    assert_eq!(rows, rows2, "cache returns the identical rows");

    assert_eq!(daemon.stop(), ShutdownReason::Requested);
}

#[test]
fn timeout_is_typed_and_does_not_disturb_concurrent_jobs() {
    let daemon = spawn_daemon(fresh_store("timeout"), SupervisorConfig::default());

    // ~2 s of simulation against a 1 ms budget: must time out.
    let doomed = daemon
        .client
        .submit(JobSpec {
            scenes: vec!["CAR".to_string()],
            detail: 1.0,
            res: 256,
            timeout_ms: Some(1),
            ..tiny_spec()
        })
        .expect("submit doomed");
    let fine = daemon.client.submit(tiny_spec()).expect("submit fine");

    let doomed_status = daemon
        .client
        .wait(doomed.job, POLL, BUDGET)
        .expect("doomed terminal");
    assert_eq!(doomed_status.state, JobState::TimedOut);
    let message = doomed_status.error.expect("timeout detail");
    assert!(message.contains("wall-clock budget"), "{message}");

    // Fetching a timed-out job's results is a typed not-done error.
    match daemon.client.result(doomed.job) {
        Err(ClientError::Server {
            kind: ErrorKind::NotDone,
            message,
        }) => assert!(message.contains("timed-out"), "{message}"),
        other => panic!("expected NotDone, got {other:?}"),
    }

    let fine_status = daemon
        .client
        .wait(fine.job, POLL, BUDGET)
        .expect("fine terminal");
    assert_eq!(
        fine_status.state,
        JobState::Done,
        "concurrent job must complete despite the other job's timeout"
    );
    daemon.stop();
}

#[test]
fn overflowing_the_queue_is_a_typed_busy_rejection() {
    let daemon = spawn_daemon(
        fresh_store("busy"),
        SupervisorConfig {
            workers: 1,
            queue_cap: 1,
            ..SupervisorConfig::default()
        },
    );
    // Occupy the single worker with a slow job, then overfill the
    // 1-slot queue with distinct specs until one bounces.
    daemon
        .client
        .submit(JobSpec {
            scenes: vec!["CAR".to_string()],
            detail: 0.5,
            res: 64,
            ..tiny_spec()
        })
        .expect("slow job accepted");
    let mut saw_busy = false;
    for detail in [0.06, 0.07, 0.08] {
        match daemon.client.submit(JobSpec {
            detail,
            ..tiny_spec()
        }) {
            Ok(_) => {}
            Err(ClientError::Server {
                kind: ErrorKind::Busy,
                message,
            }) => {
                assert!(message.contains("retry"), "{message}");
                saw_busy = true;
                break;
            }
            Err(other) => panic!("expected Busy, got {other:?}"),
        }
    }
    assert!(saw_busy, "the queue must shed load once full");
    daemon.stop();
}

#[test]
fn invalid_specs_and_unknown_jobs_are_typed_server_errors() {
    let daemon = spawn_daemon(fresh_store("invalid"), SupervisorConfig::default());
    match daemon.client.submit(JobSpec {
        scenes: vec!["ATLANTIS".to_string()],
        ..tiny_spec()
    }) {
        Err(ClientError::Server {
            kind: ErrorKind::Invalid,
            message,
        }) => assert!(message.contains("ATLANTIS"), "{message}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    match daemon.client.status(0x1234) {
        Err(ClientError::Server {
            kind: ErrorKind::UnknownJob,
            ..
        }) => {}
        other => panic!("expected UnknownJob, got {other:?}"),
    }
    daemon.stop();
}

#[test]
fn garbage_on_the_wire_gets_a_typed_protocol_error_not_a_hang() {
    use std::io::{BufRead, BufReader, Write};
    let daemon = spawn_daemon(fresh_store("garbage"), SupervisorConfig::default());
    daemon.client.ping().expect("ping");
    let mut raw = TcpStream::connect(daemon.client.addr()).expect("raw connect");
    raw.write_all(b"this is not json\n").expect("send garbage");
    raw.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).expect("reply");
    assert!(
        reply.contains("\"error\":\"protocol\""),
        "typed protocol error on the wire: {reply}"
    );
    daemon.stop();
}

#[test]
fn interrupted_jobs_resume_after_restart_with_identical_digests() {
    let store_dir = fresh_store("restart");

    // First daemon: run a reference job to completion, and journal a
    // second job as `running` (as a SIGKILLed daemon would leave it).
    let daemon = spawn_daemon(store_dir.clone(), SupervisorConfig::default());
    let reference = daemon.client.submit(tiny_spec()).expect("reference");
    let done = daemon
        .client
        .wait(reference.job, POLL, BUDGET)
        .expect("reference done");
    let reference_rows = daemon.client.result(done.job).expect("reference rows");
    daemon.stop();

    // Simulate the crash aftermath: rewrite the journal entry back to
    // `running` and delete the cached cell, leaving only the journal
    // (and any checkpoint) to recover from.
    let store = rt_served::ArtifactStore::open(&store_dir).expect("reopen store");
    let spec = tiny_spec();
    store
        .journal_job(spec.identity(), &spec, JobState::Running, None)
        .expect("journal running");
    std::fs::remove_file(
        store.cell_result_path(spec.cell_identity(&spec.scenes[0], &spec.configs[0])),
    )
    .expect("drop cached cell");

    // Second daemon over the same store: the journaled `running` job
    // must be re-enqueued and re-run to completion unprompted.
    let daemon2 = spawn_daemon(store_dir, SupervisorConfig::default());
    let resumed = daemon2
        .client
        .wait(spec.identity(), POLL, BUDGET)
        .expect("resumed job finishes");
    assert_eq!(resumed.state, JobState::Done);
    let resumed_rows = daemon2.client.result(spec.identity()).expect("rows");
    assert_eq!(
        resumed_rows, reference_rows,
        "resumed run must reproduce identical digests"
    );
    daemon2.stop();
}
