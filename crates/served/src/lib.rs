//! `rt-served` — a crash-tolerant sweep daemon for the treelet
//! prefetching simulator.
//!
//! The simulator is deterministic and sweeps are expensive, which makes
//! them perfect memoization targets: a sweep's outputs are a pure
//! function of its spec. This crate wraps the simulator in a
//! long-running service that exploits that:
//!
//! - **Wire protocol** ([`protocol`]): newline-delimited JSON over TCP,
//!   hand-rolled (the workspace is dependency-free by policy), with
//!   typed decode errors and a hard frame-size cap — malformed or
//!   hostile input can never panic the daemon.
//! - **Content-addressed store** ([`store`]): job journals and per-cell
//!   results live under digests of the canonical job spec; every write
//!   is atomic write-then-rename, so a SIGKILL at any instant leaves
//!   either the old bytes or the new, never a torn file. An identical
//!   resubmit maps to the same paths and is served from cache without
//!   re-simulating.
//! - **Supervisor** ([`supervisor`]): a bounded job queue (overflow is
//!   load-shed with a typed `busy` reply), per-job wall-clock timeouts
//!   ([`JobError::TimedOut`]), bounded retry with exponential backoff
//!   for transient failures, and crash resume — on restart, journaled
//!   interrupted jobs are re-enqueued and pick up from their
//!   checkpoints.
//! - **Server / client** ([`server`], [`client`]): a threaded TCP
//!   front end with clean shutdown on request or OS signal, and a
//!   small blocking client the CLI builds on.
//! - **Chaos layer** ([`chaos`]): every filesystem and socket operation
//!   above goes through narrow shims that are passthroughs in
//!   production and, under `--chaos <seed>` / `RT_CHAOS`, inject a
//!   deterministic schedule of short writes, disk-full errors, failed
//!   renames, torn writes, connection resets, partial reads, and
//!   delays. The same shims power the crash-point harness
//!   (`tests/chaos.rs`), which simulates a process death at *every*
//!   store write point and proves recovery at each one.
//!
//! # Example
//!
//! ```no_run
//! use rt_served::{Chaos, Client, JobSpec, Server, ServerConfig, SupervisorConfig};
//! use std::time::Duration;
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     store_dir: "store".into(),
//!     supervisor: SupervisorConfig::default(),
//!     signal_flag: None,
//!     chaos: Chaos::off(),
//! })?;
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//!
//! let client = Client::new(addr.to_string());
//! let spec = JobSpec {
//!     scenes: vec!["CAR".to_string()],
//!     ..JobSpec::default()
//! };
//! let submitted = client.submit(spec)?;
//! let done = client.wait(
//!     submitted.job,
//!     Duration::from_millis(100),
//!     Duration::from_secs(600),
//! )?;
//! for row in client.result(done.job)? {
//!     println!("{}/{}: digest {:#018x}", row.scene, row.config, row.state_digest);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod chaos;
pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod store;
pub mod supervisor;

pub use chaos::{Chaos, ChaosStream, FaultPlan, ServedFs, ServedNet, CHAOS_ENV};
pub use client::{Client, ClientError};
pub use json::{Json, JsonError};
pub use protocol::{
    read_frame, CellResult, ErrorKind, JobSpec, JobState, JobStatus, ProtocolError, Request,
    Response, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use server::{ServeError, Server, ServerConfig, ShutdownReason};
pub use store::{ArtifactStore, JournaledJob, StoreError, StoreLock};
pub use supervisor::{JobError, ResultError, SubmitRejection, Supervisor, SupervisorConfig};
