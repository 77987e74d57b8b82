//! Deterministic fault injection ("chaos") for the service layer.
//!
//! PR 1 proved the *simulator* under seeded memory-fault injection; this
//! module applies the same discipline to the *daemon*. Everything
//! `rt-served` does to the outside world — filesystem writes in the
//! artifact store, bytes on a socket — goes through two narrow shims:
//!
//! - [`ServedFs`]: the store's filesystem verbs (read, atomic-write
//!   primitives, rename, remove, list, exclusive-create),
//! - [`ServedNet`]: connect/accept plus a wrapped stream type
//!   ([`ChaosStream`]) the server and client read and write through.
//!
//! In production both shims are passthroughs over `std::fs` /
//! `std::net` with one atomic op counter of overhead. Under a seeded
//! [`FaultPlan`] they inject the failures a long-lived daemon actually
//! meets: short writes, `ENOSPC`-style write errors, failed renames,
//! lost-fsync torn writes, connection resets mid-frame, partial reads,
//! and scheduling delays — all drawn from an `rt-rng` stream, so a
//! failing schedule is a *seed*, not a flake.
//!
//! The second mode is exhaustive rather than random: [`Chaos::crash_at`]
//! simulates a process death at the *k*-th store write point. Mutating
//! filesystem ops are numbered; op *k* dies mid-syscall (a write lands
//! only a prefix and is never synced, a rename never happens), and
//! every op after it — reads included, a dead process does no I/O —
//! fails. The crash-point harness in `tests/chaos.rs` enumerates every
//! write point of a daemon lifecycle this way and proves the restarted
//! daemon recovers with bit-identical digests (or the documented typed
//! error) at each one.
//!
//! Chaos is a test hook, selectable per process via `serve --chaos
//! <seed>` or the `RT_CHAOS` environment variable. With chaos off the
//! shims are proven zero-perturbation by digest-equality tests.

use rt_rng::{Rng, SmallRng};
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable naming a chaos seed (`RT_CHAOS=42`). The CLI's
/// `--chaos` flag overrides it.
pub const CHAOS_ENV: &str = "RT_CHAOS";

/// The filesystem verbs the artifact store is allowed to use.
///
/// Deliberately narrow: every verb maps to one syscall-shaped operation
/// the chaos layer can count, perturb, or kill. The store's atomic
/// write-then-rename is composed from [`ServedFs::write_file`] (create +
/// write + fsync) and [`ServedFs::rename`], so a simulated crash can
/// land between them — exactly where a real one would.
pub trait ServedFs: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `path`, writes all of `bytes`, and syncs.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` over `to` (the commit half of an atomic write).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file; absent files are the caller's concern.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists a directory's entries as paths.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Creates `path` with `bytes` only if it does not already exist
    /// (`ErrorKind::AlreadyExists` otherwise) — the store-lock
    /// primitive.
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// Connect/accept shim; streams come back wrapped as [`ChaosStream`]s.
pub trait ServedNet: Send + Sync + fmt::Debug {
    /// Client-side connect.
    fn connect(&self, addr: &str) -> io::Result<ChaosStream>;
    /// Server-side wrap of a freshly accepted stream.
    fn wrap_accepted(&self, stream: TcpStream) -> ChaosStream;
}

/// The production filesystem: `std::fs`, nothing injected.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassthroughFs;

impl ServedFs for PassthroughFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(path)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }
}

/// The production network: `std::net`, nothing injected.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassthroughNet;

impl ServedNet for PassthroughNet {
    fn connect(&self, addr: &str) -> io::Result<ChaosStream> {
        Ok(ChaosStream {
            inner: connect_tcp(addr)?,
            state: None,
        })
    }

    fn wrap_accepted(&self, stream: TcpStream) -> ChaosStream {
        ChaosStream {
            inner: stream,
            state: None,
        }
    }
}

fn connect_tcp(addr: &str) -> io::Result<TcpStream> {
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect(resolved) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

/// A seeded schedule of injected faults.
///
/// Probabilities are per-operation; every draw comes from one xoshiro
/// stream, so a given `(seed, plan)` replays the same schedule for the
/// same operation sequence. `fault_budget` bounds the *total* number of
/// injected faults — once spent, the plan goes quiet — which guarantees
/// a retrying daemon converges instead of failing forever.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault stream.
    pub seed: u64,
    /// Total faults this plan may inject before going quiet.
    pub fault_budget: u64,
    /// P(write fails before any byte lands) — the `ENOSPC` shape.
    pub p_write_error: f64,
    /// P(write lands a prefix, then errors) — the short-write shape.
    pub p_short_write: f64,
    /// P(write reports success but only a prefix is durable) — the
    /// lost-fsync torn-write shape. Off by default: it manufactures
    /// corrupt artifacts on purpose, which only the torn-artifact tests
    /// want.
    pub p_torn_write: f64,
    /// P(rename fails, leaving the temp file uncommitted).
    pub p_rename_error: f64,
    /// P(read fails with an injected I/O error).
    pub p_read_error: f64,
    /// P(a socket read/write dies with `ConnectionReset`).
    pub p_net_reset: f64,
    /// P(a socket read/write transfers only part of the buffer).
    pub p_net_partial: f64,
    /// Upper bound on injected per-socket-op delay, milliseconds.
    pub max_delay_ms: u64,
}

impl FaultPlan {
    /// The default chaos-campaign mix for `--chaos <seed>` / `RT_CHAOS`:
    /// a bounded burst of recoverable store and socket faults that a
    /// correctly retrying daemon must ride out with bit-identical
    /// results.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fault_budget: 16,
            p_write_error: 0.15,
            p_short_write: 0.1,
            p_torn_write: 0.0,
            p_rename_error: 0.1,
            p_read_error: 0.0,
            p_net_reset: 0.1,
            p_net_partial: 0.25,
            max_delay_ms: 5,
        }
    }

    /// A plan that injects nothing — chaos plumbing with zero faults,
    /// used to count I/O points for the crash harness.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fault_budget: 0,
            p_write_error: 0.0,
            p_short_write: 0.0,
            p_torn_write: 0.0,
            p_rename_error: 0.0,
            p_read_error: 0.0,
            p_net_reset: 0.0,
            p_net_partial: 0.0,
            max_delay_ms: 0,
        }
    }
}

/// Which fault a draw selected for a filesystem write.
enum WriteFault {
    None,
    Error,
    Short,
    Torn,
}

/// Shared mutable chaos state: the fault stream, the op counters, and
/// the crash switch.
struct ChaosState {
    plan: FaultPlan,
    /// Crash-point mode: the index (in mutating-fs-op space) that dies.
    crash_at: Option<u64>,
    rng: Mutex<SmallRng>,
    /// Mutating fs ops seen so far — the crash-point index space.
    write_ops: AtomicU64,
    faults: AtomicU64,
    budget_left: AtomicU64,
    crashed: AtomicBool,
}

impl fmt::Debug for ChaosState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosState")
            .field("plan", &self.plan)
            .field("crash_at", &self.crash_at)
            .field("write_ops", &self.write_ops.load(Ordering::SeqCst))
            .field("faults", &self.faults.load(Ordering::SeqCst))
            .field("crashed", &self.crashed.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

/// The marker every injected error carries, so tests (and humans
/// reading daemon logs) can tell injected failures from real ones.
pub const INJECTED_MARKER: &str = "chaos:";

fn injected(detail: &str) -> io::Error {
    io::Error::other(format!("{INJECTED_MARKER} injected {detail}"))
}

fn crashed_error() -> io::Error {
    io::Error::other(format!(
        "{INJECTED_MARKER} simulated crash (process is dead)"
    ))
}

impl ChaosState {
    /// True (and spends budget) when a `p`-weighted fault fires.
    fn draw(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let fired = {
            let mut rng = self
                .rng
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rng.gen_bool(p)
        };
        if !fired {
            return false;
        }
        // Spend one unit of budget; exhausted budget suppresses the fault.
        let granted = self
            .budget_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .is_ok();
        if granted {
            self.faults.fetch_add(1, Ordering::SeqCst);
        }
        granted
    }

    /// Numbers a mutating fs op and reports whether this op is the crash
    /// point (`Some(true)`), already past it (`Some(false)` means "fail,
    /// the process is dead"), or unaffected (`None`).
    fn next_write_op(&self) -> Option<bool> {
        let idx = self.write_ops.fetch_add(1, Ordering::SeqCst);
        let at = self.crash_at?;
        if self.crashed.load(Ordering::SeqCst) {
            return Some(false);
        }
        if idx == at {
            self.crashed.store(true, Ordering::SeqCst);
            return Some(true);
        }
        None
    }

    fn dead(&self) -> bool {
        self.crash_at.is_some() && self.crashed.load(Ordering::SeqCst)
    }

    /// A fraction of `len` (at least 0, at most `len - 1`) for torn and
    /// short writes.
    fn prefix_len(&self, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        let mut rng = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rng.gen_range(0..len)
    }

    fn net_delay(&self) {
        if self.plan.max_delay_ms == 0 || self.dead() {
            return;
        }
        let ms = {
            let mut rng = self
                .rng
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rng.gen_range(0..self.plan.max_delay_ms + 1)
        };
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// Filesystem shim that injects the configured faults. Wraps
/// [`PassthroughFs`] for the real work.
#[derive(Debug)]
struct ChaosFs {
    state: Arc<ChaosState>,
}

impl ChaosFs {
    /// Pre-op gate shared by every verb: fails everything once the
    /// simulated process is dead.
    fn gate(&self) -> io::Result<()> {
        if self.state.dead() {
            Err(crashed_error())
        } else {
            Ok(())
        }
    }

    fn write_fault(&self) -> WriteFault {
        let plan = &self.state.plan;
        if self.state.draw(plan.p_write_error) {
            WriteFault::Error
        } else if self.state.draw(plan.p_short_write) {
            WriteFault::Short
        } else if self.state.draw(plan.p_torn_write) {
            WriteFault::Torn
        } else {
            WriteFault::None
        }
    }
}

impl ServedFs for ChaosFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.gate()?;
        if self.state.draw(self.state.plan.p_read_error) {
            return Err(injected("read error"));
        }
        PassthroughFs.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.state.next_write_op() {
            Some(true) => {
                // The crash lands mid-write: a prefix reaches the file,
                // no fsync, and the process never observes the result.
                let torn = self.state.prefix_len(bytes.len());
                let _ = fs::write(path, &bytes[..torn]);
                return Err(crashed_error());
            }
            Some(false) => return Err(crashed_error()),
            None => {}
        }
        match self.write_fault() {
            WriteFault::Error => Err(injected("write failure (disk full)")),
            WriteFault::Short => {
                let torn = self.state.prefix_len(bytes.len());
                let _ = fs::write(path, &bytes[..torn]);
                Err(injected("short write"))
            }
            WriteFault::Torn => {
                // The lost-fsync shape: the caller sees success, the
                // disk keeps only a prefix.
                let torn = self.state.prefix_len(bytes.len());
                fs::write(path, &bytes[..torn])
            }
            WriteFault::None => PassthroughFs.write_file(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.state.next_write_op() {
            // A rename is atomic in the kernel; dying "during" one means
            // it simply never happened.
            Some(true) | Some(false) => return Err(crashed_error()),
            None => {}
        }
        if self.state.draw(self.state.plan.p_rename_error) {
            return Err(injected("rename failure"));
        }
        PassthroughFs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.state.next_write_op() {
            Some(true) | Some(false) => return Err(crashed_error()),
            None => {}
        }
        PassthroughFs.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.state.next_write_op() {
            Some(true) | Some(false) => return Err(crashed_error()),
            None => {}
        }
        if self.state.draw(self.state.plan.p_write_error) {
            return Err(injected("mkdir failure (disk full)"));
        }
        PassthroughFs.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.gate()?;
        if self.state.draw(self.state.plan.p_read_error) {
            return Err(injected("directory listing error"));
        }
        PassthroughFs.read_dir(path)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.state.next_write_op() {
            Some(true) | Some(false) => return Err(crashed_error()),
            None => {}
        }
        PassthroughFs.create_exclusive(path, bytes)
    }
}

/// Network shim that wraps streams with the shared fault state.
#[derive(Debug)]
struct ChaosNet {
    state: Arc<ChaosState>,
}

impl ServedNet for ChaosNet {
    fn connect(&self, addr: &str) -> io::Result<ChaosStream> {
        if self.state.dead() {
            return Err(crashed_error());
        }
        Ok(ChaosStream {
            inner: connect_tcp(addr)?,
            state: Some(Arc::clone(&self.state)),
        })
    }

    fn wrap_accepted(&self, stream: TcpStream) -> ChaosStream {
        ChaosStream {
            inner: stream,
            state: Some(Arc::clone(&self.state)),
        }
    }
}

/// A TCP stream that may lie: under a [`FaultPlan`] reads and writes
/// can stall briefly, transfer partial buffers, or die with
/// `ConnectionReset` mid-frame. With no plan it is exactly the inner
/// stream.
///
/// Partial transfers are *legal* `Read`/`Write` behavior that buffered
/// callers must already handle — injecting them aggressively is how the
/// frame reader's loop gets proven. Resets are errors the protocol
/// layer must surface as typed failures, never hangs or panics.
#[derive(Debug)]
pub struct ChaosStream {
    inner: TcpStream,
    state: Option<Arc<ChaosState>>,
}

impl ChaosStream {
    /// Bounds how long a read may block, like `TcpStream`'s.
    ///
    /// # Errors
    ///
    /// Whatever the OS reports for the underlying socket.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    /// Bounds how long a write may block, like `TcpStream`'s — a
    /// stalled peer fails typed instead of pinning the thread.
    ///
    /// # Errors
    ///
    /// Whatever the OS reports for the underlying socket.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(dur)
    }

    /// A second handle to the same socket (and the same fault stream),
    /// for splitting into reader and writer halves.
    ///
    /// # Errors
    ///
    /// Whatever the OS reports for duplicating the socket.
    pub fn try_clone(&self) -> io::Result<ChaosStream> {
        Ok(ChaosStream {
            inner: self.inner.try_clone()?,
            state: self.state.clone(),
        })
    }

    /// Pre-op fault draw shared by reads and writes. `Some(err)` aborts
    /// the op; otherwise returns the maximum bytes to transfer.
    fn disposition(&self, want: usize) -> Result<usize, io::Error> {
        let Some(state) = &self.state else {
            return Ok(want);
        };
        if state.dead() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("{INJECTED_MARKER} simulated crash (process is dead)"),
            ));
        }
        state.net_delay();
        if state.draw(state.plan.p_net_reset) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("{INJECTED_MARKER} injected connection reset"),
            ));
        }
        if want > 1 && state.draw(state.plan.p_net_partial) {
            return Ok(1 + state.prefix_len(want - 1));
        }
        Ok(want)
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = self.disposition(buf.len())?;
        self.inner.read(&mut buf[..cap])
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let cap = self.disposition(buf.len())?;
        self.inner.write(&buf[..cap])
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Handle threading one chaos configuration through a store, a
/// supervisor, a server, and/or a client. Cloning shares the same fault
/// stream and counters.
#[derive(Debug, Clone)]
pub struct Chaos {
    state: Option<Arc<ChaosState>>,
}

impl Chaos {
    /// Production mode: passthrough shims, nothing counted, nothing
    /// injected.
    pub fn off() -> Chaos {
        Chaos { state: None }
    }

    /// The default chaos-campaign plan for `seed`
    /// ([`FaultPlan::seeded`]).
    pub fn seeded(seed: u64) -> Chaos {
        Chaos::with_plan(FaultPlan::seeded(seed))
    }

    /// Chaos under an explicit plan.
    pub fn with_plan(plan: FaultPlan) -> Chaos {
        Chaos::build(plan, None)
    }

    /// Fault-free chaos plumbing that still numbers store write points —
    /// the counting pass of the crash harness.
    pub fn counting() -> Chaos {
        Chaos::with_plan(FaultPlan::quiet(0))
    }

    /// Crash-point mode: the `point`-th mutating store operation dies
    /// mid-syscall and every operation after it fails, as if the
    /// process had been killed at that instant.
    pub fn crash_at(point: u64) -> Chaos {
        Chaos::build(FaultPlan::quiet(0), Some(point))
    }

    fn build(plan: FaultPlan, crash_at: Option<u64>) -> Chaos {
        let budget = plan.fault_budget;
        let seed = plan.seed;
        Chaos {
            state: Some(Arc::new(ChaosState {
                plan,
                crash_at,
                rng: Mutex::new(SmallRng::seed_from_u64(seed)),
                write_ops: AtomicU64::new(0),
                faults: AtomicU64::new(0),
                budget_left: AtomicU64::new(budget),
                crashed: AtomicBool::new(false),
            })),
        }
    }

    /// Chaos from the `RT_CHAOS` environment variable: absent means
    /// [`Chaos::off`], a decimal or `0x`-hex seed means
    /// [`Chaos::seeded`].
    ///
    /// # Errors
    ///
    /// A human-readable complaint when the variable is set but not a
    /// seed — a silently ignored chaos request would be worse than a
    /// refused one.
    pub fn from_env() -> Result<Chaos, String> {
        match std::env::var(CHAOS_ENV) {
            Err(_) => Ok(Chaos::off()),
            Ok(raw) => {
                let text = raw.trim();
                let parsed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                parsed.map(Chaos::seeded).map_err(|_| {
                    format!("{CHAOS_ENV}={raw:?} is not a seed (expected a u64, e.g. 42 or 0x2a)")
                })
            }
        }
    }

    /// Whether any chaos (plan or crash point) is configured.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// The filesystem shim for this configuration.
    pub fn fs(&self) -> Arc<dyn ServedFs> {
        match &self.state {
            None => Arc::new(PassthroughFs),
            Some(state) => Arc::new(ChaosFs {
                state: Arc::clone(state),
            }),
        }
    }

    /// The network shim for this configuration.
    pub fn net(&self) -> Arc<dyn ServedNet> {
        match &self.state {
            None => Arc::new(PassthroughNet),
            Some(state) => Arc::new(ChaosNet {
                state: Arc::clone(state),
            }),
        }
    }

    /// Mutating store operations observed so far — the crash-point
    /// index space the harness enumerates.
    pub fn write_points(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.write_ops.load(Ordering::SeqCst))
    }

    /// Faults injected so far (crash deaths not included).
    pub fn faults_injected(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.faults.load(Ordering::SeqCst))
    }

    /// Whether the configured crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.crashed.load(Ordering::SeqCst))
    }

    /// The configured seed, when a plan is active.
    pub fn seed(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.plan.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rt-served-chaos-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn passthrough_round_trips_and_counts_nothing() {
        let dir = temp_dir("passthrough");
        let chaos = Chaos::off();
        let shim = chaos.fs();
        let path = dir.join("x.txt");
        shim.write_file(&path, b"hello").unwrap();
        assert_eq!(shim.read(&path).unwrap(), b"hello");
        let moved = dir.join("y.txt");
        shim.rename(&path, &moved).unwrap();
        assert_eq!(shim.read(&moved).unwrap(), b"hello");
        assert_eq!(shim.read_dir(&dir).unwrap(), vec![moved.clone()]);
        shim.remove_file(&moved).unwrap();
        assert_eq!(chaos.write_points(), 0);
        assert_eq!(chaos.faults_injected(), 0);
        assert!(!chaos.is_active());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counting_mode_numbers_mutating_ops_only() {
        let dir = temp_dir("counting");
        let chaos = Chaos::counting();
        let shim = chaos.fs();
        let path = dir.join("x.txt");
        shim.write_file(&path, b"data").unwrap(); // op 0
        let _ = shim.read(&path).unwrap(); // reads are not write points
        shim.rename(&path, &dir.join("y.txt")).unwrap(); // op 1
        shim.create_dir_all(&dir.join("sub")).unwrap(); // op 2
        let _ = shim.read_dir(&dir).unwrap();
        assert_eq!(chaos.write_points(), 3);
        assert_eq!(chaos.faults_injected(), 0, "quiet plan injects nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_point_kills_the_op_and_everything_after() {
        let dir = temp_dir("crash");
        let chaos = Chaos::crash_at(1);
        let shim = chaos.fs();
        let a = dir.join("a.tmp");
        shim.write_file(&a, b"aaaa").unwrap(); // op 0: survives
        assert!(!chaos.crashed());

        // Op 1 is the rename: it must never land, and the error must be
        // marked as injected.
        let e = shim.rename(&a, &dir.join("a.txt")).unwrap_err();
        assert!(e.to_string().contains(INJECTED_MARKER), "{e}");
        assert!(chaos.crashed());
        assert!(!dir.join("a.txt").exists(), "a dead rename must not commit");

        // The process is dead: reads and writes all fail now.
        assert!(shim.read(&a).is_err());
        assert!(shim.write_file(&dir.join("b"), b"b").is_err());
        assert!(shim.read_dir(&dir).is_err());
        assert!(shim.create_dir_all(&dir.join("c")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_write_leaves_a_strict_prefix_and_no_more() {
        let dir = temp_dir("torn");
        let chaos = Chaos::crash_at(0);
        let shim = chaos.fs();
        let path = dir.join("t.tmp");
        let bytes = vec![7u8; 4096];
        assert!(shim.write_file(&path, &bytes).is_err());
        let on_disk = fs::read(&path).unwrap_or_default();
        assert!(on_disk.len() < bytes.len(), "crash write must not complete");
        assert!(bytes.starts_with(&on_disk), "what landed is a prefix");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_plans_replay_identically_and_respect_the_budget() {
        let schedule = |seed: u64| -> (Vec<bool>, u64) {
            let chaos = Chaos::with_plan(FaultPlan {
                p_write_error: 0.5,
                fault_budget: 4,
                ..FaultPlan::seeded(seed)
            });
            let dir = temp_dir(&format!("replay-{seed}"));
            let shim = chaos.fs();
            let outcomes = (0..64)
                .map(|i| {
                    shim.write_file(&dir.join(format!("{i}.txt")), b"x")
                        .is_err()
                })
                .collect();
            let _ = fs::remove_dir_all(&dir);
            (outcomes, chaos.faults_injected())
        };
        let (a, faults_a) = schedule(11);
        let (b, faults_b) = schedule(11);
        let (c, _) = schedule(12);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert_eq!(faults_a, 4, "budget caps total injected faults");
        assert_eq!(faults_a, faults_b);
        assert!(
            a.iter().skip_while(|&&failed| !failed).count() > 0,
            "the plan actually injected something"
        );
        let _: u64 = faults_b;
    }

    #[test]
    fn short_and_torn_writes_leave_prefixes() {
        let dir = temp_dir("short");
        // p = 1.0 for short writes: every write errors but leaves a
        // prefix on disk.
        let chaos = Chaos::with_plan(FaultPlan {
            p_short_write: 1.0,
            fault_budget: 1,
            ..FaultPlan::quiet(3)
        });
        let shim = chaos.fs();
        let path = dir.join("s.txt");
        let bytes = vec![9u8; 1024];
        let e = shim.write_file(&path, &bytes).unwrap_err();
        assert!(e.to_string().contains("short write"), "{e}");
        assert!(fs::read(&path).unwrap_or_default().len() < bytes.len());

        // Budget spent: the next write is clean.
        shim.write_file(&path, &bytes).unwrap();
        assert_eq!(fs::read(&path).unwrap(), bytes);

        // Torn writes report success with a prefix on disk.
        let torn = Chaos::with_plan(FaultPlan {
            p_torn_write: 1.0,
            fault_budget: 1,
            ..FaultPlan::quiet(4)
        });
        let tshim = torn.fs();
        let tpath = dir.join("t.txt");
        tshim.write_file(&tpath, &bytes).unwrap();
        assert!(
            fs::read(&tpath).unwrap().len() < bytes.len(),
            "torn write lies about durability"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_parses_seeds_and_rejects_garbage() {
        // Env mutation: tests in this binary run in threads of one
        // process, so pick a name no other test reads. Serialize by
        // doing all cases in one test.
        std::env::remove_var(CHAOS_ENV);
        assert!(!Chaos::from_env().unwrap().is_active());
        std::env::set_var(CHAOS_ENV, "42");
        let chaos = Chaos::from_env().unwrap();
        assert_eq!(chaos.seed(), Some(42));
        std::env::set_var(CHAOS_ENV, "0x2a");
        assert_eq!(Chaos::from_env().unwrap().seed(), Some(42));
        std::env::set_var(CHAOS_ENV, "not-a-seed");
        let err = Chaos::from_env().unwrap_err();
        assert!(err.contains("RT_CHAOS"), "{err}");
        std::env::remove_var(CHAOS_ENV);
    }

    #[test]
    fn exclusive_create_refuses_existing_files() {
        let dir = temp_dir("excl");
        let shim = Chaos::off().fs();
        let path = dir.join("LOCK");
        shim.create_exclusive(&path, b"pid=1\n").unwrap();
        let e = shim.create_exclusive(&path, b"pid=2\n").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(shim.read(&path).unwrap(), b"pid=1\n");
        let _ = fs::remove_dir_all(&dir);
    }
}
