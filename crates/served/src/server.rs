//! The TCP front end: accept loop, per-connection protocol handling,
//! and shutdown plumbing.
//!
//! The listener runs nonblocking and polls two stop signals between
//! accepts: an internal flag set by a client `shutdown` request, and an
//! optional external flag an OS signal handler flips (the CLI installs
//! a SIGTERM/SIGINT handler pointing here). Either way the supervisor
//! is drained and [`Server::run`] returns a typed [`ShutdownReason`]
//! so the caller can pick the right exit code.

use crate::chaos::{Chaos, ChaosStream, ServedNet};
use crate::protocol::{read_frame, ErrorKind, ProtocolError, Request, Response};
use crate::store::{ArtifactStore, StoreError};
use crate::supervisor::{ResultError, SubmitRejection, Supervisor, SupervisorConfig};
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Why the daemon could not start or crashed.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        addr: String,
        source: std::io::Error,
    },
    /// The artifact store is unusable (exit code 8 territory).
    Store(StoreError),
    /// Listener-level I/O failure after startup.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Store(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "listener error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// How a clean shutdown was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownReason {
    /// A client sent the `shutdown` command.
    Requested,
    /// The external signal flag was raised (SIGTERM/SIGINT).
    Signal,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7777`. Port 0 picks a free port
    /// (see [`Server::local_addr`]).
    pub addr: String,
    /// Artifact store root.
    pub store_dir: std::path::PathBuf,
    /// Supervisor tuning.
    pub supervisor: SupervisorConfig,
    /// External stop flag, typically flipped by an OS signal handler.
    pub signal_flag: Option<&'static AtomicBool>,
    /// Fault injection for the store and every accepted connection —
    /// [`Chaos::off`] in production.
    pub chaos: Chaos,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    supervisor: Arc<Supervisor>,
    shutdown_requested: Arc<AtomicBool>,
    signal_flag: Option<&'static AtomicBool>,
    net: Arc<dyn ServedNet>,
}

impl Server {
    /// Binds the listener, opens the store, and starts the supervisor
    /// (which re-enqueues any journaled interrupted jobs).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address is unusable and
    /// [`ServeError::Store`] when the store is corrupt or unwritable.
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        let store = ArtifactStore::open_with_fs(&config.store_dir, config.chaos.fs())?;
        let supervisor = Arc::new(Supervisor::start(store, config.supervisor)?);
        Ok(Server {
            listener,
            addr,
            supervisor,
            shutdown_requested: Arc::new(AtomicBool::new(false)),
            signal_flag: config.signal_flag,
            net: config.chaos.net(),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until shutdown is requested, then drains the supervisor.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the listener itself fails.
    pub fn run(self) -> Result<ShutdownReason, ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(ServeError::Io)?;
        let reason = loop {
            if let Some(flag) = self.signal_flag {
                if flag.load(Ordering::SeqCst) {
                    break ShutdownReason::Signal;
                }
            }
            if self.shutdown_requested.load(Ordering::SeqCst) {
                break ShutdownReason::Requested;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let supervisor = Arc::clone(&self.supervisor);
                    let shutdown = Arc::clone(&self.shutdown_requested);
                    let stream = self.net.wrap_accepted(stream);
                    thread::spawn(move || handle_connection(stream, &supervisor, &shutdown));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::Io(e)),
            }
        };
        self.supervisor.shutdown();
        Ok(reason)
    }
}

/// Speaks the protocol over one connection until EOF, a fatal protocol
/// error, or a shutdown command. All failures become typed wire
/// errors; nothing a client sends can panic this thread.
fn handle_connection(stream: ChaosStream, supervisor: &Supervisor, shutdown: &AtomicBool) {
    // Bound both directions so a peer that goes silent (reads) or stops
    // draining its receive buffer (writes) cannot pin this thread
    // forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(stream);

    loop {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return, // clean EOF
            Err(e) => {
                // Report the decode failure, then drop the connection:
                // after oversize/garbage the stream position is
                // untrustworthy.
                let _ = send(
                    &mut writer,
                    &Response::Error {
                        kind: ErrorKind::Protocol,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::decode(&line) {
            Ok(request) => {
                let is_shutdown = request == Request::Shutdown;
                let response = dispatch(request, supervisor);
                if is_shutdown {
                    let _ = send(&mut writer, &response);
                    shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                response
            }
            Err(e) => Response::Error {
                kind: ErrorKind::Protocol,
                message: e.to_string(),
            },
        };
        if send(&mut writer, &response).is_err() {
            return;
        }
    }
}

fn send(writer: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn dispatch(request: Request, supervisor: &Supervisor) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
        Request::Submit(spec) => match supervisor.submit(spec) {
            Ok(status) => Response::Submitted(status),
            Err(SubmitRejection::Busy { queue_cap }) => Response::Error {
                kind: ErrorKind::Busy,
                message: format!("queue full ({queue_cap} jobs); retry later"),
            },
            Err(SubmitRejection::Invalid { message }) => Response::Error {
                kind: ErrorKind::Invalid,
                message,
            },
            Err(SubmitRejection::Store(e)) => Response::Error {
                kind: ErrorKind::Internal,
                message: e.to_string(),
            },
        },
        Request::Status { job } => match supervisor.status(job) {
            Some(status) => Response::Status(status),
            None => Response::Error {
                kind: ErrorKind::UnknownJob,
                message: format!("no job {}", crate::protocol::hex_id(job)),
            },
        },
        Request::Result { job } => match supervisor.result(job) {
            Ok(rows) => Response::Rows(rows),
            Err(ResultError::UnknownJob) => Response::Error {
                kind: ErrorKind::UnknownJob,
                message: format!("no job {}", crate::protocol::hex_id(job)),
            },
            Err(ResultError::NotDone { state, error }) => Response::Error {
                kind: ErrorKind::NotDone,
                message: match error {
                    Some(e) => format!("job is {state}: {e}"),
                    None => format!("job is {state}"),
                },
            },
            Err(ResultError::MissingCell { cell }) => Response::Error {
                kind: ErrorKind::Internal,
                message: format!(
                    "cell {} of a done job is missing from the store",
                    crate::protocol::hex_id(cell)
                ),
            },
        },
    }
}

/// A `ProtocolError` mapped to the wire for reuse by the CLI.
pub fn protocol_error_response(e: &ProtocolError) -> Response {
    Response::Error {
        kind: ErrorKind::Protocol,
        message: e.to_string(),
    }
}
