//! A small blocking client for the daemon's protocol.
//!
//! One connection per request keeps the client stateless and immune to
//! server-side connection churn; at sweep-submission rates the extra
//! TCP handshakes are noise.

use crate::chaos::{Chaos, ServedNet};
use crate::protocol::{read_frame, ErrorKind, JobStatus, ProtocolError, Request, Response};
use std::fmt;
use std::io::{BufReader, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach the daemon.
    Connect {
        addr: String,
        source: std::io::Error,
    },
    /// Socket-level failure mid-exchange.
    Io(std::io::Error),
    /// The server's reply did not decode.
    Protocol(ProtocolError),
    /// The server answered with a typed error frame.
    Server { kind: ErrorKind, message: String },
    /// The server closed the connection without replying.
    NoReply,
    /// A wait loop outlived its budget.
    WaitTimedOut { waited_ms: u64 },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect { addr, source } => {
                write!(f, "cannot connect to {addr}: {source}")
            }
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(e) => write!(f, "bad reply: {e}"),
            ClientError::Server { kind, message } => write!(f, "server says {kind}: {message}"),
            ClientError::NoReply => write!(f, "server closed the connection without replying"),
            ClientError::WaitTimedOut { waited_ms } => {
                write!(f, "job still not finished after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Handle to a daemon address.
pub struct Client {
    addr: String,
    net: Arc<dyn ServedNet>,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7777`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_chaos(addr, &Chaos::off())
    }

    /// A client whose socket I/O goes through `chaos` — for fault
    /// campaigns against the client side of the protocol.
    pub fn with_chaos(addr: impl Into<String>, chaos: &Chaos) -> Client {
        Client {
            addr: addr.into(),
            net: chaos.net(),
        }
    }

    /// The daemon address this client talks to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one request and decodes one response.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]. A typed server error frame is surfaced as
    /// [`ClientError::Server`], not an `Ok` response.
    pub fn call(&self, request: &Request) -> Result<Response, ClientError> {
        let stream = self
            .net
            .connect(&self.addr)
            .map_err(|source| ClientError::Connect {
                addr: self.addr.clone(),
                source,
            })?;
        // Bound both directions: a daemon that stops answering (reads)
        // or stops draining (writes) must fail typed, not hang the
        // caller.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let mut writer = stream.try_clone().map_err(ClientError::Io)?;
        let mut line = request.encode();
        line.push('\n');
        writer.write_all(line.as_bytes()).map_err(ClientError::Io)?;
        writer.flush().map_err(ClientError::Io)?;

        let mut reader = BufReader::new(stream);
        let reply = match read_frame(&mut reader) {
            Ok(Some(reply)) => reply,
            Ok(None) => return Err(ClientError::NoReply),
            Err(ProtocolError::Io(e)) => return Err(ClientError::Io(e)),
            Err(e) => return Err(ClientError::Protocol(e)),
        };
        match Response::decode(&reply).map_err(ClientError::Protocol)? {
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            response => Ok(response),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// [`ClientError`] if the daemon is unreachable or answers oddly.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Submits a job; the returned status carries the job id (and is
    /// already `done` with `cached: true` on a full cache hit).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorKind::Busy`] when the daemon
    /// sheds load, [`ErrorKind::Invalid`] for bad specs, plus transport
    /// failures.
    pub fn submit(&self, spec: crate::protocol::JobSpec) -> Result<JobStatus, ClientError> {
        match self.call(&Request::Submit(spec))? {
            Response::Status(status) | Response::Submitted(status) => Ok(status),
            other => Err(unexpected(other)),
        }
    }

    /// Queries a job's status.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorKind::UnknownJob`] for
    /// unknown ids, plus transport failures.
    pub fn status(&self, job: u64) -> Result<JobStatus, ClientError> {
        match self.call(&Request::Status { job })? {
            Response::Status(status) | Response::Submitted(status) => Ok(status),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches a done job's cell results.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorKind::NotDone`] while the
    /// job is still running, plus transport failures.
    pub fn result(&self, job: u64) -> Result<Vec<crate::protocol::CellResult>, ClientError> {
        match self.call(&Request::Result { job })? {
            Response::Rows(rows) => Ok(rows),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Transport failures; success means the daemon acknowledged.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Polls `status` every `poll` until the job reaches a terminal
    /// state or `budget` elapses.
    ///
    /// # Errors
    ///
    /// [`ClientError::WaitTimedOut`] when the budget expires; otherwise
    /// whatever `status` fails with.
    pub fn wait(
        &self,
        job: u64,
        poll: Duration,
        budget: Duration,
    ) -> Result<JobStatus, ClientError> {
        let start = Instant::now();
        loop {
            let status = self.status(job)?;
            if status.state.is_terminal() {
                return Ok(status);
            }
            if start.elapsed() >= budget {
                return Err(ClientError::WaitTimedOut {
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            std::thread::sleep(poll);
        }
    }
}

fn unexpected(response: Response) -> ClientError {
    ClientError::Protocol(ProtocolError::UnknownReply {
        found: response.encode(),
    })
}
