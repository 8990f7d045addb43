//! The TCP front end: newline-delimited JSON over `127.0.0.1`.
//!
//! [`Server`] starts the sharded non-blocking event loop
//! ([`crate::shard`]): N IO shards of nonblocking sockets, no
//! per-connection threads, bounded queues, admission control with `S005`
//! load-shed, and a `stats` endpoint. Every shard submits into one shared
//! [`crate::service::BatchService`], so jobs from different clients
//! coalesce into common sweep batches and share the report cache. The
//! listener binds loopback only — the service trusts its input no more
//! than the CLI does (every model goes through the same typed-validation
//! pipeline), but it is a local tool, not an internet-facing daemon.
//!
//! # Pipelining window and response ordering
//!
//! A connection may have up to [`ServeOptions::window`] requests in
//! flight: requests are decoded eagerly and each job is submitted to the
//! batch service *without* waiting for the previous outcome, so requests
//! streamed down one connection coalesce into shared batches exactly like
//! requests from separate clients.
//!
//! **Default ordering is completion order.** Every response carries the
//! request's `id`, so clients correlate by id, not position. A client
//! that wants positional responses sends `{"cmd": "hello", "in_order":
//! true}` as the *first* request on the connection; out-of-order
//! completions are then buffered (bounded — see [`crate::reorder`]) and
//! released strictly in request order (the handshake is rejected with
//! `S002` once any other request has been seen). Either way every
//! accepted request gets exactly one response line, and a `shutdown`
//! acknowledgement never overtakes the draining of responses already in
//! flight on that connection.
//!
//! Request lines are read through the bounded [`crate::decode`] layer: a
//! line longer than [`ServeOptions::max_line_bytes`] is discarded (never
//! buffered whole) and answered with `S003`.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use segbus_core::EmulatorConfig;

use crate::shard::EventShared;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// TCP port on `127.0.0.1` (`0` = ephemeral, reported by [`Server::addr`]).
    pub port: u16,
    /// Worker threads of the sweep pool (`0` = all hardware threads).
    pub threads: usize,
    /// Report-cache capacity in entries.
    pub cache_capacity: usize,
    /// Directory of the persistent report store (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Maximum requests in flight per connection (clamped to ≥ 1).
    pub window: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// discarded and answered with `S003`.
    pub max_line_bytes: usize,
    /// Upper bound on an `emulate` request's `frames` (`S004` beyond it).
    pub max_frames: u64,
    /// Default emulator configuration for the pool workers (per-job
    /// overrides still apply).
    pub config: EmulatorConfig,
    /// IO shards (`0` = one per hardware thread, capped at 8).
    pub shards: usize,
    /// Global cap on emulation jobs in flight across all connections;
    /// admission beyond it is answered with `S005` instead of queued
    /// (`0` = default 4096).
    pub max_in_flight: usize,
    /// Test instrumentation: forwarded to
    /// [`crate::ServiceOptions::fault_frames`] to exercise the
    /// worker-fault shed path. `None` in production.
    #[doc(hidden)]
    pub fault_frames: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            port: 7878,
            threads: 0,
            cache_capacity: 256,
            cache_dir: None,
            window: 8,
            max_line_bytes: 4 * 1024 * 1024,
            max_frames: 4096,
            config: EmulatorConfig::default(),
            shards: 0,
            max_in_flight: 0,
            fault_frames: None,
        }
    }
}

/// A running server: the event-loop core's shard and accept threads plus
/// the shared batch service.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<EventShared>,
    handles: Option<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Bind `127.0.0.1:port` and start accepting clients. Fails when the
    /// socket cannot be bound or a requested `cache_dir` cannot be opened.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let (addr, shared, handles) = crate::shard::start_event_core(opts)?;
        Ok(Server {
            addr,
            shared,
            handles: Some(handles),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the core to stop, then wait for every connection — in-flight
    /// responses drain before this returns (bounded by a deadline so a
    /// stuck client cannot wedge it).
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown(self.addr);
        self.join_threads();
    }

    /// Block until the server shuts down (via a client `shutdown` command).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for h in self.handles.take().into_iter().flatten() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.handles.is_some() {
            self.shutdown();
        }
    }
}
