#![warn(missing_docs)]

//! # cx-server — the browser–server layer (Figure 3)
//!
//! The paper deploys C-Explorer as a JSP/Tomcat web application; this
//! crate is the Rust equivalent, deliberately dependency-free at the
//! transport level:
//!
//! * [`json`] — a small, strict JSON value model with a writer and parser
//!   (no serde: the protocol is tiny and auditable);
//! * [`http`] — request/response types that are fully testable without
//!   sockets, over the [`event_loop`] transport: a nonblocking
//!   `poll(2)`-based event loop (keep-alive, pipelining, per-request
//!   deadlines, admission control, SSE streaming) dispatching parsed
//!   requests to a fixed [`cx_par::queue::WorkerPool`]
//!   ([`conn`] holds the per-connection read/write state machines);
//! * [`routes`] — the REST API (`/api/v1/search`, `/api/v1/compare`,
//!   `/api/v1/detect`, `/api/v1/profile`, `/api/v1/suggest`,
//!   `/api/v1/graphs`, `/api/v1/upload`, …) over a shared
//!   [`cx_explorer::Engine`]. The engine needs no outer lock: read
//!   handlers pin an immutable graph snapshot (`Engine::snapshot`) and run
//!   lock-free; write handlers (`/api/v1/edit`, `/upload`) build the next
//!   snapshot off-lock and publish it atomically, so edits never block
//!   concurrent searches. Responses use a uniform JSON envelope with
//!   typed error codes. Operational endpoints: `GET /metrics`
//!   (Prometheus text from `cx-obs`), `GET /healthz`,
//!   `GET /api/v1/trace` (per-request span trees);
//! * [`ui`] — the embedded single-page browser UI (left panel: name box,
//!   degree constraint, keyword chips; right panel: the community drawn on
//!   a canvas), mirroring Figure 1.
//!
//! ```no_run
//! use cx_server::Server;
//! let engine = cx_explorer::Engine::with_graph("fig5", cx_datagen::figure5_graph());
//! Server::new(engine).serve("127.0.0.1:7171").unwrap();
//! ```

pub mod conn;
pub mod event_loop;
pub mod http;
pub mod json;
pub mod routes;
pub mod ui;

pub use event_loop::{ServerConfig, ServerHandle};
pub use http::{Request, Response};
pub use json::Json;

use std::sync::Arc;

/// The C-Explorer web server: a shared snapshot engine plus the HTTP loop.
pub struct Server {
    engine: Arc<cx_explorer::Engine>,
}

impl Server {
    /// Wraps an engine for serving.
    pub fn new(engine: cx_explorer::Engine) -> Self {
        Self { engine: Arc::new(engine) }
    }

    /// A server over a durable engine rooted at `dir`: recovers every
    /// graph from the store (snapshots + WAL replay) and logs every write
    /// request before publishing it. See `cx_explorer::Engine::open_durable`.
    pub fn open_durable(dir: &std::path::Path) -> Result<Self, cx_explorer::ExplorerError> {
        Ok(Self::new(cx_explorer::Engine::open_durable(dir)?))
    }

    /// Shared handle to the engine (e.g. to add graphs while serving —
    /// all mutation goes through `&self` snapshot-publishing methods).
    pub fn engine(&self) -> Arc<cx_explorer::Engine> {
        Arc::clone(&self.engine)
    }

    /// Handles one parsed request — the unit tests drive this directly.
    pub fn handle(&self, req: &Request) -> Response {
        let resp = routes::route(&self.engine, req);
        // Writes grow the WAL; check the compaction trigger after, not
        // during, the request (the check is two atomic loads when idle).
        if req.method == "POST" {
            self.engine.maybe_compact_in_background();
        }
        resp
    }

    /// The streaming-aware handler closure the event loop runs: the
    /// instrumented route chokepoint plus SSE dispatch and the
    /// post-request compaction check.
    fn stream_handler(&self) -> Arc<http::StreamHandler> {
        let engine = Arc::clone(&self.engine);
        Arc::new(move |req: &Request, sink: &Arc<dyn routes::StreamSink>| {
            let resp = routes::route_sink(&engine, req, sink);
            // Writes grow the WAL; check the compaction trigger after, not
            // during, the request (the check is two atomic loads when idle).
            if req.method == "POST" {
                engine.maybe_compact_in_background();
            }
            resp
        })
    }

    /// Binds `addr` and serves forever (default event-loop config,
    /// 4 workers).
    pub fn serve(&self, addr: &str) -> std::io::Result<()> {
        let mut handle =
            http::serve_stream(addr, ServerConfig::default(), self.stream_handler())?;
        handle.wait();
        Ok(())
    }

    /// Binds an OS-assigned port and serves on background threads — used
    /// by the end-to-end tests and the `serve` example. Dropping (or
    /// calling `shutdown()` on) the returned handle stops accepting,
    /// drains in-flight responses, and joins the workers.
    pub fn serve_background(&self) -> std::io::Result<ServerHandle> {
        let config = ServerConfig { workers: 2, ..ServerConfig::default() };
        self.serve_background_with(config)
    }

    /// [`Server::serve_background`] with an explicit transport config
    /// (connection caps, in-flight budget, timeouts, heartbeat cadence).
    pub fn serve_background_with(&self, config: ServerConfig) -> std::io::Result<ServerHandle> {
        http::serve_stream("127.0.0.1:0", config, self.stream_handler())
    }
}
