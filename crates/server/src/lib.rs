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
//!   deadlines, admission control) dispatching parsed requests to a
//!   fixed [`cx_par::queue::WorkerPool`]
//!   ([`conn`] holds the per-connection read/write state machines);
//! * [`routes`] — the REST API over a shared [`cx_explorer::Engine`]:
//!   one table, [`routes::ENDPOINTS`], lists every path the server
//!   answers, and one function, [`routes::route`], answers all of them
//!   with one framed response per request — the event loop and
//!   [`Server::handle`] both call it, so a test, the fuzzer and a socket
//!   client execute the same code. The engine needs
//!   no outer lock: read handlers pin an immutable graph snapshot
//!   (`Engine::snapshot`) and run lock-free; write handlers
//!   (`/api/v1/edit`, `/api/v1/upload`) build the next snapshot off-lock
//!   and publish it atomically, so edits never block concurrent searches.
//!   Responses use a uniform JSON envelope with typed error codes;
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

    /// What both [`Server::handle`] and the event loop run per request:
    /// [`routes::route`] under the `CX_AUTH_TOKEN` policy, then the
    /// compaction check.
    fn answer(engine: &Arc<cx_explorer::Engine>, req: &Request) -> Response {
        let resp = routes::route(engine, req, routes::env_auth_token());
        // Writes grow the WAL; check the compaction trigger after, not
        // during, the request (the check is two atomic loads when idle).
        if req.method == "POST" {
            engine.maybe_compact_in_background();
        }
        resp
    }

    /// Handles one parsed request without a socket — what the unit tests,
    /// the fuzzer and the benchmark's traced replay drive.
    pub fn handle(&self, req: &Request) -> Response {
        Self::answer(&self.engine, req)
    }

    /// The handler closure the event loop runs.
    fn handler(&self) -> Arc<http::RequestHandler> {
        let engine = Arc::clone(&self.engine);
        Arc::new(move |req: &Request| Self::answer(&engine, req))
    }

    /// Binds `addr` and serves forever (default event-loop config,
    /// 4 workers).
    pub fn serve(&self, addr: &str) -> std::io::Result<()> {
        let mut handle = http::serve(addr, ServerConfig::default(), self.handler())?;
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
    /// (connection caps, in-flight budget, timeouts).
    pub fn serve_background_with(&self, config: ServerConfig) -> std::io::Result<ServerHandle> {
        http::serve("127.0.0.1:0", config, self.handler())
    }
}
