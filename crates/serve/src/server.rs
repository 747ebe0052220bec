//! The partitioning daemon: accept loop, worker pool, keep-alive
//! connection loop, routing, metrics, graceful drain.
//!
//! Connections are persistent HTTP/1.1 by default: a worker thread owns
//! an accepted socket for its whole lifetime and serves requests in a
//! loop until the client sends `Connection: close`, the idle deadline
//! between requests expires, the per-connection request cap is reached,
//! or shutdown drains the daemon. Pipelined requests already buffered on
//! the connection are served before the socket is released. Error
//! responses always carry `Connection: close` — after a protocol-level
//! failure the stream position is suspect, so the daemon resynchronises
//! by closing.
//!
//! The accept loop polls a shutdown latch (set by `POST /shutdown` or by
//! SIGINT/SIGTERM via [`crate::signal`]) between non-blocking accepts;
//! on shutdown it stops accepting, the workers drain the queue (keep-alive
//! loops end after the in-flight request), resident hierarchies spill to
//! `--cache-dir` when one is configured, and [`Server::run`] returns —
//! in-flight requests always finish.
//!
//! Endpoints:
//!
//! - `POST /partition?k=&tol=&seed=&threads=` — body is the graph
//!   (METIS text, or JSON-CSR under `Content-Type: application/json`).
//!   Streams a JSONL body (`meta`, `part`×, `done`); cache verdict and
//!   timings ride in `X-Mcgp-*` headers (see [`crate::protocol`]).
//! - `GET /metrics` — counters, cache occupancy, latency histogram, and
//!   the accumulated observability ledger (phase times plus the always-on
//!   counters, gauges and histograms), as one JSON object.
//! - `GET /healthz` — liveness probe.
//! - `POST /shutdown` — graceful drain, same path as a signal.
//!
//! Failure containment: malformed inputs produce typed error bodies
//! ([`crate::protocol::RequestError`]); a partitioner panic is caught,
//! answered with a 500, and never takes down the daemon or poisons the
//! hierarchy cache.

use crate::cache::{
    fingerprint, CacheConfig, CacheStats, CacheVerdict, CachedEntry, HierarchyCache,
};
use crate::protocol::{
    done_line, meta_line, part_line, GraphFormat, PartitionParams, RequestError, PART_CHUNK,
};
use crate::signal;
use mcgp_core::{HierarchySnapshot, PartitionConfig, PartitionResult};
use mcgp_graph::io::{graph_from_json, read_metis};
use mcgp_graph::McgpError;
use mcgp_runtime::metrics::{self, Counter, Ledger, Phase, PromWriter, WindowedHistogram};
use mcgp_runtime::net::{Conn, Limits, NetError, Request};
use mcgp_runtime::profile::Profiler;
use mcgp_runtime::trace::TraceEvent;
use mcgp_runtime::{Json, ToJson};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Retained trace events are capped so a long-lived daemon with tracing
/// enabled cannot grow without bound.
const TRACE_EVENT_CAP: usize = 100_000;

/// Sliding latency window: 8 epochs × 16 samples. Epochs tick on sample
/// count (see [`WindowedHistogram`]), so after ~a window of steady-state
/// traffic the windowed quantiles shed any cold-start outliers.
const LATENCY_EPOCHS: usize = 8;
/// See [`LATENCY_EPOCHS`].
const LATENCY_EPOCH_LEN: u64 = 16;

/// `GET /profile` sampling sessions are process-global (the profiler owns
/// one enable flag), so concurrent requests get 503 instead of corrupting
/// each other's tallies. A plain atomic busy flag rather than a `Mutex`:
/// a poisoned lock would turn one panic into a permanent 503 for the
/// daemon's lifetime, while the [`ProfileSlot`] drop guard always releases.
static PROFILE_BUSY: AtomicBool = AtomicBool::new(false);

/// Exclusive claim on the process-wide profiling session; released on drop
/// (including panic unwinds).
struct ProfileSlot;

impl ProfileSlot {
    fn acquire() -> Option<ProfileSlot> {
        PROFILE_BUSY
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            .then_some(ProfileSlot)
    }
}

impl Drop for ProfileSlot {
    fn drop(&mut self) {
        PROFILE_BUSY.store(false, Ordering::Release);
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Hierarchy-cache byte budget.
    pub cache_bytes: usize,
    /// Whole-request read deadline for the first request on a connection,
    /// and the per-operation write timeout (408 on expiry).
    pub io_timeout: Duration,
    /// Keep-alive deadline: a follow-up request on a persistent
    /// connection must arrive *and complete* within this window, so an
    /// idle peer (or one dripping a request byte-by-byte — slowloris)
    /// cannot pin a worker past it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the daemon forces a
    /// close — bounds per-connection resource residency and gives load
    /// balancers a natural rebalancing point.
    pub max_requests_per_conn: u64,
    /// When set, evicted and shutdown-resident hierarchies spill here and
    /// cache misses probe it first, so a restart with the same directory
    /// serves warm (`X-Mcgp-Cache: disk`, `X-Mcgp-Coarsen-Us: 0`).
    pub cache_dir: Option<PathBuf>,
    /// Default for the `threads=` query parameter — requests that don't
    /// pin a thread count run the partitioning pipeline at this width.
    pub default_threads: usize,
    /// Request head/body size limits.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7699".into(),
            workers: 2,
            cache_bytes: 256 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(10),
            max_requests_per_conn: 1024,
            cache_dir: None,
            default_threads: 1,
            limits: Limits::default(),
        }
    }
}

/// Always-on daemon counters.
struct ServeStats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    /// Accepted connections. `requests / connections` is the observed
    /// keep-alive reuse factor.
    connections: AtomicU64,
    /// Microsecond latency of successful `/partition` requests: lifetime
    /// histogram + sliding window for steady-state quantiles.
    latency_us: Mutex<WindowedHistogram>,
    /// Per-(route, outcome) request counts. Outcomes for `/partition` are
    /// the cache verdict (`miss`/`hit`/`wait`) or `error`; other routes
    /// count `ok`/`error`.
    by_route: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
    /// Successful `/partition` requests by their `threads=` parameter, so
    /// operators can see how much traffic actually exercises the parallel
    /// pipeline.
    by_threads: Mutex<BTreeMap<usize, u64>>,
    /// Every worker's observability ledger, merged after each request;
    /// its events stay capped at [`TRACE_EVENT_CAP`].
    ledger: Mutex<Ledger>,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            latency_us: Mutex::new(WindowedHistogram::new(LATENCY_EPOCHS, LATENCY_EPOCH_LEN)),
            by_route: Mutex::new(BTreeMap::new()),
            by_threads: Mutex::new(BTreeMap::new()),
            ledger: Mutex::new(Ledger::new()),
        }
    }
}

impl ServeStats {
    /// Merges `local` into the daemon-wide ledger, retaining at most
    /// [`TRACE_EVENT_CAP`] events.
    fn absorb(&self, mut local: Ledger) {
        let mut ledger = self.ledger.lock().unwrap();
        let room = TRACE_EVENT_CAP.saturating_sub(ledger.events.len());
        local.events.truncate(room);
        ledger.merge(local);
    }

    fn count_route(&self, route: &'static str, outcome: &'static str) {
        *self
            .by_route
            .lock()
            .unwrap()
            .entry((route, outcome))
            .or_insert(0) += 1;
    }

    fn record_ok(&self, route: &'static str, outcome: &'static str, latency_us: Option<u64>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.ok.fetch_add(1, Ordering::Relaxed);
        self.count_route(route, outcome);
        if let Some(us) = latency_us {
            self.latency_us.lock().unwrap().record(us as i64);
        }
    }

    fn count_threads(&self, nthreads: usize) {
        *self
            .by_threads
            .lock()
            .unwrap()
            .entry(nthreads)
            .or_insert(0) += 1;
    }

    fn record_error(&self, route: &'static str) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.count_route(route, "error");
    }
}

struct State {
    config: ServeConfig,
    cache: HierarchyCache,
    stats: ServeStats,
    shutdown: AtomicBool,
    seq: AtomicU64,
}

impl State {
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::raised()
    }
}

/// A cloneable handle onto a running (or stopped) server: shutdown,
/// metrics, trace drainage. The in-process bench and the CLI use this;
/// remote clients use `POST /shutdown` and `GET /metrics`.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl ServerHandle {
    /// Requests a graceful drain; [`Server::run`] returns once in-flight
    /// work finishes.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Hierarchy-cache counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// The same JSON document `GET /metrics` serves.
    pub fn metrics_json(&self) -> Json {
        metrics_json(&self.state)
    }

    /// The same Prometheus text document `GET /metrics?format=prom`
    /// serves.
    pub fn metrics_prom(&self) -> String {
        metrics_prom(&self.state)
    }

    /// Drains trace events retained from traced requests (empty unless
    /// tracing is enabled).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.state.stats.ledger.lock().unwrap().events)
    }
}

/// The daemon. [`Server::bind`] claims the socket (so callers can learn
/// an ephemeral port before serving); [`Server::run`] serves until
/// shutdown.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listen socket and initialises the cache; serves nothing
    /// until [`Server::run`].
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut cache_config = CacheConfig::new(config.cache_bytes);
        cache_config.spill_dir = config.cache_dir.clone();
        let state = Arc::new(State {
            cache: HierarchyCache::with_config(cache_config),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (the actual port when 0 was requested).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutdown and metrics, usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: self.state.clone(),
        }
    }

    /// Serves until a graceful shutdown is requested (handle, signal, or
    /// `POST /shutdown`), then drains queued connections and returns.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, state } = self;
        listener.set_nonblocking(true)?;
        let queue: Mutex<(VecDeque<TcpStream>, bool)> = Mutex::new((VecDeque::new(), false));
        let available = Condvar::new();
        std::thread::scope(|scope| {
            for _ in 0..state.config.workers.max(1) {
                let state = &state;
                let queue = &queue;
                let available = &available;
                scope.spawn(move || loop {
                    let conn = {
                        let mut g = queue.lock().unwrap();
                        loop {
                            if let Some(c) = g.0.pop_front() {
                                break Some(c);
                            }
                            if g.1 {
                                break None;
                            }
                            g = available.wait(g).unwrap();
                        }
                    };
                    match conn {
                        Some(stream) => handle_connection(state, stream),
                        None => return,
                    }
                });
            }
            loop {
                if state.shutdown_requested() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        queue.lock().unwrap().0.push_back(stream);
                        available.notify_one();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            // Drain: no new accepts; workers finish what is queued.
            queue.lock().unwrap().1 = true;
            available.notify_all();
        });
        // Warm-restart handoff: persist what this process coarsened so the
        // next one with the same --cache-dir starts with X-Mcgp-Cache: disk
        // instead of cold misses. A no-op without a spill directory.
        state.cache.spill_all();
        Ok(())
    }
}

/// Serves one connection to completion: a keep-alive loop over
/// [`Conn::read_request`]. The first request gets the full
/// `io_timeout` read deadline; follow-up requests on the reused socket
/// must arrive *and complete* within `idle_timeout` (the slowloris
/// bound — a peer dripping its second request one byte at a time gets a
/// 408, not a pinned worker). The loop ends on `Connection: close`, the
/// request cap, shutdown, an ingest error, or a failed write.
fn handle_connection(state: &State, stream: TcpStream) {
    state.stats.connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
    // Nagle + delayed-ACK stalls every small chunked write behind the
    // peer's ACK clock (~40ms each) — fatal for pipelined keep-alive.
    let _ = stream.set_nodelay(true);
    let mut conn = Conn::new(stream);
    let mut served: u64 = 0;
    loop {
        let deadline = if served == 0 {
            state.config.io_timeout
        } else {
            state.config.idle_timeout
        };
        match conn.read_request(&state.config.limits, Some(deadline)) {
            // Nothing arrived (probe, or the clean end of a keep-alive
            // conversation): not a request.
            Err(NetError::Closed) => break,
            Err(e) => {
                // An idle keep-alive peer timing out with no bytes in
                // flight is the connection reaching end-of-life, not a
                // client mistake; only partial or malformed requests
                // count as ingest errors.
                let idle_expiry =
                    served > 0 && matches!(e, NetError::Timeout) && !conn.has_buffered_input();
                if !idle_expiry {
                    state.stats.record_error("ingest");
                }
                let (status, kind) = match &e {
                    NetError::Timeout => (408, "timeout"),
                    NetError::TooLarge { .. } => (413, "too_large"),
                    _ => (400, "bad_request"),
                };
                let body = error_body(kind, &e.to_string());
                let _ =
                    conn.write_response(status, "application/json", &[], body.as_bytes(), false);
                break;
            }
            Ok(req) => {
                // Latency clock starts once the request has fully
                // arrived: accept-queue wait and client upload time are
                // the client's story, not the partitioner's.
                let t0 = Instant::now();
                served += 1;
                let keep = req.wants_keep_alive()
                    && served < state.config.max_requests_per_conn
                    && !state.shutdown_requested();
                let alive = route(state, &mut conn, req, t0, keep);
                drain_observability(state);
                if !alive || !keep || state.shutdown_requested() {
                    break;
                }
            }
        }
    }
}

fn error_body(kind: &str, detail: &str) -> String {
    let mut line = Json::obj([
        ("type", Json::Str("error".into())),
        ("kind", Json::Str(kind.into())),
        ("detail", Json::Str(detail.into())),
    ])
    .to_string();
    line.push('\n');
    line
}

/// True when the client asked for Prometheus text exposition: an explicit
/// `?format=prom`, or an `Accept` header preferring `text/plain` (the
/// exposition content type Prometheus scrapers send).
fn wants_prom(req: &Request) -> bool {
    match req.query_param("format") {
        Some("prom") | Some("prometheus") => return true,
        Some(_) => return false,
        None => {}
    }
    req.header("accept")
        .is_some_and(|a| a.contains("text/plain") || a.contains("openmetrics"))
}

/// Dispatches one request and returns whether the connection is still
/// usable for a follow-up (`keep` honoured and the write succeeded).
/// Every error response advertises `Connection: close`.
fn route(state: &State, conn: &mut Conn, req: Request, t0: Instant, keep: bool) -> bool {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/partition") => handle_partition(state, conn, req, t0, keep),
        ("GET", "/metrics") => {
            if wants_prom(&req) {
                let body = metrics_prom(state);
                state.stats.record_ok("metrics", "ok", None);
                conn.write_response(
                    200,
                    "text/plain; version=0.0.4",
                    &[],
                    body.as_bytes(),
                    keep,
                )
                .is_ok()
                    && keep
            } else {
                let mut body = metrics_json(state).to_string();
                body.push('\n');
                state.stats.record_ok("metrics", "ok", None);
                conn.write_response(200, "application/json", &[], body.as_bytes(), keep)
                    .is_ok()
                    && keep
            }
        }
        ("GET", "/profile") => handle_profile(state, conn, &req, keep),
        ("GET", "/healthz") => {
            state.stats.record_ok("healthz", "ok", None);
            conn.write_response(200, "application/json", &[], b"{\"ok\":true}\n", keep)
                .is_ok()
                && keep
        }
        ("POST", "/shutdown") => {
            state.stats.record_ok("shutdown", "ok", None);
            // The daemon is draining: never invite a follow-up request.
            let _ = conn.write_response(
                200,
                "application/json",
                &[],
                b"{\"draining\":true}\n",
                false,
            );
            state.shutdown.store(true, Ordering::SeqCst);
            false
        }
        (_, "/partition" | "/metrics" | "/healthz" | "/shutdown" | "/profile") => {
            state.stats.record_error("method");
            let body = error_body(
                "method_not_allowed",
                &format!("{} not allowed here", req.method),
            );
            let _ = conn.write_response(405, "application/json", &[], body.as_bytes(), false);
            false
        }
        (_, path) => {
            state.stats.record_error("not_found");
            let body = error_body("not_found", &format!("no such endpoint: {path}"));
            let _ = conn.write_response(404, "application/json", &[], body.as_bytes(), false);
            false
        }
    }
}

/// `GET /profile?seconds=N&hz=H`: runs one span-stack sampling session on
/// the live daemon and returns the collapsed-stack document as
/// `text/plain`. `seconds` is clamped to `[0, 60]` (fractions allowed,
/// default 1), `hz` to the profiler's own bounds (default 997 — a prime,
/// so sampling doesn't phase-lock with periodic work). One session at a
/// time: concurrent requests get 503 rather than sharing the process-wide
/// enable flag.
fn handle_profile(state: &State, conn: &mut Conn, req: &Request, keep: bool) -> bool {
    // `parse::<f64>` accepts "nan"/"inf", and NaN passes straight through
    // `clamp` into `Duration::from_secs_f64`, which panics — so non-finite
    // values fall back to the default like any other unusable input.
    let seconds = req
        .query_param("seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .unwrap_or(1.0)
        .clamp(0.0, 60.0);
    let hz = req
        .query_param("hz")
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(997);
    let Some(_session) = ProfileSlot::acquire() else {
        state.stats.record_error("profile");
        let body = error_body("profiler_busy", "another /profile session is running");
        let _ = conn.write_response(503, "application/json", &[], body.as_bytes(), false);
        return false;
    };
    // Same containment as the partition path: a panic costs this request a
    // 500, not the daemon a worker (the slot guard above still releases).
    let folded = catch_unwind(AssertUnwindSafe(|| {
        let profiler = Profiler::start(hz);
        std::thread::sleep(Duration::from_secs_f64(seconds));
        profiler.stop().render()
    }));
    match folded {
        Ok(folded) => {
            state.stats.record_ok("profile", "ok", None);
            conn.write_response(200, "text/plain", &[], folded.as_bytes(), keep)
                .is_ok()
                && keep
        }
        Err(_) => {
            state.stats.record_error("profile");
            let body = error_body(
                "internal",
                "profiler panicked on this request; the daemon survives",
            );
            let _ = conn.write_response(500, "application/json", &[], body.as_bytes(), false);
            false
        }
    }
}

/// Parse + validate + coarsen (through the cache) + partition. Runs on
/// the worker thread inside a `Ledger::capture`, so coarsening time
/// lands in the report exactly when this request paid for it.
fn compute(
    state: &State,
    fp: u64,
    format: GraphFormat,
    body: &[u8],
    p: &PartitionParams,
) -> Result<(Arc<CachedEntry>, CacheVerdict, PartitionResult), RequestError> {
    let (entry, verdict) = state
        .cache
        .get_or_build(fp, || {
            // Wall-clock the parse+check+coarsen pipeline: the measured
            // rebuild cost is what GDSF eviction weighs this entry by.
            let build_t0 = Instant::now();
            let graph = match format {
                GraphFormat::Metis => read_metis(body)?,
                GraphFormat::Json => {
                    let text = std::str::from_utf8(body).map_err(|e| McgpError::Parse {
                        line: 0,
                        col: 0,
                        msg: format!("body is not UTF-8: {e}"),
                    })?;
                    graph_from_json(text)?
                }
            };
            // Both readers end in `Graph::from_csr`, whose `validate()`
            // has already run every Cheap check plus symmetry and
            // duplicates: the daemon trusts no client, and checks once.
            let cfg = PartitionConfig {
                seed: p.seed,
                nthreads: p.nthreads,
                ..PartitionConfig::default()
            };
            let snapshot = HierarchySnapshot::build(&graph, &cfg);
            let cost_s = build_t0.elapsed().as_secs_f64();
            Ok(CachedEntry::new(graph, snapshot, cost_s))
        })
        .map_err(RequestError::Graph)?;
    if p.nparts > entry.graph.nvtxs() {
        return Err(RequestError::Param(format!(
            "k={} exceeds the graph's {} vertices",
            p.nparts,
            entry.graph.nvtxs()
        )));
    }
    let cfg = PartitionConfig {
        seed: p.seed,
        nthreads: p.nthreads,
        imbalance_tol: p.tol,
        ..PartitionConfig::default()
    };
    let result = entry.snapshot.partition(&entry.graph, p.nparts, &cfg);
    Ok((entry, verdict, result))
}

fn handle_partition(state: &State, conn: &mut Conn, req: Request, t0: Instant, keep: bool) -> bool {
    let seq = state.seq.fetch_add(1, Ordering::Relaxed);
    let params = match PartitionParams::from_request(&req, state.config.default_threads) {
        Ok(p) => p,
        Err(msg) => return finish_error(state, conn, &RequestError::Param(msg)),
    };
    let format = GraphFormat::from_request(&req);
    let fp = fingerprint(format, &req.body, params.seed, params.nthreads);
    let trace_id = format!("{fp:016x}-{seq:06}");
    let mut span = mcgp_runtime::span!(
        "serve_request",
        fp = fp,
        seq = seq,
        k = params.nparts,
        seed = params.seed,
        threads = params.nthreads,
    );
    let computed = catch_unwind(AssertUnwindSafe(|| {
        Ledger::capture(|| compute(state, fp, format, &req.body, &params))
    }));
    let (outcome, coarsen_us) = match computed {
        Ok((outcome, report)) => {
            // Per-request coarsening time feeds the header below; the
            // whole ledger joins the daemon's before the response goes out.
            let coarsen_us = (report.seconds(Phase::Coarsen) * 1e6).round() as u64;
            state.stats.absorb(report);
            (outcome, coarsen_us)
        }
        Err(_) => {
            span.record("outcome", "panic");
            let err = RequestError::Internal(
                "partitioner panicked on this request; the daemon survives".into(),
            );
            return finish_error(state, conn, &err);
        }
    };
    match outcome {
        Err(err) => {
            span.record("outcome", err.parts().1);
            finish_error(state, conn, &err)
        }
        Ok((entry, verdict, result)) => {
            let total_us = t0.elapsed().as_micros() as u64;
            span.record("outcome", verdict.header_value());
            span.record("coarsen_us", coarsen_us);
            span.record("edge_cut", result.quality.edge_cut);
            let headers = [
                (
                    "X-Mcgp-Cache".to_string(),
                    verdict.header_value().to_string(),
                ),
                ("X-Mcgp-Trace-Id".to_string(), trace_id),
                ("X-Mcgp-Coarsen-Us".to_string(), coarsen_us.to_string()),
                ("X-Mcgp-Total-Us".to_string(), total_us.to_string()),
            ];
            match write_success(conn, &headers, fp, &params, &entry, &result, keep) {
                Ok(()) => {
                    state
                        .stats
                        .record_ok("partition", verdict.header_value(), Some(total_us));
                    state.stats.count_threads(params.nthreads);
                    keep
                }
                // The response could not be delivered (client went away):
                // the work succeeded but the request did not.
                Err(_) => {
                    state.stats.record_error("partition");
                    false
                }
            }
        }
    }
}

fn finish_error(state: &State, conn: &mut Conn, err: &RequestError) -> bool {
    state.stats.record_error("partition");
    let (status, _, _) = err.parts();
    let _ = conn.write_response(status, "application/json", &[], err.body().as_bytes(), false);
    false
}

#[allow(clippy::too_many_arguments)]
fn write_success(
    conn: &mut Conn,
    headers: &[(String, String)],
    fp: u64,
    params: &PartitionParams,
    entry: &CachedEntry,
    result: &PartitionResult,
    keep: bool,
) -> io::Result<()> {
    let g = &entry.graph;
    let mut rs = conn.begin_stream(200, "application/x-ndjson", headers, keep)?;
    rs.write_line(&meta_line(
        fp,
        params,
        g.nvtxs(),
        g.adjacency_len() / 2,
        g.ncon(),
        result.coarsen_levels,
    ))?;
    let assignment = result.partition.assignment();
    let mut off = 0;
    while off < assignment.len() {
        let end = (off + PART_CHUNK).min(assignment.len());
        rs.write_line(&part_line(off, &assignment[off..end]))?;
        off = end;
    }
    rs.write_line(&done_line(&result.quality))?;
    rs.finish()
}

/// After each request: merge whatever this worker recorded outside the
/// partition capture (request span events) into the daemon-wide ledger.
fn drain_observability(state: &State) {
    state.stats.absorb(metrics::take_local());
}

fn metrics_json(state: &State) -> Json {
    let stats = &state.stats;
    let cache = state.cache.stats();
    let scores = state.cache.entry_scores();
    let latency = stats.latency_us.lock().unwrap().clone();
    let by_route = stats.by_route.lock().unwrap().clone();
    let by_threads = stats.by_threads.lock().unwrap().clone();
    let (phases, registry) = {
        let ledger = stats.ledger.lock().unwrap();
        (ledger.phases_json(), ledger.registry_json())
    };
    let window = latency.window();
    let route_pairs: Vec<(String, Json)> = by_route
        .iter()
        .map(|((route, outcome), n)| (format!("{route}.{outcome}"), Json::UInt(*n)))
        .collect();
    let thread_pairs: Vec<(String, Json)> = by_threads
        .iter()
        .map(|(t, n)| (format!("t{t}"), Json::UInt(*n)))
        .collect();
    // The GDSF scoreboard: what eviction would spare, highest priority
    // first. Bounded by the cache budget, so the cardinality stays sane.
    let score_rows: Vec<Json> = scores
        .iter()
        .map(|s| {
            Json::obj([
                ("fingerprint", Json::Str(format!("{:016x}", s.fingerprint))),
                ("bytes", Json::UInt(s.bytes as u64)),
                ("build_cost_s", Json::Float(s.cost_s)),
                ("freq", Json::UInt(s.freq)),
                ("priority", Json::Float(s.priority)),
            ])
        })
        .collect();
    Json::obj([
        (
            "requests",
            Json::UInt(stats.requests.load(Ordering::Relaxed)),
        ),
        ("ok", Json::UInt(stats.ok.load(Ordering::Relaxed))),
        ("errors", Json::UInt(stats.errors.load(Ordering::Relaxed))),
        (
            "connections",
            Json::UInt(stats.connections.load(Ordering::Relaxed)),
        ),
        ("routes", Json::Obj(route_pairs)),
        (
            // Successful partitions keyed by their `threads=` parameter.
            "partition_threads",
            Json::Obj(thread_pairs),
        ),
        (
            "cache",
            Json::obj([
                ("entries", Json::UInt(cache.entries as u64)),
                ("bytes", Json::UInt(cache.bytes as u64)),
                ("budget", Json::UInt(cache.budget as u64)),
                ("hits", Json::UInt(cache.hits)),
                ("misses", Json::UInt(cache.misses)),
                ("coalesced", Json::UInt(cache.coalesced)),
                ("evictions", Json::UInt(cache.evictions)),
                ("disk_hits", Json::UInt(cache.disk_hits)),
                ("admission_rejects", Json::UInt(cache.admission_rejects)),
                ("spill_writes", Json::UInt(cache.spill_writes)),
                ("spill_errors", Json::UInt(cache.spill_errors)),
                ("inflation", Json::Float(cache.inflation)),
                ("hit_ratio", Json::Float(cache.hit_ratio())),
                ("scores", Json::Arr(score_rows)),
            ]),
        ),
        ("latency_us", latency.lifetime().to_json()),
        (
            // Steady-state quantiles over the sliding sample window —
            // unlike `latency_us`, these forget the cold start.
            "latency_window_us",
            Json::obj([
                ("count", Json::UInt(window.count)),
                ("p50", Json::Int(window.quantile(0.5))),
                ("p99", Json::Int(window.quantile(0.99))),
                ("min", Json::Int(window.min)),
                ("max", Json::Int(window.max)),
                ("epochs", Json::UInt(latency.epochs() as u64)),
                ("epoch_len", Json::UInt(latency.epoch_len())),
            ]),
        ),
        ("phases", phases),
        ("registry", registry),
    ])
}

/// The Prometheus text-exposition rendering of the daemon's metrics —
/// the same facts as [`metrics_json`], in the format any scrape stack
/// ingests. Validated in CI by `mcgp-runtime`'s exposition validator.
fn metrics_prom(state: &State) -> String {
    let stats = &state.stats;
    let cache = state.cache.stats();
    let latency = stats.latency_us.lock().unwrap().clone();
    let by_route = stats.by_route.lock().unwrap().clone();
    let by_threads = stats.by_threads.lock().unwrap().clone();
    let window = latency.window();
    let mut w = PromWriter::new();
    for ((route, outcome), n) in &by_route {
        w.counter(
            "mcgp_requests_total",
            "Requests by route and outcome.",
            &[("route", route), ("outcome", outcome)],
            *n,
        );
    }
    w.counter(
        "mcgp_errors_total",
        "Requests that failed.",
        &[],
        stats.errors.load(Ordering::Relaxed),
    );
    w.counter(
        "mcgp_connections_total",
        "Accepted connections (requests/connections is the keep-alive reuse factor).",
        &[],
        stats.connections.load(Ordering::Relaxed),
    );
    for (t, n) in &by_threads {
        let t = t.to_string();
        w.counter(
            "mcgp_partition_threads_total",
            "Successful partitions by requested thread count.",
            &[("threads", t.as_str())],
            *n,
        );
    }
    w.gauge(
        "mcgp_cache_entries",
        "Resident hierarchy-cache entries.",
        &[],
        cache.entries as f64,
    );
    w.gauge(
        "mcgp_cache_bytes",
        "Bytes charged by resident cache entries.",
        &[],
        cache.bytes as f64,
    );
    w.gauge(
        "mcgp_cache_budget_bytes",
        "Cache byte budget.",
        &[],
        cache.budget as f64,
    );
    for (result, n) in [
        ("hit", cache.hits),
        ("miss", cache.misses),
        ("wait", cache.coalesced),
        ("disk", cache.disk_hits),
    ] {
        w.counter(
            "mcgp_cache_lookups_total",
            "Hierarchy-cache lookups by result.",
            &[("result", result)],
            n,
        );
    }
    w.counter(
        "mcgp_cache_evictions_total",
        "Entries evicted to fit the cache budget.",
        &[],
        cache.evictions,
    );
    w.counter(
        "mcgp_cache_admission_rejects_total",
        "First-sight entries denied RAM residency by the admission doorkeeper.",
        &[],
        cache.admission_rejects,
    );
    w.counter(
        "mcgp_cache_spill_writes_total",
        "Hierarchy snapshots written to the spill directory.",
        &[],
        cache.spill_writes,
    );
    w.counter(
        "mcgp_cache_spill_errors_total",
        "Spill writes or loads that failed (corrupt files quarantined).",
        &[],
        cache.spill_errors,
    );
    w.gauge(
        "mcgp_cache_inflation",
        "GDSF aging floor: the priority newly admitted entries start from.",
        &[],
        cache.inflation,
    );
    w.gauge(
        "mcgp_cache_hit_ratio",
        "Fraction of lookups that skipped coarsening.",
        &[],
        cache.hit_ratio(),
    );
    // Per-entry GDSF priorities. Cardinality is bounded by the cache
    // byte budget (each resident entry is a whole coarsening hierarchy).
    for s in state.cache.entry_scores() {
        let fp = format!("{:016x}", s.fingerprint);
        w.gauge(
            "mcgp_cache_entry_priority",
            "GDSF priority of a resident cache entry (higher survives longer).",
            &[("fingerprint", fp.as_str())],
            s.priority,
        );
    }
    w.histogram(
        "mcgp_request_latency_seconds",
        "Lifetime latency of successful partition requests.",
        &[],
        latency.lifetime(),
        1e-6,
    );
    for (q, v) in [("0.5", window.quantile(0.5)), ("0.99", window.quantile(0.99))] {
        w.gauge(
            "mcgp_request_latency_window_seconds",
            "Windowed (steady-state) partition latency quantiles.",
            &[("quantile", q)],
            v as f64 * 1e-6,
        );
    }
    w.gauge(
        "mcgp_request_latency_window_count",
        "Samples in the sliding latency window.",
        &[],
        window.count as f64,
    );
    let ledger = stats.ledger.lock().unwrap();
    for &p in Phase::ALL {
        w.gauge(
            "mcgp_phase_seconds",
            "Accumulated partitioner phase time.",
            &[("phase", p.name())],
            ledger.seconds(p),
        );
    }
    for &c in Counter::ALL {
        w.counter(
            "mcgp_phase_ops_total",
            "Accumulated partitioner phase counters.",
            &[("counter", c.name())],
            ledger.counter(c),
        );
    }
    drop(ledger);
    w.finish()
}
