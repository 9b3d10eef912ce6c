//! The server proper: accept loop, bounded admission, worker pool,
//! per-request budgets, panic containment, and graceful drain.
//! The accept loop and the workers are the only threads: hang-ups,
//! timed cancels and closing answered sockets are one `sweep`.

use crate::admission::{AdmissionQueue, Admit};
use crate::chaos::{ChaosConfig, ChaosKind};
use crate::http::{self, Request, Response};
use crate::state::WarmState;
use ceaff_core::{CancelToken, CeaffError, ExecBudget, MatcherKind, Telemetry};
use serde_json::{Number, Value};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a server instance behaves under load and faults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed with
    /// `503 + Retry-After`.
    pub queue_capacity: usize,
    /// Deadline applied when a request carries no `Deadline-Ms` header.
    pub default_deadline_ms: u64,
    /// Global tensor-memory quota; each worker's requests get an equal
    /// share as their per-request cap.
    pub mem_quota_mb: usize,
    /// `Retry-After` value (seconds) sent with shed responses.
    pub retry_after_secs: u64,
    /// How long a graceful drain waits for in-flight requests before
    /// cancelling their budgets (they then degrade and finish).
    pub drain_grace_ms: u64,
    /// Per-connection socket read timeout.
    pub read_timeout_ms: u64,
    /// Per-connection socket write timeout: a client that never reads
    /// its response cannot pin a worker forever.
    pub write_timeout_ms: u64,
    /// Honor test-only request knobs (`?debug-sleep-ms=` on `/align`).
    /// Off by default: a production server must not hand unauthenticated
    /// clients a worker-occupancy lever.
    pub debug_endpoints: bool,
    /// Chaos mode: fault a deterministic fraction of requests.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 16,
            default_deadline_ms: 10_000,
            mem_quota_mb: 512,
            retry_after_secs: 1,
            drain_grace_ms: 500,
            read_timeout_ms: 10_000,
            write_timeout_ms: 5_000,
            debug_endpoints: false,
            chaos: None,
        }
    }
}

/// Liveness counters, readable without draining the telemetry trace
/// (the `/status` endpoint reads these; the final drained trace carries
/// them as `server/*` counter totals).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted.
    pub requests: AtomicU64,
    /// Connections shed by admission control.
    pub shed: AtomicU64,
    /// Requests answered 2xx.
    pub ok: AtomicU64,
    /// Requests answered with a typed error status.
    pub errors: AtomicU64,
    /// Requests that returned a degraded (budget-cut) result.
    pub degraded: AtomicU64,
    /// Worker panics caught and converted to typed 500s.
    pub panics: AtomicU64,
    /// Client disconnects that cancelled an in-flight request.
    pub disconnects: AtomicU64,
}

impl ServerCounters {
    fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("requests", self.requests.load(Ordering::Relaxed)),
            ("shed", self.shed.load(Ordering::Relaxed)),
            ("ok", self.ok.load(Ordering::Relaxed)),
            ("errors", self.errors.load(Ordering::Relaxed)),
            ("degraded", self.degraded.load(Ordering::Relaxed)),
            ("panics", self.panics.load(Ordering::Relaxed)),
            ("disconnects", self.disconnects.load(Ordering::Relaxed)),
        ]
    }
}

struct Conn {
    stream: TcpStream,
    request_id: u64,
}

/// A request between reading its head and writing its answer: what the
/// sweep watches and may cancel.
struct InFlight {
    cancel: CancelToken,
    /// A nonblocking clone of the request's stream, peeked for a hang-up;
    /// `None` when the clone failed or once a hang-up was counted.
    peek: Option<TcpStream>,
    /// When the chaos harness cancels this request mid-flight.
    cancel_at: Option<Instant>,
}

/// An answered, half-closed socket waiting for its peer to close.
struct Lingering {
    stream: TcpStream,
    since: Instant,
    last_data: Instant,
    /// Answered by admission control rather than a worker.
    shed: bool,
}

struct Shared {
    state: Arc<WarmState>,
    cfg: ServerConfig,
    counters: ServerCounters,
    telemetry: Telemetry,
    inflight: Mutex<HashMap<u64, InFlight>>,
    lingering: Mutex<Vec<Lingering>>,
    shutdown: AtomicBool,
    started: Instant,
    /// The admission queue, shared with the accept loop so `/status`
    /// can report its depth (shed/503 behavior must be diagnosable from
    /// the outside).
    queue: Arc<AdmissionQueue<Conn>>,
}

/// Lock a shared table, recovering from poisoning: a caught worker panic
/// must never cascade into every other lock user panicking too.
fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`Server::drain`] then [`Server::join`] for a graceful stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and workers, and start serving. These
    /// are the only threads the server starts.
    pub fn start(
        state: Arc<WarmState>,
        cfg: ServerConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity));
        let shared = Arc::new(Shared {
            state,
            cfg,
            counters: ServerCounters::default(),
            telemetry,
            inflight: Mutex::new(HashMap::new()),
            lingering: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            queue,
        });

        let workers = (0..shared.cfg.workers.max(1))
            .map(|n| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ceaff-worker-{n}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept_thread = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ceaff-accept".to_owned())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept loop")
        };

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: stop accepting, let queued and in-flight
    /// requests finish. Idempotent; [`Server::join`] completes it.
    pub fn drain(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// A cheap handle that can trigger [`Server::drain`] from another
    /// thread (e.g. a signal-watcher).
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: self.shared.clone(),
        }
    }

    /// Complete a drain: wait up to `drain_grace_ms` for in-flight work,
    /// then cancel the remaining requests' budgets (they degrade and
    /// answer), join every thread, wait for every answered socket to
    /// close, record the final `server/*` counter totals, and flush
    /// telemetry. Returns the final counter snapshot.
    pub fn join(mut self) -> Vec<(&'static str, u64)> {
        self.drain();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The accept loop closed the queue on its way out, so the workers
        // exit once it is empty. Sweep in its place meanwhile; past the
        // grace period every sweep cancels what is still running, so
        // requests admitted after an earlier sweep still stop.
        let grace_until = Instant::now() + Duration::from_millis(self.shared.cfg.drain_grace_ms);
        while self.workers.iter().any(|w| !w.is_finished())
            || !lock(&self.shared.lingering).is_empty()
        {
            sweep(&self.shared, Instant::now() >= grace_until);
            std::thread::sleep(TICK);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let snapshot = self.shared.counters.snapshot();
        for (name, total) in &snapshot {
            if *total > 0 {
                self.shared.telemetry.counter_add("server", name, *total);
            }
        }
        self.shared.telemetry.flush();
        snapshot
    }
}

/// Triggers a graceful drain from any thread.
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Request the drain (idempotent).
    pub fn drain(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// How often the accept loop polls its listener and sweeps.
const TICK: Duration = Duration::from_millis(2);

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let mut next_id: u64 = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let request_id = next_id;
                next_id += 1;
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nonblocking(false);
                if let Admit::Shed(conn) = shared.queue.push(Conn { stream, request_id }) {
                    shed(conn.stream, shared);
                }
            }
            Err(_) => std::thread::sleep(TICK),
        }
        sweep(shared, false);
    }
    // No more producers: drain the queued remainder, then workers exit.
    shared.queue.close();
}

/// Most shed connections lingering at once. Beyond this a shed
/// connection is dropped unanswered: under that much overload a TCP
/// reset is still a cheap, immediate backpressure signal, and admission
/// control must not be its own resource exhaustion.
const MAX_LINGERING_SHEDS: usize = 32;

/// Answer a shed connection on the accept loop itself — the whole point
/// of admission control is that overload costs one small write, not a
/// queue slot or a thread.
fn shed(stream: TcpStream, shared: &Shared) {
    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
    if lock(&shared.lingering).iter().filter(|l| l.shed).count() >= MAX_LINGERING_SHEDS {
        return; // dropping `stream` closes the socket
    }
    let response = Response::error(503, "overloaded", "admission queue is full")
        .with_header("Retry-After", shared.cfg.retry_after_secs.to_string());
    respond(shared, stream, &response, true);
}

/// Write `response`, half-close, and hand the socket to the sweep,
/// which closes it once the peer has. A worker writes blocking, under
/// the write timeout (a never-reading peer cannot pin it on a full send
/// buffer); a shed is written nonblocking, since a fresh socket's send
/// buffer has room for its ~150 bytes.
///
/// Closing with unread request bytes in the receive buffer makes the
/// kernel RST the connection, which destroys the response before the
/// client reads it — the lingering drain is what makes a shed
/// *observable* as a 503 rather than a reset.
fn respond(shared: &Shared, mut stream: TcpStream, response: &Response, shed: bool) {
    let _ = stream.set_nonblocking(shed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        shared.cfg.write_timeout_ms.max(1),
    )));
    if response.write_to(&mut stream).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let now = Instant::now();
        lock(&shared.lingering).push(Lingering {
            stream,
            since: now,
            last_data: now,
            shed,
        });
    }
}

/// A lingering socket is closed after this long without data from its
/// peer.
const LINGER_IDLE: Duration = Duration::from_millis(250);

/// Hard cap on a socket's lingering: a slow-dripping peer must not hold
/// it open forever.
const DRAIN_CAP: Duration = Duration::from_secs(2);

/// One pass over the in-flight table and the linger set. A request's
/// budget is cancelled when its client has hung up (counted once as a
/// disconnect), when its chaos `cancel_at` has passed, or for every
/// request when `cancel_all` (a drain past its grace period). A
/// lingering socket is closed on EOF, on an error, after
/// [`LINGER_IDLE`] without data, or at [`DRAIN_CAP`].
fn sweep(shared: &Shared, cancel_all: bool) {
    let now = Instant::now();
    for request in lock(&shared.inflight).values_mut() {
        let hung_up = request.peek.as_ref().is_some_and(peer_closed);
        if hung_up {
            request.peek = None;
            shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        if hung_up || cancel_all || request.cancel_at.is_some_and(|at| now >= at) {
            request.cancel.cancel();
        }
    }
    let mut sink = [0u8; 4096];
    lock(&shared.lingering).retain_mut(|l| !drained(l, now, &mut sink));
}

/// Whether the client of an in-flight request has closed or errored.
///
/// EOF on the request stream is treated as the client abandoning the
/// request. A half-closing client (`shutdown(Write)` after sending the
/// full request, still reading) is indistinguishable from a full close
/// at this end without writing, so half-close is explicitly
/// *unsupported* by this one-request-per-connection protocol: such a
/// client may get a degraded response. The bundled `Client` never
/// half-closes.
fn peer_closed(peek: &TcpStream) -> bool {
    match peek.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => e.kind() != ErrorKind::WouldBlock,
    }
}

/// Read what a lingering socket's peer still sends; `true` once the
/// socket is to be closed.
fn drained(l: &mut Lingering, now: Instant, sink: &mut [u8]) -> bool {
    let open = match (&l.stream).read(sink) {
        Ok(0) => false,
        Ok(_) => {
            l.last_data = now;
            true
        }
        Err(e) => e.kind() == ErrorKind::WouldBlock && now - l.last_data < LINGER_IDLE,
    };
    !open || now - l.since >= DRAIN_CAP
}

fn worker_loop(shared: &Shared) {
    while let Some(conn) = shared.queue.pop() {
        let request_id = conn.request_id;
        // Backstop boundary: `handle_conn` has its own catch_unwind
        // around the handler, but a panic anywhere outside it (request
        // parsing, response serialization) must not kill the worker
        // either — each dead worker would permanently shrink the pool
        // until crafted requests turn the whole server into a queue that
        // never serves. The connection just drops; the pool survives.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| handle_conn(conn, shared)));
        if outcome.is_err() {
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            lock(&shared.inflight).remove(&request_id);
        }
    }
}

/// Parse, dispatch (with chaos plan + budget armed), respond. All fault
/// paths end in a typed response on this connection; none of them can
/// poison the warm state, the worker, or the pool.
fn handle_conn(mut conn: Conn, shared: &Shared) {
    let _ = conn
        .stream
        .set_read_timeout(Some(Duration::from_millis(shared.cfg.read_timeout_ms)));
    let request = match http::read_request(&mut conn.stream) {
        Ok(request) => request,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let status = if matches!(&e, http::ParseError::Io(io) if io.kind() == ErrorKind::WouldBlock || io.kind() == ErrorKind::TimedOut)
            {
                408
            } else {
                e.status()
            };
            let response = Response::error(status, "bad_request", &e.reason());
            respond(shared, conn.stream, &response, false);
            return;
        }
    };

    // `/health` answers even mid-chaos and mid-drain: it is the probe
    // that tells an orchestrator the process is alive at all. A request
    // can also opt out of chaos (`X-No-Chaos`) — that is how the chaos
    // harness takes its ground-truth measurement from a chaotic server.
    let chaos = match (&shared.cfg.chaos, request.path.as_str()) {
        (Some(chaos), path) if path != "/health" && request.header("x-no-chaos").is_none() => {
            chaos.fault_for(conn.request_id)
        }
        _ => None,
    };

    let deadline_ms = request
        .header("deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(shared.cfg.default_deadline_ms);

    // Per-request execution budget: this request's deadline, an equal
    // share of the global memory quota, and a private cancel token that
    // the sweep flips on a client disconnect, a chaos cancel, or a drain.
    let cancel = CancelToken::new();
    let mem_share = (shared.cfg.mem_quota_mb * 1024 * 1024) / shared.cfg.workers.max(1);
    let budget = ExecBudget::unlimited()
        .with_deadline(Duration::from_millis(deadline_ms))
        .with_cancel(cancel.clone())
        .with_max_mem_bytes(mem_share.max(1));

    // Arm this request's fault plan — thread-scoped, so concurrent
    // requests with different faults never race.
    let mut plan = ceaff_faultinject::FaultPlan::default();
    let mut cancel_at = None;
    if let Some(kind) = chaos {
        match kind {
            ChaosKind::Panic => plan.panic_at_point = Some("server/handler".to_owned()),
            ChaosKind::Nan => plan.nan_at_point = Some("server/scores".to_owned()),
            ChaosKind::SlowIo => {
                plan.sleep_at_point = Some(("server/handler".to_owned(), deadline_ms + 50))
            }
            ChaosKind::FailIo => plan.io_error_substring = Some("ceaff-server/response".to_owned()),
            // Mid-request cancellation: the sweep flips this request's
            // token a quarter-deadline in; the anytime matcher then
            // degrades cooperatively.
            ChaosKind::Cancel => {
                cancel_at = Some(Instant::now() + Duration::from_millis((deadline_ms / 4).max(1)))
            }
        }
    }
    let _fault_scope = plan.activate_local();

    // Hand the request to the sweep. The peek clone shares O_NONBLOCK
    // with this worker's fd, so the request registers only once it has
    // been read, and leaves the table before blocking mode comes back
    // for the write.
    let peek = conn
        .stream
        .try_clone()
        .ok()
        .filter(|peek| peek.set_nonblocking(true).is_ok());
    lock(&shared.inflight).insert(
        conn.request_id,
        InFlight {
            cancel,
            peek,
            cancel_at,
        },
    );

    // The handler runs inside a panic boundary: an injected (or real)
    // worker panic becomes a typed 500, the worker thread survives, and
    // the warm state — which the handler only reads — stays valid.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        dispatch(&request, conn.request_id, shared, &budget)
    }));
    let mut response = match outcome {
        Ok(response) => response,
        Err(_) => {
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            Response::error(
                500,
                "internal_panic",
                "request handler panicked; the fault was contained to this request",
            )
        }
    };

    // Injected response-write failure: the handler's work is discarded
    // and the client gets a typed error instead of a broken stream.
    if let Some(e) = ceaff_faultinject::io_error(Path::new("ceaff-server/response")) {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        response = Response::error(500, "response_io", &e.to_string());
    } else if response.status < 400 {
        shared.counters.ok.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(kind) = chaos {
        response = response.with_header("X-Chaos", kind.as_str().to_owned());
    }

    lock(&shared.inflight).remove(&conn.request_id);
    respond(shared, conn.stream, &response, false);
}

/// Route a parsed request. Every path returns a `Response`; handler
/// panics are caught one level up.
fn dispatch(request: &Request, request_id: u64, shared: &Shared, budget: &ExecBudget) -> Response {
    // Chaos hooks for the non-health endpoints: an injected latency
    // spike (so the deadline fires) and an injected handler panic.
    if request.path != "/health" {
        ceaff_faultinject::sleep_point("server/handler");
        ceaff_faultinject::panic_point("server/handler");
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Response::json(200, "{\"status\":\"ok\"}".to_owned()),
        ("GET", "/status") => status_response(shared),
        ("GET", "/topk") => topk_response(request, shared),
        ("POST", "/align") => align_response(request, request_id, shared, budget),
        ("GET", "/align") => Response::error(405, "method_not_allowed", "use POST /align"),
        ("POST", "/delta") => delta_response(request, shared, budget),
        ("GET", "/delta") => Response::error(405, "method_not_allowed", "use POST /delta"),
        _ => Response::error(404, "not_found", "unknown endpoint"),
    }
}

fn status_response(shared: &Shared) -> Response {
    let counters = shared
        .counters
        .snapshot()
        .into_iter()
        .map(|(name, total)| (name.to_owned(), junsigned(total)))
        .collect();
    let core = shared.state.snapshot();
    let workers = shared.cfg.workers.max(1);
    let busy = lock(&shared.inflight).len();
    let mut fields = vec![
        (
            "uptime_secs".to_owned(),
            jfloat(shared.started.elapsed().as_secs_f64()),
        ),
        (
            "draining".to_owned(),
            Value::Bool(shared.shutdown.load(Ordering::SeqCst)),
        ),
        ("inflight".to_owned(), junsigned(busy as u64)),
        (
            "queue_depth".to_owned(),
            junsigned(shared.queue.depth() as u64),
        ),
        ("workers".to_owned(), junsigned(workers as u64)),
        ("occupancy".to_owned(), jfloat(busy as f64 / workers as f64)),
        ("counters".to_owned(), Value::Object(counters)),
        ("sources".to_owned(), junsigned(core.fused.sources() as u64)),
        ("targets".to_owned(), junsigned(core.fused.targets() as u64)),
    ];
    if let Some((step, fingerprint)) = core.incremental {
        let mut incremental = vec![
            ("step".to_owned(), junsigned(step as u64)),
            ("fingerprint".to_owned(), junsigned(fingerprint as u64)),
        ];
        if let Some(wal) = core.wal {
            incremental.push((
                "wal".to_owned(),
                Value::Object(vec![
                    ("generation".to_owned(), junsigned(wal.generation as u64)),
                    (
                        "durable_step".to_owned(),
                        junsigned(wal.durable_step as u64),
                    ),
                    (
                        "last_snapshot_step".to_owned(),
                        junsigned(wal.last_snapshot_step as u64),
                    ),
                ]),
            ));
        }
        fields.push(("incremental".to_owned(), Value::Object(incremental)));
    }
    Response::json(
        200,
        serde_json::to_string(&Value::Object(fields)).expect("status json"),
    )
}

fn topk_response(request: &Request, shared: &Shared) -> Response {
    let Some(entity) = request.query_get("entity") else {
        return Response::error(400, "bad_request", "missing ?entity=NAME");
    };
    let k = request
        .query_get("k")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10)
        .clamp(1, 1000);
    let core = shared.state.snapshot();
    let Some(row) = core.source_row(entity) else {
        return Response::error(
            404,
            "unknown_entity",
            &format!("no source entity '{entity}'"),
        );
    };
    let matches = core.topk(row, k);
    // Finiteness guard: an injected NaN must become a typed error, never
    // a corrupt JSON body.
    let corrupt = ceaff_faultinject::nan_point("server/scores");
    if corrupt || matches.iter().any(|(_, v)| !v.is_finite()) {
        return Response::error(
            500,
            "non_finite_scores",
            "similarity scores were non-finite",
        );
    }
    let body = Value::Object(vec![
        ("entity".to_owned(), Value::String(entity.to_owned())),
        (
            "matches".to_owned(),
            Value::Array(
                matches
                    .into_iter()
                    .map(|(name, score)| {
                        Value::Object(vec![
                            ("target".to_owned(), Value::String(name.to_owned())),
                            ("score".to_owned(), jfloat(score as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, serde_json::to_string(&body).expect("topk json"))
}

fn align_response(
    request: &Request,
    _request_id: u64,
    shared: &Shared,
    budget: &ExecBudget,
) -> Response {
    // Optional JSON body: {"matcher": "daa"|"hungarian"|"greedy1to1"|
    // "greedy", "include_pairs": bool}.
    let mut matcher = shared.state.matcher;
    let mut include_pairs = true;
    if !request.body.is_empty() {
        let text = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(_) => return Response::error(400, "bad_request", "body is not UTF-8"),
        };
        let parsed: Value = match serde_json::from_str(text) {
            Ok(v) => v,
            Err(e) => return Response::error(400, "bad_request", &format!("bad JSON body: {e}")),
        };
        if let Some(name) = parsed.get("matcher").and_then(Value::as_str) {
            matcher = match MatcherKind::from_label(name) {
                Some(kind) => kind,
                None => {
                    return Response::error(
                        400,
                        "bad_request",
                        &format!("unknown matcher '{name}'"),
                    )
                }
            };
        }
        if let Some(flag) = parsed.get("include_pairs").and_then(Value::as_bool) {
            include_pairs = flag;
        }
    }
    // Load-testing aid: hold the worker before deciding, so tests and
    // the bench can saturate the admission queue deterministically.
    // Gated behind `debug_endpoints` — on a production server this would
    // hand any unauthenticated client a capacity-exhaustion lever.
    if shared.cfg.debug_endpoints {
        if let Some(ms) = request
            .query_get("debug-sleep-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        }
    }

    // One snapshot for the whole request: the decision, its scores, and
    // the name tables all come from the same state even if a delta lands
    // mid-request.
    let core = shared.state.snapshot();
    let telemetry = shared.telemetry.child();
    let decision = match core.decide(matcher, budget, &telemetry) {
        Ok(decision) => decision,
        Err(CeaffError::BudgetExceeded {
            stage,
            limit_bytes,
            peak_bytes,
        }) => {
            return Response::error(
                500,
                "budget_exceeded",
                &format!("stage {stage} peaked at {peak_bytes} bytes (limit {limit_bytes})"),
            )
        }
        Err(e) => return Response::error(500, "pipeline_error", &e.to_string()),
    };
    if decision.degradation.is_some() {
        shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
    }

    // An injected NaN corrupts this request's *copy* of the scores; the
    // finiteness guard turns it into a typed error. The warm store is
    // untouched, so the next request is clean.
    let corrupt = ceaff_faultinject::nan_point("server/scores");
    let mut scored: Vec<(usize, usize, f32)> = decision
        .matching
        .pairs()
        .iter()
        .map(|&(i, j)| (i, j, core.fused.get(i, j)))
        .collect();
    if corrupt {
        if let Some(first) = scored.first_mut() {
            first.2 = f32::NAN;
        }
    }
    if scored.iter().any(|(_, _, v)| !v.is_finite()) {
        return Response::error(
            500,
            "non_finite_scores",
            "similarity scores were non-finite",
        );
    }

    let mut fields = vec![
        (
            "matcher".to_owned(),
            Value::String(matcher.label().to_owned()),
        ),
        (
            "matched".to_owned(),
            junsigned(decision.matching.len() as u64),
        ),
        ("accuracy".to_owned(), jfloat(decision.accuracy)),
        (
            "degraded".to_owned(),
            Value::Bool(decision.degradation.is_some()),
        ),
    ];
    if let Some(d) = &decision.degradation {
        fields.push((
            "degradation".to_owned(),
            Value::Object(vec![
                ("stage".to_owned(), Value::String(d.stage.clone())),
                ("reason".to_owned(), Value::String(d.reason.clone())),
                ("rounds_completed".to_owned(), junsigned(d.rounds_completed)),
                ("fraction_degraded".to_owned(), jfloat(d.fraction_degraded)),
                (
                    "degraded_rows".to_owned(),
                    junsigned(decision.degraded_rows.len() as u64),
                ),
            ]),
        ));
    }
    if include_pairs {
        fields.push((
            "pairs".to_owned(),
            Value::Array(
                scored
                    .iter()
                    .map(|&(i, j, score)| {
                        Value::Array(vec![
                            Value::String(core.source_names[i].clone()),
                            Value::String(core.target_names[j].clone()),
                            jfloat(score as f64),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Response::json(
        200,
        serde_json::to_string(&Value::Object(fields)).expect("align json"),
    )
}

/// `POST /delta` — apply one edit batch to the warm incremental state
/// and report what it changed. Body: the JSON of a
/// [`ceaff_graph::KgDelta`] (the `delta` field of a `deltas.jsonl`
/// line). Rejected edits (unknown entity, duplicate name, …) answer 400
/// and leave the state untouched; a server loaded without
/// `--incremental` answers 409.
fn delta_response(request: &Request, shared: &Shared, budget: &ExecBudget) -> Response {
    if !shared.state.is_incremental() {
        return Response::error(
            409,
            "not_incremental",
            "this server was loaded without --incremental; its warm state is immutable",
        );
    }
    if request.body.is_empty() {
        return Response::error(400, "bad_request", "missing KgDelta JSON body");
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "bad_request", "body is not UTF-8"),
    };
    let delta: ceaff_graph::KgDelta = match serde_json::from_str(text) {
        Ok(d) => d,
        Err(e) => return Response::error(400, "bad_request", &format!("bad KgDelta body: {e}")),
    };
    let diff = match shared.state.apply_delta(&delta, budget) {
        Ok(diff) => diff,
        Err(CeaffError::Delta(msg)) => return Response::error(400, "rejected_delta", &msg),
        // The delta applied in memory but could not be made durable; it
        // was NOT acknowledged and further deltas are refused until a
        // restart re-syncs state and log (reads keep serving).
        Err(CeaffError::Checkpoint { file, reason }) => {
            return Response::error(500, "durability_failure", &format!("{file}: {reason}"))
        }
        Err(CeaffError::BudgetExceeded {
            stage,
            limit_bytes,
            peak_bytes,
        }) => {
            return Response::error(
                500,
                "budget_exceeded",
                &format!("stage {stage} peaked at {peak_bytes} bytes (limit {limit_bytes})"),
            )
        }
        Err(e) => return Response::error(500, "pipeline_error", &e.to_string()),
    };
    let jpairs = |pairs: &[(String, String)]| {
        Value::Array(
            pairs
                .iter()
                .map(|(s, t)| {
                    Value::Array(vec![Value::String(s.clone()), Value::String(t.clone())])
                })
                .collect(),
        )
    };
    let body = Value::Object(vec![
        ("step".to_owned(), junsigned(diff.step as u64)),
        ("fingerprint".to_owned(), junsigned(diff.fingerprint as u64)),
        ("accuracy".to_owned(), jfloat(diff.accuracy)),
        ("matched".to_owned(), junsigned(diff.matched as u64)),
        ("quiet".to_owned(), Value::Bool(diff.is_quiet())),
        (
            "recompute_fraction".to_owned(),
            jfloat(diff.recompute_fraction),
        ),
        ("added".to_owned(), jpairs(&diff.added)),
        ("removed".to_owned(), jpairs(&diff.removed)),
        (
            "changed".to_owned(),
            Value::Array(
                diff.changed
                    .iter()
                    .map(|(s, old, new)| {
                        Value::Array(vec![
                            Value::String(s.clone()),
                            Value::String(old.clone()),
                            Value::String(new.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, serde_json::to_string(&body).expect("delta json"))
}

fn jfloat(x: f64) -> Value {
    Value::Number(Number::F64(x))
}

fn junsigned(x: u64) -> Value {
    Value::Number(Number::U64(x))
}
