//! `remap serve`: sweep-as-a-service over a local TCP socket.
//!
//! A long-running, *supervised* server accepts sweep requests and streams
//! each request's results back **in deterministic item order**, line by
//! line, the moment the ordered-streaming engine ([`crate::sweep`])
//! marshals them — a client watching the socket sees the first result
//! after the first config finishes, not after the whole sweep joins.
//! Each connection gets its own thread, but sweeps are serialized through
//! a lock, so the service is a sweep *queue*, not a sweep *pool*:
//! determinism and the simulator's own worker pool stay in charge of
//! parallelism. Control requests (`ping`, `health`) answer immediately,
//! even while a sweep is in flight.
//!
//! ## Supervision
//!
//! * **Per-connection deadlines** — every connection carries a read and a
//!   write deadline (`REMAP_SERVE_TIMEOUT_MS`, default 30 s). A client
//!   that stalls mid-request, or stops draining its response, is timed
//!   out and its connection closed; the service moves on.
//! * **Disconnect cancels** — a client dropping mid-stream turns the next
//!   `+item` write into an error, which cancels the in-flight sweep
//!   through the engine's [`ControlFlow::Break`] teardown: workers finish
//!   their in-flight granules, the pool joins, and the next queued
//!   request proceeds.
//! * **Per-request budgets** — `sweep … timeout=<secs>` bounds a single
//!   request's wall clock. The budget is enforced at item granularity
//!   (a config already simulating runs to its end); when it trips, the
//!   frame ends with `+err deadline exceeded`, the connection survives,
//!   and queued requests are untouched.
//! * **Draining shutdown** — `shutdown` stops accepting new connections
//!   and drains what is queued; `shutdown now` also cancels the in-flight
//!   sweep and returns without joining stragglers.
//!
//! ## Protocol (line-oriented, UTF-8)
//!
//! The client sends one request per line; the server answers with a
//! framed response and then reads the next line. Frames:
//!
//! ```text
//! -> ping
//! <- +ok pong
//! -> health
//! <- +ok health queue=1 in_flight=sweep ll2 uptime=42s
//! -> sweep ll2 barrier:8 8 16 32
//! <- +begin sweep 3
//! <- +item 0 {"n": 8, ...}
//! <- +item 1 {"n": 16, ...}
//! <- +item 2 {"n": 32, ...}
//! <- +end sweep 3
//! -> sweep ll2 barrier:8 8 16 32 timeout=120
//! <- +begin sweep 3
//! <- ...
//! -> faultsweep
//! <- +begin faultsweep 24
//! <- +item 0 {"archetype": ...}
//! <- ...
//! <- +end faultsweep 24
//! -> shutdown          (or: shutdown now)
//! <- +ok bye
//! ```
//!
//! Errors are a single `+err <message>` line; the connection survives
//! them. Served sweeps are not journaled (they stream to the socket; the
//! client owns persistence) but run through the same engine, so item
//! ordering is bit-identical to the offline `remap bench` targets.

use crate::json::{Json, Json::Fixed};
use crate::sweep::{stream_jsonl, JsonlOpts, SweepOpts};
use remap_workloads::barriers::{BarrierBench, BarrierMode};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Parses a millisecond duration from the environment, with a default.
fn env_ms(name: &str, default_ms: u64) -> Duration {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(Duration::from_millis(default_ms), Duration::from_millis)
}

/// Locks a mutex even if a previous holder panicked: the guarded state
/// here (labels, the sweep turnstile) stays consistent across unwinds
/// because sweeps themselves run behind a panic guard.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A bound, not-yet-running sweep server.
pub struct Server {
    listener: TcpListener,
    client_timeout: Duration,
}

/// State shared by all connection threads of one running server.
struct ServerState {
    jobs: usize,
    addr: SocketAddr,
    client_timeout: Duration,
    started: Instant,
    /// Sweep requests waiting for (or holding) the sweep turnstile.
    queue_depth: AtomicUsize,
    /// Label of the sweep currently holding the turnstile.
    in_flight: Mutex<Option<String>>,
    /// Set by `shutdown`; the accept loop stops on the next connection.
    shutting_down: AtomicBool,
    /// `shutdown` drains queued requests; `shutdown now` clears this and
    /// additionally cancels the in-flight sweep at its next item.
    drain: AtomicBool,
    /// Serializes sweeps in lock-acquisition order.
    sweep_turnstile: Mutex<()>,
}

impl ServerState {
    /// Whether in-flight sweeps must cancel at their next item
    /// (`shutdown now`).
    fn aborting(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst) && !self.drain.load(Ordering::SeqCst)
    }
}

/// Clears the in-flight label and queue slot when a sweep request ends,
/// however it ends (completion, cancel, panic).
struct SweepSlot<'a>(&'a ServerState);

impl Drop for SweepSlot<'_> {
    fn drop(&mut self) {
        *lock_unpoisoned(&self.0.in_flight) = None;
        self.0.queue_depth.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds the service to `addr` (e.g. `127.0.0.1:47113`, or port `0`
    /// for an ephemeral port — query it with [`Server::local_addr`]).
    /// The per-connection deadline comes from `REMAP_SERVE_TIMEOUT_MS`
    /// (default 30 s); override it with [`Server::with_client_timeout`].
    pub fn bind(addr: &str) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        Ok(Server {
            listener,
            client_timeout: env_ms("REMAP_SERVE_TIMEOUT_MS", 30_000),
        })
    }

    /// Overrides the per-connection read/write deadline.
    pub fn with_client_timeout(mut self, timeout: Duration) -> Server {
        self.client_timeout = timeout;
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Accepts connections (one thread each) until a client sends
    /// `shutdown`. Each sweep runs on `jobs` workers; sweeps from
    /// different connections are served strictly one at a time, in
    /// arrival order at the sweep turnstile.
    pub fn run(self, jobs: usize) -> Result<(), String> {
        let state = Arc::new(ServerState {
            jobs,
            addr: self.local_addr(),
            client_timeout: self.client_timeout,
            started: Instant::now(),
            queue_depth: AtomicUsize::new(0),
            in_flight: Mutex::new(None),
            shutting_down: AtomicBool::new(false),
            drain: AtomicBool::new(true),
            sweep_turnstile: Mutex::new(()),
        });
        let mut handles = Vec::new();
        for conn in self.listener.incoming() {
            let conn = conn.map_err(|e| format!("accept failed: {e}"))?;
            if state.shutting_down.load(Ordering::SeqCst) {
                // The wake-up connection a shutdown handler made (or a
                // late client); refuse and stop accepting.
                drop(conn);
                break;
            }
            handles.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            let st = Arc::clone(&state);
            handles.push(std::thread::spawn(move || {
                // A client dropping mid-stream must not kill the service.
                if let Err(e) = handle_connection(conn, &st) {
                    eprintln!("warning: connection error: {e}");
                }
            }));
        }
        if state.drain.load(Ordering::SeqCst) {
            // Graceful shutdown: connections finish their queued requests;
            // their read deadlines bound how long an idle one can linger.
            for h in handles {
                let _ = h.join();
            }
        }
        Ok(())
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(state.client_timeout))?;
    stream.set_write_timeout(Some(state.client_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Stalled client: tell it (best effort) and hang up.
                let _ = writer.write_all(b"+err read deadline exceeded, closing connection\n");
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        if state.shutting_down.load(Ordering::SeqCst) {
            writer.write_all(b"+err service is shutting down\n")?;
            writer.flush()?;
            return Ok(());
        }
        match request {
            "shutdown" | "shutdown now" => {
                state.drain.store(request == "shutdown", Ordering::SeqCst);
                state.shutting_down.store(true, Ordering::SeqCst);
                writer.write_all(b"+ok bye\n")?;
                writer.flush()?;
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(state.addr);
                return Ok(());
            }
            _ => {
                respond_guarded(request, state, &mut writer)?;
                writer.flush()?;
            }
        }
    }
}

/// [`respond`] behind a panic guard: a workload that panics mid-request
/// (a `sweep` whose simulator run asserts, say) answers `+err` instead of
/// unwinding through [`Server::run`] and killing the long-running service
/// on one bad request. The connection — and the service — survive.
fn respond_guarded(request: &str, state: &ServerState, out: &mut dyn Write) -> std::io::Result<()> {
    match catch_unwind(AssertUnwindSafe(|| respond(request, state, out))) {
        Ok(result) => result,
        Err(p) => writeln!(
            out,
            "+err request panicked: {}",
            crate::runner::panic_message(&*p)
        ),
    }
}

/// Splits an optional trailing `timeout=<secs>` operand off a request's
/// word list, turning it into an absolute deadline.
fn split_deadline<'a>(words: &'a [&'a str]) -> Result<(&'a [&'a str], Option<Instant>), String> {
    match words.split_last() {
        Some((last, rest)) => match last.strip_prefix("timeout=") {
            Some(secs) => {
                let secs: u64 = secs
                    .parse()
                    .map_err(|_| format!("bad timeout `{last}` (want timeout=<secs>)"))?;
                Ok((rest, Some(Instant::now() + Duration::from_secs(secs))))
            }
            None => Ok((words, None)),
        },
        None => Ok((words, None)),
    }
}

/// Why a streamed request stopped before its last item.
enum StreamCut {
    Io(std::io::Error),
    Deadline,
    Shutdown,
}

/// Streams `items` through the engine behind the sweep turnstile, writing
/// `+item` frames, honoring the request deadline, disconnects, and
/// `shutdown now`. Returns how the stream was cut, if it was.
fn stream_items<I: Sync>(
    state: &ServerState,
    label: &str,
    deadline: Option<Instant>,
    items: &[I],
    f: impl Fn(usize, &I) -> String + Sync,
    out: &mut dyn Write,
) -> std::io::Result<Option<StreamCut>> {
    state.queue_depth.fetch_add(1, Ordering::SeqCst);
    let _slot = SweepSlot(state);
    let _turn = lock_unpoisoned(&state.sweep_turnstile);
    *lock_unpoisoned(&state.in_flight) = Some(label.to_string());
    let opts = JsonlOpts {
        sweep: SweepOpts::new(state.jobs),
        fingerprint: "serve",
        journal: None,
    };
    let mut cut = None;
    stream_jsonl(&opts, items, f, |i, line| {
        if state.aborting() {
            cut = Some(StreamCut::Shutdown);
            return ControlFlow::Break(());
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            cut = Some(StreamCut::Deadline);
            return ControlFlow::Break(());
        }
        match writeln!(out, "+item {i} {line}") {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                cut = Some(StreamCut::Io(e));
                ControlFlow::Break(())
            }
        }
    })?;
    Ok(cut)
}

/// Finishes a streamed frame according to how (whether) it was cut. An
/// I/O cut propagates (the connection is dead — the sweep was already
/// cancelled and its pool joined); budget and shutdown cuts keep the
/// connection alive with a `+err` line.
fn close_frame(
    cut: Option<StreamCut>,
    kind: &str,
    total: usize,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    match cut {
        None => writeln!(out, "+end {kind} {total}"),
        Some(StreamCut::Io(e)) => Err(e),
        Some(StreamCut::Deadline) => writeln!(out, "+err deadline exceeded"),
        Some(StreamCut::Shutdown) => writeln!(out, "+err service is shutting down"),
    }
}

/// Handles one request line, writing a framed response to `out`.
fn respond(request: &str, state: &ServerState, out: &mut dyn Write) -> std::io::Result<()> {
    let words: Vec<&str> = request.split_whitespace().collect();
    let (words, deadline) = match split_deadline(&words) {
        Ok(split) => split,
        Err(e) => return writeln!(out, "+err {e}"),
    };
    match words {
        ["ping"] => out.write_all(b"+ok pong\n"),
        ["health"] => {
            let in_flight = lock_unpoisoned(&state.in_flight)
                .clone()
                .unwrap_or_else(|| "idle".into());
            writeln!(
                out,
                "+ok health queue={} in_flight={} uptime={}s",
                state.queue_depth.load(Ordering::SeqCst),
                in_flight,
                state.started.elapsed().as_secs()
            )
        }
        // Deterministic panic source for the guard test; never advertised.
        #[cfg(test)]
        ["__test_panic"] => panic!("deliberate request panic"),
        ["faultsweep"] => {
            let cells = crate::faultsweep::grid();
            writeln!(out, "+begin faultsweep {}", cells.len())?;
            let cut = stream_items(
                state,
                "faultsweep",
                deadline,
                &cells,
                |i, &cell| crate::faultsweep::cell_line(i, cell),
                out,
            )?;
            close_frame(cut, "faultsweep", cells.len(), out)
        }
        ["sweep", bench, mode, sizes @ ..] if !sizes.is_empty() => {
            let Some(bench) = BarrierBench::ALL
                .iter()
                .copied()
                .find(|b| b.name().eq_ignore_ascii_case(bench))
            else {
                return writeln!(out, "+err unknown barrier benchmark `{bench}`");
            };
            let Some(mode) = parse_barrier_mode(mode) else {
                return writeln!(out, "+err unknown barrier mode `{mode}`");
            };
            let mut parsed = Vec::with_capacity(sizes.len());
            for s in sizes {
                match s.parse::<usize>() {
                    Ok(n) => parsed.push(n),
                    Err(_) => return writeln!(out, "+err bad size `{s}`"),
                }
            }
            writeln!(out, "+begin sweep {}", parsed.len())?;
            let cut = stream_items(
                state,
                &format!("sweep {}", bench.name()),
                deadline,
                &parsed,
                |_, &n| {
                    let (n, per_iter, rel_ed) = crate::barrier_point(bench, mode, n);
                    Json::obj([
                        ("n", n.into()),
                        ("cycles_per_iter", Fixed(per_iter, 1)),
                        ("rel_ed", Fixed(rel_ed, 4)),
                    ])
                    .to_string()
                },
                out,
            )?;
            close_frame(cut, "sweep", parsed.len(), out)
        }
        _ => writeln!(
            out,
            "+err unknown request `{request}` (try: ping | health | faultsweep | \
             sweep <bench> <mode> <sizes...> [timeout=<secs>] | shutdown [now])"
        ),
    }
}

/// Barrier-mode parser of the serve protocol — same grammar as the CLI
/// (`seq`, `sw:<p>`, `barrier:<p>`, `barrier+comp:<p>`, `hwnet:<p>`).
fn parse_barrier_mode(mode: &str) -> Option<BarrierMode> {
    if mode == "seq" {
        return Some(BarrierMode::Seq);
    }
    let threads = |prefix: &str| {
        mode.strip_prefix(prefix)
            .and_then(|s| s.strip_prefix(':'))
            .and_then(|s| s.parse::<usize>().ok())
    };
    if mode.starts_with("barrier+comp") {
        return threads("barrier+comp").map(BarrierMode::RemapComp);
    }
    if mode.starts_with("barrier") {
        return threads("barrier").map(BarrierMode::Remap);
    }
    if mode.starts_with("sw") {
        return threads("sw").map(BarrierMode::Sw);
    }
    if mode.starts_with("hwnet") {
        return threads("hwnet").map(BarrierMode::HwIdeal);
    }
    None
}

/// Connects to `addr` with a bounded retry: up to 3 attempts, each under
/// a connect deadline (`REMAP_SUBMIT_CONNECT_TIMEOUT_MS`, default 5 s),
/// with exponential backoff between attempts
/// (`REMAP_SUBMIT_RETRY_BASE_MS`, default 100 ms, doubling, capped at
/// 2 s) — so a service still coming up wins a second chance, but a dead
/// address fails in bounded time.
fn connect_with_retry(addr: &str) -> Result<TcpStream, String> {
    let targets: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .collect();
    if targets.is_empty() {
        return Err(format!("cannot resolve {addr}: no addresses"));
    }
    let connect_timeout = env_ms("REMAP_SUBMIT_CONNECT_TIMEOUT_MS", 5_000);
    let mut backoff = env_ms("REMAP_SUBMIT_RETRY_BASE_MS", 100);
    let mut last = String::new();
    for attempt in 1..=3 {
        if attempt > 1 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(2));
        }
        for t in &targets {
            match TcpStream::connect_timeout(t, connect_timeout) {
                Ok(s) => return Ok(s),
                Err(e) => last = e.to_string(),
            }
        }
    }
    Err(format!("cannot connect to {addr} after 3 attempts: {last}"))
}

/// Client side: connects to `addr` (with retry — see
/// [`connect_with_retry`]), submits one request line, and copies the
/// framed response to `out` until the frame closes. Reads run under a
/// deadline (`REMAP_SUBMIT_READ_TIMEOUT_MS`, default 120 s, measured
/// between frames) so a hung service cannot wedge the client forever.
/// Returns whether the request succeeded (`+err` responses return
/// `Ok(false)`).
pub fn submit(addr: &str, request: &str, out: &mut dyn Write) -> Result<bool, String> {
    let stream = connect_with_retry(addr)?;
    stream
        .set_read_timeout(Some(env_ms("REMAP_SUBMIT_READ_TIMEOUT_MS", 120_000)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let reader = BufReader::new(stream);
    let mut ok = true;
    for line in reader.lines() {
        let line = line.map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                "read deadline exceeded waiting for the service".to_string()
            } else {
                format!("connection dropped mid-response: {e}")
            }
        })?;
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
        if line.starts_with("+err") {
            return Ok(false);
        }
        if line.starts_with("+ok") || line.starts_with("+end") {
            return Ok(ok);
        }
        if !(line.starts_with("+begin") || line.starts_with("+item")) {
            ok = false;
        }
    }
    Err("connection closed before the response frame ended".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(jobs: usize) -> ServerState {
        ServerState {
            jobs,
            addr: "127.0.0.1:0".parse().unwrap(),
            client_timeout: Duration::from_secs(5),
            started: Instant::now(),
            queue_depth: AtomicUsize::new(0),
            in_flight: Mutex::new(None),
            shutting_down: AtomicBool::new(false),
            drain: AtomicBool::new(true),
            sweep_turnstile: Mutex::new(()),
        }
    }

    #[test]
    fn barrier_mode_grammar_matches_cli() {
        assert_eq!(parse_barrier_mode("seq"), Some(BarrierMode::Seq));
        assert_eq!(parse_barrier_mode("sw:8"), Some(BarrierMode::Sw(8)));
        assert_eq!(parse_barrier_mode("barrier:4"), Some(BarrierMode::Remap(4)));
        assert_eq!(
            parse_barrier_mode("barrier+comp:16"),
            Some(BarrierMode::RemapComp(16))
        );
        assert_eq!(parse_barrier_mode("hwnet:6"), Some(BarrierMode::HwIdeal(6)));
        assert_eq!(parse_barrier_mode("barrier"), None);
        assert_eq!(parse_barrier_mode("sw:x"), None);
        assert_eq!(parse_barrier_mode("bogus:2"), None);
    }

    #[test]
    fn unknown_requests_answer_err_without_closing() {
        let state = test_state(1);
        let mut out = Vec::new();
        respond("frobnicate", &state, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("+err"), "{s}");
    }

    #[test]
    fn panicking_request_answers_err_instead_of_unwinding() {
        let state = test_state(1);
        let mut out = Vec::new();
        respond_guarded("__test_panic", &state, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("+err"), "{s}");
        assert!(s.contains("deliberate request panic"), "{s}");
    }

    #[test]
    fn sweep_request_rejects_bad_operands() {
        let state = test_state(1);
        for req in [
            "sweep nosuch barrier:8 8",
            "sweep ll2 bogus:2 8",
            "sweep ll2 barrier:8 eight",
            "sweep ll2 barrier:8 8 timeout=soon",
        ] {
            let mut out = Vec::new();
            respond(req, &state, &mut out).unwrap();
            let s = String::from_utf8(out).unwrap();
            assert!(
                s.starts_with("+err") || s.contains("\n+err"),
                "{req} -> {s}"
            );
        }
    }

    #[test]
    fn health_reports_idle_state() {
        let state = test_state(1);
        let mut out = Vec::new();
        respond("health", &state, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(
            s.starts_with("+ok health queue=0 in_flight=idle uptime="),
            "{s}"
        );
    }

    #[test]
    fn zero_budget_sweep_trips_the_deadline_and_preserves_the_slot() {
        let state = test_state(1);
        let mut out = Vec::new();
        respond("sweep ll2 barrier:2 8 16 timeout=0", &state, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("+begin sweep 2"), "{s}");
        assert!(s.contains("+err deadline exceeded"), "{s}");
        assert!(!s.contains("+end"), "{s}");
        // The slot and label were released: the next request runs fine.
        assert_eq!(state.queue_depth.load(Ordering::SeqCst), 0);
        assert!(lock_unpoisoned(&state.in_flight).is_none());
        let mut out = Vec::new();
        respond("sweep ll2 barrier:2 8", &state, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("+end sweep 1"), "{s}");
    }

    /// A writer that accepts the frame header, then fails like a socket
    /// whose peer vanished: the disconnect-cancels-sweep path.
    struct DropAfter(usize);

    impl Write for DropAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.0 == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "peer went away",
                ));
            }
            self.0 -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disconnect_mid_stream_cancels_and_releases_the_turnstile() {
        let state = test_state(2);
        // Header + one item succeed, then the pipe breaks.
        let e = respond("sweep ll2 barrier:2 8 16 32", &state, &mut DropAfter(2)).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
        // The pool tore down and the turnstile is free: a queued request
        // (next connection) completes normally.
        assert_eq!(state.queue_depth.load(Ordering::SeqCst), 0);
        assert!(state.sweep_turnstile.try_lock().is_ok());
        let mut out = Vec::new();
        respond("sweep ll2 barrier:2 8", &state, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("+end sweep 1"));
    }

    #[test]
    fn connect_retry_fails_in_bounded_time_with_attempt_count() {
        // Bind-then-drop yields a port that refuses connections.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let t0 = Instant::now();
        let e = connect_with_retry(&format!("127.0.0.1:{port}")).unwrap_err();
        assert!(e.contains("after 3 attempts"), "{e}");
        // Two backoff sleeps (100 + 200 ms) happened, but nothing unbounded.
        assert!(
            t0.elapsed() >= Duration::from_millis(250),
            "{:?}",
            t0.elapsed()
        );
        assert!(t0.elapsed() < Duration::from_secs(20), "{:?}", t0.elapsed());
    }
}
