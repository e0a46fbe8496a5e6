//! The live telemetry endpoint: a std-only TCP server speaking minimal
//! HTTP/1.0, started by `--serve ADDR` on both binaries.
//!
//! | endpoint | response |
//! |---|---|
//! | `GET /` | plain-text endpoint index |
//! | `GET /metrics` | live Prometheus exposition ([`crate::export::prometheus`]) |
//! | `GET /events` | CRC-framed `MMRE` NDJSON flight events: the retained ring replayed, then a live tail |
//! | `GET /status` | JSON summary: build info, current request key, run state, convergence trajectory, extension fields |
//!
//! Connections are accepted on one dedicated thread and each request is
//! handled on its own short-lived thread, so a slow client can never
//! stall the accept loop — and, because `/events` tails a bounded
//! drop-oldest [bus](crate::bus) queue, never a worker either. A client
//! that goes away mid-stream is detached with an `obs.serve.disconnects`
//! bump. Serving is strictly out-of-band: results are bit-identical with
//! the server attached, detached, or with clients connecting and
//! disconnecting mid-run.
//!
//! An unusable `--serve` address surfaces as the bind error from
//! [`serve`]; the flag layer degrades it like any other artifact
//! (warning + exit 2 with results intact, via [`crate::degrade`]).

use serde::{Number, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long the accept loop sleeps between polls of the nonblocking
/// listener (also bounds shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// How long an `/events` streamer waits on its queue before re-checking
/// the shutdown flag.
const EVENTS_POLL: Duration = Duration::from_millis(250);
/// Longest request line read, newline included. The read timeout is per
/// read, so without a cap a client that never sends a newline would grow
/// the line without bound.
const MAX_REQUEST_LINE: usize = 8 * 1024;

fn serve_connections() -> &'static crate::Counter {
    static C: std::sync::OnceLock<crate::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::global().counter("obs.serve.connections"))
}

fn serve_disconnects() -> &'static crate::Counter {
    static C: std::sync::OnceLock<crate::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::global().counter("obs.serve.disconnects"))
}

/// Extra `/status` fields installed by the binary (e.g. the fault-ledger
/// snapshot, which lives above `obs` in the crate graph).
type StatusExt = Box<dyn Fn() -> Vec<(String, Value)> + Send + Sync>;

static STATUS_EXT: Mutex<Option<StatusExt>> = Mutex::new(None);

/// Installs a provider of extra top-level `/status` fields. The binaries
/// use this to attach state `obs` cannot see itself (the fault ledger).
pub fn set_status_ext(f: StatusExt) {
    *STATUS_EXT
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(f);
}

/// A running telemetry server. Dropping it stops the accept loop;
/// in-flight `/events` streams notice the shutdown flag within
/// [`EVENTS_POLL`] and close.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The actually-bound address (resolves port 0 to the kernel's
    /// choice — callers print this so clients can find it).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving on a dedicated
/// accept thread.
///
/// # Errors
///
/// Any error resolving or binding the address — the flag layer's
/// degradation contract turns it into a warning plus deferred exit 2.
pub fn serve(addr: &str) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name("obs-serve".to_owned())
        .spawn(move || accept_loop(&listener, &stop2))?;
    Ok(Server {
        addr: local,
        stop,
        accept: Some(accept),
    })
}

fn accept_loop(listener: &TcpListener, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                serve_connections().inc();
                let stop = Arc::clone(stop);
                // One short-lived thread per request: a slow reader can
                // stall neither the accept loop nor any worker.
                let _ = std::thread::Builder::new()
                    .name("obs-serve-conn".to_owned())
                    .spawn(move || handle_connection(stream, &stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Parses the target path out of an HTTP request line (`GET <path> …`).
fn request_path(line: &str) -> Option<String> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Some(path.to_owned()),
        _ => None,
    }
}

/// Reads the request line, at most [`MAX_REQUEST_LINE`] bytes of it.
/// `Ok(None)` for a line that is over-long or not UTF-8.
///
/// # Errors
///
/// Any read error (the connection is dropped unanswered).
fn read_request_line(reader: impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    reader.take(MAX_REQUEST_LINE as u64).read_until(b'\n', &mut line)?;
    let whole = line.len() < MAX_REQUEST_LINE || line.ends_with(b"\n");
    Ok(String::from_utf8(line).ok().filter(|_| whole))
}

fn handle_connection(stream: TcpStream, stop: &Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let Ok(line) = read_request_line(reader) else {
        return;
    };
    match line.as_deref().and_then(request_path).as_deref() {
        Some("/metrics") => {
            let body = crate::export::prometheus(&crate::snapshot());
            respond(stream, "200 OK", "text/plain; version=0.0.4", &body);
        }
        Some("/status") => {
            let body = serde_json::to_string_pretty(&status_value()).unwrap_or_default();
            respond(stream, "200 OK", "application/json", &body);
        }
        Some("/events") => stream_events(stream, stop),
        Some("/") => respond(
            stream,
            "200 OK",
            "text/plain",
            "mmreliab live telemetry\n\n/metrics  Prometheus exposition\n/events   MMRE NDJSON flight-event stream\n/status   JSON run summary\n",
        ),
        Some(_) => respond(stream, "404 Not Found", "text/plain", "not found\n"),
        None => respond(stream, "400 Bad Request", "text/plain", "bad request\n"),
    }
}

/// Writes one complete HTTP/1.0 response and closes the connection.
fn respond(mut stream: TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}

/// Streams flight events: first a replay of everything still in the
/// ring, then a live tail from a bounded drop-oldest bus queue, until
/// the client disconnects or the server stops.
fn stream_events(mut stream: TcpStream, stop: &Arc<AtomicBool>) {
    // Subscribe before replaying so no event can fall between the
    // replay and the tail; duplicates are filtered by sequence number.
    let sub = crate::bus::subscribe(crate::ring_capacity());
    let head = "HTTP/1.0 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        serve_disconnects().inc();
        return;
    }
    let mut last_seq = 0u64;
    for ev in crate::flight::events() {
        if let Some(line) = crate::flight::frame_line(&ev) {
            if stream.write_all(line.as_bytes()).is_err() {
                serve_disconnects().inc();
                return;
            }
        }
        last_seq = last_seq.max(ev.seq);
    }
    let _ = stream.flush();
    while !stop.load(Ordering::Relaxed) {
        match sub.recv_timeout(EVENTS_POLL) {
            Some(crate::bus::BusMessage::Event(ev)) if ev.seq > last_seq => {
                last_seq = ev.seq;
                let Some(line) = crate::flight::frame_line(&ev) else {
                    continue;
                };
                if stream
                    .write_all(line.as_bytes())
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    serve_disconnects().inc();
                    return;
                }
            }
            // Frames and replay duplicates are not part of this stream.
            Some(_) | None => {}
        }
    }
}

fn num(v: u64) -> Value {
    Value::Number(Number::U(v))
}

fn opt_f64(v: Option<f64>) -> Value {
    v.map_or(Value::Null, |f| Value::Number(Number::F(f)))
}

/// The `/status` document: build metadata, the current request key, the
/// run state derived from the flight timeline, the convergence
/// trajectory so far, and any binary-installed extension fields.
fn status_value() -> Value {
    let events = crate::flight::events();
    let mut state = "idle";
    let mut fate: Option<String> = None;
    for ev in &events {
        match ev.kind.as_str() {
            "run_start" => {
                state = "running";
                fate = None;
            }
            "run_end" => {
                state = "done";
                fate = ev.detail.clone();
            }
            _ => {}
        }
    }
    let waves: Vec<Value> = events
        .iter()
        .filter(|e| e.kind == "wave_decided")
        .map(|e| {
            Value::Object(vec![
                ("n".to_owned(), num(e.n.unwrap_or(0))),
                ("rse".to_owned(), opt_f64(e.value)),
                (
                    "decision".to_owned(),
                    e.detail
                        .clone()
                        .map_or(Value::Null, Value::String),
                ),
            ])
        })
        .collect();
    let build = crate::build_info().map_or(Value::Null, |b| {
        Value::Object(vec![
            ("version".to_owned(), Value::String(b.version)),
            ("git_rev".to_owned(), Value::String(b.git_rev)),
            ("host_cores".to_owned(), num(b.host_cores)),
            ("chunk_width".to_owned(), num(b.chunk_width)),
        ])
    });
    let mut fields = vec![
        ("build".to_owned(), build),
        (
            "request".to_owned(),
            crate::flight::current_request().map_or(Value::Null, Value::String),
        ),
        ("state".to_owned(), Value::String(state.to_owned())),
        (
            "fate".to_owned(),
            fate.map_or(Value::Null, Value::String),
        ),
        ("live_rse".to_owned(), opt_f64(crate::progress::live_rse())),
        ("waves".to_owned(), Value::Array(waves)),
        ("events_retained".to_owned(), num(events.len() as u64)),
    ];
    let ext = STATUS_EXT
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(f) = ext.as_ref() {
        fields.extend(f());
    }
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot GET against a live server, returning (header, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("request");
        let mut text = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut text).expect("response");
        match text.split_once("\r\n\r\n") {
            Some((h, b)) => (h.to_owned(), b.to_owned()),
            None => (text, String::new()),
        }
    }

    #[test]
    fn metrics_endpoint_serves_lint_clean_exposition() {
        let _g = crate::test_ring_lock();
        crate::set_recording(true);
        crate::set_build_info(crate::BuildInfo {
            version: "0.0.0-test".to_owned(),
            git_rev: "deadbeef".to_owned(),
            host_cores: 8,
            chunk_width: 4096,
        });
        crate::global().counter("serve.test.hits").add(3);
        let server = serve("127.0.0.1:0").expect("bind");
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        crate::export::lint(&body).expect("exposition lints clean");
        #[cfg(feature = "enabled")]
        {
            assert!(body.contains("serve_test_hits 3"), "{body}");
            assert!(body.contains("mmr_build_info{"), "{body}");
        }
    }

    #[test]
    fn events_endpoint_replays_ring_and_tails_live() {
        let _g = crate::test_ring_lock();
        crate::set_recording(true);
        crate::flight::set_flight_recording(true);
        crate::flight::clear();
        crate::flight::event("serve_replayed").emit();
        let server = serve("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /events HTTP/1.0\r\n\r\n")
            .expect("request");
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        // Give the streamer a beat to finish the replay, then emit live.
        std::thread::sleep(Duration::from_millis(100));
        crate::flight::event("serve_live").emit();
        let mut reader = BufReader::new(stream);
        let mut kinds = Vec::new();
        let mut line = String::new();
        // Header lines, blank separator, then MMRE lines.
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if let Some(ev) = parse_mmre(&line) {
                kinds.push(ev);
            }
            if kinds.len() >= 2 {
                break;
            }
        }
        #[cfg(feature = "enabled")]
        assert_eq!(kinds, vec!["serve_replayed", "serve_live"]);
        #[cfg(not(feature = "enabled"))]
        assert!(kinds.is_empty() || kinds.len() <= 2);
        drop(server);
    }

    fn parse_mmre(line: &str) -> Option<String> {
        if !line.starts_with("MMRE ") {
            return None;
        }
        let parsed = crate::flight::parse_log(line);
        parsed.events.first().map(|e| e.kind.clone())
    }

    #[test]
    fn status_endpoint_reports_build_state_and_waves() {
        let _g = crate::test_ring_lock();
        crate::set_recording(true);
        crate::flight::set_flight_recording(true);
        crate::flight::clear();
        crate::set_build_info(crate::BuildInfo {
            version: "0.0.0-test".to_owned(),
            git_rev: "deadbeef".to_owned(),
            host_cores: 8,
            chunk_width: 4096,
        });
        set_status_ext(Box::new(|| {
            vec![("faults".to_owned(), Value::Object(vec![
                ("injected_panics".to_owned(), num(2)),
            ]))]
        }));
        crate::flight::event("run_start").n(100).emit();
        crate::flight::event("wave_decided")
            .n(64)
            .value(0.25)
            .detail("continue")
            .emit();
        let server = serve("127.0.0.1:0").expect("bind");
        let (head, body) = get(server.addr(), "/status");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let v: Value = serde_json::from_str(&body).expect("status parses");
        let Value::Object(fields) = &v else {
            panic!("status is not an object: {body}")
        };
        assert!(matches!(Value::field(fields, "build"), Value::Object(_)));
        #[cfg(feature = "enabled")]
        {
            assert!(
                matches!(Value::field(fields, "state"), Value::String(s) if s == "running"),
                "{body}"
            );
            let Value::Array(waves) = Value::field(fields, "waves") else {
                panic!("waves missing: {body}")
            };
            assert_eq!(waves.len(), 1);
            assert!(matches!(Value::field(fields, "faults"), Value::Object(_)));
        }
        *STATUS_EXT.lock().unwrap() = None;
    }

    #[test]
    fn unknown_path_is_404_and_bad_request_400() {
        let _g = crate::test_ring_lock();
        let server = serve("127.0.0.1:0").expect("bind");
        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        assert!(request_path("POST / HTTP/1.0").is_none());
        assert!(request_path("").is_none());
        assert_eq!(request_path("GET /x HTTP/1.1").as_deref(), Some("/x"));
    }

    #[test]
    fn overlong_request_line_is_400_and_stops_reading_at_the_cap() {
        let _g = crate::test_ring_lock();
        let server = serve("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // A full cap and no newline: the reader must stop there and answer
        // instead of waiting for a newline that never comes.
        stream.write_all(b"GET /").expect("request");
        stream.write_all(&[b'a'; MAX_REQUEST_LINE - 5]).expect("request");
        let mut text = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut text).expect("response");
        assert!(text.starts_with("HTTP/1.0 400"), "{text}");

        let line = [b"GET /\xff HTTP/1.0\r\n".as_slice(), b"\r\n"].concat();
        assert_eq!(read_request_line(line.as_slice()).unwrap(), None, "non-UTF-8");
        let exact = [b"GET /".as_slice(), &[b'a'; MAX_REQUEST_LINE - 6], b"\n"].concat();
        assert_eq!(exact.len(), MAX_REQUEST_LINE);
        let fits = read_request_line(exact.as_slice()).unwrap();
        assert!(fits.is_some(), "a line of exactly the cap fits");
    }

    proptest::proptest! {
        #[test]
        fn request_reader_never_panics_or_exceeds_the_cap(
            head in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64usize),
            fill in 0usize..3 * MAX_REQUEST_LINE,
            byte in proptest::prelude::any::<u8>(),
            get in proptest::prelude::any::<bool>(),
        ) {
            let prefix: &[u8] = if get { b"GET /" } else { b"" };
            let bytes = [prefix, &head, &vec![byte; fill]].concat();
            if let Some(line) = read_request_line(bytes.as_slice()).unwrap() {
                proptest::prop_assert!(line.len() <= MAX_REQUEST_LINE);
                if let Some(path) = request_path(&line) {
                    proptest::prop_assert!(path.len() < MAX_REQUEST_LINE);
                }
            }
        }
    }

    #[test]
    fn unusable_address_is_a_bind_error() {
        assert!(serve("256.256.256.256:1").is_err());
        assert!(serve("not an address").is_err());
    }

    #[test]
    fn dead_events_client_is_detached_with_counter_bump() {
        let _g = crate::test_ring_lock();
        crate::set_recording(true);
        crate::flight::set_flight_recording(true);
        let before = crate::global().counter("obs.serve.disconnects").get();
        let server = serve("127.0.0.1:0").expect("bind");
        {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream
                .write_all(b"GET /events HTTP/1.0\r\n\r\n")
                .expect("request");
            // Let the streamer start, then vanish without reading.
            std::thread::sleep(Duration::from_millis(100));
        }
        #[cfg(feature = "enabled")]
        {
            // Keep emitting until the write error surfaces (the first
            // write after a close may still succeed).
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while crate::global().counter("obs.serve.disconnects").get() == before {
                assert!(
                    std::time::Instant::now() < deadline,
                    "dead client never detached"
                );
                crate::flight::event("serve_dead_client_probe").emit();
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        #[cfg(not(feature = "enabled"))]
        let _ = before;
        drop(server);
    }
}
