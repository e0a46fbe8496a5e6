//! Live-telemetry integration: the broadcast bus and TCP endpoint's
//! out-of-band contract in numbers.
//!
//! * Results are **bit-identical** with the telemetry server detached,
//!   attached, and with `/events` clients connecting and disconnecting
//!   mid-run, at every thread count — serving never touches RNG streams,
//!   chunk tiling, or merge order.
//! * A deliberately **slow subscriber** (a bounded queue nobody drains)
//!   sheds its oldest backlog instead of stalling workers: the run stays
//!   bit-identical and `obs.bus.dropped` grows by exactly the overflow.

use montecarlo::{RunReport, Runner, Seed, CHUNK_WIDTH};
use rand::Rng;
use std::io::{Read as _, Write as _};
use std::time::Duration;

/// Enough trials to span several chunks, with a ragged final chunk.
const TRIALS: u64 = 3 * CHUNK_WIDTH + 1234;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The bus, server, and counters are process-global, so these tests
/// serialize on one lock.
fn serve_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An order-sensitive polynomial hash over every raw u64 the trial kernel
/// draws: any lost, duplicated, or reordered trial changes the value.
fn checksum_run(threads: usize) -> RunReport<u64> {
    Runner::new(Seed(2011))
        .with_threads(threads)
        .with_retry_backoff(Duration::ZERO)
        .try_fold(
            TRIALS,
            || 0u64,
            |rng| rng.gen::<u64>(),
            |acc, x| *acc = acc.wrapping_mul(0x100_0003).wrapping_add(x),
            |a, b| *a = a.wrapping_mul(0x9E37_79B9).wrapping_add(b),
        )
        .expect("fault-free runs never fail")
}

#[test]
fn results_are_bit_identical_served_unserved_and_under_client_churn() {
    let _lock = serve_lock();
    let baseline = checksum_run(1);

    // Unserved first, then everything below runs against a live endpoint.
    for threads in THREADS {
        assert_eq!(
            checksum_run(threads),
            baseline,
            "unserved run drifted at threads={threads}"
        );
    }

    let server = obs::serve::serve("127.0.0.1:0").expect("loopback bind");
    let addr = server.addr();

    // One persistent `/events` client draining in the background, plus a
    // churn thread that keeps connecting, reading a little, and hanging
    // up — clients attach and detach while workers are mid-run.
    let mut persistent = std::net::TcpStream::connect(addr).unwrap();
    persistent
        .write_all(b"GET /events HTTP/1.0\r\n\r\n")
        .unwrap();
    // The server subscribes a client before it writes the response head,
    // so the first bytes read prove the persistent client is attached.
    let (attached_tx, attached) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        let mut streamed = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n) = persistent.read(&mut buf) {
            if n == 0 {
                break;
            }
            if streamed.is_empty() {
                let _ = attached_tx.send(());
            }
            streamed.extend_from_slice(&buf[..n]);
        }
        streamed
    });
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (churned_tx, churned) = std::sync::mpsc::channel();
    let churn = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut cycles = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let Ok(mut c) = std::net::TcpStream::connect(addr) else {
                    continue;
                };
                let _ = c.write_all(b"GET /events HTTP/1.0\r\n\r\n");
                let _ = c.set_read_timeout(Some(Duration::from_millis(5)));
                let _ = c.read(&mut [0u8; 512]);
                drop(c); // hang up mid-stream
                cycles += 1;
                let _ = churned_tx.send(());
            }
            cycles
        })
    };
    // The runs below take milliseconds: start them only once both clients
    // are live, or they can finish before either one connects.
    let ready = Duration::from_secs(30);
    attached
        .recv_timeout(ready)
        .expect("persistent client attached");
    churned
        .recv_timeout(ready)
        .expect("churn thread completed a connection");

    for threads in THREADS {
        assert_eq!(
            checksum_run(threads),
            baseline,
            "served run drifted at threads={threads}"
        );
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let cycles = churn.join().unwrap();
    assert!(cycles > 0, "the churn thread never completed a connection");
    drop(server);
    let streamed = String::from_utf8(drain.join().unwrap()).unwrap();

    // The persistent client really received framed events from the runs:
    // every streamed line re-parses CRC-clean.
    let body = streamed
        .split_once("\r\n\r\n")
        .map_or(streamed.as_str(), |(_, b)| b);
    let complete = &body[..=body.rfind('\n').expect("at least one full frame")];
    let parsed = obs::flight::parse_log(complete);
    assert!(!parsed.torn, "streamed frames re-parse CRC-clean");
    assert!(
        parsed.events.iter().any(|e| e.kind == "run_start"),
        "the stream carried live run events"
    );
}

#[test]
fn slow_subscriber_drops_oldest_without_stalling_or_perturbing_the_run() {
    let _lock = serve_lock();
    obs::set_recording(true);
    let baseline = checksum_run(1);

    let published = obs::global().counter("obs.bus.published");
    let dropped = obs::global().counter("obs.bus.dropped");
    let (published0, dropped0) = (published.get(), dropped.get());

    // A tiny queue nobody drains: every publish beyond its capacity must
    // evict the oldest message rather than block the publishing worker.
    let slow = obs::bus::subscribe(4);
    let report = checksum_run(2);
    let (published1, dropped1) = (published.get(), dropped.get());
    let retained = slow.drain();
    drop(slow);

    assert_eq!(report, baseline, "a stalled subscriber perturbed the run");
    assert!(retained.len() <= 4, "the queue respected its bound");
    let overflow = (published1 - published0) - retained.len() as u64;
    assert!(overflow > 0, "the run must overflow a 4-slot queue");
    assert_eq!(
        dropped1 - dropped0,
        overflow,
        "obs.bus.dropped grew by exactly the overflow"
    );
    // The survivors are the newest messages: the run's final event is
    // still in the queue, so the tail was preserved while the head shed.
    let max_seq = retained
        .iter()
        .filter_map(|m| match m {
            obs::bus::BusMessage::Event(e) => Some(e.seq),
            obs::bus::BusMessage::Frame(_) => None,
        })
        .max()
        .expect("the retained tail holds events");
    let ring_max = obs::flight::events()
        .iter()
        .map(|e| e.seq)
        .max()
        .expect("the run emitted events");
    assert_eq!(max_seq, ring_max, "drop-oldest kept the newest events");
}
