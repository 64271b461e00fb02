//! Dialing with retry, backoff, and the protocol handshake — and, for
//! the listening side, the connection driver the servers share.
//!
//! Every outbound TCP connection in the system goes through here: the
//! gateway's backend pool, its health probes, the `hbtl` client
//! commands (`monitor send --retry`, `loadgen`), and the hb-sdk
//! flusher's reconnect loop. Retries use capped exponential backoff
//! with jitter so a thundering herd of reconnecting clients spreads
//! out instead of synchronizing on the retry schedule.

use crate::wire::{self, ClientMsg, ServerMsg};
use crate::TraceError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// How hard to try before giving up on an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (minimum 1).
    pub attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy with `retries` *extra* attempts beyond the first try —
    /// the shape of the CLI's `--retry N` flag.
    pub fn with_retries(retries: u32) -> Self {
        RetryPolicy {
            attempts: retries.saturating_add(1),
            ..RetryPolicy::default()
        }
    }

    /// The backoff before attempt `attempt` (1-based; attempt 0 is
    /// immediate): `min(cap, base·2^(attempt−1))`, scaled by a jitter
    /// factor in [0.5, 1.0] so simultaneous dialers desynchronize.
    pub fn delay(&self, attempt: u32, jitter_seed: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cap);
        // SplitMix64 over the seed; map the top bits onto [0.5, 1.0).
        let mut z = jitter_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let frac = 0.5 + (z >> 40) as f64 / (1u64 << 24) as f64 / 2.0;
        exp.mul_f64(frac)
    }
}

/// A per-call jitter seed: wall-clock nanos XOR the address bytes, so
/// two processes retrying the same backend at the same instant still
/// pick different delays.
fn jitter_seed(addr: &str) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    addr.bytes()
        .fold(nanos, |h, b| h.rotate_left(7) ^ u64::from(b))
}

/// Connects with retry; no handshake.
pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> Result<TcpStream, String> {
    let attempts = policy.attempts.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        std::thread::sleep(policy.delay(attempt, jitter_seed(addr).wrapping_add(attempt.into())));
        match TcpStream::connect(addr) {
            Ok(s) => {
                // Frames are small and request/reply-shaped; Nagle would
                // serialize every exchange on a delayed-ACK round trip.
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!(
        "connect {addr}: {last} (after {attempts} attempts)"
    ))
}

/// A dialed, handshaken connection. The reader **must** be reused by
/// the caller — bytes the server sent after `Welcome` may already sit
/// in its buffer, so constructing a second `BufReader` over the stream
/// would lose them.
pub struct Dialed {
    /// Buffered writer half.
    pub writer: BufWriter<TcpStream>,
    /// Buffered reader half (already past the `Welcome` frame).
    pub reader: BufReader<TcpStream>,
    /// An unbuffered clone for out-of-band shutdown.
    pub stream: TcpStream,
}

/// Connects with retry and performs the `Hello`/`Welcome` handshake.
/// Doubles as the health probe: a peer that completes it is alive and
/// speaks [`wire::WIRE_VERSION`]. Anything but a welcome at exactly
/// that version is an error.
pub fn dial(addr: &str, policy: &RetryPolicy) -> Result<Dialed, String> {
    let stream = connect_with_retry(addr, policy)?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let hello = ClientMsg::Hello {
        version: wire::WIRE_VERSION,
    };
    wire::write_frame(&mut writer, &hello).map_err(|e| format!("handshake {addr}: {e}"))?;
    let welcomed = match wire::read_frame::<_, ServerMsg>(&mut reader) {
        Ok(Some(ServerMsg::Welcome { version })) => wire::check_version(version),
        Ok(Some(ServerMsg::Error { message, .. })) => Err(message),
        Ok(Some(other)) => Err(format!("unexpected reply {other:?}")),
        Ok(None) => Err("peer closed the connection".into()),
        Err(e) => Err(e.to_string()),
    };
    welcomed.map_err(|m| format!("handshake {addr}: {m}"))?;
    Ok(Dialed {
        writer,
        reader,
        stream,
    })
}

// ---- the listening side ---------------------------------------------------

/// What a server does with its clients' frames. [`accept_loop`] is the
/// connection driver the monitor and the gateway share, and owns the
/// rest: accepting, a registry of live connections, one reader thread
/// per connection handing frame bodies here, and one writer thread per
/// connection draining the replies sent to its sink.
pub trait Service: Send + Sync + 'static {
    /// Takes one frame body a client sent; replies go to `sink`.
    /// `Ok(true)` when the frame was `shutdown`: the server stops. A
    /// body that does not decode ends the connection.
    fn frame(&self, body: Vec<u8>, sink: &Sender<ServerMsg>) -> Result<bool, TraceError>;
    /// Counts a frame that could not be read or decoded. The driver
    /// answers it with an error frame and ends the connection.
    fn refused(&self);
    /// A client connected (`true`), or its reader ended (`false`).
    fn connected(&self, _open: bool) {}
}

/// How long, once the server stops, a client that does not read may
/// hold up a write to it. Joining the writers waits no longer than this
/// for any peer.
const STOP_WRITE_BOUND: Duration = Duration::from_secs(2);

/// A registered connection. The registry's hold on the socket is weak:
/// it closes when both threads are done with it.
struct Live {
    stream: Weak<TcpStream>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// Forgets the connections whose threads have both returned.
fn reap_finished(live: &mut Vec<Live>) {
    live.retain(|c| !(c.reader.is_finished() && c.writer.is_finished()));
}

/// One connection's reader: bodies to `service` until the client
/// closes, a frame breaks, or a client asks the server to stop. It
/// never waits for the writer. Returns whether the server should stop.
fn read_loop<S: Service>(stream: &TcpStream, service: &S, sink: &Sender<ServerMsg>) -> bool {
    let mut r = BufReader::new(stream);
    loop {
        let frame = wire::read_body(&mut r)
            .and_then(|body| body.map(|body| service.frame(body, sink)).transpose());
        match frame {
            Ok(Some(false)) => {}
            Ok(Some(true)) => return true,
            // A clean disconnect, or the server stopping.
            Ok(None) => return false,
            Err(e) => {
                // Framing is broken; there is no way to resync safely.
                service.refused();
                let _ = sink.send(ServerMsg::Error {
                    session: None,
                    kind: None,
                    message: e.to_string(),
                });
                return false;
            }
        }
    }
}

/// One connection's writer: reply frames until `bye`, a failed write,
/// or the drop of the sink's last clone — the reader's, and one per
/// session the connection speaks for.
fn write_loop(stream: &TcpStream, replies: Receiver<ServerMsg>) {
    let mut w = BufWriter::new(stream);
    for msg in replies.iter() {
        let is_bye = matches!(msg, ServerMsg::Bye);
        if wire::write_frame(&mut w, &msg).is_err() || is_bye {
            return;
        }
    }
}

/// The connection driver: serves `service` on `listener` until a client
/// sends `shutdown`. Connections whose threads have returned are reaped
/// on each accept, so a server under connection churn registers only
/// the connections still open.
///
/// On stop it accepts no more, shuts the read half of every registered
/// socket so blocked readers return, and joins the readers. The writers
/// are handed back alive: the caller runs its final flush, whose
/// replies still reach connected clients, then [`Writers::join`]s them.
pub fn accept_loop<S: Service>(listener: TcpListener, service: S) -> std::io::Result<Writers> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let service = Arc::new(service);
    let mut live = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = Arc::new(stream?);
        // Small request/reply frames; Nagle would stall each exchange on
        // a delayed-ACK round trip.
        let _ = stream.set_nodelay(true);
        reap_finished(&mut live);
        let (sink, replies) = unbounded();
        let weak = Arc::downgrade(&stream);
        let writer = {
            let stream = Arc::clone(&stream);
            std::thread::spawn(move || write_loop(&stream, replies))
        };
        let (stop, service) = (Arc::clone(&stop), Arc::clone(&service));
        let reader = std::thread::spawn(move || {
            service.connected(true);
            let stopping = read_loop(&stream, &*service, &sink);
            service.connected(false);
            if stopping {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop.
                let _ = TcpStream::connect(addr);
            }
        });
        live.push(Live {
            stream: weak,
            reader,
            writer,
        });
    }
    for c in &live {
        if let Some(stream) = c.stream.upgrade() {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = stream.set_write_timeout(Some(STOP_WRITE_BOUND));
        }
    }
    let mut writers = Vec::with_capacity(live.len());
    for c in live {
        let _ = c.reader.join();
        writers.push(c.writer);
    }
    Ok(Writers(writers))
}

/// The writer threads of a stopped server's connections, still
/// draining their sinks.
pub struct Writers(Vec<JoinHandle<()>>);

impl Writers {
    /// Joins every writer. Call it after the server's final flush has
    /// dropped the sinks it held: a writer ends at its sink's last
    /// clone, a failed write, or a client that has not read for
    /// `STOP_WRITE_BOUND`.
    pub fn join(self) {
        for w in self.0 {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_capped_and_grow() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
        };
        let mut prev = Duration::ZERO;
        for attempt in 1..8 {
            let d = p.delay(attempt, 42);
            assert!(d <= Duration::from_millis(100), "attempt {attempt}: {d:?}");
            // Jitter is in [0.5, 1.0), so the *floor* still grows until
            // the cap: 2^(a-1)·base/2 ≥ previous cap/2 ordering holds.
            assert!(d >= Duration::from_millis(5), "attempt {attempt}: {d:?}");
            if attempt <= 3 {
                assert!(d >= prev / 4, "backoff collapsed at {attempt}");
            }
            prev = d;
        }
        assert_eq!(p.delay(0, 7), Duration::ZERO);
    }

    #[test]
    fn with_retries_counts_the_first_attempt() {
        assert_eq!(RetryPolicy::with_retries(0).attempts, 1);
        assert_eq!(RetryPolicy::with_retries(3).attempts, 4);
    }

    #[test]
    fn connect_failure_reports_attempts() {
        // Reserved-port refusals fail fast; keep the policy tiny anyway.
        let p = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let err = connect_with_retry("127.0.0.1:1", &p).unwrap_err();
        assert!(err.contains("after 2 attempts"), "{err}");
    }

    /// The accept loop's bookkeeping under churn: each cycle is one
    /// connection that ends at once; the client reads to EOF, so the
    /// next cycle starts only after the server side let go.
    #[test]
    fn finished_connection_threads_are_reaped_under_churn() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut live = Vec::new();
        for _ in 0..1000 {
            let mut client = TcpStream::connect(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            reap_finished(&mut live);
            let stream = Arc::new(stream);
            live.push(Live {
                stream: Arc::downgrade(&stream),
                reader: std::thread::spawn(|| {}),
                writer: std::thread::spawn(move || drop(stream)),
            });
            assert_eq!(client.read_to_end(&mut Vec::new()).unwrap(), 0);
        }
        assert!(live.len() <= 8, "{} connections retained", live.len());
    }

    /// Dials a one-shot peer that reads the `hello` and answers `reply`.
    fn dial_scripted(reply: ServerMsg) -> Result<Dialed, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let hello = wire::read_frame::<_, ClientMsg>(&mut reader).unwrap();
            assert_eq!(
                hello,
                Some(ClientMsg::Hello {
                    version: wire::WIRE_VERSION
                })
            );
            wire::write_frame(&mut BufWriter::new(stream), &reply).unwrap();
        });
        let dialed = dial(&addr, &RetryPolicy::default());
        peer.join().unwrap();
        dialed
    }

    #[test]
    fn dial_accepts_only_a_welcome_at_this_version() {
        assert!(dial_scripted(ServerMsg::Welcome { version: 5 }).is_ok());
        let err = dial_scripted(ServerMsg::Welcome { version: 4 })
            .err()
            .unwrap();
        assert!(err.starts_with("handshake "), "{err}");
        assert!(
            err.ends_with("unsupported protocol version 4 (this peer speaks 5)"),
            "{err}"
        );
    }

    #[test]
    fn dial_refuses_a_peer_that_does_not_know_hello() {
        let err = dial_scripted(ServerMsg::Error {
            session: None,
            kind: None,
            message: "unknown client message 'hello'".into(),
        })
        .err()
        .unwrap();
        assert!(err.starts_with("handshake "), "{err}");
        assert!(err.ends_with("unknown client message 'hello'"), "{err}");
    }

    /// Answers `hello` with a welcome and `shutdown` with `bye`, which
    /// stops the server.
    struct Greeter;

    impl Service for Greeter {
        fn frame(&self, body: Vec<u8>, sink: &Sender<ServerMsg>) -> Result<bool, TraceError> {
            let stop = wire::decode_body::<ClientMsg>(&body)? == ClientMsg::Shutdown;
            let _ = sink.send(match stop {
                true => ServerMsg::Bye,
                false => ServerMsg::Welcome {
                    version: wire::WIRE_VERSION,
                },
            });
            Ok(stop)
        }

        fn refused(&self) {}
    }

    /// Runs [`accept_loop`] over [`Greeter`] on a fresh port; the
    /// receiver yields its result once it returns.
    fn serve_greeter() -> (std::net::SocketAddr, Receiver<std::io::Result<Writers>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = unbounded();
        std::thread::spawn(move || done_tx.send(accept_loop(listener, Greeter)));
        (addr, done_rx)
    }

    fn send(stream: &TcpStream, msg: &ClientMsg) {
        wire::write_frame(&mut BufWriter::new(stream), msg).unwrap();
    }

    #[test]
    fn accept_loop_serves_until_a_connection_asks_to_stop() {
        let (addr, done) = serve_greeter();
        for _ in 0..3 {
            let client = TcpStream::connect(addr).unwrap();
            send(&client, &ClientMsg::Hello { version: 5 });
            let reply = wire::read_frame::<_, ServerMsg>(&mut BufReader::new(&client));
            assert_eq!(reply.unwrap(), Some(ServerMsg::Welcome { version: 5 }));
        }
        let client = TcpStream::connect(addr).unwrap();
        send(&client, &ClientMsg::Shutdown);
        let mut r = BufReader::new(&client);
        let bye = wire::read_frame::<_, ServerMsg>(&mut r).unwrap();
        assert_eq!(bye, Some(ServerMsg::Bye));
        done.recv().unwrap().unwrap().join();
    }

    /// A client that connects and never sends holds its reader in a
    /// read with no deadline. The stop must not wait for it: the loop
    /// returns, and the idle client reads EOF once the writers end.
    #[test]
    fn accept_loop_returns_while_a_reader_is_blocked() {
        let (addr, done) = serve_greeter();
        let idle = TcpStream::connect(addr).unwrap();
        // The idle connection is registered once it has been served.
        send(&idle, &ClientMsg::Hello { version: 5 });
        let mut idle_r = BufReader::new(&idle);
        let welcome = wire::read_frame::<_, ServerMsg>(&mut idle_r).unwrap();
        assert_eq!(welcome, Some(ServerMsg::Welcome { version: 5 }));
        send(&TcpStream::connect(addr).unwrap(), &ClientMsg::Shutdown);
        let writers = done
            .recv_timeout(Duration::from_secs(10))
            .expect("the accept loop waited for an idle reader")
            .unwrap();
        writers.join();
        let eof = wire::read_frame::<_, ServerMsg>(&mut idle_r).unwrap();
        assert_eq!(eof, None, "the idle client sees the server go");
    }
}
