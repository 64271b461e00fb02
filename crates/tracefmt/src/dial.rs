//! Dialing with retry, backoff, and the protocol handshake — and, for
//! the listening side, the accept loop the servers share.
//!
//! Every outbound TCP connection in the system goes through here: the
//! gateway's backend pool, its health probes, the `hbtl` client
//! commands (`monitor send --retry`, `loadgen`), and the hb-sdk
//! flusher's reconnect loop. Retries use capped exponential backoff
//! with jitter so a thundering herd of reconnecting clients spreads
//! out instead of synchronizing on the retry schedule.

use crate::wire::{self, ClientMsg, ServerMsg};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// Joins and forgets the connection threads that have already returned.
fn reap_finished(threads: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < threads.len() {
        if threads[i].is_finished() {
            let _ = threads.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// The accept loop the monitor and the gateway share: every connection
/// gets a thread running `conn`, which returns `true` when its client
/// asked the whole server to stop. Threads that have finished are
/// reaped on each accept, so a long-lived server under connection churn
/// keeps handles only for the connections still open; the rest are
/// joined before this returns.
pub fn accept_loop<F>(listener: TcpListener, conn: F) -> std::io::Result<()>
where
    F: Fn(TcpStream) -> bool + Send + Sync + 'static,
{
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conn = Arc::new(conn);
    let mut threads = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        // Small request/reply frames; Nagle would stall each exchange on
        // a delayed-ACK round trip.
        let _ = stream.set_nodelay(true);
        reap_finished(&mut threads);
        let (stop, conn) = (Arc::clone(&stop), Arc::clone(&conn));
        threads.push(std::thread::spawn(move || {
            if conn(stream) {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop.
                let _ = TcpStream::connect(addr);
            }
        }));
    }
    for t in threads {
        let _ = t.join();
    }
    Ok(())
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
        let mut threads = Vec::new();
        for _ in 0..1000 {
            let mut client = TcpStream::connect(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            reap_finished(&mut threads);
            threads.push(std::thread::spawn(move || drop(stream)));
            assert_eq!(client.read_to_end(&mut Vec::new()).unwrap(), 0);
        }
        assert!(threads.len() <= 8, "{} handles retained", threads.len());
        for t in threads {
            t.join().unwrap();
        }
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

    #[test]
    fn accept_loop_serves_until_a_connection_asks_to_stop() {
        use std::io::{Read, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A connection asks the server to stop by sending `!`.
        let server = std::thread::spawn(move || {
            accept_loop(listener, |mut stream| {
                let mut byte = [0u8; 1];
                matches!(stream.read(&mut byte), Ok(1)) && byte[0] == b'!'
            })
        });
        for _ in 0..3 {
            TcpStream::connect(addr).unwrap().write_all(b".").unwrap();
        }
        TcpStream::connect(addr).unwrap().write_all(b"!").unwrap();
        server.join().unwrap().unwrap();
    }
}
