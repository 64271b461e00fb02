//! Pluggable byte-level transports for the flusher.
//!
//! The flusher only needs three things: write a frame, poll for server
//! frames without blocking, and re-establish the connection after a
//! failure. [`TcpTransport`] implements them against a live monitor or
//! gateway; [`ChannelTransport`] implements them against an in-process
//! monitor handle so unit tests never open a socket.

use hb_tracefmt::dial::{self, RetryPolicy};
use hb_tracefmt::wire::{self, ClientMsg, ServerMsg};
use std::io::BufReader;
use std::io::BufWriter;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What the flusher requires of a connection.
pub trait Transport: Send {
    /// Writes (and flushes) one frame.
    fn send(&mut self, msg: &ClientMsg) -> Result<(), String>;

    /// Returns the next pending server frame, if any, without blocking.
    fn poll(&mut self) -> Option<ServerMsg>;

    /// `false` once the connection is known dead (peer hung up, read
    /// error); the flusher then initiates [`reconnect`](Self::reconnect).
    fn healthy(&self) -> bool {
        true
    }

    /// Re-establishes the connection (with whatever retry policy the
    /// transport was built with). Pending unread frames from the old
    /// connection are discarded. In-process transports treat this as a
    /// no-op.
    fn reconnect(&mut self) -> Result<(), String>;

    /// Human-readable endpoint description for error messages.
    fn describe(&self) -> String;
}

/// A framed TCP connection with a background reader thread.
///
/// The reader thread turns the blocking socket read into a
/// non-blocking `poll()`: it parses frames as they arrive and queues
/// them on an in-memory channel; EOF or a read error marks the
/// connection dead. Reconnection goes through the shared jittered-
/// backoff dialer, including the `Hello`/`Welcome` handshake.
pub struct TcpTransport {
    addr: String,
    policy: RetryPolicy,
    writer: BufWriter<TcpStream>,
    stream: TcpStream,
    rx: crossbeam::channel::Receiver<ServerMsg>,
    dead: Arc<AtomicBool>,
}

impl TcpTransport {
    /// Dials (with retry and handshake) and starts the reader thread.
    pub fn dial(addr: &str, policy: RetryPolicy) -> Result<Self, String> {
        let dialed = dial::dial(addr, &policy)?;
        let (rx, dead) = spawn_reader(dialed.reader);
        Ok(TcpTransport {
            addr: addr.to_string(),
            policy,
            writer: dialed.writer,
            stream: dialed.stream,
            rx,
            dead,
        })
    }

    /// The address this transport dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

fn spawn_reader(
    mut reader: BufReader<TcpStream>,
) -> (crossbeam::channel::Receiver<ServerMsg>, Arc<AtomicBool>) {
    let (tx, rx) = crossbeam::channel::unbounded();
    let dead = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&dead);
    // Detached on purpose: it exits as soon as the socket closes (we
    // shut the stream down in reconnect/Drop) or the receiver is gone.
    let _ = std::thread::Builder::new()
        .name("hb-sdk-read".into())
        .spawn(move || {
            while let Ok(Some(msg)) = wire::read_frame::<_, ServerMsg>(&mut reader) {
                if tx.send(msg).is_err() {
                    break;
                }
            }
            flag.store(true, Ordering::Release);
        });
    (rx, dead)
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &ClientMsg) -> Result<(), String> {
        if self.dead.load(Ordering::Acquire) {
            return Err(format!("{}: connection lost", self.addr));
        }
        wire::write_frame(&mut self.writer, msg).map_err(|e| format!("{}: {e}", self.addr))
    }

    fn poll(&mut self) -> Option<ServerMsg> {
        self.rx.try_recv().ok()
    }

    fn healthy(&self) -> bool {
        !self.dead.load(Ordering::Acquire)
    }

    fn reconnect(&mut self) -> Result<(), String> {
        // Closing the old socket unblocks (and thereby retires) the
        // old reader thread; its channel receiver is replaced below,
        // so stale frames can't be observed.
        let _ = self.stream.shutdown(Shutdown::Both);
        let dialed = dial::dial(&self.addr, &self.policy)?;
        let (rx, dead) = spawn_reader(dialed.reader);
        self.writer = dialed.writer;
        self.stream = dialed.stream;
        self.rx = rx;
        self.dead = dead;
        Ok(())
    }

    fn describe(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// An in-process transport: frames go to a caller-supplied closure
/// (typically `MonitorHandle::submit`) and replies come back on a
/// channel. `reconnect` is a no-op, which makes this transport handy
/// for exercising the flusher's replay path deterministically.
pub struct ChannelTransport {
    submit: Box<dyn FnMut(ClientMsg) + Send>,
    rx: crossbeam::channel::Receiver<ServerMsg>,
    label: String,
}

impl ChannelTransport {
    /// Wraps a submit closure and a reply receiver.
    ///
    /// ```ignore
    /// let (tx, rx) = crossbeam::channel::unbounded();
    /// let handle = service.handle();
    /// let transport = ChannelTransport::new(move |msg| handle.submit(msg, &tx), rx);
    /// ```
    pub fn new(
        submit: impl FnMut(ClientMsg) + Send + 'static,
        rx: crossbeam::channel::Receiver<ServerMsg>,
    ) -> Self {
        ChannelTransport {
            submit: Box::new(submit),
            rx,
            label: "in-process".to_string(),
        }
    }

    /// Overrides the endpoint label used in error messages.
    pub fn labeled(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, msg: &ClientMsg) -> Result<(), String> {
        (self.submit)(msg.clone());
        Ok(())
    }

    fn poll(&mut self) -> Option<ServerMsg> {
        self.rx.try_recv().ok()
    }

    fn reconnect(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}
