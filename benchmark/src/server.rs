//! The system under test as a child process: `hbtl monitor serve` on
//! an ephemeral loopback port, and the client connection to it.
//!
//! Every exit path — normal return, error, panic — kills and reaps the
//! child and removes its data directory, because both happen in `Drop`.

use hb_tracefmt::wire::{read_frame, write_frame, ClientMsg, ServerMsg, WIRE_VERSION};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// A reply this long overdue means the server is stuck, not slow.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The directory all run-time files go under (`benchmark/out/`).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A uniquely named directory under [`out_dir`], removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `out/<label>-<pid>-<n>`; concurrent harness processes
    /// and repeated calls never share a directory.
    pub fn new(label: &str) -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `hbtl monitor serve` child.
pub struct Server {
    child: Child,
    addr: String,
    /// Drains the child's stderr so it can never block on a full pipe.
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server (defaults; `--data-dir` when given), waits for
    /// its `listening on` banner and returns once the port is known.
    pub fn spawn(hbtl: &Path, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(hbtl);
        cmd.args(["monitor", "serve", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", hbtl.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {seen}"));
                }
            }
            if let Some(addr) = line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
            {
                break addr.to_string();
            }
            seen.push_str(&line);
        };
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        Ok(Server {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The child's pid, as `/proc` spells it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGKILLs the server and reaps it (as dropping it does).
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipe closes with the child, so the drain thread ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One handshaken client connection.
pub struct Conn {
    /// The write half (Nagle off: frames leave when written).
    pub w: TcpStream,
    /// The buffered read half.
    pub r: BufReader<TcpStream>,
}

impl Conn {
    /// Connects and completes the `hello`/`welcome` handshake at
    /// [`WIRE_VERSION`].
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let w = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut conn = Conn {
            w,
            r: BufReader::new(stream),
        };
        conn.send(&ClientMsg::Hello {
            version: WIRE_VERSION,
        })?;
        match conn.recv()? {
            ServerMsg::Welcome { version } if version == WIRE_VERSION => Ok(conn),
            other => Err(format!("expected welcome v{WIRE_VERSION}, got {other:?}")),
        }
    }

    /// Writes one frame.
    pub fn send(&mut self, msg: &ClientMsg) -> Result<(), String> {
        write_frame(&mut self.w, msg).map_err(|e| format!("write frame: {e}"))
    }

    /// Writes pre-encoded frames.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.w
            .write_all(bytes)
            .map_err(|e| format!("write frames: {e}"))
    }

    /// Reads one frame; a closed connection is an error here.
    pub fn recv(&mut self) -> Result<ServerMsg, String> {
        read_frame::<_, ServerMsg>(&mut self.r)
            .map_err(|e| format!("read frame: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    /// One `stats` exchange. Replies a shard pushed earlier and nobody
    /// read yet (an `opened`) are skipped.
    pub fn stats(&mut self) -> Result<BTreeMap<String, u64>, String> {
        self.send(&ClientMsg::Stats)?;
        loop {
            if let ServerMsg::Stats { counters } = self.recv()? {
                return Ok(counters);
            }
        }
    }
}
