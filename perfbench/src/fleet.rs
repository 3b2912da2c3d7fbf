//! A loopback serving tier: `chameleon-gate` in front of N `chameleond`
//! backends, all spawned in this process through `chameleon_server`'s
//! public API, plus the client-side helpers the serving workloads share.

use chameleon_obs::json::Json;
use chameleon_server::{
    request_once, Gateway, GatewayConfig, GatewayHandle, JournalSync, Server, ServerConfig,
    ServerHandle,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Gateway plus backends.
pub struct Fleet {
    gate: Option<GatewayHandle>,
    /// Client-facing gateway address.
    pub gate_addr: String,
    backends: Vec<ServerHandle>,
    /// Backend addresses, for direct (gateway-bypassing) requests.
    pub backend_addrs: Vec<String>,
    /// One journal directory per backend, when journaled.
    pub journal_dirs: Vec<PathBuf>,
}

impl Fleet {
    /// Spawns `backends` one-worker daemons (journaled under
    /// `journal_root` when given, interval fsync) and a gateway over them.
    pub fn spawn(backends: usize, journal_root: Option<&Path>) -> std::io::Result<Fleet> {
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        let mut journal_dirs = Vec::new();
        for b in 0..backends {
            let journal_dir = match journal_root {
                Some(root) => {
                    let dir = root.join(format!("backend-{b}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    std::fs::create_dir_all(&dir)?;
                    journal_dirs.push(dir.clone());
                    Some(dir.to_string_lossy().into_owned())
                }
                None => None,
            };
            let handle = Server::spawn(ServerConfig {
                workers: 1,
                journal_dir,
                journal_sync: JournalSync::Interval,
                ..ServerConfig::default()
            })?;
            addrs.push(handle.addr().to_string());
            handles.push(handle);
        }
        let gate = Gateway::spawn(GatewayConfig {
            backends: addrs.clone(),
            // No probe thread: a backend cannot die during a run, and the
            // probes would add scheduling noise.
            health_interval_ms: 0,
            ..GatewayConfig::default()
        })?;
        Ok(Fleet {
            gate_addr: gate.addr().to_string(),
            gate: Some(gate),
            backends: handles,
            backend_addrs: addrs,
            journal_dirs,
        })
    }

    /// The gateway's or a backend's `status` result object.
    pub fn status(addr: &str) -> Option<Json> {
        let line = request_once(addr, "{\"op\":\"status\"}").ok()?;
        Json::parse(&line).ok()?.get("result").cloned()
    }

    /// Drains and stops the gateway, then every backend, and removes the
    /// journals.
    fn stop(&mut self) {
        if let Some(gate) = self.gate.take() {
            let _ = request_once(&self.gate_addr, "{\"op\":\"shutdown\"}");
            let _ = gate.join();
        }
        for (handle, addr) in self.backends.drain(..).zip(&self.backend_addrs) {
            let _ = request_once(addr, "{\"op\":\"shutdown\"}");
            let _ = handle.join();
        }
        for dir in &self.journal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Numeric field of a `status` object (0 when absent).
pub fn status_u64(status: Option<&Json>, path: &[&str]) -> u64 {
    let mut v = status;
    for key in path {
        v = v.and_then(|j| j.get(key));
    }
    v.and_then(Json::as_u64).unwrap_or(0)
}

/// The `"id"` of a response line (replies start with it).
pub fn reply_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    Some(&rest[..rest.find('"')?])
}

/// Reads whole response lines from a set of connections as they become
/// readable, stamping each with its arrival time.
pub struct LineReader {
    conns: Vec<TcpStream>,
    bufs: Vec<Vec<u8>>,
}

impl LineReader {
    /// Reads from clones of `conns`.
    pub fn new(conns: &[TcpStream]) -> std::io::Result<Self> {
        Ok(Self {
            conns: conns
                .iter()
                .map(TcpStream::try_clone)
                .collect::<Result<_, _>>()?,
            bufs: vec![Vec::new(); conns.len()],
        })
    }

    /// Waits up to `timeout` for readable connections and returns every
    /// complete line read, with the instant its last byte arrived.
    pub fn poll(&mut self, timeout: Duration) -> std::io::Result<Vec<(String, Instant)>> {
        let mut set = chameleon_server::reactor::PollSet::new();
        for c in &self.conns {
            set.register(c.as_raw_fd(), chameleon_server::reactor::POLLIN);
        }
        let mut out = Vec::new();
        if set.poll(Some(timeout))? == 0 {
            return Ok(out);
        }
        let mut chunk = vec![0u8; 1 << 16];
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let ev = set.revents(i);
            if !ev.readable() {
                continue;
            }
            // Readable: this read returns without blocking.
            let n = conn.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed a client connection",
                ));
            }
            let now = Instant::now();
            let buf = &mut self.bufs[i];
            buf.extend_from_slice(&chunk[..n]);
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                out.push((text, now));
            }
        }
        Ok(out)
    }
}

/// A blocked client read or write fails after this long, so that a stuck
/// server ends the run with an error instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Opens `n` no-delay client connections to `addr`.
pub fn connect(addr: &str, n: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            c.set_read_timeout(Some(IO_TIMEOUT))?;
            c.set_write_timeout(Some(IO_TIMEOUT))?;
            Ok(c)
        })
        .collect()
}

/// Sends one line (a newline is appended).
pub fn send_line(conn: &mut TcpStream, line: &str) -> std::io::Result<()> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")
}
