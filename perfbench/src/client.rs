//! A plain line-delimited-JSON client for `coevo serve`, the daemon child
//! process, and the open- and closed-loop request generators.
//!
//! The client keeps the default socket options and writes each request
//! line with one `write_all`, as the repository's own clients do; it sets
//! nothing (such as `TCP_QUICKACK`) that would hide the server's framing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect with default socket options.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Write one request line (the newline is appended) in one write.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())
    }

    /// Read one response line; end of stream is an error.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line)
    }

    /// Send one line and wait for its response.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Send every line without waiting, reading the responses on this
    /// thread while a second thread writes. Returns the responses in order.
    pub fn pipeline(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        let mut writer = self.writer.try_clone()?;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> std::io::Result<()> {
                for line in lines {
                    let mut buf = String::with_capacity(line.len() + 1);
                    buf.push_str(line);
                    buf.push('\n');
                    writer.write_all(buf.as_bytes())?;
                }
                Ok(())
            });
            let mut out = Vec::with_capacity(lines.len());
            let mut read_err = None;
            for _ in lines {
                match self.recv() {
                    Ok(r) => out.push(r),
                    Err(e) => {
                        read_err = Some(e);
                        break;
                    }
                }
            }
            if read_err.is_some() {
                // Unblock a sender stuck on a full socket buffer.
                let _ = self.writer.shutdown(std::net::Shutdown::Both);
            }
            let sent = sender.join().expect("pipeline sender panicked");
            match read_err {
                Some(e) => Err(e),
                None => sent.map(|()| out),
            }
        })
    }
}

/// Whether a response line is a well-formed `{"ok":true,...}`.
pub fn response_ok(line: &str) -> bool {
    serde_json::from_str::<coevo_serve::Response>(line).is_ok_and(|r| r.ok)
}

/// What kind of request a line is, for per-kind latency figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ingest`.
    Ingest,
    /// `project`.
    Project,
    /// `compat`.
    Compat,
    /// `taxa`.
    Taxa,
    /// `summary`.
    Summary,
}

impl Kind {
    /// `project`, `taxa` and `compat`: the reads whose tail is reported
    /// separately from the summary's.
    pub fn is_point_read(self) -> bool {
        matches!(self, Kind::Project | Kind::Compat | Kind::Taxa)
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// When it is due, from the start of the open-loop phase.
    pub due: Duration,
    /// Its kind.
    pub kind: Kind,
    /// The request line, without the newline.
    pub line: String,
}

/// What happened to one request. Times are offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The request kind.
    pub kind: Kind,
    /// When it was due (closed loop: when it was sent).
    pub due: Duration,
    /// When it was written.
    pub sent: Duration,
    /// When its response arrived (or the failure was seen).
    pub done: Duration,
    /// Whether the response was `ok`.
    pub ok: bool,
}

impl Outcome {
    /// Latency charged from the due time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Round trip from the write, milliseconds.
    pub fn roundtrip_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Send one request on a connection that may already be dead. A transport
/// failure kills the connection: every later request on it fails too.
fn attempt(conn: &mut Option<Conn>, line: &str) -> bool {
    let Some(c) = conn.as_mut() else {
        return false;
    };
    match c.roundtrip(line) {
        Ok(resp) => response_ok(&resp),
        Err(_) => {
            *conn = None;
            false
        }
    }
}

/// Run `reqs` open loop from `start` (which may lie a little ahead): each
/// request is sent at the later of its due time and the previous response,
/// and its latency is charged from the due time, so a stall shows on every
/// request queued behind it.
pub fn open_loop(conn: &mut Option<Conn>, reqs: &[Req], start: Instant) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        if let Some(wait) = (start + r.due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = start.elapsed();
        let ok = attempt(conn, &r.line);
        out.push(Outcome { kind: r.kind, due: r.due, sent, done: start.elapsed(), ok });
    }
    out
}

/// What a closed-loop phase did.
#[derive(Debug, Default)]
pub struct Closed {
    /// Each request's outcome, in order.
    pub outcomes: Vec<Outcome>,
    /// The lines sent, in order.
    pub lines: Vec<(Kind, String)>,
    /// From the phase start to the last response.
    pub elapsed: Duration,
}

/// Run closed loop until `length` has passed: each request goes out as
/// soon as the previous response arrives. `next` yields the i-th request.
pub fn closed_loop(
    conn: &mut Option<Conn>,
    mut next: impl FnMut(u64) -> (Kind, String),
    length: Duration,
) -> Closed {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut sent_lines = Vec::new();
    let mut i = 0;
    while start.elapsed() < length {
        let (kind, line) = next(i);
        i += 1;
        let sent = start.elapsed();
        let ok = attempt(conn, &line);
        out.push(Outcome { kind, due: sent, sent, done: start.elapsed(), ok });
        sent_lines.push((kind, line));
    }
    Closed { outcomes: out, lines: sent_lines, elapsed: start.elapsed() }
}

/// A `coevo serve` child process. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address the daemon listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `coevo serve --addr 127.0.0.1:0 --store <store>` and read the
    /// bound address from its banner.
    pub fn spawn(coevo: &Path, store: &Path) -> Result<Self, String> {
        let mut child = Command::new(coevo)
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", coevo.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok())
            .filter(|_| read.is_ok());
        match addr {
            Some(addr) => Ok(Self { child, _stdout: stdout, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("unexpected daemon banner {banner:?}"))
            }
        }
    }

    /// The daemon's peak resident set (VmHWM), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the daemon to shut down and wait for it to exit (killing it
    /// after a grace period). Returns whether the shutdown was clean.
    pub fn shutdown(mut self) -> bool {
        let acked = Conn::connect(self.addr)
            .and_then(|mut c| c.roundtrip(r#"{"cmd":"shutdown"}"#))
            .is_ok_and(|r| response_ok(&r));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return acked && status.success();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false // Drop kills and reaps it.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// VmHWM from a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb_of(status_path: &str) -> Option<f64> {
    let mut text = String::new();
    std::fs::File::open(status_path).ok()?.read_to_string(&mut text).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub server answering `{"ok":true}` to every line, stalling once
    /// before answering line `stall_at`, and closing the connection after
    /// `close_after` lines. Its thread ends when the client disconnects.
    fn stub(
        stall_at: usize,
        stall: Duration,
        close_after: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                if line.is_err() || i == close_after {
                    return;
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                if writer.write_all(b"{\"ok\":true}\n").is_err() {
                    return;
                }
            }
        });
        (addr, server)
    }

    fn schedule(n: u32, period: Duration) -> Vec<Req> {
        (0..n)
            .map(|i| Req { due: period * i, kind: Kind::Project, line: "{}".into() })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let period = Duration::from_millis(20);
        let stall = Duration::from_millis(300);
        let (addr, server) = stub(2, stall, usize::MAX);
        let mut conn = Some(Conn::connect(addr).expect("connect"));
        let out = open_loop(&mut conn, &schedule(12, period), Instant::now());
        drop(conn);
        server.join().expect("stub server");
        assert!(out.iter().all(|o| o.ok));
        // Request 2 is due at 40 ms and answered after the 300 ms stall,
        // so its response cannot arrive before 340 ms.
        let stall_end = Duration::from_millis(340);
        for o in &out[3..] {
            if o.due < stall_end {
                // Queued behind the stall: charged the wait from its due
                // time, though its own round trip is quick.
                assert!(o.done >= stall_end, "{o:?}");
                assert!(o.latency_ms() >= (stall_end - o.due).as_secs_f64() * 1e3);
                assert!(o.late_ms() > 0.0);
                assert!(o.roundtrip_ms() < o.latency_ms());
            }
        }
        // Every request after the stalled one was due before it ended.
        assert!(out[11].due < stall_end);
        assert!(out[3].latency_ms() >= 260.0, "{:?}", out[3]);
    }

    #[test]
    fn a_dead_daemon_fails_every_later_request() {
        let (addr, server) = stub(usize::MAX, Duration::ZERO, 3);
        let mut conn = Some(Conn::connect(addr).expect("connect"));
        let out = open_loop(&mut conn, &schedule(8, Duration::from_millis(1)), Instant::now());
        server.join().expect("stub server");
        let ok: Vec<bool> = out.iter().map(|o| o.ok).collect();
        assert_eq!(ok, [true, true, true, false, false, false, false, false]);
        assert!(conn.is_none());
    }

    #[test]
    fn closed_loop_runs_back_to_back_for_its_length() {
        let (addr, server) = stub(usize::MAX, Duration::ZERO, usize::MAX);
        let mut conn = Some(Conn::connect(addr).expect("connect"));
        let closed = closed_loop(
            &mut conn,
            |i| (Kind::Taxa, format!("{{\"cmd\":\"taxa\",\"i\":{i}}}")),
            Duration::from_millis(100),
        );
        drop(conn);
        server.join().expect("stub server");
        assert!(!closed.outcomes.is_empty());
        assert_eq!(closed.outcomes.len(), closed.lines.len());
        assert!(closed.elapsed >= Duration::from_millis(100));
        assert!(closed.outcomes.iter().all(|o| o.ok && o.late_ms() == 0.0));
    }

    #[test]
    fn response_ok_needs_an_ok_response() {
        assert!(response_ok("{\"ok\":true}\n"));
        assert!(!response_ok("{\"ok\":false,\"error\":\"x\"}"));
        assert!(!response_ok("garbage"));
    }

    #[test]
    fn pipeline_returns_responses_in_order() {
        let (addr, server) = stub(usize::MAX, Duration::ZERO, usize::MAX);
        let mut conn = Conn::connect(addr).expect("connect");
        let lines: Vec<String> = (0..50).map(|i| format!("{{\"i\":{i}}}")).collect();
        let out = conn.pipeline(&lines).expect("pipeline");
        drop(conn);
        server.join().expect("stub server");
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|r| response_ok(r)));
    }
}
