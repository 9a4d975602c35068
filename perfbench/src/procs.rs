//! Child `serve` processes: spawn, find their listeners, probe `health`,
//! kill or drain them, and read their peak memory.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take to come up or drain.
pub const START_TIMEOUT: Duration = Duration::from_secs(60);

/// The `serve` binary and the command lines it was run with.
pub struct Serve {
    bin: PathBuf,
    pub commands: Mutex<Vec<String>>,
}

impl Serve {
    pub fn new(bin: PathBuf) -> Serve {
        Serve {
            bin,
            commands: Mutex::new(Vec::new()),
        }
    }

    fn command(&self, args: &[String]) -> Command {
        let line = format!("serve {}", args.join(" "));
        let mut seen = self.commands.lock().expect("command log lock");
        if !seen.contains(&line) {
            seen.push(line);
        }
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::null());
        cmd
    }

    /// Runs a one-shot subcommand (`serve build …`) to completion.
    pub fn run(&self, args: &[String]) -> Result<(), String> {
        let out = self
            .command(args)
            .stderr(Stdio::piped())
            .output()
            .map_err(|e| format!("cannot run serve: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "serve {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(())
    }

    /// Starts a server (`listen` or `ingest`) and waits until it prints
    /// both listener addresses.
    pub fn spawn(&self, args: &[String]) -> Result<Server, String> {
        let mut child = self
            .command(args)
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let log = Arc::new(Mutex::new(Vec::<String>::new()));
        let (tx, rx) = mpsc::channel::<String>();
        let drain = {
            let log = Arc::clone(&log);
            // Keeps reading until the child exits, so its logging never
            // blocks on a full pipe.
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    let _ = tx.send(line.clone());
                    let mut log = log.lock().expect("log lock");
                    if log.len() >= 40 {
                        log.remove(0);
                    }
                    log.push(line);
                }
            })
        };
        let mut server = Server {
            child,
            data: None,
            admin: None,
            log,
            drain: Some(drain),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        while server.data.is_none() || server.admin.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    let addr = || listening_addr(&line);
                    if line.starts_with("data plane listening on ") {
                        server.data = addr();
                    } else if line.starts_with("admin plane listening on ") {
                        server.admin = addr();
                    }
                }
                Err(_) => return Err(format!("serve did not come up: {}", server.log_tail())),
            }
        }
        Ok(server)
    }
}

fn listening_addr(line: &str) -> Option<SocketAddr> {
    line.split("listening on ")
        .nth(1)?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// A running server child. Dropping it kills the process.
pub struct Server {
    child: Child,
    data: Option<SocketAddr>,
    admin: Option<SocketAddr>,
    log: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    pub fn data(&self) -> SocketAddr {
        self.data.expect("address read at spawn")
    }

    pub fn admin(&self) -> SocketAddr {
        self.admin.expect("address read at spawn")
    }

    pub fn log_tail(&self) -> String {
        self.log.lock().expect("log lock").join(" | ")
    }

    /// Polls `health` until `ready` accepts the answer; returns it.
    pub fn wait_health(&self, ready: impl Fn(&str) -> bool) -> Result<String, String> {
        let mut conn = Conn::open(self.admin()).map_err(|e| format!("admin connect: {e}"))?;
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let h = conn.call("health").map_err(|e| format!("health: {e}"))?;
            if ready(&h) {
                return Ok(h);
            }
            if Instant::now() > deadline {
                return Err(format!("server never became ready; last health {h:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's answers to `rewrite <q>` for every probe query, on a
    /// fresh data-plane connection.
    pub fn probe(&self, queries: &[String]) -> Result<Vec<String>, String> {
        Conn::open(self.data())
            .and_then(|mut c| c.probe(queries))
            .map_err(|e| format!("probe: {e}"))
    }

    /// One admin-plane request (`info`, …) on a fresh connection.
    pub fn admin_call(&self, line: &str) -> Result<String, String> {
        Conn::open(self.admin())
            .and_then(|mut c| c.call(line))
            .map_err(|e| format!("{line}: {e}"))
    }

    /// SIGKILL, then reap; returns the instant the signal was sent.
    pub fn kill(mut self) -> Instant {
        let at = Instant::now();
        let _ = self.child.kill();
        self.reap();
        at
    }

    /// Drains the server through the admin `shutdown` verb and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = Conn::open(self.admin()).and_then(|mut c| c.call("shutdown"));
        let deadline = Instant::now() + START_TIMEOUT;
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.reap();
        match bye {
            Ok(b) if b.starts_with("bye") && status.success() => Ok(()),
            other => Err(format!(
                "unclean shutdown ({other:?}, {status}): {}",
                self.log_tail()
            )),
        }
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            self.reap();
        }
    }
}

/// One line-protocol connection (admin or data plane).
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request line and returns its one-line answer.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.writer, "{line}")?;
        let mut answer = String::new();
        if self.reader.read_line(&mut answer)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(answer.trim_end_matches('\n').to_owned())
    }

    /// Answers to `rewrite <q>` for every probe query, in order.
    pub fn probe(&mut self, queries: &[String]) -> io::Result<Vec<String>> {
        queries
            .iter()
            .map(|q| self.call(&format!("rewrite {q}")))
            .collect()
    }
}

/// A `key=value` field of an `info` or `health` line.
pub fn field(line: &str, key: &str) -> Option<u64> {
    line.split('\t')
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Peak resident memory of the largest child reaped so far, in MiB
/// (`getrusage(RUSAGE_CHILDREN)`), so short-lived `serve build` runs count.
pub fn children_peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_CHILDREN: c_int = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` (two timevals, then fourteen longs), and `getrusage`
    // writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// `path` as an argument string.
pub fn arg(path: &Path) -> String {
    path.display().to_string()
}
