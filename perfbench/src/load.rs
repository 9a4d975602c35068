//! The open-loop request generator.
//!
//! Requests go out on the schedule from the seed whether or not earlier
//! answers have come back; each connection pipelines its share on one
//! thread that sleeps in `ppoll` until the next request is due or an
//! answer arrives. Latency is timed from each request's *due* time, so a
//! stall also charges the requests queued behind it, and a failed request
//! counts as `INFINITY` — over any limit.

use crate::inputs::Request;
use crate::stats::{median, nearest_rank, sorted, windowed_p99};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// How long after its last due time a step waits for stragglers before
/// counting them failed.
pub const GRACE: Duration = Duration::from_secs(15);

/// What an answer must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// `ok` for known queries, and every answer to one query identical.
    Stable,
    /// `ok` for known queries; answers may change between requests (the
    /// index is refreshed under the reads).
    Fresh,
}

/// One step of a rate ladder.
#[derive(Debug)]
pub struct StepResult {
    pub rate: f64,
    /// Per request in schedule order, ms from due time; `INFINITY` = failed.
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub failed: usize,
    /// Most requests outstanding at once on one connection.
    pub max_backlog: usize,
    /// Requests outstanding on all connections when the last one was sent.
    pub end_backlog: usize,
    /// Answers per second delivered, over the step's measured span.
    pub achieved_rps: f64,
}

impl StepResult {
    pub fn p50_ms(&self) -> f64 {
        median(&sorted(self.latency_ms.clone()))
    }

    /// The step's p99 as a typical window sees it: the median over
    /// consecutive windows of at least 1000 requests of each window's p99.
    pub fn p99_ms(&self) -> f64 {
        windowed_p99(&self.latency_ms, 1000)
    }

    /// The p99 over every request of the step.
    pub fn p99_whole_ms(&self) -> f64 {
        nearest_rank(&sorted(self.latency_ms.clone()), 0.99)
    }

    /// The step meets `limit_ms` at p99 without a growing backlog: at the
    /// end no more requests are outstanding than the limit lets in flight.
    pub fn passes(&self, limit_ms: f64, conns: usize) -> bool {
        let in_flight = (self.rate * limit_ms / 1e3).ceil() as usize + conns;
        self.p99_ms() <= limit_ms && self.end_backlog <= in_flight
    }
}

/// Distinct answers per query, and queries seen answered two ways.
#[derive(Debug, Default)]
pub struct Answers {
    pub by_query: HashMap<String, String>,
    pub unstable: usize,
}

/// Opens `conns` data-plane connections.
pub fn connect(addr: SocketAddr, conns: usize) -> io::Result<Vec<TcpStream>> {
    (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_write_timeout(Some(GRACE))?;
            Ok(s)
        })
        .collect()
}

/// Runs one step: request `i` goes out on connection `i % conns` at its
/// due time, one thread per connection.
pub fn run_step(
    streams: &mut [TcpStream],
    reqs: &[Request],
    rate: f64,
    check: Check,
    answers: &mut Answers,
) -> StepResult {
    let conns = streams.len();
    let t0 = Instant::now() + Duration::from_millis(5);
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..reqs.len()).step_by(conns).collect();
                s.spawn(move || drive(stream, t0, reqs, &mine, check))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut latency_ms = vec![f64::INFINITY; reqs.len()];
    let mut lateness_ms = Vec::with_capacity(reqs.len());
    let (mut max_backlog, mut end_backlog, mut last_ns) = (0, 0, 0u64);
    for r in results {
        for (i, lat) in r.latency_ms {
            latency_ms[i] = lat;
        }
        lateness_ms.extend(r.lateness_ms);
        max_backlog = max_backlog.max(r.max_backlog);
        end_backlog += r.end_backlog;
        last_ns = last_ns.max(r.last_answer_ns);
        for (q, a) in r.answers {
            match answers.by_query.get(&q) {
                Some(prev) if check == Check::Stable && *prev != a => answers.unstable += 1,
                Some(_) => {}
                None => {
                    answers.by_query.insert(q, a);
                }
            }
        }
        answers.unstable += r.unstable;
    }
    let failed = latency_ms.iter().filter(|l| l.is_infinite()).count();
    let span_s = (last_ns as f64 / 1e9).max(1.0 / rate);
    StepResult {
        rate,
        achieved_rps: (reqs.len() - failed) as f64 / (span_s + 1.0 / rate),
        latency_ms,
        lateness_ms,
        failed,
        max_backlog,
        end_backlog,
    }
}

struct ConnResult {
    latency_ms: Vec<(usize, f64)>,
    lateness_ms: Vec<f64>,
    answers: Vec<(String, String)>,
    unstable: usize,
    max_backlog: usize,
    end_backlog: usize,
    last_answer_ns: u64,
}

/// The per-connection event loop.
fn drive(
    stream: &mut TcpStream,
    t0: Instant,
    reqs: &[Request],
    mine: &[usize],
    check: Check,
) -> ConnResult {
    let mut out = ConnResult {
        latency_ms: Vec::with_capacity(mine.len()),
        lateness_ms: Vec::with_capacity(mine.len()),
        answers: Vec::new(),
        unstable: 0,
        max_backlog: 0,
        end_backlog: 0,
        last_answer_ns: 0,
    };
    let mut seen: HashMap<&str, String> = HashMap::new();
    let fd = stream.as_raw_fd();
    let last_due = mine.last().map_or(0, |&i| reqs[i].due_ns);
    let give_up_ns = (last_due + GRACE.as_nanos() as u64) as i64;
    let (mut sent, mut done) = (0usize, 0usize);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut line = Vec::with_capacity(256);
    let mut broken = false;
    while done < mine.len() {
        let now = since(t0);
        while !broken && sent < mine.len() && reqs[mine[sent]].due_ns as i64 <= now {
            let r = &reqs[mine[sent]];
            line.clear();
            line.extend_from_slice(b"rewrite ");
            line.extend_from_slice(r.query.as_bytes());
            line.push(b'\n');
            let at = since(t0);
            if stream.write_all(&line).is_err() {
                broken = true;
                break;
            }
            out.lateness_ms.push((at - r.due_ns as i64) as f64 / 1e6);
            sent += 1;
            out.max_backlog = out.max_backlog.max(sent - done);
            if sent == mine.len() {
                out.end_backlog = sent - done;
            }
        }
        let now = since(t0);
        if broken || now > give_up_ns {
            break;
        }
        let next = if sent < mine.len() {
            reqs[mine[sent]].due_ns as i64
        } else {
            give_up_ns
        };
        match wait_readable(fd, Duration::from_nanos((next - now).max(0) as u64)) {
            Ok(false) => continue,
            Ok(true) => {}
            Err(_) => break,
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let at = since(t0).max(0) as u64;
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let answer = String::from_utf8_lossy(&buf[..pos]).into_owned();
            buf.drain(..=pos);
            if done >= sent {
                // An answer nobody asked for (`server busy` on connect).
                break;
            }
            let i = mine[done];
            let r = &reqs[i];
            done += 1;
            out.last_answer_ns = out.last_answer_ns.max(at);
            let ok = if r.known {
                answer.starts_with(&format!("ok\t{}\t", r.query))
            } else {
                answer == format!("err\tunknown query\t{}", r.query)
            };
            let lat = if ok {
                at.saturating_sub(r.due_ns) as f64 / 1e6
            } else {
                f64::INFINITY
            };
            out.latency_ms.push((i, lat));
            if ok && r.known {
                match seen.get(r.query.as_str()) {
                    Some(prev) if check == Check::Stable && *prev != answer => out.unstable += 1,
                    Some(_) => {}
                    None => {
                        seen.insert(&r.query, answer);
                    }
                }
            }
        }
    }
    out.answers = seen.into_iter().map(|(q, a)| (q.to_owned(), a)).collect();
    out
}

/// Signed nanoseconds from `t0` to now.
fn since(t0: Instant) -> i64 {
    let now = Instant::now();
    if now >= t0 {
        (now - t0).as_nanos() as i64
    } else {
        -((t0 - now).as_nanos() as i64)
    }
}

mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x1;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Waits up to `timeout` (nanosecond resolution) for `fd` to be readable.
fn wait_readable(fd: i32, timeout: Duration) -> io::Result<bool> {
    let mut pfd = sys::PollFd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, `nfds` is
    // 1 to match the single `PollFd`, and a null signal mask tells `ppoll`
    // to leave the mask unchanged.
    let rc = unsafe { sys::ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}
