//! The load generator: at most two threads and two connections.
//!
//! * Open loop — one pipelined connection; a sender thread writes each
//!   line at its scheduled time (coalescing lines that are already due)
//!   and a receiver thread timestamps every reply.
//! * Closed loop — one thread per connection, each keeping a fixed window
//!   of requests in flight and sending the next line as a reply arrives.
//!
//! Replies are stored raw and parsed only after the measured phase, so the
//! client's own JSON work stays out of the phase's CPU time as far as
//! possible.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stream::Request;

/// Renders a request into its wire line. Lines are rendered as they are
/// sent, so the generator never holds the whole stream's text in memory.
pub type Render<'a> = &'a (dyn Fn(&Request) -> String + Sync);

/// Poll interval of a blocked reader, so it notices its drain deadline.
const READ_POLL: Duration = Duration::from_millis(50);

/// A reply line and when it arrived.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Arrival time.
    pub at: Instant,
    /// The line, without its newline.
    pub line: String,
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Every request written, in order, with when it was written.
    pub sent: Vec<(Request, Instant)>,
    /// Replies in arrival order.
    pub replies: Vec<Reply>,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // One request per write: Nagle would hold small writes back for a
    // delayed ACK.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    Ok(stream)
}

/// Reads one line into `buf` (kept across poll timeouts, so a line split
/// across reads is not lost). `Ok(false)` on timeout, error on EOF.
fn read_reply(reader: &mut BufReader<TcpStream>, buf: &mut String) -> std::io::Result<bool> {
    match reader.read_line(buf) {
        Ok(0) => Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
        Ok(_) if buf.ends_with('\n') => Ok(true),
        Ok(_) => Ok(false),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Sends each request at `t0 + at_us` on one connection and collects
/// replies until every request is answered or `drain` has passed since the
/// last scheduled send.
///
/// # Errors
///
/// Connection and write failures.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Request],
    render: Render<'_>,
    t0: Instant,
    drain: Duration,
) -> std::io::Result<ConnLog> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let last = t0 + Duration::from_micros(reqs.last().map_or(0, |r| r.at_us));
    let give_up = last + drain;
    let n = reqs.len();
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<Vec<(Request, Instant)>> {
            let mut sent = Vec::with_capacity(n);
            let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
            let mut i = 0;
            while i < n {
                let due = t0 + Duration::from_micros(reqs[i].at_us);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let now = Instant::now();
                buf.clear();
                let first = i;
                while i < n && t0 + Duration::from_micros(reqs[i].at_us) <= now {
                    buf.extend_from_slice(render(&reqs[i]).as_bytes());
                    buf.push(b'\n');
                    i += 1;
                }
                writer.write_all(&buf)?;
                sent.extend(reqs[first..i].iter().map(|r| (r.clone(), now)));
            }
            Ok(sent)
        });
        let mut reader = BufReader::with_capacity(64 * 1024, stream);
        let mut replies = Vec::with_capacity(n);
        let mut buf = String::new();
        while replies.len() < n && Instant::now() < give_up {
            if read_reply(&mut reader, &mut buf)? {
                replies.push(Reply {
                    at: Instant::now(),
                    line: buf.trim_end().to_string(),
                });
                buf.clear();
            }
        }
        let sent = sender.join().expect("sender thread panicked")?;
        Ok(ConnLog { sent, replies })
    })
}

/// Runs one closed-loop connection: keeps `window` requests of `reqs` in
/// flight, sends the next one whenever a reply arrives until `until`, then
/// drains the requests still in flight for at most `drain`.
///
/// # Errors
///
/// Connection and write failures.
pub fn closed_loop(
    addr: SocketAddr,
    mut reqs: impl Iterator<Item = Request>,
    render: Render<'_>,
    window: usize,
    until: Instant,
    drain: Duration,
) -> std::io::Result<ConnLog> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut log = ConnLog::default();
    let mut send = |log: &mut ConnLog| -> std::io::Result<()> {
        let Some(req) = reqs.next() else {
            return Ok(());
        };
        let mut line = render(&req);
        line.push('\n');
        let now = Instant::now();
        writer.write_all(line.as_bytes())?;
        log.sent.push((req, now));
        Ok(())
    };
    for _ in 0..window {
        send(&mut log)?;
    }
    let mut buf = String::new();
    let give_up = until + drain;
    while log.replies.len() < log.sent.len() && Instant::now() < give_up {
        if !read_reply(&mut reader, &mut buf)? {
            continue;
        }
        let at = Instant::now();
        log.replies.push(Reply {
            at,
            line: buf.trim_end().to_string(),
        });
        buf.clear();
        if at < until {
            send(&mut log)?;
        }
    }
    Ok(log)
}

/// Sends `lines` one at a time and waits for each reply: warms caches and
/// lazy set-up before the measured phase. Returns the replies.
///
/// # Errors
///
/// Connection, write and read failures, or a reply that never comes.
pub fn sequential(addr: SocketAddr, lines: &[String]) -> std::io::Result<Vec<String>> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        writer.write_all(format!("{line}\n").as_bytes())?;
        let mut buf = String::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !read_reply(&mut reader, &mut buf)? {
            if Instant::now() > deadline {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "no warm-up reply"));
            }
        }
        out.push(buf.trim_end().to_string());
    }
    Ok(out)
}
