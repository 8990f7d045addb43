//! Load generation over loopback: the closed loop of `serve_warm`, the
//! open loop of `serve_cold`, and the response scan both use.
//!
//! Responses are read with a field scan of this file's own rather than the
//! server's JSON parser, so a defect there cannot hide from the check.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use segbus_model::rng::SmallRng;

use crate::inputs::REQUEST_HEAD;
use crate::oracle::{self, Expected};

/// How long a client waits for any response before counting everything
/// still in flight as never answered.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// The fields of one response line the checks need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Correlation id.
    pub id: u64,
    /// `"ok": true`.
    pub ok: bool,
    /// `"cached": true`.
    pub cached: bool,
    /// `makespan_ps`, when present.
    pub makespan_ps: Option<u64>,
    /// `execution_time_ps`, when present.
    pub execution_ps: Option<u64>,
    /// The error code of a failed request.
    pub code: Option<String>,
}

/// The raw token after `"key":` up to the next `,` or `}`. Keys are
/// searched from the start, and every field the checks read precedes
/// the escaped `report` text, so a match inside it cannot shadow one.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Read the checked fields of a response line; `None` if it has no id.
pub fn scan_response(line: &str) -> Option<Response> {
    let num = |k| field(line, k).and_then(|v| v.parse::<u64>().ok());
    Some(Response {
        id: num("id")?,
        ok: field(line, "ok") == Some("true"),
        cached: field(line, "cached") == Some("true"),
        makespan_ps: num("makespan_ps"),
        execution_ps: num("execution_time_ps"),
        code: field(line, "code").map(|c| c.trim_matches('"').to_string()),
    })
}

/// One client connection, past its `hello` round trip.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connect, and make one `hello` round trip so the server has
    /// registered the connection before any timing starts.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut conn = Conn {
            writer,
            reader,
            line: String::new(),
        };
        conn.send(b"{\"cmd\":\"hello\",\"id\":0}\n")?;
        conn.recv()?;
        Ok(conn)
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Read one response line (without its newline).
    fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Send one `emulate` request for the job whose tail is `tail`.
    fn send_request(&mut self, buf: &mut Vec<u8>, id: u64, tail: &str) -> io::Result<()> {
        buf.clear();
        buf.extend_from_slice(REQUEST_HEAD.as_bytes());
        buf.extend_from_slice(id.to_string().as_bytes());
        buf.extend_from_slice(tail.as_bytes());
        self.writer.write_all(buf)
    }

    /// Send one request per `(id, tail)`, then read as many responses
    /// (the server's window paces them; the socket buffers the rest).
    pub fn round_trip_all(&mut self, items: &[(u64, &str)]) -> io::Result<Vec<Response>> {
        let mut buf = Vec::new();
        for &(id, tail) in items {
            self.send_request(&mut buf, id, tail)?;
        }
        let mut out = Vec::with_capacity(items.len());
        for _ in items {
            let line = self.recv()?;
            out.push(scan_response(line).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unreadable response: {line:.120}"),
                )
            })?);
        }
        Ok(out)
    }

    /// Send `{"cmd":"stats"}` and return the raw response line.
    pub fn stats(&mut self) -> io::Result<String> {
        self.send(b"{\"cmd\":\"stats\",\"id\":0}\n")?;
        Ok(self.recv()?.to_string())
    }
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Position of the request in its connection's (or the stream's)
    /// send order.
    pub seq: u32,
    /// Index of the job that was sent.
    pub job: u32,
    /// Latency, ns: from send (closed loop) or from the due time (open
    /// loop) to the response's arrival.
    pub latency_ns: u64,
    /// Arrival, ns after the load started.
    pub arrived_ns: u64,
}

/// What one client saw. Latencies are kept as 4-byte values so the
/// benchmark's own memory barely grows with the server's throughput (the
/// run reports the process's peak RSS).
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Latency of every answered request for a small job, ns (saturating).
    pub latency_ns: Vec<u32>,
    /// Latency of every answered request for a large job, ns (saturating).
    pub large_ns: Vec<u32>,
    /// Responses by the whole second of their arrival.
    pub per_second: Vec<u32>,
    /// Every answered request, kept only when [`LoadSpec::keep_samples`].
    pub samples: Vec<Sample>,
    /// Requests answered.
    pub answered: usize,
    /// Requests sent.
    pub sent: usize,
    /// Answered requests that failed their check.
    pub failed: usize,
    /// Why, for the first few of them.
    pub failures: Vec<String>,
    /// Requests sent and never answered (or lost to a connection error).
    pub missing: usize,
    /// The first connection-level error, if any.
    pub error: Option<String>,
    /// Wall time from the first send to the last response.
    pub elapsed: Duration,
}

impl LoadResult {
    /// Check one response against the oracle and record its sample.
    fn answer(&mut self, resp: &Response, spec: &LoadSpec, sample: Sample) {
        let job = sample.job as usize;
        if let Err(e) = oracle::check(resp, &spec.expected[job], spec.cached) {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(e);
            }
        }
        let ns = u32::try_from(sample.latency_ns).unwrap_or(u32::MAX);
        if spec.large[job] {
            self.large_ns.push(ns);
        } else {
            self.latency_ns.push(ns);
        }
        let second = (sample.arrived_ns / 1_000_000_000) as usize;
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += 1;
        self.answered += 1;
        if spec.keep_samples {
            self.samples.push(sample);
        }
    }
}

/// What a load sends and what every response must report.
pub struct LoadSpec<'a> {
    /// The oracle's values, indexed by job.
    pub expected: &'a [Expected],
    /// Which jobs count as large, indexed by job.
    pub large: &'a [bool],
    /// The cache flag every response must carry: `true` for warm hits,
    /// `false` for distinct cold jobs.
    pub cached: bool,
    /// Keep every [`Sample`] (the traced run pairs them with the replay).
    pub keep_samples: bool,
}

/// When a closed loop stops sending.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Send while the clock is before this instant.
    At(Instant),
    /// Send exactly this many requests.
    After(usize),
}

fn since(t: Instant, start: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// A closed loop on one connection: keep `window` requests in flight,
/// sending the next only when a response arrives, choosing each job
/// uniformly from `tails` with `rng`. Latency is timed from send.
pub fn closed_loop(
    conn: &mut Conn,
    tails: &[String],
    spec: &LoadSpec,
    rng: &mut SmallRng,
    window: usize,
    stop: Stop,
) -> LoadResult {
    let mut out = LoadResult::default();
    let mut in_flight: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut buf = Vec::new();
    let started = Instant::now();
    let may_send = |sent: usize| match stop {
        Stop::At(t) => Instant::now() < t,
        Stop::After(n) => sent < n,
    };
    let mut send_one = |conn: &mut Conn, out: &mut LoadResult, in_flight: &mut HashMap<_, _>| {
        let job = rng.below(tails.len() as u64) as usize;
        let id = out.sent as u64;
        in_flight.insert(id, (Instant::now(), job));
        out.sent += 1;
        conn.send_request(&mut buf, id, &tails[job])
            .map_err(|e| e.to_string())
    };
    let mut result = Ok(());
    while in_flight.len() < window && may_send(out.sent) && result.is_ok() {
        result = send_one(conn, &mut out, &mut in_flight);
    }
    while !in_flight.is_empty() && result.is_ok() {
        let line = match conn.recv() {
            Ok(l) => l,
            Err(e) => {
                result = Err(e.to_string());
                break;
            }
        };
        let arrived = Instant::now();
        let Some(resp) = scan_response(line) else {
            result = Err(format!("unreadable response line: {line:.120}"));
            break;
        };
        let Some((sent_at, job)) = in_flight.remove(&resp.id) else {
            result = Err(format!("response for unknown id {}", resp.id));
            break;
        };
        let sample = Sample {
            seq: resp.id as u32,
            job: job as u32,
            latency_ns: since(arrived, sent_at),
            arrived_ns: since(arrived, started),
        };
        out.answer(&resp, spec, sample);
        if may_send(out.sent) {
            result = send_one(conn, &mut out, &mut in_flight);
        }
    }
    out.error = result.err();
    out.missing = in_flight.len();
    out.elapsed = started.elapsed();
    out
}

/// What the open loop's generator saw besides the responses.
#[derive(Debug, Default)]
pub struct OpenResult {
    /// Responses and the shared accounting.
    pub load: LoadResult,
    /// How late each send was against its due time, ns.
    pub lag_ns: Vec<u64>,
    /// The most requests ever due and not yet answered.
    pub max_backlog: usize,
}

/// An open loop on one connection: request `i` (job `i` of `tails`) is
/// due `i / rate` seconds after the start and is sent then by a sender
/// thread, whatever the server has answered; this thread receives.
/// Latency is timed from the due time, so a stall shows in every request
/// it delays.
pub fn open_loop(
    conn: &mut Conn,
    tails: &[String],
    spec: &LoadSpec,
    rate: f64,
) -> io::Result<OpenResult> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let n = tails.len();
    let mut writer = conn.writer.try_clone()?;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + interval * i as u32;
    let mut out = OpenResult::default();
    let mut answered = vec![false; n];
    let (lag, send_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> (Vec<u64>, Option<String>) {
            let mut lag = Vec::with_capacity(n);
            let mut buf = Vec::new();
            for (i, tail) in tails.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag.push(since(Instant::now(), at));
                buf.clear();
                buf.extend_from_slice(REQUEST_HEAD.as_bytes());
                buf.extend_from_slice(i.to_string().as_bytes());
                buf.extend_from_slice(tail.as_bytes());
                if let Err(e) = writer.write_all(&buf) {
                    return (lag, Some(e.to_string()));
                }
            }
            (lag, None)
        });
        let mut done = 0usize;
        while done < n {
            let line = match conn.recv() {
                Ok(l) => l,
                Err(e) => {
                    out.load.error = Some(e.to_string());
                    break;
                }
            };
            let arrived = Instant::now();
            let Some(resp) = scan_response(line) else {
                out.load.error = Some(format!("unreadable response line: {line:.120}"));
                break;
            };
            let i = resp.id as usize;
            if i >= n || answered[i] {
                out.load.error = Some(format!("response for unknown id {}", resp.id));
                break;
            }
            answered[i] = true;
            done += 1;
            let due_by_now = (since(arrived, start) / interval.as_nanos() as u64) as usize + 1;
            out.max_backlog = out.max_backlog.max(due_by_now.min(n).saturating_sub(done));
            let sample = Sample {
                seq: i as u32,
                job: i as u32,
                latency_ns: since(arrived, due(i)),
                arrived_ns: since(arrived, start),
            };
            out.load.answer(&resp, spec, sample);
        }
        out.load.elapsed = start.elapsed();
        sender.join().expect("the sender thread does not panic")
    });
    out.load.sent = lag.len();
    out.lag_ns = lag;
    if let Some(e) = send_error {
        out.load.error.get_or_insert(e);
    }
    out.load.missing = n - out.load.answered;
    Ok(out)
}

/// Serve-tier counters read from a `{"cmd":"stats"}` response.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierStats {
    /// Requests shed with `S005`.
    pub sheds: u64,
    /// Emulation jobs in flight when the stats were taken.
    pub in_flight: u64,
    /// The deepest shard ready-ring.
    pub queue_depth_max: u64,
}

/// Read the tier counters from a stats response line.
pub fn tier_stats(line: &str) -> Result<TierStats, String> {
    let v = segbus_serve::json::parse(line).map_err(|e| format!("stats response: {e}"))?;
    let num = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let depth = match v.get("shard_queue_depth") {
        Some(segbus_serve::json::Json::Arr(xs)) => {
            xs.iter().filter_map(|x| x.as_u64()).max().unwrap_or(0)
        }
        _ => 0,
    };
    Ok(TierStats {
        sheds: num("sheds"),
        in_flight: num("in_flight"),
        queue_depth_max: depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_reads_fields_ahead_of_the_report() {
        let line = "{\"id\":17,\"ok\":true,\"cached\":false,\"digest\":\"ab\",\"makespan_ps\":123,\"execution_time_ps\":120,\"report\":\"\\\"makespan_ps\\\":9}\"}";
        let r = scan_response(line).expect("scans");
        assert_eq!(r.id, 17);
        assert!(r.ok && !r.cached);
        assert_eq!(r.makespan_ps, Some(123));
        assert_eq!(r.execution_ps, Some(120));
        assert_eq!(r.code, None);
        let e = scan_response("{\"id\":3,\"ok\":false,\"code\":\"S005\",\"error\":\"shed\"}")
            .expect("scans");
        assert!(!e.ok);
        assert_eq!(e.code.as_deref(), Some("S005"));
        assert_eq!(scan_response("garbage"), None);
    }
}
