//! The serving side of the benchmark: an in-process server with one TCP
//! and one Unix-domain connection, the open- and closed-loop load
//! generator that drives it, and the serve-layer metrics read from the
//! server's stats.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use denali_core::Options;
use denali_metrics::HistogramSnapshot;
use denali_serve::pool::Pool;
use denali_serve::server::serve_lines;
use denali_serve::{Server, ServerConfig};
use denali_trace::json::{self, Json};

use crate::metrics::Outcome;
use crate::stats::{histogram_quantile_ms, percentile, Rng};

/// Server worker threads (the host has two CPUs).
const WORKERS: usize = 2;

/// How often a waiting receiver checks whether the phase is over.
const READ_TIMEOUT: Duration = Duration::from_millis(20);

/// One request of an open-loop schedule.
#[derive(Clone, Debug)]
pub struct Request {
    /// Send time, relative to the start of the phase.
    pub at: Duration,
    /// Unique within the run; echoed by the server.
    pub id: u64,
    pub line: String,
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Reply {
    /// How late the generator sent it, after its scheduled time.
    pub late_ms: f64,
    /// Scheduled send time to response, or `None` if no response came.
    pub latency_ms: Option<f64>,
    pub body: Option<String>,
}

/// The replies of one phase, in request order, one per request sent.
#[derive(Debug)]
pub struct Phase {
    pub replies: Vec<Reply>,
    /// From the first send to the last response.
    pub seconds: f64,
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `duration`: a pure function of its arguments.
pub fn poisson_arrivals(seed: u64, tag: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = Rng::stream(seed, tag);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

pub fn compile_line(id: u64, source: &str) -> String {
    let mut escaped = String::new();
    json::write_str(&mut escaped, source);
    format!(r#"{{"type":"compile","id":{id},"source":{escaped}}}"#)
}

/// The numeric id a response echoes.
fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// When the sender sends each request.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// At its scheduled time, whatever the server's progress.
    Open,
    /// As soon as fewer than this many requests are unanswered, until the
    /// given time has passed; scheduled times are ignored and the
    /// requests left over are not sent.
    Closed { window: usize, for_: Duration },
}

/// Sends `requests` on a connection at the given pace from one sender
/// thread, while one receiver thread matches the pipelined responses by
/// id. `stream` must time out its reads. Latency runs from each
/// request's scheduled time in an open loop, so a stall also delays the
/// requests queued behind it, and from its send time in a closed one.
/// Responses still missing `drain` after the last send are given up on.
pub fn run_phase<S>(
    stream: &S,
    requests: &[Request],
    pace: Pace,
    drain: Duration,
) -> std::io::Result<Phase>
where
    S: Sync,
    for<'a> &'a S: Read + Write,
{
    let first_id = requests.iter().map(|r| r.id).min().unwrap_or(0);
    let n = requests.len();
    let index = |id: u64| {
        let i = id.checked_sub(first_id)? as usize;
        (i < n && requests[i].id == id).then_some(i)
    };
    // A short lead so the first request is not late by construction.
    let start = Instant::now() + Duration::from_millis(2);
    // When the sender finished, and how many requests it sent.
    let sender_done: Mutex<Option<(Instant, usize)>> = Mutex::new(None);
    // Responses received so far, and whether the receiver has stopped:
    // what a closed loop's sender waits on.
    let answered = (Mutex::new((0usize, false)), Condvar::new());
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<Vec<(Instant, Instant)>> {
            let mut out = stream;
            // (due, sent) per request sent.
            let mut sent = Vec::with_capacity(n);
            let result = (|| {
                for (i, request) in requests.iter().enumerate() {
                    let due = match pace {
                        Pace::Open => {
                            let due = start + request.at;
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            due
                        }
                        Pace::Closed { window, for_ } => {
                            let (state, more) = &answered;
                            let mut state = state.lock().expect("answered count");
                            while i >= state.0 + window && !state.1 {
                                state = more.wait(state).expect("answered count");
                            }
                            if state.1 || start.elapsed() >= for_ {
                                break;
                            }
                            Instant::now()
                        }
                    };
                    out.write_all(format!("{}\n", request.line).as_bytes())?;
                    sent.push((due, Instant::now()));
                }
                Ok(())
            })();
            *sender_done.lock().expect("sender flag") = Some((Instant::now(), sent.len()));
            result.map(|()| sent)
        });
        let receiver = scope.spawn(|| -> std::io::Result<Vec<Option<(Instant, String)>>> {
            let mut reader = BufReader::new(stream);
            let mut got: Vec<Option<(Instant, String)>> = vec![None; n];
            let mut received = 0;
            let mut buf = Vec::new();
            let result = loop {
                let done = *sender_done.lock().expect("sender flag");
                if done.is_some_and(|(_, sent)| received == sent) {
                    break Ok(());
                }
                match reader.read_until(b'\n', &mut buf) {
                    Ok(0) => break Ok(()),
                    Ok(_) if buf.ends_with(b"\n") => {
                        let now = Instant::now();
                        let line = String::from_utf8_lossy(&buf).trim().to_owned();
                        buf.clear();
                        if let Some(i) = response_id(&line).and_then(index) {
                            if got[i].is_none() {
                                received += 1;
                                got[i] = Some((now, line));
                                let (state, more) = &answered;
                                state.lock().expect("answered count").0 += 1;
                                more.notify_one();
                            }
                        }
                    }
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if done.is_some_and(|(t, _)| t.elapsed() > drain) {
                            break Ok(());
                        }
                    }
                    Err(e) => break Err(e),
                }
            };
            let (state, more) = &answered;
            state.lock().expect("answered count").1 = true;
            more.notify_one();
            result.map(|()| got)
        });
        let sent = sender.join().expect("sender thread");
        let received = receiver.join().expect("receiver thread");
        (sent, received)
    });
    let (sent, received) = (sent?, received?);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let first_send = sent.first().map_or(start, |&(_, at)| at);
    let last_receive = received
        .iter()
        .flatten()
        .map(|(t, _)| *t)
        .max()
        .unwrap_or(first_send);
    let replies = sent
        .iter()
        .zip(received)
        .map(|(&(due, sent), got)| Reply {
            late_ms: ms(sent.saturating_duration_since(due)),
            latency_ms: got
                .as_ref()
                .map(|(t, _)| ms(t.saturating_duration_since(due))),
            body: got.map(|(_, line)| line),
        })
        .collect();
    Ok(Phase {
        replies,
        seconds: last_receive
            .saturating_duration_since(first_send)
            .as_secs_f64(),
    })
}

/// One compiled GMA as a response reports it.
#[derive(Debug)]
pub struct Served {
    pub name: String,
    pub cycles: u64,
    pub instructions: u64,
}

/// Why a response is not a usable answer.
#[derive(Debug)]
pub enum Refusal {
    /// The admission queue was full (`overload`).
    Shed,
    Other(String),
}

/// The GMAs of an ok, non-degraded compile response.
pub fn parse_response(line: &str) -> Result<Vec<Served>, Refusal> {
    let v = json::parse(line).map_err(|e| Refusal::Other(format!("unparsable response: {e}")))?;
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => {}
        _ => {
            let stage = v
                .get("error")
                .and_then(|e| e.get("stage"))
                .and_then(Json::as_str)
                .unwrap_or("?");
            return Err(if stage == "overload" {
                Refusal::Shed
            } else {
                Refusal::Other(format!("error response: {line}"))
            });
        }
    }
    if v.get("degraded").and_then(Json::as_bool) != Some(false) {
        return Err(Refusal::Other(format!("degraded response: {line}")));
    }
    let gmas = v
        .get("gmas")
        .and_then(Json::as_arr)
        .ok_or_else(|| Refusal::Other("response without gmas".to_owned()))?;
    gmas.iter()
        .map(|g| {
            Some(Served {
                name: g.get("name")?.as_str()?.to_owned(),
                cycles: g.get("cycles")?.as_u64()?,
                instructions: g.get("instructions")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| Refusal::Other(format!("malformed gmas: {line}")))
}

/// A server with default configuration (apart from the pinned pipeline
/// options and two workers) answering two connections that share one
/// pool, on the per-connection path `denali serve --listen` runs:
/// requests are prepared on the connection's reader thread and executed
/// by the pool.
///
/// `client` is a TCP connection, the transport `denali serve --listen`
/// offers. `local` is a Unix-domain socket, for the closed loop: the
/// server writes each response line and its newline in two writes, and
/// on TCP the newline waits for the client's ACK, which a client that
/// is itself waiting for that response sends only when its 40 ms
/// delayed-ACK timer fires. A closed loop over TCP therefore measures
/// that timer (about 16 responses per 44 ms with 16 outstanding), not
/// the server.
pub struct Harness {
    server: Arc<Server>,
    pool: Option<Arc<Pool>>,
    pub client: TcpStream,
    pub local: UnixStream,
    threads: Vec<JoinHandle<()>>,
}

/// Serves one connection, given as its two halves, on its own reader
/// thread.
fn serve_connection<R, W>(
    server: &Arc<Server>,
    pool: &Arc<Pool>,
    reader: R,
    writer: W,
) -> JoinHandle<()>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let (server, pool) = (Arc::clone(server), Arc::clone(pool));
    std::thread::spawn(move || {
        let out = Arc::new(Mutex::new(writer));
        let _ = serve_lines(&server, &pool, BufReader::new(reader), &out);
    })
}

impl Harness {
    pub fn start(options: Options) -> std::io::Result<Harness> {
        let server = Arc::new(Server::new(ServerConfig {
            base: options,
            workers: WORKERS,
            ..ServerConfig::default()
        })?);
        let pool = Arc::new(Pool::with_depth_gauge(
            WORKERS,
            server.config().queue,
            Some(Arc::clone(&server.metrics().queue_depth)),
        ));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (accepted, _) = listener.accept()?;
        let (local, local_end) = UnixStream::pair()?;
        client.set_nodelay(true)?;
        client.set_read_timeout(Some(READ_TIMEOUT))?;
        local.set_read_timeout(Some(READ_TIMEOUT))?;
        let threads = vec![
            serve_connection(&server, &pool, accepted.try_clone()?, accepted),
            serve_connection(&server, &pool, local_end.try_clone()?, local_end),
        ];
        Ok(Harness {
            server,
            pool: Some(pool),
            client,
            local,
            threads,
        })
    }

    pub fn snapshot(&self) -> ServeSnapshot {
        let body = self
            .server
            .handle_line(r#"{"type":"stats","id":0}"#)
            .expect("stats response");
        let v = json::parse(&body).expect("stats response parses");
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(&v, |node, key| node.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let metrics = self.server.metrics();
        ServeSnapshot {
            queue: metrics.stage_queue.snapshot(),
            cache: metrics.stage_cache.snapshot(),
            coalesce: metrics.stage_coalesce.snapshot(),
            execute: metrics.stage_execute.snapshot(),
            hits: at(&["cache", "hits"]),
            executions: at(&["executions"]),
            coalesced: at(&["coalesce", "coalesced"]),
            shed: at(&["overload_rejections"]) + at(&["shutdown_rejections"]),
        }
    }
}

/// Dropping the harness closes the connections and waits until the
/// server has answered everything and its threads have ended.
impl Drop for Harness {
    fn drop(&mut self) {
        let _ = self.client.shutdown(Shutdown::Write);
        let _ = self.local.shutdown(Shutdown::Write);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // Graceful shutdown, as `serve_stdio` does it: workers first,
        // then the coalesced followers they unblock.
        drop(self.pool.take());
        self.server.drain_followers();
    }
}

/// The server's stage histograms and counters at one instant.
pub struct ServeSnapshot {
    queue: HistogramSnapshot,
    cache: HistogramSnapshot,
    coalesce: HistogramSnapshot,
    execute: HistogramSnapshot,
    hits: u64,
    executions: u64,
    coalesced: u64,
    shed: u64,
}

/// Serve-layer metrics of the requests between two snapshots, plus the
/// generator's own lateness.
pub fn layer_metrics(
    before: &ServeSnapshot,
    after: &ServeSnapshot,
    replies: &[Reply],
    out: &mut Outcome,
) {
    let requests = replies.len().max(1) as f64;
    let q = histogram_quantile_ms;
    let queue = after.queue.since(&before.queue);
    let execute = after.execute.since(&before.execute);
    out.set("serve.queue_ms_p50", q(&queue, 0.5));
    out.set("serve.queue_ms_p99", q(&queue, 0.99));
    out.set("serve.execute_ms_p50", q(&execute, 0.5));
    out.set("serve.execute_ms_p99", q(&execute, 0.99));
    out.set(
        "serve.cache_ms_p50",
        q(&after.cache.since(&before.cache), 0.5),
    );
    out.set(
        "serve.coalesce_ms_p99",
        q(&after.coalesce.since(&before.coalesce), 0.99),
    );
    out.set(
        "serve.hit_ratio",
        (after.hits - before.hits) as f64 / requests,
    );
    out.set(
        "serve.coalesce_ratio",
        (after.coalesced - before.coalesced) as f64 / requests,
    );
    out.set(
        "serve.executions",
        (after.executions - before.executions) as f64,
    );
    out.set("serve.shed", (after.shed - before.shed) as f64);
    let late: Vec<f64> = replies.iter().map(|r| r.late_ms).collect();
    out.set("gen.late_ms_p99", percentile(&late, 0.99));
    out.set("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_a_pure_function_of_seed_and_rate() {
        let d = Duration::from_secs(10);
        let a = poisson_arrivals(1, 3, 400.0, d);
        assert_eq!(a, poisson_arrivals(1, 3, 400.0, d));
        assert_ne!(a, poisson_arrivals(2, 3, 400.0, d));
        assert_ne!(a, poisson_arrivals(1, 3, 800.0, d));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &d);
        // The mean rate is the asked-for rate, within sampling noise.
        assert!((3700..4300).contains(&a.len()), "{}", a.len());
    }

    const STALL_ID: u64 = 5;
    const STALL: Duration = Duration::from_millis(150);
    const GAP: Duration = Duration::from_millis(10);

    /// Runs a phase of 40 requests, one every [`GAP`], against a stub
    /// server that answers in order and stalls once, before answering
    /// request [`STALL_ID`].
    fn against_stalling_stub(pace: Pace) -> Phase {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let id = response_id(&line.unwrap()).unwrap();
                if id == STALL_ID {
                    std::thread::sleep(STALL);
                }
                writeln!(out, r#"{{"v":1,"id":{id},"status":"ok"}}"#).unwrap();
            }
        });
        let client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let requests: Vec<Request> = (0..40)
            .map(|id| Request {
                at: GAP * id as u32,
                id,
                line: format!(r#"{{"id":{id}}}"#),
            })
            .collect();
        let phase = run_phase(&client, &requests, pace, Duration::from_secs(5)).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        stub.join().unwrap();
        phase
    }

    /// In an open loop the stall must show in the latency of the stalled
    /// request and of every request scheduled behind it, measured from
    /// the scheduled times.
    #[test]
    fn a_stall_delays_the_requests_behind_it() {
        let phase = against_stalling_stub(Pace::Open);
        assert_eq!(phase.replies.len(), 40);
        assert!(phase
            .replies
            .iter()
            .all(|r| r.latency_ms.is_some() && r.late_ms >= 0.0));
        let latency = |id: usize| phase.replies[id].latency_ms.unwrap();
        let stall_ms = STALL.as_secs_f64() * 1e3;
        let gap_ms = GAP.as_secs_f64() * 1e3;
        // Every request scheduled during the stall waits for its end.
        for id in STALL_ID as usize..STALL_ID as usize + 10 {
            let behind = (id - STALL_ID as usize) as f64 * gap_ms;
            assert!(
                latency(id) >= stall_ms - behind - 1.0,
                "request {id}: {} ms",
                latency(id)
            );
        }
        // Requests before the stall do not.
        assert!((0..STALL_ID as usize).all(|id| latency(id) < stall_ms / 2.0));
    }

    /// A closed loop keeps at most `window` requests unanswered: during
    /// the stall it sends only the requests that fit the window, and it
    /// stops sending once its time is up.
    #[test]
    fn a_closed_loop_waits_for_its_window() {
        const WINDOW: usize = 4;
        let for_ = Duration::from_millis(100);
        let phase = against_stalling_stub(Pace::Closed {
            window: WINDOW,
            for_,
        });
        let stall_ms = STALL.as_secs_f64() * 1e3;
        // The stall outlasts the time to send, so the sender stopped at
        // the edge of the window around the stalled request.
        assert_eq!(phase.replies.len(), STALL_ID as usize + WINDOW);
        assert!(phase.replies.iter().all(|r| r.latency_ms.is_some()));
        assert!(phase.seconds * 1e3 >= stall_ms);
        // Latency runs from the send, so every request sent within the
        // window behind the stalled one waits for the stall.
        for reply in &phase.replies[STALL_ID as usize..] {
            assert!(reply.latency_ms.unwrap() >= stall_ms / 2.0);
        }
    }
}
