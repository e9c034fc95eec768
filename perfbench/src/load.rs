//! Load generators: closed loops for saturation, open loops at a fixed
//! rate for latency.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fairrank::{KnownFairness, SuggestRequest, Suggestion};
use fairrank_net::json::{decode_suggestion, Json};
use fairrank_net::Client;
use fairrank_serve::FairRankService;

use crate::trace::{Span, Tracer};

/// What a phase served: every answer is tallied, a strided sample is kept
/// for the output checks.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub already_fair: u64,
    pub suggested: u64,
    pub infeasible: u64,
    pub distance_sum: f64,
    /// Kept (request, answer) pairs.
    pub kept: Vec<(SuggestRequest, Suggestion)>,
    pub errors: Vec<String>,
    /// Keep every `stride`-th answer (0 = keep none).
    pub stride: usize,
}

impl Tally {
    pub fn new(stride: usize) -> Self {
        Tally {
            stride,
            ..Tally::default()
        }
    }

    pub fn note(&mut self, index: usize, req: &SuggestRequest, answer: Result<Suggestion, String>) {
        self.attempted += 1;
        match answer {
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
            Ok(s) => {
                match s.fairness {
                    KnownFairness::AlreadyFair => self.already_fair += 1,
                    KnownFairness::Suggested { distance } => {
                        self.suggested += 1;
                        self.distance_sum += distance;
                    }
                    KnownFairness::Infeasible => self.infeasible += 1,
                }
                if self.stride > 0 && index.is_multiple_of(self.stride) {
                    self.kept.push((req.clone(), s));
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.already_fair += other.already_fair;
        self.suggested += other.suggested;
        self.infeasible += other.infeasible;
        self.distance_sum += other.distance_sum;
        self.kept.extend(other.kept);
        self.errors.extend(other.errors);
    }
}

/// Sleep until `due`, spinning out the last `spin` of it. Timer slack and
/// wake-up delay count as generator lateness, and are part of the latency.
pub fn wait_until(due: Instant, spin: Duration) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > spin {
            std::thread::sleep(due - now - spin);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The in-process generator spins the last 80 µs before each request: with
/// every thread asleep between requests, wake-ups from idle made the tail
/// of one run several times that of the next. The two HTTP generator
/// threads do not spin: spinning, they took the CPU the server needs.
const SPIN_IN_PROCESS: Duration = Duration::from_micros(80);

/// Span names of the saturation loops.
pub const SERVE_REQUEST: &str = "serve.request";
pub const NET_REQUEST: &str = "net.request";

/// Closed loop from one generator thread keeping `outstanding` requests in
/// the service. Returns the loop's wall time.
pub fn closed_loop(
    service: &FairRankService,
    reqs: &[SuggestRequest],
    outstanding: usize,
    tally: &mut Tally,
    first_id: u64,
    tracer: Option<&Tracer>,
) -> Duration {
    let mut spans: Vec<Span> = Vec::new();
    let mut inflight = VecDeque::with_capacity(outstanding);
    let start = Instant::now();
    let mut finish = |idx: usize,
                      t0: u64,
                      fut: Result<fairrank_serve::SuggestionFuture, String>,
                      tally: &mut Tally| {
        let answer = fut.and_then(|f| f.wait().map_err(|e| e.to_string()));
        if let Some(t) = tracer {
            spans.push(Span {
                name: SERVE_REQUEST,
                request: first_id + idx as u64,
                start: t0,
                end: t.now(),
                items: 1,
            });
        }
        tally.note(idx, &reqs[idx], answer);
    };
    for (i, req) in reqs.iter().enumerate() {
        if inflight.len() == outstanding {
            let (idx, t0, fut) = inflight.pop_front().expect("window is full");
            finish(idx, t0, fut, tally);
        }
        let t0 = tracer.map_or(0, Tracer::now);
        inflight.push_back((
            i,
            t0,
            service.submit(req.clone()).map_err(|e| e.to_string()),
        ));
    }
    while let Some((idx, t0, fut)) = inflight.pop_front() {
        finish(idx, t0, fut, tally);
    }
    let elapsed = start.elapsed();
    if let Some(t) = tracer {
        t.extend(spans);
    }
    elapsed
}

/// A submission: the answer's future, or why the service refused it.
type Submitted = Result<fairrank_serve::SuggestionFuture, String>;

/// Latency samples of an open loop, in seconds from each request's due
/// time, and how late the generator sent each request.
#[derive(Default)]
pub struct Paced {
    pub latency: Vec<f64>,
    pub lateness: Vec<f64>,
}

/// Open loop at `rate` requests per second: one generator thread submits
/// on schedule, a collector thread waits for the answers in order.
pub fn paced(
    service: &FairRankService,
    reqs: &[SuggestRequest],
    rate: f64,
    tally: &mut Tally,
) -> Paced {
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| -> Instant { start + Duration::from_secs_f64(i as f64 / rate) };
    let (tx, rx) = mpsc::channel::<(usize, Instant, Submitted)>();
    let stride = tally.stride;
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Paced::default();
            let mut local = Tally::new(stride);
            for (i, sent, fut) in rx.iter() {
                let answer = fut.and_then(|f| f.wait().map_err(|e| e.to_string()));
                let done = Instant::now();
                out.latency.push((done - due(i)).as_secs_f64());
                out.lateness.push((sent - due(i)).as_secs_f64());
                local.note(i, &reqs[i], answer);
            }
            (out, local)
        });
        for (i, req) in reqs.iter().enumerate() {
            wait_until(due(i), SPIN_IN_PROCESS);
            let sent = Instant::now();
            let fut = service.submit(req.clone()).map_err(|e| e.to_string());
            tx.send((i, sent, fut)).expect("collector alive");
        }
        drop(tx);
        let (out, local) = collector.join().expect("collector thread");
        tally.merge(local);
        out
    })
}

/// One HTTP request on `client`, decoded (the client half of the wire
/// protocol).
pub fn http_suggest(client: &mut Client, req: &SuggestRequest) -> Result<Suggestion, String> {
    let resp = client.suggest(req).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("HTTP {}", resp.status));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("{e:?}"))?;
    decode_suggestion(&doc).map_err(|e| format!("{e:?}"))
}

/// Closed loop over `clients.len()` keep-alive connections, one generator
/// thread each; requests are dealt round-robin. Returns the wall time.
pub fn http_closed_loop(
    clients: &mut [Client],
    reqs: &[SuggestRequest],
    tally: &mut Tally,
    first_id: u64,
    tracer: Option<&Tracer>,
) -> Duration {
    let conns = clients.len();
    let start = Instant::now();
    let results: Vec<(Tally, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let stride = tally.stride;
                scope.spawn(move || {
                    let mut local = Tally::new(stride);
                    let mut spans = Vec::new();
                    for i in (c..reqs.len()).step_by(conns) {
                        let t0 = tracer.map_or(0, Tracer::now);
                        let answer = http_suggest(client, &reqs[i]);
                        if let Some(t) = tracer {
                            spans.push(Span {
                                name: NET_REQUEST,
                                request: first_id + i as u64,
                                start: t0,
                                end: t.now(),
                                items: 1,
                            });
                        }
                        local.note(i, &reqs[i], answer);
                    }
                    (local, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    for (local, spans) in results {
        tally.merge(local);
        if let Some(t) = tracer {
            t.extend(spans);
        }
    }
    elapsed
}

/// Open loop over HTTP at `rate`: each connection's thread sends its share
/// of the schedule, and a request whose predecessor on the connection is
/// late is sent late and counted from its due time.
pub fn http_paced(
    clients: &mut [Client],
    reqs: &[SuggestRequest],
    rate: f64,
    tally: &mut Tally,
) -> Paced {
    let conns = clients.len();
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let results: Vec<(Paced, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let stride = tally.stride;
                scope.spawn(move || {
                    let mut out = Paced::default();
                    let mut local = Tally::new(stride);
                    for i in (c..reqs.len()).step_by(conns) {
                        wait_until(due(i), Duration::ZERO);
                        let sent = Instant::now();
                        let answer = http_suggest(client, &reqs[i]);
                        out.latency.push((Instant::now() - due(i)).as_secs_f64());
                        out.lateness.push((sent - due(i)).as_secs_f64());
                        local.note(i, &reqs[i], answer);
                    }
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = Paced::default();
    for (p, local) in results {
        out.latency.extend(p.latency);
        out.lateness.extend(p.lateness);
        tally.merge(local);
    }
    out
}

pub fn connect(addr: SocketAddr, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| Client::connect(addr).expect("connect to the benchmark's own server"))
        .collect()
}
