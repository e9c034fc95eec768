//! The fairrank benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload http_2d --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. Exits non-zero when any output check fails. See README.md.

mod check;
mod layers;
mod load;
mod reference;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use fairrank::SuggestRequest;

use crate::load::{Paced, Tally};
use crate::reference::Reference;
use crate::setup::{FairAngles, Requests, Settings, System, PACED_RATE, ROUNDS, TWO_D};
use crate::stats::{median, quantile};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Answers kept for checking per run, about (the rest are tallied).
const KEEP: usize = 8000;
/// Warm-up units of requests before any timing.
const WARMUP_UNITS: usize = 3;
/// Requests the in-process closed loop keeps outstanding: enough to fill
/// the service's 16-request micro-batches.
const OUTSTANDING: usize = 64;
/// Paced samples per latency window; each window gives a median and a
/// tail, and the run reports the median over windows.
const WINDOW: usize = 100;
/// The tail percentile printed: the highest with at least ten samples
/// beyond it in a window.
const TAIL: f64 = 0.9;
/// Request stream ids, so the requests of each phase differ.
const STREAM_WARMUP: u64 = 1;
const STREAM_SAT: u64 = 2;
const STREAM_PACED: u64 = 3;
const STREAM_REPLAY: u64 = 4;
const STREAM_UPDATES: u64 = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(s) = setup::settings(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            setup::WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let outcome = if args.trace {
        layers::run_traced(&s, args.seed, args.seconds)
    } else {
        run(&s, args.seed, args.seconds)
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Peak resident set of this process (`VmHWM`), in MB. The benchmark
/// keeps its own memory small beside the program's (requests are made one
/// round at a time, and the reference's 2-D sweeps hold a slice of the
/// item pairs at a time), so this is mostly the program's.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A started system and what the run needs around it.
pub struct Stage {
    pub system: System,
    pub ds: fairrank_datasets::Dataset,
    pub reference: Reference,
    pub fair: FairAngles,
    pub setup_s: Vec<f64>,
    pub clients: Vec<fairrank_net::Client>,
}

/// Start the system `setups` times (keeping the last), check its index,
/// and connect the HTTP clients.
pub fn stage(s: &Settings, setups: usize, errors: &mut Vec<String>) -> Stage {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..setups {
        if let Some((system, _)) = last.take() {
            System::stop(system);
        }
        let (system, ds, took) = System::start(s);
        setup_s.push(took.as_secs_f64());
        last = Some((system, ds));
    }
    let (system, ds) = last.expect("at least one set-up");
    let reference = setup::reference(&TWO_D, &ds);
    if let Err(e) = check::check_intervals(&system.service.snapshot(), TWO_D.cap_share) {
        errors.push(e);
    }
    let clients = system
        .server
        .as_ref()
        .map_or_else(Vec::new, |srv| load::connect(srv.local_addr(), 2));
    let fair = FairAngles::new(&reference);
    Stage {
        system,
        ds,
        reference,
        fair,
        setup_s,
        clients,
    }
}

/// Serve one closed-loop round through the workload's front end.
pub fn saturate(
    s: &Settings,
    st: &mut Stage,
    reqs: &[SuggestRequest],
    tally: &mut Tally,
    first_id: u64,
    tracer: Option<&trace::Tracer>,
) -> Duration {
    if s.http {
        load::http_closed_loop(&mut st.clients, reqs, tally, first_id, tracer)
    } else {
        load::closed_loop(
            &st.system.service,
            reqs,
            OUTSTANDING,
            tally,
            first_id,
            tracer,
        )
    }
}

fn pace(s: &Settings, st: &mut Stage, reqs: &[SuggestRequest], tally: &mut Tally) -> Paced {
    if s.http {
        load::http_paced(&mut st.clients, reqs, PACED_RATE, tally)
    } else {
        load::paced(&st.system.service, reqs, PACED_RATE, tally)
    }
}

/// Warm the system up with a few untimed units of requests.
pub fn warm_up(s: &Settings, st: &mut Stage, seed: u64) {
    let mut warm = Requests::new(seed, STREAM_WARMUP, st.ds.dim());
    for _ in 0..WARMUP_UNITS {
        let reqs = warm.unit(&st.fair);
        saturate(s, st, &reqs, &mut Tally::new(0), 0, None);
    }
}

/// Latency median and tail of the paced samples (seconds), each the
/// median over windows of `WINDOW` samples.
fn latency_figures(latency: &[f64]) -> (f64, f64) {
    let windows: Vec<&[f64]> = latency
        .chunks(WINDOW)
        .filter(|w| w.len() == WINDOW)
        .collect();
    let p50: Vec<f64> = windows.iter().map(|w| median(w)).collect();
    let tail: Vec<f64> = windows.iter().map(|w| quantile(w, TAIL)).collect();
    (median(&p50), median(&tail))
}

/// Stride that keeps about `KEEP` of `len` answers.
pub fn stride(len: usize) -> usize {
    (len / KEEP).max(1)
}

/// The untraced run: every end-to-end metric.
fn run(s: &Settings, seed: u64, seconds: f64) -> Outcome {
    let mut errors = Vec::new();
    let mut st = stage(s, SETUPS, &mut errors);
    let index_bytes = st.system.service.snapshot().to_bytes().len() as f64;
    warm_up(s, &mut st, seed);

    // Rounds of a fixed size, each a closed loop (for `throughput_rps`)
    // then a stretch of the open loop at a fixed rate (for the latency),
    // so a slow spell of the host weighs on both phases alike. Each
    // figure is a median over the run: of the rounds' rates, and of the
    // latency windows' medians.
    let dim = st.ds.dim();
    let (mut sat, mut paced) = (
        Requests::new(seed, STREAM_SAT, dim),
        Requests::new(seed, STREAM_PACED, dim),
    );
    let (sat_len, paced_len) = (s.sat_len(seconds), Settings::paced_len(seconds));
    let mut tally = Tally::new(stride(ROUNDS * (sat_len + paced_len)));
    let mut rates = Vec::new();
    let (mut latency, mut lateness) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let reqs = sat.units(&st.fair, sat_len);
        let took = saturate(s, &mut st, &reqs, &mut tally, 0, None);
        rates.push(reqs.len() as f64 / took.as_secs_f64());
        let reqs = paced.units(&st.fair, paced_len);
        let p = pace(s, &mut st, &reqs, &mut tally);
        latency.extend(p.latency);
        lateness.extend(p.lateness);
    }

    // Checks, after all timing.
    errors.extend(check::check_answers(
        &[Arc::new(st.reference.clone())],
        &tally.kept,
    ));
    if s.http {
        errors.extend(check::check_http_identity(
            &st.system.service.snapshot(),
            &tally.kept,
            200,
        ));
    }
    if tally.already_fair == 0 || tally.suggested == 0 {
        errors.push(format!(
            "degenerate run: {} already fair, {} suggested (cap {})",
            tally.already_fair, tally.suggested, TWO_D.cap_share
        ));
    }
    errors.extend(tally.errors.iter().map(|e| format!("request failed: {e}")));

    let (p50, tail) = latency_figures(&latency);
    eprintln!(
        "{}: setups {:?} s; rounds {:?} req/s; paced {} samples, generator late p50 {:.1} µs, p99 {:.1} µs; latency tail p{} {:.4} ms",
        s.name,
        st.setup_s,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        latency.len(),
        median(&lateness) * 1e6,
        quantile(&lateness, 0.99) * 1e6,
        TAIL * 100.0,
        tail * 1e3
    );
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", (median(&st.setup_s), "s"));
    metrics.insert("throughput_rps", (median(&rates), "req/s"));
    metrics.insert("latency_p50_ms", (p50 * 1e3, "ms"));
    metrics.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    metrics.insert("index_bytes", (index_bytes, "B"));
    metrics.insert(
        "mean_distance_rad",
        (tally.distance_sum / tally.suggested.max(1) as f64, "rad"),
    );
    st.system.stop();
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors,
        metrics,
    }
}
