//! The traced run: the workload's saturation rounds with spans on and off
//! (for the tracing overhead), then a replay of requests, batches, builds
//! and updates against each layer's public call, with a span around every
//! call. Besides the served 2-D index, it builds and queries the two 3-D
//! indexes (the approximate grid and exact SATREGIONS) directly. The
//! per-layer metrics are derived from the spans, which are written to
//! `perfbench/out/trace-<workload>.csv`.

use std::path::Path;
use std::sync::Arc;

use fairrank::approximate::{ApproxGrid, ApproxIndex};
use fairrank::md::{baseline, exchange_hyperplanes, sat_regions, ExactRegions, SatRegionsOptions};
use fairrank::{
    Answer, FairRanker, IndexBackend, KnownFairness, QueryCtx, Strategy, SuggestRequest,
    SuggestStats, Suggestion, UpdateOutcome,
};
use fairrank_datasets::{Dataset, RankWorkspace};
use fairrank_fairness::FairnessOracle;
use fairrank_serve::FairRankService;

use crate::check::{self, angles_of};
use crate::load::{self, Tally};
use crate::reference::Reference;
use crate::setup::{self, Requests, Settings, UpdateGen, EXACT_3D, GRID_3D, ROUNDS, TWO_D};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Metrics, Outcome};

/// Every per-layer metric, with its unit. A metric whose layer is not on
/// the workload's path reads 0 (see the README's layer table).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("net.http_roundtrip_us", "us"),
    ("net.http_overhead_us", "us"),
    ("serve.service_roundtrip_us", "us"),
    ("serve.batch_fill", "req/batch"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidations", "count"),
    ("serve.overhead_us", "us"),
    ("serve.update_overhead_ms", "ms"),
    ("ranker.respond_batch_us", "us"),
    ("ranker.respond_with_verdict_us", "us"),
    ("ranker.region_of_us", "us"),
    ("datasets.rank_topk_us", "us"),
    ("fairness.verdict_us", "us"),
    ("twod.build_s", "s"),
    ("twod.suggest_us", "us"),
    ("twod.known_fairness_us", "us"),
    ("twod.update_ms", "ms"),
    ("twod.update_incremental_ratio", "ratio"),
    ("md.hyperplanes_s", "s"),
    ("md.sat_regions_s", "s"),
    ("md.hyperplanes", "count"),
    ("md.regions", "count"),
    ("md.satisfactory_regions", "count"),
    ("md.build_oracle_calls", "count"),
    ("md.closest_ms", "ms"),
    ("md.suggest_ms", "ms"),
    ("md.nearest_gap_rad", "rad"),
    ("approx.build_s", "s"),
    ("approx.hyperplane_s", "s"),
    ("approx.cellplane_s", "s"),
    ("approx.markcell_s", "s"),
    ("approx.coloring_s", "s"),
    ("approx.satisfied_cells", "count"),
    ("approx.colored_cells", "count"),
    ("approx.build_oracle_calls", "count"),
    ("approx.lookup_us", "us"),
    ("trace.overhead_pct", "%"),
    ("update.p50_ms", "ms"),
    ("update.tail_ms", "ms"),
];

/// Updates replayed against the service and a private ranker.
const UPDATE_REPLAY: usize = 24;
/// Already-fair and unfair requests served and checked after each
/// replayed update.
const AFTER_UPDATE: usize = 2;
/// Requests of the lone round-trip replays.
const LONE: usize = 200;
/// Requests of the ranker-layer replay.
const REPLAY: usize = 400;
/// Requests of each in-process closed loop that times the service alone
/// behind `http_2d`.
const SERVICE_LOOP: usize = 20_000;
/// Unfair queries asked of the approximate grid.
const GRID_LOOKUPS: usize = 400;
/// Unfair queries asked of the exact index. They are the same in every
/// run, whatever the seed (see `replay_md`).
const MD_QUERIES: usize = 7;

fn per_item_median(tracer: &Tracer, name: &str) -> f64 {
    let v = tracer.per_item_seconds(name);
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Operations of the traced run outside the saturation rounds.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

pub fn run_traced(s: &Settings, seed: u64, seconds: f64) -> Outcome {
    let tracer = Tracer::new();
    let mut errors = Vec::new();
    let mut ops = Ops::default();
    let mut st = tracer.time("setup", 0, 1, || crate::stage(s, 1, &mut errors));
    crate::warm_up(s, &mut st, seed);
    let dim = st.ds.dim();

    // Saturation, alternating untraced and traced rounds.
    let sat_len = s.sat_len(seconds);
    let mut sat = Requests::new(seed, crate::STREAM_SAT, dim);
    let mut tally = Tally::new(crate::stride(ROUNDS * sat_len));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let before = st.system.service.stats();
    for r in 0..ROUNDS {
        let reqs = sat.units(&st.fair, sat_len);
        let on = r % 2 == 1;
        let took = crate::saturate(
            s,
            &mut st,
            &reqs,
            &mut tally,
            (r * sat_len) as u64 + 1,
            on.then_some(&tracer),
        );
        let rate = reqs.len() as f64 / took.as_secs_f64();
        if on {
            traced.push(rate)
        } else {
            plain.push(rate)
        }
    }
    let after = st.system.service.stats();
    let mut m = Metrics::new();
    for (name, unit) in PER_LAYER {
        m.insert(name, (0.0, unit));
    }
    let untraced_rps = median(&plain);
    set(
        &mut m,
        "trace.overhead_pct",
        (untraced_rps - median(&traced)) / untraced_rps * 100.0,
    );
    set(
        &mut m,
        "serve.batch_fill",
        (after.completed - before.completed) as f64
            / (after.batches - before.batches).max(1) as f64,
    );
    if let (Some(a), Some(b)) = (after.cache, before.cache) {
        let lookups = (a.hits + a.misses).saturating_sub(b.hits + b.misses);
        set(
            &mut m,
            "serve.cache_hit_ratio",
            (a.hits - b.hits) as f64 / lookups.max(1) as f64,
        );
        set(
            &mut m,
            "serve.cache_invalidations",
            (a.invalidations - b.invalidations) as f64,
        );
    }

    // In-process service time per request, for the serve overhead: for
    // http_2d the saturation above went through HTTP, so time the service
    // alone.
    let service = Arc::clone(&st.system.service);
    let mut replay = Requests::new(seed, crate::STREAM_REPLAY, dim);
    let service_rps = if s.http {
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                let reqs = replay.units(&st.fair, SERVICE_LOOP);
                let took =
                    load::closed_loop(&service, &reqs, crate::OUTSTANDING, &mut tally, 0, None);
                reqs.len() as f64 / took.as_secs_f64()
            })
            .collect();
        median(&rates)
    } else {
        untraced_rps
    };

    // Lone round trips: one request at a time through the service (and
    // the HTTP client), so each pays the coalescing wait alone.
    let lone = replay.units(&st.fair, LONE);
    let mut lone_tally = Tally::new(1);
    for (i, req) in lone.iter().enumerate() {
        let answer = tracer.time("serve.lone", i as u64 + 1, 1, || {
            service.suggest(req.clone()).map_err(|e| e.to_string())
        });
        lone_tally.note(i, req, answer);
    }
    if s.http {
        for (i, req) in lone.iter().enumerate() {
            let client = &mut st.clients[0];
            let answer = tracer.time("net.lone", i as u64 + 1, 1, || {
                load::http_suggest(client, req)
            });
            lone_tally.note(i, req, answer);
        }
        let http = per_item_median(&tracer, "net.lone");
        set(&mut m, "net.http_roundtrip_us", http * 1e6);
        set(
            &mut m,
            "net.http_overhead_us",
            (http - per_item_median(&tracer, "serve.lone")) * 1e6,
        );
    }
    set(
        &mut m,
        "serve.service_roundtrip_us",
        per_item_median(&tracer, "serve.lone") * 1e6,
    );
    tally.merge(lone_tally);

    // The ranker, index, ranking and oracle layers, on the same snapshot
    // the service serves.
    let snapshot = service.snapshot();
    let reqs = replay.units(&st.fair, REPLAY);
    replay_ranker(&tracer, &snapshot, &reqs, &st.reference, &mut m);
    let hit = m["serve.cache_hit_ratio"].0;
    let ranker_per_request = m["ranker.region_of_us"].0
        + hit * m["ranker.respond_with_verdict_us"].0
        + (1.0 - hit) * m["ranker.respond_batch_us"].0;
    set(
        &mut m,
        "serve.overhead_us",
        1e6 / service_rps - ranker_per_request,
    );
    tracer.time("twod.build", 0, 1, || {
        setup::build_ranker(&TWO_D, st.ds.clone(), Strategy::TwoD)
    });
    set(
        &mut m,
        "twod.build_s",
        per_item_median(&tracer, "twod.build"),
    );
    replay_updates(
        seed,
        &tracer,
        &service,
        &st.ds,
        &st.reference,
        &mut m,
        &mut errors,
        &mut ops,
    );
    replay_approx(seed, &tracer, &mut m, &mut errors, &mut ops);
    replay_md(&tracer, &mut m, &mut errors, &mut ops);

    // Every answer served above is checked like any other.
    errors.extend(check::check_answers(
        &[Arc::new(st.reference.clone())],
        &tally.kept,
    ));
    errors.extend(tally.errors.iter().map(|e| format!("request failed: {e}")));
    st.system.stop();

    let path = Path::new("perfbench/out").join(format!("trace-{}.csv", s.name));
    if let Err(e) = tracer.write(&path) {
        eprintln!("{}: could not write {}: {e}", s.name, path.display());
    }
    eprintln!("{}: spans {:?}", s.name, tracer.counts());
    Outcome {
        attempted: tally.attempted + ops.attempted,
        failed: tally.failed + ops.failed,
        errors,
        metrics: m,
    }
}

/// Set a per-layer metric (each starts at 0).
fn set(m: &mut Metrics, name: &'static str, v: f64) {
    let entry = m
        .get_mut(name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    entry.0 = v;
}

/// The ranker, 2-D index, ranking and oracle layers, each called directly
/// on the requests `reqs`.
fn replay_ranker(
    tracer: &Tracer,
    ranker: &FairRanker,
    reqs: &[SuggestRequest],
    reference: &Reference,
    m: &mut Metrics,
) {
    for (c, chunk) in reqs.chunks(16).enumerate() {
        tracer.time(
            "ranker.respond_batch",
            c as u64 + 1,
            chunk.len() as u32,
            || ranker.respond_batch(chunk).ok(),
        );
    }
    let verdicts: Vec<bool> = reqs.iter().map(|r| reference.is_fair(&r.query)).collect();
    for (i, (req, &fair)) in reqs.iter().zip(&verdicts).enumerate() {
        tracer.time("ranker.respond_with_verdict", i as u64 + 1, 1, || {
            ranker.respond_with_verdict(req, fair).ok()
        });
        tracer.time("ranker.region_of", i as u64 + 1, 1, || {
            ranker.region_of(&req.query)
        });
    }
    let ds = ranker.dataset();
    let oracle = setup::oracle(&TWO_D, ds);
    let k = setup::top_k(&TWO_D);
    let mut ws = RankWorkspace::new();
    for (i, req) in reqs.iter().enumerate() {
        let ranking = tracer.time("datasets.rank_topk", i as u64 + 1, 1, || {
            ws.rank_with_bound(ds, &req.query, Some(k)).to_vec()
        });
        tracer.time("fairness.verdict", i as u64 + 1, 1, || {
            oracle.is_satisfactory(&ranking)
        });
    }

    // The index: on unfair queries what the service asks it, and on all
    // queries the fast path the service never takes.
    let ctx = QueryCtx {
        ds,
        oracle: &oracle,
    };
    let backend = ranker.backend();
    for (i, (req, _)) in reqs.iter().zip(&verdicts).filter(|(_, &f)| !f).enumerate() {
        tracer.time("twod.suggest", i as u64 + 1, 1, || {
            backend.suggest_unfair(&req.query, &ctx).ok()
        });
    }
    for (i, req) in reqs.iter().enumerate() {
        tracer.time("twod.known_fairness", i as u64 + 1, 1, || {
            backend.known_fairness(&req.query)
        });
    }
    for (metric, span) in [
        ("ranker.respond_batch_us", "ranker.respond_batch"),
        (
            "ranker.respond_with_verdict_us",
            "ranker.respond_with_verdict",
        ),
        ("ranker.region_of_us", "ranker.region_of"),
        ("datasets.rank_topk_us", "datasets.rank_topk"),
        ("fairness.verdict_us", "fairness.verdict"),
        ("twod.suggest_us", "twod.suggest"),
        ("twod.known_fairness_us", "twod.known_fairness"),
    ] {
        set(m, metric, per_item_median(tracer, span) * 1e6);
    }
}

/// The same updates through the service (which forks its serving
/// generation) and through `FairRanker::update` on a private ranker that
/// nothing else holds (which maintains the index in place). After each,
/// a few requests through the service are checked against the
/// reference's copy of the rows at the version their answer carries.
#[allow(clippy::too_many_arguments)]
fn replay_updates(
    seed: u64,
    tracer: &Tracer,
    service: &FairRankService,
    ds: &Dataset,
    reference: &Reference,
    m: &mut Metrics,
    errors: &mut Vec<String>,
    ops: &mut Ops,
) {
    let mut gen = UpdateGen::new(seed, ds, reference.clone());
    let mut private = setup::build_ranker(&TWO_D, ds.clone(), Strategy::TwoD);
    let mut requests = Requests::new(seed, crate::STREAM_UPDATES, ds.dim());
    let mut answered = Tally::new(1);
    let mut incremental = 0usize;
    let mut diffs = Vec::new();
    for i in 0..UPDATE_REPLAY {
        let u = gen.next();
        let t0 = tracer.now();
        let through_service = service.update(u.clone());
        let t1 = tracer.now();
        let outcome = private.update(u.clone());
        let t2 = tracer.now();
        for (name, start, end) in [("serve.update", t0, t1), ("twod.update", t1, t2)] {
            tracer.record(crate::trace::Span {
                name,
                request: i as u64 + 1,
                start,
                end,
                items: 1,
            });
        }
        ops.attempted += 1;
        match (through_service, outcome) {
            (Ok(_), Ok(o)) => {
                incremental += usize::from(o == UpdateOutcome::Incremental);
                diffs.push((t1 - t0) as f64 - (t2 - t1) as f64);
                gen.applied(&u);
            }
            (a, b) => {
                ops.failed += 1;
                errors.push(format!("update replay failed: {a:?} / {b:?}"));
                break;
            }
        }
        let mut reqs = Vec::new();
        let current = gen.current();
        requests.draw(
            |q| current.is_fair(q),
            AFTER_UPDATE,
            AFTER_UPDATE,
            &mut reqs,
        );
        for (j, req) in reqs.iter().enumerate() {
            let answer = service.suggest(req.clone()).map_err(|e| e.to_string());
            answered.note(j, req, answer);
        }
    }
    errors.extend(check::check_answers(&gen.versions, &answered.kept));
    errors.extend(
        answered
            .errors
            .iter()
            .map(|e| format!("request failed: {e}")),
    );
    ops.attempted += answered.attempted;
    ops.failed += answered.failed;
    set(
        m,
        "twod.update_ms",
        per_item_median(tracer, "twod.update") * 1e3,
    );
    let through_service = tracer.per_item_seconds("serve.update");
    set(m, "update.p50_ms", median(&through_service) * 1e3);
    set(m, "update.tail_ms", quantile(&through_service, 0.9) * 1e3);
    set(
        m,
        "twod.update_incremental_ratio",
        incremental as f64 / UPDATE_REPLAY as f64,
    );
    if !diffs.is_empty() {
        set(m, "serve.update_overhead_ms", median(&diffs) * 1e-6);
    }
}

/// The approximate-grid layers on the `GRID_3D` data: `ApproxIndex::build`
/// called directly, with the phase times and counts the program reports
/// in `BuildStats`, the grid's functions checked fair, then the grid's
/// `suggest_unfair` on seeded unfair queries, each answer checked.
fn replay_approx(
    seed: u64,
    tracer: &Tracer,
    m: &mut Metrics,
    errors: &mut Vec<String>,
    ops: &mut Ops,
) {
    let ds = setup::dataset(&GRID_3D);
    let oracle = setup::oracle(&GRID_3D, &ds);
    let reference = setup::reference(&GRID_3D, &ds);
    let index = tracer.time("approx.build", 0, 1, || {
        ApproxIndex::build(&ds, &oracle, &setup::approx_options())
    });
    let index = match index {
        Ok(index) => index,
        Err(e) => {
            errors.push(format!("the approximate grid failed to build: {e}"));
            return;
        }
    };
    set(m, "approx.build_s", per_item_median(tracer, "approx.build"));
    let stats = index.stats();
    set(
        m,
        "approx.hyperplane_s",
        stats.hyperplane_time.as_secs_f64(),
    );
    set(m, "approx.cellplane_s", stats.cellplane_time.as_secs_f64());
    set(m, "approx.markcell_s", stats.markcell_time.as_secs_f64());
    set(m, "approx.coloring_s", stats.coloring_time.as_secs_f64());
    set(m, "approx.satisfied_cells", stats.satisfied_cells as f64);
    set(m, "approx.colored_cells", stats.colored_cells as f64);
    set(m, "approx.build_oracle_calls", stats.oracle_calls as f64);
    if let Err(e) = check::check_grid(&index, &reference) {
        errors.push(e);
    }

    let grid = ApproxGrid::new(index);
    let ctx = QueryCtx {
        ds: &ds,
        oracle: &oracle,
    };
    let mut reqs = Vec::new();
    Requests::new(seed, crate::STREAM_REPLAY, ds.dim()).draw(
        |q| reference.is_fair(q),
        0,
        GRID_LOOKUPS,
        &mut reqs,
    );
    for (i, req) in reqs.iter().enumerate() {
        let answer = tracer.time("approx.lookup", i as u64 + 1, 1, || {
            grid.suggest_unfair(&req.query, &ctx)
        });
        ops.attempted += 1;
        if let Err(e) = suggested(answer).and_then(|s| check::check_answer(&reference, req, &s)) {
            errors.push(format!("grid: {e}"));
        }
    }
    set(
        m,
        "approx.lookup_us",
        per_item_median(tracer, "approx.lookup") * 1e6,
    );
}

/// An index's answer to an unfair query as the suggestion a ranker would
/// give.
fn suggested(answer: Result<Answer, fairrank::FairRankError>) -> Result<Suggestion, String> {
    match answer {
        Ok(Answer::Suggested { weights, distance }) => Ok(Suggestion {
            weights,
            version: 0,
            fairness: KnownFairness::Suggested { distance },
            stats: SuggestStats {
                index_decided: false,
                top_k: None,
            },
        }),
        other => Err(format!("an unfair query got {other:?}")),
    }
}

/// The exact multi-dimensional layers on the `EXACT_3D` data: the
/// SATREGIONS build called directly, then MDBASELINE raw
/// (`closest_satisfactory`) and validated (`suggest_unfair`) on unfair
/// queries, each answer checked, and whether the reference's scan of the
/// cap around the query finds a fair direction closer than the answer.
///
/// MDBASELINE fails that nearest check on some queries (a fault of the
/// program, recorded in CHANGES.md). Those queries count as failed
/// operations rather than failing the run, so the queries and the scan
/// are the same in every run: the failed share does not follow the seed.
fn replay_md(tracer: &Tracer, m: &mut Metrics, errors: &mut Vec<String>, ops: &mut Ops) {
    let ds = setup::dataset(&EXACT_3D);
    let oracle = setup::oracle(&EXACT_3D, &ds);
    let reference = setup::reference(&EXACT_3D, &ds);
    let secs = |name: &str| per_item_median(tracer, name);
    tracer.time("md.hyperplanes", 0, 1, || exchange_hyperplanes(&ds));
    let regions = tracer.time("md.sat_regions", 0, 1, || {
        sat_regions(&ds, &oracle, &SatRegionsOptions::default())
    });
    set(m, "md.hyperplanes_s", secs("md.hyperplanes"));
    set(m, "md.sat_regions_s", secs("md.sat_regions"));
    let Ok(regions) = regions else {
        errors.push("sat_regions failed".into());
        return;
    };
    set(m, "md.hyperplanes", regions.hyperplane_count as f64);
    set(m, "md.regions", regions.region_count as f64);
    set(
        m,
        "md.satisfactory_regions",
        regions.satisfactory.len() as f64,
    );
    set(m, "md.build_oracle_calls", regions.oracle_calls as f64);

    let ranker = setup::build_ranker(&EXACT_3D, ds.clone(), Strategy::MdExact);
    let Some(exact) = ranker.backend().as_any().downcast_ref::<ExactRegions>() else {
        errors.push("the exact 3-D build made no exact-regions index".into());
        return;
    };
    if let Err(e) = check::check_witnesses(exact, &reference) {
        errors.push(e);
    }
    let mut reqs = Vec::new();
    Requests::new(0, crate::STREAM_REPLAY, ds.dim()).draw(
        |q| reference.is_fair(q),
        0,
        MD_QUERIES,
        &mut reqs,
    );
    let ctx = QueryCtx {
        ds: &ds,
        oracle: &oracle,
    };
    let mut largest_gap = 0.0f64;
    for (i, req) in reqs.iter().enumerate() {
        let angles = angles_of(&req.query);
        tracer.time("md.closest", i as u64 + 1, 1, || {
            baseline::closest_satisfactory(exact.regions(), &angles)
        });
        let answer = tracer.time("md.suggest", i as u64 + 1, 1, || {
            exact.suggest_unfair(&req.query, &ctx)
        });
        ops.attempted += 1;
        let checked = suggested(answer).and_then(|s| {
            check::check_answer(&reference, req, &s)?;
            Ok(s)
        });
        match checked {
            Ok(s) => {
                let KnownFairness::Suggested { distance } = s.fairness else {
                    unreachable!("built as a suggestion")
                };
                let gap = check::nearest_gap_3d(&reference, req, distance, i as u64);
                largest_gap = largest_gap.max(gap);
                if gap > check::SCAN_TOLERANCE {
                    ops.failed += 1;
                    eprintln!(
                        "NEAREST CHECK FAILED (counted in failed): {:?} answered at {distance:.6} rad, the reference scan found a fair direction {gap:.6} rad closer",
                        req.query
                    );
                }
            }
            Err(e) => errors.push(format!("exact 3-D: {e}")),
        }
    }
    set(m, "md.closest_ms", secs("md.closest") * 1e3);
    set(m, "md.suggest_ms", secs("md.suggest") * 1e3);
    set(m, "md.nearest_gap_rad", largest_gap);
}
