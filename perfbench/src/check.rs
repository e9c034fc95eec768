//! Output checks: every kept answer against the reference, nearest-answer
//! checks on a sample, and the index guards run after set-up.

use fairrank::approximate::ApproxIndex;
use fairrank::geometry::polar::to_polar;
use fairrank::md::ExactRegions;
use fairrank::{FairRanker, KnownFairness, SuggestRequest, Suggestion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::{angle, dot, from_polar, Reference};

/// How far a reported distance may sit from the reference's angle.
pub const DISTANCE_TOLERANCE: f64 = 1e-9;
/// Answers given the 2-D nearest sweep.
const NEAREST_SAMPLE: usize = 6;
/// Directions tried by the 3-D scan per answer.
const SCAN_DIRECTIONS: usize = 20_000;
/// How much closer than an answer a fair direction found by the 3-D scan
/// may be: the scan's directions are exact, so this only absorbs rounding.
pub const SCAN_TOLERANCE: f64 = 1e-6;

/// Check one answer; `Err` says what is wrong.
pub fn check_answer(
    reference: &Reference,
    req: &SuggestRequest,
    s: &Suggestion,
) -> Result<(), String> {
    let q = &req.query;
    match s.fairness {
        KnownFairness::AlreadyFair => {
            if !reference.is_fair(q) {
                return Err(format!(
                    "{q:?} answered already fair; the reference finds it unfair"
                ));
            }
            if s.weights != *q {
                return Err(format!(
                    "{q:?} answered already fair with other weights {:?}",
                    s.weights
                ));
            }
        }
        KnownFairness::Suggested { distance } => {
            if reference.is_fair(q) {
                return Err(format!(
                    "{q:?} got a suggestion; the reference finds it fair"
                ));
            }
            if !reference.is_fair(&s.weights) {
                return Err(format!(
                    "suggestion {:?} for {q:?} is unfair by the reference",
                    s.weights
                ));
            }
            let theta = angle(q, &s.weights);
            if (theta - distance).abs() > DISTANCE_TOLERANCE {
                return Err(format!(
                    "suggestion for {q:?} reports distance {distance}, the reference angle is {theta}"
                ));
            }
        }
        KnownFairness::Infeasible => {
            return Err(format!("{q:?} answered infeasible over a non-empty index"));
        }
    }
    Ok(())
}

/// How far a 2-D answer may sit inside its fair interval: the program
/// nudges an answer on an interval border up to 1e-7 rad inwards, off the
/// tie at the border.
pub const BORDER_NUDGE: f64 = 1e-7;

/// In 2-D, no fair angle lies strictly between a query and its suggestion,
/// farther than the border nudge from the suggestion.
pub fn check_nearest_2d(
    reference: &Reference,
    req: &SuggestRequest,
    s: &Suggestion,
) -> Result<(), String> {
    let theta = |w: &[f64]| w[1].atan2(w[0]);
    let (from, to) = (theta(&req.query), theta(&s.weights));
    let to = if from < to {
        to - BORDER_NUDGE
    } else {
        to + BORDER_NUDGE
    };
    match reference.fair_angle_between_2d(from, to) {
        None => Ok(()),
        Some(t) => Err(format!(
            "fair angle {t} lies between query {:?} (angle {}) and its suggestion {:?} (angle {}), version {}",
            req.query,
            theta(&req.query),
            s.weights,
            theta(&s.weights),
            s.version
        )),
    }
}

/// In 3-D, how much closer than the suggestion (`distance` from the query)
/// the nearest fair direction found by a scan of the cap around the query
/// is; 0 when the scan finds none closer. The scan's directions depend on
/// `scan` alone.
pub fn nearest_gap_3d(
    reference: &Reference,
    req: &SuggestRequest,
    distance: f64,
    scan: u64,
) -> f64 {
    let q = &req.query;
    let len = dot(q, q).sqrt();
    let unit: Vec<f64> = q.iter().map(|x| x / len).collect();
    // Two directions orthogonal to the query span its tangent plane.
    let pick = if unit[0].abs() < 0.9 {
        [1.0, 0.0, 0.0]
    } else {
        [0.0, 1.0, 0.0]
    };
    let mut a: Vec<f64> = pick
        .iter()
        .zip(&unit)
        .map(|(p, u)| p - dot(&pick, &unit) * u)
        .collect();
    let la = dot(&a, &a).sqrt();
    a.iter_mut().for_each(|x| *x /= la);
    let b = [
        unit[1] * a[2] - unit[2] * a[1],
        unit[2] * a[0] - unit[0] * a[2],
        unit[0] * a[1] - unit[1] * a[0],
    ];
    let mut rng = StdRng::seed_from_u64(scan);
    let mut gap = 0.0f64;
    for _ in 0..SCAN_DIRECTIONS {
        // Uniform over the cap of angular radius `distance`.
        let r = distance * rng.gen_range(0.0f64..1.0).sqrt();
        let phi = rng.gen_range(0.0..std::f64::consts::TAU);
        let w: Vec<f64> = (0..3)
            .map(|j| unit[j] * r.cos() + (a[j] * phi.cos() + b[j] * phi.sin()) * r.sin())
            .collect();
        if w.iter().any(|&x| x < 0.0) {
            continue;
        }
        let theta = angle(q, &w);
        if distance - theta > gap && reference.is_fair(&w) {
            gap = distance - theta;
        }
    }
    gap
}

/// An even sample of the suggested answers among `kept`.
fn suggested_sample(
    kept: &[(SuggestRequest, Suggestion)],
) -> impl Iterator<Item = &(SuggestRequest, Suggestion)> {
    let suggested: Vec<&(SuggestRequest, Suggestion)> = kept
        .iter()
        .filter(|(_, a)| matches!(a.fairness, KnownFairness::Suggested { .. }))
        .collect();
    let step = (suggested.len() / NEAREST_SAMPLE).max(1);
    suggested.into_iter().step_by(step).take(NEAREST_SAMPLE)
}

/// The 2-D index is not empty.
pub fn check_intervals(ranker: &FairRanker, cap_share: f64) -> Result<(), String> {
    let intervals = ranker.intervals().ok_or("no 2-D intervals")?;
    if intervals.is_empty() {
        return Err(format!("the 2-D index is empty at cap {cap_share}"));
    }
    Ok(())
}

/// The exact index is not empty and every SATREGIONS witness is fair.
pub fn check_witnesses(exact: &ExactRegions, reference: &Reference) -> Result<(), String> {
    if exact.regions().is_empty() {
        return Err("SATREGIONS found no satisfactory region".into());
    }
    for (i, region) in exact.regions().iter().enumerate() {
        if !reference.is_fair(&from_polar(&region.witness)) {
            return Err(format!("witness of satisfactory region {i} is unfair"));
        }
    }
    Ok(())
}

/// The grid holds a satisfactory function and every one of them is fair.
pub fn check_grid(index: &ApproxIndex, reference: &Reference) -> Result<(), String> {
    if !index.is_satisfiable() {
        return Err("the grid holds no satisfactory function".into());
    }
    for (i, f) in index.functions().iter().enumerate() {
        if !reference.is_fair(&from_polar(f)) {
            return Err(format!("grid function {i} is unfair"));
        }
    }
    Ok(())
}

/// Check 2-D answers against the reference of their dataset version, and
/// a sample of them for nearness. Returns every problem found.
pub fn check_answers(
    versions: &[std::sync::Arc<Reference>],
    kept: &[(SuggestRequest, Suggestion)],
) -> Vec<String> {
    let mut errors = Vec::new();
    for (req, answer) in kept {
        let Some(reference) = versions.get(answer.version as usize) else {
            errors.push(format!(
                "answer stamped with unknown version {}",
                answer.version
            ));
            continue;
        };
        if let Err(e) = check_answer(reference, req, answer) {
            errors.push(e);
        }
    }
    for (req, answer) in suggested_sample(kept) {
        if let Some(reference) = versions.get(answer.version as usize) {
            if let Err(e) = check_nearest_2d(reference, req, answer) {
                errors.push(e);
            }
        }
    }
    errors
}

/// HTTP answers are bit-identical to the in-process answers of the same
/// requests at the same version.
pub fn check_http_identity(
    ranker: &FairRanker,
    kept: &[(SuggestRequest, Suggestion)],
    sample: usize,
) -> Vec<String> {
    let mut errors = Vec::new();
    for (req, over_http) in kept.iter().take(sample) {
        let local = match ranker.respond_batch(std::slice::from_ref(req)) {
            Ok(mut v) => v.remove(0),
            Err(e) => {
                errors.push(format!("in-process answer failed: {e}"));
                continue;
            }
        };
        let bits = |s: &Suggestion| {
            let d = match s.fairness {
                KnownFairness::Suggested { distance } => distance.to_bits(),
                _ => 0,
            };
            (
                s.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                d,
                s.version,
            )
        };
        if local != *over_http || bits(&local) != bits(over_http) {
            errors.push(format!(
                "HTTP answer {over_http:?} differs from in-process {local:?}"
            ));
        }
    }
    errors
}

/// Polar angles of a query, through the program's conversion (the input
/// MDBASELINE takes).
pub fn angles_of(w: &[f64]) -> Vec<f64> {
    to_polar(w).1
}
