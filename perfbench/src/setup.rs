//! Workload settings and set-up: the synthetic COMPAS data, the FM1-style
//! oracle, the index build, and the service (and HTTP server) over it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fairrank::approximate::BuildOptions;
use fairrank::{DatasetUpdate, FairRanker, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::compas::{self, CompasConfig};
use fairrank_datasets::Dataset;
use fairrank_fairness::Proportionality;
use fairrank_net::{HttpServer, ServerConfig};
use fairrank_serve::FairRankService;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::Reference;

/// A dataset and its constraint: the first `n` items of the program's
/// COMPAS generator at its default seed, the scoring attributes used, and
/// at most `cap_share` African-American items in the top 30%.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    pub n: usize,
    pub projection: &'static [usize],
    pub cap_share: f64,
}

/// The served data of both workloads: `start` and `c_days_from_compas`.
/// The paper's cap of 60% leaves this data no fair function at all.
pub const TWO_D: Data = Data {
    n: 1500,
    projection: &[3, 0],
    cap_share: 0.75,
};

/// The exact SATREGIONS index the traced run builds and queries: adds
/// `juv_other_count`; at most 2 of the top 6.
pub const EXACT_3D: Data = Data {
    n: 20,
    projection: &[3, 0, 1],
    cap_share: 0.34,
};

/// The approximate grid the traced run builds and queries: at most 4 of
/// the top 9, over `GRID_CELLS` cells.
pub const GRID_3D: Data = Data {
    n: 30,
    projection: &[3, 0, 1],
    cap_share: 0.5,
};
pub const GRID_CELLS: usize = 400;

/// What differs between the workloads. The values are recorded, with the
/// measurements they were chosen from, in the README.
#[derive(Debug, Clone)]
pub struct Settings {
    pub name: &'static str,
    /// Requests go through the HTTP server (else straight to the service).
    pub http: bool,
    /// The service's region-identity answer cache.
    pub cache: bool,
    /// The saturation rate the round sizes are planned for (measured on a
    /// 2-core host; see the README). It fixes how much work a run does,
    /// never a measured figure.
    expected_rps: f64,
}

/// Open-loop rate of the paced phase, in requests per second: requests
/// arrive 500 µs apart, so nearly every one waits out the service's
/// 200 µs coalescing window alone (see the README).
pub const PACED_RATE: f64 = 2_000.0;

/// Rounds per run; each is one timed saturation closed loop followed by
/// one stretch of the paced open loop.
pub const ROUNDS: usize = 30;
/// Share of `--seconds` planned for saturation; the paced phase gets the
/// rest.
const SAT_SHARE: f64 = 0.4;
/// Already-fair and unfair queries in each unit of requests.
const UNIT_FAIR: usize = 50;
const UNIT_UNFAIR: usize = 50;
const UNIT: usize = UNIT_FAIR + UNIT_UNFAIR;

impl Settings {
    /// Requests in each saturation round of a run of `seconds`.
    pub fn sat_len(&self, seconds: f64) -> usize {
        units(self.expected_rps * seconds * SAT_SHARE / ROUNDS as f64)
    }

    /// Requests in each paced stretch of a run of `seconds`.
    pub fn paced_len(seconds: f64) -> usize {
        units(PACED_RATE * seconds * (1.0 - SAT_SHARE) / ROUNDS as f64)
    }
}

/// Whole units of requests nearest `requests`, at least one.
fn units(requests: f64) -> usize {
    UNIT * ((requests / UNIT as f64).round() as usize).max(1)
}

pub fn settings(workload: &str) -> Option<Settings> {
    Some(match workload {
        "http_2d" => Settings {
            name: "http_2d",
            http: true,
            cache: true,
            expected_rps: 6_000.0,
        },
        "oracle_2d" => Settings {
            name: "oracle_2d",
            http: false,
            cache: false,
            expected_rps: 25_000.0,
        },
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 2] = ["http_2d", "oracle_2d"];

/// Share of the dataset ranked by the oracle ("the top 30%").
const TOP_SHARE: f64 = 0.3;
/// The protected group: African-American, group 0 of COMPAS `race`.
const PROTECTED: u32 = 0;

/// The dataset, generated by the program's COMPAS generator with its
/// default seed.
pub fn dataset(d: &Data) -> Dataset {
    compas::generate(&CompasConfig {
        n: d.n,
        ..CompasConfig::default()
    })
    .project(d.projection)
    .expect("projection within the COMPAS schema")
}

pub fn top_k(d: &Data) -> usize {
    ((d.n as f64 * TOP_SHARE).round() as usize).max(1)
}

pub fn oracle(d: &Data, ds: &Dataset) -> Proportionality {
    let race = ds.type_attribute("race").expect("COMPAS has race");
    Proportionality::new(race, top_k(d)).with_max_share(PROTECTED, d.cap_share)
}

/// The reference's copy of the dataset and constraint.
pub fn reference(d: &Data, ds: &Dataset) -> Reference {
    let k = top_k(d);
    let race = ds.type_attribute("race").expect("COMPAS has race");
    Reference::new(
        (0..ds.len()).map(|i| ds.row(i)).collect(),
        race.values.clone(),
        PROTECTED,
        k,
        (d.cap_share * k as f64).floor() as usize,
    )
}

pub fn build_ranker(d: &Data, ds: Dataset, strategy: Strategy) -> FairRanker {
    let oracle = oracle(d, &ds);
    FairRanker::builder(ds, Box::new(oracle))
        .strategy(strategy)
        .build()
        .expect("index builds")
}

pub fn approx_options() -> BuildOptions {
    BuildOptions {
        n_cells: GRID_CELLS,
        ..BuildOptions::default()
    }
}

/// Service settings that differ from the defaults: one worker, so answers
/// come back in submission order, and the cache as the workload says.
/// Batching (16 requests or 200 µs), queue (1024) and cache size (4096
/// entries) keep their defaults.
pub fn service(s: &Settings, ranker: FairRanker) -> FairRankService {
    FairRankService::builder(ranker)
        .workers(1)
        .cache(s.cache)
        .build()
}

/// HTTP server settings: two connection threads, one per client
/// connection of the load generator.
pub fn server(service: Arc<FairRankService>) -> HttpServer {
    HttpServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            submit_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port")
}

/// A running system: the service, and for `http_2d` the server in front.
pub struct System {
    pub service: Arc<FairRankService>,
    pub server: Option<HttpServer>,
}

impl System {
    pub fn start(s: &Settings) -> (System, Dataset, Duration) {
        let t = Instant::now();
        let ds = dataset(&TWO_D);
        let ranker = build_ranker(&TWO_D, ds.clone(), Strategy::TwoD);
        let service = Arc::new(service(s, ranker));
        let server = s.http.then(|| server(Arc::clone(&service)));
        (System { service, server }, ds, t.elapsed())
    }

    pub fn stop(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// Seeded queries: uniform weights in `[0.01, 1)` per attribute, drawn
/// in units with a fixed make-up judged by the reference.
pub struct Requests {
    draw: StdRng,
    dim: usize,
}

impl Requests {
    pub fn new(seed: u64, stream: u64, dim: usize) -> Self {
        Requests {
            draw: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream),
            dim,
        }
    }

    fn query(&mut self) -> Vec<f64> {
        (0..self.dim)
            .map(|_| self.draw.gen_range(0.01..1.0))
            .collect()
    }

    /// Draw until `fair` queries `is_fair` accepts and `unfair` it rejects
    /// are in `out`, in the order drawn.
    pub fn draw(
        &mut self,
        is_fair: impl Fn(&[f64]) -> bool,
        fair: usize,
        unfair: usize,
        out: &mut Vec<SuggestRequest>,
    ) {
        let (mut f, mut u) = (0, 0);
        while f < fair || u < unfair {
            let q = self.query();
            if is_fair(&q) {
                if f < fair {
                    f += 1;
                    out.push(SuggestRequest::new(q));
                }
            } else if u < unfair {
                u += 1;
                out.push(SuggestRequest::new(q));
            }
        }
    }

    /// `len` requests (a whole number of units) of the workload's make-up.
    pub fn units(&mut self, fair: &FairAngles, len: usize) -> Vec<SuggestRequest> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            self.draw(|q| fair.is_fair(q), UNIT_FAIR, UNIT_UNFAIR, &mut out);
        }
        out
    }

    pub fn unit(&mut self, fair: &FairAngles) -> Vec<SuggestRequest> {
        self.units(fair, UNIT)
    }
}

/// How the request generator tells fair 2-D queries from unfair ones: the
/// reference's fair intervals (ranking 1500 items per draw would cost more
/// than serving the request).
pub struct FairAngles(Vec<(f64, f64)>);

impl FairAngles {
    pub fn new(reference: &Reference) -> Self {
        FairAngles(reference.fair_intervals_2d())
    }

    pub fn is_fair(&self, q: &[f64]) -> bool {
        let theta = q[1].atan2(q[0]);
        let i = self.0.partition_point(|iv| iv.0 <= theta);
        i > 0 && theta < self.0[i - 1].1
    }
}

/// Seeded live updates for the traced run's update replay: insert,
/// rescore, remove, over and over, so the item count stays within one of
/// where it started. Applied updates are mirrored into the reference's
/// own copy of the rows, one copy per dataset version.
pub struct UpdateGen {
    rng: StdRng,
    /// Group count of every type attribute, and which one is `race`.
    group_counts: Vec<usize>,
    race: usize,
    step: usize,
    /// `versions[v]` is the reference at dataset version `v`.
    pub versions: Vec<Arc<Reference>>,
}

impl UpdateGen {
    pub fn new(seed: u64, ds: &Dataset, reference: Reference) -> Self {
        let race = ds
            .type_attributes()
            .iter()
            .position(|t| t.name == "race")
            .expect("COMPAS has race");
        UpdateGen {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x5eed),
            group_counts: ds
                .type_attributes()
                .iter()
                .map(|t| t.group_count())
                .collect(),
            race,
            step: 0,
            versions: vec![Arc::new(reference)],
        }
    }

    pub fn current(&self) -> &Reference {
        self.versions.last().expect("version 0 exists")
    }

    pub fn next(&mut self) -> DatasetUpdate {
        let n = self.current().len() as u32;
        let dim = self.current().rows[0].len();
        self.step += 1;
        match self.step % 3 {
            1 => DatasetUpdate::Insert {
                scores: (0..dim).map(|_| self.rng.gen_range(0.0..1.0)).collect(),
                groups: self
                    .group_counts
                    .iter()
                    .map(|&g| self.rng.gen_range(0..g as u32))
                    .collect(),
            },
            2 => DatasetUpdate::Rescore {
                item: self.rng.gen_range(0..n),
                scores: (0..dim).map(|_| self.rng.gen_range(0.0..1.0)).collect(),
            },
            _ => DatasetUpdate::Remove {
                item: self.rng.gen_range(0..n),
            },
        }
    }

    /// Mirror an update the service accepted.
    pub fn applied(&mut self, update: &DatasetUpdate) {
        let mut next = self.current().clone();
        match update {
            DatasetUpdate::Insert { scores, groups } => {
                next.rows.push(scores.clone());
                next.groups.push(groups[self.race]);
            }
            DatasetUpdate::Rescore { item, scores } => next.rows[*item as usize] = scores.clone(),
            DatasetUpdate::Remove { item } => {
                next.rows.remove(*item as usize);
                next.groups.remove(*item as usize);
            }
            other => panic!("the generator makes no {other:?}"),
        }
        self.versions.push(Arc::new(next));
    }
}
