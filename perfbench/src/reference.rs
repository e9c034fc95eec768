//! The benchmark's own fairness reference, written apart from the
//! program: it shares no code with the crates under test. It scores an
//! item as a plain dot product (products accumulated in attribute order
//! from 0.0), ranks by score descending then item id ascending, counts the
//! protected group in the top k, and measures angles with `acos`.
//!
//! Every answer the benchmark checks is judged here, never by the
//! program's own oracle.

use std::f64::consts::FRAC_PI_2;

/// A dataset as the reference sees it: one row of scoring attributes per
/// item, the protected-attribute group of each item, and the FM1-style
/// constraint "at most `cap` items of group `protected` in the top `k`".
#[derive(Debug, Clone)]
pub struct Reference {
    pub rows: Vec<Vec<f64>>,
    pub groups: Vec<u32>,
    pub protected: u32,
    pub k: usize,
    pub cap: usize,
}

pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

fn length(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// The angle between two directions, in radians.
pub fn angle(a: &[f64], b: &[f64]) -> f64 {
    (dot(a, b) / (length(a) * length(b)))
        .clamp(-1.0, 1.0)
        .acos()
}

/// Unit weight vector of a polar angle vector: the last weight is
/// `sin θ_{d-1}`, each earlier one multiplies in the cosines of the
/// angles after it, and the first is the product of all cosines.
pub fn from_polar(angles: &[f64]) -> Vec<f64> {
    let d = angles.len() + 1;
    let mut w = vec![0.0; d];
    let mut cosines = 1.0;
    for j in (1..d).rev() {
        w[j] = angles[j - 1].sin() * cosines;
        cosines *= angles[j - 1].cos();
    }
    w[0] = cosines;
    w
}

impl Reference {
    pub fn new(
        rows: Vec<Vec<f64>>,
        groups: Vec<u32>,
        protected: u32,
        k: usize,
        cap: usize,
    ) -> Self {
        assert_eq!(rows.len(), groups.len());
        assert!(k > 0 && k <= rows.len());
        Reference {
            rows,
            groups,
            protected,
            k,
            cap,
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn score(&self, w: &[f64], item: usize) -> f64 {
        dot(&self.rows[item], w)
    }

    /// Item ids of the top `k` under `w`, best first.
    pub fn top_k(&self, w: &[f64]) -> Vec<u32> {
        let scores: Vec<f64> = (0..self.len()).map(|i| self.score(w, i)).collect();
        let better = |a: &u32, b: &u32| {
            scores[*b as usize]
                .partial_cmp(&scores[*a as usize])
                .expect("finite scores")
                .then(a.cmp(b))
        };
        let mut ids: Vec<u32> = (0..self.len() as u32).collect();
        if self.k < ids.len() {
            ids.select_nth_unstable_by(self.k - 1, better);
            ids.truncate(self.k);
        }
        ids.sort_by(better);
        ids
    }

    /// Members of the protected group among the top `k` under `w`.
    pub fn protected_in_top_k(&self, w: &[f64]) -> usize {
        self.top_k(w)
            .iter()
            .filter(|&&i| self.groups[i as usize] == self.protected)
            .count()
    }

    pub fn is_fair(&self, w: &[f64]) -> bool {
        self.protected_in_top_k(w) <= self.cap
    }

    /// Every angle in `[a, b)` inside `(0, π/2)` at which two items of a
    /// 2-attribute dataset swap order, with the pair, sorted by angle.
    pub fn swap_angles_2d(&self, a: f64, b: f64) -> Vec<(f64, u32, u32)> {
        let n = self.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let d0 = self.rows[i][0] - self.rows[j][0];
                let d1 = self.rows[i][1] - self.rows[j][1];
                // Scores tie where cos θ·d0 + sin θ·d1 = 0, which lies
                // inside the quadrant only when d0 and d1 differ in sign.
                if (d0 > 0.0 && d1 < 0.0) || (d0 < 0.0 && d1 > 0.0) {
                    let theta = (-d0 / d1).atan();
                    if theta >= a && theta < b {
                        out.push((theta, i as u32, j as u32));
                    }
                }
            }
        }
        out.sort_by(|x, y| x.0.total_cmp(&y.0));
        out
    }

    /// In 2-D, a fair angle strictly between `from` and `to` that lies in
    /// an ordering region wholly inside the interval — the region holding
    /// `from` and the one holding `to` are left to the callers, which
    /// check those two points directly.
    pub fn fair_angle_between_2d(&self, from: f64, to: f64) -> Option<f64> {
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let weights = |theta: f64| [theta.cos(), theta.sin()];
        self.sweep_2d(lo, hi, false, |a, b, count| {
            count <= self.cap && self.is_fair(&weights((a + b) / 2.0))
        })
        .map(|(a, b)| (a + b) / 2.0)
    }

    /// In 2-D, the fair angles of the quadrant as sorted, disjoint
    /// intervals: the reference's own answer to "is this direction fair?",
    /// exact everywhere but on the swap angles themselves.
    pub fn fair_intervals_2d(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        self.sweep_2d(0.0, FRAC_PI_2, true, |a, b, count| {
            if count <= self.cap {
                match out.last_mut() {
                    Some(last) if last.1 == a => last.1 = b,
                    _ => out.push((a, b)),
                }
            }
            false
        });
        out
    }

    /// Sweep the ranking across `(lo, hi)` one swap angle at a time,
    /// calling `visit(start, end, protected count in the top k)` for each
    /// ordering region in turn until it returns true; that region is
    /// returned. With `edges` the regions holding `lo` and `hi` are visited
    /// too, else only those wholly inside. A swap that is not between
    /// neighbours (a tie of three or more items) makes the sweep re-rank
    /// from scratch.
    fn sweep_2d(
        &self,
        lo: f64,
        hi: f64,
        edges: bool,
        mut visit: impl FnMut(f64, f64, usize) -> bool,
    ) -> Option<(f64, f64)> {
        const EDGE: f64 = 1e-12;
        let mut swaps = SwapStream::new(self, lo + EDGE, hi - EDGE);
        let mut start = if edges { lo } else { swaps.next_group()?.0 };
        let mut next = swaps.next_group();
        let end_of = |next: &Option<(f64, Vec<(u32, u32)>)>| match next {
            Some(group) => Some(group.0),
            None => edges.then_some(hi),
        };
        let mut end = end_of(&next)?;
        let mut ranking = Ranking::at(self, (start + end) / 2.0);
        loop {
            if visit(start, end, ranking.count) {
                return Some((start, end));
            }
            let (angle, pairs) = next?;
            let neighbours = pairs.iter().all(|&(i, j)| ranking.swap(self, i, j));
            start = angle;
            next = swaps.next_group();
            end = end_of(&next)?;
            if !neighbours {
                ranking = Ranking::at(self, (start + end) / 2.0);
            }
        }
    }
}

/// Slices of the quadrant in which a sweep computes the swap angles, one
/// slice at a time, so it holds about 1/32 of the n² item pairs at once.
const SLICES: f64 = 32.0;

/// The swap angles in `(from, to)` in ascending order, grouped by angle,
/// computed slice by slice.
struct SwapStream<'a> {
    reference: &'a Reference,
    from: f64,
    to: f64,
    width: f64,
    /// Start of the next slice to compute.
    next: f64,
    slice: Vec<(f64, u32, u32)>,
    pos: usize,
}

impl<'a> SwapStream<'a> {
    fn new(reference: &'a Reference, from: f64, to: f64) -> Self {
        SwapStream {
            reference,
            from,
            to,
            width: FRAC_PI_2 / SLICES,
            next: from,
            slice: Vec::new(),
            pos: 0,
        }
    }

    /// The next swap angle and every pair that swaps there.
    fn next_group(&mut self) -> Option<(f64, Vec<(u32, u32)>)> {
        while self.pos == self.slice.len() {
            if self.next >= self.to {
                return None;
            }
            let end = (self.next + self.width).min(self.to);
            self.slice = self.reference.swap_angles_2d(self.next, end);
            self.slice.retain(|s| s.0 > self.from);
            self.pos = 0;
            self.next = end;
        }
        let angle = self.slice[self.pos].0;
        let mut pairs = Vec::new();
        while self.pos < self.slice.len() && self.slice[self.pos].0 == angle {
            pairs.push((self.slice[self.pos].1, self.slice[self.pos].2));
            self.pos += 1;
        }
        Some((angle, pairs))
    }
}

/// The ranking of a 2-D sweep: item order, each item's position, and the
/// protected count in the top k.
struct Ranking {
    order: Vec<u32>,
    pos: Vec<usize>,
    count: usize,
}

impl Ranking {
    /// Rank from scratch at angle `theta`.
    fn at(r: &Reference, theta: f64) -> Self {
        let w = [theta.cos(), theta.sin()];
        let scores: Vec<f64> = (0..r.len()).map(|i| r.score(&w, i)).collect();
        let mut order: Vec<u32> = (0..r.len() as u32).collect();
        order.sort_by(|a, b| {
            scores[*b as usize]
                .partial_cmp(&scores[*a as usize])
                .expect("finite scores")
                .then(a.cmp(b))
        });
        let mut pos = vec![0; r.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i as usize] = p;
        }
        let count = order[..r.k]
            .iter()
            .filter(|&&i| r.groups[i as usize] == r.protected)
            .count();
        Ranking { order, pos, count }
    }

    /// Swap two neighbouring items; false (and nothing done) if they are
    /// not neighbours.
    fn swap(&mut self, r: &Reference, i: u32, j: u32) -> bool {
        let (pi, pj) = (self.pos[i as usize], self.pos[j as usize]);
        if pi.abs_diff(pj) != 1 {
            return false;
        }
        if pi.min(pj) + 1 == r.k {
            // The pair straddles the top-k boundary.
            let (inside, outside) = if pi < pj { (i, j) } else { (j, i) };
            let g = |x: u32| usize::from(r.groups[x as usize] == r.protected);
            self.count = self.count + g(outside) - g(inside);
        }
        self.order.swap(pi, pj);
        self.pos[i as usize] = pj;
        self.pos[j as usize] = pi;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four items in 2-D, groups A (0) and B (1); at most one A in the top 2.
    ///
    /// | id | x0  | x1  | group |
    /// |----|-----|-----|-------|
    /// | 0  | 1.0 | 0.0 | A     |
    /// | 1  | 0.9 | 0.2 | A     |
    /// | 2  | 0.0 | 1.0 | B     |
    /// | 3  | 0.5 | 0.5 | B     |
    fn tiny() -> Reference {
        Reference::new(
            vec![
                vec![1.0, 0.0],
                vec![0.9, 0.2],
                vec![0.0, 1.0],
                vec![0.5, 0.5],
            ],
            vec![0, 0, 1, 1],
            0,
            2,
            1,
        )
    }

    #[test]
    fn scores_are_plain_dot_products() {
        let r = tiny();
        assert_eq!(r.score(&[1.0, 1.0], 1), 1.1);
        assert_eq!(r.score(&[2.0, 0.5], 3), 1.25);
    }

    #[test]
    fn ranking_breaks_ties_by_id() {
        let r = tiny();
        // w = (1, 0): scores 1.0, 0.9, 0.0, 0.5 → 0, 1.
        assert_eq!(r.top_k(&[1.0, 0.0]), vec![0, 1]);
        // w = (1, 1): scores 1.0, 1.1, 1.0, 1.0 → 1, then 0 wins the tie
        // with 2 and 3 by id.
        assert_eq!(r.top_k(&[1.0, 1.0]), vec![1, 0]);
        // w = (0, 1): scores 0, 0.2, 1.0, 0.5 → 2, 3.
        assert_eq!(r.top_k(&[0.0, 1.0]), vec![2, 3]);
    }

    #[test]
    fn group_counts_decide_fairness() {
        let r = tiny();
        assert_eq!(r.protected_in_top_k(&[1.0, 0.0]), 2);
        assert!(!r.is_fair(&[1.0, 0.0]));
        assert_eq!(r.protected_in_top_k(&[0.0, 1.0]), 0);
        assert!(r.is_fair(&[0.0, 1.0]));
        // w = (1, 0.5): scores 1.0, 1.0, 0.5, 0.75 → ids 0, 1 (tie by id).
        assert!(!r.is_fair(&[1.0, 0.5]));
    }

    #[test]
    fn angles_by_arccos() {
        assert_eq!(angle(&[1.0, 0.0], &[0.0, 2.0]), std::f64::consts::FRAC_PI_2);
        assert!((angle(&[1.0, 1.0], &[3.0, 0.0]) - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert_eq!(angle(&[0.3, 0.4], &[0.6, 0.8]), 0.0);
    }

    #[test]
    fn polar_round_trip() {
        let w = from_polar(&[std::f64::consts::FRAC_PI_2]);
        assert!(w[0].abs() < 1e-16 && (w[1] - 1.0).abs() < 1e-16);
        // θ = (π/4, π/4): w = (cos²·, sin·cos, sin) = (1/2, 1/2, 1/√2).
        let q = std::f64::consts::FRAC_PI_4;
        let w = from_polar(&[q, q]);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!(
            (w[0] - 0.5).abs() < 1e-15 && (w[1] - 0.5).abs() < 1e-15 && (w[2] - h).abs() < 1e-15
        );
    }

    #[test]
    fn swap_angles_by_hand() {
        let r = tiny();
        let swaps = r.swap_angles_2d(0.0, FRAC_PI_2);
        // 0 vs 2: d = (1, -1) → θ = π/4.  0 vs 1: d = (0.1, -0.2) → atan(0.5).
        // 0 vs 3: d = (0.5, -0.5) → π/4.  1 vs 2: (0.9, -0.8) → atan(9/8).
        // 1 vs 3: (0.4, -0.3) → atan(4/3).  2 vs 3: (-0.5, 0.5) → π/4.
        assert_eq!(swaps.len(), 6);
        assert!((swaps[0].0 - 0.5f64.atan()).abs() < 1e-15);
        assert_eq!((swaps[0].1, swaps[0].2), (0, 1));
        assert!((swaps[5].0 - (4.0f64 / 3.0).atan()).abs() < 1e-15);
    }

    #[test]
    fn nearest_fair_angle_in_2d() {
        let r = tiny();
        let at = |t: f64| [t.cos(), t.sin()];
        // Unfair at θ = 0.1 (top 2 = {0, 1}). Items 0, 2 and 3 tie at π/4;
        // past it item 2 overtakes item 0 and the top 2 is {1, 2}: fair.
        assert!(!r.is_fair(&at(0.1)));
        assert!(!r.is_fair(&at(0.78)));
        assert!(r.is_fair(&at(0.79)));
        // So π/4 is the nearest fair angle to 0.1: no region wholly
        // between them is fair.
        let quarter = std::f64::consts::FRAC_PI_4;
        assert_eq!(r.fair_angle_between_2d(0.1, quarter), None);
        // Reaching on to 0.9 takes in (π/4, atan(9/8)) wholly; the triple
        // tie at π/4 forces a re-rank there.
        let found = r
            .fair_angle_between_2d(0.1, 0.9)
            .expect("fair region inside");
        assert!(found > quarter && found < (9.0f64 / 8.0).atan());
        // The sweep runs either way.
        assert!(r.fair_angle_between_2d(0.9, 0.1).is_some());
    }

    #[test]
    fn fair_intervals_in_2d() {
        // From the sweep above: unfair below π/4, fair from π/4 on (top 2
        // = {1, 2}, then {2, 1}, then {2, 3}).
        let intervals = tiny().fair_intervals_2d();
        let quarter = std::f64::consts::FRAC_PI_4;
        assert_eq!(intervals, vec![(quarter, FRAC_PI_2)]);
    }

    /// Sixty items from a fixed linear congruential sequence, half of them
    /// protected; at most 6 protected in the top 12.
    fn sixty() -> Reference {
        let mut x = 12345u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<Vec<f64>> = (0..60).map(|_| vec![next(), next()]).collect();
        let groups = (0..60).map(|i| (i % 2) as u32).collect();
        Reference::new(rows, groups, 0, 12, 6)
    }

    #[test]
    fn sliced_sweep_agrees_with_ranking_at_each_angle() {
        // 1770 item pairs spread over the 32 slices: the intervals the
        // sweep finds match a direct ranking at every sampled angle.
        let r = sixty();
        let intervals = r.fair_intervals_2d();
        assert!(!intervals.is_empty());
        let swaps = r.swap_angles_2d(0.0, FRAC_PI_2);
        for step in 1..4000 {
            let theta = FRAC_PI_2 * f64::from(step) / 4000.0;
            if swaps.iter().any(|s| (s.0 - theta).abs() < 1e-9) {
                continue;
            }
            let i = intervals.partition_point(|iv| iv.0 <= theta);
            let by_sweep = i > 0 && theta < intervals[i - 1].1;
            assert_eq!(
                by_sweep,
                r.is_fair(&[theta.cos(), theta.sin()]),
                "θ = {theta}"
            );
        }
    }
}
