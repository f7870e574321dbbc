//! Order statistics and the seeded generator the workloads draw from.
//!
//! Timing rule: a timing is reported as its median plus the highest
//! percentile that still has at least [`TAIL_MIN_BEYOND`] samples beyond
//! it, together with the sample count ([`Summary`]).

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Sorted copy of `xs` (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `xs` (mean of the two middle samples for even counts);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `p` percentile among `n` samples:
/// `ceil(p * n / 100)`, with the product taken first so that whole
/// ranks (p99 of 1000) come out exact, clamped to `1..=n`.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    r.min(n.max(1))
}

/// Nearest-rank percentile of already sorted samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, with its value; `None` when even the lowest
/// candidate lacks the samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| beyond(sorted.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Quartiles exactly as Python's `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method) computes them. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        out[i as usize - 1] = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    Some(out)
}

/// Median, stated tail and sample count of one timing.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        Summary {
            n: v.len(),
            p50: median(&v),
            tail: tail(&v),
        }
    }

    /// One human-readable line: `name p50=… p99=… (n=…)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "{name}: p50={:.4}{unit} p{p}={:.4}{unit} (n={})",
                self.p50, v, self.n
            ),
            None => format!(
                "{name}: p50={:.4}{unit} (n={}, too few for a tail)",
                self.p50, self.n
            ),
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// reproduces one input stream exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    /// A child stream, independent of the parent's later draws.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// An endless request-kind stream with fixed proportions: each deck of
/// `counts` (kind, copies) is shuffled by the seed and dealt in full
/// before the next, so every complete deck holds the exact mix and the
/// seed only changes the order.
pub struct Deck<K: Copy> {
    rng: Rng,
    deck: Vec<K>,
    pos: usize,
}

impl<K: Copy> Deck<K> {
    pub fn new(rng: Rng, counts: &[(K, usize)]) -> Deck<K> {
        let deck: Vec<K> = counts
            .iter()
            .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
            .collect();
        let pos = deck.len();
        Deck { rng, deck, pos }
    }

    pub fn deal(&mut self) -> K {
        if self.pos == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.pos = 0;
        }
        self.pos += 1;
        self.deck[self.pos - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99 rank is ceil(989.01) = 990, leaving 9 — so p95.
        assert_eq!(tail(&xs).map(|t| t.0), Some(95.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
        // 30 samples: p75 leaves 7 beyond, too few for any stated tail.
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), None);
        assert_eq!(
            tail(&(0..10_000).map(f64::from).collect::<Vec<_>>()).map(|t| t.0),
            Some(99.9)
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 51.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn deck_keeps_exact_proportions_and_is_seeded() {
        let counts = [('a', 3), ('b', 1)];
        let mut d = Deck::new(Rng::new(7), &counts);
        let dealt: Vec<char> = (0..40).map(|_| d.deal()).collect();
        for deck in dealt.chunks(4) {
            assert_eq!(deck.iter().filter(|&&c| c == 'a').count(), 3);
        }
        let mut again = Deck::new(Rng::new(7), &counts);
        assert!(dealt.iter().all(|&c| c == again.deal()));
    }
}
