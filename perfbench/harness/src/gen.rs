//! Seeded input generation. The benchmark owns its generator so the
//! program under test receives only the generated updates and requests,
//! and a change to the library's own workload helpers cannot move the
//! inputs.

use pts_stream::Update;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each
    /// workload part draws its own sequence from one benchmark seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn sign(&mut self) -> i64 {
        if self.next_u64() & 1 == 0 {
            1
        } else {
            -1
        }
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A zipf-shaped vector over `[0, n)`: `support` random coordinates, the
/// rank-`r` one with magnitude `round(top / r^s)` (at least 1) and a
/// random sign; every other coordinate is zero.
pub fn zipf_vector(n: usize, support: usize, top: f64, s: f64, rng: &mut Rng) -> Vec<i64> {
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut x = vec![0i64; n];
    for (rank, &i) in perm.iter().take(support).enumerate() {
        let mag = (top / ((rank + 1) as f64).powf(s)).round().max(1.0) as i64;
        x[i] = rng.sign() * mag;
    }
    x
}

/// A churny turnstile stream reaching `x`: each coordinate overshoots by
/// `|x_i|` and is pulled back, in steps of at most 64 updates per leg,
/// then the whole stream is shuffled (the shape of the engine's `s1`
/// throughput experiment).
pub fn churn_stream(x: &[i64], rng: &mut Rng) -> Vec<Update> {
    const MAX_STEPS: i64 = 64;
    let mut out = Vec::new();
    let mut emit = |i: u64, amount: i64| {
        let steps = amount.abs().min(MAX_STEPS);
        let chunk = amount / steps;
        for _ in 0..steps - 1 {
            out.push(Update::new(i, chunk));
        }
        out.push(Update::new(i, amount - chunk * (steps - 1)));
    };
    for (i, &v) in x.iter().enumerate() {
        if v != 0 {
            emit(i as u64, 2 * v);
            emit(i as u64, -v);
        }
    }
    rng.shuffle(&mut out);
    out
}

/// `len` small updates (|delta| in 1..=3) on uniform indices of `[0, n)`.
pub fn small_batch(n: usize, len: usize, rng: &mut Rng) -> Vec<Update> {
    (0..len)
        .map(|_| {
            let i = rng.below(n as u64);
            let d = rng.sign() * (1 + rng.below(3) as i64);
            Update::new(i, d)
        })
        .collect()
}

/// Zipf(s) over `m` ranks, each rank mapped to a random id in `1..=m`.
pub struct ZipfIds {
    cdf: Vec<f64>,
    ids: Vec<u64>,
}

impl ZipfIds {
    pub fn new(m: usize, s: f64, rng: &mut Rng) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=m)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        let cdf = cdf.into_iter().map(|c| c / total).collect();
        let mut ids: Vec<u64> = (1..=m as u64).collect();
        rng.shuffle(&mut ids);
        Self { cdf, ids }
    }

    pub fn pick(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.ids.len() - 1);
        self.ids[rank]
    }
}

/// The exact net vector the generator has sent: the reference every
/// served answer is checked against.
#[derive(Debug, Clone)]
pub struct Reference {
    pub x: Vec<i64>,
    pub updates: u64,
}

impl Reference {
    pub fn new(n: usize) -> Self {
        Self {
            x: vec![0; n],
            updates: 0,
        }
    }

    pub fn apply(&mut self, batch: &[Update]) {
        for u in batch {
            self.x[u.index as usize] += u.delta;
        }
        self.updates += batch.len() as u64;
    }

    pub fn support(&self) -> u64 {
        self.x.iter().filter(|&&v| v != 0).count() as u64
    }

    /// `Σ |x_i|^p` (`p = 0` counts the support).
    pub fn mass(&self, p: f64) -> f64 {
        self.x
            .iter()
            .filter(|&&v| v != 0)
            .map(|&v| {
                if p == 0.0 {
                    1.0
                } else {
                    (v.abs() as f64).powf(p)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_stream_reaches_its_target() {
        let mut rng = Rng::new(7, 0);
        let x = zipf_vector(256, 100, 500.0, 1.0, &mut rng);
        let mut r = Reference::new(256);
        r.apply(&churn_stream(&x, &mut rng));
        assert_eq!(r.x, x);
        assert_eq!(r.support(), 100);
    }

    #[test]
    fn zipf_ids_cover_the_id_range() {
        let mut rng = Rng::new(3, 1);
        let z = ZipfIds::new(50, 1.0, &mut rng);
        let mut seen = [false; 51];
        for _ in 0..20_000 {
            seen[z.pick(&mut rng) as usize] = true;
        }
        assert!(!seen[0] && seen[1..].iter().all(|&s| s));
    }
}
