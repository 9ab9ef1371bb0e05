//! Order statistics, sampling and digests.

/// SplitMix64: the seed expander every generated input derives from.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Folds `h` into an order-dependent running digest: swapping two
/// folded values changes the result.
pub fn fold(digest: u64, h: u64) -> u64 {
    splitmix64(digest.rotate_left(17) ^ h)
}

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with
/// at least `q * n` samples at or below it. Exact, never interpolated.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle two for even counts), the
/// same rule as Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads read the same as
/// the tools that judge them. With fewer than two values both are that
/// value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Uniform fixed-capacity sample of a stream (Vitter's algorithm R).
/// Streams no longer than the capacity are kept whole, so their
/// quantiles are exact; longer ones keep memory constant, so a faster
/// system does not read as a bigger one.
pub struct Reservoir {
    samples: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// An empty reservoir of `cap` samples; `seed` drives replacement.
    pub fn new(cap: usize, seed: u64) -> Self {
        Self {
            samples: Vec::with_capacity(cap),
            cap,
            seen: 0,
            rng: seed,
        }
    }

    /// Offers one observation.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            self.rng = splitmix64(self.rng);
            let j = self.rng % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = v;
            }
        }
    }

    /// Moves every sample of `other` in (an exact union while both fit).
    pub fn absorb(&mut self, other: Reservoir) {
        for v in other.samples {
            self.push(v);
        }
    }

    /// The kept samples, ascending.
    pub fn sorted(mut self) -> Vec<u64> {
        self.samples.sort_unstable();
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_exact_on_one_to_a_thousand() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 0.001), 1);
        assert_eq!(quantile(&v, 0.25), 250);
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.9), 900);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(quantile(&v, 1.0), 1000);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn reservoir_keeps_short_streams_whole() {
        let mut r = Reservoir::new(8, 1);
        for v in [5, 3, 9] {
            r.push(v);
        }
        assert_eq!(r.sorted(), vec![3, 5, 9]);
        let mut r = Reservoir::new(8, 1);
        for v in 0..10_000 {
            r.push(v);
        }
        assert_eq!(r.sorted().len(), 8);
    }

    #[test]
    fn fold_is_order_dependent() {
        let (a, b) = (fnv1a(b"OK 1,2"), fnv1a(b"OK 2,1"));
        assert_ne!(fold(fold(0, a), b), fold(fold(0, b), a));
    }
}
