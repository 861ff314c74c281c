//! Medians and quartiles, computed as Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` compute them, so the numbers the
//! benchmark prints match the ones its spread is judged by.

/// Median, first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            median: median(&v),
            q1,
            q3,
            n: v.len(),
        })
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The "exclusive" method of `statistics.quantiles` with `n = 4`.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.median / quantiles(n=4) of the same samples
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (3.0, 1.5, 4.5));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.25, 3.75));
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (5.5, 2.75, 8.25));
        // two points extrapolate, as Python's exclusive method does
        let s = Summary::of(&[2.0, 8.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (5.0, 0.5, 9.5));
        // Python refuses one point; a single rep reports no spread
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert!(Summary::of(&[]).is_none());
    }
}
