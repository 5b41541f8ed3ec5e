//! The benchmark's own statistics: percentile estimates, geometric means
//! and failure accounting.

use std::collections::BTreeMap;

/// Harrell–Davis estimate of quantile `p` (in `0..=1`): a weighted mean
/// of all order statistics with Beta(`p(n+1)`, `(1−p)(n+1)`) weights. It
/// averages the neighbours of the nearest rank, so one operation's jitter
/// moves it far less than it moves a single order statistic. `None` when
/// there are no samples.
pub fn harrell_davis(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = incomplete_beta((i + 1) as f64 / n, a, b);
        estimate += (upto - below) * x;
        below = upto;
    }
    Some(estimate)
}

/// Regularized incomplete beta function `I_x(a, b)` (Numerical Recipes'
/// continued fraction with Lentz's method).
fn incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=300 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` by the Lanczos approximation (g = 7, nine terms), with the
/// reflection formula below 1/2.
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Geometric mean of positive values; `None` when empty or when any value
/// is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Arithmetic mean; 0 for no samples (per-layer counters of a bypassed
/// layer read 0, which is the "no change" prediction made visible).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Why an operation counts as failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Cause {
    /// The call returned an error.
    Error(String),
    /// A proof was expected but the status was neither optimal nor
    /// infeasible.
    NotProven(String),
    /// A time limit or deadline cut the operation short.
    Truncated(String),
    /// `validate` reported constraint violations.
    Invalid(String),
    /// The returned objective disagrees with the deployment's recomputed
    /// energy, a golden optimum or an earlier answer to the same request.
    Mismatch(String),
    /// The heuristic found no feasible deployment.
    HeuristicInfeasible(String),
    /// A proven answer has no golden entry to be compared with.
    Unchecked(String),
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, detail) = match self {
            Cause::Error(d) => ("error", d),
            Cause::NotProven(d) => ("not-proven", d),
            Cause::Truncated(d) => ("truncated", d),
            Cause::Invalid(d) => ("invalid", d),
            Cause::Mismatch(d) => ("mismatch", d),
            Cause::HeuristicInfeasible(d) => ("heuristic-infeasible", d),
            Cause::Unchecked(d) => ("unchecked", d),
        };
        write!(f, "{kind}: {detail}")
    }
}

/// Attempted and failed operations, with the cause of every failure.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    attempted: u64,
    failures: Vec<(String, Cause)>,
}

impl Tally {
    /// Records one operation: `Ok` passed every check, `Err` names why not.
    pub fn record(&mut self, op: &str, verdict: Result<(), Cause>) {
        self.attempted += 1;
        if let Err(cause) = verdict {
            self.failures.push((op.to_string(), cause));
        }
    }

    /// Operations recorded.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed a check.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Share of operations that passed every check (1 when none ran).
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed()) as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's operations to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Every failure as `(operation, cause)`.
    pub fn failures(&self) -> &[(String, Cause)] {
        &self.failures
    }
}

/// Named sample lists, e.g. per-layer timings collected per call.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Appends one sample under `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }

    /// The samples under `name` (empty when none were recorded).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Mean of the samples under `name`, 0 when none.
    pub fn mean(&self, name: &str) -> f64 {
        mean(self.get(name))
    }

    /// Sum of the samples under `name`, 0 when none.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        for x in [0.1, 0.37, 0.5, 0.93] {
            assert!((incomplete_beta(x, 1.0, 1.0) - x).abs() < 1e-12);
            assert!((incomplete_beta(x, 1.0, 3.5) - (1.0 - (1.0 - x).powf(3.5))).abs() < 1e-12);
            assert!((incomplete_beta(x, 2.5, 1.0) - x.powf(2.5)).abs() < 1e-12);
        }
        assert!((incomplete_beta(0.5, 20.5, 20.5) - 0.5).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_weighs_the_neighbours_of_the_rank() {
        let samples: Vec<f64> = (1..=41).rev().map(f64::from).collect();
        let median = harrell_davis(&samples, 0.5).unwrap();
        assert!((median - 21.0).abs() < 1e-9, "symmetric data: {median}");
        assert!((harrell_davis(&[4.0; 12], 0.9).unwrap() - 4.0).abs() < 1e-12);
        let p75 = harrell_davis(&samples, 0.75).unwrap();
        let p90 = harrell_davis(&samples, 0.9).unwrap();
        assert!(median < p75 && p75 < p90 && p90 < 41.0);
        assert!((p75 - 31.5).abs() < 0.5, "{p75}");
        assert_eq!(harrell_davis(&[], 0.5), None);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.5]).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn every_kind_of_failure_counts_against_the_attempted_ops() {
        let mut t = Tally::default();
        t.record("ok", Ok(()));
        t.record("error", Err(Cause::Error("solve: numerical trouble".into())));
        t.record("truncated", Err(Cause::Truncated("time limit".into())));
        t.record("mismatch", Err(Cause::Mismatch("golden 1.0 got 1.1".into())));
        t.record("unchecked", Err(Cause::Unchecked("no golden answer".into())));
        t.record("ok2", Ok(()));
        assert_eq!(t.attempted(), 6);
        assert_eq!(t.failed(), 4);
        assert!((t.ok_share() - 2.0 / 6.0).abs() < 1e-12);
        let names: Vec<&str> = t.failures().iter().map(|(op, _)| op.as_str()).collect();
        assert_eq!(names, ["error", "truncated", "mismatch", "unchecked"]);
        assert_eq!(Tally::default().ok_share(), 1.0);
    }

    #[test]
    fn samples_aggregate_by_name() {
        let mut s = Samples::default();
        s.push("a", 1.0);
        s.push("a", 3.0);
        assert_eq!(s.mean("a"), 2.0);
        assert_eq!(s.sum("a"), 4.0);
        assert_eq!(s.mean("missing"), 0.0);
        assert!(s.get("missing").is_empty());
    }
}
