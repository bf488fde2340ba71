//! `compare A B`: apply the bounds of `BENCHMARK.json` to two sets of
//! result files (each written by `run --json`), one row per (workload,
//! metric).
//!
//! Verdicts: `unresolved` when the run-to-run spread of either side
//! (quartile distance over median) is wider than the bound, else `worse`
//! or `better` when the medians differ by more than the bound in that
//! direction, else `same`.

use crate::json::{self, Value};
use crate::recorder::median_f64;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

#[derive(Clone, Debug)]
pub struct Bound {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json` with their bounds.
pub fn bounds(spec: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let mut out = BTreeMap::new();
    for m in spec
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_array()
    {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric without a bound")?;
        let better = m
            .get("better")
            .and_then(Value::as_str)
            .ok_or("metric without a direction")?;
        out.insert(
            name.to_string(),
            Bound {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    Ok(out)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Quartile distance as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    let median = median_f64(&mut values.to_vec());
    match quartiles(values) {
        Some((q1, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

pub fn verdict(base: &[f64], change: &[f64], b: &Bound) -> Verdict {
    if spread(base) > b.bound || spread(change) > b.bound {
        return Verdict::Unresolved;
    }
    let (mb, mc) = (
        median_f64(&mut base.to_vec()),
        median_f64(&mut change.to_vec()),
    );
    let worse_by = if b.higher_is_better { mb - mc } else { mc - mb };
    let limit = b.bound * mb.abs();
    if worse_by > limit {
        Verdict::Worse
    } else if -worse_by > limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// (workload, metric) → values, one per untraced run in the files.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn load(paths: &[&str]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        for run in doc
            .get("runs")
            .ok_or(format!("{path}: no runs"))?
            .as_array()
        {
            let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
            for (name, m) in run.get("metrics").map_or(&[][..], Value::fields) {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Print the table; returns how many rows are `worse` and `unresolved`.
pub fn report(
    base: &Samples,
    change: &Samples,
    bounds: &BTreeMap<String, Bound>,
) -> (usize, usize) {
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<16} {:>12} {:>21} {:>12} {:>21} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "base q1..q3",
        "new median",
        "new q1..q3",
        "change",
        "bound"
    );
    for ((workload, metric), a) in base {
        let (Some(b), Some(bound)) = (
            change.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let v = verdict(a, b, bound);
        worse += (v == Verdict::Worse) as usize;
        unresolved += (v == Verdict::Unresolved) as usize;
        let q = |v: &[f64]| {
            quartiles(v).map_or("-".to_string(), |(q1, q3)| format!("{q1:.4}..{q3:.4}"))
        };
        let (ma, mb) = (median_f64(&mut a.clone()), median_f64(&mut b.clone()));
        println!(
            "{workload:<14} {metric:<16} {ma:>12.4} {:>21} {mb:>12.4} {:>21} {:>+7.2}% {:>6.3}  {}",
            q(a),
            q(b),
            if ma != 0.0 {
                100.0 * (mb - ma) / ma
            } else {
                0.0
            },
            bound.bound,
            format!("{v:?}").to_lowercase()
        );
    }
    (worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let lower = Bound {
            higher_is_better: false,
            bound: 0.10,
        };
        let higher = Bound {
            higher_is_better: true,
            bound: 0.10,
        };
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&base, &[104.0, 105.0, 103.0], &lower),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], &lower),
            Verdict::Worse
        );
        assert_eq!(verdict(&base, &[80.0, 81.0, 79.0], &lower), Verdict::Better);
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], &higher),
            Verdict::Better
        );
        assert_eq!(verdict(&base, &[80.0, 81.0, 79.0], &higher), Verdict::Worse);
        assert_eq!(
            verdict(&base, &[60.0, 100.0, 140.0], &lower),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[100.0], &[100.0], &lower), Verdict::Same);
    }
}
