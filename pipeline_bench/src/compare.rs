//! `pipeline_bench compare A.jsonl B.jsonl`: the parent (A) against a
//! change (B), workload by workload and metric by metric.
//!
//! Each file holds the record lines of runs (the lines with a
//! `"workload"` key); other lines are ignored. The i-th run of a
//! workload in A is paired with the i-th in B, so A and B must be run
//! alternately. The rule is the one a change must meet:
//!
//! * a **gain** needs at least [`MIN_PAIRS`] pairs, B winning at least
//!   nine in ten of them (ties count for neither side), and the medians
//!   differing by more than A's interquartile range;
//! * where either side's spread (interquartile range over median) is
//!   wider than the metric's bound, the metric is **unresolved**,
//!   unless every run of B reads better than every run of A;
//! * otherwise B's median worse than A's by more than the bound is a
//!   **regression**.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use denali_trace::json::{self, Json};

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::quartiles;

pub const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Better,
    Unchanged,
    Regression,
    Unresolved,
}

#[derive(Debug)]
pub struct Judgement {
    pub verdict: Verdict,
    pub pairs: usize,
    pub wins: usize,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
}

/// Judges B's values of one metric against A's.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Judgement {
    let pairs = a.len().min(b.len());
    let (a, b) = (&a[..pairs], &b[..pairs]);
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let qa = quartiles(a);
    let qb = quartiles(b);
    let relative = |q: (f64, f64, f64)| {
        let spread = q.2 - q.0;
        if spread == 0.0 {
            0.0
        } else {
            spread / q.1.abs()
        }
    };
    let worse_by = {
        let gap = match def.better {
            Better::Lower => qb.1 - qa.1,
            Better::Higher => qa.1 - qb.1,
        };
        if gap <= 0.0 {
            0.0
        } else if qa.1 == 0.0 {
            f64::INFINITY
        } else {
            gap / qa.1.abs()
        }
    };
    let bound = def.bound.unwrap_or(0.0);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(qb.1, qa.1)
        && (qb.1 - qa.1).abs() > qa.2 - qa.0
    {
        Verdict::Gain
    } else if relative(qa).max(relative(qb)) > bound {
        if all_better && pairs > 0 {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    };
    Judgement {
        verdict,
        pairs,
        wins,
        a: qa,
        b: qb,
    }
}

type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Record lines of `path`, grouped by workload, in file order.
fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for line in text.lines() {
        let Ok(record) = json::parse(line.trim()) else {
            continue;
        };
        let (Some(workload), Some(Json::Obj(metrics))) = (
            record.get("workload").and_then(Json::as_str),
            record.get("metrics"),
        ) else {
            continue;
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_owned()).or_default().push(values);
    }
    Ok(runs)
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pipeline_bench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressions = 0;
    let mut unresolved = 0;
    println!(
        "{:<12} {:<20} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<12} missing from B");
            unresolved += 1;
            continue;
        };
        for def in END_TO_END {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let j = judge(def, &va, &vb);
            regressions += usize::from(j.verdict == Verdict::Regression);
            unresolved += usize::from(j.verdict == Verdict::Unresolved);
            let side = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
            println!(
                "{workload:<12} {:<20} {:>34} {:>34} {:>3}/{:<2}  {:?}{}",
                def.name,
                side(j.a),
                side(j.b),
                j.wins,
                j.pairs,
                j.verdict,
                if j.pairs < MIN_PAIRS {
                    " (too few pairs to claim a gain)"
                } else {
                    ""
                }
            );
        }
    }
    println!("{regressions} regressions, {unresolved} unresolved");
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef = MetricDef {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.1),
    };

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 / 9.0 - 0.5))
            .collect()
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        let a = around(100.0, 2.0);
        let b = around(80.0, 2.0);
        assert_eq!(judge(&LATENCY, &a, &b).verdict, Verdict::Gain);
        // Nine pairs are too few to claim it.
        assert_ne!(judge(&LATENCY, &a[..9], &b[..9]).verdict, Verdict::Gain);
        // Higher-is-better metrics win the other way.
        let rate = MetricDef {
            better: Better::Higher,
            ..LATENCY
        };
        assert_eq!(judge(&rate, &b, &a).verdict, Verdict::Gain);
    }

    #[test]
    fn a_steady_slowdown_beyond_the_bound_is_a_regression() {
        let a = around(100.0, 2.0);
        let b = around(120.0, 2.0);
        assert_eq!(judge(&LATENCY, &a, &b).verdict, Verdict::Regression);
        // Within the bound it is not.
        let b = around(105.0, 2.0);
        assert_eq!(judge(&LATENCY, &a, &b).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = around(100.0, 60.0);
        let b = around(120.0, 60.0);
        assert_eq!(judge(&LATENCY, &a, &b).verdict, Verdict::Unresolved);
        // Unless every run of B beats every run of A.
        let b = around(20.0, 10.0);
        let verdict = judge(&LATENCY, &a, &b[..9]).verdict;
        assert_eq!(verdict, Verdict::Better);
    }

    #[test]
    fn deterministic_counts_regress_on_any_change() {
        let cycles = MetricDef {
            name: "cycles_total",
            unit: "cycles",
            better: Better::Lower,
            bound: Some(0.01),
        };
        assert_eq!(
            judge(&cycles, &[40.0; 5], &[40.0; 5]).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&cycles, &[40.0; 5], &[41.0; 5]).verdict,
            Verdict::Regression
        );
    }
}
