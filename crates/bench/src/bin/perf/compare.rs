//! `perf compare A.json B.json`: applies each end-to-end metric's bound to
//! two sets of runs (A the baseline, B the candidate), one row per
//! workload x metric. This is what "two sets of runs agree" runs.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::{Better, Bound, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// settle it either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
        }
    }
}

/// Judges candidate values `b` against baseline values `a`.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Work in "lower is better" space so one set of comparisons serves.
    let sign = if metric.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let a: Vec<f64> = a.iter().map(|v| v * sign).collect();
    let b: Vec<f64> = b.iter().map(|v| v * sign).collect();
    let (med_a, med_b) = (median(&a), median(&b));
    let (share, floor) = match metric.bound {
        Bound::Exact => {
            return match med_b.total_cmp(&med_a) {
                std::cmp::Ordering::Less => Verdict::Better,
                std::cmp::Ordering::Equal => Verdict::Within,
                std::cmp::Ordering::Greater => Verdict::Worse,
            };
        }
        Bound::Relative { share, floor } => (share, floor),
    };
    let allowed = (share * med_a.abs()).max(floor);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if max(&b) < min(&a) && med_a - med_b > allowed {
        return Verdict::Better;
    }
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |[q1, _, q3]| q3 - q1);
    if iqr(&a).max(iqr(&b)) > allowed {
        Verdict::Unresolved
    } else if med_b - med_a > allowed {
        Verdict::Worse
    } else if med_a - med_b > allowed {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The runs of a result file: one result object, or an array of them.
pub fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match Json::parse(&text).map_err(|e| format!("{path}: {e}"))? {
        Json::Arr(runs) => Ok(runs),
        run @ Json::Obj(_) => Ok(vec![run]),
        _ => Err(format!(
            "{path}: expected a result object or an array of them"
        )),
    }
}

fn field<'a>(run: &'a Json, key: &str) -> Option<&'a str> {
    run.get(key).and_then(Json::as_str)
}

/// Values of `metric` per workload, over the untraced runs of one file.
fn values(runs: &[Json], metric: &str) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for run in runs {
        let value = run
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        if let (Some(workload), Some(value)) = (field(run, "workload"), value) {
            out.entry(workload.to_string()).or_default().push(value);
        }
    }
    out
}

/// `sim_digest` per (workload, seed, size): runs of the same inputs must
/// agree on it across both files.
fn digests(runs: &[Json]) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for run in runs {
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0);
        if let (Some(w), Some(size), Some(digest)) = (
            field(run, "workload"),
            field(run, "size"),
            field(run, "sim_digest"),
        ) {
            out.entry(format!("{w} seed={seed} size={size}"))
                .or_default()
                .push(digest.to_string());
        }
    }
    out
}

/// The runs that report `correct: false`, as `workload seed=N`.
fn incorrect(runs: &[Json]) -> Vec<String> {
    let wrong = |run: &&Json| run.get("correct") != Some(&Json::Bool(true));
    runs.iter()
        .filter(wrong)
        .map(|run| {
            let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0);
            format!("{} seed={seed}", field(run, "workload").unwrap_or("?"))
        })
        .collect()
}

/// Prints one row per workload x metric and returns whether the sets agree:
/// no metric is worse, every run is correct, and everything A measured
/// (workload, metric, `sim_digest` of the same inputs) B measured too, so a
/// candidate whose workload crashed or never ran cannot pass.
pub fn compare(a: &[Json], b: &[Json]) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<20} {:>14} {:>14}  verdict",
        "workload", "metric", "A median", "B median"
    );
    for metric in &END_TO_END {
        let (va, vb) = (values(a, metric.name), values(b, metric.name));
        for (workload, xs) in &va {
            let Some(ys) = vb.get(workload) else {
                ok = false;
                println!(
                    "{workload:<18} {:<20} {:>14.4} {:>14}  MISSING from B",
                    metric.name,
                    median(xs),
                    "-"
                );
                continue;
            };
            let verdict = judge(metric, xs, ys);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<18} {:<20} {:>14.4} {:>14.4}  {} (n={}/{})",
                metric.name,
                median(xs),
                median(ys),
                verdict.label(),
                xs.len(),
                ys.len()
            );
        }
    }
    let (da, db) = (digests(a), digests(b));
    for (inputs, seen) in &da {
        let verdict = match db.get(inputs) {
            None => "MISSING from B",
            Some(theirs) if seen.iter().chain(theirs).all(|d| d == &seen[0]) => "identical",
            Some(_) => "DIFFERS",
        };
        ok &= verdict == "identical";
        println!("{inputs}: sim_digest {verdict}");
    }
    for (set, runs) in [("A", a), ("B", b)] {
        for run in incorrect(runs) {
            ok = false;
            println!("{set}: {run} reports correct=false");
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn relative_bounds_separate_noise_from_regressions() {
        let wall = metric("wall_s");
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(
            judge(wall, &a, &[10.4, 10.5, 10.3, 10.45, 10.35]),
            Verdict::Within
        );
        assert_eq!(
            judge(wall, &a, &[11.4, 11.5, 11.3, 11.45, 11.35]),
            Verdict::Worse
        );
        assert_eq!(
            judge(wall, &a, &[8.4, 8.5, 8.3, 8.45, 8.35]),
            Verdict::Better
        );
        // Spread wider than the 10 % bound: the medians settle nothing...
        let noisy = [8.0, 12.0, 10.0, 13.5, 7.0];
        assert_eq!(
            judge(wall, &noisy, &[11.5, 9.0, 12.5, 14.0, 8.5]),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every baseline run.
        assert_eq!(
            judge(wall, &noisy, &[5.0, 6.0, 5.5, 6.5, 4.0]),
            Verdict::Better
        );
    }

    #[test]
    fn higher_is_better_metrics_flip() {
        let rate = metric("sim_ktxn_per_s");
        assert_eq!(
            judge(rate, &[30.0, 30.2, 29.8], &[25.0, 25.1, 24.9]),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &[30.0, 30.2, 29.8], &[36.0, 36.1, 35.9]),
            Verdict::Better
        );
    }

    #[test]
    fn absolute_floor_forgives_tiny_setups_and_exact_forgives_nothing() {
        let setup = metric("setup_s");
        assert_eq!(
            judge(setup, &[0.10], &[0.14]),
            Verdict::Within,
            "40 % of 0.1 s is under the 0.05 s floor"
        );
        assert_eq!(judge(setup, &[0.10], &[0.16]), Verdict::Worse);
        let tpmc = metric("sim_tpmc");
        assert_eq!(judge(tpmc, &[2400.0], &[2400.0]), Verdict::Within);
        assert_eq!(judge(tpmc, &[2400.0], &[2399.9]), Verdict::Worse);
        assert_eq!(
            judge(metric("sim_lost_txns"), &[3.0], &[4.0]),
            Verdict::Worse
        );
        assert_eq!(judge(metric("fail_ratio"), &[0.0], &[0.0]), Verdict::Within);
    }

    fn run(workload: &str, wall_s: Option<f64>, digest: &str, correct: bool) -> Json {
        let metrics = wall_s.map(|v| ("wall_s", Json::obj([("value", Json::Num(v))])));
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(42.0)),
            ("size", Json::str("full")),
            ("correct", Json::Bool(correct)),
            ("sim_digest", Json::str(digest)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    #[test]
    fn what_a_measured_and_b_did_not_fails_the_comparison() {
        let a = [
            run("oltp_fit", Some(8.0), "d1", true),
            run("oltp_spill", Some(12.0), "d2", true),
        ];
        assert!(compare(&a, &a));
        assert!(!compare(&a, &a[..1]), "a workload B never ran");
        let null_metric = [a[0].clone(), run("oltp_spill", None, "d2", true)];
        assert!(!compare(&a, &null_metric), "a metric B did not report");
        let other_digest = [a[0].clone(), run("oltp_spill", Some(12.0), "d3", true)];
        assert!(!compare(&a, &other_digest));
        let incorrect = [a[0].clone(), run("oltp_spill", Some(12.0), "d2", false)];
        assert!(!compare(&a, &incorrect), "a run that failed its checks");
        assert!(compare(&a[..1], &a), "B may measure more than A");
    }
}
