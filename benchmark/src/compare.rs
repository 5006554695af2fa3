//! `compare <a.json> <b.json>`: judges the second report against the
//! first, one row per (end-to-end metric, workload), with the bounds
//! of [`crate::spec::END_TO_END`]. This is the check two sets of runs
//! of the same code must pass, and the one a change is held to.

use lagover_jsonio::{parse, FromJson, Json};

use crate::spec::END_TO_END;
use crate::stats::{number, summarize, Summary};

/// What `compare` says about one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second median is no worse than the first by more than the
    /// bound.
    Ok,
    /// It is worse by more than the bound.
    Worse,
    /// The spread between a set's quartiles exceeds the bound and the
    /// two sets' samples overlap, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against set `a`.
///
/// `b` is worse when its median is worse than `a`'s by *more than*
/// `bound` as a share of `a`'s median (exactly the bound is still ok;
/// a bound of zero makes any worsening count). When either set's
/// interquartile spread exceeds the bound the medians are not trusted:
/// the verdict is `Unresolved` unless the sets are disjoint — every
/// sample of `b` at least as good as every sample of `a` is `Ok`,
/// every sample worse with a worse median is `Worse`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb): (Summary, Summary) = (summarize(a), summarize(b));
    // Orient so that larger means worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (sb.median - sa.median);
    let is_worse = worse_by > bound * sa.median.abs();
    if sa.spread().max(sb.spread()) <= bound {
        return if is_worse {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    let worst = |s: &Summary| if lower_is_better { s.max } else { -s.min };
    let best = |s: &Summary| if lower_is_better { s.min } else { -s.max };
    if worst(&sb) <= best(&sa) {
        Verdict::Ok
    } else if is_worse && best(&sb) > worst(&sa) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn get<'a>(value: &'a Json, key: &str, path: &str) -> Result<&'a Json, String> {
    value.get(key).map_err(|e| format!("{path}: {e}"))
}

fn samples(row: &Json, path: &str) -> Result<Vec<f64>, String> {
    Vec::from_json(get(row, "samples", path)?).map_err(|e| format!("{path}: {e}"))
}

/// Compares two `run --out` reports, printing one row per metric and
/// workload. Returns whether any row is `worse`.
///
/// # Errors
///
/// If a file cannot be read or parsed, or the two runs differ in seed,
/// inputs, pinned threads or sizes — such runs did different work and
/// their timings do not compare.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let (header_a, header_b) = (get(&a, "header", path_a)?, get(&b, "header", path_b)?);
    for key in ["seed", "inputs", "threads", "sizes"] {
        let (va, vb) = (get(header_a, key, path_a)?, get(header_b, key, path_b)?);
        if va != vb {
            return Err(format!(
                "the runs differ in {key} ({} vs {}); they did different work and do not compare",
                va.to_string_compact(),
                vb.to_string_compact()
            ));
        }
    }

    let workloads = |doc: &'_ Json, path: &str| -> Result<Vec<Json>, String> {
        Ok(get(doc, "workloads", path)?
            .as_array()
            .map_err(|e| format!("{path}: {e}"))?
            .to_vec())
    };
    let (workloads_a, workloads_b) = (workloads(&a, path_a)?, workloads(&b, path_b)?);
    let mut any_worse = false;
    println!(
        "{:<16} {:<16} {:>16} {:>16} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr"
    );
    for workload_a in &workloads_a {
        let name = get(workload_a, "name", path_a)?
            .as_str()
            .map_err(|e| format!("{path_a}: {e}"))?;
        let Some(workload_b) = workloads_b
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str).ok() == Some(name))
        else {
            return Err(format!("{path_b} has no workload {name}"));
        };
        let (rows_a, rows_b) = (
            get(workload_a, "end_to_end", path_a)?,
            get(workload_b, "end_to_end", path_b)?,
        );
        for metric in &END_TO_END {
            let sa = samples(get(rows_a, metric.name, path_a)?, path_a)?;
            let sb = samples(get(rows_b, metric.name, path_b)?, path_b)?;
            let verdict = judge(&sa, &sb, metric.lower_is_better, metric.bound);
            any_worse |= verdict == Verdict::Worse;
            let (qa, qb) = (summarize(&sa), summarize(&sb));
            let change = if qa.median == 0.0 {
                0.0
            } else {
                (qb.median - qa.median) / qa.median * 100.0
            };
            println!(
                "{name:<16} {:<16} {:>16} {:>16} {change:>+7.2}% {:>6.2}% {:>6.2}%  {} (bound {}%)",
                metric.name,
                number(qa.median),
                number(qb.median),
                qa.spread() * 100.0,
                qb.spread() * 100.0,
                verdict.label(),
                metric.bound * 100.0
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [99.0, 100.0, 100.0, 100.0, 101.0];

    #[test]
    fn within_and_exactly_at_the_bound_is_ok() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v + 5.0).collect();
        assert_eq!(judge(&TIGHT_A, &b, true, 0.10), Verdict::Ok);
        // Median 110 against 100 with a 10 % bound: worse by exactly
        // the bound, not by more.
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v + 10.0).collect();
        assert_eq!(judge(&TIGHT_A, &b, true, 0.10), Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_worse_in_the_metric_s_direction() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v + 11.0).collect();
        assert_eq!(judge(&TIGHT_A, &b, true, 0.10), Verdict::Worse);
        // The same numbers on a higher-is-better metric are a gain...
        assert_eq!(judge(&TIGHT_A, &b, false, 0.10), Verdict::Ok);
        // ...and a drop of 11 % is the regression there.
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v - 11.0).collect();
        assert_eq!(judge(&TIGHT_A, &b, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&TIGHT_A, &b, true, 0.10), Verdict::Ok);
    }

    #[test]
    fn an_exact_metric_tolerates_no_worsening() {
        assert_eq!(judge(&[73.0; 7], &[73.0; 7], true, 0.0), Verdict::Ok);
        assert_eq!(judge(&[73.0; 7], &[72.0; 7], true, 0.0), Verdict::Ok);
        assert_eq!(judge(&[73.0; 7], &[74.0; 7], true, 0.0), Verdict::Worse);
        assert_eq!(judge(&[0.0], &[0.125], true, 0.0), Verdict::Worse);
        assert_eq!(judge(&[0.0], &[0.0], true, 0.0), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sets_are_disjoint() {
        let noisy_a = [80.0, 90.0, 100.0, 110.0, 120.0];
        // Overlapping and noisy: the medians decide nothing, either way.
        let b = [85.0, 95.0, 105.0, 115.0, 125.0];
        assert_eq!(judge(&noisy_a, &b, true, 0.10), Verdict::Unresolved);
        let b = [100.0, 110.0, 125.0, 130.0, 140.0];
        assert_eq!(judge(&noisy_a, &b, true, 0.10), Verdict::Unresolved);
        // Every run of b better than every run of a.
        let b = [50.0, 60.0, 70.0, 75.0, 80.0];
        assert_eq!(judge(&noisy_a, &b, true, 0.10), Verdict::Ok);
        // Every run of b worse than every run of a.
        let b = [150.0, 160.0, 170.0, 175.0, 180.0];
        assert_eq!(judge(&noisy_a, &b, true, 0.10), Verdict::Worse);
        // A tight first set does not rescue a noisy second one.
        assert_eq!(
            judge(&TIGHT_A, &[80.0, 90.0, 100.0, 110.0, 120.0], true, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn single_samples_compare_by_value() {
        assert_eq!(judge(&[60.0], &[65.0], true, 0.10), Verdict::Ok);
        assert_eq!(judge(&[60.0], &[67.0], true, 0.10), Verdict::Worse);
    }
}
