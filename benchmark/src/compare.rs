//! `--compare A.json B.json`: apply the benchmark's own bounds to two full
//! reports, one row per (workload, metric); and `--append FILE`: keep a
//! trajectory of medians across commits.

use crate::json::{obj, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};

/// Where B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// B's median is better by more than the run-to-run spread.
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread is wider than the bound: the runs cannot tell.
    Unresolved,
    /// An exact count, equal in both.
    Identical,
    /// An exact count that differs.
    Differs,
}

impl Status {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Status::Better => "better",
            Status::WithinBound => "within bound",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
            Status::Identical => "identical",
            Status::Differs => "DIFFERS",
        }
    }

    /// `true` for the outcomes that reject B.
    pub fn rejects(self) -> bool {
        matches!(self, Status::Worse | Status::Differs)
    }
}

/// Judge B's repetitions against A's on a bounded metric.
///
/// The change is B's median against A's, signed so that positive is
/// worse. Where either side's interquartile spread exceeds the bound the
/// verdict is `Unresolved` — unless every run of B beats every run of A
/// (better) or every run of B loses to every run of A by more than the
/// bound (worse), which no amount of spread explains away.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Status, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let noise = spread(a).max(spread(b));
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_wins = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let b_always_loses = b.iter().all(|&x| a.iter().all(|&y| beats(y, x)));
    let status = if noise > metric.bound {
        if b_always_wins {
            Status::Better
        } else if b_always_loses && worse_by > metric.bound {
            Status::Worse
        } else {
            Status::Unresolved
        }
    } else if worse_by > metric.bound {
        Status::Worse
    } else if -worse_by > noise && worse_by < 0.0 {
        Status::Better
    } else {
        Status::WithinBound
    };
    (status, worse_by)
}

fn workloads(report: &Json) -> Result<&[Json], String> {
    report
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("not an E22 report: no workloads array".to_string())
}

fn values(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compare report `b` against report `a`; returns the printed table and
/// whether any row rejects `b`.
///
/// # Errors
///
/// Returns what is malformed when either file is not an E22 report.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<15} {:<36} {:>18} {:>18} {:>8}  {}\n",
        "workload", "metric", "A", "B", "change", "verdict"
    );
    let mut rejected = false;
    let mut row = |w: &str, m: &str, va: String, vb: String, change: Option<f64>, s: Status| {
        rejected |= s.rejects();
        let change = change.map_or(String::new(), |c| format!("{:+.1}%", c * 100.0));
        table.push_str(&format!(
            "{w:<15} {m:<36} {va:>18} {vb:>18} {change:>8}  {}\n",
            s.word()
        ));
    };
    let num = |v: f64| format!("{v:.6}");
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from B"));
        };
        for metric in &END_TO_END {
            let va = values(wa, metric.name).ok_or(format!("A lacks {name}.{}", metric.name))?;
            let vb = values(wb, metric.name).ok_or(format!("B lacks {name}.{}", metric.name))?;
            let (status, worse_by) = judge(metric, &va, &vb);
            // Print the change in the metric's own direction of travel.
            let change = match metric.better {
                Better::Lower => worse_by,
                Better::Higher => -worse_by,
            };
            row(
                name,
                metric.name,
                num(median(&va)),
                num(median(&vb)),
                Some(change),
                status,
            );
        }
        let failed_share = |w: &Json| {
            w.get("end_to_end")
                .and_then(|e| e.get("failed_share"))
                .and_then(|f| f.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("{name} lacks failed_share"))
        };
        let (fa, fb) = (failed_share(wa)?, failed_share(wb)?);
        let status = if fb > fa {
            Status::Worse
        } else {
            Status::WithinBound
        };
        row(name, "failed_share", num(fa), num(fb), None, status);
        let exact = |w: &Json, k: &str| w.get("exact")?.get(k)?.as_f64();
        let fingerprint = |w: &Json| {
            w.get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_string()
        };
        let counts = wa
            .get("exact")
            .and_then(Json::as_obj)
            .ok_or("A lacks exact counts")?;
        for (k, v) in counts {
            let va = v.as_f64().ok_or("non-numeric count")?;
            let vb = exact(wb, k).unwrap_or(f64::NAN);
            let status = if va == vb {
                Status::Identical
            } else {
                Status::Differs
            };
            row(
                name,
                &format!("{k} (=)"),
                va.to_string(),
                vb.to_string(),
                None,
                status,
            );
        }
        let (fa, fb) = (fingerprint(wa), fingerprint(wb));
        let status = if fa == fb {
            Status::Identical
        } else {
            Status::Differs
        };
        row(name, "fingerprint (=)", fa, fb, None, status);
    }
    Ok((table, rejected))
}

/// One trajectory row from a full report: where, when and the medians.
///
/// # Errors
///
/// Returns what is malformed when `report` is not an E22 report.
pub fn trajectory_row(report: &Json) -> Result<Json, String> {
    let host = report.get("host").ok_or("report lacks host")?;
    let mut medians = Vec::new();
    for w in workloads(report)? {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let per_metric = END_TO_END.iter().map(|m| {
            let v = values(w, m.name).map_or(Json::Null, |v| Json::from(median(&v)));
            (m.name, v)
        });
        medians.push((name, obj(per_metric)));
    }
    let copy = |from: &Json, k: &str| (k.to_string(), from.get(k).cloned().unwrap_or(Json::Null));
    Ok(obj([
        copy(host, "commit"),
        copy(host, "cpu_model"),
        copy(host, "cores"),
        copy(host, "rustc"),
        copy(report, "seed"),
        copy(report, "correct"),
        ("medians".to_string(), obj(medians)),
    ]))
}

/// The trajectory file's next contents: `existing` (a JSON array, or
/// nothing yet) with `row` appended.
fn appended(existing: Option<&str>, row: Json) -> Result<String, String> {
    let mut rows = match existing.map(Json::parse).transpose()? {
        None => Vec::new(),
        Some(Json::Arr(rows)) => rows,
        Some(_) => return Err("the trajectory file does not hold a JSON array".to_string()),
    };
    rows.push(row);
    Ok(Json::Arr(rows).to_pretty())
}

/// Append `row` to the JSON array in `path`, creating the file if absent.
///
/// # Errors
///
/// Returns why the file cannot be read as a JSON array or written.
pub fn append_row(path: &str, row: Json) -> Result<(), String> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let next = appended(existing.as_deref(), row).map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(path, next).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = END_TO_END[0];
    const RATE: EndToEnd = END_TO_END[1];

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        assert_eq!((WALL.name, WALL.bound), ("wall_s", 0.25));
        assert_eq!((RATE.name, RATE.bound), ("committed_per_s", 0.25));
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 10% slower: inside the 25% bound.
        let (s, by) = judge(&WALL, &a, &[1.10, 1.11, 1.09, 1.10, 1.10]);
        assert_eq!(s, Status::WithinBound);
        assert!((by - 0.10).abs() < 1e-9);
        // 40% slower: worse. 20% faster: better.
        assert_eq!(
            judge(&WALL, &a, &[1.4, 1.41, 1.39, 1.4, 1.4]).0,
            Status::Worse
        );
        assert_eq!(
            judge(&WALL, &a, &[0.8, 0.81, 0.79, 0.8, 0.8]).0,
            Status::Better
        );
        // For a rate, lower is the bad direction.
        let r = [100.0, 101.0, 99.0, 100.0, 100.0];
        assert_eq!(
            judge(&RATE, &r, &[60.0, 61.0, 59.0, 60.0, 60.0]).0,
            Status::Worse
        );
        assert_eq!(
            judge(&RATE, &r, &[120.0, 121.0, 119.0, 120.0, 120.0]).0,
            Status::Better
        );
        assert_eq!(
            judge(&RATE, &r, &[90.0, 91.0, 89.0, 90.0, 90.0]).0,
            Status::WithinBound
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_agrees() {
        let noisy = [1.0, 1.6, 0.7, 1.5, 0.8];
        assert_eq!(
            judge(&WALL, &noisy, &[1.1, 0.9, 1.4, 0.8, 1.5]).0,
            Status::Unresolved
        );
        // Every run of B beats every run of A: better despite the noise.
        assert_eq!(
            judge(&WALL, &noisy, &[0.5, 0.6, 0.4, 0.65, 0.5]).0,
            Status::Better
        );
        // Every run of B loses to every run of A, by more than the bound.
        assert_eq!(
            judge(&WALL, &noisy, &[2.0, 2.5, 1.9, 2.2, 3.0]).0,
            Status::Worse
        );
    }

    #[test]
    fn a_change_inside_the_noise_is_not_better() {
        let a = [1.00, 1.04, 0.96, 1.02, 0.98];
        assert_eq!(
            judge(&WALL, &a, &[0.99, 1.03, 0.95, 1.01, 0.97]).0,
            Status::WithinBound
        );
    }

    fn report(wall: [f64; 3], guesses: u64, failed: u64) -> Json {
        let metric = |values: &[f64]| {
            obj([(
                "values",
                Json::Arr(values.iter().copied().map(Json::from).collect()),
            )])
        };
        let rate: Vec<f64> = wall.iter().map(|w| 100.0 / w).collect();
        obj([
            (
                "host",
                obj([("commit", Json::from("abc")), ("cores", Json::from(2u64))]),
            ),
            ("seed", Json::from(22u64)),
            ("correct", Json::from(failed == 0)),
            (
                "workloads",
                Json::Arr(vec![obj([
                    ("name", Json::from("open_loop")),
                    (
                        "end_to_end",
                        obj([
                            ("wall_s", metric(&wall)),
                            ("committed_per_s", metric(&rate)),
                            ("peak_rss_mb", metric(&[3.0, 3.0, 3.0])),
                            ("setup_s", metric(&[0.2, 0.2, 0.2])),
                            (
                                "failed_share",
                                obj([("value", Json::from(failed as f64 / 100.0))]),
                            ),
                        ]),
                    ),
                    ("fingerprint", Json::from("00ff")),
                    ("exact", obj([("core.engine.guesses", Json::from(guesses))])),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_prints_a_row_per_metric_and_rejects_regressions() {
        let a = report([1.0, 1.01, 0.99], 100, 0);
        let (table, rejected) = compare(&a, &a).expect("well-formed");
        assert!(!rejected, "{table}");
        assert_eq!(table.lines().count(), 1 + 4 + 1 + 1 + 1, "{table}");
        assert!(table.contains("identical"), "{table}");

        let slower = report([1.5, 1.51, 1.49], 100, 0);
        let (table, rejected) = compare(&a, &slower).expect("well-formed");
        assert!(rejected && table.contains("worse"), "{table}");

        let drifted = report([1.0, 1.01, 0.99], 101, 0);
        let (table, rejected) = compare(&a, &drifted).expect("well-formed");
        assert!(rejected && table.contains("DIFFERS"), "{table}");

        let failing = report([1.0, 1.01, 0.99], 100, 1);
        assert!(compare(&a, &failing).expect("well-formed").1);
        assert!(compare(&a, &Json::Null).is_err());
    }

    #[test]
    fn trajectory_rows_accumulate_in_a_file() {
        let row = trajectory_row(&report([1.0, 1.2, 1.1], 100, 0)).expect("well-formed");
        assert_eq!(row.get("commit").and_then(Json::as_str), Some("abc"));
        let wall = row
            .get("medians")
            .and_then(|m| m.get("open_loop"))
            .and_then(|w| w.get("wall_s"))
            .and_then(Json::as_f64);
        assert_eq!(wall, Some(1.1));

        let one = appended(None, row.clone()).expect("create");
        let two = appended(Some(&one), row).expect("append");
        let rows = Json::parse(&two).expect("parses");
        assert_eq!(rows.as_arr().map(<[Json]>::len), Some(2));
        assert!(appended(Some("{}"), Json::Null).is_err());
    }
}
