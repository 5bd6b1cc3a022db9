//! The parent process: it measures nothing itself. Every repetition is a
//! re-execution of this binary as a child pinned to one CPU, because the
//! runtime resumes exactly one thread at a time and an unpinned run
//! measures where the kernel put those threads, not the program.
//!
//! Repetitions are short (a third of a second) and a *round* is as many
//! of them as fit in a time window. A round reports the best repetition,
//! not the median: on a shared host interference only ever adds time, in
//! phases that last seconds, and the best of many short repetitions is the
//! estimate those phases move least (see the README for the numbers).

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::{obj, Json};
use crate::metrics::{self, END_TO_END};
use crate::stats::{median, Summary};
use crate::workloads::{Rep, Workload};

/// The unpinned diagnostic runs the open loop this many times.
const UNPINNED_RUNS: usize = 3;

/// How much to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of every generated input.
    pub seed: u64,
    /// A round keeps repeating its workload until this much time passed…
    pub seconds: f64,
    /// …and it has this many repetitions.
    pub min_reps: usize,
    /// Divide every workload's size by this (1 = full, 50 = smoke).
    pub divisor: u64,
    /// The CPU every measured child is pinned to.
    pub cpu: usize,
}

/// Run this binary again with `args` and parse the last line it prints.
fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        // One malloc arena: with glibc's per-thread arenas the peak RSS of
        // one seed read 31 MiB or 54 MiB by which arena each short-lived
        // process thread drew. Only one thread runs at a time anyway.
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|_| "child printed invalid UTF-8")?;
    let line = stdout
        .lines()
        .next_back()
        .ok_or(format!("child {args:?} printed nothing"))?;
    Json::parse(line)
}

fn rep_child(
    w: Workload,
    size: u64,
    seed: u64,
    trace: bool,
    cpu: Option<usize>,
) -> Result<Rep, String> {
    let mut args = vec![
        "--child".to_string(),
        w.name().to_string(),
        "--size".to_string(),
        size.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if let Some(cpu) = cpu {
        args.extend(["--cpu".to_string(), cpu.to_string()]);
    }
    Rep::from_json(&child(&args)?)
}

/// Probe readings from a pinned child, by catalogue name.
fn probes_child(cpu: usize) -> Result<Vec<(String, f64)>, String> {
    let report = child(&[
        "--child-probes".to_string(),
        "--cpu".to_string(),
        cpu.to_string(),
    ])?;
    report
        .as_obj()
        .ok_or("probe child did not print an object")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("non-numeric probe")?)))
        .collect()
}

/// Readings that do not belong to one workload's own run: the probes and
/// the pinned-versus-unpinned record. Taken once per invocation.
#[derive(Debug, Default)]
pub struct Isolated {
    readings: Vec<(String, f64)>,
    /// Why a reading is missing, if one is.
    pub failures: Vec<String>,
}

impl Isolated {
    /// Run the probes pass, and — when the open loop is among `workloads`
    /// — the open loop unpinned, so the cross-CPU penalty of the
    /// thread-per-process handoff is a number in every traced result.
    /// Diagnostic only: nothing gates on it.
    pub fn measure(plan: &Plan, workloads: &[Workload]) -> Isolated {
        let mut iso = Isolated::default();
        match probes_child(plan.cpu) {
            Ok(r) => iso.readings = r,
            Err(e) => iso.failures.push(format!("probes: {e}")),
        }
        if workloads.contains(&Workload::OpenLoop) {
            let size = (Workload::OpenLoop.full_size() / plan.divisor).max(1);
            let walls: Result<Vec<f64>, String> = (0..UNPINNED_RUNS)
                .map(|_| {
                    rep_child(Workload::OpenLoop, size, plan.seed, false, None).map(|r| r.wall_s)
                })
                .collect();
            match walls {
                Ok(w) => {
                    let s = Summary::of(&w);
                    for (stat, v) in [("min", s.min), ("med", s.median), ("max", s.max)] {
                        iso.readings
                            .push((format!("runtime.scheduler.unpinned_wall_s.{stat}"), v));
                    }
                }
                Err(e) => iso.failures.push(format!("unpinned open loop: {e}")),
            }
        }
        iso
    }
}

/// One reading as reports carry it.
fn reading(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// The repetition with the shortest timed region.
fn best(reps: &[Rep]) -> Option<&Rep> {
    reps.iter()
        .min_by(|a, b| a.wall_s.partial_cmp(&b.wall_s).expect("finite wall time"))
}

/// One round's value of an end-to-end metric: the best repetition for the
/// timings, the median for memory (which interference does not move).
fn round_value(metric: &str, reps: &[Rep]) -> f64 {
    let least = |f: fn(&Rep) -> f64| reps.iter().map(f).fold(f64::INFINITY, f64::min);
    match metric {
        "wall_s" => least(|r| r.wall_s),
        "committed_per_s" => 1.0 / least(|r| r.wall_s / r.committed as f64),
        "setup_s" => least(|r| r.setup_s),
        "peak_rss_mb" => median(&reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        other => unreachable!("unknown end-to-end metric {other}"),
    }
}

/// Everything measured for one workload in one invocation.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// The size it ran at.
    pub size: u64,
    /// Untraced repetitions by round: the source of every end-to-end number.
    pub rounds: Vec<Vec<Rep>>,
    /// Traced repetitions, if asked for…
    pub traced: Vec<Rep>,
    /// …and the untraced ones run alternately with them: the base of the
    /// tracing overhead.
    pub trace_base: Vec<Rep>,
    /// Gate, determinism and child failures, in words.
    pub failures: Vec<String>,
}

impl WorkloadRun {
    /// Nothing measured yet.
    pub fn new(w: Workload, plan: &Plan) -> WorkloadRun {
        WorkloadRun {
            workload: w,
            size: (w.full_size() / plan.divisor).max(1),
            rounds: Vec::new(),
            traced: Vec::new(),
            trace_base: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Repeat the workload as `plan` says, alternating untraced and traced
    /// repetitions if `trace`; returns `(untraced, traced)`, or `None` if
    /// a child failed.
    fn repeat(&mut self, plan: &Plan, trace: bool) -> Option<(Vec<Rep>, Vec<Rep>)> {
        let mut one = |traced: bool| {
            rep_child(self.workload, self.size, plan.seed, traced, Some(plan.cpu))
                .map_err(|e| self.failures.push(e))
                .ok()
        };
        let started = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while plain.len() < plan.min_reps || started.elapsed().as_secs_f64() < plan.seconds {
            plain.push(one(false)?);
            if trace {
                traced.push(one(true)?);
            }
        }
        for (label, reps) in [("", &plain), (" traced", &traced)] {
            if let Some(b) = best(reps) {
                eprintln!(
                    "e22: {}{label}: best of {} repetitions: wall {:.4} s, setup {:.4} s, rss {:.1} MiB",
                    self.workload.name(),
                    reps.len(),
                    b.wall_s,
                    b.setup_s,
                    b.peak_rss_mb
                );
            }
        }
        Some((plain, traced))
    }

    /// Measure one more round of untraced repetitions.
    pub fn round(&mut self, plan: &Plan) {
        if let Some((reps, _)) = self.repeat(plan, false) {
            self.rounds.push(reps);
        }
    }

    /// Measure traced repetitions, alternating with untraced ones so the
    /// overhead ratio compares like with like.
    pub fn trace(&mut self, plan: &Plan) {
        if let Some((base, traced)) = self.repeat(plan, true) {
            self.trace_base = base;
            self.traced = traced;
        }
    }

    /// Every repetition measured, untraced rounds first.
    fn all_reps(&self) -> impl Iterator<Item = &Rep> {
        self.rounds
            .iter()
            .flatten()
            .chain(&self.trace_base)
            .chain(&self.traced)
    }

    /// The correctness gate's verdicts plus the determinism check: every
    /// repetition of one seed — the traced ones included, tracing being
    /// transparent — must agree on the fingerprint and on every exact
    /// count both report. Call once, after the last measurement.
    pub fn check(&mut self) {
        let name = self.workload.name();
        let all: Vec<&Rep> = self.all_reps().collect();
        let mut failures = Vec::new();
        for rep in &all {
            for e in &rep.errors {
                failures.push(format!("{name}: gate: {e}"));
            }
            if rep.failed > 0 && rep.errors.is_empty() {
                failures.push(format!("{name}: gate failed {} units", rep.failed));
            }
        }
        if let Some((first, rest)) = all.split_first() {
            for rep in rest {
                if rep.fingerprint != first.fingerprint {
                    failures.push(format!(
                        "{name}: fingerprint {:016x} differs from {:016x} on the same seed",
                        rep.fingerprint, first.fingerprint
                    ));
                }
                for (k, v) in &first.exact {
                    match rep.exact.iter().find(|(k2, _)| k2 == k) {
                        Some((_, v2)) if v2 == v => {}
                        other => failures.push(format!(
                            "{name}: exact count {k} = {v} repeats as {:?}",
                            other.map(|(_, v2)| v2)
                        )),
                    }
                }
            }
        }
        self.failures.extend(failures);
    }

    /// `true` if something was measured and every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.all_reps().next().is_some()
    }

    /// Work units attempted and failed over every repetition.
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.all_reps()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
    }

    /// Per-round values of an end-to-end metric.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.rounds.iter().map(|r| round_value(metric, r)).collect()
    }

    /// Every per-layer metric of the catalogue as `{value, unit}`: the best
    /// traced repetition's readings, ratios derived from them, and the
    /// isolated readings. A layer the workload does not touch reads 0.
    pub fn per_layer(&self, isolated: &Isolated) -> Json {
        let Some(t) = best(&self.traced) else {
            return obj::<String>([]);
        };
        let exact = |k: &str| {
            t.exact
                .iter()
                .find(|(k2, _)| k2 == k)
                .map_or(0.0, |(_, v)| *v as f64)
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let committed = t.committed as f64;
        let derived = [
            (
                "runtime.scheduler.events_per_commit",
                ratio(exact("runtime.scheduler.events"), committed),
            ),
            (
                "runtime.shared.locks_per_commit",
                ratio(exact("runtime.shared.lock_acquisitions"), committed),
            ),
            (
                "core.engine.useful_share",
                ratio(exact("core.engine.finalized"), exact("core.engine.guesses")),
            ),
            (
                "timewarp.efficiency",
                ratio(exact("timewarp.committed"), exact("timewarp.handled")),
            ),
            (
                "mc.transitions_per_s",
                ratio(exact("mc.transitions"), t.wall_s),
            ),
            (
                "trace.overhead_ratio",
                best(&self.trace_base).map_or(0.0, |base| t.wall_s / base.wall_s),
            ),
        ];
        obj(metrics::per_layer().into_iter().map(|(name, unit)| {
            let value = t
                .measured
                .iter()
                .chain(&isolated.readings)
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .or_else(|| derived.iter().find(|(k, _)| *k == name).map(|(_, v)| *v))
                .unwrap_or_else(|| exact(&name));
            (name, reading(value, unit))
        }))
    }

    /// The one-line result the acceptance driver reads: the end-to-end
    /// values of the one round, or every per-layer metric when traced.
    pub fn driver_line(&self, isolated: &Isolated, trace: bool) -> Json {
        let (attempted, failed) = self.attempted_failed();
        let metrics = if trace {
            self.per_layer(isolated)
        } else {
            obj(END_TO_END
                .iter()
                .map(|m| (m.name, reading(median(&self.values(m.name)), m.unit))))
        };
        obj([
            (
                "correct",
                Json::from(self.correct() && isolated.failures.is_empty()),
            ),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            ("metrics", metrics),
        ])
    }

    /// This workload's entry in a full report.
    pub fn report(&self, isolated: &Isolated) -> Json {
        let (attempted, failed) = self.attempted_failed();
        let mut end_to_end: Vec<(&str, Json)> = END_TO_END
            .iter()
            .map(|m| {
                let values = self.values(m.name);
                let s = Summary::of(&values);
                (
                    m.name,
                    obj([
                        ("unit", Json::from(m.unit)),
                        ("median", Json::from(s.median)),
                        ("min", Json::from(s.min)),
                        ("max", Json::from(s.max)),
                        ("n", Json::from(s.n)),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::from).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        end_to_end.push((
            "failed_share",
            obj([
                ("unit", Json::from("ratio")),
                ("value", Json::from(failed as f64 / attempted.max(1) as f64)),
                ("failed", Json::from(failed)),
                ("attempted", Json::from(attempted)),
            ]),
        ));
        let first = self
            .all_reps()
            .next()
            .expect("a reported run has repetitions");
        let mut members = vec![
            ("name", Json::from(self.workload.name())),
            ("size", Json::from(self.size)),
            ("unit_of_work", Json::from(self.workload.unit())),
            ("correct", Json::from(self.correct())),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            (
                "repetitions",
                Json::from(self.rounds.iter().map(Vec::len).sum::<usize>()),
            ),
            ("end_to_end", obj(end_to_end)),
            (
                "fingerprint",
                Json::from(format!("{:016x}", first.fingerprint)),
            ),
            (
                "exact",
                obj(first
                    .exact
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::from(*v)))),
            ),
        ];
        if !self.traced.is_empty() {
            members.push(("per_layer", self.per_layer(isolated)));
        }
        obj(members)
    }
}

/// Choose the CPU to pin to: the last one this process may run on.
/// Returns `(allowed CPUs, chosen CPU)`.
///
/// # Errors
///
/// Returns why the allowed set cannot be read.
pub fn choose_cpu() -> Result<(usize, usize), String> {
    let cpus = host::allowed_cpus()?;
    Ok((cpus.len(), *cpus.last().expect("allowed_cpus is nonempty")))
}

/// Run every workload for `rounds` rounds — round-robin, so that a slow
/// phase of the host lands on every workload's rounds alike — then the
/// traced repetitions and the isolated readings if `trace` gives their
/// plan, and assemble the full report.
pub fn full_report(
    plan: &Plan,
    rounds: usize,
    trace: Option<(&Plan, bool)>,
    cores: usize,
) -> (Json, bool) {
    let mut runs: Vec<WorkloadRun> = Workload::ALL
        .iter()
        .map(|&w| WorkloadRun::new(w, plan))
        .collect();
    for _ in 0..rounds {
        for run in &mut runs {
            if run.failures.is_empty() {
                run.round(plan);
            }
        }
    }
    let mut isolated = Isolated::default();
    if let Some((trace_plan, with_isolated)) = trace {
        for run in &mut runs {
            if run.failures.is_empty() {
                run.trace(trace_plan);
            }
        }
        if with_isolated {
            isolated = Isolated::measure(plan, &Workload::ALL);
        }
    }
    for run in &mut runs {
        run.check();
    }
    let correct = runs.iter().all(WorkloadRun::correct) && isolated.failures.is_empty();
    let info = host::HostInfo::read();
    let failures: Vec<Json> = runs
        .iter()
        .flat_map(|r| &r.failures)
        .chain(&isolated.failures)
        .map(|f| {
            eprintln!("e22: FAILED: {f}");
            Json::from(f.as_str())
        })
        .collect();
    let report = obj([
        ("benchmark", Json::from("e22")),
        ("seed", Json::from(plan.seed)),
        ("size_divisor", Json::from(plan.divisor)),
        ("round_seconds", Json::from(plan.seconds)),
        (
            "host",
            obj([
                ("cores", Json::from(cores)),
                ("cpu_model", Json::from(info.cpu_model)),
                ("pinned_cpu", Json::from(plan.cpu)),
                ("rustc", Json::from(info.rustc)),
                ("commit", Json::from(info.commit)),
            ]),
        ),
        ("correct", Json::from(correct)),
        ("failures", Json::Arr(failures)),
        (
            "workloads",
            Json::Arr(
                runs.iter()
                    .filter(|r| !r.rounds.is_empty())
                    .map(|r| r.report(&isolated))
                    .collect(),
            ),
        ),
    ]);
    (report, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, setup_s: f64, rss: f64) -> Rep {
        Rep {
            setup_s,
            wall_s,
            peak_rss_mb: rss,
            committed: 100,
            attempted: 100,
            failed: 0,
            fingerprint: 7,
            exact: vec![("core.engine.guesses".to_string(), 100)],
            measured: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn run_of(rounds: Vec<Vec<Rep>>, traced: Vec<Rep>) -> WorkloadRun {
        WorkloadRun {
            workload: Workload::OpenLoop,
            size: 100,
            rounds,
            traced,
            trace_base: Vec::new(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn a_round_reports_its_best_repetition_and_its_median_memory() {
        let reps = vec![
            rep(0.5, 0.03, 4.0),
            rep(0.4, 0.05, 3.0),
            rep(0.8, 0.02, 9.0),
        ];
        assert_eq!(round_value("wall_s", &reps), 0.4);
        assert_eq!(round_value("committed_per_s", &reps), 250.0);
        assert_eq!(round_value("setup_s", &reps), 0.02);
        assert_eq!(round_value("peak_rss_mb", &reps), 4.0);
        let run = run_of(vec![reps, vec![rep(0.3, 0.01, 3.0)]], Vec::new());
        assert_eq!(run.values("wall_s"), vec![0.4, 0.3]);
    }

    #[test]
    fn repetitions_of_one_seed_must_agree_exactly() {
        let mut same = run_of(
            vec![vec![rep(0.5, 0.1, 3.0), rep(0.4, 0.1, 3.0)]],
            Vec::new(),
        );
        same.check();
        assert!(same.correct(), "{:?}", same.failures);

        let mut drifted = rep(0.4, 0.1, 3.0);
        drifted.exact[0].1 = 101;
        let mut run = run_of(vec![vec![rep(0.5, 0.1, 3.0)]], vec![drifted]);
        run.check();
        assert!(!run.correct());
        assert!(
            run.failures[0].contains("core.engine.guesses"),
            "{:?}",
            run.failures
        );

        let mut other = rep(0.4, 0.1, 3.0);
        other.fingerprint = 8;
        let mut run = run_of(vec![vec![rep(0.5, 0.1, 3.0), other]], Vec::new());
        run.check();
        assert!(
            run.failures[0].contains("fingerprint"),
            "{:?}",
            run.failures
        );

        let mut failing = rep(0.4, 0.1, 3.0);
        failing.failed = 2;
        let mut run = run_of(vec![vec![failing]], Vec::new());
        run.check();
        assert!(!run.correct());
        assert_eq!(run.attempted_failed(), (100, 2));
        assert!(
            !run_of(Vec::new(), Vec::new()).correct(),
            "nothing measured"
        );
    }

    #[test]
    fn the_driver_line_carries_every_metric_of_its_mode() {
        let mut traced = rep(0.6, 0.1, 3.0);
        traced
            .measured
            .push(("runtime.scheduler.sys_share".to_string(), 0.5));
        let mut run = run_of(vec![vec![rep(0.4, 0.1, 3.0)]], vec![traced]);
        run.trace_base = vec![rep(0.5, 0.1, 3.0), rep(0.7, 0.1, 3.0)];
        let isolated = Isolated {
            readings: vec![("sim.queue.op_ns.d16".to_string(), 42.0)],
            failures: Vec::new(),
        };
        let line = run.driver_line(&isolated, false);
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("value")),
            Some(&Json::Num(0.4))
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        let line = run.driver_line(&isolated, true);
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(
            metrics.as_obj().map(<[_]>::len),
            Some(metrics::per_layer().len())
        );
        assert_eq!(Some(metrics), run.report(&isolated).get("per_layer"));
        let value = |k: &str| {
            metrics
                .get(k)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("runtime.scheduler.sys_share"), Some(0.5));
        assert_eq!(value("sim.queue.op_ns.d16"), Some(42.0));
        assert_eq!(value("core.engine.guesses"), Some(100.0));
        assert_eq!(value("trace.overhead_ratio"), Some(0.6 / 0.5));
        assert_eq!(value("mc.transitions"), Some(0.0));
    }
}
