//! **E22** — the pinned, host-time end-to-end benchmark of the HOPE stack
//! and its outside-in layer profile. See `benchmark/README.md`.
//!
//! ```text
//! hope-e22 [--seed S] [--seconds T] [--trace] [--append FILE]   every workload, full report
//! hope-e22 --workload W --seed S --seconds T --trace 0|1        one workload, one result line
//! hope-e22 --smoke                                              every workload at 1/50 size
//! hope-e22 --compare A.json B.json                              apply the bounds to two reports
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod compare;
mod host;
mod json;
mod metrics;
mod orchestrate;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::{obj, Json};
use orchestrate::{Isolated, Plan, WorkloadRun};
use workloads::Workload;

const DEFAULT_SEED: u64 = 22;
/// How long a round repeats its workload unless `--seconds` says.
const DEFAULT_SECONDS: f64 = 8.0;
/// Fewest repetitions in a round, however short the window.
const MIN_REPS: usize = 3;
/// How long the traced and untraced repetitions of `--trace` alternate.
const TRACE_SECONDS: f64 = 4.0;
/// Rounds per workload in a full report: the `n` of its medians.
const FULL_ROUNDS: usize = 5;
const SMOKE_DIVISOR: u64 = 50;

/// The command line, parsed.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    append: Option<String>,
    compare: Option<(String, String)>,
    child: Option<String>,
    child_probes: bool,
    size: Option<u64>,
    cpu: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or(format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read {text:?} as a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => args.seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => {
                let s: f64 = number(value(&mut it, flag)?, flag)?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a finite, non-negative number, not {s}"
                    ));
                }
                args.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is how the
            // acceptance driver spells it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--append" => args.append = Some(value(&mut it, flag)?.clone()),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.clone(), value(&mut it, flag)?.clone()));
            }
            "--child" => args.child = Some(value(&mut it, flag)?.clone()),
            "--child-probes" => args.child_probes = true,
            "--size" => args.size = Some(number(value(&mut it, flag)?, flag)?),
            "--cpu" => args.cpu = Some(number(value(&mut it, flag)?, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or(format!(
        "unknown workload {name:?}; the workloads are {}",
        Workload::ALL.map(Workload::name).join(", ")
    ))
}

fn read_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Run as the command line says; `Ok(false)` means it ran and a gate,
/// the determinism check or a comparison failed.
fn run(args: &Args, started: Instant) -> Result<bool, String> {
    // A measuring child: pin first, so every thread it spawns inherits
    // the mask. Failing to pin is fatal, never a fallback.
    if args.child.is_some() || args.child_probes {
        if let Some(cpu) = args.cpu {
            host::pin_to_cpu(cpu)?;
        }
    }
    if args.child_probes {
        let readings = probes::run_all();
        println!(
            "{}",
            obj(readings.into_iter().map(|(k, v)| (k, Json::from(v)))).to_line()
        );
        return Ok(true);
    }
    if let Some(name) = &args.child {
        let w = workload_named(name)?;
        let size = args.size.ok_or("--child needs --size")?;
        let seed = args.seed.ok_or("--child needs --seed")?;
        let rep = workloads::run_rep(w, size, seed, args.trace, started);
        println!("{}", rep.to_json().to_line());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let (table, rejected) = compare::compare(&read_report(a)?, &read_report(b)?)?;
        print!("{table}");
        return Ok(!rejected);
    }

    let (cores, cpu) = orchestrate::choose_cpu()?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let plan = Plan {
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        min_reps: MIN_REPS,
        divisor: 1,
        cpu,
    };
    // Traced repetitions are timed only against the untraced ones they
    // alternate with: a short window of them is enough.
    let traced = Plan {
        seconds: TRACE_SECONDS,
        ..plan
    };
    if let Some(name) = &args.workload {
        // One workload, one result line: what the acceptance driver runs.
        // A traced invocation spends its time on the layer readings.
        let w = workload_named(name)?;
        let mut run = WorkloadRun::new(w, &plan);
        let mut isolated = Isolated::default();
        if args.trace {
            run.trace(&traced);
            if run.failures.is_empty() {
                isolated = Isolated::measure(&plan, &[w]);
            }
        } else {
            run.round(&plan);
        }
        run.check();
        for f in run.failures.iter().chain(&isolated.failures) {
            eprintln!("e22: FAILED: {f}");
        }
        if run.rounds.is_empty() && run.traced.is_empty() {
            return Err(format!("{name}: no result"));
        }
        let line = run.driver_line(&isolated, args.trace);
        println!("{}", line.to_line());
        return Ok(line.get("correct") == Some(&Json::Bool(true)));
    }

    let (report, correct) = if args.smoke {
        let smoke = Plan {
            seconds: 0.0,
            divisor: SMOKE_DIVISOR,
            ..plan
        };
        orchestrate::full_report(&smoke, 1, Some((&smoke, false)), cores)
    } else {
        let trace = args.trace.then_some((&traced, true));
        orchestrate::full_report(&plan, FULL_ROUNDS, trace, cores)
    };
    print!("{}", report.to_pretty());
    if let Some(path) = &args.append {
        compare::append_row(path, compare::trajectory_row(&report)?)?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args, started)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e22: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_spelling_and_the_bare_flag_both_parse() {
        let a = parse("--workload open_loop --seed 7 --seconds 15 --trace 1").expect("driver form");
        assert_eq!(a.workload.as_deref(), Some("open_loop"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(15.0), true));
        assert!(!parse("--trace 0 --seed 3").expect("off").trace);
        let bare = parse("--trace --seed 3").expect("bare");
        assert_eq!((bare.trace, bare.seed), (true, Some(3)));
        assert!(parse("--seed 3 --trace").expect("trailing").trace);
        assert!(!parse("").expect("empty").trace);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds -1",
            "--seconds inf",
            "--compare only-one",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
        assert!(workload_named("nope").is_err());
    }
}
