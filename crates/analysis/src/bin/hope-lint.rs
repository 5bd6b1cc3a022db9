//! `hope-lint`: run the static speculation-flow lints over a HOPE program.
//!
//! See [`HELP`] for the full option and exit-status contract.

use std::io::{ErrorKind, Read, Write};
use std::process::ExitCode;

use hope_analysis::cost::{self, CostWeights};
use hope_analysis::{render_json, render_text, Analyzer, Severity, DEFAULT_CASCADE_THRESHOLD};
use hope_core::program::Program;
use hope_mc::{check, Completeness, McConfig, McReport};

const USAGE: &str = "usage: hope-lint [--json] [--print] [--rank | --cost] [--mc] \
                     [--mc-states N] [--cascade-threshold N] \
                     <FILE | - | --generate SEED,PROCS,LEN,AIDS>";

/// The `--help` text: options plus the exit-status contract scripts rely
/// on.
const HELP: &str = "\
hope-lint — static speculation-flow analysis for HOPE programs

usage: hope-lint [OPTIONS] <FILE | - | --generate SEED,PROCS,LEN,AIDS>

Program sources (exactly one):
  FILE                     a program in Program's display syntax
  -                        read the program from stdin
  --generate S,P,L,A       analyze Program::generate(S, P, L, A) instead

Options:
  --json                   emit the output as JSON instead of text
  --print                  also print the program before the output
  --cascade-threshold N    cascade-depth warning threshold (default 3)
  --rank                   print guess sites ranked by expected rollback
                           damage (highest first) instead of diagnostics
  --cost                   like --rank, but in program order and without
                           rank numbers
  --mc                     also model-check the full schedule space
                           (hope-mc) and report whether it confirms the
                           static verdict; skipped, with a line saying so,
                           for a program naming an undeclared process or
                           AID (an invalid-target error: exit 1); cannot
                           combine with --rank/--cost
  --mc-states N            state budget for --mc (default 200000)
  -h, --help               show this help and exit 0

Exit status:
  0  the program was analyzed and no error-severity diagnostic fired;
     warnings do not change the exit status, and neither do --rank/--cost
     (they swap the *output*, not the verdict — the lints still run)
  1  at least one error-severity diagnostic fired: no schedule lets the
     program run to full finalization
  2  usage error, unreadable input, or program parse failure — or, under
     --mc, the model checker exhausted the schedule space and found a
     pristine schedule for an error-flagged program (an analyzer
     soundness bug: report it)
";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Lint,
    Rank,
    Cost,
}

struct Options {
    json: bool,
    print: bool,
    mode: Mode,
    threshold: usize,
    mc: Option<McConfig>,
    source: Source,
}

enum Source {
    File(String),
    Stdin,
    Generate {
        seed: u64,
        procs: usize,
        len: usize,
        aids: usize,
    },
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut json = false;
    let mut print = false;
    let mut mode = Mode::Lint;
    let mut threshold = DEFAULT_CASCADE_THRESHOLD;
    let mut mc: Option<McConfig> = None;
    let mut source: Option<Source> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--print" => print = true,
            "--mc" => mc = Some(mc.unwrap_or_default()),
            "--mc-states" => {
                let value = it.next().ok_or("--mc-states needs a value")?;
                let max_states = value
                    .parse()
                    .map_err(|_| format!("bad --mc-states value `{value}`"))?;
                let cfg = mc.get_or_insert_with(McConfig::default);
                cfg.max_states = max_states;
            }
            "--rank" | "--cost" => {
                let wanted = if arg == "--rank" {
                    Mode::Rank
                } else {
                    Mode::Cost
                };
                if mode != Mode::Lint && mode != wanted {
                    return Err("--rank and --cost cannot be combined".into());
                }
                mode = wanted;
            }
            "--cascade-threshold" => {
                let value = it.next().ok_or("--cascade-threshold needs a value")?;
                threshold = value
                    .parse()
                    .map_err(|_| format!("bad --cascade-threshold value `{value}`"))?;
            }
            "--generate" => {
                let spec = it.next().ok_or("--generate needs SEED,PROCS,LEN,AIDS")?;
                let parts: Vec<&str> = spec.split(',').collect();
                let [seed, procs, len, aids] = parts.as_slice() else {
                    return Err(format!(
                        "--generate wants 4 comma-separated numbers, got `{spec}`"
                    ));
                };
                let bad = |field: &str| format!("bad --generate field `{field}` in `{spec}`");
                source = Some(Source::Generate {
                    seed: seed.parse().map_err(|_| bad(seed))?,
                    procs: procs.parse().map_err(|_| bad(procs))?,
                    len: len.parse().map_err(|_| bad(len))?,
                    aids: aids.parse().map_err(|_| bad(aids))?,
                });
            }
            "-h" | "--help" => return Err(String::new()),
            "-" => source = Some(Source::Stdin),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            path => {
                if source.is_some() {
                    return Err("more than one program source given".into());
                }
                source = Some(Source::File(path.to_string()));
            }
        }
    }
    if mc.is_some() && mode != Mode::Lint {
        return Err("--mc cannot be combined with --rank/--cost".into());
    }
    Ok(Options {
        json,
        print,
        mode,
        threshold,
        mc,
        source: source.ok_or("no program source given")?,
    })
}

/// How the model-checking run relates to the static verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum McAgreement {
    /// Exhausted and consistent with the diagnostics.
    Confirmed,
    /// Budget ran out before the space was exhausted: no proof either way.
    Unverified,
    /// Exhausted and a pristine schedule exists despite an error
    /// diagnostic — an analyzer soundness bug.
    Refuted,
}

fn mc_agreement(report: &McReport, has_error: bool) -> McAgreement {
    match report.completeness {
        Completeness::BudgetExceeded(_) => McAgreement::Unverified,
        Completeness::Exhausted if has_error && report.pristine_witness.is_some() => {
            McAgreement::Refuted
        }
        Completeness::Exhausted => McAgreement::Confirmed,
    }
}

fn render_mc_json(report: &McReport, agreement: McAgreement) -> String {
    let verdict = match report.completeness {
        Completeness::Exhausted => "exhausted",
        Completeness::BudgetExceeded(_) => "budget-exceeded",
    };
    // One program per invocation, so the counts are 0/1 summing to 1 —
    // emitted as counts anyway so scripts aggregating many runs can add
    // the fields without re-deriving them from `agreement`.
    let (confirmed, unverified, refuted) = match agreement {
        McAgreement::Confirmed => (1, 0, 0),
        McAgreement::Unverified => (0, 1, 0),
        McAgreement::Refuted => (0, 0, 1),
    };
    let agreement = match agreement {
        McAgreement::Confirmed => "confirmed",
        McAgreement::Unverified => "unverified",
        McAgreement::Refuted => "refuted",
    };
    format!(
        "{{\"verdict\":\"{verdict}\",\"states\":{},\"transitions\":{},\
         \"cache_hits\":{},\"sleep_pruned\":{},\
         \"explored_fraction\":{:.4},\
         \"pristine_schedule_exists\":{},\"proves_no_pristine_schedule\":{},\
         \"agreement\":\"{agreement}\",\
         \"confirmed\":{confirmed},\"unverified\":{unverified},\"refuted\":{refuted}}}",
        report.states,
        report.transitions,
        report.cache_hits,
        report.sleep_pruned,
        report.explored_fraction(),
        report.pristine_witness.is_some(),
        report.proves_no_pristine_schedule(),
    )
}

fn render_mc_text(report: &McReport, agreement: McAgreement, has_error: bool) -> String {
    let mut out = String::new();
    let verdict = match report.completeness {
        Completeness::Exhausted => "exhausted the schedule space",
        Completeness::BudgetExceeded(_) => "budget exceeded (incomplete)",
    };
    out.push_str(&format!(
        "mc: {verdict} — {} states, {} transitions ({} cache hits, {} sleep-pruned)\n",
        report.states, report.transitions, report.cache_hits, report.sleep_pruned
    ));
    out.push_str(&match agreement {
        McAgreement::Unverified => format!(
            "mc: unverified — budget exceeded at {:.1}% of the reduced space; \
             raise --mc-states for a proof\n",
            report.explored_fraction() * 100.0
        ),
        other => render_mc_agreement_text(other, report, has_error).to_string(),
    });
    out
}

fn render_mc_agreement_text(
    agreement: McAgreement,
    report: &McReport,
    has_error: bool,
) -> &'static str {
    match agreement {
        McAgreement::Refuted => {
            "mc: REFUTED — a pristine schedule exists despite an error diagnostic \
             (analyzer soundness bug)\n"
        }
        McAgreement::Unverified => unreachable!("handled by the caller"),
        McAgreement::Confirmed if has_error => {
            "mc: confirmed — no schedule finalizes pristinely, proven over the \
             full reduced interleaving space\n"
        }
        McAgreement::Confirmed if report.pristine_witness.is_some() => {
            "mc: confirmed — a pristine schedule exists, consistent with the \
             clean verdict\n"
        }
        McAgreement::Confirmed => {
            "mc: confirmed — no pristine schedule, but no error claimed one \
             (warnings do not promise finalization)\n"
        }
    }
}

fn load(source: &Source) -> Result<Program, String> {
    let text = match source {
        Source::Generate {
            seed,
            procs,
            len,
            aids,
        } => return Ok(Program::generate(*seed, *procs, *len, *aids)),
        Source::File(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        Source::Stdin => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
    };
    text.parse::<Program>().map_err(|e| e.to_string())
}

/// Write to stdout, treating a broken pipe (`hope-lint ... | head`) as a
/// clean early exit rather than a panic. Other I/O errors exit 2.
fn emit(text: &str) -> Result<(), ExitCode> {
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("hope-lint: cannot write to stdout: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            eprintln!("hope-lint: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let program = match load(&options.source) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("hope-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if options.print {
        if let Err(code) = emit(&program.to_string()) {
            return code;
        }
    }
    let analyzer = Analyzer::new().with_cascade_threshold(options.threshold);
    let (diagnostics, flow) = analyzer.analyze_with_flow(&program);
    let has_error = diagnostics.iter().any(|d| d.severity == Severity::Error);
    // The explorer indexes its tables by process and AID: a program naming
    // an undeclared one (an `invalid-target` error) is not explored.
    let mc_outcome = options.mc.as_ref().map(|cfg| {
        program.check_bounds().map(|()| {
            let report = check(&program, cfg);
            let agreement = mc_agreement(&report, has_error);
            (report, agreement)
        })
    });
    let rendered = match options.mode {
        Mode::Lint if options.json => match &mc_outcome {
            Some(outcome) => format!(
                "{{\"diagnostics\":{},\n \"mc\":{}}}\n",
                render_json(&diagnostics).trim_end(),
                match outcome {
                    Ok((report, agreement)) => render_mc_json(report, *agreement),
                    // `Stmt`'s display holds no character JSON escapes.
                    Err(e) => format!("{{\"verdict\":\"skipped\",\"reason\":\"{e}\"}}"),
                }
            ),
            None => render_json(&diagnostics),
        },
        Mode::Lint => match &mc_outcome {
            Some(outcome) => format!(
                "{}{}",
                render_text(&diagnostics),
                match outcome {
                    Ok((report, agreement)) => render_mc_text(report, *agreement, has_error),
                    Err(e) =>
                        format!("mc: skipped — {e}, and the explorer needs every name declared\n"),
                }
            ),
            None => render_text(&diagnostics),
        },
        Mode::Rank | Mode::Cost => {
            let mut costs = cost::rank_with(&program, &flow, &CostWeights::default());
            if options.mode == Mode::Cost {
                costs.sort_by_key(|c| (c.proc, c.stmt_idx, c.aid));
                if options.json {
                    cost::render_cost_json(&costs)
                } else {
                    cost::render_cost_text(&costs)
                }
            } else if options.json {
                cost::render_rank_json(&costs)
            } else {
                cost::render_rank_text(&costs)
            }
        }
    };
    if let Err(code) = emit(&rendered) {
        return code;
    }
    let refuted = matches!(mc_outcome, Some(Ok((_, McAgreement::Refuted))));
    if refuted {
        eprintln!(
            "hope-lint: model checker refutes the static verdict — \
             a pristine schedule exists despite an error diagnostic"
        );
    }
    ExitCode::from(verdict_exit(has_error, refuted))
}

/// The documented exit contract, in one testable place: an `--mc`
/// refutation (analyzer soundness bug) dominates at 2, then error
/// diagnostics at 1, then success at 0. Warnings never change the code.
fn verdict_exit(has_error: bool, refuted: bool) -> u8 {
    if refuted {
        2
    } else if has_error {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuted_exits_two_even_with_errors() {
        assert_eq!(verdict_exit(false, false), 0);
        assert_eq!(verdict_exit(true, false), 1);
        // Refutation dominates: the soundness bug matters more than the
        // (now untrustworthy) error verdict.
        assert_eq!(verdict_exit(true, true), 2);
        assert_eq!(verdict_exit(false, true), 2);
    }

    #[test]
    fn agreement_classification_from_real_checks() {
        let doomed: Program = "process P0:\n guess(x0)\n deny(x0)\n".parse().unwrap();
        let pristine: Program = "process P0:\n guess(x0)\n affirm(x0)\n".parse().unwrap();

        // Exhausted + error + no witness: the checker confirms the lint.
        let report = check(&doomed, &McConfig::default());
        assert!(report.completeness.is_exhausted());
        assert_eq!(mc_agreement(&report, true), McAgreement::Confirmed);

        // Exhausted + witness + clean verdict: also confirmed.
        let report = check(&pristine, &McConfig::default());
        assert!(report.pristine_witness.is_some());
        assert_eq!(mc_agreement(&report, false), McAgreement::Confirmed);

        // Exhausted + witness *against* an error claim: refuted. (No sound
        // analyzer run produces this pair — synthesized here to pin the
        // classification the exit-2 contract depends on.)
        assert_eq!(mc_agreement(&report, true), McAgreement::Refuted);

        // Budget exhaustion proves nothing either way.
        let starved = McConfig {
            max_states: 1,
            ..McConfig::default()
        };
        let report = check(&doomed, &starved);
        assert!(!report.completeness.is_exhausted());
        assert_eq!(mc_agreement(&report, true), McAgreement::Unverified);
    }
}
