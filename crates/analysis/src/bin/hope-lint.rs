//! `hope-lint`: the command line over HOPE programs — the static
//! speculation-flow lints, the rollback-cost ranking, and (`--mc`) the
//! schedule-space model checker's report.
//!
//! See [`HELP`] for the full option and exit-status contract.

use std::io::{ErrorKind, Read, Write};
use std::process::ExitCode;

use hope_analysis::cost::{self, CostWeights, Order};
use hope_analysis::{
    json, render_json, render_text, Analyzer, Severity, DEFAULT_CASCADE_THRESHOLD,
};
use hope_core::program::Program;
use hope_mc::{check, BudgetReason, Completeness, McConfig, McReport};

const USAGE: &str = "usage: hope-lint [--json] [--print] [--rank | --cost] [--mc] \
                     [--mc-states N] [--cascade-threshold N] \
                     <FILE | - | --generate SEED,PROCS,LEN,AIDS>";

/// The `--help` text: options plus the exit-status contract scripts rely
/// on.
const HELP: &str = "\
hope-lint — static speculation-flow analysis for HOPE programs

usage: hope-lint [OPTIONS] <FILE | - | --generate SEED,PROCS,LEN,AIDS>

Program sources (exactly one; a second is a usage error):
  FILE                     a program in Program's display syntax
  -                        read the program from stdin
  --generate S,P,L,A       analyze Program::generate(S, P, L, A) instead;
                           spaces around a number are ignored

Options:
  --json                   emit the output as JSON instead of text
  --print                  also print the program before the output
  --cascade-threshold N    cascade-depth warning threshold (default 3)
  --rank                   print guess sites ranked by expected rollback
                           damage (highest first) instead of diagnostics
  --cost                   like --rank, but in program order and without
                           rank numbers
  --mc                     also model-check the full schedule space and
                           print the checker's report (verdict, counts,
                           terminals, pristine witness) and whether it
                           confirms the static verdict; skipped, with a
                           line saying so, for a program naming an
                           undeclared process or AID (an invalid-target
                           error: exit 1); cannot combine with --rank/--cost
  --mc-states N            state budget for --mc (default 200000); implies
                           --mc
  -h, --help               show this help and exit 0

Exit status:
  0  the program was analyzed and no error-severity diagnostic fired;
     warnings do not change the exit status, and neither do --rank/--cost
     (they swap the *output*, not the verdict — the lints still run) or
     an --mc budget running out (the check is then unverified)
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
    /// `--rank` or `--cost`: the guess sites' costs instead of diagnostics.
    Costs(Order),
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
    /// `Program::generate`'s seed, processes, length and AIDs.
    Generate(u64, usize, usize, usize),
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
            "--mc" => _ = mc.get_or_insert_with(McConfig::default),
            "--mc-states" => {
                let value = it.next().ok_or("--mc-states needs a value")?;
                mc.get_or_insert_with(McConfig::default).max_states = value
                    .parse()
                    .map_err(|_| format!("bad --mc-states value `{value}`"))?;
            }
            "--rank" | "--cost" => {
                let wanted = Mode::Costs(if arg == "--rank" {
                    Order::Damage
                } else {
                    Order::Site
                });
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
                set_source(&mut source, parse_generate(spec)?)?;
            }
            "-h" | "--help" => return Err(String::new()),
            "-" => set_source(&mut source, Source::Stdin)?,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            path => set_source(&mut source, Source::File(path.to_string()))?,
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

/// Fill the one program source; a second of any kind is a usage error.
fn set_source(slot: &mut Option<Source>, source: Source) -> Result<(), String> {
    match slot.replace(source) {
        None => Ok(()),
        Some(_) => Err("more than one program source given".into()),
    }
}

/// `--generate SEED,PROCS,LEN,AIDS`: four comma-separated numbers, each
/// trimmed of surrounding whitespace.
fn parse_generate(spec: &str) -> Result<Source, String> {
    let fields: Vec<&str> = spec.split(',').map(str::trim).collect();
    let [seed, procs, len, aids] = fields.as_slice() else {
        return Err(format!(
            "--generate wants 4 comma-separated numbers, got `{spec}`"
        ));
    };
    let bad = |field: &str| format!("bad --generate field `{field}` in `{spec}`");
    Ok(Source::Generate(
        seed.parse().map_err(|_| bad(seed))?,
        procs.parse().map_err(|_| bad(procs))?,
        len.parse().map_err(|_| bad(len))?,
        aids.parse().map_err(|_| bad(aids))?,
    ))
}

fn load(source: Source) -> Result<Program, String> {
    let text = match source {
        Source::Generate(seed, procs, len, aids) => {
            return Ok(Program::generate(seed, procs, len, aids))
        }
        Source::File(path) => {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
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

/// One model-checking run: the checker's report and how it relates to the
/// static verdict. Its two renderers, [`McRun::json`] and [`McRun::text`],
/// print the same fields.
struct McRun {
    report: McReport,
    has_error: bool,
}

impl McRun {
    fn agreement(&self) -> McAgreement {
        mc_agreement(&self.report, self.has_error)
    }

    fn verdict(&self) -> &'static str {
        match self.report.completeness {
            Completeness::Exhausted => "exhausted",
            Completeness::BudgetExceeded(BudgetReason::MaxStates) => "budget-exceeded:states",
            Completeness::BudgetExceeded(BudgetReason::MaxDepth) => "budget-exceeded:depth",
        }
    }

    fn agreement_name(&self) -> &'static str {
        match self.agreement() {
            McAgreement::Confirmed => "confirmed",
            McAgreement::Unverified => "unverified",
            McAgreement::Refuted => "refuted",
        }
    }

    /// One object. The agreement is also given as 0/1 counts of
    /// `confirmed`, `unverified` and `refuted`, so scripts aggregating many
    /// runs can add the fields without re-deriving them from `agreement`.
    fn json(&self) -> String {
        let r = &self.report;
        let schedule = r.pristine_witness.as_ref().map_or_else(
            || "null".into(),
            |w| json::array(w.iter().map(usize::to_string)),
        );
        let count = |a: McAgreement| u8::from(self.agreement() == a).to_string();
        let no_pristine = r.proves_no_pristine_schedule();
        json::object([
            ("verdict", json::string(self.verdict())),
            ("states", r.states.to_string()),
            ("transitions", r.transitions.to_string()),
            ("cache_hits", r.cache_hits.to_string()),
            ("sleep_pruned", r.sleep_pruned.to_string()),
            ("singleton_states", r.singleton_states.to_string()),
            ("frontier_remaining", r.frontier_remaining.to_string()),
            ("explored_fraction", format!("{:.4}", r.explored_fraction())),
            ("completed_terminals", r.completed_terminals.to_string()),
            ("deadlock_terminals", r.deadlock_terminals.to_string()),
            ("distinct_outputs", r.distinct_outputs().to_string()),
            ("pristine_schedule", schedule),
            ("proves_no_pristine_schedule", no_pristine.to_string()),
            ("agreement", json::string(self.agreement_name())),
            ("confirmed", count(McAgreement::Confirmed)),
            ("unverified", count(McAgreement::Unverified)),
            ("refuted", count(McAgreement::Refuted)),
        ])
    }

    /// `mc:` lines: the verdict with the search's counts, the terminals,
    /// the pristine witness if one was found, and the agreement.
    fn text(&self) -> String {
        let r = &self.report;
        let frontier = if r.completeness.is_exhausted() {
            String::new()
        } else {
            format!(", {} frontier states left", r.frontier_remaining)
        };
        let mut out = format!(
            "mc: {} — {} states, {} transitions ({} cache hits, {} sleep-pruned, \
             {} singleton states{frontier})\n\
             mc: terminals — {} completed, {} deadlocked; {} distinct committed outcome(s)\n",
            self.verdict(),
            r.states,
            r.transitions,
            r.cache_hits,
            r.sleep_pruned,
            r.singleton_states,
            r.completed_terminals,
            r.deadlock_terminals,
            r.distinct_outputs(),
        );
        if let Some(w) = &r.pristine_witness {
            let steps: Vec<String> = w.iter().map(|p| format!("P{p}")).collect();
            out.push_str(&format!("mc: witness — {}\n", steps.join(" ")));
        }
        let agreement = match self.agreement() {
            McAgreement::Unverified => format!(
                "unverified — budget exceeded at {:.1}% of the reduced space; \
                 raise --mc-states for a proof",
                r.explored_fraction() * 100.0
            ),
            McAgreement::Refuted => "REFUTED — a pristine schedule exists despite an error \
                                     diagnostic (analyzer soundness bug)"
                .into(),
            McAgreement::Confirmed if self.has_error => "confirmed — no schedule finalizes \
                                                         pristinely, proven over the full \
                                                         reduced interleaving space"
                .into(),
            McAgreement::Confirmed if r.pristine_witness.is_some() => {
                "confirmed — a pristine schedule exists, consistent with the clean verdict".into()
            }
            McAgreement::Confirmed => "confirmed — no pristine schedule, but no error claimed \
                                       one (warnings do not promise finalization)"
                .into(),
        };
        out.push_str(&format!("mc: {agreement}\n"));
        out
    }
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
    let program = match load(options.source) {
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
    let mc_run = options.mc.as_ref().map(|cfg| {
        program.check_bounds().map(|()| McRun {
            report: check(&program, cfg),
            has_error,
        })
    });
    let rendered = match options.mode {
        Mode::Lint if options.json => match &mc_run {
            Some(run) => {
                let mc = match run {
                    Ok(run) => run.json(),
                    Err(e) => json::object([
                        ("verdict", json::string("skipped")),
                        ("reason", json::string(&e.to_string())),
                    ]),
                };
                json::object_lines([
                    ("diagnostics", render_json(&diagnostics).trim_end().into()),
                    ("mc", mc),
                ]) + "\n"
            }
            None => render_json(&diagnostics),
        },
        Mode::Lint => match &mc_run {
            Some(run) => format!(
                "{}{}",
                render_text(&diagnostics),
                match run {
                    Ok(run) => run.text(),
                    Err(e) =>
                        format!("mc: skipped — {e}, and the explorer needs every name declared\n"),
                }
            ),
            None => render_text(&diagnostics),
        },
        Mode::Costs(order) => {
            let costs = cost::rank_with(&program, &flow, &CostWeights::default());
            if options.json {
                cost::render_json(&costs, order)
            } else {
                cost::render_text(&costs, order)
            }
        }
    };
    if let Err(code) = emit(&rendered) {
        return code;
    }
    let refuted = matches!(&mc_run, Some(Ok(run)) if run.agreement() == McAgreement::Refuted);
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
