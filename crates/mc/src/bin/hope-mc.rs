//! `hope-mc` — model-check a HOPE machine program's schedule space.
//!
//! ```text
//! usage: hope-mc [OPTIONS] <FILE | ->
//!        hope-mc [OPTIONS] --generate SEED,PROCS,LEN,AIDS
//!
//! Explores every inequivalent interleaving of the program
//! (canonical-state memoization + sleep sets + persistent singletons)
//! and reports whether any schedule finalizes pristinely, whether all
//! completed schedules commit the same outcome, and what the reduction
//! pruned. Over-budget runs report the fraction of the reduced space they
//! covered.
//!
//! options:
//!   --json             machine-readable report on stdout
//!   --naive            no cache, no reduction (the oracle)
//!   --max-states N     state budget (default 200000)
//!   --max-depth N      per-branch depth bound (default 2000)
//!   --quiet            verdict line only
//!
//! exit status: 0 exhausted, 1 budget exceeded, 2 usage/parse error (a
//! statement naming an undeclared process or AID included).
//! ```

use std::fmt::Write as _;
use std::io::Read as _;
use std::process::ExitCode;

use hope_core::program::Program;
use hope_mc::{check, BudgetReason, Completeness, McConfig, McReport, Mode};

struct Args {
    source: Source,
    cfg: McConfig,
    json: bool,
    quiet: bool,
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

fn usage() -> &'static str {
    "usage: hope-mc [--json] [--quiet] [--naive] [--max-states N] [--max-depth N] \
     <FILE | - | --generate S,P,L,A>"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut source = None;
    let mut cfg = McConfig::default();
    let mut json = false;
    let mut quiet = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--naive" => cfg.mode = Mode::Naive,
            "--max-states" => {
                let v = it.next().ok_or("--max-states needs a value")?;
                cfg.max_states = v.parse().map_err(|_| format!("bad --max-states `{v}`"))?;
            }
            "--max-depth" => {
                let v = it.next().ok_or("--max-depth needs a value")?;
                cfg.max_depth = v.parse().map_err(|_| format!("bad --max-depth `{v}`"))?;
            }
            "--generate" => {
                let v = it.next().ok_or("--generate needs SEED,PROCS,LEN,AIDS")?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 4 {
                    return Err(format!(
                        "--generate wants 4 comma-separated values, got `{v}`"
                    ));
                }
                let nums: Vec<u64> = parts
                    .iter()
                    .map(|s| s.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad --generate spec `{v}`"))?;
                source = Some(Source::Generate {
                    seed: nums[0],
                    procs: nums[1] as usize,
                    len: nums[2] as usize,
                    aids: nums[3] as usize,
                });
            }
            "-" => source = Some(Source::Stdin),
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            path => source = Some(Source::File(path.to_string())),
        }
    }
    let source = source.ok_or("no input: pass a file, `-`, or --generate")?;
    Ok(Args {
        source,
        cfg,
        json,
        quiet,
    })
}

/// Read the program from its source and reject one that names an
/// undeclared process or AID: the explorer indexes its tables by them.
fn load(source: &Source) -> Result<Program, String> {
    let program: Program = match source {
        Source::Generate {
            seed,
            procs,
            len,
            aids,
        } => Program::generate(*seed, *procs, *len, *aids),
        Source::Stdin => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            text.parse().map_err(|e| format!("parse error: {e}"))?
        }
        Source::File(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            text.parse().map_err(|e| format!("parse error: {e}"))?
        }
    };
    program
        .check_bounds()
        .map_err(|e| format!("invalid program: {e}"))?;
    Ok(program)
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Naive => "naive",
        Mode::SleepSet => "reduced",
    }
}

fn verdict_name(r: &McReport) -> &'static str {
    match r.completeness {
        Completeness::Exhausted => "exhausted",
        Completeness::BudgetExceeded(BudgetReason::MaxStates) => "budget-exceeded:states",
        Completeness::BudgetExceeded(BudgetReason::MaxDepth) => "budget-exceeded:depth",
    }
}

fn schedule_json(s: &[usize]) -> String {
    let items: Vec<String> = s.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

fn render_json(r: &McReport, mode: Mode) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"verdict\": \"{}\",", verdict_name(r));
    let _ = writeln!(out, "  \"mode\": \"{}\",", mode_name(mode));
    let _ = writeln!(out, "  \"states\": {},", r.states);
    let _ = writeln!(out, "  \"transitions\": {},", r.transitions);
    let _ = writeln!(out, "  \"cache_hits\": {},", r.cache_hits);
    let _ = writeln!(out, "  \"sleep_pruned\": {},", r.sleep_pruned);
    let _ = writeln!(out, "  \"singleton_states\": {},", r.singleton_states);
    let _ = writeln!(out, "  \"frontier_remaining\": {},", r.frontier_remaining);
    let _ = writeln!(
        out,
        "  \"explored_fraction\": {:.4},",
        r.explored_fraction()
    );
    let _ = writeln!(out, "  \"completed_terminals\": {},", r.completed_terminals);
    let _ = writeln!(out, "  \"deadlock_terminals\": {},", r.deadlock_terminals);
    let _ = writeln!(out, "  \"distinct_outputs\": {},", r.distinct_outputs());
    match &r.pristine_witness {
        Some(w) => {
            let _ = writeln!(out, "  \"pristine_schedule\": {},", schedule_json(w));
        }
        None => {
            let _ = writeln!(out, "  \"pristine_schedule\": null,");
        }
    }
    let _ = writeln!(
        out,
        "  \"proves_no_pristine_schedule\": {}",
        r.proves_no_pristine_schedule()
    );
    let _ = writeln!(out, "}}");
    out
}

fn render_text(r: &McReport, mode: Mode, quiet: bool) -> String {
    let mut out = String::new();
    let pristine = match &r.pristine_witness {
        Some(w) => format!("pristine schedule found ({} steps)", w.len()),
        None if r.completeness.is_exhausted() => {
            "no schedule finalizes pristinely (proven over the full reduced space)".to_string()
        }
        None => format!(
            "no pristine schedule found (budget exceeded at {:.1}% of the reduced space: not a proof)",
            r.explored_fraction() * 100.0
        ),
    };
    let _ = writeln!(
        out,
        "verdict: {} [{}] — {}",
        verdict_name(r),
        mode_name(mode),
        pristine
    );
    if quiet {
        return out;
    }
    let _ = writeln!(
        out,
        "explored: {} states, {} transitions ({} cache hits, {} sleep-pruned, {} singleton states)",
        r.states, r.transitions, r.cache_hits, r.sleep_pruned, r.singleton_states
    );
    let _ = writeln!(
        out,
        "terminals: {} completed, {} deadlocked; {} distinct committed outcome(s)",
        r.completed_terminals,
        r.deadlock_terminals,
        r.distinct_outputs()
    );
    if let Some(w) = &r.pristine_witness {
        let steps: Vec<String> = w.iter().map(|p| format!("P{p}")).collect();
        let _ = writeln!(out, "witness: {}", steps.join(" "));
    }
    out
}

/// Write to stdout, treating a broken pipe (`hope-mc ... | head`) as a
/// clean early exit rather than a panic. Other I/O errors exit 2.
fn emit(text: &str) -> Result<(), ExitCode> {
    use std::io::Write as _;
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("hope-mc: cannot write to stdout: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("hope-mc: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let program = match load(&args.source) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("hope-mc: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = check(&program, &args.cfg);
    let rendered = if args.json {
        render_json(&report, args.cfg.mode)
    } else {
        render_text(&report, args.cfg.mode, args.quiet)
    };
    if let Err(code) = emit(&rendered) {
        return code;
    }
    match report.completeness {
        Completeness::Exhausted => ExitCode::SUCCESS,
        Completeness::BudgetExceeded(_) => ExitCode::from(1),
    }
}
