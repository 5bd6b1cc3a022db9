//! A tiny statement language for driving the [abstract
//! machine](crate::machine).
//!
//! The paper models a distributed program as "a collection of communicating
//! sequential processes … a generator of execution sequences" (§4). A
//! [`Program`] here is exactly that: one statement list per process, each
//! statement being a HOPE primitive, an internal computation event, or a
//! message send/receive. Programs are deliberately *unstructured* (no
//! branches): the semantics of the primitives do not depend on control flow,
//! and straight-line programs make exhaustive and randomized theorem
//! checking tractable.
//!
//! The module also provides a deterministic random-program generator
//! ([`Program::generate`]) used by the property-test suite and the engine
//! benchmarks. It is seeded and self-contained (a SplitMix64 generator) so
//! `hope-core` needs no RNG dependency.

use std::fmt;

/// Index of an assumption identifier within a [`Program`]'s pre-declared
/// AID table (the machine creates `aid_count` AIDs up front).
pub type AidVar = usize;

/// Index of a process within a [`Program`].
pub type ProcIdx = usize;

/// One statement of the machine's subject language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// `guess(x)`: begin speculating on AID `x` (§5.1).
    Guess(AidVar),
    /// `affirm(x)` (§5.2). Skipped (recorded, not executed) if `x` was
    /// already consumed.
    Affirm(AidVar),
    /// `deny(x)` (§5.3). Skipped if `x` was already consumed.
    Deny(AidVar),
    /// `free_of(x)` (§5.4). Skipped if `x` was already consumed.
    FreeOf(AidVar),
    /// An internal event that changes only local state.
    Compute,
    /// Send a message (tagged with the sender's dependence set) to process
    /// `to`.
    Send {
        /// Destination process.
        to: ProcIdx,
    },
    /// Receive the next deliverable message, implicitly guessing every
    /// undecided AID in its tag. Blocks (the scheduler skips the process)
    /// while the mailbox holds no deliverable message.
    Recv,
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Guess(x) => write!(f, "guess(x{x})"),
            Stmt::Affirm(x) => write!(f, "affirm(x{x})"),
            Stmt::Deny(x) => write!(f, "deny(x{x})"),
            Stmt::FreeOf(x) => write!(f, "free_of(x{x})"),
            Stmt::Compute => write!(f, "compute"),
            Stmt::Send { to } => write!(f, "send(P{to})"),
            Stmt::Recv => write!(f, "recv"),
        }
    }
}

/// A straight-line distributed HOPE program: `code[p]` is the statement
/// list of process `p`, and `aid_count` AIDs are pre-declared.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Per-process statement lists.
    pub code: Vec<Vec<Stmt>>,
    /// Number of pre-declared assumption identifiers.
    pub aid_count: usize,
}

impl Program {
    /// Build a program from explicit per-process statement lists.
    ///
    /// `aid_count` is inferred as one past the largest AID variable
    /// mentioned (zero if none).
    pub fn new(code: Vec<Vec<Stmt>>) -> Self {
        let aid_count = code
            .iter()
            .flatten()
            .filter_map(|s| match s {
                Stmt::Guess(x) | Stmt::Affirm(x) | Stmt::Deny(x) | Stmt::FreeOf(x) => Some(*x + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Program { code, aid_count }
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.code.len()
    }

    /// Total statement count across processes.
    pub fn len(&self) -> usize {
        self.code.iter().map(Vec::len).sum()
    }

    /// `true` if no process has any statements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every statement naming a process or AID the program does not
    /// declare, in program order. The [machine](crate::machine) indexes its
    /// tables by them, so a program with any must not be run.
    pub fn out_of_bounds(&self) -> impl Iterator<Item = OutOfBounds> + '_ {
        let (procs, aids) = (self.process_count(), self.aid_count);
        self.code.iter().enumerate().flat_map(move |(proc, stmts)| {
            stmts.iter().enumerate().filter_map(move |(index, &stmt)| {
                let declared = match stmt {
                    Stmt::Send { to } if to >= procs => procs,
                    Stmt::Guess(x) | Stmt::Affirm(x) | Stmt::Deny(x) | Stmt::FreeOf(x)
                        if x >= aids =>
                    {
                        aids
                    }
                    _ => return None,
                };
                Some(OutOfBounds {
                    proc,
                    index,
                    stmt,
                    declared,
                })
            })
        })
    }

    /// Check that every statement names a declared process and AID; the
    /// error is the first of [`Program::out_of_bounds`].
    pub fn check_bounds(&self) -> Result<(), OutOfBounds> {
        self.out_of_bounds().next().map_or(Ok(()), Err)
    }

    /// Generate a random program with `procs` processes of `len` statements
    /// each over `aids` assumption identifiers, deterministically from
    /// `seed`.
    ///
    /// The statement mix favours guesses and sends so that generated runs
    /// exercise deep speculation and cross-process dependence; `Recv` is
    /// emitted in proportion to sends so programs rarely deadlock (and the
    /// machine's step budget bounds them regardless).
    pub fn generate(seed: u64, procs: usize, len: usize, aids: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut code = Vec::with_capacity(procs);
        for p in 0..procs {
            let mut stmts = Vec::with_capacity(len);
            for _ in 0..len {
                let x = (rng.next() % aids.max(1) as u64) as usize;
                let stmt = match rng.next() % 100 {
                    0..=24 => Stmt::Guess(x),
                    25..=39 => Stmt::Affirm(x),
                    40..=49 => Stmt::Deny(x),
                    50..=56 => Stmt::FreeOf(x),
                    57..=69 => Stmt::Compute,
                    70..=84 if procs > 1 => {
                        let mut to = (rng.next() % procs as u64) as usize;
                        if to == p {
                            to = (to + 1) % procs;
                        }
                        Stmt::Send { to }
                    }
                    _ => Stmt::Recv,
                };
                stmts.push(stmt);
            }
            code.push(stmts);
        }
        Program {
            code,
            aid_count: aids,
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (p, stmts) in self.code.iter().enumerate() {
            writeln!(f, "process P{p}:")?;
            for (i, s) in stmts.iter().enumerate() {
                writeln!(f, "  {i:3}: {s}")?;
            }
        }
        Ok(())
    }
}

/// A statement naming a process or AID its program does not declare (see
/// [`Program::out_of_bounds`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfBounds {
    /// The process the statement belongs to.
    pub proc: ProcIdx,
    /// Its index in that process's statement list.
    pub index: usize,
    /// The statement itself.
    pub stmt: Stmt,
    /// How many processes (for a `send`) or AIDs (for a primitive) the
    /// program declares.
    pub declared: usize,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.stmt {
            Stmt::Send { .. } => "processes",
            _ => "AIDs",
        };
        write!(
            f,
            "P{}:{} `{}`: the program declares only {} {kind}",
            self.proc, self.index, self.stmt, self.declared
        )
    }
}

impl std::error::Error for OutOfBounds {}

/// Error produced when parsing a [`Program`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseProgramError {}

impl std::str::FromStr for Stmt {
    type Err = String;

    /// Parse one statement in the [`Display`](Stmt#impl-Display-for-Stmt)
    /// syntax, e.g. `guess(x0)`, `send(P2)`, `compute`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn aid_arg(s: &str, op: &str) -> Result<AidVar, String> {
            let inner = s
                .strip_prefix(op)
                .and_then(|r| r.strip_prefix('('))
                .and_then(|r| r.strip_suffix(')'))
                .ok_or_else(|| format!("malformed `{op}` statement: `{s}`"))?;
            let digits = inner
                .strip_prefix('x')
                .ok_or_else(|| format!("expected AID like `x0` in `{s}`"))?;
            digits
                .parse::<AidVar>()
                .map_err(|_| format!("bad AID index `{digits}` in `{s}`"))
        }

        let s = s.trim();
        match s {
            "compute" => return Ok(Stmt::Compute),
            "recv" => return Ok(Stmt::Recv),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("send(") {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("malformed `send` statement: `{s}`"))?;
            let digits = inner
                .strip_prefix('P')
                .ok_or_else(|| format!("expected process like `P1` in `{s}`"))?;
            let to = digits
                .parse::<ProcIdx>()
                .map_err(|_| format!("bad process index `{digits}` in `{s}`"))?;
            return Ok(Stmt::Send { to });
        }
        if s.starts_with("guess") {
            return aid_arg(s, "guess").map(Stmt::Guess);
        }
        if s.starts_with("affirm") {
            return aid_arg(s, "affirm").map(Stmt::Affirm);
        }
        if s.starts_with("deny") {
            return aid_arg(s, "deny").map(Stmt::Deny);
        }
        if s.starts_with("free_of") {
            return aid_arg(s, "free_of").map(Stmt::FreeOf);
        }
        Err(format!("unknown statement `{s}`"))
    }
}

impl std::str::FromStr for Program {
    type Err = ParseProgramError;

    /// Parse a program in the [`Display`](Program#impl-Display-for-Program)
    /// syntax — the parser round-trips `Program::to_string`:
    ///
    /// ```text
    /// process P0:
    ///     0: guess(x0)
    ///     1: send(P1)
    /// process P1:
    ///     0: recv
    /// ```
    ///
    /// Leading statement numbers are optional, blank lines and `#` comments
    /// are skipped, and `aid_count` is inferred as in [`Program::new`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut code: Vec<Vec<Stmt>> = Vec::new();
        for (idx, raw) in s.lines().enumerate() {
            let line = idx + 1;
            let err = |message: String| ParseProgramError { line, message };
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            if let Some(header) = text.strip_prefix("process ") {
                let digits = header
                    .strip_prefix('P')
                    .and_then(|h| h.strip_suffix(':'))
                    .ok_or_else(|| {
                        err(format!(
                            "malformed process header `{text}` (want `process P<n>:`)"
                        ))
                    })?;
                let p: usize = digits
                    .parse()
                    .map_err(|_| err(format!("bad process index `{digits}`")))?;
                if p != code.len() {
                    return Err(err(format!(
                        "process P{p} declared out of order (expected P{})",
                        code.len()
                    )));
                }
                code.push(Vec::new());
                continue;
            }
            // Strip an optional `<n>:` statement-number prefix.
            let stmt_text = match text.split_once(':') {
                Some((num, rest)) if num.trim().parse::<usize>().is_ok() => rest.trim(),
                _ => text,
            };
            let stmt: Stmt = stmt_text.parse().map_err(err)?;
            code.last_mut()
                .ok_or_else(|| err(format!("statement `{stmt_text}` before any process header")))?
                .push(stmt);
        }
        Ok(Program::new(code))
    }
}

/// SplitMix64: tiny, high-quality, dependency-free seeded generator.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_infers_aid_count() {
        let p = Program::new(vec![
            vec![Stmt::Guess(3), Stmt::Compute],
            vec![Stmt::Affirm(1)],
        ]);
        assert_eq!(p.aid_count, 4);
        assert_eq!(p.process_count(), 2);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_program() {
        let p = Program::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.aid_count, 0);
    }

    #[test]
    fn check_bounds_names_the_first_undeclared_process_or_aid() {
        assert_eq!(Program::generate(42, 3, 20, 4).check_bounds(), Ok(()));
        let send: Program = "process P0:\n  compute\n  send(P5)\nprocess P1:\n  recv\n"
            .parse()
            .unwrap();
        let err = send.check_bounds().unwrap_err();
        assert_eq!((err.proc, err.index), (0, 1));
        assert_eq!(
            err.to_string(),
            "P0:1 `send(P5)`: the program declares only 2 processes"
        );
        let no_aids = Program {
            code: vec![vec![Stmt::Compute], vec![Stmt::Deny(0)]],
            aid_count: 0,
        };
        assert_eq!(
            no_aids.check_bounds().unwrap_err().to_string(),
            "P1:0 `deny(x0)`: the program declares only 0 AIDs"
        );
        // Every offender, in program order; the check reports the first.
        let both: Program = "process P0:\n  send(P7)\n  guess(x0)\nprocess P1:\n  send(P0)\n"
            .parse()
            .unwrap();
        let both = Program {
            aid_count: 0,
            ..both
        };
        let all: Vec<String> = both.out_of_bounds().map(|o| o.to_string()).collect();
        assert_eq!(
            all,
            [
                "P0:0 `send(P7)`: the program declares only 2 processes",
                "P0:1 `guess(x0)`: the program declares only 0 AIDs",
            ]
        );
        assert_eq!(
            both.check_bounds(),
            Err(both.out_of_bounds().next().unwrap())
        );
    }

    #[test]
    fn generate_is_deterministic() {
        let a = Program::generate(42, 3, 20, 4);
        let b = Program::generate(42, 3, 20, 4);
        assert_eq!(a, b);
        let c = Program::generate(43, 3, 20, 4);
        assert_ne!(a, c);
        assert_eq!(a.process_count(), 3);
        assert_eq!(a.len(), 60);
    }

    #[test]
    fn generate_never_sends_to_self() {
        let p = Program::generate(7, 4, 200, 3);
        for (idx, stmts) in p.code.iter().enumerate() {
            for s in stmts {
                if let Stmt::Send { to } = s {
                    assert_ne!(*to, idx);
                }
            }
        }
    }

    #[test]
    fn display_renders_each_statement() {
        let p = Program::new(vec![vec![
            Stmt::Guess(0),
            Stmt::Affirm(0),
            Stmt::Deny(1),
            Stmt::FreeOf(2),
            Stmt::Compute,
            Stmt::Send { to: 1 },
            Stmt::Recv,
        ]]);
        let s = p.to_string();
        for needle in [
            "guess(x0)",
            "affirm(x0)",
            "deny(x1)",
            "free_of(x2)",
            "compute",
            "send(P1)",
            "recv",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    fn parse_round_trips_display() {
        for seed in 0..20 {
            let p = Program::generate(seed, 3, 12, 4);
            let reparsed: Program = p.to_string().parse().expect("round trip");
            assert_eq!(reparsed.code, p.code);
            // aid_count is inferred on parse, so it may shrink if the largest
            // AID never appears; the code itself must be identical.
            assert!(reparsed.aid_count <= p.aid_count);
        }
    }

    #[test]
    fn parse_accepts_bare_statements_comments_and_blanks() {
        let src = "\n# a doomed free_of\nprocess P0:\n  guess(x1)\n\n  free_of(x1)\n";
        let p: Program = src.parse().unwrap();
        assert_eq!(p.code, vec![vec![Stmt::Guess(1), Stmt::FreeOf(1)]]);
        assert_eq!(p.aid_count, 2);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = "process P0:\n  hope(x0)\n".parse::<Program>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown statement"));

        let err = "  guess(x0)\n".parse::<Program>().unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("before any process header"));

        let err = "process P1:\n".parse::<Program>().unwrap_err();
        assert!(err.to_string().contains("out of order"));

        assert!("process P0:\n guess(y0)\n".parse::<Program>().is_err());
        assert!("process P0:\n send(Q1)\n".parse::<Program>().is_err());
    }

    #[test]
    fn splitmix_differs_across_calls() {
        let mut r = SplitMix64::new(1);
        let a = r.next();
        let b = r.next();
        assert_ne!(a, b);
    }
}
