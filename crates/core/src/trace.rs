//! Human-readable rendering of engine activity and machine histories.
//!
//! Traces are the debugging surface of an optimistic system: when a
//! rollback cascade surprises you, the trace shows which deny reached which
//! interval through which dependence edge. [`TraceLog`] collects
//! [`Effect`]s with a caller-supplied label per transition and renders them
//! in the paper's notation (`P0: interval A3 started`, `X1 denied`, …).

use std::fmt;

use crate::effect::Effect;
use crate::machine::{Event, History};

/// An accumulating, renderable log of engine effects.
///
/// # Examples
///
/// ```
/// use hope_core::{Engine, Checkpoint};
/// use hope_core::trace::TraceLog;
///
/// let mut engine = Engine::new();
/// let mut log = TraceLog::new();
/// let p = engine.register_process();
/// let x = engine.aid_init(p);
/// let (_, fx) = engine.guess(p, &[x], Checkpoint(0))?;
/// log.extend("worker guesses PartPage", &fx);
/// let fx = engine.affirm(p, x)?;
/// log.extend("worrywart affirms", &fx);
/// assert!(log.render().contains("interval A0 started"));
/// # Ok::<(), hope_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    entries: Vec<(String, Vec<Effect>)>,
}

impl TraceLog {
    /// Create an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Append one transition's effects under a label.
    pub fn extend(&mut self, label: impl Into<String>, effects: &[Effect]) {
        self.entries.push((label.into(), effects.to_vec()));
    }

    /// Number of transitions logged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render the whole log as indented text.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (label, effects) in &self.entries {
            writeln!(f, "{label}")?;
            for e in effects {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

/// Render one machine [`Event`] in compact notation.
pub fn render_event(event: &Event) -> String {
    match event {
        Event::Guess { aid, value } => format!("guess({aid}) -> {value}"),
        Event::Affirm { aid, speculative } => {
            format!("affirm({aid}){}", spec_suffix(*speculative))
        }
        Event::Deny { aid, speculative } => format!("deny({aid}){}", spec_suffix(*speculative)),
        Event::FreeOf { aid } => format!("free_of({aid})"),
        Event::Compute => "compute".to_string(),
        Event::Send { to, msg } => format!("send m{msg} -> {to}"),
        Event::Recv { msg, speculative } => {
            format!("recv m{msg}{}", spec_suffix(*speculative))
        }
        Event::GhostDropped { msg, denied } => format!("drop ghost m{msg} ({denied} denied)"),
        Event::Skipped { stmt } => format!("skip {stmt}"),
        Event::Resumed { at_pc } => format!("ROLLBACK, resume @pc{at_pc} with False"),
    }
}

fn spec_suffix(speculative: bool) -> &'static str {
    if speculative {
        " [speculative]"
    } else {
        ""
    }
}

/// Render a whole history, one state per line, in the paper's
/// `S_i E_i S_{i+1}` spirit.
pub fn render_history(label: &str, history: &History) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{label} (truncations: {}):", history.truncations());
    for (i, s) in history.states().iter().enumerate() {
        let interval = match s.interval {
            Some(a) => a.to_string(),
            None => "∅".to_string(),
        };
        let g = match s.g {
            Some(true) => "T",
            Some(false) => "F",
            None => "-",
        };
        let _ = writeln!(
            out,
            "  S{i:<3} pc={:<3} I={interval:<5} G={g}  {}",
            s.pc,
            render_event(&s.event)
        );
    }
    out
}

/// Render the engine's live dependency graph in Graphviz DOT format:
/// interval nodes (boxes, colored by status), AID nodes (ellipses, colored
/// by state), and `IDO`/`DOM` edges. Paste into `dot -Tsvg` when a
/// rollback cascade needs staring at. Fossil-collected records (below
/// [`Engine::interval_horizon`](crate::Engine::interval_horizon)) are
/// skipped — they hold no dependence edges by construction.
pub fn render_dependency_graph(engine: &crate::Engine) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("digraph hope {\n  rankdir=LR;\n");
    for i in engine.interval_horizon()..engine.interval_count() as u64 {
        let id = crate::IntervalId::from_index(i);
        let v = engine.interval(id).expect("index in range");
        let color = match v.status() {
            crate::IntervalStatus::Speculative => "orange",
            crate::IntervalStatus::Definite => "green",
            crate::IntervalStatus::RolledBack => "gray",
        };
        let _ = writeln!(
            out,
            "  \"{id}\" [shape=box, color={color}, label=\"{id}\\n{}\"];",
            v.process()
        );
        for x in v.ido().iter() {
            let _ = writeln!(out, "  \"{id}\" -> \"{x}\" [label=\"IDO\"];");
        }
    }
    for i in engine.aid_horizon()..engine.aid_count() as u64 {
        let x = crate::AidId::from_index(i);
        let v = engine.aid(x).expect("index in range");
        let color = match v.state() {
            crate::AidState::Undecided => "orange",
            crate::AidState::Affirmed => "green",
            crate::AidState::Denied => "red",
        };
        let _ = writeln!(out, "  \"{x}\" [shape=ellipse, color={color}];");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::program::{Program, Stmt};

    #[test]
    fn trace_log_accumulates_and_renders() {
        let mut engine = crate::Engine::new();
        let mut log = TraceLog::new();
        assert!(log.is_empty());
        let p = engine.register_process();
        let x = engine.aid_init(p);
        let (_, fx) = engine.guess(p, &[x], crate::Checkpoint(0)).unwrap();
        log.extend("guess", &fx);
        let fx = engine.deny(p, x).unwrap();
        log.extend("deny", &fx);
        assert_eq!(log.len(), 2);
        let text = log.render();
        assert!(text.contains("interval A0 started"), "{text}");
        assert!(text.contains("X0 denied"), "{text}");
        assert!(text.contains("rolled back"), "{text}");
    }

    #[test]
    fn history_renders_guess_values() {
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Compute],
            vec![Stmt::Deny(0)],
        ]);
        let mut m = Machine::new(program);
        m.run(100);
        let text = render_history("P0", m.history(0));
        assert!(text.contains("G=F"), "{text}");
        assert!(text.contains("ROLLBACK"), "{text}");
    }

    #[test]
    fn dependency_graph_renders_dot() {
        let mut engine = crate::Engine::new();
        let p = engine.register_process();
        let q = engine.register_process();
        let x = engine.aid_init(p);
        let y = engine.aid_init(p);
        engine.guess(p, &[x], crate::Checkpoint(0)).unwrap();
        engine.guess(q, &[y], crate::Checkpoint(0)).unwrap();
        engine.affirm(q, x).unwrap(); // speculative
        let dot = render_dependency_graph(&engine);
        assert!(dot.starts_with("digraph hope {"), "{dot}");
        assert!(dot.contains("\"A0\" [shape=box"), "{dot}");
        assert!(dot.contains("\"X1\" [shape=ellipse"), "{dot}");
        assert!(dot.contains("-> \"X1\""), "{dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
    }

    #[test]
    fn event_rendering_covers_all_variants() {
        use crate::{AidId, ProcessId};
        let cases = [
            Event::Guess {
                aid: AidId::from_index(0),
                value: true,
            },
            Event::Affirm {
                aid: AidId::from_index(0),
                speculative: true,
            },
            Event::Deny {
                aid: AidId::from_index(0),
                speculative: false,
            },
            Event::FreeOf {
                aid: AidId::from_index(0),
            },
            Event::Compute,
            Event::Send {
                to: ProcessId(1),
                msg: 4,
            },
            Event::Recv {
                msg: 4,
                speculative: true,
            },
            Event::GhostDropped {
                msg: 4,
                denied: AidId::from_index(0),
            },
            Event::Skipped {
                stmt: Stmt::Affirm(0),
            },
            Event::Resumed { at_pc: 3 },
        ];
        for c in &cases {
            assert!(!render_event(c).is_empty());
        }
    }
}
