//! The engine's live dependency graph as Graphviz DOT.
//!
//! When a rollback cascade surprises you, the graph shows which deny
//! reached which interval through which dependence edge. Process actions
//! are rendered by [`Action`](crate::Action)'s `Display`.

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
}
