//! Plain-text result tables, one per experiment.

use std::fmt;

use hope_analysis::json;

/// An aligned, markdown-compatible results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Append a footnote rendered under the table.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Cell at `(row, col)` for programmatic checks in tests.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The footnotes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Render experiment tables as JSON: an array of experiment objects, each
/// with its `experiment` id, `title`, `headers`, `notes`, and `rows` —
/// every row an object keyed by the column headers, all values strings.
pub fn tables_to_json(tables: &[(&str, Table)]) -> String {
    let strings = |items: &[String]| json::array(items.iter().map(|s| json::string(s)));
    json::array_lines(tables.iter().map(|(id, t)| {
        let rows = t.rows().iter().map(|row| {
            let cells = t.headers().iter().zip(row);
            json::object(cells.map(|(h, cell)| (h.as_str(), json::string(cell))))
        });
        json::object_lines([
            ("experiment", json::string(id)),
            ("title", json::string(t.title())),
            ("headers", strings(t.headers())),
            ("notes", strings(t.notes())),
            ("rows", json::array_lines(rows)),
        ])
    })) + "\n"
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        write!(f, "|")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, " {h:>w$} |", w = w)?;
        }
        writeln!(f)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$} |", w = w)?;
            }
            writeln!(f)?;
        }
        for n in &self.notes {
            writeln!(f, "> {n}")?;
        }
        Ok(())
    }
}

/// Format a millisecond quantity compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else if ms >= 1.0 {
        format!("{ms:.2}ms")
    } else {
        format!("{:.1}µs", ms * 1000.0)
    }
}

/// Format a ratio as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["param", "value"]);
        t.push(vec!["rtt".into(), "30ms".into()]);
        t.push(vec!["long-parameter".into(), "1".into()]);
        t.note("a footnote");
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| long-parameter |"));
        assert!(s.contains("> a footnote"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.cell(0, 1), Some("30ms"));
        assert_eq!(t.cell(5, 0), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn json_schema_has_ids_headers_notes_and_keyed_rows() {
        let mut t = Table::new("Demo", &["param", "value"]);
        t.push(vec!["rtt".into(), "30ms".into()]);
        t.push(vec!["loss".into(), "1".into()]);
        t.note("a note");
        let json = tables_to_json(&[("e99", t)]);
        assert!(json.starts_with("[\n  {\n"));
        assert!(json.ends_with("\n  }\n]\n"));
        assert!(json.contains("\n    \"experiment\": \"e99\",\n"));
        assert!(json.contains("\n    \"title\": \"Demo\",\n"));
        assert!(json.contains("\n    \"headers\": [\"param\", \"value\"],\n"));
        assert!(json.contains("\n    \"notes\": [\"a note\"],\n"));
        assert!(json.contains("\n    \"rows\": [\n"));
        assert!(json.contains("\n      {\"param\": \"rtt\", \"value\": \"30ms\"},\n"));
        assert!(json.contains("\n      {\"param\": \"loss\", \"value\": \"1\"}\n    ]\n"));
        // Balanced brackets — a cheap well-formedness check without a
        // JSON parser in the workspace.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balance"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(250.0), "250ms");
        assert_eq!(fmt_ms(2.5), "2.50ms");
        assert_eq!(fmt_ms(0.5), "500.0µs");
        assert_eq!(fmt_pct(0.425), "42.5%");
    }
}
