//! The workspace's one JSON writer: `hope-lint --json` and `tables --json`
//! both write through it.
//!
//! A value is its JSON text, built bottom-up: [`string`] escapes and
//! quotes, numbers and `null` are their `Display`, and a container takes
//! its items already written. A container is laid out inline
//! ([`object`], [`array()`]: `{"a": 1, "b": [2, 3]}`) or one item per line
//! ([`object_lines`], [`array_lines`]), where every line of a nested item
//! is indented two more spaces. Members are separated by `", "` and keys
//! from values by `": "`. No text ends in a newline; a document's writer
//! adds it.

/// `s` as a JSON string: quoted, with `"`, `\` and every control character
/// escaped, and everything else (`µs`, `–`) passed through.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An object on one line: `{"key": value, …}`.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    inline('{', members.into_iter().map(member), '}')
}

/// An array on one line: `[item, …]`.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    inline('[', items.into_iter(), ']')
}

/// An object with one member per line; `{}` when empty.
pub fn object_lines<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    lines('{', members.into_iter().map(member), '}')
}

/// An array with one item per line; `[]` when empty.
pub fn array_lines(items: impl IntoIterator<Item = String>) -> String {
    lines('[', items.into_iter(), ']')
}

fn member((key, value): (&str, String)) -> String {
    format!("{}: {value}", string(key))
}

fn inline(open: char, items: impl Iterator<Item = String>, close: char) -> String {
    format!("{open}{}{close}", items.collect::<Vec<_>>().join(", "))
}

/// A written value holds a newline only between items of a `*_lines`
/// container (strings escape theirs), so indenting after every newline
/// indents exactly the nested lines.
fn lines(open: char, items: impl Iterator<Item = String>, close: char) -> String {
    let items: Vec<String> = items
        .map(|item| format!("  {}", item.replace('\n', "\n  ")))
        .collect();
    if items.is_empty() {
        format!("{open}{close}")
    } else {
        format!("{open}\n{}\n{close}", items.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(string("say \"hi\""), r#""say \"hi\"""#);
        assert_eq!(string("back\\slash"), r#""back\\slash""#);
        assert_eq!(string("a\nb\tc\rd"), r#""a\nb\tc\rd""#);
        assert_eq!(string("bell\u{7} esc\u{1b}"), r#""bell\u0007 esc\u001b""#);
        assert_eq!(string(""), r#""""#);
    }

    #[test]
    fn non_ascii_passes_through() {
        assert_eq!(string("500.0µs"), "\"500.0µs\"");
        assert_eq!(string("(k−1)/k – §7"), "\"(k−1)/k – §7\"");
    }

    #[test]
    fn inline_containers_use_comma_space_and_colon_space() {
        let point = object([("x", "1".into()), ("name", string("a\"b"))]);
        assert_eq!(point, r#"{"x": 1, "name": "a\"b"}"#);
        assert_eq!(
            array(["1".into(), point]),
            r#"[1, {"x": 1, "name": "a\"b"}]"#
        );
        assert_eq!(object([("k\n", "null".into())]), r#"{"k\n": null}"#);
        assert_eq!(object([]), "{}");
        assert_eq!(array([]), "[]");
    }

    #[test]
    fn empty_blocks_close_on_the_same_line() {
        assert_eq!(array_lines([]), "[]");
        assert_eq!(object_lines([]), "{}");
    }

    #[test]
    fn nested_blocks_indent_two_spaces_a_level() {
        let rows = array_lines([object([("a", "1".into())]), object([("a", "2".into())])]);
        let doc = array_lines([object_lines([
            ("id", string("e1")),
            ("empty", array_lines([])),
            ("rows", rows),
        ])]);
        let expected = r#"[
  {
    "id": "e1",
    "empty": [],
    "rows": [
      {"a": 1},
      {"a": 2}
    ]
  }
]"#;
        assert_eq!(doc, expected);
        // An escaped newline inside a string is not a line to indent.
        assert_eq!(array_lines([string("x\ny")]), "[\n  \"x\\ny\"\n]");
    }
}
