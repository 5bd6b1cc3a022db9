//! The `tables` binary on a closed stdout: `tables e3 | head -1` ends with
//! exit 0 and no panic, as `hope-lint | head` does.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// The reader goes away before the first line (the first write fails) and
/// after it (a later write fails, if the program has not written
/// everything by then).
#[test]
fn a_closed_stdout_exits_zero_without_a_panic() {
    for lines_read in [0, 1] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tables"))
            .arg("e3")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tables");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        for _ in 0..lines_read {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("read a line");
            assert_eq!(line, "# HOPE reproduction — experiment tables\n");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("wait for tables");
        let why = format!(
            "{lines_read} line(s) read: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!why.contains("panicked"), "{why}");
        assert_eq!(out.status.code(), Some(0), "{why}");
    }
}
