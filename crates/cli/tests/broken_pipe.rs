//! The CLI stops quietly when the reader of its stdout goes away
//! (`socl export | head`), instead of panicking with a backtrace.

use std::io::Read;
use std::process::{Command, Stdio};

/// `socl export` writes the scenario as one JSON document, here several
/// times a pipe's default capacity, so the write is still blocked on the
/// pipe when the reader closes it after a few bytes.
#[test]
fn closed_stdout_stops_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_socl"))
        .args(["export", "--nodes", "40", "--users", "800"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn socl");
    let mut head = [0u8; 16];
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout
        .read_exact(&mut head)
        .expect("read the head of the export");
    assert_eq!(head[0], b'{', "export starts a JSON object");
    drop(stdout);

    let out = child.wait_with_output().expect("wait for socl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "socl panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}
