//! Every figure harness stops quietly when the reader of its stdout goes
//! away (`fig4_temporal | head`), instead of panicking with a backtrace.

use std::process::{Command, Stdio};

/// Each bin is spawned onto a pipe whose read end is closed at once, so its
/// first line already meets a closed reader (or, if the bin wins the race,
/// a later one does, or none: it must exit 0 either way).
#[test]
fn closed_stdout_stops_every_bin_quietly() {
    let bins = [
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_churn"),
        env!("CARGO_BIN_EXE_convergence"),
        env!("CARGO_BIN_EXE_cross_dataset"),
        env!("CARGO_BIN_EXE_fault_tolerance"),
        env!("CARGO_BIN_EXE_fig10_trace"),
        env!("CARGO_BIN_EXE_fig2_opt_runtime"),
        env!("CARGO_BIN_EXE_fig3_similarity"),
        env!("CARGO_BIN_EXE_fig4_temporal"),
        env!("CARGO_BIN_EXE_fig7_opt_vs_socl"),
        env!("CARGO_BIN_EXE_fig8_baselines"),
        env!("CARGO_BIN_EXE_fig9_testbed"),
    ];
    for bin in bins {
        let mut child = Command::new(bin)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the bin");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for the bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{bin} panicked:\n{stderr}");
        assert_eq!(out.status.code(), Some(0), "{bin}, stderr:\n{stderr}");
    }
}
