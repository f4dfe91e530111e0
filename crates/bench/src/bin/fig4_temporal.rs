//! FIG4 — temporal distribution of user requests (Figure 4).
//!
//! The paper plots request volume over a 10-hour Alibaba window: strong
//! recurring peaks over a fluctuating baseline. The synthetic generator
//! reproduces that shape; this harness prints the series plus the summary
//! statistics that characterize it.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fig4_temporal
//! ```

use socl::prelude::*;
use socl_bench::out;

fn main() {
    let cfg = TemporalConfig::default(); // 120 five-minute bins = 10 hours
    let workload = TemporalWorkload::generate(&cfg, 42);

    out!("# FIG4: request volume per 5-minute interval (10 hours)");
    out!("interval,minutes,volume");
    for (i, v) in workload.volumes.iter().enumerate() {
        out!("{i},{},{v:.1}", i * 5);
    }

    let mean = workload.mean();
    let max = workload.volumes.iter().copied().fold(0.0, f64::max);
    let min = workload
        .volumes
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    out!("\n# summary");
    out!("mean,{mean:.1}");
    out!("max,{max:.1}");
    out!("min,{min:.1}");
    out!("peak_to_mean,{:.2}", workload.peak_to_mean());
    out!(
        "# shape check: peak-to-mean {:.2} > 1.5 reproduces the paper's bursty profile",
        workload.peak_to_mean()
    );
}
