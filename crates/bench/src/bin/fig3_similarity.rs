//! FIG3 — service/trace similarity analysis (Figures 3a and 3b).
//!
//! 3a: cosine similarity of microservice-usage vectors between the ten most
//! frequent services of a one-hour synthetic trace. 3b: Jaccard similarity
//! between successive traces of one deep service (≥ 12-microservice chain).
//! The paper's observation to reproduce: similarities are heterogeneous and
//! the cross-trace maximum sits well below 1 (Alibaba: ≈ 0.65).
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fig3_similarity
//! ```

use socl::prelude::*;
use socl::trace::similarity::{offdiag_max, offdiag_mean};
use socl_bench::out;

fn main() {
    let generator = TraceGenerator::new(TraceConfig::default(), 42);

    // Figure 3a: similarity between the ten services.
    let traces = generator.sample_all(1);
    let m = similarity_matrix(&traces, |a, b| cosine_similarity(&a.usage, &b.usage));
    out!("# FIG3a: cosine similarity between services (10x10)");
    let header: String = (0..10).map(|j| format!(",s{j}")).collect();
    out!("service{header}");
    for i in 0..10 {
        let row: String = (0..10).map(|j| format!(",{:.3}", m[i * 10 + j])).collect();
        out!("s{i}{row}");
    }
    out!(
        "# offdiag mean {:.3}, max {:.3}",
        offdiag_mean(&m, 10),
        offdiag_max(&m, 10)
    );

    // Figure 3b: similarity between successive traces of each deep service.
    out!("\n# FIG3b: structural (Jaccard) similarity between traces of one service");
    out!("service,pairs,mean,max");
    let mut global_max: f64 = 0.0;
    for s in 0..10 {
        let series = generator.sample_series(s, 10, 7);
        let j = similarity_matrix(&series, |a, b| jaccard_similarity(&a.edges, &b.edges));
        let mean = offdiag_mean(&j, 10);
        let max = offdiag_max(&j, 10);
        global_max = global_max.max(max);
        out!("s{s},45,{mean:.3},{max:.3}");
    }
    out!(
        "# shape check: max trace similarity {global_max:.3} (paper reports ≈ 0.65, i.e. well below 1)"
    );
}
