//! Cross-dataset robustness check: the Figure 8 comparison repeated on two
//! more public microservice architectures (Sock Shop and Train Ticket), so
//! the SoCL-vs-baselines conclusion is not an artifact of one dependency
//! graph. Train Ticket's deep booking chains stress chain-aware routing the
//! hardest.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin cross_dataset
//! ```

use socl::model::DependencyDataset;
use socl::prelude::*;
use socl_bench::out;

fn run_dataset(name: &str, dataset: &DependencyDataset, users: usize, seeds: &[u64]) {
    let mut rows: Vec<(&str, Vec<f64>)> = vec![
        ("SoCL", Vec::new()),
        ("RP", Vec::new()),
        ("JDR", Vec::new()),
        ("GC-OG", Vec::new()),
    ];
    for &seed in seeds {
        // Budget scales with catalog size so every dataset can afford at
        // least one instance per service (Train Ticket has 24 services).
        let mut cfg = ScenarioConfig::paper(10, users);
        cfg.budget = 6000.0 * (dataset.len() as f64 / 12.0);
        let sc = cfg.build_with_dataset(dataset, seed);
        rows[0].1.push(SoclSolver::new().solve(&sc).objective());
        rows[1]
            .1
            .push(random_provisioning(&sc, seed ^ 0xF00D).objective);
        rows[2].1.push(jdr(&sc).objective);
        rows[3].1.push(gc_og(&sc).objective);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut meds = Vec::new();
    for (algo, mut objs) in rows {
        let m = median(&mut objs);
        out!("{name},{users},{algo},{m:.1}");
        meds.push((algo, m));
    }
    let socl = meds[0].1;
    let best_other = meds[1..]
        .iter()
        .map(|&(_, m)| m)
        .fold(f64::INFINITY, f64::min);
    out!(
        "# {name}/{users}: SoCL lowest: {} (margin {:.1}%)",
        socl <= best_other,
        (best_other - socl) / socl * 100.0
    );
}

fn main() {
    let seeds: &[u64] = &[1, 2, 3];
    out!(
        "# cross-dataset comparison (10 servers, median of {} seeds)",
        seeds.len()
    );
    out!("dataset,users,algo,objective");
    for users in [60usize, 120] {
        run_dataset("eshop", &EshopDataset::build(), users, seeds);
        run_dataset("sock-shop", &SockShopDataset::build(), users, seeds);
        run_dataset("train-ticket", &TrainTicketDataset::build(), users, seeds);
        out!();
    }
}
