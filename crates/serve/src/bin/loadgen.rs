//! Load generator: replay a large synthetic user population against the
//! sharded control-plane service and report per-tick throughput.
//!
//! The population is virtual — users are synthesized lazily, so millions
//! cost nothing until they arrive. Two canonical intensity shapes are
//! built in: `flash` (one sharp overload spike plus frequent bursts) and
//! `diurnal` (two broad daily peaks).
//!
//! ```text
//! cargo run --release -p socl-serve --bin loadgen -- \
//!     --users 2000000 --ticks 120 --shape flash --csv
//! ```

use socl_net::par::set_threads;
use socl_net::Stopwatch;
use socl_serve::{audit_serve, FeedConfig, ServeConfig, SoclServe};
use socl_trace::TemporalConfig;

fn parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn parse_str(args: &[String], key: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "loadgen: drive socl-serve with a synthetic user population\n\n\
             options:\n\
             \x20 --users N     population size (default 2000000)\n\
             \x20 --nodes N     base stations (default 24)\n\
             \x20 --regions N   state regions (default 4)\n\
             \x20 --shards N    execution shards (default 4)\n\
             \x20 --ticks N     ticks to run (default 120)\n\
             \x20 --rate R      mean arrivals per tick (default 3000)\n\
             \x20 --shape S     flash | diurnal (default flash)\n\
             \x20 --seed N      seed (default 42)\n\
             \x20 --threads N   worker threads (default: all cores)\n\
             \x20 --csv         per-tick CSV on stdout"
        );
        return;
    }
    let users: usize = parse(&args, "--users", 2_000_000);
    let nodes: usize = parse(&args, "--nodes", 24);
    let regions: usize = parse(&args, "--regions", 4);
    let shards: usize = parse(&args, "--shards", 4);
    let ticks: u32 = parse(&args, "--ticks", 120);
    let rate: f64 = parse(&args, "--rate", 3000.0);
    let seed: u64 = parse(&args, "--seed", 42);
    let threads: usize = parse(&args, "--threads", 0);
    let shape_name = parse_str(&args, "--shape", "flash");
    let csv = args.iter().any(|a| a == "--csv");
    if u32::try_from(users).is_err() {
        eprintln!(
            "loadgen: --users {users} exceeds the 32-bit user-id space ({})",
            u32::MAX
        );
        std::process::exit(2);
    }
    if threads > 0 {
        set_threads(threads);
    }
    let shape = match shape_name.as_str() {
        "diurnal" => TemporalConfig::diurnal(),
        _ => TemporalConfig::flash_crowd(),
    };

    let cfg = ServeConfig {
        nodes,
        regions,
        shards,
        feed: FeedConfig {
            users,
            shape,
            arrivals_per_tick: rate,
            seed: seed ^ 0x5EED,
            ..FeedConfig::default()
        },
        ..ServeConfig::small(seed)
    };
    let mut serve = SoclServe::new(cfg);

    eprintln!(
        "loadgen: {users} users, {nodes} nodes, {regions} regions, {shards} shards, \
         shape={shape_name}, {ticks} ticks"
    );
    if csv {
        println!("tick,arrivals,decided,shed_queue,shed_admission,queued,ms");
    }
    let clock = Stopwatch::start();
    let mut busiest_ms = 0.0f64;
    for _ in 0..ticks {
        let t0 = Stopwatch::start();
        let s = serve.step();
        let ms = t0.elapsed_secs() * 1e3;
        busiest_ms = busiest_ms.max(ms);
        if csv {
            println!(
                "{},{},{},{},{},{},{ms:.3}",
                s.tick, s.arrivals, s.decided, s.shed_queue, s.shed_admission, s.queued
            );
        }
    }
    let elapsed = clock.elapsed_secs();
    let t = serve.totals();
    let violations = audit_serve(&serve);
    eprintln!(
        "loadgen: {} arrivals, {} decided ({} cloud), {} shed (queue {} + admission {}), \
         {} queued; peak queue {}; {:.0} decisions/s; busiest tick {busiest_ms:.1} ms; \
         {} invariant violations",
        t.arrivals,
        t.decided,
        t.cloud_fallbacks,
        t.shed_queue + t.shed_admission,
        t.shed_queue,
        t.shed_admission,
        t.queued,
        t.queue_peak,
        t.decided as f64 / elapsed.max(1e-9),
        violations.len()
    );
    for v in &violations {
        eprintln!("loadgen: VIOLATION: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
