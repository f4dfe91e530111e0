//! Records the compiler version in the binary, so every output record can
//! state which rustc produced the numbers.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SOCL_BENCH_RUSTC={}", version.trim());
    println!("cargo:rerun-if-changed=build.rs");
}
