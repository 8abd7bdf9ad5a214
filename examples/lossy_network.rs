//! Robustness extension: strategies on lossy paths. (The §2.1
//! DNS-over-UDP race is `cay dnsrace`.)
//!
//! ```sh
//! cargo run --release --example lossy_network -- [trials]
//! ```

use harness::experiments::robustness;

fn main() {
    let trials: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    println!("{}", robustness(trials, 0xB0B).render());
}
