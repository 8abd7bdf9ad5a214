//! Evolve server-side strategies from scratch, the paper's §4.1
//! methodology: a genetic algorithm triggered on SYN+ACK packets,
//! trained against a censor.
//!
//! ```sh
//! cargo run --release --example evolve_server_side -- [--jobs N] [china|india|iran|kazakhstan] [dns|ftp|http|https|smtp]
//! ```

use appproto::AppProtocol;
use censor::Country;
use evolve::{evolve, GaConfig};
use harness::Throughput;

fn main() {
    let args = come_as_you_are::cli::args_with_jobs();
    let unknown = |what: &str, s: &str| -> ! {
        eprintln!(
            "unknown {what} {s}\nusage: evolve_server_side [--jobs N] \
             [china|india|iran|kazakhstan] [dns|ftp|http|https|smtp]"
        );
        std::process::exit(2);
    };
    let country = args.first().map_or(Country::China, |s| {
        Country::parse(s).unwrap_or_else(|| unknown("country", s))
    });
    let protocol = args.get(1).map_or(AppProtocol::Http, |s| {
        AppProtocol::parse(s).unwrap_or_else(|| unknown("protocol", s))
    });

    let mut config = GaConfig::new(country, protocol, 2020);
    config.population = 120;
    config.generations = 30;
    config.trials_per_eval = 10;

    println!(
        "evolving server-side strategies against {country} / {protocol} \
         (population {}, ≤{} generations, {} trials/eval)…\n",
        config.population, config.generations, config.trials_per_eval
    );

    let (result, throughput) = Throughput::measure("evolve", || evolve(&config));
    eprintln!("{}", throughput.to_json());
    // Prune vestigial nodes, like Geneva does before reporting.
    let mut cache = evolve::FitnessCache::new(country, protocol, 20, 777);
    let minimized = evolve::minimize(&result.best, &mut cache, 0.05);

    println!("generations run : {}", result.history.len());
    println!("distinct genomes: {}", result.distinct_evaluated);
    println!("trials simulated: {}", result.trials_spent);
    println!(
        "fitness history : {}",
        result
            .history
            .iter()
            .map(|f| format!("{f:.0}"))
            .collect::<Vec<_>>()
            .join(" → ")
    );
    println!(
        "\nbest strategy (found at generation {}):",
        result.best_generation
    );
    println!("  {}", result.best.strategy);
    println!("minimized:");
    println!("  {}", minimized.strategy);
    print!("  {}", geneva::explain(&minimized.strategy));
    println!(
        "  evasion rate {:.0}% over {} trials (fitness {:.1})",
        result.best_eval.rate() * 100.0,
        result.best_eval.trials,
        result.best_eval.fitness
    );
    println!("\npaper strategies for comparison:");
    for named in geneva::library::server_side() {
        println!(
            "  {:>2}. {:<28} {}",
            named.id,
            named.name,
            named.text.trim()
        );
    }
}
