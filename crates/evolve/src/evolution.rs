//! The generation loop: tournament selection, elitism, convergence.

use crate::fitness::{CacheKeying, FitnessCache, FitnessEval};
use crate::genome::Genome;
use appproto::AppProtocol;
use censor::Country;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tournament size for parent selection.
const TOURNAMENT: usize = 4;
/// Fraction of elites copied unchanged into the next generation.
const ELITISM: f64 = 0.08;

/// Evolution hyperparameters. Paper defaults: population 300, up to 50
/// generations (we default smaller for iterated experimentation).
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Censor to train against.
    pub country: Country,
    /// Protocol to trigger censorship with.
    pub protocol: AppProtocol,
    /// Individuals per generation.
    pub population: usize,
    /// Maximum generations.
    pub generations: u32,
    /// Simulated trials per fitness evaluation.
    pub trials_per_eval: u32,
    /// Master seed.
    pub seed: u64,
    /// Stop after this many generations without best-fitness progress.
    pub patience: u32,
    /// Allow the trigger's flag value to evolve (the paper only fixes
    /// the SYN+ACK trigger for DNS/HTTP/HTTPS/SMTP; FTP's interactive
    /// exchange leaves more server packets to trigger on).
    pub evolve_triggers: bool,
    /// Key the fitness memo on canonical forms (`strata`), so
    /// semantically equivalent genomes are never re-simulated. Off
    /// falls back to literal-text keying; per-genome fitness is
    /// identical either way, only simulator time changes.
    pub dedup: bool,
    /// Worker count for fitness evaluation; `None` uses the
    /// process-wide pool default (`--jobs` / available parallelism).
    /// The GA trajectory is bit-identical for any value.
    pub jobs: Option<usize>,
    /// Let the censor model checker answer `ProvablyInert` genomes
    /// without simulating. Like `dedup`, this only saves simulator
    /// time — the trajectory is identical either way.
    pub censor_gate: bool,
}

impl GaConfig {
    /// A sensibly small default configuration.
    pub fn new(country: Country, protocol: AppProtocol, seed: u64) -> GaConfig {
        GaConfig {
            country,
            protocol,
            population: 60,
            generations: 20,
            trials_per_eval: 8,
            seed,
            patience: 6,
            evolve_triggers: protocol == AppProtocol::Ftp,
            dedup: true,
            jobs: None,
            censor_gate: true,
        }
    }
}

/// The outcome of an evolution run.
#[derive(Debug, Clone)]
pub struct EvolutionResult {
    /// Best genome found.
    pub best: Genome,
    /// Its evaluation.
    pub best_eval: FitnessEval,
    /// Generation at which the best appeared.
    pub best_generation: u32,
    /// Best fitness per generation.
    pub history: Vec<f64>,
    /// Distinct genomes evaluated (cache-deduplicated).
    pub distinct_evaluated: usize,
    /// Total simulated trials spent.
    pub trials_spent: u64,
    /// Fitness-memo hits (evaluations answered without simulating).
    pub cache_hits: u64,
    /// Fitness-memo misses.
    pub cache_misses: u64,
    /// Evaluations skipped because `strata` lints proved futility.
    pub static_rejects: u64,
    /// Evaluations skipped because the censor model checker proved the
    /// genome `ProvablyInert` against the training censor.
    pub censor_static_rejects: u64,
}

impl EvolutionResult {
    /// Fraction of evaluations answered from the fitness memo.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of memo misses the static prefilter answered without
    /// simulating — the simulator time the futility proofs saved.
    pub fn static_skip_rate(&self) -> f64 {
        if self.cache_misses == 0 {
            0.0
        } else {
            self.static_rejects as f64 / self.cache_misses as f64
        }
    }

    /// Fraction of memo misses the per-censor model checker answered
    /// without simulating (`ProvablyInert` against the training
    /// censor). Zero against the stochastic GFW, where the checker
    /// never claims anything.
    pub fn censor_static_skip_rate(&self) -> f64 {
        if self.cache_misses == 0 {
            0.0
        } else {
            self.censor_static_rejects as f64 / self.cache_misses as f64
        }
    }
}

/// Run the genetic algorithm.
pub fn evolve(config: &GaConfig) -> EvolutionResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut cache = FitnessCache::new(
        config.country,
        config.protocol,
        config.trials_per_eval,
        config.seed ^ 0xF17,
    )
    .with_keying(if config.dedup {
        CacheKeying::Canonical
    } else {
        CacheKeying::Text
    });
    if let Some(jobs) = config.jobs {
        cache = cache.with_jobs(jobs);
    }
    cache.censor_gate = config.censor_gate;

    let mut population: Vec<Genome> = (0..config.population)
        .map(|_| Genome::random(&mut rng))
        .collect();

    let mut best: Option<(Genome, FitnessEval, u32)> = None;
    let mut history = Vec::new();
    let mut stale = 0u32;

    for generation in 0..config.generations {
        // Evaluate the generation in one parallel batch — identical
        // to per-genome serial evaluation for any worker count.
        let evals = cache.evaluate_population(&population);
        let scored: Vec<(Genome, FitnessEval)> = population.iter().cloned().zip(evals).collect();

        let gen_best = scored
            .iter()
            .max_by(|a, b| a.1.fitness.total_cmp(&b.1.fitness))
            .expect("population non-empty")
            .clone();
        history.push(gen_best.1.fitness);

        let improved = best
            .as_ref()
            .map(|(_, e, _)| gen_best.1.fitness > e.fitness)
            .unwrap_or(true);
        if improved {
            best = Some((gen_best.0.clone(), gen_best.1, generation));
            stale = 0;
        } else {
            stale += 1;
            if stale >= config.patience {
                break; // converged
            }
        }

        // Select and reproduce.
        let mut ranked = scored;
        ranked.sort_by(|a, b| b.1.fitness.total_cmp(&a.1.fitness));
        #[allow(clippy::cast_possible_truncation)] // ELITISM ∈ [0,1] ⇒ fits usize
        let elites = ((config.population as f64) * ELITISM).ceil() as usize;
        let mut next: Vec<Genome> = ranked.iter().take(elites).map(|(g, _)| g.clone()).collect();

        let tournament = |rng: &mut StdRng| -> &Genome {
            let mut winner = &ranked[rng.gen_range(0..ranked.len())];
            for _ in 1..TOURNAMENT {
                let challenger = &ranked[rng.gen_range(0..ranked.len())];
                if challenger.1.fitness > winner.1.fitness {
                    winner = challenger;
                }
            }
            &winner.0
        };

        while next.len() < config.population {
            let child = if rng.gen_bool(0.35) {
                let a = tournament(&mut rng).clone();
                let b = tournament(&mut rng);
                a.crossover(b, &mut rng)
            } else {
                let mut child = tournament(&mut rng).clone();
                child.mutate_with(&mut rng, config.evolve_triggers);
                child
            };
            next.push(child);
        }
        population = next;
    }

    let (best, best_eval, best_generation) = best.expect("ran at least one generation");
    EvolutionResult {
        best,
        best_eval,
        best_generation,
        history,
        distinct_evaluated: cache.distinct_evaluated(),
        trials_spent: cache.trials_spent,
        cache_hits: cache.cache_hits,
        cache_misses: cache.cache_misses,
        static_rejects: cache.static_rejects,
        censor_static_rejects: cache.censor_static_rejects,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;

    #[test]
    fn rediscovers_an_evasion_strategy_against_kazakhstan() {
        // Kazakhstan has several deterministic 100% strategies within a
        // couple of mutations of the initial pool; a small GA finds one.
        let mut config = GaConfig::new(Country::Kazakhstan, AppProtocol::Http, 99);
        config.population = 40;
        config.generations = 12;
        config.trials_per_eval = 4;
        let result = evolve(&config);
        assert!(
            result.best_eval.rate() >= 0.75,
            "best {} (rate {}) after {} gens:\n{}",
            result.best.strategy,
            result.best_eval.rate(),
            result.history.len(),
            result
                .history
                .iter()
                .map(|f| format!("{f:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    #[test]
    fn evolution_beats_no_evasion_against_gfw_http() {
        // The GA is stochastic per seed; this seed converges well
        // inside the small test budget (some seeds stall on
        // identity-equivalent survivors and need more generations than
        // a unit test should spend).
        let mut config = GaConfig::new(Country::China, AppProtocol::Http, 42);
        config.population = 50;
        config.generations = 14;
        config.trials_per_eval = 6;
        let result = evolve(&config);
        assert!(
            result.best_eval.rate() > 0.3,
            "best {} rate {}",
            result.best.strategy,
            result.best_eval.rate()
        );
    }

    #[test]
    fn ftp_training_enables_trigger_evolution() {
        let config = GaConfig::new(Country::China, AppProtocol::Ftp, 1);
        assert!(config.evolve_triggers);
        let config = GaConfig::new(Country::China, AppProtocol::Http, 1);
        assert!(!config.evolve_triggers);
        // And the GA still finds a strong FTP strategy with triggers
        // unlocked (the corrupt-ack family dominates).
        let mut config = GaConfig::new(Country::China, AppProtocol::Ftp, 0x77);
        config.population = 50;
        config.generations = 14;
        config.trials_per_eval = 6;
        let result = evolve(&config);
        assert!(
            result.best_eval.rate() > 0.5,
            "best {} rate {}",
            result.best.strategy,
            result.best_eval.rate()
        );
    }

    #[test]
    fn dedup_saves_trials_without_changing_the_trajectory() {
        // Canonical keying and literal-text keying must walk the exact
        // same GA trajectory (trial seeds derive from canonical text in
        // both modes); dedup can only save simulator time.
        let mut config = GaConfig::new(Country::Kazakhstan, AppProtocol::Http, 31);
        config.population = 16;
        config.generations = 5;
        config.trials_per_eval = 3;
        config.patience = 10;
        let deduped = evolve(&config);
        config.dedup = false;
        let text = evolve(&config);
        assert_eq!(deduped.best.strategy, text.best.strategy);
        assert_eq!(deduped.best_eval.fitness, text.best_eval.fitness);
        assert_eq!(deduped.history, text.history);
        assert!(
            deduped.trials_spent <= text.trials_spent,
            "dedup spent {} trials, text keying {}",
            deduped.trials_spent,
            text.trials_spent
        );
        assert!(deduped.cache_hits + deduped.cache_misses > 0);
    }

    #[test]
    fn worker_count_never_changes_the_trajectory() {
        // The whole point of the pool contract: running fitness
        // evaluation on 1, 2, or 8 workers walks the same GA path.
        let mut config = GaConfig::new(Country::Kazakhstan, AppProtocol::Http, 31);
        config.population = 16;
        config.generations = 4;
        config.trials_per_eval = 3;
        config.patience = 10;
        config.jobs = Some(1);
        let serial = evolve(&config);
        for jobs in [2, 8] {
            config.jobs = Some(jobs);
            let parallel = evolve(&config);
            assert_eq!(serial.best.strategy, parallel.best.strategy, "jobs={jobs}");
            assert_eq!(serial.history, parallel.history, "jobs={jobs}");
            assert_eq!(serial.trials_spent, parallel.trials_spent, "jobs={jobs}");
            assert_eq!(serial.cache_hits, parallel.cache_hits, "jobs={jobs}");
            assert_eq!(serial.cache_misses, parallel.cache_misses, "jobs={jobs}");
        }
    }

    #[test]
    fn censor_prefilter_saves_trials_without_changing_the_trajectory() {
        // The acceptance bar for the per-censor gate: a Kazakhstan run
        // skips a nonzero share of its memo misses statically, and the
        // discovered strategies are untouched.
        let mut config = GaConfig::new(Country::Kazakhstan, AppProtocol::Http, 31);
        config.population = 16;
        config.generations = 5;
        config.trials_per_eval = 3;
        config.patience = 10;
        let gated = evolve(&config);
        config.censor_gate = false;
        let ungated = evolve(&config);
        assert_eq!(gated.best.strategy, ungated.best.strategy);
        assert_eq!(gated.best_eval.fitness, ungated.best_eval.fitness);
        assert_eq!(gated.history, ungated.history);
        assert!(
            gated.censor_static_rejects > 0,
            "expected inert genomes in the pool"
        );
        assert!(gated.censor_static_skip_rate() > 0.0);
        assert_eq!(ungated.censor_static_rejects, 0);
        assert!(
            gated.trials_spent < ungated.trials_spent,
            "gate spent {} trials, ungated {}",
            gated.trials_spent,
            ungated.trials_spent
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut config = GaConfig::new(Country::Kazakhstan, AppProtocol::Http, 5);
        config.population = 12;
        config.generations = 4;
        config.trials_per_eval = 3;
        config.patience = 10;
        let a = evolve(&config);
        let b = evolve(&config);
        assert_eq!(a.best.strategy, b.best.strategy);
        assert_eq!(a.history, b.history);
    }
}
