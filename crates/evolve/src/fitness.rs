//! Fitness: simulated evasion success minus parsimony pressure.
//!
//! Geneva's fitness rewards strategies that evade while staying small
//! (bloated trees mutate poorly and deploy expensively). We evaluate
//! against the censor models through the same
//! `harness::success_rate_in` estimator every other experiment uses,
//! and memoize evaluations.
//!
//! Two layers of simulator-time savings, both powered by `strata`:
//!
//! * **Equivalence dedup** — the memo keys on the *canonical* form of
//!   a genome ([`strata::canonicalize_strategy`]), so genomes that
//!   differ only in dead genetic material (inert subtrees, shadowed
//!   tampers, no-op chains) share one evaluation. Trial seeds also
//!   derive from the canonical text, which keeps per-genome fitness
//!   identical whether dedup is on or off — dedup can only *save*
//!   trials, never change the GA's trajectory.
//! * **Static futility gate** — genomes whose lints prove they can
//!   never beat the identity strategy (e.g. they sever the handshake)
//!   are assigned their exact fitness (zero successes) without
//!   simulating a single trial.
//! * **Per-censor inertness gate** — genomes the censor-product model
//!   checker ([`strata::censor_model`]) proves `ProvablyInert` against
//!   *this* cache's censor (the censor's view of the flow provably
//!   equals the identity strategy's) are likewise assigned zero
//!   successes for free. The proof implies exactly what simulation
//!   would measure, so the GA trajectory is unchanged — only trials
//!   are saved. Never applies to the stochastic GFW.
//!
//! Raw trial outcomes are cached; the parsimony penalty is applied
//! per-genome from its own (uncanonicalized) size, so a bloated
//! genome still scores below its trim twin even when they share a
//! cache entry.

use crate::genome::Genome;
use appproto::AppProtocol;
use censor::Country;
use harness::deploy::censor_id;
use harness::{cell_tag, success_rate_in, Pool, TrialConfig};
use std::collections::HashMap;
use std::sync::Arc;
use strata::censor_model::{check, CensorId, Verdict};
use strata::{canonicalize_strategy, lint_strategy, summarize, Severity};

/// Per-node-count penalty subtracted from the percent success.
const COMPLEXITY_PENALTY: f64 = 0.6;

/// One genome's evaluated fitness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessEval {
    /// Evasion successes.
    pub successes: u32,
    /// Trials run.
    pub trials: u32,
    /// Combined fitness (higher is better).
    pub fitness: f64,
}

impl FitnessEval {
    /// Evasion rate in [0, 1].
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            f64::from(self.successes) / f64::from(self.trials)
        }
    }
}

/// How the fitness memo keys genomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKeying {
    /// Key on the genome's literal DSL text (pre-`strata` behavior):
    /// equivalent-but-differently-written genomes are re-simulated.
    Text,
    /// Key on the canonical form: semantically equivalent genomes
    /// share one evaluation.
    Canonical,
}

/// Caching fitness evaluator for one (country, protocol) target.
pub struct FitnessCache {
    /// Censor under attack.
    pub country: Country,
    /// Protocol under attack.
    pub protocol: AppProtocol,
    /// Trials per evaluation.
    pub trials: u32,
    /// Memo keying mode.
    pub keying: CacheKeying,
    /// Skip simulation for genomes the censor model checker proves
    /// inert against this target's censor.
    pub censor_gate: bool,
    /// Which censor automaton guards this target, when the target
    /// protocol is actually censored there (otherwise every genome
    /// trivially "evades" and inertness proves nothing).
    prefilter: Option<CensorId>,
    seed: u64,
    jobs: Option<usize>,
    cache: HashMap<String, (u32, u32)>,
    /// Total simulated trials spent (diagnostics).
    pub trials_spent: u64,
    /// Trials that hit the simulator's event cap instead of finishing
    /// — a nonzero count means some fitness value is an artifact of
    /// the livelock guard, not a measured rate.
    pub truncated_trials: u64,
    /// Evaluations answered from the memo.
    pub cache_hits: u64,
    /// Evaluations that had to simulate (or statically reject).
    pub cache_misses: u64,
    /// Evaluations skipped entirely because lints proved futility.
    pub static_rejects: u64,
    /// Evaluations skipped because the censor model proved the genome
    /// inert against this target's censor.
    pub censor_static_rejects: u64,
}

impl FitnessCache {
    /// New evaluator with canonical dedup and the futility gate on.
    pub fn new(country: Country, protocol: AppProtocol, trials: u32, seed: u64) -> Self {
        FitnessCache {
            country,
            protocol,
            trials,
            keying: CacheKeying::Canonical,
            censor_gate: true,
            prefilter: country
                .censored_protocols()
                .contains(&protocol)
                .then(|| censor_id(country)),
            seed,
            jobs: None,
            cache: HashMap::new(),
            trials_spent: 0,
            truncated_trials: 0,
            cache_hits: 0,
            cache_misses: 0,
            static_rejects: 0,
            censor_static_rejects: 0,
        }
    }

    /// Is this canonical strategy provably inert against the target's
    /// censor? The model checker's `ProvablyInert` verdict means the
    /// censor's view of the flow equals the identity strategy's —
    /// deterministic censors (the checker never claims anything
    /// against the stochastic GFW) therefore censor every trial, so
    /// `(0, trials)` is the exact outcome simulation would record.
    fn provably_inert(&self, canonical: &geneva::Strategy) -> bool {
        self.censor_gate
            && self
                .prefilter
                .is_some_and(|id| check(&summarize(canonical), id) == Verdict::ProvablyInert)
    }

    /// Same evaluator, keyed on literal text (for A/B comparison).
    pub fn with_keying(mut self, keying: CacheKeying) -> Self {
        self.keying = keying;
        self
    }

    /// Pin the worker count used by [`evaluate_population`] instead of
    /// the process-wide default (tests compare explicit counts).
    ///
    /// [`evaluate_population`]: FitnessCache::evaluate_population
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    fn pool(&self) -> Pool {
        match self.jobs {
            Some(n) => Pool::with_jobs(n),
            None => Pool::global(),
        }
    }

    /// Evaluate (or recall) a genome's fitness: a one-genome batch.
    pub fn evaluate(&mut self, genome: &Genome) -> FitnessEval {
        self.evaluate_population(std::slice::from_ref(genome))[0]
    }

    /// Evaluate a whole generation at once: unique uncached keys fan
    /// out across the pool, everything else is served from the memo.
    ///
    /// Bit-identical to calling [`evaluate`] on each genome in order,
    /// for any worker count: per-key trial seeds derive from the
    /// canonical text (the harness's `cell_tag` of it), so a genome's
    /// outcome never depends on which batch or worker evaluated it;
    /// hit/miss/reject counters replicate the serial accounting (first
    /// occurrence of a key is the miss, the rest are hits), and results
    /// merge into the memo in canonical-key order rather than
    /// completion order.
    ///
    /// [`evaluate`]: FitnessCache::evaluate
    pub fn evaluate_population(&mut self, genomes: &[Genome]) -> Vec<FitnessEval> {
        struct PendingKey {
            key: String,
            canonical_text: String,
            strategy: Arc<geneva::Strategy>,
        }

        // Pass 1 (serial, cheap): canonicalize, run the static gate,
        // and collect the unique keys that actually need simulation.
        let mut per_genome_keys = Vec::with_capacity(genomes.len());
        let mut pending: Vec<PendingKey> = Vec::new();
        let mut pending_keys: HashMap<String, ()> = HashMap::new();
        for genome in genomes {
            let canonical = canonicalize_strategy(&genome.strategy);
            let canonical_text = canonical.to_string();
            let key = match self.keying {
                CacheKeying::Text => genome.strategy.to_string(),
                CacheKeying::Canonical => canonical_text.clone(),
            };
            if self.cache.contains_key(&key) || pending_keys.contains_key(&key) {
                self.cache_hits += 1;
            } else {
                self.cache_misses += 1;
                let futile = lint_strategy(&canonical)
                    .iter()
                    .any(|d| d.severity == Severity::Error && d.proves_futile);
                if futile {
                    // The lints prove no trial can succeed: record the
                    // exact outcome simulation would have produced.
                    self.static_rejects += 1;
                    self.cache.insert(key.clone(), (0, self.trials));
                } else if self.provably_inert(&canonical) {
                    // The censor sees an identity flow: zero successes.
                    self.censor_static_rejects += 1;
                    self.cache.insert(key.clone(), (0, self.trials));
                } else {
                    pending_keys.insert(key.clone(), ());
                    pending.push(PendingKey {
                        key: key.clone(),
                        canonical_text,
                        strategy: Arc::new(genome.strategy.clone()),
                    });
                }
            }
            per_genome_keys.push(key);
        }

        // Pass 2: simulate the unique missing keys concurrently. Each
        // key is a pure function of (target, trials, seed, canonical
        // text) — worker scheduling cannot touch the outcome. Inside a
        // worker the per-key trial loop runs serially; a lone key
        // spreads its trials over the pool instead.
        let pool = self.pool();
        let results = pool.map_indexed(pending.len(), |i| {
            let p = &pending[i];
            let cfg = TrialConfig::new(self.country, self.protocol, Arc::clone(&p.strategy), 0);
            let tag = cell_tag(&p.canonical_text);
            let estimate = success_rate_in(&pool, &cfg, self.trials, self.seed, tag);
            (estimate.successes, estimate.truncated)
        });

        // Pass 3: merge into the memo in canonical-key order, so the
        // memo (and the counters) grow identically no matter which
        // worker finished first.
        let mut merged: Vec<(&PendingKey, (u32, u32))> = pending.iter().zip(results).collect();
        merged.sort_by(|a, b| a.0.key.cmp(&b.0.key));
        for (p, (successes, truncated)) in merged {
            self.trials_spent += u64::from(self.trials);
            self.truncated_trials += u64::from(truncated);
            self.cache.insert(p.key.clone(), (successes, self.trials));
        }

        // Pass 4: score every genome from the now-complete memo.
        genomes
            .iter()
            .zip(per_genome_keys)
            .map(|(genome, key)| {
                let &(successes, trials) = self.cache.get(&key).expect("merged above");
                self.eval_from(successes, trials, genome)
            })
            .collect()
    }

    fn eval_from(&self, successes: u32, trials: u32, genome: &Genome) -> FitnessEval {
        let rate = f64::from(successes) / f64::from(trials.max(1));
        FitnessEval {
            successes,
            trials,
            fitness: rate * 100.0 - COMPLEXITY_PENALTY * genome.size() as f64,
        }
    }

    /// Number of distinct cache keys evaluated (canonical equivalence
    /// classes under [`CacheKeying::Canonical`]).
    pub fn distinct_evaluated(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use geneva::library;

    #[test]
    fn identity_strategy_scores_near_baseline() {
        let mut cache = FitnessCache::new(Country::China, AppProtocol::Http, 20, 7);
        let genome = Genome::from_action(geneva::Action::Send);
        let eval = cache.evaluate(&genome);
        assert!(eval.rate() < 0.2, "no-evasion rate {}", eval.rate());
    }

    #[test]
    fn known_good_strategy_scores_high() {
        let mut cache = FitnessCache::new(Country::Kazakhstan, AppProtocol::Http, 10, 7);
        let genome = Genome {
            strategy: library::STRATEGY_11.strategy(),
        };
        let eval = cache.evaluate(&genome);
        assert!(eval.rate() > 0.9, "strategy 11 rate {}", eval.rate());
        assert!(eval.fitness > 90.0 - 5.0);
    }

    #[test]
    fn cache_hits_are_free_and_stable() {
        let mut cache = FitnessCache::new(Country::China, AppProtocol::Http, 5, 7);
        let genome = Genome {
            strategy: library::STRATEGY_1.strategy(),
        };
        let first = cache.evaluate(&genome);
        let spent = cache.trials_spent;
        let second = cache.evaluate(&genome);
        assert_eq!(first, second);
        assert_eq!(cache.trials_spent, spent, "second call must be cached");
        assert_eq!(cache.distinct_evaluated(), 1);
        assert_eq!(cache.cache_hits, 1);
        assert_eq!(cache.cache_misses, 1);
    }

    #[test]
    fn equivalent_genomes_share_one_evaluation() {
        let mut cache = FitnessCache::new(Country::China, AppProtocol::Http, 5, 7);
        let trim = Genome {
            strategy: library::STRATEGY_1.strategy(),
        };
        // Strategy 1 plus dead genetic material: an inert duplicate
        // branch that canonicalizes away.
        let bloated_text = trim
            .strategy
            .to_string()
            .replace("-| \\/ ", "-|[TCP:flags:SA]-drop-| \\/ ");
        let bloated = Genome {
            strategy: geneva::parse_strategy(&bloated_text).expect("parses"),
        };
        let a = cache.evaluate(&trim);
        let spent = cache.trials_spent;
        let b = cache.evaluate(&bloated);
        assert_eq!(
            cache.trials_spent, spent,
            "equivalent genome must be a cache hit"
        );
        assert_eq!(cache.cache_hits, 1);
        assert_eq!(a.successes, b.successes, "shared trial outcome");
        assert!(a.fitness > b.fitness, "parsimony still separates them");
    }

    #[test]
    fn text_keying_resimulates_equivalent_genomes() {
        let mut cache = FitnessCache::new(Country::China, AppProtocol::Http, 5, 7)
            .with_keying(CacheKeying::Text);
        let trim = Genome {
            strategy: library::STRATEGY_1.strategy(),
        };
        let bloated_text = trim
            .strategy
            .to_string()
            .replace("-| \\/ ", "-|[TCP:flags:SA]-drop-| \\/ ");
        let bloated = Genome {
            strategy: geneva::parse_strategy(&bloated_text).expect("parses"),
        };
        let a = cache.evaluate(&trim);
        let b = cache.evaluate(&bloated);
        assert_eq!(cache.cache_misses, 2);
        // Canonical-text seeding makes the re-simulation land on the
        // very same trial outcomes.
        assert_eq!(a.successes, b.successes);
    }

    #[test]
    fn statically_futile_genomes_skip_simulation() {
        let mut cache = FitnessCache::new(Country::China, AppProtocol::Http, 8, 7);
        let severed = Genome {
            strategy: geneva::parse_strategy("[TCP:flags:SA]-drop-| \\/ ").expect("parses"),
        };
        let eval = cache.evaluate(&severed);
        assert_eq!(
            cache.trials_spent, 0,
            "no simulator time for futile genomes"
        );
        assert_eq!(cache.static_rejects, 1);
        assert_eq!(eval.successes, 0);
        assert!(eval.fitness < 0.0, "only the parsimony penalty remains");
    }

    #[test]
    fn provably_inert_genomes_skip_simulation_without_changing_scores() {
        // Against deterministic Kazakhstan, the censor model proves
        // identity-equivalent genomes inert; the gate must hand back
        // the exact evaluation simulation would produce, minus the
        // simulator time.
        let genomes = [
            Genome::from_action(geneva::Action::Send),
            // Pure duplication: both copies are identity emissions.
            Genome {
                strategy: geneva::parse_strategy("[TCP:flags:A]-duplicate(,)-| \\/ ").unwrap(),
            },
            // Null flags (Strategy 11): provably *desynced*, not inert
            // — must still simulate.
            Genome {
                strategy: library::STRATEGY_11.strategy(),
            },
            // Window tamper (Strategy 8 shape): Unknown — must still
            // simulate.
            Genome {
                strategy: library::STRATEGY_8.strategy(),
            },
        ];

        let mut gated = FitnessCache::new(Country::Kazakhstan, AppProtocol::Http, 6, 13);
        let mut ungated = FitnessCache::new(Country::Kazakhstan, AppProtocol::Http, 6, 13);
        ungated.censor_gate = false;

        let gated_evals: Vec<FitnessEval> = genomes.iter().map(|g| gated.evaluate(g)).collect();
        let ungated_evals: Vec<FitnessEval> = genomes.iter().map(|g| ungated.evaluate(g)).collect();

        assert_eq!(gated_evals, ungated_evals, "gate must not move fitness");
        assert_eq!(gated.censor_static_rejects, 2, "identity + duplicate");
        assert_eq!(ungated.censor_static_rejects, 0);
        assert!(
            gated.trials_spent < ungated.trials_spent,
            "gate must save simulator time: {} !< {}",
            gated.trials_spent,
            ungated.trials_spent
        );
    }

    #[test]
    fn censor_gate_is_idle_when_the_protocol_is_not_censored() {
        // Kazakhstan's model censors HTTP only: an HTTPS identity flow
        // evades trivially, so inertness proves nothing and the
        // prefilter must stand down.
        let mut cache = FitnessCache::new(Country::Kazakhstan, AppProtocol::Https, 4, 13);
        let eval = cache.evaluate(&Genome::from_action(geneva::Action::Send));
        assert_eq!(cache.censor_static_rejects, 0);
        assert!(eval.rate() > 0.9, "uncensored protocol sails through");
    }

    #[test]
    fn population_evaluation_matches_serial_for_any_worker_count() {
        // A population with a duplicate, a canonical twin, and a
        // statically futile genome — every memo path exercised.
        let bloated_text = library::STRATEGY_1
            .strategy()
            .to_string()
            .replace("-| \\/ ", "-|[TCP:flags:SA]-drop-| \\/ ");
        let genomes = vec![
            Genome {
                strategy: library::STRATEGY_1.strategy(),
            },
            Genome {
                strategy: library::STRATEGY_11.strategy(),
            },
            Genome {
                strategy: library::STRATEGY_1.strategy(),
            },
            Genome {
                strategy: geneva::parse_strategy(&bloated_text).expect("parses"),
            },
            Genome {
                strategy: geneva::parse_strategy("[TCP:flags:SA]-drop-| \\/ ").expect("parses"),
            },
        ];

        let mut serial = FitnessCache::new(Country::China, AppProtocol::Http, 6, 99);
        let serial_evals: Vec<FitnessEval> = genomes.iter().map(|g| serial.evaluate(g)).collect();

        for jobs in [1, 2, 8] {
            let mut cache =
                FitnessCache::new(Country::China, AppProtocol::Http, 6, 99).with_jobs(jobs);
            let evals = cache.evaluate_population(&genomes);
            assert_eq!(evals, serial_evals, "jobs={jobs}");
            assert_eq!(cache.cache_hits, serial.cache_hits, "jobs={jobs}");
            assert_eq!(cache.cache_misses, serial.cache_misses, "jobs={jobs}");
            assert_eq!(cache.static_rejects, serial.static_rejects, "jobs={jobs}");
            assert_eq!(
                cache.censor_static_rejects, serial.censor_static_rejects,
                "jobs={jobs}"
            );
            assert_eq!(cache.trials_spent, serial.trials_spent, "jobs={jobs}");
            assert_eq!(
                cache.truncated_trials, serial.truncated_trials,
                "jobs={jobs}"
            );
            assert_eq!(
                cache.distinct_evaluated(),
                serial.distinct_evaluated(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn complexity_penalty_separates_equal_rates() {
        let mut cache = FitnessCache::new(Country::Kazakhstan, AppProtocol::Http, 8, 7);
        let small = Genome {
            strategy: library::STRATEGY_11.strategy(),
        };
        // Same behavior plus dead weight: an extra inert tamper.
        let bloated = Genome {
            strategy: geneva::parse_strategy(
                "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},tamper{TCP:urgptr:replace:7})-| \\/ ",
            )
            .unwrap(),
        };
        let a = cache.evaluate(&small);
        let b = cache.evaluate(&bloated);
        assert!(a.fitness > b.fitness, "{} !> {}", a.fitness, b.fitness);
    }
}
