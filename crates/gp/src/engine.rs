//! The genetic-programming engine: initialization, selection, variation,
//! and the paper's two stopping criteria.
//!
//! # One program form
//!
//! Every individual is a [`Genome`], a flat postfix program, from
//! initialization through breeding, scoring and constant polishing. The
//! tree operators number nodes in preorder, as gplearn does, and
//! [`Genome::subtree`] maps a node's number onto its postfix slice
//! without allocating, so crossover and subtree/hoist mutation are slice
//! splices. An [`Expr`] tree is built only for the residual refit and for
//! simplifying and reporting the winner.
//!
//! # Scoring and determinism
//!
//! Each generation is bred first — all RNG draws happen here, selecting
//! from the previous, fully-scored generation — and then scored in one
//! pass by [`SymbolicRegressor::score_pending`]. Two mechanisms avoid
//! re-scoring a program:
//!
//! * the *fitness cache*: individuals carried over unchanged — the elite,
//!   reproduction children, and depth-limit fallbacks — reuse their
//!   parent's score (`gp.fitness_cache_hits`);
//! * *dedup*: the remaining genomes are grouped by structure
//!   ([`crate::dedup`]), and one representative per group is compiled
//!   to a fused [`CompiledExpr`](crate::CompiledExpr) and batch-evaluated
//!   over the column-major [`Columns`] view (`gp.dedup_hits`,
//!   `gp.dedup_distinct`).
//!
//! Scoring is bit-identical to the recursive walker and draws no
//! randomness, so a seed fixes the [`FittedModel`] bit for bit. A fit
//! runs on the caller's thread; callers that want parallelism fan
//! independent fits out themselves.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::compile::{BatchScratch, Columns, Genome, Op};
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::model::FittedModel;
use crate::scaling::ScalePlan;
use crate::{Dataset, Metric};

/// Which functions the engine may use as tree nodes.
///
/// [`FunctionSet::full`] is the paper's 14-function set;
/// [`FunctionSet::arithmetic`] restricts to `+ - * /` for ablations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSet {
    /// Allowed unary functions.
    pub unary: Vec<UnaryOp>,
    /// Allowed binary functions.
    pub binary: Vec<BinaryOp>,
}

impl FunctionSet {
    /// All 14 functions (paper §6).
    pub fn full() -> Self {
        FunctionSet {
            unary: UnaryOp::ALL.to_vec(),
            binary: BinaryOp::ALL.to_vec(),
        }
    }

    /// Arithmetic only: `+ - * /`.
    pub fn arithmetic() -> Self {
        FunctionSet {
            unary: Vec::new(),
            binary: vec![BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div],
        }
    }
}

impl Default for FunctionSet {
    fn default() -> Self {
        Self::full()
    }
}

/// Engine configuration.
///
/// [`GpConfig::paper`] matches the settings reported in §4.3: a maximum of
/// 30 generations with 1000 formulas per generation, mean-absolute-error
/// fitness, and both stopping criteria. [`GpConfig::fast`] is a smaller
/// budget suitable for unit tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpConfig {
    /// Individuals per generation (paper: 1000).
    pub population_size: usize,
    /// Stopping criterion (i): maximum number of generations (paper: 30).
    pub max_generations: usize,
    /// Stopping criterion (ii): stop once the best (scaled-space) error
    /// falls to or below this threshold.
    pub stop_threshold: f64,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Probability that a child is produced by subtree crossover.
    pub crossover_prob: f64,
    /// Probability of subtree mutation.
    pub subtree_mutation_prob: f64,
    /// Probability of hoist mutation.
    pub hoist_mutation_prob: f64,
    /// Probability of point mutation (remaining mass is reproduction).
    pub point_mutation_prob: f64,
    /// Hard depth limit for any individual.
    pub max_depth: usize,
    /// Initial tree depths for ramped half-and-half, inclusive.
    pub init_depth: (usize, usize),
    /// Range of ephemeral random constants.
    pub const_range: (f64, f64),
    /// Fitness metric (paper: mean absolute error).
    pub metric: Metric,
    /// Parsimony coefficient: size penalty added to selection fitness.
    pub parsimony: f64,
    /// Whether to apply the Tab. 2 scaling (ablation toggle).
    pub scale: bool,
    /// Whether to seed a fraction of the initial population with affine /
    /// product templates (informed initialization; ablation toggle).
    pub seeded_init: bool,
    /// Hill-climbing iterations polishing the winner's constants.
    pub polish_iters: usize,
    /// Whether to run the closed-form residual refit on the winner
    /// (ablation toggle; see `refit` module docs).
    pub refit: bool,
    /// Allowed functions.
    pub functions: FunctionSet,
    /// RNG seed — every run is deterministic given the seed.
    pub seed: u64,
}

impl GpConfig {
    /// The paper's configuration: 1000 formulas × up to 30 generations.
    pub fn paper(seed: u64) -> Self {
        GpConfig {
            population_size: 1000,
            max_generations: 30,
            stop_threshold: 0.005,
            tournament_size: 7,
            crossover_prob: 0.65,
            subtree_mutation_prob: 0.12,
            hoist_mutation_prob: 0.05,
            point_mutation_prob: 0.12,
            max_depth: 9,
            init_depth: (2, 5),
            const_range: (-10.0, 10.0),
            metric: Metric::MeanAbsoluteError,
            parsimony: 0.001,
            scale: true,
            seeded_init: true,
            polish_iters: 2000,
            refit: true,
            functions: FunctionSet::full(),
            seed,
        }
    }

    /// A reduced budget for unit tests and quick experiments.
    pub fn fast(seed: u64) -> Self {
        GpConfig {
            population_size: 256,
            max_generations: 20,
            polish_iters: 800,
            ..GpConfig::paper(seed)
        }
    }
}

/// Progress record of one fitting run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpReport {
    /// Best (scaled-space, unpenalized) error after each generation.
    pub best_error_history: Vec<f64>,
    /// Which stopping criterion fired: `true` if the fitness threshold
    /// stopped the run, `false` if the generation budget ran out.
    pub stopped_by_threshold: bool,
}

struct Individual {
    genome: Genome,
    /// Raw metric error in scaled space (no parsimony).
    error: f64,
    /// Selection fitness: error plus parsimony penalty.
    fitness: f64,
}

/// How one individual of one generation was produced — the per-child
/// breeding record the evidence ledger's lineage walk-back consumes.
/// Only collected while an evidence capture is active; collection
/// consumes no RNG draws, so recorded and unrecorded runs are
/// bit-identical.
struct BreedRec {
    op: &'static str,
    /// Parent index in the previous generation (`None` for generation 0).
    parent: Option<u32>,
    /// Crossover donor index in the previous generation.
    donor: Option<u32>,
    parent_error: Option<f64>,
}

impl BreedRec {
    fn init(op: &'static str) -> Self {
        BreedRec {
            op,
            parent: None,
            donor: None,
            parent_error: None,
        }
    }
}

/// The symbolic-regression engine.
///
/// Owns its RNG; repeated [`fit`](Self::fit) calls continue the stream, so
/// construct a fresh regressor (same seed) to reproduce a run exactly.
#[derive(Debug)]
pub struct SymbolicRegressor {
    config: GpConfig,
    rng: StdRng,
    last_report: Option<GpReport>,
}

impl SymbolicRegressor {
    /// Creates an engine from a configuration.
    pub fn new(config: GpConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        SymbolicRegressor {
            config,
            rng,
            last_report: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }

    /// The report of the most recent [`fit`](Self::fit) call.
    pub fn last_report(&self) -> Option<&GpReport> {
        self.last_report.as_ref()
    }

    /// Fits a formula to the data set and returns the winning model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a zero population or tournament
    /// size.
    pub fn fit(&mut self, data: &Dataset) -> FittedModel {
        assert!(self.config.population_size > 0, "population must be positive");
        assert!(self.config.tournament_size > 0, "tournament must be positive");
        let _span = dpr_telemetry::Span::enter("gp.fit");
        dpr_telemetry::counter("gp.fits").inc(1);

        let plan = if self.config.scale {
            ScalePlan::for_dataset(data)
        } else {
            ScalePlan::identity(data.n_vars())
        };
        let scaled = plan.apply(data);
        let cols = Columns::from_dataset(&scaled);
        let started = Instant::now();

        // Evidence lineage is recorded only when a capture is active.
        // Recording consumes no RNG draws, so captured and bare runs
        // produce bit-identical models.
        let lineage_on = dpr_evidence::active();
        let mut breeding: Vec<Vec<BreedRec>> = Vec::new();
        let mut cache_hits: u64 = 0;

        let mut scratch = BatchScratch::new();
        let mut evaluations: u64 = 0;
        let (mut population, init_recs) = self.init_population(
            &cols,
            &mut scratch,
            &mut evaluations,
            &mut cache_hits,
            lineage_on,
        );
        if lineage_on {
            breeding.push(init_recs);
        }
        let mut history = Vec::with_capacity(self.config.max_generations);
        let mut stopped_by_threshold = false;
        let mut generations = 0;

        for _gen in 0..self.config.max_generations {
            generations += 1;
            let best = population
                .iter()
                .map(|i| i.error)
                .fold(f64::INFINITY, f64::min);
            history.push(best);
            if best <= self.config.stop_threshold {
                stopped_by_threshold = true;
                break;
            }
            let (next, recs) = self.next_generation(
                population,
                &cols,
                &mut scratch,
                &mut evaluations,
                &mut cache_hits,
                lineage_on,
            );
            population = next;
            if lineage_on {
                breeding.push(recs);
            }
        }
        // Record the final state's best as well.
        let best_idx = population
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.error.total_cmp(&b.error))
            .map(|(i, _)| i)
            .expect("population is non-empty");
        // Ancestry walk-back: from the winner's index in the final
        // generation, follow parent indices to generation 0. The result
        // reads oldest-first.
        let mut steps = Vec::new();
        if lineage_on {
            let mut idx = best_idx;
            for (g, recs) in breeding.iter().enumerate().rev() {
                let rec = &recs[idx];
                steps.push(dpr_evidence::LineageStep {
                    generation: g as u32,
                    op: rec.op.to_string(),
                    parent: rec.parent,
                    donor: rec.donor,
                    parent_error: rec.parent_error,
                });
                match rec.parent {
                    Some(p) => idx = p as usize,
                    None => break,
                }
            }
            steps.reverse();
        }
        let mut best = population.swap_remove(best_idx);
        if let Some(&last) = history.last() {
            if best.error < last {
                history.push(best.error);
            }
        }
        let post_gen = breeding.len() as u32;
        let post_step = |steps: &mut Vec<dpr_evidence::LineageStep>,
                             op: &str,
                             pre_error: f64| {
            steps.push(dpr_evidence::LineageStep {
                generation: post_gen,
                op: op.to_string(),
                parent: None,
                donor: None,
                parent_error: dpr_evidence::finite(pre_error),
            });
        };

        // Constant polishing: hill-climb the winner's numeric leaves.
        let pre_polish = best.error;
        self.polish(&mut best, &cols, &mut scratch, &mut evaluations);
        if lineage_on && best.error < pre_polish {
            post_step(&mut steps, "polish", pre_polish);
        }

        // Closed-form residual correction for missed low-order terms, and
        // a pure low-order candidate raced against the GP winner.
        if self.config.refit {
            dpr_telemetry::counter("gp.refit_attempts").inc(1);
            let winner = best.genome.to_expr();
            if let Some(corrected) =
                crate::refit::residual_refit(&winner, &scaled, self.config.metric)
            {
                let corrected = Genome::from_expr(&corrected);
                let (error, fitness) = self.evaluate(&corrected, &cols, &mut scratch, &mut evaluations);
                if error < best.error {
                    if lineage_on {
                        post_step(&mut steps, "refit-residual", best.error);
                    }
                    best.genome = corrected;
                    best.error = error;
                    best.fitness = fitness;
                    dpr_telemetry::counter("gp.refit_applied").inc(1);
                }
            }
            if let Some(candidate) = crate::refit::loworder_candidate(&scaled) {
                let candidate = Genome::from_expr(&candidate);
                let (error, fitness) = self.evaluate(&candidate, &cols, &mut scratch, &mut evaluations);
                if error < best.error {
                    if lineage_on {
                        post_step(&mut steps, "refit-loworder", best.error);
                    }
                    best.genome = candidate;
                    best.error = error;
                    best.fitness = fitness;
                    dpr_telemetry::counter("gp.refit_applied").inc(1);
                }
            }
            // Polish again: grafted coefficients interact with the original
            // constants.
            let pre_polish = best.error;
            self.polish(&mut best, &cols, &mut scratch, &mut evaluations);
            if lineage_on && best.error < pre_polish {
                post_step(&mut steps, "polish", pre_polish);
            }
        }

        let expr = best.genome.to_expr().simplify();
        let model = FittedModel {
            expr,
            plan,
            train_error: 0.0,
            metric: self.config.metric,
            generations,
            evaluations,
        };
        let train_error = model.error_on(data);
        dpr_telemetry::counter("gp.generations").inc(generations as u64);
        dpr_telemetry::counter("gp.evaluations").inc(evaluations);
        // Throughput gauge: row evaluations per second for this fit. The
        // gauge (not a counter) keeps the latest rate visible in traces.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            dpr_telemetry::gauge("gp.evals_per_sec").set((evaluations as f64 / elapsed) as i64);
        }
        if stopped_by_threshold {
            dpr_telemetry::counter("gp.threshold_stops").inc(1);
        }
        if lineage_on {
            dpr_evidence::record(dpr_evidence::Event::Lineage(dpr_evidence::Lineage {
                subject: dpr_evidence::subject().unwrap_or_default(),
                steps,
                best_error_history: history.iter().map(|&e| dpr_evidence::finite(e)).collect(),
                final_error: dpr_evidence::finite(train_error),
                cache_hits,
                evaluations,
                generations: generations as u32,
                stopped_by_threshold,
                expression: model.expr.to_string(),
            }));
        }
        self.last_report = Some(GpReport {
            best_error_history: history,
            stopped_by_threshold,
        });
        FittedModel {
            train_error,
            ..model
        }
    }

    /// Scores one genome: compile, batch-evaluate, apply the parsimony
    /// penalty. Used by the sequential tail (polish, refit) — population
    /// scoring goes through [`Self::score_pending`].
    fn evaluate(
        &self,
        genome: &Genome,
        cols: &Columns,
        scratch: &mut BatchScratch,
        evaluations: &mut u64,
    ) -> (f64, f64) {
        *evaluations += cols.n_rows() as u64;
        let error = genome.compile().error_on(cols, self.config.metric, scratch);
        (error, self.fitness(error, genome))
    }

    /// Selection fitness: the error plus the parsimony penalty.
    fn fitness(&self, error: f64, genome: &Genome) -> f64 {
        if error.is_finite() {
            error + self.config.parsimony * genome.size() as f64
        } else {
            f64::INFINITY
        }
    }

    /// Turns bred genomes into scored individuals.
    ///
    /// Entries carrying a cached `(error, fitness)` — individuals the
    /// breeding phase copied over unchanged — are not re-scored. The rest
    /// are deduplicated by structure, and each distinct genome is compiled
    /// and scored once with the fit's reusable `scratch`.
    ///
    /// A duplicate reuses the bit-identical error its representative
    /// computed, so dedup changes cost, never results. `evaluations` stays
    /// the *logical* count (pending × rows); the physical saving shows up
    /// in `gp.dedup_hits`.
    fn score_pending(
        &self,
        planned: Vec<(Genome, Option<(f64, f64)>)>,
        cols: &Columns,
        scratch: &mut BatchScratch,
        evaluations: &mut u64,
        cache_hits: &mut u64,
    ) -> Vec<Individual> {
        let pending: Vec<&Genome> = planned
            .iter()
            .filter(|(_, cached)| cached.is_none())
            .map(|(genome, _)| genome)
            .collect();
        *evaluations += (pending.len() * cols.n_rows()) as u64;
        let hits = (planned.len() - pending.len()) as u64;
        if hits > 0 {
            dpr_telemetry::counter("gp.fitness_cache_hits").inc(hits);
            *cache_hits += hits;
        }

        let groups = crate::dedup::group(&pending);
        if !pending.is_empty() {
            dpr_telemetry::counter("gp.dedup_distinct").inc(groups.reps.len() as u64);
            if groups.hits() > 0 {
                dpr_telemetry::counter("gp.dedup_hits").inc(groups.hits());
            }
        }
        let metric = self.config.metric;
        let errors: Vec<f64> = groups
            .reps
            .iter()
            .map(|&r| pending[r].compile().error_on(cols, metric, scratch))
            .collect();

        // Pending genomes are in index order, so fresh scores interleave
        // back into the cached ones by consuming the assignments in
        // sequence.
        let mut assign = groups.assign.into_iter();
        planned
            .into_iter()
            .map(|(genome, cached)| {
                let (error, fitness) = cached.unwrap_or_else(|| {
                    let class = assign.next().expect("one class per pending genome");
                    let error = errors[class as usize];
                    (error, self.fitness(error, &genome))
                });
                Individual { genome, error, fitness }
            })
            .collect()
    }

    fn init_population(
        &mut self,
        cols: &Columns,
        scratch: &mut BatchScratch,
        evaluations: &mut u64,
        cache_hits: &mut u64,
        lineage: bool,
    ) -> (Vec<Individual>, Vec<BreedRec>) {
        let n = self.config.population_size;
        let n_vars = cols.n_vars();
        let mut genomes = Vec::with_capacity(n);
        let mut recs = Vec::new();

        // Informed template seeding (~6% of the population): affine and
        // product skeletons with random constants. These do not contain
        // the answer — GP still has to tune every coefficient — but they
        // mirror gplearn's practical bias toward low-order structure.
        if self.config.seeded_init {
            let templates = n / 16;
            for _ in 0..templates {
                let template = self.random_template(n_vars);
                genomes.push(Genome::from_expr(&template));
                if lineage {
                    recs.push(BreedRec::init("seed-template"));
                }
            }
        }

        // Ramped half-and-half for the rest. Generation happens first (all
        // RNG draws); scoring follows in one pass.
        let (lo, hi) = self.config.init_depth;
        let (functions, const_range) = (&self.config.functions, self.config.const_range);
        let mut depth = lo;
        while genomes.len() < n {
            let full = genomes.len() % 2 == 0;
            let generate = if full { Genome::random_full } else { Genome::random_grow };
            genomes.push(generate(&mut self.rng, depth, n_vars, functions, const_range));
            if lineage {
                recs.push(BreedRec::init(if full { "init-full" } else { "init-grow" }));
            }
            depth = if depth >= hi { lo } else { depth + 1 };
        }
        let pop = self.score_pending(
            genomes.into_iter().map(|g| (g, None)).collect(),
            cols,
            scratch,
            evaluations,
            cache_hits,
        );
        (pop, recs)
    }

    /// A random low-order template: `c0*Xi + c1`, `c0*Xi + c1*Xj + c2`, or
    /// `c0*Xi*Xj + c1`.
    fn random_template(&mut self, n_vars: usize) -> Expr {
        let c = |rng: &mut StdRng| {
            Expr::Const((rng.gen_range(-10.0..=10.0f64) * 1000.0).round() / 1000.0)
        };
        let var = |rng: &mut StdRng| Expr::Var(rng.gen_range(0..n_vars));
        let mul = |a: Expr, b: Expr| Expr::Binary(BinaryOp::Mul, Box::new(a), Box::new(b));
        let add = |a: Expr, b: Expr| Expr::Binary(BinaryOp::Add, Box::new(a), Box::new(b));
        match self.rng.gen_range(0..3) {
            0 => {
                let t = mul(c(&mut self.rng), var(&mut self.rng));
                add(t, c(&mut self.rng))
            }
            1 if n_vars > 1 => {
                let t0 = mul(c(&mut self.rng), Expr::Var(0));
                let t1 = mul(c(&mut self.rng), Expr::Var(1));
                add(add(t0, t1), c(&mut self.rng))
            }
            _ if n_vars > 1 => {
                let t = mul(c(&mut self.rng), mul(Expr::Var(0), Expr::Var(1)));
                add(t, c(&mut self.rng))
            }
            _ => {
                let t = mul(c(&mut self.rng), var(&mut self.rng));
                add(t, c(&mut self.rng))
            }
        }
    }

    /// Tournament selection, returning the winner's *index* so breeding can
    /// record parent identities for the evidence ledger. Draw order and the
    /// tie-breaking rule (an earlier draw wins ties) are unchanged from the
    /// original reference-returning implementation.
    fn tournament(&mut self, population: &[Individual]) -> usize {
        let mut best: Option<usize> = None;
        for _ in 0..self.config.tournament_size {
            let candidate = self.rng.gen_range(0..population.len());
            best = match best {
                Some(b) if population[b].fitness <= population[candidate].fitness => Some(b),
                _ => Some(candidate),
            };
        }
        best.expect("tournament size is positive")
    }

    /// Breeds and scores the next generation.
    ///
    /// The breeding loop runs sequentially and consumes the RNG stream in
    /// exactly the order the fully-sequential engine did: selection draws
    /// only depend on the *previous* generation's (already known) scores,
    /// never on a sibling's. The bred children are then scored in one pass
    /// via [`Self::score_pending`].
    ///
    /// Fitness-cache rule: a score is carried over only when the child is
    /// a copy of the parent genome — the elite copy, a reproduction
    /// child, or a depth-limit fallback. Any variation operator
    /// invalidates the cache unconditionally; the structural dedup pass in
    /// [`Self::score_pending`] then catches variation children that came
    /// out identical anyway (and identical siblings).
    fn next_generation(
        &mut self,
        population: Vec<Individual>,
        cols: &Columns,
        scratch: &mut BatchScratch,
        evaluations: &mut u64,
        cache_hits: &mut u64,
        lineage: bool,
    ) -> (Vec<Individual>, Vec<BreedRec>) {
        let n = population.len();
        let mut planned: Vec<(Genome, Option<(f64, f64)>)> = Vec::with_capacity(n);
        let mut recs = Vec::new();

        // Elitism: the best individual survives unchanged, score and all.
        let elite_idx = population
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.error.total_cmp(&b.error))
            .map(|(i, _)| i)
            .expect("population is non-empty");
        planned.push((
            population[elite_idx].genome.clone(),
            Some((population[elite_idx].error, population[elite_idx].fitness)),
        ));
        if lineage {
            recs.push(BreedRec {
                op: "elite",
                parent: Some(elite_idx as u32),
                donor: None,
                parent_error: dpr_evidence::finite(population[elite_idx].error),
            });
        }

        let (p_cx, p_sub, p_hoist, p_point) = (
            self.config.crossover_prob,
            self.config.subtree_mutation_prob,
            self.config.hoist_mutation_prob,
            self.config.point_mutation_prob,
        );
        let max_depth = self.config.max_depth;
        let n_vars = cols.n_vars();
        while planned.len() < n {
            let roll: f64 = self.rng.gen();
            let picked_idx = self.tournament(&population);
            let picked = &population[picked_idx];
            let parent_score = (picked.error, picked.fitness);
            let parent = &picked.genome;
            let (child, cached, op, donor_idx) = if roll < p_cx {
                let donor_idx = self.tournament(&population);
                let donor = &population[donor_idx].genome;
                (self.crossover(parent, donor), None, "crossover", Some(donor_idx))
            } else if roll < p_cx + p_sub {
                (self.subtree_mutation(parent, n_vars), None, "subtree-mutation", None)
            } else if roll < p_cx + p_sub + p_hoist {
                (self.hoist_mutation(parent), None, "hoist-mutation", None)
            } else if roll < p_cx + p_sub + p_hoist + p_point {
                (self.point_mutation(parent, n_vars), None, "point-mutation", None)
            } else {
                // Reproduction: the child IS the parent — reuse its score.
                (parent.clone(), Some(parent_score), "reproduction", None)
            };
            let (child, cached, op) = if child.depth() > max_depth {
                (parent.clone(), Some(parent_score), "depth-fallback")
            } else {
                (child, cached, op)
            };
            planned.push((child, cached));
            if lineage {
                recs.push(BreedRec {
                    op,
                    parent: Some(picked_idx as u32),
                    donor: donor_idx.map(|d| d as u32),
                    parent_error: dpr_evidence::finite(parent_score.0),
                });
            }
        }
        let pop = self.score_pending(planned, cols, scratch, evaluations, cache_hits);
        (pop, recs)
    }

    /// Subtree crossover: replace a random node of `recipient` with a
    /// random subtree of `donor`.
    fn crossover(&mut self, recipient: &Genome, donor: &Genome) -> Genome {
        let at = self.rng.gen_range(0..recipient.size());
        let from = self.rng.gen_range(0..donor.size());
        recipient.splice(recipient.subtree(at), &donor.ops()[donor.subtree(from)])
    }

    /// Subtree mutation: replace a random node with a fresh grown tree.
    fn subtree_mutation(&mut self, parent: &Genome, n_vars: usize) -> Genome {
        let at = self.rng.gen_range(0..parent.size());
        let fresh = Genome::random_grow(
            &mut self.rng,
            3,
            n_vars,
            &self.config.functions,
            self.config.const_range,
        );
        parent.splice(parent.subtree(at), fresh.ops())
    }

    /// Hoist mutation: replace a random node with one of its own subtrees,
    /// shrinking the individual (bloat control).
    fn hoist_mutation(&mut self, parent: &Genome) -> Genome {
        let at = self.rng.gen_range(0..parent.size());
        let outer = parent.subtree(at);
        // A node's descendants follow it in preorder.
        let inner_at = at + self.rng.gen_range(0..outer.len());
        parent.splice(outer, &parent.ops()[parent.subtree(inner_at)])
    }

    /// Point mutation: independently perturb constants and swap operators
    /// or variables at ~15% of nodes, visited in preorder.
    fn point_mutation(&mut self, parent: &Genome, n_vars: usize) -> Genome {
        let mut child = parent.clone();
        let FunctionSet { unary, binary } = &self.config.functions;
        for node in parent.subtrees() {
            if !self.rng.gen_bool(0.15) {
                continue;
            }
            match &mut child.ops_mut()[node.end - 1] {
                Op::Const(v) => {
                    // Mix multiplicative and additive perturbations so both
                    // large and near-zero constants can move.
                    if self.rng.gen_bool(0.5) {
                        *v *= 1.0 + self.rng.gen_range(-0.2..0.2);
                    } else {
                        *v += self.rng.gen_range(-0.5..0.5);
                    }
                }
                Op::Var(i) => {
                    if n_vars > 1 {
                        *i = self.rng.gen_range(0..n_vars) as u32;
                    }
                }
                Op::Unary(op) => {
                    if let Some(new_op) = unary.choose(&mut self.rng) {
                        *op = *new_op;
                    }
                }
                Op::Binary(op) => {
                    if let Some(new_op) = binary.choose(&mut self.rng) {
                        *op = *new_op;
                    }
                }
                _ => unreachable!("a genome holds plain ops only"),
            }
        }
        child
    }

    /// Hill-climb the winner's constants: propose a perturbation of one
    /// constant at a time and keep it if the (scaled-space) error improves.
    fn polish(
        &mut self,
        best: &mut Individual,
        cols: &Columns,
        scratch: &mut BatchScratch,
        evaluations: &mut u64,
    ) {
        if self.config.polish_iters == 0 {
            return;
        }
        // Postfix keeps the tree's leaf order, so these are the constant
        // leaves in the order the tree walk numbered them.
        let consts: Vec<usize> = (0..best.genome.size())
            .filter(|&i| matches!(best.genome.ops()[i], Op::Const(_)))
            .collect();
        if consts.is_empty() {
            return;
        }
        for iter in 0..self.config.polish_iters {
            // Annealed step size: start coarse, end fine.
            let t = iter as f64 / self.config.polish_iters as f64;
            let sigma = 0.25 * (1.0 - t) + 0.002;
            let mut candidate = best.genome.clone();
            let which = consts[self.rng.gen_range(0..consts.len())];
            if let Op::Const(c) = &mut candidate.ops_mut()[which] {
                if self.rng.gen_bool(0.5) {
                    *c *= 1.0 + self.rng.gen_range(-sigma..sigma);
                } else {
                    *c += self.rng.gen_range(-sigma..sigma);
                }
            }
            let (error, fitness) = self.evaluate(&candidate, cols, scratch, evaluations);
            if error < best.error {
                best.genome = candidate;
                best.error = error;
                best.fitness = fitness;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(config: GpConfig, data: &Dataset) -> FittedModel {
        SymbolicRegressor::new(config).fit(data)
    }

    #[test]
    fn recovers_identity() {
        let data = Dataset::from_pairs((0..30).map(|i| (f64::from(i), f64::from(i)))).unwrap();
        let model = fit(GpConfig::fast(1), &data);
        assert!(model.train_error < 0.1, "error {}", model.train_error);
    }

    #[test]
    fn recovers_linear_scale_offset() {
        // Y = 1.8X - 40 (OBD-II coolant in Fahrenheit).
        let data =
            Dataset::from_pairs((160..=192).map(|x| (f64::from(x), 1.8 * f64::from(x) - 40.0)))
                .unwrap();
        let model = fit(GpConfig::fast(2), &data);
        assert!(
            model.agrees_with(|x| 1.8 * x[0] - 40.0, &[(160.0, 192.0)], 0.02),
            "got {model} with error {}",
            model.train_error
        );
    }

    #[test]
    fn recovers_product_formula() {
        // Y = X0*X1/5 — the paper's KWP engine-speed formula.
        let data = Dataset::from_triples((0..60).map(|i| {
            let x0 = f64::from(150 + (i * 7) % 100);
            let x1 = f64::from(10 + (i * 3) % 20);
            ((x0, x1), x0 * x1 / 5.0)
        }))
        .unwrap();
        let model = fit(GpConfig::fast(3), &data);
        assert!(
            model.agrees_with(
                |x| x[0] * x[1] / 5.0,
                &[(150.0, 249.0), (10.0, 29.0)],
                0.03
            ),
            "got {model} with error {}",
            model.train_error
        );
    }

    #[test]
    fn threshold_stops_early_on_trivial_data() {
        let data = Dataset::from_pairs((1..40).map(|i| (f64::from(i), f64::from(i)))).unwrap();
        let mut engine = SymbolicRegressor::new(GpConfig::fast(4));
        let model = engine.fit(&data);
        let report = engine.last_report().unwrap();
        assert!(report.stopped_by_threshold);
        assert!(model.generations < engine.config().max_generations);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::from_pairs((0..25).map(|i| {
            let x = f64::from(i * 9 % 200);
            (x, 0.5 * x + 3.0)
        }))
        .unwrap();
        let a = fit(GpConfig::fast(99), &data);
        let b = fit(GpConfig::fast(99), &data);
        assert_eq!(a.expr, b.expr);
        assert_eq!(a.train_error, b.train_error);
    }

    #[test]
    fn constant_target_learned_as_constant() {
        let data = Dataset::from_pairs((0..20).map(|i| (f64::from(i), 7.0))).unwrap();
        let model = fit(GpConfig::fast(5), &data);
        assert!(model.train_error < 0.05);
        assert!((model.predict(&[100.0]) - 7.0).abs() < 0.5);
    }

    #[test]
    fn arithmetic_function_set_excludes_trig() {
        let config = GpConfig {
            functions: FunctionSet::arithmetic(),
            ..GpConfig::fast(6)
        };
        let data = Dataset::from_pairs((1..30).map(|i| (f64::from(i), 2.0 * f64::from(i)))).unwrap();
        let model = fit(config, &data);
        let printed = model.expr.to_string();
        for banned in ["sin", "cos", "tan", "sqrt", "log"] {
            assert!(!printed.contains(banned), "{printed}");
        }
        assert!(model.train_error < 0.5);
    }

    #[test]
    fn lineage_event_traces_winner_back_to_init() {
        let data = Dataset::from_pairs((0..30).map(|i| {
            let x = f64::from(i * 7 % 120);
            (x, 0.4 * x + 2.0)
        }))
        .unwrap();
        // Fit once without capture, once inside a capture: same model.
        let bare = fit(GpConfig::fast(11), &data);
        let (model, events) = dpr_evidence::capture(|| {
            dpr_evidence::with_subject("rpm", || fit(GpConfig::fast(11), &data))
        });
        assert_eq!(bare.expr, model.expr, "capture must not perturb the run");
        assert_eq!(bare.train_error, model.train_error);

        let lineages: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                dpr_evidence::Event::Lineage(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lineages.len(), 1);
        let lineage = lineages[0];
        assert_eq!(lineage.subject, "rpm");
        assert_eq!(lineage.expression, model.expr.to_string());
        assert_eq!(lineage.evaluations, model.evaluations);
        assert_eq!(lineage.generations as usize, model.generations);
        assert!(!lineage.steps.is_empty());
        // Oldest step is an initialization op at generation 0; every
        // later in-run step names its parent in the previous generation.
        let first = &lineage.steps[0];
        assert_eq!(first.generation, 0);
        assert!(
            first.op.starts_with("init") || first.op == "seed-template",
            "unexpected origin op {}",
            first.op
        );
        assert!(first.parent.is_none());
        let in_run: Vec<_> = lineage
            .steps
            .iter()
            .filter(|s| (s.generation as usize) < model.generations)
            .collect();
        for pair in in_run.windows(2) {
            assert_eq!(pair[1].generation, pair[0].generation + 1);
            assert!(pair[1].parent.is_some());
        }
        assert!(lineage.best_error_history.last().copied().flatten().is_some());
    }

    #[test]
    fn report_history_is_nonincreasing() {
        let data = Dataset::from_pairs((0..40).map(|i| {
            let x = f64::from(i);
            (x, x * x * 0.01)
        }))
        .unwrap();
        let mut engine = SymbolicRegressor::new(GpConfig::fast(7));
        engine.fit(&data);
        let history = &engine.last_report().unwrap().best_error_history;
        for pair in history.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12, "history must not regress");
        }
    }
}
