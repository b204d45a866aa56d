//! The genetic-programming engine: initialization, selection, variation,
//! and the paper's two stopping criteria.
//!
//! # One program form
//!
//! Every individual is a flat postfix program, from initialization
//! through breeding, scoring and constant polishing. The tree operators
//! number nodes in preorder, as gplearn does, and the subtree lookup maps
//! a node's number onto its postfix slice without allocating, so
//! crossover and subtree/hoist mutation are slice splices and point
//! mutation is a preorder walk that edits ops in place. An
//! [`Expr`](crate::Expr) tree is built only for the residual refit and
//! for simplifying and reporting the winner.
//!
//! # Generation buffers
//!
//! A generation is one flat op buffer plus offsets, with the scores
//! beside it. A fit keeps two: children are written straight into the
//! one the previous generation does not occupy, and the two are swapped.
//! Elite, reproduction and depth-limit copies are slice copies, subtree
//! mutation grows its fresh subtree in place, and a child's depth is one
//! scan of the slice just written. With dedup's table, the pending
//! lists and one reused [`CompiledExpr`] all kept for the whole fit, a
//! warm generation allocates nothing (`crates/gp/tests/allocs.rs`
//! bounds a paper-budget fit at 100 allocations per generation).
//!
//! # Scoring and determinism
//!
//! Each generation is bred first — all RNG draws happen here, selecting
//! from the previous, fully-scored generation — and then scored in one
//! pass by [`Scorer::score_pending`]. Two mechanisms avoid re-scoring a
//! program:
//!
//! * the *fitness cache*: individuals carried over unchanged — the elite,
//!   reproduction children, and depth-limit fallbacks — reuse their
//!   parent's score (`gp.fitness_cache_hits`);
//! * *dedup*: every other child is hashed as it is written, the pending
//!   children are grouped by structure ([`crate::dedup`]), and one
//!   representative per group is compiled to a fused [`CompiledExpr`]
//!   and batch-evaluated over the column-major [`Columns`] view
//!   (`gp.dedup_hits`, `gp.dedup_distinct`).
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

use crate::compile::{
    depth, random_node, subtree, visit_preorder, BatchScratch, Columns, CompiledExpr, Genome, Op,
};
use crate::dedup::Dedup;
use crate::expr::{BinaryOp, UnaryOp};
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

/// The fit's winner, taken out of the last generation for the polish
/// and refit tail.
struct Individual {
    genome: Genome,
    /// Raw metric error in scaled space (no parsimony).
    error: f64,
    /// Selection fitness: error plus parsimony penalty.
    fitness: f64,
}

/// One generation in one flat buffer: genome `i` is the postfix slice
/// `ops[bounds[i]..bounds[i + 1]]`, with its scores beside it. A fit
/// keeps two and swaps them each generation, breeding from one into the
/// other, so once their buffers have grown a generation allocates
/// nothing per child.
struct Generation {
    ops: Vec<Op>,
    bounds: Vec<usize>,
    /// Raw metric error in scaled space (no parsimony).
    error: Vec<f64>,
    /// Selection fitness: error plus parsimony penalty.
    fitness: Vec<f64>,
}

impl Generation {
    fn new() -> Generation {
        Generation {
            ops: Vec::new(),
            bounds: vec![0],
            error: Vec::new(),
            fitness: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.error.len()
    }

    fn genome(&self, i: usize) -> &[Op] {
        &self.ops[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Where the genome being written starts.
    fn open(&self) -> usize {
        self.bounds[self.len()]
    }

    fn clear(&mut self) {
        self.ops.clear();
        self.bounds.truncate(1);
        self.error.clear();
        self.fitness.clear();
    }

    /// Closes the genome written since the last push, with its
    /// `(error, fitness)`.
    fn push(&mut self, (error, fitness): (f64, f64)) {
        self.bounds.push(self.ops.len());
        self.error.push(error);
        self.fitness.push(fitness);
    }

    /// The lowest error's index, the first one on ties.
    fn best(&self) -> usize {
        self.error
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .expect("population is non-empty")
    }
}

/// Selection fitness: the error plus the parsimony penalty.
fn fitness(parsimony: f64, error: f64, size: usize) -> f64 {
    if error.is_finite() {
        error + parsimony * size as f64
    } else {
        f64::INFINITY
    }
}

/// A fit's scoring state, reused by every generation and by the polish
/// and refit tail, so scoring allocates only while its buffers grow.
struct Scorer<'a> {
    cols: &'a Columns,
    metric: Metric,
    parsimony: f64,
    scratch: BatchScratch,
    program: CompiledExpr,
    dedup: Dedup,
    /// The current generation's children that need scoring, in index
    /// order, and each one's structural hash, taken as it was written.
    pending: Vec<u32>,
    hashes: Vec<u64>,
    /// Logical row evaluations: pending programs × rows, dedup-invariant.
    evaluations: u64,
    cache_hits: u64,
}

impl<'a> Scorer<'a> {
    fn new(cols: &'a Columns, config: &GpConfig) -> Scorer<'a> {
        Scorer {
            cols,
            metric: config.metric,
            parsimony: config.parsimony,
            scratch: BatchScratch::new(),
            program: CompiledExpr::default(),
            dedup: Dedup::new(),
            pending: Vec::new(),
            hashes: Vec::new(),
            evaluations: 0,
            cache_hits: 0,
        }
    }

    /// Scores one program: compile, batch-evaluate, apply the parsimony
    /// penalty. Used by the sequential tail (polish, refit) — population
    /// scoring goes through [`Self::score_pending`].
    fn evaluate(&mut self, ops: &[Op]) -> (f64, f64) {
        self.evaluations += self.cols.n_rows() as u64;
        self.program.compile_from(ops);
        let error = self
            .program
            .error_on(self.cols, self.metric, &mut self.scratch);
        (error, fitness(self.parsimony, error, ops.len()))
    }

    /// Closes the genome just written into `gen` as one to score, and
    /// hashes it while its ops are still in cache.
    fn defer(&mut self, gen: &mut Generation) {
        self.pending.push(gen.len() as u32);
        self.hashes.push(crate::dedup::hash(&gen.ops[gen.open()..]));
        gen.push((f64::NAN, f64::NAN));
    }

    /// Scores the generation's deferred children.
    ///
    /// Children pushed with a score — individuals the breeding phase
    /// copied over unchanged — are not re-scored. The deferred ones are
    /// deduplicated by structure, and each distinct genome is compiled
    /// and scored once.
    ///
    /// A duplicate reuses the bit-identical error its representative
    /// computed, so dedup changes cost, never results. `evaluations`
    /// stays the *logical* count (pending × rows); the physical saving
    /// shows up in `gp.dedup_hits`.
    fn score_pending(&mut self, gen: &mut Generation) {
        let pending = self.pending.len();
        self.evaluations += (pending * self.cols.n_rows()) as u64;
        let hits = (gen.len() - pending) as u64;
        if hits > 0 {
            dpr_telemetry::counter("gp.fitness_cache_hits").inc(hits);
            self.cache_hits += hits;
        }

        let ids = &self.pending;
        let groups = self
            .dedup
            .group(&self.hashes, |p| gen.genome(ids[p] as usize));
        if pending > 0 {
            dpr_telemetry::counter("gp.dedup_distinct").inc(groups.reps.len() as u64);
            if groups.hits() > 0 {
                dpr_telemetry::counter("gp.dedup_hits").inc(groups.hits());
            }
        }
        for &rep in &groups.reps {
            let i = ids[rep] as usize;
            self.program.compile_from(gen.genome(i));
            gen.error[i] = self
                .program
                .error_on(self.cols, self.metric, &mut self.scratch);
        }
        for (&i, &class) in ids.iter().zip(&groups.assign) {
            let i = i as usize;
            let error = gen.error[ids[groups.reps[class as usize]] as usize];
            gen.error[i] = error;
            gen.fitness[i] = fitness(self.parsimony, error, gen.genome(i).len());
        }
        self.pending.clear();
        self.hashes.clear();
    }
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

        let mut scorer = Scorer::new(&cols, &self.config);
        let mut population = Generation::new();
        let mut next = Generation::new();
        let init_recs = self.init_population(&mut population, &mut scorer, lineage_on);
        if lineage_on {
            breeding.push(init_recs);
        }
        let mut history = Vec::with_capacity(self.config.max_generations);
        let mut stopped_by_threshold = false;
        let mut generations = 0;

        for _gen in 0..self.config.max_generations {
            generations += 1;
            let best = population
                .error
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            history.push(best);
            if best <= self.config.stop_threshold {
                stopped_by_threshold = true;
                break;
            }
            let recs = self.next_generation(&population, &mut next, &mut scorer, lineage_on);
            std::mem::swap(&mut population, &mut next);
            if lineage_on {
                breeding.push(recs);
            }
        }
        // Record the final state's best as well.
        let best_idx = population.best();
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
        let mut best = Individual {
            genome: Genome::from_ops(population.genome(best_idx)),
            error: population.error[best_idx],
            fitness: population.fitness[best_idx],
        };
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
        self.polish(&mut best, &mut scorer);
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
                let (error, fitness) = scorer.evaluate(corrected.ops());
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
                let (error, fitness) = scorer.evaluate(candidate.ops());
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
            self.polish(&mut best, &mut scorer);
            if lineage_on && best.error < pre_polish {
                post_step(&mut steps, "polish", pre_polish);
            }
        }

        let evaluations = scorer.evaluations;
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
                cache_hits: scorer.cache_hits,
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

    /// Writes and scores generation 0 into `gen`.
    fn init_population(
        &mut self,
        gen: &mut Generation,
        scorer: &mut Scorer,
        lineage: bool,
    ) -> Vec<BreedRec> {
        let n = self.config.population_size;
        let n_vars = scorer.cols.n_vars();
        gen.clear();
        let mut recs = Vec::new();

        // Informed template seeding (~6% of the population): affine and
        // product skeletons with random constants. These do not contain
        // the answer — GP still has to tune every coefficient — but they
        // mirror gplearn's practical bias toward low-order structure.
        if self.config.seeded_init {
            let templates = n / 16;
            for _ in 0..templates {
                self.write_template(&mut gen.ops, n_vars);
                scorer.defer(gen);
                if lineage {
                    recs.push(BreedRec::init("seed-template"));
                }
            }
        }

        // Ramped half-and-half for the rest. Generation happens first (all
        // RNG draws); scoring follows in one pass.
        let (lo, hi) = self.config.init_depth;
        let mut depth = lo;
        while gen.len() < n {
            let full = gen.len().is_multiple_of(2);
            random_node(
                &mut gen.ops,
                &mut self.rng,
                depth,
                full,
                n_vars,
                &self.config.functions,
                self.config.const_range,
            );
            scorer.defer(gen);
            if lineage {
                recs.push(BreedRec::init(if full { "init-full" } else { "init-grow" }));
            }
            depth = if depth >= hi { lo } else { depth + 1 };
        }
        scorer.score_pending(gen);
        recs
    }

    /// Writes a random low-order template in postfix: `c0*Xi + c1`,
    /// `c0*X0 + c1*X1 + c2`, or `c0*(X0*X1) + c1`. The RNG is drawn in
    /// the tree's left-to-right leaf order.
    fn write_template(&mut self, out: &mut Vec<Op>, n_vars: usize) {
        let rng = &mut self.rng;
        let c = |rng: &mut StdRng| {
            Op::Const((rng.gen_range(-10.0..=10.0f64) * 1000.0).round() / 1000.0)
        };
        let (mul, add) = (Op::Binary(BinaryOp::Mul), Op::Binary(BinaryOp::Add));
        match (rng.gen_range(0..3), n_vars > 1) {
            (1, true) => {
                let (c0, c1, c2) = (c(rng), c(rng), c(rng));
                out.extend([c0, Op::Var(0), mul, c1, Op::Var(1), mul, add, c2, add]);
            }
            (2, true) => {
                let (c0, c1) = (c(rng), c(rng));
                out.extend([c0, Op::Var(0), Op::Var(1), mul, mul, c1, add]);
            }
            _ => {
                let c0 = c(rng);
                let x = Op::Var(rng.gen_range(0..n_vars) as u32);
                let c1 = c(rng);
                out.extend([c0, x, mul, c1, add]);
            }
        }
    }

    /// Tournament selection over the previous generation's fitnesses,
    /// returning the winner's *index* so breeding can record parent
    /// identities for the evidence ledger. An earlier draw wins ties.
    fn tournament(&mut self, fitness: &[f64]) -> usize {
        let mut best: Option<usize> = None;
        for _ in 0..self.config.tournament_size {
            let candidate = self.rng.gen_range(0..fitness.len());
            best = match best {
                Some(b) if fitness[b] <= fitness[candidate] => Some(b),
                _ => Some(candidate),
            };
        }
        best.expect("tournament size is positive")
    }

    /// Breeds the next generation from `parents` into `children`, then
    /// scores it.
    ///
    /// The breeding loop runs sequentially and consumes the RNG stream in
    /// exactly the order the fully-sequential engine did: selection draws
    /// only depend on the *previous* generation's (already known) scores,
    /// never on a sibling's. Each child is written straight into the
    /// children's buffer; the bred children are then scored in one pass
    /// via [`Scorer::score_pending`].
    ///
    /// Fitness-cache rule: a score is carried over only when the child is
    /// a copy of the parent genome — the elite copy, a reproduction
    /// child, or a depth-limit fallback. Any variation operator
    /// invalidates the cache unconditionally; the structural dedup pass
    /// then catches variation children that came out identical anyway
    /// (and identical siblings).
    fn next_generation(
        &mut self,
        parents: &Generation,
        children: &mut Generation,
        scorer: &mut Scorer,
        lineage: bool,
    ) -> Vec<BreedRec> {
        let n = parents.len();
        children.clear();
        let mut recs = Vec::new();

        // Elitism: the best individual survives unchanged, score and all.
        let elite = parents.best();
        children.ops.extend_from_slice(parents.genome(elite));
        children.push((parents.error[elite], parents.fitness[elite]));
        if lineage {
            recs.push(BreedRec {
                op: "elite",
                parent: Some(elite as u32),
                donor: None,
                parent_error: dpr_evidence::finite(parents.error[elite]),
            });
        }

        let (p_cx, p_sub, p_hoist, p_point) = (
            self.config.crossover_prob,
            self.config.subtree_mutation_prob,
            self.config.hoist_mutation_prob,
            self.config.point_mutation_prob,
        );
        let max_depth = self.config.max_depth;
        let n_vars = scorer.cols.n_vars();
        while children.len() < n {
            let roll: f64 = self.rng.gen();
            let picked = self.tournament(&parents.fitness);
            let parent = parents.genome(picked);
            let out = &mut children.ops;
            let start = out.len();
            let (op, copied, donor) = if roll < p_cx {
                let donor = self.tournament(&parents.fitness);
                self.crossover(parent, parents.genome(donor), out);
                ("crossover", false, Some(donor))
            } else if roll < p_cx + p_sub {
                self.subtree_mutation(parent, n_vars, out);
                ("subtree-mutation", false, None)
            } else if roll < p_cx + p_sub + p_hoist {
                self.hoist_mutation(parent, out);
                ("hoist-mutation", false, None)
            } else if roll < p_cx + p_sub + p_hoist + p_point {
                self.point_mutation(parent, n_vars, out);
                ("point-mutation", false, None)
            } else {
                // Reproduction: the child IS the parent — reuse its score.
                out.extend_from_slice(parent);
                ("reproduction", true, None)
            };
            let (op, copied) = if depth(&out[start..]) > max_depth {
                out.truncate(start);
                out.extend_from_slice(parent);
                ("depth-fallback", true)
            } else {
                (op, copied)
            };
            if copied {
                children.push((parents.error[picked], parents.fitness[picked]));
            } else {
                scorer.defer(children);
            }
            if lineage {
                recs.push(BreedRec {
                    op,
                    parent: Some(picked as u32),
                    donor: donor.map(|d| d as u32),
                    parent_error: dpr_evidence::finite(parents.error[picked]),
                });
            }
        }
        scorer.score_pending(children);
        recs
    }

    /// Subtree crossover: replace a random node of `recipient` with a
    /// random subtree of `donor`.
    fn crossover(&mut self, recipient: &[Op], donor: &[Op], out: &mut Vec<Op>) {
        let at = subtree(recipient, self.rng.gen_range(0..recipient.len()));
        let from = subtree(donor, self.rng.gen_range(0..donor.len()));
        out.extend_from_slice(&recipient[..at.start]);
        out.extend_from_slice(&donor[from]);
        out.extend_from_slice(&recipient[at.end..]);
    }

    /// Subtree mutation: replace a random node with a fresh grown tree,
    /// generated in place.
    fn subtree_mutation(&mut self, parent: &[Op], n_vars: usize, out: &mut Vec<Op>) {
        let at = subtree(parent, self.rng.gen_range(0..parent.len()));
        out.extend_from_slice(&parent[..at.start]);
        random_node(
            out,
            &mut self.rng,
            3,
            false,
            n_vars,
            &self.config.functions,
            self.config.const_range,
        );
        out.extend_from_slice(&parent[at.end..]);
    }

    /// Hoist mutation: replace a random node with one of its own subtrees,
    /// shrinking the individual (bloat control).
    fn hoist_mutation(&mut self, parent: &[Op], out: &mut Vec<Op>) {
        let at = self.rng.gen_range(0..parent.len());
        let outer = subtree(parent, at);
        // A node's descendants follow it in preorder.
        let inner = subtree(parent, at + self.rng.gen_range(0..outer.len()));
        out.extend_from_slice(&parent[..outer.start]);
        out.extend_from_slice(&parent[inner]);
        out.extend_from_slice(&parent[outer.end..]);
    }

    /// Point mutation: independently perturb constants and swap operators
    /// or variables at ~15% of nodes, visited in preorder.
    fn point_mutation(&mut self, parent: &[Op], n_vars: usize, out: &mut Vec<Op>) {
        let start = out.len();
        out.extend_from_slice(parent);
        let FunctionSet { unary, binary } = &self.config.functions;
        let rng = &mut self.rng;
        visit_preorder(&mut out[start..], parent.len() - 1, &mut |_, op| {
            if !rng.gen_bool(0.15) {
                return;
            }
            match op {
                Op::Const(v) => {
                    // Mix multiplicative and additive perturbations so both
                    // large and near-zero constants can move.
                    if rng.gen_bool(0.5) {
                        *v *= 1.0 + rng.gen_range(-0.2..0.2);
                    } else {
                        *v += rng.gen_range(-0.5..0.5);
                    }
                }
                Op::Var(i) => {
                    if n_vars > 1 {
                        *i = rng.gen_range(0..n_vars) as u32;
                    }
                }
                Op::Unary(op) => {
                    if let Some(new_op) = unary.choose(rng) {
                        *op = *new_op;
                    }
                }
                Op::Binary(op) => {
                    if let Some(new_op) = binary.choose(rng) {
                        *op = *new_op;
                    }
                }
                _ => unreachable!("a genome holds plain ops only"),
            }
        });
    }

    /// Hill-climb the winner's constants: perturb one constant at a time
    /// in place, keep the change if the (scaled-space) error improves and
    /// undo it otherwise.
    fn polish(&mut self, best: &mut Individual, scorer: &mut Scorer) {
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
            let which = consts[self.rng.gen_range(0..consts.len())];
            let slot = &mut best.genome.ops_mut()[which];
            let kept = *slot;
            if let Op::Const(c) = slot {
                if self.rng.gen_bool(0.5) {
                    *c *= 1.0 + self.rng.gen_range(-sigma..sigma);
                } else {
                    *c += self.rng.gen_range(-sigma..sigma);
                }
            }
            let (error, fitness) = scorer.evaluate(best.genome.ops());
            if error < best.error {
                best.error = error;
                best.fitness = fitness;
            } else {
                best.genome.ops_mut()[which] = kept;
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
