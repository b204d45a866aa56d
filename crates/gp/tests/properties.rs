//! Property-based tests for the GP engine's invariants.

use std::collections::HashMap;
use std::ops::Range;

use dpr_gp::compile::{BatchScratch, Columns, CompiledExpr, Genome, Op};
use dpr_gp::dedup::{self, Dedup, DedupGroups};
use dpr_gp::expr::{BinaryOp, Expr};
use dpr_gp::scaling::{table2_factor, ScalePlan};
use dpr_gp::{Dataset, FunctionSet, GpConfig, Metric, SymbolicRegressor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_genome(seed: u64, depth: usize) -> Genome {
    let mut rng = StdRng::seed_from_u64(seed);
    Genome::random_grow(&mut rng, depth, 2, &FunctionSet::full(), (-10.0, 10.0))
}

fn arb_expr(seed: u64, depth: usize) -> Expr {
    arb_genome(seed, depth).to_expr()
}

/// The tree oracle for node numbering: the `k`-th node in preorder,
/// found by a plain recursive walk.
fn preorder_node(e: &Expr, k: usize) -> &Expr {
    fn walk<'a>(e: &'a Expr, k: &mut usize) -> Option<&'a Expr> {
        if *k == 0 {
            return Some(e);
        }
        *k -= 1;
        match e {
            Expr::Const(_) | Expr::Var(_) => None,
            Expr::Unary(_, a) => walk(a, k),
            Expr::Binary(_, a, b) => walk(a, k).or_else(|| walk(b, k)),
        }
    }
    let mut k = k;
    walk(e, &mut k).expect("index within tree size")
}

/// The table oracle for node numbering: every node's subtree as a
/// postfix range, indexed by the node's preorder number. One forward
/// pass finds where the subtree ending at each position starts; a
/// root/left/right walk then lists the nodes.
fn subtrees(g: &Genome) -> Vec<Range<usize>> {
    let ops = g.ops();
    let mut open = Vec::new();
    let starts: Vec<usize> = ops
        .iter()
        .enumerate()
        .map(|(end, op)| {
            match op {
                Op::Unary(_) => {}
                Op::Binary(_) => {
                    open.pop();
                }
                _ => open.push(end),
            }
            *open.last().expect("well-formed postfix")
        })
        .collect();
    let mut out = Vec::with_capacity(ops.len());
    let mut todo = vec![ops.len() - 1];
    while let Some(end) = todo.pop() {
        out.push(starts[end]..end + 1);
        match ops[end] {
            Op::Unary(_) => todo.push(end - 1),
            Op::Binary(_) => todo.extend([end - 1, starts[end - 1] - 1]),
            _ => {}
        }
    }
    out
}

/// The grouping oracle: FNV-1a over a byte encoding of each op, with
/// one `Vec` of classes per hash bucket and an exact comparison inside
/// each bucket.
fn oracle_group(genomes: &[&Genome]) -> DedupGroups {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn fnv(ops: &[Op]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for op in ops {
            match *op {
                Op::Const(c) => eat(&mut h, &[&[0u8][..], &c.to_bits().to_le_bytes()].concat()),
                Op::Var(i) => eat(&mut h, &[&[1u8][..], &i.to_le_bytes()].concat()),
                Op::Unary(u) => eat(&mut h, &[2, u as u8]),
                Op::Binary(b) => eat(&mut h, &[3, b as u8]),
                _ => unreachable!("a genome holds plain ops only"),
            }
        }
        h
    }
    let mut reps: Vec<usize> = Vec::new();
    let mut assign = Vec::with_capacity(genomes.len());
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    for (i, genome) in genomes.iter().enumerate() {
        let bucket = buckets.entry(fnv(genome.ops())).or_default();
        let found = bucket
            .iter()
            .copied()
            .find(|&g| bit_equal(genomes[reps[g as usize]], genome));
        let class = found.unwrap_or_else(|| {
            let g = reps.len() as u32;
            reps.push(i);
            bucket.push(g);
            g
        });
        assign.push(class);
    }
    DedupGroups { reps, assign }
}

/// Same ops, constants compared by bit pattern.
fn bit_equal(a: &Genome, b: &Genome) -> bool {
    a.size() == b.size()
        && a.ops().iter().zip(b.ops()).all(|(x, y)| match (*x, *y) {
            (Op::Const(x), Op::Const(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// The library's grouping, with `hash` standing in for the structural
/// hash the engine takes as it writes each child.
fn library_group(genomes: &[&Genome], hash: impl Fn(&Genome) -> u64) -> DedupGroups {
    let hashes: Vec<u64> = genomes.iter().map(|g| hash(g)).collect();
    Dedup::new().group(&hashes, |i| genomes[i].ops()).clone()
}

/// A population drawn (with repeats, so clones are planted) from random
/// genomes and from `X0 + c` for the constants grouping must keep apart
/// or together by bit pattern: two NaN payloads, `0.0` and `-0.0`.
fn planted_population(seed: u64, picks: &[usize]) -> Vec<Genome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<Genome> = (0..8)
        .map(|_| Genome::random_grow(&mut rng, 4, 2, &FunctionSet::full(), (-10.0, 10.0)))
        .collect();
    for c in [f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001), 0.0, -0.0] {
        pool.push(Genome::from_expr(&Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Var(0)),
            Box::new(Expr::Const(c)),
        )));
    }
    picks
        .iter()
        .map(|&i| pool[i % pool.len()].clone())
        .collect()
}

/// The tree oracle for leaf order: constant leaves, left to right.
fn tree_constants(e: &Expr, out: &mut Vec<u64>) {
    match e {
        Expr::Const(c) => out.push(c.to_bits()),
        Expr::Var(_) => {}
        Expr::Unary(_, a) => tree_constants(a, out),
        Expr::Binary(_, a, b) => {
            tree_constants(a, out);
            tree_constants(b, out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Protected operators keep evaluation total: any tree on any finite
    /// input yields a non-NaN-propagating result or a finite number.
    #[test]
    fn eval_is_total(seed in any::<u64>(), x0 in -1e4f64..1e4, x1 in -1e4f64..1e4) {
        let e = arb_expr(seed, 5);
        let v = e.eval(&[x0, x1]);
        // Protected operators keep the result finite (tan is clamped and
        // division/log/inv are protected), so no NaN/∞ can propagate out.
        prop_assert!(v.is_finite(), "{e} evaluated to {v}");
        // Size/depth bookkeeping stays consistent.
        prop_assert!(e.depth() <= 5);
        prop_assert!(e.size() >= 1);
    }

    /// Simplification never changes semantics on sampled inputs.
    #[test]
    fn simplify_preserves_semantics(seed in any::<u64>(), x0 in -100.0f64..100.0, x1 in -100.0f64..100.0) {
        let e = arb_expr(seed, 5);
        let s = e.simplify();
        let a = e.eval(&[x0, x1]);
        let b = s.eval(&[x0, x1]);
        prop_assert!(
            (a - b).abs() < 1e-6 * a.abs().max(1.0) || (a.is_nan() && b.is_nan()),
            "{e} vs {s}: {a} vs {b}"
        );
        prop_assert!(s.size() <= e.size(), "simplify must not grow the tree");
    }

    /// The Tab. 2 factor is always a power of ten and, within the table's
    /// covered magnitude range (it caps correction at 10^4 on both ends,
    /// exactly as the paper's table does), lands the scaled median in a
    /// sane band.
    #[test]
    fn table2_factor_normalizes(median in 1e-6f64..1e6) {
        let f = table2_factor(median, true);
        let log = f.log10();
        prop_assert!((log - log.round()).abs() < 1e-9, "{f} is not a power of ten");
        prop_assert!((1e-4..=1e4).contains(&f), "correction capped at four decades");
        let scaled = median * f;
        if (1e-4..=1e5).contains(&median) {
            prop_assert!(
                (0.09..=10.0 + 1e-9).contains(&scaled),
                "median {median} -> {scaled}"
            );
        } else {
            // Outside the table's range the factor saturates; it must at
            // least move the value toward the band, never away.
            prop_assert!((scaled.log10().abs()) <= (median.log10().abs()) + 1e-9);
        }
    }

    /// Scale plans round trip: eval_raw of a fitted expression equals the
    /// scaled evaluation undone by hand.
    #[test]
    fn scale_plan_round_trip(x in 1.0f64..1e4, a in 0.01f64..100.0) {
        let data = Dataset::from_pairs((1..20).map(|i| {
            let xv = x * f64::from(i) / 10.0;
            (xv, a * xv)
        })).unwrap();
        let plan = ScalePlan::for_dataset(&data);
        let expr = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Const(2.0)),
            Box::new(Expr::Var(0)),
        );
        let raw = plan.eval_raw(&expr, &[x]);
        let manual = 2.0 * (x * plan.x_factors[0]) / plan.y_factor;
        prop_assert!((raw - manual).abs() < 1e-9 * manual.abs().max(1.0));
    }

    /// Genome→`Expr` and `Expr`→genome (flatten) are inverse; size and
    /// depth agree with the tree's.
    #[test]
    fn genome_round_trips_through_the_tree(seed in any::<u64>(), depth in 1usize..=7) {
        let g = arb_genome(seed, depth);
        let e = g.to_expr();
        prop_assert_eq!(&Genome::from_expr(&e), &g);
        prop_assert_eq!(g.size(), e.size());
        prop_assert_eq!(g.depth(), e.depth());
    }

    /// Every preorder node index maps to the postfix slice that is the
    /// flattened `k`-th node of the tree, and each node's descendants
    /// follow it in the preorder list.
    #[test]
    fn subtrees_are_the_flattened_preorder_nodes(seed in any::<u64>(), depth in 1usize..=7) {
        let g = arb_genome(seed, depth);
        let e = g.to_expr();
        let subtrees = subtrees(&g);
        prop_assert_eq!(subtrees.len(), e.size());
        for (k, range) in subtrees.iter().enumerate() {
            let node = preorder_node(&e, k);
            prop_assert_eq!(&g.ops()[range.clone()], Genome::from_expr(node).ops(), "node {}", k);
            prop_assert_eq!(range.len(), node.size());
            for inner in &subtrees[k..k + range.len()] {
                prop_assert!(range.start <= inner.start && inner.end <= range.end);
            }
        }
    }

    /// The allocation-free single-node lookup the breeding operators use
    /// agrees with the full preorder table at every node.
    #[test]
    fn subtree_lookup_matches_the_preorder_table(seed in any::<u64>(), depth in 1usize..=7) {
        let g = arb_genome(seed, depth);
        for (k, range) in subtrees(&g).into_iter().enumerate() {
            prop_assert_eq!(g.subtree(k), range, "node {}", k);
        }
    }

    /// The allocation-free preorder walk point mutation uses visits every
    /// node's op in the preorder table's order, and leaves the genome
    /// intact when the visitor changes nothing.
    #[test]
    fn preorder_walk_follows_the_preorder_table(seed in any::<u64>(), depth in 1usize..=7) {
        let g = arb_genome(seed, depth);
        let want: Vec<usize> = subtrees(&g).iter().map(|range| range.end - 1).collect();
        let mut walked = g.clone();
        let mut got = Vec::new();
        walked.visit_preorder(|at, op| {
            assert_eq!(*op, g.ops()[at]);
            got.push(at);
        });
        prop_assert_eq!(got, want);
        prop_assert_eq!(walked, g);
    }

    /// `Const` ops appear in the tree's left-to-right leaf order, so the
    /// `k`-th constant position is the `k`-th constant leaf.
    #[test]
    fn genome_constants_follow_tree_leaf_order(seed in any::<u64>(), depth in 1usize..=7) {
        let g = arb_genome(seed, depth);
        let mut want = Vec::new();
        tree_constants(&g.to_expr(), &mut want);
        let got: Vec<u64> = g
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Const(c) => Some(c.to_bits()),
                _ => None,
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Compiled (postfix-bytecode) evaluation is bit-identical to the
    /// recursive tree walker on random trees over random inputs —
    /// including NaN/∞ inputs, so the protected division/log/inverse
    /// special cases and non-finite propagation agree exactly.
    #[test]
    fn compiled_eval_matches_recursive(
        seed in any::<u64>(),
        depth in 1usize..=7,
        x0 in -1e6f64..1e6,
        x1 in -1e6f64..1e6,
        special in 0u8..6,
    ) {
        let g = arb_genome(seed, depth);
        let e = g.to_expr();
        let c = g.compile();
        // Mix plain finite rows with rows exercising NaN/∞ propagation and
        // the protected div-by-zero / log(0) / inv(0) branches.
        let row: [f64; 2] = match special {
            0 => [f64::NAN, x1],
            1 => [f64::INFINITY, x1],
            2 => [x0, f64::NEG_INFINITY],
            3 => [0.0, 0.0],
            4 => [x0, 1e-12],
            _ => [x0, x1],
        };
        let a = e.eval(&row);
        let b = c.eval(&row);
        prop_assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{e} on {row:?}: {a:?} ({:#x}) vs {b:?} ({:#x})", a.to_bits(), b.to_bits()
        );
        // Unfused bytecode is one op per tree node; fusion only shrinks.
        prop_assert_eq!(g.compile_unfused().len(), e.size());
        prop_assert!(c.len() <= e.size());
    }

    /// The batch (column-wise) error of a genome-built program is exactly
    /// what `Metric::error` computes with the recursive evaluator.
    #[test]
    fn compiled_batch_error_matches_metric(
        seed in any::<u64>(),
        rows in proptest::collection::vec((-1e4f64..1e4, -1e4f64..1e4, -1e4f64..1e4), 1..40),
    ) {
        let g = arb_genome(seed, 6);
        let e = g.to_expr();
        let data = Dataset::new(
            rows.iter().map(|(x0, x1, _)| vec![*x0, *x1]).collect(),
            rows.iter().map(|(_, _, y)| *y).collect(),
        ).unwrap();
        let cols = Columns::from_dataset(&data);
        let compiled = g.compile();
        let mut scratch = BatchScratch::new();
        for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
            let want = metric.error(&e, &data);
            let got = compiled.error_on(&cols, metric, &mut scratch);
            prop_assert!(
                want.to_bits() == got.to_bits(),
                "{e} with {metric:?}: {want} vs {got}"
            );
        }
    }

    /// Superinstruction fusion is bit-identical to the unfused bytecode
    /// on the batch path. The value range reaches ±1e300 so chained
    /// products overflow to ∞ and subtractions of overflows produce NaN
    /// mid-program — the fused arms must propagate those exactly like
    /// the plain push/pop interpreter (they call the same protected
    /// `apply` in the same order).
    #[test]
    fn fused_batch_scoring_matches_unfused(
        seed in any::<u64>(),
        depth in 1usize..=7,
        rows in proptest::collection::vec((-1e300f64..1e300, -1e300f64..1e300, -1e4f64..1e4), 1..24),
    ) {
        let g = arb_genome(seed, depth);
        let e = g.to_expr();
        let data = Dataset::new(
            rows.iter().map(|(x0, x1, _)| vec![*x0, *x1]).collect(),
            rows.iter().map(|(_, _, y)| *y).collect(),
        ).unwrap();
        let cols = Columns::from_dataset(&data);
        let fused = g.compile();
        let unfused = g.compile_unfused();
        prop_assert!(fused.ops().len() <= unfused.ops().len(), "fusion must not grow programs");
        // Recompiling into a buffer that held another program leaves
        // nothing of it behind.
        let mut reused = arb_genome(seed ^ 1, 7).compile();
        g.compile_into(&mut reused);
        prop_assert_eq!(&reused, &fused);
        let mut scratch = BatchScratch::new();
        for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
            let a = unfused.error_on(&cols, metric, &mut scratch);
            let b = fused.error_on(&cols, metric, &mut scratch);
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "{e} with {metric:?}: unfused {a:?} ({:#x}) vs fused {b:?} ({:#x})",
                a.to_bits(), b.to_bits()
            );
        }
    }

    /// Structural dedup never changes scores: every program's error is
    /// bit-for-bit the error of the representative its class elected, and
    /// duplicating a population doubles hits without adding classes.
    #[test]
    fn dedup_representatives_score_bit_identically(
        seed in any::<u64>(),
        n in 1usize..24,
        rows in proptest::collection::vec((-1e4f64..1e4, -1e4f64..1e4, -1e4f64..1e4), 1..16),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<Genome> = (0..n)
            .map(|_| Genome::random_grow(&mut rng, 4, 2, &FunctionSet::full(), (-10.0, 10.0)))
            .collect();
        // Population with duplicates: every genome appears twice.
        let genomes: Vec<&Genome> = base.iter().chain(&base).collect();
        let groups = library_group(&genomes, |g| dedup::hash(g.ops()));
        prop_assert!(groups.reps.len() <= base.len());
        prop_assert_eq!(groups.hits(), (genomes.len() - groups.reps.len()) as u64);
        prop_assert!(groups.hits() >= base.len() as u64, "each clone must hit its twin's class");

        let data = Dataset::new(
            rows.iter().map(|(x0, x1, _)| vec![*x0, *x1]).collect(),
            rows.iter().map(|(_, _, y)| *y).collect(),
        ).unwrap();
        let cols = Columns::from_dataset(&data);
        let mut scratch = BatchScratch::new();
        let metric = Metric::MeanAbsoluteError;
        let mut program = CompiledExpr::default();
        for (i, genome) in genomes.iter().enumerate() {
            let rep = genomes[groups.reps[groups.assign[i] as usize]];
            let own = genome.compile().error_on(&cols, metric, &mut scratch);
            rep.compile_into(&mut program);
            let reused = program.error_on(&cols, metric, &mut scratch);
            prop_assert!(
                own.to_bits() == reused.to_bits(),
                "program {i}: own score {own:?} vs representative's {reused:?}"
            );
        }
    }

    /// The open-addressed grouping returns exactly the classes,
    /// representatives and assignments of the hash-map oracle, on
    /// populations with planted clones and NaN / ±0.0 constants.
    #[test]
    fn dedup_grouping_matches_the_hashmap_oracle(
        seed in any::<u64>(),
        picks in proptest::collection::vec(0usize..12, 1..80),
    ) {
        let population = planted_population(seed, &picks);
        let genomes: Vec<&Genome> = population.iter().collect();
        let groups = library_group(&genomes, |g| dedup::hash(g.ops()));
        prop_assert_eq!(groups, oracle_group(&genomes));
    }

    /// When every genome hashes alike, exact comparison alone decides
    /// classes: unequal genomes never merge and the groups still match
    /// the oracle.
    #[test]
    fn forced_hash_collisions_never_merge_unequal_genomes(
        seed in any::<u64>(),
        picks in proptest::collection::vec(0usize..12, 1..80),
    ) {
        let population = planted_population(seed, &picks);
        let genomes: Vec<&Genome> = population.iter().collect();
        let groups = library_group(&genomes, |_| 0);
        for (i, &class) in groups.assign.iter().enumerate() {
            prop_assert!(bit_equal(genomes[groups.reps[class as usize]], genomes[i]));
        }
        for (a, &ra) in groups.reps.iter().enumerate() {
            for &rb in &groups.reps[a + 1..] {
                prop_assert!(!bit_equal(genomes[ra], genomes[rb]));
            }
        }
        prop_assert_eq!(groups, oracle_group(&genomes));
    }

    /// Fitness metrics are non-negative and zero exactly on perfect fits.
    #[test]
    fn metric_nonnegative(values in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 3..30)) {
        let data = Dataset::from_pairs(values.clone()).unwrap();
        let expr = Expr::Var(0);
        for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
            let e = metric.error(&expr, &data);
            prop_assert!(e >= 0.0);
        }
        // Fitting y = x exactly.
        let exact = Dataset::from_pairs(values.iter().map(|(x, _)| (*x, *x))).unwrap();
        prop_assert_eq!(Metric::MeanAbsoluteError.error(&expr, &exact), 0.0);
    }
}

/// Non-proptest sanity: the engine recovers a sampled family of linear
/// relations across seeds (a smoke test of end-to-end robustness).
#[test]
fn engine_recovers_linear_family_across_seeds() {
    let mut recovered = 0;
    let total = 8;
    for seed in 0..total {
        let a = 0.25 + f64::from(seed) * 0.4;
        let b = f64::from(seed * 3) - 10.0;
        let data = Dataset::from_pairs((0..40).map(|i| {
            let x = f64::from((i * 13) % 250);
            (x, a * x + b)
        }))
        .unwrap();
        let model = SymbolicRegressor::new(GpConfig::fast(seed as u64)).fit(&data);
        if model.agrees_with(|x| a * x[0] + b, &[(0.0, 250.0)], 0.02) {
            recovered += 1;
        }
    }
    assert!(
        recovered >= total - 1,
        "only {recovered}/{total} linear relations recovered"
    );
}
