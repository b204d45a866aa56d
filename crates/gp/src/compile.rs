//! Programs as flat postfix bytecode: the GP individual and its scoring
//! form.
//!
//! A [`Genome`] is an expression stored as one contiguous `Vec` of the
//! four plain postfix [`Op`]s, one op per tree node, as gplearn stores
//! its programs as flat lists. A subtree is a contiguous slice, so
//! crossover and subtree/hoist mutation are slice splices, point
//! mutation and constant polishing edit ops in place, and size is the
//! length. Subtree lookup, depth and the preorder walk work on plain op
//! slices and allocate nothing, so the engine runs them directly on the
//! generation buffer its children are written into. The random
//! generators emit postfix directly. [`Expr`] trees appear only at the
//! edges: the residual refit, simplification and display of the winner,
//! and the tests' oracle.
//!
//! A [`CompiledExpr`] is what the engine scores: the genome's ops after a
//! peephole pass ([`Genome::compile_into`]) that fuses the most common postfix
//! adjacencies into single *superinstructions*: `Var Var Bin`,
//! `Var Const Bin`, `Const Var Bin`, `… Var Bin`, `… Const Bin`, and
//! `Var Unary` each become one [`Op`]. GP trees are leaf-heavy, so fusion
//! typically removes 40–60% of the dispatched ops, and a fused op reads
//! its leaf operands *directly from the dataset column or an immediate*
//! instead of first memcpying a whole column onto the value stack.
//!
//! Two evaluation modes are provided:
//!
//! * **scalar** ([`CompiledExpr::eval`] / [`CompiledExpr::eval_with`]) —
//!   one input row, one `f64` out, a reusable `Vec<f64>` stack;
//! * **batch** ([`CompiledExpr::error_on`]) — the whole [`Dataset`] at
//!   once over a column-major [`Columns`] view: each op processes every
//!   row before the next op runs, so the per-op dispatch cost is paid once
//!   per *program step* instead of once per *row × step*.
//!
//! Both modes, fused or not, apply exactly the same protected operators in
//! exactly the same order as the recursive walker, so results are
//! **bit-identical** to `Expr::eval` — including NaN/∞ propagation and the
//! protected division/log/inverse special cases. The GP engine relies on
//! this: `crates/gp/tests/properties.rs` property-tests genome-built
//! programs, fused and unfused, against the walker.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::engine::FunctionSet;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::{Dataset, Metric};

/// One postfix instruction.
///
/// The first four variants are the plain stack machine a [`Genome`]
/// holds; the rest are fused superinstructions the peephole pass in
/// [`Genome::compile_into`] substitutes for common adjacencies. In
/// the comments below, `v(i)` is input variable `i` (0.0 when out of
/// range, matching [`Expr::eval`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Push a constant.
    Const(f64),
    /// Push input variable `i` (out-of-range pushes 0.0, matching
    /// [`Expr::eval`]).
    Var(u32),
    /// Pop one value, push `op(value)`.
    Unary(UnaryOp),
    /// Pop `b` then `a`, push `op(a, b)`.
    Binary(BinaryOp),
    /// Fused `Var Var Binary`: push `op(v(a), v(b))`.
    VarVar(BinaryOp, u32, u32),
    /// Fused `Var Const Binary`: push `op(v(a), c)`.
    VarConst(BinaryOp, u32, f64),
    /// Fused `Const Var Binary`: push `op(c, v(a))`.
    ConstVar(BinaryOp, f64, u32),
    /// Fused `… Var Binary`: replace the top of stack `t` with `op(t, v(a))`.
    TopVar(BinaryOp, u32),
    /// Fused `… Const Binary`: replace the top of stack `t` with `op(t, c)`.
    TopConst(BinaryOp, f64),
    /// Fused `Var Unary`: push `op(v(a))`.
    VarUnary(UnaryOp, u32),
}

/// A GP individual: an expression as a flat postfix program of the four
/// plain ops (`Const`/`Var`/`Unary`/`Binary`), one op per tree node.
///
/// Nodes are numbered in *preorder* (root, left subtree, right subtree),
/// the numbering every tree operator draws from; [`subtree`](Self::subtree)
/// maps it onto a postfix range and [`visit_preorder`](Self::visit_preorder)
/// walks the nodes in that order. Leaves
/// keep their left-to-right order in both forms, so the `k`-th `Const`
/// op is the tree's `k`-th constant leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct Genome(Vec<Op>);

impl Genome {
    /// Flattens a tree to postfix.
    pub fn from_expr(expr: &Expr) -> Genome {
        fn flatten(expr: &Expr, out: &mut Vec<Op>) {
            match expr {
                Expr::Const(c) => out.push(Op::Const(*c)),
                Expr::Var(i) => out.push(Op::Var(*i as u32)),
                Expr::Unary(op, a) => {
                    flatten(a, out);
                    out.push(Op::Unary(*op));
                }
                Expr::Binary(op, a, b) => {
                    flatten(a, out);
                    flatten(b, out);
                    out.push(Op::Binary(*op));
                }
            }
        }
        let mut ops = Vec::with_capacity(expr.size());
        flatten(expr, &mut ops);
        Genome(ops)
    }

    /// Rebuilds the tree.
    pub fn to_expr(&self) -> Expr {
        let mut stack = Vec::new();
        for op in &self.0 {
            let node = match *op {
                Op::Const(c) => Expr::Const(c),
                Op::Var(i) => Expr::Var(i as usize),
                Op::Unary(u) => Expr::Unary(u, Box::new(stack.pop().expect("unary operand"))),
                Op::Binary(b) => {
                    let rhs = stack.pop().expect("binary rhs");
                    let lhs = stack.pop().expect("binary lhs");
                    Expr::Binary(b, Box::new(lhs), Box::new(rhs))
                }
                _ => unreachable!("a genome holds plain ops only"),
            };
            stack.push(node);
        }
        stack.pop().expect("a genome is one complete tree")
    }

    /// A random tree by the *full* method: every branch reaches exactly
    /// `depth`.
    #[cfg(test)]
    pub(crate) fn random_full(
        rng: &mut StdRng,
        depth: usize,
        n_vars: usize,
        functions: &FunctionSet,
        const_range: (f64, f64),
    ) -> Genome {
        let mut ops = Vec::new();
        random_node(&mut ops, rng, depth, true, n_vars, functions, const_range);
        Genome(ops)
    }

    /// A random tree by the *grow* method: branches may stop early at
    /// leaves.
    pub fn random_grow(
        rng: &mut StdRng,
        depth: usize,
        n_vars: usize,
        functions: &FunctionSet,
        const_range: (f64, f64),
    ) -> Genome {
        let mut ops = Vec::new();
        random_node(&mut ops, rng, depth, false, n_vars, functions, const_range);
        Genome(ops)
    }

    /// A genome holding a copy of `ops`, a complete postfix tree of
    /// plain ops.
    pub(crate) fn from_ops(ops: &[Op]) -> Genome {
        Genome(ops.to_vec())
    }

    /// The program, in evaluation order.
    pub fn ops(&self) -> &[Op] {
        &self.0
    }

    pub(crate) fn ops_mut(&mut self) -> &mut [Op] {
        &mut self.0
    }

    /// Number of nodes (gplearn's "length").
    pub fn size(&self) -> usize {
        self.0.len()
    }

    /// Tree depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        depth(&self.0)
    }

    /// Node `at`'s subtree as a postfix range, where `at` is a preorder
    /// number. Allocates nothing.
    pub fn subtree(&self, at: usize) -> Range<usize> {
        subtree(&self.0, at)
    }

    /// Hands every node to `visit` in preorder, with the postfix
    /// position of its op. `visit` may rewrite an op but must keep its
    /// arity. Allocates nothing.
    pub fn visit_preorder(&mut self, mut visit: impl FnMut(usize, &mut Op)) {
        let root = self.0.len() - 1;
        visit_preorder(&mut self.0, root, &mut visit);
    }

    /// Compiles for scoring, with superinstructions fused.
    pub fn compile(&self) -> CompiledExpr {
        let mut program = CompiledExpr::default();
        self.compile_into(&mut program);
        program
    }

    /// Compiles for scoring into `program`, reusing its buffer.
    pub fn compile_into(&self, program: &mut CompiledExpr) {
        program.compile_from(&self.0);
    }

    /// The plain one-op-per-node program, unfused. Exists for the
    /// bit-identity tests and the `superinstruction_speedup`
    /// microbenchmark; the engine always fuses.
    pub fn compile_unfused(&self) -> CompiledExpr {
        CompiledExpr {
            max_stack: max_stack(&self.0),
            ops: self.0.clone(),
        }
    }
}

/// Depth of a postfix program (a leaf has depth 1).
pub(crate) fn depth(ops: &[Op]) -> usize {
    depth_and_start(ops, ops.len() - 1).0
}

/// Depth and start of the subtree ending at `end`. The recursion follows
/// the tree, so the call stack stands in for a heap-allocated one.
fn depth_and_start(ops: &[Op], end: usize) -> (usize, usize) {
    match ops[end] {
        Op::Unary(_) => {
            let (depth, start) = depth_and_start(ops, end - 1);
            (depth + 1, start)
        }
        Op::Binary(_) => {
            let (right, right_start) = depth_and_start(ops, end - 1);
            let (left, start) = depth_and_start(ops, right_start - 1);
            (left.max(right) + 1, start)
        }
        _ => (1, end),
    }
}

/// Node `at`'s subtree as a postfix range, where `at` is a preorder
/// number. Walks down from the root; at a binary node it finds where the
/// right child starts by counting operands backwards from the node's end.
pub(crate) fn subtree(ops: &[Op], at: usize) -> Range<usize> {
    let (mut start, mut end, mut k) = (0, ops.len() - 1, 0);
    while k < at {
        match ops[end] {
            Op::Unary(_) => {
                k += 1;
                end -= 1;
            }
            Op::Binary(_) => {
                let right = start_of(ops, end - 1);
                let left_size = right - start;
                if at <= k + left_size {
                    k += 1;
                    end = right - 1;
                } else {
                    k += 1 + left_size;
                    start = right;
                    end -= 1;
                }
            }
            _ => unreachable!("preorder number {at} is past the last node"),
        }
    }
    start..end + 1
}

/// Where the subtree ending at `end` starts.
fn start_of(ops: &[Op], end: usize) -> usize {
    let mut need = 1usize;
    let mut i = end + 1;
    while need > 0 {
        i -= 1;
        need = need - 1
            + match ops[i] {
                Op::Unary(_) => 1,
                Op::Binary(_) => 2,
                _ => 0,
            };
    }
    i
}

/// Visits the subtree ending at `end` in preorder: the node, then its
/// left and right subtrees. A binary node's left child ends where its
/// right child starts, found by counting operands backwards.
pub(crate) fn visit_preorder(ops: &mut [Op], end: usize, visit: &mut impl FnMut(usize, &mut Op)) {
    visit(end, &mut ops[end]);
    match ops[end] {
        Op::Unary(_) => visit_preorder(ops, end - 1, visit),
        Op::Binary(_) => {
            let right = start_of(ops, end - 1);
            visit_preorder(ops, right - 1, visit);
            visit_preorder(ops, end - 1, visit);
        }
        _ => {}
    }
}

/// Emits one random subtree in postfix. The RNG is drawn in tree order —
/// the node's own choice, then its left and right subtrees — and the op
/// is pushed after its operands.
pub(crate) fn random_node(
    out: &mut Vec<Op>,
    rng: &mut StdRng,
    depth: usize,
    full: bool,
    n_vars: usize,
    functions: &FunctionSet,
    const_range: (f64, f64),
) {
    let (unary, binary) = (&functions.unary, &functions.binary);
    let branch = depth > 1 && (full || !rng.gen_bool(0.3));
    // Prefer binary nodes: they grow expressive power fastest.
    if branch && !binary.is_empty() && (unary.is_empty() || rng.gen_bool(0.75)) {
        let op = *binary.choose(rng).expect("non-empty binary set");
        random_node(out, rng, depth - 1, full, n_vars, functions, const_range);
        random_node(out, rng, depth - 1, full, n_vars, functions, const_range);
        out.push(Op::Binary(op));
    } else if branch && !unary.is_empty() {
        let op = *unary.choose(rng).expect("non-empty unary set");
        random_node(out, rng, depth - 1, full, n_vars, functions, const_range);
        out.push(Op::Unary(op));
    } else if n_vars > 0 && rng.gen_bool(0.6) {
        // Terminals prefer a variable over a constant.
        out.push(Op::Var(rng.gen_range(0..n_vars) as u32));
    } else {
        out.push(Op::Const(round3(rng.gen_range(const_range.0..=const_range.1))));
    }
}

/// Rounds to three decimals — keeps printed formulas readable without
/// meaningfully constraining the search.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// A [`Genome`] compiled for scoring.
///
/// Compile once with [`Genome::compile`], evaluate many times; the
/// program is immutable and `Sync`. [`Genome::compile_into`] recompiles
/// into an existing program, reusing its buffer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompiledExpr {
    ops: Vec<Op>,
    max_stack: usize,
}

/// The exact peak stack depth, by simulating pushes and pops.
fn max_stack(ops: &[Op]) -> usize {
    let mut depth = 0usize;
    let mut max_stack = 0usize;
    for op in ops {
        match op {
            Op::Const(_)
            | Op::Var(_)
            | Op::VarVar(..)
            | Op::VarConst(..)
            | Op::ConstVar(..)
            | Op::VarUnary(..) => depth += 1,
            Op::Unary(_) | Op::TopVar(..) | Op::TopConst(..) => {}
            Op::Binary(_) => depth -= 1,
        }
        max_stack = max_stack.max(depth);
    }
    max_stack
}

impl CompiledExpr {
    /// Replaces this program with the fused form of the plain postfix
    /// `ops`, reusing the instruction buffer.
    pub(crate) fn compile_from(&mut self, ops: &[Op]) {
        fuse(ops, &mut self.ops);
        self.max_stack = max_stack(&self.ops);
    }

    /// The program's instructions, in evaluation order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of instructions. Equals the genome's size for an unfused
    /// program; fusion shrinks it (each superinstruction covers two or
    /// three nodes).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty (never true for a compiled genome).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Peak value-stack depth the program needs.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Evaluates on one input row. Bit-identical to
    /// [`Expr::eval`](crate::Expr::eval) on the source tree.
    pub fn eval(&self, vars: &[f64]) -> f64 {
        let mut stack = Vec::with_capacity(self.max_stack);
        self.eval_with(vars, &mut stack)
    }

    /// Evaluates on one input row with a caller-provided stack, so repeated
    /// evaluations reuse one allocation. The stack is cleared on entry.
    pub fn eval_with(&self, vars: &[f64], stack: &mut Vec<f64>) -> f64 {
        stack.clear();
        stack.reserve(self.max_stack);
        let var = |i: u32| vars.get(i as usize).copied().unwrap_or(0.0);
        for op in &self.ops {
            match *op {
                Op::Const(c) => stack.push(c),
                Op::Var(i) => stack.push(var(i)),
                Op::Unary(u) => {
                    let a = stack.pop().expect("unary operand");
                    stack.push(u.apply(a));
                }
                Op::Binary(b) => {
                    let rhs = stack.pop().expect("binary rhs");
                    let lhs = stack.pop().expect("binary lhs");
                    stack.push(b.apply(lhs, rhs));
                }
                Op::VarVar(b, x, y) => stack.push(b.apply(var(x), var(y))),
                Op::VarConst(b, x, c) => stack.push(b.apply(var(x), c)),
                Op::ConstVar(b, c, x) => stack.push(b.apply(c, var(x))),
                Op::TopVar(b, x) => {
                    let t = stack.last_mut().expect("fused binary lhs");
                    *t = b.apply(*t, var(x));
                }
                Op::TopConst(b, c) => {
                    let t = stack.last_mut().expect("fused binary lhs");
                    *t = b.apply(*t, c);
                }
                Op::VarUnary(u, x) => stack.push(u.apply(var(x))),
            }
        }
        stack.pop().expect("program leaves one value")
    }

    /// Computes `metric` over the whole data set in batch mode.
    ///
    /// Returns exactly what `metric.error(expr, data)` returns on the
    /// source tree: per-row predictions are bit-identical, the residual
    /// accumulation runs in the same row order, and any non-finite
    /// prediction yields `f64::INFINITY`.
    pub fn error_on(&self, cols: &Columns, metric: Metric, scratch: &mut BatchScratch) -> f64 {
        let n = cols.n_rows();
        scratch.ensure(self.max_stack, n);
        let mut sp = 0usize;
        for op in &self.ops {
            match *op {
                Op::Const(c) => {
                    scratch.bufs[sp].iter_mut().for_each(|v| *v = c);
                    sp += 1;
                }
                Op::Var(i) => {
                    match cols.col(i as usize) {
                        Some(col) => scratch.bufs[sp].copy_from_slice(col),
                        None => scratch.bufs[sp].iter_mut().for_each(|v| *v = 0.0),
                    }
                    sp += 1;
                }
                Op::Unary(u) => {
                    scratch.bufs[sp - 1].iter_mut().for_each(|v| *v = u.apply(*v));
                }
                Op::Binary(b) => {
                    let (lo, hi) = scratch.bufs.split_at_mut(sp - 1);
                    let lhs = lo.last_mut().expect("binary lhs buffer");
                    let rhs = &hi[0];
                    for (a, &r) in lhs.iter_mut().zip(rhs.iter()) {
                        *a = b.apply(*a, r);
                    }
                    sp -= 1;
                }
                // Fused ops read leaf operands straight from the dataset
                // columns (or an immediate) — no stack-slab memcpy. The
                // out-of-range-variable fallbacks reproduce the 0.0 a
                // plain `Op::Var` would have pushed.
                Op::VarVar(b, x, y) => {
                    let dst = &mut scratch.bufs[sp];
                    match (cols.col(x as usize), cols.col(y as usize)) {
                        (Some(cx), Some(cy)) => {
                            for ((d, &a), &r) in dst.iter_mut().zip(cx).zip(cy) {
                                *d = b.apply(a, r);
                            }
                        }
                        (cx, cy) => {
                            for (r, d) in dst.iter_mut().enumerate() {
                                let a = cx.map_or(0.0, |c| c[r]);
                                let rhs = cy.map_or(0.0, |c| c[r]);
                                *d = b.apply(a, rhs);
                            }
                        }
                    }
                    sp += 1;
                }
                Op::VarConst(b, x, c) => {
                    let dst = &mut scratch.bufs[sp];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &a) in dst.iter_mut().zip(cx) {
                                *d = b.apply(a, c);
                            }
                        }
                        None => {
                            let v = b.apply(0.0, c);
                            dst.iter_mut().for_each(|d| *d = v);
                        }
                    }
                    sp += 1;
                }
                Op::ConstVar(b, c, x) => {
                    let dst = &mut scratch.bufs[sp];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &r) in dst.iter_mut().zip(cx) {
                                *d = b.apply(c, r);
                            }
                        }
                        None => {
                            let v = b.apply(c, 0.0);
                            dst.iter_mut().for_each(|d| *d = v);
                        }
                    }
                    sp += 1;
                }
                Op::TopVar(b, x) => {
                    let dst = &mut scratch.bufs[sp - 1];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &r) in dst.iter_mut().zip(cx) {
                                *d = b.apply(*d, r);
                            }
                        }
                        None => dst.iter_mut().for_each(|d| *d = b.apply(*d, 0.0)),
                    }
                }
                Op::TopConst(b, c) => {
                    scratch.bufs[sp - 1].iter_mut().for_each(|d| *d = b.apply(*d, c));
                }
                Op::VarUnary(u, x) => {
                    let dst = &mut scratch.bufs[sp];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &a) in dst.iter_mut().zip(cx) {
                                *d = u.apply(a);
                            }
                        }
                        None => {
                            let v = u.apply(0.0);
                            dst.iter_mut().for_each(|d| *d = v);
                        }
                    }
                    sp += 1;
                }
            }
        }
        debug_assert_eq!(sp, 1, "program leaves one value");
        metric_over_rows(metric, &scratch.bufs[0], cols.y())
    }
}

/// Accumulates `metric` over prediction/target rows exactly the way
/// [`Metric::error`] does on the recursive evaluator.
fn metric_over_rows(metric: Metric, preds: &[f64], targets: &[f64]) -> f64 {
    let mut acc = 0.0;
    let n = targets.len() as f64;
    for (&pred, &target) in preds.iter().zip(targets) {
        if !pred.is_finite() {
            return f64::INFINITY;
        }
        let residual = pred - target;
        acc += match metric {
            Metric::MeanAbsoluteError => residual.abs(),
            Metric::MeanSquaredError | Metric::Rmse => residual * residual,
        };
    }
    match metric {
        Metric::MeanAbsoluteError | Metric::MeanSquaredError => acc / n,
        Metric::Rmse => (acc / n).sqrt(),
    }
}

/// The peephole pass: copies `src` into `out`, rewriting leaf-adjacent
/// `Binary`/`Unary` ops into fused superinstructions by inspecting the
/// already-emitted tail of `out`.
///
/// Soundness leans on a postfix invariant: the final op of any complete
/// subexpression is its root, so if the last emitted op is a plain
/// `Var`/`Const` *push*, that push is the entirety of the operand
/// subexpression and can be folded into the consuming operator. The
/// rewrite only reorders nothing — operand evaluation order and every
/// `apply` call are preserved exactly, which is what keeps fused
/// programs bit-identical to unfused ones.
fn fuse(src: &[Op], out: &mut Vec<Op>) {
    out.clear();
    for &op in src {
        let (fused, operands) = match (op, out.as_slice()) {
            (Op::Binary(b), [.., Op::Var(x), Op::Var(y)]) => (Op::VarVar(b, *x, *y), 2),
            (Op::Binary(b), [.., Op::Var(x), Op::Const(c)]) => (Op::VarConst(b, *x, *c), 2),
            (Op::Binary(b), [.., Op::Const(c), Op::Var(x)]) => (Op::ConstVar(b, *c, *x), 2),
            // Only the rhs is a leaf: fold it into the operator, leaving
            // the lhs value on the stack.
            (Op::Binary(b), [.., Op::Var(x)]) => (Op::TopVar(b, *x), 1),
            (Op::Binary(b), [.., Op::Const(c)]) => (Op::TopConst(b, *c), 1),
            (Op::Unary(u), [.., Op::Var(x)]) => (Op::VarUnary(u, *x), 1),
            _ => (op, 0),
        };
        out.truncate(out.len() - operands);
        out.push(fused);
    }
}

/// A column-major view of a [`Dataset`], built once per fit so batch
/// evaluation can memcpy whole variable columns instead of gathering a
/// value per row.
///
/// Storage is one contiguous `Vec<f64>` with columns laid back-to-back
/// (structure of arrays): column `i` is `data[i*rows .. (i+1)*rows]`.
/// One allocation regardless of variable count, and successive column
/// reads in the fused interpreter stay within one slab.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    data: Vec<f64>,
    rows: usize,
    n_vars: usize,
    y: Vec<f64>,
}

impl Columns {
    /// Transposes a data set into columns.
    pub fn from_dataset(data: &Dataset) -> Columns {
        let n_vars = data.n_vars();
        let rows = data.len();
        let mut flat = Vec::with_capacity(n_vars * rows);
        for c in 0..n_vars {
            for (row, _) in data.iter() {
                flat.push(row[c]);
            }
        }
        Columns {
            data: flat,
            rows,
            n_vars,
            y: data.y().to_vec(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Variable column `i`, if in range.
    pub fn col(&self, i: usize) -> Option<&[f64]> {
        if i < self.n_vars {
            Some(&self.data[i * self.rows..(i + 1) * self.rows])
        } else {
            None
        }
    }

    /// The target column.
    pub fn y(&self) -> &[f64] {
        &self.y
    }
}

/// Reusable batch-evaluation buffers: a stack of row-length `f64` slabs.
///
/// One scratch per fit; [`BatchScratch::ensure`] grows it to the
/// demanded (stack depth × row count) shape and is a no-op once warm, so a
/// generation's scoring pays allocation only on its first individual.
#[derive(Debug, Default)]
pub struct BatchScratch {
    bufs: Vec<Vec<f64>>,
    rows: usize,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn ensure(&mut self, depth: usize, rows: usize) {
        if rows != self.rows {
            for buf in &mut self.bufs {
                buf.resize(rows, 0.0);
            }
            self.rows = rows;
        }
        while self.bufs.len() < depth {
            self.bufs.push(vec![0.0; rows]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn random_genome(rng: &mut StdRng, depth: usize) -> Genome {
        Genome::random_grow(rng, depth, 2, &FunctionSet::full(), (-10.0, 10.0))
    }

    fn engine_speed() -> Expr {
        // 64*X0 + 0.25*X1
        Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(Expr::Const(64.0)),
                Box::new(Expr::Var(0)),
            )),
            Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(Expr::Const(0.25)),
                Box::new(Expr::Var(1)),
            )),
        )
    }

    #[test]
    fn compiles_to_postfix() {
        let c = Genome::from_expr(&engine_speed()).compile_unfused();
        assert_eq!(c.len(), 7);
        assert_eq!(c.max_stack(), 3);
        assert_eq!(
            c.ops()[0..3],
            [Op::Const(64.0), Op::Var(0), Op::Binary(BinaryOp::Mul)]
        );
    }

    #[test]
    fn fuses_leaf_adjacent_superinstructions() {
        // (64*X0) + (0.25*X1): both products fuse to ConstVar; the Add's
        // operands are fused pushes, so it stays a plain Binary.
        let c = Genome::from_expr(&engine_speed()).compile();
        assert_eq!(
            c.ops(),
            [
                Op::ConstVar(BinaryOp::Mul, 64.0, 0),
                Op::ConstVar(BinaryOp::Mul, 0.25, 1),
                Op::Binary(BinaryOp::Add),
            ]
        );
        assert_eq!(c.max_stack(), 2);

        // (X0 - X1) * X2: VarVar then a TopVar folding the leaf rhs.
        let e = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Binary(
                BinaryOp::Sub,
                Box::new(Expr::Var(0)),
                Box::new(Expr::Var(1)),
            )),
            Box::new(Expr::Var(2)),
        );
        let c = Genome::from_expr(&e).compile();
        assert_eq!(
            c.ops(),
            [Op::VarVar(BinaryOp::Sub, 0, 1), Op::TopVar(BinaryOp::Mul, 2)]
        );
        assert_eq!(c.max_stack(), 1);

        // sqrt(X0) + 3: VarUnary then TopConst.
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Unary(UnaryOp::Sqrt, Box::new(Expr::Var(0)))),
            Box::new(Expr::Const(3.0)),
        );
        let c = Genome::from_expr(&e).compile();
        assert_eq!(
            c.ops(),
            [Op::VarUnary(UnaryOp::Sqrt, 0), Op::TopConst(BinaryOp::Add, 3.0)]
        );
    }

    #[test]
    fn fused_and_unfused_programs_agree_bit_for_bit() {
        let data = Dataset::from_triples((0..40).map(|i| {
            let x0 = f64::from(i * 13 % 251);
            let x1 = f64::from(i % 17) - 8.0;
            ((x0, x1), x0 * 0.3 - x1)
        }))
        .unwrap();
        let cols = Columns::from_dataset(&data);
        let mut scratch_a = BatchScratch::new();
        let mut scratch_b = BatchScratch::new();
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..300 {
            let g = random_genome(&mut rng, 6);
            let e = g.to_expr();
            let fused = g.compile();
            let plain = g.compile_unfused();
            assert!(fused.len() <= plain.len());
            assert!(fused.max_stack() <= plain.max_stack());
            for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
                let a = fused.error_on(&cols, metric, &mut scratch_a);
                let b = plain.error_on(&cols, metric, &mut scratch_b);
                assert!(a.to_bits() == b.to_bits(), "{e} with {metric:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scalar_eval_matches_tree() {
        let e = engine_speed();
        let c = Genome::from_expr(&e).compile();
        let row = [26.0, 240.0];
        assert_eq!(c.eval(&row).to_bits(), e.eval(&row).to_bits());
    }

    #[test]
    fn out_of_range_variable_is_zero() {
        let c = Genome::from_expr(&Expr::Var(5)).compile();
        assert_eq!(c.eval(&[1.0]), 0.0);
    }

    #[test]
    fn random_trees_match_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut stack = Vec::new();
        for _ in 0..300 {
            let g = random_genome(&mut rng, 6);
            let e = g.to_expr();
            let c = g.compile();
            for row in [[0.0, 0.0], [1.5, -3.0], [1e6, -1e6], [0.3, 255.0]] {
                let a = e.eval(&row);
                let b = c.eval_with(&row, &mut stack);
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{e} on {row:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batch_error_matches_metric() {
        let data = Dataset::from_triples((0..50).map(|i| {
            let x0 = f64::from(100 + i * 3);
            let x1 = f64::from(5 + i % 9);
            ((x0, x1), x0 * x1 / 5.0)
        }))
        .unwrap();
        let cols = Columns::from_dataset(&data);
        let mut scratch = BatchScratch::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let g = random_genome(&mut rng, 5);
            let e = g.to_expr();
            let c = g.compile();
            for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
                let want = metric.error(&e, &data);
                let got = c.error_on(&cols, metric, &mut scratch);
                assert!(
                    want.to_bits() == got.to_bits(),
                    "{e} with {metric:?}: {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn batch_error_non_finite_is_infinity() {
        // X0*X0 overflows to infinity on a huge input.
        let e = Expr::Binary(BinaryOp::Mul, Box::new(Expr::Var(0)), Box::new(Expr::Var(0)));
        let data = Dataset::from_pairs([(1e300, 1.0), (2.0, 2.0)]).unwrap();
        let cols = Columns::from_dataset(&data);
        let c = Genome::from_expr(&e).compile();
        assert_eq!(
            c.error_on(&cols, Metric::MeanAbsoluteError, &mut BatchScratch::new()),
            f64::INFINITY
        );
    }

    #[test]
    fn columns_transpose() {
        let data = Dataset::from_triples([((1.0, 2.0), 3.0), ((4.0, 5.0), 6.0)]).unwrap();
        let cols = Columns::from_dataset(&data);
        assert_eq!(cols.n_rows(), 2);
        assert_eq!(cols.n_vars(), 2);
        assert_eq!(cols.col(0).unwrap(), &[1.0, 4.0]);
        assert_eq!(cols.col(1).unwrap(), &[2.0, 5.0]);
        assert_eq!(cols.y(), &[3.0, 6.0]);
        assert!(cols.col(2).is_none());
    }
}
