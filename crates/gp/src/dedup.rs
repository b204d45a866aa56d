//! Population-wide structural deduplication of genomes.
//!
//! Breeding produces identical siblings constantly: crossovers that
//! transplant a subtree onto an identical recipient, point mutations
//! whose per-node coin flips all came up tails (probability `0.85^size`,
//! substantial for small trees), and concentrated elites late in a run.
//! The engine's fitness cache only catches children it *knows* were
//! copied verbatim from a scored parent; this module catches the rest
//! by hashing each pending child's [`Genome`] and scoring one
//! representative per structural equivalence class.
//!
//! Determinism: grouping is pure bookkeeping. Representatives are
//! chosen in input order, results are scattered back by index, and a
//! duplicate's error is the *same `f64`* its representative's scoring
//! produced — which is bit-for-bit what scoring the duplicate itself
//! would have returned, since equal genomes compile to the same
//! instruction sequence. `gp.dedup_hits` / `gp.dedup_distinct` counters
//! depend only on population contents.
//!
//! Constants are compared by [`f64::to_bits`], not `==`: `-0.0` and
//! `0.0` evaluate differently under some protected ops, and a NaN
//! constant must still equal itself for grouping to be stable.

use std::collections::HashMap;

use crate::compile::{Genome, Op};

/// The outcome of grouping a batch of genomes by structural equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupGroups {
    /// Indices (into the grouped slice) of the representative — first —
    /// genome of each equivalence class, in first-seen order.
    pub reps: Vec<usize>,
    /// For each input genome, the index into [`reps`](Self::reps) of
    /// its class.
    pub assign: Vec<u32>,
}

impl DedupGroups {
    /// Genomes whose score is reused from an earlier structural twin.
    pub fn hits(&self) -> u64 {
        (self.assign.len() - self.reps.len()) as u64
    }
}

/// Groups `genomes` into structural equivalence classes.
///
/// Hash-bucketed (FNV-1a over the encoded ops) with a full structural
/// equality check inside each bucket, so hash collisions can never
/// merge distinct genomes. Cost is linear in total genome length.
pub fn group(genomes: &[&Genome]) -> DedupGroups {
    let mut reps: Vec<usize> = Vec::new();
    let mut assign: Vec<u32> = Vec::with_capacity(genomes.len());
    // hash → indices into `reps` whose genomes share it.
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::with_capacity(genomes.len());
    for (i, genome) in genomes.iter().enumerate() {
        let bucket = buckets.entry(structural_hash(genome.ops())).or_default();
        let found = bucket
            .iter()
            .copied()
            .find(|&g| structural_eq(genomes[reps[g as usize]].ops(), genome.ops()));
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

/// FNV-1a over a canonical byte encoding of each op.
fn structural_hash(ops: &[Op]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h = OFFSET;
    for op in ops {
        match *op {
            Op::Const(c) => {
                eat(&mut h, 0);
                for byte in c.to_bits().to_le_bytes() {
                    eat(&mut h, byte);
                }
            }
            Op::Var(i) => {
                eat(&mut h, 1);
                for byte in i.to_le_bytes() {
                    eat(&mut h, byte);
                }
            }
            Op::Unary(u) => {
                eat(&mut h, 2);
                eat(&mut h, u as u8);
            }
            Op::Binary(b) => {
                eat(&mut h, 3);
                eat(&mut h, b as u8);
            }
            _ => unreachable!("a genome holds plain ops only"),
        }
    }
    h
}

fn eat(h: &mut u64, byte: u8) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    *h ^= u64::from(byte);
    *h = h.wrapping_mul(FNV_PRIME);
}

/// Structural equality: same ops in the same order, with constants
/// compared by bit pattern (so NaN == NaN and -0.0 != 0.0).
fn structural_eq(a: &[Op], b: &[Op]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (*x, *y) {
            (Op::Const(x), Op::Const(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, Expr};
    use crate::FunctionSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_genomes(seed: u64, n: usize) -> Vec<Genome> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Genome::random_grow(&mut rng, 4, 2, &FunctionSet::full(), (-10.0, 10.0)))
            .collect()
    }

    #[test]
    fn duplicates_collapse_to_one_representative() {
        let base = random_genomes(1, 8);
        // Two copies of each genome, one after the other.
        let genomes: Vec<&Genome> = base.iter().chain(&base).collect();
        let groups = group(&genomes);
        // The random base set may itself contain structural twins, so the
        // expected class count comes from grouping it alone.
        let distinct = group(&base.iter().collect::<Vec<_>>()).reps.len();
        assert_eq!(groups.reps.len(), distinct);
        assert_eq!(groups.hits(), (genomes.len() - distinct) as u64);
        for (i, &class) in groups.assign.iter().enumerate() {
            let rep = groups.reps[class as usize];
            assert!(structural_eq(genomes[rep].ops(), genomes[i].ops()));
        }
    }

    #[test]
    fn distinct_programs_stay_distinct() {
        let base = random_genomes(2, 64);
        let genomes: Vec<&Genome> = base.iter().collect();
        let groups = group(&genomes);
        // Representatives must be pairwise structurally distinct.
        for (a, &ra) in groups.reps.iter().enumerate() {
            for &rb in &groups.reps[a + 1..] {
                assert!(!structural_eq(genomes[ra].ops(), genomes[rb].ops()));
            }
        }
        assert_eq!(groups.assign.len(), genomes.len());
    }

    #[test]
    fn nan_constants_group_with_themselves() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Const(f64::NAN)),
            Box::new(Expr::Var(0)),
        );
        let g = Genome::from_expr(&e);
        let groups = group(&[&g, &g.clone()]);
        assert_eq!(groups.reps.len(), 1);
        assert_eq!(groups.hits(), 1);
    }
}
