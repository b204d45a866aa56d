//! Population-wide structural deduplication of genomes.
//!
//! Breeding produces identical siblings constantly: crossovers that
//! transplant a subtree onto an identical recipient, point mutations
//! whose per-node coin flips all came up tails (probability `0.85^size`,
//! substantial for small trees), and concentrated elites late in a run.
//! The engine's fitness cache only catches children it *knows* were
//! copied verbatim from a scored parent; this module catches the rest,
//! so that one representative per structural equivalence class is
//! scored.
//!
//! The engine takes each pending child's [`hash`] as it writes the
//! child, while its ops are still in cache, so there is no separate
//! hashing pass over the population. [`Dedup::group`] then sorts the
//! children into classes with one open-addressed `(hash, class)` table
//! that is reused for every generation of a fit, and allocates nothing
//! once warm.
//!
//! Determinism: grouping is pure bookkeeping. The hash only decides
//! which earlier classes a genome is compared with; exact structural
//! equality decides membership, so classes, representatives (first
//! occurrence, in input order) and the `gp.dedup_hits` /
//! `gp.dedup_distinct` counts are the same whatever the hash, and a
//! collision can never merge distinct genomes. A duplicate's error is
//! the *same `f64`* its representative's scoring produced, which is
//! bit-for-bit what scoring the duplicate itself would have returned,
//! since equal genomes compile to the same instruction sequence.
//!
//! Constants are compared by [`f64::to_bits`], not `==`: `-0.0` and
//! `0.0` evaluate differently under some protected ops, and a NaN
//! constant must still equal itself for grouping to be stable.

use crate::compile::Op;

/// The outcome of grouping a batch of genomes by structural equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DedupGroups {
    /// Indices (into the grouped batch) of the representative — first —
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

/// Marks a free slot of the grouping table.
const EMPTY: u32 = u32::MAX;

/// Reusable grouping state: the open-addressed `(hash, class)` table
/// and the [`DedupGroups`] it fills.
#[derive(Debug, Default)]
pub struct Dedup {
    slots: Vec<(u64, u32)>,
    groups: DedupGroups,
}

impl Dedup {
    /// Empty grouping state; the table grows on first use.
    pub fn new() -> Dedup {
        Dedup::default()
    }

    /// Groups a batch of genomes into structural equivalence classes.
    /// Genome `i` is `genome(i)`, with hash `hashes[i]` (normally
    /// [`hash`] of its ops; any hash gives the same groups).
    ///
    /// Linear probing over a table at most half full, with an exact
    /// structural comparison against each class whose hash matches.
    pub fn group<'a>(
        &mut self,
        hashes: &[u64],
        genome: impl Fn(usize) -> &'a [Op],
    ) -> &DedupGroups {
        let len = (2 * hashes.len())
            .next_power_of_two()
            .max(self.slots.len())
            .max(16);
        self.slots.clear();
        self.slots.resize(len, (0, EMPTY));
        // Index by the hash's high bits: its last step is a multiply,
        // which carries every input bit upward.
        let shift = u64::BITS - len.trailing_zeros();
        let mask = len - 1;
        let DedupGroups { reps, assign } = &mut self.groups;
        reps.clear();
        assign.clear();
        for (i, &h) in hashes.iter().enumerate() {
            let mut slot = (h >> shift) as usize;
            let class = loop {
                let (slot_hash, class) = self.slots[slot];
                if class == EMPTY {
                    let class = reps.len() as u32;
                    reps.push(i);
                    self.slots[slot] = (h, class);
                    break class;
                }
                if slot_hash == h && structural_eq(genome(reps[class as usize]), genome(i)) {
                    break class;
                }
                slot = (slot + 1) & mask;
            };
            assign.push(class);
        }
        &self.groups
    }
}

/// A structural hash of a genome's ops, one multiply-rotate step per
/// 64-bit word: a tag word per op, with the constant's bit pattern as a
/// second word.
pub fn hash(ops: &[Op]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    ops.iter().fold(0, |h, op| match *op {
        Op::Const(c) => mix(mix(h, 0), c.to_bits()),
        Op::Var(i) => mix(h, 1 | (u64::from(i) << 8)),
        Op::Unary(u) => mix(h, 2 | ((u as u64) << 8)),
        Op::Binary(b) => mix(h, 3 | ((b as u64) << 8)),
        _ => unreachable!("a genome holds plain ops only"),
    })
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
    use crate::compile::Genome;
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

    fn group(genomes: &[&Genome]) -> DedupGroups {
        let hashes: Vec<u64> = genomes.iter().map(|g| hash(g.ops())).collect();
        Dedup::new().group(&hashes, |i| genomes[i].ops()).clone()
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
