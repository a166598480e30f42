//! The seeded operation sequence. `--seed` decides the order of the
//! operations in every round, the bindings they use and the rows the
//! in-process refreshes append; the program under test only ever sees the
//! generated queries and rows. The same seed always yields the same
//! sequence.

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same sequence on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` under `seed` (rounds and deltas each
    /// draw from their own stream, so adding one never shifts another).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Stream ids, one per consumer of randomness.
pub const ROUND_STREAM: u64 = 1;
/// In-process refresh deltas.
pub const DELTA_STREAM: u64 = 2;

/// One operation of an in-process round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load the snapshot, build a session and answer the first what-if.
    Setup,
    /// The first what-if on a fresh isolated session (binding index of
    /// the cold template).
    Cold(usize),
    /// A prepared what-if over an already-cached working-set pair.
    Warm(usize),
    /// The whole working set through `execute_batch`.
    Batch,
    /// The how-to on a fresh isolated session.
    HowToCold,
    /// The how-to again on the long-lived session.
    HowToWarm,
    /// Plan-only explain on a fresh isolated session (binding index).
    Explain(usize),
    /// Refresh after a 1% append, then re-serve.
    Refresh,
}

/// Shape of an in-process round.
#[derive(Debug, Clone, Copy)]
pub struct RoundShape {
    /// Working-set pairs (template × binding).
    pub pairs: usize,
    /// Times each pair is executed warm per round.
    pub warm_sweeps: usize,
    /// Bindings of the cold template.
    pub cold_bindings: usize,
}

impl RoundShape {
    /// Operations in one round (every round has the same multiset).
    pub fn ops_per_round(&self) -> usize {
        self.cold_bindings + self.pairs * self.warm_sweeps + 6
    }
}

/// Round `round` of the in-process sequence under `seed`: every kind
/// interleaved in a seeded order, so a slow stretch of the host lands
/// on all kinds alike.
pub fn inproc_round(seed: u64, round: u64, shape: RoundShape) -> Vec<Op> {
    let mut rng = Rng::new(seed, ROUND_STREAM.wrapping_add(round << 8));
    let mut ops: Vec<Op> = (0..shape.cold_bindings).map(Op::Cold).collect();
    for _ in 0..shape.warm_sweeps {
        ops.extend((0..shape.pairs).map(Op::Warm));
    }
    ops.extend([
        Op::Setup,
        Op::Batch,
        Op::HowToCold,
        Op::HowToWarm,
        Op::Explain(rng.below(shape.cold_bindings)),
        Op::Refresh,
    ]);
    rng.shuffle(&mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: RoundShape = RoundShape {
        pairs: 8,
        warm_sweeps: 2,
        cold_bindings: 2,
    };

    #[test]
    fn same_seed_same_sequence() {
        for round in 0..20 {
            assert_eq!(inproc_round(7, round, SHAPE), inproc_round(7, round, SHAPE));
        }
        let mut a = Rng::new(42, DELTA_STREAM);
        let mut b = Rng::new(42, DELTA_STREAM);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Vec<Op>> = (0..5).map(|r| inproc_round(1, r, SHAPE)).collect();
        let b: Vec<Vec<Op>> = (0..5).map(|r| inproc_round(2, r, SHAPE)).collect();
        assert_ne!(a, b);
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(2, 0).next_u64());
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
    }

    #[test]
    fn every_round_holds_the_same_operations() {
        let key = |op: &Op| match op {
            Op::Cold(i) => (0, *i),
            Op::Warm(i) => (1, *i),
            Op::Batch => (2, 0),
            Op::HowToCold => (3, 0),
            Op::HowToWarm => (4, 0),
            Op::Explain(_) => (5, 0),
            Op::Refresh => (6, 0),
            Op::Setup => (7, 0),
        };
        let canon = |seed, round| {
            let mut v: Vec<_> = inproc_round(seed, round, SHAPE).iter().map(key).collect();
            v.sort();
            v
        };
        let first = canon(3, 0);
        assert_eq!(first.len(), SHAPE.ops_per_round());
        for seed in 0..4 {
            for round in 0..10 {
                assert_eq!(canon(seed, round), first);
            }
        }
    }

    #[test]
    fn below_and_shuffle_stay_in_range() {
        let mut rng = Rng::new(9, 9);
        for n in 1..50 {
            assert!(rng.below(n) < n);
        }
        let mut v: Vec<usize> = (0..30).collect();
        rng.shuffle(&mut v);
        let mut s = v.clone();
        s.sort();
        assert_eq!(s, (0..30).collect::<Vec<_>>());
    }
}
