//! The workloads and their instance lists.
//!
//! Each workload's list is a pure function of its *instance seed*, so a
//! run's work is bit-identical from run to run. The benchmark's
//! `--seed` only permutes the order in which the list is run (see
//! [`shuffle`]): measured run to run, seeded redraws of these heavy-
//! tailed SAT instances moved the summed conflicts by 0.42 of their
//! median (interquartile range over ten seeds), which no bound on a
//! regression could absorb.

use lasre::LasSpec;
use workloads::baseline::compile_graph_state;
use workloads::graphs::benchmark_set;
use workloads::specs::{graph_state_spec, majority_gate_spec, t_factory_nodelay_spec};

/// The seed `fig13_graph_states` builds the Fig. 13 set with; also the
/// default instance seed of the T-factory draw.
pub const DEFAULT_INSTANCE_SEED: u64 = 2024;

/// The instance seed kept out of tuning, for checking a claimed gain on
/// inputs the change was not written against.
pub const HELD_OUT_INSTANCE_SEED: u64 = 2025;

/// Size of the Fig. 13 set: the 25 six-qubit graphs `fig13_graph_states`
/// runs by default.
const GRAPH_COUNT: usize = 25;

/// Number of T-factory flow subsets drawn for `oneshot-solve` and
/// `tfactory-fleet`, sized so one pass of the fleet fits the run.
const T_FACTORY_SUBSETS: usize = 48;

/// Smallest and largest number of flows kept from the 16-flow table.
const MIN_FLOWS: usize = 4;
const MAX_FLOWS: usize = 5;

/// The T-factory layout of paper Fig. 18: 3×3 footprint, depth 11.
const T_FACTORY_DEPTH: usize = 11;

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Certified minimum-depth search over the Fig. 13 graph-state set.
    GraphDepth,
    /// One single-worker synthesis per instance: the Fig. 15 majority
    /// gate and T-factory flow subsets.
    OneshotSolve,
    /// The T-factory subsets of `oneshot-solve` under the two-worker
    /// lockstep clause-sharing fleet.
    TfactoryFleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GraphDepth,
        Workload::OneshotSolve,
        Workload::TfactoryFleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphDepth => "graph-depth",
            Workload::OneshotSolve => "oneshot-solve",
            Workload::TfactoryFleet => "tfactory-fleet",
        }
    }

    /// Passes over the instance list in one untraced run. The count is
    /// fixed, so every run does the same work whatever the machine's
    /// speed; it is sized so a run takes about the 50 s of `run_seconds`
    /// on the 2-vCPU box the benchmark was tuned on (one pass: about
    /// 15 s on `graph-depth` and `oneshot-solve`, 12 s on
    /// `tfactory-fleet`).
    pub fn passes(self) -> usize {
        match self {
            Workload::GraphDepth | Workload::OneshotSolve => 3,
            Workload::TfactoryFleet => 4,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one instance asks of the pipeline. Every instance has a known
/// answer: every depth window closes with a certified lower bound, and
/// every one-shot and fleet query is SAT.
#[derive(Clone, Debug)]
pub enum Query {
    /// `find_min_depth(spec, 1, 8, 3)` with certification. The LaS
    /// volume found must not exceed the 2-lane baseline compiler's
    /// (the Fig. 13 shape claim).
    MinDepth {
        spec: LasSpec,
        baseline_volume: usize,
    },
    /// One `Synthesizer::new` + `run()` on the default single worker.
    Oneshot { spec: LasSpec },
    /// `solve_portfolio_detailed` over [`FLEET_SEEDS`] with clause sharing.
    Fleet { spec: LasSpec },
}

/// The fleet's worker seeds: two workers, one per vCPU of the 2-vCPU
/// box the benchmark was tuned on.
pub const FLEET_SEEDS: [u64; 2] = [1, 2];

/// One instance of a workload's list.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Position in the generated (unshuffled) list.
    pub id: usize,
    pub query: Query,
}

impl Instance {
    /// The spec the instance's query is about.
    pub fn spec(&self) -> &LasSpec {
        match &self.query {
            Query::MinDepth { spec, .. } | Query::Oneshot { spec } | Query::Fleet { spec } => spec,
        }
    }
}

/// Generates a workload's instance list from its instance seed. This is
/// the work `setup_s` times.
pub fn generate(workload: Workload, instance_seed: u64) -> Vec<Instance> {
    let queries: Vec<Query> = match workload {
        Workload::GraphDepth => benchmark_set(6, GRAPH_COUNT, instance_seed)
            .iter()
            .map(|g| Query::MinDepth {
                spec: graph_state_spec(g, 3),
                baseline_volume: compile_graph_state(g).volume,
            })
            .collect(),
        Workload::OneshotSolve => [3, 4]
            .into_iter()
            .map(majority_gate_spec)
            .chain(t_factory_subsets(instance_seed))
            .map(|spec| Query::Oneshot { spec })
            .collect(),
        Workload::TfactoryFleet => t_factory_subsets(instance_seed)
            .into_iter()
            .map(|spec| Query::Fleet { spec })
            .collect(),
    };
    queries
        .into_iter()
        .enumerate()
        .map(|(id, query)| Instance { id, query })
        .collect()
}

/// Fig. 18's 3×3×11 T-factory with its 16-flow table cut to a seeded
/// random subset of 4 or 5 flows. The full table does not decide
/// within 600 s; a subset relaxes a table the paper realizes at this
/// volume, so every subset is expected to be SAT.
fn t_factory_subsets(instance_seed: u64) -> Vec<LasSpec> {
    let base = t_factory_nodelay_spec(T_FACTORY_DEPTH);
    let mut rng = SplitMix64(instance_seed);
    (0..T_FACTORY_SUBSETS)
        .map(|_| {
            let size = MIN_FLOWS + rng.below(MAX_FLOWS - MIN_FLOWS + 1);
            let mut rows: Vec<usize> = (0..base.stabilizers.len()).collect();
            for i in 0..size {
                let j = i + rng.below(rows.len() - i);
                rows.swap(i, j);
            }
            rows.truncate(size);
            rows.sort_unstable();
            let mut spec = base.clone();
            spec.name = format!(
                "{}-flows-{}",
                base.name,
                rows.iter().map(|r| format!("{r:x}")).collect::<String>()
            );
            spec.stabilizers = rows.iter().map(|&r| base.stabilizers[r].clone()).collect();
            spec
        })
        .collect()
}

/// Permutes `items` with a Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// SplitMix64 (Steele, Lea and Flood): a small, fixed generator, so the
/// instance lists cannot change with a dependency's RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`); the modulo bias is immaterial here.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_depend_only_on_the_instance_seed() {
        let specs = |v: &[Instance]| {
            v.iter()
                .map(|i| format!("{:?}", i.spec()))
                .collect::<Vec<_>>()
        };
        for w in Workload::ALL {
            let a = generate(w, DEFAULT_INSTANCE_SEED);
            assert_eq!(
                specs(&a),
                specs(&generate(w, DEFAULT_INSTANCE_SEED)),
                "{}",
                w.name()
            );
            assert!(
                a.len() > 10,
                "{}: the tail percentile needs > 10 instances",
                w.name()
            );
            let held_out = generate(w, HELD_OUT_INSTANCE_SEED);
            assert_eq!(held_out.len(), a.len(), "{}", w.name());
            assert_ne!(specs(&held_out), specs(&a), "{}", w.name());
        }
    }

    #[test]
    fn shuffle_permutes_by_seed() {
        let mut a: Vec<usize> = (0..25).collect();
        let mut b = a.clone();
        shuffle(&mut a, 1);
        shuffle(&mut b, 2);
        assert_ne!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn t_factory_subsets_are_valid_specs() {
        for spec in t_factory_subsets(DEFAULT_INSTANCE_SEED) {
            let flows = spec.stabilizers.len();
            assert!((MIN_FLOWS..=MAX_FLOWS).contains(&flows), "{}", spec.name);
            assert!(spec.validate().is_ok(), "{}", spec.name);
        }
    }
}
