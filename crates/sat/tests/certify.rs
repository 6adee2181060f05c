//! End-to-end UNSAT certification with the in-tree backward DRAT
//! checker. `certify_unsat` checks only the lemmas the refutation
//! uses (its `derived_checked` counts that core); `proof::check`
//! checks every derivation up to the refutation (its count is the
//! whole prefix). The solver's proofs for the pigeonhole family and an
//! incremental SAT-then-UNSAT session must pass both, with the core
//! never larger than the prefix; the binary/text DRAT writers must
//! round-trip through the parser against the original DIMACS inputs;
//! and corrupted proofs must be rejected.

use sat::proof::{self, StepKind};
use sat::{certify_unsat, Budget, CdclConfig, CdclSolver, Cnf, Lit, ProofLog, RestartPolicy};

fn lit(i: i64) -> Lit {
    Lit::from_dimacs(i)
}

/// Pigeonhole principle: `pigeons` into `pigeons - 1` holes, UNSAT.
fn pigeonhole(pigeons: i64) -> Cnf {
    let holes = pigeons - 1;
    let p = |i: i64, j: i64| (i - 1) * holes + j;
    let mut c = Cnf::new(0);
    for i in 1..=pigeons {
        c.add_clause((1..=holes).map(|j| lit(p(i, j))));
    }
    for j in 1..=holes {
        for a in 1..=pigeons {
            for b in (a + 1)..=pigeons {
                c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
            }
        }
    }
    c
}

/// Every inprocessing pass on from the first conflict, so the proof
/// exercises subsumption, vivification, BVE, probing, tier demotion
/// and GC deletions — not just 1UIP learnts.
fn aggressive() -> CdclConfig {
    CdclConfig {
        inprocess_interval: 0,
        restart_base: 2,
        chrono_threshold: 0,
        chrono_activation_conflicts: 0,
        simplify_activation_conflicts: 0,
        max_learnts_floor: 8.0,
        restart_policy: RestartPolicy::Ema,
        restart_activation_conflicts: 0,
        ema_min_interval: 2,
        use_vivification: true,
        use_probing: true,
        ..CdclConfig::default()
    }
}

/// Solves `c` (expected UNSAT at the root) with proof logging on and
/// returns the owned log.
fn refute(c: &Cnf, config: CdclConfig) -> ProofLog {
    let mut s = CdclSolver::with_config(config);
    s.enable_proof();
    s.add_cnf(c);
    assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
    assert!(s.final_assumption_conflict().is_empty());
    s.take_proof().expect("proof logging enabled")
}

#[test]
fn pigeonhole_family_certifies() {
    for n in 3..=6 {
        for config in [CdclConfig::default(), aggressive()] {
            let log = refute(&pigeonhole(n), config);
            let report = certify_unsat(&log, &[])
                .unwrap_or_else(|e| panic!("php({n}) proof rejected: {e:?}"));
            assert!(report.refuted(), "php({n}) proof has no refutation");
            assert!(report.derived_checked > 0, "php({n}) proof checked nothing");
            let full = proof::check(&log)
                .unwrap_or_else(|e| panic!("php({n}) full check rejected: {e:?}"));
            assert!(full.refuted());
            assert!(
                report.derived_checked <= full.derived_checked,
                "php({n}) core {} exceeds the checked prefix {}",
                report.derived_checked,
                full.derived_checked
            );
        }
    }
}

/// The shape of a min-depth search: one incremental session answers a
/// SAT probe that learns many clauses, then an UNSAT assumption probe.
/// The session's log holds both probes' lemmas; certifying the UNSAT
/// probe checks only its own core, which the first probe's lemmas
/// (over disjoint variables) cannot enter, while the full check still
/// checks them all.
#[test]
fn sat_probe_then_unsat_probe_certifies_only_the_core() {
    for config in [CdclConfig::default(), aggressive()] {
        let php = pigeonhole(5);
        let php_vars = php.num_vars() as i64;
        let (easy, hard) = (lit(php_vars + 1), lit(php_vars + 2));
        let mut s = CdclSolver::with_config(config);
        s.enable_proof();
        // php(5) behind selector `hard`.
        for clause in php.iter() {
            s.add_clause(clause.iter().copied().chain([!hard]));
        }
        // Planted random 3-SAT behind selector `easy`: satisfiable, and
        // hard enough to learn clauses before a model turns up.
        let base = php_vars + 2;
        let vars = 300u64;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let planted = |v: i64| v % 3 != 0;
        let mut kept = 0;
        while kept < 42 * vars as usize / 10 {
            let clause: Vec<i64> = (0..3)
                .map(|_| {
                    let v = 1 + (next() % vars) as i64;
                    if next() % 2 == 0 {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            if !clause.iter().any(|&d| (d > 0) == planted(d.abs())) {
                continue;
            }
            kept += 1;
            s.add_clause(
                clause
                    .iter()
                    .map(|&d| lit(d.signum() * (d.abs() + base)))
                    .chain([!easy]),
            );
        }
        assert!(s.solve_assuming(&[easy], &Budget::default()).is_sat());
        let learnt_by_sat_probe = s.session_stats().learned;
        assert!(learnt_by_sat_probe > 0, "the SAT probe learnt nothing");
        assert!(s.solve_assuming(&[hard], &Budget::default()).is_unsat());
        let core = s.final_assumption_conflict().to_vec();
        assert_eq!(core, vec![hard]);
        let log = s.take_proof().expect("proof logging enabled");
        let report = certify_unsat(&log, &core).expect("assumption core certifies");
        let full = proof::check(&log).expect("every lemma checks");
        assert!(!report.refuted() && !full.refuted(), "no root refutation");
        assert!(report.derived_checked > 0, "the core checked nothing");
        assert!(
            report.derived_checked < full.derived_checked,
            "core {} is not smaller than the whole log {}",
            report.derived_checked,
            full.derived_checked
        );
    }
}

/// The DRAT writer emits only the derived/deleted lines (the input
/// clauses come from the DIMACS side, as `drat-trim` expects); parsing
/// the written file back against the CNF must reproduce a proof the
/// checker accepts, in both text and binary format.
#[test]
fn drat_files_round_trip_against_the_cnf() {
    let c = pigeonhole(5);
    let log = refute(&c, aggressive());
    for binary in [false, true] {
        let mut buf = Vec::new();
        log.write_drat(&mut buf, binary).expect("write drat");
        let back = ProofLog::from_cnf_and_drat(&c, &buf)
            .unwrap_or_else(|e| panic!("binary={binary} drat re-parse failed: {e:?}"));
        let report = proof::check(&back)
            .unwrap_or_else(|e| panic!("binary={binary} round-tripped proof rejected: {e:?}"));
        assert!(report.refuted());
    }
}

/// Rebuilds `log`, letting `f` decide per step whether to keep it
/// verbatim (`Some(step)`) with possibly altered literals, or drop it.
fn mutate(
    log: &ProofLog,
    mut f: impl FnMut(usize, StepKind, &[Lit]) -> Option<Vec<Lit>>,
) -> ProofLog {
    let mut out = ProofLog::new();
    for (i, (kind, lits)) in log.iter().enumerate() {
        let Some(lits) = f(i, kind, lits) else {
            continue;
        };
        match kind {
            StepKind::AddInput => out.add_input(&lits),
            StepKind::AddDerived => out.add_derived(&lits),
            StepKind::Delete => out.delete(&lits),
        }
    }
    out
}

/// Removing a single input clause turns php(5) satisfiable, so a sound
/// checker cannot accept the (unchanged) refutation: some derived or
/// delete step must fail.
#[test]
fn proof_with_a_dropped_input_is_rejected() {
    let log = refute(&pigeonhole(5), aggressive());
    let mut dropped = false;
    let mutated = mutate(&log, |_, kind, lits| {
        if !dropped && kind == StepKind::AddInput {
            dropped = true;
            return None;
        }
        Some(lits.to_vec())
    });
    assert!(dropped);
    assert!(
        certify_unsat(&mutated, &[]).is_err(),
        "checker accepted a refutation of a satisfiable formula"
    );
}

/// Corrupting one literal of one input line (the first pigeon clause
/// loses hole 1) also leaves a satisfiable formula; the unchanged
/// derivation steps must stop checking out.
#[test]
fn proof_with_a_corrupted_input_literal_is_rejected() {
    let log = refute(&pigeonhole(5), aggressive());
    let mut corrupted = false;
    let mutated = mutate(&log, |_, kind, lits| {
        let mut lits = lits.to_vec();
        if !corrupted && kind == StepKind::AddInput {
            corrupted = true;
            lits[0] = !lits[0];
        }
        Some(lits)
    });
    assert!(corrupted);
    assert!(
        certify_unsat(&mutated, &[]).is_err(),
        "checker accepted a proof whose input was tampered with"
    );
}
