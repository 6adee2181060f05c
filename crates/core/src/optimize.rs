//! Optimization loops around the synthesizer (paper Fig. 12b).
//!
//! The synthesizer answers one SAT/UNSAT question; optimization asks a
//! sequence of them: shrink the allowed volume until UNSAT (descending),
//! or grow it until SAT (ascending), and optionally explore port
//! permutations in parallel with first-success cancellation.

use crate::decode::{decode, decode_layered};
use crate::encode::{encode, encode_layered};
use crate::synthesize::{BackendChoice, SynthError, SynthOptions, SynthResult, Synthesizer};
use crate::verify::verify;
use lasre::{LasDesign, LasSpec};
use sat::{
    Budget, CdclSolver, ClauseExchange, ExhaustionReason, ShareLimits, SolveOutcome, SolverStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Renders a caught panic payload (the crash reports quarantined
/// workers carry). `panic!` with a format string yields a `String`,
/// with a literal a `&str`; anything else is opaque.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "worker panicked (non-string payload)".to_string(),
        },
    }
}

/// One probe of the depth search.
#[derive(Debug)]
pub struct DepthProbe {
    /// The `max_k` tried.
    pub max_k: usize,
    /// `Some(true)` = SAT, `Some(false)` = UNSAT, `None` = budget expired.
    pub sat: Option<bool>,
    /// Wall-clock time of the solve.
    pub time: Duration,
    /// Search statistics of this probe's solve (conflicts,
    /// propagations, …). `None` when the backend reports none
    /// (varisat).
    pub stats: Option<SolverStats>,
    /// Whether this probe's UNSAT verdict carried a DRAT proof that
    /// passed the in-tree checker (`options.certify` only; always
    /// `false` for SAT/Unknown probes — a failing check aborts the
    /// search with [`SynthError::Certify`] instead).
    pub certified: bool,
    /// Which budget axis expired when `sat` is `None` (conflicts,
    /// propagations, deadline, memory ceiling, or a cancellation).
    /// `None` for resolved probes and for backends that report no
    /// statistics.
    pub exhaustion: Option<ExhaustionReason>,
}

/// Result of [`find_min_depth`].
///
/// Always returned, even when the budget died mid-search: the *anytime*
/// answer is the window [`DepthSearch::certified_lower_bound`] ..
/// [`DepthSearch::best_depth`], with [`DepthSearch::exhaustion`]
/// explaining which resource ran out (`None` means the search resolved
/// the minimum exactly).
#[derive(Debug)]
pub struct DepthSearch {
    /// Every probe performed, in order.
    pub probes: Vec<DepthProbe>,
    /// The best verified design found, if any.
    pub best: Option<LasDesign>,
    /// The searched depth range, as requested (inclusive).
    pub lo: usize,
    /// See [`DepthSearch::lo`].
    pub hi: usize,
    /// Why the search stopped without resolving the minimum, if it
    /// did: the budget axis that expired (or the cancellation) on the
    /// probe/driver that gave up first. `None` when the window closed.
    pub exhaustion: Option<ExhaustionReason>,
    /// Depth-parallel workers that crashed mid-search, as `(max_k,
    /// panic message)` — the fleet continued on the survivors.
    pub quarantined: Vec<(usize, String)>,
}

impl DepthSearch {
    /// The minimal satisfiable `max_k` discovered.
    pub fn best_depth(&self) -> Option<usize> {
        self.best.as_ref().map(|d| d.spec().max_k)
    }

    /// The largest depth proven unreachable plus one: every depth below
    /// this is refuted (UNSAT), so the true minimum — if any design
    /// exists in range — is at least this deep. Falls back to the
    /// range floor `lo` when no probe returned UNSAT.
    pub fn certified_lower_bound(&self) -> usize {
        self.probes
            .iter()
            .filter(|p| p.sat == Some(false))
            .map(|p| p.max_k + 1)
            .max()
            .map_or(self.lo, |b| b.max(self.lo))
    }

    /// The anytime answer: `(certified lower bound, best SAT depth)`.
    /// When the search resolved, the two coincide; under an expired
    /// budget they bracket where the true minimum can still hide.
    pub fn window(&self) -> (usize, Option<usize>) {
        (self.certified_lower_bound(), self.best_depth())
    }

    /// Total solver time across probes.
    pub fn total_time(&self) -> Duration {
        self.probes.iter().map(|p| p.time).sum()
    }
}

/// What one probe of the depth search observed.
struct ProbeOutcome {
    sat: Option<bool>,
    design: Option<LasDesign>,
    time: Duration,
    stats: Option<SolverStats>,
    certified: bool,
    exhaustion: Option<ExhaustionReason>,
}

/// The paper's probe order (start somewhere, descend while SAT, ascend
/// while UNSAT), shared by the incremental and from-scratch modes.
fn drive_depth_search(
    lo: usize,
    hi: usize,
    start: usize,
    mut probe: impl FnMut(usize) -> Result<ProbeOutcome, SynthError>,
) -> Result<DepthSearch, SynthError> {
    assert!(lo <= start && start <= hi, "start depth outside [lo, hi]");
    let mut probes = Vec::new();
    let mut best: Option<LasDesign> = None;
    let mut step = |k: usize,
                    probes: &mut Vec<DepthProbe>,
                    best: &mut Option<LasDesign>|
     -> Result<Option<bool>, SynthError> {
        let outcome = probe(k)?;
        if let Some(d) = outcome.design {
            if best
                .as_ref()
                .is_none_or(|b| d.spec().max_k < b.spec().max_k)
            {
                *best = Some(d);
            }
        }
        probes.push(DepthProbe {
            max_k: k,
            sat: outcome.sat,
            time: outcome.time,
            stats: outcome.stats,
            certified: outcome.certified,
            exhaustion: outcome.exhaustion,
        });
        Ok(outcome.sat)
    };
    let mut k = start;
    match step(k, &mut probes, &mut best)? {
        Some(true) => {
            // Descend while SAT.
            while k > lo {
                k -= 1;
                match step(k, &mut probes, &mut best)? {
                    Some(true) => continue,
                    _ => break,
                }
            }
        }
        Some(false) => {
            // Ascend while UNSAT.
            while k < hi {
                k += 1;
                match step(k, &mut probes, &mut best)? {
                    Some(false) => continue,
                    _ => break,
                }
            }
        }
        None => {}
    }
    // The walk stops at the first undecided probe, so the anytime
    // exhaustion reason is that probe's (there is at most one).
    let exhaustion =
        probes
            .iter()
            .rev()
            .find_map(|p| if p.sat.is_none() { p.exhaustion } else { None });
    Ok(DepthSearch {
        probes,
        best,
        lo,
        hi,
        exhaustion,
        quarantined: Vec::new(),
    })
}

/// Finds the minimal time extent (`max_k`) at which `spec` is
/// satisfiable, between `lo` and `hi` (inclusive), exactly as the
/// paper's evaluation does: start somewhere, descend while SAT, ascend
/// while UNSAT (Sec. V-B).
///
/// The spec's `-K` ports are relocated to each probed top layer via
/// [`LasSpec::with_depth`].
///
/// With `options.incremental` (the default, CDCL backend only) the
/// whole search runs as **one incremental solver session** over a
/// depth-layered encoding ([`encode_layered`]): each probe is a
/// `solve_assuming` call under that depth's activation literals, so the
/// clauses learnt refuting or solving one depth carry over to the next
/// — the lever the T-factory-scale instances need. Otherwise every
/// probe re-encodes `spec.with_depth(k)` and solves from scratch. Both
/// modes probe the same depths and return the same verdicts.
///
/// With `options.depth_parallel` (CDCL backend, `lo >= 1`) the walk is
/// replaced by [`find_min_depth_parallel`]: one lockstep worker per
/// candidate depth over a shared depth-layered encoding, with the
/// monotone depth axis pruning every depth a verdict dominates. The
/// answer (`best_depth`, error behavior on malformed depths) matches
/// the sequential modes; the *probe list* differs — it holds one entry
/// per worker that ran, in ascending depth order, and `sat: None`
/// marks a worker pruned or out of budget before its own verdict.
///
/// # Errors
///
/// Propagates [`SynthError`] from any probe. All modes error on the
/// probe that reaches a depth whose spec is malformed; depths the
/// search never probes are never validated (incremental sessions are
/// pre-shrunk to contiguous valid-depth sub-ranges, and the
/// depth-parallel mode reproduces the sequential walk-off-the-edge
/// errors explicitly).
pub fn find_min_depth(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
) -> Result<DepthSearch, SynthError> {
    if options.depth_parallel && lo >= 1 {
        if let BackendChoice::Cdcl(config) = &options.backend {
            let config = options.solver_config(config.clone());
            return find_min_depth_parallel(spec, lo, hi, start, options, config);
        }
    }
    if options.incremental && lo >= 1 {
        if let BackendChoice::Cdcl(config) = &options.backend {
            let config = options.solver_config(config.clone());
            return find_min_depth_incremental(spec, lo, hi, start, options, config);
        }
    }
    find_min_depth_scratch(spec, lo, hi, start, options)
}

/// From-scratch mode: one fresh [`Synthesizer`] per probe.
fn find_min_depth_scratch(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
) -> Result<DepthSearch, SynthError> {
    drive_depth_search(lo, hi, start, |k| {
        let s = spec.with_depth(k);
        let mut synth = Synthesizer::new(s)?.with_options(options.clone());
        let result = synth.run()?;
        let time = synth.last_solve_time().unwrap_or_default();
        let stats = synth.last_solver_stats();
        let (sat, design) = match result {
            SynthResult::Sat(d) => (Some(true), Some(*d)),
            SynthResult::Unsat => (Some(false), None),
            SynthResult::Unknown => (None, None),
        };
        Ok(ProbeOutcome {
            sat,
            design,
            time,
            stats,
            // `Synthesizer::run` has already checked the proof of a
            // certifying UNSAT (it errors otherwise).
            certified: options.certify && sat == Some(false),
            // Each probe is a fresh solver, so the session counters
            // are this probe's own (`None` under varisat, which
            // reports no statistics).
            exhaustion: match sat {
                None => stats.and_then(|s| s.exhaustion_reason()),
                Some(_) => None,
            },
        })
    })
}

/// One retained solver over one depth-layered CNF.
struct IncrementalSession {
    layered: crate::encode::LayeredEncoding,
    solver: CdclSolver,
}

impl IncrementalSession {
    fn new(
        spec: &LasSpec,
        lo: usize,
        hi: usize,
        config: &sat::CdclConfig,
        certify: bool,
    ) -> Result<Self, SynthError> {
        let layered = encode_layered(spec, lo, hi).map_err(SynthError::Spec)?;
        let mut solver = CdclSolver::with_config(config.clone());
        if certify {
            // Proof logging must start before the first clause so the
            // log is self-contained.
            solver.enable_proof();
        }
        solver.add_cnf(&layered.encoding.cnf);
        // Activation literals come back as assumptions on every probe,
        // so bounded variable elimination must never resolve them away:
        // declare them frozen for the lifetime of the session.
        for &a in &layered.activation {
            solver.freeze(a.var());
        }
        Ok(IncrementalSession { layered, solver })
    }

    fn covers(&self, k: usize) -> bool {
        (self.layered.lo..=self.layered.hi).contains(&k)
    }
}

/// The largest sub-range of depths `lo..=from` (descending) ending at
/// `from` whose specs all validate — a layered session may only cover
/// depths the spec is well-formed at, but must not reject depths the
/// search never reaches (from-scratch mode only errors on the probe
/// that actually hits an invalid depth, and the two modes must agree).
fn valid_depths_down(spec: &LasSpec, lo: usize, from: usize) -> usize {
    let mut v = from;
    while v > lo && spec.with_depth(v - 1).validate().is_ok() {
        v -= 1;
    }
    v
}

/// Mirror of [`valid_depths_down`] for ascending searches: the largest
/// sub-range `from..=hi` starting at `from` whose specs all validate.
fn valid_depths_up(spec: &LasSpec, from: usize, hi: usize) -> usize {
    let mut v = from;
    while v < hi && spec.with_depth(v + 1).validate().is_ok() {
        v += 1;
    }
    v
}

/// Incremental mode: a depth-layered CNF and a retained solver session;
/// each probe is one `solve_assuming` call.
///
/// The session is sized to the probes it can actually see: the layered
/// CNF pays for its *largest* layer at every probe, so starting with
/// the full `[lo, hi]` range would tax a descending search (by far the
/// common case — start at the spec's depth, shrink to the minimum)
/// with headroom it never probes. Instead the session opens at
/// `[lo, start]`; only when the first probe is UNSAT does the search
/// ascend, into a second session sized `[k, hi]` (one rebuild at most,
/// and the sole probe whose learnt clauses are dropped is the UNSAT
/// one that forced the turn). Both ranges are pre-shrunk to their
/// contiguous valid-spec sub-range, so a depth that is invalid but
/// never probed cannot fail the search; probing an invalid depth
/// errors, exactly as from-scratch mode does.
fn find_min_depth_incremental(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
    config: sat::CdclConfig,
) -> Result<DepthSearch, SynthError> {
    let mut session = IncrementalSession::new(
        spec,
        valid_depths_down(spec, lo, start),
        start,
        &config,
        options.certify,
    )?;
    drive_depth_search(lo, hi, start, |k| {
        if !session.covers(k) {
            // The search stepped past the session's valid range: extend
            // it in the step's direction — unless the next depth itself
            // is malformed, which errors on exactly the probe where
            // from-scratch mode would have errored.
            if let Err(e) = spec.with_depth(k).validate() {
                return Err(SynthError::Spec(e));
            }
            if k > session.layered.hi {
                session = IncrementalSession::new(
                    spec,
                    k,
                    valid_depths_up(spec, k, hi),
                    &config,
                    options.certify,
                )?;
            } else {
                session = IncrementalSession::new(
                    spec,
                    valid_depths_down(spec, lo, k),
                    k,
                    &config,
                    options.certify,
                )?;
            }
        }
        let assumptions = session.layered.assumptions_for(k);
        let before = session.solver.session_stats();
        let started = Instant::now();
        let outcome = session.solver.solve_assuming(&assumptions, &options.budget);
        let time = started.elapsed();
        let stats = Some(session.solver.session_stats().since(before));
        match outcome {
            SolveOutcome::Sat(model) => {
                let mut design = decode_layered(&session.layered, spec, k, &model);
                let violations = lasre::check_validity(&design);
                if !violations.is_empty() {
                    return Err(SynthError::InvalidDesign(violations));
                }
                if !options.skip_verify {
                    verify(&design).map_err(SynthError::Verify)?;
                    design.set_verified(true);
                }
                Ok(ProbeOutcome {
                    sat: Some(true),
                    design: Some(design),
                    time,
                    stats,
                    certified: false,
                    exhaustion: None,
                })
            }
            SolveOutcome::Unsat => {
                let mut certified = false;
                if options.certify {
                    // Proof-check this depth lower bound before
                    // reporting it. The log covers the whole session so
                    // far; the failing assumption set picks out this
                    // probe's refutation.
                    // Unreachable: the session enabled proof logging
                    // before its first clause.
                    // lint:allow(no-panic)
                    let log = session.solver.proof().expect("proof logging enabled");
                    sat::certify_unsat(log, session.solver.final_assumption_conflict())
                        .map_err(|e| SynthError::Certify(e.to_string()))?;
                    certified = true;
                }
                Ok(ProbeOutcome {
                    sat: Some(false),
                    design: None,
                    time,
                    stats,
                    certified,
                    exhaustion: None,
                })
            }
            SolveOutcome::Unknown(reason) => Ok(ProbeOutcome {
                sat: None,
                design: None,
                time,
                stats,
                certified: false,
                exhaustion: Some(reason),
            }),
        }
    })
}

/// Capacity of each worker's inbox in a clause-sharing run. Clauses
/// past a full inbox are dropped (deterministically — the lockstep
/// drivers below are single-threaded), so this only trades sharing
/// coverage against memory; it never blocks a worker.
const EXCHANGE_CAPACITY: usize = 1024;

/// How far one per-depth worker has got.
enum DepthWorkerState {
    /// Still inside the undecided window with budget left.
    Running,
    /// Spent its per-probe conflict budget without a verdict.
    Exhausted,
    /// Resolved its depth: `true` = SAT, `false` = UNSAT.
    Verdict(bool),
    /// Panicked mid-turn and was quarantined (the payload is the panic
    /// message); the fleet continued on the survivors.
    Crashed(String),
}

/// One per-depth worker of [`find_min_depth_parallel`].
struct DepthWorker {
    /// The `max_k` this worker owns.
    k: usize,
    solver: CdclSolver,
    /// Conflicts this worker may still spend. Each depth is one probe,
    /// so each worker gets the full per-probe budget
    /// (`options.budget.max_conflicts`); `None` is unlimited.
    remaining: Option<u64>,
    /// Cumulative wall time of this worker's turns.
    time: Duration,
    /// Lockstep turns taken (workers with none are omitted from the
    /// probe list — the search never touched their depth).
    turns: u64,
    state: DepthWorkerState,
    /// Whether this worker's UNSAT verdict was proof-checked.
    certified: bool,
    /// Which budget axis ran this worker dry, when one did.
    exhaustion: Option<ExhaustionReason>,
}

/// Depth-parallel mode: one lockstep worker per candidate depth.
///
/// All workers share one depth-layered encoding ([`encode_layered`])
/// over the contiguous valid-depth window around `start`; worker `i`
/// owns depth `vlo + i` and probes it as `solve_assuming` under that
/// depth's activation literals. A single-threaded round-robin driver
/// (ascending depth order, `options.parallel_quantum` conflicts per
/// turn, so every run is deterministic) runs every worker still
/// inside the *undecided window*: SAT at depth `k` implies SAT at
/// every deeper depth and UNSAT implies UNSAT at every shallower one,
/// so each verdict shrinks the window `(highest UNSAT, lowest SAT)`
/// and prunes the workers it dominates mid-flight. The search ends
/// when the window is empty (minimum found or whole range refuted) or
/// when every worker in it ran out of budget.
///
/// With `options.share_clauses` the workers also exchange learnt
/// clauses: clauses learnt under depth-`k` assumptions are
/// consequences of the shared CNF alone (assumptions enter learnt
/// clauses only negated), so cross-depth sharing is sound — and the
/// importer RUP-checks every clause against its own database anyway.
///
/// Deterministic by construction: fixed worker order, fixed quanta, no
/// threads — two runs produce identical verdicts, stats and import
/// sequences (only the `time` fields vary).
fn find_min_depth_parallel(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
    config: sat::CdclConfig,
) -> Result<DepthSearch, SynthError> {
    assert!(lo <= start && start <= hi, "start depth outside [lo, hi]");
    // The sequential modes probe `start` first and error if its spec is
    // malformed; fail identically before building anything.
    spec.with_depth(start)
        .validate()
        .map_err(SynthError::Spec)?;
    let vlo = valid_depths_down(spec, lo, start);
    let vhi = valid_depths_up(spec, start, hi);
    let layered = encode_layered(spec, vlo, vhi).map_err(SynthError::Spec)?;
    let worker_count = vhi - vlo + 1;
    let hub = options
        .share_clauses
        .then(|| Arc::new(ClauseExchange::new(worker_count, EXCHANGE_CAPACITY)));
    let mut workers: Vec<DepthWorker> = Vec::with_capacity(worker_count);
    for index in 0..worker_count {
        let mut solver = CdclSolver::with_config(config.clone());
        if options.certify {
            // Proof logging must open before the first clause so each
            // worker's log is self-contained (imports are logged as
            // derived RUP steps and stay checkable).
            solver.enable_proof();
        }
        solver.add_cnf(&layered.encoding.cnf);
        // Activation literals return as assumptions on every turn:
        // variable elimination must never resolve them away.
        for &a in &layered.activation {
            solver.freeze(a.var());
        }
        if let Some(hub) = &hub {
            solver.connect_exchange(Arc::clone(hub), index, ShareLimits::default());
        }
        workers.push(DepthWorker {
            k: vlo + index,
            solver,
            remaining: options.budget.max_conflicts,
            time: Duration::ZERO,
            turns: 0,
            state: DepthWorkerState::Running,
            certified: false,
            exhaustion: None,
        });
    }
    let quantum = options.parallel_quantum.max(1);
    let deadline = options.budget.max_time.map(|t| Instant::now() + t);
    let mut lowest_sat: Option<usize> = None;
    let mut highest_unsat: Option<usize> = None;
    let mut best: Option<LasDesign> = None;
    // Set when the *driver* (not an individual worker) gives up: the
    // fleet deadline passed or the caller's stop flag was raised.
    let mut driver_exhaustion: Option<ExhaustionReason> = None;
    'driver: loop {
        let mut progressed = false;
        for worker in workers.iter_mut() {
            // Recompute the undecided window every turn: a verdict
            // earlier in this round may have closed it or pruned this
            // worker (`vlo >= lo >= 1`, so `s - 1` cannot underflow).
            let window_lo = highest_unsat.map_or(vlo, |u| u + 1);
            let window_hi = lowest_sat.map_or(vhi, |s| s - 1);
            if window_lo > window_hi {
                break 'driver;
            }
            let k = worker.k;
            if !matches!(worker.state, DepthWorkerState::Running) || k < window_lo || k > window_hi
            {
                continue;
            }
            if let Some(stop) = &options.budget.stop {
                if stop.load(Ordering::Relaxed) {
                    driver_exhaustion = Some(ExhaustionReason::Cancelled);
                    break 'driver;
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                driver_exhaustion = Some(ExhaustionReason::Deadline);
                break 'driver;
            }
            let turn = worker.remaining.map_or(quantum, |r| quantum.min(r));
            let mut turn_budget = Budget::conflict_limit(turn);
            // The memory ceiling applies per worker, every turn; time
            // and stop stay driver-level (checked between quanta).
            turn_budget.max_memory_words = options.budget.max_memory_words;
            let assumptions = layered.assumptions_for(k);
            let before = worker.solver.session_stats().conflicts;
            let started = Instant::now();
            // The quantum is the crash-isolation boundary: a worker
            // that panics (a solver bug, or an injected fault) is
            // quarantined with its message and the fleet continues on
            // the survivors.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                worker.solver.solve_assuming(&assumptions, &turn_budget)
            }));
            worker.time += started.elapsed();
            worker.turns += 1;
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(payload) => {
                    worker.state = DepthWorkerState::Crashed(panic_message(payload));
                    progressed = true;
                    continue;
                }
            };
            let spent = worker.solver.session_stats().conflicts - before;
            if let Some(r) = &mut worker.remaining {
                *r = r.saturating_sub(spent);
            }
            progressed = true;
            match outcome {
                SolveOutcome::Sat(model) => {
                    worker.state = DepthWorkerState::Verdict(true);
                    // The window cap keeps dominated workers idle, so
                    // every SAT processed here is a new minimum.
                    lowest_sat = Some(k);
                    let mut design = decode_layered(&layered, spec, k, &model);
                    let violations = lasre::check_validity(&design);
                    if !violations.is_empty() {
                        return Err(SynthError::InvalidDesign(violations));
                    }
                    if !options.skip_verify {
                        verify(&design).map_err(SynthError::Verify)?;
                        design.set_verified(true);
                    }
                    best = Some(design);
                }
                SolveOutcome::Unsat => {
                    worker.state = DepthWorkerState::Verdict(false);
                    if options.certify {
                        // Unreachable: the worker enabled proof logging
                        // before its first clause.
                        // lint:allow(no-panic)
                        let log = worker.solver.proof().expect("proof logging enabled");
                        sat::certify_unsat(log, worker.solver.final_assumption_conflict())
                            .map_err(|e| SynthError::Certify(e.to_string()))?;
                        worker.certified = true;
                    }
                    // The window floor keeps dominated workers idle, so
                    // every UNSAT processed here raises the floor.
                    highest_unsat = Some(k);
                }
                SolveOutcome::Unknown(reason) => {
                    // The memory ceiling never recovers on its own:
                    // retire the worker now. Otherwise the turn budget
                    // is conflict-only, so Unknown means the quantum
                    // ran dry; the worker retires once its per-probe
                    // budget is spent (`spent == 0` is a defensive
                    // no-progress guard).
                    if reason == ExhaustionReason::Memory {
                        worker.state = DepthWorkerState::Exhausted;
                        worker.exhaustion = Some(ExhaustionReason::Memory);
                    } else if worker.remaining == Some(0) || spent == 0 {
                        worker.state = DepthWorkerState::Exhausted;
                        worker.exhaustion = Some(ExhaustionReason::Conflicts);
                    }
                }
            }
        }
        if !progressed {
            break; // only exhausted or pruned workers left in the window
        }
    }
    // Sequential mode walks off the valid window's edges: descending
    // from a SAT verdict at the window floor it probes `vlo - 1`, and
    // ascending past an all-UNSAT window it probes `vhi + 1` — erring
    // exactly when that depth's spec is malformed (which, when the
    // window was shrunk, is by construction). Reproduce those errors.
    if lowest_sat == Some(vlo) && vlo > lo {
        if let Err(e) = spec.with_depth(vlo - 1).validate() {
            return Err(SynthError::Spec(e));
        }
    }
    if lowest_sat.is_none() && highest_unsat == Some(vhi) && vhi < hi {
        if let Err(e) = spec.with_depth(vhi + 1).validate() {
            return Err(SynthError::Spec(e));
        }
    }
    let quarantined: Vec<(usize, String)> = workers
        .iter()
        .filter_map(|w| match &w.state {
            DepthWorkerState::Crashed(msg) => Some((w.k, msg.clone())),
            _ => None,
        })
        .collect();
    // A fleet with no survivors has no anytime answer to stand on:
    // propagate the first crash (lowest depth) as the search error.
    if !quarantined.is_empty() && quarantined.len() == workers.len() {
        let (k, msg) = &quarantined[0];
        return Err(SynthError::WorkerPanic(format!("depth {k} worker: {msg}")));
    }
    let probes = workers
        .iter()
        .filter(|w| w.turns > 0)
        .map(|w| DepthProbe {
            max_k: w.k,
            sat: match w.state {
                DepthWorkerState::Verdict(sat) => Some(sat),
                // Pruned by a dominating verdict, out of budget, or
                // crashed: this worker never resolved its depth.
                _ => None,
            },
            time: w.time,
            stats: Some(w.solver.session_stats()),
            certified: w.certified,
            exhaustion: w.exhaustion,
        })
        .collect();
    // Anytime accounting: if the undecided window is still open, the
    // search ran out of something — the driver's reason (deadline or
    // cancellation) wins, else the first dried-up worker's.
    let window_lo = highest_unsat.map_or(vlo, |u| u + 1);
    let window_hi = lowest_sat.map_or(vhi, |s| s - 1);
    let exhaustion = if window_lo <= window_hi {
        driver_exhaustion.or_else(|| workers.iter().find_map(|w| w.exhaustion))
    } else {
        None
    };
    Ok(DepthSearch {
        probes,
        best,
        lo,
        hi,
        exhaustion,
        quarantined,
    })
}

/// Runs one synthesis per port permutation in parallel (one thread per
/// permutation, as the paper runs "many LaSsynth jobs in parallel"),
/// returning the first verified design. All other workers are cancelled
/// through the solver's stop flag.
///
/// # Errors
///
/// Propagates the first [`SynthError`] if *all* workers error.
pub fn explore_port_orders(
    spec: &LasSpec,
    perms: &[Vec<usize>],
    options: &SynthOptions,
) -> Result<Option<LasDesign>, SynthError> {
    let stop = Arc::new(AtomicBool::new(false));
    let mut first_error = None;
    let mut found: Option<LasDesign> = None;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = perms
            .iter()
            .map(|perm| {
                let spec = spec.with_port_order(perm);
                let mut options = options.clone();
                options.budget.stop = Some(stop.clone());
                let stop = stop.clone();
                scope.spawn(move |_| {
                    // Crash isolation: a panicking worker is this
                    // worker's failure, not the whole exploration's —
                    // without the catch the join below would re-raise
                    // and poison every other permutation.
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut synth = match Synthesizer::new(spec) {
                            Ok(s) => s.with_options(options),
                            Err(e) => return Err(e),
                        };
                        let result = synth.run()?;
                        if let SynthResult::Sat(d) = result {
                            stop.store(true, Ordering::Relaxed);
                            return Ok(Some(*d));
                        }
                        Ok(None)
                    }))
                    .unwrap_or_else(|payload| Err(SynthError::WorkerPanic(panic_message(payload))))
                })
            })
            .collect();
        for h in handles {
            // Unreachable: every worker closure catches its own panics.
            // lint:allow(no-panic)
            match h.join().expect("worker panicked") {
                Ok(Some(d)) => {
                    if found.is_none() {
                        found = Some(d);
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
    })
    .expect("scope"); // lint:allow(no-panic)
    match (found, first_error) {
        (Some(d), _) => Ok(Some(d)),
        (None, Some(e)) => Err(e),
        (None, None) => Ok(None),
    }
}

/// Outcome of [`solve_portfolio_detailed`]: the verdict plus which
/// worker produced it and the whole fleet's solver statistics.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The first definitive verdict (or `Unknown` if none).
    pub result: SynthResult,
    /// Seed of the worker that produced the verdict.
    pub winner_seed: Option<u64>,
    /// Solver statistics of the winning worker, when its backend
    /// reports them.
    pub stats: Option<sat::SolverStats>,
    /// Every worker's `(seed, stats)` in the caller's seed order,
    /// losers included — the cost the portfolio actually paid, not
    /// just the winner's share (losing workers' stats used to be
    /// dropped on the floor).
    pub worker_stats: Vec<(u64, Option<SolverStats>)>,
    /// Element-wise sum of every reporting worker's statistics
    /// ([`SolverStats::merged`]): what `--stats` prints as the
    /// `portfolio total` line. `None` only when no worker reported
    /// stats at all.
    pub total: Option<SolverStats>,
    /// Workers that crashed (panicked) mid-solve, as `(seed, panic
    /// message)` in seed order. The fleet continued on the survivors;
    /// only when *every* worker fails does the run error out instead.
    pub quarantined: Vec<(u64, String)>,
}

/// Runs one synthesis per seed in parallel and returns the first
/// definitive verdict (SAT **or** UNSAT), cancelling the rest — the
/// portfolio the paper suggests after observing up to 26× seed
/// variance (Sec. V-E, "Random seed: more is different").
///
/// Workers are *diversified*: each seed also selects a restart/decay/
/// polarity ablation through [`sat::CdclConfig::diversified`], so the
/// portfolio explores genuinely different trajectories rather than
/// different tie-breaking only.
///
/// # Errors
///
/// Propagates a [`SynthError`] only if every worker errors.
pub fn solve_portfolio(
    spec: &LasSpec,
    seeds: &[u64],
    options: &SynthOptions,
) -> Result<SynthResult, SynthError> {
    solve_portfolio_detailed(spec, seeds, options).map(|o| o.result)
}

/// [`solve_portfolio`] with the winning seed and the whole fleet's
/// solver statistics (what `lassynth synth --seeds … --stats` prints).
///
/// With `options.share_clauses` the free-running threads are replaced
/// by [`solve_portfolio_shared`]: the same diversified fleet run by a
/// deterministic single-threaded lockstep driver that exchanges
/// low-LBD learnt clauses between the workers.
///
/// # Errors
///
/// Propagates a [`SynthError`] only if every worker errors — the error
/// of the *first* failing worker in the caller's seed order (receive
/// order is a thread race; an earlier version kept whichever error
/// arrived last).
pub fn solve_portfolio_detailed(
    spec: &LasSpec,
    seeds: &[u64],
    options: &SynthOptions,
) -> Result<PortfolioOutcome, SynthError> {
    if options.share_clauses {
        return solve_portfolio_shared(spec, seeds, options);
    }
    use std::sync::mpsc;
    type WorkerReport = (
        usize,
        Option<sat::SolverStats>,
        Result<SynthResult, SynthError>,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<WorkerReport>();
    crossbeam::thread::scope(|scope| {
        for (index, &seed) in seeds.iter().enumerate() {
            let mut options = options.clone().with_diversified_seed(seed);
            options.budget.stop = Some(stop.clone());
            let spec = spec.clone();
            let stop = stop.clone();
            let tx = tx.clone();
            scope.spawn(move |_| {
                let mut stats = None;
                // Crash isolation: a panicking worker (solver bug or
                // injected fault) must not poison the whole portfolio
                // through the scope join — catch it here and report it
                // as this worker's error instead.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    Synthesizer::new(spec).and_then(|s| {
                        let mut s = s.with_options(options);
                        let r = s.run();
                        stats = s.last_solver_stats();
                        r
                    })
                }))
                .unwrap_or_else(|payload| Err(SynthError::WorkerPanic(panic_message(payload))));
                if matches!(result, Ok(SynthResult::Sat(_)) | Ok(SynthResult::Unsat)) {
                    stop.store(true, Ordering::Relaxed);
                }
                let _ = tx.send((index, stats, result));
            });
        }
        drop(tx);
        // Drain *every* worker's report: the first definitive verdict
        // to arrive still wins, but the losers' stats are part of the
        // portfolio's cost, and they observe the stop flag and report
        // promptly once a winner raises it.
        let mut winner: Option<(usize, Option<SolverStats>, SynthResult)> = None;
        let mut reports: Vec<(usize, Option<SolverStats>)> = Vec::with_capacity(seeds.len());
        let mut errors: Vec<(usize, SynthError)> = Vec::new();
        let mut crashed: Vec<(usize, String)> = Vec::new();
        for (index, stats, result) in rx {
            reports.push((index, stats));
            match result {
                Ok(r @ (SynthResult::Sat(_) | SynthResult::Unsat)) => {
                    if winner.is_none() {
                        winner = Some((index, stats, r));
                    }
                }
                Ok(SynthResult::Unknown) => {}
                Err(e) => {
                    if let SynthError::WorkerPanic(msg) = &e {
                        crashed.push((index, msg.clone()));
                    }
                    errors.push((index, e));
                }
            }
        }
        crashed.sort_by_key(|&(index, _)| index);
        let quarantined: Vec<(u64, String)> = crashed
            .into_iter()
            .map(|(index, msg)| (seeds[index], msg))
            .collect();
        reports.sort_by_key(|&(index, _)| index);
        let total = reports
            .iter()
            .filter_map(|&(_, stats)| stats)
            .reduce(SolverStats::merged);
        let worker_stats: Vec<(u64, Option<SolverStats>)> = reports
            .into_iter()
            .map(|(index, stats)| (seeds[index], stats))
            .collect();
        match winner {
            Some((index, stats, result)) => Ok(PortfolioOutcome {
                result,
                winner_seed: Some(seeds[index]),
                stats,
                worker_stats,
                total,
                quarantined,
            }),
            None if errors.len() == seeds.len() => {
                // Every worker failed: keep the error of the first
                // worker in seed order, deterministically.
                errors.sort_by_key(|&(index, _)| index);
                match errors.into_iter().next() {
                    Some((_, e)) => Err(e),
                    // Unreachable: `seeds` is non-empty whenever
                    // `errors` is.
                    None => Ok(PortfolioOutcome {
                        result: SynthResult::Unknown,
                        winner_seed: None,
                        stats: None,
                        worker_stats,
                        total,
                        quarantined,
                    }),
                }
            }
            None => Ok(PortfolioOutcome {
                result: SynthResult::Unknown,
                winner_seed: None,
                stats: None,
                worker_stats,
                total,
                quarantined,
            }),
        }
    })
    .expect("portfolio scope") // lint:allow(no-panic)
}

/// Deterministic clause-sharing portfolio: the same diversified seed
/// fleet as the threaded path, run by a single-threaded round-robin
/// driver that hands each worker `options.parallel_quantum` conflicts
/// per turn and fans each worker's low-LBD learnt clauses out to the
/// others through a bounded [`ClauseExchange`].
///
/// Single-threaded by design: determinism is the point. A
/// free-threaded sharing portfolio imports whatever the scheduler
/// happened to deliver, so neither its conflicts nor its verdict path
/// would replay.
/// What sharing buys is *fewer total conflicts to a verdict* than the
/// same fleet running isolated; the lockstep schedule makes every run
/// bit-reproducible — same spec, seeds and quantum give the same
/// winner, the same stats and the same import sequence. Workers import
/// only at their own restart boundaries (and solve-entry), and every
/// import is RUP-checked and proof-logged, so `options.certify`
/// composes: an UNSAT verdict from an import-fed worker still carries
/// a checkable DRAT log.
fn solve_portfolio_shared(
    spec: &LasSpec,
    seeds: &[u64],
    options: &SynthOptions,
) -> Result<PortfolioOutcome, SynthError> {
    let encoding = encode(spec).map_err(SynthError::Spec)?;
    let hub = Arc::new(ClauseExchange::new(seeds.len().max(1), EXCHANGE_CAPACITY));
    let mut workers: Vec<CdclSolver> = Vec::with_capacity(seeds.len());
    for (index, &seed) in seeds.iter().enumerate() {
        let config = options.solver_config(sat::CdclConfig::diversified(seed));
        let mut solver = CdclSolver::with_config(config);
        if options.certify {
            // Proof logging must open before the first clause so the
            // log is self-contained.
            solver.enable_proof();
        }
        solver.add_cnf(&encoding.cnf);
        solver.connect_exchange(Arc::clone(&hub), index, ShareLimits::default());
        workers.push(solver);
    }
    let quantum = options.parallel_quantum.max(1);
    let deadline = options.budget.max_time.map(|t| Instant::now() + t);
    let mut remaining: Vec<Option<u64>> = vec![options.budget.max_conflicts; seeds.len()];
    let mut exhausted = vec![false; seeds.len()];
    let mut quarantined: Vec<(u64, String)> = Vec::new();
    let mut winner: Option<(usize, SolveOutcome)> = None;
    'driver: while exhausted.iter().any(|done| !done) {
        for index in 0..workers.len() {
            if exhausted[index] {
                continue;
            }
            if let Some(stop) = &options.budget.stop {
                if stop.load(Ordering::Relaxed) {
                    break 'driver;
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break 'driver;
            }
            let turn = remaining[index].map_or(quantum, |r| quantum.min(r));
            let mut turn_budget = Budget::conflict_limit(turn);
            // The memory ceiling applies per worker, every turn; time
            // and stop stay driver-level (checked between quanta).
            turn_budget.max_memory_words = options.budget.max_memory_words;
            let before = workers[index].session_stats().conflicts;
            // The quantum is the crash-isolation boundary: a worker
            // that panics mid-turn (a solver bug, or an injected
            // fault) is quarantined and the fleet continues on the
            // survivors.
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                workers[index].solve_assuming(&[], &turn_budget)
            })) {
                Ok(outcome) => outcome,
                Err(payload) => {
                    exhausted[index] = true;
                    quarantined.push((seeds[index], panic_message(payload)));
                    continue;
                }
            };
            let spent = workers[index].session_stats().conflicts - before;
            if let Some(r) = &mut remaining[index] {
                *r = r.saturating_sub(spent);
            }
            match outcome {
                SolveOutcome::Unknown(reason) => {
                    // A memory ceiling never recovers on its own:
                    // retire the worker now. Otherwise the turn budget
                    // is conflict-only, so Unknown means the quantum
                    // ran dry; the worker retires once its per-worker
                    // budget is spent (`spent == 0` is a defensive
                    // no-progress guard).
                    if reason == ExhaustionReason::Memory
                        || remaining[index] == Some(0)
                        || spent == 0
                    {
                        exhausted[index] = true;
                    }
                }
                verdict => {
                    winner = Some((index, verdict));
                    break 'driver;
                }
            }
        }
    }
    // A fleet with no survivors has nothing to report: propagate the
    // first crash in seed order instead (the vector is already in
    // driver = seed order).
    if !quarantined.is_empty() && quarantined.len() == seeds.len() {
        let (seed, msg) = &quarantined[0];
        return Err(SynthError::WorkerPanic(format!(
            "seed {seed} worker: {msg}"
        )));
    }
    let worker_stats: Vec<(u64, Option<SolverStats>)> = seeds
        .iter()
        .zip(&workers)
        .map(|(&seed, worker)| (seed, Some(worker.session_stats())))
        .collect();
    let total = worker_stats
        .iter()
        .filter_map(|&(_, stats)| stats)
        .reduce(SolverStats::merged);
    let (result, winner_seed, stats) = match winner {
        Some((index, SolveOutcome::Sat(model))) => {
            let mut design = decode(spec, &encoding, &model);
            let violations = lasre::check_validity(&design);
            if !violations.is_empty() {
                return Err(SynthError::InvalidDesign(violations));
            }
            if !options.skip_verify {
                verify(&design).map_err(SynthError::Verify)?;
                design.set_verified(true);
            }
            (
                SynthResult::Sat(Box::new(design)),
                Some(seeds[index]),
                Some(workers[index].session_stats()),
            )
        }
        Some((index, SolveOutcome::Unsat)) => {
            if options.certify {
                // Unreachable: the worker enabled proof logging before
                // its first clause.
                // lint:allow(no-panic)
                let log = workers[index].proof().expect("proof logging enabled");
                sat::certify_unsat(log, workers[index].final_assumption_conflict())
                    .map_err(|e| SynthError::Certify(e.to_string()))?;
            }
            (
                SynthResult::Unsat,
                Some(seeds[index]),
                Some(workers[index].session_stats()),
            )
        }
        Some((_, SolveOutcome::Unknown(_))) | None => (SynthResult::Unknown, None, None),
    };
    Ok(PortfolioOutcome {
        result,
        winner_seed,
        stats,
        worker_stats,
        total,
        quarantined,
    })
}

/// All permutations of `0..n` (for small `n`), a convenience for
/// exhaustive port-order exploration.
///
/// # Panics
///
/// Panics if `n > 8` (40320 permutations is the sensible ceiling).
pub fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    assert!(n <= 8, "too many permutations");
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    heap_permute(&mut current, n, &mut out);
    out
}

fn heap_permute(arr: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(arr.clone());
        return;
    }
    for i in 0..k {
        heap_permute(arr, k - 1, out);
        if k.is_multiple_of(2) {
            arr.swap(i, k - 1);
        } else {
            arr.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasre::fixtures::cnot_spec;

    #[test]
    fn permutation_count() {
        assert_eq!(all_permutations(1).len(), 1);
        assert_eq!(all_permutations(3).len(), 6);
        assert_eq!(all_permutations(4).len(), 24);
        // All distinct.
        let mut p4 = all_permutations(4);
        p4.sort();
        p4.dedup();
        assert_eq!(p4.len(), 24);
    }

    #[test]
    fn depth_search_descends_to_minimum() {
        // The CNOT needs two layers (max_k = 3 with the padding layer);
        // starting at 4 must descend to 3 and stop at UNSAT for 2.
        // Exercises the default (incremental) mode.
        let spec = cnot_spec();
        let search = find_min_depth(&spec, 2, 5, 4, &SynthOptions::default()).unwrap();
        assert_eq!(search.best_depth(), Some(3));
        let probed: Vec<usize> = search.probes.iter().map(|p| p.max_k).collect();
        assert_eq!(probed, vec![4, 3, 2]);
        assert_eq!(search.probes[2].sat, Some(false));
        assert!(search.total_time() > Duration::ZERO);
        assert!(search.best.as_ref().unwrap().verified());
    }

    #[test]
    fn depth_search_ascends_from_unsat() {
        let spec = cnot_spec();
        let search = find_min_depth(&spec, 2, 5, 2, &SynthOptions::default()).unwrap();
        assert_eq!(search.best_depth(), Some(3));
        let probed: Vec<usize> = search.probes.iter().map(|p| p.max_k).collect();
        assert_eq!(probed, vec![2, 3]);
    }

    /// Runs the same search in both modes and asserts identical probe
    /// order, per-probe verdicts and best depth.
    fn assert_modes_agree(spec: &LasSpec, lo: usize, hi: usize, start: usize) {
        let incremental = find_min_depth(spec, lo, hi, start, &SynthOptions::default()).unwrap();
        let scratch_options = SynthOptions {
            incremental: false,
            ..SynthOptions::default()
        };
        let scratch = find_min_depth(spec, lo, hi, start, &scratch_options).unwrap();
        let view = |s: &DepthSearch| -> Vec<(usize, Option<bool>)> {
            s.probes.iter().map(|p| (p.max_k, p.sat)).collect()
        };
        assert_eq!(
            view(&incremental),
            view(&scratch),
            "probe sequences diverge (start {start})"
        );
        assert_eq!(incremental.best_depth(), scratch.best_depth());
        if let Some(best) = &incremental.best {
            assert!(best.verified(), "incremental best design verifies");
        }
    }

    #[test]
    fn incremental_matches_scratch_descending() {
        assert_modes_agree(&cnot_spec(), 2, 5, 4);
    }

    #[test]
    fn incremental_matches_scratch_ascending() {
        assert_modes_agree(&cnot_spec(), 2, 5, 2);
    }

    #[test]
    fn incremental_matches_scratch_from_the_top() {
        assert_modes_agree(&cnot_spec(), 2, 5, 5);
    }

    /// Depth 1 is invalid for the CNOT (its bottom-port cubes fall out
    /// of the arrays), but the descent stops at the UNSAT depth 2 and
    /// never probes it — so a range including depth 1 must still
    /// succeed, identically in both modes (the CLI defaults to
    /// `--lo 1`).
    #[test]
    fn unprobed_invalid_depths_do_not_fail_the_search() {
        assert_modes_agree(&cnot_spec(), 1, 5, 4);
    }

    /// Probing an invalid depth errors in both modes: starting *at*
    /// the CNOT's invalid depth 1 fails up front rather than probing.
    #[test]
    fn probing_an_invalid_depth_errors_in_both_modes() {
        for incremental in [true, false] {
            let options = SynthOptions {
                incremental,
                ..SynthOptions::default()
            };
            let r = find_min_depth(&cnot_spec(), 1, 5, 1, &options);
            assert!(
                matches!(r, Err(SynthError::Spec(_))),
                "expected a spec error probing depth 1 (incremental={incremental})"
            );
        }
    }

    /// Both modes record per-probe solver statistics for the CDCL
    /// backend.
    #[test]
    fn probes_carry_solver_stats() {
        let spec = cnot_spec();
        for incremental in [true, false] {
            let options = SynthOptions {
                incremental,
                ..SynthOptions::default()
            };
            let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
            for p in &search.probes {
                let stats = p.stats.unwrap_or_else(|| {
                    panic!(
                        "probe {} missing stats (incremental={incremental})",
                        p.max_k
                    )
                });
                assert!(
                    stats.propagations > 0,
                    "probe {} did no work (incremental={incremental})",
                    p.max_k
                );
            }
        }
    }

    /// A certified search reaches the same answer as the plain one and
    /// proof-checks every UNSAT probe along the way, in both modes.
    #[test]
    fn certified_search_agrees_and_marks_unsat_probes() {
        let spec = cnot_spec();
        let plain = find_min_depth(&spec, 2, 5, 4, &SynthOptions::default()).unwrap();
        for incremental in [true, false] {
            let options = SynthOptions {
                incremental,
                certify: true,
                ..SynthOptions::default()
            };
            let certified = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
            assert_eq!(certified.best_depth(), plain.best_depth());
            let view = |s: &DepthSearch| -> Vec<(usize, Option<bool>)> {
                s.probes.iter().map(|p| (p.max_k, p.sat)).collect()
            };
            assert_eq!(view(&certified), view(&plain));
            let mut unsat_probes = 0;
            for p in &certified.probes {
                assert_eq!(
                    p.certified,
                    p.sat == Some(false),
                    "probe {} certification flag (incremental={incremental})",
                    p.max_k
                );
                unsat_probes += usize::from(p.sat == Some(false));
            }
            assert!(unsat_probes > 0, "search never hit an UNSAT probe");
        }
    }

    #[test]
    fn detailed_portfolio_reports_winner_and_stats() {
        let spec = cnot_spec();
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &SynthOptions::default()).unwrap();
        assert!(o.result.is_sat());
        assert!(o.winner_seed.is_some(), "winning seed recorded");
        let stats = o.stats.expect("CDCL workers report stats");
        assert!(stats.propagations > 0);
    }

    #[test]
    fn portfolio_returns_definitive_verdicts() {
        let spec = cnot_spec();
        let r = solve_portfolio(&spec, &[0, 1, 2, 3], &SynthOptions::default()).unwrap();
        assert!(r.is_sat());
        // And an unsatisfiable variant is proven UNSAT by some worker.
        let r = solve_portfolio(&spec.with_depth(2), &[0, 1], &SynthOptions::default()).unwrap();
        assert!(r.is_unsat());
    }

    /// Losing workers' statistics are no longer dropped: every worker
    /// reports, and the total is at least the winner's share.
    #[test]
    fn portfolio_accounts_for_losing_workers() {
        let spec = cnot_spec();
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &SynthOptions::default()).unwrap();
        assert!(o.result.is_sat());
        assert_eq!(o.worker_stats.len(), 3, "losers report too");
        let winner = o.winner_seed.unwrap();
        assert!(o.worker_stats.iter().any(|&(seed, _)| seed == winner));
        let total = o.total.expect("CDCL workers report stats");
        let winner_stats = o.stats.unwrap();
        assert!(total.propagations >= winner_stats.propagations);
    }

    /// When every worker fails, the portfolio surfaces the error
    /// instead of an `Unknown` — two deliberately failing workers
    /// (depth 1 is invalid for the CNOT, so both die in
    /// `Synthesizer::new`) must yield the spec error.
    #[test]
    fn portfolio_propagates_error_when_all_workers_fail() {
        let spec = cnot_spec().with_depth(1);
        let r = solve_portfolio_detailed(&spec, &[0, 1], &SynthOptions::default());
        assert!(
            matches!(r, Err(SynthError::Spec(_))),
            "expected the first worker's spec error"
        );
    }

    fn shared_options() -> SynthOptions {
        SynthOptions {
            share_clauses: true,
            // Small quantum so even the CNOT-sized fixtures take
            // several lockstep turns and actually exchange clauses.
            parallel_quantum: 20,
            ..SynthOptions::default()
        }
    }

    #[test]
    fn shared_portfolio_agrees_with_threaded_verdicts() {
        let spec = cnot_spec();
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &shared_options()).unwrap();
        assert!(o.result.is_sat());
        assert!(o.winner_seed.is_some());
        assert_eq!(o.worker_stats.len(), 3);
        assert!(o.total.expect("lockstep workers report stats").propagations > 0);
        if let SynthResult::Sat(d) = &o.result {
            assert!(d.verified());
        }
        let u = solve_portfolio_detailed(&spec.with_depth(2), &[0, 1], &shared_options()).unwrap();
        assert!(u.result.is_unsat());
    }

    /// Two identical shared-portfolio runs are bit-identical: same
    /// winner, same per-worker conflicts/propagations and the same
    /// export/import/kept sequence.
    #[test]
    fn shared_portfolio_runs_are_deterministic() {
        let spec = cnot_spec();
        let options = SynthOptions {
            // One conflict per turn: the CNOT solves in a couple of
            // conflicts, so anything larger lets the first worker win
            // before the fleet ever trades a clause.
            parallel_quantum: 1,
            ..shared_options()
        };
        let run = || {
            let o = solve_portfolio_detailed(&spec, &[0, 1, 2, 3], &options).unwrap();
            assert!(o.result.is_sat());
            let fleet: Vec<_> = o
                .worker_stats
                .iter()
                .map(|&(seed, stats)| {
                    let s = stats.unwrap();
                    (
                        seed,
                        s.conflicts,
                        s.propagations,
                        s.exported_clauses,
                        s.imported_clauses,
                        s.imported_kept,
                    )
                })
                .collect();
            (o.winner_seed, fleet)
        };
        let first = run();
        assert_eq!(first, run());
        let exchanged: u64 = first.1.iter().map(|t| t.4).sum();
        assert!(exchanged > 0, "the fleet never exchanged a clause");
    }

    /// An UNSAT verdict from an import-fed worker still carries a
    /// checkable DRAT log.
    #[test]
    fn shared_portfolio_unsat_certifies() {
        let spec = cnot_spec().with_depth(2);
        let options = SynthOptions {
            certify: true,
            ..shared_options()
        };
        let o = solve_portfolio_detailed(&spec, &[0, 1], &options).unwrap();
        assert!(o.result.is_unsat());
    }

    fn depth_parallel_options(share: bool) -> SynthOptions {
        SynthOptions {
            depth_parallel: true,
            share_clauses: share,
            parallel_quantum: 20,
            ..SynthOptions::default()
        }
    }

    /// Depth-parallel mode (with and without sharing) agrees with the
    /// sequential walk on the minimum, and both bracketing verdicts
    /// come from the depths' own workers.
    #[test]
    fn depth_parallel_finds_the_same_minimum() {
        let spec = cnot_spec();
        for share in [false, true] {
            let search = find_min_depth(&spec, 2, 5, 4, &depth_parallel_options(share)).unwrap();
            assert_eq!(search.best_depth(), Some(3), "share={share}");
            assert!(search.best.as_ref().unwrap().verified());
            let verdict = |k: usize| {
                search
                    .probes
                    .iter()
                    .find(|p| p.max_k == k)
                    .and_then(|p| p.sat)
            };
            assert_eq!(verdict(2), Some(false), "share={share}");
            assert_eq!(verdict(3), Some(true), "share={share}");
        }
    }

    #[test]
    fn depth_parallel_runs_are_deterministic() {
        let spec = cnot_spec();
        let run = || {
            let s = find_min_depth(&spec, 2, 5, 5, &depth_parallel_options(true)).unwrap();
            let probes: Vec<_> = s
                .probes
                .iter()
                .map(|p| {
                    let st = p.stats.unwrap();
                    (
                        p.max_k,
                        p.sat,
                        st.conflicts,
                        st.propagations,
                        st.imported_clauses,
                        st.imported_kept,
                    )
                })
                .collect();
            (s.best_depth(), probes)
        };
        assert_eq!(run(), run());
    }

    /// Depth-parallel UNSAT verdicts proof-check under `certify`.
    #[test]
    fn depth_parallel_certifies_unsat_depths() {
        let spec = cnot_spec();
        let options = SynthOptions {
            certify: true,
            ..depth_parallel_options(true)
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
        assert_eq!(search.best_depth(), Some(3));
        let p2 = search.probes.iter().find(|p| p.max_k == 2).unwrap();
        assert_eq!(p2.sat, Some(false));
        assert!(p2.certified, "UNSAT depth 2 carries a checked proof");
    }

    /// Depth-parallel reproduces the sequential edge semantics:
    /// starting at the CNOT's invalid depth 1 errors up front, while a
    /// range whose invalid depths are never needed succeeds.
    #[test]
    fn depth_parallel_edge_semantics_match_sequential() {
        let r = find_min_depth(&cnot_spec(), 1, 5, 1, &depth_parallel_options(false));
        assert!(matches!(r, Err(SynthError::Spec(_))));
        let s = find_min_depth(&cnot_spec(), 1, 5, 4, &depth_parallel_options(false)).unwrap();
        assert_eq!(s.best_depth(), Some(3));
    }

    #[test]
    fn port_order_exploration_finds_a_design() {
        let spec = cnot_spec();
        // Identity and the control/target swap are both realizable.
        let perms = vec![vec![0, 1, 2, 3], vec![1, 0, 3, 2]];
        let d = explore_port_orders(&spec, &perms, &SynthOptions::default()).unwrap();
        assert!(d.is_some());
        assert!(d.unwrap().verified());
    }

    fn panic_fault(at: u64, only_seed: Option<u64>) -> Option<sat::FaultPlan> {
        Some(sat::FaultPlan {
            kind: sat::FaultKind::Panic,
            at,
            only_seed,
        })
    }

    /// An expired per-probe budget no longer loses the work done: the
    /// search comes back as an anytime window instead of a bare
    /// Unknown, naming the axis that ran dry.
    #[test]
    fn exhausted_depth_search_returns_an_anytime_window() {
        let spec = cnot_spec();
        // One conflict per probe: the first probe gives up immediately.
        let options = SynthOptions {
            budget: Budget::conflict_limit(1),
            ..SynthOptions::default()
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
        assert_eq!(search.exhaustion, Some(ExhaustionReason::Conflicts));
        assert_eq!(search.window(), (2, None));
        assert_eq!(search.probes.len(), 1);
        assert_eq!(
            search.probes[0].exhaustion,
            Some(ExhaustionReason::Conflicts)
        );

        // The memory governor surfaces the same way.
        let options = SynthOptions {
            budget: Budget::memory_limit_words(1),
            ..SynthOptions::default()
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
        assert_eq!(search.exhaustion, Some(ExhaustionReason::Memory));
        assert_eq!(search.certified_lower_bound(), 2);
    }

    /// A resolved search reports no exhaustion and a closed window.
    #[test]
    fn resolved_depth_search_has_a_closed_window() {
        let search = find_min_depth(&cnot_spec(), 2, 5, 4, &SynthOptions::default()).unwrap();
        assert_eq!(search.exhaustion, None);
        assert_eq!(search.window(), (3, Some(3)));
        assert!(search.quarantined.is_empty());
    }

    /// Regression (crash isolation): a panicking portfolio worker used
    /// to poison the whole solve when its thread was joined. Now the
    /// panic is caught in the worker, the fleet continues, and the
    /// verdict stands.
    #[test]
    fn threaded_portfolio_survives_an_injected_worker_panic() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(0, Some(1)),
            ..SynthOptions::default()
        };
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &options).unwrap();
        assert!(o.result.is_sat());
        // Seed 1 either crashed (quarantined) or was cancelled by the
        // winner before its first conflict; no other worker may crash.
        assert!(o.quarantined.iter().all(|&(seed, _)| seed == 1));
    }

    /// When every worker crashes, the portfolio errors with the first
    /// crash in seed order instead of panicking the caller.
    #[test]
    fn threaded_portfolio_total_crash_is_an_error_not_a_panic() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(0, None),
            ..SynthOptions::default()
        };
        let r = solve_portfolio_detailed(&spec, &[0, 1], &options);
        match r {
            Err(SynthError::WorkerPanic(msg)) => {
                assert!(msg.contains("injected fault"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// The lockstep sharing driver quarantines a crashed worker
    /// deterministically and finishes on the survivors.
    #[test]
    fn shared_portfolio_quarantines_a_crashed_worker() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(1, Some(1)),
            // One conflict per turn: worker 1 crashes on its first
            // turn, before any worker can win.
            parallel_quantum: 1,
            ..shared_options()
        };
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &options).unwrap();
        assert!(o.result.is_sat());
        assert_eq!(o.quarantined.len(), 1);
        assert_eq!(o.quarantined[0].0, 1);
        assert!(o.quarantined[0].1.contains("injected fault"));
        // Survivors (and the casualty's partial work) still report
        // stats into the portfolio total.
        assert!(o.total.expect("stats").propagations > 0);
    }

    /// The depth-parallel fleet keeps the verdicts it already has when
    /// later workers crash: depth 2 resolves UNSAT in its first turn
    /// (1 conflict), then every deeper worker trips the conflict-10
    /// panic — the search still returns, quarantines the casualties
    /// and reports the certified lower bound.
    #[test]
    fn depth_parallel_crash_keeps_the_partial_answer() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(10, None),
            ..depth_parallel_options(false)
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
        let quarantined: Vec<usize> = search.quarantined.iter().map(|&(k, _)| k).collect();
        assert_eq!(quarantined, vec![3, 4, 5]);
        assert_eq!(search.certified_lower_bound(), 3);
        assert_eq!(search.best_depth(), None);
    }

    /// A depth-parallel fleet with no survivors propagates the first
    /// crash (lowest depth) as an error.
    #[test]
    fn depth_parallel_total_crash_is_an_error() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(1, None),
            ..depth_parallel_options(false)
        };
        let r = find_min_depth(&spec, 2, 5, 4, &options);
        match r {
            Err(SynthError::WorkerPanic(msg)) => {
                assert!(msg.contains("depth 2"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// A crashed port-order worker is that permutation's failure, not
    /// the exploration's: the surviving permutation still answers.
    #[test]
    fn port_order_exploration_survives_a_crashed_worker() {
        let spec = cnot_spec();
        let perms = vec![vec![0, 1, 2, 3], vec![1, 0, 3, 2]];
        // The fault fires in every worker; with a high trigger only
        // whoever works longest hits it — and with trigger 0, all do.
        let options = SynthOptions {
            fault_plan: panic_fault(0, None),
            ..SynthOptions::default()
        };
        let r = explore_port_orders(&spec, &perms, &options);
        // All workers crash: the first error surfaces as WorkerPanic
        // (not a caller panic, which the old join would have raised).
        assert!(matches!(r, Err(SynthError::WorkerPanic(_))));
    }
}
