//! Running instances: the timed public call, the correctness checks,
//! and in a traced run the split of the call into layers.

use crate::instances::{Instance, Query, FLEET_SEEDS};
use crate::trace::{SpanId, Trace};
use lasre::{LasDesign, LasSpec};
use sat::{Backend, Budget, CdclSolver, SolveOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::decode::decode_layered;
use synth::encode::{encode, encode_layered, LayeredEncoding};
use synth::optimize::{find_min_depth, solve_portfolio_detailed, DepthSearch};
use synth::{SynthError, SynthOptions, SynthResult, Synthesizer};

/// The Fig. 13 depth search: range 1..=8, starting at depth 3.
const DEPTH_LO: usize = 1;
const DEPTH_HI: usize = 8;
const DEPTH_START: usize = 3;

/// Conflict cap of every query (per depth probe, per one-shot solve, per
/// fleet worker): 5.8× the largest count a query needs on the default
/// and held-out instance lists (171,919, a depth-3 probe of the held-out
/// Fig. 13 set), so a decided instance stays decided exactly.
pub const CONFLICT_CAP: u64 = 1_000_000;

/// Limits every query runs under: [`CONFLICT_CAP`], and a stop flag a
/// watchdog raises when the run's wall deadline passes.
#[derive(Default)]
pub struct Guard {
    pub stop: Arc<AtomicBool>,
}

impl Guard {
    fn options(&self) -> SynthOptions {
        SynthOptions {
            budget: Budget {
                max_conflicts: Some(CONFLICT_CAP),
                stop: Some(Arc::clone(&self.stop)),
                ..Budget::default()
            },
            ..SynthOptions::default()
        }
    }

    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// What a rerun of an instance must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub verdict: String,
    /// Conflicts of each query: per depth probe, per solve, per fleet
    /// worker.
    pub conflicts: Vec<u64>,
}

/// One instance's result.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub id: usize,
    /// Time to verdict: the public call, from entry to return.
    pub time: Duration,
    /// The query reached a verdict within its conflict cap.
    pub decided: bool,
    /// Why the instance failed, if it did.
    pub failure: Option<String>,
    pub fingerprint: Fingerprint,
}

/// One pass over an instance list.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass, less side measurements in a traced pass.
    pub wall: Duration,
    pub outcomes: Vec<Outcome>,
}

/// Runs every instance once, in order, one at a time; the pass's wall
/// time excludes a traced pass's side measurements.
pub fn run_pass(instances: &[Instance], guard: &Guard, trace: &mut Trace) -> Pass {
    let side_before = trace.side;
    let started = Instant::now();
    let outcomes = instances
        .iter()
        .map(|inst| run_instance(inst, guard, trace))
        .collect();
    Pass {
        wall: started.elapsed().saturating_sub(trace.side - side_before),
        outcomes,
    }
}

/// Runs one instance and checks its answer.
pub fn run_instance(inst: &Instance, guard: &Guard, trace: &mut Trace) -> Outcome {
    let root = trace.begin("instance", inst.id, None);
    let mut outcome = match &inst.query {
        Query::MinDepth {
            spec,
            baseline_volume,
        } => min_depth(inst.id, spec, *baseline_volume, guard, trace, root),
        Query::Oneshot { spec } => oneshot(inst.id, spec, guard, trace, root),
        Query::Fleet { spec } => fleet(inst.id, spec, guard, trace, root),
    };
    if outcome.failure.is_none() && !outcome.decided {
        outcome.failure = Some("undecided within the conflict cap or wall deadline".into());
    }
    eprintln!(
        "instance {:>2} {:<40} {:>9.3} s  {}  conflicts {:?}",
        inst.id,
        inst.spec().name,
        outcome.time.as_secs_f64(),
        outcome.fingerprint.verdict,
        outcome.fingerprint.conflicts
    );
    outcome
}

/// Runs `call`, turning a panic into an error message.
fn guarded<T>(call: impl FnOnce() -> Result<T, SynthError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".into(),
            },
        }),
    }
}

/// A SAT design must be free of validity violations and verified.
fn design_failure(design: &LasDesign) -> Option<String> {
    let violations = lasre::check_validity(design);
    if !violations.is_empty() {
        return Some(format!("{} validity violations", violations.len()));
    }
    (!design.verified()).then(|| "design not verified".into())
}

/// Times `f`, charging the time to the trace's side measurements.
fn side<T>(trace: &mut Trace, f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let v = f();
    let time = started.elapsed();
    trace.side += time;
    (v, time)
}

/// Times `check_validity` and `verify` on a design, as side work.
fn time_checks(trace: &mut Trace, design: &LasDesign) -> (Duration, Duration) {
    let (_, validate) = side(trace, || lasre::check_validity(design));
    let (_, verify) = side(trace, || synth::verify::verify(design));
    (validate, verify)
}

fn failed(id: usize, time: Duration, failure: String) -> Outcome {
    Outcome {
        id,
        time,
        decided: false,
        failure: Some(failure),
        fingerprint: Fingerprint {
            verdict: "failed".into(),
            conflicts: Vec::new(),
        },
    }
}

fn search(spec: &LasSpec, options: &SynthOptions) -> Result<DepthSearch, String> {
    guarded(|| find_min_depth(spec, DEPTH_LO, DEPTH_HI, DEPTH_START, options))
}

fn probe_conflicts(search: &DepthSearch) -> Vec<u64> {
    search
        .probes
        .iter()
        .map(|p| p.stats.map_or(0, |s| s.conflicts))
        .collect()
}

/// `graph-depth`: the certified minimum-depth search of one graph state.
fn min_depth(
    id: usize,
    spec: &LasSpec,
    baseline_volume: usize,
    guard: &Guard,
    trace: &mut Trace,
    root: SpanId,
) -> Outcome {
    let options = SynthOptions {
        certify: true,
        ..guard.options()
    };
    let call = trace.begin("optimize.find_min_depth", id, Some(root));
    let started = Instant::now();
    let result = search(spec, &options);
    let time = started.elapsed();
    trace.end(call);
    trace.end(root);
    let found = match result {
        Ok(found) => found,
        Err(e) => return failed(id, time, e),
    };
    let conflicts = probe_conflicts(&found);
    let (lower, best) = found.window();
    let decided = found.probes.iter().all(|p| p.sat.is_some());
    let failure = if let Some(p) = found
        .probes
        .iter()
        .find(|p| p.sat == Some(false) && !p.certified)
    {
        Some(format!("uncertified UNSAT probe at depth {}", p.max_k))
    } else if let Some(design) = &found.best {
        let volume = design.spec().max_i * design.spec().max_j * design.spec().max_k;
        if decided && best != Some(lower) {
            Some(format!("window did not close: [{lower}, {best:?}]"))
        } else if volume > baseline_volume {
            Some(format!("LaS volume {volume} > baseline {baseline_volume}"))
        } else {
            design_failure(design)
        }
    } else {
        decided.then(|| format!("no design at depths {DEPTH_LO}..={DEPTH_HI}"))
    };
    let failure = if trace.is_enabled() && decided {
        failure.or_else(|| split_min_depth(spec, &found, guard, trace, call))
    } else {
        failure
    };
    Outcome {
        id,
        time,
        decided,
        failure,
        fingerprint: Fingerprint {
            verdict: format!("depth {best:?} lower {lower}"),
            conflicts,
        },
    }
}

/// Splits a traced certified search into layers: encoding (timed again
/// on the same spec), solving (the probe times of the same search run
/// uncertified), proof work (certified minus uncertified search time),
/// decoding (timed again at each SAT probe's depth), and validation and
/// verification (timed on the best design, once per SAT probe, as each
/// SAT probe runs both on its own design). Returns a failure if the
/// uncertified search took different conflicts.
fn split_min_depth(
    spec: &LasSpec,
    found: &DepthSearch,
    guard: &Guard,
    trace: &mut Trace,
    call: SpanId,
) -> Option<String> {
    let certified_time = trace.spans[call].end - trace.spans[call].start;
    let plain_options = guard.options();
    let (plain, plain_time) = side(trace, || search(spec, &plain_options));
    let plain = match plain {
        Ok(plain) => plain,
        Err(e) => return Some(format!("uncertified rerun: {e}")),
    };
    if probe_conflicts(&plain) != probe_conflicts(found) {
        return Some("certification changed the search's conflicts".into());
    }
    // Every search opens a session over depths 1..=3; one whose first
    // probe is UNSAT ascends into a second session over 4..=8.
    let mut ranges = vec![(DEPTH_LO, DEPTH_START)];
    if found.probes.first().is_some_and(|p| p.sat == Some(false)) {
        ranges.push((DEPTH_START + 1, DEPTH_HI));
    }
    let mut parts = Vec::new();
    let mut sessions = Vec::new();
    for (lo, hi) in ranges {
        let (layered, time) = side(trace, || encode_layered(spec, lo, hi));
        if let Ok(layered) = layered {
            trace.counters.encode_vars += layered.encoding.stats.num_vars as u64;
            trace.counters.encode_clauses += layered.encoding.stats.num_clauses as u64;
            sessions.push(layered);
        }
        parts.push(("encode", time));
    }
    parts.extend(plain.probes.iter().map(|p| ("solver", p.time)));
    for probe in found.probes.iter().filter(|p| p.sat == Some(true)) {
        match time_decode(spec, &sessions, probe.max_k, guard, trace) {
            Ok(time) => parts.push(("decode", time)),
            Err(e) => return Some(e),
        }
    }
    parts.push((
        "proof",
        Duration::from_secs_f64((certified_time - plain_time.as_secs_f64()).max(0.0)),
    ));
    if let Some(design) = &found.best {
        let (validate, verify) = time_checks(trace, design);
        for _ in found.probes.iter().filter(|p| p.sat == Some(true)) {
            parts.push(("validate", validate));
            parts.push(("verify", verify));
        }
    }
    trace.derive(call, &parts);
    let c = &mut trace.counters;
    for p in &found.probes {
        if let Some(stats) = p.stats {
            c.solver = c.solver.merged(stats);
        }
    }
    c.probes += found.probes.len() as u64;
    c.unsat_probes += found.probes.iter().filter(|p| p.sat == Some(false)).count() as u64;
    c.certified_search += Duration::from_secs_f64(certified_time);
    None
}

/// Times `decode_layered` at a SAT probe's depth, as side work, on a
/// model of the same session's CNF under the same depth assumptions: a
/// fresh solver gives one, as the search returns only the decoded design.
fn time_decode(
    spec: &LasSpec,
    sessions: &[LayeredEncoding],
    depth: usize,
    guard: &Guard,
    trace: &mut Trace,
) -> Result<Duration, String> {
    let layered = sessions
        .iter()
        .find(|l| (l.lo..=l.hi).contains(&depth))
        .ok_or_else(|| format!("no session encodes depth {depth}"))?;
    let (outcome, _) = side(trace, || {
        CdclSolver::default().solve_with(
            &layered.encoding.cnf,
            &layered.assumptions_for(depth),
            &guard.options().budget,
        )
    });
    let SolveOutcome::Sat(model) = outcome else {
        return Err(format!(
            "depth {depth} was SAT in the search, not on a rerun"
        ));
    };
    let (_, time) = side(trace, || decode_layered(layered, spec, depth, &model));
    Ok(time)
}

/// `oneshot-solve`: one `Synthesizer::new` + `run()`.
fn oneshot(id: usize, spec: &LasSpec, guard: &Guard, trace: &mut Trace, root: SpanId) -> Outcome {
    let spec = spec.clone();
    let options = guard.options();
    let mut run_span = SpanId::MAX;
    let started = Instant::now();
    let result = guarded(|| {
        let new = trace.begin("synth.new", id, Some(root));
        let synth = Synthesizer::new(spec);
        trace.end(new);
        let mut synth = synth?.with_options(options);
        run_span = trace.begin("synth.run", id, Some(root));
        let result = synth.run();
        trace.end(run_span);
        Ok((synth, result?))
    });
    let time = started.elapsed();
    trace.end(root);
    let (synth, result) = match result {
        Ok(v) => v,
        Err(e) => return failed(id, time, e),
    };
    let stats = synth.last_solver_stats().unwrap_or_default();
    let (decided, failure) = match &result {
        SynthResult::Sat(design) => (true, design_failure(design)),
        SynthResult::Unsat => (true, Some("UNSAT, expected SAT".into())),
        SynthResult::Unknown => (false, None),
    };
    if trace.is_enabled() {
        let mut parts = vec![("solver", synth.last_solve_time().unwrap_or_default())];
        if let SynthResult::Sat(design) = &result {
            let (validate, verify) = time_checks(trace, design);
            parts.push(("validate", validate));
            parts.push(("verify", verify));
        }
        trace.derive(run_span, &parts);
        let c = &mut trace.counters;
        c.encode_vars += synth.stats().num_vars as u64;
        c.encode_clauses += synth.stats().num_clauses as u64;
        c.solver = c.solver.merged(stats);
    }
    Outcome {
        id,
        time,
        decided,
        failure,
        fingerprint: Fingerprint {
            verdict: verdict_name(&result).into(),
            conflicts: vec![stats.conflicts],
        },
    }
}

/// `tfactory-fleet`: the two-worker lockstep clause-sharing fleet.
fn fleet(id: usize, spec: &LasSpec, guard: &Guard, trace: &mut Trace, root: SpanId) -> Outcome {
    let options = SynthOptions {
        share_clauses: true,
        ..guard.options()
    };
    let call = trace.begin("optimize.solve_portfolio_detailed", id, Some(root));
    let started = Instant::now();
    let result = guarded(|| solve_portfolio_detailed(spec, &FLEET_SEEDS, &options));
    let time = started.elapsed();
    trace.end(call);
    trace.end(root);
    let out = match result {
        Ok(out) => out,
        Err(e) => return failed(id, time, e),
    };
    let conflicts: Vec<u64> = out
        .worker_stats
        .iter()
        .map(|(_, s)| s.map_or(0, |s| s.conflicts))
        .collect();
    let (decided, mut failure) = match &out.result {
        SynthResult::Sat(design) => (true, design_failure(design)),
        SynthResult::Unsat => (true, Some("UNSAT, expected SAT".into())),
        SynthResult::Unknown => (false, None),
    };
    if !out.quarantined.is_empty() {
        failure = Some(format!("{} fleet workers crashed", out.quarantined.len()));
    }
    if trace.is_enabled() {
        let (encoding, encode_time) = side(trace, || encode(spec));
        if let Ok(encoding) = encoding {
            trace.counters.encode_vars += encoding.stats.num_vars as u64;
            trace.counters.encode_clauses += encoding.stats.num_clauses as u64;
        }
        let mut parts = vec![("encode", encode_time)];
        if let SynthResult::Sat(design) = &out.result {
            let (validate, verify) = time_checks(trace, design);
            parts.push(("validate", validate));
            parts.push(("verify", verify));
        }
        trace.derive(call, &parts);
        let c = &mut trace.counters;
        let total = out.total.unwrap_or_default();
        c.solver = c.solver.merged(total);
        c.probes += FLEET_SEEDS.len() as u64;
        c.fleet_winner_conflicts += out.stats.map_or(0, |s| s.conflicts);
        c.fleet_conflicts += total.conflicts;
    }
    Outcome {
        id,
        time,
        decided,
        failure,
        fingerprint: Fingerprint {
            verdict: format!("{} by {:?}", verdict_name(&out.result), out.winner_seed),
            conflicts,
        },
    }
}

fn verdict_name(result: &SynthResult) -> &'static str {
    match result {
        SynthResult::Sat(_) => "sat",
        SynthResult::Unsat => "unsat",
        SynthResult::Unknown => "unknown",
    }
}
