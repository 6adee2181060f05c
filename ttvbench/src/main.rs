//! `ttvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--instance-seed <n>]`
//!
//! Runs one workload's fixed instance list, one instance at a time, in
//! an order permuted by `--seed`. Untraced, it runs the list a fixed
//! number of times ([`Workload::passes`], sized to `run_seconds` in
//! `BENCHMARK.json`; `--seconds` does not change the work) and prints
//! the end-to-end metrics; traced, it runs the list once untraced and
//! once traced and prints the per-layer metrics. The last line of
//! standard output is the JSON result.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use ttvbench::instances::{generate, shuffle, Instance, Workload, DEFAULT_INSTANCE_SEED};
use ttvbench::report::{cpu_seconds, fastest, median, peak_rss_mib, print_result, tail, Metric};
use ttvbench::run::{run_pass, Guard, Pass, CONFLICT_CAP};
use ttvbench::trace::Trace;

const USAGE: &str = "usage: ttvbench --workload <graph-depth|oneshot-solve|tfactory-fleet> \
--seed <n> --seconds <s> --trace <0|1> [--instance-seed <n>]";

/// After this long every query is cancelled and the rest of the run
/// counts as failed, so a runaway regression still ends well inside the
/// three minutes a run may take.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// Back-to-back generations per `setup_s` sample; see [`time_generation`].
const SETUP_BATCH: usize = 1000;

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    instance_seed: u64,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut instance_seed = DEFAULT_INSTANCE_SEED;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--instance-seed" => instance_seed = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        instance_seed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ttvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let guard = Guard::default();
    let (done, wait) = mpsc::channel::<()>();
    let result = std::thread::scope(|scope| {
        let stop = Arc::clone(&guard.stop);
        scope.spawn(move || {
            if wait.recv_timeout(RUN_DEADLINE) == Err(mpsc::RecvTimeoutError::Timeout) {
                stop.store(true, Ordering::Relaxed);
            }
        });
        let result = measure(&args, &guard);
        drop(done);
        result
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ttvbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One `setup_s` sample: the time of one generation of the instance
/// list, from [`SETUP_BATCH`] back-to-back generations. One generation
/// takes well under a millisecond, too short to time alone. A run takes
/// a sample before its first pass and after every pass, and reports the
/// median: the samples then span the run, as the pass timings do,
/// instead of catching the machine in one moment.
fn time_generation(args: &Args) -> f64 {
    let started = Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(generate(args.workload, args.instance_seed));
    }
    started.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

fn measure(args: &Args, guard: &Guard) -> std::io::Result<()> {
    let mut instances = generate(args.workload, args.instance_seed);
    shuffle(&mut instances, args.seed);
    println!(
        "{}: {} instances, instance seed {}, order seed {}, conflict cap {} per query",
        args.workload.name(),
        instances.len(),
        args.instance_seed,
        args.seed,
        CONFLICT_CAP
    );
    if args.trace {
        traced(args, guard, &instances)
    } else {
        untraced(args, guard, &instances);
        Ok(())
    }
}

/// Counts failures; a pass after the first must reproduce the first
/// pass's verdicts and per-query conflicts exactly.
fn failures(passes: &[Pass]) -> usize {
    let first = &passes[0];
    let mut failed = 0;
    for pass in passes {
        for (o, reference) in pass.outcomes.iter().zip(&first.outcomes) {
            let failure = o.failure.clone().or_else(|| {
                (o.fingerprint != reference.fingerprint).then(|| {
                    format!(
                        "rerun changed the verdict or conflicts: {:?} vs {:?}",
                        o.fingerprint, reference.fingerprint
                    )
                })
            });
            if let Some(f) = failure {
                eprintln!("FAILED instance {}: {f}", o.id);
                failed += 1;
            }
        }
    }
    failed
}

fn untraced(args: &Args, guard: &Guard, instances: &[Instance]) {
    let started = Instant::now();
    let mut setup = vec![time_generation(args)];
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < args.workload.passes() && !guard.stopped() {
        passes.push(run_pass(instances, guard, &mut Trace::disabled()));
        setup.push(time_generation(args));
    }
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > args.seconds as f64 {
        eprintln!(
            "note: {} passes took {elapsed:.1} s, more than --seconds {}",
            passes.len(),
            args.seconds
        );
    }
    let failed = failures(&passes);
    let attempted = instances.len() * passes.len();
    let decided = passes
        .iter()
        .flat_map(|p| &p.outcomes)
        .filter(|o| o.decided)
        .count();
    // Every pass does bit-identical work (`failures` checks it), so what
    // differs between passes is interference from the rest of the
    // machine, which only ever adds time: each timing is the fastest pass.
    let per_instance: Vec<f64> = (0..instances.len())
        .map(|j| fastest(passes.iter().map(|p| p.outcomes[j].time)))
        .collect();
    let (tail_s, tail_pct) = tail(&per_instance);
    let conflicts: u64 = passes[0]
        .outcomes
        .iter()
        .flat_map(|o| &o.fingerprint.conflicts)
        .sum();
    println!(
        "{} passes; wall_s and per-instance times are the fastest pass; \
verdict_tail_s is p{tail_pct:.0} of {} instances",
        passes.len(),
        instances.len()
    );
    let metrics = [
        Metric::new("wall_s", fastest(passes.iter().map(|p| p.wall)), "s"),
        Metric::new("verdict_p50_s", median(&per_instance), "s"),
        Metric::new("verdict_tail_s", tail_s, "s"),
        Metric::new("decided_frac", decided as f64 / attempted as f64, "ratio"),
        Metric::new("conflicts", conflicts as f64, "count"),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
        Metric::new("setup_s", median(&setup), "s"),
    ];
    print_result(failed == 0, attempted, failed, &metrics);
}

fn traced(args: &Args, guard: &Guard, instances: &[Instance]) -> std::io::Result<()> {
    let mut setup = vec![time_generation(args)];
    let cpu_before = cpu_seconds();
    let plain = run_pass(instances, guard, &mut Trace::disabled());
    let cpu_s = cpu_seconds() - cpu_before;
    setup.push(time_generation(args));
    let mut trace = Trace::enabled();
    let traced = run_pass(instances, guard, &mut trace);
    setup.push(time_generation(args));
    let overhead_s = traced.wall.as_secs_f64() - plain.wall.as_secs_f64();
    let failed = failures(&[plain, traced]);
    let path = std::path::Path::new(TRACE_DIR).join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    trace.write_spans(&path)?;
    println!(
        "{} spans written to {}; proof/exchange/optimize/decode metrics read 0 where the workload does not use that layer",
        trace.spans.len(),
        path.display()
    );
    let c = trace.counters;
    let s = c.solver;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let proof_s = trace.layer_seconds("proof");
    let count = |name, v: u64| Metric::new(name, v as f64, "count");
    let seconds = |name, v: f64| Metric::new(name, v, "s");
    let metrics = [
        seconds("workloads.gen_s", median(&setup)),
        seconds("encode.s", trace.layer_seconds("encode")),
        count("encode.vars", c.encode_vars),
        count("encode.clauses", c.encode_clauses),
        seconds("solver.s", trace.layer_seconds("solver")),
        count("solver.conflicts", s.conflicts),
        count("solver.learned", s.learned),
        count("solver.missed_implications", s.missed_implications),
        count("solver.propagations", s.propagations),
        Metric::new(
            "solver.props_per_conflict",
            ratio(s.propagations as f64, s.conflicts as f64),
            "ratio",
        ),
        count("solver.decisions", s.decisions),
        count("solver.restarts", s.restarts),
        count("solver.deleted", s.deleted),
        count("solver.gc_passes", s.gc_passes),
        count("solver.eliminated_vars", s.eliminated_vars),
        count("solver.elim_resolvents", s.elim_resolvents),
        count("solver.probed_literals", s.probed_literals),
        count("solver.failed_literals", s.failed_literals),
        count("solver.vivified_lits", s.vivified_lits),
        count("solver.subsumed_clauses", s.subsumed_clauses),
        count("solver.chrono_backtracks", s.chrono_backtracks),
        seconds("proof.s", proof_s),
        Metric::new(
            "proof.share",
            ratio(proof_s, c.certified_search.as_secs_f64()),
            "ratio",
        ),
        count("exchange.exported", s.exported_clauses),
        count("exchange.imported", s.imported_clauses),
        count("exchange.kept", s.imported_kept),
        Metric::new(
            "exchange.kept_frac",
            ratio(s.imported_kept as f64, s.imported_clauses as f64),
            "ratio",
        ),
        count("optimize.probes", c.probes),
        count("optimize.unsat_probes", c.unsat_probes),
        seconds("optimize.self_s", trace.layer_seconds("optimize")),
        Metric::new(
            "optimize.fleet_useful_frac",
            ratio(c.fleet_winner_conflicts as f64, c.fleet_conflicts as f64),
            "ratio",
        ),
        seconds("decode.s", trace.layer_seconds("decode")),
        seconds("validate.s", trace.layer_seconds("validate")),
        seconds("verify.s", trace.layer_seconds("verify")),
        seconds("proc.cpu_s", cpu_s),
        seconds("trace.overhead_s", overhead_s),
    ];
    print_result(failed == 0, 2 * instances.len(), failed, &metrics);
    Ok(())
}
