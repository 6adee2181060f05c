//! Spans and per-layer counters of a traced run.
//!
//! Spans are recorded only by the benchmark's own code, around the
//! public calls it makes. Where one call covers several layers, the
//! benchmark adds *derived* child spans whose durations come from what
//! the call returns (probe and solve times) or from timing an inner
//! layer's public function again on the same input; they are laid out
//! one after another from the parent's start. A layer's time is the sum
//! of the self times of its spans.

use sat::SolverStats;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in [`Trace::spans`].
pub type SpanId = usize;

/// One span: a call (or a derived part of one) for one instance.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub instance: usize,
    pub parent: Option<SpanId>,
    /// Seconds since the trace began.
    pub start: f64,
    pub end: f64,
    /// Timed separately or returned by the call, not timed in place.
    pub derived: bool,
}

/// Work counts read from what the public calls return.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub encode_vars: u64,
    pub encode_clauses: u64,
    /// Solver statistics summed over every query, fleet workers included.
    pub solver: SolverStats,
    pub probes: u64,
    pub unsat_probes: u64,
    /// Conflicts of the fleet workers that produced each verdict.
    pub fleet_winner_conflicts: u64,
    /// Conflicts of every fleet worker.
    pub fleet_conflicts: u64,
    /// Time of the certified searches whose proof work `proof` spans cover.
    pub certified_search: Duration,
}

/// An in-memory trace; a disabled one records nothing and costs nothing.
pub struct Trace {
    origin: Option<Instant>,
    pub spans: Vec<Span>,
    pub counters: Counters,
    /// Time spent on side measurements, which the traced wall excludes.
    pub side: Duration,
}

impl Trace {
    pub fn disabled() -> Trace {
        Trace {
            origin: None,
            spans: Vec::new(),
            counters: Counters::default(),
            side: Duration::ZERO,
        }
    }

    pub fn enabled() -> Trace {
        Trace {
            origin: Some(Instant::now()),
            ..Trace::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now(&self) -> f64 {
        self.origin.map_or(0.0, |o| o.elapsed().as_secs_f64())
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, instance: usize, parent: Option<SpanId>) -> SpanId {
        if !self.is_enabled() {
            return SpanId::MAX;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            instance,
            parent,
            start,
            end: start,
            derived: false,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.is_enabled() {
            self.spans[id].end = self.now();
        }
    }

    /// Adds derived children of `parent`, one per `(name, duration)`, laid
    /// out back to back from the parent's start.
    pub fn derive(&mut self, parent: SpanId, parts: &[(&'static str, Duration)]) {
        if !self.is_enabled() {
            return;
        }
        let (instance, mut at) = (self.spans[parent].instance, self.spans[parent].start);
        for &(name, duration) in parts {
            let end = at + duration.as_secs_f64();
            self.spans.push(Span {
                name,
                instance,
                parent: Some(parent),
                start: at,
                end,
                derived: true,
            });
            at = end;
        }
    }

    /// Self time per layer: each span's duration minus its children's,
    /// summed by the layer [`layer_of`] assigns to the span.
    pub fn layer_seconds(&self, layer: &str) -> f64 {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        self.spans
            .iter()
            .zip(&child_time)
            .filter(|(span, _)| layer_of(span.name) == layer)
            .map(|(span, children)| span.end - span.start - children)
            .sum()
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"instance\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"derived\":{}}}",
                s.name, s.instance, s.start, s.end, s.derived
            )?;
        }
        out.flush()
    }
}

/// The layer a span's self time belongs to. A call span's self time is
/// what its derived children leave over: for `Synthesizer::run` that is
/// decoding, for `find_min_depth` the driver itself (session set-up and
/// probe bookkeeping), and for `solve_portfolio_detailed`
/// the lockstep solving, which the call reports no time for (so its
/// decoding and scheduling count as solver time there).
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "synth.new" | "encode" => "encode",
        "synth.run" | "decode" => "decode",
        "optimize.find_min_depth" => "optimize",
        "optimize.solve_portfolio_detailed" | "solver" => "solver",
        "proof" => "proof",
        "validate" => "validate",
        "verify" => "verify",
        _ => "bench",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::enabled();
        let call = t.begin("synth.run", 0, None);
        t.spans[call].end = t.spans[call].start + 1.0;
        t.derive(
            call,
            &[
                ("solver", Duration::from_millis(600)),
                ("verify", Duration::from_millis(100)),
            ],
        );
        assert!((t.layer_seconds("decode") - 0.3).abs() < 1e-9);
        assert!((t.layer_seconds("solver") - 0.6).abs() < 1e-9);
        assert!((t.layer_seconds("verify") - 0.1).abs() < 1e-9);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        let id = t.begin("synth.new", 0, None);
        t.end(id);
        t.derive(id, &[("solver", Duration::from_secs(1))]);
        assert!(t.spans.is_empty());
    }
}
