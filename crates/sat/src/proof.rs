//! DRAT proof logging and backward, core-first checking.
//!
//! The solver (when proof logging is enabled) records every clause it
//! ever holds as one of three step kinds:
//!
//! * [`StepKind::AddInput`] — a clause the caller asserted
//!   (`add_clause`/`load_cnf`). Inputs are axioms: the checker admits
//!   them without justification.
//! * [`StepKind::AddDerived`] — a clause the solver claims follows
//!   from the clauses currently live: 1UIP learnts, root units from
//!   failed-literal probing, strengthened/vivified replacements, BVE
//!   resolvents, eliminated-clause restorations, and the terminal
//!   empty clause (root UNSAT) or negated-assumption core
//!   (UNSAT under assumptions). The checker verifies one by RUP —
//!   assume the negation, unit-propagate, demand a conflict — falling
//!   back to RAT on the first literal (the `drat-trim` convention),
//!   which is what justifies re-adding clauses whose pivot variable
//!   was eliminated by BVE.
//! * [`StepKind::Delete`] — a clause removed from the live set
//!   (`reduce_db`, subsumption, strengthening/vivification originals,
//!   BVE occurrence deletion). Deletions matter for soundness of the
//!   RAT checks, so the in-tree checker applies them strictly: a
//!   deletion that names a clause not currently live is rejected.
//!
//! The checker works as `drat-trim` does (Wetzler, Heule & Hunt, SAT
//! 2014). A forward pass replays every step without RUP checks,
//! propagating root units and recording the root trail's length per
//! step. A backward pass then undoes the steps from the last to the
//! first — removing lemmas, reviving deleted clauses, truncating the
//! root trail — so each lemma is checked against exactly the clauses
//! live just before it. Root assignments are never retracted by a
//! deletion (the `drat-trim` convention).
//!
//! Which lemmas are checked depends on the entry point:
//!
//! * [`certify_unsat`] checks only the *core*: the refutation (the
//!   root conflict, or the final negated-assumption-core clause) is
//!   marked, and each successful check marks every clause its
//!   conflict analysis reaches — root-unit reasons and RAT partners
//!   included. A lemma no refutation path uses is never checked, so an
//!   unsound but unused lemma does not fail certification. An
//!   incremental session's log holds every earlier probe's lemmas;
//!   certifying one UNSAT probe checks only the part it relies on.
//! * [`check`] marks every derived step up to the refutation, so it
//!   rejects any unsound derivation, reported at the earliest step.
//!
//! [`CheckReport::derived_checked`] counts the lemmas each mode
//! checked. No dependency graph is stored: marks are set on the fly.
//!
//! The in-memory log is self-contained (inputs interleaved with
//! derivations, so an incremental session's growing formula is
//! captured exactly). For interop with external `drat-trim`, the
//! derivation/deletion steps alone serialize to standard text or
//! binary DRAT ([`ProofLog::write_drat`]) to be checked against a
//! DIMACS file holding the inputs.

use crate::{Cnf, Lit};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};

/// The role of one proof step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepKind {
    /// Caller-asserted clause; admitted without checking.
    AddInput,
    /// Solver-derived clause; must pass RUP or first-literal RAT.
    AddDerived,
    /// Removal of a live clause.
    Delete,
}

/// An append-only clause-level proof trace.
///
/// Stored flat (one literal pool plus per-step bounds) so logging a
/// step is two `Vec` appends and no per-step allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProofLog {
    kinds: Vec<StepKind>,
    /// `ends[i]` = one past the last literal of step `i` in `lits`.
    ends: Vec<u32>,
    lits: Vec<Lit>,
    /// A frozen log silently drops every later step — the
    /// truncated-proof fault (a crashed writer, a full disk). The
    /// checker must then reject the log for lacking a refutation;
    /// nothing downstream may trust a frozen log.
    frozen: bool,
}

impl ProofLog {
    /// An empty proof.
    pub fn new() -> ProofLog {
        ProofLog::default()
    }

    fn push(&mut self, kind: StepKind, lits: &[Lit]) {
        if self.frozen {
            return;
        }
        self.lits.extend_from_slice(lits);
        self.ends.push(self.lits.len() as u32);
        self.kinds.push(kind);
    }

    /// Freezes the log: every later `add_input`/`add_derived`/`delete`
    /// is dropped, simulating a truncated proof. Irreversible.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether the log was frozen (truncated) mid-run.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Records a caller-asserted clause.
    pub fn add_input(&mut self, lits: &[Lit]) {
        self.push(StepKind::AddInput, lits);
    }

    /// Records a solver-derived clause (RUP/RAT obligation).
    pub fn add_derived(&mut self, lits: &[Lit]) {
        self.push(StepKind::AddDerived, lits);
    }

    /// Records the removal of a live clause.
    pub fn delete(&mut self, lits: &[Lit]) {
        self.push(StepKind::Delete, lits);
    }

    /// Number of steps recorded.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the proof is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The `i`-th step.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn step(&self, i: usize) -> (StepKind, &[Lit]) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        let hi = self.ends[i] as usize;
        (self.kinds[i], &self.lits[lo..hi])
    }

    /// Iterates over `(kind, clause)` steps in order.
    pub fn iter(&self) -> impl Iterator<Item = (StepKind, &[Lit])> + '_ {
        (0..self.len()).map(move |i| self.step(i))
    }

    /// The multiset of clauses currently live in the proof, keyed by
    /// sorted literal list, with a (possibly zero or negative, if the
    /// log is inconsistent) occurrence count. Used by the audit layer
    /// to cross-check the solver's live arena against the log.
    pub fn live_multiset(&self) -> HashMap<Vec<Lit>, i64> {
        let mut live: HashMap<Vec<Lit>, i64> = HashMap::new();
        for (kind, lits) in self.iter() {
            let mut key = lits.to_vec();
            key.sort_unstable();
            let delta = match kind {
                StepKind::AddInput | StepKind::AddDerived => 1,
                StepKind::Delete => -1,
            };
            *live.entry(key).or_insert(0) += delta;
        }
        live
    }

    /// Builds a self-contained log from a CNF (the inputs) followed by
    /// a DRAT proof in text or binary format (auto-detected).
    pub fn from_cnf_and_drat(cnf: &Cnf, drat: &[u8]) -> Result<ProofLog, ParseError> {
        let mut log = ProofLog::new();
        for clause in cnf.iter() {
            log.add_input(clause);
        }
        parse_drat(drat, &mut log)?;
        Ok(log)
    }

    /// Serializes the derivation and deletion steps (inputs belong to
    /// the DIMACS file, not the proof) as DRAT, binary or text.
    pub fn write_drat<W: Write>(&self, out: &mut W, binary: bool) -> io::Result<()> {
        for (kind, lits) in self.iter() {
            match kind {
                StepKind::AddInput => continue,
                StepKind::AddDerived => {
                    if binary {
                        out.write_all(b"a")?;
                    }
                }
                StepKind::Delete => {
                    if binary {
                        out.write_all(b"d")?;
                    } else {
                        out.write_all(b"d ")?;
                    }
                }
            }
            if binary {
                for &l in lits {
                    write_vbyte(out, binary_code(l))?;
                }
                out.write_all(&[0])?;
            } else {
                let mut line = String::new();
                for &l in lits {
                    line.push_str(&l.to_dimacs().to_string());
                    line.push(' ');
                }
                line.push_str("0\n");
                out.write_all(line.as_bytes())?;
            }
        }
        Ok(())
    }
}

/// Binary-DRAT literal code: `2|l|` for positive, `2|l|+1` for
/// negative, on the DIMACS numbering.
fn binary_code(l: Lit) -> u64 {
    let d = l.to_dimacs();
    (d.unsigned_abs() << 1) | u64::from(d < 0)
}

fn write_vbyte<W: Write>(out: &mut W, mut x: u64) -> io::Result<()> {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.write_all(&[byte])?;
            return Ok(());
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// A malformed DRAT file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed DRAT proof: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses a DRAT proof (text or binary, auto-detected) into `log`.
fn parse_drat(bytes: &[u8], log: &mut ProofLog) -> Result<(), ParseError> {
    // Text DRAT only ever contains digits, signs, whitespace, and the
    // 'd'/'c' markers; binary DRAT always contains a 0x00 terminator.
    let is_text = bytes
        .iter()
        .all(|&b| b.is_ascii_digit() || b" \t\r\n-dc".contains(&b));
    if is_text {
        parse_drat_text(bytes, log)
    } else {
        parse_drat_binary(bytes, log)
    }
}

fn parse_drat_text(bytes: &[u8], log: &mut ProofLog) -> Result<(), ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ParseError(e.to_string()))?;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (delete, rest) = match line.strip_prefix('d') {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_whitespace() {
            let d: i64 = tok
                .parse()
                .map_err(|_| ParseError(format!("line {}: bad literal {tok:?}", lineno + 1)))?;
            if d == 0 {
                terminated = true;
                break;
            }
            lits.push(Lit::from_dimacs(d));
        }
        if !terminated {
            return Err(ParseError(format!(
                "line {}: missing 0 terminator",
                lineno + 1
            )));
        }
        if delete {
            log.delete(&lits);
        } else {
            log.add_derived(&lits);
        }
    }
    Ok(())
}

fn parse_drat_binary(bytes: &[u8], log: &mut ProofLog) -> Result<(), ParseError> {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let marker = bytes[pos];
        pos += 1;
        let delete = match marker {
            b'a' => false,
            b'd' => true,
            _ => {
                return Err(ParseError(format!(
                    "byte {}: expected 'a' or 'd' marker, got 0x{marker:02x}",
                    pos - 1
                )))
            }
        };
        let mut lits = Vec::new();
        loop {
            let (code, next) = read_vbyte(bytes, pos)?;
            pos = next;
            if code == 0 {
                break;
            }
            let var = code >> 1;
            if var == 0 || var > i64::MAX as u64 {
                return Err(ParseError(format!("byte {pos}: bad literal code {code}")));
            }
            let d = if code & 1 == 1 {
                -(var as i64)
            } else {
                var as i64
            };
            lits.push(Lit::from_dimacs(d));
        }
        if delete {
            log.delete(&lits);
        } else {
            log.add_derived(&lits);
        }
    }
    Ok(())
}

fn read_vbyte(bytes: &[u8], mut pos: usize) -> Result<(u64, usize), ParseError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(pos) else {
            return Err(ParseError("truncated variable-byte literal".into()));
        };
        pos += 1;
        if shift >= 63 {
            return Err(ParseError("variable-byte literal overflows u64".into()));
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok((x, pos));
        }
        shift += 7;
    }
}

/// A proof step the checker rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckError {
    /// Index of the offending step, when attributable to one.
    pub step: Option<usize>,
    /// Human-readable rejection reason.
    pub reason: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(i) => write!(f, "proof rejected at step {i}: {}", self.reason),
            None => write!(f, "proof rejected: {}", self.reason),
        }
    }
}

impl std::error::Error for CheckError {}

/// Summary of a successful check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Total steps processed.
    pub steps: usize,
    /// Derived steps whose RUP/RAT obligation was actually checked.
    /// [`check`] counts every derived step up to the refutation (later
    /// ones are vacuous); [`certify_unsat`] counts only the lemmas the
    /// refutation transitively uses.
    pub derived_checked: usize,
    /// Whether an explicit empty clause was derived.
    pub derived_empty: bool,
    /// Whether unit propagation over the live clauses refuted the
    /// formula outright (every later derivation is then vacuous).
    pub root_conflict: bool,
}

impl CheckReport {
    /// Whether the checked proof establishes unsatisfiability of the
    /// accumulated input set (no assumptions involved).
    pub fn refuted(&self) -> bool {
        self.derived_empty || self.root_conflict
    }
}

/// Checks a self-contained proof in full: inputs are admitted, every
/// derived clause up to the refutation must pass RUP or first-literal
/// RAT against the clauses live at its step, deletions must name a
/// live clause. An unsound step is reported at the earliest index.
pub fn check(log: &ProofLog) -> Result<CheckReport, CheckError> {
    let mut checker = Checker::replay(log, false);
    let report = checker.check_backward(log, None)?;
    match checker.bad_deletion.take() {
        Some(err) => Err(err),
        None => Ok(report),
    }
}

/// Certifies one UNSAT answer: confirms the log ends in the claimed
/// refutation — a root conflict (the empty clause) when
/// `failed_assumptions` is empty, or a final derived clause equal to
/// the negation of the failing assumption set for UNSAT under
/// assumptions — and then checks exactly the lemmas that refutation
/// transitively uses. A lemma outside that core is never checked, so
/// an unsound but unused lemma does not make certification fail.
pub fn certify_unsat(
    log: &ProofLog,
    failed_assumptions: &[Lit],
) -> Result<CheckReport, CheckError> {
    if log.is_frozen() {
        return Err(CheckError {
            step: None,
            reason: "proof log was truncated mid-run (frozen); later steps are missing".into(),
        });
    }
    let mut checker = Checker::replay(log, true);
    if let Some(err) = checker.bad_deletion.take() {
        return Err(err);
    }
    // A root conflict refutes the accumulated formula, so it certifies
    // any assumption set.
    let core_step = if checker.conflict.is_some() {
        None
    } else if failed_assumptions.is_empty() {
        return Err(CheckError {
            step: None,
            reason: "proof checks but never derives the empty clause".into(),
        });
    } else {
        let Some(step) = (0..log.len())
            .rev()
            .find(|&i| log.kinds[i] == StepKind::AddDerived)
        else {
            return Err(CheckError {
                step: None,
                reason: "no derived clause to certify the assumption core".into(),
            });
        };
        let mut want: Vec<Lit> = failed_assumptions.iter().map(|&a| !a).collect();
        want.sort_unstable();
        want.dedup();
        let mut got: Vec<Lit> = log.step(step).1.to_vec();
        got.sort_unstable();
        got.dedup();
        if got != want {
            return Err(CheckError {
                step: None,
                reason: format!(
                    "final derived clause {got:?} does not match the negated \
                     assumption core {want:?}"
                ),
            });
        }
        Some(step)
    };
    checker.check_backward(log, core_step)
}

/// No clause: the reason of a literal a RUP check assumed.
const NO_CLAUSE: u32 = u32::MAX;

/// What a successful RUP check found.
enum Refutation {
    /// Propagation falsified this clause.
    Conflict(u32),
    /// The clause's literal was already true.
    Satisfied(Lit),
}

/// The backward, core-first checker described in the module docs.
/// Undoing a step truncates the root trail to its length before that
/// step, so every check sees exactly the root state a forward checker
/// would have had there.
struct Checker {
    /// Every added clause, flat: clause `c` is
    /// `lits[start[c]..start[c + 1]]`, watched literals first.
    lits: Vec<Lit>,
    start: Vec<u32>,
    /// Per clause: in the live set at the current step. A deleted
    /// clause leaves its watch lists at once (the backward pass
    /// re-watches it on revival); a clause whose addition the backward
    /// pass undid never returns, so its watchers are dropped lazily.
    live: Vec<bool>,
    /// Per clause: used by the refutation, so it must check.
    used: Vec<bool>,
    /// Per step: the clause it added or deleted.
    clause_of: Vec<u32>,
    /// Per step: the root trail length before it.
    trail_before: Vec<u32>,
    /// The first deletion naming a clause that was not live; the
    /// forward pass stops there, so only the steps before it exist.
    bad_deletion: Option<CheckError>,
    /// Assignment per literal code: 1 true, -1 false, 0 unassigned.
    val: Vec<i8>,
    /// Per variable: the clause that implied it, its trail position,
    /// and whether conflict analysis already reached it. A root
    /// variable stays reached until the trail is truncated below it:
    /// every clause of its implication chain is marked by then.
    reason: Vec<u32>,
    pos: Vec<u32>,
    reached: Vec<bool>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Clause ids watching each literal code.
    watches: Vec<Vec<u32>>,
    /// The first step that refuted the live set, and the clause it
    /// left falsified at the root.
    conflict: Option<(usize, u32)>,
    derived_empty: bool,
    /// Check only used lemmas (certify) rather than all (full check).
    core_only: bool,
    /// Conflict-analysis scratch: pending and reached-this-check
    /// variables.
    stack: Vec<u32>,
    reached_now: Vec<u32>,
}

impl Checker {
    /// The forward pass: replays inputs, lemmas and deletions without
    /// RUP checks, propagating root units until the first root
    /// conflict. It stops at a deletion naming a clause that is not
    /// live and records it in `bad_deletion`.
    fn replay(log: &ProofLog, core_only: bool) -> Checker {
        let codes = log
            .lits
            .iter()
            .map(|l| (l.code() | 1) + 1)
            .max()
            .unwrap_or(0);
        let vars = codes / 2;
        let mut c = Checker {
            lits: Vec::new(),
            start: vec![0],
            live: Vec::new(),
            used: Vec::new(),
            clause_of: Vec::with_capacity(log.len()),
            trail_before: Vec::with_capacity(log.len()),
            bad_deletion: None,
            val: vec![0; codes],
            reason: vec![NO_CLAUSE; vars],
            pos: vec![0; vars],
            reached: vec![false; vars],
            trail: Vec::new(),
            qhead: 0,
            watches: vec![Vec::new(); codes],
            conflict: None,
            derived_empty: false,
            core_only,
            stack: Vec::new(),
            reached_now: Vec::new(),
        };
        // Deletion lookup: live clauses chained per order-independent
        // hash of their literal multiset, newest first.
        let mut head: HashMap<u64, u32> = HashMap::new();
        let mut next: Vec<u32> = Vec::new();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for i in 0..log.len() {
            let (kind, lits) = log.step(i);
            c.trail_before.push(c.trail.len() as u32);
            let key = multiset_hash(lits);
            if kind == StepKind::Delete {
                want.clear();
                want.extend_from_slice(lits);
                want.sort_unstable();
                let mut prev = NO_CLAUSE;
                let mut cur = head.get(&key).copied().unwrap_or(NO_CLAUSE);
                while cur != NO_CLAUSE {
                    got.clear();
                    got.extend_from_slice(c.clause(cur));
                    got.sort_unstable();
                    if got == want {
                        break;
                    }
                    prev = cur;
                    cur = next[cur as usize];
                }
                if cur == NO_CLAUSE {
                    c.bad_deletion = Some(CheckError {
                        step: Some(i),
                        reason: format!(
                            "deletion of clause {:?} not in the live set",
                            dimacs(lits)
                        ),
                    });
                    break;
                }
                let after = next[cur as usize];
                if prev != NO_CLAUSE {
                    next[prev as usize] = after;
                } else if after != NO_CLAUSE {
                    head.insert(key, after);
                } else {
                    head.remove(&key);
                }
                c.live[cur as usize] = false;
                c.unwatch(cur);
                c.clause_of.push(cur);
                continue;
            }
            let ci = c.live.len() as u32;
            c.lits.extend_from_slice(lits);
            c.start.push(c.lits.len() as u32);
            c.live.push(true);
            c.used.push(false);
            next.push(head.insert(key, ci).unwrap_or(NO_CLAUSE));
            c.clause_of.push(ci);
            if kind == StepKind::AddDerived && lits.is_empty() {
                c.derived_empty = true;
            }
            if c.conflict.is_none() {
                if let Some(falsified) = c.attach(ci) {
                    c.conflict = Some((i, falsified));
                }
            }
        }
        c
    }

    /// The backward pass. Seeds the marks with the root conflict, or
    /// with the lemma at `core_step` (the assumption core), then walks
    /// from the last replayed step to the first, undoing each one and
    /// checking every derived step before the refutation that is
    /// marked — all of them outside core mode.
    fn check_backward(
        &mut self,
        log: &ProofLog,
        core_step: Option<usize>,
    ) -> Result<CheckReport, CheckError> {
        // Steps after the refutation are vacuous.
        let replayed = self.clause_of.len();
        let end = self.conflict.map_or(replayed, |(step, _)| step + 1);
        if let Some((_, falsified)) = self.conflict {
            if self.core_only {
                self.analyze(Refutation::Conflict(falsified), self.trail.len());
            }
        }
        if let Some(step) = core_step {
            self.used[self.clause_of[step] as usize] = true;
        }
        let mut checked = 0usize;
        let mut unsound = None;
        for i in (0..replayed).rev() {
            let (kind, lits) = log.step(i);
            let ci = self.clause_of[i] as usize;
            if kind == StepKind::Delete {
                self.live[ci] = true;
                self.watch(ci as u32);
                continue;
            }
            self.live[ci] = false;
            self.truncate(self.trail_before[i] as usize);
            if kind != StepKind::AddDerived || i >= end || (self.core_only && !self.used[ci]) {
                continue;
            }
            checked += 1;
            if !self.is_rup(lits) && !self.is_rat(lits) {
                unsound = Some((i, lits));
                // A full check keeps going to report the earliest
                // unsound step; a core check's marks stop here.
                if self.core_only {
                    break;
                }
            }
        }
        if let Some((i, lits)) = unsound {
            return Err(CheckError {
                step: Some(i),
                reason: format!("derived clause {:?} is neither RUP nor RAT", dimacs(lits)),
            });
        }
        Ok(CheckReport {
            steps: log.len(),
            derived_checked: checked,
            derived_empty: self.derived_empty,
            root_conflict: self.conflict.is_some(),
        })
    }

    fn clause(&self, ci: u32) -> &[Lit] {
        &self.lits[self.start[ci as usize] as usize..self.start[ci as usize + 1] as usize]
    }

    fn value(&self, l: Lit) -> i8 {
        self.val[l.code()]
    }

    /// Assigns `l` true, implied by `reason`. Returns `false` on
    /// conflict (already false).
    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.value(l) {
            1 => true,
            -1 => false,
            _ => {
                self.val[l.code()] = 1;
                self.val[(!l).code()] = -1;
                let v = l.var().index();
                self.reason[v] = reason;
                self.pos[v] = self.trail.len() as u32;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unassigns the trail beyond its first `len` literals.
    fn truncate(&mut self, len: usize) {
        for &l in &self.trail[len..] {
            self.val[l.code()] = 0;
            self.val[(!l).code()] = 0;
            self.reached[l.var().index()] = false;
        }
        self.trail.truncate(len);
        self.qhead = len;
    }

    /// Unit-propagates from `qhead`. Returns the falsified clause on
    /// conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let falsified = !self.trail[self.qhead];
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[falsified.code()]);
            let mut keep = 0usize;
            let mut i = 0usize;
            let mut conflict = None;
            while i < ws.len() {
                let ci = ws[i];
                i += 1;
                if !self.live[ci as usize] {
                    continue; // lazily dropped watcher
                }
                let s = self.start[ci as usize] as usize;
                let e = self.start[ci as usize + 1] as usize;
                // Normalize: watched slot 1 is the falsified literal.
                if self.lits[s] == falsified {
                    self.lits.swap(s, s + 1);
                }
                debug_assert_eq!(self.lits[s + 1], falsified);
                let first = self.lits[s];
                if self.value(first) == 1 {
                    ws[keep] = ci;
                    keep += 1;
                    continue;
                }
                // Find a replacement watch; it is never `falsified`,
                // so the taken list needs no re-merge.
                if let Some(k) = (s + 2..e).find(|&k| self.value(self.lits[k]) != -1) {
                    self.lits.swap(s + 1, k);
                    self.watches[self.lits[s + 1].code()].push(ci);
                    continue;
                }
                // Unit or conflicting.
                ws[keep] = ci;
                keep += 1;
                if !self.enqueue(first, ci) {
                    conflict = Some(ci);
                    break;
                }
            }
            // Keep the watchers not yet scanned (conflict exit).
            ws.drain(keep..i);
            self.watches[falsified.code()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Adds the watchers of clause `ci` (of length ≥ 2) on its first
    /// two literals.
    fn watch(&mut self, ci: u32) {
        let s = self.start[ci as usize] as usize;
        if self.start[ci as usize + 1] as usize - s >= 2 {
            self.watches[self.lits[s].code()].push(ci);
            self.watches[self.lits[s + 1].code()].push(ci);
        }
    }

    /// Removes the watchers of clause `ci`, if it has any.
    fn unwatch(&mut self, ci: u32) {
        let s = self.start[ci as usize] as usize;
        if self.start[ci as usize + 1] as usize - s >= 2 {
            for k in s..s + 2 {
                let ws = &mut self.watches[self.lits[k].code()];
                if let Some(at) = ws.iter().position(|&w| w == ci) {
                    ws.swap_remove(at);
                }
            }
        }
    }

    /// Attaches the clause just added by the forward pass and
    /// propagates any root unit it implies. Returns the clause left
    /// falsified at the root, if any.
    fn attach(&mut self, ci: u32) -> Option<u32> {
        let s = self.start[ci as usize] as usize;
        let e = self.start[ci as usize + 1] as usize;
        // Prefer non-false literals in the watched slots.
        let mut w = 0usize;
        for k in s..e {
            if w >= 2 {
                break;
            }
            if self.value(self.lits[k]) != -1 {
                self.lits.swap(s + w, k);
                w += 1;
            }
        }
        self.watch(ci);
        if w == 0 {
            // Empty, or every literal false: the live set is refuted.
            return Some(ci);
        }
        let unit = self.lits[s];
        if (w == 1 || e - s == 1) && self.value(unit) != 1 {
            self.enqueue(unit, ci);
            return self.propagate();
        }
        None
    }

    /// Checks RUP of `clause`: assume every literal false, propagate,
    /// demand a conflict. In core mode a success marks the clauses the
    /// conflict used. Leaves the trail as it found it.
    fn is_rup(&mut self, clause: &[Lit]) -> bool {
        let root = self.trail.len();
        debug_assert_eq!(self.qhead, root, "root trail must be fully propagated");
        let mut found = None;
        for &l in clause {
            if !self.enqueue(!l, NO_CLAUSE) {
                found = Some(Refutation::Satisfied(l));
                break;
            }
        }
        if found.is_none() {
            found = self.propagate().map(Refutation::Conflict);
        }
        let rup = found.is_some();
        if let (Some(refutation), true) = (found, self.core_only) {
            self.analyze(refutation, root);
        }
        self.truncate(root);
        rup
    }

    /// Checks first-literal RAT of `clause`: every resolvent with a
    /// live clause containing the negated pivot must be RUP. Each
    /// partner is marked used.
    fn is_rat(&mut self, clause: &[Lit]) -> bool {
        let Some(&pivot) = clause.first() else {
            return false;
        };
        let neg = !pivot;
        // Occurrences are computed by scan: RAT steps are rare (only
        // BVE restorations in solver-emitted proofs). Partners that
        // also contain the pivot are skipped: flipping the pivot true
        // keeps them satisfied, so they never constrain the step.
        let partners: Vec<u32> = (0..self.live.len() as u32)
            .filter(|&ci| {
                let c = self.clause(ci);
                self.live[ci as usize] && c.contains(&neg) && !c.contains(&pivot)
            })
            .collect();
        let mut resolvent: Vec<Lit> = Vec::new();
        for ci in partners {
            resolvent.clear();
            resolvent.extend_from_slice(clause);
            resolvent.extend(self.clause(ci).iter().copied().filter(|&l| l != neg));
            if !self.is_rup(&resolvent) {
                return false;
            }
            self.used[ci as usize] = true;
        }
        true
    }

    /// Conflict analysis for marking: walks the implication graph back
    /// from `refutation` and marks every clause it reaches — the
    /// falsified clause and each reached variable's reason, root-unit
    /// reasons included. Variables at trail positions from `root` on
    /// belong to the current RUP check and are un-reached afterwards.
    fn analyze(&mut self, refutation: Refutation, root: usize) {
        match refutation {
            Refutation::Conflict(ci) => {
                self.used[ci as usize] = true;
                let s = self.start[ci as usize] as usize;
                let e = self.start[ci as usize + 1] as usize;
                self.stack.extend(self.lits[s..e].iter().map(|l| l.var().0));
            }
            Refutation::Satisfied(l) => self.stack.push(l.var().0),
        }
        while let Some(v) = self.stack.pop() {
            let v = v as usize;
            if self.reached[v] {
                continue;
            }
            self.reached[v] = true;
            if self.pos[v] as usize >= root {
                self.reached_now.push(v as u32);
            }
            let r = self.reason[v];
            if r == NO_CLAUSE {
                continue;
            }
            self.used[r as usize] = true;
            let s = self.start[r as usize] as usize;
            let e = self.start[r as usize + 1] as usize;
            for k in s..e {
                let u = self.lits[k].var().0;
                if !self.reached[u as usize] {
                    self.stack.push(u);
                }
            }
        }
        for v in self.reached_now.drain(..) {
            self.reached[v as usize] = false;
        }
    }
}

/// An order-independent hash of a literal multiset.
fn multiset_hash(lits: &[Lit]) -> u64 {
    lits.iter().fold(lits.len() as u64, |h, l| {
        // splitmix64 finalizer per literal, summed.
        let mut x = (l.code() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h.wrapping_add(x ^ (x >> 31))
    })
}

fn dimacs(lits: &[Lit]) -> Vec<i64> {
    lits.iter().map(|l| l.to_dimacs()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn clause(ds: &[i64]) -> Vec<Lit> {
        ds.iter().map(|&d| lit(d)).collect()
    }

    /// The smallest UNSAT core: (a)(¬a) with an explicit refutation.
    #[test]
    fn accepts_trivial_refutation() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1]));
        log.add_input(&clause(&[-1]));
        log.add_derived(&[]);
        let report = check(&log).expect("valid proof");
        assert!(report.derived_empty);
        assert!(report.root_conflict);
        assert!(report.refuted());
    }

    /// (a∨b)(a∨¬b)(¬a∨b)(¬a∨¬b): classic 2-variable refutation via
    /// the resolvents (a) and the empty clause.
    #[test]
    fn accepts_resolution_refutation() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[1, -2]));
        log.add_input(&clause(&[-1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_derived(&clause(&[1]));
        log.add_derived(&[]);
        assert!(check(&log).expect("valid proof").refuted());
    }

    /// With (1 2) alone, (1) would be a *blocked* clause (no resolution
    /// partner on the pivot) and DRAT accepts it; (¬1 ¬2) provides the
    /// partner whose resolvent (1 ¬2) is not RUP, so both the RUP and
    /// the RAT check must fail.
    #[test]
    fn rejects_non_rup_derivation() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_derived(&clause(&[1])); // neither RUP nor RAT
        let err = check(&log).expect_err("must reject");
        assert_eq!(err.step, Some(2));
    }

    #[test]
    fn rejects_deleting_absent_clause() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.delete(&clause(&[1, 3]));
        let err = check(&log).expect_err("must reject");
        assert_eq!(err.step, Some(1));
    }

    /// The full check reports the earliest unsound step, even when a
    /// bad deletion follows it; certification rejects either way.
    #[test]
    fn check_reports_the_earliest_of_a_bad_lemma_and_a_bad_deletion() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_derived(&clause(&[1])); // neither RUP nor RAT
        log.delete(&clause(&[1, 3])); // not live
        assert_eq!(check(&log).expect_err("must reject").step, Some(2));
        assert_eq!(
            certify_unsat(&log, &[]).expect_err("must reject").step,
            Some(3)
        );
    }

    /// Deletion is multiset-keyed, so literal order does not matter.
    #[test]
    fn deletion_is_order_insensitive() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2, -3]));
        log.delete(&clause(&[-3, 1, 2]));
        assert!(check(&log).is_ok());
    }

    /// RAT on the first literal: after deleting every clause that
    /// mentions x, re-adding (x∨a) is vacuously RAT on x even though
    /// it is not RUP — the BVE-restoration shape.
    #[test]
    fn accepts_vacuous_rat_readdition() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, 3]));
        log.add_input(&clause(&[2, 3, 4]));
        // BVE on x1: resolvent (2∨3) is RUP, then both occurrences go.
        log.add_derived(&clause(&[2, 3]));
        log.delete(&clause(&[1, 2]));
        log.delete(&clause(&[-1, 3]));
        // Restore (1∨2): RAT on literal 1 with no ¬1 partner left.
        log.add_derived(&clause(&[1, 2]));
        assert!(check(&log).is_ok());
        // The same clause with the pivot second is not RAT (pivot 2
        // resolves against (2∨3∨4)... which still yields RUP checks
        // that pass here, so use a genuinely non-RAT pivot: ¬3).
        let mut bad = ProofLog::new();
        bad.add_input(&clause(&[1, 2]));
        bad.add_input(&clause(&[-1, 3]));
        bad.add_derived(&clause(&[-3, -1]));
        assert!(check(&bad).is_err());
    }

    #[test]
    fn certify_requires_matching_core() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[-1, -2]));
        // Probe assumptions a1, a2 fail; core clause is (¬1 ∨ ¬2).
        log.add_derived(&clause(&[-1, -2]));
        let failed = [Lit::pos(Var(0)), Lit::pos(Var(1))];
        assert!(certify_unsat(&log, &failed).is_ok());
        let wrong = [Lit::pos(Var(0))];
        assert!(certify_unsat(&log, &wrong).is_err());
        // Root-level certification needs the empty clause.
        assert!(certify_unsat(&log, &[]).is_err());
    }

    /// The unsound unit (-3) is what makes root propagation refute
    /// (1 2)(-1 2)(-2 3), so the refutation uses it and certification
    /// must reject it at its step.
    #[test]
    fn certify_rejects_an_unsound_lemma_the_refutation_uses() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, 2]));
        log.add_input(&clause(&[-2, 3]));
        // Unsound: the formula is satisfied by 2 = 3 = true.
        log.add_derived(&clause(&[-3]));
        log.add_derived(&[]);
        let err = certify_unsat(&log, &[]).expect_err("used unsound lemma");
        assert_eq!(err.step, Some(3));
        assert_eq!(check(&log).expect_err("unsound lemma").step, Some(3));
    }

    /// drat-trim semantics: a lemma the refutation never uses is not
    /// checked by certification, so an unsound one there is accepted;
    /// the full check still rejects it.
    #[test]
    fn certify_skips_an_unsound_lemma_the_refutation_does_not_use() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[1, -2]));
        log.add_input(&clause(&[-1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_input(&clause(&[-3, 5]));
        // Unsound (the RAT partner (-3 5) gives the non-RUP (3 5)),
        // and disjoint from the refutation below.
        log.add_derived(&clause(&[3]));
        log.add_derived(&clause(&[1]));
        log.add_derived(&[]);
        let report = certify_unsat(&log, &[]).expect("unused lemma is not checked");
        assert!(report.refuted());
        assert_eq!(report.derived_checked, 1, "only (1) is in the core");
        assert_eq!(check(&log).expect_err("full check").step, Some(5));
    }

    /// A root unit stays assigned after its reason is deleted (root
    /// assignments are never retracted), and a refutation reaching
    /// that unit still uses — and so checks — the deleted reason.
    fn deleted_reason_log(sound: bool) -> ProofLog {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 5]));
        log.add_input(&clause(&[-1, 3]));
        if sound {
            log.add_input(&clause(&[-3, 2]));
        }
        // RUP via (-1 3)(-3 2); without (-3 2) the partner (1 5)
        // gives the non-RUP resolvent (-1 2 5).
        log.add_derived(&clause(&[-1, 2]));
        if sound {
            log.delete(&clause(&[-3, 2]));
        }
        log.add_input(&clause(&[1])); // root 1, 3, and 2 by the lemma
        log.delete(&clause(&[-1, 2]));
        log.add_input(&clause(&[-2, -3])); // falsified at the root
        log
    }

    #[test]
    fn root_unit_with_a_later_deleted_reason_is_checked() {
        let report = certify_unsat(&deleted_reason_log(true), &[]).expect("sound");
        assert!(report.root_conflict);
        assert_eq!(report.derived_checked, 1);
        let err = certify_unsat(&deleted_reason_log(false), &[]).expect_err("unsound reason");
        assert_eq!(err.step, Some(2));
    }

    /// A unit lemma deleted before the conflict that needs it is
    /// still a root assignment, still in the core, still checked.
    #[test]
    fn deleted_unit_lemma_stays_in_the_core() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[1, -2]));
        log.add_derived(&clause(&[1]));
        log.delete(&clause(&[1]));
        log.add_input(&clause(&[-1, 3]));
        log.add_input(&clause(&[-1, -3]));
        let report = certify_unsat(&log, &[]).expect("valid");
        assert_eq!(report.derived_checked, 1);
        assert_eq!(check(&log).expect("valid").derived_checked, 1);
    }

    /// A BVE restoration (vacuous RAT on its first literal) that the
    /// refutation uses is checked, and passes; the unused resolvent is
    /// skipped.
    #[test]
    fn bve_restoration_in_the_core_passes_rat() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, 3]));
        log.add_derived(&clause(&[2, 3]));
        log.delete(&clause(&[1, 2]));
        log.delete(&clause(&[-1, 3]));
        log.add_derived(&clause(&[1, 2]));
        log.add_input(&clause(&[-2])); // root -2, 3, and 1 by the restoration
        log.add_input(&clause(&[-1]));
        let report = certify_unsat(&log, &[]).expect("valid");
        assert_eq!(report.derived_checked, 1);
        assert_eq!(check(&log).expect("valid").derived_checked, 2);
    }

    /// A RAT check marks its partners: (1 2) is RAT only through the
    /// unsound lemma (-1 3), which the implication graph of the
    /// refutation never reaches.
    #[test]
    fn rat_partners_join_the_core() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[2, 3]));
        log.add_input(&clause(&[1, 5]));
        // Unsound: the partner (1 5) gives the non-RUP (-1 3 5).
        log.add_derived(&clause(&[-1, 3]));
        // RAT on 1 with the single partner (-1 3): (1 2 3) is RUP.
        log.add_derived(&clause(&[1, 2]));
        log.add_input(&clause(&[-2])); // root -2, 3, and 1 by (1 2)
        log.add_input(&clause(&[-1, -3]));
        let err = certify_unsat(&log, &[]).expect_err("partner is unsound");
        assert_eq!(err.step, Some(2));
    }

    /// A root conflict mid-probe refutes the accumulated formula, so it
    /// certifies any assumption core, whatever the last derived clause.
    #[test]
    fn root_conflict_mid_probe_certifies_any_core() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[1, -2]));
        log.add_input(&clause(&[-1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_derived(&clause(&[1])); // refutes the live set
        log.add_derived(&clause(&[-3]));
        for core in [&[][..], &[lit(3)], &[lit(7), lit(-8)]] {
            let report = certify_unsat(&log, core).expect("root conflict covers any core");
            assert!(report.root_conflict);
            assert_eq!(report.derived_checked, 1);
        }
    }

    #[test]
    fn drat_text_round_trip() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[-1, 3]));
        let mut log = ProofLog::from_cnf_and_drat(&cnf, b"").expect("inputs only");
        log.add_derived(&clause(&[2, 3]));
        log.delete(&clause(&[1, 2]));
        let mut out = Vec::new();
        log.write_drat(&mut out, false).expect("write");
        assert_eq!(
            std::str::from_utf8(&out).expect("ascii"),
            "2 3 0\nd 1 2 0\n"
        );
        let back = ProofLog::from_cnf_and_drat(&cnf, &out).expect("parse");
        assert_eq!(back, log);
    }

    #[test]
    fn drat_binary_round_trip() {
        let mut cnf = Cnf::new(200);
        cnf.add_clause(clause(&[1, -200]));
        let mut log = ProofLog::from_cnf_and_drat(&cnf, b"").expect("inputs only");
        log.add_derived(&clause(&[63, -64, 129]));
        log.delete(&clause(&[1, -200]));
        log.add_derived(&[]);
        let mut out = Vec::new();
        log.write_drat(&mut out, true).expect("write");
        // Binary marker of the first step is 'a' followed by vbyte
        // literals; 63 → 126, -64 → 129 (two bytes).
        assert_eq!(out[0], b'a');
        let back = ProofLog::from_cnf_and_drat(&cnf, &out).expect("parse");
        assert_eq!(back, log);
    }

    #[test]
    fn live_multiset_tracks_deletions() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[2, 1]));
        log.add_input(&clause(&[1, 2]));
        log.delete(&clause(&[1, 2]));
        let live = log.live_multiset();
        assert_eq!(live.get(&clause(&[1, 2])).copied(), Some(1));
    }
}
