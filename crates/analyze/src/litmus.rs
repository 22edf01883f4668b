//! Litmus tests: small multi-core programs whose allowed/forbidden
//! outcomes pin the machine's memory-model semantics, and whose certifier
//! verdicts pin the analysis.
//!
//! A `.litmus` file declares shared locations, one straight-line program
//! per core, and three kinds of expectations:
//!
//! ```text
//! name sb
//! locs x y
//! 0: store x 1
//! 0: load y -> r0
//! 1: store y 1
//! 1: load x -> r1
//! allowed sc: r0=1 r1=1
//! forbidden sc: r0=0 r1=0
//! allowed tso: r0=0 r1=0
//! certify sc: unsafe MF009
//! certify tso: unsafe MF009 MF011
//! ```
//!
//! - `allowed M: cond [| cond ...]` — each condition must be observed by
//!   at least one exhaustively enumerated schedule under model `M`;
//! - `forbidden M: cond [| cond ...]` — no schedule may observe it;
//! - `certify M: verdict [codes...]` — the certifier's verdict on the
//!   *canonical* schedule (each core runs to completion in core order,
//!   then all buffers drain) must match, and every listed code must be
//!   present in the report.
//!
//! Instructions: `store L V`, `load L -> R`, `fence`, `strel L V`
//! (store-release), `ldacq L -> R` (load-acquire), `lock L`, `unlock L`,
//! `reloc SRC DST NWORDS`.
//!
//! # Exhaustive enumeration
//!
//! Schedules are enumerated abstractly as interleavings of per-core
//! instruction streams; under TSO an explicit `drain one entry of core c`
//! transition is additionally enabled whenever `c`'s buffer is non-empty
//! (the operational-TSO style of Colvin & Smith). Each schedule replays
//! on a fresh [`SmpMachine`], so the observed outcome sets are ground
//! truth for the operational semantics, not a model of them.
//!
//! # Soundness cross-validation
//!
//! Beyond the declared expectations, [`check_litmus`] validates the
//! certifier against the enumeration in both directions:
//!
//! - **DRF guarantee** (soundness of `Safe`): if *every* schedule under
//!   both models certifies race-free, the SC and TSO outcome sets must be
//!   identical — data-race-free programs cannot observe weak behavior;
//! - **completeness**: if the TSO outcome set differs from the SC set,
//!   the weak behavior is reachable through some unordered conflicting
//!   pair, and the canonical TSO certification must report a race
//!   (MF009 or MF010).

use crate::diag::{Code, Report, Verdict};
use crate::race::{analyze_trace, race_report};
use memfwd::{json_escape, MemoryModel, SimConfig, SmpConfig, SmpEvent, SmpMachine};
use memfwd_tagmem::Addr;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Hard cap on enumerated schedules per (test, model): litmus programs
/// are tiny by design, and a runaway file should fail loudly, not hang.
const MAX_SCHEDULES: usize = 200_000;

/// One litmus instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `store L V`: a plain (TSO: buffered) store.
    Store {
        /// Location name.
        loc: String,
        /// Value stored.
        val: u64,
    },
    /// `load L -> R`: a plain load into register `R`.
    Load {
        /// Location name.
        loc: String,
        /// Destination register.
        reg: String,
    },
    /// `fence`: drain own buffer; no cross-core ordering.
    Fence,
    /// `strel L V`: store-release (drains, then publishes).
    StoreRelease {
        /// Location name.
        loc: String,
        /// Value stored.
        val: u64,
    },
    /// `ldacq L -> R`: load-acquire into register `R`.
    LoadAcquire {
        /// Location name.
        loc: String,
        /// Destination register.
        reg: String,
    },
    /// `lock L`: acquire the per-word lock (blocks while held).
    Lock {
        /// Lock word name.
        loc: String,
    },
    /// `unlock L`: release the per-word lock.
    Unlock {
        /// Lock word name.
        loc: String,
    },
    /// `reloc SRC DST N`: relocate `N` words, leaving forwarding words.
    Reloc {
        /// Source location name.
        src: String,
        /// Destination location name.
        dst: String,
        /// Word count.
        words: u64,
    },
}

/// An outcome constraint: every listed register must hold its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond(pub Vec<(String, u64)>);

/// A final register valuation, sorted by register name.
pub type Outcome = Vec<(String, u64)>;

impl Cond {
    fn matches(&self, outcome: &Outcome) -> bool {
        self.0
            .iter()
            .all(|(r, v)| outcome.iter().any(|(or, ov)| or == r && ov == v))
    }

    fn render(&self) -> String {
        self.0
            .iter()
            .map(|(r, v)| format!("{r}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The expected certifier result for one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyExpect {
    /// Expected verdict of the canonical-schedule certification.
    pub verdict: Verdict,
    /// Codes that must be present in the report.
    pub codes: Vec<Code>,
}

/// A parsed litmus test.
#[derive(Debug, Clone)]
pub struct LitmusTest {
    /// Test name (`name` line, or the caller's default).
    pub name: String,
    /// Declared shared locations, one 8-byte word each, zero-initialized.
    pub locs: Vec<String>,
    /// Per-core straight-line programs.
    pub progs: Vec<Vec<Instr>>,
    /// `allowed` expectations per model.
    pub allowed: Vec<(MemoryModel, Cond)>,
    /// `forbidden` expectations per model.
    pub forbidden: Vec<(MemoryModel, Cond)>,
    /// `certify` expectations per model.
    pub certify: Vec<(MemoryModel, CertifyExpect)>,
}

fn parse_val(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("bad value '{s}'"))
}

fn parse_cond(s: &str) -> Result<Cond, String> {
    let mut pairs = Vec::new();
    for item in s.split_whitespace() {
        let (reg, val) = item
            .split_once('=')
            .ok_or_else(|| format!("bad condition term '{item}' (want reg=val)"))?;
        pairs.push((reg.to_string(), parse_val(val)?));
    }
    if pairs.is_empty() {
        return Err("empty condition".into());
    }
    Ok(Cond(pairs))
}

fn parse_instr(tokens: &[&str]) -> Result<Instr, String> {
    match tokens {
        ["store", loc, val] => Ok(Instr::Store {
            loc: loc.to_string(),
            val: parse_val(val)?,
        }),
        ["load", loc, "->", reg] => Ok(Instr::Load {
            loc: loc.to_string(),
            reg: reg.to_string(),
        }),
        ["fence"] => Ok(Instr::Fence),
        ["strel", loc, val] => Ok(Instr::StoreRelease {
            loc: loc.to_string(),
            val: parse_val(val)?,
        }),
        ["ldacq", loc, "->", reg] => Ok(Instr::LoadAcquire {
            loc: loc.to_string(),
            reg: reg.to_string(),
        }),
        ["lock", loc] => Ok(Instr::Lock {
            loc: loc.to_string(),
        }),
        ["unlock", loc] => Ok(Instr::Unlock {
            loc: loc.to_string(),
        }),
        ["reloc", src, dst, n] => Ok(Instr::Reloc {
            src: src.to_string(),
            dst: dst.to_string(),
            words: parse_val(n)?,
        }),
        _ => Err(format!("unknown instruction '{}'", tokens.join(" "))),
    }
}

/// Parses a `.litmus` file. `default_name` names the test when the file
/// carries no `name` line (callers pass the file stem).
pub fn parse_litmus(text: &str, default_name: &str) -> Result<LitmusTest, String> {
    let mut test = LitmusTest {
        name: default_name.to_string(),
        locs: Vec::new(),
        progs: Vec::new(),
        allowed: Vec::new(),
        forbidden: Vec::new(),
        certify: Vec::new(),
    };
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", ln + 1);
        if let Some(rest) = line.strip_prefix("name ") {
            test.name = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("locs ") {
            test.locs = rest.split_whitespace().map(str::to_string).collect();
        } else if let Some(rest) = line
            .strip_prefix("allowed ")
            .map(|r| (r, true))
            .or_else(|| line.strip_prefix("forbidden ").map(|r| (r, false)))
        {
            let (payload, is_allowed) = rest;
            let (model, conds) = payload
                .split_once(':')
                .ok_or_else(|| err("missing ':' after model".into()))?;
            let model = MemoryModel::from_name(model.trim())
                .ok_or_else(|| err(format!("unknown model '{}'", model.trim())))?;
            for c in conds.split('|') {
                let cond = parse_cond(c).map_err(err)?;
                if is_allowed {
                    test.allowed.push((model, cond));
                } else {
                    test.forbidden.push((model, cond));
                }
            }
        } else if let Some(rest) = line.strip_prefix("certify ") {
            let (model, payload) = rest
                .split_once(':')
                .ok_or_else(|| err("missing ':' after model".into()))?;
            let model = MemoryModel::from_name(model.trim())
                .ok_or_else(|| err(format!("unknown model '{}'", model.trim())))?;
            let mut tokens = payload.split_whitespace();
            let verdict = match tokens.next() {
                Some("safe") => Verdict::Safe,
                Some("safe-with-warnings") => Verdict::SafeWithWarnings,
                Some("unsafe") => Verdict::Unsafe,
                other => return Err(err(format!("bad verdict {other:?}"))),
            };
            let mut codes = Vec::new();
            for t in tokens {
                codes.push(Code::parse(t).ok_or_else(|| err(format!("unknown code '{t}'")))?);
            }
            test.certify.push((model, CertifyExpect { verdict, codes }));
        } else if let Some((core, instr)) = line.split_once(':') {
            let core: usize = core
                .trim()
                .parse()
                .map_err(|_| err(format!("bad core index '{}'", core.trim())))?;
            if core >= 8 {
                return Err(err("core index out of range (max 7)".into()));
            }
            if test.progs.len() <= core {
                test.progs.resize_with(core + 1, Vec::new);
            }
            let tokens: Vec<&str> = instr.split_whitespace().collect();
            test.progs[core].push(parse_instr(&tokens).map_err(err)?);
        } else {
            return Err(err(format!("unparsable line '{line}'")));
        }
    }
    if test.locs.is_empty() {
        return Err("no 'locs' declaration".into());
    }
    if test.progs.is_empty() {
        return Err("no program lines".into());
    }
    for (c, prog) in test.progs.iter().enumerate() {
        for i in prog {
            for loc in instr_locs(i) {
                if !test.locs.iter().any(|l| l == loc) {
                    return Err(format!("core {c} references undeclared location '{loc}'"));
                }
            }
        }
    }
    Ok(test)
}

fn instr_locs(i: &Instr) -> Vec<&str> {
    match i {
        Instr::Store { loc, .. }
        | Instr::Load { loc, .. }
        | Instr::StoreRelease { loc, .. }
        | Instr::LoadAcquire { loc, .. }
        | Instr::Lock { loc }
        | Instr::Unlock { loc } => vec![loc],
        Instr::Fence => vec![],
        Instr::Reloc { src, dst, .. } => vec![src, dst],
    }
}

// ---------------------------------------------------------------------
// Schedule enumeration and replay.
// ---------------------------------------------------------------------

/// One transition of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Execute the next instruction of core `c`.
    Exec(usize),
    /// Drain one store-buffer entry of core `c` (TSO only).
    Drain(usize),
}

/// The abstract store-buffer growth of an instruction: how many entries
/// it pushes, or `None` when it fully drains the buffer as a side effect.
/// Mirrors the operational machine exactly for the instruction set above
/// (all accesses are aligned 8-byte words, so loads never force drains,
/// and litmus buffers stay far below the capacity trim).
fn sb_effect(i: &Instr) -> Option<u64> {
    match i {
        Instr::Store { .. } => Some(1),
        Instr::Reloc { words, .. } => Some(2 * words),
        Instr::Load { .. } | Instr::LoadAcquire { .. } => Some(0),
        Instr::Fence | Instr::StoreRelease { .. } | Instr::Lock { .. } | Instr::Unlock { .. } => {
            None
        }
    }
}

/// Enumerates every schedule of `test` under `model` (see module docs).
fn schedules(test: &LitmusTest, model: MemoryModel) -> Result<Vec<Vec<Step>>, String> {
    struct Dfs<'t> {
        test: &'t LitmusTest,
        tso: bool,
        out: Vec<Vec<Step>>,
        cur: Vec<Step>,
        ip: Vec<usize>,
        depth: Vec<u64>,
        locked: HashMap<String, usize>,
    }
    /// The abstract effect of executing a core's next instruction.
    enum Eff {
        /// Lock held elsewhere: the core cannot progress by executing.
        Blocked,
        /// Acquire this lock (drains the buffer on entry).
        Lock(String),
        /// Release this lock (drains the buffer first).
        Unlock(String),
        /// Push `n` store-buffer entries (0 for loads).
        Push(u64),
        /// Drain the whole buffer as a side effect (fence, release).
        DrainAll,
    }
    impl Dfs<'_> {
        fn go(&mut self) -> Result<(), String> {
            let done = (0..self.test.progs.len()).all(|c| self.ip[c] == self.test.progs[c].len());
            if done {
                if self.out.len() >= MAX_SCHEDULES {
                    return Err(format!(
                        "more than {MAX_SCHEDULES} schedules; shrink the litmus program"
                    ));
                }
                self.out.push(self.cur.clone());
                return Ok(());
            }
            for c in 0..self.test.progs.len() {
                if self.ip[c] < self.test.progs[c].len() {
                    let eff = match &self.test.progs[c][self.ip[c]] {
                        Instr::Lock { loc } if self.locked.contains_key(loc) => Eff::Blocked,
                        Instr::Lock { loc } => Eff::Lock(loc.clone()),
                        Instr::Unlock { loc } => Eff::Unlock(loc.clone()),
                        other => match sb_effect(other) {
                            Some(n) => Eff::Push(if self.tso { n } else { 0 }),
                            None => Eff::DrainAll,
                        },
                    };
                    let saved = self.depth[c];
                    match eff {
                        Eff::Blocked => {}
                        Eff::Lock(loc) => {
                            self.locked.insert(loc.clone(), c);
                            self.depth[c] = 0;
                            self.step_exec(c)?;
                            self.depth[c] = saved;
                            self.locked.remove(&loc);
                        }
                        Eff::Unlock(loc) => {
                            self.locked.remove(&loc);
                            self.depth[c] = 0;
                            self.step_exec(c)?;
                            self.depth[c] = saved;
                            self.locked.insert(loc, c);
                        }
                        Eff::Push(n) => {
                            self.depth[c] += n;
                            self.step_exec(c)?;
                            self.depth[c] = saved;
                        }
                        Eff::DrainAll => {
                            self.depth[c] = 0;
                            self.step_exec(c)?;
                            self.depth[c] = saved;
                        }
                    }
                }
                // A pending buffer can drain at any point, including while
                // its core is blocked on a lock.
                if self.tso && self.depth[c] > 0 {
                    self.cur.push(Step::Drain(c));
                    self.depth[c] -= 1;
                    self.go()?;
                    self.depth[c] += 1;
                    self.cur.pop();
                }
            }
            Ok(())
        }

        fn step_exec(&mut self, c: usize) -> Result<(), String> {
            self.cur.push(Step::Exec(c));
            self.ip[c] += 1;
            let r = self.go();
            self.ip[c] -= 1;
            self.cur.pop();
            r
        }
    }
    let n = test.progs.len();
    let mut dfs = Dfs {
        test,
        tso: model == MemoryModel::Tso,
        out: Vec::new(),
        cur: Vec::new(),
        ip: vec![0; n],
        depth: vec![0; n],
        locked: HashMap::new(),
    };
    dfs.go()?;
    Ok(dfs.out)
}

/// Replays one schedule on a fresh machine; returns the final register
/// valuation and the event trace (including the terminal drain-all).
fn run_schedule(
    test: &LitmusTest,
    model: MemoryModel,
    sched: &[Step],
) -> Result<(Outcome, Vec<SmpEvent>), String> {
    let cores = test.progs.len();
    let mut m = SmpMachine::new(
        SmpConfig {
            cores,
            ..SmpConfig::default()
        },
        SimConfig::default().with_memory_model(model),
    );
    m.enable_event_trace();
    let mut addrs: HashMap<&str, Addr> = HashMap::new();
    for loc in &test.locs {
        addrs.insert(loc, m.malloc(8));
    }
    let mut regs: BTreeMap<&str, u64> = BTreeMap::new();
    for prog in &test.progs {
        for i in prog {
            if let Instr::Load { reg, .. } | Instr::LoadAcquire { reg, .. } = i {
                regs.insert(reg, 0);
            }
        }
    }
    let addr = |loc: &str| addrs[loc];
    let mut ip = vec![0usize; cores];
    let fail = |e: memfwd::MachineFault| format!("litmus '{}' faulted: {e}", test.name);
    for step in sched {
        match *step {
            Step::Exec(c) => {
                let instr = &test.progs[c][ip[c]];
                ip[c] += 1;
                match instr {
                    Instr::Store { loc, val } => {
                        m.try_store(c, addr(loc), 8, *val).map_err(fail)?
                    }
                    Instr::Load { loc, reg } => {
                        let v = m.try_load(c, addr(loc), 8).map_err(fail)?;
                        regs.insert(reg, v);
                    }
                    Instr::Fence => m.try_fence(c).map_err(fail)?,
                    Instr::StoreRelease { loc, val } => {
                        m.try_store_release(c, addr(loc), 8, *val).map_err(fail)?
                    }
                    Instr::LoadAcquire { loc, reg } => {
                        let v = m.try_load_acquire(c, addr(loc), 8).map_err(fail)?;
                        regs.insert(reg, v);
                    }
                    Instr::Lock { loc } => m.try_lock(c, addr(loc)).map_err(fail)?,
                    Instr::Unlock { loc } => m.try_unlock(c, addr(loc)).map_err(fail)?,
                    Instr::Reloc { src, dst, words } => m
                        .try_relocate(c, addr(src), addr(dst), *words)
                        .map_err(fail)?,
                }
            }
            Step::Drain(c) => {
                m.try_drain_one(c).map_err(fail)?;
            }
        }
    }
    for c in 0..cores {
        m.try_drain(c).map_err(fail)?;
    }
    let outcome = regs.into_iter().map(|(r, v)| (r.to_string(), v)).collect();
    Ok((outcome, m.take_event_trace().unwrap_or_default()))
}

/// The canonical certification schedule: core 0 runs to completion, then
/// core 1, ..., then every buffer drains. Sequential core order keeps
/// release→acquire pairs paired (the releasing core runs first), so a
/// correctly synchronized handoff certifies clean.
fn canonical_schedule(test: &LitmusTest) -> Vec<Step> {
    let mut out = Vec::new();
    for (c, prog) in test.progs.iter().enumerate() {
        out.extend(std::iter::repeat_n(Step::Exec(c), prog.len()));
    }
    out
}

/// Certifies the canonical schedule of `test` under `model`.
pub fn certify_litmus(test: &LitmusTest, model: MemoryModel) -> Result<Report, String> {
    let (_, trace) = run_schedule(test, model, &canonical_schedule(test))?;
    Ok(race_report(
        &format!("litmus:{}@{model}", test.name),
        test.progs.len(),
        &trace,
    ))
}

// ---------------------------------------------------------------------
// The gate: expectations + soundness cross-validation.
// ---------------------------------------------------------------------

/// Everything observed for one test under one model.
#[derive(Debug, Clone)]
pub struct ModelCheck {
    /// The model this check ran under.
    pub model: MemoryModel,
    /// Number of enumerated schedules.
    pub schedules: usize,
    /// The set of observed final register valuations.
    pub outcomes: BTreeSet<Outcome>,
    /// Did every schedule's trace certify free of MF009/MF010 races?
    pub all_race_free: bool,
    /// The canonical-schedule certification report.
    pub report: Report,
}

/// The result of running one litmus test under both models.
#[derive(Debug, Clone)]
pub struct LitmusResult {
    /// Test name.
    pub name: String,
    /// Per-model observations, SC first.
    pub checks: Vec<ModelCheck>,
    /// Violated expectations and soundness checks (empty = pass).
    pub violations: Vec<String>,
}

impl LitmusResult {
    /// True when every expectation and soundness direction held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `test` under SC and TSO: exhaustive outcome enumeration, declared
/// allowed/forbidden/certify expectations, and the two soundness
/// directions described in the module docs.
pub fn check_litmus(test: &LitmusTest) -> Result<LitmusResult, String> {
    let cores = test.progs.len();
    let mut checks = Vec::new();
    let mut violations = Vec::new();
    for model in [MemoryModel::Sc, MemoryModel::Tso] {
        let scheds = schedules(test, model)?;
        let mut outcomes = BTreeSet::new();
        let mut all_race_free = true;
        for s in &scheds {
            let (outcome, trace) = run_schedule(test, model, s)?;
            outcomes.insert(outcome);
            if all_race_free && !analyze_trace(cores, &trace).races.is_empty() {
                all_race_free = false;
            }
        }
        let report = certify_litmus(test, model)?;
        for (m, cond) in &test.allowed {
            if *m == model && !outcomes.iter().any(|o| cond.matches(o)) {
                violations.push(format!(
                    "{model}: allowed outcome '{}' was never observed",
                    cond.render()
                ));
            }
        }
        for (m, cond) in &test.forbidden {
            if *m == model {
                if let Some(o) = outcomes.iter().find(|o| cond.matches(o)) {
                    violations.push(format!(
                        "{model}: forbidden outcome '{}' observed as {:?}",
                        cond.render(),
                        o
                    ));
                }
            }
        }
        for (m, exp) in &test.certify {
            if *m == model {
                if report.verdict() != exp.verdict {
                    violations.push(format!(
                        "{model}: certifier said {}, expected {}",
                        report.verdict(),
                        exp.verdict
                    ));
                }
                for code in &exp.codes {
                    if !report.has(*code) {
                        violations
                            .push(format!("{model}: certifier did not report expected {code}"));
                    }
                }
            }
        }
        checks.push(ModelCheck {
            model,
            schedules: scheds.len(),
            outcomes,
            all_race_free,
            report,
        });
    }
    let (sc, tso) = (&checks[0], &checks[1]);
    if sc.all_race_free && tso.all_race_free && sc.outcomes != tso.outcomes {
        violations.push(
            "soundness: all schedules certified race-free, yet SC and TSO outcome sets differ"
                .into(),
        );
    }
    if sc.outcomes != tso.outcomes && !(tso.report.has(Code::Mf009) || tso.report.has(Code::Mf010))
    {
        violations.push(
            "completeness: TSO observes weak behaviors but the canonical certification is race-free"
                .into(),
        );
    }
    Ok(LitmusResult {
        name: test.name.clone(),
        checks,
        violations,
    })
}

fn render_outcome(o: &Outcome) -> String {
    o.iter()
        .map(|(r, v)| format!("{r}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders litmus results as human-readable text.
pub fn render_litmus_human(results: &[LitmusResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "{}: {}\n",
            r.name,
            if r.passed() { "pass" } else { "FAIL" }
        ));
        for c in &r.checks {
            out.push_str(&format!(
                "  {}: {} schedules, {} outcomes [{}], certify {}{}\n",
                c.model,
                c.schedules,
                c.outcomes.len(),
                c.outcomes
                    .iter()
                    .map(render_outcome)
                    .collect::<Vec<_>>()
                    .join(" / "),
                c.report.verdict(),
                if c.all_race_free { ", all-drf" } else { "" },
            ));
        }
        for v in &r.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
    }
    out
}

/// Renders litmus results as one JSON document (hand-rolled; the
/// workspace is offline and carries no serde).
pub fn render_litmus_json(results: &[LitmusResult]) -> String {
    let mut out = String::from("{\n  \"litmus\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"passed\": {}, \"models\": [",
            json_escape(&r.name),
            r.passed()
        ));
        for (j, c) in r.checks.iter().enumerate() {
            let codes: Vec<String> = c
                .report
                .diagnostics
                .iter()
                .map(|d| format!("\"{}\"", d.code))
                .collect();
            out.push_str(&format!(
                "\n      {{\"model\": \"{}\", \"schedules\": {}, \"outcomes\": [{}], \
                 \"all_race_free\": {}, \"verdict\": \"{}\", \"codes\": [{}]}}{}",
                c.model,
                c.schedules,
                c.outcomes
                    .iter()
                    .map(|o| format!("\"{}\"", json_escape(&render_outcome(o))))
                    .collect::<Vec<_>>()
                    .join(", "),
                c.all_race_free,
                c.report.verdict(),
                codes.join(", "),
                if j + 1 < r.checks.len() { "," } else { "" }
            ));
        }
        out.push_str("\n    ], \"violations\": [");
        out.push_str(
            &r.violations
                .iter()
                .map(|v| format!("\"{}\"", json_escape(v)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str(&format!(
            "]}}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    let failed = results.iter().filter(|r| !r.passed()).count();
    out.push_str(&format!("  ],\n  \"failed\": {failed}\n}}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: &str = "\
name sb
locs x y
0: store x 1
0: load y -> r0
1: store y 1
1: load x -> r1
allowed sc: r0=1 r1=1 | r0=0 r1=1 | r0=1 r1=0
forbidden sc: r0=0 r1=0
allowed tso: r0=0 r1=0 | r0=1 r1=1
certify sc: unsafe MF009
certify tso: unsafe MF009 MF011
";

    #[test]
    fn parses_the_store_buffering_litmus() {
        let t = parse_litmus(SB, "sb").expect("parses");
        assert_eq!(t.name, "sb");
        assert_eq!(t.progs.len(), 2);
        assert_eq!(t.progs[0].len(), 2);
        assert_eq!(t.allowed.len(), 5);
        assert_eq!(t.forbidden.len(), 1);
        assert_eq!(t.certify.len(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_litmus("locs x\n0: teleport x\n", "t").is_err());
        assert!(parse_litmus("0: store x 1\n", "t").is_err(), "no locs");
        assert!(
            parse_litmus("locs x\n0: store y 1\n", "t").is_err(),
            "undeclared loc"
        );
        assert!(parse_litmus("locs x\nallowed lso: r0=0\n0: store x 1\n", "t").is_err());
    }

    #[test]
    fn sb_distinguishes_the_models() {
        let t = parse_litmus(SB, "sb").expect("parses");
        let r = check_litmus(&t).expect("runs");
        assert!(r.passed(), "{:?}", r.violations);
        let sc = &r.checks[0];
        let tso = &r.checks[1];
        assert!(sc.outcomes.len() < tso.outcomes.len(), "TSO adds (0,0)");
        let weak: Outcome = vec![("r0".into(), 0), ("r1".into(), 0)];
        assert!(!sc.outcomes.contains(&weak));
        assert!(tso.outcomes.contains(&weak));
    }

    #[test]
    fn locked_counter_is_drf_with_equal_outcomes() {
        let src = "\
locs l x
0: lock l
0: store x 1
0: unlock l
1: lock l
1: load x -> r0
1: unlock l
certify sc: safe
certify tso: safe
";
        let t = parse_litmus(src, "lock").expect("parses");
        let r = check_litmus(&t).expect("runs");
        assert!(r.passed(), "{:?}", r.violations);
        assert!(r.checks[0].all_race_free && r.checks[1].all_race_free);
        assert_eq!(r.checks[0].outcomes, r.checks[1].outcomes);
        // Both orders of the critical sections are observable.
        assert_eq!(r.checks[0].outcomes.len(), 2);
    }

    #[test]
    fn violated_expectation_is_reported_not_panicked() {
        let src = "\
locs x
0: store x 1
1: load x -> r0
forbidden tso: r0=1
";
        let t = parse_litmus(src, "bad").expect("parses");
        let r = check_litmus(&t).expect("runs");
        assert!(!r.passed());
        assert!(r.violations[0].contains("forbidden"), "{:?}", r.violations);
    }

    #[test]
    fn json_and_human_render() {
        let t = parse_litmus(SB, "sb").expect("parses");
        let r = check_litmus(&t).expect("runs");
        let json = render_litmus_json(std::slice::from_ref(&r));
        assert!(json.contains("\"name\": \"sb\""));
        assert!(json.contains("\"failed\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let human = render_litmus_human(&[r]);
        assert!(human.contains("sb: pass"));
    }

    #[test]
    fn json_escapes_control_characters_in_names() {
        let src = SB.replace("name sb", "name s\tb");
        let t = parse_litmus(&src, "sb").expect("parses");
        assert_eq!(t.name, "s\tb");
        let r = check_litmus(&t).expect("runs");
        let json = render_litmus_json(&[r]);
        assert!(json.contains("\"name\": \"s\\u0009b\""), "{json}");
        assert!(
            !json.chars().any(|c| c < ' ' && c != '\n'),
            "raw control byte in {json:?}"
        );
    }
}
