//! The diagnostic engine: stable codes, severities, verdicts, reports, and
//! the `--deny` gate.
//!
//! Codes are append-only and never renumbered — scripts and CI gates key
//! off them. Each code has a fixed severity: **errors** describe plans that
//! fault or silently corrupt data when executed; **warnings** describe
//! plans that execute correctly but pay for it (extra hops) or look like
//! schedule bugs.

use memfwd::json_escape;
use memfwd_tagmem::Addr;
use std::fmt;

/// A stable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// Forwarding-chain cycle: an access through the chain would raise
    /// `MachineFault::ForwardingCycle` (or `HopLimitExceeded` first, when a
    /// hard budget is declared).
    Mf001,
    /// Chain deeper than the declared hard hop budget: an access would
    /// raise `MachineFault::HopLimitExceeded`.
    Mf002,
    /// Source and target ranges of one step overlap: the word-by-word copy
    /// reads words the same step already overwrote — silent corruption.
    Mf003,
    /// Relocation target is already a forwarded word: the moved data is
    /// stored *through* the target's chain, landing at its terminal rather
    /// than at the named address.
    Mf004,
    /// Source word is already forwarded (double relocation): legal — the
    /// chain is extended — but every stale access now pays an extra hop.
    Mf005,
    /// Relocation target outside the declared heap: the store lands in
    /// unmanaged address space.
    Mf006,
    /// Null source or target address: the demand store raises
    /// `MachineFault::NullDeref`.
    Mf007,
    /// Misaligned source or target: `relocate` raises
    /// `MachineFault::Misaligned` before moving anything.
    Mf008,
    /// SMP data race: two cores access the same word, at least one a store,
    /// with no barrier ordering them.
    Mf009,
    /// Unfenced fbit publication: under TSO a forwarding-bit install races
    /// a remote access to the same word through the installer's store
    /// buffer — the remote core can read the stale, un-forwarded word.
    Mf010,
    /// Buffered-store read skew: a remote core loads a word while another
    /// core still holds an undrained buffered store to it, observing the
    /// pre-store value after the storing core already sees the new one.
    Mf011,
    /// Missing release before relocation handoff: a relocated object is
    /// accessed by another core with no release/unlock/barrier by the
    /// relocating core between the install and the first remote access.
    Mf012,
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious or costly, but executes correctly.
    Warning,
    /// Faults at runtime or corrupts data silently.
    Error,
}

impl Code {
    /// Every defined code, in numeric order.
    pub const ALL: [Code; 12] = [
        Code::Mf001,
        Code::Mf002,
        Code::Mf003,
        Code::Mf004,
        Code::Mf005,
        Code::Mf006,
        Code::Mf007,
        Code::Mf008,
        Code::Mf009,
        Code::Mf010,
        Code::Mf011,
        Code::Mf012,
    ];

    /// The stable code string, e.g. `"MF001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Mf001 => "MF001",
            Code::Mf002 => "MF002",
            Code::Mf003 => "MF003",
            Code::Mf004 => "MF004",
            Code::Mf005 => "MF005",
            Code::Mf006 => "MF006",
            Code::Mf007 => "MF007",
            Code::Mf008 => "MF008",
            Code::Mf009 => "MF009",
            Code::Mf010 => "MF010",
            Code::Mf011 => "MF011",
            Code::Mf012 => "MF012",
        }
    }

    /// Parses a code string (case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// Short human title.
    pub fn title(self) -> &'static str {
        match self {
            Code::Mf001 => "forwarding-chain cycle",
            Code::Mf002 => "hop-budget overrun",
            Code::Mf003 => "overlapping source/target ranges",
            Code::Mf004 => "relocation onto a forwarded word",
            Code::Mf005 => "double relocation of a source word",
            Code::Mf006 => "relocation target out of heap bounds",
            Code::Mf007 => "null source or target",
            Code::Mf008 => "misaligned source or target",
            Code::Mf009 => "SMP data race",
            Code::Mf010 => "unfenced fbit publication",
            Code::Mf011 => "buffered-store read skew",
            Code::Mf012 => "missing release before relocation handoff",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::Mf004 | Code::Mf005 | Code::Mf011 | Code::Mf012 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// The `MachineFault::kind()` strings an error of this code predicts at
    /// runtime. `budgeted` says whether the plan declares a hard hop
    /// budget, which can trip before a cycle check does.
    pub fn predicted_fault_kinds(self, budgeted: bool) -> &'static [&'static str] {
        match (self, budgeted) {
            (Code::Mf001, false) => &["forwarding-cycle"],
            (Code::Mf001, true) => &["forwarding-cycle", "hop-limit-exceeded"],
            (Code::Mf002, _) => &["hop-limit-exceeded"],
            (Code::Mf007, _) => &["null-deref"],
            (Code::Mf008, _) => &["misaligned"],
            // MF003/MF006 are silent at runtime; MF004/MF005 are warnings;
            // MF009-MF012 concern the SMP model, not a uniprocessor fault.
            _ => &[],
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Index of the plan step at fault, if the finding anchors to one.
    pub step: Option<usize>,
    /// The address the finding anchors to, if any.
    pub addr: Option<Addr>,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// The diagnostic's severity (fixed per code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity(),
            self.code,
            self.code.title(),
            self.message
        )?;
        if let Some(step) = self.step {
            write!(f, " (step {step})")?;
        }
        Ok(())
    }
}

/// The verdict lattice: `Safe < SafeWithWarnings < Unsafe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No diagnostics: certified — execution cannot fault.
    Safe,
    /// Warnings only: certified fault-free, but the schedule is suspicious
    /// or pays avoidable forwarding cost.
    SafeWithWarnings,
    /// At least one error: execution faults or corrupts data.
    Unsafe,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Safe => "safe",
            Verdict::SafeWithWarnings => "safe-with-warnings",
            Verdict::Unsafe => "unsafe",
        })
    }
}

/// Everything the verifier concluded about one target (an app's captured
/// plan, a plan file, or an SMP campaign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// What was analyzed, e.g. `app:health/optimized` or `plan:cycle.plan`.
    pub target: String,
    /// Number of relocation steps analyzed (0 for SMP campaigns).
    pub steps: usize,
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Folds the diagnostics into the verdict lattice.
    pub fn verdict(&self) -> Verdict {
        let mut v = Verdict::Safe;
        for d in &self.diagnostics {
            v = v.max(match d.severity() {
                Severity::Warning => Verdict::SafeWithWarnings,
                Severity::Error => Verdict::Unsafe,
            });
        }
        v
    }

    /// True if any diagnostic carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }
}

/// The `--deny` gate: which diagnostics fail the lint run.
///
/// Errors always deny — an unsafe plan is never waved through. Warnings
/// deny only when listed (or when `all` is set).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenySet {
    /// Deny every diagnostic, warnings included.
    pub all: bool,
    /// Additional codes to deny.
    pub codes: Vec<Code>,
}

impl DenySet {
    /// Parses a comma-separated `--deny` value (`all` or code list),
    /// merging into `self`.
    pub fn parse_into(&mut self, value: &str) -> Result<(), String> {
        for item in value.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if item.eq_ignore_ascii_case("all") {
                self.all = true;
            } else {
                let code =
                    Code::parse(item).ok_or_else(|| format!("unknown diagnostic code '{item}'"))?;
                if !self.codes.contains(&code) {
                    self.codes.push(code);
                }
            }
        }
        Ok(())
    }

    /// Does this gate fail on `d`?
    pub fn denies(&self, d: &Diagnostic) -> bool {
        d.severity() == Severity::Error || self.all || self.codes.contains(&d.code)
    }

    /// The diagnostics of `report` this gate fails on.
    pub fn denied<'r>(&'r self, report: &'r Report) -> impl Iterator<Item = &'r Diagnostic> {
        report.diagnostics.iter().filter(move |d| self.denies(d))
    }
}

/// Renders one report as human-readable text.
pub fn render_human(report: &Report) -> String {
    let mut out = format!(
        "{}: {} ({} steps, {} diagnostics)\n",
        report.target,
        report.verdict(),
        report.steps,
        report.diagnostics.len()
    );
    for d in &report.diagnostics {
        out.push_str(&format!("  {d}\n"));
    }
    out
}

/// Renders a set of reports as one JSON document (hand-rolled: the
/// workspace is offline and carries no serde).
pub fn render_json(reports: &[Report], deny: &DenySet) -> String {
    let mut out = String::from("{\n  \"reports\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"target\": \"{}\", \"verdict\": \"{}\", \"steps\": {}, \"diagnostics\": [",
            json_escape(&r.target),
            r.verdict(),
            r.steps
        ));
        for (j, d) in r.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "\n      {{\"code\": \"{}\", \"severity\": \"{}\", \"title\": \"{}\", \
                 \"step\": {}, \"addr\": {}, \"message\": \"{}\", \"denied\": {}}}{}",
                d.code,
                d.severity(),
                json_escape(d.code.title()),
                d.step.map_or("null".into(), |s| s.to_string()),
                d.addr.map_or("null".into(), |a| format!("\"{:#x}\"", a.0)),
                json_escape(&d.message),
                deny.denies(d),
                if j + 1 < r.diagnostics.len() { "," } else { "" }
            ));
        }
        if !r.diagnostics.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str(&format!(
            "]}}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    let denied = reports
        .iter()
        .map(|r| deny.denied(r).count())
        .sum::<usize>();
    out.push_str(&format!("  ],\n  \"denied\": {denied}\n}}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code) -> Diagnostic {
        Diagnostic {
            code,
            step: Some(1),
            addr: Some(Addr(0x10_000)),
            message: "test".into(),
        }
    }

    #[test]
    fn codes_round_trip_and_have_metadata() {
        for code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert_eq!(Code::parse(&code.as_str().to_lowercase()), Some(code));
            assert!(!code.title().is_empty());
        }
        assert_eq!(Code::parse("MF999"), None);
    }

    #[test]
    fn verdict_lattice_orders() {
        assert!(Verdict::Safe < Verdict::SafeWithWarnings);
        assert!(Verdict::SafeWithWarnings < Verdict::Unsafe);
        let mut r = Report {
            target: "t".into(),
            steps: 0,
            diagnostics: vec![],
        };
        assert_eq!(r.verdict(), Verdict::Safe);
        r.diagnostics.push(diag(Code::Mf005));
        assert_eq!(r.verdict(), Verdict::SafeWithWarnings);
        r.diagnostics.push(diag(Code::Mf001));
        assert_eq!(r.verdict(), Verdict::Unsafe);
    }

    #[test]
    fn deny_gate_semantics() {
        let mut deny = DenySet::default();
        assert!(deny.denies(&diag(Code::Mf001)), "errors always deny");
        assert!(!deny.denies(&diag(Code::Mf005)));
        deny.parse_into("mf005").unwrap();
        assert!(deny.denies(&diag(Code::Mf005)));
        assert!(!deny.denies(&diag(Code::Mf004)));
        deny.parse_into("all").unwrap();
        assert!(deny.denies(&diag(Code::Mf004)));
        assert!(DenySet::default().parse_into("MF123").is_err());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = Report {
            target: "app:health/optimized".into(),
            steps: 3,
            diagnostics: vec![diag(Code::Mf001), diag(Code::Mf005)],
        };
        let json = render_json(&[r], &DenySet::default());
        assert!(json.contains("\"MF001\""));
        assert!(json.contains("\"denied\": 1"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
        let empty = render_json(&[], &DenySet::default());
        assert!(empty.contains("\"denied\": 0"));
    }
}
