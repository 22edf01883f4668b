//! `memfwd_lint` — the static forwarding-safety linter.
//!
//! Verifies relocation plans (captured from the stock applications or read
//! from plan files) and certifies SMP campaigns race-free, reporting
//! stable `MF0xx` diagnostics in human or JSON form.

use memfwd::MemoryModel;
use memfwd_analyze::{
    alias_summary, app_target, capture_app_plan, certify_stock_campaigns_model, check_litmus,
    diff_plans, infer_hop_budget, parse_litmus, parse_plan, race_report, render_alias_human,
    render_alias_json, render_diff_human, render_diff_json, render_edits, render_human,
    render_json, render_litmus_human, render_litmus_json, render_plan, repair_plan, verify_plan,
    AliasSummary, DenySet, RepairOutcome, Report,
};
use memfwd_apps::{App, RunConfig, Scale, Variant};
use std::path::PathBuf;

const USAGE: &str = "\
memfwd-lint: statically verify relocation schedules and certify SMP campaigns

USAGE:
    memfwd_lint [OPTIONS]

TARGETS (at least one; may be repeated/combined):
    --app <name|all>        capture and verify the relocation plan of a
                            stock app (health|mst|radiosity|vis|eqntott|
                            bh|compress|smv, or 'all')
    --plan <file>           verify a plan file (see fixtures/*.plan)
    --smp-certify           run the stock SMP campaigns through the
                            happens-before race certifier
    --smp-seeded-race       run the deliberately racy campaign (expected
                            to flag MF009; for testing the certifier)
    --smp-seeded-fbit       run the seeded forwarding-bit publication
                            campaigns under TSO: the unfenced variant is
                            expected to flag MF010, the release-fenced
                            variant to certify clean
    --litmus <path>         model-check a .litmus file (or every .litmus
                            file in a directory) under SC and TSO:
                            enumerate all schedules, compare outcome sets
                            against the declared allowed/forbidden lines,
                            certify the canonical schedule, and
                            cross-validate certifier soundness; honors
                            --format; exit 1 on any violation
    --diff <old> <new>      structurally diff two plan files instead of
                            linting: report changed steps (common-prefix/
                            suffix trim), bounds, budget, and pre-edges;
                            honors --format; exit 0 if identical, 1 if
                            they differ

    --repair <out>          instead of linting, repair the single --plan
                            target by terminal-rewriting step targets
                            (MF002/MF004 class findings), re-verify the
                            edited plan, and write it to <out> only if it
                            certifies free of error-severity findings;
                            exit 1 if the plan is unrepairable
    --alias-summary         instead of linting, report per-target aliasing
                            statistics (shared words, overlapping step
                            pairs, hottest word) for each --app/--plan
                            target; honors --format

    --infer-hop-budget      instead of linting, report the minimum safe
                            hard_hop_budget for each --app/--plan target
                            (the deepest chain walk the machine would
                            budget-check); exit 1 if a target's
                            configured budget is below the minimum, or if
                            a forwarding cycle makes every budget unsafe

OPTIONS:
    --memory-model <m>      sc|tso (default: sc): the memory model the
                            SMP campaigns of --smp-certify run under;
                            TSO traces carry store-buffer events and can
                            additionally flag MF010/MF011/MF012
    --variant <v>           original|optimized|static (default: optimized)
    --scale <s>             smoke|bench (default: smoke)
    --seed <n>              workload seed (default: 12345)
    --format <f>            human|json (default: human)
    --deny <codes|all>      comma-separated warning codes to deny, or
                            'all'; error-severity diagnostics always deny
    --help                  print this text

EXIT CODES:
    0  no denied diagnostics (--diff: plans identical; --infer-hop-budget:
       every configured budget is sufficient)
    1  lint gate failed (--diff: plans differ; --infer-hop-budget: a
       configured budget is below the minimum, or no finite budget is safe)
    2  usage error
";

struct Cli {
    apps: Vec<App>,
    plans: Vec<PathBuf>,
    smp_certify: bool,
    smp_seeded_race: bool,
    smp_seeded_fbit: bool,
    litmus: Option<PathBuf>,
    diff: Option<(PathBuf, PathBuf)>,
    infer_hop_budget: bool,
    repair: Option<PathBuf>,
    alias: bool,
    memory_model: MemoryModel,
    variant: Variant,
    scale: Scale,
    seed: u64,
    json: bool,
    deny: DenySet,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        apps: Vec::new(),
        plans: Vec::new(),
        smp_certify: false,
        smp_seeded_race: false,
        smp_seeded_fbit: false,
        litmus: None,
        diff: None,
        infer_hop_budget: false,
        repair: None,
        alias: false,
        memory_model: MemoryModel::Sc,
        variant: Variant::Optimized,
        scale: Scale::Smoke,
        seed: 12345,
        json: false,
        deny: DenySet::default(),
    };
    let mut args = std::env::args().skip(1);
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--app" => {
                let v = next_val(&mut args, "--app")?;
                if v == "all" {
                    cli.apps.extend(App::ALL);
                } else {
                    cli.apps
                        .push(App::from_name(&v).ok_or_else(|| format!("unknown app '{v}'"))?);
                }
            }
            "--plan" => cli
                .plans
                .push(PathBuf::from(next_val(&mut args, "--plan")?)),
            "--infer-hop-budget" => cli.infer_hop_budget = true,
            "--repair" => cli.repair = Some(PathBuf::from(next_val(&mut args, "--repair")?)),
            "--alias-summary" => cli.alias = true,
            "--smp-certify" => cli.smp_certify = true,
            "--smp-seeded-race" => cli.smp_seeded_race = true,
            "--smp-seeded-fbit" => cli.smp_seeded_fbit = true,
            "--litmus" => cli.litmus = Some(PathBuf::from(next_val(&mut args, "--litmus")?)),
            "--memory-model" => {
                let v = next_val(&mut args, "--memory-model")?;
                cli.memory_model = MemoryModel::from_name(&v)
                    .ok_or_else(|| format!("unknown memory model '{v}'"))?;
            }
            "--diff" => {
                let old = next_val(&mut args, "--diff")?;
                let new = args.next().ok_or("--diff needs two plan files")?;
                cli.diff = Some((PathBuf::from(old), PathBuf::from(new)));
            }
            "--variant" => {
                let v = next_val(&mut args, "--variant")?;
                cli.variant =
                    Variant::from_name(&v).ok_or_else(|| format!("unknown variant '{v}'"))?;
            }
            "--scale" => {
                let v = next_val(&mut args, "--scale")?;
                cli.scale = Scale::from_name(&v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--seed" => {
                cli.seed = next_val(&mut args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--format" => {
                cli.json = match next_val(&mut args, "--format")?.as_str() {
                    "human" => false,
                    "json" => true,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--deny" => cli.deny.parse_into(&next_val(&mut args, "--deny")?)?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let smp = cli.smp_certify || cli.smp_seeded_race || cli.smp_seeded_fbit;
    if cli.diff.is_some() && (!cli.apps.is_empty() || !cli.plans.is_empty() || smp) {
        return Err("--diff cannot be combined with lint targets".into());
    }
    if cli.litmus.is_some() && (!cli.apps.is_empty() || !cli.plans.is_empty() || smp) {
        return Err("--litmus cannot be combined with lint targets".into());
    }
    if cli.infer_hop_budget {
        if smp || cli.diff.is_some() {
            return Err("--infer-hop-budget only combines with --app/--plan targets".into());
        }
        if cli.apps.is_empty() && cli.plans.is_empty() {
            return Err("--infer-hop-budget needs at least one --app or --plan target".into());
        }
    }
    if cli.alias {
        if smp || cli.diff.is_some() || cli.litmus.is_some() {
            return Err("--alias-summary only combines with --app/--plan targets".into());
        }
        if cli.apps.is_empty() && cli.plans.is_empty() {
            return Err("--alias-summary needs at least one --app or --plan target".into());
        }
    }
    if cli.repair.is_some() && (cli.plans.len() != 1 || !cli.apps.is_empty() || smp) {
        return Err("--repair takes exactly one --plan target".into());
    }
    if cli.diff.is_none()
        && cli.litmus.is_none()
        && cli.apps.is_empty()
        && cli.plans.is_empty()
        && !smp
    {
        return Err(
            "nothing to lint: give --app, --plan, --smp-certify, --smp-seeded-race, \
             --smp-seeded-fbit, --litmus or --diff"
                .into(),
        );
    }
    Ok(cli)
}

/// `--infer-hop-budget`: for each target, report the minimum safe
/// `hard_hop_budget` and gate on the configured one. A budget of `none`
/// disables the machine's hop check entirely, so it always passes; a
/// cyclic plan fails under every finite budget.
fn run_infer(cli: &Cli) -> ! {
    struct Row {
        target: String,
        required: Option<u32>,
        configured: Option<u32>,
    }
    let mut rows: Vec<Row> = Vec::new();
    for &app in &cli.apps {
        let mut cfg = RunConfig::new(cli.variant);
        cfg.scale = cli.scale;
        cfg.seed = cli.seed;
        let cap = capture_app_plan(app, &cfg);
        let target = app_target(app, &cfg);
        let (_, required) = infer_hop_budget(&target, &cap.plan);
        rows.push(Row {
            target,
            required,
            configured: cap.plan.hard_hop_budget,
        });
    }
    for path in &cli.plans {
        let load = |r: Result<String, std::io::Error>| {
            r.unwrap_or_else(|e| {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(2);
            })
        };
        let text = load(std::fs::read_to_string(path));
        let plan = parse_plan(&text).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        });
        let target = format!("plan:{}", path.display());
        let (_, required) = infer_hop_budget(&target, &plan);
        rows.push(Row {
            target,
            required,
            configured: plan.hard_hop_budget,
        });
    }

    let row_ok = |r: &Row| match (r.required, r.configured) {
        (None, _) => false,      // cyclic: no finite budget is safe
        (Some(_), None) => true, // hop check disabled: nothing to overrun
        (Some(req), Some(cfg)) => cfg >= req,
    };
    let mut failed = 0usize;
    if cli.json {
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            let esc: String = r
                .target
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    c => vec![c],
                })
                .collect();
            let fmt_opt = |v: Option<u32>| v.map_or("null".to_string(), |n| n.to_string());
            out.push_str(&format!(
                "  {{\"target\": \"{esc}\", \"min_safe_hop_budget\": {}, \"configured\": {}, \"cyclic\": {}, \"ok\": {}}}{}\n",
                fmt_opt(r.required),
                fmt_opt(r.configured),
                r.required.is_none(),
                row_ok(r),
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        out.push_str("]\n");
        print!("{out}");
        failed = rows.iter().filter(|r| !row_ok(r)).count();
    } else {
        for r in &rows {
            let ok = row_ok(r);
            if !ok {
                failed += 1;
            }
            match r.required {
                None => println!(
                    "{}: no finite hard_hop_budget is safe (forwarding cycle, MF001)  [FAIL]",
                    r.target
                ),
                Some(req) => println!(
                    "{}: minimum safe hard_hop_budget = {req} (configured: {})  [{}]",
                    r.target,
                    r.configured.map_or("none".to_string(), |c| c.to_string()),
                    if ok { "ok" } else { "FAIL" },
                ),
            }
        }
    }
    if failed > 0 {
        eprintln!("memfwd_lint: {failed} target(s) with an unsafe hop budget");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Reads and parses a plan file, exiting 2 on I/O or syntax errors.
fn load_plan(path: &PathBuf) -> memfwd::RelocPlan {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", path.display());
        std::process::exit(2);
    });
    parse_plan(&text).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// `--litmus`: model-check one `.litmus` file, or every one in a
/// directory, under both memory models.
fn run_litmus(cli: &Cli, path: &PathBuf) -> ! {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        let entries = std::fs::read_dir(path).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        });
        entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
            .collect()
    } else {
        vec![path.clone()]
    };
    files.sort();
    if files.is_empty() {
        eprintln!("error: {}: no .litmus files", path.display());
        std::process::exit(2);
    }
    let mut results = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", file.display());
            std::process::exit(2);
        });
        let stem = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "litmus".to_string());
        let test = parse_litmus(&text, &stem).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", file.display());
            std::process::exit(2);
        });
        match check_litmus(&test) {
            Ok(result) => results.push(result),
            Err(e) => {
                eprintln!("error: {}: {e}", file.display());
                std::process::exit(2);
            }
        }
    }
    if cli.json {
        print!("{}", render_litmus_json(&results));
    } else {
        print!("{}", render_litmus_human(&results));
    }
    let failed = results.iter().filter(|r| !r.passed()).count();
    if failed > 0 {
        eprintln!("memfwd_lint: {failed} litmus test(s) failed");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `--alias-summary`: aliasing statistics for each target.
fn run_alias(cli: &Cli) -> ! {
    let mut summaries: Vec<AliasSummary> = Vec::new();
    for &app in &cli.apps {
        let mut cfg = RunConfig::new(cli.variant);
        cfg.scale = cli.scale;
        cfg.seed = cli.seed;
        let cap = capture_app_plan(app, &cfg);
        summaries.push(alias_summary(&app_target(app, &cfg), &cap.plan));
    }
    for path in &cli.plans {
        let plan = load_plan(path);
        summaries.push(alias_summary(&format!("plan:{}", path.display()), &plan));
    }
    if cli.json {
        print!("{}", render_alias_json(&summaries));
    } else {
        print!("{}", render_alias_human(&summaries));
    }
    std::process::exit(0);
}

/// `--repair`: terminal-rewrite the single `--plan` target and write the
/// re-verified result to `out`. The output file is written only when
/// the repaired plan certifies free of error-severity findings.
fn run_repair(cli: &Cli, out: &PathBuf) -> ! {
    let path = &cli.plans[0];
    let plan = load_plan(path);
    let target = format!("plan:{}", path.display());
    match repair_plan(&target, &plan) {
        RepairOutcome::AlreadyClean { report } => {
            std::fs::write(out, render_plan(&plan)).unwrap_or_else(|e| {
                eprintln!("error: {}: {e}", out.display());
                std::process::exit(2);
            });
            println!(
                "{target}: already clean ({:?}); copied unchanged",
                report.verdict()
            );
            std::process::exit(0);
        }
        RepairOutcome::Repaired {
            plan: repaired,
            edits,
            report,
        } => {
            std::fs::write(out, render_plan(&repaired)).unwrap_or_else(|e| {
                eprintln!("error: {}: {e}", out.display());
                std::process::exit(2);
            });
            println!(
                "{target}: repaired with {} edit(s), re-verified {:?}",
                edits.len(),
                report.verdict()
            );
            print!("{}", render_edits(&edits));
            std::process::exit(0);
        }
        RepairOutcome::Unrepairable { reason, report } => {
            print!("{}", render_human(&report));
            eprintln!("memfwd_lint: {target} is unrepairable: {reason}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    if let Some((old_path, new_path)) = &cli.diff {
        let load = |path: &PathBuf| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(2);
            });
            parse_plan(&text).unwrap_or_else(|e| {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(2);
            })
        };
        let (old, new) = (load(old_path), load(new_path));
        let d = diff_plans(&old, &new);
        let (old_name, new_name) = (
            old_path.display().to_string(),
            new_path.display().to_string(),
        );
        if cli.json {
            print!("{}", render_diff_json(&old_name, &new_name, &d));
        } else {
            print!("{}", render_diff_human(&old_name, &new_name, &d));
        }
        std::process::exit(i32::from(!d.is_identical()));
    }

    if let Some(path) = &cli.litmus {
        run_litmus(&cli, path);
    }

    if cli.infer_hop_budget {
        run_infer(&cli);
    }

    if cli.alias {
        run_alias(&cli);
    }

    if let Some(out) = &cli.repair {
        run_repair(&cli, out);
    }

    let mut reports: Vec<Report> = Vec::new();
    for &app in &cli.apps {
        let mut cfg = RunConfig::new(cli.variant);
        cfg.scale = cli.scale;
        cfg.seed = cli.seed;
        let cap = capture_app_plan(app, &cfg);
        let mut report = verify_plan(&app_target(app, &cfg), &cap.plan);
        if let Err(fault) = &cap.result {
            // A faulted capture run is itself reportable: keep the static
            // findings (they explain the fault) and surface the abort.
            report.target = format!("{} [capture run faulted: {fault}]", report.target);
        }
        reports.push(report);
    }
    for path in &cli.plans {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        let plan = match parse_plan(&text) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        reports.push(verify_plan(&format!("plan:{}", path.display()), &plan));
    }
    if cli.smp_certify {
        reports.extend(certify_stock_campaigns_model(cli.seed, cli.memory_model));
    }
    if cli.smp_seeded_race {
        let (name, cores, trace) = memfwd_analyze::race::seeded_race_campaign();
        reports.push(race_report(name, cores, &trace));
    }
    if cli.smp_seeded_fbit {
        for fenced in [false, true] {
            let (name, cores, trace) = memfwd_analyze::race::seeded_fbit_campaign(fenced);
            reports.push(race_report(name, cores, &trace));
        }
    }

    if cli.json {
        print!("{}", render_json(&reports, &cli.deny));
    } else {
        for r in &reports {
            print!("{}", render_human(r));
        }
    }
    let denied: usize = reports.iter().map(|r| cli.deny.denied(r).count()).sum();
    if denied > 0 {
        eprintln!("memfwd_lint: {denied} denied diagnostic(s)");
        std::process::exit(1);
    }
}
