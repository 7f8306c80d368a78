//! Experiment T: deterministic per-tick tracing of one labeled scenario.
//!
//! The §V attack-effect claims are *temporal* — oscillation builds, joins
//! stay blocked, gaps open tick by tick — but every other experiment here
//! reports end-of-run aggregates. This experiment runs one canonical
//! attacked-and-faulted scenario with a [`TraceRecorder`] attached and
//! emits the full phase-scoped record stream (`TRACE_<label>.jsonl`)
//! alongside the canonical run document whose [`RunSummary`] carries the
//! trace digest. Because every record is stamped with tick-derived time
//! only, the JSONL is byte-identical across worker counts and machines —
//! and [`trace-diff`](diff_cli_main) turns any divergence (a golden
//! mismatch, a nondeterminism regression) into a one-command answer:
//! the first differing tick and phase.

use super::common::{base_scenario, make_attack, Effort, EXPERIMENT_BASE_SEED};
use super::robustness::make_fault;
use super::table4::profile_for;
use platoon_sim::harness::golden::Tolerance;
use platoon_sim::harness::{cli, Batch, BatchReport, JobOutcome};
use platoon_sim::prelude::{Engine, RunSummary};
use platoon_trace::{diff_traces, TraceRecorder};
use std::path::{Path, PathBuf};

/// The attack arm traced by default: reliably detected, so the trace
/// exercises every phase (fault, attack, medium, defense, detector).
pub const DEFAULT_ATTACK: &str = "impersonation";

/// The benign fault riding along (windowed radar outage), so fault-phase
/// records appear in the canonical trace.
pub const FAULT: &str = "sensor-outage";

/// One traced run: the summary (digest folded in) plus the JSONL stream.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRun {
    /// The run summary; `summary.trace` holds the digest of `jsonl`.
    pub summary: RunSummary,
    /// The retained trace as canonical JSONL.
    pub jsonl: String,
}

/// Runs the canonical traced scenario: the base platoon under [`FAULT`]
/// plus `attack` (or none for `"benign"`), default detector pipeline and
/// a [`TraceRecorder`] attached.
pub fn traced_arm(attack: &str, effort: Effort, seed: u64) -> TraceRun {
    let label = format!("trace/{attack}");
    let mut engine = Engine::new(base_scenario(&label, effort).seed(seed).build());
    if let Some(fault) = make_fault(FAULT, effort) {
        engine.add_fault(fault);
    }
    if attack != "benign" {
        engine.add_attack(make_attack(attack, effort));
    }
    engine.attach_detector_config(profile_for("default"));
    engine.attach_tracer(Box::new(TraceRecorder::new()));
    let summary = engine.run();
    let recorder = engine
        .take_tracer()
        .expect("tracer attached above")
        .as_any()
        .downcast_ref::<TraceRecorder>()
        .expect("the attached tracer is a TraceRecorder")
        .clone();
    debug_assert_eq!(summary.trace, Some(recorder.digest()));
    TraceRun {
        summary,
        jsonl: recorder.to_jsonl(),
    }
}

/// A completed trace experiment: the canonical batch document plus the
/// JSONL stream of the traced arm.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Attack arm that was traced.
    pub attack: String,
    /// The batch document (one entry; its summary carries the digest).
    pub report: BatchReport,
    /// The traced arm's JSONL (empty when the job failed).
    pub jsonl: String,
}

/// Runs the trace experiment with an explicit worker count and seed.
///
/// The single job goes through the same crash-isolated [`Batch`] harness
/// as every other experiment, so the canonical document — and the JSONL
/// bytes — must come out identical at any worker count.
pub fn run_with(quick: bool, workers: usize, attack: &str, seed: Option<u64>) -> TraceReport {
    let effort = Effort::new(quick);
    let seed = seed.unwrap_or(EXPERIMENT_BASE_SEED);
    let mut batch: Batch<TraceRun> = Batch::new(EXPERIMENT_BASE_SEED);
    let attack_owned = attack.to_string();
    batch.push_with_seed(format!("trace/{attack}"), seed, move |seed| {
        traced_arm(&attack_owned, effort, seed)
    });
    let entries = batch.run_outcomes(workers);

    let mut jsonl = String::new();
    let report = BatchReport {
        base_seed: EXPERIMENT_BASE_SEED,
        entries: entries
            .into_iter()
            .map(|e| platoon_sim::harness::BatchEntry {
                label: e.label,
                seed: e.seed,
                value: match e.value {
                    JobOutcome::Ok(run) => {
                        jsonl = run.jsonl;
                        JobOutcome::Ok(run.summary)
                    }
                    JobOutcome::Failed { reason } => JobOutcome::Failed { reason },
                },
            })
            .collect(),
    };
    TraceReport {
        attack: attack.to_string(),
        report,
        jsonl,
    }
}

/// Runs the default traced arm at default width.
pub fn run(quick: bool) -> TraceReport {
    run_with(
        quick,
        platoon_sim::harness::default_workers(),
        DEFAULT_ATTACK,
        None,
    )
}

/// Canonical JSON rendering of the batch document (the golden-snapshot
/// unit; the digest rides in the entry's `trace` field).
pub fn to_canonical_json(report: &TraceReport) -> String {
    report.report.to_canonical_json()
}

/// Writes `TRACE_<label>.json` (document) and `TRACE_<label>.jsonl`
/// (record stream) into `out_dir`, returning both paths.
fn write_report_files(
    report: &TraceReport,
    label: &str,
    out_dir: &Path,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let doc = cli::write_document(
        out_dir,
        &format!("TRACE_{label}.json"),
        to_canonical_json(report),
    )?;
    let jsonl = cli::write_document(out_dir, &format!("TRACE_{label}.jsonl"), &report.jsonl)?;
    Ok((doc, jsonl))
}

/// Entry point for the `trace` subcommand. Returns the process exit code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut quick = false;
    let mut workers = platoon_sim::harness::default_workers();
    let mut attack = DEFAULT_ATTACK.to_string();
    let mut seed: Option<u64> = None;
    let mut out_dir = PathBuf::from(".");
    let mut check_golden: Option<PathBuf> = None;
    let usage = format!(
        "usage: trace [--quick] [--workers N] [--attack NAME] [--seed N]\n\
         \x20            [--out DIR] [--check-golden PATH]\n\
         \x20 --quick          short run (the CI smoke scenario)\n\
         \x20 --workers N      worker threads (default: available parallelism)\n\
         \x20 --attack NAME    attack arm to trace (default: {DEFAULT_ATTACK};\n\
         \x20                  `benign` for no attack)\n\
         \x20 --seed N         pin the run seed (default: the experiment base seed)\n\
         \x20 --out DIR        where TRACE_<label>.json/.jsonl land (default: .)\n\
         \x20 --check-golden P snapshot-match the document against P"
    );
    let parsed = cli::parse_flags(args, &usage, |flag| {
        match flag.name() {
            "--quick" => quick = true,
            "--workers" => workers = flag.parse()?,
            "--attack" => attack = flag.value()?,
            "--seed" => seed = Some(flag.parse()?),
            "--out" => out_dir = flag.value()?.into(),
            "--check-golden" => check_golden = Some(flag.value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }

    let label = if quick { "quick" } else { "full" };
    eprintln!("tracing trace/{attack} ({label} effort, {workers} workers)...");
    let report = run_with(quick, workers, &attack, seed);
    for (job, reason) in report.report.failures() {
        eprintln!("failed job {job:?}: {reason}");
    }
    if let Some(entry) = report.report.entries.first() {
        if let Some(s) = entry.value.as_ok() {
            println!("{}", s.one_line());
            if let Some(d) = &s.trace {
                println!(
                    "trace: {} record(s), {} dropped, digest {:016x}",
                    d.records, d.dropped, d.hash
                );
            }
        }
    }
    match write_report_files(&report, label, &out_dir) {
        Ok((doc, jsonl)) => eprintln!(
            "wrote {} and {} ({} trace line(s))",
            doc.display(),
            jsonl.display(),
            report.jsonl.lines().count()
        ),
        Err(e) => {
            eprintln!("error: writing report: {e}");
            return 1;
        }
    }

    if let Some(path) = check_golden {
        let document = to_canonical_json(&report);
        if !cli::check_golden(&path, &document, Tolerance::snapshot(), "trace") {
            return 1;
        }
    }
    0
}

/// Entry point for the `trace-diff` subcommand: byte-compares two JSONL
/// traces and reports the first diverging tick/phase. Exit codes: 0 when
/// identical, 1 on divergence, 2 on usage or I/O errors.
pub fn diff_cli_main(args: &[String]) -> i32 {
    match args {
        [a] if a == "--help" || a == "-h" => {
            eprintln!(
                "usage: trace-diff LEFT.jsonl RIGHT.jsonl\n\
                 byte-compares two canonical traces; on divergence prints the first\n\
                 differing line with its tick and phase and exits 1"
            );
            0
        }
        [left_path, right_path] => {
            let read =
                |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
            let (left, right) = match (read(left_path), read(right_path)) {
                (Ok(l), Ok(r)) => (l, r),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            match diff_traces(&left, &right) {
                None => {
                    println!("traces identical ({} line(s))", left.lines().count());
                    0
                }
                Some(d) => {
                    println!("traces diverge at {}", d.describe());
                    1
                }
            }
        }
        _ => {
            eprintln!("error: trace-diff takes exactly two trace files (try --help)");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::harness::golden;
    use platoon_trace::diff::END_OF_TRACE;

    fn golden_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_quick.json")
    }

    #[test]
    fn quick_trace_covers_every_phase_and_matches_golden() {
        let report = run(true);
        assert!(
            report.report.failures().next().is_none(),
            "traced arm must complete"
        );
        let summary = report.report.summary("trace/impersonation");
        let digest = summary.trace.expect("digest folded into the summary");
        assert!(digest.records > 0);
        assert_eq!(digest.dropped, 0, "quick run fits the recorder bound");
        assert_eq!(
            report.jsonl.lines().count() as u64,
            digest.records,
            "every record retained"
        );
        // The canonical scenario exercises the full phase vocabulary.
        for phase in ["fault", "medium", "detector"] {
            assert!(
                report.jsonl.contains(&format!("\"phase\": \"{phase}\"")),
                "no {phase}-phase records in the trace"
            );
        }
        golden::assert_matches(
            &golden_path(),
            &to_canonical_json(&report),
            Tolerance::snapshot(),
        );
    }

    #[test]
    fn trace_is_byte_identical_across_worker_counts() {
        let serial = run_with(true, 1, DEFAULT_ATTACK, None);
        let parallel = run_with(true, 8, DEFAULT_ATTACK, None);
        assert_eq!(
            serial.jsonl, parallel.jsonl,
            "trace JSONL must be byte-identical across worker counts"
        );
        assert_eq!(to_canonical_json(&serial), to_canonical_json(&parallel));
        assert_eq!(diff_traces(&serial.jsonl, &parallel.jsonl), None);
    }

    #[test]
    fn different_seeds_diverge_at_a_named_tick_and_phase() {
        let a = run_with(true, 2, DEFAULT_ATTACK, Some(EXPERIMENT_BASE_SEED));
        let b = run_with(true, 2, DEFAULT_ATTACK, Some(EXPERIMENT_BASE_SEED + 1));
        let d = diff_traces(&a.jsonl, &b.jsonl)
            .expect("different channel noise must diverge the traces");
        assert!(d.line >= 1);
        assert!(
            d.tick.is_some(),
            "divergence names its tick: {}",
            d.describe()
        );
        if d.left != END_OF_TRACE && d.right != END_OF_TRACE {
            assert!(
                d.phase.is_some(),
                "divergence names its phase: {}",
                d.describe()
            );
        }
    }
}
