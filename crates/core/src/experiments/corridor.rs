//! Experiment C: highway-scale corridor worlds.
//!
//! Every other experiment drives one platoon of at most a dozen trucks;
//! this one builds a multi-platoon *corridor* — several independent
//! platoons sharing one roadway with RSUs spaced along the span, a
//! legitimate joiner, and a mid-run split + merge of the lead platoon —
//! and scales it to thousands of vehicles.
//!
//! Two medium configurations run over the same corridor and seed:
//!
//! * **allpairs** — the seed semantics: `radio_horizon_m = ∞`, every
//!   (frame, receiver) pair evaluated by the O(n²) scan;
//! * **indexed** — a finite radio horizon ([`CORRIDOR_HORIZON_M`], just
//!   past the DSRC nominal range), which switches the medium to the
//!   [`platoon_v2x::spatial::SpatialGrid`] range-query path.
//!
//! The cells land in two documents: `CORRIDOR_<label>.json` (the canonical
//! batch document of [`RunSummary`]s — the golden-snapshot unit) and
//! `BENCH_corridor_<label>.json` (wall times plus the deterministic
//! `pairs_considered` work counter, which is what the indexed path
//! provably shrinks). Summaries are byte-identical across worker counts
//! *and* engine thread counts; only the wall numbers vary.

use platoon_crypto::cert::PrincipalId;
use platoon_proto::messages::PlatoonId;
use platoon_sim::engine::Engine;
use platoon_sim::harness::golden::Tolerance;
use platoon_sim::harness::{cli, json, Batch, BatchReport, JobOutcome};
use platoon_sim::prelude::{
    AuthMode, JoinerAgent, JoinerCredentials, RunSummary, Scenario, ScenarioBuilder,
};
use platoon_trace::TraceRecorder;
use platoon_v2x::message::NodeId;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Base seed of the corridor grid (cell seeds derive from the labels).
pub const CORRIDOR_BASE_SEED: u64 = 0xC0 + 2021;

/// Radio horizon of the indexed arms in metres: just past the DSRC
/// nominal (median ≈ noise floor) range of ~742 m at the default 20 dBm,
/// so the grid only prunes pairs whose delivery probability is
/// negligible.
pub const CORRIDOR_HORIZON_M: f64 = 750.0;

/// Bumper-to-bumper distance between consecutive platoons.
pub const PLATOON_SPACING_M: f64 = 150.0;

/// RSU spacing along the corridor (one RSU "segment" per this many
/// metres; moving platoons hand over from one RSU's range to the next).
pub const RSU_SPACING_M: f64 = 1500.0;

/// A corridor scenario: `platoons` platoons of `per` trucks each, RSUs
/// along the whole span, and the given radio horizon
/// (`f64::INFINITY` = the all-pairs seed semantics).
pub fn corridor_scenario(
    label: &str,
    per: usize,
    platoons: usize,
    duration: f64,
    horizon: f64,
) -> ScenarioBuilder {
    // Span estimate for RSU placement: per-vehicle slots plus the
    // inter-platoon gaps (truck length 16.5 m + 10 m gap each).
    let span =
        (per * platoons) as f64 * 26.5 + platoons.saturating_sub(1) as f64 * PLATOON_SPACING_M;
    let mut b = Scenario::builder()
        .label(label)
        .vehicles(per)
        .platoons(platoons)
        .platoon_spacing(PLATOON_SPACING_M)
        .auth(AuthMode::None)
        .duration(duration)
        .seed(2021)
        .radio_horizon(horizon);
    let mut x = 0.0;
    while x <= span {
        b = b.rsu((x, 8.0));
        x += RSU_SPACING_M;
    }
    b
}

/// One completed corridor run.
#[derive(Clone, Debug, PartialEq)]
pub struct CorridorRun {
    /// The run summary (trace digest folded in).
    pub summary: RunSummary,
    /// Total vehicles in the world.
    pub vehicles: usize,
    /// Cumulative RF (frame, receiver) pairs the medium sampled.
    pub pairs_considered: u64,
    /// Wall-clock milliseconds of the engine loop.
    pub wall_ms: f64,
}

/// Runs one corridor arm: builds the world, attaches a trace recorder,
/// and drives the engine manually so the lead platoon splits a third of
/// the way in and merges back at two thirds, with a legitimate joiner
/// knocking throughout.
pub fn corridor_arm(
    label: &str,
    per: usize,
    platoons: usize,
    duration: f64,
    horizon: f64,
    threads: usize,
    seed: u64,
) -> CorridorRun {
    let scenario = corridor_scenario(label, per, platoons, duration, horizon)
        .seed(seed)
        .build();
    let comm_step = scenario.comm_step;
    let mut engine = Engine::new(scenario);
    engine.set_threads(threads);
    engine.attach_tracer(Box::new(TraceRecorder::new()));
    // The joiner drives alongside the *lead* platoon (the one owning the
    // manoeuvre engine). It positions itself relative to the world's tail
    // vehicle, which in a corridor belongs to the rearmost platoon — so
    // the trail gap is negative by roughly the corridor's length.
    let world_span =
        (per * platoons) as f64 * 26.5 + platoons.saturating_sub(1) as f64 * PLATOON_SPACING_M;
    let join_trail_gap = per as f64 * 26.5 + 40.0 - world_span;
    engine.add_attack(Box::new(
        JoinerAgent::new(
            PrincipalId(900_000),
            NodeId(900_000),
            JoinerCredentials::None,
            PlatoonId(1),
            2.0,
        )
        .with_trail_gap(join_trail_gap),
    ));
    let steps = (duration / comm_step).round() as u64;
    let split_at = steps / 3;
    let merge_at = steps * 2 / 3;
    let t0 = Instant::now();
    for step in 0..steps {
        if step == split_at && per >= 4 {
            // Split the lead platoon in half (platoon-local index).
            let _ = engine.command_split(per / 2);
        }
        if step == merge_at {
            engine.command_merge();
        }
        engine.step();
    }
    engine.restore_faults();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    CorridorRun {
        summary: engine.summary(),
        vehicles: engine.world().vehicles.len(),
        pairs_considered: engine.medium_pairs_considered(),
        wall_ms,
    }
}

/// One cell of the corridor grid. Public so the job service can enumerate
/// the grid ([`grid`]) without re-deriving it.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Cell label (seed derivation input).
    pub label: &'static str,
    /// Trucks per platoon.
    pub per: usize,
    /// Platoon count.
    pub platoons: usize,
    /// Run duration in seconds.
    pub duration: f64,
    /// Radio horizon in metres; `None` = all-pairs (infinite horizon).
    pub horizon: Option<f64>,
}

/// The corridor grid for the given effort, in grid order.
pub fn grid(quick: bool) -> &'static [CellSpec] {
    if quick {
        QUICK_GRID
    } else {
        FULL_GRID
    }
}

/// The quick grid: one mid-size corridor in both medium configurations
/// (48 vehicles — big enough that the index visibly shrinks the pair
/// count, small enough for the CI smoke budget).
const QUICK_GRID: &[CellSpec] = &[
    CellSpec {
        label: "corridor/indexed/6x8",
        per: 8,
        platoons: 6,
        duration: 20.0,
        horizon: Some(CORRIDOR_HORIZON_M),
    },
    CellSpec {
        label: "corridor/allpairs/6x8",
        per: 8,
        platoons: 6,
        duration: 20.0,
        horizon: None,
    },
];

/// The full grid adds a wider corridor for a stable wall-time comparison
/// and a highway-scale cell (5000 vehicles) that only the indexed path
/// can afford.
const FULL_GRID: &[CellSpec] = &[
    CellSpec {
        label: "corridor/indexed/6x8",
        per: 8,
        platoons: 6,
        duration: 20.0,
        horizon: Some(CORRIDOR_HORIZON_M),
    },
    CellSpec {
        label: "corridor/allpairs/6x8",
        per: 8,
        platoons: 6,
        duration: 20.0,
        horizon: None,
    },
    CellSpec {
        label: "corridor/indexed/40x8",
        per: 8,
        platoons: 40,
        duration: 10.0,
        horizon: Some(CORRIDOR_HORIZON_M),
    },
    CellSpec {
        label: "corridor/allpairs/40x8",
        per: 8,
        platoons: 40,
        duration: 10.0,
        horizon: None,
    },
    CellSpec {
        label: "corridor/indexed/500x10",
        per: 10,
        platoons: 500,
        duration: 2.0,
        horizon: Some(CORRIDOR_HORIZON_M),
    },
];

/// Perf sidecar of one cell (everything except `wall_ms` is
/// deterministic).
#[derive(Clone, Debug)]
pub struct CorridorCell {
    /// Cell label (seed derivation input).
    pub label: String,
    /// Derived seed the cell ran with.
    pub seed: u64,
    /// Total vehicles in the cell's world.
    pub vehicles: usize,
    /// Whether the spatial index was active (finite horizon).
    pub indexed: bool,
    /// Cumulative RF pairs the medium sampled (deterministic).
    pub pairs_considered: u64,
    /// Wall-clock milliseconds (machine-dependent).
    pub wall_ms: f64,
}

/// A completed corridor experiment.
#[derive(Clone, Debug)]
pub struct CorridorReport {
    /// Document label (`quick` / `full`).
    pub label: String,
    /// Engine threads every cell ran with.
    pub threads: usize,
    /// The canonical batch document of summaries (the golden unit).
    pub report: BatchReport,
    /// Perf sidecar, in grid order.
    pub cells: Vec<CorridorCell>,
}

/// Runs the corridor grid with explicit worker and engine-thread counts.
pub fn run_with(quick: bool, workers: usize, threads: usize) -> CorridorReport {
    let grid = grid(quick);
    let mut batch: Batch<CorridorRun> = Batch::new(CORRIDOR_BASE_SEED);
    for spec in grid {
        let spec = spec.clone();
        batch.push(spec.label, move |seed| {
            corridor_arm(
                spec.label,
                spec.per,
                spec.platoons,
                spec.duration,
                spec.horizon.unwrap_or(f64::INFINITY),
                threads,
                seed,
            )
        });
    }
    let entries = batch.run_outcomes(workers);

    let mut cells = Vec::new();
    let report = BatchReport {
        base_seed: CORRIDOR_BASE_SEED,
        entries: entries
            .into_iter()
            .zip(grid)
            .map(|(e, spec)| platoon_sim::harness::BatchEntry {
                label: e.label.clone(),
                seed: e.seed,
                value: match e.value {
                    JobOutcome::Ok(run) => {
                        cells.push(CorridorCell {
                            label: e.label,
                            seed: e.seed,
                            vehicles: run.vehicles,
                            indexed: spec.horizon.is_some(),
                            pairs_considered: run.pairs_considered,
                            wall_ms: run.wall_ms,
                        });
                        JobOutcome::Ok(run.summary)
                    }
                    JobOutcome::Failed { reason } => JobOutcome::Failed { reason },
                },
            })
            .collect(),
    };
    CorridorReport {
        label: if quick { "quick" } else { "full" }.to_string(),
        threads,
        report,
        cells,
    }
}

/// Runs the quick/full grid at default width, single engine thread.
pub fn run(quick: bool) -> CorridorReport {
    run_with(quick, platoon_sim::harness::default_workers(), 1)
}

/// Canonical JSON of the batch document (the golden-snapshot unit: no
/// timing or thread-count fields, byte-identical everywhere).
pub fn to_canonical_json(report: &CorridorReport) -> String {
    report.report.to_canonical_json()
}

impl CorridorReport {
    /// The matched indexed/all-pairs cell pairs: `(indexed, allpairs)`
    /// cells that ran the same corridor.
    pub fn matched_pairs(&self) -> Vec<(&CorridorCell, &CorridorCell)> {
        self.cells
            .iter()
            .filter(|c| c.indexed)
            .filter_map(|ic| {
                let twin = ic.label.replace("/indexed/", "/allpairs/");
                self.cells
                    .iter()
                    .find(|c| !c.indexed && c.label == twin)
                    .map(|ac| (ic, ac))
            })
            .collect()
    }

    /// The `BENCH_corridor_<label>.json` document: wall times plus the
    /// deterministic pair counters, with the indexed-vs-allpairs ratios
    /// for every matched corridor.
    pub fn bench_document(&self) -> String {
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_str("label", &self.label);
            w.field_u64("base_seed", CORRIDOR_BASE_SEED);
            w.field_u64("threads", self.threads as u64);
            w.field_arr("cells", |w| {
                for c in &self.cells {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("label", &c.label);
                            w.field_u64("seed", c.seed);
                            w.field_u64("vehicles", c.vehicles as u64);
                            w.field_bool("indexed", c.indexed);
                            w.field_u64("pairs_considered", c.pairs_considered);
                            w.field_f64("wall_ms", c.wall_ms);
                        })
                    });
                }
            });
            w.field_arr("comparisons", |w| {
                for (ic, ac) in self.matched_pairs() {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("corridor", &ic.label);
                            w.field_u64("indexed_pairs", ic.pairs_considered);
                            w.field_u64("allpairs_pairs", ac.pairs_considered);
                            w.field_f64(
                                "pairs_ratio",
                                ic.pairs_considered as f64 / ac.pairs_considered.max(1) as f64,
                            );
                            w.field_f64("indexed_wall_ms", ic.wall_ms);
                            w.field_f64("allpairs_wall_ms", ac.wall_ms);
                        })
                    });
                }
            });
        });
        w.finish()
    }

    /// Asserts the indexed medium did strictly less pair work than the
    /// all-pairs scan on every matched corridor. Returns the failures
    /// (empty = the index earns its keep).
    pub fn check_speedup(&self) -> Vec<String> {
        let pairs = self.matched_pairs();
        if pairs.is_empty() {
            return vec!["no matched indexed/allpairs corridor cells".to_string()];
        }
        pairs
            .iter()
            .filter(|(ic, ac)| ic.pairs_considered >= ac.pairs_considered)
            .map(|(ic, ac)| {
                format!(
                    "{}: indexed considered {} pairs, all-pairs {}",
                    ic.label, ic.pairs_considered, ac.pairs_considered
                )
            })
            .collect()
    }
}

/// Writes `CORRIDOR_<label>.json` and `BENCH_corridor_<label>.json` into
/// `out_dir`, returning both paths.
fn write_report_files(
    report: &CorridorReport,
    out_dir: &Path,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let label = &report.label;
    let doc = cli::write_document(
        out_dir,
        &format!("CORRIDOR_{label}.json"),
        to_canonical_json(report),
    )?;
    let bench = cli::write_document(
        out_dir,
        &format!("BENCH_corridor_{label}.json"),
        report.bench_document(),
    )?;
    Ok((doc, bench))
}

const USAGE: &str = "usage: corridor [--quick] [--workers N] [--threads N] [--out DIR]\n\
\x20               [--check-golden PATH] [--assert-speedup]\n\
\x20 --quick          the 48-vehicle CI smoke corridor (indexed + all-pairs)\n\
\x20 --workers N      harness worker processes (default: available parallelism)\n\
\x20 --threads N      intra-run engine threads (default: 1; never changes results)\n\
\x20 --out DIR        where CORRIDOR_*.json / BENCH_corridor_*.json land (default: .)\n\
\x20 --check-golden P snapshot-match the canonical document against P\n\
\x20 --assert-speedup fail unless the indexed medium sampled strictly\n\
\x20                  fewer pairs than the all-pairs scan";

/// Entry point for the `corridor` subcommand. Returns the process exit
/// code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut quick = false;
    let mut workers = platoon_sim::harness::default_workers();
    let mut threads = 1usize;
    let mut out_dir = PathBuf::from(".");
    let mut check_golden: Option<PathBuf> = None;
    let mut assert_speedup = false;
    let parsed = cli::parse_flags(args, USAGE, |flag| {
        match flag.name() {
            "--quick" => quick = true,
            "--workers" => workers = flag.parse()?,
            "--threads" => threads = flag.parse()?,
            "--out" => out_dir = flag.value()?.into(),
            "--check-golden" => check_golden = Some(flag.value()?.into()),
            "--assert-speedup" => assert_speedup = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }

    eprintln!(
        "running corridor grid ({} effort, {workers} workers, {threads} engine thread(s))...",
        if quick { "quick" } else { "full" },
    );
    let report = run_with(quick, workers, threads);
    for (job, reason) in report.report.failures() {
        eprintln!("failed job {job:?}: {reason}");
    }
    for c in &report.cells {
        eprintln!(
            "  {:<26} {:>5} vehicles  {:>12} pairs  {:>9.1} ms",
            c.label, c.vehicles, c.pairs_considered, c.wall_ms
        );
    }
    match write_report_files(&report, &out_dir) {
        Ok((doc, bench)) => eprintln!("wrote {} and {}", doc.display(), bench.display()),
        Err(e) => {
            eprintln!("error: writing report: {e}");
            return 1;
        }
    }

    let mut failed = report.report.failures().next().is_some();
    if let Some(path) = check_golden {
        let document = to_canonical_json(&report);
        failed |= !cli::check_golden(&path, &document, Tolerance::snapshot(), "corridor");
    }
    if assert_speedup {
        let failures = report.check_speedup();
        if failures.is_empty() {
            eprintln!("indexed medium beat the all-pairs scan on every matched corridor");
        } else {
            for f in &failures {
                eprintln!("speedup assertion failed: {f}");
            }
            failed = true;
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::harness::golden;

    fn golden_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/corridor_quick.json")
    }

    #[test]
    fn quick_corridor_beats_allpairs_and_is_invariant() {
        let one = run_with(true, 1, 1);
        assert!(
            one.report.failures().next().is_none(),
            "corridor cells must complete"
        );
        golden::assert_matches(
            &golden_path(),
            &to_canonical_json(&one),
            Tolerance::snapshot(),
        );
        // The indexed arm did strictly less medium work.
        assert!(one.check_speedup().is_empty(), "{:?}", one.check_speedup());
        // Summaries (and so the canonical document) are invariant across
        // harness worker counts AND engine thread counts.
        let wide = run_with(true, 4, 3);
        assert_eq!(to_canonical_json(&one), to_canonical_json(&wide));
        // The deterministic side of the bench document is invariant too.
        for (a, b) in one.cells.iter().zip(&wide.cells) {
            assert_eq!(a.pairs_considered, b.pairs_considered, "{}", a.label);
            assert_eq!(a.vehicles, b.vehicles);
        }
        // The corridor actually is multi-platoon and manoeuvring: a
        // corridor is fragmented by construction, the lead platoon split,
        // and the joiner got in.
        let summary = one.report.summary("corridor/indexed/6x8");
        assert!(summary.fragmented_fraction > 0.0);
        assert!(summary.maneuvers.splits >= 1, "split never happened");
        assert!(
            summary.maneuvers.joins_accepted >= 1,
            "the corridor joiner was never accepted"
        );
    }

    #[test]
    fn bench_document_parses_and_carries_ratios() {
        let report = run_with(true, 2, 1);
        let doc = report.bench_document();
        let parsed = json::parse(&doc).expect("bench document parses");
        let comparisons = match parsed.get("comparisons") {
            Some(json::Value::Arr(c)) => c,
            _ => panic!("no comparisons array"),
        };
        assert_eq!(comparisons.len(), 1);
        let ratio = comparisons[0]
            .get("pairs_ratio")
            .and_then(json::Value::as_f64)
            .expect("pairs_ratio present");
        assert!(
            ratio > 0.0 && ratio < 1.0,
            "indexed/allpairs pair ratio should be a real saving, got {ratio}"
        );
    }
}
