//! The machine-readable perf pipeline: a fixed scenario × seed grid run
//! through the experiment harness, emitting a canonical-JSON `BENCH_*.json`
//! document per invocation.
//!
//! Each cell reports its wall time and throughput (ticks/sec, frames/sec)
//! alongside the engine's deterministic [`PerfCounters`]. Cell seeds derive
//! from the cell labels ([`platoon_sim::harness::derive_seed`]), so every
//! counter value is byte-identical across worker counts and machines — only
//! the wall-clock numbers vary. That split is what the CI gate builds on:
//!
//! * the **counter projection** ([`PerfReport::counters_document`]) is
//!   compared exactly against `tests/golden/bench_counters.json` (any drift
//!   means the engine's work content changed — intended changes refresh the
//!   golden with `UPDATE_GOLDEN=1`);
//! * the **wall times** are compared only against a rolling baseline
//!   `BENCH_*.json` with a generous tolerance
//!   ([`PerfReport::compare_baseline`]), catching order-of-magnitude
//!   regressions without flaking on machine noise.
//!
//! The root binary's `perf` subcommand (`cargo run --release -- perf
//! --quick`) is [`cli_main`].

use platoon_detect::pipeline::PipelineConfig;
use platoon_sim::engine::Engine;
use platoon_sim::harness::golden::Tolerance;
use platoon_sim::harness::{cli, json, Batch};
use platoon_sim::perf::PerfCounters;
use platoon_sim::prelude::{AuthMode, CommsMode, ControllerKind, Scenario};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Base seed of the perf grid; cell seeds derive from it and the labels.
pub const PERF_BASE_SEED: u64 = 0xBE2C;

/// One cell of the perf grid: a scenario plus whether the detection
/// pipeline rides along (it changes what the hot path does, so the grid
/// covers both).
struct CellSpec {
    label: &'static str,
    controller: ControllerKind,
    auth: AuthMode,
    comms: CommsMode,
    detect: bool,
}

/// The fixed grid: controller and auth variety on the plain DSRC path,
/// the two hybrid modes (payload sharing across channels, VLC relaying),
/// and one cell with the full detection pipeline attached.
const GRID: &[CellSpec] = &[
    CellSpec {
        label: "perf/acc/none/dsrc",
        controller: ControllerKind::Acc,
        auth: AuthMode::None,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/none/dsrc",
        controller: ControllerKind::Cacc,
        auth: AuthMode::None,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/ploeg/none/dsrc",
        controller: ControllerKind::Ploeg,
        auth: AuthMode::None,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/pki/dsrc",
        controller: ControllerKind::Cacc,
        auth: AuthMode::Pki,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/mac/vlc",
        controller: ControllerKind::Cacc,
        auth: AuthMode::GroupMac,
        comms: CommsMode::HybridVlc,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/mac/cv2x",
        controller: ControllerKind::Cacc,
        auth: AuthMode::GroupMac,
        comms: CommsMode::HybridCv2x,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/pki/dsrc+detect",
        controller: ControllerKind::Cacc,
        auth: AuthMode::Pki,
        comms: CommsMode::DsrcOnly,
        detect: true,
    },
];

/// One measured grid cell.
#[derive(Clone, Debug)]
pub struct PerfCell {
    /// The cell label (seed derivation input).
    pub label: String,
    /// The derived seed the cell ran with.
    pub seed: u64,
    /// Wall-clock milliseconds for the cell's engine run.
    pub wall_ms: f64,
    /// Communication steps per wall-clock second.
    pub ticks_per_sec: f64,
    /// Frames built per wall-clock second.
    pub frames_per_sec: f64,
    /// The engine's deterministic work counters.
    pub counters: PerfCounters,
}

/// A completed perf run: every grid cell plus aggregate totals.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Document label (`quick` / `full`, or operator-chosen).
    pub label: String,
    /// The grid base seed.
    pub base_seed: u64,
    /// Worker threads used (recorded for honesty; no result depends on it).
    pub workers: usize,
    /// The measured cells, in grid order.
    pub cells: Vec<PerfCell>,
    /// Counter totals across all cells.
    pub totals: PerfCounters,
    /// Total wall-clock milliseconds (sum over cells, not elapsed time —
    /// workers overlap cells).
    pub wall_ms_total: f64,
}

/// The grid's cell labels, in grid order. Public so the job service can
/// enumerate the perf grid without re-deriving it.
pub fn cell_labels() -> Vec<&'static str> {
    GRID.iter().map(|spec| spec.label).collect()
}

/// One cell's engine run: deterministic counters plus its wall time.
fn run_cell_spec(spec: &CellSpec, quick: bool, seed: u64) -> (PerfCounters, f64) {
    let (vehicles, duration) = if quick { (4, 20.0) } else { (8, 120.0) };
    let mut scenario = Scenario::builder()
        .label(spec.label)
        .vehicles(vehicles)
        .controller(spec.controller)
        .auth(spec.auth)
        .comms(spec.comms)
        .duration(duration)
        .build();
    scenario.seed = seed;
    let mut engine = Engine::new(scenario);
    if spec.detect {
        engine.attach_detector_config(PipelineConfig::default_profile());
    }
    let t0 = Instant::now();
    engine.run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (*engine.perf(), wall_ms)
}

/// Runs a single grid cell by label with the grid's canonical label-derived
/// seed, returning `(seed, counters)` — the deterministic projection only
/// (wall times are machine noise and deliberately excluded, so the result
/// is cacheable). `None` for an unknown label. Public for the job service.
pub fn run_cell(label: &str, quick: bool) -> Option<(u64, PerfCounters)> {
    let spec = GRID.iter().find(|spec| spec.label == label)?;
    let seed = platoon_sim::harness::derive_seed(label, PERF_BASE_SEED);
    let (counters, _wall_ms) = run_cell_spec(spec, quick, seed);
    Some((seed, counters))
}

/// Runs the perf grid. `quick` shrinks the per-cell duration so the whole
/// grid finishes in seconds (the CI smoke mode); full effort runs long
/// enough for stable throughput numbers.
pub fn run(label: &str, quick: bool, workers: usize) -> PerfReport {
    let mut batch: Batch<(PerfCounters, f64)> = Batch::new(PERF_BASE_SEED);
    for spec in GRID {
        batch.push(spec.label, move |seed| run_cell_spec(spec, quick, seed));
    }

    let mut totals = PerfCounters::default();
    let mut wall_ms_total = 0.0;
    let cells = batch
        .run(workers)
        .into_iter()
        .map(|entry| {
            let (counters, wall_ms) = entry.value;
            totals.accumulate(&counters);
            wall_ms_total += wall_ms;
            let per_sec = |n: u64| {
                if wall_ms > 0.0 {
                    n as f64 / (wall_ms / 1e3)
                } else {
                    0.0
                }
            };
            PerfCell {
                label: entry.label,
                seed: entry.seed,
                wall_ms,
                ticks_per_sec: per_sec(counters.ticks),
                frames_per_sec: per_sec(counters.frames_built),
                counters,
            }
        })
        .collect();

    PerfReport {
        label: label.to_string(),
        base_seed: PERF_BASE_SEED,
        workers,
        cells,
        totals,
        wall_ms_total,
    }
}

impl PerfReport {
    /// The full document: timings plus counters, canonical JSON.
    pub fn to_canonical_json(&self) -> String {
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_str("label", &self.label);
            w.field_u64("base_seed", self.base_seed);
            w.field_u64("workers", self.workers as u64);
            w.field_arr("cells", |w| {
                for c in &self.cells {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("label", &c.label);
                            w.field_u64("seed", c.seed);
                            w.field_f64("wall_ms", c.wall_ms);
                            w.field_f64("ticks_per_sec", c.ticks_per_sec);
                            w.field_f64("frames_per_sec", c.frames_per_sec);
                            w.field_obj("perf", |w| c.counters.write_canonical(w));
                        })
                    });
                }
            });
            w.field_obj("totals", |w| self.totals.write_canonical(w));
            w.field_f64("wall_ms_total", self.wall_ms_total);
        });
        w.finish()
    }

    /// The deterministic projection: labels, seeds and counters only — no
    /// timing fields. Byte-identical for every worker count and machine;
    /// this is what the checked-in counters golden pins.
    pub fn counters_document(&self) -> String {
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_u64("base_seed", self.base_seed);
            w.field_arr("cells", |w| {
                for c in &self.cells {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("label", &c.label);
                            w.field_u64("seed", c.seed);
                            w.field_obj("perf", |w| c.counters.write_canonical(w));
                        })
                    });
                }
            });
            w.field_obj("totals", |w| self.totals.write_canonical(w));
        });
        w.finish()
    }

    /// Compares wall times against a previously recorded `BENCH_*.json`.
    ///
    /// A cell regresses when its wall time exceeds the baseline cell's by
    /// more than `tol_frac` (e.g. `0.3` = +30%) *and* by more than an
    /// absolute 5 ms floor (sub-millisecond cells are pure noise). The
    /// aggregate total is held to the same fractional bound. Returns the
    /// list of regression descriptions — empty means pass. Errors are
    /// reserved for unreadable/malformed baselines.
    pub fn compare_baseline(&self, path: &Path, tol_frac: f64) -> Result<Vec<String>, String> {
        const ABS_FLOOR_MS: f64 = 5.0;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading baseline {}: {e}", path.display()))?;
        let doc = json::parse(&text)
            .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
        let cells = match doc.get("cells") {
            Some(json::Value::Arr(cells)) => cells,
            _ => return Err(format!("baseline {} has no cells array", path.display())),
        };
        let baseline_ms = |label: &str| -> Option<f64> {
            cells
                .iter()
                .find(|c| matches!(c.get("label"), Some(json::Value::Str(l)) if l == label))
                .and_then(|c| c.get("wall_ms"))
                .and_then(json::Value::as_f64)
        };
        let mut regressions = Vec::new();
        for c in &self.cells {
            let Some(base) = baseline_ms(&c.label) else {
                continue; // new cell: nothing to compare against yet
            };
            let bound = base * (1.0 + tol_frac) + ABS_FLOOR_MS;
            if c.wall_ms > bound {
                regressions.push(format!(
                    "{}: {:.1} ms vs baseline {:.1} ms (bound {:.1} ms)",
                    c.label, c.wall_ms, base, bound
                ));
            }
        }
        if let Some(base_total) = doc.get("wall_ms_total").and_then(json::Value::as_f64) {
            let bound = base_total * (1.0 + tol_frac) + ABS_FLOOR_MS;
            if self.wall_ms_total > bound {
                regressions.push(format!(
                    "total: {:.1} ms vs baseline {:.1} ms (bound {:.1} ms)",
                    self.wall_ms_total, base_total, bound
                ));
            }
        }
        Ok(regressions)
    }
}

/// Writes `BENCH_<label>.json` into `dir` and returns the path.
pub fn write_report_file(report: &PerfReport, dir: &Path) -> std::io::Result<PathBuf> {
    cli::write_document(
        dir,
        &format!("BENCH_{}.json", report.label),
        report.to_canonical_json(),
    )
}

const USAGE: &str = "usage: perf [--quick] [--workers N] [--label L] [--out DIR]\n\
\x20           [--check-golden PATH] [--baseline PATH] [--tolerance FRAC]\n\
\x20 --quick          short runs (the CI smoke grid)\n\
\x20 --workers N      worker threads (default: available parallelism)\n\
\x20 --label L        document label (default: quick/full)\n\
\x20 --out DIR        where BENCH_<label>.json is written (default: .)\n\
\x20 --check-golden P exact-match the counter projection against P\n\
\x20 --baseline P     fail on >FRAC wall-time regression vs P\n\
\x20 --tolerance F    baseline tolerance fraction (default: 0.30)";

/// The `perf` subcommand entry. Parses `args` (everything after the
/// subcommand word), runs the grid, writes `BENCH_<label>.json`, and applies
/// the requested gates. Returns the process exit code.
///
/// ```text
/// perf [--quick] [--workers N] [--label L] [--out DIR]
///      [--check-golden PATH] [--baseline PATH] [--tolerance FRAC]
/// ```
pub fn cli_main(args: &[String]) -> i32 {
    let mut quick = false;
    let mut workers = platoon_sim::harness::default_workers();
    let mut label: Option<String> = None;
    let mut out_dir = PathBuf::from(".");
    let mut check_golden: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 0.30;
    let parsed = cli::parse_flags(args, USAGE, |flag| {
        match flag.name() {
            "--quick" => quick = true,
            "--workers" => workers = flag.parse()?,
            "--label" => label = Some(flag.value()?),
            "--out" => out_dir = flag.value()?.into(),
            "--check-golden" => check_golden = Some(flag.value()?.into()),
            "--baseline" => baseline = Some(flag.value()?.into()),
            "--tolerance" => tolerance = flag.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }

    let label = label.unwrap_or_else(|| if quick { "quick" } else { "full" }.to_string());
    eprintln!(
        "running perf grid ({} effort, {} workers)...",
        if quick { "quick" } else { "full" },
        workers
    );
    let report = run(&label, quick, workers);
    match write_report_file(&report, &out_dir) {
        Ok(path) => eprintln!(
            "wrote {} ({} cells, {:.1} ms total)",
            path.display(),
            report.cells.len(),
            report.wall_ms_total
        ),
        Err(e) => {
            eprintln!("error: writing report: {e}");
            return 1;
        }
    }

    let mut failed = false;
    if let Some(path) = check_golden {
        let counters = report.counters_document();
        failed |= !cli::check_golden(&path, &counters, Tolerance::exact(), "counter");
    }
    if let Some(path) = baseline {
        match report.compare_baseline(&path, tolerance) {
            Ok(regressions) if regressions.is_empty() => {
                eprintln!(
                    "wall times within {:.0}% of {}",
                    tolerance * 100.0,
                    path.display()
                )
            }
            Ok(regressions) => {
                eprintln!("wall-time regressions (> {:.0}%):", tolerance * 100.0);
                for r in &regressions {
                    eprintln!("  {r}");
                }
                failed = true;
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_counters_are_worker_count_invariant() {
        let one = run("t", true, 1);
        let eight = run("t", true, 8);
        assert_eq!(one.counters_document(), eight.counters_document());
        assert_eq!(one.totals, eight.totals);
        // The hot path really did avoid clones somewhere in the grid (the
        // hybrid cells share payloads across channels).
        assert!(one.totals.payload_clones_avoided > 0);
        assert!(one.totals.frames_built > 0);
        // The detect cell contributed pipeline observations.
        assert!(one.totals.detector_observations > 0);
    }

    #[test]
    fn baseline_comparison_flags_only_real_regressions() {
        let report = run("base", true, 2);
        let dir = std::env::temp_dir().join(format!("platoon-perf-test-{}", std::process::id()));
        let path = write_report_file(&report, &dir).expect("write baseline");

        // Same run vs itself: inside tolerance.
        let ok = report.compare_baseline(&path, 0.30).expect("comparable");
        assert!(ok.is_empty(), "self-comparison regressions: {ok:?}");

        // A slowed-down copy trips both per-cell and total checks.
        let mut slow = report.clone();
        for c in &mut slow.cells {
            c.wall_ms = c.wall_ms * 2.0 + 100.0;
        }
        slow.wall_ms_total = slow.wall_ms_total * 2.0 + 100.0 * slow.cells.len() as f64;
        let regressions = slow.compare_baseline(&path, 0.30).expect("comparable");
        assert!(!regressions.is_empty());
        assert!(regressions.iter().any(|r| r.starts_with("total:")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counters_document_has_no_timing_fields() {
        let report = run("proj", true, 2);
        let doc = report.counters_document();
        assert!(!doc.contains("wall_ms"));
        assert!(!doc.contains("per_sec"));
        json::parse(&doc).expect("projection parses");
    }
}
