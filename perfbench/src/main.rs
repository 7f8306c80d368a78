//! The repository benchmark: one single-process load generator over the
//! platoon simulator and job service, driven only through their public
//! APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <secure-platoon|corridor|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (each `{value, unit}`). With
//! `--trace 0` the metrics are the end-to-end metrics `BENCHMARK.json`
//! declares; with `--trace 1` they are its per-layer metrics. The lines
//! before it repeat every metric with its sample count. See
//! `perfbench/README.md` for what each metric measures.

mod engine_load;
mod host;
mod probe;
mod service_mix;
mod stats;

use platoon_sim::harness::json::{self, Value};
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// One run's result.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The correctness checks that failed, one line each; the run is
    /// correct when there are none.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64) -> Report {
        Report {
            attempted,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A metric `BENCHMARK.json` declares: name, unit and bound.
struct Declared {
    name: String,
    unit: String,
    bound: Option<f64>,
}

/// The end-to-end and per-layer metrics `BENCHMARK.json` declares.
fn read_declared() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        let text = |m: &Value, field: &str| match m.get(field) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("BENCHMARK.json {key}: a metric lacks {field:?}")),
        };
        items
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Which kind of workload exercises a per-layer metric: `Some(true)` for
/// the job service's layers, `Some(false)` for the engine's, `None` for
/// metrics every workload reports.
fn layer_of_service(name: &str) -> Option<bool> {
    match name.split_once('.')?.0 {
        "host" => None,
        prefix => Some(prefix == "server"),
    }
}

fn run(args: &Args) -> Result<Report, String> {
    use engine_load::Workload;
    let (end_to_end, per_layer) = read_declared()?;
    let step_p90_bound = end_to_end
        .iter()
        .find(|m| m.name == "step_ms_p90")
        .and_then(|m| m.bound)
        .ok_or("BENCHMARK.json declares no bound for step_ms_p90")?;
    let engine = |w: Workload| {
        if args.trace {
            engine_load::run_traced(w, args.seed, args.seconds, step_p90_bound)
        } else {
            engine_load::run(w, args.seed, args.seconds)
        }
    };
    let service = args.workload == "service-mix";
    let mut report = match args.workload.as_str() {
        "secure-platoon" => engine(Workload::SecurePlatoon)?,
        "corridor" => engine(Workload::Corridor)?,
        "service-mix" => service_mix::run(args.seed, args.seconds, args.trace)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let declared = if args.trace { &per_layer } else { &end_to_end };
    if args.trace {
        // The other kind's layers are not exercised by this workload.
        for m in declared
            .iter()
            .filter(|m| layer_of_service(&m.name) == Some(!service))
        {
            report.metrics.push(Metric {
                name: m.name.clone(),
                value: 0.0,
                unit: m.unit.clone(),
                samples: 0,
            });
        }
    }
    let mut printed: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let mut wanted: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    printed.sort_unstable();
    wanted.sort_unstable();
    if printed != wanted {
        return Err(format!(
            "metrics {printed:?} do not match BENCHMARK.json's {wanted:?}"
        ));
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", m.name, m.value));
    }
    Ok(report)
}

fn render(report: &Report) -> String {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_bool("correct", report.notes.is_empty());
        w.field_u64("attempted", report.attempted);
        w.field_u64("failed", report.failed);
        w.field_obj("metrics", |w| {
            for m in &report.metrics {
                w.field_obj(&m.name, |w| {
                    w.field_f64("value", m.value);
                    w.field_str("unit", &m.unit);
                });
            }
        });
    });
    w.finish()
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| {
        let report = run(&args)?;
        Ok((args, report))
    });
    let (args, report) = match result {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for m in &report.metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &report.notes {
        println!("  FAILED CHECK: {note}");
    }
    println!("{}", render(&report));
    ExitCode::SUCCESS
}
