//! The `serve` and `submit` subcommands of the root `platoon-security`
//! binary.
//!
//! ```text
//! serve  [--addr A] [--workers N] [--threads N] [--cache-dir DIR]
//!        [--cache-bytes N] [--job-budget-secs S]
//! submit --experiment NAME [--quick] [--addr A | --in-process] [--out DIR]
//!        [--check-golden PATH] [--assert-all-hits] [--shutdown]
//!        [--retry-secs S] [--workers N] [--threads N]
//!        [--cache-dir DIR] [--cache-bytes N]
//! ```
//!
//! `submit` writes two files into `--out`:
//!
//! * `SERVICE_<experiment>_<label>.json` — the batch document: one entry
//!   per job with its spec, key, and verbatim result document. Hit/miss
//!   status is deliberately **excluded**, so the file is byte-identical
//!   whether results came from the cache or fresh executions — that is
//!   the golden-snapshot unit.
//! * `SERVICE_STATS_<experiment>_<label>.json` — the cache/service
//!   counters plus this batch's hit/executed/failed split (the CI
//!   artifact; machine-state-dependent by design).

use crate::grids::{experiment_grid, EXPERIMENTS};
use crate::job::{JobSpec, CODE_VERSION};
use crate::net::{stats_line, Client, NetServer};
use crate::service::{JobStatus, Service, ServiceConfig};
use platoon_sim::harness::golden::Tolerance;
use platoon_sim::harness::{cli, json};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The default service endpoint.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9471";

/// One job's contribution to the batch document.
struct Row {
    label: String,
    key: String,
    spec: String,
    status: String,
    document: Option<String>,
    error: Option<String>,
}

/// Renders the deterministic batch document (see the module docs).
fn batch_document(experiment: &str, effort: &str, rows: &[Row]) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_str("code_version", CODE_VERSION);
        w.field_str("experiment", experiment);
        w.field_str("effort", effort);
        w.field_arr("jobs", |w| {
            for row in rows {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("label", &row.label);
                        w.field_str("key", &row.key);
                        w.field_raw("spec", &row.spec);
                        match (&row.document, &row.error) {
                            (Some(document), _) => w.field_raw("document", document),
                            (None, Some(error)) => w.field_str("error", error),
                            (None, None) => w.field_str("error", "missing result"),
                        }
                    })
                });
            }
        });
    });
    w.finish()
}

/// Renders the stats document around the server's stats line.
fn stats_document(experiment: &str, effort: &str, stats: &str, rows: &[Row]) -> String {
    let hits = rows.iter().filter(|r| r.status == "hit").count() as u64;
    let executed = rows.iter().filter(|r| r.status == "done").count() as u64;
    let failed = rows.iter().filter(|r| r.status == "failed").count() as u64;
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_str("experiment", experiment);
        w.field_str("effort", effort);
        w.field_obj("batch", |w| {
            w.field_u64("jobs", rows.len() as u64);
            w.field_u64("hits", hits);
            w.field_u64("executed", executed);
            w.field_u64("failed", failed);
            w.field_bool("all_hits", hits == rows.len() as u64);
        });
        w.field_raw("service", stats);
    });
    w.finish()
}

/// Entry point for the `serve` subcommand. Blocks until a client sends a
/// `shutdown` request. Returns the process exit code.
pub fn serve_cli_main(args: &[String]) -> i32 {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut config = ServiceConfig::default();

    let usage = format!(
        "usage: serve [--addr A] [--workers N] [--threads N] [--cache-dir DIR]\n\
         \x20            [--cache-bytes N] [--job-budget-secs S]\n\
         \x20 --addr A            listen address (default: {DEFAULT_ADDR}; use :0 for ephemeral)\n\
         \x20 --workers N         job worker threads (default: available parallelism)\n\
         \x20 --threads N         engine threads per corridor job (default: 1)\n\
         \x20 --cache-dir DIR     persist cached results here (survive restarts)\n\
         \x20 --cache-bytes N     cache byte budget before LRU eviction (default: 64 MiB)\n\
         \x20 --job-budget-secs S per-job wall-time budget, execution time only"
    );
    let parsed = cli::parse_flags(args, &usage, |flag| {
        match flag.name() {
            "--addr" => addr = flag.value()?,
            "--workers" => config.workers = flag.parse()?,
            "--threads" => config.engine_threads = flag.parse()?,
            "--cache-dir" => config.cache.dir = Some(flag.value()?.into()),
            "--cache-bytes" => config.cache.max_bytes = flag.parse()?,
            "--job-budget-secs" => config.job_budget = Some(flag.parse_secs()?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }

    let service = match Service::start(config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("error: starting service: {e}");
            return 1;
        }
    };
    let cache = service.snapshot().cache;
    let server = match NetServer::spawn(Arc::clone(&service), &addr) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: binding {addr}: {e}");
            return 1;
        }
    };
    // Scripts parse this line for the (possibly ephemeral) port.
    println!("listening on {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "{CODE_VERSION} serving on {} ({} cached result(s) loaded, {} rejected); send {{\"type\": \"shutdown\"}} to stop",
        server.addr(),
        cache.loaded,
        cache.rejected
    );
    server.join();
    eprintln!("server stopped");
    0
}

/// Entry point for the `submit` subcommand. Returns the process exit code.
pub fn submit_cli_main(args: &[String]) -> i32 {
    let mut experiment: Option<String> = None;
    let mut quick = false;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut in_process = false;
    let mut out_dir = PathBuf::from(".");
    let mut check_golden: Option<PathBuf> = None;
    let mut assert_all_hits = false;
    let mut shutdown_after = false;
    let mut retry = Duration::from_secs(10);
    let mut config = ServiceConfig::default();

    let usage = format!(
        "usage: submit --experiment NAME [--quick] [--addr A | --in-process]\n\
         \x20             [--out DIR] [--check-golden PATH] [--assert-all-hits]\n\
         \x20             [--shutdown] [--retry-secs S]\n\
         \x20             [--workers N] [--threads N] [--cache-dir DIR] [--cache-bytes N]\n\
         \x20 --experiment NAME  grid to submit: {}\n\
         \x20 --quick            quick effort (the CI smoke shape)\n\
         \x20 --addr A           server endpoint (default: {DEFAULT_ADDR})\n\
         \x20 --in-process       run an embedded service instead of connecting\n\
         \x20 --out DIR          where SERVICE_*.json land (default: .)\n\
         \x20 --check-golden P   exact-match the batch document against P\n\
         \x20 --assert-all-hits  fail unless every job was a cache hit\n\
         \x20 --shutdown         ask the server to stop after this batch\n\
         \x20 --retry-secs S     keep retrying the connection this long (default: 10)\n\
         \x20 --workers/--threads/--cache-dir/--cache-bytes: --in-process knobs",
        EXPERIMENTS.join(", ")
    );
    let parsed = cli::parse_flags(args, &usage, |flag| {
        match flag.name() {
            "--experiment" => experiment = Some(flag.value()?),
            "--quick" => quick = true,
            "--addr" => addr = flag.value()?,
            "--in-process" => in_process = true,
            "--out" => out_dir = flag.value()?.into(),
            "--check-golden" => check_golden = Some(flag.value()?.into()),
            "--assert-all-hits" => assert_all_hits = true,
            "--shutdown" => shutdown_after = true,
            "--retry-secs" => retry = flag.parse_secs()?,
            "--workers" => config.workers = flag.parse()?,
            "--threads" => config.engine_threads = flag.parse()?,
            "--cache-dir" => config.cache.dir = Some(flag.value()?.into()),
            "--cache-bytes" => config.cache.max_bytes = flag.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(code) = parsed {
        return code;
    }

    let Some(experiment) = experiment else {
        eprintln!("error: --experiment is required (try --help)");
        return 2;
    };
    let specs = match experiment_grid(&experiment, quick) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let effort = if quick { "quick" } else { "full" };
    eprintln!(
        "submitting {} {experiment} job(s) ({effort} effort, {})...",
        specs.len(),
        if in_process {
            "in-process".to_string()
        } else {
            format!("to {addr}")
        }
    );

    let (rows, stats) = if in_process {
        match run_in_process(config, &specs) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    } else {
        match run_remote(&addr, retry, shutdown_after, &specs) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    };

    for row in &rows {
        eprintln!("  {:<40} {:>6}  {}", row.label, row.status, row.key);
    }

    let document = batch_document(&experiment, effort, &rows);
    let stats = stats_document(&experiment, effort, &stats, &rows);
    let write = |name: String, doc: &str| cli::write_document(&out_dir, &name, doc);
    match (
        write(format!("SERVICE_{experiment}_{effort}.json"), &document),
        write(format!("SERVICE_STATS_{experiment}_{effort}.json"), &stats),
    ) {
        (Ok(doc), Ok(stats)) => eprintln!("wrote {} and {}", doc.display(), stats.display()),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: writing report: {e}");
            return 1;
        }
    }

    let mut failed = false;
    let failures: Vec<&Row> = rows.iter().filter(|r| r.status == "failed").collect();
    if !failures.is_empty() {
        for row in failures {
            eprintln!(
                "failed job {}: {}",
                row.label,
                row.error.as_deref().unwrap_or("unknown")
            );
        }
        failed = true;
    }
    if let Some(path) = check_golden {
        failed |= !cli::check_golden(&path, &document, Tolerance::exact(), "service document");
    }
    if assert_all_hits {
        let misses = rows.iter().filter(|r| r.status != "hit").count();
        if misses == 0 {
            eprintln!("all {} job(s) were cache hits", rows.len());
        } else {
            eprintln!(
                "cache-effectiveness assertion failed: {misses} of {} job(s) were not hits",
                rows.len()
            );
            failed = true;
        }
    }
    i32::from(failed)
}

fn run_in_process(config: ServiceConfig, specs: &[JobSpec]) -> Result<(Vec<Row>, String), String> {
    let service = Service::start(config).map_err(|e| format!("starting service: {e}"))?;
    let results = service.run_batch(specs.to_vec());
    if results.len() != specs.len() {
        return Err(format!(
            "service returned {} of {} results",
            results.len(),
            specs.len()
        ));
    }
    let rows = results
        .iter()
        .zip(specs)
        .map(|(result, spec)| Row {
            label: result.label.clone(),
            key: format!("{:016x}", result.key),
            spec: spec.to_canonical_json(),
            status: match result.status {
                JobStatus::Hit => "hit".to_string(),
                JobStatus::Executed => "done".to_string(),
                JobStatus::Failed => "failed".to_string(),
            },
            document: result.document.as_deref().map(str::to_string),
            error: result.error.clone(),
        })
        .collect();
    Ok((rows, stats_line(&service.snapshot())))
}

fn run_remote(
    addr: &str,
    retry: Duration,
    shutdown_after: bool,
    specs: &[JobSpec],
) -> Result<(Vec<Row>, String), String> {
    let mut client =
        Client::connect(addr, Some(retry)).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let version = client.ping()?;
    if version != CODE_VERSION {
        return Err(format!(
            "server runs {version} but this client is {CODE_VERSION}: cached results would not be comparable"
        ));
    }
    let results = client.submit(specs)?;
    if results.len() != specs.len() {
        return Err(format!(
            "server returned {} of {} results",
            results.len(),
            specs.len()
        ));
    }
    let rows = results
        .iter()
        .zip(specs)
        .map(|(result, spec)| Row {
            label: result.label.clone(),
            key: result.key.clone(),
            spec: spec.to_canonical_json(),
            status: result.status.clone(),
            document: result.document.clone(),
            error: result.error.clone(),
        })
        .collect();
    let stats = client.stats()?;
    if shutdown_after {
        client.shutdown()?;
    }
    Ok((rows, stats))
}
