//! The `service-mix` workload: a closed loop of one in-process client
//! over `Service` (two workers, memory-only cache).
//!
//! The client sends a batch of canonical `JobSpec`s with `submit_batch`
//! and waits for every result before it sends the next. New specs come
//! from a fixed list of job kinds: [`KINDS_PER_FAMILY`] Table III arms,
//! as many Table IV arms and as many campaign attacks, each spaced evenly
//! through its family. The list is cut into fixed slices of
//! [`NEW_PER_BATCH`] kinds, and the batches take the slices in turn, so a
//! kind always shares its batch with the same kinds and runs at the same
//! place in the queue. Each batch holds one new spec of every kind of its
//! slice (executed and inserted), one repeat of one of them (coalesced
//! onto its execution) and, after the first, [`REPEATS_PER_BATCH`] specs
//! from earlier batches (cache hits). The seed draws each new spec's
//! scenario seed, the repeats and where they go in the batch; the new
//! specs keep the order of their slice.
//!
//! The bounded set-up, step and job times are scaled to the nominal host
//! speed (see `host`), batch by batch. The step and job times are each
//! kind's 90th percentile,
//! averaged over the kinds. The kinds differ by more than tenfold in cost,
//! so a quantile over all jobs at once would sit on the edge between two
//! kinds and jump with the host's speed. Few kinds give each kind enough
//! samples in a run for a steady 90th percentile.

use crate::host::HostSpeed;
use crate::stats::{ByKind, Samples};
use crate::{Metric, Report};
use platoon_attacks::params::{searchable_attacks, AttackParams};
use platoon_core::experiments::common::{base_scenario, Effort};
use platoon_core::experiments::{table3, table4};
use platoon_server::cache::CacheConfig;
use platoon_server::job::{cache_key, JobSpec};
use platoon_server::service::{JobStatus, Service, ServiceConfig};
use platoon_sim::harness::json::{self, Value};
use platoon_sim::regime::steps_for;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Kinds of new job taken from each family.
const KINDS_PER_FAMILY: usize = 4;
const NEW_PER_BATCH: usize = 4;
const REPEATS_PER_BATCH: usize = 4;
/// Seeds the one knob set each campaign attack runs with. It is the same
/// in every run: mutated knobs can raise a job's cost and memory severalfold
/// (a denser join flood), and a fresh draw per job would make the run's
/// peak memory the extreme of its seed's draws.
const CAMPAIGN_KNOBS_SEED: u64 = 0xca3b_a16e;

/// [`KINDS_PER_FAMILY`] items spaced evenly through `items`, the first
/// included.
fn spaced<T>(items: Vec<T>) -> Vec<T> {
    let (len, n) = (items.len(), KINDS_PER_FAMILY);
    items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i * n % len < n)
        .map(|(_, item)| item)
        .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        job_budget: None,
        engine_threads: 1,
        cache: CacheConfig::default(),
    }
}

/// The kinds of new job the client takes in turn.
enum Template {
    Arm { attack: String, mechanism: String },
    Detection { attack: String, config: String },
    Campaign { params: AttackParams },
}

impl Template {
    fn all() -> Result<Vec<Template>, String> {
        let mut all = Vec::new();
        for (_, attack, mechanism) in spaced(table3::pairs()) {
            all.push(Template::Arm { attack, mechanism });
        }
        for (i, attack) in spaced(table4::arm_names()).into_iter().enumerate() {
            all.push(Template::Detection {
                attack,
                config: table4::CONFIGS[i % table4::CONFIGS.len()].to_string(),
            });
        }
        let mut knobs = StdRng::seed_from_u64(CAMPAIGN_KNOBS_SEED);
        for attack in spaced(searchable_attacks()) {
            all.push(Template::Campaign {
                params: AttackParams::defaults(attack)?.mutate(&mut knobs, 0.25),
            });
        }
        Ok(all)
    }

    /// A new spec of this kind on a scenario seed drawn from `rng`.
    fn instantiate(&self, rng: &mut StdRng) -> JobSpec {
        let seed = rng.next_u64();
        match self {
            Template::Arm { attack, mechanism } => JobSpec::Arm {
                attack: attack.clone(),
                mechanism: Some(mechanism.clone()),
                quick: true,
                seed,
            },
            Template::Detection { attack, config } => JobSpec::Detection {
                attack: attack.clone(),
                config: config.clone(),
                quick: true,
                seed,
            },
            Template::Campaign { params } => JobSpec::Campaign {
                params: params.clone(),
                quick: true,
                seed,
            },
        }
    }
}

/// Vehicles and engine steps of one job's run: from the document's run
/// summary when it carries one, else the canonical quick evaluation
/// platoon that Table IV and campaign jobs run.
fn run_size(document: &str, canonical: (u64, u64)) -> Result<(u64, u64), String> {
    let doc = json::parse(document)?;
    let Some(summary) = doc.get("summary") else {
        return Ok(canonical);
    };
    let field = |v: Option<&Value>, name: &str| {
        v.and_then(Value::as_f64)
            .map(|x| x as u64)
            .ok_or_else(|| format!("summary without numeric {name}"))
    };
    Ok((
        field(summary.get("vehicles"), "vehicles")?,
        field(
            summary.get("perf").and_then(|p| p.get("ticks")),
            "perf.ticks",
        )?,
    ))
}

/// The first execution of one unique spec.
struct Execution {
    spec: JobSpec,
    document: Arc<str>,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let templates = Template::all()?;
    let quick = base_scenario("canonical", Effort::quick()).build();
    let canonical = (
        quick.vehicles as u64,
        steps_for(quick.duration, quick.comm_step),
    );

    // Set-up is sampled across the whole window: the real service's start,
    // then one more start (dropped at once) after every batch.
    let mut setup = Samples::default();
    let mut start = || -> Result<Service, String> {
        let t0 = Instant::now();
        let service = Service::start(config()).map_err(|e| format!("Service::start: {e}"))?;
        setup.push(t0.elapsed().as_secs_f64());
        Ok(service)
    };
    let service = start()?;

    let mut notes = Vec::new();
    let mut executions: HashMap<u64, Execution> = HashMap::new();
    let mut seen: Vec<JobSpec> = Vec::new();
    let slices: Vec<Vec<usize>> = (0..templates.len())
        .collect::<Vec<_>>()
        .chunks(NEW_PER_BATCH)
        .map(<[usize]>::to_vec)
        .collect();
    let (mut job_ms, mut step_ms) = (Samples::default(), Samples::default());
    // Batch, kind, step time and submit-to-result time of every new spec.
    let mut by_batch: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut host = HostSpeed::new(WORKERS);
    let (mut queue_ms, mut exec_ms) = (Samples::default(), Samples::default());
    let (mut submitted, mut failed, mut veh_steps) = (0u64, 0u64, 0u64);
    let t_window = Instant::now();
    let deadline = t_window + Duration::from_secs_f64(seconds);
    for (batch_no, slice) in slices.iter().cycle().enumerate() {
        // Each position's kind: the template of a new spec, `None` for a
        // repeat.
        let mut batch: Vec<(Option<usize>, JobSpec)> = slice
            .iter()
            .map(|&t| (Some(t), templates[t].instantiate(&mut rng)))
            .collect();
        let mut repeats: Vec<JobSpec> = Vec::new();
        if !seen.is_empty() {
            for _ in 0..REPEATS_PER_BATCH {
                repeats.push(seen[rng.gen_range(0..seen.len())].clone());
            }
        }
        repeats.push(batch[rng.gen_range(0..batch.len())].1.clone());
        seen.extend(batch.iter().map(|(_, spec)| spec.clone()));
        for spec in repeats {
            let at = rng.gen_range(0..batch.len() + 1);
            batch.insert(at, (None, spec));
        }
        let (kinds, specs): (Vec<Option<usize>>, Vec<JobSpec>) = batch.into_iter().unzip();

        let t_submit = Instant::now();
        let rx = service.submit_batch(specs.clone());
        for _ in 0..specs.len() {
            let result = rx
                .recv()
                .map_err(|_| "service dropped a batch".to_string())?;
            let latency = t_submit.elapsed().as_secs_f64() * 1e3;
            job_ms.push(latency);
            submitted += 1;
            let Some(document) = result.document else {
                failed += 1;
                notes.push(format!("{} failed: {:?}", result.label, result.error));
                continue;
            };
            let spec = &specs[result.index];
            if cache_key(spec) != result.key {
                notes.push(format!(
                    "{}: result key does not match its spec",
                    result.label
                ));
            }
            if let Some(kind) = kinds[result.index] {
                if result.status != JobStatus::Executed {
                    notes.push(format!("{}: a new spec was not executed", result.label));
                }
                let (vehicles, steps) = run_size(&document, canonical)?;
                let exec = result.timing.execution.as_secs_f64() * 1e3;
                veh_steps += vehicles * steps;
                step_ms.push(exec / steps as f64);
                by_batch.push((batch_no, kind, exec / steps as f64, latency));
                exec_ms.push(exec);
                queue_ms.push(result.timing.queue_wait.as_secs_f64() * 1e3);
            }
            match executions.entry(result.key) {
                Entry::Occupied(first) => {
                    if first.get().document != document {
                        notes.push(format!("{}: repeat differs from first run", result.label));
                    }
                }
                Entry::Vacant(slot) if result.status == JobStatus::Executed => {
                    slot.insert(Execution {
                        spec: spec.clone(),
                        document,
                    });
                }
                Entry::Vacant(_) => {
                    notes.push(format!("{}: hit before any execution", result.label))
                }
            }
        }
        drop(start()?);
        host.read();
        if Instant::now() >= deadline {
            break;
        }
    }
    let window_s = t_window.elapsed().as_secs_f64();
    let mut job_ms_by_kind = ByKind::new(templates.len());
    let mut step_ms_by_kind = ByKind::new(templates.len());
    for &(batch_no, kind, step, job) in &by_batch {
        let f = host.factor(batch_no);
        step_ms_by_kind.push(kind, step * f);
        job_ms_by_kind.push(kind, job * f);
    }
    let snapshot = service.snapshot();
    drop(service);
    // The peak of the mix itself, before the verification service below.
    let rss = crate::stats::peak_rss_mb()?;

    // Every document must equal a direct run of its spec on a fresh,
    // cold service.
    let keys: Vec<u64> = executions.keys().copied().collect();
    let direct = Service::start(config()).map_err(|e| format!("Service::start: {e}"))?;
    let specs = keys.iter().map(|k| executions[k].spec.clone()).collect();
    for (key, result) in keys.iter().zip(direct.run_batch(specs)) {
        if result.document.as_deref() != Some(&*executions[key].document) {
            notes.push(format!("{}: differs from a direct run", result.label));
        }
    }
    drop(direct);

    let mut report = Report::new(submitted);
    report.failed = failed;
    report.notes = notes;
    let m = &mut report.metrics;
    if trace {
        // The medians and throughputs move with the host's speed from run
        // to run, so they carry no bound.
        let (executed, jobs) = (exec_ms.len(), job_ms.len());
        let veh_steps_per_s = veh_steps as f64 / window_s;
        m.push(Metric::new(
            "veh_steps_per_s",
            veh_steps_per_s,
            "1/s",
            executed,
        ));
        m.push(Metric::new("step_ms_p50", step_ms.median(), "ms", executed));
        let jobs_per_s = submitted as f64 / window_s;
        m.push(Metric::new("jobs_per_s", jobs_per_s, "1/s", jobs));
        m.push(Metric::new("job_ms_p50", job_ms.median(), "ms", jobs));
        for (name, q, samples) in [
            ("server.queue_ms_p50", 0.5, &queue_ms),
            ("server.queue_ms_p90", 0.9, &queue_ms),
            ("server.exec_ms_p50", 0.5, &exec_ms),
            ("server.exec_ms_p90", 0.9, &exec_ms),
        ] {
            m.push(Metric::new(name, samples.quantile(q), "ms", executed));
        }
        let stats = snapshot.service;
        let n = stats.submitted as usize;
        let share = |count: u64| count as f64 / stats.submitted as f64;
        m.push(Metric::new(
            "server.hit_rate",
            share(stats.hits),
            "ratio",
            n,
        ));
        let coalesced = share(stats.coalesced);
        m.push(Metric::new("server.coalesce_rate", coalesced, "ratio", n));
        let (bytes, entries) = (snapshot.cache_bytes as f64, snapshot.cache_entries);
        m.push(Metric::new("server.cache_bytes", bytes, "bytes", entries));
        m.push(Metric::new(
            "server.failed",
            stats.failed as f64,
            "count",
            n,
        ));
        m.push(Metric::new(
            "host.ref_ms",
            host.median_ms(),
            "ms",
            host.readings(),
        ));
        return Ok(report);
    }
    // The first start precedes batch 0; the start after batch `i` shares
    // its reading.
    let mut counts = vec![2];
    counts.resize(setup.len() - 1, 1);
    let setup = host.scale(&setup, &counts);
    m.push(Metric::new("setup_s", setup.median(), "s", setup.len()));
    let steps = step_ms_by_kind.mean_quantile(0.9);
    m.push(Metric::new(
        "step_ms_p90",
        steps,
        "ms",
        step_ms_by_kind.len(),
    ));
    m.push(Metric::new(
        "job_ms_p90",
        job_ms_by_kind.mean_quantile(0.9),
        "ms",
        job_ms_by_kind.len(),
    ));
    m.push(Metric::new("peak_rss_mb", rss, "MB", 1));
    Ok(report)
}
