//! The engine workloads: `secure-platoon` and `corridor`.
//!
//! Both drive `Engine::step` directly, one episode (a full scenario run
//! from `Engine::new` to the summary) after another on one thread, until
//! the measuring window closes. Every episode of a run uses the same
//! seed, so every episode must end in the same summary and counters.
//! The bounded set-up, step and episode times are scaled to the nominal
//! host speed, episode by episode (see `host`).

use crate::host::HostSpeed;
use crate::probe::{
    BusyWaitFault, Mark, ProbeAttack, ProbeDefense, ProbeFault, ProbeLog, SharedLog, TimedDetector,
};
use crate::stats::Samples;
use crate::{Metric, Report};
use platoon_core::experiments::common::{brake_profile, make_attack, make_defenses, Effort};
use platoon_core::experiments::corridor::{
    corridor_scenario, CORRIDOR_HORIZON_M, PLATOON_SPACING_M,
};
use platoon_crypto::cert::PrincipalId;
use platoon_crypto::sha256::Sha256;
use platoon_detect::detector::Detector;
use platoon_detect::pipeline::{Pipeline, PipelineConfig};
use platoon_detect::prelude::{
    FrequencyDetector, FreshnessDetector, IdentityDetector, KinematicDetector,
    RangeConsistencyDetector,
};
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::PlatoonId;
use platoon_sim::engine::Engine;
use platoon_sim::harness::{json, write_run_summary};
use platoon_sim::prelude::{
    AuthMode, CommsMode, ControllerKind, JoinerAgent, JoinerCredentials, PerfCounters, Scenario,
};
use platoon_v2x::message::NodeId;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The two engine workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// One signed, detected, attacked 8-truck platoon: reception-bound.
    SecurePlatoon,
    /// An indexed 40×8-vehicle corridor: medium-bound.
    Corridor,
}

const SECURE_VEHICLES: usize = 8;
/// Simulated seconds per `secure-platoon` episode; the replay attacker
/// records from 0 s and replays from a fifth of the way in.
const SECURE_DURATION: f64 = 10.0;
const CORRIDOR_PER: usize = 8;
const CORRIDOR_PLATOONS: usize = 40;
/// Simulated seconds per `corridor` episode.
const CORRIDOR_DURATION: f64 = 1.0;
/// Step samples reserved up front, more than a 25-second run takes, so that
/// no doubling of the sample buffer lands in `peak_rss_mb`: untouched
/// capacity is not resident.
const STEP_SAMPLES_RESERVED: usize = 1 << 17;
/// Busy-wait of the sensitivity probe, as a multiple of
/// `bound × step_ms_p90`.
const SENSITIVITY_FACTOR: f64 = 3.0;

/// Optional hooks plugged into an episode's engine.
#[derive(Default)]
struct Hooks {
    probes: Option<SharedLog>,
    busy_wait: Option<Duration>,
}

impl Workload {
    fn new_engine(self, seed: u64, hooks: &Hooks) -> Engine {
        let mut engine = match self {
            Workload::SecurePlatoon => {
                let scenario = Scenario::builder()
                    .label("secure-platoon")
                    .vehicles(SECURE_VEHICLES)
                    .controller(ControllerKind::Cacc)
                    .auth(AuthMode::Pki)
                    .comms(CommsMode::HybridVlc)
                    .profile(brake_profile())
                    .duration(SECURE_DURATION)
                    .seed(seed)
                    .build();
                let comm_step = scenario.comm_step;
                let mut engine = Engine::new(scenario);
                let effort = Effort {
                    duration: SECURE_DURATION,
                    sweep_points: 1,
                };
                engine.add_attack(make_attack("replay", effort));
                // PKI alone accepts replayed frames; the timestamp freshness
                // check rejects them, so the reject path runs every tick.
                for defense in make_defenses(&["anti-replay"]) {
                    engine.add_defense(defense);
                }
                match &hooks.probes {
                    None => engine.attach_detector_config(PipelineConfig::default_profile()),
                    Some(log) => engine.attach_detectors(timed_pipeline(comm_step, log)),
                }
                engine
            }
            Workload::Corridor => {
                let scenario = corridor_scenario(
                    "corridor",
                    CORRIDOR_PER,
                    CORRIDOR_PLATOONS,
                    CORRIDOR_DURATION,
                    CORRIDOR_HORIZON_M,
                )
                .seed(seed)
                .build();
                let mut engine = Engine::new(scenario);
                // The joiner of `corridor::corridor_arm`: it trails the lead
                // platoon, placed relative to the world's tail vehicle.
                let (per, platoons) = (CORRIDOR_PER as f64, CORRIDOR_PLATOONS as f64);
                let span = per * platoons * 26.5 + (platoons - 1.0) * PLATOON_SPACING_M;
                engine.add_attack(Box::new(
                    JoinerAgent::new(
                        PrincipalId(900_000),
                        NodeId(900_000),
                        JoinerCredentials::None,
                        PlatoonId(1),
                        2.0,
                    )
                    .with_trail_gap(per * 26.5 + 40.0 - span),
                ));
                engine
            }
        };
        if let Some(wait) = hooks.busy_wait {
            engine.add_fault(Box::new(BusyWaitFault(wait)));
        }
        if let Some(log) = &hooks.probes {
            engine.add_fault(Box::new(ProbeFault(log.clone())));
            engine.add_attack(Box::new(ProbeAttack(log.clone())));
            engine.add_defense(Box::new(ProbeDefense(log.clone())));
        }
        engine
    }

    /// Runs one episode's schedule, handing each step to `step`. The
    /// corridor splits its lead platoon at 1/3 and merges it at 2/3, as
    /// `corridor::corridor_arm` does.
    fn drive(self, engine: &mut Engine, mut step: impl FnMut(&mut Engine)) {
        let (duration, maneuvers) = match self {
            Workload::SecurePlatoon => (SECURE_DURATION, false),
            Workload::Corridor => (CORRIDOR_DURATION, true),
        };
        let steps = (duration / engine.scenario().comm_step).round() as u64;
        for i in 0..steps {
            if maneuvers && i == steps / 3 {
                let _ = engine.command_split(CORRIDOR_PER / 2);
            }
            if maneuvers && i == steps * 2 / 3 {
                engine.command_merge();
            }
            step(engine);
        }
        engine.restore_faults();
    }
}

/// The stock detection bank of `Engine::attach_detector_config`, each
/// detector wrapped in a timer.
fn timed_pipeline(comm_step: f64, log: &SharedLog) -> Pipeline {
    let mut config = PipelineConfig::default_profile();
    config.frequency.nominal_rate_hz = 1.0 / comm_step;
    let stock: Vec<Box<dyn Detector>> = vec![
        Box::new(KinematicDetector::new(config.kinematic)),
        Box::new(RangeConsistencyDetector::new(config.range)),
        Box::new(FrequencyDetector::new(config.frequency)),
        Box::new(IdentityDetector::new(config.identity)),
        Box::new(FreshnessDetector::new(config.freshness)),
    ];
    let timed = stock
        .into_iter()
        .map(|inner| -> Box<dyn Detector> {
            Box::new(TimedDetector {
                inner,
                log: log.clone(),
            })
        })
        .collect();
    Pipeline::with_detectors(timed, config.fusion)
}

/// Everything an episode must reproduce exactly: the canonical run
/// summary (with its `PerfCounters`), the medium's pair count and the
/// detector alert count.
fn fingerprint(engine: &Engine) -> String {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_obj("summary", |w| write_run_summary(w, &engine.summary()));
        w.field_u64("medium_pairs", engine.medium_pairs_considered());
        w.field_u64("alerts", engine.alerts().len() as u64);
    });
    w.finish()
}

/// Microseconds spent per tick in each traced phase.
#[derive(Debug, Default)]
struct PhaseSums {
    pre: f64,
    attack: f64,
    frame_build: f64,
    medium: f64,
    reception: f64,
    tail: f64,
    step: f64,
}

/// One measuring pass: episodes back to back until `seconds` elapse.
#[derive(Debug, Default)]
struct Pass {
    episodes: u64,
    wall_s: f64,
    step_s: f64,
    veh_steps: u64,
    step_ms: Samples,
    job_ms: Samples,
    engine_new_ms: Samples,
    fingerprint: Option<String>,
    mismatches: u64,
    phases: PhaseSums,
    missing_marks: u64,
    perf: PerfCounters,
    medium_pairs: u64,
    /// The last episode's engine, kept for the crypto replay.
    last: Option<Engine>,
    /// The host's speed, read after every episode.
    host: HostSpeed,
    /// Steps of each episode, in order.
    episode_steps: Vec<usize>,
}

impl Pass {
    fn veh_steps_per_s(&self) -> f64 {
        self.veh_steps as f64 / self.step_s
    }

    /// Step times scaled to the nominal host speed.
    fn scaled_step_ms(&self) -> Samples {
        self.host.scale(&self.step_ms, &self.episode_steps)
    }

    /// Episode times scaled to the nominal host speed.
    fn scaled_job_ms(&self) -> Samples {
        self.host.scale(&self.job_ms, &vec![1; self.job_ms.len()])
    }

    /// Episode set-up times scaled to the nominal host speed.
    fn scaled_engine_new_ms(&self) -> Samples {
        let n = self.engine_new_ms.len();
        self.host.scale(&self.engine_new_ms, &vec![1; n])
    }
}

fn measure(workload: Workload, seed: u64, seconds: f64, hooks: &Hooks) -> Pass {
    let mut pass = Pass {
        step_ms: Samples::with_capacity(STEP_SAMPLES_RESERVED),
        ..Pass::default()
    };
    let t_pass = Instant::now();
    let deadline = t_pass + Duration::from_secs_f64(seconds);
    loop {
        let steps_before = pass.step_ms.len();
        let t_job = Instant::now();
        let mut engine = workload.new_engine(seed, hooks);
        pass.engine_new_ms.push(ms(t_job.elapsed()));
        workload.drive(&mut engine, |engine| {
            let vehicles = engine.world().vehicles.len() as u64;
            let t0 = Instant::now();
            engine.step();
            let t1 = Instant::now();
            let dt = t1 - t0;
            pass.step_ms.push(ms(dt));
            pass.step_s += dt.as_secs_f64();
            pass.veh_steps += vehicles;
            if let Some(log) = &hooks.probes {
                match log.borrow_mut().take_marks() {
                    Some(m) => {
                        let at = |mark: Mark| m[mark as usize];
                        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
                        let p = &mut pass.phases;
                        p.pre += us(t0, at(Mark::Fault));
                        p.attack += us(at(Mark::Fault), at(Mark::BeforeComm));
                        p.frame_build += us(at(Mark::BeforeComm), at(Mark::OnAir));
                        p.medium += us(at(Mark::Receiver), at(Mark::Observe));
                        p.reception += us(at(Mark::ObserveDone), at(Mark::AdjustCommands));
                        p.tail += us(at(Mark::OnStep), t1);
                        p.step += us(t0, t1);
                    }
                    None => pass.missing_marks += 1,
                }
            }
        });
        let print = fingerprint(&engine);
        pass.job_ms.push(ms(t_job.elapsed()));
        pass.episode_steps.push(pass.step_ms.len() - steps_before);
        pass.host.read();
        match &pass.fingerprint {
            None => pass.fingerprint = Some(print),
            Some(first) if *first != print => pass.mismatches += 1,
            Some(_) => {}
        }
        pass.episodes += 1;
        pass.perf.accumulate(engine.perf());
        pass.medium_pairs += engine.medium_pairs_considered();
        pass.last = Some(engine);
        if Instant::now() >= deadline {
            break;
        }
    }
    pass.wall_s = t_pass.elapsed().as_secs_f64();
    pass
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced run: every end-to-end metric.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let pass = measure(workload, seed, seconds, &Hooks::default());
    // The peak of the episodes, before the statistics below copy samples.
    let rss = crate::stats::peak_rss_mb()?;
    let mut report = Report::new(pass.step_ms.len() as u64);
    if pass.mismatches > 0 {
        report.notes.push(format!(
            "{} of {} episodes differ from the first episode's summary",
            pass.mismatches, pass.episodes
        ));
    }
    let m = &mut report.metrics;
    // Every episode sets up afresh, so set-up is sampled across the
    // whole window, not only at its start.
    m.push(Metric::new(
        "setup_s",
        pass.scaled_engine_new_ms().median() / 1e3,
        "s",
        pass.engine_new_ms.len(),
    ));
    let (steps, jobs) = (pass.scaled_step_ms(), pass.scaled_job_ms());
    m.push(Metric::new(
        "step_ms_p90",
        steps.quantile(0.9),
        "ms",
        steps.len(),
    ));
    m.push(Metric::new(
        "job_ms_p90",
        jobs.quantile(0.9),
        "ms",
        jobs.len(),
    ));
    m.push(Metric::new("peak_rss_mb", rss, "MB", 1));
    Ok(report)
}

/// The medians and throughputs of an untraced pass. They move with the
/// host's speed from run to run, so they carry no bound and are reported
/// by the traced run.
fn push_unbounded(m: &mut Vec<Metric>, pass: &Pass) {
    let (steps, jobs) = (pass.step_ms.len(), pass.job_ms.len());
    let veh_steps_per_s = pass.veh_steps_per_s();
    m.push(Metric::new(
        "veh_steps_per_s",
        veh_steps_per_s,
        "1/s",
        steps,
    ));
    m.push(Metric::new(
        "step_ms_p50",
        pass.step_ms.median(),
        "ms",
        steps,
    ));
    let jobs_per_s = pass.episodes as f64 / pass.wall_s;
    m.push(Metric::new("jobs_per_s", jobs_per_s, "1/s", jobs));
    m.push(Metric::new("job_ms_p50", pass.job_ms.median(), "ms", jobs));
    let readings = pass.host.readings();
    m.push(Metric::new(
        "host.ref_ms",
        pass.host.median_ms(),
        "ms",
        readings,
    ));
}

/// The traced run: an untraced pass, a probe-traced pass and a
/// sensitivity pass, a third of the window each, then the crypto replay.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    step_p90_bound: f64,
) -> Result<Report, String> {
    let third = seconds / 3.0;
    let plain = measure(workload, seed, third, &Hooks::default());
    let log: SharedLog = Rc::new(RefCell::new(ProbeLog::default()));
    let traced = measure(
        workload,
        seed,
        third,
        &Hooks {
            probes: Some(log.clone()),
            busy_wait: None,
        },
    );
    let wait = SENSITIVITY_FACTOR * step_p90_bound * plain.step_ms.quantile(0.9);
    let slowed = measure(
        workload,
        seed,
        third,
        &Hooks {
            probes: None,
            busy_wait: Some(Duration::from_secs_f64(wait / 1e3)),
        },
    );

    let mut report =
        Report::new((plain.step_ms.len() + traced.step_ms.len() + slowed.step_ms.len()) as u64);
    let notes = &mut report.notes;
    for (name, pass) in [
        ("untraced", &plain),
        ("traced", &traced),
        ("slowed", &slowed),
    ] {
        if pass.mismatches > 0 {
            notes.push(format!(
                "{name}: {} episodes differ from the first",
                pass.mismatches
            ));
        }
        if pass.fingerprint != plain.fingerprint {
            notes.push(format!(
                "{name}: summary, counters or pairs differ from the untraced run"
            ));
        }
    }
    if traced.missing_marks > 0 {
        notes.push(format!(
            "{} traced ticks missed a probe mark",
            traced.missing_marks
        ));
    }
    let shift = slowed.scaled_step_ms().quantile(0.9) / plain.scaled_step_ms().quantile(0.9) - 1.0;
    if shift <= step_p90_bound {
        notes.push(format!(
            "sensitivity: a {wait:.4} ms busy-wait per step moved step_ms_p90 by {shift:.4}, \
             not past its bound {step_p90_bound}"
        ));
    }

    let log = log.borrow();
    let last = traced
        .last
        .as_ref()
        .expect("a pass runs at least one episode");
    let (decode_ns, verify_ns, digest_ns) = replay_crypto(last, &log);
    let n = traced.step_ms.len();
    let per_tick = |x: f64| x / n as f64;
    let m = &mut report.metrics;
    push_unbounded(m, &plain);
    let p = &traced.phases;
    for (name, us) in [
        ("sim.pre_us_per_tick", p.pre),
        ("sim.attack_us_per_tick", p.attack),
        ("sim.frame_build_us_per_tick", p.frame_build),
        ("v2x.medium_us_per_tick", p.medium),
        ("sim.reception_us_per_tick", p.reception),
        ("sim.tail_us_per_tick", p.tail),
        ("sim.step_us_per_tick", p.step),
        ("detect.ingest_us_per_tick", log.detect_ns as f64 / 1e3),
    ] {
        m.push(Metric::new(name, per_tick(us), "us", n));
    }
    for (name, ns) in [
        ("proto.decode_ns", decode_ns),
        ("crypto.verify_ns", verify_ns),
        ("crypto.digest_ns", digest_ns),
    ] {
        m.push(Metric::new(name, ns, "ns", log.sample.len()));
    }
    let perf = &traced.perf;
    for (name, count) in [
        ("sim.deliveries_per_tick", log.deliveries),
        ("sim.unique_payloads_per_tick", log.unique_payloads),
        ("v2x.pairs_per_tick", traced.medium_pairs),
        ("perf.frames_built_per_tick", perf.frames_built),
        ("perf.bytes_encoded_per_tick", perf.bytes_encoded),
        ("perf.frame_bytes_per_tick", perf.frame_bytes),
        (
            "perf.payload_clones_avoided_per_tick",
            perf.payload_clones_avoided,
        ),
        ("perf.deliveries_per_tick", perf.deliveries),
        (
            "perf.detector_observations_per_tick",
            perf.detector_observations,
        ),
        ("perf.commands_computed_per_tick", perf.commands_computed),
    ] {
        m.push(Metric::new(name, per_tick(count as f64), "count", n));
    }
    let redundant = 1.0 - log.unique_payloads as f64 / log.deliveries as f64;
    m.push(Metric::new(
        "sim.redundant_decode_ratio",
        redundant,
        "ratio",
        n,
    ));
    let base = log.deliveries as f64;
    m.push(Metric::new("sim.redundant_decode_base", base, "count", n));
    let new_ms = &traced.engine_new_ms;
    m.push(Metric::new(
        "sim.engine_new_ms",
        new_ms.median(),
        "ms",
        new_ms.len(),
    ));
    let speed = traced.veh_steps_per_s() / plain.veh_steps_per_s();
    m.push(Metric::new("trace.speed_ratio", speed, "ratio", n));
    let slowed_n = slowed.step_ms.len();
    m.push(Metric::new(
        "check.sensitivity_shift",
        shift,
        "ratio",
        slowed_n,
    ));
    Ok(report)
}

/// Replays `Envelope::decode`, the scenario's verification and the
/// dedup digest on the sampled payloads; nanoseconds per delivery, the
/// median of several sweeps.
fn replay_crypto(engine: &Engine, log: &ProbeLog) -> (f64, f64, f64) {
    const SWEEPS: usize = 7;
    let sample = &log.sample;
    let envelopes: Vec<(Envelope, f64)> = sample
        .iter()
        .filter_map(|(p, now)| Envelope::decode(p).ok().map(|e| (e, *now)))
        .collect();
    let auth = engine.scenario().auth;
    let ca = engine.ca();
    let group_key = engine.group_key();
    let per_item = |n: usize, f: &mut dyn FnMut()| -> f64 {
        let mut sweeps = Samples::default();
        for _ in 0..SWEEPS {
            let t0 = Instant::now();
            f();
            sweeps.push(t0.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64);
        }
        sweeps.median()
    };
    let decode = per_item(sample.len(), &mut || {
        for (p, _) in sample {
            black_box(Envelope::decode(black_box(p)).is_ok());
        }
    });
    let verify = per_item(envelopes.len(), &mut || {
        for (env, now) in &envelopes {
            let ok = match auth {
                AuthMode::Pki => env.verify_signed(&ca.public(), ca.id(), *now).is_ok(),
                AuthMode::GroupMac => env.verify_mac(&group_key).is_ok(),
                AuthMode::EncryptedGroupMac => env.open_encrypted(&group_key).is_ok(),
                AuthMode::None => env.open_unverified().is_ok(),
            };
            black_box(ok);
        }
    });
    let digest = per_item(sample.len(), &mut || {
        for (p, _) in sample {
            black_box(Sha256::digest(black_box(p)).to_u64());
        }
    });
    (decode, verify, digest)
}
