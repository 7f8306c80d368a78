//! Probe hooks for the traced run.
//!
//! The engine calls its fault, attack and defense hooks at fixed points of
//! `Engine::step`, so inert hooks that only read the clock split a step
//! into phases without touching the program. Every probe draws no rng,
//! mutates nothing, returns no receiver, rejects nothing and raises no
//! detection; the traced run checks that its counters and summaries equal
//! the untraced run's. Probes are plugged in *after* the workload's own
//! hooks, so each mark is taken once the real hooks at that point ran.

use platoon_detect::detector::{Detector, Evidence};
use platoon_detect::observation::{
    BeaconObservation, ControlObservation, SensorObservation, TickContext,
};
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::defense::{Defense, DetectionEvent};
use platoon_sim::fault::Fault;
use platoon_sim::world::World;
use platoon_v2x::medium::Receiver;
use platoon_v2x::message::{Delivery, Frame, Payload};
use rand::rngs::StdRng;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Hook points inside one `Engine::step`, in the order the engine reaches
/// them.
#[derive(Clone, Copy, Debug)]
pub enum Mark {
    /// `Fault::apply`: after the regime pre-phase and the real faults.
    Fault,
    /// `Attack::before_comm`: after the real attacks mutated the world.
    BeforeComm,
    /// `Attack::on_air`: frames sealed, encoded and injected.
    OnAir,
    /// `Attack::receiver`: receiver roster built, medium about to run.
    Receiver,
    /// `Attack::observe`: the medium produced this tick's deliveries.
    Observe,
    /// End of the probe's own delivery counting in `Attack::observe`.
    ObserveDone,
    /// `Defense::adjust_commands`: reception and control done.
    AdjustCommands,
    /// `Defense::on_step`: commands applied; detection and integration next.
    OnStep,
}

const MARKS: usize = 8;

/// Payloads kept for the decode/verify/digest replay.
const SAMPLE_CAP: usize = 4096;

/// What the probes saw, shared between the hooks and the measuring loop.
#[derive(Debug, Default)]
pub struct ProbeLog {
    marks: [Option<Instant>; MARKS],
    /// Deliveries to vehicles (each is decoded and verified once).
    pub deliveries: u64,
    /// Distinct payload byte strings among those deliveries, summed per tick.
    pub unique_payloads: u64,
    /// Nanoseconds spent inside the wrapped detectors.
    pub detect_ns: u64,
    /// Sampled vehicle deliveries with their reception time, for replay.
    pub sample: Vec<(Payload, f64)>,
    ticks_seen: u64,
}

impl ProbeLog {
    fn mark(&mut self, at: Mark) {
        self.marks[at as usize] = Some(Instant::now());
    }

    /// Takes this tick's marks, clearing them for the next tick. `None` if
    /// any hook did not fire.
    pub fn take_marks(&mut self) -> Option<[Instant; MARKS]> {
        let marks = std::mem::take(&mut self.marks);
        let mut out = [marks[0]?; MARKS];
        for (slot, mark) in out.iter_mut().zip(marks) {
            *slot = mark?;
        }
        Some(out)
    }
}

/// Handle shared by every probe of one engine.
pub type SharedLog = Rc<RefCell<ProbeLog>>;

/// Marks [`Mark::Fault`].
#[derive(Debug)]
pub struct ProbeFault(pub SharedLog);

impl Fault for ProbeFault {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn apply(&mut self, _world: &mut World, _now: f64) {
        self.0.borrow_mut().mark(Mark::Fault);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Marks the four attack hook points and counts what the medium delivered.
#[derive(Debug)]
pub struct ProbeAttack(pub SharedLog);

impl Attack for ProbeAttack {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Availability
    }

    fn before_comm(&mut self, _world: &mut World, _rng: &mut StdRng) {
        self.0.borrow_mut().mark(Mark::BeforeComm);
    }

    fn on_air(&mut self, _world: &mut World, _rng: &mut StdRng, _frames: &mut Vec<Frame>) {
        self.0.borrow_mut().mark(Mark::OnAir);
    }

    fn receiver(&self, _world: &World) -> Option<Receiver> {
        self.0.borrow_mut().mark(Mark::Receiver);
        None
    }

    fn observe(&mut self, world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let mut log = self.0.borrow_mut();
        log.mark(Mark::Observe);
        // The engine decodes only deliveries addressed to vehicles.
        let mut unique: HashSet<&[u8]> = HashSet::new();
        let mut to_vehicles = 0u64;
        let keep = log.ticks_seen.is_multiple_of(10);
        for d in deliveries {
            if world.index_of_node(d.receiver).is_none() {
                continue;
            }
            to_vehicles += 1;
            unique.insert(d.payload.as_slice());
            if keep && log.sample.len() < SAMPLE_CAP {
                log.sample.push((d.payload.clone(), world.time));
            }
        }
        log.deliveries += to_vehicles;
        log.unique_payloads += unique.len() as u64;
        log.ticks_seen += 1;
        log.mark(Mark::ObserveDone);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Marks the two defense hook points; accepts everything.
#[derive(Debug)]
pub struct ProbeDefense(pub SharedLog);

impl Defense for ProbeDefense {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn on_step(&mut self, _world: &mut World, _rng: &mut StdRng) -> Vec<DetectionEvent> {
        self.0.borrow_mut().mark(Mark::OnStep);
        Vec::new()
    }

    fn adjust_commands(&mut self, _world: &World, _commands: &mut [f64]) {
        self.0.borrow_mut().mark(Mark::AdjustCommands);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Times every call into one stock detector.
#[derive(Debug)]
pub struct TimedDetector {
    pub inner: Box<dyn Detector>,
    pub log: SharedLog,
}

impl TimedDetector {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Detector) -> R) -> R {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        self.log.borrow_mut().detect_ns += t0.elapsed().as_nanos() as u64;
        out
    }
}

impl Detector for TimedDetector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        self.timed(|d| d.observe_beacon(obs, sink));
    }

    fn observe_control(&mut self, obs: &ControlObservation, sink: &mut Vec<Evidence>) {
        self.timed(|d| d.observe_control(obs, sink));
    }

    fn observe_sensors(&mut self, obs: &SensorObservation, sink: &mut Vec<Evidence>) {
        self.timed(|d| d.observe_sensors(obs, sink));
    }

    fn tick(&mut self, ctx: &TickContext<'_>, sink: &mut Vec<Evidence>) {
        self.timed(|d| d.tick(ctx, sink));
    }

    fn on_regime(&mut self, label: &str) {
        self.timed(|d| d.on_regime(label));
    }
}

/// The sensitivity probe: a fixed busy-wait inside every step.
#[derive(Debug)]
pub struct BusyWaitFault(pub Duration);

impl Fault for BusyWaitFault {
    fn name(&self) -> &'static str {
        "busy-wait"
    }

    fn apply(&mut self, _world: &mut World, _now: f64) {
        let t0 = Instant::now();
        while t0.elapsed() < self.0 {
            std::hint::spin_loop();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
