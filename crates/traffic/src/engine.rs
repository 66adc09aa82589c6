//! The deterministic discrete-event request engine.

use crate::curve::jitter;
use crate::scenario::Scenario;
use mem::Tick;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use workloads::WorkloadEvent;

/// Everything the engine needs to know about the run it drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// The scenario (curve + fleet churn behaviours).
    pub scenario: Scenario,
    /// Initial fleet size.
    pub guests: usize,
    /// One guest's healthy request rate, requests/sec.
    pub healthy_rps: f64,
    /// Wall-clock start-up length per guest, seconds (class loading —
    /// the engine schedules one `StartupTick` per booting guest per
    /// second for this long, then never again).
    pub startup_seconds: u64,
    /// Run length, seconds.
    pub duration_seconds: u64,
    /// Arrival-jitter seed.
    pub seed: u64,
}

/// What a queued entry does when it comes due. Declaration order is the
/// tie-break *within* a tick only via the scheduling sequence number —
/// entries pop in exactly the order they were pushed for equal ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Process one second of arrivals (and autoscale decisions).
    Arrive { second: u64 },
    /// Restart the `wave`-th deploy wave.
    Deploy { wave: u64 },
    /// Advance one booting guest's start-up, if `boot` is still the
    /// guest's current boot (a restart or re-add starts a new one).
    Startup {
        guest: usize,
        second: u64,
        boot: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    due: u64,
    seq: u64,
    action: Action,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event traffic engine.
///
/// `(tick, sequence)`-ordered entries drive everything the workload side
/// does: request arrivals (one batched entry per simulated second, and
/// only for seconds with non-zero offered load), per-guest start-up
/// ticks (scheduled only while a guest boots), deploy waves and
/// autoscale churn. An idle guest has **no** queued entries — the
/// engine's cost is O(pending events), never O(guests).
///
/// Every pending entry lives in one binary min-heap (DESIGN.md §14):
/// the next arrival second, the remaining deploy waves, and one
/// start-up entry per booting guest, plus any entry a restart stranded
/// until it comes due and is dropped.
///
/// Everything is computed from the spec with integer and exact-in-f64
/// arithmetic; there is no RNG state and no transcendental math, so the
/// emitted event stream is byte-identical across platforms and thread
/// counts.
#[derive(Debug)]
pub struct TrafficEngine {
    spec: TrafficSpec,
    /// Pending entries, popped in `(due, seq)` order.
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    /// Which fleet indices currently run a JVM.
    active: Vec<bool>,
    /// Fractional request arrivals carried between seconds, per guest.
    carry: Vec<f64>,
    /// Start-up seconds left per guest (non-zero only while booting).
    startup_left: Vec<u64>,
    /// Boot generation per guest, bumped by every restart and re-add so
    /// the start-up entry an interrupted boot left queued is dropped
    /// instead of running a second chain.
    boot: Vec<u32>,
    last_phase: Option<u32>,
}

impl TrafficEngine {
    /// Builds the engine and schedules the initial event set: start-up
    /// chains for the initial fleet, the first non-idle arrival second,
    /// and any deploy waves.
    #[must_use]
    pub fn new(spec: TrafficSpec) -> TrafficEngine {
        let mut engine = TrafficEngine {
            spec,
            queue: BinaryHeap::new(),
            seq: 0,
            active: vec![true; spec.guests],
            carry: vec![0.0; spec.guests],
            startup_left: vec![spec.startup_seconds; spec.guests],
            boot: vec![0; spec.guests],
            last_phase: None,
        };
        for guest in 0..spec.guests {
            engine.push(
                due_tick(0),
                Action::Startup {
                    guest,
                    second: 0,
                    boot: 0,
                },
            );
        }
        if let Some(second) = engine.next_busy_second(0) {
            engine.push(due_tick(second), Action::Arrive { second });
        }
        if let Some(deploy) = spec.scenario.deploy {
            let waves = spec.guests.div_ceil(deploy.wave_size.max(1)) as u64;
            for wave in 0..waves {
                let at = deploy.start_seconds + wave * deploy.wave_interval_seconds;
                if at < spec.duration_seconds {
                    engine.push(due_tick(at), Action::Deploy { wave });
                }
            }
        }
        engine
    }

    /// The tick of the earliest pending entry, if any. Lets the run loop
    /// prove a tick is event-free without popping anything.
    #[must_use]
    pub fn next_due(&self) -> Option<Tick> {
        self.queue.peek().map(|&Reverse(q)| Tick(q.due))
    }

    /// Pops every entry due at or before `now` and returns the workload
    /// events they expand to, stamped with their due tick, in
    /// deterministic `(due, seq)` order. Sequence numbers are unique, so
    /// the order never ties.
    pub fn events_until(&mut self, now: Tick) -> Vec<(Tick, WorkloadEvent)> {
        let mut out = Vec::new();
        while let Some(&Reverse(q)) = self.queue.peek() {
            if q.due > now.0 {
                break;
            }
            self.queue.pop();
            self.process(q, &mut out);
        }
        out
    }

    /// Fleet indices currently active (running a JVM).
    #[must_use]
    pub fn active_guests(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    fn push(&mut self, due: u64, action: Action) {
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            due,
            seq: self.seq,
            action,
        }));
    }

    fn process(&mut self, q: Queued, out: &mut Vec<(Tick, WorkloadEvent)>) {
        let at = Tick(q.due);
        match q.action {
            Action::Startup {
                guest,
                second,
                boot,
            } => {
                if !self.active[guest] || boot != self.boot[guest] || self.startup_left[guest] == 0
                {
                    return;
                }
                out.push((at, WorkloadEvent::StartupTick { guest }));
                self.startup_left[guest] -= 1;
                if self.startup_left[guest] > 0 && second + 1 < self.spec.duration_seconds {
                    self.push(
                        due_tick(second + 1),
                        Action::Startup {
                            guest,
                            second: second + 1,
                            boot,
                        },
                    );
                }
            }
            Action::Deploy { wave } => {
                let size = self.spec.scenario.deploy.map_or(1, |d| d.wave_size.max(1));
                let start = wave as usize * size;
                let second = (q.due - 1) / u64::from(ticks_per_second());
                for guest in start..(start + size).min(self.active.len()) {
                    if !self.active[guest] {
                        continue;
                    }
                    out.push((at, WorkloadEvent::RestartGuest { guest }));
                    self.carry[guest] = 0.0;
                    self.reboot(guest, second);
                }
            }
            Action::Arrive { second } => {
                self.arrive(second, at, out);
                if let Some(next) = self.next_busy_second(second + 1) {
                    self.push(due_tick(next), Action::Arrive { second: next });
                }
            }
        }
    }

    /// Starts a fresh boot of `guest` at `second`: a full start-up window
    /// whose chain begins the next second. The new generation strands
    /// any entry of the interrupted boot still in the queue.
    fn reboot(&mut self, guest: usize, second: u64) {
        self.startup_left[guest] = self.spec.startup_seconds;
        self.boot[guest] = self.boot[guest].wrapping_add(1);
        if second + 1 < self.spec.duration_seconds {
            self.push(
                due_tick(second + 1),
                Action::Startup {
                    guest,
                    second: second + 1,
                    boot: self.boot[guest],
                },
            );
        }
    }

    /// One second of arrivals: phase tracking, autoscale churn, then a
    /// batched `Requests` event per active guest.
    fn arrive(&mut self, second: u64, at: Tick, out: &mut Vec<(Tick, WorkloadEvent)>) {
        let factor = self.spec.scenario.curve.factor_at(second);
        let phase = self.spec.scenario.curve.phase_at(second);
        let initial = self.spec.guests as f64;

        if let Some(policy) = self.spec.scenario.autoscale {
            let target = ((factor * initial).ceil() as usize)
                .clamp(policy.min_guests.max(1), policy.max_guests.max(1));
            let mut current = self.active_guests();
            // Scale up lowest inactive index first, drain highest active
            // index first: index order is the deterministic tie-break.
            for guest in 0..self.active.len() {
                if current >= target {
                    break;
                }
                if !self.active[guest] {
                    self.active[guest] = true;
                    self.carry[guest] = 0.0;
                    out.push((at, WorkloadEvent::AddGuest { guest }));
                    self.reboot(guest, second);
                    current += 1;
                }
            }
            for guest in (0..self.active.len()).rev() {
                if current <= target {
                    break;
                }
                if self.active[guest] {
                    self.active[guest] = false;
                    self.carry[guest] = 0.0;
                    out.push((at, WorkloadEvent::RemoveGuest { guest }));
                    current -= 1;
                }
            }
        }

        let active = self.active_guests();
        if self.last_phase != Some(phase) {
            self.last_phase = Some(phase);
            out.push((
                at,
                WorkloadEvent::Phase {
                    phase,
                    offered_rps: factor * self.spec.healthy_rps * initial,
                },
            ));
        }
        if active == 0 || factor <= 0.0 {
            return;
        }
        // The fleet-wide offered load is factor × healthy × initial fleet
        // size, spread over whoever is active (autoscale concentrates
        // the same demand on fewer guests at the trough).
        let per_guest = factor * self.spec.healthy_rps * initial / active as f64;
        for guest in 0..self.active.len() {
            if !self.active[guest] {
                continue;
            }
            self.carry[guest] += per_guest * jitter(self.spec.seed, guest, second);
            let offered = self.carry[guest] as u64;
            self.carry[guest] -= offered as f64;
            if offered > 0 {
                out.push((at, WorkloadEvent::Requests { guest, offered }));
            }
        }
    }

    /// The first second at or after `from` that needs an `Arrive` entry:
    /// non-zero offered load, or an autoscale target differing from the
    /// current active count. Returns `None` when the rest of the run is
    /// provably idle — nothing further is ever scheduled.
    fn next_busy_second(&self, from: u64) -> Option<u64> {
        let current = self.active_guests();
        (from..self.spec.duration_seconds).find(|&s| {
            let factor = self.spec.scenario.curve.factor_at(s);
            if factor > 0.0 {
                return true;
            }
            self.spec.scenario.autoscale.is_some_and(|policy| {
                let target = ((factor * self.spec.guests as f64).ceil() as usize)
                    .clamp(policy.min_guests.max(1), policy.max_guests.max(1));
                target != current
            })
        })
    }
}

/// The tick a second-`s` entry comes due: the first tick of that second.
fn due_tick(second: u64) -> u64 {
    second * u64::from(ticks_per_second()) + 1
}

fn ticks_per_second() -> u32 {
    mem::TICKS_PER_SECOND as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ArrivalCurve;
    use crate::scenario::DeploySchedule;

    fn drain(engine: &mut TrafficEngine, seconds: u64) -> Vec<(Tick, WorkloadEvent)> {
        engine.events_until(Tick(seconds * u64::from(ticks_per_second()) + 1))
    }

    fn spec(scenario: Scenario, guests: usize) -> TrafficSpec {
        TrafficSpec {
            scenario,
            guests,
            healthy_rps: 4.0,
            startup_seconds: 3,
            duration_seconds: 60,
            seed: 7,
        }
    }

    #[test]
    fn constant_load_offers_roughly_healthy_rate() {
        let mut e = TrafficEngine::new(spec(Scenario::constant(), 2));
        let events = drain(&mut e, 59);
        let offered: u64 = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                WorkloadEvent::Requests { offered, .. } => Some(*offered),
                _ => None,
            })
            .sum();
        // 2 guests × 4 rps × 60 s = 480 expected ±10 % jitter.
        assert!((430..=530).contains(&offered), "offered {offered}");
    }

    #[test]
    fn startup_events_stop_after_startup_window() {
        let mut e = TrafficEngine::new(spec(Scenario::constant(), 2));
        let events = drain(&mut e, 59);
        let startups = events
            .iter()
            .filter(|(_, ev)| matches!(ev, WorkloadEvent::StartupTick { .. }))
            .count();
        assert_eq!(startups, 2 * 3, "one per guest per startup second");
    }

    #[test]
    fn idle_run_has_no_pending_events_after_startup() {
        let mut s = spec(Scenario::constant(), 4);
        s.scenario.curve = ArrivalCurve::Constant { factor: 0.0 };
        let mut e = TrafficEngine::new(s);
        let _ = drain(&mut e, 10);
        // Start-up chains exhausted, no arrivals ever scheduled.
        assert_eq!(e.next_due(), None);
    }

    #[test]
    fn event_stream_is_reproducible() {
        let make = || {
            let mut e = TrafficEngine::new(spec(Scenario::flash_crowd(60), 3));
            drain(&mut e, 59)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn deploy_waves_restart_every_guest_once() {
        let mut e = TrafficEngine::new(spec(Scenario::rolling_deploy(60, 4), 4));
        let events = drain(&mut e, 59);
        let mut restarted: Vec<usize> = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                WorkloadEvent::RestartGuest { guest } => Some(*guest),
                _ => None,
            })
            .collect();
        restarted.sort_unstable();
        assert_eq!(restarted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn autoscale_tracks_the_diurnal_curve() {
        let mut e = TrafficEngine::new(spec(Scenario::autoscale(60, 4), 4));
        let events = drain(&mut e, 59);
        let removes = events
            .iter()
            .filter(|(_, ev)| matches!(ev, WorkloadEvent::RemoveGuest { .. }))
            .count();
        let adds = events
            .iter()
            .filter(|(_, ev)| matches!(ev, WorkloadEvent::AddGuest { .. }))
            .count();
        // The trough drains guests, the peak brings them back.
        assert!(removes > 0, "no scale-down happened");
        assert!(adds > 0, "no scale-up happened");
    }

    #[test]
    fn phase_changes_are_announced() {
        let mut e = TrafficEngine::new(spec(Scenario::flash_crowd(60), 2));
        let events = drain(&mut e, 59);
        let phases: Vec<u32> = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                WorkloadEvent::Phase { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, vec![0, 1, 2]);
    }

    #[test]
    fn a_restart_mid_boot_runs_one_fresh_start_up_chain() {
        let mut scenario = Scenario::constant();
        scenario.deploy = Some(DeploySchedule {
            start_seconds: 4,
            wave_interval_seconds: 1,
            wave_size: 1,
        });
        let mut e = TrafficEngine::new(TrafficSpec {
            scenario,
            guests: 1,
            healthy_rps: 4.0,
            startup_seconds: 10,
            duration_seconds: 60,
            seed: 7,
        });
        let events = drain(&mut e, 59);
        let restart = events
            .iter()
            .position(|(_, ev)| matches!(ev, WorkloadEvent::RestartGuest { .. }))
            .expect("the wave restarts the guest");
        let seconds = |events: &[(Tick, WorkloadEvent)]| -> Vec<u64> {
            events
                .iter()
                .filter(|(_, ev)| matches!(ev, WorkloadEvent::StartupTick { .. }))
                .map(|(at, _)| (at.0 - 1) / u64::from(ticks_per_second()))
                .collect()
        };
        // The first boot ticks until the wave at second 4; the restarted
        // JVM then gets its full ten seconds, one tick each.
        assert_eq!(seconds(&events[..restart]), vec![0, 1, 2, 3]);
        assert_eq!(seconds(&events[restart..]), (5..15).collect::<Vec<_>>());
    }

    /// FNV-1a over the `Debug` rendering of a `(tick, event)` stream.
    fn stream_fingerprint(events: &[(Tick, WorkloadEvent)]) -> u64 {
        format!("{events:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn churn_scenario_streams_are_pinned() {
        // A 40 s boot against waves from second 30 restarts guests
        // mid-boot; autoscale drains and re-adds guests.
        let cases = [
            (Scenario::flash_crowd(120), 10, (1043, 0x2169e7937f00c50d)),
            (
                Scenario::rolling_deploy(120, 8),
                40,
                (1589, 0x81de0fa50318621f),
            ),
            (Scenario::autoscale(120, 8), 10, (872, 0x592a7c0ac18f9f9e)),
        ];
        for (scenario, startup_seconds, pin) in cases {
            let mut e = TrafficEngine::new(TrafficSpec {
                scenario,
                guests: 8,
                healthy_rps: 4.0,
                startup_seconds,
                duration_seconds: 120,
                seed: 7,
            });
            let events = drain(&mut e, 119);
            assert_eq!(
                (events.len(), stream_fingerprint(&events)),
                pin,
                "{}",
                scenario.name
            );
        }
    }

    #[test]
    fn events_arrive_in_nondecreasing_tick_order() {
        let mut e = TrafficEngine::new(spec(Scenario::diurnal(60), 3));
        let events = drain(&mut e, 59);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
