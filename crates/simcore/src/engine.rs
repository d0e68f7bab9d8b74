//! The simulation driver: owns the clock and the event queue and hands
//! the earliest event to whoever steps it.

use crate::queue::{EventQueue, ScheduledEvent};
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulator generic over the event payload type.
///
/// The world state lives with the caller, which pops one event at a time
/// with [`Simulator::step`] and schedules follow-ups between steps; the
/// simulator only owns time and the pending-event queue. This split keeps
/// domain crates (network, key-value store, dedup system) independent of
/// each other while sharing one clock.
///
/// # Example
///
/// ```
/// use ef_simcore::{Simulator, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Ev { Tick(u32) }
///
/// let mut sim = Simulator::new();
/// sim.schedule_at(SimTime::ZERO, Ev::Tick(0));
/// let mut ticks = 0u32;
/// while let Some(ev) = sim.step() {
///     let Ev::Tick(n) = ev.payload;
///     ticks += 1;
///     if n < 9 {
///         sim.schedule_after(SimDuration::from_millis(1), Ev::Tick(n + 1));
///     }
/// }
/// assert_eq!(ticks, 10);
/// assert_eq!(sim.now(), SimTime::from_nanos(9_000_000));
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with an empty queue at time zero.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics when `at` is before the current simulated time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, payload);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.queue.schedule(self.now + delay, payload);
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops a single event, advancing the clock to its timestamp.
    pub fn step(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), Ev::Ping(0));
        sim.step();
        sim.schedule_at(SimTime::from_nanos(5), Ev::Ping(1));
    }

    #[test]
    fn step_returns_events_in_order() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_millis(2), Ev::Ping(2));
        sim.schedule_after(SimDuration::from_millis(1), Ev::Ping(1));
        assert_eq!(sim.step().unwrap().payload, Ev::Ping(1));
        assert_eq!(sim.step().unwrap().payload, Ev::Ping(2));
        assert!(sim.step().is_none());
        assert_eq!(sim.events_processed(), 2);
    }
}
