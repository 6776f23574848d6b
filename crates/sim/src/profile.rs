//! Thread-local tally of retired simulator events.
//!
//! Every [`crate::Sim`] adds its retired event count (task polls plus
//! timer and event fires) to a tally kept by the thread it runs on: when
//! `run_until` returns, and again when its core is freed for any
//! stragglers. [`take_thread_events`] reads and resets it, so a caller
//! can count the events an experiment retires without threading a
//! counter through its signature; the benchmark's equivalence suite
//! uses it to check each hand-built world against the runner it mirrors.
//!
//! The tally never feeds back into a simulation: every result is the
//! same whether or not it is read.

use std::cell::Cell;

thread_local! {
    /// Simulator events retired on this thread since the last
    /// [`take_thread_events`] call.
    static THREAD_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Credits `n` simulator events to the current thread's tally. Called
/// by the executor when `run_until` returns and when a `Sim` world's
/// core is freed.
pub fn note_sim_events(n: u64) {
    THREAD_EVENTS.with(|c| c.set(c.get() + n));
}

/// Returns and resets the current thread's event tally.
pub fn take_thread_events() -> u64 {
    THREAD_EVENTS.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_tally_accumulates_and_resets() {
        let _ = take_thread_events();
        note_sim_events(10);
        note_sim_events(5);
        assert_eq!(take_thread_events(), 15);
        assert_eq!(take_thread_events(), 0);
    }

    #[test]
    fn sim_runs_feed_the_tally() {
        use crate::{Sim, SimDuration};
        let _ = take_thread_events();
        {
            let sim = Sim::new();
            let s = sim.clone();
            sim.run_until(async move {
                s.sleep(SimDuration::from_micros(3)).await;
            });
        }
        assert!(take_thread_events() > 0, "a run retires events");
    }
}
