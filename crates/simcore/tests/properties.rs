//! Property tests for the discrete-event engine.

use ef_simcore::prop::{any, check, vec};
use ef_simcore::{DetRng, EventQueue, FifoServer, SimDuration, SimTime, Simulator};

/// Events pop in non-decreasing time order with FIFO tie-breaking,
/// for arbitrary schedules.
#[test]
fn queue_total_order() {
    check(
        "queue_total_order",
        256,
        vec(0u64..1_000, 1..200),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            let mut popped = 0;
            while let Some(ev) = q.pop() {
                popped += 1;
                if let Some((lt, lseq)) = last {
                    assert!(ev.time >= lt, "time went backwards");
                    if ev.time == lt {
                        // FIFO among equal times: payload (insertion index)
                        // must increase.
                        assert!(ev.payload > lseq, "tie-break not FIFO");
                    }
                }
                last = Some((ev.time, ev.payload));
            }
            assert_eq!(popped, times.len());
        },
    );
}

/// The simulator clock is monotone for arbitrary event cascades.
#[test]
fn simulator_clock_monotone() {
    check(
        "simulator_clock_monotone",
        256,
        (any::<u64>(), 1usize..100),
        |(seed, n)| {
            let mut sim: Simulator<u64> = Simulator::new();
            let mut rng = DetRng::new(seed);
            for _ in 0..n {
                let t = rng.range_u64(0, 1_000_000);
                sim.schedule_at(SimTime::from_nanos(t), t);
            }
            let mut last = SimTime::ZERO;
            while let Some(ev) = sim.step() {
                assert!(ev.time >= last);
                assert_eq!(sim.now(), ev.time);
                last = ev.time;
            }
        },
    );
}

/// FIFO-server conservation: total busy time equals the sum of
/// service times, and completions are ordered.
#[test]
fn fifo_server_conservation() {
    check(
        "fifo_server_conservation",
        256,
        vec((0u64..10_000, 1u64..1_000), 1..100),
        |jobs| {
            let mut sorted = jobs.clone();
            sorted.sort_by_key(|(arrival, _)| *arrival);
            let mut server = FifoServer::new();
            let mut last_finish = SimTime::ZERO;
            let mut total_service = 0u64;
            for (arrival, service) in &sorted {
                let finish = server.serve(
                    SimTime::from_nanos(*arrival),
                    SimDuration::from_nanos(*service),
                );
                assert!(finish >= last_finish, "completions reordered");
                assert!(finish.as_nanos() >= arrival + service);
                last_finish = finish;
                total_service += service;
            }
            assert_eq!(server.busy_time().as_nanos(), total_service);
            assert_eq!(server.jobs_served(), sorted.len() as u64);
        },
    );
}

/// DetRng substreams with equal labels agree; different labels diverge
/// quickly.
#[test]
fn rng_substream_determinism() {
    check(
        "rng_substream_determinism",
        256,
        (any::<u64>(), vec(b'a'..b'z' + 1, 1..13)),
        |(seed, label)| {
            let label = String::from_utf8(label).unwrap();
            let a = DetRng::new(seed);
            let mut s1 = a.substream(&label);
            let mut s2 = DetRng::new(seed).substream(&label);
            for _ in 0..8 {
                assert_eq!(s1.next_u64(), s2.next_u64());
            }
        },
    );
}
