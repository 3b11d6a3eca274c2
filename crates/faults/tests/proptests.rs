//! Property-based tests of the fault plane's two core invariants:
//! zero-rate identity and seed determinism.

use macgame_faults::{
    ChannelFaults, ChurnKind, ChurnSchedule, ObservationChannel, ObservationFaults,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A zero-rate observation channel is the identity on every profile,
    /// for any number of stages — the foundation of the bitwise
    /// fault-rate-0 guarantee.
    #[test]
    fn noop_observation_channel_is_identity(
        profiles in prop::collection::vec(prop::collection::vec(1u32..2048, 1..6), 1..8),
        w_max in 1u32..4096,
    ) {
        let nodes = profiles[0].len();
        let mut channel = ObservationChannel::new(ObservationFaults::noop(), nodes);
        for profile in profiles.iter().filter(|p| p.len() == nodes) {
            let observed = channel.observe(profile, w_max).unwrap();
            prop_assert_eq!(&observed, profile);
        }
    }

    /// Two channels built from the same config replay the same
    /// observation sequence: the fault stream is a pure function of the
    /// seed, never of ambient state.
    #[test]
    fn observation_channel_is_seed_deterministic(
        seed in 0u64..1000,
        amp in 0.01f64..0.9,
        stale in 0.0f64..0.5,
        drop in 0.0f64..0.5,
        profile in prop::collection::vec(1u32..1024, 1..6),
        stages in 1usize..10,
    ) {
        let faults = ObservationFaults::new(amp, 0.5, stale, drop, seed).unwrap();
        let mut a = ObservationChannel::new(faults, profile.len());
        let mut b = ObservationChannel::new(faults, profile.len());
        for _ in 0..stages {
            let oa = a.observe(&profile, 1024).unwrap();
            let ob = b.observe(&profile, 1024).unwrap();
            prop_assert_eq!(&oa, &ob);
            prop_assert!(oa.iter().all(|&w| (1..=1024).contains(&w)));
        }
    }

    /// All-zero rates always report as no-op, and non-trivial rates never
    /// do: `is_noop` is exactly the zero-rate predicate.
    #[test]
    fn is_noop_is_exactly_the_zero_rate_predicate(
        amp in 0.0f64..0.9,
        additive in 0.0f64..10.0,
        stale in 0.0f64..1.0,
        drop in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let faults = ObservationFaults::new(amp, additive, stale, drop, seed).unwrap();
        let zero = amp == 0.0 && additive == 0.0 && stale == 0.0 && drop == 0.0;
        prop_assert_eq!(faults.is_noop(), zero);
        prop_assert!(ObservationFaults::noop().is_noop());
        prop_assert!(ChannelFaults::noop().is_noop());
    }

    /// A random churn schedule is a pure function of its inputs, its
    /// events arrive in round order, and every event targets a real node
    /// within the requested horizon.
    #[test]
    fn churn_schedules_are_seed_deterministic_and_well_formed(
        nodes in 1usize..20,
        rounds in 1usize..60,
        rate in 0.0f64..0.6,
        seed in 0u64..500,
    ) {
        let a = ChurnSchedule::random(nodes, rounds, rate, 256, seed).unwrap();
        let b = ChurnSchedule::random(nodes, rounds, rate, 256, seed).unwrap();
        prop_assert_eq!(a.events(), b.events());
        let mut last_round = 0;
        for event in a.events() {
            prop_assert!(event.round >= last_round, "events must be round-ordered");
            prop_assert!(event.round <= rounds);
            prop_assert!(event.node < nodes);
            match event.kind {
                ChurnKind::Join { window } | ChurnKind::Reset { window } => {
                    prop_assert!((1..=256).contains(&window));
                }
                ChurnKind::Leave => {}
            }
            last_round = event.round;
        }
        if rate == 0.0 {
            prop_assert!(a.is_empty(), "zero churn rate must schedule nothing");
        }
    }
}
