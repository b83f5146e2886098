//! Cross-crate integration: the full excitation → tag → channel →
//! receiver loop for every protocol, with noise and fading in the loop.

use multiscatter::prelude::*;
use multiscatter::sim::pipeline::{run_packets, AnyLink, Geometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn close_range_loop_is_error_free_for_all_protocols() {
    for p in Protocol::ALL {
        let link = AnyLink::new(p, Mode::Mode1);
        // One single-trial cell per trial: each gets a fresh payload.
        for trial in 0..3 {
            let cell = format!("e2e/close/{trial}");
            let out = &run_packets(&link, &Geometry::los(3.0), Mode::Mode1, 16, 1, 2020, &cell)[0];
            assert!(out.decoded, "{p} trial {trial}: packet lost at 3 m");
            assert_eq!(out.tag_errors, 0, "{p} trial {trial}: tag errors at 3 m");
            assert_eq!(out.productive_errors, 0, "{p} trial {trial}: productive errors");
        }
    }
}

#[test]
fn mode2_triples_tag_capacity() {
    for p in Protocol::ALL {
        let l1 = AnyLink::new(p, Mode::Mode1);
        let l2 = AnyLink::new(p, Mode::Mode2);
        assert_eq!(l2.tag_capacity(16) * 2, l1.tag_capacity(16) * 6);
        // Mode 2 still round-trips cleanly at close range.
        let out = &run_packets(&l2, &Geometry::los(3.0), Mode::Mode2, 16, 1, 2021, "e2e/mode2")[0];
        assert!(out.decoded && out.tag_errors == 0, "{p} mode-2 loop failed");
    }
}

#[test]
fn mode3_extreme_tradeoff_round_trips() {
    // Mode 3: one reference for the whole payload — productive data
    // shrinks to a single unit per packet, tag data fills the rest.
    for p in Protocol::ALL {
        let mode = Mode::Mode3 { n: 8 };
        let link = AnyLink::new(p, mode);
        // One productive unit per sequence: use 2 sequences.
        let out = &run_packets(&link, &Geometry::los(3.0), mode, 2, 1, 2024, "e2e/mode3")[0];
        assert!(out.decoded, "{p} mode-3 packet lost");
        assert_eq!(out.tag_errors, 0, "{p} mode-3 tag errors");
        // Mode 3 carries n−1 = 7 tag bits per productive unit.
        assert_eq!(out.tag_bits, 14, "{p} capacity");
    }
}

#[test]
fn distance_monotonically_degrades_the_link() {
    let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
    // Six single-trial cells per distance, so six distinct payloads.
    let ber_at = |d: f64| -> f64 {
        let n = 6;
        let ber = |i: usize| {
            let cell = format!("e2e/{d}/{i}");
            run_packets(&link, &Geometry::los(d), Mode::Mode1, 12, 1, 2022, &cell)[0].tag_ber()
        };
        (0..n).map(ber).sum::<f64>() / n as f64
    };
    let near = ber_at(3.0);
    let far = ber_at(40.0);
    assert!(near < 0.05, "near BER {near}");
    assert!(far > 0.2, "far BER {far}");
}

#[test]
fn tag_rides_any_identified_carrier_and_single_protocol_tag_idles() {
    let mut rng = StdRng::seed_from_u64(2023);
    let mut multi = MultiscatterTag::new(SampleRate::ADC_FULL, Mode::Mode1);
    let mut single =
        MultiscatterTag::new(SampleRate::ADC_FULL, Mode::Mode1).single_protocol(Protocol::WifiB);
    let mut multi_tx = 0;
    let mut single_tx = 0;
    for (i, p) in Protocol::ALL.iter().enumerate() {
        let wave = multiscatter::sim::idtraces::random_packet(*p, &mut rng);
        let t = i as f64 * 0.01;
        if multi.process(&mut rng, &wave, -6.0, t, &[1, 0]).backscatter.is_some() {
            multi_tx += 1;
        }
        if single.process(&mut rng, &wave, -6.0, t, &[1, 0]).backscatter.is_some() {
            single_tx += 1;
        }
    }
    assert_eq!(multi_tx, 4, "multiscatter must ride every carrier");
    assert_eq!(single_tx, 1, "single-protocol tag must idle on foreign carriers");
}
