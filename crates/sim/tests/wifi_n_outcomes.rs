//! Pinned 802.11n link outcomes: the receiver may get faster, but every
//! per-packet decision it makes must stay the same. Each cell's outcome
//! list is digested with `hash_label` and compared against the value the
//! receiver produced before its sync and decode stages were reworked
//! (FFT matched-filter sync, full Viterbi decode on every overlay packet).

use msc_channel::Fading;
use msc_core::overlay::Mode;
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{run_cell, run_packets, AnyLink, Geometry, Impairments};
use msc_sim::PacketOutcome;

fn digest(outs: &[PacketOutcome]) -> u64 {
    msc_par::hash_label(&format!("{outs:?}"))
}

#[test]
fn link_cells_keep_their_outcomes() {
    // (distance, digest, decoded packets): from always-decoded to the
    // edge of range, so both sync hits and sync misses are pinned.
    let pinned: [(f64, u64, usize); 5] = [
        (4.0, 14858916719756654561, 48),
        (16.0, 2431237623347622893, 47),
        (20.0, 16376249478532913772, 46),
        (24.0, 17960220371746843650, 40),
        (28.0, 12886969917816608574, 31),
    ];
    let link = AnyLink::new(Protocol::WifiN, Mode::Mode1);
    for (d, want, decoded) in pinned {
        let cell = format!("los/802.11n/{d}");
        let outs = run_packets(&link, &Geometry::los(d), Mode::Mode1, 16, 48, 42, &cell);
        assert_eq!(outs.len(), 48);
        assert_eq!(outs.iter().filter(|o| o.decoded).count(), decoded, "LoS {d} m");
        assert_eq!(digest(&outs), want, "LoS {d} m: outcomes moved");
    }
}

#[test]
fn cfo_cell_keeps_its_outcomes() {
    // One abl-cfo half-cell: crystal-grade offset, so the CFO estimate
    // and derotation run before sync on every packet.
    let link = AnyLink::new(Protocol::WifiN, Mode::Mode1);
    let imp = Impairments::snr(15.0, Fading::None).with_cfo(48.8e3);
    let outs = run_cell(&link, imp, 12, 48, 42, "abl-cfo/802.11n/48800/+", None);
    assert_eq!(outs.len(), 48);
    assert_eq!(digest(&outs), 12871762453399394849, "CFO cell: outcomes moved");
}

#[test]
fn receive_then_decode_psdu_equals_demodulate() {
    // Every MCS, the punctured rate-3/4 ones (MCS 2, 4) included, clean
    // and through noise down to where decoding starts to fail: the two
    // stages run back to back give exactly what `demodulate` gives.
    use msc_phy::bits::random_bits;
    use msc_phy::wifi_n::{Mcs, WifiNConfig, WifiNDemodulator, WifiNModulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let demod = WifiNDemodulator::new();
    let mut rng = StdRng::seed_from_u64(42);
    let (mut decoded, mut failed) = (0, 0);
    for mcs in [Mcs::Mcs0, Mcs::Mcs1, Mcs::Mcs2, Mcs::Mcs3, Mcs::Mcs4] {
        let bits = random_bits(&mut rng, 3 * mcs.n_dbps() - 22);
        let tx = WifiNModulator::new(WifiNConfig { mcs }).modulate(&bits);
        for snr_db in [f64::INFINITY, 20.0, 12.0, 8.0, 4.0, 0.0] {
            let mut rx = tx.clone();
            if snr_db.is_finite() {
                msc_channel::awgn::add_noise_snr(&mut rng, &mut rx, snr_db);
            }
            let staged = demod.receive(&rx).map(|frame| (frame.decode_psdu(), frame));
            let whole = demod.demodulate(&rx);
            match (&staged, &whole) {
                (Ok((psdu, frame)), Ok(dec)) => {
                    assert_eq!(psdu, &dec.psdu_bits, "{mcs:?} at {snr_db} dB");
                    assert_eq!(frame.length, bits.len());
                    assert_eq!(frame.mcs, dec.mcs);
                    assert_eq!(frame.htsig_ok, dec.htsig_ok);
                    assert_eq!(frame.raw_symbol_bits, dec.raw_symbol_bits);
                    assert_eq!(frame.symbol_points, dec.symbol_points);
                    assert_eq!(frame.data_start, dec.data_start);
                    decoded += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{mcs:?} at {snr_db} dB");
                    failed += 1;
                }
                _ => panic!("{mcs:?} at {snr_db} dB: stages {staged:?} vs demodulate {whole:?}"),
            }
        }
    }
    assert!(decoded >= 20 && failed > 0, "coverage: {decoded} decoded, {failed} failed");
}
