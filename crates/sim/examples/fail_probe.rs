//! Scratch: why do BLE/ZigBee packets fail at moderate SNR?
//!
//! Output goes through the msc-obs trace layer (stderr subscriber), one
//! `probe.fail` event per (protocol, SNR) cell.
use msc_channel::Fading;
use msc_core::overlay::Mode;
use msc_core::tag::payload_start_seconds;
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{apply_uplink, AnyLink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    msc_obs::trace::install(std::sync::Arc::new(msc_obs::trace::StderrSubscriber));
    let mut rng = StdRng::seed_from_u64(5);
    for p in Protocol::ALL {
        for snr in [14.0, 10.0, 8.0, 6.0, 4.0, 2.0, 0.0, -2.0] {
            let link = AnyLink::new(p, Mode::Mode1);
            let mut ok = 0;
            let mut errs = Vec::new();
            let mut tagerr = 0;
            let mut tagbits = 0;
            for _ in 0..10 {
                let (_, carrier) = link.make_carrier(&mut rng, 16);
                let cap = link.tag_capacity(16);
                let tb: Vec<u8> = (0..cap).map(|_| rng.gen_range(0..=1)).collect();
                let m = link.modulator();
                let start = (payload_start_seconds(p) * carrier.rate().as_hz()).round() as usize;
                let modu = m.modulate(&carrier, start, &tb);
                let rx = apply_uplink(&mut rng, &modu, snr, Fading::None);
                match link.decode(&rx, 16) {
                    Ok(d) => {
                        ok += 1;
                        tagbits += tb.len();
                        tagerr += tb.iter().zip(d.tag.iter()).filter(|(a, b)| a != b).count();
                    }
                    Err(e) => errs.push(format!("{e:?}")),
                }
            }
            let ber = if tagbits > 0 { tagerr as f64 / tagbits as f64 } else { 0.0 };
            msc_obs::event!(
                "probe.fail",
                protocol = p.label(),
                snr_db = snr,
                ok = format_args!("{ok}/10"),
                tag_ber = format_args!("{ber:.3}"),
                errs = ?errs
            );
        }
    }
}
