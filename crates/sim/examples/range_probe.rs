//! Scratch: decode success vs distance per protocol.
//!
//! Output goes through the msc-obs trace layer (stderr subscriber), one
//! `probe.range` event per (protocol, distance) cell.
use msc_core::overlay::Mode;
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{run_packets, AnyLink, Geometry};

fn main() {
    msc_obs::trace::install(std::sync::Arc::new(msc_obs::trace::StderrSubscriber));
    for p in Protocol::ALL {
        let link = AnyLink::new(p, Mode::Mode1);
        for d in [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0] {
            let geo = Geometry::los(d);
            let n = 8;
            let mut ok = 0;
            let mut ber = 0.0;
            let cell = format!("probe/{}/{d}", p.label());
            for out in run_packets(&link, &geo, Mode::Mode1, 16, n, 3, &cell) {
                if out.decoded {
                    ok += 1;
                }
                ber += out.tag_ber();
            }
            msc_obs::event!(
                "probe.range",
                protocol = p.label(),
                d_m = d,
                ok = format_args!("{ok}/{n}"),
                tag_ber = format_args!("{:.2}", ber / n as f64),
                snr_db = format_args!("{:.0}", geo.uplink_snr_db(p))
            );
        }
    }
}
