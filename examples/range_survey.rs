//! Site-survey style range sweep: walks the receiver away from the tag
//! in both the LoS hallway and the NLoS office deployments, printing
//! RSSI, packet delivery, and tag BER per protocol — the measurement
//! behind the paper's Figs. 13 and 14.
//!
//! ```text
//! cargo run --release --example range_survey [packets-per-point]
//! ```

use multiscatter::prelude::*;
use multiscatter::sim::pipeline::{run_packets, AnyLink, Geometry};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10);

    for (nlos, name) in [(false, "LoS hallway"), (true, "NLoS office")] {
        println!("== {name} (tag 0.8 m from excitation source, {n} packets/point) ==");
        println!(
            "{:9} {:>6} {:>10} {:>10} {:>9}",
            "protocol", "d m", "RSSI dBm", "delivery", "tag BER"
        );
        for p in Protocol::ALL {
            let link = AnyLink::new(p, Mode::Mode1);
            for d in [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0] {
                let geo = if nlos { Geometry::nlos(d) } else { Geometry::los(d) };
                let mut delivered = 0usize;
                let mut err = 0usize;
                let mut bits = 0usize;
                let cell = format!("survey/{name}/{}/{d}", p.label());
                for out in run_packets(&link, &geo, Mode::Mode1, 16, n, 5, &cell) {
                    if out.decoded {
                        delivered += 1;
                        err += out.tag_errors;
                        bits += out.tag_bits;
                    }
                }
                let ber = if bits > 0 { err as f64 / bits as f64 } else { f64::NAN };
                println!(
                    "{:9} {:6.1} {:10.1} {:9.0}% {:8.1}%",
                    p.label(),
                    d,
                    geo.rssi_dbm(p),
                    delivered as f64 / n as f64 * 100.0,
                    ber * 100.0
                );
            }
        }
        println!();
    }
    println!("paper reference: LoS ranges 28 m (WiFi) / 22 m (ZigBee) / 20 m (BLE); NLoS 22 / 18 / 16 m.");
}
