//! Fig. 17 — tag-data BER under different *reference-symbol* modulation
//! schemes: DSSS-BPSK / DSSS-DQPSK / CCK for 802.11b carriers and
//! OFDM-BPSK / QPSK / 16-QAM for 802.11n. Paper: BERs stay below ~0.6%
//! across all schemes — overlay modulation is agnostic to the reference
//! content's modulation.

use crate::pipeline::{run_cells, tag_error_counts, AnyLink, CellJob, Geometry};
use crate::report::{pct, Report};
use msc_core::overlay::{params_for, Mode};
use msc_phy::protocol::Protocol;
use msc_phy::wifi_b::DsssRate;
use msc_phy::wifi_n::Mcs;
use msc_rx::{WifiBOverlayLink, WifiNOverlayLink};

/// Runs with `n` packets per scheme.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(8);
    let geo = Geometry::los(8.0);
    let mut report = Report::new(
        "fig17 — tag BER vs reference-symbol modulation scheme",
        &["carrier", "reference modulation", "tag BER", "packets"],
    );

    // 802.11n: the overlay link supports all three constellations.
    let n_params = params_for(Protocol::WifiN, Mode::Mode1);
    let wifi_n = |mcs| (AnyLink::WifiN(WifiNOverlayLink::new(n_params).with_mcs(mcs)), 12);
    // 802.11b: the overlay link itself supports all reference-symbol
    // rates (DSSS-BPSK/DQPSK/CCK) — single receiver, no oracle. The
    // link's tag modulator switches to 8/11 µs symbols for CCK.
    let b_params = params_for(Protocol::WifiB, Mode::Mode1);
    let wifi_b = |rate: DsssRate| {
        (
            AnyLink::WifiB(WifiBOverlayLink::new(b_params).with_rate(rate)),
            24 * rate.bits_per_symbol(),
        )
    };
    let schemes = [
        ("802.11n", "OFDM-BPSK", wifi_n(Mcs::Mcs0)),
        ("802.11n", "OFDM-QPSK", wifi_n(Mcs::Mcs1)),
        ("802.11n", "OFDM-16QAM", wifi_n(Mcs::Mcs3)),
        ("802.11b", "DSSS-BPSK (1M)", wifi_b(DsssRate::R1M)),
        ("802.11b", "DSSS-DQPSK (2M)", wifi_b(DsssRate::R2M)),
        ("802.11b", "CCK (5.5M)", wifi_b(DsssRate::R5M5)),
    ];
    let jobs: Vec<CellJob> = schemes
        .iter()
        .map(|(_, label, (link, n_productive))| {
            CellJob::at(link, &geo, *n_productive, n, format!("fig17/{label}"))
        })
        .collect();
    for ((carrier, label, _), (job, outs)) in
        schemes.iter().zip(jobs.iter().zip(run_cells(seed, &jobs)))
    {
        let (carrier, label, cell) = (*carrier, *label, &job.cell);
        let (errors, bits) = tag_error_counts(&outs);
        report.keyed_row(
            cell,
            &[carrier.into(), label.into(), pct(errors as f64 / bits.max(1) as f64), n.to_string()],
        );
        report.stat_clustered("tag_ber", errors, bits, outs.len() as u64);
    }
    report.note("Paper Fig. 17: all schemes keep tag BER below ~0.6% — the reference modulation does not matter.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofdm_schemes_all_decode_tag_data() {
        let rendered = run(8, 42).render();
        for scheme in ["OFDM-BPSK", "OFDM-QPSK", "OFDM-16QAM"] {
            let ber: f64 = rendered
                .lines()
                .find(|l| l.contains(scheme))
                .unwrap()
                .split_whitespace()
                .find(|t| t.ends_with('%'))
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(ber < 10.0, "{scheme} tag BER {ber}%");
        }
    }
}
