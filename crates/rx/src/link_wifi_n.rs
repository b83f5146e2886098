//! The 802.11n overlay link: reference symbols are raw constellation
//! patterns (the scrambler/BCC are bypassed for the payload, which the
//! paper notes are "not completely compatible with codeword
//! translation"); each productive bit selects a base pattern or its
//! complement, and tag bits π-flip whole OFDM symbols. Decisions use
//! majority voting over the middle half of each symbol's subcarriers
//! (paper §2.4.2).

use crate::OverlayDecoded;
use msc_core::overlay::OverlayParams;
use msc_dsp::IqBuf;
use msc_phy::protocol::DecodeError;
use msc_phy::wifi_n::{Mcs, WifiNConfig, WifiNDemodulator, WifiNModulator};

/// One 802.11n overlay link.
#[derive(Clone, Debug)]
pub struct WifiNOverlayLink {
    params: OverlayParams,
    mcs: Mcs,
    /// Modem instances built once per link: the OFDM engine's FFT plan
    /// and subcarrier tables are reused across packets.
    modulator: WifiNModulator,
    demodulator: WifiNDemodulator,
}

impl WifiNOverlayLink {
    /// Creates a link (MCS 0 unless overridden via [`Self::with_mcs`]).
    pub fn new(params: OverlayParams) -> Self {
        let mcs = Mcs::Mcs0;
        WifiNOverlayLink {
            params,
            mcs,
            modulator: WifiNModulator::new(WifiNConfig { mcs }),
            demodulator: WifiNDemodulator::new(),
        }
    }

    /// Uses a different reference-symbol constellation (Fig. 17b sweeps
    /// OFDM-BPSK/QPSK/16-QAM).
    pub fn with_mcs(mut self, mcs: Mcs) -> Self {
        self.mcs = mcs;
        self.modulator = WifiNModulator::new(WifiNConfig { mcs });
        self
    }

    /// The overlay parameters.
    pub fn params(&self) -> OverlayParams {
        self.params
    }

    /// The reference-symbol MCS in use.
    pub fn mcs(&self) -> Mcs {
        self.mcs
    }

    /// The alternating base pattern of one reference symbol.
    fn base_pattern(&self) -> Vec<u8> {
        (0..self.mcs.n_cbps()).map(|i| (i % 2) as u8).collect()
    }

    /// Generates the overlay carrier: one reference symbol per productive
    /// bit (pattern or complement), each repeated κ times.
    pub fn make_carrier(&self, productive: &[u8]) -> IqBuf {
        let base = self.base_pattern();
        let mut ref_bits = Vec::with_capacity(productive.len() * base.len());
        for &b in productive {
            ref_bits.extend(base.iter().map(|&x| x ^ (b & 1)));
        }
        self.modulator.modulate_overlay_carrier(&ref_bits, self.params.kappa)
    }

    /// Tag bits one carrier of `n_productive` bits can carry.
    pub fn tag_capacity(&self, n_productive: usize) -> usize {
        n_productive * self.params.tag_bits_per_sequence()
    }

    /// Middle-half index range of a symbol's coded bits.
    fn middle_half(&self) -> std::ops::Range<usize> {
        let n = self.mcs.n_cbps();
        n / 4..n * 3 / 4
    }

    /// Expected fraction of demapped bits a π flip inverts: 1.0 for
    /// BPSK/QPSK (negation flips every decision), but only 0.5 for
    /// Gray-coded 16-QAM (negating an axis maps −3↔+3 and −1↔+1, which
    /// flips just the first of the two axis bits).
    fn expected_flip_frac(&self) -> f64 {
        match self.mcs.constellation() {
            msc_phy::symbols::Constellation::Bpsk | msc_phy::symbols::Constellation::Qpsk => 1.0,
            msc_phy::symbols::Constellation::Qam16 => 0.5,
        }
    }

    /// Decodes both data streams.
    pub fn decode(&self, rx: &IqBuf) -> Result<OverlayDecoded, DecodeError> {
        let _span = msc_obs::span!("rx.decode", protocol = "802.11n");
        let result = self.decode_inner(rx);
        crate::obs_decode_result("802.11n", &result);
        result
    }

    fn decode_inner(&self, rx: &IqBuf) -> Result<OverlayDecoded, DecodeError> {
        // The overlay reads raw demapped symbols only: the payload
        // bypasses the scrambler and BCC, so it is never Viterbi-decoded.
        let frame = self.demodulator.receive(rx)?;
        let syms = &frame.raw_symbol_bits;
        let kappa = self.params.kappa;
        let gamma = self.params.gamma;
        let n_seq = syms.len() / kappa;
        let base = self.base_pattern();
        let mid = self.middle_half();
        let per_seq = self.params.tag_bits_per_sequence();

        let mut productive = Vec::with_capacity(n_seq);
        let mut tag = Vec::with_capacity(n_seq * per_seq);
        for seq in 0..n_seq {
            // Reference estimate: bitwise majority across the γ
            // reference symbols.
            let n_bits = base.len();
            let mut ref_est = vec![0u8; n_bits];
            for (i, r) in ref_est.iter_mut().enumerate() {
                let ones: usize = (0..gamma)
                    .map(|g| syms[seq * kappa + g].get(i).copied().unwrap_or(0) as usize)
                    .sum();
                *r = u8::from(ones * 2 >= gamma);
            }
            // Productive bit: does the reference match base or ~base?
            let flips = mid.clone().filter(|&i| ref_est[i] != base[i]).count();
            productive.push(u8::from(flips * 2 > mid.len()));

            // Tag bits: fraction of middle-half bits flipped vs the
            // reference, per block.
            for blk in 0..per_seq {
                let mut flipped = 0usize;
                let mut total = 0usize;
                for g in 0..gamma {
                    let sym = &syms[seq * kappa + gamma * (1 + blk) + g];
                    for i in mid.clone() {
                        if sym.get(i).copied().unwrap_or(0) != ref_est[i] {
                            flipped += 1;
                        }
                        total += 1;
                    }
                }
                // Decide against half the expected flip fraction.
                let thresh = self.expected_flip_frac() / 2.0;
                tag.push(u8::from(flipped as f64 > thresh * total as f64));
            }
        }
        Ok(OverlayDecoded { productive, tag, header_ok: frame.htsig_ok })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::overlay::{params_for, Mode, TagOverlayModulator};
    use msc_core::tag::payload_start_seconds;
    use msc_phy::bits::random_bits;
    use msc_phy::protocol::Protocol;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_link(
        seed: u64,
        n_prod: usize,
        mode: Mode,
        mcs: Mcs,
    ) -> (Vec<u8>, Vec<u8>, OverlayDecoded) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = params_for(Protocol::WifiN, mode);
        let link = WifiNOverlayLink::new(params).with_mcs(mcs);
        let productive = random_bits(&mut rng, n_prod);
        let tag_bits = random_bits(&mut rng, link.tag_capacity(n_prod));
        let carrier = link.make_carrier(&productive);
        let tag = TagOverlayModulator::new(Protocol::WifiN, params);
        let start =
            (payload_start_seconds(Protocol::WifiN) * carrier.rate().as_hz()).round() as usize;
        let modulated = tag.modulate(&carrier, start, &tag_bits);
        let decoded = link.decode(&modulated).expect("decode");
        (productive, tag_bits, decoded)
    }

    #[test]
    fn clean_mode1_round_trip_bpsk() {
        let (productive, tag_bits, d) = run_link(151, 12, Mode::Mode1, Mcs::Mcs0);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
    }

    #[test]
    fn clean_mode2_round_trip_qpsk() {
        let (productive, tag_bits, d) = run_link(152, 8, Mode::Mode2, Mcs::Mcs1);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
        assert_eq!(d.tag.len(), 24);
    }

    #[test]
    fn clean_round_trip_16qam() {
        let (productive, tag_bits, d) = run_link(153, 8, Mode::Mode1, Mcs::Mcs3);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
    }

    #[test]
    fn unmodulated_carrier_reads_zero_tags() {
        let params = params_for(Protocol::WifiN, Mode::Mode1);
        let link = WifiNOverlayLink::new(params);
        let productive = vec![0, 1, 1, 0, 1, 0];
        let carrier = link.make_carrier(&productive);
        let d = link.decode(&carrier).expect("decode");
        assert_eq!(d.productive, productive);
        assert!(d.tag.iter().all(|&b| b == 0));
    }
}
