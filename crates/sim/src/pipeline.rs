//! The end-to-end packet pipeline: overlay carrier → downlink → tag →
//! uplink → single commodity receiver, with the link budget turning
//! geometry into SNR.

use msc_channel::awgn::add_noise;
use msc_channel::{Fading, LinkBudget};
use msc_core::overlay::{params_for, Mode, OverlayParams};
use msc_core::TagOverlayModulator;
use msc_dsp::units::db_to_lin;
use msc_dsp::IqBuf;
use msc_obs::metrics::{self, buckets};
use msc_phy::protocol::Protocol;
use msc_rx::{
    BleOverlayLink, OverlayDecoded, WifiBOverlayLink, WifiNOverlayLink, ZigBeeOverlayLink,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Excitation transmit power, dBm. All excitations run at 30 dBm EIRP:
/// the paper amplifies its carriers (§2.2.1 states 30 dBm explicitly for
/// WiFi), and the tag's 0.8 m downlink *requires* roughly this level —
/// at a commodity radio's +4 dBm the rectifier would see ~−29 dBm,
/// far below the −13 dBm tag sensitivity, and identification could
/// never work.
pub fn tx_power_dbm(_p: Protocol) -> f64 {
    30.0
}

/// Per-protocol receiver implementation margin, dB — the gap between our
/// idealized software demodulators and the commodity ICs of the paper's
/// testbed (CFO/drift over long narrowband packets, AGC and quantization
/// losses, tag switching harmonics in-channel). Calibrated so the LoS
/// maximal ranges land at the paper's Fig. 13a values (28 m WiFi,
/// 22 m ZigBee, 20 m BLE); EXPERIMENTS.md documents the calibration.
pub fn rx_impl_margin_db(p: Protocol) -> f64 {
    let base = match p {
        Protocol::WifiN => 1.0,
        Protocol::WifiB => 8.0,
        Protocol::ZigBee => 15.5,
        Protocol::Ble => 14.0,
    };
    base + perturb_margin_db()
}

/// Test hook: `MSC_PERTURB_MARGIN_DB=<dB>` adds a uniform offset to
/// every protocol's implementation margin, shifting effective SNR and
/// thus PER/BER operating points. Exists so `paper diff` CI smoke tests
/// can inject a real (non-seed) regression; the knob value feeds the
/// archive's config hash, so perturbed runs never collide with clean
/// ones. Read once per process.
pub fn perturb_margin_db() -> f64 {
    static PERTURB: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *PERTURB.get_or_init(|| crate::engine::PERTURB_MARGIN_DB.get())
}

/// A geometric deployment for one measurement.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    /// Excitation source → tag distance (paper: 0.8 m).
    pub d_tx_tag: f64,
    /// Tag → receiver distance (the swept axis of Figs. 13/14).
    pub d_tag_rx: f64,
    /// Link-budget parameters (deployment, occlusion, gains).
    pub budget: LinkBudget,
    /// Small-scale fading on the uplink.
    pub fading: Fading,
}

impl Geometry {
    /// The paper's LoS deployment at a given receiver distance.
    pub fn los(d_tag_rx: f64) -> Self {
        Geometry { d_tx_tag: 0.8, d_tag_rx, budget: LinkBudget::paper_los(), fading: Fading::los() }
    }

    /// The paper's NLoS deployment.
    pub fn nlos(d_tag_rx: f64) -> Self {
        Geometry {
            d_tx_tag: 0.8,
            d_tag_rx,
            budget: LinkBudget::paper_nlos(),
            fading: Fading::nlos(),
        }
    }

    /// Effective uplink SNR for a protocol (its TX power, bandwidth, and
    /// receiver implementation margin).
    pub fn uplink_snr_db(&self, p: Protocol) -> f64 {
        let mut b = self.budget;
        b.tx_power_dbm = tx_power_dbm(p);
        b.backscatter_snr_db(self.d_tx_tag, self.d_tag_rx, p.bandwidth_hz()) - rx_impl_margin_db(p)
    }

    /// Backscattered RSSI at the receiver, dBm.
    pub fn rssi_dbm(&self, p: Protocol) -> f64 {
        let mut b = self.budget;
        b.tx_power_dbm = tx_power_dbm(p);
        b.backscattered_rx_dbm(self.d_tx_tag, self.d_tag_rx)
    }

    /// Incident power at the tag, dBm (identification operating point).
    pub fn incident_dbm(&self, p: Protocol) -> f64 {
        let mut b = self.budget;
        b.tx_power_dbm = tx_power_dbm(p);
        b.incident_at_tag_dbm(self.d_tx_tag)
    }
}

/// Channel impairments applied on the uplink.
#[derive(Clone, Copy, Debug)]
pub struct Impairments {
    /// Target SNR in dB.
    pub snr_db: f64,
    /// Small-scale fading.
    pub fading: Fading,
    /// Carrier frequency offset between the excitation source and the
    /// receiver, Hz (crystal mismatch; ±20 ppm at 2.44 GHz ≈ ±48.8 kHz).
    pub cfo_hz: f64,
}

impl Impairments {
    /// Noise + fading only.
    pub fn snr(snr_db: f64, fading: Fading) -> Self {
        Impairments { snr_db, fading, cfo_hz: 0.0 }
    }

    /// Adds a carrier frequency offset.
    pub fn with_cfo(mut self, cfo_hz: f64) -> Self {
        self.cfo_hz = cfo_hz;
        self
    }
}

/// Applies the uplink channel to one waveform: unit-power
/// normalization, fading gain, then AWGN at the target SNR. The
/// single-trial form of [`TrialBatch::apply_channel`], for runners that
/// need a channel outside the cell engine (second receivers, two tags).
pub fn apply_uplink<R: Rng>(rng: &mut R, wave: &IqBuf, snr_db: f64, fading: Fading) -> IqBuf {
    let mut out = wave.clone();
    let p = out.mean_power();
    if p > 0.0 {
        out.scale(1.0 / p.sqrt());
    }
    fading.apply_flat(rng, out.samples_mut());
    // Signal mean power |h|^2; noise set against the *average* signal
    // power so fading dips genuinely hurt.
    add_noise(rng, &mut out, 1.0 / db_to_lin(snr_db));
    out
}

/// One protocol's overlay link endpoints, type-erased for the runner.
pub enum AnyLink {
    /// 802.11b link.
    WifiB(WifiBOverlayLink),
    /// 802.11n link.
    WifiN(WifiNOverlayLink),
    /// BLE link.
    Ble(BleOverlayLink),
    /// ZigBee link. Boxed: the prebuilt modem's pulse/chip tables make
    /// this variant an order of magnitude larger than the others.
    ZigBee(Box<ZigBeeOverlayLink>),
}

impl AnyLink {
    /// Builds the link for a protocol/mode (Table 6 parameters).
    pub fn new(p: Protocol, mode: Mode) -> Self {
        Self::from_params(p, params_for(p, mode))
    }

    /// Builds the link for a protocol with explicit overlay parameters
    /// (e.g. the γ sweep of `abl-gamma`).
    pub fn from_params(p: Protocol, params: OverlayParams) -> Self {
        match p {
            Protocol::WifiB => AnyLink::WifiB(WifiBOverlayLink::new(params)),
            Protocol::WifiN => AnyLink::WifiN(WifiNOverlayLink::new(params)),
            Protocol::Ble => AnyLink::Ble(BleOverlayLink::new(params)),
            Protocol::ZigBee => AnyLink::ZigBee(Box::new(ZigBeeOverlayLink::new(params))),
        }
    }

    /// The protocol this link runs.
    pub fn protocol(&self) -> Protocol {
        match self {
            AnyLink::WifiB(_) => Protocol::WifiB,
            AnyLink::WifiN(_) => Protocol::WifiN,
            AnyLink::Ble(_) => Protocol::Ble,
            AnyLink::ZigBee(_) => Protocol::ZigBee,
        }
    }

    /// Draws `n_productive` random productive units (bits; 4-bit
    /// symbols for ZigBee) from `rng`.
    pub fn draw_productive<R: Rng>(&self, rng: &mut R, n_productive: usize) -> Vec<u8> {
        match self {
            AnyLink::ZigBee(_) => (0..n_productive).map(|_| rng.gen_range(0..16)).collect(),
            _ => (0..n_productive).map(|_| rng.gen_range(0..=1)).collect(),
        }
    }

    /// Synthesizes the clean overlay carrier for a given payload — a
    /// pure function of `(self, productive)`, which is what makes the
    /// waveform cache sound.
    pub fn carrier_for(&self, productive: &[u8]) -> IqBuf {
        match self {
            AnyLink::WifiB(l) => l.make_carrier(productive),
            AnyLink::WifiN(l) => l.make_carrier(productive),
            AnyLink::Ble(l) => l.make_carrier(productive),
            AnyLink::ZigBee(l) => l.make_carrier(productive),
        }
    }

    /// A salt distinguishing link variants that share a protocol but
    /// synthesize different carriers (MCS, DSSS/CCK rate) — part of the
    /// waveform-cache key.
    pub fn variant_salt(&self) -> u64 {
        match self {
            AnyLink::WifiB(l) => 1 + l.rate() as u64,
            AnyLink::WifiN(l) => 1 + l.mcs() as u64,
            AnyLink::Ble(_) | AnyLink::ZigBee(_) => 0,
        }
    }

    /// Generates an overlay carrier for `n_productive` random
    /// productive units (bits; 4-bit symbols for ZigBee).
    pub fn make_carrier<R: Rng>(&self, rng: &mut R, n_productive: usize) -> (Vec<u8>, IqBuf) {
        let p = self.draw_productive(rng, n_productive);
        let c = self.carrier_for(&p);
        (p, c)
    }

    /// Tag capacity for `n_productive` units.
    pub fn tag_capacity(&self, n_productive: usize) -> usize {
        match self {
            AnyLink::WifiB(l) => l.tag_capacity(n_productive),
            AnyLink::WifiN(l) => l.tag_capacity(n_productive),
            AnyLink::Ble(l) => l.tag_capacity(n_productive),
            AnyLink::ZigBee(l) => l.tag_capacity(n_productive),
        }
    }

    /// Decodes a received waveform.
    ///
    /// Kept out of line: inlined into [`TrialBatch::decode_into`], its
    /// only engine caller, it slowed 802.11n decode by about a third
    /// (perfbench `link`, `rx.decode_s.11n`).
    #[inline(never)]
    pub fn decode(
        &self,
        rx: &IqBuf,
        n_productive: usize,
    ) -> Result<OverlayDecoded, msc_phy::protocol::DecodeError> {
        match self {
            AnyLink::WifiB(l) => l.decode(rx),
            AnyLink::WifiN(l) => l.decode(rx),
            AnyLink::Ble(l) => l.decode(rx, n_productive),
            AnyLink::ZigBee(l) => l.decode(rx),
        }
    }

    /// The overlay parameters.
    pub fn params(&self) -> OverlayParams {
        match self {
            AnyLink::WifiB(l) => l.params(),
            AnyLink::WifiN(l) => l.params(),
            AnyLink::Ble(l) => l.params(),
            AnyLink::ZigBee(l) => l.params(),
        }
    }

    /// The tag-side modulator for this link's carrier: its overlay
    /// parameters, and 8/11 µs base symbols when an 802.11b link runs a
    /// CCK rate (the tag learns the rate from the PLCP header).
    pub fn modulator(&self) -> TagOverlayModulator {
        use msc_phy::wifi_b::DsssRate;
        let m = TagOverlayModulator::new(self.protocol(), self.params());
        match self {
            AnyLink::WifiB(l) if matches!(l.rate(), DsssRate::R5M5 | DsssRate::R11M) => {
                m.with_symbol_duration(8.0 / 11e6)
            }
            _ => m,
        }
    }
}

/// Outcome of one end-to-end packet.
#[derive(Clone, Debug)]
pub struct PacketOutcome {
    /// Whether the receiver decoded the frame at all.
    pub decoded: bool,
    /// Tag-bit errors / tag bits.
    pub tag_errors: usize,
    /// Tag bits carried.
    pub tag_bits: usize,
    /// Productive-unit errors (bit or symbol, protocol-dependent).
    pub productive_errors: usize,
    /// Productive units carried.
    pub productive_units: usize,
}

impl PacketOutcome {
    /// Tag BER of this packet (1.0 when undecoded).
    pub fn tag_ber(&self) -> f64 {
        if !self.decoded {
            return 1.0;
        }
        if self.tag_bits == 0 {
            0.0
        } else {
            self.tag_errors as f64 / self.tag_bits as f64
        }
    }
}

/// Pooled tag-bit errors and tag bits over a cell's outcomes; an
/// undecoded packet counts every bit it carried as errored.
pub fn tag_error_counts(outs: &[PacketOutcome]) -> (u64, u64) {
    outs.iter().fold((0, 0), |(e, b), o| (e + o.tag_errors as u64, b + o.tag_bits as u64))
}

/// Scores one decode result against the transmitted streams. A failed
/// decode counts every carried bit/unit as errored.
fn score_decode(
    label: &'static str,
    result: Result<OverlayDecoded, msc_phy::protocol::DecodeError>,
    tag_bits: &[u8],
    productive: &[u8],
) -> PacketOutcome {
    match result {
        Ok(d) => {
            let tag_errors =
                tag_bits.iter().zip(d.tag.iter()).filter(|(a, b)| (*a ^ *b) & 1 == 1).count()
                    + tag_bits.len().saturating_sub(d.tag.len());
            let productive_errors =
                productive.iter().zip(d.productive.iter()).filter(|(a, b)| a != b).count()
                    + productive.len().saturating_sub(d.productive.len());
            PacketOutcome {
                decoded: true,
                tag_errors,
                tag_bits: tag_bits.len(),
                productive_errors,
                productive_units: productive.len(),
            }
        }
        Err(_) => {
            metrics::counter_add("pipe.decode_fail", label, "", 1);
            PacketOutcome {
                decoded: false,
                tag_errors: tag_bits.len(),
                tag_bits: tag_bits.len(),
                productive_errors: productive.len(),
                productive_units: productive.len(),
            }
        }
    }
}

/// Closes the open flight-recorder trial with a packet's scores and
/// verdict.
fn record_outcome(outcome: &PacketOutcome) {
    use msc_obs::flight::{end_trial, note_score};
    note_score("tag_errors", outcome.tag_errors as f64);
    note_score("tag_bits", outcome.tag_bits as f64);
    note_score("productive_errors", outcome.productive_errors as f64);
    note_score("productive_units", outcome.productive_units as f64);
    note_score("tag_ber", outcome.tag_ber());
    end_trial(if outcome.decoded { "ok" } else { "decode_fail" });
}

thread_local! {
    /// Per-thread [`TrialBatch`] pool for the cell engine: lane
    /// buffers, RNG vectors, and the flat tag-bit store are reused
    /// batch to batch, so the steady-state materialize + channel loop
    /// performs zero allocations (asserted by `alloc_guard`).
    static BATCH_POOL: std::cell::RefCell<TrialBatch> = std::cell::RefCell::new(TrialBatch::new());
}

/// Sync-window radius (samples) handed to demodulators via
/// [`msc_phy::fastsync`] by the cell engine: its trial
/// buffers carry the frame at offset zero with at most a couple of
/// samples of matched-filter ambiguity under noise.
const FAST_SYNC_RADIUS: usize = 8;

/// A structure-of-arrays batch of Monte-Carlo trials from one cell:
/// `count` IQ lanes modulated from the shared cached excitation, each
/// with its own tag-bit draw and RNG streams.
///
/// Per-trial randomness is preserved exactly: lane `l` of a batch
/// starting at trial `start` seeds its RNG with
/// `derive_seed(seed, cell, start + l)`, so outcomes are a function of
/// `(seed, cell, index)` at any batch width and thread count — a
/// length-1 batch at `index` reproduces that lane exactly, which is
/// how `paper replay` rebuilds one trial.
///
/// The channel stream is either the continuation of the lane's tag-bit
/// stream (tag bits → fading → noise) or, when a common-random-number
/// group is supplied, a stream derived from the group label instead of
/// the cell label — sweep-axis neighbors (e.g. the distance grid of
/// Fig. 13) then share channel realizations per trial index, which
/// cancels channel luck out of adjacent-cell comparisons while tag
/// payloads stay cell-specific.
pub struct TrialBatch {
    lanes: Vec<IqBuf>,
    rngs: Vec<StdRng>,
    ch_rngs: Vec<StdRng>,
    tag_bits: Vec<u8>,
    cap: usize,
    count: usize,
    /// Whether the last [`TrialBatch::apply_channel`] shifted the lanes
    /// by a carrier frequency offset (such lanes decode without the
    /// sync-window hint).
    offset: bool,
    /// Identity of lane 0 — `(seed, cell hash, trial index)` — for the
    /// flight recorder's per-lane records.
    seed: u64,
    cellh: u64,
    start: u64,
}

impl Default for TrialBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl TrialBatch {
    /// An empty batch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        TrialBatch {
            lanes: Vec::new(),
            rngs: Vec::new(),
            ch_rngs: Vec::new(),
            tag_bits: Vec::new(),
            cap: 0,
            count: 0,
            offset: false,
            seed: 0,
            cellh: 0,
            start: 0,
        }
    }

    /// Number of trials currently materialized.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Fills `count` lanes with trials `start..start + count`: per-lane
    /// RNG init, tag-bit draws, and overlay modulation of the shared
    /// excitation into the pooled lane buffers. Allocation-free once
    /// the pool has warmed up to this batch width and waveform length.
    #[allow(clippy::too_many_arguments)]
    pub fn materialize(
        &mut self,
        modulator: &TagOverlayModulator,
        exc: &crate::wavecache::CellExcitation,
        seed: u64,
        cellh: u64,
        crn_hash: Option<u64>,
        start: u64,
        count: usize,
    ) {
        self.cap = exc.tag_capacity;
        self.count = count;
        self.offset = false;
        (self.seed, self.cellh, self.start) = (seed, cellh, start);
        self.tag_bits.clear();
        self.rngs.clear();
        self.ch_rngs.clear();
        while self.lanes.len() < count {
            self.lanes.push(IqBuf::empty(exc.carrier.rate()));
        }
        for l in 0..count {
            let i = start + l as u64;
            let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, cellh, i));
            for _ in 0..self.cap {
                let bit: u8 = rng.gen_range(0..=1);
                self.tag_bits.push(bit);
            }
            let ch = match crn_hash {
                Some(h) => StdRng::seed_from_u64(msc_par::derive_seed(seed, h, i)),
                None => rng.clone(),
            };
            self.rngs.push(rng);
            self.ch_rngs.push(ch);
            let bits = &self.tag_bits[l * self.cap..(l + 1) * self.cap];
            modulator.modulate_into(&exc.carrier, exc.payload_start, bits, &mut self.lanes[l]);
        }
    }

    /// Pushes every lane through the uplink channel in one pass per
    /// stage — batched normalize, CFO shift, flat fading, AWGN — using
    /// the [`msc_channel::batch`] kernels (AVX2 where available).
    /// Allocation-free.
    pub fn apply_channel(&mut self, imp: Impairments) {
        let lanes = &mut self.lanes[..self.count];
        msc_channel::batch::normalize_batch(lanes);
        self.offset = imp.cfo_hz != 0.0;
        if self.offset {
            msc_channel::batch::freq_shift_batch(lanes, imp.cfo_hz);
        }
        msc_channel::batch::fading_batch(imp.fading, &mut self.ch_rngs, lanes);
        msc_channel::batch::add_noise_batch(&mut self.ch_rngs, lanes, 1.0 / db_to_lin(imp.snr_db));
    }

    /// Decodes and scores every lane, appending outcomes to `out` in
    /// trial order. Offset-free lanes decode under the engine's
    /// sync-window hint; lanes the channel shifted by a carrier offset
    /// decode without it, because the hint also promises an offset-free
    /// carrier (ZigBee skips its CFO estimate under it). With the
    /// flight recorder armed, each lane is also recorded as one trial:
    /// derived seed, decode stage time, scores, and verdict. Recording
    /// only observes — the lanes decode identically either way.
    pub fn decode_into(
        &self,
        link: &AnyLink,
        exc: &crate::wavecache::CellExcitation,
        snr_db: f64,
        out: &mut Vec<PacketOutcome>,
    ) {
        let label = link.protocol().label();
        let recording = msc_obs::flight::armed();
        let experiment = if recording { metrics::current_experiment() } else { String::new() };
        for l in 0..self.count {
            if recording {
                let i = self.start + l as u64;
                let derived = msc_par::derive_seed(self.seed, self.cellh, i);
                msc_obs::flight::begin_trial(&experiment, &exc.cell, i, self.seed, derived, label);
            }
            metrics::hist_observe("pipe.snr_db", label, "uplink", snr_db, buckets::SNR_DB);
            metrics::counter_add("pipe.packets", label, "", 1);
            let decode = || link.decode(&self.lanes[l], exc.productive.len());
            let result = metrics::time_stage(label, "decode", || {
                if self.offset {
                    decode()
                } else {
                    msc_phy::fastsync::with_window(FAST_SYNC_RADIUS, decode)
                }
            });
            let bits = &self.tag_bits[l * self.cap..(l + 1) * self.cap];
            let outcome = score_decode(label, result, bits, &exc.productive);
            if recording {
                record_outcome(&outcome);
            }
            metrics::hist_observe("pipe.tag_ber", label, "", outcome.tag_ber(), buckets::BER);
            msc_obs::event!(
                "pipe.packet",
                protocol = label,
                snr_db = format_args!("{snr_db:.1}"),
                decoded = outcome.decoded,
                tag_ber = format_args!("{:.3}", outcome.tag_ber())
            );
            out.push(outcome);
        }
    }
}

/// Adaptive early-stopping policy for a cell of [`run_cells`].
#[derive(Clone, Copy)]
pub struct StopPolicy<'a> {
    /// Minimum trials before the first stop check (the experiment's
    /// `min_n` from the registry).
    pub floor: usize,
    /// Common-random-number group label: cells passing the same group
    /// share per-index channel RNG streams. Typically the cell label
    /// minus the sweep axis.
    pub crn_group: Option<&'a str>,
    /// Returns `true` when the outcomes so far decide the cell's
    /// verdict beyond doubt (both directions must be covered — e.g.
    /// "confidently in range or confidently out").
    pub decide: &'a (dyn Fn(&[PacketOutcome]) -> bool + Sync),
}

/// Trial-count checkpoints for the early-stopping wave schedule: start
/// at `floor`, grow ×1.5, finish at `n`. Thread-count independent by
/// construction, so stopped cells report identically at any
/// parallelism (`n = 12, floor = 6` → `6, 9, 12`).
fn checkpoints(n: usize, floor: usize) -> Vec<usize> {
    let mut plan = Vec::new();
    let mut c = floor.clamp(1, n.max(1));
    loop {
        plan.push(c);
        if c >= n {
            break;
        }
        c = (((c as f64) * 1.5).round() as usize).max(c + 1).min(n);
    }
    plan
}

/// One overlay-link Monte-Carlo cell for [`run_cells`]: up to `n`
/// packets of `n_productive` productive units over `link` under `imp`.
pub struct CellJob<'a> {
    /// The link: protocol, overlay parameters and tag modulator.
    pub link: &'a AnyLink,
    /// Uplink channel impairments.
    pub imp: Impairments,
    /// Productive units per packet (bits; 4-bit symbols for ZigBee).
    pub n_productive: usize,
    /// Requested trials.
    pub n: usize,
    /// Cell label (e.g. `"los/ZigBee/8"`); keys every seed of the cell,
    /// so seeds stay disjoint across cells that share a numeric seed.
    pub cell: String,
    /// Early stopping, if the cell may halt once its verdict settles.
    pub policy: Option<StopPolicy<'a>>,
}

impl<'a> CellJob<'a> {
    /// A cell under explicit impairments, without early stopping.
    pub fn new(
        link: &'a AnyLink,
        imp: Impairments,
        n_productive: usize,
        n: usize,
        cell: String,
    ) -> Self {
        CellJob { link, imp, n_productive, n, cell, policy: None }
    }

    /// A cell at a geometry: the uplink SNR and fading come from the
    /// link budget, with no carrier offset.
    pub fn at(
        link: &'a AnyLink,
        geometry: &Geometry,
        n_productive: usize,
        n: usize,
        cell: String,
    ) -> Self {
        let imp = Impairments::snr(geometry.uplink_snr_db(link.protocol()), geometry.fading);
        Self::new(link, imp, n_productive, n, cell)
    }

    /// Adds an early-stopping policy.
    pub fn with_policy(mut self, policy: StopPolicy<'a>) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// [`run_cell`] at a geometry, with no early stopping. `_mode` is
/// unused (the link carries its overlay parameters); the signature is
/// kept for existing callers.
pub fn run_packets(
    link: &AnyLink,
    geometry: &Geometry,
    _mode: Mode,
    n_productive: usize,
    n: usize,
    seed: u64,
    cell: &str,
) -> Vec<PacketOutcome> {
    let job = CellJob::at(link, geometry, n_productive, n, cell.to_string());
    run_cells(seed, &[job]).pop().unwrap_or_default()
}

/// One cell: [`run_cells`] with a single job. Cell events are emitted
/// on the calling thread once the cell is done, as for any sweep.
pub fn run_cell(
    link: &AnyLink,
    imp: Impairments,
    n_productive: usize,
    n: usize,
    seed: u64,
    cell: &str,
    policy: Option<&StopPolicy>,
) -> Vec<PacketOutcome> {
    let job = CellJob {
        policy: policy.copied(),
        ..CellJob::new(link, imp, n_productive, n, cell.to_string())
    };
    run_cells(seed, &[job]).pop().unwrap_or_default()
}

/// A cell's engine state across the rounds of [`run_cells`].
struct CellRun<'j, 'a> {
    job: &'j CellJob<'a>,
    exc: crate::wavecache::CellExcitation,
    cellh: u64,
    crn_hash: Option<u64>,
    modulator: TagOverlayModulator,
    /// Checkpoints still ahead; the cell is done when this is empty.
    plan: std::collections::VecDeque<usize>,
    outs: Vec<PacketOutcome>,
    /// Whether the policy halted the cell before `n`.
    stopped: bool,
}

impl<'j, 'a> CellRun<'j, 'a> {
    /// Prepares the cell's shared excitation and seed keys.
    fn prepare(job: &'j CellJob<'a>, seed: u64, plan: Vec<usize>) -> Self {
        let _prep = msc_obs::profile::scope("cell.prepare");
        // The mode argument is unused: the link carries its parameters.
        let exc = crate::wavecache::CellExcitation::prepare(
            job.link,
            Mode::Mode1,
            job.n_productive,
            seed,
            &job.cell,
        );
        CellRun {
            job,
            exc,
            cellh: msc_par::hash_label(&job.cell),
            // Cells of one CRN group draw their channel streams from
            // the group label, with or without early stopping, so
            // stopping changes trial counts only.
            crn_hash: job.policy.and_then(|p| p.crn_group).map(msc_par::hash_label),
            modulator: job.link.modulator(),
            plan: plan.into(),
            outs: Vec::with_capacity(job.n),
            stopped: false,
        }
    }

    /// Trials `start..start + count` as one [`TrialBatch`] on this
    /// thread's pooled batch.
    fn trials(&self, seed: u64, start: u64, count: usize) -> Vec<PacketOutcome> {
        let (link, imp) = (self.job.link, self.job.imp);
        let label = link.protocol().label();
        BATCH_POOL.with(|tb| {
            let mut tb = tb.borrow_mut();
            metrics::time_stage(label, "modulate", || {
                tb.materialize(
                    &self.modulator,
                    &self.exc,
                    seed,
                    self.cellh,
                    self.crn_hash,
                    start,
                    count,
                )
            });
            metrics::time_stage(label, "channel", || tb.apply_channel(imp));
            let mut out = Vec::with_capacity(count);
            tb.decode_into(link, &self.exc, imp.snr_db, &mut out);
            out
        })
    }

    /// Emits the cell's boundary events: `cell_start`, `early_stop`
    /// when the policy halted it, and `cell_done`.
    fn emit_events(&self) {
        let (cell, n) = (msc_obs::export::json_escape(&self.job.cell), self.job.n);
        let proto = self.job.link.protocol().label();
        msc_obs::events::emit(
            "cell_start",
            &format!("\"cell\":\"{cell}\",\"proto\":\"{proto}\",\"requested\":{n}"),
            "",
        );
        let trials = self.outs.len();
        if self.stopped {
            msc_obs::events::emit(
                "early_stop",
                &format!("\"cell\":\"{cell}\",\"trials\":{trials},\"requested\":{n}"),
                "",
            );
        }
        msc_obs::events::emit(
            "cell_done",
            &format!("\"cell\":\"{cell}\",\"trials\":{trials},\"requested\":{n}"),
            "",
        );
    }
}

/// Runs a sweep of independent overlay-link cells on the `msc-par`
/// pool, in [`TrialBatch`] chunks of [`crate::engine::batch`] trials,
/// and returns each job's outcomes in job order — the one engine every
/// overlay-link cell runs on.
///
/// Each cell's clean excitation is prepared exactly once, on the
/// calling thread ([`crate::wavecache::CellExcitation`]): the
/// productive payload comes from the cell's own RNG
/// stream `(seed, cell, u64::MAX)` and the carrier is shared read-only
/// across trials and threads. Each packet then draws its tag bits and
/// channel realization from its own RNG seeded by `(seed, cell,
/// index)`, so the outcomes — and therefore every downstream table —
/// are bit-identical at any thread count and batch width, with the
/// waveform cache on or off, with the flight recorder armed or not, and
/// whichever other cells share the sweep.
///
/// The sweep runs in rounds. Each round advances every unfinished cell
/// to its next checkpoint and puts all of the round's `(cell, batch)`
/// items into one `par_map` call, so a round of many small cells fills
/// the pool. A cell without a policy (or with early stopping off, see
/// [`crate::engine::early_stop`]) has one checkpoint, `n`; with a
/// policy it follows the [`checkpoints`] schedule from `policy.floor`
/// and halts once `policy.decide` reports the verdict settled. That
/// decision is each cell's own, at the same checkpoints on the same
/// trials as a cell run alone, so stopping changes only how many trials
/// a cell consumes, not what any trial computes.
///
/// Cell events (`cell_start`, `early_stop`, `cell_done`) and the
/// progress counts are emitted here, on the calling thread after the
/// fan-out, per cell in job order — so the event stream is
/// thread-count invariant.
///
/// A replay run (a flight-recorder target is set) narrows the trial
/// range, not the engine: only the target cell runs, rebuilding the one
/// trial under investigation as a length-1 batch at the bundle's index;
/// every other cell runs no trials and no events are emitted. Only the
/// target's flight record matters, and the report the runner builds
/// from these outcomes is discarded.
pub fn run_cells(seed: u64, jobs: &[CellJob]) -> Vec<Vec<PacketOutcome>> {
    if let Some((target, index)) = msc_obs::flight::replay_target() {
        let replay = |job| CellRun::prepare(job, seed, Vec::new()).trials(seed, index, 1);
        return jobs
            .iter()
            .map(|job| if job.cell == target { replay(job) } else { Vec::new() })
            .collect();
    }

    let stopping = crate::engine::early_stop();
    // Preparing on the caller keeps carrier synthesis on its warm
    // thread-local plans and the cached carriers in its heap: fanned
    // out, it was slower and raised the fleet workload's peak RSS from
    // about 61 to 70 MiB (2-core AMD EPYC VM).
    let mut runs: Vec<CellRun> = jobs
        .iter()
        .map(|job| {
            let plan = match job.policy.filter(|_| stopping) {
                Some(p) => checkpoints(job.n, p.floor),
                None => vec![job.n],
            };
            CellRun::prepare(job, seed, plan)
        })
        .collect();
    let batch = crate::engine::batch();
    while runs.iter().any(|run| !run.plan.is_empty()) {
        // This round's items: every unfinished cell's trials up to its
        // next checkpoint, in `batch`-wide chunks `(cell, start, len)`.
        let mut items: Vec<(usize, usize, usize)> = Vec::new();
        for (c, run) in runs.iter().enumerate() {
            if let Some(&target) = run.plan.front() {
                let mut lo = run.outs.len();
                while lo < target {
                    let len = batch.min(target - lo);
                    items.push((c, lo, len));
                    lo += len;
                }
            }
        }
        let chunks = msc_par::par_map(&items, |&(c, lo, len)| runs[c].trials(seed, lo as u64, len));
        for (&(c, _, _), chunk) in items.iter().zip(chunks) {
            runs[c].outs.extend(chunk);
        }
        for run in runs.iter_mut() {
            if run.plan.pop_front().is_none() {
                continue;
            }
            if let Some(p) = run.job.policy.filter(|_| stopping) {
                if run.outs.len() < run.job.n && (p.decide)(&run.outs) {
                    run.stopped = true;
                    run.plan.clear();
                }
            }
        }
    }

    runs.into_iter()
        .map(|run| {
            msc_obs::progress::add_cell();
            msc_obs::progress::add_trials(run.outs.len() as u64);
            if msc_obs::events::enabled() {
                run.emit_events();
            }
            run.outs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_excitations_amplified_to_30dbm() {
        for p in Protocol::ALL {
            assert_eq!(tx_power_dbm(p), 30.0);
        }
        // Narrowband protocols carry the larger implementation margins.
        assert!(rx_impl_margin_db(Protocol::ZigBee) > rx_impl_margin_db(Protocol::WifiN));
    }

    #[test]
    fn snr_decreases_with_distance() {
        let near = Geometry::los(2.0);
        let far = Geometry::los(20.0);
        for p in Protocol::ALL {
            assert!(near.uplink_snr_db(p) > far.uplink_snr_db(p));
        }
    }

    #[test]
    fn close_range_packets_decode_cleanly() {
        let geo = Geometry::los(2.0);
        for p in [Protocol::WifiB, Protocol::Ble] {
            let link = AnyLink::new(p, Mode::Mode1);
            for out in run_packets(&link, &geo, Mode::Mode1, 16, 4, 191, "test/close") {
                assert!(out.decoded, "{p} must decode at 2 m");
                assert_eq!(out.tag_errors, 0, "{p} tag errors at 2 m");
                assert_eq!(out.productive_errors, 0, "{p} productive errors at 2 m");
            }
        }
    }

    #[test]
    fn absurd_range_packets_fail() {
        let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
        let outs = run_packets(&link, &Geometry::los(500.0), Mode::Mode1, 8, 5, 192, "test/absurd");
        let failures = outs.iter().filter(|o| !o.decoded || o.tag_ber() > 0.2).count();
        assert!(failures >= 4, "500 m should be far beyond range");
    }

    #[test]
    fn offset_lanes_decode_without_the_sync_hint() {
        // The sync-window hint tells ZigBee to skip its CFO estimate, so
        // lanes carrying an offset must decode without it — and then
        // ±20 kHz (inside the estimator's ±31 kHz range) decodes as
        // cleanly as 0 Hz at 15 dB. Granting the hint to offset lanes
        // decoded none of these eight.
        let link = AnyLink::new(Protocol::ZigBee, Mode::Mode1);
        let exc = crate::wavecache::CellExcitation::prepare(&link, Mode::Mode1, 12, 42, "test/cfo");
        let cellh = msc_par::hash_label("test/cfo");
        let mut tb = TrialBatch::new();
        for cfo in [0.0, 20e3, -20e3] {
            tb.materialize(&link.modulator(), &exc, 42, cellh, None, 0, 8);
            tb.apply_channel(Impairments::snr(15.0, Fading::None).with_cfo(cfo));
            let mut outs = Vec::new();
            tb.decode_into(&link, &exc, 15.0, &mut outs);
            let clean = outs.iter().filter(|o| o.decoded && o.tag_errors == 0).count();
            assert_eq!(clean, 8, "ZigBee at {cfo} Hz: {clean}/8 lanes clean");
        }
    }

    #[test]
    fn cck_links_modulate_with_cck_symbols() {
        use msc_phy::wifi_b::DsssRate;
        let params = params_for(Protocol::WifiB, Mode::Mode1);
        let dsss = AnyLink::WifiB(WifiBOverlayLink::new(params).with_rate(DsssRate::R2M));
        let cck = AnyLink::WifiB(WifiBOverlayLink::new(params).with_rate(DsssRate::R5M5));
        let outs = |link: &AnyLink, cell| {
            run_packets(link, &Geometry::los(4.0), Mode::Mode1, 48, 4, 7, cell)
        };
        for (link, cell) in [(&dsss, "test/dsss"), (&cck, "test/cck")] {
            for out in outs(link, cell) {
                assert!(out.decoded && out.tag_errors == 0, "{cell}: {out:?}");
            }
        }
    }

    #[test]
    fn checkpoint_schedule_grows_and_is_thread_independent() {
        assert_eq!(checkpoints(12, 6), vec![6, 9, 12]);
        assert_eq!(checkpoints(60, 6), vec![6, 9, 14, 21, 32, 48, 60]);
        assert_eq!(checkpoints(6, 6), vec![6]);
        assert_eq!(checkpoints(4, 6), vec![4]); // floor clamps to n
        assert_eq!(checkpoints(2, 1), vec![1, 2]);
    }

    #[test]
    fn batched_outcomes_are_invariant_to_batch_width() {
        // Every width runs the same SoA engine with identical per-lane
        // streams; only the chunking differs. Width 1 is the length-1
        // batch `paper replay` rebuilds a single trial with.
        let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
        let geo = Geometry::los(12.0);
        let runs: Vec<Vec<PacketOutcome>> = [1usize, 2, 5, 8, 32]
            .iter()
            .map(|&b| {
                crate::engine::set_batch(b);
                run_packets(&link, &geo, Mode::Mode1, 16, 11, 7, "test/batch-width")
            })
            .collect();
        crate::engine::set_batch(crate::engine::DEFAULT_BATCH);
        for other in &runs[1..] {
            assert_eq!(runs[0].len(), other.len());
            for (a, b) in runs[0].iter().zip(other) {
                assert_eq!(a.decoded, b.decoded);
                assert_eq!(a.tag_errors, b.tag_errors);
                assert_eq!(a.tag_bits, b.tag_bits);
                assert_eq!(a.productive_errors, b.productive_errors);
            }
        }
    }

    #[test]
    fn apply_uplink_sets_snr() {
        let mut rng = StdRng::seed_from_u64(193);
        let wave =
            IqBuf::new(vec![msc_dsp::Complex64::ONE; 20_000], msc_dsp::SampleRate::mhz(20.0));
        let out = apply_uplink(&mut rng, &wave, 20.0, Fading::None);
        // Signal power ~1, noise ~0.01 → total ~1.01.
        assert!((out.mean_power() - 1.01).abs() < 0.01, "power {}", out.mean_power());
    }
}
