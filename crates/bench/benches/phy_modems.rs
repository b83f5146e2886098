//! PHY modem benchmarks: modulation and demodulation throughput for all
//! four protocols (the substrate cost of every experiment).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msc_phy::ble::{BleConfig, BleDemodulator, BleModulator};
use msc_phy::wifi_b::{WifiBConfig, WifiBDemodulator, WifiBModulator};
use msc_phy::wifi_n::{WifiNConfig, WifiNDemodulator, WifiNModulator};
use msc_phy::zigbee::{ZigBeeConfig, ZigBeeDemodulator, ZigBeeModulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn payload_bits(n: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..n).map(|_| rng.gen_range(0..=1)).collect()
}

fn payload_bytes(n: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(2);
    (0..n).map(|_| rng.gen()).collect()
}

fn bench_wifi_b(c: &mut Criterion) {
    let cfg = WifiBConfig::default();
    let bits = payload_bits(200);
    c.bench_function("wifi_b_modulate_200b", |b| {
        b.iter(|| WifiBModulator::new(cfg.clone()).modulate(black_box(&bits)))
    });
    let tx = WifiBModulator::new(cfg.clone()).modulate(&bits);
    c.bench_function("wifi_b_demodulate_200b", |b| {
        b.iter(|| WifiBDemodulator::new(cfg.clone()).demodulate(black_box(&tx)).unwrap())
    });
}

fn bench_wifi_n(c: &mut Criterion) {
    let cfg = WifiNConfig::default();
    let bits = payload_bits(400);
    c.bench_function("wifi_n_modulate_400b", |b| {
        b.iter(|| WifiNModulator::new(cfg.clone()).modulate(black_box(&bits)))
    });
    let tx = WifiNModulator::new(cfg.clone()).modulate(&bits);
    c.bench_function("wifi_n_demodulate_400b", |b| {
        b.iter(|| WifiNDemodulator::new().demodulate(black_box(&tx)).unwrap())
    });
    // The front half alone (sync through demap, no Viterbi): what the
    // overlay link runs per packet.
    c.bench_function("wifi_n_receive_400b", |b| {
        b.iter(|| WifiNDemodulator::new().receive(black_box(&tx)).unwrap())
    });
}

fn bench_ble(c: &mut Criterion) {
    let cfg = BleConfig::default();
    let payload = payload_bytes(30);
    c.bench_function("ble_modulate_30B", |b| {
        b.iter(|| BleModulator::new(cfg.clone()).modulate(0x02, black_box(&payload)))
    });
    let tx = BleModulator::new(cfg.clone()).modulate(0x02, &payload);
    c.bench_function("ble_demodulate_30B", |b| {
        b.iter(|| BleDemodulator::new(cfg.clone()).demodulate(black_box(&tx)).unwrap())
    });
}

fn bench_zigbee(c: &mut Criterion) {
    let cfg = ZigBeeConfig::default();
    let psdu = payload_bytes(40);
    c.bench_function("zigbee_modulate_40B", |b| {
        b.iter(|| ZigBeeModulator::new(cfg).modulate(black_box(&psdu)))
    });
    let tx = ZigBeeModulator::new(cfg).modulate(&psdu);
    c.bench_function("zigbee_demodulate_40B", |b| {
        b.iter(|| ZigBeeDemodulator::new(cfg).demodulate(black_box(&tx)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_wifi_b, bench_wifi_n, bench_ble, bench_zigbee
}
criterion_main!(benches);
