//! `ident`: the three identification configs of Figs. 5/7/8, each with
//! uncached trace generation, scoring, ordered-rule search and
//! evaluation on `nproc` threads — `msc-core` matcher and templates,
//! `msc-dsp` correlation and `FrontEnd::acquire`; no decode, no MAC.

use crate::harness::{Done, Op};
use crate::spans::Recorder;
use crate::workload::Body;
use msc_core::search::{
    collect_scores_labeled, default_grid, per_protocol_accuracy, search_ordered_rule,
};
use msc_core::{FrontEnd, MatchMode, Matcher, TemplateBank, TemplateConfig};
use msc_dsp::SampleRate;
use msc_sim::idtraces::{front_end, generate_traces_hard};
use std::cell::Cell;

/// Traces per protocol in each of the train and test sets (the
/// `paper all 24` size).
pub const PER_PROTOCOL: usize = 24;

/// One identification config's inputs, a pure function of the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigSpec {
    /// Config name.
    pub name: &'static str,
    /// ADC rate of the front end and templates.
    pub rate: SampleRate,
    /// Template window.
    pub window: TemplateConfig,
    /// Full precision or ±1 quantized matching.
    pub mode: MatchMode,
    /// Seed of the training traces.
    pub train_seed: u64,
    /// Seed of the test traces.
    pub test_seed: u64,
}

/// The configs of the `ident` workload for `seed`: Fig. 5's 20 Msps
/// full-precision operating point, Fig. 7's 10 Msps ±1 quantized
/// matcher and Fig. 8's 2.5 Msps 40 µs extended window.
pub fn configs(seed: u64) -> Vec<ConfigSpec> {
    let derive = |name: &str, set: &str| {
        msc_par::derive_seed(seed, msc_par::hash_label(&format!("perfbench/ident/{name}/{set}")), 0)
    };
    [
        ("20M-full", SampleRate::ADC_FULL, TemplateConfig::full_rate(), MatchMode::FullPrecision),
        (
            "10M-q",
            SampleRate::ADC_HALF,
            TemplateConfig::standard(SampleRate::ADC_HALF),
            MatchMode::Quantized,
        ),
        (
            "2.5M-ext",
            SampleRate::ADC_LOW,
            TemplateConfig::extended(SampleRate::ADC_LOW),
            MatchMode::Quantized,
        ),
    ]
    .into_iter()
    .map(|(name, rate, window, mode)| ConfigSpec {
        name,
        rate,
        window,
        mode,
        train_seed: derive(name, "train"),
        test_seed: derive(name, "test"),
    })
    .collect()
}

struct Config {
    spec: ConfigSpec,
    front_end: FrontEnd,
    matcher: Matcher,
    accuracy: Cell<f64>,
}

/// The `ident` workload.
pub struct Ident {
    configs: Vec<Config>,
}

impl Body for Ident {
    const NAME: &'static str = "ident";
    const WORK: &'static str = "id_traces_per_s";
    const EARLY_STOP: bool = false;

    fn threads(nproc: usize) -> usize {
        nproc
    }

    fn setup(seed: u64, rec: &Recorder) -> Self {
        let configs = configs(seed)
            .into_iter()
            .map(|spec| {
                let front_end = front_end(spec.rate);
                let bank = rec
                    .span("id.template_build_s", || TemplateBank::build(&front_end, spec.window));
                let matcher = Matcher::new(bank, spec.mode);
                Config { spec, front_end, matcher, accuracy: Cell::new(0.0) }
            })
            .collect();
        Ident { configs }
    }

    fn ops(&self) -> Vec<Op<'_>> {
        self.configs
            .iter()
            .map(|c| {
                Op::new(c.spec.name, move |rec| {
                    let s = &c.spec;
                    let (train_traces, test_traces) = rec.span("id.trace_gen_s", || {
                        (
                            generate_traces_hard(&c.front_end, PER_PROTOCOL, s.train_seed),
                            generate_traces_hard(&c.front_end, PER_PROTOCOL, s.test_seed),
                        )
                    });
                    let (train, test) = rec.span("id.score_s", || {
                        (
                            collect_scores_labeled(
                                &c.matcher,
                                &train_traces,
                                "train",
                                s.train_seed,
                            ),
                            collect_scores_labeled(&c.matcher, &test_traces, "test", s.test_seed),
                        )
                    });
                    let traces = (train_traces.len() + test_traces.len()) as u64;
                    if train.len() + test.len() != traces as usize {
                        return Err(format!(
                            "{} of {traces} traces scored",
                            train.len() + test.len()
                        ));
                    }
                    let searched =
                        rec.span("id.search_s", || search_ordered_rule(&train, &default_grid()));
                    let per =
                        rec.span("id.eval_s", || per_protocol_accuracy(&searched.rule, &test));
                    let accuracy = per.iter().sum::<f64>() / per.len() as f64;
                    c.accuracy.set(accuracy);
                    let digest =
                        msc_par::hash_label(&format!("{train:?}{test:?}{searched:?}{accuracy:?}"));
                    Ok(Done { digest, work: traces })
                })
            })
            .collect()
    }

    fn exact(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mean =
            self.configs.iter().map(|c| c.accuracy.get()).sum::<f64>() / self.configs.len() as f64;
        vec![("id_accuracy", mean, "ratio")]
    }
}
