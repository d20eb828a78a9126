//! §III-D ablation: "removing any one of these transformations decreases
//! the compression ratio by a substantial factor."
//!
//! Rebuilds the PFPL pipeline from its public stage functions with one
//! stage removed at a time and reports the geo-mean compression ratio over
//! the single-precision suites at ABS 1e-3.

use pfpl::lossless::{delta, shuffle, zeroelim};
use pfpl::quantize::{AbsQuantizer, Quantizer};
use pfpl_bench::Args;
use pfpl_data::metrics::geomean;
use pfpl_data::{all_suites, FieldData};

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Full,
    NoDelta,
    NoNegabinary,
    NoShuffle,
    NoZeroElim,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Full => "full pipeline",
            Variant::NoDelta => "without delta coding",
            Variant::NoNegabinary => "delta in two's complement (no negabinary)",
            Variant::NoShuffle => "without bit shuffle",
            Variant::NoZeroElim => "without zero-byte elimination",
        }
    }
}

fn compressed_size(data: &[f32], eb: f32, variant: Variant) -> usize {
    let q = AbsQuantizer::<f32>::new(eb).expect("bound");
    let mut total = 0usize;
    let mut ze = zeroelim::Scratch::default();
    for chunk in data.chunks(4096) {
        let mut words: Vec<u32> = chunk.iter().map(|&v| q.encode(v)).collect();
        match variant {
            Variant::NoDelta => {}
            Variant::NoNegabinary => {
                let mut prev = 0u32;
                for w in words.iter_mut() {
                    let cur = *w;
                    *w = cur.wrapping_sub(prev);
                    prev = cur;
                }
            }
            _ => delta::encode_in_place(&mut words),
        }
        let mut bytes = vec![0u8; words.len() * 4];
        if variant == Variant::NoShuffle {
            for (i, w) in words.iter().enumerate() {
                bytes[i * 4..(i + 1) * 4].copy_from_slice(&w.to_le_bytes());
            }
        } else {
            shuffle::encode(&words, &mut bytes);
        }
        if variant == Variant::NoZeroElim {
            total += bytes.len(); // nothing else shrinks the data
        } else {
            total += zeroelim::encode_to_scratch(&bytes, &mut ze).min(bytes.len());
        }
    }
    total
}

fn main() {
    let args = Args::parse();
    let eb = 1e-3f32;
    let suites: Vec<_> = all_suites(args.size)
        .into_iter()
        .filter(|s| !s.double)
        .collect();
    println!("§III-D ablation at ABS eb = {eb} (geo-mean ratio over single-precision suites)\n");
    println!(
        "{:<46} {:>10} {:>18}",
        "variant", "ratio", "vs full pipeline"
    );
    let mut full_ratio = 0.0;
    for variant in [
        Variant::Full,
        Variant::NoDelta,
        Variant::NoNegabinary,
        Variant::NoShuffle,
        Variant::NoZeroElim,
    ] {
        let mut suite_ratios = Vec::new();
        for suite in &suites {
            let ratios: Vec<f64> = suite
                .fields
                .iter()
                .map(|f| {
                    let FieldData::F32(data) = &f.data else {
                        unreachable!()
                    };
                    f.byte_len() as f64 / compressed_size(data, eb, variant) as f64
                })
                .collect();
            suite_ratios.push(geomean(&ratios));
        }
        let ratio = geomean(&suite_ratios);
        if variant == Variant::Full {
            full_ratio = ratio;
        }
        println!(
            "{:<46} {:>10.2} {:>17.1}%",
            variant.name(),
            ratio,
            ratio / full_ratio * 100.0
        );
    }
}
