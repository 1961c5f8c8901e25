//! Golden per-PoP historical-risk vectors.
//!
//! `NodeRisk::from_historical` under the CLI's hazard model (seed 42, at
//! most 3,000 events per kind) is pinned by an FNV-1a digest of the
//! `to_bits` of every PoP's risk, for the two paper networks the benchmark
//! plans on and 2,000- and 10,000-PoP synthetic networks. Any change to
//! the KDE kernel, the haversine, the per-kind summation order or the event
//! corpora that moves a single bit of a risk value fails here. The per-PoP
//! terms are evaluated on every available core, so these digests also pin
//! the parallel evaluation to the sequential bits.
//!
//! The 10,000-PoP vector is five times the 2,000-PoP one, so its test is
//! `#[ignore]`d to keep debug `cargo test` fast; run it with
//! `cargo test --release --test risk_vector_golden -- --include-ignored`.
//!
//! The digest is the same one the end-to-end benchmark records as its
//! `risk:<network>` provenance entries, so the two can be compared directly.

use riskroute::prelude::*;
use riskroute_cli::CliContext;
use riskroute_topology::scale::synth_network;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn digest_bits(xs: impl IntoIterator<Item = f64>) -> u64 {
    xs.into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn risk_digest(ctx: &CliContext, net: &Network) -> u64 {
    let risk = NodeRisk::from_historical(net, &ctx.hazards);
    assert_eq!(risk.len(), net.pop_count());
    digest_bits((0..risk.len()).map(|v| risk.historical(v)))
}

#[test]
fn paper_network_risk_vectors_are_bit_identical_to_golden() {
    let ctx = CliContext::build(&[]).expect("CLI context");
    for (name, golden) in [
        ("Level3", 0xcf03_5ffe_cb40_9635_u64),
        ("Telepak", 0xa214_c0d1_eccf_755a),
    ] {
        let net = ctx.network(name).expect("corpus network");
        let got = risk_digest(&ctx, net);
        assert_eq!(got, golden, "{name}: risk digest {got:016x}");
    }
}

#[test]
fn synthetic_2000_pop_risk_vector_is_bit_identical_to_golden() {
    let ctx = CliContext::build(&[]).expect("CLI context");
    let net = synth_network(2_000, 42).expect("synthetic network");
    let got = risk_digest(&ctx, &net);
    assert_eq!(
        got, 0xede3_dffe_1d99_1094,
        "synth 2000: risk digest {got:016x}"
    );
}

#[test]
#[ignore = "10k-PoP KDE; run in --release with --include-ignored"]
fn synthetic_10000_pop_risk_vector_is_bit_identical_to_golden() {
    let ctx = CliContext::build(&[]).expect("CLI context");
    let net = synth_network(10_000, 42).expect("synthetic network");
    let got = risk_digest(&ctx, &net);
    assert_eq!(
        got, 0x4450_6626_d6d6_81ee,
        "synth 10000: risk digest {got:016x}"
    );
}
