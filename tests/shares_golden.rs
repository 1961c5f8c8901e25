//! Golden per-PoP population shares.
//!
//! `PopShares::assign` over the CLI's census model (seed 42, 20,000
//! blocks) is pinned by an FNV-1a digest of the `to_bits` of every PoP's
//! share, for the two paper networks the benchmark plans on (nationwide
//! scope, as `Planner::for_network` assigns them), Telepak under its
//! regional state filter (as the interdomain analysis assigns it) and a
//! 10,000-PoP synthetic network. Any change to the nearest-PoP search, the
//! haversine, its tie-break or the block-order accumulation that moves a
//! single bit of a share fails here.
//!
//! The 10,000-PoP test is `#[ignore]`d to keep debug `cargo test` fast;
//! run it with
//! `cargo test --release --test shares_golden -- --include-ignored`.

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

fn shares_digest(ctx: &CliContext, net: &Network, states: Option<&[&str]>) -> u64 {
    let shares = PopShares::assign(&ctx.population, net, states);
    assert_eq!(shares.shares().len(), net.pop_count());
    digest_bits(shares.shares().iter().copied())
}

#[test]
fn paper_network_shares_are_bit_identical_to_golden() {
    let ctx = CliContext::build(&[]).expect("CLI context");
    for (name, golden) in [
        ("Level3", 0x6514_8c0b_db6b_beff_u64),
        ("Telepak", 0xdb48_feb4_5fdf_8d96),
    ] {
        let net = ctx.network(name).expect("corpus network");
        let got = shares_digest(&ctx, net, None);
        assert_eq!(got, golden, "{name}: shares digest {got:016x}");
    }
}

#[test]
fn state_filtered_regional_shares_are_bit_identical_to_golden() {
    let ctx = CliContext::build(&[]).expect("CLI context");
    let net = ctx.network("Telepak").expect("corpus network");
    let states = riskroute_topology::regional::spec_for("Telepak")
        .expect("Telepak is a regional network")
        .states;
    let got = shares_digest(&ctx, net, Some(states));
    assert_eq!(
        got, 0xdd83_c3cf_0ed8_21e9,
        "Telepak (state filter): shares digest {got:016x}"
    );
}

#[test]
#[ignore = "10k-PoP assignment; run in --release with --include-ignored"]
fn synthetic_10000_pop_shares_are_bit_identical_to_golden() {
    let ctx = CliContext::build(&[]).expect("CLI context");
    let net = synth_network(10_000, 42).expect("synthetic network");
    let got = shares_digest(&ctx, &net, None);
    assert_eq!(
        got, 0x9096_adcd_d282_718e,
        "synth 10000: shares digest {got:016x}"
    );
}
