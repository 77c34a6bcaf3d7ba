//! Byte-level golden pin for the Figure 15 study.
//!
//! The fig15 FTL hot loop has been rewritten for speed several times
//! (cached geometry, incremental GC scan keys, bulk victim copies, the
//! precomputed trace sampler in `act-rng`). Every one of those rewrites
//! claims bit-identical behavior; this test is the claim's enforcement.
//! The expected text below is the **exact** renderer output from the
//! pre-optimization implementation — if any refactor shifts a single
//! simulated write, a WA value changes and this fails byte-for-byte.
//!
//! Regenerating (only valid after an *intentional* semantic change, e.g.
//! a new trace seed or grid): `act fig15` and paste the output here, in
//! the same commit that justifies the change.

use act_experiments::{ablations, fig15};

const GOLDEN: &str = "\
== Figure 15: SSD over-provisioning study ==
   PF  WA (model)  WA (FTL sim)  lifetime yr  1st life CO2  2nd life CO2
  ------------------------------------------------------------------------
   4%       13.00          7.44         0.51          1.00          2.00
  10%        5.50          4.32         1.26          0.42          0.85
  16%        3.62          3.17         2.02          0.28          0.56
  22%        2.77          2.55         2.78          0.30          0.43
  28%        2.29          2.23         3.54          0.31          0.35
  34%        1.97          1.99         4.30          0.33          0.33
  40%        1.75          1.82         5.06          0.34          0.34
  first-life optimal PF 16% | second-life optimal PF 34% | per-year reduction 1.73x
";

#[test]
fn rendered_study_is_byte_identical_to_the_golden() {
    assert_eq!(fig15::run().to_string(), GOLDEN);
}

/// The raw `wa_simulated` bits of every grid point, PF 4 % … 40 %. The
/// table rounds to 2 decimals; these catch any drift below the rounding.
const WA_SIMULATED_BITS: [u64; 7] = [
    0x401d_bdd9_7f62_b6ae, // 7.4354
    0x4011_49c7_79a6_b50b, // 4.32205
    0x4009_5837_b4a2_339c, // 3.168075
    0x4004_6e7d_566c_f41f, // 2.55395
    0x4001_db71_758e_2196, // 2.23215
    0x3fff_c7e2_8240_b780, // 1.9863
    0x3ffd_290f_f972_4745, // 1.822525
];

#[test]
fn simulated_wa_values_are_pinned_bitwise() {
    let rows = fig15::run().rows;
    let bits: Vec<u64> = rows.iter().map(|r| r.wa_simulated.to_bits()).collect();
    assert_eq!(bits, WA_SIMULATED_BITS, "simulated WA drifted: {rows:?}");
}

#[test]
fn ablation_ftl_values_are_pinned_bitwise() {
    // The write-amplification study's two FTL-simulated points (PF 16 %
    // and 34 %), next to their analytical twins.
    let studies = ablations::run().studies;
    let series: Vec<(&str, u64)> = studies[3]
        .series
        .iter()
        .map(|(label, value)| (label.as_str(), value.to_bits()))
        .collect();
    assert_eq!(
        series,
        [
            ("analytical @ 16%", 0x400c_ffff_ffff_ffff),
            ("FTL sim @ 16%", 0x4007_cfaa_cd9e_83e4), // 2.9764
            ("analytical @ 34%", 0x3fff_8787_8787_8787),
            ("FTL sim @ 34%", 0x3ffe_dce9_32ed_4b81), // 1.9289333…
        ]
    );
}
