//! A committed cross-commit differential for the initial weights.
//!
//! `Mlp::new` draws every weight from the seeded generator, and a threaded
//! run, its digests and its goldens all start from that draw. The digests
//! below fold the bits of every parameter tensor `Mlp::new` returns for
//! `benchmark/`'s two shapes and `ThreadedConfig::small`'s, two seeds each.
//! They were recorded while the draw was one scalar Box–Muller per weight,
//! and must not be edited by a change that claims to draw the same numbers
//! faster. On a mismatch the failure prints every case's digest.

use prophet_minidnn::Mlp;

/// The runtime's model seed for a config seed (`build` draws with
/// `cfg.seed ^ 0xABCD`): `ThreadedConfig::small`'s 77 and `benchmark/`'s
/// default 1.
const SEEDS: [u64; 2] = [77 ^ 0xABCD, 1 ^ 0xABCD];

// ---- recorded with the scalar draw ----------------------------------------
const SMALL: [u64; 2] = [0xa675_4be4_ba0c_5e3a, 0xa0d3_7b0d_76a0_bebf];
const LINK: [u64; 2] = [0x8d32_c91e_1858_c196, 0x8128_dc3a_63b7_e402];
const VGG: [u64; 2] = [0x6d54_380d_9761_6016, 0x1a40_4abf_68b0_9f79];

/// A word-at-a-time FNV-1a-style fold (the one `golden_digest.rs` uses).
fn digest(widths: &[usize], seed: u64) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |v: u64| {
        d = (d ^ v).wrapping_mul(0x0100_0000_01b3);
        d ^= d >> 29;
    };
    let m = Mlp::new(widths, seed);
    for p in m.param_slices() {
        word(p.len() as u64);
        for v in p {
            word(v.to_bits() as u64);
        }
    }
    d
}

fn check(widths: &[usize], want: [u64; 2]) {
    let got = SEEDS.map(|seed| digest(widths, seed));
    let shown: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, want, "{widths:?}: got [{}]", shown.join(", "));
}

/// `ThreadedConfig::small`'s 8-24-4.
#[test]
fn small_model_draw_is_pinned() {
    check(&[8, 24, 4], SMALL);
}

/// `threaded_link`'s 256-1024-1024-256-10 (1.6 M weights).
#[test]
fn link_model_draw_is_pinned() {
    check(&[256, 1024, 1024, 256, 10], LINK);
}

/// `threaded_mem`'s 512-2048-2048-512-10 (6.3 M weights, 25 MB): release
/// builds only.
#[test]
#[cfg_attr(debug_assertions, ignore = "25 MB draw; release tier")]
fn vgg_model_draw_is_pinned() {
    check(&[512, 2048, 2048, 512, 10], VGG);
}
