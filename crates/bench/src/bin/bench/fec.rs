//! `fec`: the serial kernels reworked in DESIGN §6.8 — RS(544,514)
//! encode/decode and the Monte-Carlo PAM4 symbol loops behind fig11/fig13
//! — against the frozen textbook implementations kept as `fec::reference`
//! and `optics::montecarlo::reference`. Both sides run in one process on
//! the same inputs (the reference even shares the const GF tables), five
//! interleaved reps each, and each side keeps its best rep.
//!
//! The gates ask ≥5x on the t = 15 decode and the clean MC symbol loop.
//! The MPI loop is recorded but ungated: its beat-phase random walk is
//! inherently serial (every symbol's Box–Muller phase step must be
//! computed), which caps its batched speedup well below the clean loop's.

use crate::{rounds, Run};
use lightwave_core::fec::gf::Gf;
use lightwave_core::fec::reference::ReferenceRs;
use lightwave_core::fec::{ReedSolomon, RsScratch};
use lightwave_core::optics::ber::{mpi_db, Pam4Receiver};
use lightwave_core::optics::montecarlo::{self as mc, McChannel};
use lightwave_core::par::Pool;
use lightwave_units::Dbm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::cell::Cell;

/// Reps per fast/reference pair.
const REPS: u64 = 5;

/// Deterministic kernel outcomes; fast == reference is asserted for each.
#[derive(Debug, Serialize)]
pub struct Identity {
    /// FNV-1a over every decoded word and result code.
    rs_decode_checksum: u64,
    /// Codewords where fast and reference decode agreed exactly.
    rs_reference_matches: u64,
    /// Symbol corrections reported by the decoder.
    rs_corrected_symbols: u64,
    /// Detected-uncorrectable codewords (the t + 1 = 16-error set).
    rs_decode_failures: u64,
    /// Clean-channel MC bit errors.
    mc_clean_errors: u64,
    /// MPI-channel MC bit errors.
    mc_mpi_errors: u64,
    /// Pooled `simulate_ber_with_pool` bit errors.
    mc_pooled_errors: u64,
    /// The same pooled run through the reference loop.
    mc_pooled_reference_errors: u64,
}

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Deterministic corpus: `count` KP4 codewords, each with `nerr` distinct
/// symbol errors injected.
fn corpus(rs: &ReedSolomon, count: usize, nerr: usize, seed: u64) -> Vec<Vec<Gf>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let data: Vec<Gf> = (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect();
            let mut cw = rs.encode(&data);
            let mut positions: Vec<usize> = (0..rs.n()).collect();
            for i in 0..nerr {
                let j = rng.random_range(i..positions.len());
                positions.swap(i, j);
                cw[positions[i]] ^= rng.random_range(1..1024u16);
            }
            cw
        })
        .collect()
}

/// Channels of the clean and the MPI symbol loop.
fn channels(rx: &Pam4Receiver) -> (McChannel, McChannel) {
    (
        McChannel::new(rx, Dbm(-13.0), 0.0, None),
        McChannel::new(rx, Dbm(-12.5), mpi_db(-32.0), None),
    )
}

/// Times `fast` against `reference` and records both as `id` and
/// `id_reference`; returns the ratio of the per-side bests.
fn pair(
    run: &mut Run,
    id: &str,
    n: u64,
    fast: &mut dyn FnMut(),
    reference: &mut dyn FnMut(),
) -> f64 {
    let [f, r] = rounds(REPS, |_| {}, [fast, reference]).best();
    run.record(id, n, f);
    run.record(&format!("{id}_reference"), n, r);
    r / f
}

pub fn run(run: &mut Run) {
    let rs = ReedSolomon::kp4();
    let reference = ReferenceRs::new(544, 514);
    // The reference paths run the same n as the fast paths: they are the
    // denominator of an in-run ratio.
    let (enc_n, dec_n, clean_n, mc_n, mpi_n) = if run.smoke {
        (600usize, 120usize, 300usize, 400_000u64, 150_000u64)
    } else {
        (6_000, 1_200, 3_000, 4_000_000, 1_500_000)
    };

    let mut rng = StdRng::seed_from_u64(0xE0);
    let messages: Vec<Vec<Gf>> = (0..enc_n)
        .map(|_| (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect())
        .collect();
    let mut cw_buf: Vec<Gf> = Vec::new();
    rs.encode_into(&messages[0], &mut cw_buf); // warm
    let sink = Cell::new(0u64);
    pair(
        run,
        "rs_encode",
        enc_n as u64,
        &mut || {
            for m in &messages {
                rs.encode_into(m, &mut cw_buf);
                sink.set(sink.get().wrapping_add(u64::from(cw_buf[rs.n() - 1]) + 1));
            }
        },
        &mut || {
            for m in &messages {
                let cw = reference.encode(m);
                sink.set(sink.get().wrapping_add(u64::from(cw[rs.n() - 1]) + 1));
            }
        },
    );
    assert!(sink.get() > 0);
    for m in &messages {
        rs.encode_into(m, &mut cw_buf);
        assert_eq!(
            cw_buf,
            reference.encode(m),
            "encode fast/reference diverged"
        );
    }

    // Decode: t = 15 errors, then clean words (the syndrome early-out).
    let mut scratch = RsScratch::new();
    let _ = rs.decode_with(&mut corpus(&rs, 1, rs.t(), 0xD15)[0], &mut scratch); // warm
    let (mut word_f, mut word_r) = (Vec::new(), Vec::new());
    for (id, words, gate) in [
        (
            "rs_decode_t15",
            corpus(&rs, dec_n, rs.t(), 0xD15),
            Some("rs_decode_t15_vs_reference"),
        ),
        ("rs_decode_clean", corpus(&rs, clean_n, 0, 0xC1EA), None),
    ] {
        let ok = Cell::new(0u64);
        let speedup = pair(
            run,
            id,
            words.len() as u64,
            &mut || {
                for cw in &words {
                    word_f.clone_from(cw);
                    ok.set(ok.get() + u64::from(rs.decode_with(&mut word_f, &mut scratch).is_ok()));
                }
            },
            &mut || {
                for cw in &words {
                    word_r.clone_from(cw);
                    ok.set(ok.get() + u64::from(reference.decode(&mut word_r).is_ok()));
                }
            },
        );
        assert_eq!(
            ok.get(),
            2 * REPS * words.len() as u64,
            "{id}: every decode succeeds"
        );
        if let Some(gate) = gate {
            run.gate(gate, speedup);
        }
    }

    // Monte-Carlo symbol loops; error counts must agree bit for bit.
    let (clean, mpi) = channels(&Pam4Receiver::cwdm4_50g());
    let _ = clean.run(10_000, &mut StdRng::seed_from_u64(1)); // warm
    for (id, chan, n, seed, gate) in [
        (
            "mc_symbol_loop",
            &clean,
            mc_n,
            42,
            Some("mc_symbol_loop_vs_reference"),
        ),
        ("mc_mpi_loop", &mpi, mpi_n, 43, None),
    ] {
        let (mut fast_errors, mut ref_errors) = (0, 0);
        let speedup = pair(
            run,
            id,
            n,
            &mut || fast_errors = chan.run(n, &mut StdRng::seed_from_u64(seed)),
            &mut || ref_errors = mc::reference::run(chan, n, &mut StdRng::seed_from_u64(seed)),
        );
        assert_eq!(fast_errors, ref_errors, "{id}: fast/reference diverged");
        if let Some(gate) = gate {
            run.gate(gate, speedup);
        }
    }
}

/// Kernel outcomes of fixed-size inputs, cross-checked fast against
/// reference; only the pooled MC runs use `pool`.
pub fn identity(pool: &Pool) -> Identity {
    let rs = ReedSolomon::kp4();
    let reference = ReferenceRs::new(544, 514);
    let mut scratch = RsScratch::new();
    let mut check = |cw: &Vec<Gf>| {
        let (mut fast_word, mut ref_word) = (cw.clone(), cw.clone());
        let fast = rs.decode_with(&mut fast_word, &mut scratch);
        let slow = reference.decode(&mut ref_word);
        assert_eq!(fast, slow, "decode fast/reference result diverged");
        assert_eq!(fast_word, ref_word, "decode fast/reference buffer diverged");
        (fast, fast_word)
    };
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let (mut matches, mut corrected, mut failures) = (0, 0, 0);
    for cw in &corpus(&rs, 1_200, rs.t(), 0xD15) {
        let (result, word) = check(cw);
        matches += 1;
        corrected += result.map_or(0, |n| n as u64);
        for &s in &word {
            fnv1a(&mut checksum, u64::from(s));
        }
        fnv1a(&mut checksum, u64::from(result.is_ok()));
    }
    for cw in &corpus(&rs, 100, rs.t() + 1, 0xF16) {
        let failed = check(cw).0.is_err();
        failures += u64::from(failed);
        fnv1a(&mut checksum, u64::from(failed));
    }

    let rx = Pam4Receiver::cwdm4_50g();
    let (clean, mpi) = channels(&rx);
    let (p, mpi_level) = (Dbm(-12.5), mpi_db(-32.0));
    let symbols = mc::DEFAULT_SHARD_SYMBOLS * 3 + 977;
    let pooled = mc::simulate_ber_with_pool(pool, &rx, p, mpi_level, None, symbols, 42).0;
    let pooled_ref =
        mc::reference::simulate_ber_with_pool(pool, &rx, p, mpi_level, None, symbols, 42).0;
    assert_eq!(pooled, pooled_ref, "pooled fast/reference diverged");
    Identity {
        rs_decode_checksum: checksum,
        rs_reference_matches: matches,
        rs_corrected_symbols: corrected,
        rs_decode_failures: failures,
        mc_clean_errors: clean.run(400_000, &mut StdRng::seed_from_u64(42)),
        mc_mpi_errors: mpi.run(150_000, &mut StdRng::seed_from_u64(43)),
        mc_pooled_errors: pooled.errors,
        mc_pooled_reference_errors: pooled_ref.errors,
    }
}
