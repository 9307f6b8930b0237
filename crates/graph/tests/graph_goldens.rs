//! Golden digests of every generated graph.
//!
//! Each value is an FNV-1a hash over a graph's `offsets`, `targets` and
//! `weights` arrays. They pin the generators bit for bit: the RNG stream,
//! the RMAT quadrant choice, and `CsrBuilder`'s dedup — including which
//! duplicate's weight survives, which follows the tie order of
//! `sort_unstable`, so a toolchain that changes that order fails here too.
//! A change to any of these changes the traces every figure is built from,
//! so a mismatch is a behaviour change, not a test to re-record lightly.

use droplet_graph::gen::{self, RmatSkew};
use droplet_graph::{Csr, Dataset, DatasetScale};

/// FNV-1a over the CSR arrays, little-endian, with a tag byte telling an
/// unweighted graph from one with an empty weight array.
fn digest(g: &Csr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&g.num_vertices().to_le_bytes());
    for &o in g.offsets() {
        eat(&o.to_le_bytes());
    }
    for &t in g.targets() {
        eat(&t.to_le_bytes());
    }
    match g.weights() {
        None => eat(&[0]),
        Some(w) => {
            eat(&[1]);
            for &x in w {
                eat(&x.to_le_bytes());
            }
        }
    }
    h
}

/// Compares the computed `(name, digest)` table against `want`; on any
/// difference prints the whole computed table, ready to paste.
fn check(want: &[(&str, u64)], got: Vec<(String, u64)>) {
    let same =
        want.len() == got.len() && want.iter().zip(&got).all(|(w, g)| w.0 == g.0 && w.1 == g.1);
    let table: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("(\"{name}\", 0x{d:016x}),"))
        .collect();
    assert!(same, "graph digests changed; now:\n{}", table.join("\n"));
}

#[test]
fn dataset_graphs_match_their_goldens() {
    const WANT: &[(&str, u64)] = &[
        ("kron-Tiny-u", 0x54f96e5089bcb979),
        ("kron-Tiny-w", 0xd05e4ff354d80575),
        ("urand-Tiny-u", 0x255b2bfc13db3177),
        ("urand-Tiny-w", 0x94dfb97b0e97e198),
        ("orkut-Tiny-u", 0x19c3f6e840e84583),
        ("orkut-Tiny-w", 0xc547ab5ce64728ff),
        ("livejournal-Tiny-u", 0x23bd2f32563f7ccf),
        ("livejournal-Tiny-w", 0xb2dcfae57d182c27),
        ("road-Tiny-u", 0x362d953a9af3b885),
        ("road-Tiny-w", 0x1d078068fb7169fa),
        ("kron-Small-u", 0x9314dda88faea8b9),
        ("kron-Small-w", 0x5d60b79d55471fd2),
        ("urand-Small-u", 0xc07c8f65d87a73ec),
        ("urand-Small-w", 0xe1526780f87ea42a),
        ("orkut-Small-u", 0x8ac89d3e46f89a2e),
        ("orkut-Small-w", 0xd156a9e2d00ac06a),
        ("livejournal-Small-u", 0x24caa66b5ec74971),
        ("livejournal-Small-w", 0x23c7dfd989b16df0),
        ("road-Small-u", 0x405f52bfc5de7dd6),
        ("road-Small-w", 0x7721f08b9b162a6f),
    ];
    let mut got = Vec::new();
    for scale in [DatasetScale::Tiny, DatasetScale::Small] {
        for d in Dataset::ALL {
            for weighted in [false, true] {
                let g = if weighted {
                    d.build_weighted(scale)
                } else {
                    d.build(scale)
                };
                let w = if weighted { "w" } else { "u" };
                got.push((format!("{}-{scale:?}-{w}", d.name()), digest(&g)));
            }
        }
    }
    check(WANT, got);
}

#[test]
fn generator_graphs_match_their_goldens() {
    const WANT: &[(&str, u64)] = &[
        ("rmat-1", 0x898e4ffa6b090c35),
        ("rmat_weighted-1", 0x0c0d3e2b4d72e8be),
        ("uniform-1", 0x421d669a36c78468),
        ("uniform_weighted-1", 0xec06cfa745f11df4),
        ("grid-1", 0x467b7adbc75a31c6),
        ("grid_weighted-1", 0xd2e782f670ab4b18),
        ("rmat-7", 0x5b134c5c76850fd8),
        ("rmat_weighted-7", 0xc1eeefe71b3ff145),
        ("uniform-7", 0x58c31178bccca61a),
        ("uniform_weighted-7", 0x9f3769a97589fc28),
        ("grid-7", 0x5cb2a952c7474d53),
        ("grid_weighted-7", 0x4206e3f7c5aee362),
        ("rmat-3735928559", 0xf4973d191d21d225),
        ("rmat_weighted-3735928559", 0x802943d695f047e7),
        ("uniform-3735928559", 0x89088fb8e5152d5f),
        ("uniform_weighted-3735928559", 0x5fdba01b9ed144aa),
        ("grid-3735928559", 0xdf5e4a398570e202),
        ("grid_weighted-3735928559", 0x7ba7e67d8379bc74),
    ];
    let mut got = Vec::new();
    for seed in [1, 7, 0xdead_beef] {
        let graphs = [
            ("rmat", gen::rmat(10, 8, RmatSkew::Kron, seed)),
            (
                "rmat_weighted",
                gen::rmat_weighted(10, 8, RmatSkew::Social, seed),
            ),
            ("uniform", gen::uniform(1000, 8000, seed)),
            ("uniform_weighted", gen::uniform_weighted(1000, 8000, seed)),
            ("grid", gen::grid(30, 40, 20, seed)),
            ("grid_weighted", gen::grid_weighted(30, 40, 20, seed)),
        ];
        for (name, g) in graphs {
            got.push((format!("{name}-{seed}"), digest(&g)));
        }
    }
    check(WANT, got);
}
