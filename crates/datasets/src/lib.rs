//! The evaluation corpus: 110 synthetic matrices mirroring the structural
//! families of the paper's SuiteSparse selection (§4.1), the ten
//! "representative" datasets of Figs. 8–9, the tall-skinny suite of
//! Tables 3–4, and the BC BFS-frontier workload generator.
//!
//! The paper selects real matrices with >8M nonzeros; those inputs are not
//! redistributable, so every dataset here is generated (seeded,
//! deterministic) with the structural property that drives its family's
//! behaviour under reordering and clustering — see `cw_sparse::gen` for the
//! family ↔ generator mapping, and DESIGN.md §3 for the substitution
//! rationale. Sizes scale with [`Scale`] so the full corpus stays runnable
//! on a laptop (`Small`) or stresses bigger footprints (`Large`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frontier;

use cw_sparse::gen::{
    banded::{banded, block_diagonal, grouped_rows},
    er::erdos_renyi,
    grid::{anisotropic2d, grid4d, poisson2d, poisson3d, stencil9},
    kkt::kkt,
    mesh::{patched_mesh, tri_mesh},
    rmat::{rmat, RmatParams},
    road::road,
};
use cw_sparse::CsrMatrix;

/// Corpus sizing. `Small` keeps the full 110-matrix × 12-ordering sweep in
/// CI territory; `Medium`/`Large` grow linear dimensions ~2×/~4×.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// ~1–6k rows per matrix.
    #[default]
    Small,
    /// ~4–25k rows per matrix.
    Medium,
    /// ~16–100k rows per matrix.
    Large,
}

impl Scale {
    /// Linear-dimension multiplier.
    pub fn factor(&self) -> usize {
        match self {
            Scale::Small => 1,
            Scale::Medium => 2,
            Scale::Large => 4,
        }
    }

    /// Parses `"small" | "medium" | "large"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" | "s" => Some(Scale::Small),
            "medium" | "m" => Some(Scale::Medium),
            "large" | "l" => Some(Scale::Large),
            _ => None,
        }
    }
}

/// Structural family of a dataset (mirrors the SuiteSparse groups the paper
/// draws from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Triangulated / patched 2D surface meshes (DIMACS10-style).
    Mesh2d,
    /// 3D volume stencils.
    Mesh3d,
    /// 4D lattice (QCD-style).
    Lattice,
    /// Power-law graphs (SNAP-style).
    PowerLaw,
    /// Road networks.
    Road,
    /// Banded chemistry/circuit matrices.
    Banded,
    /// Dense diagonal-block matrices.
    BlockDiag,
    /// Supernodal / grouped-row structure.
    GroupedRows,
    /// KKT saddle-point systems.
    Kkt,
    /// Unstructured uniform random.
    Random,
}

/// A named, reproducible matrix recipe.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Unique name (paper-analogue names for the representative ten).
    pub name: &'static str,
    /// Structural family.
    pub category: Category,
    /// Generator index (internal dispatch).
    spec: Spec,
}

#[derive(Debug, Clone, Copy)]
enum Spec {
    TriMesh { nx: usize, ny: usize, seed: u64 },
    PatchedMesh { nx: usize, ny: usize, patches: usize, seed: u64 },
    Poisson2d { nx: usize, ny: usize },
    Stencil9 { nx: usize, ny: usize },
    Poisson3d { n: usize },
    Aniso2d { nx: usize, ny: usize, seed: u64 },
    Grid4d { dim: usize },
    Rmat { scale_exp: u32, ef: usize, a: f64, seed: u64 },
    Road { nx: usize, ny: usize, keep: f64, shortcuts: usize, seed: u64 },
    Banded { n: usize, bw: usize, fill: f64, seed: u64 },
    BlockDiag { n: usize, lo: usize, hi: usize, bridge: f64, seed: u64 },
    Grouped { n: usize, group: usize, nnz: usize, seed: u64 },
    Kkt { nv: usize, nc: usize, band: usize, g: usize, seed: u64 },
    Er { n: usize, deg: usize, seed: u64 },
}

impl Dataset {
    /// Builds the matrix at the requested scale. Deterministic.
    pub fn build(&self, scale: Scale) -> CsrMatrix {
        let f = scale.factor();
        match self.spec {
            Spec::TriMesh { nx, ny, seed } => tri_mesh(nx * f, ny * f, true, seed),
            Spec::PatchedMesh { nx, ny, patches, seed } => {
                patched_mesh(nx * f, ny * f, patches, seed)
            }
            Spec::Poisson2d { nx, ny } => poisson2d(nx * f, ny * f),
            Spec::Stencil9 { nx, ny } => stencil9(nx * f, ny * f),
            Spec::Poisson3d { n } => {
                // Scale 3D dims by cbrt-ish growth to keep nnz comparable.
                let g = match scale {
                    Scale::Small => n,
                    Scale::Medium => n + n / 3,
                    Scale::Large => n * 2,
                };
                poisson3d(g, g, g)
            }
            Spec::Aniso2d { nx, ny, seed } => anisotropic2d(nx * f, ny * f, seed),
            Spec::Grid4d { dim } => {
                let g = match scale {
                    Scale::Small => dim,
                    Scale::Medium => dim + 1,
                    Scale::Large => dim + 3,
                };
                grid4d(g)
            }
            Spec::Rmat { scale_exp, ef, a, seed } => {
                let extra = match scale {
                    Scale::Small => 0,
                    Scale::Medium => 1,
                    Scale::Large => 2,
                };
                let rest = (1.0 - a) / 3.0;
                rmat(scale_exp + extra, ef, RmatParams { a, b: rest, c: rest }, seed)
            }
            Spec::Road { nx, ny, keep, shortcuts, seed } => {
                road(nx * f, ny * f, keep, shortcuts, seed)
            }
            Spec::Banded { n, bw, fill, seed } => banded(n * f * f, bw, fill, seed),
            Spec::BlockDiag { n, lo, hi, bridge, seed } => {
                block_diagonal(n * f * f, (lo, hi), bridge, seed)
            }
            Spec::Grouped { n, group, nnz, seed } => grouped_rows(n * f * f, group, nnz, seed),
            Spec::Kkt { nv, nc, band, g, seed } => kkt(nv * f * f, nc * f * f, band, g, seed),
            Spec::Er { n, deg, seed } => erdos_renyi(n * f * f, deg, seed),
        }
    }
}

/// The ten representative datasets of paper Figs. 8–9, mapped to synthetic
/// analogues of the same structural families:
///
/// | paper | here | family |
/// |---|---|---|
/// | cage12 (DNA electrophoresis) | `cage12-like` | banded |
/// | poisson3Da | `poi3D-like` | 3D stencil |
/// | conf5_4-8x8-05 (lattice QCD) | `conf5-like` | 4D torus stencil |
/// | pdb1HYS (protein) | `pdb1-like` | dense blocks |
/// | rma10 (3D CFD) | `rma10-like` | irregular mesh |
/// | webbase-1M | `wb-like` | power-law |
/// | AS365 (helicopter mesh) | `AS365-like` | patched 2D mesh |
/// | hugetric | `huget-like` | large triangulation |
/// | M6 | `M6-like` | triangulation |
/// | NLR | `NLR-like` | triangulation |
pub fn representative() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "cage12-like",
            category: Category::Banded,
            spec: Spec::Banded { n: 1600, bw: 12, fill: 0.45, seed: 12 },
        },
        Dataset { name: "poi3D-like", category: Category::Mesh3d, spec: Spec::Poisson3d { n: 13 } },
        Dataset { name: "conf5-like", category: Category::Lattice, spec: Spec::Grid4d { dim: 7 } },
        Dataset {
            name: "pdb1-like",
            category: Category::BlockDiag,
            spec: Spec::BlockDiag { n: 1500, lo: 6, hi: 8, bridge: 0.02, seed: 36 },
        },
        Dataset {
            name: "rma10-like",
            category: Category::Mesh2d,
            spec: Spec::Aniso2d { nx: 48, ny: 40, seed: 7 },
        },
        Dataset {
            name: "wb-like",
            category: Category::PowerLaw,
            spec: Spec::Rmat { scale_exp: 11, ef: 6, a: 0.6, seed: 8 },
        },
        Dataset {
            name: "AS365-like",
            category: Category::Mesh2d,
            spec: Spec::PatchedMesh { nx: 24, ny: 20, patches: 4, seed: 365 },
        },
        Dataset {
            name: "huget-like",
            category: Category::Mesh2d,
            spec: Spec::TriMesh { nx: 52, ny: 48, seed: 17 },
        },
        Dataset {
            name: "M6-like",
            category: Category::Mesh2d,
            spec: Spec::TriMesh { nx: 48, ny: 44, seed: 6 },
        },
        Dataset {
            name: "NLR-like",
            category: Category::Mesh2d,
            spec: Spec::TriMesh { nx: 60, ny: 36, seed: 11 },
        },
    ]
}

/// The tall-skinny evaluation suite of paper Tables 3–4 (names map to the
/// same families as [`representative`]).
pub fn tall_skinny_suite() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "webbase-like",
            category: Category::PowerLaw,
            spec: Spec::Rmat { scale_exp: 11, ef: 5, a: 0.62, seed: 21 },
        },
        Dataset {
            name: "patents-like",
            category: Category::PowerLaw,
            spec: Spec::Rmat { scale_exp: 11, ef: 4, a: 0.45, seed: 22 },
        },
        Dataset {
            name: "AS365-like",
            category: Category::Mesh2d,
            spec: Spec::PatchedMesh { nx: 24, ny: 20, patches: 4, seed: 365 },
        },
        Dataset {
            name: "LiveJournal-like",
            category: Category::PowerLaw,
            spec: Spec::Rmat { scale_exp: 11, ef: 8, a: 0.57, seed: 23 },
        },
        Dataset {
            name: "europe-osm-like",
            category: Category::Road,
            spec: Spec::Road { nx: 50, ny: 44, keep: 0.92, shortcuts: 3, seed: 24 },
        },
        Dataset {
            name: "GAP-road-like",
            category: Category::Road,
            spec: Spec::Road { nx: 48, ny: 48, keep: 0.88, shortcuts: 6, seed: 25 },
        },
        Dataset {
            name: "kkt-power-like",
            category: Category::Kkt,
            spec: Spec::Kkt { nv: 1700, nc: 500, band: 3, g: 3, seed: 26 },
        },
        Dataset {
            name: "M6-like",
            category: Category::Mesh2d,
            spec: Spec::TriMesh { nx: 48, ny: 44, seed: 6 },
        },
        Dataset {
            name: "NLR-like",
            category: Category::Mesh2d,
            spec: Spec::TriMesh { nx: 60, ny: 36, seed: 11 },
        },
        Dataset {
            name: "wikipedia-like",
            category: Category::PowerLaw,
            spec: Spec::Rmat { scale_exp: 11, ef: 7, a: 0.55, seed: 27 },
        },
    ]
}

/// The full 110-matrix corpus: the representative ten plus 100 additional
/// recipes spread across the families, echoing the paper's distribution
/// (many DIMACS10 meshes and SNAP graphs, fewer of the niche families).
pub fn corpus() -> Vec<Dataset> {
    let mut v = representative();
    // --- 2D meshes: 16 (DIMACS10 is the paper's biggest group) ---
    static MESH_NAMES: [&str; 16] = [
        "mesh2d-00",
        "mesh2d-01",
        "mesh2d-02",
        "mesh2d-03",
        "mesh2d-04",
        "mesh2d-05",
        "mesh2d-06",
        "mesh2d-07",
        "mesh2d-08",
        "mesh2d-09",
        "mesh2d-10",
        "mesh2d-11",
        "mesh2d-12",
        "mesh2d-13",
        "mesh2d-14",
        "mesh2d-15",
    ];
    for (i, name) in MESH_NAMES.iter().enumerate() {
        let nx = 30 + 4 * (i % 7);
        let ny = 28 + 3 * (i % 5);
        v.push(Dataset {
            name,
            category: Category::Mesh2d,
            spec: Spec::TriMesh { nx, ny, seed: 100 + i as u64 },
        });
    }
    // --- natural-order stencils: 12 (well-ordered inputs where reordering
    //     should NOT help much) ---
    static STENCIL_NAMES: [&str; 12] = [
        "poisson2d-00",
        "poisson2d-01",
        "poisson2d-02",
        "poisson2d-03",
        "stencil9-00",
        "stencil9-01",
        "stencil9-02",
        "stencil9-03",
        "poisson3d-00",
        "poisson3d-01",
        "poisson3d-02",
        "poisson3d-03",
    ];
    for (i, name) in STENCIL_NAMES.iter().enumerate() {
        let spec = match i / 4 {
            0 => Spec::Poisson2d { nx: 40 + 6 * (i % 4), ny: 36 + 4 * (i % 4) },
            1 => Spec::Stencil9 { nx: 36 + 5 * (i % 4), ny: 32 + 5 * (i % 4) },
            _ => Spec::Poisson3d { n: 11 + (i % 4) },
        };
        let category = if i / 4 == 2 { Category::Mesh3d } else { Category::Mesh2d };
        v.push(Dataset { name, category, spec });
    }
    // --- power-law graphs: 16 (SNAP) ---
    static RMAT_NAMES: [&str; 16] = [
        "rmat-00", "rmat-01", "rmat-02", "rmat-03", "rmat-04", "rmat-05", "rmat-06", "rmat-07",
        "rmat-08", "rmat-09", "rmat-10", "rmat-11", "rmat-12", "rmat-13", "rmat-14", "rmat-15",
    ];
    for (i, name) in RMAT_NAMES.iter().enumerate() {
        v.push(Dataset {
            name,
            category: Category::PowerLaw,
            spec: Spec::Rmat {
                scale_exp: 10 + (i % 2) as u32,
                ef: 4 + i % 6,
                a: 0.45 + 0.02 * (i % 8) as f64,
                seed: 200 + i as u64,
            },
        });
    }
    // --- road networks: 10 ---
    static ROAD_NAMES: [&str; 10] = [
        "road-00", "road-01", "road-02", "road-03", "road-04", "road-05", "road-06", "road-07",
        "road-08", "road-09",
    ];
    for (i, name) in ROAD_NAMES.iter().enumerate() {
        v.push(Dataset {
            name,
            category: Category::Road,
            spec: Spec::Road {
                nx: 40 + 3 * (i % 5),
                ny: 38 + 2 * (i % 7),
                keep: 0.85 + 0.02 * (i % 6) as f64,
                shortcuts: 2 + i % 6,
                seed: 300 + i as u64,
            },
        });
    }
    // --- banded: 10 ---
    static BAND_NAMES: [&str; 10] = [
        "banded-00",
        "banded-01",
        "banded-02",
        "banded-03",
        "banded-04",
        "banded-05",
        "banded-06",
        "banded-07",
        "banded-08",
        "banded-09",
    ];
    for (i, name) in BAND_NAMES.iter().enumerate() {
        v.push(Dataset {
            name,
            category: Category::Banded,
            spec: Spec::Banded {
                n: 1200 + 150 * (i % 4),
                bw: 6 + 3 * (i % 4),
                fill: 0.35 + 0.12 * (i % 5) as f64,
                seed: 400 + i as u64,
            },
        });
    }
    // --- dense block diagonals: 12 (the fixed-length clustering sweet spot) ---
    static BLOCK_NAMES: [&str; 12] = [
        "blocks-00",
        "blocks-01",
        "blocks-02",
        "blocks-03",
        "blocks-04",
        "blocks-05",
        "blocks-06",
        "blocks-07",
        "blocks-08",
        "blocks-09",
        "blocks-10",
        "blocks-11",
    ];
    for (i, name) in BLOCK_NAMES.iter().enumerate() {
        v.push(Dataset {
            name,
            category: Category::BlockDiag,
            spec: Spec::BlockDiag {
                n: 1100 + 130 * (i % 5),
                lo: 2 + i % 4,
                hi: 5 + i % 4,
                bridge: 0.01 * (i % 4) as f64,
                seed: 500 + i as u64,
            },
        });
    }
    // --- grouped rows (supernodal): 10 ---
    static GROUP_NAMES: [&str; 10] = [
        "grouped-00",
        "grouped-01",
        "grouped-02",
        "grouped-03",
        "grouped-04",
        "grouped-05",
        "grouped-06",
        "grouped-07",
        "grouped-08",
        "grouped-09",
    ];
    for (i, name) in GROUP_NAMES.iter().enumerate() {
        v.push(Dataset {
            name,
            category: Category::GroupedRows,
            spec: Spec::Grouped {
                n: 1300 + 140 * (i % 4),
                group: 3 + i % 6,
                nnz: 6 + i % 8,
                seed: 600 + i as u64,
            },
        });
    }
    // --- KKT systems: 8 ---
    static KKT_NAMES: [&str; 8] =
        ["kkt-00", "kkt-01", "kkt-02", "kkt-03", "kkt-04", "kkt-05", "kkt-06", "kkt-07"];
    for (i, name) in KKT_NAMES.iter().enumerate() {
        v.push(Dataset {
            name,
            category: Category::Kkt,
            spec: Spec::Kkt {
                nv: 1200 + 160 * (i % 4),
                nc: 320 + 60 * (i % 4),
                band: 2 + i % 3,
                g: 2 + i % 4,
                seed: 700 + i as u64,
            },
        });
    }
    // --- unstructured random: 6 (reordering-resistant control group) ---
    static ER_NAMES: [&str; 6] = ["er-00", "er-01", "er-02", "er-03", "er-04", "er-05"];
    for (i, name) in ER_NAMES.iter().enumerate() {
        v.push(Dataset {
            name,
            category: Category::Random,
            spec: Spec::Er { n: 1300 + 170 * (i % 3), deg: 5 + i % 5, seed: 800 + i as u64 },
        });
    }
    assert_eq!(v.len(), 110, "corpus must contain exactly 110 datasets");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn corpus_has_110_unique_names() {
        let c = corpus();
        assert_eq!(c.len(), 110);
        let names: HashSet<&str> = c.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 110, "duplicate dataset names");
    }

    #[test]
    fn corpus_covers_all_categories() {
        let c = corpus();
        let cats: HashSet<_> = c.iter().map(|d| d.category).collect();
        assert!(cats.len() >= 9, "only {} categories", cats.len());
    }

    #[test]
    fn representative_ten_build_and_are_square() {
        for d in representative() {
            let a = d.build(Scale::Small);
            assert_eq!(a.nrows, a.ncols, "{}", d.name);
            assert!(a.nnz() > 1000, "{} too small: {} nnz", d.name, a.nnz());
            a.validate().unwrap();
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let d = &corpus()[20];
        let a = d.build(Scale::Small);
        let b = d.build(Scale::Small);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn scale_grows_matrices() {
        let d = &representative()[8]; // M6-like
        let s = d.build(Scale::Small);
        let m = d.build(Scale::Medium);
        assert!(m.nrows >= 3 * s.nrows, "{} -> {}", s.nrows, m.nrows);
    }

    #[test]
    fn tall_skinny_suite_has_ten() {
        let suite = tall_skinny_suite();
        assert_eq!(suite.len(), 10);
        for d in suite {
            let a = d.build(Scale::Small);
            assert_eq!(a.nrows, a.ncols);
        }
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("M"), Some(Scale::Medium));
        assert_eq!(Scale::parse("Large"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), None);
    }
}
