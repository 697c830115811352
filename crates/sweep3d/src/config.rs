//! Problem configuration and domain decomposition.
//!
//! Mirrors the SWEEP3D input deck: global grid extents `it × jt × kt`,
//! processor array `npe_i × npe_j`, k-plane blocking `mk`, angle blocking
//! `mmi`, S_N order and iteration count. The paper's validation tables use
//! weak scaling with 50×50×50 cells per processor, `mk = 10`, `mmi = 3`,
//! S6 (6 angles per octant) and 12 iterations.

use serde::{Deserialize, Serialize};

/// Global problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProblemConfig {
    /// Global cells in `i`.
    pub it: usize,
    /// Global cells in `j`.
    pub jt: usize,
    /// Global cells in `k` (never decomposed).
    pub kt: usize,
    /// Processors in `i`.
    pub npe_i: usize,
    /// Processors in `j`.
    pub npe_j: usize,
    /// k-plane blocking factor (`mk` in the paper; 10 in all experiments).
    pub mk: usize,
    /// Angle blocking factor (`mmi`; 3 in all experiments).
    pub mmi: usize,
    /// S_N quadrature order (even; 6 per the standard SWEEP3D setup,
    /// giving `N(N+2)/8 = 6` angles per octant).
    pub sn_order: usize,
    /// Source-iteration count (`epsi < 0` in the deck fixes the count;
    /// 12 in the paper).
    pub iterations: usize,
    /// Total macroscopic cross-section Σt (uniform).
    pub sigma_t: f64,
    /// Scattering ratio c = Σs/Σt (< 1 for a well-posed problem).
    pub scattering_ratio: f64,
    /// Cell size in each dimension (uniform cube cells).
    pub cell_size: f64,
    /// External volumetric source strength in the source region.
    pub source_strength: f64,
    /// Reflective boundary at the bottom (`k = 0`) face: a downward sweep's
    /// exit flux re-enters the paired upward sweep (paper §2, "Boundary
    /// conditions (vacuum or reflective)"). The top face stays vacuum.
    pub reflective_k: bool,
}

impl ProblemConfig {
    /// The paper's weak-scaling validation configuration: `cells_per_pe³`
    /// cells per processor on a `px × py` array.
    pub fn weak_scaling(cells_per_pe: usize, px: usize, py: usize) -> Self {
        ProblemConfig {
            it: cells_per_pe * px,
            jt: cells_per_pe * py,
            kt: cells_per_pe,
            npe_i: px,
            npe_j: py,
            mk: 10,
            mmi: 3,
            sn_order: 6,
            iterations: 12,
            sigma_t: 1.0,
            scattering_ratio: 0.5,
            cell_size: 1.0,
            source_strength: 1.0,
            reflective_k: false,
        }
    }

    /// Total cells in the global grid.
    pub fn total_cells(&self) -> usize {
        self.it * self.jt * self.kt
    }

    /// Total ranks.
    pub fn num_pes(&self) -> usize {
        self.npe_i * self.npe_j
    }

    /// Angles per octant for the configured S_N order: `N(N+2)/8`.
    pub fn angles_per_octant(&self) -> usize {
        self.sn_order * (self.sn_order + 2) / 8
    }

    /// Number of angle blocks per octant (`ceil(angles / mmi)`).
    pub fn angle_blocks(&self) -> usize {
        self.angles_per_octant().div_ceil(self.mmi)
    }

    /// Number of k-plane blocks (`ceil(kt / mk)`).
    pub fn k_blocks(&self) -> usize {
        self.kt.div_ceil(self.mk)
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.it == 0 || self.jt == 0 || self.kt == 0 {
            return Err("grid extents must be nonzero".into());
        }
        if self.npe_i == 0 || self.npe_j == 0 {
            return Err("processor array extents must be nonzero".into());
        }
        if self.it < self.npe_i || self.jt < self.npe_j {
            return Err(format!(
                "grid {}x{} smaller than processor array {}x{}",
                self.it, self.jt, self.npe_i, self.npe_j
            ));
        }
        if self.mk == 0 || self.mmi == 0 {
            return Err("blocking factors must be nonzero".into());
        }
        if self.sn_order < 2 || !self.sn_order.is_multiple_of(2) {
            return Err(format!("S_N order must be even and ≥ 2, got {}", self.sn_order));
        }
        if self.iterations == 0 {
            return Err("need at least one iteration".into());
        }
        if !(0.0..1.0).contains(&self.scattering_ratio) {
            return Err("scattering ratio must be in [0, 1)".into());
        }
        if self.sigma_t <= 0.0 || self.cell_size <= 0.0 {
            return Err("sigma_t and cell size must be positive".into());
        }
        Ok(())
    }

    /// Parse a simple `key = value` input deck (one pair per line, `#`
    /// comments), in the spirit of the SWEEP3D `input` file.
    pub fn parse_deck(text: &str) -> Result<Self, String> {
        let mut c = Self::weak_scaling(50, 1, 1);
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            let key = key.trim();
            let value = value.trim();
            let parse_usize =
                |v: &str| v.parse::<usize>().map_err(|e| format!("line {}: {e}", lineno + 1));
            let parse_f64 =
                |v: &str| v.parse::<f64>().map_err(|e| format!("line {}: {e}", lineno + 1));
            match key {
                "it" => c.it = parse_usize(value)?,
                "jt" => c.jt = parse_usize(value)?,
                "kt" => c.kt = parse_usize(value)?,
                "npe_i" => c.npe_i = parse_usize(value)?,
                "npe_j" => c.npe_j = parse_usize(value)?,
                "mk" => c.mk = parse_usize(value)?,
                "mmi" => c.mmi = parse_usize(value)?,
                "sn" => c.sn_order = parse_usize(value)?,
                "iterations" | "itmax" => c.iterations = parse_usize(value)?,
                "sigma_t" => c.sigma_t = parse_f64(value)?,
                "scattering_ratio" => c.scattering_ratio = parse_f64(value)?,
                "cell_size" => c.cell_size = parse_f64(value)?,
                "source" => c.source_strength = parse_f64(value)?,
                "reflective_k" => c.reflective_k = parse_usize(value)? != 0,
                other => return Err(format!("line {}: unknown key '{other}'", lineno + 1)),
            }
        }
        c.validate()?;
        Ok(c)
    }
}

/// The per-rank decomposition of the global grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decomposition {
    /// First global `i` cell owned.
    pub i0: usize,
    /// Local cells in `i`.
    pub nx: usize,
    /// First global `j` cell owned.
    pub j0: usize,
    /// Local cells in `j`.
    pub ny: usize,
    /// Local cells in `k` (= `kt`; k is never decomposed).
    pub nz: usize,
}

impl Decomposition {
    /// The subgrid owned by processor `(pi, pj)`. Remainder cells are
    /// distributed to the lowest-indexed processors, matching the original
    /// code's block distribution.
    pub fn for_pe(config: &ProblemConfig, pi: usize, pj: usize) -> Self {
        assert!(pi < config.npe_i && pj < config.npe_j);
        let (i0, nx) = split(config.it, config.npe_i, pi);
        let (j0, ny) = split(config.jt, config.npe_j, pj);
        Decomposition { i0, nx, j0, ny, nz: config.kt }
    }

    /// Local cell count.
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// Block distribution of `n` cells over `p` parts: part `idx` gets its
/// offset and length.
fn split(n: usize, p: usize, idx: usize) -> (usize, usize) {
    let base = n / p;
    let rem = n % p;
    let len = base + usize::from(idx < rem);
    let offset = idx * base + idx.min(rem);
    (offset, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_shape() {
        let c = ProblemConfig::weak_scaling(50, 4, 8);
        assert_eq!((c.it, c.jt, c.kt), (200, 400, 50));
        assert_eq!(c.num_pes(), 32);
        assert_eq!(c.angles_per_octant(), 6);
        assert_eq!(c.angle_blocks(), 2);
        assert_eq!(c.k_blocks(), 5);
        c.validate().unwrap();
    }

    #[test]
    fn table_row_matches_paper() {
        // Table 1 row: 400x700x50 on 8x14.
        let c = ProblemConfig::weak_scaling(50, 8, 14);
        assert_eq!((c.it, c.jt, c.kt), (400, 700, 50));
        assert_eq!(c.num_pes(), 112);
        let d = Decomposition::for_pe(&c, 0, 0);
        assert_eq!((d.nx, d.ny, d.nz), (50, 50, 50));
    }

    #[test]
    fn split_covers_exactly() {
        for n in [1usize, 7, 50, 99, 100] {
            for p in [1usize, 2, 3, 7, 10] {
                if p > n {
                    continue;
                }
                let mut total = 0;
                let mut next = 0;
                for idx in 0..p {
                    let (off, len) = split(n, p, idx);
                    assert_eq!(off, next, "parts must tile contiguously");
                    assert!(len > 0);
                    next = off + len;
                    total += len;
                }
                assert_eq!(total, n);
            }
        }
    }

    #[test]
    fn split_is_balanced() {
        for idx in 0..3 {
            let (_, len) = split(10, 3, idx);
            assert!((3..=4).contains(&len));
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ProblemConfig::weak_scaling(50, 2, 2);
        c.sn_order = 5;
        assert!(c.validate().is_err());
        let mut c = ProblemConfig::weak_scaling(50, 2, 2);
        c.mk = 0;
        assert!(c.validate().is_err());
        let mut c = ProblemConfig::weak_scaling(50, 2, 2);
        c.scattering_ratio = 1.5;
        assert!(c.validate().is_err());
        let mut c = ProblemConfig::weak_scaling(50, 2, 2);
        c.it = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn deck_roundtrip() {
        let deck = "
            # SWEEP3D-style deck
            it = 100
            jt = 100
            kt = 50   # k planes
            npe_i = 2
            npe_j = 2
            mk = 10
            mmi = 3
            sn = 6
            itmax = 12
        ";
        let c = ProblemConfig::parse_deck(deck).unwrap();
        assert_eq!((c.it, c.jt, c.kt), (100, 100, 50));
        assert_eq!(c.num_pes(), 4);
        assert_eq!(c.iterations, 12);
    }

    #[test]
    fn deck_errors_are_located() {
        let err = ProblemConfig::parse_deck("it = 100\nbogus = 3\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = ProblemConfig::parse_deck("it 100").unwrap_err();
        assert!(err.contains("key = value"), "{err}");
    }

    #[test]
    fn odd_decomposition_remainder() {
        let mut c = ProblemConfig::weak_scaling(50, 3, 1);
        c.it = 100; // 100 over 3 PEs: 34, 33, 33
        let sizes: Vec<usize> = (0..3).map(|pi| Decomposition::for_pe(&c, pi, 0).nx).collect();
        assert_eq!(sizes, vec![34, 33, 33]);
    }
}
