//! What the EM loop needs of a model's parameters, whatever the model.
//!
//! [`crate::EmSession`] drives every model through one loop; the
//! parameter set is the only thing that differs between them. Two types
//! implement [`ParamSet`]: [`GmmParams`] — the paper's shared diagonal R,
//! and K-means, which is that model with R = I and W = 1/k (§2.2) — and
//! [`FullParams`], one diagonal Σ per cluster (§2.1).

use emcore::emfull::FullParams;
use emcore::GmmParams;

use crate::error::SqlemError;

/// The loop's view of a model's parameters: shape, finiteness, the
/// param-ε distance, the degenerate-cluster re-seed and the checkpoint
/// cells.
pub trait ParamSet: Clone + std::fmt::Debug + PartialEq {
    /// `(k, p)`.
    fn shape(&self) -> (usize, usize);

    /// Lift a shared-covariance parameter set — what the initializers of
    /// [`emcore::init`] produce — into this type.
    fn from_gmm(params: GmmParams) -> Self;

    /// The checkpoint cells: means (`k × p`), covariance cells
    /// ([`ParamSet::cov_len`] of them, in storage order) and weights.
    fn cells(&self) -> (&[Vec<f64>], Vec<f64>, &[f64]);

    /// How many covariance cells a `(k, p)` parameter set has.
    fn cov_len(k: usize, p: usize) -> usize;

    /// Rebuild from checkpoint cells whose lengths the caller checked
    /// against `(k, p)`.
    fn from_cells(means: Vec<Vec<f64>>, cov: Vec<f64>, weights: Vec<f64>) -> Self;

    /// The cluster covariance cell `i` belongs to, for error reports (for
    /// the global R, the dimension).
    fn cov_owner(i: usize, p: usize) -> usize;

    /// Deterministically re-seed the dead cluster `j`: its mean moves
    /// near the surviving clusters' centroid, its weight becomes `1/k`,
    /// non-finite cells are repaired.
    fn reseed(&mut self, j: usize, seed: u64, round: usize);

    /// Validate that every cell read back from the parameter tables is
    /// finite, naming the first offender (satellite of the §2.5
    /// safeguards: the generated SQL guards against *expected*
    /// degeneracies, this guards the read-back against everything else).
    fn check_finite(&self) -> Result<(), SqlemError> {
        let (means, cov, weights) = self.cells();
        let p = self.shape().1;
        let bad = |cluster, param| Err(SqlemError::Degenerate { cluster, param });
        for (j, mean) in means.iter().enumerate() {
            if let Some(d) = mean.iter().position(|v| !v.is_finite()) {
                return bad(j, format!("mean y{}", d + 1));
            }
        }
        if let Some(j) = weights.iter().position(|w| !w.is_finite()) {
            return bad(j, "weight".to_string());
        }
        if let Some(i) = cov.iter().position(|v| !v.is_finite()) {
            return bad(Self::cov_owner(i, p), format!("covariance r{}", i % p + 1));
        }
        Ok(())
    }

    /// Largest absolute cell difference, clusters matched by index — the
    /// [`crate::SqlemConfig::param_epsilon`] test between iterations.
    fn max_diff(&self, other: &Self) -> f64 {
        let (ma, ca, wa) = self.cells();
        let (mb, cb, wb) = other.cells();
        let means = ma.iter().flatten().zip(mb.iter().flatten());
        means
            .chain(ca.iter().zip(&cb))
            .chain(wa.iter().zip(wb))
            .fold(0.0, |worst: f64, (x, y)| worst.max((x - y).abs()))
    }
}

impl ParamSet for GmmParams {
    fn shape(&self) -> (usize, usize) {
        (self.k(), self.p())
    }

    fn from_gmm(params: GmmParams) -> Self {
        params
    }

    fn cells(&self) -> (&[Vec<f64>], Vec<f64>, &[f64]) {
        (&self.means, self.cov.clone(), &self.weights)
    }

    fn cov_len(_k: usize, p: usize) -> usize {
        p
    }

    fn from_cells(means: Vec<Vec<f64>>, cov: Vec<f64>, weights: Vec<f64>) -> Self {
        GmmParams {
            means,
            cov,
            weights,
        }
    }

    fn cov_owner(i: usize, _p: usize) -> usize {
        i
    }

    fn reseed(&mut self, j: usize, seed: u64, round: usize) {
        reseed_shared(self, j, seed, round);
    }
}

impl ParamSet for FullParams {
    fn shape(&self) -> (usize, usize) {
        (self.k(), self.p())
    }

    fn from_gmm(params: GmmParams) -> Self {
        FullParams::from_shared(&params)
    }

    fn cells(&self) -> (&[Vec<f64>], Vec<f64>, &[f64]) {
        (&self.means, self.covs.concat(), &self.weights)
    }

    fn cov_len(k: usize, p: usize) -> usize {
        k * p
    }

    fn from_cells(means: Vec<Vec<f64>>, cov: Vec<f64>, weights: Vec<f64>) -> Self {
        let p = means.first().map_or(1, Vec::len).max(1);
        let covs = cov.chunks(p).map(<[f64]>::to_vec).collect();
        FullParams {
            means,
            covs,
            weights,
        }
    }

    fn cov_owner(i: usize, p: usize) -> usize {
        i / p
    }

    /// The shared-R re-seed with R = the surviving clusters' pooled
    /// spread, which also becomes the dead cluster's covariance; any
    /// other non-finite or negative cell is reset to 1.
    fn reseed(&mut self, j: usize, seed: u64, round: usize) {
        let live = |d: usize| {
            let cells: Vec<f64> = (self.covs.iter().enumerate())
                .filter(|&(i, c)| i != j && c[d].is_finite() && c[d] >= 0.0)
                .map(|(_, c)| c[d])
                .collect();
            if cells.is_empty() {
                1.0
            } else {
                cells.iter().sum::<f64>() / cells.len() as f64
            }
        };
        let pooled = (0..self.p()).map(live).collect();
        let mut shared = GmmParams {
            means: std::mem::take(&mut self.means),
            cov: pooled,
            weights: std::mem::take(&mut self.weights),
        };
        reseed_shared(&mut shared, j, seed, round);
        for c in self.covs.iter_mut().flatten() {
            if !c.is_finite() || *c < 0.0 {
                *c = 1.0;
            }
        }
        self.covs[j] = shared.cov;
        self.means = shared.means;
        self.weights = shared.weights;
    }
}

/// Deterministically re-seed cluster `j` of a degenerate shared-R model:
/// repair any non-finite cells, move the dead cluster's mean to the
/// centroid of the surviving means plus a seeded jitter of one standard
/// deviation, and give it weight `1/k` (renormalizing the rest). Pure
/// splitmix64 — the same `(seed, round, j)` always produces the same
/// re-seed.
fn reseed_shared(params: &mut GmmParams, j: usize, seed: u64, round: usize) {
    let k = params.k();
    let p = params.p();
    let mix = |x: u64| -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Repair non-finite covariance cells first; their sqrt scales the
    // jitter below.
    for c in &mut params.cov {
        if !c.is_finite() || *c < 0.0 {
            *c = 1.0;
        }
    }
    for d in 0..p {
        let (mut sum, mut cnt) = (0.0, 0usize);
        for (i, mean) in params.means.iter().enumerate() {
            if i != j && mean[d].is_finite() {
                sum += mean[d];
                cnt += 1;
            }
        }
        let centroid = if cnt > 0 { sum / cnt as f64 } else { 0.0 };
        let h = mix(seed
            ^ (round as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ ((j * p + d) as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        // Uniform in [-1, 1).
        let u = ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) * 2.0 - 1.0;
        let sigma = params.cov[d].sqrt().max(1e-6);
        params.means[j][d] = centroid + u * sigma;
    }
    // Repair any other dead mean cells without moving live clusters.
    for mean in &mut params.means {
        for v in mean.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }
    let w_new = 1.0 / k as f64;
    let others: f64 = params
        .weights
        .iter()
        .enumerate()
        .filter(|&(i, w)| i != j && w.is_finite())
        .map(|(_, w)| *w)
        .sum();
    if others > 0.0 && others.is_finite() {
        let scale = (1.0 - w_new) / others;
        for (i, w) in params.weights.iter_mut().enumerate() {
            if i != j {
                *w = if w.is_finite() { *w * scale } else { 0.0 };
            }
        }
    } else {
        // Everything died: flat restart.
        for w in params.weights.iter_mut() {
            *w = w_new;
        }
    }
    params.weights[j] = w_new;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init_params() -> GmmParams {
        GmmParams::new(
            vec![vec![3.0, 3.0], vec![7.0, 7.0]],
            vec![10.0, 10.0],
            vec![0.5, 0.5],
        )
    }

    #[test]
    fn check_finite_names_first_offender() {
        let mut p = init_params();
        assert!(p.check_finite().is_ok());
        p.means[1][0] = f64::NAN;
        match p.check_finite().unwrap_err() {
            SqlemError::Degenerate { cluster, param } => {
                assert_eq!(cluster, 1);
                assert_eq!(param, "mean y1");
            }
            other => panic!("unexpected {other}"),
        }
        let mut p = init_params();
        p.cov[1] = f64::INFINITY;
        match p.check_finite().unwrap_err() {
            SqlemError::Degenerate { cluster, param } => {
                assert_eq!(cluster, 1);
                assert_eq!(param, "covariance r2");
            }
            other => panic!("unexpected {other}"),
        }
        let mut p = init_params();
        p.weights[0] = f64::NAN;
        assert!(matches!(
            p.check_finite(),
            Err(SqlemError::Degenerate { cluster: 0, .. })
        ));
        // Per-cluster covariances name their cluster, not the dimension.
        let mut full = FullParams::from_gmm(init_params());
        full.covs[1][0] = f64::NAN;
        match full.check_finite().unwrap_err() {
            SqlemError::Degenerate { cluster, param } => {
                assert_eq!((cluster, param.as_str()), (1, "covariance r1"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn reseed_repairs_and_renormalizes() {
        let mut p = GmmParams {
            means: vec![vec![0.0, 0.0], vec![f64::NAN, 1.0e9]],
            cov: vec![4.0, f64::NAN],
            weights: vec![1.0, 0.0],
        };
        p.reseed(1, 7, 0);
        p.validate().expect("re-seeded model is structurally valid");
        assert!((p.weights[1] - 0.5).abs() < 1e-12, "dead cluster gets 1/k");
        assert!(p.weights_normalized());
        // Mean lands near the surviving cluster, jittered by ≤ sqrt(cov).
        assert!(p.means[1][0].abs() <= 2.0 + 1e-9, "{:?}", p.means[1]);
        assert_eq!(p.cov[1], 1.0, "non-finite covariance reset");

        // Determinism in (seed, round); sensitivity to both.
        let mk = || GmmParams {
            means: vec![vec![0.0, 0.0], vec![f64::NAN, 1.0e9]],
            cov: vec![4.0, f64::NAN],
            weights: vec![1.0, 0.0],
        };
        let (mut a, mut b, mut c, mut d) = (mk(), mk(), mk(), mk());
        a.reseed(1, 7, 0);
        b.reseed(1, 7, 0);
        c.reseed(1, 8, 0);
        d.reseed(1, 7, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn per_cluster_reseed_pools_the_live_spread() {
        let mut p = FullParams {
            means: vec![vec![0.0, 0.0], vec![f64::NAN, 1.0], vec![4.0, 4.0]],
            covs: vec![vec![2.0, 4.0], vec![f64::NAN, -1.0], vec![4.0, 8.0]],
            weights: vec![0.5, 0.0, 0.5],
        };
        p.reseed(1, 7, 0);
        p.validate().expect("re-seeded model is structurally valid");
        assert_eq!(p.covs[1], vec![3.0, 6.0], "mean of the live clusters");
        assert!((p.weights[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!(p.means[1].iter().all(|m| m.is_finite()));
    }

    #[test]
    fn cells_round_trip_and_measure_distance() {
        let full = FullParams {
            means: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            covs: vec![vec![5.0, 6.0], vec![7.0, 8.0]],
            weights: vec![0.25, 0.75],
        };
        let (means, cov, weights) = full.cells();
        assert_eq!(cov.len(), FullParams::cov_len(2, 2));
        let back = FullParams::from_cells(means.to_vec(), cov, weights.to_vec());
        assert_eq!(back, full);
        let mut moved = full.clone();
        moved.covs[1][0] += 0.5;
        assert_eq!(full.max_diff(&moved), 0.5);
        let a = init_params();
        let mut b = a.clone();
        b.weights = vec![0.25, 0.75];
        assert_eq!(a.max_diff(&b), emcore::compare::direct_max_diff(&a, &b));
    }
}
