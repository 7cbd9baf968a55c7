//! K-means clustering (Lloyd's algorithm).
//!
//! The paper (§2.2) observes that "the popular K-means clustering
//! algorithm is a particular case of EM when W and R are fixed:
//! `W = 1/k, R = I`" and that SQLEM trivially simplifies to it. This
//! module is the in-memory baseline for the SQL K-means of
//! `sqlem::KmeansGenerator`.

use prng::{Rng, StdRng};

/// Result of a K-means run.
#[derive(Debug, Clone)]
pub struct KmeansRun {
    /// Final centroids, `k × p`.
    pub centroids: Vec<Vec<f64>>,
    /// Hard assignment of each point to a centroid index.
    pub assignments: Vec<usize>,
    /// Sum of squared distances from each point to its centroid.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether assignments stopped changing before the cap.
    pub converged: bool,
}

/// Squared Euclidean distance (the `R = I` Mahalanobis distance).
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Run K-means from explicit starting centroids.
pub fn kmeans_from(
    points: &[Vec<f64>],
    mut centroids: Vec<Vec<f64>>,
    max_iterations: usize,
) -> KmeansRun {
    assert!(!points.is_empty(), "no points");
    let k = centroids.len();
    assert!(k >= 1, "k must be at least 1");
    let p = points[0].len();
    assert!(centroids.iter().all(|c| c.len() == p), "centroid dims");

    let mut assignments = vec![0usize; points.len()];
    let mut converged = false;
    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        // Assign.
        let mut changed = false;
        for (i, pt) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (j, c) in centroids.iter().enumerate() {
                let d = sq_dist(pt, c);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![vec![0.0; p]; k];
        let mut counts = vec![0usize; k];
        for (pt, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for d in 0..p {
                sums[a][d] += pt[d];
            }
        }
        for j in 0..k {
            if counts[j] > 0 {
                for d in 0..p {
                    centroids[j][d] = sums[j][d] / counts[j] as f64;
                }
            }
            // Empty clusters keep their centroid (they may capture points
            // later); so does the SQL variant, whose M step updates a
            // centroid only where the cluster's Σx > 0.
        }
        if !changed {
            converged = true;
            break;
        }
    }
    let inertia = points
        .iter()
        .zip(&assignments)
        .map(|(pt, &a)| sq_dist(pt, &centroids[a]))
        .sum();
    KmeansRun {
        centroids,
        assignments,
        inertia,
        iterations,
        converged,
    }
}

/// Run K-means with centroids seeded from `k` distinct random points.
pub fn kmeans(points: &[Vec<f64>], k: usize, max_iterations: usize, seed: u64) -> KmeansRun {
    assert!(k <= points.len(), "k exceeds the number of points");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::new();
    let mut centroids = Vec::with_capacity(k);
    while centroids.len() < k {
        let i = rng.random_range(0..points.len());
        if chosen.insert(i) {
            centroids.push(points[i].clone());
        }
    }
    kmeans_from(points, centroids, max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..30 {
            pts.push(vec![(i % 3) as f64 * 0.1, 0.0]);
            pts.push(vec![8.0 + (i % 3) as f64 * 0.1, 8.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let run = kmeans_from(&two_blobs(), vec![vec![1.0, 1.0], vec![7.0, 7.0]], 50);
        assert!(run.converged);
        let mut cx: Vec<f64> = run.centroids.iter().map(|c| c[0]).collect();
        cx.sort_by(f64::total_cmp);
        assert!((cx[0] - 0.1).abs() < 0.01);
        assert!((cx[1] - 8.1).abs() < 0.01);
        // All points in a blob share an assignment.
        let first = run.assignments[0];
        for (pt, &a) in two_blobs().iter().zip(&run.assignments) {
            if pt[0] < 4.0 {
                assert_eq!(a, first);
            } else {
                assert_ne!(a, first);
            }
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blobs();
        let r1 = kmeans(&pts, 1, 50, 7);
        let r2 = kmeans(&pts, 2, 50, 7);
        assert!(r2.inertia < r1.inertia);
    }

    #[test]
    fn k_equals_one_finds_the_mean() {
        let pts = vec![vec![0.0], vec![10.0]];
        let run = kmeans_from(&pts, vec![vec![3.0]], 10);
        assert_eq!(run.centroids[0][0], 5.0);
        assert!(run.converged);
    }

    #[test]
    fn deterministic_under_seed() {
        let pts = two_blobs();
        let a = kmeans(&pts, 2, 50, 42);
        let b = kmeans(&pts, 2, 50, 42);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        // Second centroid is so far away it never wins a point.
        let pts = vec![vec![0.0], vec![1.0]];
        let run = kmeans_from(&pts, vec![vec![0.5], vec![1000.0]], 10);
        assert_eq!(run.centroids[1][0], 1000.0);
    }
}
