//! Table and column naming conventions (paper §3.2 and Figs. 4, 6, 8).
//!
//! Column conventions follow the paper exactly: `RID` is the row id,
//! `i` a cluster index, `v` a variable (dimension) index, `val` a value,
//! `y1…yp` point coordinates, `d1…dk` distances, `p1…pk` probabilities,
//! `x1…xk` responsibilities, `w1…wk` weights.

/// Resolved table names for one session (optionally prefixed).
#[derive(Debug, Clone)]
pub struct Names {
    prefix: String,
}

impl Names {
    /// Names with a prefix (may be empty).
    pub fn new(prefix: &str) -> Self {
        Names {
            prefix: prefix.to_ascii_lowercase(),
        }
    }

    fn t(&self, base: &str) -> String {
        format!("{}{}", self.prefix, base)
    }

    /// Horizontal points table (hybrid `Z`, Fig. 8).
    pub fn z(&self) -> String {
        self.t("z")
    }
    /// Vertical points table `Y(RID, v, val)` (Figs. 6, 8).
    pub fn y(&self) -> String {
        self.t("y")
    }
    /// Distances.
    pub fn yd(&self) -> String {
        self.t("yd")
    }
    /// Probabilities.
    pub fn yp(&self) -> String {
        self.t("yp")
    }
    /// Responsibilities.
    pub fn yx(&self) -> String {
        self.t("yx")
    }
    /// Per-point Σp (vertical strategy, Fig. 7).
    pub fn ysump(&self) -> String {
        self.t("ysump")
    }
    /// Means (hybrid: `(i, y1…yp)`; vertical: `(i, v, val)`).
    pub fn c(&self) -> String {
        self.t("c")
    }
    /// One of the horizontal strategy's k mean tables `C1…CK` (Fig. 4).
    pub fn c_j(&self, j: usize) -> String {
        self.t(&format!("c{j}"))
    }
    /// Global covariances.
    pub fn r(&self) -> String {
        self.t("r")
    }
    /// Per-cluster covariance accumulators (hybrid `RK`, Fig. 8).
    pub fn rk(&self) -> String {
        self.t("rk")
    }
    /// Transposed means+covariances `CR(v, C1…Ck, R)` (hybrid, Fig. 8).
    pub fn cr(&self) -> String {
        self.t("cr")
    }
    /// Weights.
    pub fn w(&self) -> String {
        self.t("w")
    }
    /// Remaining scalar parameters (`n`, `twopipdiv2`, `detR`,
    /// `sqrtdetR`).
    pub fn gmm(&self) -> String {
        self.t("gmm")
    }
    /// Vertical copy of responsibilities used for scoring (Fig. 8 `X`).
    pub fn x(&self) -> String {
        self.t("x")
    }
    /// Per-point max responsibility (Fig. 8 `XMAX`).
    pub fn xmax(&self) -> String {
        self.t("xmax")
    }
    /// Per-point winning cluster ("score"); the paper stores it as a YX
    /// column, we keep it in its own table to stay insert-only.
    pub fn ys(&self) -> String {
        self.t("ys")
    }
    /// Unnormalized means: vertical `(i, v, cv)`, K-means `(i, x,
    /// y1…yp)` with the cluster mass `x = Σ x_j`.
    pub fn ctmp(&self) -> String {
        self.t("ctmp")
    }
    /// Vertical strategy scratch: per-cluster responsibility sums.
    pub fn wv(&self) -> String {
        self.t("wv")
    }
    /// Vertical strategy scratch: squared differences (the `kpn`-row YC
    /// table of §3.4).
    pub fn yc(&self) -> String {
        self.t("yc")
    }
    /// Vertical strategy scratch: 1-row determinant staging.
    pub fn dett(&self) -> String {
        self.t("dett")
    }

    /// The durable checkpoint table: every generation's cells as
    /// `(iteration, part, i, val)` rows (see [`crate::checkpoint`]).
    /// Deliberately *not* part of [`Names::all`]: session cleanup must
    /// preserve checkpoints so a later session can resume; use
    /// [`crate::checkpoint::clear_checkpoint`] to drop it.
    pub fn ckpt(&self) -> String {
        self.t("ckpt")
    }

    /// Every table this session may create (used by cleanup).
    pub fn all(&self, k: usize) -> Vec<String> {
        let mut names = vec![
            self.z(),
            self.y(),
            self.yd(),
            self.yp(),
            self.yx(),
            self.ysump(),
            self.c(),
            self.r(),
            self.rk(),
            self.cr(),
            self.w(),
            self.gmm(),
            self.x(),
            self.xmax(),
            self.ys(),
            self.ctmp(),
            self.wv(),
            self.yc(),
            self.dett(),
        ];
        for j in 1..=k {
            names.push(self.c_j(j));
        }
        names
    }
}

/// `y1, y2, …, yp` style column-name list.
pub fn cols(stem: &str, count: usize) -> Vec<String> {
    (1..=count).map(|i| format!("{stem}{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_applies_to_everything() {
        let n = Names::new("S1_");
        assert_eq!(n.z(), "s1_z");
        assert_eq!(n.c_j(3), "s1_c3");
        assert!(n.all(2).iter().all(|t| t.starts_with("s1_")));
    }

    #[test]
    fn all_lists_k_mean_tables() {
        let n = Names::new("");
        let all = n.all(4);
        assert!(all.contains(&"c1".to_string()));
        assert!(all.contains(&"c4".to_string()));
        assert!(!all.contains(&"c5".to_string()));
    }

    #[test]
    fn cols_generates_numbered_names() {
        assert_eq!(cols("d", 3), vec!["d1", "d2", "d3"]);
        assert!(cols("x", 0).is_empty());
    }
}
