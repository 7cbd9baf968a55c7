//! Exactly-rounded floating-point summation for distributed aggregation.
//!
//! SUM/AVG accumulators must produce **bit-identical** results no matter
//! how the input rows are partitioned — across execution threads today,
//! across cluster shards tomorrow. Naive `f64` accumulation cannot: it
//! rounds after every addition, so the result depends on addition order.
//!
//! [`ExactSum`] keeps the running sum as a *nonoverlapping expansion* —
//! a list of `f64` components whose bit ranges do not overlap and whose
//! mathematical sum is the exact (error-free) sum of everything added so
//! far (Shewchuk, *Adaptive Precision Floating-Point Arithmetic*, 1997).
//! Adding a value or merging another accumulator is exact; only
//! [`ExactSum::finalize`] rounds, once, to the nearest `f64`. The result
//! is therefore the correctly-rounded sum of the multiset of inputs —
//! independent of insertion order, partitioning, and merge shape.
//!
//! Non-finite inputs are tracked as flags (IEEE semantics: any NaN, or
//! both `+∞` and `-∞`, poison the sum to NaN; a single infinity sign
//! wins). Finite inputs never saturate early: a pair whose rounded sum
//! would overflow is simply kept as two components (the expansion loses
//! its nonoverlapping shape, which the fixed-point finalize does not
//! need), so ±∞ appears only when the *final* exact sum rounds outside
//! the `f64` range — exactly the IEEE single-rounding answer.

/// Error-free transformation: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` exactly (Knuth two-sum; branch-free, no magnitude
/// ordering required).
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bv = s - a;
    let av = s - bv;
    let br = b - bv;
    let ar = a - av;
    (s, ar + br)
}

/// Expansion components kept inside the accumulator before it spills to
/// the heap. Sums of same-scale values (every EM statistic) stay within
/// two or three components, so a GROUP BY table of accumulators is one
/// allocation per group instead of one more per accumulator.
const INLINE_COMPS: usize = 4;

/// The expansion: inline up to [`INLINE_COMPS`] components, on the heap
/// (all of them, so the list stays one slice) once it outgrows that.
#[derive(Debug, Clone)]
enum Comps {
    Inline { buf: [f64; INLINE_COMPS], len: u8 },
    Heap(Vec<f64>),
}

impl Comps {
    fn as_slice(&self) -> &[f64] {
        match self {
            Comps::Inline { buf, len } => &buf[..*len as usize],
            Comps::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            Comps::Inline { buf, len } => &mut buf[..*len as usize],
            Comps::Heap(v) => v,
        }
    }

    /// Keep the first `n` components (`n` ≤ current length).
    fn truncate(&mut self, n: usize) {
        match self {
            Comps::Inline { len, .. } => *len = n as u8,
            Comps::Heap(v) => v.truncate(n),
        }
    }

    fn push(&mut self, x: f64) {
        match self {
            Comps::Inline { buf, len } if (*len as usize) < INLINE_COMPS => {
                buf[*len as usize] = x;
                *len += 1;
            }
            Comps::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_COMPS);
                v.extend_from_slice(buf);
                v.push(x);
                *self = Comps::Heap(v);
            }
            Comps::Heap(v) => v.push(x),
        }
    }
}

impl Default for Comps {
    fn default() -> Self {
        Comps::Inline {
            buf: [0.0; INLINE_COMPS],
            len: 0,
        }
    }
}

/// An exact, order-independent `f64` sum accumulator.
///
/// `add` values (or `merge` other accumulators) in any order, then
/// `finalize` to get the unique correctly-rounded `f64` sum.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Expansion components (finite; nonzero unless they arrived through
    /// [`ExactSum::from_parts`]) whose mathematical sum is the exact sum
    /// of all finite inputs so far. Normally
    /// nonoverlapping and in increasing magnitude order; pairs whose
    /// rounded sum would overflow stay uncombined (still exact), so the
    /// list can temporarily exceed the nonoverlapping bound when the
    /// running sum hovers beyond ±2^1024 — unreachable for any sane
    /// aggregate input.
    comps: Comps,
    /// A NaN was added (or `+∞` and `-∞` cancelled).
    has_nan: bool,
    /// A `+∞` was added.
    pos_inf: bool,
    /// A `-∞` was added.
    neg_inf: bool,
}

/// Equal states: the same component list (wherever it is stored) and the
/// same flags.
impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        self.to_parts() == other.to_parts()
    }
}

impl ExactSum {
    /// A fresh accumulator summing to zero.
    pub fn new() -> ExactSum {
        ExactSum::default()
    }

    /// Whether anything non-finite has been absorbed (the finalized
    /// value will be NaN or ±∞).
    pub fn is_poisoned(&self) -> bool {
        self.has_nan || self.pos_inf || self.neg_inf
    }

    /// Add one value exactly.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            self.has_nan = true;
            return;
        }
        if x.is_infinite() {
            if x > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        // Grow-expansion, in place: thread x through every component,
        // keeping the exact residual of each addition and eliminating
        // zeros. Each step writes at most one component, so the write
        // index never passes the read index.
        let mut q = x;
        let mut kept = 0;
        let comps = self.comps.as_mut_slice();
        for i in 0..comps.len() {
            let c = comps[i];
            let (hi, lo) = two_sum(q, c);
            if hi.is_infinite() {
                // |q + c| exceeds the f64 range, so the pair cannot be
                // renormalized. Keep c as its own component and thread
                // q onward: the decomposition stays exact, and only
                // the final rounding decides whether the sum really
                // overflows.
                comps[kept] = c;
                kept += 1;
                continue;
            }
            if lo != 0.0 {
                comps[kept] = lo;
                kept += 1;
            }
            q = hi;
        }
        self.comps.truncate(kept);
        if q != 0.0 {
            self.comps.push(q);
        }
    }

    /// Absorb another accumulator exactly. Associative and commutative
    /// up to bit-identical finalized results.
    pub fn merge(&mut self, other: &ExactSum) {
        self.has_nan |= other.has_nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        for &c in other.comps.as_slice() {
            self.add(c);
        }
    }

    /// Expose the raw state for serialization: the expansion components
    /// plus the `(has_nan, pos_inf, neg_inf)` flags.
    pub fn to_parts(&self) -> (&[f64], bool, bool, bool) {
        (
            self.comps.as_slice(),
            self.has_nan,
            self.pos_inf,
            self.neg_inf,
        )
    }

    /// Rebuild an accumulator from serialized parts. Finite components
    /// are kept as they arrived — any list of finite values is an exact
    /// state, neither `add` nor `finalize` needs a particular shape —
    /// so a decoded accumulator re-encodes to the same bytes; non-finite
    /// components fold into the flags.
    pub fn from_parts(comps: &[f64], has_nan: bool, pos_inf: bool, neg_inf: bool) -> ExactSum {
        let mut s = ExactSum {
            comps: Comps::default(),
            has_nan,
            pos_inf,
            neg_inf,
        };
        for &c in comps {
            if c.is_finite() {
                s.comps.push(c);
            } else {
                s.add(c);
            }
        }
        s
    }

    /// Round the exact sum to the nearest `f64` (ties to even).
    ///
    /// Expansion components are summed in a fixed-point accumulator wide
    /// enough to hold the exact value, then rounded once. (Summing the
    /// components in floating point would be only *faithfully* rounded:
    /// nonoverlapping expansions of the same value are not unique, so
    /// partition shape could still leak into the last bit.)
    pub fn finalize(&self) -> f64 {
        if self.has_nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let comps = self.comps.as_slice();
        if comps.is_empty() {
            return 0.0;
        }
        fixed_point_round(comps)
    }
}

/// Bit position (from the fixed-point LSB) of `2^-1074`, the smallest
/// positive f64. `LIMB_LSB_EXP + FLOOR_BIT = -1074`.
const FLOOR_BIT: i32 = 14;
/// Exponent of the fixed-point accumulator's least significant bit.
/// A multiple of 32 below -1074 so subnormal mantissas land on limb
/// boundaries cleanly.
const LIMB_LSB_EXP: i32 = -1088;
/// 32 value bits per signed 64-bit limb: headroom for thousands of
/// carries before propagation could overflow.
const LIMB_BITS: i32 = 32;
/// Limb count: bit positions up to `1023 + 52 + log2(#comps)` above the
/// LSB exponent. `70 * 32 = 2240` bits covers `2^1152` — far above any
/// finite expansion sum that did not already saturate.
const NLIMBS: usize = 70;

/// Sum the (finite) components into a signed fixed-point
/// accumulator and round to nearest-even `f64`.
fn fixed_point_round(comps: &[f64]) -> f64 {
    let mut limbs = [0i64; NLIMBS];
    for &c in comps {
        let bits = c.to_bits();
        let sign: i64 = if bits >> 63 == 1 { -1 } else { 1 };
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, exp_lsb) = if biased == 0 {
            // Subnormal: value = frac * 2^-1074.
            (frac, -1074i32)
        } else {
            // Normal: value = (2^52 + frac) * 2^(biased - 1075).
            ((1u64 << 52) | frac, biased as i32 - 1075)
        };
        if mant == 0 {
            continue;
        }
        let pos = exp_lsb - LIMB_LSB_EXP;
        debug_assert!(pos >= FLOOR_BIT);
        let limb = (pos / LIMB_BITS) as usize;
        let shift = (pos % LIMB_BITS) as u32;
        // mant (53 bits) << shift (≤31) spans ≤ 84 bits: three limbs.
        let wide = (mant as u128) << shift;
        let mask = (1u128 << LIMB_BITS) - 1;
        limbs[limb] += sign * ((wide & mask) as i64);
        limbs[limb + 1] += sign * (((wide >> LIMB_BITS) & mask) as i64);
        limbs[limb + 2] += sign * (((wide >> (2 * LIMB_BITS)) & mask) as i64);
    }
    propagate(&mut limbs);
    let mut neg = false;
    if limbs[NLIMBS - 1] < 0 {
        neg = true;
        for l in limbs.iter_mut() {
            *l = -*l;
        }
        propagate(&mut limbs);
    }

    // Highest set bit.
    let mut high: Option<i32> = None;
    for i in (0..NLIMBS).rev() {
        if limbs[i] != 0 {
            let top = 63 - (limbs[i] as u64).leading_zeros() as i32;
            high = Some(i as i32 * LIMB_BITS + top);
            break;
        }
    }
    let Some(h) = high else {
        return 0.0;
    };

    let bit = |pos: i32| -> u64 {
        if pos < 0 {
            return 0;
        }
        ((limbs[(pos / LIMB_BITS) as usize] >> (pos % LIMB_BITS)) & 1) as u64
    };

    // Keep 53 significant bits, clamped so the result LSB never drops
    // below 2^-1074 (bits below FLOOR_BIT cannot exist: every input has
    // exponent ≥ -1074, so a clamped extraction is exact).
    let lsb_pos = (h - 52).max(FLOOR_BIT);
    let mut mant: u64 = 0;
    for pos in (lsb_pos..=h).rev() {
        mant = (mant << 1) | bit(pos);
    }
    let guard = bit(lsb_pos - 1) == 1;
    let sticky = {
        let mut any = false;
        let whole = ((lsb_pos - 1).max(0) / LIMB_BITS) as usize;
        for (i, &l) in limbs.iter().enumerate().take(whole + 1) {
            let limb_base = i as i32 * LIMB_BITS;
            let mask_top = (lsb_pos - 1 - limb_base).min(LIMB_BITS);
            if mask_top <= 0 {
                break;
            }
            let mask = if mask_top >= LIMB_BITS {
                -1i64 as u64
            } else {
                (1u64 << mask_top) - 1
            };
            if (l as u64) & mask != 0 {
                any = true;
                break;
            }
        }
        any
    };
    let mut e_lsb = lsb_pos + LIMB_LSB_EXP;
    if guard && (sticky || mant & 1 == 1) {
        mant += 1;
        if mant == 1 << 53 {
            mant >>= 1;
            e_lsb += 1;
        }
    }
    compose(neg, mant, e_lsb)
}

/// Normalize limbs so each holds a value in `[0, 2^32)`, carrying
/// upward (Euclidean remainder keeps per-limb values nonnegative even
/// when mixed-sign accumulation drove some negative).
fn propagate(limbs: &mut [i64; NLIMBS]) {
    let base = 1i64 << LIMB_BITS;
    for i in 0..NLIMBS - 1 {
        let r = limbs[i].rem_euclid(base);
        let carry = (limbs[i] - r) >> LIMB_BITS;
        limbs[i] = r;
        limbs[i + 1] += carry;
    }
}

/// Build the `f64` with value `±mant * 2^e_lsb` (`mant < 2^53`,
/// `e_lsb ≥ -1074`), saturating to ±∞ above the representable range.
fn compose(neg: bool, mut mant: u64, mut e_lsb: i32) -> f64 {
    if mant == 0 {
        return 0.0;
    }
    while mant < (1 << 52) && e_lsb > -1074 {
        mant <<= 1;
        e_lsb -= 1;
    }
    let bits = if mant < (1 << 52) {
        // Subnormal (e_lsb parked at -1074).
        mant
    } else {
        let biased = (e_lsb + 1075) as u64;
        if biased >= 2047 {
            return if neg {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        (biased << 52) | (mant & ((1u64 << 52) - 1))
    };
    let v = f64::from_bits(bits);
    if neg {
        -v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(values: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &v in values {
            s.add(v);
        }
        s.finalize()
    }

    /// Tiny deterministic PRNG (splitmix64) for fuzz cases.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        fn f64_wide(&mut self) -> f64 {
            // Finite doubles across a wide exponent range.
            let m = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let e = (self.next() % 600) as i32 - 300;
            let s = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            s * m * 2f64.powi(e)
        }
    }

    #[test]
    fn simple_sums_match_naive() {
        assert_eq!(exact(&[]), 0.0);
        assert_eq!(exact(&[1.5]), 1.5);
        assert_eq!(exact(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(exact(&[0.1, 0.2]), 0.1 + 0.2);
        assert_eq!(exact(&[-4.0, 4.0]), 0.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Naive summation loses the 1.0 entirely.
        assert_eq!(exact(&[1.0e100, 1.0, -1.0e100]), 1.0);
        assert_eq!(exact(&[1.0, 1.0e100, -1.0e100, 1.0]), 2.0);
        // Sterbenz-adjacent cancellations at many scales.
        let mut vals = Vec::new();
        for e in (-200..200).step_by(7) {
            vals.push(2f64.powi(e));
            vals.push(-2f64.powi(e));
        }
        vals.push(3.25);
        assert_eq!(exact(&vals), 3.25);
    }

    #[test]
    fn order_independent() {
        let mut rng = Rng(0xD1CE);
        let vals: Vec<f64> = (0..200).map(|_| rng.f64_wide()).collect();
        let forward = exact(&vals);
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(forward.to_bits(), exact(&rev).to_bits());
        // A few deterministic shuffles.
        for seed in 1..5u64 {
            let mut r = Rng(seed);
            let mut shuffled = vals.clone();
            for i in (1..shuffled.len()).rev() {
                let j = (r.next() % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            assert_eq!(forward.to_bits(), exact(&shuffled).to_bits());
        }
    }

    #[test]
    fn merge_matches_flat_sum_any_split() {
        let mut rng = Rng(42);
        let vals: Vec<f64> = (0..120).map(|_| rng.f64_wide()).collect();
        let flat = exact(&vals);
        for nparts in [1usize, 2, 3, 4, 7] {
            let mut parts: Vec<ExactSum> = (0..nparts).map(|_| ExactSum::new()).collect();
            for (i, &v) in vals.iter().enumerate() {
                parts[i % nparts].add(v);
            }
            // Left fold.
            let mut left = ExactSum::new();
            for p in &parts {
                left.merge(p);
            }
            assert_eq!(flat.to_bits(), left.finalize().to_bits());
            // Reverse fold (commutativity across the whole merge tree).
            let mut right = ExactSum::new();
            for p in parts.iter().rev() {
                right.merge(p);
            }
            assert_eq!(flat.to_bits(), right.finalize().to_bits());
        }
    }

    #[test]
    fn merge_associative_commutative() {
        let mut a = ExactSum::new();
        a.add(1.0e-30);
        a.add(7.25);
        let mut b = ExactSum::new();
        b.add(-3.5e200);
        b.add(0.1);
        let mut c = ExactSum::new();
        c.add(3.5e200);

        // (a ⊕ b) ⊕ c
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // c ⊕ b ⊕ a
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);

        let want = ab.finalize().to_bits();
        assert_eq!(want, a_bc.finalize().to_bits());
        assert_eq!(want, cba.finalize().to_bits());
    }

    #[test]
    fn correctly_rounded_vs_integer_reference() {
        // Values exactly representable as scaled integers: compare
        // against exact i128 arithmetic.
        let mut rng = Rng(7);
        for _ in 0..200 {
            let n = 3 + (rng.next() % 40) as usize;
            let mut vals = Vec::with_capacity(n);
            let mut total: i128 = 0;
            for _ in 0..n {
                let v = (rng.next() % (1 << 40)) as i128 - (1 << 39);
                total += v;
                // Scale by 2^-20: exact in f64 (v < 2^40, well under 2^53).
                vals.push(v as f64 / (1u64 << 20) as f64);
            }
            let want = total as f64 / (1u64 << 20) as f64; // exact: |total| < 2^46
            assert_eq!(exact(&vals).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn rounds_to_nearest_even_not_faithfully() {
        // 1 + 2^-53 + 2^-106: the true sum is just above the midpoint
        // between 1 and 1+ulp, so it must round up. A faithful rounding
        // could legally return 1.0; correct rounding may not.
        let up = exact(&[1.0, 2f64.powi(-53), 2f64.powi(-106)]);
        assert_eq!(up, 1.0 + 2f64.powi(-52));
        // Exactly at the midpoint → ties-to-even keeps 1.0.
        let even = exact(&[1.0, 2f64.powi(-53)]);
        assert_eq!(even, 1.0);
        // Midpoint from the other side: 1.0 + 3*2^-53 is the midpoint
        // between 1+ulp and 1+2ulp; even mantissa is 1+2ulp.
        let odd = exact(&[1.0, 2f64.powi(-53), 2f64.powi(-52)]);
        assert_eq!(odd, 1.0 + 2.0 * 2f64.powi(-52));
    }

    #[test]
    fn subnormals_exact() {
        let tiny = f64::from_bits(1); // 2^-1074
        assert_eq!(exact(&[tiny, tiny]).to_bits(), f64::from_bits(2).to_bits());
        assert_eq!(exact(&[tiny, -tiny]), 0.0);
        // Subnormal result from cancelling normals.
        let a = f64::MIN_POSITIVE; // 2^-1022
        let half = a / 2.0; // subnormal
        assert_eq!(exact(&[a, -half]).to_bits(), half.to_bits());
        // Descent into the subnormal range stays exact.
        let mut s = ExactSum::new();
        s.add(f64::MIN_POSITIVE);
        s.add(-f64::from_bits(3));
        let want = f64::MIN_POSITIVE - f64::from_bits(3); // exact (Sterbenz region)
        assert_eq!(s.finalize().to_bits(), want.to_bits());
    }

    #[test]
    fn non_finite_flags() {
        assert!(exact(&[1.0, f64::NAN]).is_nan());
        assert_eq!(exact(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(exact(&[f64::NEG_INFINITY, 5.0]), f64::NEG_INFINITY);
        assert!(exact(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        // Flags survive merge in either direction.
        let mut a = ExactSum::new();
        a.add(f64::INFINITY);
        let mut b = ExactSum::new();
        b.add(2.0);
        let mut m1 = a.clone();
        m1.merge(&b);
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m1.finalize(), f64::INFINITY);
        assert_eq!(m2.finalize(), f64::INFINITY);
    }

    #[test]
    fn overflow_decided_only_at_finalize() {
        let big = f64::MAX;
        assert_eq!(exact(&[big, big]), f64::INFINITY);
        assert_eq!(exact(&[-big, -big]), f64::NEG_INFINITY);
        // An excursion beyond the f64 range that comes back is *not*
        // sticky: the exact sum is MAX, so the result is MAX — in any
        // order.
        assert_eq!(exact(&[big, big, -big]).to_bits(), big.to_bits());
        assert_eq!(exact(&[big, -big, big]).to_bits(), big.to_bits());
        assert_eq!(exact(&[-big, big, big]).to_bits(), big.to_bits());
        // Deep excursion: four MAXes up, three back down.
        let vals = [big, big, big, big, -big, -big, -big];
        assert_eq!(exact(&vals).to_bits(), big.to_bits());
    }

    #[test]
    fn huge_but_finite_rounds_correctly() {
        // MAX + small stays MAX (the small part is beneath the ulp).
        assert_eq!(exact(&[f64::MAX, 1.0]).to_bits(), f64::MAX.to_bits());
        // MAX + ulp/2 is the midpoint to "2^1024": rounds to ∞ per IEEE.
        let half_ulp = 2f64.powi(970);
        assert_eq!(exact(&[f64::MAX, half_ulp]), f64::INFINITY);
        // Just below the midpoint stays MAX.
        assert_eq!(
            exact(&[f64::MAX, half_ulp, -1.0]).to_bits(),
            f64::MAX.to_bits()
        );
    }

    #[test]
    fn parts_roundtrip() {
        let mut s = ExactSum::new();
        for v in [1.0e100, 1.0, -1.0e100, 0.1, 3.0e-200] {
            s.add(v);
        }
        let (comps, nan, pinf, ninf) = s.to_parts();
        let back = ExactSum::from_parts(comps, nan, pinf, ninf);
        assert_eq!(s.finalize().to_bits(), back.finalize().to_bits());

        let mut inf = ExactSum::new();
        inf.add(f64::INFINITY);
        let (c, n, p, m) = inf.to_parts();
        assert_eq!(ExactSum::from_parts(c, n, p, m).finalize(), f64::INFINITY);
    }

    #[test]
    fn expansion_spills_past_the_inline_components_and_compares_by_content() {
        // Seven values 60 binades apart never combine: seven components.
        let vals: Vec<f64> = (0..7).map(|i| 2f64.powi(60 * i)).collect();
        let mut s = ExactSum::new();
        for &v in &vals {
            s.add(v);
        }
        let (comps, ..) = s.to_parts();
        assert_eq!(comps, vals.as_slice());
        assert!(comps.len() > INLINE_COMPS);
        assert_eq!(s.finalize().to_bits(), fixed_point_round(&vals).to_bits());
        // Serialized and rebuilt, it is the same state.
        let back = ExactSum::from_parts(comps, false, false, false);
        assert_eq!(back, s);
        // Cancel the top five: two components are left, on the heap,
        // equal to an accumulator that never left its inline storage.
        for &v in &vals[2..] {
            s.add(-v);
        }
        let mut small = ExactSum::new();
        small.add(vals[0]);
        small.add(vals[1]);
        assert_eq!(s, small);
        assert_eq!(s.finalize().to_bits(), small.finalize().to_bits());
    }

    #[test]
    fn many_scales_fuzz_against_two_pass_reference() {
        // Cross-check: splitting by sign and exponent then merging must
        // agree with the flat sum for random inputs (self-consistency of
        // exactness across radically different addition orders).
        let mut rng = Rng(0xFEED);
        for round in 0..20 {
            let n = 50 + (round * 13) % 100;
            let vals: Vec<f64> = (0..n).map(|_| rng.f64_wide()).collect();
            let flat = exact(&vals);
            let mut pos = ExactSum::new();
            let mut neg = ExactSum::new();
            for &v in &vals {
                if v >= 0.0 {
                    pos.add(v);
                } else {
                    neg.add(v);
                }
            }
            pos.merge(&neg);
            assert_eq!(flat.to_bits(), pos.finalize().to_bits());
        }
    }
}
