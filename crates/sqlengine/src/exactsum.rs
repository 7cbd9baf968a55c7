//! Exactly-rounded floating-point summation for distributed aggregation.
//!
//! SUM/AVG accumulators must produce **bit-identical** results no matter
//! how the input rows are partitioned — across execution threads today,
//! across cluster shards tomorrow. Naive `f64` accumulation cannot: it
//! rounds after every addition, so the result depends on addition order.
//!
//! [`ExactSum`] keeps the running sum *exactly* and rounds once, in
//! [`ExactSum::finalize`], to the nearest `f64` (ties to even). The
//! result is therefore the correctly-rounded sum of the multiset of
//! inputs — independent of insertion order, partitioning, and merge
//! shape. A sum gets in three ways, each picked by what the accumulator
//! observes of its inputs and of its own state — no option selects one:
//!
//! * **Short runs: a fixed-point window.** A run of ≤ 512 normal values
//!   (zeros allowed) with biased exponents in [117, 1900], at most 64
//!   apart — an E-step `SUM … GROUP BY rid` run of p distances — is
//!   summed exactly in one `i128` by [`ExactSum::add_slice`] and split
//!   into at most three nonoverlapping doubles. Other runs, and every
//!   non-finite value, are added value by value.
//! * **Short sums: an inline expansion.** Up to `INLINE_COMPS` = 4 `f64`
//!   components whose mathematical sum is the exact sum so far
//!   (Shewchuk's grow-expansion, *Adaptive Precision Floating-Point
//!   Arithmetic*, 1997). Same-scale inputs — every EM statistic, every
//!   short `GROUP BY rid` sum — stay within two or three components, so
//!   an accumulator is 48 bytes and a group table of n·k of them
//!   allocates nothing per accumulator.
//! * **Long sums: a fixed-point superaccumulator.** An `add` to an
//!   expansion threads every component, and the component count grows
//!   with the *magnitude spread* of the inputs: the M step's
//!   responsibilities span 1e-310 … 1 (§2.5: they underflow), which is
//!   45–60 components per add. The first add that needs a fifth
//!   component moves the sum into a boxed `Wide`: the 70 × 32-bit limb
//!   array that covers every finite `f64` bit position, where an add
//!   decodes mantissa and exponent and touches three limbs whatever the
//!   spread. A wide state stays wide.
//!
//! One rounding: every state holds its exact value, and `finalize`
//! returns the nearest double — one IEEE addition of ≤ 2 components, a
//! window's `i128` converted once for 3–4, the limbs (`Wide::round`)
//! otherwise — so which way a sum took never reaches a result bit: a
//! wide partial merged into an inline one, a sum split 1–4 ways, and the
//! expansion-only accumulator of earlier builds all give the same double.
//!
//! **Carry bound.** Limbs are `i64`s holding 32 value bits. One add
//! moves each of three limbs by less than 2^32, so a limb that starts
//! carry-propagated (in `[0, 2^32)`) is below `(m + 1) · 2^32` in
//! magnitude after m adds and stays inside `i64` for 2^31 − 1 of them.
//! `Wide` counts adds since the last propagation and propagates when
//! the count reaches `CARRY_PERIOD` = 2^30, so a state at rest has
//! seen fewer than 2^30; merging two wide states adds limb by limb and
//! adds the counts (plus one), which stays below 2^31.
//!
//! Non-finite inputs are tracked as flags (IEEE semantics: any NaN, or
//! both `+∞` and `-∞`, poison the sum to NaN; a single infinity sign
//! wins). Finite inputs never saturate early: an inline pair whose
//! rounded sum would overflow is simply kept as two components, and the
//! limb array reaches well past 2^1024, so ±∞ appears only when the
//! *final* exact sum rounds outside the `f64` range — exactly the IEEE
//! single-rounding answer.

use std::borrow::Cow;

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

/// Expansion components kept inside the accumulator; a sum that needs
/// one more moves to the wide tier. Sums of same-scale values (every EM
/// statistic) stay within two or three components, so a GROUP BY table
/// of accumulators is one allocation per group instead of one more per
/// accumulator.
const INLINE_COMPS: usize = 4;

/// What a [`window`] takes: at most `WINDOW_LEN` values, biased
/// exponents in `WINDOW_EXPS`, at most `WINDOW_SPREAD` apart.
const WINDOW_EXPS: std::ops::RangeInclusive<u64> = 117..=1900;
const WINDOW_SPREAD: u64 = 64;
const WINDOW_LEN: usize = 512;

/// Bit position (from the fixed-point LSB) of `2^-1074`, the smallest
/// positive f64. `LIMB_LSB_EXP + FLOOR_BIT = -1074`.
const FLOOR_BIT: i32 = 14;
/// Exponent of the fixed-point accumulator's least significant bit.
/// A multiple of 32 below -1074 so subnormal mantissas land on limb
/// boundaries cleanly.
const LIMB_LSB_EXP: i32 = -1088;
/// 32 value bits per signed 64-bit limb: headroom for 2^31 − 1 adds
/// before propagation could overflow.
const LIMB_BITS: i32 = 32;
/// Limb count. An input's 53-bit mantissa reaches limb 66 at most;
/// `70 * 32 = 2240` bits put the top limb at `2^1120`, which a sum of
/// finite doubles reaches only after 2^96 of them — it holds the sign.
const NLIMBS: usize = 70;
/// The limb whose least significant bit is `2^1024`: what sits here and
/// above is outside the `f64` range.
const OVER_LIMB: usize = ((1024 - LIMB_LSB_EXP) / LIMB_BITS) as usize;
/// Adds a [`Wide`] absorbs between carry propagations (see the module
/// docs: the hard bound is 2^31 − 1).
const CARRY_PERIOD: u32 = 1 << 30;

/// The fixed-point superaccumulator: value = `Σ limbs[i] · 2^(32·i − 1088)`,
/// limbs signed and — between propagations — not confined to 32 bits.
#[derive(Debug, Clone)]
struct Wide {
    limbs: [i64; NLIMBS],
    /// Adds since the limbs were last carry-propagated: every limb below
    /// the top one is smaller than `(pending + 1) · 2^32` in magnitude.
    pending: u32,
}

impl Wide {
    fn zero() -> Wide {
        Wide {
            limbs: [0; NLIMBS],
            pending: 0,
        }
    }

    /// The exact sum of finite `comps`.
    fn load(comps: &[f64]) -> Wide {
        let mut w = Wide::zero();
        for &c in comps {
            w.add(c);
        }
        w
    }

    /// Add one finite value exactly.
    #[inline]
    fn add(&mut self, x: f64) {
        self.add_times(x, 1);
    }

    /// Add finite `x`, `times` (≤ [`CARRY_PERIOD`]) times over, exactly.
    /// `add` is the `times = 1` instance; tests reach the carry bound
    /// through larger ones.
    #[inline(always)]
    fn add_times(&mut self, x: f64, times: u32) {
        debug_assert!(x.is_finite() && times <= CARRY_PERIOD);
        let bits = x.to_bits();
        let sign: i64 = if bits >> 63 == 1 { -1 } else { 1 };
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        // Subnormal: frac · 2^-1074. Normal: (2^52 + frac) · 2^(biased − 1075).
        let (mant, exp_lsb) = if biased == 0 {
            (frac, -1074)
        } else {
            ((1u64 << 52) | frac, biased - 1075)
        };
        let pos = exp_lsb - LIMB_LSB_EXP;
        debug_assert!(pos >= FLOOR_BIT);
        let shift = (pos % LIMB_BITS) as u32;
        // mant (53 bits) << shift (≤ 31) spans ≤ 84 bits: three limbs,
        // the low two from the 64 bits the shift keeps, the third from
        // the ≤ 20 it pushes out.
        let low = mant << shift;
        let high = (mant >> LIMB_BITS) >> (LIMB_BITS as u32 - shift);
        let scale = sign * times as i64;
        let at = (pos / LIMB_BITS) as usize;
        let limbs = &mut self.limbs[at..at + 3];
        limbs[0] += scale * (low & 0xffff_ffff) as i64;
        limbs[1] += scale * (low >> LIMB_BITS) as i64;
        limbs[2] += scale * high as i64;
        self.absorbed(times);
    }

    /// Count `n` more adds; propagate carries once a period's worth has
    /// gone in, so the count at rest stays below [`CARRY_PERIOD`].
    #[inline]
    fn absorbed(&mut self, n: u32) {
        self.pending += n;
        if self.pending >= CARRY_PERIOD {
            self.propagate();
        }
    }

    /// Absorb another wide sum exactly: a limb-wise add.
    fn merge(&mut self, other: &Wide) {
        for (l, o) in self.limbs.iter_mut().zip(&other.limbs) {
            *l += o;
        }
        // The two bounds add up: (p₁ + 1) + (p₂ + 1) = (p₁ + p₂ + 1) + 1.
        self.absorbed(other.pending + 1);
    }

    /// Carry upward so every limb below the top one holds a value in
    /// `[0, 2^32)` (Euclidean remainder keeps them nonnegative even when
    /// mixed-sign accumulation drove some negative); the top limb keeps
    /// the sign.
    fn propagate(&mut self) {
        let base = 1i64 << LIMB_BITS;
        for i in 0..NLIMBS - 1 {
            let r = self.limbs[i].rem_euclid(base);
            let carry = (self.limbs[i] - r) >> LIMB_BITS;
            self.limbs[i] = r;
            self.limbs[i + 1] += carry;
        }
        self.pending = 0;
    }

    /// The value as a sign and magnitude limbs, every one in
    /// `[0, 2^32)`: the one canonical form of a sum, whatever sequence of
    /// adds and merges built it.
    fn sign_magnitude(&self) -> (bool, [i64; NLIMBS]) {
        let mut w = self.clone();
        w.propagate();
        let neg = w.limbs[NLIMBS - 1] < 0;
        if neg {
            for l in w.limbs.iter_mut() {
                *l = -*l;
            }
            w.propagate();
        }
        (neg, w.limbs)
    }

    /// The value as finite doubles, for transport: one per non-zero
    /// magnitude limb below `2^1024`, in increasing magnitude, then —
    /// a partial sum may sit outside the `f64` range until it cancels —
    /// the part at or above `2^1024` as that many pairs of `±2^1023`.
    /// A function of the value alone, so a decoded list re-encodes to
    /// the same bytes.
    fn to_comps(&self) -> Vec<f64> {
        let (neg, mag) = self.sign_magnitude();
        let mut comps = Vec::new();
        for (i, &limb) in mag[..OVER_LIMB].iter().enumerate() {
            if limb != 0 {
                // Limb 0 starts FLOOR_BIT bits below 2^-1074; no input
                // has bits there.
                comps.push(match i {
                    0 => compose(neg, (limb >> FLOOR_BIT) as u64, -1074),
                    _ => compose(neg, limb as u64, i as i32 * LIMB_BITS + LIMB_LSB_EXP),
                });
            }
        }
        let over = mag[OVER_LIMB..]
            .iter()
            .rev()
            .fold(0u128, |acc, &limb| (acc << LIMB_BITS) | limb as u128);
        let half = compose(neg, 1, 1023);
        for _ in 0..2 * over {
            comps.push(half);
        }
        comps
    }

    /// Round the exact value to nearest-even `f64`.
    fn round(&self) -> f64 {
        let (neg, limbs) = self.sign_magnitude();

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
}

/// The exact state: an expansion of up to [`INLINE_COMPS`] components,
/// or the superaccumulator once a sum has needed more.
#[derive(Debug, Clone)]
enum Comps {
    Inline { buf: [f64; INLINE_COMPS], len: u8 },
    Wide(Box<Wide>),
}

impl Comps {
    /// Append a finite component as it is; the one that does not fit
    /// takes the sum to the wide tier.
    fn push(&mut self, x: f64) {
        match self {
            Comps::Inline { buf, len } if (*len as usize) < INLINE_COMPS => {
                buf[*len as usize] = x;
                *len += 1;
            }
            Comps::Inline { buf, .. } => {
                let mut w = Box::new(Wide::load(buf));
                w.add(x);
                *self = Comps::Wide(w);
            }
            Comps::Wide(w) => w.add(x),
        }
    }

    /// The exact value in limbs, whichever tier holds it.
    fn to_wide(&self) -> Wide {
        match self {
            Comps::Inline { buf, len } => Wide::load(&buf[..*len as usize]),
            Comps::Wide(w) => (**w).clone(),
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
    /// The exact sum of all finite inputs so far. Inline components are
    /// finite; nonzero, nonoverlapping and in increasing magnitude order
    /// unless they arrived through [`ExactSum::from_parts`] (any list of
    /// finite values is an exact state) or are a pair whose rounded sum
    /// would overflow, kept uncombined.
    comps: Comps,
    /// A NaN was added (or `+∞` and `-∞` cancelled).
    has_nan: bool,
    /// A `+∞` was added.
    pos_inf: bool,
    /// A `-∞` was added.
    neg_inf: bool,
}

/// Equal states: the same exact value (whichever tier, whatever
/// component list holds it) and the same flags.
impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        (self.has_nan, self.pos_inf, self.neg_inf) == (other.has_nan, other.pos_inf, other.neg_inf)
            && self.comps.to_wide().sign_magnitude() == other.comps.to_wide().sign_magnitude()
    }
}

impl ExactSum {
    /// A fresh accumulator summing to zero.
    pub fn new() -> ExactSum {
        ExactSum::default()
    }

    /// Record a non-finite input.
    fn flag(&mut self, x: f64) {
        self.has_nan |= x.is_nan();
        self.pos_inf |= x == f64::INFINITY;
        self.neg_inf |= x == f64::NEG_INFINITY;
    }

    /// Add one value exactly.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return self.flag(x);
        }
        let (buf, len) = match &mut self.comps {
            Comps::Inline { buf, len } => (buf, len),
            Comps::Wide(w) => return w.add(x),
        };
        // Grow-expansion, in place: thread x through every component,
        // keeping the exact residual of each addition and eliminating
        // zeros. Each step writes at most one component, so the write
        // index never passes the read index.
        let mut q = x;
        let mut kept = 0;
        for i in 0..*len as usize {
            let c = buf[i];
            let (hi, lo) = two_sum(q, c);
            if hi.is_infinite() {
                // |q + c| exceeds the f64 range, so the pair cannot be
                // renormalized. Keep c as its own component and thread
                // q onward: the decomposition stays exact, and only
                // the final rounding decides whether the sum really
                // overflows.
                buf[kept] = c;
                kept += 1;
                continue;
            }
            if lo != 0.0 {
                buf[kept] = lo;
                kept += 1;
            }
            q = hi;
        }
        *len = kept as u8;
        if q != 0.0 {
            self.comps.push(q);
        }
    }

    /// Add every value of a slice exactly. While the sum is inline, a
    /// run of two or more that fits a `window` is summed there and its
    /// parts become a fresh state's components, or are added to a
    /// non-empty one; once the sum is wide, a run of finite values is
    /// one loop over the limb array. Anything else goes value by value.
    pub fn add_slice(&mut self, xs: &[f64]) {
        // Every path below takes one value to this same `add`; a GROUP
        // BY whose runs are one row long sends nothing else.
        if let [x] = xs {
            return self.add(*x);
        }
        for chunk in xs.chunks(WINDOW_LEN) {
            let summed = match &mut self.comps {
                Comps::Wide(w) if chunk.iter().all(|x| x.is_finite()) => {
                    chunk.iter().for_each(|&x| w.add(x));
                    continue;
                }
                Comps::Inline { .. } if chunk.len() > 1 => window(chunk),
                _ => None,
            };
            let Some((v, scale)) = summed else {
                chunk.iter().for_each(|&x| self.add(x));
                continue;
            };
            let parts = split(v, scale).into_iter().filter(|&p| p != 0.0);
            match &mut self.comps {
                Comps::Inline { buf, len: len @ 0 } => parts.for_each(|p| {
                    buf[*len as usize] = p;
                    *len += 1;
                }),
                _ => parts.for_each(|p| self.add(p)),
            }
        }
    }

    /// The correctly rounded sum of `xs`: the bits [`ExactSum::add_slice`]
    /// into a fresh accumulator and [`ExactSum::finalize`] give. A slice
    /// that fits a `window` is its `v · scale` rounded once, as
    /// `finalize` rounds a window, and no accumulator is built; any other
    /// slice takes that accumulator.
    pub fn sum_slice(xs: &[f64]) -> f64 {
        if xs.len() <= WINDOW_LEN {
            if let Some((v, scale)) = window(xs) {
                return v as f64 * scale;
            }
        }
        let mut sum = ExactSum::new();
        sum.add_slice(xs);
        sum.finalize()
    }

    /// Add an integer exactly: the nearest double, then what that
    /// rounding dropped (nothing below 2^53 in magnitude, so small
    /// integers cost one add and leave the state `add(v as f64)` leaves).
    pub fn add_i64(&mut self, v: i64) {
        let head = v as f64;
        // |head| ≤ 2^63 and |v − head| ≤ 2^10: both exact.
        let tail = (v as i128 - head as i128) as i64;
        self.add(head);
        if tail != 0 {
            self.add(tail as f64);
        }
    }

    /// Absorb another accumulator exactly. Associative and commutative
    /// up to bit-identical finalized results.
    pub fn merge(&mut self, other: &ExactSum) {
        self.has_nan |= other.has_nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        match (&mut self.comps, &other.comps) {
            (_, Comps::Inline { buf, len }) => {
                for &c in &buf[..*len as usize] {
                    self.add(c);
                }
            }
            (Comps::Wide(mine), Comps::Wide(theirs)) => mine.merge(theirs),
            (Comps::Inline { buf, len }, Comps::Wide(theirs)) => {
                let mut w = theirs.clone();
                for &c in &buf[..*len as usize] {
                    w.add(c);
                }
                self.comps = Comps::Wide(w);
            }
        }
    }

    /// Expose the state for serialization: finite components whose sum
    /// is the exact sum, plus the `(has_nan, pos_inf, neg_inf)` flags.
    /// An inline state lends its components as they are; a wide one
    /// lists its canonical doubles (`Wide::to_comps`).
    pub fn to_parts(&self) -> (Cow<'_, [f64]>, bool, bool, bool) {
        let comps = match &self.comps {
            Comps::Inline { buf, len } => Cow::Borrowed(&buf[..*len as usize]),
            Comps::Wide(w) => Cow::Owned(w.to_comps()),
        };
        (comps, self.has_nan, self.pos_inf, self.neg_inf)
    }

    /// Rebuild an accumulator from serialized parts. Up to
    /// `INLINE_COMPS` finite components are kept as they arrived — any
    /// list of finite values is an exact state, neither `add` nor
    /// `finalize` needs a particular shape — and a longer list is summed
    /// into the wide tier; either way a decoded accumulator re-encodes
    /// to the bytes [`ExactSum::to_parts`] produced. Non-finite
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
                s.flag(c);
            }
        }
        s
    }

    /// Round the exact sum to the nearest `f64` (ties to even).
    ///
    /// Up to two inline components need no limbs: one IEEE-754 addition
    /// *is* the correctly rounded exact sum of its operands — overflow
    /// to ±∞ and gradual underflow included — and `+ 0.0` turns a `-0.0`
    /// into the `+0.0` the fixed-point path returns for a zero sum.
    /// Three or four that fit a `window` are its `i128` rounded once
    /// by the conversion, then scaled exactly: same-scale values added
    /// one by one (runs one row long, as a `GROUP BY rid, c.i` join
    /// feeds them) leave a sum and rounding errors of a few bits each,
    /// close enough to fit. Anything else, and the wide tier, is rounded
    /// from a limb array.
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
        match &self.comps {
            Comps::Inline { buf, len } => match buf[..*len as usize] {
                [] => 0.0,
                [a] => a + 0.0,
                [a, b] => (a + b) + 0.0,
                ref comps => match window(comps) {
                    Some((v, scale)) => v as f64 * scale,
                    None => fixed_point_round(comps),
                },
            },
            Comps::Wide(w) => w.round(),
        }
    }
}

/// The exact sum of a short run as `v · scale`, when its nonzero values
/// are normal and fit the `WINDOW_*` bounds: each mantissa goes into `v`
/// shifted onto the smallest exponent `e`, so `|v| < 512 · 2^(53 + 64)
/// = 2^126`, and `scale = 2^(e − 1075) ≥ 2^-958` keeps any integer part
/// of `v` times it normal and finite: scaling is exact. `None` for
/// anything else — a subnormal, NaN or ±∞ included.
fn window(xs: &[f64]) -> Option<(i128, f64)> {
    debug_assert!(xs.len() <= WINDOW_LEN);
    let exp = |bits: u64| (bits >> 52) & 0x7ff;
    let (mut lo, mut hi) = (u64::MAX, 0);
    for &x in xs.iter().filter(|&&x| x != 0.0) {
        lo = lo.min(exp(x.to_bits()));
        hi = hi.max(exp(x.to_bits()));
    }
    if lo == u64::MAX {
        return Some((0, 1.0));
    }
    if !WINDOW_EXPS.contains(&lo) || !WINDOW_EXPS.contains(&hi) || hi - lo > WINDOW_SPREAD {
        return None;
    }
    let mut v = 0i128;
    for &x in xs.iter().filter(|&&x| x != 0.0) {
        let bits = x.to_bits();
        let m = (((bits & ((1 << 52) - 1)) | 1 << 52) as i128) << (exp(bits) - lo);
        v += if bits >> 63 == 0 { m } else { -m };
    }
    Some((v, f64::from_bits((lo - 52) << 52)))
}

/// A window's `v · scale` as three nonoverlapping doubles, smallest
/// first, zeros where fewer do: each is the top 53 bits of what the
/// ones above it left of `|v| < 2^126`, an integer below 2^53 times a
/// power of two, so its scaling is exact.
fn split(v: i128, scale: f64) -> [f64; 3] {
    let sign = if v < 0 { -scale } else { scale };
    let mut rest = v.unsigned_abs();
    let mut parts = [0.0; 3];
    for part in parts.iter_mut().rev() {
        let shift = (128 - rest.leading_zeros()).saturating_sub(53);
        let top = (rest >> shift) as u64;
        rest -= (top as u128) << shift;
        *part = top as i64 as f64 * f64::from_bits((1023 + shift as u64) << 52) * sign;
    }
    parts
}

/// Sum the (finite) components in fixed point and round to nearest-even
/// `f64`.
fn fixed_point_round(comps: &[f64]) -> f64 {
    Wide::load(comps).round()
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
        let back = ExactSum::from_parts(&comps, nan, pinf, ninf);
        assert_eq!(s.finalize().to_bits(), back.finalize().to_bits());

        let mut inf = ExactSum::new();
        inf.add(f64::INFINITY);
        let (c, n, p, m) = inf.to_parts();
        assert_eq!(ExactSum::from_parts(&c, n, p, m).finalize(), f64::INFINITY);
    }

    fn is_wide(s: &ExactSum) -> bool {
        matches!(s.comps, Comps::Wide(_))
    }

    #[test]
    fn a_fifth_component_takes_the_sum_wide_and_states_compare_by_value() {
        // A group table of short sums must stay at 48 bytes an accumulator.
        assert_eq!(std::mem::size_of::<ExactSum>(), 48);
        // Seven values 60 binades apart never combine: the fifth one
        // moves the sum out of its inline expansion.
        let vals: Vec<f64> = (0..7).map(|i| 2f64.powi(60 * i)).collect();
        let mut s = ExactSum::new();
        for &v in &vals[..INLINE_COMPS] {
            s.add(v);
        }
        assert!(!is_wide(&s));
        assert_eq!(s.to_parts().0, &vals[..INLINE_COMPS]);
        for &v in &vals[INLINE_COMPS..] {
            s.add(v);
        }
        assert!(is_wide(&s));
        assert_eq!(s.finalize().to_bits(), fixed_point_round(&vals).to_bits());
        // Each value sits in a limb of its own, so the transport list is
        // the values again; rebuilt from it, it is the same state.
        let (comps, ..) = s.to_parts();
        assert_eq!(comps, vals.as_slice());
        let back = ExactSum::from_parts(&comps, false, false, false);
        assert!(is_wide(&back));
        assert_eq!(back, s);
        // Cancel the top five: the sum stays wide, and equals — by value,
        // not by representation — an accumulator that never left its
        // inline storage, and one rebuilt from a different list of the
        // same sum.
        for &v in &vals[2..] {
            s.add(-v);
        }
        let mut small = ExactSum::new();
        small.add(vals[0]);
        small.add(vals[1]);
        assert!(is_wide(&s) && !is_wide(&small));
        assert_eq!(s, small);
        assert_eq!(small, s);
        assert_eq!(s.finalize().to_bits(), small.finalize().to_bits());
        let halves = [vals[0] / 2.0, vals[1], vals[0] / 2.0, -0.0];
        assert_eq!(ExactSum::from_parts(&halves, false, false, false), small);
        // A different value, or a different flag, is a different state.
        small.add(f64::from_bits(1));
        assert_ne!(s, small);
        s.add(f64::from_bits(1));
        assert_eq!(s, small);
        s.add(f64::NAN);
        assert_ne!(s, small);
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

    // -----------------------------------------------------------------
    // The oracle: the accumulator of the builds before the wide tier
    // -----------------------------------------------------------------

    /// One grow-expansion of any length, its `add` as those builds had
    /// it, rounded by loading the components into limbs with their
    /// loop. [`ExactSum`] must finalize to the same bits whatever it
    /// was fed and however it was split, shipped and merged.
    #[derive(Debug, Clone, Default)]
    struct Reference {
        comps: Vec<f64>,
        nan: bool,
        pos_inf: bool,
        neg_inf: bool,
    }

    impl Reference {
        fn add(&mut self, x: f64) {
            if x.is_nan() {
                self.nan = true;
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
            let mut q = x;
            let mut kept = 0;
            for i in 0..self.comps.len() {
                let c = self.comps[i];
                let (hi, lo) = two_sum(q, c);
                if hi.is_infinite() {
                    self.comps[kept] = c;
                    kept += 1;
                    continue;
                }
                if lo != 0.0 {
                    self.comps[kept] = lo;
                    kept += 1;
                }
                q = hi;
            }
            self.comps.truncate(kept);
            if q != 0.0 {
                self.comps.push(q);
            }
        }

        fn merge(&mut self, other: &Reference) {
            self.nan |= other.nan;
            self.pos_inf |= other.pos_inf;
            self.neg_inf |= other.neg_inf;
            for &c in &other.comps {
                self.add(c);
            }
        }

        fn finalize(&self) -> f64 {
            if self.nan || (self.pos_inf && self.neg_inf) {
                return f64::NAN;
            }
            if self.pos_inf {
                return f64::INFINITY;
            }
            if self.neg_inf {
                return f64::NEG_INFINITY;
            }
            let mut limbs = [0i64; NLIMBS];
            for &c in &self.comps {
                let bits = c.to_bits();
                let sign: i64 = if bits >> 63 == 1 { -1 } else { 1 };
                let biased = ((bits >> 52) & 0x7ff) as i64;
                let frac = bits & ((1u64 << 52) - 1);
                let (mant, exp_lsb) = if biased == 0 {
                    (frac, -1074i32)
                } else {
                    ((1u64 << 52) | frac, biased as i32 - 1075)
                };
                let pos = exp_lsb - LIMB_LSB_EXP;
                let limb = (pos / LIMB_BITS) as usize;
                let wide = (mant as u128) << (pos % LIMB_BITS) as u32;
                let mask = (1u128 << LIMB_BITS) - 1;
                limbs[limb] += sign * ((wide & mask) as i64);
                limbs[limb + 1] += sign * (((wide >> LIMB_BITS) & mask) as i64);
                limbs[limb + 2] += sign * (((wide >> (2 * LIMB_BITS)) & mask) as i64);
            }
            Wide { limbs, pending: 0 }.round()
        }
    }

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A double from one of the regimes the engine meets or must
        /// survive, `regime` picking which.
        fn hostile(&mut self, regime: usize) -> f64 {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            match regime {
                // Any bit pattern: every exponent, both signs, the odd
                // NaN or infinity.
                0 => f64::from_bits(self.next()),
                1 => sign * f64::from_bits(self.next() >> 12), // subnormal
                2 => sign * 0.0,
                3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3)],
                // Excursions past MAX that may or may not cancel.
                4 => sign * [f64::MAX, 1.0e308, 2f64.powi(1023)][self.below(3)],
                // A responsibility (2.5: most of them underflow).
                5 => 10f64.powf(-(self.below(311000) as f64) / 1000.0),
                _ => self.f64_wide(),
            }
        }

        /// `min..min + span` values drawn from a random subset of the
        /// regimes.
        fn hostile_seq(&mut self, min: usize, span: usize) -> Vec<f64> {
            let len = min + self.below(span);
            let regimes: Vec<usize> = (0..7).filter(|_| self.next() & 1 == 0).collect();
            (0..len)
                .map(|_| match regimes.len() {
                    0 => self.hostile(6),
                    n => {
                        let r = regimes[self.below(n)];
                        self.hostile(r)
                    }
                })
                .collect()
        }

        /// `len` values with biased exponents `lo ..= lo + spread`, both
        /// ends present, random mantissas, negative where `signed` says.
        fn run_at(&mut self, len: usize, lo: u64, spread: u64, signed: bool) -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let e = match i {
                        0 => lo,
                        1 => lo + spread,
                        _ => lo + self.next() % (spread + 1),
                    };
                    let neg = signed && self.next() & 1 == 0;
                    f64::from_bits((neg as u64) << 63 | e << 52 | self.next() >> 12)
                })
                .collect()
        }
    }

    fn reference(values: &[f64]) -> Reference {
        let mut r = Reference::default();
        for &v in values {
            r.add(v);
        }
        r
    }

    fn through_parts(s: &ExactSum) -> ExactSum {
        let (comps, nan, pinf, ninf) = s.to_parts();
        assert!(comps.iter().all(|c| c.is_finite()), "{comps:?}");
        let back = ExactSum::from_parts(&comps, nan, pinf, ninf);
        // Shipped again it is the same bytes, and the same state.
        let bits = |c: &[f64]| c.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.to_parts().0), bits(&comps));
        assert_eq!(&back, s);
        back
    }

    #[test]
    fn finalize_of_up_to_two_components_is_one_ieee_addition() {
        // The shortcut against the limb path, bit for bit, on the pairs
        // where they could differ: signed zeros, subnormals, overflow,
        // exact cancellation, ties.
        let tiny = f64::from_bits(1);
        let ulp = 2f64.powi(-52);
        let mut pairs = vec![
            (0.0, 0.0),
            (-0.0, -0.0),
            (-0.0, 0.0),
            (tiny, -tiny),
            (tiny, tiny),
            (f64::MIN_POSITIVE, -tiny),
            (f64::MAX, f64::MAX),
            (-f64::MAX, -f64::MAX),
            (f64::MAX, 2f64.powi(970)),
            (f64::MAX, 2f64.powi(969)),
            (f64::MAX, -f64::MAX),
            (1.0, ulp / 2.0),
            (1.0 + ulp, ulp / 2.0),
            (1.0, -ulp / 4.0),
            (1.0e100, -1.0e100),
        ];
        let mut rng = Rng(0x2C0FFEE);
        for _ in 0..4000 {
            let (ra, rb) = (rng.below(7), rng.below(7));
            let (a, b) = (rng.hostile(ra), rng.hostile(rb));
            if a.is_finite() && b.is_finite() {
                pairs.push((a, b));
                // Near-ties: b a half ulp of a, give or take one bit.
                let half = a * 2f64.powi(-53);
                pairs.push((a, half));
                pairs.push((a, f64::from_bits(half.to_bits() ^ (rng.next() & 1))));
            }
        }
        assert_eq!(ExactSum::new().finalize().to_bits(), 0);
        for (a, b) in pairs {
            let one = ExactSum::from_parts(&[a], false, false, false);
            assert_eq!(one.to_parts().0.len(), 1);
            assert_eq!(
                one.finalize().to_bits(),
                fixed_point_round(&[a]).to_bits(),
                "{a:e}"
            );
            let two = ExactSum::from_parts(&[a, b], false, false, false);
            assert_eq!(two.to_parts().0.len(), 2);
            assert_eq!(
                two.finalize().to_bits(),
                fixed_point_round(&[a, b]).to_bits(),
                "{a:e} + {b:e}"
            );
        }
    }

    #[test]
    fn finalize_of_three_and_four_components_is_the_limb_rounding() {
        // The floating-point rounding against the limb path, bit for
        // bit: lists as `add` leaves them (nonoverlapping) and as
        // `from_parts` may be handed them (anything finite), over the
        // regimes of the test above, with a component placed on and
        // next to the tie of the ones before it, on either side, and
        // a further one below that to break the tie.
        let mut rng = Rng(0x3C0FFEE);
        let mut lists: Vec<Vec<f64>> = Vec::new();
        let tiny = f64::from_bits(1);
        let ulp = 2f64.powi(-52);
        for tail in [
            tiny,
            -tiny,
            1.0e-300,
            -1.0e-300,
            2f64.powi(-200),
            -(2f64.powi(-200)),
        ] {
            lists.push(vec![1.0, ulp / 2.0, tail]);
            lists.push(vec![1.0, -ulp / 4.0, tail]);
            lists.push(vec![1.0 + ulp, ulp / 2.0, tail]);
            lists.push(vec![1.0 + ulp, -ulp / 2.0, tail, tail]);
            lists.push(vec![1.0e299, 1.0e299 * ulp / 2.0, tail]);
            lists.push(vec![f64::MAX, 2f64.powi(970), tail]);
            lists.push(vec![-f64::MAX, -(2f64.powi(970)), tail, tail]);
            lists.push(vec![f64::MIN_POSITIVE, -tiny, tail]);
            lists.push(vec![tail, -tail, tail, -tail]);
        }
        lists.push(vec![0.0, -0.0, -0.0]);
        lists.push(vec![-0.0; 4]);
        lists.push(vec![f64::MAX, f64::MAX, -f64::MAX]);
        lists.push(vec![f64::MAX, f64::MAX, -f64::MAX, -f64::MAX]);
        lists.push(vec![1.0e100, 1.0, -1.0e100]);
        for _ in 0..20000 {
            let len = 3 + rng.below(2);
            let mut list: Vec<f64> = Vec::new();
            while list.len() < len {
                let r = rng.below(7);
                let mut x = rng.hostile(r);
                if !list.is_empty() && rng.below(3) == 0 {
                    // Half an ulp of the sum so far, give or take a bit,
                    // or a speck on either side.
                    let sum: f64 = list.iter().sum();
                    let half = sum * 2f64.powi(-53);
                    x = match rng.below(4) {
                        0 => half,
                        1 => -half,
                        2 => f64::from_bits(half.to_bits() ^ (rng.next() & 1)),
                        _ => half * 2f64.powi(-(rng.below(900) as i32)),
                    };
                }
                if x.is_finite() {
                    list.push(x);
                }
            }
            lists.push(list);
        }
        for list in lists {
            let expect = fixed_point_round(&list).to_bits();
            let parts = ExactSum::from_parts(&list, false, false, false);
            assert_eq!(parts.to_parts().0.len(), list.len());
            assert_eq!(parts.finalize().to_bits(), expect, "parts {list:?}");
            let mut added = ExactSum::new();
            list.iter().for_each(|&x| added.add(x));
            assert_eq!(added.finalize().to_bits(), expect, "added {list:?}");
        }
    }

    #[test]
    fn a_run_summed_in_the_window_is_the_run_added_value_by_value() {
        // Where the window ends: spread, bottom and top exponent, kind.
        let at = |e: u64| f64::from_bits(e << 52);
        assert!(window(&[at(117), at(181)]).is_some());
        assert!(window(&[at(117), at(182)]).is_none());
        assert!(window(&[at(116), at(117)]).is_none());
        assert!(window(&[at(1900), -at(1836)]).is_some());
        assert!(window(&[at(1900), at(1901)]).is_none());
        for odd in [
            f64::from_bits(1),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(window(&[1.0, odd]).is_none(), "{odd:e}");
        }
        assert_eq!(window(&[0.0, -0.0]), Some((0, 1.0)));

        let mut rng = Rng(0x3D0F);
        // Runs the window took and did not; sums a run took wide.
        let (mut inside, mut outside, mut went_wide) = (0, 0, 0);
        for round in 0..3000 {
            let len = [2, 3, 6, 7, 40, 512, 513][rng.below(7)];
            let (lo, spread) = match rng.below(4) {
                0 => (116 + rng.below(2) as u64, rng.below(66) as u64),
                1 => {
                    let spread = rng.below(66) as u64;
                    (1900 + rng.below(2) as u64 - spread, spread)
                }
                2 => (900 + rng.below(100) as u64, 63 + rng.below(3) as u64),
                _ => (60 + rng.below(1900) as u64, rng.below(70) as u64),
            };
            let signed = rng.below(3) == 0;
            let mut run = rng.run_at(len, lo, spread, signed);
            match rng.below(8) {
                0 => {
                    for _ in 0..1 + rng.below(3) {
                        let i = rng.below(len);
                        run[i] = [0.0, -0.0][rng.below(2)];
                    }
                }
                1 => run.iter_mut().for_each(|x| *x = [0.0, -0.0][rng.below(2)]),
                2 => {
                    // Each value and its negation: the run cancels to 0.
                    let half = len / 2;
                    for i in 0..half {
                        run[half + i] = -run[i];
                    }
                    if len % 2 == 1 {
                        run[len - 1] = 0.0;
                    }
                }
                3 => run[rng.below(len)] = f64::from_bits(rng.next() >> 12), // subnormal
                4 => {
                    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
                    run[rng.below(len)] = odd;
                }
                _ => {}
            }
            // Into a fresh state, a non-empty one, or one that holds four
            // components the run's parts cannot join: that one goes wide.
            let prefix = match rng.below(3) {
                0 => vec![],
                1 => (0..1 + rng.below(3)).map(|_| rng.f64_wide()).collect(),
                _ => vec![
                    f64::from_bits(1),
                    2f64.powi(-1000),
                    2f64.powi(940),
                    2f64.powi(1000),
                ],
            };
            let mut each = ExactSum::new();
            prefix.iter().chain(&run).for_each(|&x| each.add(x));
            let mut slice = ExactSum::new();
            prefix.iter().for_each(|&x| slice.add(x));
            let was_wide = is_wide(&slice);
            slice.add_slice(&run);
            if window(&run[..len.min(WINDOW_LEN)]).is_some() {
                inside += 1;
                went_wide += (!was_wide && is_wide(&slice)) as u32;
            } else {
                outside += 1;
            }

            let all: Vec<f64> = prefix.iter().chain(&run).copied().collect();
            let want = match all.iter().all(|x| x.is_finite()) {
                true => fixed_point_round(&all),
                false => reference(&all).finalize(),
            };
            let what = format!("round {round}: {prefix:?} then {len} from {lo} over {spread}");
            assert_eq!(slice.finalize().to_bits(), want.to_bits(), "{what}");
            assert_eq!(each.finalize().to_bits(), want.to_bits(), "{what}");
            assert_eq!(slice, each, "{what}");
            if prefix.is_empty() && run.iter().all(|&x| x == 0.0) {
                assert_eq!(slice.finalize().to_bits(), 0, "{what}");
            }
            // Three and four components rounded through the window.
            for k in [3, 4] {
                let comps: Vec<f64> = run
                    .iter()
                    .copied()
                    .filter(|x| x.is_finite())
                    .take(k)
                    .collect();
                let parts = ExactSum::from_parts(&comps, false, false, false);
                let want = fixed_point_round(&comps).to_bits();
                assert_eq!(parts.finalize().to_bits(), want, "{what}: {comps:?}");
            }
        }
        assert!(
            inside > 500 && outside > 500 && went_wide > 100,
            "{inside} {outside} {went_wide}"
        );
    }

    #[test]
    fn a_slice_summed_without_an_accumulator_has_the_accumulators_bits() {
        let mut rng = Rng(0x5_11CE);
        // Slices the window took, and ones that needed the accumulator.
        let (mut windowed, mut accumulated) = (0, 0);
        for round in 0..4000 {
            let len = match rng.below(4) {
                0 => rng.below(8),
                1 => WINDOW_LEN - 2 + rng.below(5),
                _ => rng.below(601),
            };
            let xs = match rng.below(5) {
                // Anything: subnormals, NaNs, infinities, huge values.
                0 => rng.hostile_seq(len, 1),
                _ => {
                    let (lo, spread) = match rng.below(3) {
                        0 => (116 + rng.below(2) as u64, rng.below(66) as u64),
                        1 => (1000 + rng.below(900) as u64, rng.below(70) as u64),
                        _ => (60 + rng.below(1840) as u64, rng.below(70) as u64),
                    };
                    let signed = rng.below(2) == 0;
                    let mut xs = rng.run_at(len, lo, spread, signed);
                    for _ in 0..rng.below(4).min(len) {
                        let (i, regime) = (rng.below(len), rng.below(4));
                        xs[i] = rng.hostile(regime);
                    }
                    xs
                }
            };
            let mut acc = ExactSum::new();
            acc.add_slice(&xs);
            let want = acc.finalize().to_bits();
            let got = ExactSum::sum_slice(&xs).to_bits();
            assert_eq!(got, want, "round {round}: {xs:?}");
            match len <= WINDOW_LEN && window(&xs).is_some() {
                true => windowed += 1,
                false => accumulated += 1,
            }
        }
        assert!(
            windowed > 500 && accumulated > 1000,
            "{windowed} {accumulated}"
        );
    }

    #[test]
    fn same_scale_values_added_one_by_one_mostly_finalize_in_the_window() {
        // One group's distance terms, added value by value as a join that
        // interleaves groups adds them: the rounding errors are a few bits
        // each, so a sum of three or four components usually fits.
        let mut rng = Rng(0x7D);
        let (mut long, mut windowed) = (0, 0);
        for _ in 0..2000 {
            let mut s = ExactSum::new();
            for _ in 0..6 {
                let v = (rng.next() % 6000) as f64 / 1000.0;
                s.add((v - 3.0) * (v - 3.0) / 0.7);
            }
            let (comps, ..) = s.to_parts();
            if comps.len() >= 3 {
                long += 1;
                windowed += window(&comps).is_some() as u32;
                let want = fixed_point_round(&comps).to_bits();
                assert_eq!(s.finalize().to_bits(), want, "{comps:?}");
            }
        }
        assert!(
            long > 200 && windowed * 4 > long * 3,
            "{windowed} of {long}"
        );
    }

    #[test]
    fn integers_are_added_as_the_integers_they_are() {
        let sum = |vals: &[i64]| {
            let mut s = ExactSum::new();
            for &v in vals {
                s.add_i64(v);
            }
            s
        };
        // Past 2^53 the nearest double is not the integer.
        assert_eq!(sum(&[(1 << 53) + 1, -(1 << 53)]).finalize(), 1.0);
        assert_eq!(sum(&[(1 << 62) + 1, -(1 << 62), 1]).finalize(), 2.0);
        assert_eq!(sum(&[i64::MAX, i64::MIN]).finalize(), -1.0);
        assert_eq!(sum(&[i64::MAX, -i64::MAX]).finalize(), 0.0);
        assert_eq!(
            sum(&[i64::MIN, i64::MAX, i64::MAX, 3]).finalize(),
            2f64.powi(63) + 1024.0
        );
        // A double-sized integer is one add, and the state `add` leaves.
        for v in [0, 1, -1, 7, -(1 << 40), (1 << 53) - 1, 1 << 53, -(1 << 60)] {
            let mut plain = ExactSum::new();
            plain.add(v as f64);
            assert_eq!(sum(&[v]).to_parts(), plain.to_parts());
        }
        // Against i128 arithmetic.
        let mut rng = Rng(64);
        for _ in 0..300 {
            let vals: Vec<i64> = (0..1 + rng.below(12))
                .map(|_| (rng.next() as i64) >> rng.below(64))
                .collect();
            let total: i128 = vals.iter().map(|&v| v as i128).sum();
            assert_eq!(sum(&vals).finalize().to_bits(), (total as f64).to_bits());
        }
    }

    #[test]
    fn any_interleaving_of_add_merge_and_transport_matches_the_expansion() {
        let mut rng = Rng(0x0AC1E);
        // Which tiers met in a merge: [into inline, into wide] × [from
        // inline, from wide].
        let mut merges = [[0u32; 2]; 2];
        for round in 0..300 {
            let mut pool: Vec<(ExactSum, Reference)> = (0..4)
                .map(|_| (ExactSum::new(), Reference::default()))
                .collect();
            let values = rng.hostile_seq(8, 60);
            let mut values = values.iter().copied();
            while values.len() > 0 {
                let i = rng.below(pool.len());
                match rng.below(8) {
                    0 => {
                        let j = rng.below(pool.len());
                        let (theirs, their_ref) = pool[j].clone();
                        merges[is_wide(&pool[i].0) as usize][is_wide(&theirs) as usize] += 1;
                        pool[i].0.merge(&theirs);
                        pool[i].1.merge(&their_ref);
                    }
                    1 => pool[i].0 = through_parts(&pool[i].0),
                    2 => {
                        let run: Vec<f64> = values.by_ref().take(1 + rng.below(9)).collect();
                        pool[i].0.add_slice(&run);
                        run.iter().for_each(|&v| pool[i].1.add(v));
                    }
                    _ => {
                        let v = values.next().expect("one is left");
                        pool[i].0.add(v);
                        pool[i].1.add(v);
                    }
                }
                let (ours, theirs) = &pool[i];
                assert_eq!(
                    ours.finalize().to_bits(),
                    theirs.finalize().to_bits(),
                    "round {round}: {ours:?} vs {theirs:?}"
                );
            }
        }
        assert!(merges.iter().flatten().all(|&n| n > 20), "{merges:?}");
    }

    #[test]
    fn every_split_and_merge_order_matches_the_flat_expansion() {
        let mut rng = Rng(0x5B11D);
        for round in 0..120 {
            let values = rng.hostile_seq(1, 80);
            let want = reference(&values).finalize().to_bits();
            assert_eq!(exact(&values).to_bits(), want, "round {round}");
            let nparts = 1 + rng.below(4);
            let mut parts = vec![ExactSum::new(); nparts];
            for &v in &values {
                parts[rng.below(nparts)].add(v);
            }
            let shipped: Vec<ExactSum> = parts.iter().map(through_parts).collect();
            // Every order of the parts (Heap's algorithm), each part as
            // it is or as it crossed the wire.
            let mut order: Vec<usize> = (0..nparts).collect();
            let mut counters = vec![0; nparts];
            let mut i = 0;
            loop {
                let mut merged = ExactSum::new();
                for &part in &order {
                    let from = if rng.next() & 1 == 0 {
                        &parts
                    } else {
                        &shipped
                    };
                    merged.merge(&from[part]);
                }
                assert_eq!(
                    merged.finalize().to_bits(),
                    want,
                    "round {round}, {order:?}"
                );
                while i < nparts && counters[i] >= i {
                    counters[i] = 0;
                    i += 1;
                }
                if i == nparts {
                    break;
                }
                order.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
                counters[i] += 1;
                i = 0;
            }
        }
    }

    #[test]
    fn a_column_of_responsibilities_sums_to_the_expansions_bits() {
        // The M step's shape: 10^4 values 1e-310 … 1, times a coordinate.
        let mut rng = Rng(0x25);
        let values: Vec<f64> = (0..10_000)
            .map(|_| rng.hostile(5) * (rng.f64_wide() % 100.0))
            .collect();
        let want = reference(&values);
        assert!(want.comps.len() > 4 * INLINE_COMPS);
        let mut whole = ExactSum::new();
        whole.add_slice(&values);
        assert!(is_wide(&whole));
        assert_eq!(whole.finalize().to_bits(), want.finalize().to_bits());
        let (left, right) = values.split_at(3333);
        let mut merged = ExactSum::new();
        merged.add_slice(right);
        let mut first = ExactSum::new();
        first.add_slice(left);
        merged.merge(&through_parts(&first));
        assert_eq!(merged, whole);
        assert_eq!(merged.finalize().to_bits(), want.finalize().to_bits());
    }

    #[test]
    fn a_sum_outside_the_f64_range_travels_as_finite_terms() {
        let big = f64::MAX;
        let mut s = ExactSum::new();
        for v in [big, 1.0e308, big, 1.0, big, 2f64.powi(-1074), big, 1.0e308] {
            s.add(v);
        }
        assert!(is_wide(&s));
        assert_eq!(s.finalize(), f64::INFINITY);
        let mut back = through_parts(&s);
        assert_eq!(back.finalize(), f64::INFINITY);
        // What brings it back into range arrives after the hop.
        for v in [-big, -big, -big, -1.0e308, -1.0e308] {
            back.add(v);
        }
        let want = reference(&[big, 1.0, 2f64.powi(-1074)]).finalize();
        assert_eq!(back.finalize().to_bits(), want.to_bits());
        // And below zero.
        let mut neg = ExactSum::new();
        for v in [-big, -big, -big, 3.0, -2f64.powi(-1060), -big, -1.0e-300] {
            neg.add(v);
        }
        assert_eq!(through_parts(&neg).finalize(), f64::NEG_INFINITY);
        let mut merged = through_parts(&neg);
        merged.merge(&through_parts(&s));
        let mut flat = reference(&[1.0e308, 1.0e308, 1.0, 3.0, 2f64.powi(-1074)]);
        flat.add(-2f64.powi(-1060));
        flat.add(-1.0e-300);
        assert_eq!(merged.finalize().to_bits(), flat.finalize().to_bits());
    }

    /// A wide accumulator holding `x`, `times` times over.
    fn wide_times(x: f64, times: u32) -> ExactSum {
        let mut w = Box::new(Wide::zero());
        w.add_times(x, times);
        ExactSum {
            comps: Comps::Wide(w),
            ..ExactSum::default()
        }
    }

    #[test]
    fn limbs_hold_a_carry_periods_worth_of_the_largest_adds() {
        // An all-ones mantissa at limb alignment moves a limb by
        // 2^32 - 1 per add: the most an add can. A state at rest has
        // absorbed at most CARRY_PERIOD - 1 adds; one more period's
        // worth on top, or a merge with another such state, is the
        // furthest a limb gets from zero (a debug build panics on the
        // overflow this would be if the period were too long).
        let ones = f64::from_bits((1075u64 + 64) << 52 | ((1 << 52) - 1)); // (2^53 - 1) · 2^64
        assert_eq!(ones, ((1u64 << 53) - 1) as f64 * 2f64.powi(64));
        let period = 2f64.powi(30);
        assert_eq!(period, CARRY_PERIOD as f64);
        for x in [ones, -ones] {
            let rested = wide_times(x, CARRY_PERIOD - 1);
            let Comps::Wide(w) = &rested.comps else {
                unreachable!()
            };
            assert_eq!(w.pending, CARRY_PERIOD - 1);
            assert_eq!(
                w.limbs[36].abs(),
                (CARRY_PERIOD as i64 - 1) * ((1 << 32) - 1)
            );

            // (period - 1) + period adds of x.
            let mut more = rested.clone();
            let Comps::Wide(w) = &mut more.comps else {
                unreachable!()
            };
            w.add_times(x, CARRY_PERIOD);
            assert_eq!(w.pending, 0);
            assert_eq!(
                more.finalize().to_bits(),
                reference(&[x * period, x * period, -x])
                    .finalize()
                    .to_bits()
            );

            // A chain of merges counts the adds each one brings in.
            let mut chain = wide_times(x, CARRY_PERIOD / 2);
            let mut want = reference(&[x * (period / 2.0)]);
            for _ in 0..3 {
                chain.merge(&rested);
                want.add(x * period);
                want.add(-x);
            }
            assert_eq!(chain.finalize().to_bits(), want.finalize().to_bits());

            // Two rested states merged, either sign on the other side.
            for y in [x, -x] {
                let mut merged = rested.clone();
                merged.merge(&wide_times(y, CARRY_PERIOD - 1));
                let want = reference(&[x * period, -x, y * period, -y]);
                assert_eq!(merged.finalize().to_bits(), want.finalize().to_bits());
                // ...and then kept in use.
                merged.add(x);
                merged.merge(&rested);
                let want = reference(&[x * period, y * period, -y, x * period, -x]);
                assert_eq!(merged.finalize().to_bits(), want.finalize().to_bits());
            }
        }
    }

    #[test]
    fn bulk_adds_match_the_expansion_across_carry_propagations() {
        let mut rng = Rng(0xCA221);
        for round in 0..200 {
            let mut ours = wide_times(0.0, 1);
            let mut want = Reference::default();
            for _ in 0..1 + rng.below(12) {
                // Moderate exponents, so that x · 2^30 stays finite.
                let x = rng.f64_wide();
                let times = 1 + (rng.next() % CARRY_PERIOD as u64) as u32;
                // In place, or merged in (the only way into a sum that
                // came back from transport short enough to be inline).
                match &mut ours.comps {
                    Comps::Wide(w) if rng.below(3) != 0 => w.add_times(x, times),
                    _ => ours.merge(&wide_times(x, times)),
                }
                // x · times, exactly: one term per set bit.
                for bit in (0..32).filter(|b| times >> b & 1 == 1) {
                    want.add(x * 2f64.powi(bit));
                }
                if rng.below(4) == 0 {
                    ours = through_parts(&ours);
                }
            }
            assert_eq!(
                ours.finalize().to_bits(),
                want.finalize().to_bits(),
                "round {round}"
            );
        }
    }
}
