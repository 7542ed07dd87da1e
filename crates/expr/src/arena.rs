//! Arena-backed, hash-consed expression IR.
//!
//! The Algorithm-1 expression builders (footprints, per-level data volumes)
//! repeatedly construct the same sub-monomials: halo terms share tile-factor
//! products, every tensor's traffic shares the outer trip-count prefix, and
//! the 8-level loop nest multiplies the same handful of factors over and
//! over. The [`ExprArena`] makes that sharing explicit: each distinct
//! variable part (a sorted `(Var, f64)` exponent run) is interned **once**
//! into a shared slab and addressed by a copyable [`UnitId`], so building a
//! repeated subterm is a hash lookup rather than an allocation, and unit
//! products are memoized across the whole build.
//!
//! An [`ArenaSignomial`] is then just `Vec<(f64, UnitId)>` — term arithmetic
//! moves `u32`s around instead of cloning maps. Conversion to and from the
//! standalone [`Signomial`] type is exact: the arena mirrors the legacy
//! operations' floating-point arithmetic (same merge order, same coefficient
//! products), so an expression built through the arena and exported equals
//! the one built directly term by term.

use crate::monomial::quantize;
use crate::{Assignment, Monomial, Signomial, Var, CANON_EPS};
use std::cell::Cell;
use std::collections::HashMap;

/// Hash-consing and memo-table counters for one [`ExprArena`] (or, via
/// [`thread_arena_stats`], for every arena a thread has used).
///
/// `intern_*` counts structural interning: a hit means an identical unit
/// already existed and no allocation happened. `mul_*` and `subst_*` count
/// the product and substitution memo tables. All counters are monotone, so
/// deltas between two snapshots of the cumulative thread counters bracket a
/// region of work (e.g. one GP generation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Intern requests answered by an existing unit.
    pub intern_hits: u64,
    /// Intern requests that allocated a new unit.
    pub intern_misses: u64,
    /// Unit products answered by the memo table.
    pub mul_hits: u64,
    /// Unit products computed and memoized.
    pub mul_misses: u64,
    /// Substitutions answered by the memo table.
    pub subst_hits: u64,
    /// Substitutions computed and memoized.
    pub subst_misses: u64,
}

impl ArenaStats {
    /// Fraction of intern requests that hit an existing unit (0 when none).
    pub fn intern_hit_rate(&self) -> f64 {
        let total = self.intern_hits + self.intern_misses;
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 / total as f64
        }
    }

    /// Total counted arena operations.
    pub fn total_ops(&self) -> u64 {
        self.intern_hits
            + self.intern_misses
            + self.mul_hits
            + self.mul_misses
            + self.subst_hits
            + self.subst_misses
    }

    /// Counter-wise difference `self - mark` (saturating), for bracketing a
    /// region of work between two [`thread_arena_stats`] snapshots.
    pub fn delta_since(&self, mark: &ArenaStats) -> ArenaStats {
        ArenaStats {
            intern_hits: self.intern_hits.saturating_sub(mark.intern_hits),
            intern_misses: self.intern_misses.saturating_sub(mark.intern_misses),
            mul_hits: self.mul_hits.saturating_sub(mark.mul_hits),
            mul_misses: self.mul_misses.saturating_sub(mark.mul_misses),
            subst_hits: self.subst_hits.saturating_sub(mark.subst_hits),
            subst_misses: self.subst_misses.saturating_sub(mark.subst_misses),
        }
    }

    /// Counter-wise sum (rollup aggregation).
    pub fn merge(&mut self, other: &ArenaStats) {
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.mul_hits += other.mul_hits;
        self.mul_misses += other.mul_misses;
        self.subst_hits += other.subst_hits;
        self.subst_misses += other.subst_misses;
    }
}

thread_local! {
    /// Cumulative arena counters across every arena this thread has used.
    /// Model builds create several short-lived arenas per GP generation;
    /// the cumulative counters let a caller bracket the whole generation
    /// with two snapshots regardless of how many arenas it touched.
    static THREAD_STATS: Cell<ArenaStats> = const {
        Cell::new(ArenaStats {
            intern_hits: 0,
            intern_misses: 0,
            mul_hits: 0,
            mul_misses: 0,
            subst_hits: 0,
            subst_misses: 0,
        })
    };
}

/// Cumulative [`ArenaStats`] over every arena used on the current thread.
/// Monotone; take a snapshot before and after a region of work and use
/// [`ArenaStats::delta_since`] to attribute counters to that region.
pub fn thread_arena_stats() -> ArenaStats {
    THREAD_STATS.with(Cell::get)
}

fn bump_thread(apply: impl FnOnce(&mut ArenaStats)) {
    THREAD_STATS.with(|cell| {
        let mut stats = cell.get();
        apply(&mut stats);
        cell.set(stats);
    });
}

/// Handle to one interned variable part (a unit monomial, coefficient 1) in
/// an [`ExprArena`]. Only meaningful together with the arena that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(u32);

impl UnitId {
    /// The dense index of this unit in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hash-consing arena for unit monomials.
///
/// Exponent runs live in one shared slab (`runs`); each unit is a `(start,
/// len)` span into it. Structural interning quantizes exponents to multiples
/// of `2^-32` (the same key the legacy canonicalization sorts by), so two
/// units produced by identical algebra always collapse to one id.
///
/// # Examples
///
/// ```
/// use thistle_expr::{ExprArena, VarRegistry};
/// let mut reg = VarRegistry::new();
/// let (x, y) = (reg.var("x"), reg.var("y"));
/// let mut arena = ExprArena::new();
/// let xy = arena.mul_units(arena.one(), arena.one());
/// assert_eq!(xy, arena.one()); // 1*1 interns back to 1
/// let ux = arena.var(x);
/// let uy = arena.var(y);
/// let a = arena.mul_units(ux, uy);
/// let b = arena.mul_units(uy, ux);
/// assert_eq!(a, b); // x*y and y*x are the same unit
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExprArena {
    /// Shared slab of sorted `(Var, exponent)` pairs.
    runs: Vec<(Var, f64)>,
    /// Per-unit `(start, len)` spans into `runs`.
    spans: Vec<(u32, u32)>,
    /// Quantized-run hash → units with that hash (rarely more than one).
    index: HashMap<u64, Vec<UnitId>>,
    /// Memoized unit products, keyed by unordered id pair.
    mul_cache: HashMap<(UnitId, UnitId), UnitId>,
    /// Memoized substitutions `(unit, var, replacement unit) -> unit`.
    subst_cache: HashMap<(UnitId, Var, UnitId), UnitId>,
    /// Hash-consing and memo-table counters for this arena.
    stats: ArenaStats,
}

impl ExprArena {
    /// An empty arena (the unit `1` is pre-interned as id 0).
    pub fn new() -> Self {
        let mut arena = ExprArena {
            runs: Vec::new(),
            spans: Vec::new(),
            index: HashMap::new(),
            mul_cache: HashMap::new(),
            subst_cache: HashMap::new(),
            stats: ArenaStats::default(),
        };
        let one = arena.intern_sorted(&[]);
        debug_assert_eq!(one.0, 0);
        arena
    }

    /// The unit monomial `1`.
    pub fn one(&self) -> UnitId {
        UnitId(0)
    }

    /// Interns the single-variable unit `v`.
    pub fn var(&mut self, v: Var) -> UnitId {
        self.intern_sorted(&[(v, 1.0)])
    }

    /// The sorted exponent run of a unit.
    pub fn powers(&self, u: UnitId) -> &[(Var, f64)] {
        let (start, len) = self.spans[u.index()];
        &self.runs[start as usize..(start + len) as usize]
    }

    /// The exponent of `v` in unit `u` (zero if absent).
    pub fn exponent(&self, u: UnitId, v: Var) -> f64 {
        match self.powers(u).binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.powers(u)[i].1,
            Err(_) => 0.0,
        }
    }

    /// Number of distinct interned units.
    pub fn num_units(&self) -> usize {
        self.spans.len()
    }

    /// Total slab entries across all units (the shared-storage footprint).
    pub fn slab_len(&self) -> usize {
        self.runs.len()
    }

    /// Number of intern requests that hit an already-present unit.
    pub fn intern_hits(&self) -> u64 {
        self.stats.intern_hits
    }

    /// Hash-consing and memo-table counters accumulated by this arena.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Interns the unit (variable part) of a standalone monomial.
    pub fn intern_monomial_unit(&mut self, m: &Monomial) -> UnitId {
        self.intern_sorted(m.runs())
    }

    /// Evaluates a unit at a point (the product of variable powers, no
    /// coefficient).
    pub fn eval_unit(&self, u: UnitId, point: &Assignment) -> f64 {
        let mut acc = 1.0;
        for &(v, a) in self.powers(u) {
            acc *= point.get(v).powf(a);
        }
        acc
    }

    /// The product of two units (exponents added, ~zero sums dropped).
    /// Memoized: repeated products across a model build are free.
    pub fn mul_units(&mut self, a: UnitId, b: UnitId) -> UnitId {
        if a == self.one() {
            return b;
        }
        if b == self.one() {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&u) = self.mul_cache.get(&key) {
            self.stats.mul_hits += 1;
            bump_thread(|s| s.mul_hits += 1);
            return u;
        }
        self.stats.mul_misses += 1;
        bump_thread(|s| s.mul_misses += 1);
        let mut run = Vec::with_capacity(self.powers(a).len() + self.powers(b).len());
        {
            let (pa, pb) = (self.powers(a), self.powers(b));
            let (mut i, mut j) = (0usize, 0usize);
            while i < pa.len() && j < pb.len() {
                match pa[i].0.cmp(&pb[j].0) {
                    std::cmp::Ordering::Less => {
                        run.push(pa[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        run.push(pb[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        let sum = pa[i].1 + pb[j].1;
                        if sum.abs() > CANON_EPS {
                            run.push((pa[i].0, sum));
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            run.extend_from_slice(&pa[i..]);
            run.extend_from_slice(&pb[j..]);
        }
        let u = self.intern_sorted(&run);
        self.mul_cache.insert(key, u);
        u
    }

    /// Raises a unit to a real power (each exponent multiplied by `p`).
    pub fn pow_unit(&mut self, u: UnitId, p: f64) -> UnitId {
        let run: Vec<(Var, f64)> = self
            .powers(u)
            .iter()
            .map(|&(v, a)| (v, a * p))
            .filter(|&(_, a)| a.abs() > CANON_EPS)
            .collect();
        self.intern_sorted(&run)
    }

    /// Substitutes `replacement` (a unit) for `v` in `u`: if `v` has exponent
    /// `a`, returns `(a, (u / v^a) * replacement^a)`; `None` when `v` is
    /// absent. The caller owns any replacement coefficient (`c^a`).
    pub fn substitute_unit(
        &mut self,
        u: UnitId,
        v: Var,
        replacement: UnitId,
    ) -> Option<(f64, UnitId)> {
        let a = match self.powers(u).binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.powers(u)[i].1,
            Err(_) => return None,
        };
        let key = (u, v, replacement);
        if let Some(&cached) = self.subst_cache.get(&key) {
            self.stats.subst_hits += 1;
            bump_thread(|s| s.subst_hits += 1);
            return Some((a, cached));
        }
        self.stats.subst_misses += 1;
        bump_thread(|s| s.subst_misses += 1);
        let base_run: Vec<(Var, f64)> = self
            .powers(u)
            .iter()
            .copied()
            .filter(|&(w, _)| w != v)
            .collect();
        let base = self.intern_sorted(&base_run);
        let repl_pow = self.pow_unit(replacement, a);
        let out = self.mul_units(base, repl_pow);
        self.subst_cache.insert(key, out);
        Some((a, out))
    }

    /// Interns a sorted, deduplicated, ~zero-free run, returning the id of
    /// the structurally identical unit if one exists.
    fn intern_sorted(&mut self, run: &[(Var, f64)]) -> UnitId {
        debug_assert!(
            run.windows(2).all(|w| w[0].0 < w[1].0),
            "run must be sorted"
        );
        let hash = quantized_hash(run);
        if let Some(candidates) = self.index.get(&hash) {
            for &u in candidates {
                if quantized_eq(self.powers(u), run) {
                    self.stats.intern_hits += 1;
                    bump_thread(|s| s.intern_hits += 1);
                    return u;
                }
            }
        }
        self.stats.intern_misses += 1;
        bump_thread(|s| s.intern_misses += 1);
        let start = self.runs.len() as u32;
        self.runs.extend_from_slice(run);
        let id = UnitId(self.spans.len() as u32);
        self.spans.push((start, run.len() as u32));
        self.index.entry(hash).or_default().push(id);
        id
    }
}

/// FNV-1a over the quantized run (variable index + quantized exponent).
fn quantized_hash(run: &[(Var, f64)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut step = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &(v, a) in run {
        step(v.index() as u64);
        step(quantize(a) as u64);
    }
    h
}

fn quantized_eq(a: &[(Var, f64)], b: &[(Var, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(va, ea), &(vb, eb))| va == vb && quantize(ea) == quantize(eb))
}

/// A signomial whose terms live in an [`ExprArena`]: a flat list of
/// `(coefficient, unit id)` pairs, canonically sorted by unit id with like
/// terms merged.
///
/// All structural operations mirror the legacy [`Signomial`] arithmetic
/// exactly (same products, same left-to-right coefficient accumulation for
/// like terms), so [`ArenaSignomial::to_signomial`] reproduces the
/// expression the legacy builders would have produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArenaSignomial {
    terms: Vec<(f64, UnitId)>,
}

impl ArenaSignomial {
    /// The zero signomial (empty sum).
    pub fn zero() -> Self {
        ArenaSignomial { terms: Vec::new() }
    }

    /// A constant signomial.
    pub fn constant(arena: &ExprArena, c: f64) -> Self {
        assert!(c.is_finite(), "signomial constants must be finite");
        if c == 0.0 {
            return ArenaSignomial::zero();
        }
        ArenaSignomial {
            terms: vec![(c, arena.one())],
        }
    }

    /// The signomial consisting of a single variable.
    pub fn var(arena: &mut ExprArena, v: Var) -> Self {
        let u = arena.var(v);
        ArenaSignomial {
            terms: vec![(1.0, u)],
        }
    }

    /// A single term `c * unit`.
    pub fn term(c: f64, unit: UnitId) -> Self {
        if c == 0.0 {
            return ArenaSignomial::zero();
        }
        ArenaSignomial {
            terms: vec![(c, unit)],
        }
    }

    /// Imports a standalone signomial, interning each term's unit.
    pub fn from_signomial(arena: &mut ExprArena, s: &Signomial) -> Self {
        let mut out = ArenaSignomial {
            terms: s
                .terms()
                .map(|(c, m)| (c, arena.intern_monomial_unit(m)))
                .collect(),
        };
        out.canonicalize();
        out
    }

    /// Imports a standalone monomial as a one-term signomial.
    pub fn from_monomial(arena: &mut ExprArena, m: &Monomial) -> Self {
        let u = arena.intern_monomial_unit(m);
        ArenaSignomial::term(m.coeff(), u)
    }

    /// Exports to a standalone [`Signomial`] (the thin-façade boundary: all
    /// public model APIs return this form).
    pub fn to_signomial(&self, arena: &ExprArena) -> Signomial {
        Signomial::from_terms(
            self.terms
                .iter()
                .map(|&(c, u)| (c, Monomial::new(1.0, arena.powers(u).iter().copied())))
                .collect(),
        )
    }

    /// Number of terms after canonicalization.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Whether the signomial is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(coefficient, unit)` pairs in canonical (id) order.
    pub fn terms(&self) -> impl Iterator<Item = (f64, UnitId)> + '_ {
        self.terms.iter().copied()
    }

    /// Whether any term mentions `v`.
    pub fn contains(&self, arena: &ExprArena, v: Var) -> bool {
        self.terms.iter().any(|&(_, u)| {
            arena
                .powers(u)
                .binary_search_by_key(&v, |&(w, _)| w)
                .is_ok()
        })
    }

    /// Evaluates at a point.
    pub fn eval(&self, arena: &ExprArena, point: &Assignment) -> f64 {
        self.terms
            .iter()
            .map(|&(c, u)| c * arena.eval_unit(u, point))
            .sum()
    }

    /// The sum of two arena signomials (no new units needed).
    pub fn add(&self, other: &Self) -> Self {
        let mut out = ArenaSignomial {
            terms: self
                .terms
                .iter()
                .chain(other.terms.iter())
                .copied()
                .collect(),
        };
        out.canonicalize();
        out
    }

    /// Multiplies every coefficient by `c` (which may be negative or zero).
    pub fn scale(&self, c: f64) -> Self {
        assert!(c.is_finite(), "scale factor must be finite");
        let mut out = ArenaSignomial {
            terms: self.terms.iter().map(|&(k, u)| (k * c, u)).collect(),
        };
        out.canonicalize();
        out
    }

    /// The product of two arena signomials.
    pub fn mul(arena: &mut ExprArena, a: &Self, b: &Self) -> Self {
        let mut terms = Vec::with_capacity(a.terms.len() * b.terms.len());
        for &(ca, ua) in &a.terms {
            for &(cb, ub) in &b.terms {
                terms.push((ca * cb, arena.mul_units(ua, ub)));
            }
        }
        let mut out = ArenaSignomial { terms };
        out.canonicalize();
        out
    }

    /// Multiplies by a standalone monomial (exact, no term growth).
    pub fn mul_monomial(&self, arena: &mut ExprArena, m: &Monomial) -> Self {
        let um = arena.intern_monomial_unit(m);
        let c = m.coeff();
        let mut out = ArenaSignomial {
            terms: self
                .terms
                .iter()
                .map(|&(k, u)| (k * c, arena.mul_units(u, um)))
                .collect(),
        };
        out.canonicalize();
        out
    }

    /// Substitutes `replacement` for every occurrence of variable `v` in
    /// every term (the arena twin of [`Signomial::substitute`]).
    pub fn substitute(&self, arena: &mut ExprArena, v: Var, replacement: &Monomial) -> Self {
        let repl_unit = arena.intern_monomial_unit(replacement);
        let repl_coeff = replacement.coeff();
        let mut out = ArenaSignomial {
            terms: self
                .terms
                .iter()
                .map(|&(k, u)| match arena.substitute_unit(u, v, repl_unit) {
                    Some((a, nu)) => (k * repl_coeff.powf(a), nu),
                    None => (k, u),
                })
                .collect(),
        };
        out.canonicalize();
        out
    }

    /// Sorts by unit id (stable: like terms keep construction order) and
    /// merges adjacent like terms left to right, dropping ~zero sums — the
    /// same accumulation the legacy canonicalization performs.
    fn canonicalize(&mut self) {
        self.terms.sort_by_key(|&(_, u)| u);
        let mut write = 0usize;
        for read in 0..self.terms.len() {
            if write > 0 && self.terms[write - 1].1 == self.terms[read].1 {
                self.terms[write - 1].0 += self.terms[read].0;
            } else {
                self.terms[write] = self.terms[read];
                write += 1;
            }
        }
        self.terms.truncate(write);
        self.terms.retain(|&(c, _)| c.abs() > CANON_EPS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarRegistry;

    fn setup() -> (VarRegistry, Var, Var) {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        (reg, x, y)
    }

    #[test]
    fn interning_dedupes_structurally() {
        let (_, x, y) = setup();
        let mut arena = ExprArena::new();
        let ux = arena.var(x);
        let uy = arena.var(y);
        let xy1 = arena.mul_units(ux, uy);
        let xy2 = arena.mul_units(uy, ux); // answered by the mul cache
        assert_eq!(xy1, xy2);
        assert_eq!(arena.num_units(), 4); // 1, x, y, xy
        assert_eq!(arena.var(x), ux); // re-interning hits the index
        assert_eq!(arena.intern_hits(), 1);
    }

    #[test]
    fn mul_cancels_exponents() {
        let (_, x, _) = setup();
        let mut arena = ExprArena::new();
        let ux = arena.var(x);
        let inv = arena.pow_unit(ux, -1.0);
        let one = arena.mul_units(ux, inv);
        assert_eq!(one, arena.one());
    }

    #[test]
    fn roundtrip_matches_legacy_signomial() {
        let (reg, x, y) = setup();
        let legacy =
            Signomial::var(x) * 2.0 + Signomial::var(y).pow_i(2) - Signomial::constant(3.0);
        let mut arena = ExprArena::new();
        let imported = ArenaSignomial::from_signomial(&mut arena, &legacy);
        assert_eq!(imported.to_signomial(&arena), legacy);
        let mut pt = reg.assignment();
        pt.set(x, 2.5);
        pt.set(y, 4.0);
        assert_eq!(imported.eval(&arena, &pt), legacy.eval(&pt));
    }

    #[test]
    fn arena_ops_mirror_legacy_ops() {
        let (reg, x, y) = setup();
        let a = Signomial::var(x) + Signomial::constant(1.0);
        let b = Signomial::var(y) - Signomial::constant(2.0);
        let m = Monomial::new(3.0, [(y, 1.0)]);

        let mut arena = ExprArena::new();
        let aa = ArenaSignomial::from_signomial(&mut arena, &a);
        let ab = ArenaSignomial::from_signomial(&mut arena, &b);

        assert_eq!(aa.add(&ab).to_signomial(&arena), &a + &b);
        assert_eq!(
            ArenaSignomial::mul(&mut arena, &aa, &ab).to_signomial(&arena),
            &a * &b
        );
        assert_eq!(
            aa.mul_monomial(&mut arena, &m).to_signomial(&arena),
            a.mul_monomial(&m)
        );
        assert_eq!(
            aa.substitute(&mut arena, x, &m).to_signomial(&arena),
            a.substitute(x, &m)
        );
        assert_eq!(aa.scale(-1.5).to_signomial(&arena), a.scale(-1.5));

        let mut pt = reg.assignment();
        pt.set(x, 1.5);
        pt.set(y, 0.5);
        assert_eq!(aa.eval(&arena, &pt), a.eval(&pt));
    }

    #[test]
    fn stats_count_hits_and_misses_per_table() {
        let (_, x, y) = setup();
        let mut arena = ExprArena::new();
        let ux = arena.var(x);
        let uy = arena.var(y);
        let _ = arena.mul_units(ux, uy); // miss
        let _ = arena.mul_units(uy, ux); // hit (unordered key)
        let repl = arena.var(y); // intern hit
        let _ = arena.substitute_unit(ux, x, repl); // miss
        let _ = arena.substitute_unit(ux, x, repl); // hit
        let stats = arena.stats();
        assert_eq!(stats.mul_hits, 1);
        assert_eq!(stats.mul_misses, 1);
        assert_eq!(stats.subst_hits, 1);
        assert_eq!(stats.subst_misses, 1);
        assert_eq!(stats.intern_hits, arena.intern_hits());
        assert!(stats.intern_misses >= 3); // 1, x, y at minimum
        assert!(stats.intern_hit_rate() > 0.0 && stats.intern_hit_rate() < 1.0);
    }

    #[test]
    fn thread_stats_accumulate_across_arenas() {
        let (_, x, y) = setup();
        let mark = thread_arena_stats();
        let per_arena = {
            let mut arena = ExprArena::new();
            let ux = arena.var(x);
            let uy = arena.var(y);
            let _ = arena.mul_units(ux, uy);
            let _ = arena.var(x);
            arena.stats()
        };
        // A second arena on the same thread keeps accumulating.
        let second = {
            let mut arena = ExprArena::new();
            let _ = arena.var(y);
            arena.stats()
        };
        let delta = thread_arena_stats().delta_since(&mark);
        let mut expected = per_arena;
        expected.merge(&second);
        assert_eq!(delta, expected);
        assert_eq!(delta.intern_hits, per_arena.intern_hits);
        assert!(delta.total_ops() > 0);
    }

    #[test]
    fn substitution_is_memoized() {
        let (_, x, y) = setup();
        let mut arena = ExprArena::new();
        let u = arena.intern_sorted(&[(x, 2.0), (y, 1.0)]);
        let repl = arena.var(y);
        let first = arena.substitute_unit(u, x, repl);
        let second = arena.substitute_unit(u, x, repl);
        assert_eq!(first, second);
        let (a, nu) = first.unwrap();
        assert_eq!(a, 2.0);
        assert_eq!(arena.powers(nu), &[(y, 3.0)]);
    }
}
