"""Exact arithmetic over Q(sqrt(7)) and the closed-form threshold table.

The extremal edge counts in this problem family live in the quadratic field
Q(sqrt(7)): the three-color transitive-triangle threshold has the quadratic
coefficient (52 - 4*sqrt(7))/81 = 0.51133..., and the optimal construction
splits the vertices into parts of relative sizes (4 - sqrt(7))/9, so floating
point is not good enough to decide equalities between these quantities.
``QuadraticRational`` represents a + b*sqrt(7) with ``Fraction`` coordinates
and compares values by sign analysis on integers -- no rounding anywhere.

The module also holds three self-contained pieces of exact machinery used by
the verification commands:

* ``thresholds()`` -- the table of edge-count thresholds that force a rainbow
  (three-distinct-color) triangle of the directed or transitive kind, per
  color count and per quantity measured (single color class / sum of a pair
  of color classes / total over all classes).

* ``lemma21_bound`` / ``lemma21_oracle`` -- for a graph on two disjoint
  vertex sets A and B with no triangle touching both sides, the edge count is
  at most C(|A|,2) + C(|B|,2) + min(|A|,|B|).  The oracle computes the true
  maximum by exhausting over all bipartite cross graphs: once the cross edges
  are fixed, a within-side edge is addable exactly when its endpoints share
  no cross-neighbor, independently of all other within-side edges.

* ``ConstraintSystem`` / ``scan_constraint_system`` -- the final reduction of
  the three-color transitive argument: a system of two quadratic and two
  linear constraints in four nonnegative reals (u, y, z, r) whose non-strict
  version admits exactly one solution (1/3, 0, 0, 0).  The system is written
  once, in integers, for a point over a common denominator.  The scanner
  grades all 106,923,921 feasible points of the grid of step 1/498 exactly
  and checks that (1/3, 0, 0, 0) is the only one where both slacks are
  >= 0, and that both vanish there.  It reads the grid as 849,378 rows in r:
  along a row one slack never decreases and the other strictly decreases,
  so each row's best point sits where they cross, found by bisection in
  int64, about 2,048 rows per numpy pass.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm

import numpy as np

from .graphs import GraphInputError

__all__ = [
    "QuadraticRational",
    "SQRT7",
    "ThresholdEntry",
    "thresholds",
    "threshold_identities",
    "threshold_value",
    "MAX_LEMMA21_SIZE",
    "lemma21_bound",
    "lemma21_oracle",
    "ConstraintSystem",
    "ScanResult",
    "scan_constraint_system",
]


def _floor_root7(m: int) -> int:
    """floor(m * sqrt(7)) for an integer m, computed exactly."""
    if m == 0:
        return 0
    if m > 0:
        return isqrt(7 * m * m)
    # sqrt(7) is irrational, so m*sqrt(7) is never an integer for m != 0
    return -isqrt(7 * m * m) - 1


def _by_sign(test):
    """A comparison method that applies ``test`` to ``_cmp``'s sign and 0."""

    def compare(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else test(c, 0)

    return compare


def _coerced(method):
    """``method`` on its operand coerced by ``_coerce``, or NotImplemented."""

    def coerced(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else method(self, other)

    return coerced


@dataclass(frozen=True)
class QuadraticRational:
    """The real number a + b*sqrt(7) with rational a and b.

    Field arithmetic is exact; ordering is decided by the sign of the
    difference, read from its exact integer floor, so chained comparisons of
    nearby values such as 127 - 48*sqrt(7) versus 0 are always correct.
    """

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    # -- construction helpers -------------------------------------------
    @staticmethod
    def _coerce(value) -> "QuadraticRational":
        if isinstance(value, QuadraticRational):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadraticRational(Fraction(value))
        return NotImplemented

    # -- ring/field operations ------------------------------------------
    @_coerced
    def __add__(self, other):
        return QuadraticRational(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticRational":
        return QuadraticRational(-self.a, -self.b)

    @_coerced
    def __sub__(self, other):
        return QuadraticRational(self.a - other.a, self.b - other.b)

    @_coerced
    def __rsub__(self, other):
        return other - self

    @_coerced
    def __mul__(self, other):
        return QuadraticRational(
            self.a * other.a + 7 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        norm = other.a * other.a - 7 * other.b * other.b
        # norm == 0 only for the zero element; Fraction raises on /0
        return QuadraticRational(
            (self.a * other.a - 7 * self.b * other.b) / norm,
            (self.b * other.a - self.a * other.b) / norm,
        )

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def __abs__(self) -> "QuadraticRational":
        return -self if self.sign() < 0 else self

    # -- ordering ---------------------------------------------------------
    def sign(self) -> int:
        """-1, 0 or 1 according to the sign of the represented real."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        # the value is irrational, so it is never 0, and it is > 0 exactly
        # when its floor is >= 0
        return 1 if self.floor_scaled(1) >= 0 else -1

    @_coerced
    def _cmp(self, other) -> int:
        return (self - other).sign()

    __eq__ = _by_sign(operator.eq)
    __ne__ = _by_sign(operator.ne)
    __lt__ = _by_sign(operator.lt)
    __le__ = _by_sign(operator.le)
    __gt__ = _by_sign(operator.gt)
    __ge__ = _by_sign(operator.ge)

    def __hash__(self):
        # rational values hash like their Fraction so mixed dict keys work
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt7"))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- conversions ------------------------------------------------------
    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 7.0**0.5

    def floor_scaled(self, scale: int) -> int:
        """floor(self * scale) for a positive integer scale, exactly."""
        if scale <= 0:
            raise GraphInputError("scale must be a positive integer")
        a, b = self.a * scale, self.b * scale
        d = a.denominator * b.denominator
        big_a = a.numerator * b.denominator
        big_b = b.numerator * a.denominator
        # big_a + t <= big_a + big_b*sqrt7 < big_a + t + 1, and dividing the
        # bracket by d cannot pass an integer, so the floor is immediate
        return (big_a + _floor_root7(big_b)) // d

    def decimal(self, digits: int = 4) -> str:
        """Decimal string rounded (half away from zero) to ``digits`` places."""
        if digits < 0:
            raise GraphInputError("digits must be non-negative")
        neg = self.sign() < 0
        v = -self if neg else self
        scaled = (v.floor_scaled(10 ** (digits + 1)) + 5) // 10
        whole, frac = divmod(scaled, 10**digits)
        out = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
        return "-" + out if neg and scaled else out

    def __repr__(self) -> str:
        return f"QuadraticRational({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt(7)"
        op = "-" if self.b < 0 else "+"
        return f"{self.a} {op} {abs(self.b)}*sqrt(7)"


SQRT7 = QuadraticRational(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# threshold table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdEntry:
    """One edge-count threshold that forces a rainbow triangle.

    The threshold reads ``quad * n**2 + linear * n``, with ``quad`` scaled by
    the number of colors for thresholds on the total over all color classes
    (``scales_with_colors``).  ``strict`` records whether the count must
    exceed the threshold or merely reach it.
    """

    name: str
    pattern: str  # "directed" | "transitive" | "undirected"
    colors: str  # "3" | ">=3" | ">=4"
    quantity: str  # "per-color" | "pair-sum" | "total"
    quad: QuadraticRational
    linear: Fraction = Fraction(0)
    strict: bool = True
    oriented_only: bool = False
    note: str = ""

    @property
    def scales_with_colors(self) -> bool:
        return self.quantity == "total"


def _q(num: int, den: int = 1) -> QuadraticRational:
    return QuadraticRational(Fraction(num, den))


def _q7(a_num: int, a_den: int, b_num: int, b_den: int) -> QuadraticRational:
    return QuadraticRational(Fraction(a_num, a_den), Fraction(b_num, b_den))


def thresholds() -> dict[str, ThresholdEntry]:
    """The threshold table, keyed by entry name.

    ``per-color``: every color class above the threshold forces the pattern.
    ``pair-sum``: every sum of two distinct color classes above it does.
    ``total``: the sum over all classes above it does (threshold scales with
    the number of colors).
    """
    entries = [
        ThresholdEntry(
            "directed-per-color-4plus", "directed", ">=4", "per-color", _q(1, 2)
        ),
        ThresholdEntry(
            "transitive-per-color-4plus", "transitive", ">=4", "per-color", _q(1, 2)
        ),
        ThresholdEntry(
            "directed-total-4plus",
            "directed",
            ">=4",
            "total",
            _q(1, 2),
            note="threshold (c/2)*n^2; two full color classes alone stay rainbow-free",
        ),
        ThresholdEntry(
            "transitive-total-4plus",
            "transitive",
            ">=4",
            "total",
            _q(1, 2),
        ),
        ThresholdEntry(
            "directed-per-color-3",
            "directed",
            "3",
            "per-color",
            _q(5, 9),
            strict=False,
            note="reaching (5/9)*n^2 in each of the three classes already suffices",
        ),
        ThresholdEntry(
            "directed-pair-3",
            "directed",
            "3",
            "pair-sum",
            _q(10, 9),
            strict=False,
        ),
        ThresholdEntry(
            "transitive-per-color-3",
            "transitive",
            "3",
            "per-color",
            _q7(52, 81, -4, 81),
            Fraction(3, 2),
        ),
        ThresholdEntry(
            "transitive-pair-3",
            "transitive",
            "3",
            "pair-sum",
            _q7(104, 81, -8, 81),
            Fraction(3),
        ),
        ThresholdEntry(
            "transitive-per-color-oriented",
            "transitive",
            ">=3",
            "per-color",
            _q(1, 3),
            oriented_only=True,
            note="for layers with no two-way pair; tight for the cyclic three-part graph",
        ),
        ThresholdEntry(
            "transitive-total-oriented",
            "transitive",
            ">=3",
            "total",
            _q(1, 3),
            oriented_only=True,
            note="threshold (c/3)*n^2 for layers with no two-way pair",
        ),
        ThresholdEntry(
            "undirected-pair-3",
            "undirected",
            "3",
            "pair-sum",
            _q7(52, 81, -4, 81),
            Fraction(3, 2),
        ),
        ThresholdEntry(
            "undirected-per-color-3",
            "undirected",
            "3",
            "per-color",
            _q7(26, 81, -2, 81),
            note="asymptotically optimal coefficient, about 0.2557",
        ),
    ]
    return {entry.name: entry for entry in entries}


def threshold_identities(table: dict[str, ThresholdEntry]) -> list[dict]:
    """Internal consistency of the n**2 coefficients: pair-sum = 2 * per-color,
    transitive per-color = 2 * undirected (``transitive3`` is symmetric), and
    the weakest prints as 0.2557.  One ``{"check", "holds"}`` per identity."""
    identities = [
        {
            "check": f"{pair_name} = 2 * {per_name}",
            "holds": table[pair_name].quad == table[per_name].quad * 2,
        }
        for pair_name, per_name in (
            ("directed-pair-3", "directed-per-color-3"),
            ("transitive-pair-3", "transitive-per-color-3"),
            ("undirected-pair-3", "undirected-per-color-3"),
            ("transitive-per-color-3", "undirected-per-color-3"),
        )
    ]
    identities.append(
        {
            "check": "undirected-per-color-3 rounds to 0.2557",
            "holds": table["undirected-per-color-3"].quad.decimal(4) == "0.2557",
        }
    )
    return identities


def threshold_value(entry: ThresholdEntry, n: int, c: int | None = None) -> QuadraticRational:
    """Evaluate an entry's threshold at ``n`` vertices (and ``c`` colors)."""
    quad = entry.quad
    if entry.scales_with_colors:
        if c is None:
            raise GraphInputError(f"entry {entry.name!r} needs the number of colors")
        quad = quad * c
    return quad * (n * n) + QuadraticRational(entry.linear * n)


# ---------------------------------------------------------------------------
# two-sided triangle-free edge maximum
# ---------------------------------------------------------------------------


def lemma21_bound(a: int, b: int) -> int:
    """Edge bound C(a,2) + C(b,2) + min(a,b) for graphs on two disjoint sets
    with no triangle touching both sides."""
    if a < 0 or b < 0:
        raise GraphInputError("set sizes must be non-negative")
    return comb(a, 2) + comb(b, 2) + min(a, b)


# Work budget of lemma21_oracle: it enumerates 2**(a*b) cross graphs and
# lists the within-side pairs, so a*b and each side stay at or below this.
MAX_LEMMA21_SIZE = 20


def lemma21_oracle(a: int, b: int) -> int:
    """True maximum edge count over all graphs on sets of sizes a and b with
    no triangle having vertices on both sides.

    Exhausts the 2**(a*b) bipartite cross graphs.  For a fixed cross graph a
    within-side edge creates a mixed triangle exactly when its endpoints have
    a common neighbor on the other side, independently for every within-side
    pair, so each side contributes its count of cross-neighborhood-disjoint
    pairs.
    """
    if a < 0 or b < 0:
        raise GraphInputError("set sizes must be non-negative")
    if max(a, b, a * b) > MAX_LEMMA21_SIZE:
        raise GraphInputError(
            f"a={a}, b={b} exceed the limit MAX_LEMMA21_SIZE = {MAX_LEMMA21_SIZE} "
            "on a*b and on each side"
        )
    # The maximum is symmetric in (a, b), and the B side costs one any(...)
    # over the A masks per B pair for every cross graph while the A side costs
    # one mask test per A pair: with the larger side as A, (1, 20) runs as
    # fast as (20, 1).
    if b > a:
        a, b = b, a
    a_pairs = list(itertools.combinations(range(a), 2))
    best = 0
    for bits in range(1 << (a * b)):
        # neighbor bitmask over B for each vertex of A
        masks = [(bits >> (i * b)) & ((1 << b) - 1) for i in range(a)]
        edges = sum(m.bit_count() for m in masks)
        edges += sum(1 for i, j in a_pairs if masks[i] & masks[j] == 0)
        for x in range(b):
            for y in range(x + 1, b):
                both = (1 << x) | (1 << y)
                if not any(m & both == both for m in masks):
                    edges += 1
        best = max(best, edges)
    return best


# ---------------------------------------------------------------------------
# the four-variable constraint system
# ---------------------------------------------------------------------------


def _scaled_system(iu, iy, iz, ir, m):
    """The system at (u, y, z, r) = (iu, iy, iz, ir) / m in exact integers:
    (144 m^2 q1, 144 m^2 q2, 4m (1 - 3u - y/2 - r), 4m (u - 3y/4 - z)).

    Works on Python ints and elementwise on int64 arrays.  With every
    numerator in [-2m, 2m] each intermediate is below 2^14 m^2 in absolute
    value, so int64 is exact for m <= 2^24; at the feasible points of the
    scan's grid (m = 498) every value is below 2^31.
    """
    base = 12 * iu + 7 * iy  # 12m (u + 7y/12)
    w = 6 * iz + 9 * ir  # 12m (z/2 + 3r/4)
    lin = 12 * (m - ir - 2 * iu) - 6 * iy  # 12m (1 - r - y/2 - 2u)
    q1 = base * (base + 2 * w)
    q2 = 288 * iu * iu + lin * lin - 72 * iz * (iy + 3 * iz)
    return q1, q2, 4 * (m - 3 * iu - ir) - 2 * iy, 4 * (iu - iz) - 3 * iy


def _numerators(point) -> tuple[list[int], int]:
    """The numerators of a rational point over its least common denominator m, and m."""
    m = lcm(*(Fraction(x).denominator for x in point))
    return [(Fraction(x) * m).numerator for x in point], m


@dataclass(frozen=True)
class ConstraintSystem:
    """The final four-variable system of the three-color transitive argument.

    Variables u, y, z, r are nonnegative reals subject to the linear
    constraints ``3u + y/2 + r <= 1`` and ``u - 3y/4 - z >= 0``.  The two
    quadratic quantities

        q1 = (u + 7y/12 + z/2 + 3r/4)^2 - (z/2 + 3r/4)^2
        q2 = 2u^2 + (1 - r - y/2 - 2u)^2 - yz/2 - 3z^2/2

    each come with a lower bound (``bound1`` and ``bound2``).  The slack
    pair is ``(q1 - bound1, q2 - bound2)``; the system's defining property
    is that the minimum of the two slacks is nonpositive everywhere on the
    feasible region and vanishes only at ``OPTIMUM`` = (1/3, 0, 0, 0).
    """

    bound1: Fraction = Fraction(1, 9)
    bound2: Fraction = Fraction(1, 3)

    OPTIMUM = (Fraction(1, 3), Fraction(0), Fraction(0), Fraction(0))

    def feasible(self, u, y, z, r) -> bool:
        nums, m = _numerators((u, y, z, r))
        return min(*nums, *_scaled_system(*nums, m)[2:]) >= 0

    def slacks(self, u, y, z, r) -> tuple[Fraction, Fraction]:
        """Exact slack pair at a rational point."""
        nums, m = _numerators((u, y, z, r))
        q1, q2, _, _ = _scaled_system(*nums, m)
        scale = 144 * m * m
        return Fraction(q1, scale) - self.bound1, Fraction(q2, scale) - self.bound2


@dataclass(frozen=True)
class ScanResult:
    """The best feasible grid point, in exact coordinates, its exact minimum
    slack, and the number of feasible grid points with both slacks >= 0."""

    grid_value: Fraction
    grid_point: tuple[Fraction, Fraction, Fraction, Fraction]
    grid_points: int
    nonnegative_points: int
    exact_slacks_at_optimum: tuple[Fraction, Fraction]

    @property
    def optimum_confirmed(self) -> bool:
        """Whether OPTIMUM alone has both slacks >= 0, and both are 0 there."""
        exact = self.exact_slacks_at_optimum == (0, 0)
        return self.nonnegative_points == 1 and self.grid_point == ConstraintSystem.OPTIMUM and exact


# The scan's grid: every coordinate is i / _GRID_DENOM for an integer i.
# 498 = 3 * 166, so ConstraintSystem.OPTIMUM is itself a grid point.
_GRID_DENOM = 498
# rows per chunk of the scan, so its arrays stay a few hundred kB; larger
# chunks run faster but raised the peak resident memory of verify-all
_CHUNK_ROWS = 2048


def _grid_rows(m):
    """The feasible rows of the grid of step 1/m in chunks of about
    ``_CHUNK_ROWS`` rows within one grid u: iu, then int64 arrays of each
    row's iy and iz and of nr, its count of grid r, rows in (y, z) order.
    Row (u, y, z) holds the points (u, y, z, i/m) for i in range(nr): a grid
    step of z or of r takes 4 off one scaled headroom, so nz and nr come
    from the headrooms at z = r = 0."""
    for iu in range(m // 3 + 1):  # 3u <= 1
        iy = np.arange(2 * m + 1)  # y/2 <= 1
        *_, room1, room2 = _scaled_system(iu, iy, 0, 0, m)
        keep = np.minimum(room1, room2) >= 0  # both shrink as y grows
        iy, nz, nr = iy[keep], room2[keep] // 4 + 1, room1[keep] // 4 + 1
        # a chunk starts at each column that starts past a multiple of the size
        starts = np.cumsum(nz) - nz
        cuts = [0, *(np.flatnonzero(np.diff(starts // _CHUNK_ROWS)) + 1).tolist(), len(nz)]
        for lo, hi in zip(cuts, cuts[1:]):
            counts = nz[lo:hi]
            iz = np.arange(counts.sum()) - np.repeat(starts[lo:hi] - starts[lo], counts)
            yield iu, np.repeat(iy[lo:hi], counts), iz, np.repeat(nr[lo:hi], counts)


def _first_nonpositive(a, b, c, n):
    """Elementwise over int64 arrays: the least integer r in [0, n] with
    a r^2 + b r + c <= 0, or n if there is none, for a quadratic that does
    not increase on [0, n - 1].  Bisection in exact integers."""
    lo, hi = np.zeros_like(n), n.copy()
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) >> 1
        done = (a * mid + b) * mid + c <= 0
        hi -= (hi - mid) * done
        lo += (mid + 1 - lo) * (open_ & ~done)


def _row_maxima(iu, iy, iz, nr, m, bound1, bound2):
    """For rows (u, y, z) of the grid of step 1/m, given as int64 arrays with
    a scalar or array iu: each row's largest min(s1, s2) over its nr points
    in units of 1/(144 m^2), the first r reaching it, and its count of
    points with both slacks >= 0, for the integer scaled bounds.

    On a row, with r the grid index of r, both scaled slacks are quadratics
    in r, read off ``_scaled_system`` at r = 0, 1, 2.  In its terms
    s1(r) = base (base + 2 w) - bound1 with w = 6 iz + 9 r, so s1 grows by
    18 base >= 0 per step.  s2(r) holds lin(r)^2 with lin(r) = lin(0) - 12 r,
    so s2(r + 1) - s2(r) = 144 - 24 lin(r); when r + 1 is feasible,
    iy <= 2 (m - 3 iu - r - 1), so lin(r) >= 12 iu + 12 and s2 strictly
    decreases along the row.  With k the least r where s1 >= s2 (nr if
    none), min(s1, s2) is s1 below k and s2 from k on, so the row maximum is
    max(s1(k - 1), s2(k)).  Its first argmax is k when s2(k) is larger, else
    k - 1, or 0 when base = 0 and s1 is constant.  The points with both
    slacks >= 0 run from the least r with s1 >= 0 up to the least with
    s2 < 0.  Each crossing is found by bisection in int64: a float root
    would do as well, but its float kernels raised the peak resident memory
    of verify-all by about 0.6 MiB.
    """
    at = [_scaled_system(iu, iy, iz, r, m)[:2] for r in range(3)]
    (a1, b1, c1), (a2, b2, c2) = (
        ((f2 - 2 * f1 + f0) // 2, (4 * f1 - 3 * f0 - f2) // 2, f0 - bound)
        for (f0, f1, f2), bound in zip(zip(*at), (bound1, bound2))
    )
    del at
    k = _first_nonpositive(a2 - a1, b2 - b1, c2 - c1, nr)  # least r with s1 >= s2
    low = np.iinfo(np.int64).min
    left = np.where(k > 0, (a1 * (k - 1) + b1) * (k - 1) + c1, low)
    right = np.where(k < nr, (a2 * k + b2) * k + c2, low)
    peak = np.maximum(left, right)
    first = np.where(right > left, k, (k - 1) * (b1 > 0))
    count = np.zeros_like(nr)
    rows = peak >= 0
    if rows.any():
        start = _first_nonpositive(-a1[rows], -b1[rows], -c1[rows], nr[rows])
        stop = _first_nonpositive(a2[rows], b2[rows], c2[rows] + 1, nr[rows])
        count[rows] = np.maximum(stop - start, 0)
    return peak, first, count


def scan_constraint_system() -> ScanResult:
    """Maximize the exact minimum slack over every feasible point of the grid
    of step 1/498, and count the points with both slacks >= 0, one grid row
    (u, y, z) at a time and each row in closed form (``_row_maxima``).  Rows
    come in (u, y, z) order and a chunk replaces the best only when it beats
    it, so the reported point is the first maximum in (u, y, z, r) order."""
    system = ConstraintSystem()
    m = _GRID_DENOM
    scale = 144 * m * m
    # the bounds 1/9 and 1/3 times 144 m^2 are the integers 16 m^2 and 48 m^2
    bound1, bound2 = (Fraction(b) * scale for b in (system.bound1, system.bound2))
    if bound1.denominator != 1 or bound2.denominator != 1:
        raise GraphInputError(f"the scan grades in units of 1/{scale}; the bounds must be multiples")
    best, best_index, total, nonnegative = None, None, 0, 0
    for iu, iy, iz, nr in _grid_rows(m):
        peak, first, count = _row_maxima(iu, iy, iz, nr, m, int(bound1), int(bound2))
        total += int(nr.sum())
        nonnegative += int(count.sum())
        j = int(peak.argmax())
        if best is None or peak[j] > best:
            best, best_index = int(peak[j]), (iu, int(iy[j]), int(iz[j]), int(first[j]))
    return ScanResult(
        grid_value=Fraction(best, scale),
        grid_point=tuple(Fraction(i, m) for i in best_index),
        grid_points=total,
        nonnegative_points=nonnegative,
        exact_slacks_at_optimum=system.slacks(*ConstraintSystem.OPTIMUM),
    )
