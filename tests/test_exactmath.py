import itertools
import random
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from rtlab import exactmath
from rtlab.constructions import transitive3
from rtlab.exactmath import (
    SQRT7,
    ConstraintSystem,
    QuadraticRational,
    ScanResult,
    _grid_rows,
    _GRID_DENOM,
    _row_maxima,
    _scaled_system,
    lemma21_bound,
    lemma21_oracle,
    scan_constraint_system,
    threshold_identities,
    threshold_value,
    thresholds,
)
from naive import naive_constraint_scan, naive_constraint_slacks, naive_two_sided_triangle_free_max

QR = QuadraticRational


def _random_qr(rng):
    return QR(
        Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
        Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
    )


def test_field_arithmetic_identities():
    rng = random.Random(7)
    for _ in range(300):
        x, y = _random_qr(rng), _random_qr(rng)
        # conjugate product collapses to a rational
        conj = QR(x.a, -x.b)
        assert x * conj == QR(x.a * x.a - 7 * x.b * x.b)
        assert (x + y) - y == x
        assert x * y == y * x
        if y:
            assert (x / y) * y == x
    assert SQRT7 * SQRT7 == 7
    assert (1 + SQRT7) * (1 - SQRT7) == -6
    assert 2 - SQRT7 == -(SQRT7 - 2)
    assert QR(Fraction(1, 2)) + Fraction(1, 2) == 1


def test_sign_analysis_tight_cases():
    # 8^2 = 64 vs 7*3^2 = 63: 8 - 3*sqrt(7) is barely positive
    assert QR(8, -3).sign() == 1
    assert QR(-8, 3).sign() == -1
    # continued-fraction convergent: 127^2 = 16129 vs 7*48^2 = 16128
    assert QR(127, -48).sign() == 1
    assert QR(-127, 48).sign() == -1
    assert QR(0, 0).sign() == 0
    assert QR(0, -1) < 0 < SQRT7
    assert 2 < SQRT7 < 3
    assert Fraction(2645751, 1000000) < SQRT7 < Fraction(2645752, 1000000)


def test_ordering_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    root = mp.sqrt(7)
    rng = random.Random(11)
    for _ in range(1000):
        x, y = _random_qr(rng), _random_qr(rng)
        fx = mp.mpf(x.a.numerator) / x.a.denominator + root * x.b.numerator / x.b.denominator
        fy = mp.mpf(y.a.numerator) / y.a.denominator + root * y.b.numerator / y.b.denominator
        assert (x < y) == (fx < fy)
        assert (x == y) == ((x.a, x.b) == (y.a, y.b))


def test_floor_scaled_and_decimal():
    assert SQRT7.floor_scaled(10**6) == 2645751
    assert SQRT7.decimal(6) == "2.645751"
    assert (-SQRT7).decimal(3) == "-2.646"
    assert QR(Fraction(1, 3)).decimal(4) == "0.3333"
    assert QR(Fraction(2, 3)).decimal(4) == "0.6667"
    assert QR(Fraction(-1, 200)).decimal(2) == "-0.01"
    assert QR(0).decimal(3) == "0.000"
    assert QR(Fraction(5, 2)).decimal(0) == "3"
    # the undirected three-color coefficient rounds to 0.2557
    assert QR(Fraction(26, 81), Fraction(-2, 81)).decimal(4) == "0.2557"


def test_hash_consistent_with_eq():
    assert hash(QR(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert QR(Fraction(3, 2)) == Fraction(3, 2)
    d = {QR(2, 0): "qr"}
    assert d[2] == "qr"


def test_threshold_table_identities():
    table = thresholds()
    # pair-sum thresholds are exactly twice the per-color thresholds
    assert table["directed-pair-3"].quad == 2 * table["directed-per-color-3"].quad
    assert table["transitive-pair-3"].quad == 2 * table["transitive-per-color-3"].quad
    assert table["transitive-pair-3"].linear == 2 * table["transitive-per-color-3"].linear
    assert table["undirected-pair-3"].quad == 2 * table["undirected-per-color-3"].quad
    # doubling every undirected edge identifies the two settings
    assert table["undirected-pair-3"].quad == table["transitive-per-color-3"].quad
    assert table["undirected-pair-3"].linear == table["transitive-per-color-3"].linear
    assert table["transitive-per-color-3"].quad == 2 * table["undirected-per-color-3"].quad
    checks = {i["check"]: i["holds"] for i in threshold_identities(table)}
    assert checks["transitive-per-color-3 = 2 * undirected-per-color-3"]
    assert len(checks) == 5 and all(checks.values())
    # three colors are harder than four or more
    assert table["directed-per-color-3"].quad > table["directed-per-color-4plus"].quad
    assert table["transitive-per-color-3"].quad > table["transitive-per-color-4plus"].quad
    # forbidding two-way pairs drops the transitive threshold to n^2/3
    assert table["transitive-per-color-oriented"].quad == Fraction(1, 3)
    for entry in table.values():
        assert 0 < entry.quad <= Fraction(10, 9)
        assert entry.linear >= 0


def test_transitive3_is_an_undirected_graph_with_doubled_edges():
    # the reason transitive-per-color-3 doubles undirected-per-color-3: each
    # layer of the extremal transitive construction is symmetric
    for n in range(3, 401):
        layers = transitive3(n).layers
        assert np.array_equal(layers, layers.transpose(0, 2, 1)), n


def test_threshold_values_and_decimals():
    table = thresholds()
    assert float(table["transitive-per-color-3"].quad) == pytest.approx(0.51133, abs=1e-5)
    assert table["undirected-per-color-3"].quad.decimal(4) == "0.2557"
    v = threshold_value(table["directed-per-color-3"], 9)
    assert v == Fraction(5, 9) * 81 == 45
    v = threshold_value(table["transitive-per-color-3"], 9)
    assert v == QR(Fraction(52, 81), Fraction(-4, 81)) * 81 + Fraction(27, 2)
    total = threshold_value(table["directed-total-4plus"], 10, c=4)
    assert total == 200
    with pytest.raises(ValueError):
        threshold_value(table["directed-total-4plus"], 10)


def test_lemma21_oracle_matches_naive_enumeration():
    for a in range(0, 4):
        for b in range(0, 7 - a):
            assert lemma21_oracle(a, b) == naive_two_sided_triangle_free_max(a, b), (a, b)


def test_lemma21_oracle_within_bound_and_equalities():
    for a in range(0, 5):
        for b in range(0, 8 - a):
            value = lemma21_oracle(a, b)
            assert value <= lemma21_bound(a, b), (a, b)
    # the maximum is symmetric in (a, b), as the oracle's side swap assumes;
    # the naive enumeration above judges the swapped route's values
    for a in range(0, 8):
        for b in range(a + 1, 8 - a):
            assert lemma21_oracle(a, b) == lemma21_oracle(b, a), (a, b)
    # one side empty: a clique on the other side is allowed
    for b in range(0, 6):
        assert lemma21_oracle(0, b) == b * (b - 1) // 2
    assert lemma21_oracle(1, 1) == 1
    assert lemma21_oracle(2, 2) == 4
    assert lemma21_oracle(2, 3) == 6


def test_lemma21_input_validation():
    with pytest.raises(ValueError):
        lemma21_bound(-1, 2)
    with pytest.raises(ValueError):
        lemma21_oracle(5, 5)
    assert lemma21_oracle(20, 0) == 190  # each side may reach the cap
    for a, b in ((21, 0), (0, 21)):
        with pytest.raises(ValueError, match="MAX_LEMMA21_SIZE"):
            lemma21_oracle(a, b)


def test_constraint_system_exact_point():
    system = ConstraintSystem()
    assert system.feasible(*ConstraintSystem.OPTIMUM)
    assert system.slacks(*ConstraintSystem.OPTIMUM) == (0, 0)
    # the linear cap is tight there
    u, y, z, r = ConstraintSystem.OPTIMUM
    assert 3 * u + y / 2 + r == 1


def test_constraint_system_sample_points():
    system = ConstraintSystem()
    samples = [
        (Fraction(3, 10), 0, 0, 0),
        (Fraction(1, 4), Fraction(1, 10), Fraction(1, 20), Fraction(1, 10)),
        (Fraction(1, 5), Fraction(1, 5), 0, Fraction(1, 4)),
        (0, 0, 0, Fraction(1, 2)),
    ]
    for point in samples:
        assert system.feasible(*point), point
        assert min(system.slacks(*point)) < 0, point
    assert not system.feasible(Fraction(1, 3), 0, 0, Fraction(1, 100))
    assert not system.feasible(Fraction(1, 10), Fraction(1, 2), 0, 0)
    assert not system.feasible(Fraction(1, 10), 0, -1, 0)


def test_scaled_system_agrees_with_the_docstring_quadratics():
    # the integer evaluator against q1 and q2 written as in the docstring,
    # in Fraction, at random rational points; on int64 arrays it gives the
    # same integers up to the documented range
    system = ConstraintSystem()
    rng = random.Random(3)
    for _ in range(300):
        u, y, z, r = (Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(4))
        q1 = (u + 7 * y / 12 + z / 2 + 3 * r / 4) ** 2 - (z / 2 + 3 * r / 4) ** 2
        q2 = 2 * u**2 + (1 - r - y / 2 - 2 * u) ** 2 - y * z / 2 - 3 * z**2 / 2
        room1, room2 = 1 - (3 * u + y / 2 + r), u - 3 * y / 4 - z
        m = rng.randint(1, 3) * lcm(u.denominator, y.denominator, z.denominator, r.denominator)
        nums = [(v * m).numerator for v in (u, y, z, r)]
        scaled = _scaled_system(*nums, m)
        expect = (144 * m * m * q1, 144 * m * m * q2, 4 * m * room1, 4 * m * room2)
        assert scaled == expect, (u, y, z, r)
        assert system.slacks(u, y, z, r) == (q1 - system.bound1, q2 - system.bound2)
        feasible = min(u, y, z, r, room1, room2) >= 0
        assert system.feasible(u, y, z, r) == feasible, (u, y, z, r)
    m = 1 << 24
    nums = np.array([[rng.randint(-2 * m, 2 * m) for _ in range(4)] for _ in range(200)], np.int64)
    nums[0], nums[1] = 2 * m, -2 * m
    arrays = _scaled_system(*nums.T, m)
    for row, *values in zip(nums.tolist(), *arrays):
        assert values == list(_scaled_system(*row, m)), row


def test_scan_grades_exactly_the_feasible_grid_points(monkeypatch):
    # brute force on the grid of step 1/9: the columns cover exactly the
    # Fraction-feasible points, and the scan finds the best of them
    system, m = ConstraintSystem(), 9
    feasible = [
        point
        for point in itertools.product(range(m + 1), range(2 * m + 1), range(m + 1), range(m + 1))
        if system.feasible(*(Fraction(i, m) for i in point))
    ]
    visited = [
        (iu, iy, iz, ir)
        for iu, *rows in _grid_rows(m)
        for iy, iz, nr in zip(*(row.tolist() for row in rows))
        for ir in range(nr)
    ]
    assert visited == feasible
    slacks = [system.slacks(*(Fraction(i, m) for i in point)) for point in feasible]
    best = max(min(pair) for pair in slacks)
    monkeypatch.setattr(exactmath, "_GRID_DENOM", m)
    result = scan_constraint_system()
    assert result.grid_points == len(feasible)
    assert result.grid_value == best == 0
    first = next(p for p, pair in zip(feasible, slacks) if min(pair) == best)
    assert result.grid_point == tuple(Fraction(i, m) for i in first)
    assert result.nonnegative_points == sum(min(pair) >= 0 for pair in slacks) == 1
    assert result.optimum_confirmed


# bound pairs for the scan against the naive grid: the system's own, and
# lower ones under which many points are >= 0 and many row maxima tie; under
# (1/4, 0) the row at the origin, the only one with base = 0, ties on all
# its points
SCAN_BOUNDS = [
    (Fraction(1, 9), Fraction(1, 3)),
    (Fraction(1, 9), Fraction(1, 4)),
    (Fraction(1, 9), Fraction(0)),
    (Fraction(1, 10), Fraction(1, 4)),
    (Fraction(1, 10), Fraction(0)),
    (Fraction(0), Fraction(1, 4)),
    (Fraction(0), Fraction(0)),
    (Fraction(1, 4), Fraction(0)),
]


def _scan_cases():
    """(m, bound1, bound2) for the small grids, where both bounds times
    144 m^2 are integers, as the scan needs."""
    for m in (3, 6, 10, 12, 20, 30):
        for bounds in SCAN_BOUNDS:
            if all((b * 144 * m * m).denominator == 1 for b in bounds):
                yield m, *bounds


def test_each_row_agrees_with_its_points_on_the_naive_grid():
    # every row's maximum, first argmax and nonnegative count against the
    # slacks of all its points, and the rows against the naive grid's
    for m, bound1, bound2 in _scan_cases():
        scale = 144 * m * m
        want = {}
        for point, value in naive_constraint_slacks(m, bound1, bound2):
            want.setdefault(tuple(int(x * m) for x in point[:3]), []).append(value * scale)
        got = {}
        for iu, iy, iz, nr in _grid_rows(m):
            rows = _row_maxima(iu, iy, iz, nr, m, int(bound1 * scale), int(bound2 * scale))
            for key, *row in zip(zip(itertools.repeat(iu), iy.tolist(), iz.tolist()), nr.tolist(), *rows):
                got[key] = tuple(row)
        assert list(got) == list(want), m
        for key, values in want.items():
            top = max(values)
            expect = (len(values), top, values.index(top), sum(v >= 0 for v in values))
            assert got[key] == expect, (m, bound1, bound2, key)


def test_scan_matches_the_naive_scan_under_lower_bounds(monkeypatch):
    for m, low1, low2 in _scan_cases():

        @dataclass(frozen=True)
        class Lowered(ConstraintSystem):
            bound1: Fraction = low1
            bound2: Fraction = low2

        monkeypatch.setattr(exactmath, "ConstraintSystem", Lowered)
        monkeypatch.setattr(exactmath, "_GRID_DENOM", m)
        result = scan_constraint_system()
        got = (result.grid_value, result.grid_point, result.grid_points, result.nonnegative_points)
        assert got == naive_constraint_scan(m, low1, low2), (m, low1, low2)
        # q1 = 1/9 and q2 = 1/3 at the optimum
        slacks = (Fraction(1, 9) - low1, Fraction(1, 3) - low2)
        assert result.exact_slacks_at_optimum == slacks

    # 144 m^2 / 10 is not an integer at m = 3, and a truncated bound1 = 1/10
    # would grade against another bound, so the scan refuses
    @dataclass(frozen=True)
    class Off(ConstraintSystem):
        bound1: Fraction = Fraction(1, 10)

    monkeypatch.setattr(exactmath, "ConstraintSystem", Off)
    monkeypatch.setattr(exactmath, "_GRID_DENOM", 3)
    with pytest.raises(ValueError, match="units of 1/1296"):
        scan_constraint_system()


def test_scan_memory_stays_within_a_few_chunks():
    # the scan holds one chunk of rows at a time, a few hundred kB; the whole
    # grid's rows in flat arrays would take over 100 MiB
    tracemalloc.start()
    try:
        result = scan_constraint_system()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.optimum_confirmed
    assert peak < 1 << 20, peak


def test_scan_at_the_fixed_resolution():
    result = scan_constraint_system()
    assert result.grid_points == 106_923_921
    assert result.grid_point == ConstraintSystem.OPTIMUM
    assert result.grid_value == 0
    assert result.nonnegative_points == 1
    assert result.exact_slacks_at_optimum == (0, 0)
    assert result.optimum_confirmed


def test_optimum_is_confirmed_only_at_the_claimed_point():
    exact_zero = (Fraction(0), Fraction(0))
    at_optimum = ScanResult(Fraction(0), ConstraintSystem.OPTIMUM, 1, 1, exact_zero)
    assert at_optimum.optimum_confirmed
    m = _GRID_DENOM
    runner_up = (Fraction(165, m), Fraction(0), Fraction(2, m), Fraction(0))
    assert not replace(at_optimum, grid_point=runner_up).optimum_confirmed
    off = replace(at_optimum, exact_slacks_at_optimum=(Fraction(0), Fraction(1, m)))
    assert not off.optimum_confirmed
    for count in (0, 2):
        assert not replace(at_optimum, nonnegative_points=count).optimum_confirmed
