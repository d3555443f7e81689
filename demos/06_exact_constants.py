"""
Exact constants: arithmetic in Q(sqrt 7), thresholds, and the scan
==================================================================

"""

from fractions import Fraction

from rtlab.exactmath import (
    SQRT7,
    QuadraticRational,
    lemma21_bound,
    lemma21_oracle,
    scan_constraint_system,
    threshold_value,
    thresholds,
)

# Numbers of the form a + b*sqrt(7) with rational a, b form a field, so
# the sharp three-color transitive constants can be carried exactly --
# no floating point anywhere near a comparison.

x = QuadraticRational(Fraction(26, 81), Fraction(-2, 81))   # (26 - 2*sqrt 7) / 81
print("x           =", x)
print("2x          =", x * 2)
print("x * sqrt(7) =", x * SQRT7)
print("1/x         =", QuadraticRational(1) / x)
print("x as decimal:", x.decimal(10), "(rounds to", x.decimal(4) + ")")

# Ordering is decided by exact sign analysis, which floats would get
# wrong for close calls like 127 vs 48*sqrt(7) = 126.9974...
print("127 > 48*sqrt(7)?", QuadraticRational(127) > SQRT7 * 48)
print("float says:     ", 127.0 > 48 * 7**0.5, "(here they agree; the margin is 2.6e-3)")

# The threshold table: per-color, pair-sum, and total edge counts that
# force a rainbow triangle.  Pair-sum constants are exactly twice the
# per-color ones.
table = thresholds()
print()
for name in ("directed-per-color-3", "transitive-per-color-3", "transitive-pair-3",
             "undirected-per-color-3"):
    e = table[name]
    print(f"{name:24s} {str(e.quad):28s} ~ {e.quad.decimal(6)}  (linear {e.linear})")
print("pair-sum doubles per-color?",
      table["transitive-pair-3"].quad == table["transitive-per-color-3"].quad * 2)

# Evaluating a threshold at concrete n gives the exact edge count to beat.
e = table["transitive-per-color-3"]
print()
print("transitive per-color threshold at n = 90:", threshold_value(e, 90),
      "~", threshold_value(e, 90).decimal(2))

# Two-set edge bound: graphs on sets of sizes a and b with no triangle
# touching both sides have at most C(a,2) + C(b,2) + min(a,b) edges.
# An exhaustive oracle confirms the bound and shows where it is tight.
print()
print("a b  max  bound")
for a, b in ((0, 4), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)):
    print(f"{a} {b}  {lemma21_oracle(a, b):3d}  {lemma21_bound(a, b):4d}")

# The final ingredient is a four-variable constraint system whose two
# quadratic slacks must both vanish.  One scan at a fixed resolution (a
# grid of step 1/498, all 106,923,921 feasible points, in integer
# arithmetic, about a second) holds the claimed optimum (1/3, 0, 0, 0) as a
# grid point, finds it the only point where both slacks are >= 0, and the
# slacks there are exactly zero.
scan = scan_constraint_system()
print()
print("scan over", scan.grid_points, "grid points")
print("best grid min-slack:", scan.grid_value)
print("grid points with both slacks >= 0:", scan.nonnegative_points)
print("at point:", tuple(str(v) for v in scan.grid_point))
print("exact slacks there:", scan.exact_slacks_at_optimum)
print("optimum confirmed?", scan.optimum_confirmed)
