"""
Exhaustive search: exact optima over all colorings at small n
=============================================================

"""

from rtlab.search import SearchObjective, SearchProblem, solve, verify_witness
from rtlab.triangles import TrianglePattern, find_rainbow

# The branch-and-bound search ranges over every c-colored digraph on n
# vertices with no rainbow pattern and reports the exact optimum --
# either the most edges in total, or the best possible minimum over the
# color classes; one search maximizes either objective directly.  Color
# symmetry on the first vertex pair and an optimistic-completion bound
# (every unassigned pair filled to capacity) keep the tree small enough
# to exhaust.  For the total at n >= 4 the search first solves n - 1:
# every vertex pair lies in n - 2 of the n graphs left by deleting one
# vertex, so the total is at most n * T(n-1) // (n - 2), and the search
# stops as soon as a witness reaches that cap.

for oriented in (False, True):
    for pattern in TrianglePattern:
        problem = SearchProblem(n=3, c=3, pattern=pattern, oriented=oriented)
        result = solve(problem)
        print(f"n=3 c=3 {pattern.value:10s} oriented={oriented!s:5s} "
              f"max total = {result.value:2d}  (nodes {result.nodes})")

# With doubles allowed the optimum is 12 edges.  The witness puts all
# three colors both ways on two pairs and leaves the third pair empty, so
# it has no triangle at all; two colors both ways on every pair reach 12
# as well.
problem = SearchProblem(n=3, c=3, pattern=TrianglePattern.DIRECTED)
result = solve(problem)
print()
print("witness edges:", result.witness.edges())
print("witness valid?", verify_witness(problem, result.witness, result.value))
print("witness pattern-free?", find_rainbow(result.witness, TrianglePattern.DIRECTED) is None)

# The other objective: make the SMALLEST color class as large as
# possible.  At n=3 each class can reach 4 of its 6 slots.
problem = SearchProblem(
    n=3, c=3, pattern=TrianglePattern.DIRECTED, objective=SearchObjective.MIN_COLOR
)
print()
print("max min-color at n=3:", solve(problem).value)

# A node budget turns the search into an anytime lower bound: it stops
# early and says so instead of silently claiming optimality.
problem = SearchProblem(n=4, c=3, pattern=TrianglePattern.DIRECTED)
capped = solve(problem, budget=50)
full = solve(problem)
print()
print(f"n=4 budget=50: value {capped.value} exhaustive={capped.exhaustive}")
print(f"n=4 unbounded: value {full.value} exhaustive={full.exhaustive}")
