"""
Exact spans by exhaustive search
================================

"""

from lpqcycles import (
    BudgetExhausted,
    ProductKind,
    SolveBudget,
    count_labelings,
    enumerate_labelings,
    exact_lambda,
    exists_labeling,
    grid,
    oriented_cycle,
    oriented_path,
    torus,
)

# the span of a graph is the least k admitting a labeling into 0..k
for name, g in [
    ("C_3", oriented_cycle(3)),
    ("C_4", oriented_cycle(4)),
    ("C_5", oriented_cycle(5)),
    ("P_4", oriented_path(4)),
]:
    res = exact_lambda(g)
    print(f"lambda({name}) = {res.value}, witness {res.witness.as_tuple()}")

# C_7 strong C_7 is the stress case: 49 vertices, span 6
g = torus(ProductKind.STRONG, 7, 7)
res = exact_lambda(g)
print("lambda(C_7 x C_7 strong) =", res.value)

# nothing exists one color below, which the enumerator confirms
print("labelings at k=5:", enumerate_labelings(g, 5))

# enumeration visits solutions in lexicographic order
first = []
enumerate_labelings(oriented_cycle(4), 4, visitor=first.append)
print("C_4 at k=4:", len(first), "labelings, least =", first[0])

# counting needs no visitor: the 3 x 3 Cartesian window grid has 44
# labelings at span 4
print("3 x 3 Cartesian grid at k=4:", count_labelings(grid(ProductKind.CARTESIAN, 3, 3), 4))

# searches carry an explicit node budget and report exhaustion as an
# outcome distinct from found / not found: the span-6 witness takes 49
# nodes, so 48 run out one node short
try:
    exists_labeling(g, 6, budget=SolveBudget(max_nodes=48))
except BudgetExhausted as exc:
    print("gave up after", exc.nodes, "nodes")
