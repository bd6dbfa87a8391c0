"""
Cyclic patterns and their diagonal lifts
========================================

A pattern is a cyclic word of colors; condition vectors state the least
gap allowed at each forward offset.  Lifting a length-L word onto an
m x n torus with L | m and L | n colors cell (i, j) by position (i + j)
mod L, which makes every anti-diagonal constant.
"""

from lpqcycles import (
    Pattern,
    ProductKind,
    exists_cycle_pattern,
    is_diagonal,
    lift_diagonal,
    torus,
    validate,
    validate_pattern,
)

CART = ProductKind.CARTESIAN
STRONG = ProductKind.STRONG

# every length d >= 3 carries a span-4 word for the cartesian gaps (2, 1);
# the search returns the least one
for d in (3, 7, 8):
    print(f"length {d}:", exists_cycle_pattern(d, 4, (2, 1)).colors)

# the strong gaps (2, 2, 1, 1) are far more rigid: searching spans 6
# finds words only at multiples of 7
for d in range(3, 15):
    found = exists_cycle_pattern(d, 6, (2, 2, 1, 1))
    if found is not None:
        print(f"span-6 word of length {d}:", found.colors)

# at span 7 other lengths open up; the dispatch lifts the least span-7
# word of length gcd(m, n) on strong tori with gcd(m, n) >= 42
pat = exists_cycle_pattern(45, 7, (2, 2, 1, 1))
print("least span-7 word of length 45:", pat.colors)
print("it validates:", validate_pattern(pat) == [])

# lifting shows the word as constant anti-diagonals
word3 = exists_cycle_pattern(3, 4, (2, 1))
f = lift_diagonal(word3, CART, 3, 6)
print("lifted grid:")
print(f.color_grid())
print("diagonal:", is_diagonal(f), " violations:", validate(torus(CART, 3, 6), f))

# an invalid word lifts to an invalid labeling, never to a valid one
bad = Pattern((0, 1, 2), (2, 1))
print("bad word violations:", len(validate_pattern(bad)))
print("bad lift violations:", len(validate(torus(CART, 3, 6), lift_diagonal(bad, CART, 3, 6))))
