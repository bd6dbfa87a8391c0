import numpy as np
import pytest

from lpqcycles import (
    Digraph,
    Pattern,
    ProductKind,
    ProductShape,
    conditions_for,
    grid,
    lift_diagonal,
    oriented_cycle,
    oriented_path,
    product,
    torus,
    torus_violations,
    two_step_pairs,
)

CART = ProductKind.CARTESIAN
STRONG = ProductKind.STRONG


def test_cycle_structure():
    g = oriented_cycle(5)
    assert g.n_vertices == 5
    assert g.n_edges == 5
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def test_path_structure():
    g = oriented_path(4)
    assert g.n_edges == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert oriented_path(1).n_edges == 0


def test_size_guards():
    with pytest.raises(ValueError):
        oriented_cycle(2)
    with pytest.raises(ValueError):
        oriented_path(0)


@pytest.mark.parametrize(
    "out_edges",
    [
        ((0,), ()),          # self loop
        ((1, 1), ()),        # parallel edge
        ((1,), (0,)),        # digon
        ((2,), ()),          # target out of range
    ],
)
def test_digraph_rejects_malformed(out_edges):
    with pytest.raises(ValueError):
        Digraph(2, out_edges)


def test_in_neighbors():
    g = oriented_path(3)
    assert g.in_neighbors() == [[], [0], [1]]
    assert oriented_cycle(3).in_neighbors() == [[2], [0], [1]]


def test_cartesian_product_edges():
    g = product(CART, oriented_cycle(3), oriented_cycle(4))
    # vertex (i, j) -> id 4i + j; edges go to (i+1, j) and (i, j+1)
    assert g.n_vertices == 12
    assert set(g.out_edges[0]) == {4, 1}
    assert set(g.out_edges[11]) == {3, 8}  # (2,3) -> (0,3) and (2,0)
    assert g.n_edges == 24


def test_strong_product_edges():
    g = product(STRONG, oriented_cycle(3), oriented_cycle(3))
    assert set(g.out_edges[0]) == {3, 1, 4}  # down, right, and both
    assert g.n_edges == 27


def product_by_definition(kind, g, h):
    """Out-neighbours of (a, x) read off the definition of the product:
    first-factor steps, then second-factor steps, then (strong) both."""
    n = h.n_vertices
    out = []
    for a in range(g.n_vertices):
        for x in range(n):
            nbrs = [b * n + x for b in g.out_edges[a]]
            nbrs += [a * n + y for y in h.out_edges[x]]
            if kind is STRONG:
                nbrs += [b * n + y for b in g.out_edges[a] for y in h.out_edges[x]]
            out.append(tuple(nbrs))
    return tuple(out)


FORK = Digraph(3, ((1, 2), (2,), ()))  # out-degree 2 at vertex 0


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize(
    "g, h",
    [
        (oriented_cycle(4), oriented_path(3)),
        (oriented_path(3), oriented_cycle(5)),
        (FORK, oriented_cycle(3)),
        (oriented_path(2), FORK),
        (FORK, FORK),
    ],
)
def test_product_matches_its_definition(kind, g, h):
    """Mixed and irregular factors, which carry no shape, get exactly the
    out-neighbours of the definition, in its order."""
    p = product(kind, g, h)
    assert p.out_edges == product_by_definition(kind, g, h)
    assert p.shape is None


def test_kind_must_be_a_product_kind():
    """A kind given by its name is not read as some product: every
    function that looks up the product's edge vectors raises."""
    lift = np.add.outer(range(6), range(6)) % 3 * 2  # the Cartesian word (0, 2, 4)
    assert len(torus_violations(STRONG, lift)) == 72
    for call in (
        lambda: product("strong", oriented_cycle(3), oriented_path(3)),
        lambda: torus("strong", 3, 3),
        lambda: grid("cartesian", 3, 3),
        lambda: torus_violations("strong", lift),
        lambda: conditions_for("cartesian"),
    ):
        with pytest.raises(KeyError):
            call()


def test_shape_kind_must_be_a_product_kind():
    """A shape refuses a kind given by its name, so no labeling carries one
    into labeling_document, which reads kind.value."""
    with pytest.raises(TypeError, match="ProductKind"):
        ProductShape("strong", 6, 6, cyclic=True)
    with pytest.raises(TypeError, match="ProductKind"):
        lift_diagonal(Pattern((0, 2, 4), (2, 1)), "strong", 6, 6)
    assert ProductShape(STRONG, 6, 6, cyclic=True).kind is STRONG


def test_product_shapes():
    assert torus(CART, 3, 4).shape == ProductShape(CART, 3, 4, cyclic=True)
    assert grid(STRONG, 4, 4).shape == ProductShape(STRONG, 4, 4, cyclic=False)
    mixed = product(CART, oriented_cycle(3), oriented_path(3))
    assert mixed.shape is None


def test_vertex_id_wraps_only_when_cyclic():
    s = ProductShape(CART, 3, 4, cyclic=True)
    assert s.vertex_id(3, -1) == s.vertex_id(0, 3)
    assert s.coords(s.vertex_id(2, 1)) == (2, 1)
    p = ProductShape(CART, 3, 4, cyclic=False)
    with pytest.raises(ValueError):
        p.vertex_id(3, 0)


def test_two_step_pairs_cycle():
    assert two_step_pairs(oriented_cycle(5)) == {(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)}
    # on C_3 every two-step pair is also an edge pair, seen from the far side
    assert two_step_pairs(oriented_cycle(3)) == {(0, 1), (0, 2), (1, 2)}


def test_two_step_pairs_path():
    assert two_step_pairs(oriented_path(3)) == {(0, 2)}
    assert two_step_pairs(oriented_path(2)) == set()


def test_two_step_pairs_exclude_self():
    # C_4: 0 -> 1 -> 2, never 0 -> x -> 0
    pairs = two_step_pairs(oriented_cycle(4))
    assert all(u != w for u, w in pairs)
    assert pairs == {(0, 2), (1, 3)}


def test_two_step_pairs_strong_torus():
    g = torus(STRONG, 4, 4)
    pairs = two_step_pairs(g)
    s = g.shape
    # offset (2, 1) pair through the middle vertex (1, 1) from (0, 0)
    assert tuple(sorted((s.vertex_id(0, 0), s.vertex_id(2, 1)))) in pairs
    # offset (2, 2)
    assert tuple(sorted((s.vertex_id(0, 0), s.vertex_id(2, 2)))) in pairs
