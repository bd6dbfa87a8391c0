import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpqcycles import (
    ConstraintParams,
    Digraph,
    Labeling,
    ProductKind,
    ProductShape,
    ViolationKind,
    constraint_pairs,
    grid,
    is_diagonal,
    labeling_document,
    labeling_from_document,
    lift_diagonal,
    oriented_cycle,
    oriented_path,
    read_labeling,
    torus,
    torus_violations,
    validate,
    write_labeling,
)
from oracles import complement, l21_cycle_pattern, pair_gaps, reduce_rows

CART = ProductKind.CARTESIAN
STRONG = ProductKind.STRONG


def lab(colors, k, shape=None):
    return Labeling(np.array(colors, dtype=np.int64), k, shape)


# --- constraint pair map -----------------------------------------------------

@pytest.mark.parametrize(
    "g",
    [
        oriented_cycle(3),
        oriented_cycle(5),
        oriented_path(4),
        torus(CART, 3, 4),
        torus(STRONG, 3, 3),
        grid(STRONG, 4, 4),
    ],
)
@pytest.mark.parametrize("params", [ConstraintParams(2, 1), ConstraintParams(1, 3)])
def test_constraint_pairs_match_oracle(g, params):
    ours = {pair: gap for pair, (gap, _k) in constraint_pairs(g, params).items()}
    assert ours == pair_gaps(g, params.p, params.q)


def test_dual_pair_reports_edge_kind_at_max_gap():
    # every pair of C_3 is both an edge and a two-step pair
    pairs = constraint_pairs(oriented_cycle(3), ConstraintParams(1, 3))
    assert pairs == {
        (0, 1): (3, ViolationKind.EDGE_GAP),
        (0, 2): (3, ViolationKind.EDGE_GAP),
        (1, 2): (3, ViolationKind.EDGE_GAP),
    }


# --- validate ----------------------------------------------------------------

def test_validate_accepts_known_labeling():
    assert validate(oriented_cycle(3), lab([0, 2, 4], 4)) == []


def test_validate_reports_each_bad_pair_once_in_order():
    g = oriented_cycle(4)
    f = lab([0, 0, 0, 0], 4)
    vio = validate(g, f)
    assert [(v.pair, v.kind, v.required) for v in vio] == [
        ((0, 1), ViolationKind.EDGE_GAP, 2),
        ((0, 2), ViolationKind.TWO_STEP_GAP, 1),
        ((0, 3), ViolationKind.EDGE_GAP, 2),
        ((1, 2), ViolationKind.EDGE_GAP, 2),
        ((1, 3), ViolationKind.TWO_STEP_GAP, 1),
        ((2, 3), ViolationKind.EDGE_GAP, 2),
    ]
    assert vio[0].labels == (0, 0)
    f2 = lab([0, 0, 2, 2], 4)
    assert [(v.pair, v.kind) for v in validate(g, f2)] == [
        ((0, 1), ViolationKind.EDGE_GAP),
        ((2, 3), ViolationKind.EDGE_GAP),
    ]


def test_validate_size_mismatch():
    with pytest.raises(ValueError):
        validate(oriented_cycle(4), lab([0, 2, 4], 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=9, max_size=9))
def test_validate_agrees_with_oracle_on_random_labelings(colors):
    g = torus(CART, 3, 3)
    f = lab(colors, 6, g.shape)
    bad = {(v.pair, v.required) for v in validate(g, f)}
    want = {
        ((a, b), need)
        for (a, b), need in pair_gaps(g).items()
        if abs(colors[a] - colors[b]) < need
    }
    assert bad == want


@pytest.mark.parametrize("kind", [CART, STRONG])
@pytest.mark.parametrize("m", range(3, 10))
def test_torus_stencil_matches_generic_path(kind, m):
    """The stencil validate uses on tori against the pair map of a
    shape-less copy of the same graph, on every torus with sides 3..9
    (offsets wrap onto each other at sides 3 and 4)."""
    rng = np.random.default_rng(m)
    for n in range(3, 10):
        g = torus(kind, m, n)
        plain = Digraph(g.n_vertices, g.out_edges)
        for p, q in [(2, 1), (1, 2), (0, 1), (3, 3)]:
            params = ConstraintParams(p, q)
            for trial in range(6):
                colors = rng.integers(0, 5, m * n)
                colors[2] = colors[0]  # offset (0, 2) needs gap >= 1 at every (p, q)
                f = lab(colors, 4, g.shape if trial % 2 else None)
                want = validate(plain, f, params)
                assert want
                assert validate(g, f, params) == want
                assert torus_violations(kind, colors.reshape(m, n), params) == want


def test_torus_violations_guards():
    with pytest.raises(ValueError):
        torus_violations(CART, np.zeros((2, 5), dtype=np.int64))


def test_labeling_guards():
    with pytest.raises(ValueError):
        lab([0, 5], 4)  # color above budget
    with pytest.raises(ValueError):
        lab([-1, 0], 4)
    with pytest.raises(ValueError):
        lab([], 4)
    with pytest.raises(ValueError):
        Labeling(np.array([0, 1]), -1)
    with pytest.raises(ValueError):
        lab([0, 1, 2], 4, ProductShape(CART, 2, 2, cyclic=True))


def test_labeling_is_immutable():
    f = lab([0, 2, 4], 4)
    with pytest.raises(ValueError):
        f.colors[0] = 3


# --- complement --------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=5, max_size=5))
def test_complement_involution_and_validity(colors):
    g = oriented_cycle(5)
    f = lab(colors, 4)
    c = complement(f, 4)
    assert complement(c, 4).as_tuple() == f.as_tuple()
    assert len(validate(g, f)) == len(validate(g, c))


def test_complement_range_guard():
    with pytest.raises(ValueError):
        complement(lab([0, 5], 5), 4)


# --- diagonality and row reduction ------------------------------------------

def test_is_diagonal_on_lift_and_perturbation():
    f = lift_diagonal(l21_cycle_pattern(5), CART, 10, 5)
    assert is_diagonal(f)
    colors = f.colors.copy()
    colors[7] = (colors[7] + 2) % 5
    assert not is_diagonal(lab(colors, 4, f.shape))


def test_is_diagonal_requires_torus():
    with pytest.raises(ValueError):
        is_diagonal(lab([0, 2, 4], 4))
    with pytest.raises(ValueError):
        is_diagonal(lab([0] * 16, 4, ProductShape(CART, 4, 4, cyclic=False)))


def test_reduce_rows_chain():
    f = lift_diagonal(l21_cycle_pattern(5), CART, 15, 5)
    r = reduce_rows(f)
    assert (r.shape.rows, r.shape.cols) == (10, 5)
    assert is_diagonal(r)
    assert validate(torus(CART, 10, 5), r) == []
    r2 = reduce_rows(r)
    assert (r2.shape.rows, r2.shape.cols) == (5, 5)
    assert r2.color_grid().tolist() == f.color_grid()[:5].tolist()


def test_reduce_rows_preconditions():
    small = lift_diagonal(l21_cycle_pattern(5), CART, 5, 5)
    with pytest.raises(ValueError):
        reduce_rows(small)  # 5 < 5 + 3
    g = torus(CART, 8, 5)
    bad = lab([0] * 40, 4, g.shape)
    with pytest.raises(ValueError):
        reduce_rows(bad)  # diagonal but invalid
    f = lift_diagonal(l21_cycle_pattern(5), CART, 10, 5)
    colors = f.colors.copy()
    colors[3] = (colors[3] + 1) % 5
    with pytest.raises(ValueError):
        reduce_rows(lab(colors, 4, f.shape))  # not diagonal


# --- JSON documents ----------------------------------------------------------

def test_document_key_order_is_fixed():
    f = lift_diagonal(l21_cycle_pattern(3), CART, 3, 3)
    doc = labeling_document(f)
    assert list(doc) == ["product", "m", "n", "p", "q", "k", "labels"]
    doc = labeling_document(f, pattern=(0, 2, 4))
    assert list(doc) == ["product", "m", "n", "p", "q", "k", "labels", "pattern"]


def test_document_round_trip_torus(tmp_path):
    f = lift_diagonal(l21_cycle_pattern(4), STRONG, 8, 4)
    p = tmp_path / "f.json"
    with open(p, "w") as fp:
        write_labeling(fp, f, ConstraintParams(2, 1), pattern=(0, 3, 1, 4))
    with open(p) as fp:
        g, back, params = read_labeling(fp)
    assert back.as_tuple() == f.as_tuple()
    assert back.shape == f.shape
    assert params == ConstraintParams(2, 1)
    assert g.n_vertices == 32


def test_document_round_trip_single_cycle():
    f = lab([0, 2, 4, 1, 3], 4)
    doc = labeling_document(f)
    assert doc["product"] == "none" and doc["m"] == 1 and doc["n"] == 5
    g, back, _params = labeling_from_document(doc)
    assert g.n_edges == 5
    assert back.as_tuple() == f.as_tuple()
    assert back.shape is None


def test_reader_accepts_any_key_order():
    doc = labeling_document(lift_diagonal(l21_cycle_pattern(3), CART, 3, 3))
    shuffled = {k: doc[k] for k in reversed(list(doc))}
    _g, back, _p = labeling_from_document(shuffled)
    assert back.color_grid().tolist() == doc["labels"]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("k"),
        lambda d: d.update(product="tensor"),
        lambda d: d.update(labels=[[0, 2, 4]]),
        lambda d: d.update(labels="nope"),
        lambda d: d.update(m=2),
    ],
)
def test_reader_rejects_malformed_documents(mangle):
    doc = labeling_document(lift_diagonal(l21_cycle_pattern(3), CART, 3, 3))
    mangle(doc)
    with pytest.raises(ValueError):
        labeling_from_document(doc)


def test_reader_rejects_non_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json {")
    with open(p) as fp:
        with pytest.raises(ValueError):
            read_labeling(fp)
    p.write_text(json.dumps([1, 2, 3]))
    with open(p) as fp:
        with pytest.raises(ValueError):
            read_labeling(fp)


def test_none_product_requires_single_row():
    doc = {
        "product": "none", "m": 2, "n": 3, "p": 2, "q": 1, "k": 4,
        "labels": [[0, 2, 4], [0, 2, 4]],
    }
    with pytest.raises(ValueError):
        labeling_from_document(doc)
