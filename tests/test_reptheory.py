"""Isotypical decomposition and highest-weight space extraction."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wsdalg.scalars import GaussRational, ONE, ZERO
from wsdalg import forms
from wsdalg.forms import Form, hodge_star, monomial, multidegree, poincare_pair
from wsdalg import operators as ops
from wsdalg.closure import default_algebra
from wsdalg.hwbases import all_bases
from wsdalg.linalg import SparseEchelon
from wsdalg import reptheory
from opcolumns import columns
from wsdalg.reptheory import (
    HW_DIMS,
    HW_HALF_DIMS,
    SpaceEscape,
    SpanSolver,
    _class_rows,
    _hw_class_vectors,
    basis_operator,
    highest_weight_space,
    isotypical_table,
    multidegree_classes,
    restrict_operator,
)

EXPECTED_ROWS = [
    (1, 0, 0, 0),
    (0, 3, 0, 0),
    (3, 6, 3, 0),
    (10, 9, 8, 1),
    (6, 18, 9, 3),
    (6, 18, 9, 3),
    (10, 9, 8, 1),
    (3, 6, 3, 0),
    (0, 3, 0, 0),
    (1, 0, 0, 0),
]


def test_multidegree_classes_partition():
    classes = multidegree_classes()
    assert sum(len(v) for v in classes.values()) == 512
    assert len(classes) == 64
    assert len(classes[(1, 1, 1)]) == 27


def test_isotypical_table():
    table = isotypical_table()
    assert table.rows() == EXPECTED_ROWS
    assert table.dimension_check()
    assert [table.column_total(k) for k in range(4)] == list(HW_DIMS)


def test_table_serialization():
    table = isotypical_table()
    csv = table.as_csv()
    assert csv.splitlines()[0] == "degree,rho0,rho1,rho2,rho3"
    assert csv.splitlines()[3] == "2,3,6,3,0"
    rows = table.as_json_rows()
    assert rows[3] == {"degree": 3, "rho0": 10, "rho1": 9, "rho2": 8, "rho3": 1}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_highest_weight_spaces(k):
    hw = highest_weight_space(k)
    total, even, odd = hw.dims()
    assert total == HW_DIMS[k]
    assert even == odd == HW_HALF_DIMS[k]
    e, _, h = ops.sl2_triple()
    for v in hw.vectors():
        assert e.apply(v).is_zero()
        assert h.apply(v) == v.scale(2 * k)


@pytest.mark.parametrize("k", [-1, 5])
def test_highest_weight_space_rejects_uncomputed_types(k):
    with pytest.raises(ValueError, match=f"type {k} is outside"):
        highest_weight_space(k)


def test_hw1_contains_degree_one_vector():
    hw = highest_weight_space(1)
    w10 = forms.w_form(1, 0)
    solver = SpanSolver(hw.vectors())
    assert solver.coordinates(w10) is not None


def test_span_solver_rejects_bad_families():
    vecs = all_bases()[1].vectors()
    by_md: dict = {}
    for v in vecs:
        by_md.setdefault(multidegree(v), []).append(v)
    a, b = next(vs[:2] for vs in by_md.values() if len(vs) > 1)
    other = next(v for v in vecs if multidegree(v) != multidegree(a))
    with pytest.raises(ValueError, match="vector 3 is linearly dependent"):
        SpanSolver([a, other, b, a.scale(GaussRational(Fraction(2, 3), -1)) + b.scale(5)])
    with pytest.raises(ValueError, match="vector 1 is not multidegree homogeneous"):
        SpanSolver([a, a + other])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_span_solver_coordinates(k):
    """Random Q(i) combinations of a labeled basis get their exact
    coefficients back.  A monomial that e does not kill is no
    highest-weight vector, so where one shares a basis vector's
    multidegree, it and its sum with that vector are non-members."""
    vecs = all_bases()[k].vectors()
    solver = SpanSolver(vecs)
    rng = random.Random(k)

    def coeff():
        return GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(-3, 3))

    for _ in range(10):
        x = [coeff() if rng.random() < 0.3 else ZERO for _ in vecs]
        f = sum((v.scale(c) for v, c in zip(vecs, x)), Form())
        coords = solver.coordinates(f)
        assert sum((vecs[i].scale(c) for i, c in coords.items()), Form()) == f
        assert coords == {i: c for i, c in enumerate(x) if c}
    e = ops.sl2_triple()[0]
    outside = [(v, g) for v in vecs for g in map(monomial, multidegree_classes()[multidegree(v)])
               if not e.apply(g).is_zero()]
    assert outside
    for v, g in outside:
        assert solver.coordinates(g) is None
        assert solver.coordinates(v + g) is None


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_hodge_star_exchanges_halves(k):
    hw = highest_weight_space(k)
    even_solver = SpanSolver(hw.even)
    odd_solver = SpanSolver(hw.odd)
    for v in hw.even:
        assert odd_solver.coordinates(hodge_star(v)) is not None
    for v in hw.odd:
        assert even_solver.coordinates(hodge_star(v)) is not None


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pairing_nondegenerate_on_hw(k):
    from wsdalg.linalg import SparseEchelon

    vecs = highest_weight_space(k).vectors()
    ech = SparseEchelon()
    for a in vecs:
        ech.insert({j: v for j, b in enumerate(vecs) if (v := poincare_pair(a, b))})
    assert ech.rank == len(vecs)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_hw_invariant_under_generators(k):
    hw = highest_weight_space(k)
    vecs = hw.vectors()
    solver = SpanSolver(vecs)
    for name, g in ops.standard_generators().items():
        restrict_operator(g, solver)  # raises SpaceEscape on failure


def test_restrict_identity():
    hw = highest_weight_space(3)
    mat = restrict_operator(ops.identity(), SpanSolver(hw.vectors()))
    assert mat == {(r, r): ONE for r in range(len(hw.vectors()))}


def test_restrict_escape_detection():
    hw = highest_weight_space(3)
    with pytest.raises(SpaceEscape):
        restrict_operator(ops.build_E(1, 0), SpanSolver(hw.vectors()))


def _restrict_reference(phi, solver, labels):
    """The per-vector restriction: apply phi to each of the solver's
    vectors in turn, by a walk over phi's columns, and solve for the
    image's coordinates, naming the first escaping vector."""
    cols = columns(phi)
    mat = {}
    for c, v in enumerate(solver.vectors):
        image = {}
        for m, x in v.coeffs.items():
            for r, w in cols.get(m, {}).items():
                image[r] = image.get(r, ZERO) + w * x
        coords = solver.coordinates(Form(image))
        if coords is None:
            raise SpaceEscape(f"image of {labels[c]} escapes the span")
        mat.update({(r, c): x for r, x in coords.items()})
    return mat


def _escape_message(restrict, phi, basis, solver):
    try:
        restrict(phi, solver, basis.labels())
    except SpaceEscape as exc:
        return str(exc)
    return None


def test_restriction_matches_per_vector_reference():
    """M = P (phi B) equals the per-vector restriction for the twelve
    generators and their daggers on all four labeled bases."""
    ralg = default_algebra()
    for basis in ralg.bases:
        vecs, labels = basis.vectors(), basis.labels()
        solver = SpanSolver(vecs)
        for name, g in ralg.operators().items():
            for op in (g, ralg.generator_daggers[name]):
                got = restrict_operator(op, solver, labels)
                assert got == _restrict_reference(op, solver, labels), (basis.k, name)


def test_class_rows_group_by_multidegree():
    """e's rows grouped in one pass equal a walk over each class's masks,
    and an operator that leaves its class is refused."""
    e = ops.sl2_triple()[0]
    cols = columns(e)
    got = _class_rows(e)
    for md, masks in multidegree_classes().items():
        want = {}
        for m in masks:
            for r, v in cols.get(m, {}).items():
                want.setdefault(r, {})[m] = v
        assert got.get(md, {}) == want, md
        assert list(got.get(md, {})) == list(want), md
    with pytest.raises(ValueError, match="leaves the multidegree class"):
        _class_rows(ops.build_L(0))


def test_restricted_block_reads_the_view():
    """The {(r, c): v} block equals the per-vector reference for the zero
    operator, an int64 view, an object view with Fraction and complex
    values and a sum of mixed parity, with canonical int or Fraction parts."""
    ralg = default_algebra()
    g = ralg.operators()
    cases = [ops.Operator(), g["iL0"], g["iL1"].scale(GaussRational(Fraction(1, 3), 2)), g["A1"] + g["iV1"]]
    assert [op.coords().re.dtype for op in cases[1:3]] == [np.int64, object]
    for basis in ralg.bases:
        vecs, labels = basis.vectors(), basis.labels()
        solver = SpanSolver(vecs)
        for op in cases:
            got = restrict_operator(op, solver, labels)
            assert got == _restrict_reference(op, solver, labels), basis.k
            for v in got.values():
                for part in (v.re, v.im):
                    assert type(part) is int or (type(part) is Fraction and part.denominator != 1)
    assert restrict_operator(cases[2], solver, labels)


def test_space_escape_names_the_reference_vector():
    """Every E_ij and I_ij, whole and with the columns of vector 0's
    monomials dropped, escapes or stays in each labeled basis exactly as
    in the per-vector loop, and SpaceEscape names the same first vector."""
    ralg = default_algebra()
    named = set()
    for basis in ralg.bases:
        solver = SpanSolver(basis.vectors())
        head = set(basis.vectors()[0].coeffs)
        want = _escape_message(_restrict_reference, ops.build_E(1, 0), basis, solver)
        assert want is not None
        assert _escape_message(restrict_operator, ops.build_E(1, 0), basis, solver) == want
        for i in (1, 2, 3):
            for j in (0, 1, 2):
                for op in (ops.build_E(i, j), ops.build_I(i, j)):
                    tail = ops.Operator({m: col for m, col in columns(op).items() if m not in head})
                    for x in (op, tail):
                        want = _escape_message(_restrict_reference, x, basis, solver)
                        assert _escape_message(restrict_operator, x, basis, solver) == want
                        named.add(want)
    # some escape is first at a vector past vector 0 of its basis
    assert len(named - {None}) > len(ralg.bases)


def _spelled_block(mat):
    """A block's entries in dictionary order, each component with its type."""
    return [(key, v.re, type(v.re), v.im, type(v.im)) for key, v in mat.items()]


def test_single_solver_restriction_matches_per_vector_reference():
    """One restriction over the selected blocks' vectors together gives,
    per block, the per-vector reference's entries, in (column, row) order,
    with the same component types, for the twelve generators and their
    daggers on several tuples of blocks."""
    ralg = default_algebra()
    solvers = [SpanSolver(b.vectors()) for b in ralg.bases]
    for name, g in ralg.operators().items():
        for op in (g, ralg.generator_daggers[name]):
            want = {}
            for basis, solver in zip(ralg.bases, solvers):
                ref = _restrict_reference(op, solver, basis.labels())
                want[basis.k] = dict(sorted(ref.items(), key=lambda rc: rc[0][::-1]))
            for blocks in ((0,), (3,), (1, 2), (0, 1, 2, 3), (2, 0)):
                rop = ralg.restrict(op, blocks)
                assert list(rop.blocks) == list(blocks), (name, blocks)
                for k in blocks:
                    assert _spelled_block(rop.block(k)) == _spelled_block(want[k]), (name, blocks, k)


def test_scaled_functional_is_integral():
    """The solver keeps P as (D, D P): D P has an int64 view, D is the
    least common denominator of P's parts, and D P / D is P entry by
    entry, P read off the echelon rows' marker columns."""
    solver = default_algebra().solver
    want = {(k - forms.DIM, p): -v for ech in solver.by_md.values()
            for p, row in ech.rows.items() for k, v in row.items() if k >= forms.DIM}
    d, scaled = solver.functional
    v = scaled.coords()
    assert v.re.dtype == v.im.dtype == np.int64
    assert d == 6
    assert d == math.lcm(*(Fraction(x).denominator for z in want.values() for x in (z.re, z.im)))
    assert {(r, c): z / d for c, col in columns(scaled).items() for r, z in col.items()} == want
    # some entry needs the full denominator, so no smaller D would do
    assert any(Fraction(x).denominator == d for z in want.values() for x in (z.re, z.im))


def test_space_escape_across_blocks_names_the_vector():
    """An operator that sends hw0 vector 0 to hw1 vector 0 (and every
    other labeled vector to 0) escapes hw0 on (0,) and links two blocks on
    (0, 1, 2, 3); both name hw0's first label.  For every E_ij and I_ij,
    whole and with the columns of hw0 vector 0's monomials dropped, one
    restriction over several blocks names the vector that restricting to
    each block in turn names first."""
    ralg = default_algebra()
    d, scaled = ralg.solver.functional
    target = ralg.bases[1].vectors()[0].coeffs
    row0 = {p: col[0] / d for p, col in columns(scaled).items() if 0 in col}
    op = ops.Operator({p: {m: x * y for m, y in target.items()} for p, x in row0.items()})
    assert op.apply(ralg.bases[0].vectors()[0]) == ralg.bases[1].vectors()[0]
    want = f"image of {ralg.bases[0].labels()[0]} escapes the span"
    for blocks in ((0,), (0, 1, 2, 3)):
        with pytest.raises(SpaceEscape) as exc:
            ralg.restrict(op, blocks)
        assert str(exc.value) == want
    assert ralg.restrict(op, (1, 2, 3)).blocks == {1: {}, 2: {}, 3: {}}

    solvers = [SpanSolver(b.vectors()) for b in ralg.bases]
    head = set(ralg.bases[0].vectors()[0].coeffs)
    for i in (1, 2, 3):
        for j in (0, 1, 2):
            for whole in (ops.build_E(i, j), ops.build_I(i, j)):
                tail = ops.Operator({m: col for m, col in columns(whole).items() if m not in head})
                for x in (whole, tail):
                    for blocks in ((0, 1, 2, 3), (1, 2), (2, 0)):
                        names = (_escape_message(restrict_operator, x, ralg.bases[k], solvers[k])
                                 for k in blocks)
                        want = next((n for n in names if n), None)
                        try:
                            ralg.restrict(x, blocks)
                            got = None
                        except SpaceEscape as exc:
                            got = str(exc)
                        assert got == want, (i, j, blocks)


def test_restrict_V_zero_on_smallest_space():
    hw = highest_weight_space(3)
    for j in range(3):
        solver = SpanSolver(hw.vectors())
        assert restrict_operator(ops.build_V(j), solver) == {}
        assert restrict_operator(ops.build_A(j), solver) == {}


def test_total_dimension_bookkeeping():
    table = isotypical_table()
    total = sum(
        table.multiplicity.get((d, k), 0) * (2 * k + 1)
        for d in range(10)
        for k in range(4)
    )
    assert total == 512


# sha256 prefixes of the per-class kernel bases, as computed by the dense
# Gauss-Jordan elimination this package used before its sparse echelon
HW_CLASS_DIGESTS = {
    0: "60b5d5db7435bc7f",
    1: "d009c0b31b33c7c8",
    2: "bcb4bd3aec7b343d",
    3: "e61ead9b74309b03",
    4: "e3b0c44298fc1c14",  # no type-4 vectors: the empty digest
}


@pytest.mark.parametrize("k", sorted(HW_CLASS_DIGESTS))
def test_hw_class_vectors_pinned(k):
    """Every highest-weight vector, its class and its coefficients (in
    dictionary order) are unchanged."""
    h = hashlib.sha256()
    for md, vecs in _hw_class_vectors(k):
        h.update(repr(md).encode())
        for v in vecs:
            h.update(repr([(m, str(c.re), str(c.im)) for m, c in v.coeffs.items()]).encode())
    assert h.hexdigest()[:16] == HW_CLASS_DIGESTS[k]


def _stacked_reference():
    """Per type 0..4, the stacked route: per class, e's rows eliminated
    once, that echelon copied, the rows of h - 2k inserted into the copy
    and its free-column kernel taken over the class's masks.  Also
    returns each class's dim ker(e)."""
    e, _, h = ops.sl2_triple()
    e_rows = _class_rows(e)
    shifted = [_class_rows(h - ops.identity().scale(2 * k)) for k in range(5)]
    out = tuple([] for _ in shifted)
    ker_dims = {}
    for md, masks in sorted(multidegree_classes().items()):
        e_ech = SparseEchelon()
        for row in e_rows.get(md, {}).values():
            e_ech.insert(row)
        ker_dims[md] = len(masks) - e_ech.rank
        for by_class, hk in zip(out, shifted):
            ech = SparseEchelon()
            ech.rows = {p: dict(row) for p, row in e_ech.rows.items()}
            for row in hk.get(md, {}).values():
                ech.insert(row)
            vecs = [Form(v) for v in ech.kernel(masks)]
            if vecs:
                by_class.append((md, vecs))
    return out, ker_dims


def _spelled(by_class):
    """Classes, masks in dictionary order, and each component with its type."""
    return [(md, [[(m, c.re, type(c.re), c.im, type(c.im)) for m, c in v.coeffs.items()]
                  for v in vecs]) for md, vecs in by_class]


def test_hw_class_vectors_match_stacked_reference():
    """The kernel-of-e route gives the stacked route's vectors, classes,
    key order and component types for every type; each vector is exactly
    killed by e with h-eigenvalue 2k, and the types split each class's
    ker(e)."""
    want, ker_dims = _stacked_reference()
    e, _, h = ops.sl2_triple()
    counts = dict.fromkeys(ker_dims, 0)
    for k in range(5):
        got = _hw_class_vectors(k)
        assert _spelled(got) == _spelled(want[k]), k
        vecs = [v for _, vs in got for v in vs]
        if vecs:
            b = basis_operator(vecs)
            assert e.compose(b).is_zero()
            assert h.compose(b) == b.scale(2 * k)
        for md, vs in got:
            counts[md] += len(vs)
    assert counts == ker_dims
    assert sum(ker_dims.values()) == sum(HW_DIMS)


def test_hw_class_vectors_check_h_on_ker_e(monkeypatch):
    """An h that does not map ker(e) into itself is refused by the exact
    check h B_K = B_K H."""
    e, f, h = ops.sl2_triple()
    skew = ops.Operator({m: {m: GaussRational(m)} for m in range(forms.DIM)})
    monkeypatch.setattr(reptheory, "sl2_triple", lambda: (e, f, h + skew))
    with pytest.raises(ValueError, match="h does not map ker"):
        reptheory._hw_class_vectors_by_type.__wrapped__()
