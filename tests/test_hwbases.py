"""Labeled bases of the highest-weight spaces and the tabulated patterns."""

import pytest

from wsdalg.scalars import GaussRational, I
from wsdalg import forms
from wsdalg.forms import hodge_star, multidegree, wedge, w_form
from wsdalg import operators as ops
from wsdalg import hwbases
from wsdalg.hwbases import (
    HW1_SECTOR_TRIPLES,
    HW2_SECTOR_TRIPLES,
    all_bases,
    basis_dump,
    basis_report,
    build_hw0_basis,
    build_hw1_basis,
    build_hw2_basis,
    build_hw3_basis,
    relation_vector,
    verify_pattern_tables,
)
from wsdalg.reptheory import SpanSolver, highest_weight_space


@pytest.mark.parametrize(
    "builder,expected",
    [
        (build_hw0_basis, (40, 20, 20)),
        (build_hw1_basis, (72, 36, 36)),
        (build_hw2_basis, (40, 20, 20)),
        (build_hw3_basis, (8, 4, 4)),
    ],
)
def test_basis_dimensions_and_membership(builder, expected):
    basis = builder()
    assert basis.dims() == expected
    report = basis_report(basis)
    assert report["pass"], report["failures"][:5]


def _report_reference(basis) -> list[str]:
    """basis_report's e, h and vector checks, one vector at a time."""
    e, _, h = ops.sl2_triple()
    out = []
    for lab, v in zip(basis.labels(), basis.vectors()):
        if not v:
            out.append(f"{lab}: vanishes")
            continue
        if multidegree(v) is None:
            out.append(f"{lab}: not multidegree homogeneous")
        if e.apply(v):
            out.append(f"{lab}: not killed by the raising operator")
        if h.apply(v) != v.scale(2 * basis.k):
            out.append(f"{lab}: wrong Cartan weight")
    return out


@pytest.mark.parametrize("builder", [build_hw1_basis, build_hw2_basis])
def test_basis_report_names_each_failing_vector(builder):
    """A damaged basis: a zero vector, a type-0 vector, a lowered one-form
    and an inhomogeneous sum are each named as the per-vector loop names
    them, in its order."""
    b = builder()
    even, odd = list(b.even), list(b.odd)
    even[0] = forms.Form()
    even[1] = build_hw0_basis().even[1]
    even[5] = w_form(2, 0)
    odd[3] = odd[3] + odd[-1]
    damaged = hwbases.LabeledBasis(b.k, b.even_labels, even, b.odd_labels, odd)
    report = basis_report(damaged)
    assert not report["pass"]
    assert report["failures"][0].startswith("independence:")
    want = _report_reference(damaged)
    assert report["failures"][1:] == want
    for kind in ("vanishes", "not multidegree homogeneous", "not killed by the raising operator",
                 "wrong Cartan weight"):
        assert any(f.endswith(kind) for f in want), kind


def test_hw0_labels_and_vectors():
    basis = build_hw0_basis()
    assert basis.even_labels[0] == "(0,0,0)"
    assert basis.even[0] == forms.one()
    assert basis.even_labels[1] == "(1,0,0)"
    assert basis.even[1] == forms.omegaD().scale(I)
    # star images pair off label by label
    for lab, v, slab, sv in zip(
        basis.even_labels, basis.even, basis.odd_labels, basis.odd
    ):
        assert slab == lab + "*"
        assert sv == hodge_star(v)


def test_hw0_nonvanishing_facts():
    wD, w2, w1 = forms.omegaD(), forms.omega2(), forms.omega1()
    assert not wedge(wedge(wD, wD), w2).is_zero()
    assert not wedge(wedge(wD, wD), wD).is_zero()
    assert not wedge(wedge(wD, w1), w2).is_zero()


def test_hw1_sector_structure():
    basis = build_hw1_basis()
    assert len(basis.odd) == 36
    for j in (0, 1, 2):
        assert len(HW1_SECTOR_TRIPLES[j]) == 12
    # the cube of the dualizing wedge survives on the degree-one seed
    w10 = w_form(1, 0)
    iL0 = ops.build_L(0).scale(I)
    v = iL0.apply(iL0.apply(iL0.apply(w10)))
    assert not v.is_zero()
    # the repeated second wedge also survives
    L1 = ops.build_L(1)
    assert not L1.apply(L1.apply(w10)).is_zero()


def test_hw2_relation():
    rv = relation_vector()
    assert rv.is_zero()
    # any two of the three summands are independent
    w10, w11, w12 = (w_form(1, j) for j in range(3))
    L0, L1, L2 = (ops.build_L(j) for j in range(3))
    t1 = L0.apply(L1.apply(wedge(w10, w11)))
    t2 = L1.apply(L2.apply(wedge(w11, w12)))
    t3 = L2.apply(L0.apply(wedge(w12, w10)))
    for x, y in ((t1, t2), (t1, t3), (t2, t3)):
        solver = SpanSolver([x])
        assert solver.coordinates(y) is None
    assert (t1 + t2 + t3).is_zero()
    # all three share one multidegree
    assert multidegree(t1) == multidegree(t2) == multidegree(t3) == (2, 2, 2)


def test_hw2_nonvanishing():
    w10, w11 = w_form(1, 0), w_form(1, 1)
    iL2 = ops.build_L(2).scale(I)
    assert not iL2.apply(wedge(w10, w11)).is_zero()


def test_hw3_basis_details():
    basis = build_hw3_basis()
    u = wedge(wedge(w_form(1, 0), w_form(1, 1)), w_form(1, 2))
    assert basis.odd[0] == u
    iL2 = ops.build_L(2).scale(I)
    assert not iL2.apply(u).is_zero()
    mds = [multidegree(v) for v in basis.odd]
    assert len(set(mds)) == 4


def test_bases_span_the_extracted_spaces():
    """Each labeled basis spans the same space the kernel solver produces:
    the change of basis is square and invertible."""
    for basis in all_bases():
        hw = highest_weight_space(basis.k)
        solver = SpanSolver(hw.vectors())
        for v in basis.vectors():
            assert solver.coordinates(v) is not None
        # dims agree, so the two bases are related by a square invertible map
        assert len(basis.vectors()) == len(hw.vectors())


def test_star_pairs_the_halves():
    """The star images pair the two halves vector by vector (the star is an
    involution, so whichever half was built first determines the other)."""
    for basis in all_bases():
        for v_even, v_odd in zip(basis.even, basis.odd):
            assert hodge_star(v_even) == v_odd
            assert hodge_star(v_odd) == v_even


def test_basis_dump_deterministic():
    d1 = basis_dump(build_hw3_basis())
    d2 = basis_dump(build_hw3_basis())
    assert d1 == d2
    assert d1["(0,0,0)"] == forms.format_form(build_hw3_basis().odd[0])
    assert len(d1) == 8


def test_pattern_tables_all_pass():
    report = verify_pattern_tables()
    assert report["pass"], {
        name: t["mismatches"][:3]
        for name, t in report["tables"].items()
        if not t["pass"]
    }
    names = set(report["tables"])
    assert names == {"hw0", "hw2", "hw1-first", "hw1-second"}
    # the marked-cell counts are part of the contract
    assert report["tables"]["hw0"]["marked_cells"] == 33
    assert report["tables"]["hw2"]["marked_cells"] == 35
    assert report["tables"]["hw1-first"]["marked_cells"] == 43
    assert report["tables"]["hw1-second"]["marked_cells"] == 33


def test_pattern_tables_restrict_each_operator_once(monkeypatch):
    """Each table restricts each operator it covers once, whole (iL_j for
    all of its weight components), on the one solver over all four bases
    narrowed to the table's half-basis: 19 restrictions for the four
    tables, where one per weight component took 55."""
    from wsdalg import pattern_tables as pt
    from wsdalg.closure import RestrictedAlgebra

    solver = hwbases.all_vectors_solver()
    assert RestrictedAlgebra().solver is solver
    calls = []
    restrict = hwbases.restrict_operator
    monkeypatch.setattr(hwbases, "restrict_operator", lambda op, s, labels, parts:
                        calls.append((s, parts)) or restrict(op, s, labels, parts))
    assert verify_pattern_tables()["pass"]
    want = 0
    for table in pt.ALL_TABLES:
        ops_in_scope = {op[:2] if op[0] == "L" else op for op in table.entries.values()}
        want += len(ops_in_scope)
    assert len(calls) == want == 19
    halves, first = set(), 0
    for b in all_bases():
        n = len(b.vectors())
        halves |= {(range(first, first + n // 2),), (range(first + n // 2, first + n),)}
        first += n
    assert all(s is solver and parts in halves for s, parts in calls)


def test_pattern_table_specific_cells():
    from wsdalg import pattern_tables as pt

    t0 = pt.TABLE_HW0
    assert t0.entries[("(1,0,0)", "(0,0,0)")] == ("L", 0, (0, -1, -1))
    assert t0.entries[("(0,3,0)", "(3,0,0)")] == ("K", 0, 1)
    t5 = pt.TABLE_HW1_B
    assert t5.entries[("(0,2,0)2", "(0,0,2)1")] == ("K", 2, 1)


def test_pattern_tables_catch_corruption():
    """A deliberately wrong mark must be reported as a mismatch."""
    from wsdalg import pattern_tables as pt

    bad_entries = dict(pt.TABLE_HW0.entries)
    # claim a mark in a cell that is actually empty
    bad_entries[("(0,0,3)", "(0,0,0)")] = ("L", 0, (0, -1, -1))
    bad = pt.PatternTable(
        "hw0-corrupted", 0, "even", pt.TABLE_HW0.row_labels,
        pt.TABLE_HW0.col_labels, bad_entries,
    )
    report = verify_pattern_tables([bad])
    assert not report["pass"]
    assert report["tables"]["hw0-corrupted"]["mismatches"]
