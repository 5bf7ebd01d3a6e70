"""Acceptance criteria.

One test per criterion; each prints a single PASS line with its wall time
when it holds.  Every tolerance is exact equality.  The large closure runs
(criteria 9 and 10) share a session fixture so the expensive computation
happens once; expect the pair of modular closures plus the complexified
run to dominate the suite's runtime.
"""

import resource
import time

import pytest

from wsdalg.scalars import DEFAULT_PRIMES, GaussRational, I, ZERO
from wsdalg import forms
from wsdalg.forms import hodge_star, monomial, poincare_pair
from wsdalg import operators as ops
from wsdalg import reptheory
from wsdalg import hwbases
from wsdalg import closure as cl


def _report(number: int, name: str, t0: float, limit_s: float, enforce=True):
    dt = time.time() - t0
    print(f"\n[criterion {number:2d}] PASS {name} ({dt:.1f}s, limit {limit_s:.0f}s)")
    if enforce:
        assert dt < limit_s, f"criterion {number} exceeded its runtime limit: {dt:.1f}s"


@pytest.fixture(scope="session")
def ralg():
    return cl.default_algebra()


@pytest.fixture(scope="session")
def full_closure(ralg):
    """Both modular closures, the complexified closure, and the structure
    report, computed once."""
    t0 = time.time()
    states = [
        cl.lie_closure(field="modular", prime=p, ralg=ralg) for p in DEFAULT_PRIMES
    ]
    complex_state = cl.lie_closure(
        field="modular-complex", prime=DEFAULT_PRIMES[0], ralg=ralg
    )
    structure = cl.verify_structure(states[0], ralg, complex_state)
    return {
        "states": states,
        "complex": complex_state,
        "structure": structure,
        "wall_s": time.time() - t0,
    }


def test_criterion_01_clifford_relations():
    t0 = time.time()
    rep = ops.clifford_relations_report()
    assert rep["pass"], rep["failures"][:5]
    assert rep["checks"] >= 81 + 81 + 81  # two anticommutation families + mixed
    _report(1, "creation/annihilation relation suite, all index pairs", t0, 5)


def test_criterion_02_invariance():
    t0 = time.time()
    gens = ops.standard_generators()
    Js = [ops.build_J(k) for k in (1, 2, 3)]
    for name, g in gens.items():
        for J in Js:
            assert g.compose(J) == J.compose(g), f"[{name}, J] != 0"
    Ls = [ops.build_L(j) for j in range(3)]
    Vs = [ops.build_V(j) for j in range(3)]
    Lams = [ops.build_Lambda(j) for j in range(3)]
    As = [ops.build_A(j) for j in range(3)]
    for sigma in ops.PERMUTATIONS:
        eps = ops.perm_sign(sigma)
        for j in range(3):
            assert ops.s3_conjugate(sigma, Vs[j]) == Vs[sigma[j]]
            assert ops.s3_conjugate(sigma, As[j]) == As[sigma[j]]
            assert ops.s3_conjugate(sigma, Ls[j]) == Ls[sigma[j]].scale(eps)
            assert ops.s3_conjugate(sigma, Lams[j]) == Lams[sigma[j]].scale(eps)
        for J in Js:
            assert ops.s3_conjugate(sigma, J) == J
    _report(2, "rotation invariance and block-permutation equivariance", t0, 5)


def test_criterion_03_multiplicity_table():
    t0 = time.time()
    table = reptheory.isotypical_table()
    assert table.rows() == [
        (1, 0, 0, 0), (0, 3, 0, 0), (3, 6, 3, 0), (10, 9, 8, 1), (6, 18, 9, 3),
        (6, 18, 9, 3), (10, 9, 8, 1), (3, 6, 3, 0), (0, 3, 0, 0), (1, 0, 0, 0),
    ]
    assert table.dimension_check()
    for k, (dim, half) in enumerate(zip((40, 72, 40, 8), (20, 36, 20, 4))):
        space = reptheory.highest_weight_space(k)
        assert space.dims() == (dim, half, half)
    _report(3, "isotypical multiplicity table and space dimensions", t0, 30)


def test_criterion_04_special_linear_presentation(ralg):
    t0 = time.time()
    rep = ops.serre_check()
    assert rep["pass"], rep["failures"]
    st = cl.lie_closure(generators=cl.EVEN_GENERATOR_NAMES, field="exact", ralg=ralg)
    assert st.dim == 15
    _report(4, "Chevalley-Serre relations; even closure has dimension 15", t0, 60)


def test_criterion_05_weight_suite():
    t0 = time.time()
    Ks = [ops.build_K(m, m) for m in range(3)]
    for mask in range(512):
        mono = monomial(mask)
        w = ops.kw_form_weight(mask)
        for m in range(3):
            assert Ks[m].apply(mono) == mono.scale(w[m])
            assert w[m].re == 0 and abs(w[m].im) <= 1
    minus_i = GaussRational(0, -1)
    expected = {
        0: {(ZERO, ZERO, ZERO), (ZERO, minus_i, ZERO), (ZERO, ZERO, minus_i), (ZERO, minus_i, minus_i)},
        1: {(ZERO, ZERO, ZERO), (minus_i, ZERO, ZERO), (ZERO, ZERO, minus_i), (minus_i, ZERO, minus_i)},
        2: {(ZERO, ZERO, ZERO), (minus_i, ZERO, ZERO), (ZERO, minus_i, ZERO), (minus_i, minus_i, ZERO)},
    }
    for j in range(3):
        buckets = ops.kw_decompose(ops.build_L(j).scale(I))
        assert set(buckets) == expected[j]
    Hs = [ops.build_H(j) for j in range(3)]
    Kall = {(l, m): ops.build_K(l, m) for l in range(3) for m in range(3)}
    for j in range(3):
        for (l, m), K in Kall.items():
            c = -3 * (j == l) + 3 * (j == m)
            assert ops.superbracket(Hs[j], K) == K.scale(c)
    _report(5, "toral eigenvalues, weight components, H-K brackets", t0, 30)


def test_criterion_06_labeled_bases():
    t0 = time.time()
    for basis, dims in zip(hwbases.all_bases(), ((40, 20, 20), (72, 36, 36), (40, 20, 20), (8, 4, 4))):
        assert basis.dims() == dims
        rep = hwbases.basis_report(basis)
        assert rep["pass"], rep["failures"][:5]
    assert hwbases.relation_vector().is_zero()
    # non-vanishing facts quoted for each space
    wD, w2, w1 = forms.omegaD(), forms.omega2(), forms.omega1()
    for f in (
        forms.wedge(forms.wedge(wD, wD), w2),
        forms.wedge(forms.wedge(wD, wD), wD),
        forms.wedge(forms.wedge(wD, w1), w2),
    ):
        assert not f.is_zero()
    w10 = forms.w_form(1, 0)
    L0, L1, L2 = (ops.build_L(j) for j in range(3))
    assert not L0.apply(L0.apply(L0.apply(w10))).is_zero()
    assert not L1.apply(L1.apply(w10)).is_zero()
    u2 = forms.wedge(w10, forms.w_form(1, 1))
    assert not L2.apply(u2).is_zero()
    u3 = forms.wedge(u2, forms.w_form(1, 2))
    assert not L2.apply(u3).is_zero()
    _report(6, "labeled bases: cardinality, independence, relation", t0, 60)


def test_criterion_07_smallest_block_matrices(ralg):
    t0 = time.time()
    one = GaussRational(1)
    for j, name in enumerate(("iL0", "iL1", "iL2")):
        blk = ralg.generator(name).block(3)
        odd = {(r - 4, c - 4): v for (r, c), v in blk.items() if r >= 4 and c >= 4}
        assert odd == {(j + 1, 0): one}, name
    for name in ("iV0", "iV1", "iV2", "A0", "A1", "A2"):
        assert not ralg.generator(name).block(3), name
    _report(7, "displayed matrices on the smallest block; V/A vanish there", t0, 10)


def test_criterion_08_pattern_tables():
    t0 = time.time()
    report = hwbases.verify_pattern_tables()
    assert report["pass"], {
        n: t["mismatches"][:3] for n, t in report["tables"].items() if not t["pass"]
    }
    assert set(report["tables"]) == {"hw0", "hw2", "hw1-first", "hw1-second"}
    _report(8, "tabulated component patterns, marked and blank cells", t0, 60)


def test_criterion_09_main_closure(full_closure):
    t0 = time.time()
    states = full_closure["states"]
    assert [st.prime for st in states] == list(DEFAULT_PRIMES)
    for st in states:
        assert st.dim == 8396, f"dimension {st.dim} under p={st.prime}"
        assert tuple(st.block_dims()[k] for k in range(4)) == (1599, 5183, 1599, 15)
        even, odd = st.parity_dims()  # reported, not pinned
        print(f"\n    p={st.prime}: parity split even {even} / odd {odd}")
    cx = full_closure["complex"]
    assert cx.dim == 8396
    assert 2 * cx.dim == 16792
    assert cl.DIMENSION_BOUND - states[0].dim == 48
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    wall_min = full_closure["wall_s"] / 60
    print(f"\n    closure wall time {wall_min:.1f} min, peak memory {peak_gb:.2f} GiB")
    assert peak_gb < 4.0
    _report(9, "full closure 8396 under both primes; blocks (1599,5183,1599,15); "
               "complexified 8396 (real 16792); gap 48", t0, 1800, enforce=False)
    assert full_closure["wall_s"] < 1800, "closure exceeded its runtime target"


def test_criterion_10_structural_properties(full_closure):
    t0 = time.time()
    rep = full_closure["structure"]
    assert rep["pass"], rep["failures"]
    assert rep["generator_pairing_identity"] is True
    assert rep["supertrace_max_residue"] == 0.0
    assert all(rep["dagger_membership"].values())
    assert rep["complex_dim"] == 8396 and rep["complex_real_dim"] == 16792
    assert rep["bound_gap"] == 48
    _report(10, "pairing preservation, supertraces, twisted-adjoint closedness", t0, 300)


def test_criterion_11_property_oracles():
    t0 = time.time()
    for m in range(512):
        assert hodge_star(hodge_star(monomial(m))) == monomial(m)
    from wsdalg.linalg import SparseEchelon

    for basis in hwbases.all_bases():
        vecs = basis.vectors()
        ech = SparseEchelon()
        for a in vecs:
            ech.insert({j: v for j, b in enumerate(vecs) if (v := poincare_pair(a, b))})
        assert ech.rank == len(vecs)
    for n in (1, 2):
        assert cl.su_pair_dimension(n) == 4 * n * n - 1
    _report(11, "star involution, restricted pairing ranks, su-pair oracle", t0, 120)
