"""Canonical operators: relations, adjoints, symmetries, weight structure."""

import pytest

from wsdalg.scalars import GaussRational, I, ONE, ZERO
from wsdalg import forms
from wsdalg.forms import monomial, pos, wedge
from wsdalg import operators as ops
from wsdalg.operators import (
    PERMUTATIONS,
    build_A,
    build_E,
    build_H,
    build_I,
    build_J,
    build_K,
    build_L,
    build_Lambda,
    build_V,
    dagger,
    dump_operator,
    hodge_conjugate,
    identity,
    kw_decompose,
    kw_form_weight,
    perm_sign,
    plain_adjoint,
    s3_conjugate,
    standard_generators,
    super_adjoint,
    superbracket,
    supertrace,
)


def test_clifford_relations_exhaustive():
    rep = ops.clifford_relations_report()
    assert rep["pass"], rep["failures"][:5]
    assert rep["adjoint_exchange"]["plain"] is True
    # the parity-twisted adjoint flips signs on odd rows, so it cannot also
    # realize the exchange
    assert rep["adjoint_exchange"]["super"] is False


def test_builders_examples():
    assert build_L(0).apply(forms.one()) == forms.omegaD()
    assert build_L(1).apply(forms.one()) == forms.omega2().scale(-1)
    assert build_L(2).apply(forms.one()) == forms.omega1()
    assert build_V(0).apply(forms.one()) == forms.block_volume(0)
    assert build_J(1).apply(forms.omega1()).is_zero()
    assert build_J(1).apply(forms.omega2()).is_zero()
    with pytest.raises(ValueError):
        build_L(3)


def test_V_equals_triple_creation():
    for j in range(3):
        comp = build_E(1, j).compose(build_E(2, j)).compose(build_E(3, j))
        assert build_V(j) == comp


def test_plain_adjoint():
    assert plain_adjoint(build_E(1, 0)) == build_I(1, 0)
    assert plain_adjoint(identity()) == identity()
    L0 = build_L(0)
    assert plain_adjoint(plain_adjoint(L0)) == L0


def test_super_adjoint_examples():
    lam0 = super_adjoint(build_L(0))
    out = lam0.apply(forms.omegaD())
    assert out == monomial(0, GaussRational(3))
    # twisted double adjoint is -Id on odd operators
    V0 = build_V(0)
    assert super_adjoint(super_adjoint(V0)) == V0.scale(-1)
    A0 = build_A(0)
    img = A0.apply(forms.block_volume(0))
    assert img == forms.one()  # unit scalar; the sign fixes the convention
    with pytest.raises(ValueError):
        super_adjoint(build_L(0) + build_V(0))


def test_superbracket():
    K00 = superbracket(build_V(0).scale(I), build_A(0))
    assert K00.apply(forms.one()) == monomial(0, I)
    L0 = build_L(0)
    assert superbracket(L0, L0).is_zero()
    # odd self-bracket is 2x the square, generally nonzero
    V0 = build_V(0)
    assert superbracket(V0, V0) == V0.compose(V0).scale(2)


def test_H_K_relations():
    Hs = [build_H(j) for j in range(3)]
    Ks = {(l, m): build_K(l, m) for l in range(3) for m in range(3)}
    Vs = [build_V(j) for j in range(3)]
    As = [build_A(j) for j in range(3)]
    for j in range(3):
        for m in range(3):
            c = 3 * (1 - (j == m))
            assert superbracket(Hs[j], Vs[m]) == Vs[m].scale(c)
            assert superbracket(Hs[j], As[m]) == As[m].scale(-c)
    for j in range(3):
        for l in range(3):
            for m in range(3):
                c = -3 * (j == l) + 3 * (j == m)
                assert superbracket(Hs[j], Ks[(l, m)]) == Ks[(l, m)].scale(c)


def test_serre_presentation():
    rep = ops.serre_check()
    assert rep["pass"], rep["failures"]
    g = ops.serre_generators()
    L2, Lam2 = build_L(2), build_Lambda(2)
    assert g["h3"] == superbracket(L2, Lam2)


def test_rotation_triple_is_built_once_and_never_mutated():
    """Every caller shares the cached triple; after all the exact suites
    it still equals a fresh build."""
    from wsdalg import suites

    assert ops.sl2_triple() is ops.sl2_triple()
    suites.run_suites(["relations", "table1", "bases", "appendix", "structure"])
    assert ops.sl2_triple() == ops.sl2_triple.__wrapped__()


def test_rotation_triple_weights():
    e, f, h = ops.sl2_triple()
    w10 = forms.w_form(1, 0)
    assert e.apply(w10).is_zero()
    assert h.apply(w10) == w10.scale(2)


def test_cartan_weights_of_distinguished_vectors():
    g = ops.serre_generators()
    w10 = forms.w_form(1, 0)
    u2 = wedge(w10, forms.w_form(1, 1))
    u3 = wedge(u2, forms.w_form(1, 2))
    for vec, weight in ((w10, (-1, 0, -2)), (u2, (0, -1, -1)), (u3, (0, 0, -1))):
        for k, expected in zip((1, 2, 3), weight):
            assert g[f"h{k}"].apply(vec) == vec.scale(expected)


def test_generators_commute_with_rotations():
    gens = standard_generators()
    Js = [build_J(k) for k in (1, 2, 3)]
    for name, g in gens.items():
        for J in Js:
            assert g.compose(J) == J.compose(g), name


def test_s3_equivariance_all_permutations():
    Ls = [build_L(j) for j in range(3)]
    Vs = [build_V(j) for j in range(3)]
    Lams = [build_Lambda(j) for j in range(3)]
    As = [build_A(j) for j in range(3)]
    Js = [build_J(k) for k in (1, 2, 3)]
    for sigma in PERMUTATIONS:
        eps = perm_sign(sigma)
        for j in range(3):
            assert s3_conjugate(sigma, Vs[j]) == Vs[sigma[j]]
            assert s3_conjugate(sigma, As[j]) == As[sigma[j]]
            assert s3_conjugate(sigma, Ls[j]) == Ls[sigma[j]].scale(eps)
            assert s3_conjugate(sigma, Lams[j]) == Lams[sigma[j]].scale(eps)
        for J in Js:
            assert s3_conjugate(sigma, J) == J


def test_s3_examples():
    swap01 = (1, 0, 2)
    assert s3_conjugate(swap01, build_V(0)) == build_V(1)
    assert s3_conjugate(swap01, build_L(0)) == build_L(1).scale(-1)
    assert s3_conjugate(swap01, build_J(1)) == build_J(1)


def test_pairing_preservation_identity():
    for name, g in standard_generators().items():
        assert super_adjoint(g) == hodge_conjugate(g).scale(-1), name


def test_hodge_conjugate_examples():
    assert hodge_conjugate(build_L(0).scale(I)) == build_Lambda(0).scale(I)
    assert hodge_conjugate(build_V(0)) == build_A(0)
    assert hodge_conjugate(identity()) == identity()


def test_kw_eigenvalues_all_monomials():
    Ks = [build_K(m, m) for m in range(3)]
    for mask in range(512):
        mono = monomial(mask)
        w = kw_form_weight(mask)
        for m in range(3):
            assert Ks[m].apply(mono) == mono.scale(w[m])
            assert w[m].re == 0 and abs(w[m].im) <= 1


def test_kw_decompose_L_operators():
    minus_i = GaussRational(0, -1)
    zero = ZERO
    expected = {
        0: {(zero, zero, zero), (zero, minus_i, zero), (zero, zero, minus_i), (zero, minus_i, minus_i)},
        1: {(zero, zero, zero), (minus_i, zero, zero), (zero, zero, minus_i), (minus_i, zero, minus_i)},
        2: {(zero, zero, zero), (minus_i, zero, zero), (zero, minus_i, zero), (minus_i, minus_i, zero)},
    }
    for j in range(3):
        iL = build_L(j).scale(I)
        buckets = kw_decompose(iL)
        assert set(buckets) == expected[j]
        total = ops.zero_operator()
        for comp in buckets.values():
            total = total + comp
        assert total == iL
        # opposite weights for the adjoints
        iLam = build_Lambda(j).scale(I)
        got = {tuple(-z for z in w) for w in kw_decompose(iLam)}
        assert got == expected[j]


def test_kw_component_bracket_identity():
    """[K_mm, component] = z_m * component on even degrees and -z_m on odd:
    conjugating by the degree-parity sign makes the components genuine
    eigenvectors, which is how they act on each fixed-parity basis."""
    Ks = [build_K(m, m) for m in range(3)]
    iL0 = build_L(0).scale(I)
    for w, comp in kw_decompose(iL0).items():
        for m in range(3):
            br = superbracket(Ks[m], comp)
            for c, col in br.cols.items():
                sign = 1 if c.bit_count() % 2 == 0 else -1
                expect = w[m] * GaussRational(sign)
                for r, v in col.items():
                    assert v == expect * comp.entry(r, c)


def test_kw_decompose_K00():
    K00 = build_K(0, 0)
    buckets = kw_decompose(K00)
    assert set(buckets) == {(ZERO, ZERO, ZERO)}


def test_dagger():
    ident = identity()
    assert dagger(ident) == ident
    L0 = build_L(0)
    assert dagger(dagger(L0)) == L0
    V0 = build_V(0)
    assert dagger(V0) == plain_adjoint(V0).scale(-I)


def test_dagger_block_form():
    """In a split even/odd basis the twisted adjoint acts per parity block:
    diagonal (even) part by the plain adjoint, off-diagonal (odd) part by
    -i times the plain adjoint.  For a matrix [[A, B], [C, -A*]] with B
    Hermitean (B* = B) and C anti-Hermitean (C* = -C) this is exactly
    [[A*, iC], [-iB, -A]]."""
    # even piece: A on the diagonal blocks; masks 0 and 3 have even degree
    A = ops.Operator({0: {3: GaussRational(2, 1)}})
    dA = dagger(A)
    assert dA.entry(0, 3) == GaussRational(2, -1)  # plain conjugate transpose
    # odd piece: mask 0 (even) <-> mask 1 (odd), Hermitean across the pair
    odd = ops.Operator({0: {1: ONE}, 1: {0: ONE}})
    d = dagger(odd)
    # B-block entry 1 (Hermitean) acquires -i; C-block entry 1 decomposes as
    # its anti-Hermitean part, and -i * C* = +i * C reproduces the sign
    assert d.entry(0, 1) == -I
    assert d.entry(1, 0) == -I
    # purely imaginary odd piece: dagger multiplies the conjugate transpose
    # by -i, so an entry i maps to (-i) * (-i) = -1
    anti = ops.Operator({0: {1: I}, 1: {0: I}})
    da = dagger(anti)
    assert da.entry(1, 0) == GaussRational(-1)
    assert da == plain_adjoint(anti).scale(-I)


def test_supertrace():
    assert supertrace(identity()) == ZERO  # 256 even - 256 odd
    assert supertrace(build_L(0)) == ZERO
    K00 = build_K(0, 0)
    # diagonal with eigenvalues i(-1)^deg (delta_a0 - delta_a3): the parity
    # sign cancels the (-1)^deg, leaving a plain sum over all masks
    total = sum(
        (1 if forms.multidegree_of_mask(m)[0] == 0 else 0)
        - (1 if forms.multidegree_of_mask(m)[0] == 3 else 0)
        for m in range(512)
    )
    assert supertrace(K00) == GaussRational(0, total)


def test_operator_dump_golden():
    V0 = build_V(0)
    triples = dump_operator(V0)
    assert len(triples) == 64
    # wedging the lowest three positions in front never costs a sign
    assert all(v == "1" for _, _, v in triples)
    assert all(r == (c | 0b111) and not c & 0b111 for r, c, _ in triples)
    # determinism
    assert triples == dump_operator(build_V(0))


def test_parity_and_shift_metadata():
    assert build_L(0).parity() == 0
    assert build_V(0).parity() == 1
    assert (build_L(0) + build_V(0)).parity() is None
    assert build_L(0).multidegree_shift() == (0, 1, 1)
    assert build_L(1).multidegree_shift() == (1, 0, 1)
    assert build_L(2).multidegree_shift() == (1, 1, 0)
    assert build_V(0).multidegree_shift() == (3, 0, 0)
    assert build_K(0, 1).multidegree_shift() == (3, -3, 0)
