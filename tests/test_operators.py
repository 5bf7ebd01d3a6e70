"""Canonical operators: relations, adjoints, symmetries, weight structure."""

import hashlib
import json
import random
from math import lcm
from fractions import Fraction

import numpy as np
import pytest

from wsdalg.scalars import GaussRational, I, ONE, ZERO
from wsdalg import forms
from wsdalg.forms import monomial, pos, wedge
from wsdalg import operators as ops
from wsdalg import suites
from wsdalg.closure import (FlatLayout, RestrictedOperator, _adjoint_blocks, _bracket_rows,
                            default_algebra)
from wsdalg.linalg import integral
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
from opcolumns import columns, ref_product, ref_sum, rop_bracket


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


EXACT_SUITES = ["relations", "table1", "bases", "appendix", "structure"]


@pytest.fixture(scope="module")
def exact_suite_results():
    """The results of one run of the exact suites, after which every cached
    operator has been handed to every caller."""
    return suites.run_suites(EXACT_SUITES)["results"]


def test_rotation_triple_is_built_once_and_never_mutated(exact_suite_results):
    """Every caller shares the cached triple; after all the exact suites
    it still equals a fresh build."""
    assert ops.sl2_triple() is ops.sl2_triple()
    assert ops.sl2_triple() == ops.sl2_triple.__wrapped__()


def test_wedge_operators_are_built_once_and_never_mutated(exact_suite_results):
    """build_L and build_V hand out cached operators; after all the exact
    suites each still dumps like a fresh wedge_operator build."""
    for build in (build_L, build_V):
        for j in range(3):
            assert build(j) is build(j)
            assert dump_operator(build(j)) == dump_operator(build.__wrapped__(j))


def _wedge_reference(f: forms.Form) -> ops.Operator:
    """Left wedge with f, one forms.wedge per input mask."""
    return ops.Operator({m: wedge(f, monomial(m)).coeffs for m in range(forms.DIM)})


def test_wedge_operators_match_per_mask_loop():
    """L_j, V_j and wedges with random forms (mixed degrees, masks 0 and
    511, Fraction and complex coefficients) equal the per-mask wedge loop,
    entry for entry and type for type, and keep its view's dtype."""
    pairs = [
        (build_L(0), _wedge_reference(forms.omegaD())),
        (build_L(1), _wedge_reference(forms.omega2()).scale(-1)),
        (build_L(2), _wedge_reference(forms.omega1())),
    ] + [(build_V(j), _wedge_reference(forms.block_volume(j))) for j in range(3)]
    rng = random.Random(19)
    for _ in range(6):
        f = forms.Form({m: _random_value(rng) for m in rng.sample(range(forms.DIM), rng.randint(1, 6))})
        pairs.append((ops.wedge_operator(f), _wedge_reference(f)))
    for f in (forms.Form(), monomial(0, 2), monomial(511, I)):
        pairs.append((ops.wedge_operator(f), _wedge_reference(f)))
    for got, want in pairs:
        assert got == want
        assert dump_operator(got) == dump_operator(want)
        assert got.coords().re.dtype == got.coords().im.dtype == want.coords().re.dtype
        _assert_coords(got)
    assert all(op.coords().re.dtype == np.int64 for op, _ in pairs[:6])


def test_exact_suite_results_digest(exact_suite_results):
    """The exact suites' results, pinned as the digest of their sorted JSON."""
    assert all(exact_suite_results[name]["pass"] for name in EXACT_SUITES)
    text = json.dumps(exact_suite_results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "da6e706193de1e69"


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
            for c, col in columns(br).items():
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


# -- the product accumulator against plain GaussRational arithmetic -----------


def _random_value(rng: random.Random) -> GaussRational:
    """A nonzero value: an int, +-i, a non-integral Fraction or a complex
    value with Fraction components."""
    kind = rng.randrange(4)
    if kind == 0:
        return GaussRational(rng.choice([-3, -2, -1, 1, 2, 3]))
    if kind == 1:
        return rng.choice([I, -I])
    if kind == 2:
        return GaussRational(Fraction(rng.choice([-3, -1, 1, 5]), rng.choice([2, 3, 4])))
    return GaussRational(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])), rng.choice([-2, -1, 1, 2]))


def _random_entries(rng: random.Random, parity: int, masks=range(32), density=0.15) -> dict:
    """{(r, c): v} over the given masks, every entry of the given parity."""
    return {
        (r, c): _random_value(rng)
        for c in masks
        for r in masks
        if (r.bit_count() - c.bit_count()) % 2 == parity and rng.random() < density
    }


def _operator(entries: dict) -> ops.Operator:
    cols: dict = {}
    for (r, c), v in entries.items():
        cols.setdefault(c, {})[r] = v
    return ops.Operator(cols)


def _cells(op: ops.Operator) -> dict:
    return {(r, c): v for c, col in columns(op).items() for r, v in col.items()}


def _assert_canonical(cells: dict) -> None:
    for v in cells.values():
        assert v, "stored zero"
        for part in (v.re, v.im):
            assert type(part) is int or (type(part) is Fraction and part.denominator != 1), v


def _cancelling_pairs(rng: random.Random):
    """Pairs whose products, sums and differences cancel to exactly zero, or
    sum Fractions to ints."""
    a = _random_entries(rng, 0)
    yield a, {key: -v for key, v in a.items()}
    yield a, dict(a)
    # two paths r <- m1 <- c and r <- m2 <- c with opposite weights
    half = GaussRational(Fraction(1, 2), Fraction(-3, 2))
    yield {(1, 2): ONE, (1, 4): ONE}, {(2, 8): half, (4, 8): -half}
    yield {(1, 2): half, (1, 4): half}, {(2, 8): ONE, (4, 8): ONE}


def _edge_pairs(rng: random.Random):
    """The masks 0 and 511 on both sides, components past 2^63, Fractions
    that sum to ints, and the zero operator on either side."""
    for pa in (0, 1):
        a = _random_entries(rng, pa, (0, 1, 510, 511), 0.7)
        yield a, _random_entries(rng, 1 - pa, (0, 1, 510, 511), 0.7)
        yield a, {}
        yield {}, a
    # 2^64 + 1 = 2 and 2^63 + 2 = 1 (mod 3): the thirds sum to an int
    x, y = Fraction(2**64 + 1, 3), Fraction(2**63 + 2, 3)
    yield {(1, 2): ONE, (1, 4): ONE}, {(2, 8): GaussRational(x, 2**70), (4, 8): GaussRational(y, 1 - 2**70)}
    yield {(2, 8): GaussRational(x, 2**65)}, {(2, 8): GaussRational(y, -(2**65)), (0, 511): GaussRational(2**80)}


def _assert_coords(op: ops.Operator) -> None:
    """op's coordinate view equals the one a fresh operator builds from its
    columns, entry for entry and type for type, and its parity is that of its
    entries."""
    parities = {(r.bit_count() - c.bit_count()) & 1 for (r, c) in _cells(op)}
    assert op.parity() == (parities.pop() if len(parities) == 1 else None)
    got, want = op.coords(), ops.Operator(columns(op)).coords()
    assert got.rows.tolist() == want.rows.tolist()
    assert got.cols.tolist() == want.cols.tolist()
    for g, w in ((got.re, want.re), (got.im, want.im)):
        assert [(type(v), v) for v in g.tolist()] == [(type(v), v) for v in w.tolist()]


def test_product_accumulator_matches_reference():
    rng = random.Random(13)
    pairs = [
        (_random_entries(rng, pa), _random_entries(rng, pb))
        for pa in (0, 1)
        for pb in (0, 1)
        for _ in range(3)
    ]
    pairs += list(_cancelling_pairs(rng))
    pairs += list(_edge_pairs(rng))
    assert any(not ref_sum((1, a), (1, b)) for a, b in pairs)
    assert ops.Operator().parity() is None
    for a, b in pairs:
        A, B = _operator(a), _operator(b)
        ab, ba = ref_product(a, b), ref_product(b, a)
        expect = {
            "compose": ref_sum((1, ab)),
            "add": ref_sum((1, a), (1, b)),
            "sub": ref_sum((1, a), (-1, b)),
            "mixed": ref_sum((1, ab), (-1, b), (1, a), (-1, ba)),
            "scale": ref_sum((GaussRational(Fraction(-2, 3), 5), a)),
        }
        got = {
            "compose": A.compose(B),
            "add": A + B,
            "sub": A - B,
            "mixed": ops._product_sum(((1, A, B), (-1, B, None), (1, A, None), (-1, B, A))),
            "scale": A.scale(GaussRational(Fraction(-2, 3), 5)),
        }
        expect["adjoint"] = {(c, r): v.conjugate() for (r, c), v in a.items()}
        got["adjoint"] = plain_adjoint(A)
        pa, pb = A.parity(), B.parity()
        if pa is not None:
            expect["super_adjoint"] = {
                (c, r): v.conjugate() * (-1 if pa and c.bit_count() & 1 else 1) for (r, c), v in a.items()
            }
            got["super_adjoint"] = super_adjoint(A)
        if pa is not None and pb is not None:
            expect["bracket"] = ref_sum((1, ab), (1 if (pa and pb) else -1, ba))
            got["bracket"] = superbracket(A, B)
        for name, op in got.items():
            cells = _cells(op)
            assert cells == expect[name], name
            assert all(columns(op).values()), f"{name}: empty column"
            _assert_canonical(cells)
            _assert_coords(op)
        f = forms.Form({c: v for (r, c), v in b.items() if r == 3})
        image = A.apply(f)
        ref = ref_sum((1, ref_product(a, {(m, 0): v for m, v in f.coeffs.items()})))
        assert image.coeffs == {r: v for (r, _), v in ref.items()}
        _assert_canonical(image.coeffs)


def _bound_cases(over: int):
    """(name, result, reference cells, bound) for compose, bracket, +, -
    and scale of int64 operands whose bound sum_t n_t P_a P_b is 2^63 - 1
    or less when over = 0 and 2^63 or more when over = 1."""
    big = 1 << 31
    # two partial products meet in cell (1, 8): P_a = 2^31, P_b = 2^31 - 1 + over
    a = {(1, 2): GaussRational(big - 5, 5), (1, 4): GaussRational(big - 5, 5)}
    b = {(2, 8): GaussRational(big - 8 + over, -7), (4, 8): GaussRational(big - 8 + over, -7)}
    A, B = _operator(a), _operator(b)
    bound = 2 * big * (big - 1 + over)
    yield "compose", A.compose(B), ref_sum((1, ref_product(a, b))), bound
    # both even, and B A has no partial product
    yield "bracket", superbracket(A, B), ref_sum((1, ref_product(a, b)), (-1, ref_product(b, a))), bound
    # one cell each: P = 2^62 and 2^62 - 1 + over
    u = {(1, 2): GaussRational((1 << 62) - 9, 9)}
    w = {(1, 2): GaussRational((1 << 62) - 10 + over, -9)}
    U, W = _operator(u), _operator(w)
    yield "add", U + W, ref_sum((1, u), (1, w)), (1 << 63) - 1 + over
    yield "sub", U - W, ref_sum((1, u), (-1, w)), (1 << 63) - 1 + over
    # P = 2^62 - 1 + over times |1| + |-1|
    x = {(1, 2): GaussRational((1 << 62) - 4 + over, 3), (3, 2): GaussRational(-7, 1)}
    s = GaussRational(1, -1)
    yield "scale", _operator(x).scale(s), ref_sum((s, x)), 2 * ((1 << 62) - 1 + over)
    for op in (A, B, U, W, _operator(x)):
        assert op.coords().re.dtype == np.int64


@pytest.mark.parametrize("over", [0, 1])
def test_int64_bound_decides_the_arithmetic(over):
    """Just under and just over the int64 bound, compose, bracket, +, -
    and scale equal dict arithmetic, and the object fallback engages
    exactly when the bound fails."""
    for name, op, expect, bound in _bound_cases(over):
        assert (bound < 2**63) == (not over), name
        cells = _cells(op)
        assert cells == expect, name
        _assert_canonical(cells)
        assert op.coords().re.dtype == (object if over else np.int64), name
        assert op.coords().im.dtype == op.coords().re.dtype, name
    # the largest magnitude an int64 view holds is 2^63 - 1, so it negates exactly
    for v, dtype in ((2**63 - 1, np.int64), (-(2**63) + 1, np.int64), (-(2**63), object), (2**63, object)):
        op = ops.Operator({0: {1: GaussRational(v, 1)}})
        assert op.coords().re.dtype == dtype
        assert _cells(-op) == {(1, 0): GaussRational(-v, -1)}


# -- the entry readers against walks over the entries they were built from ---


def _ref_apply(cells: dict, f: forms.Form) -> dict:
    out: dict = {}
    for (r, c), v in cells.items():
        if c in f.coeffs:
            out[r] = out.get(r, ZERO) + v * f.coeffs[c]
    return {r: v for r, v in out.items() if v}


def _ref_shift(cells: dict):
    md = forms.multidegree_of_mask
    shifts = {tuple(x - y for x, y in zip(md(r), md(c))) for r, c in cells}
    return shifts.pop() if len(shifts) == 1 else None


def _ref_kw(cells: dict) -> dict:
    """{weight: cells}, the weights in order of first entry by (column, row)."""
    out: dict = {}
    for (r, c) in sorted(cells, key=lambda rc: (rc[1], rc[0])):
        pr, pc = (ops.kw_pattern(forms.multidegree_of_mask(m)) for m in (r, c))
        key = tuple(GaussRational(0, pr[t] - pc[t]) for t in range(3))
        out.setdefault(key, {})[(r, c)] = cells[(r, c)]
    return out


def _ref_supertrace(cells: dict) -> GaussRational:
    acc = ZERO
    for (r, c), v in cells.items():
        if r == c:
            acc = acc + (v if c.bit_count() % 2 == 0 else -v)
    return acc


def _reader_cases(rng: random.Random):
    """(name, entries, dtype): int64 and object views, the zero operator,
    masks 0 and 511, Fraction and complex values, diagonals, one shift
    and mixed shifts."""
    gauss_ints = [ONE, -ONE, GaussRational(2), I, -I, GaussRational(3, -2)]
    edge = (0, 1, 2, 7, 56, 63, 448, 504, 510, 511)
    yield "int64", {(r, c): rng.choice(gauss_ints) for c in edge for r in edge if rng.random() < 0.4}, np.int64
    yield "object", _random_entries(rng, 0, edge, 0.5), object
    yield "big", {(511, 0): GaussRational(2**70, -3), (0, 0): GaussRational(Fraction(1, 3)), (5, 5): I}, object
    yield "zero", {}, np.int64
    # every entry shifts the multidegree by (3, 0, 0): v_m -> v_(m | 7)
    yield "one-shift", {(m | 7, m): _random_value(rng) for m in range(512) if not m & 7 and rng.random() < 0.3}, object
    yield "mixed-shift", _random_entries(rng, 1, range(32), 0.3), object


def test_entry_readers_match_dict_walks():
    """apply, entry, multidegree_shift, kw_decompose, supertrace and
    dump_operator read the coordinate view exactly as walks over the
    entries the operator was built from."""
    rng = random.Random(23)
    cases = list(_reader_cases(rng))
    assert any(v.re and v.im and Fraction in (type(v.re), type(v.im)) for _, e, _ in cases for v in e.values())
    assert any(_ref_shift(e) is not None for _, e, _ in cases[:-1])
    assert _ref_shift(cases[-1][1]) is None and _ref_supertrace(cases[-1][1]) == ZERO
    assert all(_ref_supertrace(e) for _, e, _ in cases[:3])
    assert all(len(_ref_kw(e)) > 1 for _, e, _ in cases if _ref_shift(e) is None and e)
    for name, entries, dtype in cases:
        op = _operator(entries)
        assert op.coords().re.dtype == dtype, name
        # apply: each column's monomial, a random form over used and unused masks, zero
        used = sorted({c for _, c in entries} | {0, 3, 511})
        fs = [monomial(c, _random_value(rng)) for c in used]
        fs += [forms.Form({m: _random_value(rng) for m in used}), forms.Form()]
        for f in fs:
            image = op.apply(f)
            assert image.coeffs == _ref_apply(entries, f), name
            _assert_canonical(image.coeffs)
        # entry: every stored cell, and absent cells in used and unused columns
        for (r, c), v in entries.items():
            got = op.entry(r, c)
            assert got == v and (type(got.re), type(got.im)) == (type(v.re), type(v.im)), name
        absent = [(r, c) for c in (0, 5, 300, 511) for r in (0, 6, 511) if (r, c) not in entries]
        assert absent and all(op.entry(r, c) == ZERO for r, c in absent), name
        assert op.multidegree_shift() == _ref_shift(entries), name
        buckets = kw_decompose(op)
        want = _ref_kw(entries)
        assert list(buckets) == list(want), name
        for key, comp in buckets.items():
            assert _cells(comp) == want[key], (name, key)
            _assert_coords(comp)
        assert supertrace(op) == _ref_supertrace(entries), name
        assert dump_operator(op) == sorted((r, c, str(v)) for (r, c), v in entries.items()), name


def test_entries_are_python_ints_or_fractions():
    """Restricted generators, their daggers and product columns hold int or
    Fraction components, never numpy scalars, which would compare and
    print like them."""
    ralg = default_algebra()
    blocks = (0, 1, 2, 3)
    values = [v for rop in ralg.generators() + ralg.daggers(blocks) for k in blocks
              for v in rop.block(k).values()]
    g = ralg.operators()
    products = [
        superbracket(g["iL0"], g["A1"]),
        g["iV2"].compose(g["iLambda1"]),
        g["A0"] - g["iV0"],
        g["iL2"].scale(GaussRational(Fraction(1, 3), 2)),
        hodge_conjugate(g["A2"]),
        dagger(g["iLambda0"]),
    ]
    values += [v for op in products for col in columns(op).values() for v in col.values()]
    values += [op.entry(int(op.coords().rows[0]), int(op.coords().cols[0])) for op in products]
    assert len(values) > 2000
    for v in values:
        assert type(v.re) in (int, Fraction) and type(v.im) in (int, Fraction), (type(v.re), type(v.im))


def _real_value(rng: random.Random) -> GaussRational:
    """A random real int or Fraction."""
    return GaussRational(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3, 6])))


def _class_operator(rng: random.Random, layout: FlatLayout, parity: int, make,
                    other: RestrictedOperator | None = None) -> RestrictedOperator:
    """A random operator of the given parity on one shift class of the
    layout, the only operators the ad_g tables bracket: up to 12 of the
    class's entries, each value drawn by make.  Given ``other``, the class
    is one whose shift added to other's is the shift of a class, so that
    the two may bracket to nonzero."""
    shifts = layout.class_shift_array
    ok = layout.class_parity == parity
    if other is not None:
        moved = shifts + shifts[layout.support_class(layout.entries(other)[0])]
        ok &= (moved[:, None, :] == shifts[None, :, :]).all(axis=2).any(axis=1)
    k, r, c, _ = layout.places(layout.class_indices[int(rng.choice(np.flatnonzero(ok)))])
    cells = sorted(set(zip(k.tolist(), r.tolist(), c.tolist())))
    blocks = {b: {} for b in layout.blocks}
    for b, row, col in rng.sample(cells, min(12, len(cells))):
        blocks[b][row, col] = make(rng)
    return RestrictedOperator(blocks, parity)


def _flat_bracket(x: RestrictedOperator, y: RestrictedOperator, layout: FlatLayout) -> tuple:
    """[x, y] by the bracket kernel both closure engines run: x's
    ``integral`` row is the one generator of ``_adjoint_blocks``, and
    ``_bracket_rows`` brackets y's ``integral`` row, on its class, with it.
    Returns (parity of the target class or None, flat row, scale), the row
    nonzero parts as ints and the scale the product of the two integral
    scales, so the row is scale times the rational bracket."""
    scale, rows = 1, []
    for z in (x, y):
        f, v = layout.entries(z)
        scale *= lcm(*(Fraction(w).denominator for w in v))
        rows.append((f, np.array(list(integral(dict(zip(f.tolist(), v))).values()), dtype=float)))
    (f, v), d = rows[1], layout.support_class(rows[1][0])
    ads = _adjoint_blocks(layout, [x], rows[:1], [d])
    if d not in ads.tables:
        return None, {}, scale
    Y = np.zeros((1, layout.class_width[d]))
    Y[0, layout.coord_local[f]] = v
    (t, lo, hi), = ads.outputs[d]
    out = _bracket_rows(Y, ads.tables[d])[0, lo:hi]
    nz = np.flatnonzero(out)
    row = dict(zip(layout.class_indices[t][nz].tolist(), out[nz].astype(np.int64).tolist()))
    return int(layout.class_parity[t]), row, scale


def _assert_bracket_matches_reference(x: RestrictedOperator, y: RestrictedOperator,
                                      layout: FlatLayout) -> bool:
    """Checks [x, y] against the reference; returns whether it is nonzero."""
    parity, got, scale = _flat_bracket(x, y, layout)
    ref = rop_bracket(x, y, layout.blocks)
    assert ref.parity == (x.parity + y.parity) & 1
    assert parity in (None, ref.parity)
    for k in layout.blocks:
        assert ref.block(k) == ref_sum(
            (1, ref_product(x.block(k), y.block(k))),
            (1 if (x.parity and y.parity) else -1, ref_product(y.block(k), x.block(k))),
        )
    assert got == {f: v * scale for f, v in layout.flatten_exact(ref).items()}
    for v in got.values():  # nonzero ints: the integral rows keep every sum an integer
        assert v and type(v) is int, v
    return bool(got)


def test_rop_bracket_matches_reference():
    """The table kernel brackets random shift-homogeneous operators on
    blocks 0 and 2 as the cell-by-cell reference does, in all four parity
    pairs, for complex operands and for real and complex ones in every
    pairing, so that every pair of parts meets."""
    rng = random.Random(17)
    layout = FlatLayout((0, 2))
    kinds = [(_random_value, _random_value), (_real_value, _real_value),
             (_real_value, _random_value), (_random_value, _real_value)]
    nonzero = 0
    for px in (0, 1):
        for py in (0, 1):
            for make_x, make_y in kinds:
                for _ in range(6):
                    x = _class_operator(rng, layout, px, make_x)
                    y = _class_operator(rng, layout, py, make_y, x)
                    nonzero += _assert_bracket_matches_reference(x, y, layout)
    assert nonzero > 60
    # an even element brackets to zero with itself, leaving an empty row
    x = _class_operator(rng, layout, 0, _random_value)
    assert _flat_bracket(x, x, layout)[1] == {}


# -- the relation suites still catch a broken relation -----------------------


def test_clifford_report_names_a_flipped_sign(monkeypatch):
    """One entry of E_(1,0) with its sign flipped breaks exactly the
    relations that involve E_(1,0), and the report names each of them."""
    build = ops.build_E

    def broken_E(i, j):
        op = build(i, j)
        if (i, j) != (1, 0):
            return op
        cols = columns(op)
        cols[0] = {r: -v for r, v in cols[0].items()}
        return ops.Operator(cols)

    monkeypatch.setattr(ops, "build_E", broken_E)
    rep = ops.clifford_relations_report()
    x = (1, 0)
    others = [(i, j) for i in (1, 2, 3) for j in (0, 1, 2) if (i, j) != x]
    expect = {f"E{x}I{x} + I{x}E{x} != Id", "plain adjoint does not exchange E and I"}
    for y in others:
        expect |= {f"E{x}E{y} + E{y}E{x} != 0", f"E{y}E{x} + E{x}E{y} != 0"}
        expect.add(f"E{x}I{y} + I{y}E{x} != 0")
    assert not rep["pass"]
    assert set(rep["failures"]) == expect


def test_serre_check_catches_a_perturbed_generator(monkeypatch):
    generators = ops.serre_generators

    def perturbed():
        g = dict(generators())
        cols = columns(g["e1"])
        c = min(cols)
        r = min(cols[c])
        cols[c][r] = -cols[c][r]
        g["e1"] = ops.Operator(cols)
        return g

    monkeypatch.setattr(ops, "serre_generators", perturbed)
    rep = ops.serre_check()
    assert not rep["pass"]
    assert "[e1,f1] != h1" in rep["failures"]
