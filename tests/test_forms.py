"""Exterior algebra: wedge, contraction, star, pairings, text syntax."""

import random
import re
from itertools import combinations

import numpy as np
import pytest

from wsdalg.scalars import GaussRational, I, ONE, ZERO
from wsdalg import forms
from wsdalg.forms import (
    DIM,
    FULL_MASK,
    Form,
    contract,
    format_form,
    hermitean_inner,
    hodge_star,
    monomial,
    multidegree,
    parse_form,
    poincare_pair,
    pos,
    wedge,
)


def _oracle_wedge_masks(ma: int, mb: int):
    """Independent sign oracle: concatenate factor lists and count the
    inversions of the merged sequence."""
    if ma & mb:
        return 0, 0
    seq = [p for p in range(9) if ma >> p & 1] + [p for p in range(9) if mb >> p & 1]
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return (-1) ** inv, ma | mb


def test_wedge_examples():
    v10, v20 = monomial(1 << pos(1, 0)), monomial(1 << pos(2, 0))
    assert wedge(v20, v10) == -wedge(v10, v20)
    assert wedge(v10, v10).is_zero()


def test_omega1_cube():
    w1 = forms.omega1()
    cube = wedge(wedge(w1, w1), w1)
    # oracle: expand the cube over the three disjoint two-form terms; the
    # cross terms triple-count one permutation each
    masks = [(1 << pos(i, 0)) | (1 << pos(i, 1)) for i in (1, 2, 3)]
    acc = {}
    for a in masks:
        for b in masks:
            for c in masks:
                s1, m1 = _oracle_wedge_masks(a, b)
                if not s1:
                    continue
                s2, m2 = _oracle_wedge_masks(m1, c)
                if not s2:
                    continue
                acc[m2] = acc.get(m2, 0) + s1 * s2
    expected = Form({m: GaussRational(v) for m, v in acc.items() if v})
    assert cube == expected
    assert len(cube.coeffs) == 1
    ((mask, coeff),) = cube.coeffs.items()
    assert abs(coeff.re) == 6 and coeff.im == 0


def test_wedge_sign_matches_oracle_exhaustive():
    for ma in range(DIM):
        for mb in (0, 1, 5, 73, 511, ma ^ FULL_MASK):
            sgn, m = _oracle_wedge_masks(ma, mb)
            got = wedge(monomial(ma), monomial(mb))
            if sgn == 0:
                assert got.is_zero()
            else:
                assert got == monomial(m, sgn)


def test_wedge_graded_commutativity_exhaustive():
    low = [m for m in range(DIM) if m.bit_count() <= 3]
    # every pair of monomials of degree <= 3, plus a stride through the rest
    for ma in low:
        da = ma.bit_count()
        for mb in low:
            db = mb.bit_count()
            lhs = wedge(monomial(ma), monomial(mb))
            rhs = wedge(monomial(mb), monomial(ma))
            assert lhs == rhs.scale(-1 if (da * db) % 2 else 1)
    for ma in range(DIM):
        da = ma.bit_count()
        for mb in range(0, DIM, 7):
            db = mb.bit_count()
            lhs = wedge(monomial(ma), monomial(mb))
            rhs = wedge(monomial(mb), monomial(ma))
            assert lhs == rhs.scale(-1 if (da * db) % 2 else 1)


def test_wedge_associativity():
    # exhaustive on triples of degree <= 1, random across all degrees
    low = [m for m in range(DIM) if m.bit_count() <= 1]
    for a in low:
        for b in low:
            for c in low:
                fa, fb, fc = monomial(a), monomial(b), monomial(c)
                assert wedge(wedge(fa, fb), fc) == wedge(fa, wedge(fb, fc))
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (monomial(rng.randrange(DIM), rng.choice([1, -1, 2])) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_contraction_examples():
    v10, v20 = 1 << pos(1, 0), 1 << pos(2, 0)
    both = monomial(v10 | v20)
    assert contract(pos(1, 0), both) == monomial(v20)
    assert contract(pos(1, 0), monomial(v20)).is_zero()
    assert contract(pos(2, 0), both) == monomial(v10, -1)


def test_contraction_antiderivation():
    rng = random.Random(13)
    for _ in range(200):
        p = rng.randrange(9)
        a = monomial(rng.randrange(DIM))
        vp = monomial(1 << p)
        lhs = contract(p, wedge(vp, a)) + wedge(vp, contract(p, a))
        assert lhs == a


def _times(rows, dense: np.ndarray) -> np.ndarray:
    """M @ dense for the matrix M whose row i is rows[i], a dict {column:
    GaussRational with int parts}, one row of dense per entry: exact, as
    every sum it forms stays far below 2^53."""
    out = np.zeros((len(rows), dense.shape[1]), dtype=complex)
    for i, row in enumerate(rows):
        for m, x in row.items():
            assert type(x.re) is int and type(x.im) is int
            out[i] += complex(x.re, x.im) * dense[m]
    return out


def test_contraction_adjoint_to_wedge_exhaustive():
    # (v_p ^ a, b) = (a, contract(p, b)) over all monomial pairs, per position,
    # as matrices: with G the Gram matrix of the monomials under
    # hermitean_inner, W and K the coefficient matrices of wedge(v_p, .) and
    # contract(p, .) on them, the sides are (W G)[a, b] and (G K^H)[a, b]
    basis = [monomial(m) for m in range(DIM)]
    gram = _times([{n: x for n, b in enumerate(basis) if (x := hermitean_inner(a, b))}
                   for a in basis], np.eye(DIM))
    for p in range(9):
        vp = monomial(1 << p)
        lhs = _times([wedge(vp, a).coeffs for a in basis], gram)
        rhs = _times([contract(p, b).coeffs for b in basis], gram.conj().T).conj().T
        assert np.array_equal(lhs, rhs)


def test_hodge_star():
    assert hodge_star(forms.one()) == forms.volume()
    assert hodge_star(forms.volume()) == forms.one()
    for m in range(DIM):
        assert hodge_star(hodge_star(monomial(m))) == monomial(m)


def test_hodge_star_isometry_exhaustive():
    stars = [hodge_star(monomial(m)) for m in range(DIM)]
    for ma in range(DIM):
        for mb in range(DIM):
            assert hermitean_inner(stars[ma], stars[mb]) == hermitean_inner(
                monomial(ma), monomial(mb)
            )


def test_hermitean_inner():
    v10 = monomial(1 << pos(1, 0))
    v20 = monomial(1 << pos(2, 0))
    assert hermitean_inner(v10, v10) == ONE
    assert hermitean_inner(v10, v20) == ZERO
    w10 = forms.w_form(1, 0)
    assert hermitean_inner(w10, w10) == GaussRational(2)
    # conjugate-linear in the second slot
    assert hermitean_inner(v10, v10.scale(I)) == -I


def test_poincare_pair():
    assert poincare_pair(forms.one(), forms.volume()) == ONE
    v10 = monomial(1 << pos(1, 0))
    assert poincare_pair(v10, v10) == ZERO
    a = wedge(v10, monomial(1 << pos(1, 1)))
    assert poincare_pair(a, hodge_star(a)) == hermitean_inner(a, a)
    assert poincare_pair(a, hodge_star(a)).re > 0


def test_poincare_equals_inner_with_star():
    rng = random.Random(3)
    for _ in range(300):
        a = monomial(rng.randrange(DIM), GaussRational(rng.randint(-3, 3), rng.randint(-3, 3)))
        b = monomial(rng.randrange(DIM), GaussRational(rng.randint(-3, 3), 1))
        assert poincare_pair(a, b) == hermitean_inner(a, hodge_star(b))


def test_poincare_degree_support():
    for ma in range(0, DIM, 5):
        for mb in range(0, DIM, 11):
            if ma.bit_count() + mb.bit_count() != 9:
                assert poincare_pair(monomial(ma), monomial(mb)) == ZERO


def test_poincare_even_odd_block_nondegenerate():
    """The 256x256 pairing between even and odd monomials has full rank."""
    even = [m for m in range(DIM) if m.bit_count() % 2 == 0]
    odd = [m for m in range(DIM) if m.bit_count() % 2 == 1]
    from wsdalg.linalg import SparseEchelon

    ech = SparseEchelon()
    rank = 0
    for me in even:
        row = {}
        for j, mo in enumerate(odd):
            v = poincare_pair(monomial(me), monomial(mo))
            if v:
                row[j] = v
        if ech.insert(row) is not None:
            rank += 1
    assert rank == 256


def test_poincare_super_hermitean():
    rng = random.Random(99)
    for _ in range(200):
        ma, mb = rng.randrange(DIM), rng.randrange(DIM)
        a = monomial(ma, GaussRational(rng.randint(-3, 3), rng.randint(-3, 3)))
        b = monomial(mb, GaussRational(rng.randint(-3, 3), rng.randint(-3, 3)))
        lhs = poincare_pair(a, b)
        rhs = poincare_pair(b, a).conjugate()
        sign = -1 if (ma.bit_count() * mb.bit_count()) % 2 else 1
        assert lhs == rhs * GaussRational(sign)


def test_multidegree():
    v10v21 = wedge(monomial(1 << pos(1, 0)), monomial(1 << pos(2, 1)))
    assert multidegree(v10v21) == (1, 1, 0)
    assert multidegree(forms.omegaD()) == (0, 1, 1)
    assert multidegree(forms.omega1() + forms.omegaD()) is None


def test_text_round_trip():
    rng = random.Random(21)
    for _ in range(50):
        coeffs = {}
        for _ in range(rng.randint(0, 4)):
            coeffs[rng.randrange(DIM)] = GaussRational(rng.randint(-5, 5), rng.randint(-5, 5))
        f = Form(coeffs)
        assert parse_form(format_form(f)) == f


def test_text_examples():
    f = parse_form("v10^v21")
    assert f == wedge(monomial(1 << pos(1, 0)), monomial(1 << pos(2, 1)))
    g = parse_form("(1/2+3/4*i)*v10")
    assert g == monomial(1 << pos(1, 0)).scale(GaussRational("1/2", "3/4"))
    assert parse_form("0").is_zero()
    # factor order is normalized through the wedge sign
    assert parse_form("v21^v10") == -parse_form("v10^v21")


def test_text_accepts_every_scalar_form():
    """The README example, and each scalar form of the grammar: a rat,
    a bracketed rat, and (rat +/- rat*i) with a signed second rat."""
    v10v21 = wedge(monomial(1 << pos(1, 0)), monomial(1 << pos(2, 1)))
    want = v10v21.scale(GaussRational("1/2", "3/4")) + monomial(1 << pos(3, 0))
    assert parse_form("(1/2+3/4*i)*v10^v21 + v30") == want
    assert parse_form("(1/2)*v10") == monomial(1 << pos(1, 0)).scale(GaussRational("1/2"))
    assert parse_form("(-3/6)") == monomial(0, GaussRational("-1/2"))
    assert parse_form("(1+-2*i)") == monomial(0, GaussRational(1, -2))


@pytest.mark.parametrize("text,scalar", [
    ("1/0", "1/0"),
    ("(1/0+1*i)", "(1/0+1*i)"),
    ("(1+2/00*i)*v10", "(1+2/00*i)"),
    ("1e5", "1e5"),
    ("1.5", "1.5"),
    ("1.5*v10", "1.5"),
    ("(1+i)*v10", "(1+i)"),
    ("1/-2", "1/-2"),
    ("--1", "--1"),
    ("1_000", "1_000"),
])
def test_text_rejects_scalars_outside_the_grammar(text, scalar):
    """rat := ['-'] digits ['/' digits], with a nonzero denominator: any
    other scalar raises ValueError naming it."""
    with pytest.raises(ValueError, match=f"bad scalar '{re.escape(scalar)}'"):
        parse_form(text)


@pytest.mark.parametrize("text", ["v\uff110", "v1\u0660"])
def test_text_rejects_factors_outside_the_grammar(text):
    """vfactor := 'v' i j takes ASCII digits only, not other Unicode ones."""
    with pytest.raises(ValueError, match="bad factor"):
        parse_form(text)
