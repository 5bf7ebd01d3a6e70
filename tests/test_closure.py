"""Closure engine: small exact cases, oracles, and engine cross-checks.

The full-size runs (criterion-level, tens of minutes) live in the
acceptance module; everything here completes in seconds.
"""

import dataclasses
import gc
import hashlib
import itertools
import os
import re
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wsdalg.scalars import (DEFAULT_PRIMES, GaussRational, I, PrimeCollision, balanced_residue,
                            root_of_minus_one)
from wsdalg.forms import Form
from wsdalg import operators as ops
from wsdalg import closure as cl
from wsdalg import scalars
from wsdalg import suites
from opcolumns import rop_bracket
from wsdalg.closure import (
    EVEN_GENERATOR_NAMES,
    FlatLayout,
    RestrictedAlgebra,
    default_algebra,
    lie_closure,
    su_pair_dimension,
)


@pytest.fixture(scope="module")
def ralg():
    return default_algebra()


def _operator_class(layout, rop):
    """Class of rop's support on the layout by ``support_class`` (None when
    it vanishes there); raises ValueError for an inhomogeneous operator."""
    return layout.support_class(layout.entries(rop)[0])


def _block_range(layout, k):
    """Block k's flat coordinates, from its offset: 2 s^2 of them on a real
    layout, s^2 on a complexified one."""
    return layout.offsets[k], layout.offsets[k] + cl.BLOCK_SIZES[k] ** 2 * (2 - layout.complexified)


def _grid(layout, k):
    """Block k's flat coordinates as an array [m, r, c]: the coordinate of
    part m (0 real, 1 imaginary; complex mode has part 0 only) of entry
    (r, c)."""
    s = cl.BLOCK_SIZES[k]
    return np.arange(*_block_range(layout, k)).reshape(-1, s, s)


def _adjoint_entries(layout, g, p, root_i):
    """The nonzero entries of ad_g = [g, .] on the layout, as (source
    coordinate, target coordinate, coefficient) arrays, from
    ``_generator_entries``."""
    return cl._generator_entries(layout, [g], [cl._project(*layout.entries(g), p, root_i)],
                                 range(len(layout.class_width)))[:3]


def _all_adjoint_blocks(layout, gens, p, root_i):
    """``_adjoint_blocks`` of the generators' ``_project``-ed entries from
    every class of the layout, as the modular engine builds them."""
    flat = [cl._project(*layout.entries(g), p, root_i) for g in gens]
    return cl._adjoint_blocks(layout, gens, flat, range(len(layout.class_width)))


def test_su_pair_dimension_oracle():
    # brute-force constraint enumeration, then the closed form it certifies
    assert su_pair_dimension(1) == 3
    assert su_pair_dimension(2) == 15
    assert su_pair_dimension(3) == 35
    assert su_pair_dimension(4) == 63
    for n in (1, 2, 3, 4):
        assert su_pair_dimension(n) == 4 * n * n - 1


@pytest.mark.parametrize("n", [0, -1, -2])
def test_su_pair_dimension_rejects_n_below_one(n):
    """C^{n|n} needs n >= 1; n = -1 used to leave every constraint loop
    empty and return 2 (2n)^2 = 8."""
    with pytest.raises(ValueError, match=rf"^n = {n}: "):
        su_pair_dimension(n)


def test_restricted_generator_shapes(ralg):
    for name in ops.GENERATOR_NAMES:
        rop = ralg.generator(name)
        assert set(rop.blocks) == {0, 1, 2, 3}
    assert ralg.generator("iL0").parity == 0
    assert ralg.generator("iLambda2").parity == 0
    assert ralg.generator("iV0").parity == 1
    assert ralg.generator("A0").parity == 1


def test_restricted_generators_reproduce_images(ralg):
    """Each stored block is the exact matrix of its generator on the labeled
    basis: column c recombines to g(v_c), and no stored entry is zero."""
    for name, g in ralg.operators().items():
        rop = ralg.generator(name)
        for k, basis in enumerate(ralg.bases):
            vecs, blk = basis.vectors(), rop.block(k)
            assert all(blk.values())
            cols: dict = {}
            for (r, c), v in blk.items():
                cols.setdefault(c, []).append(vecs[r].scale(v))
            for c, v in enumerate(vecs):
                assert sum(cols.get(c, []), Form()) == g.apply(v)


def test_restricted_generators_digest(ralg):
    """The restricted generators' entries, pinned as one digest of the lines
    name|block|row|col|re|im in sorted order."""
    lines = []
    for name in ops.GENERATOR_NAMES:
        rop = ralg.generator(name)
        for k in sorted(rop.blocks):
            for (r, c), v in sorted(rop.block(k).items()):
                lines.append(f"{name}|{k}|{r}|{c}|{v.re}|{v.im}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "9c1fc5c00851cd2f"


def test_smallest_block_matrices(ralg):
    """The three wedge generators act on the odd half of the smallest block
    by a single unit entry feeding the top vector into basis vector j+1."""
    for j, name in enumerate(("iL0", "iL1", "iL2")):
        blk = ralg.generator(name).block(3)
        odd_part = {(r - 4, c - 4): v for (r, c), v in blk.items() if r >= 4 and c >= 4}
        assert odd_part == {(j + 1, 0): GaussRational(1)}
        assert not any((r < 4) != (c < 4) for (r, c) in blk)


def test_va_vanish_on_smallest_block(ralg):
    for name in ("iV0", "iV1", "iV2", "A0", "A1", "A2"):
        assert not ralg.generator(name).block(3)


def test_k01_block_support(ralg):
    k01 = ralg.restrict(ops.build_K(0, 1))
    assert k01.block(0)
    assert not k01.block(2)
    assert not k01.block(3)


def test_flatten_zero(ralg):
    layout = FlatLayout()
    zero = ralg.restrict(ops.zero_operator())
    assert layout.flatten_exact(zero) == {}
    vec = layout.flatten_modular(zero, DEFAULT_PRIMES[0], 1)
    assert not np.any(vec)


def _reference_coordinates(layout, rop):
    """rop's nonzero parts on the layout, cell by cell: block k starts after
    the blocks before it, each s*s entries wide in complex mode and 2*s*s
    in real mode (real parts row-major, then imaginary parts)."""
    out, start = {}, 0
    for k in layout.blocks:
        s = cl.BLOCK_SIZES[k]
        blk = rop.block(k)
        for r in range(s):
            for c in range(s):
                v = blk.get((r, c), GaussRational(0))
                if layout.complexified:
                    if v:
                        out[start + r * s + c] = v
                else:
                    if v.re:
                        out[start + r * s + c] = v.re
                    if v.im:
                        out[start + s * s + r * s + c] = v.im
        start += s * s * (1 if layout.complexified else 2)
    assert start == layout.length
    return out


def test_flatten_matches_cell_by_cell_reference(ralg):
    """flatten_exact and flatten_modular put every nonzero part of the
    twelve restricted generators and their daggers where a cell-by-cell
    walk of the blocks puts it, with its value or its balanced residue,
    and write nothing else; on the full real and the full complex layout."""
    from wsdalg.scalars import balanced_residue, root_of_minus_one

    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    rops = ralg.generators() + ralg.daggers((0, 1, 2, 3))
    for complexified in (False, True):
        layout = FlatLayout(complexified=complexified)
        seen_imaginary = False
        for rop in rops:
            want = _reference_coordinates(layout, rop)
            assert want
            vec = layout.flatten_modular(rop, p, root)
            expected = np.zeros(layout.length)
            for f, v in want.items():
                expected[f] = balanced_residue(v, p, root)
            assert np.array_equal(vec, expected)
            coords = layout.entries(rop)[0]
            for f, k, r, c, m in zip(coords.tolist(), *(a.tolist() for a in layout.places(coords))):
                assert _grid(layout, k)[m, r, c] == f
                seen_imaginary |= m == 1
            if complexified:
                with pytest.raises(ValueError):
                    layout.flatten_exact(rop)
            else:
                assert layout.flatten_exact(rop) == want
        assert seen_imaginary is not complexified


def test_layout_boundaries():
    layout = FlatLayout()
    assert layout.length == 16896
    assert _block_range(layout, 0) == (0, 3200)
    assert _block_range(layout, 1) == (3200, 13568)
    assert _block_range(layout, 2) == (13568, 16768)
    assert _block_range(layout, 3) == (16768, 16896)
    cx = FlatLayout(complexified=True)
    assert cx.length == 8448


def test_hw3_closure_exact(ralg):
    st = lie_closure(blocks=(3,), field="exact", ralg=ralg)
    assert st.dim == 15
    assert st.block_dims() == {3: 15}
    # the split form has no odd part on this block
    assert st.parity_dims() == (15, 0)


def test_hw3_closure_modular_matches_exact(ralg):
    for p in DEFAULT_PRIMES:
        st = lie_closure(blocks=(3,), field="modular", prime=p, ralg=ralg)
        assert st.dim == 15


def test_even_subalgebra_exact(ralg):
    st = lie_closure(generators=EVEN_GENERATOR_NAMES, field="exact", ralg=ralg)
    assert st.dim == 15
    assert st.parity_dims() == (15, 0)
    # the echelon holds exact rationals only, integral ones as ints
    stored = [v for row in st._engine.rows.values() for v in row.values()]
    assert all(type(v) in (int, Fraction) for v in stored)
    assert not any(type(v) is Fraction and v.denominator == 1 for v in stored)


def test_even_subalgebra_modular_matches_exact(ralg):
    st = lie_closure(generators=EVEN_GENERATOR_NAMES, field="modular", ralg=ralg)
    assert st.dim == 15


def _rows_digest(state) -> str:
    """Digest of an exact state's echelon rows, pivot by pivot: a fully
    reduced echelon basis is unique for its span, so it does not depend on
    how the closure reached it."""
    rows = state._engine.rows
    text = repr([(p, sorted((f, str(v)) for f, v in rows[p].items())) for p in sorted(rows)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("generators,blocks,pivot_hash,rows_digest", [
    (ops.GENERATOR_NAMES, (3,), "c8ed13bb169e713f", "1d167eafb0a91ae7"),
    (EVEN_GENERATOR_NAMES, (0, 1, 2, 3), "fd2dcc1c795c5fbe", "fc957830ea875bef"),
], ids=["hw3", "even"])
def test_exact_echelon_rows_pinned(ralg, generators, blocks, pivot_hash, rows_digest):
    """The exact hw3 and even closures keep their pivots and their echelon
    rows entry for entry, so a sign slip in the bracket that still yields
    dimension 15 shows."""
    st = lie_closure(generators, field="exact", blocks=blocks, ralg=ralg)
    assert (st.pivot_hash(), _rows_digest(st)) == (pivot_hash, rows_digest)


@pytest.mark.parametrize("generators,blocks", [
    (ops.GENERATOR_NAMES, (3,)),
    (EVEN_GENERATOR_NAMES, (0, 1, 2, 3)),
    (ops.GENERATOR_NAMES, (0,)),
], ids=["hw3", "even", "hw0"])
def test_exact_closure_stores_int_rows(ralg, generators, blocks):
    """The exact engine keeps its echelon on primitive int rows, each
    positive at its pivot, and its normalised view is 1 there."""
    st = lie_closure(generators, field="exact", blocks=blocks, ralg=ralg)
    basis = st._engine.basis
    assert list(basis) == st.pivots == list(st._engine.rows)
    for p, row in basis.items():
        assert all(type(v) is int for v in row.values())
        assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
        assert st._engine.rows[p][p] == 1


def test_exact_membership_scales_fraction_input(ralg):
    """``contains_exact`` scales a query with Fraction parts to an int row
    first: on the even closure, whose generators carry denominators on
    blocks 1 and 2, a generator and its multiples by Fractions are members,
    and the same generator with one part moved by 1/2 is not, nor is an
    odd generator."""
    st = lie_closure(EVEN_GENERATOR_NAMES, field="exact", ralg=ralg)
    g = ralg.generator("iL0")
    assert any(type(v.re) is Fraction or type(v.im) is Fraction for v in g.block(1).values())

    def scaled(s):
        return cl.RestrictedOperator({k: {rc: v * s for rc, v in b.items()}
                                      for k, b in g.blocks.items()}, g.parity)

    assert all(st.contains_exact(scaled(s)) for s in (1, Fraction(1, 3), Fraction(-7, 6)))
    rc, v = next(iter(g.block(1).items()))
    moved = cl.RestrictedOperator({**g.blocks, 1: {**g.block(1), rc: v + Fraction(1, 2)}}, g.parity)
    assert not st.contains_exact(moved)
    assert not st.contains_exact(ralg.generator("iV0"))


def test_exact_hw0_closure_matches_modular(ralg):
    """The exact hw0 closure has the pivots of the modular one (dimension
    1599), which ties the two engines together beyond dimension 15."""
    st = lie_closure(blocks=(0,), field="exact", ralg=ralg)
    assert st.dim == 1599 and st.parity_dims() == (799, 800)
    assert st.pivot_hash() == HW0_HASHES["modular"] == "9db1b3b25abc0c18"


def test_exact_closure_builds_no_gauss_rational(ralg, monkeypatch):
    """On restricted generators, the exact closure runs on flat int and
    Fraction rows: it constructs no GaussRational, neither through the
    constructor nor through the canonical-form fast path."""
    from wsdalg import scalars

    gens = ralg.generators()
    FlatLayout((3,))  # the class tables read the bases once
    made = []
    new, init = scalars._new, GaussRational.__init__
    monkeypatch.setattr(scalars, "_new", lambda cls: made.append(cls) or new(cls))
    monkeypatch.setattr(GaussRational, "__init__",
                        lambda self, *a: made.append(type(self)) or init(self, *a))
    st = lie_closure(gens, field="exact", blocks=(3,), ralg=ralg)
    assert st.dim == 15 and st.brackets == 180
    assert made == []
    assert GaussRational(1) * I == I and made  # the counters do see constructions


def test_exact_even_closure_builds_tables_for_its_frontier_classes(ralg, monkeypatch):
    """The exact engine builds ad_g tables level by level, only for the
    classes its frontier reaches, each once: the even closure reaches 13
    of the full layout's 319 classes (those of its pivots), and builds no
    other table."""
    built = []
    adjoint = cl._adjoint_blocks

    def record(layout, gens, flat, sources):
        built.extend(sources)
        return adjoint(layout, gens, flat, sources)

    monkeypatch.setattr(cl, "_adjoint_blocks", record)
    st = lie_closure(EVEN_GENERATOR_NAMES, field="exact", ralg=ralg)
    assert st.pivot_hash() == "fd2dcc1c795c5fbe"
    assert len(built) == len(set(built)) == 13
    assert set(built) == set(st.layout.coord_class[st.pivots].tolist())


def _scaled(rop, s):
    blocks = {k: {rc: v * s for rc, v in b.items()} for k, b in rop.blocks.items()}
    return cl.RestrictedOperator(blocks, rop.parity)


def test_exact_closure_refuses_an_inexact_bracket(ralg):
    """Two hw3 generators scaled by 2^30 bracket to sums of 2^60, past the
    integers float64 holds: the exact closure raises InexactBracket
    rather than return a state.  Scaled by 2^10, every sum stays below
    2^53 and the closure has the pivots of the unscaled generators."""
    gens = [ralg.generator("iL0"), ralg.generator("iLambda0")]
    with pytest.raises(cl.InexactBracket, match="2\\^53"):
        lie_closure([_scaled(g, 2**30) for g in gens], field="exact", blocks=(3,), ralg=ralg)
    st = lie_closure([_scaled(g, 2**10) for g in gens], field="exact", blocks=(3,), ralg=ralg)
    assert st.pivots == lie_closure(gens, field="exact", blocks=(3,), ralg=ralg).pivots


@pytest.mark.parametrize("blocks", [(0,), (0, 1, 2, 3)], ids=["hw0", "full"])
@pytest.mark.parametrize("complexified", [False, True], ids=["real", "complex"])
def test_adjoint_blocks_of_some_sources_match_the_full_build(ralg, blocks, complexified):
    """``_adjoint_blocks`` from some source classes builds, for each of
    them, the channels, table and outputs the build from every class
    does, and nothing for any other class."""
    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    layout = FlatLayout(blocks, complexified=complexified)
    gens = ralg.generators()
    flat = [cl._project(*layout.entries(g), p, root) for g in gens]
    full = cl._adjoint_blocks(layout, gens, flat, range(len(layout.class_width)))
    rng = np.random.default_rng(len(blocks) + complexified)
    for sources in ([int(rng.integers(len(layout.class_width)))],
                    rng.choice(len(layout.class_width), 40, replace=False).tolist()):
        some = cl._adjoint_blocks(layout, gens, flat, sources)
        assert set(some.tables) == set(sources) & set(full.tables)
        for d in some.tables:
            for got, want in zip(some.tables[d], full.tables[d]):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert some.outputs[d] == full.outputs[d]
        mine = np.isin(full.source, sources)
        for name in ("source", "generator", "target"):
            assert np.array_equal(getattr(some, name), getattr(full, name)[mine])


@pytest.mark.parametrize("field", ["exact", "modular"])
def test_member_has_no_entry_outside_the_blocks(ralg, field):
    """A hw3 state answers for operators on all blocks: the identity on
    block 0, which the layout lacks, is no member, and neither is a member
    with that entry added, while block-3-only queries answer as before."""
    st = lie_closure(blocks=(3,), field=field, ralg=ralg)
    contains = st.contains_exact if field == "exact" else st.contains_modular
    one = GaussRational(1)
    rop = ralg.generator("iL1")
    member = cl.RestrictedOperator({3: rop.block(3)}, rop.parity)
    ident = {(r, r): one for r in range(8)}
    assert contains(member) and not contains(cl.RestrictedOperator({3: ident}, 0))
    assert not contains(cl.RestrictedOperator({0: {(0, 0): one}}, 0))
    assert not contains(cl.RestrictedOperator({0: {(0, 0): one}, 3: rop.block(3)}, rop.parity))
    # an empty block, or explicit zeros, outside the layout change nothing
    assert contains(cl.RestrictedOperator({0: {}, 3: rop.block(3)}, rop.parity))
    assert contains(cl.RestrictedOperator({1: {(0, 0): GaussRational(0)}, 3: rop.block(3)},
                                          rop.parity))
    assert contains(rop) is False  # iL1 itself acts on blocks 0-2 too


def test_closure_deterministic(ralg):
    a = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    b = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    assert a.pivots == b.pivots
    assert a.parities == b.parities
    assert a.pivot_hash() == b.pivot_hash()


def test_exact_contains(ralg):
    st = lie_closure(blocks=(3,), field="exact", ralg=ralg)
    rop = ralg.generator("iL0")
    sub = cl.RestrictedOperator({3: rop.block(3)}, rop.parity)
    assert st.contains_exact(sub)
    # the identity on the block is not in a special-linear algebra
    ident = {(r, r): GaussRational(1) for r in range(8)}
    assert not st.contains_exact(cl.RestrictedOperator({3: ident}, 0))


def test_verify_structure_exact(ralg):
    """On an exact state, verify_structure reads no supertrace residues and
    tests each restricted dagger by exact membership."""
    st = lie_closure(blocks=(3,), field="exact", ralg=ralg)
    rep = cl.verify_structure(st, ralg)
    assert rep["pass"] and rep["failures"] == []
    assert rep["supertrace_max_residue"] is None
    assert rep["dagger_membership"] == dict.fromkeys(ops.GENERATOR_NAMES, True)
    assert rep["dim"] == 15


def test_modular_contains(ralg):
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    rop = ralg.generator("iL1")
    sub = cl.RestrictedOperator({3: rop.block(3)}, rop.parity)
    assert st.contains_modular(sub)
    ident = {(r, r): GaussRational(1) for r in range(8)}
    assert not st.contains_modular(cl.RestrictedOperator({3: ident}, 0))


def test_generator_supertraces_vanish(ralg):
    from wsdalg.reptheory import HW_HALF_DIMS

    for name in ops.GENERATOR_NAMES:
        rop = ralg.generator(name)
        st = GaussRational(0)
        for k in range(4):
            h = HW_HALF_DIMS[k]
            for (r, c), v in rop.block(k).items():
                if r == c:
                    st = st + (v if r < h else -v)
        assert not st, name


def test_dagger_of_generators_restricts(ralg):
    """The twisted adjoint of each generator preserves every block (it
    must, for the span membership checks to be meaningful)."""
    for name in ops.GENERATOR_NAMES:
        d = ops.dagger(ops.standard_generators()[name])
        rop = ralg.restrict(d)  # raises on escape
        assert set(rop.blocks) == {0, 1, 2, 3}


def test_state_save_load_roundtrip(tmp_path, ralg):
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    path = tmp_path / "state.npz"
    st.save(str(path))
    loaded = cl.load_state(str(path))
    assert loaded.dim == st.dim
    assert loaded.pivots == st.pivots
    assert loaded.parities == st.parities
    rop = ralg.generator("iL2")
    sub = cl.RestrictedOperator({3: rop.block(3)}, rop.parity)
    assert loaded.contains_modular(sub)
    ident = {(r, r): GaussRational(1) for r in range(8)}
    assert not loaded.contains_modular(cl.RestrictedOperator({3: ident}, 0))


def test_bracket_engines_agree(ralg):
    """Every channel of the modular ad_g must agree with the exact block
    bracket after projection, coordinate for coordinate, in the real and in
    the complexified layout, on hw0 and on all four blocks: each of the
    twelve generators bracketed with every restricted generator and with i
    times it, so that imaginary parts meet imaginary parts.  Each class's
    entry table gives every output column of every channel one contiguous
    segment, and holds source rows of the class, no repeated (row, column)
    pair, and balanced residues that are zero only in the fillers of empty
    columns."""
    from wsdalg.scalars import root_of_minus_one

    gens = ralg.generators()
    xs = gens + [cl.RestrictedOperator({k: {rc: I * v for rc, v in blk.items()}
                                        for k, blk in x.blocks.items()}, x.parity)
                 for x in gens]
    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    for blocks, complexified in itertools.product([(0,), (0, 1, 2, 3)], (False, True)):
        layout = FlatLayout(blocks, complexified=complexified)
        ads = _all_adjoint_blocks(layout, gens, p, root)
        width = layout.class_width
        assert set(ads.tables) == set(np.flatnonzero(np.diff(ads.first)).tolist())
        for d, (rows, coef, starts) in ads.tables.items():
            a, b = ads.first[d], ads.first[d + 1]
            assert np.array_equal(ads.hi[a:b] - ads.lo[a:b], width[ads.target[a:b]])
            assert ads.lo[a] == 0 and np.array_equal(ads.lo[a + 1 : b], ads.hi[a : b - 1])
            # one non-empty segment per output column, tiling the table
            assert len(starts) == ads.hi[b - 1] and starts[0] == 0
            seg = np.diff(np.append(starts, len(rows)))
            assert np.all(seg > 0)
            column = np.repeat(np.arange(len(starts)), seg)
            assert np.all((rows >= 0) & (rows < width[d]))
            assert len(np.unique(column * width[d] + rows)) == len(rows)
            assert np.abs(coef).max() <= (p - 1) // 2
            filler = coef == 0
            assert np.all(seg[column[filler]] == 1) and not rows[filler].any()
        checked = 0
        for x in xs:
            d = _operator_class(layout, x)
            if d is None:
                continue
            X = layout.flatten_modular(x, p, root)[layout.class_indices[d]].reshape(1, -1)
            R = None
            if d in ads.tables:  # the exact sums, balanced as the candidate stacks are
                R = cl._bracket_rows(X, ads.tables[d])[0]
                R -= np.rint(R / p) * p
            channel = {int(ads.generator[c]): c for c in range(ads.first[d], ads.first[d + 1])}
            for i, g in enumerate(gens):
                want = layout.flatten_modular(rop_bracket(g, x, blocks), p, root)
                got = np.zeros(layout.length)
                if i in channel:
                    c = channel[i]
                    got[layout.class_indices[ads.target[c]]] = R[ads.lo[c] : ads.hi[c]]
                    checked += bool(want.any())
                assert np.array_equal(got, want)
        assert checked > 12


@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_bracket_rows_match_dense_reference(ralg, p):
    """``_bracket_rows`` on each class's entry table equals, mod p, the
    product with a dense ad_g matrix built here from ``_generator_entries``
    with ``np.add.at`` and balanced mod p, on seeded stacks of balanced
    residues: hw0 real and complexified, and blocks (2, 3).  Besides the
    twelve generators, a diagonal one meets every x from both sides, so
    that (row, column) pairs repeat, and their sums cancel in places."""
    from wsdalg.scalars import root_of_minus_one

    def balanced(a):
        return a - np.rint(a / p) * p

    diagonal = cl.RestrictedOperator({k: {(i, i): GaussRational(i % 5, int(i % 3 == 0))
                                          for i in range(cl.BLOCK_SIZES[k])}
                                      for k in range(4)}, 0)
    gens = ralg.generators() + [diagonal]
    root = root_of_minus_one(p)
    rng = np.random.default_rng(p)
    for blocks, complexified in (((0,), False), ((0,), True), ((2, 3), False)):
        layout = FlatLayout(blocks, complexified=complexified)
        ads = _all_adjoint_blocks(layout, gens, p, root)
        width, local = layout.class_width, layout.coord_local
        channel = {(int(d), int(i)): c for c, (d, i) in enumerate(zip(ads.source, ads.generator))}
        dense = {d: np.zeros((width[d], ads.hi[ads.first[d + 1] - 1])) for d in ads.tables}
        for i, g in enumerate(gens):
            src, tgt, coef = _adjoint_entries(layout, g, p, root)
            assert (g is diagonal) == (len(set(zip(src.tolist(), tgt.tolist()))) < len(src))
            d = layout.coord_class[src]
            for t in np.unique(d).tolist():
                m = d == t
                c = channel[t, i]
                np.add.at(dense[t], (local[src[m]], ads.lo[c] + local[tgt[m]]), coef[m])
        assert sum(np.count_nonzero(balanced(M)) for M in dense.values()) > 1000
        for d, M in dense.items():
            X = balanced(rng.integers(-p, p, size=(int(rng.integers(1, 9)), width[d])).astype(float))
            want = balanced(X @ balanced(M))
            assert np.array_equal(balanced(cl._bracket_rows(X, ads.tables[d])), want)


def test_adjoint_tables_hold_entries_not_dense_positions(ralg):
    """On the full real layout, every array the ad_g channels hold, and
    every array their views belong to, together take a few words per entry
    and column, where a dense ad_g buffer takes 125 MiB."""
    from wsdalg.scalars import root_of_minus_one

    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    layout = FlatLayout()
    gens = ralg.generators()
    ads = _all_adjoint_blocks(layout, gens, p, root)
    entries = sum(_adjoint_entries(layout, g, p, root)[0].size for g in gens)
    columns = sum(len(starts) for _, _, starts in ads.tables.values())
    arrays = [getattr(ads, f.name) for f in dataclasses.fields(ads)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    arrays += [a for table in ads.tables.values() for a in table]
    bases = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
    assert entries > 150_000 and columns > 150_000
    assert sum(b.nbytes for b in bases.values()) <= 24 * (entries + columns)


def test_modular_closure_imports_no_scipy(tmp_path):
    """numpy is the one declared dependency, and a fresh process that
    imports wsdalg and runs a hw0 modular closure loads no scipy module."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    listed = re.search(r"^dependencies = \[(.*?)\]", (root / "pyproject.toml").read_text(),
                       re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r"[\"']([\w.-]+)", listed) == ["numpy"]
    code = ("import sys, wsdalg\n"
            "st = wsdalg.lie_closure(blocks=(0,), field='modular')\n"
            "assert st.dim == 1599, st.dim\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# graded modular engine: multidegree-shift classes
# ---------------------------------------------------------------------------


def _parity_split(layout):
    """Parity of each coordinate from the even/odd halves of the bases:
    odd exactly on the off-diagonal sub-blocks."""
    from wsdalg.reptheory import HW_HALF_DIMS

    par = np.zeros(layout.length, dtype=np.int64)
    for k in layout.blocks:
        s, h = cl.BLOCK_SIZES[k], HW_HALF_DIMS[k]
        rr, cc = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
        odd = ((rr < h) != (cc < h)).ravel()
        lo, hi = _block_range(layout, k)
        par[lo:hi] = np.tile(odd, (hi - lo) // (s * s))
    return par


@pytest.mark.parametrize("blocks,complexified,count,largest,squares", [
    ((0,), False, 271, 80, 72800),
    ((0,), True, 271, 40, 18200),
    ((0, 1, 2, 3), False, 319, 448, 2551552),
])
def test_layout_classes(blocks, complexified, count, largest, squares):
    layout = FlatLayout(blocks, complexified)
    sizes = [len(idx) for idx in layout.class_indices]
    assert (len(sizes), max(sizes), sum(n * n for n in sizes)) == (count, largest, squares)
    # the classes partition the coordinates, each in increasing global order
    assert np.array_equal(np.sort(np.concatenate(layout.class_indices)), np.arange(layout.length))
    for t, idx in enumerate(layout.class_indices):
        assert np.all(np.diff(idx) > 0)
        assert np.all(layout.coord_class[idx] == t)
        assert np.array_equal(layout.coord_local[idx], np.arange(len(idx)))
    # class parity (a + b + c mod 2) is the even/odd parity split
    assert np.array_equal(layout.class_parity[layout.coord_class], _parity_split(layout))


def test_layout_class_tables_shared():
    """Layouts of one shape share one read-only copy of the class tables."""
    a, b = FlatLayout((0,)), FlatLayout((0,))
    assert a.class_indices is b.class_indices and a.coord_class is b.coord_class
    with pytest.raises(ValueError, match="read-only"):
        a.class_indices[0][0] = 1
    for name in ("coord_class", "class_shift_array", "class_parity", "coord_local"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[0] = 1
    assert FlatLayout((0,), complexified=True).class_indices is not a.class_indices


def test_generator_shifts(ralg):
    """iL_j: +1 on the two other blocks; iLambda_j: -1 there; iV_j: +3 on
    block j; A_j: -3 on block j.  Every bracket of two generators lies in
    the class of the summed shifts."""
    layout = FlatLayout()
    want = {}
    for j in range(3):
        others = tuple(0 if i == j else 1 for i in range(3))
        own = tuple(3 if i == j else 0 for i in range(3))
        want[f"iL{j}"] = others
        want[f"iLambda{j}"] = tuple(-x for x in others)
        want[f"iV{j}"] = own
        want[f"A{j}"] = tuple(-x for x in own)
    def shift(t):
        return tuple(layout.class_shift_array[t].tolist())

    got = {n: shift(_operator_class(layout, ralg.generator(n))) for n in want}
    assert got == want
    for a in ops.GENERATOR_NAMES:
        for b in ops.GENERATOR_NAMES:
            br = rop_bracket(ralg.generator(a), ralg.generator(b), layout.blocks)
            t = _operator_class(layout, br)
            if t is not None:
                assert shift(t) == tuple(x + y for x, y in zip(want[a], want[b]))


TABLE_SHAPES = list(itertools.product([(0,), (3,), (0, 1, 2, 3)], (False, True)))
TABLE_IDS = [f"hw{''.join(map(str, b))}-{'complex' if c else 'real'}" for b, c in TABLE_SHAPES]


@pytest.mark.parametrize("generators,blocks", [
    (ops.GENERATOR_NAMES, (3,)),
    (EVEN_GENERATOR_NAMES, (0, 1, 2, 3)),
])
def test_exact_state_read_off_its_echelon(ralg, generators, blocks):
    """An exact state's pivots are its echelon's keys in insertion order.
    Each row's parity, read off its pivot, is that of every coordinate the
    row touches (odd exactly on the off-diagonal sub-blocks), and a state
    built from the layout and the pivots alone reports the same."""
    st = lie_closure(generators, field="exact", blocks=blocks, ralg=ralg)
    assert st.pivots == list(st._engine.rows)
    par = _parity_split(st.layout)
    assert st.parities == par[st.pivots].tolist()
    for p, row in st._engine.rows.items():
        assert set(par[list(row)].tolist()) == {par[p]}
    again = cl.ClosureState("exact", None, st.layout, st.pivots, st.brackets, 0.0)
    assert (again.dim, again.blocks, again.parities) == (st.dim, blocks, st.parities)
    assert again.report() == st.report()


@pytest.mark.parametrize("field", ["exact", "modular", "modular-complex"])
def test_generator_parity_checked_against_support(ralg, field):
    """Every field refuses a generator unless each nonzero part of it lies
    in classes of its declared parity, naming the generator's place: a
    diagonal entry is even, an entry of an off-diagonal sub-block odd."""
    even, odd = {(0, 0): GaussRational(1)}, {(0, 4): GaussRational(1)}
    for gens, where in (
        ([ralg.generator("iL0"), cl.RestrictedOperator({3: even}, 1)], 1),
        ([cl.RestrictedOperator({3: odd}, 0)], 0),
        ([cl.RestrictedOperator({3: {**even, **odd}}, 0)], 0),
    ):
        with pytest.raises(ValueError, match=rf"^generators\[{where}\]: "):
            lie_closure(gens, field=field, blocks=(3,), ralg=ralg)
    st = lie_closure([cl.RestrictedOperator({3: odd}, 1)], field=field, blocks=(3,), ralg=ralg)
    assert st.parity_dims() == (0, 1)


def test_inhomogeneous_generator_rejected(ralg):
    a, b = ralg.generator("iL0"), ralg.generator("iL1")
    mixed = cl.RestrictedOperator({k: {**a.block(k), **b.block(k)} for k in range(4)}, 0)
    for blocks, complexified in TABLE_SHAPES:
        with pytest.raises(ValueError, match="not homogeneous"):
            _operator_class(FlatLayout(blocks, complexified), mixed)


@pytest.mark.parametrize("field", ["exact", "modular", "modular-complex"])
def test_lie_closure_rejects_an_inhomogeneous_generator(ralg, field):
    """Both engines bracket on the shift-class tables, so every field
    refuses a generator that spans two shift classes, naming its place."""
    a, b = ralg.generator("iL0"), ralg.generator("iL1")
    mixed = cl.RestrictedOperator({k: {**a.block(k), **b.block(k)} for k in range(4)}, 0)
    with pytest.raises(ValueError, match=r"^generators\[1\]: not homogeneous"):
        lie_closure([a, mixed], field=field, blocks=(3,), ralg=ralg)


@lru_cache(maxsize=1)
def _basis_multidegrees():
    """Per block, the (a, b, c) multidegree of each labeled basis vector,
    read off the vector's masks."""
    from wsdalg.forms import multidegree_of_mask
    from wsdalg.hwbases import all_bases

    out = []
    for b in all_bases():
        mds = []
        for v in b.vectors():
            (md,) = {multidegree_of_mask(m) for m in v.coeffs}
            mds.append(md)
        out.append(mds)
    return out


@pytest.mark.parametrize("blocks,complexified", TABLE_SHAPES, ids=TABLE_IDS)
def test_class_tables_hold_entry_shifts(blocks, complexified):
    """Each coordinate's class shift is md(basis_r) - md(basis_c), and class
    ids rise in lexicographic shift order (saved states store these ids)."""
    layout = FlatLayout(blocks, complexified)
    mds = _basis_multidegrees()
    shifts = layout.class_shift_array[layout.coord_class].tolist()
    seen = 0
    for k in blocks:
        for m, rows in enumerate(_grid(layout, k).tolist()):
            for r, cols in enumerate(rows):
                for c, f in enumerate(cols):
                    assert shifts[f] == [x - y for x, y in zip(mds[k][r], mds[k][c])], (k, m, r, c)
                    seen += 1
    assert seen == layout.length
    listed = [tuple(t) for t in layout.class_shift_array.tolist()]
    assert listed == sorted(set(listed))


def _operator_class_reference(layout, rop):
    """Class of rop's support by a walk over its nonzero entries."""
    mds = _basis_multidegrees()
    shifts = {tuple(x - y for x, y in zip(mds[k][r], mds[k][c]))
              for k in layout.blocks for (r, c), v in rop.block(k).items() if v}
    if len(shifts) > 1:
        raise ValueError("not homogeneous")
    ids = {tuple(sh): t for t, sh in enumerate(layout.class_shift_array.tolist())}
    return ids[shifts.pop()] if shifts else None


@pytest.fixture(scope="module")
def class_probes(ralg):
    """The generators, i times each, their pairwise brackets, the zero
    operator and a lone odd entry on hw3."""
    gens = ralg.generators()
    times_i = [cl.RestrictedOperator({k: {rc: I * v for rc, v in blk.items()}
                                      for k, blk in g.blocks.items()}, g.parity) for g in gens]
    brackets = [rop_bracket(a, b, (0, 1, 2, 3)) for a in gens for b in gens]
    zero = ralg.restrict(ops.zero_operator())
    lone = cl.RestrictedOperator({3: {(0, 4): GaussRational(1)}}, 1)
    return gens + times_i + brackets + [zero, lone]


@pytest.mark.parametrize("blocks,complexified", TABLE_SHAPES, ids=TABLE_IDS)
def test_operator_class_matches_entry_walk(class_probes, blocks, complexified):
    layout = FlatLayout(blocks, complexified)
    got = [_operator_class(layout, x) for x in class_probes]
    assert got == [_operator_class_reference(layout, x) for x in class_probes]
    assert got[-2] is None and (got[-1] is None) == (3 not in blocks)


HW0_HASHES = {"modular": "9db1b3b25abc0c18", "modular-complex": "b3440c22516b072b"}


@pytest.fixture(scope="module", params=[
    (p, field) for p in DEFAULT_PRIMES for field in ("modular", "modular-complex")
], ids=lambda x: f"{x[1]}-{x[0]}")
def hw0_state(request, ralg):
    p, field = request.param
    return lie_closure(blocks=(0,), field=field, prime=p, ralg=ralg)


def _hw0_queries(ralg, field):
    """Members mixing several shifts and parities (generators and the
    twisted adjoints of generators, which verify_structure shows to be
    members), each also with one diagonal entry bumped, which breaks the
    vanishing supertrace."""
    coefs = [GaussRational(2), GaussRational(-3, 0), GaussRational(1, 0)]
    if field == "modular-complex":
        coefs = [GaussRational(2, 1), GaussRational(0, -3), GaussRational(1, 5)]
    dag = ralg.restrict(ops.dagger(ops.standard_generators()["iV1"]), (0,))
    terms = [ralg.generator("iL0").block(0), ralg.generator("A2").block(0), dag.block(0)]
    acc = {}
    for c, blk in zip(coefs, terms):
        for key, v in blk.items():
            acc[key] = acc.get(key, GaussRational(0)) + c * v
    member = {key: v for key, v in acc.items() if v}
    out = [(member, True)]
    for r in (0, 7, 33):
        bumped = dict(member)
        bumped[(r, r)] = bumped.get((r, r), GaussRational(0)) + 1
        out.append((bumped, False))
    return [(cl.RestrictedOperator({0: m}, 0), want) for m, want in out]


def test_hw0_graded_closure(hw0_state, ralg, tmp_path):
    st = hw0_state
    assert st.pivot_hash() == HW0_HASHES[st.field]
    assert st.dim == 1599
    assert st.parity_dims() == (799, 800)
    assert st.brackets == 12 * st.dim
    layout, eng = st.layout, st._engine
    # every basis row lies in exactly one class, and its parity is that class's
    cls, pivots, residues = eng.export_rows()
    assert len(cls) == len(pivots) == st.dim
    assert np.all(np.diff(cls) >= 0)
    rows = np.split(residues, np.cumsum(layout.class_width[cls])[:-1])
    seen = 0
    for t in np.unique(cls).tolist():
        at = np.flatnonzero(cls == t)
        piv, block = pivots[at], np.stack([rows[i] for i in at])
        full = np.zeros((len(block), layout.length))
        full[:, layout.class_indices[t]] = block
        for row in full:
            assert np.unique(layout.coord_class[np.flatnonzero(row)]).tolist() == [t]
        # in increasing pivot order, each row leading at its pivot with a 1
        assert np.all(np.diff(piv) > 0)
        assert np.array_equal(block[:, piv], np.eye(len(piv)))
        seen += len(block)
    assert seen == st.dim
    # rows are listed class by class, each with its class's parity
    assert st.parities == layout.class_parity[cls].tolist()
    path = tmp_path / "hw0.npz"
    st.save(str(path))
    loaded = cl.load_state(str(path))
    assert loaded.report() == st.report()
    assert loaded.pivots == st.pivots and loaded.parities == st.parities
    assert loaded.supertrace_residues() == 0.0
    for rop, want in _hw0_queries(ralg, st.field):
        assert st.contains_modular(rop) is want
        assert loaded.contains_modular(rop) is want


def test_empty_class_component_rejected(ralg):
    """The odd generators vanish on the smallest block, so its odd classes
    hold no rows: a component there is never a member."""
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    odd = cl.RestrictedOperator({3: {(0, 4): GaussRational(1)}}, 1)
    t = _operator_class(st.layout, odd)
    assert t is not None and t not in st._engine.listing()[0]
    assert not st.contains_modular(odd)
    rop = ralg.generator("iL1")
    member = cl.RestrictedOperator({3: {**rop.block(3), (0, 4): GaussRational(1)}}, 0)
    assert not st.contains_modular(member)


def _dense_contains(state, rop) -> bool:
    """Membership by a dense reference: rop's flat vector from the
    cell-by-cell walk (``_reference_coordinates``), a ``balanced_residue``
    per part, and each class the nonzero residues touch reduced on its
    slice of the whole vector and balanced mod p."""
    if not state._on_layout(rop):
        return False
    eng, layout, p = state._engine, state.layout, state.prime
    vec = np.zeros(layout.length)
    for f, v in _reference_coordinates(layout, rop).items():
        vec[f] = balanced_residue(v, p, eng.root_i)
    for t in np.unique(layout.coord_class[np.flatnonzero(vec)]).tolist():
        ech, k = eng._where(t)
        n = ech.nrows[k]
        v = vec[layout.class_indices[t]]
        v -= v[ech.pivots[k, :n]] @ ech.B[k, :n]
        if np.any(v - np.rint(v / p) * p):
            return False
    return True


def _benchmark_queries(ralg, seed):
    """The benchmark's seeded inputs and its membership queries on hw0, as
    (field, operator, expected answer) triples (perfbench/inputs.py)."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.inputs import GENERATOR_NAMES, pick_inputs
    from perfbench.workloads import build_queries

    inp = pick_inputs(seed)
    prog = SimpleNamespace(operators=ops, scalars=scalars, closure=cl)
    gens = dict(zip(GENERATOR_NAMES, ralg.generators(GENERATOR_NAMES)))
    return inp, build_queries(prog, ralg, inp.queries, 0, gens)


@pytest.mark.parametrize("seed", [7, 1301])
def test_classwise_membership_matches_dense_reference(ralg, seed):
    """All 96 seeded queries of the benchmark, on real and complexified
    hw0 states under the seed's prime, answer as expected and as the dense
    reference does."""
    inp, queries = _benchmark_queries(ralg, seed)
    states = {field: lie_closure(inp.orders[0], field=field, blocks=(0,), prime=inp.prime,
                                 ralg=ralg) for field in ("modular", "modular-complex")}
    assert len(queries) == 96 and {field for field, _, _ in queries} == set(states)
    answers = [states[field].contains_modular(rop) for field, rop, _ in queries]
    assert answers == [member for _, _, member in queries]
    assert answers == [_dense_contains(states[field], rop) for field, rop, _ in queries]
    assert True in answers and False in answers


@pytest.fixture(scope="module")
def full_states(ralg):
    return {field: lie_closure(field=field, ralg=ralg) for field in ("modular", "modular-complex")}


@pytest.mark.parametrize("blocks", [(0,), (0, 1, 2, 3)], ids=["hw0", "full"])
def test_dagger_membership_matches_dense_reference(ralg, full_states, blocks):
    """The 12 restricted daggers are members of the real and complexified
    closures, on hw0 and on the full layout, and each with its (0, 0)
    entry of hw0 bumped (supertrace 1) is not; the dense reference agrees
    on every query."""
    for field in ("modular", "modular-complex"):
        st = full_states[field] if len(blocks) == 4 else lie_closure(blocks=blocks, field=field,
                                                                     ralg=ralg)
        for rop in ralg.daggers(blocks):
            blk = dict(rop.block(0))
            blk[(0, 0)] = blk.get((0, 0), GaussRational(0)) + 1
            bumped = cl.RestrictedOperator({**rop.blocks, 0: blk}, rop.parity)
            for query, want in ((rop, True), (bumped, False)):
                assert st.contains_modular(query) is want
                assert _dense_contains(st, query) is want


@pytest.mark.parametrize("field", ["modular", "modular-complex"])
def test_zero_member_and_rowless_class_not(ralg, field):
    """The zero operator (no blocks, empty blocks, explicit zero entries)
    is a member.  The even generators close to a state in which some
    classes, the odd ones among them, hold no rows; a query with a part in
    such a class is not a member, alone or added to a member."""
    st = lie_closure(EVEN_GENERATOR_NAMES, field=field, blocks=(0,), ralg=ralg)
    zeros = [cl.RestrictedOperator({}, 0), cl.RestrictedOperator({0: {}}, 1),
             cl.RestrictedOperator({0: {(1, 2): GaussRational(0)}}, 0),
             ralg.restrict(ops.zero_operator(), (0,))]
    for zero in zeros:
        assert st.contains_modular(zero) and _dense_contains(st, zero)
    listed = set(st._engine.listing()[0].tolist())
    layout = st.layout
    rowless = [t for t in range(len(layout.class_width)) if t not in listed]
    assert set(np.flatnonzero(layout.class_parity)) <= set(rowless)
    for t in rowless[:1] + [t for t in rowless if not layout.class_parity[t]][:1]:
        k, r, c, m = (int(a[0]) for a in layout.places(layout.class_indices[t][:1]))
        lone = {(r, c): I if m else GaussRational(1)}
        member = ralg.generator("iL0").block(0)
        for blk in (lone, {**member, **lone}):
            query = cl.RestrictedOperator({0: blk}, int(layout.class_parity[t]))
            assert not st.contains_modular(query) and not _dense_contains(st, query)
    assert st.contains_modular(cl.RestrictedOperator({0: member}, 0))


@pytest.mark.parametrize("blocks,complexified", TABLE_SHAPES, ids=TABLE_IDS)
def test_places_decode_every_coordinate(blocks, complexified):
    """An operator nonzero in every part of every entry, each value naming
    its entry (real part 1 + n, imaginary part -(1 + n) for the n-th cell),
    has every coordinate of the layout among its entries once, and
    ``places`` maps each coordinate back to the (k, r, c, m) its value came
    from, which ``grid`` maps forward to the coordinate again."""
    layout = FlatLayout(blocks, complexified)
    cells = [(k, r, c) for k in blocks for r in range(cl.BLOCK_SIZES[k])
             for c in range(cl.BLOCK_SIZES[k])]
    rop = cl.RestrictedOperator({k: {} for k in blocks}, 0)
    for n, (k, r, c) in enumerate(cells):
        rop.blocks[k][r, c] = GaussRational(1 + n, -1 - n)
    coords, values = layout.entries(rop)
    assert sorted(coords.tolist()) == list(range(layout.length))
    grids = {k: _grid(layout, k) for k in blocks}
    places = zip(*(a.tolist() for a in layout.places(coords)))
    for f, v, place in zip(coords.tolist(), values, places):
        n = v.re if complexified else abs(v)  # 1 + the cell's index
        assert not complexified or v.im == -n
        k, r, c = cells[n - 1]
        m = 0 if complexified or v > 0 else 1
        assert place == (k, r, c, m)
        assert grids[k][m, r, c] == f
    assert all(a.size == 0 for a in layout.places(np.array([], dtype=np.int64)))


def test_project_is_exact_and_raises_on_collision(ralg):
    """``_project`` gives each value's ``balanced_residue`` as an exact
    float64, numerators beyond 2^63 included, and membership raises
    PrimeCollision on a denominator divisible by the state's prime."""
    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    big = 2**80 + 1
    rop = cl.RestrictedOperator({3: {(0, 0): GaussRational(big, Fraction(-big, 7)),
                                     (1, 1): GaussRational(Fraction(1, 6)), (2, 3): I}}, 0)
    for complexified in (False, True):
        coords, values = FlatLayout((3,), complexified).entries(rop)
        got = cl._project(coords, values, p, root)
        assert got[0] is coords and got[1].dtype == np.float64
        assert got[1].tolist() == [float(balanced_residue(v, p, root)) for v in values]
    st = lie_closure(blocks=(3,), prime=13, ralg=ralg)
    with pytest.raises(PrimeCollision):
        st.contains_modular(cl.RestrictedOperator({3: {(0, 0): GaussRational(Fraction(1, 13))}}, 0))


# sha256 (first 16 hex digits) of the little-endian int32 arrays that
# ClosureState.save writes for the hw0 closure under DEFAULT_PRIMES[0]
SAVED_HW0_DIGESTS = {
    "modular": {"row_class": "aff7d0115add55ca", "row_pivot": "82f904c6c5290e6b",
                "rows": "342b1275d30a2b4a"},
    "modular-complex": {"row_class": "aff7d0115add55ca", "row_pivot": "f1bd81ce84aa0321",
                        "rows": "94f2824012faf69b"},
}


@pytest.mark.parametrize("field", list(SAVED_HW0_DIGESTS))
def test_saved_hw0_arrays_pinned(ralg, tmp_path, field):
    """The saved rows, not only their pivots: a change in the generators'
    residues moves the ``rows`` digest even where ``pivot_hash`` stays."""
    st = lie_closure(blocks=(0,), field=field, prime=DEFAULT_PRIMES[0], ralg=ralg)
    assert st.pivot_hash() == HW0_HASHES[field]
    st.save(str(tmp_path / "hw0.npz"))
    got = {}
    with np.load(tmp_path / "hw0.npz") as data:
        for key in SAVED_HW0_DIGESTS[field]:
            assert data[key].dtype == np.int32
            raw = np.ascontiguousarray(data[key], dtype="<i4").tobytes()
            got[key] = hashlib.sha256(raw).hexdigest()[:16]
    assert got == SAVED_HW0_DIGESTS[field]


@pytest.mark.parametrize("field", ["modular", "modular-complex"])
@pytest.mark.parametrize("unit", [GaussRational(1), I])
def test_supertrace_residues_see_both_parts(ralg, field, unit):
    """A basis element whose supertrace has a nonzero real or imaginary
    part reads as a nonzero residue, in the real and in the complexified
    layout: its one row is 1 at the pivot, the (0, 0) entry of hw3."""
    g = cl.RestrictedOperator({3: {(0, 0): unit}}, 0)
    st = lie_closure([g], field=field, blocks=(3,), ralg=ralg)
    assert st.dim == 1
    assert st.supertrace_residues() == 1.0


def test_load_state_accepts_rows_in_any_order(tmp_path, ralg):
    """A file whose rows interleave the classes (as files written in
    insertion order do) loads to the same state, listed class by class."""
    st = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    good = tmp_path / "good.npz"
    st.save(str(good))
    with np.load(good) as data:
        e = {k: data[k] for k in data.files}
    widths = np.array([len(idx) for idx in st.layout.class_indices])[e["row_class"]]
    rows = np.split(e["rows"], np.cumsum(widths)[:-1])
    perm = np.random.default_rng(0).permutation(st.dim)
    assert np.any(np.diff(e["row_class"][perm]) < 0)  # the classes interleave
    e.update(row_class=e["row_class"][perm], row_pivot=e["row_pivot"][perm],
             rows=np.concatenate([rows[i] for i in perm]))
    shuffled = tmp_path / "shuffled.npz"
    np.savez_compressed(shuffled, **e)
    loaded = cl.load_state(str(shuffled))
    assert loaded.report() == st.report()
    assert sorted(zip(loaded.pivots, loaded.parities)) == sorted(zip(st.pivots, st.parities))


def test_save_is_atomic(tmp_path, ralg):
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    path = tmp_path / "state.npz"
    path.write_bytes(b"old")
    st.save(str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.npz"]
    assert cl.load_state(str(path)).pivots == st.pivots
    st.save(str(tmp_path / "bare"))  # np.savez's suffix rule is kept
    assert (tmp_path / "bare.npz").exists()


def _tamper(entries, key):
    e = dict(entries)
    if key == "prime":
        e["prime"] = np.asarray(21)
    elif key == "prime-small":
        e["prime"] = np.asarray(13)  # valid prime, but the residues exceed it
    elif key == "class":
        e["row_class"] = e["row_class"].copy()
        e["row_class"][0] = 10**6
    elif key == "wrong-class":
        # an existing class whose width differs from that of the row's own
        widths = [len(idx) for idx in FlatLayout(tuple(e["blocks"])).class_indices]
        e["row_class"] = e["row_class"].copy()
        own = widths[e["row_class"][0]]
        e["row_class"][0] = next(t for t, w in enumerate(widths) if w != own)
    elif key == "length":
        e["rows"] = e["rows"][:-1]
    elif key == "pivots":
        e["row_pivot"] = e["row_pivot"][:-1]
    elif key == "pivot-value":
        e["row_pivot"] = e["row_pivot"].copy()
        e["row_pivot"][0] += 1
    elif key == "residue":
        e["rows"] = e["rows"].copy()
        e["rows"][np.flatnonzero(e["rows"] == 0)[0]] = DEFAULT_PRIMES[0]
    elif key == "float-rows":
        e["rows"] = e["rows"] + 0.5
    elif key == "field":
        e["complexified"] = np.asarray(True)
    elif key == "complexified-vector":
        e["complexified"] = np.asarray([False, False])
    elif key == "complexified-string":
        e["complexified"] = np.asarray("yes")
    elif key == "complexified-int":
        e["complexified"] = np.asarray(0)
    elif key == "missing":
        del e["brackets"]
    elif key == "prime-float":
        e["prime"] = np.asarray(DEFAULT_PRIMES[0] + 0.9)
    elif key == "prime-vector":
        e["prime"] = np.asarray(DEFAULT_PRIMES)
    elif key == "blocks-float":
        e["blocks"] = e["blocks"].astype(np.float64)
    elif key == "blocks-order":
        e["blocks"] = np.asarray([3, 0])
    elif key == "brackets-float":
        e["brackets"] = e["brackets"].astype(np.float64)
    elif key == "brackets-negative":
        e["brackets"] = np.asarray(-1)
    elif key == "brackets-vector":
        e["brackets"] = np.stack([e["brackets"]] * 2)
    return e


@pytest.mark.parametrize("key,message", [
    ("prime", "invalid prime: 21 is not prime"),
    ("prime-small", "outside the balanced range mod 13"),
    ("class", "class ids outside"),
    ("wrong-class", "residues where the rows' classes have"),
    ("length", "residues where the rows' classes have"),
    ("pivots", "pivots for"),
    ("pivot-value", "not reduced at their pivots"),
    ("residue", "outside the balanced range mod 2065121"),
    ("float-rows", "rows does not hold integers"),
    ("field", "is not a modular state"),
    ("complexified-vector", "complexified is not a boolean scalar"),
    ("complexified-string", "complexified is not a boolean scalar"),
    ("complexified-int", "complexified is not a boolean scalar"),
    ("missing", "missing entries brackets"),
    ("prime-float", "prime does not hold integers"),
    ("prime-vector", "prime has 1 dimensions, not 0"),
    ("blocks-float", "blocks does not hold integers"),
    ("blocks-order", r"blocks \(3, 0\) are not strictly increasing"),
    ("brackets-float", "brackets does not hold integers"),
    ("brackets-negative", "negative bracket count -1"),
    ("brackets-vector", "brackets has 1 dimensions, not 0"),
])
def test_load_state_rejects_bad_files(tmp_path, ralg, key, message):
    st = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    good = tmp_path / "good.npz"
    st.save(str(good))
    with np.load(good) as data:
        entries = {k: data[k] for k in data.files}
    bad = tmp_path / "bad.npz"
    np.savez_compressed(bad, **_tamper(entries, key))
    with pytest.raises(ValueError, match=message):
        cl.load_state(str(bad))


def test_load_state_rejects_unreadable_files(tmp_path, ralg):
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    good = tmp_path / "good.npz"
    st.save(str(good))
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(good.read_bytes()[:200])
    with pytest.raises(ValueError, match="not a readable archive"):
        cl.load_state(str(truncated))
    single = tmp_path / "single.npy"
    np.save(single, np.zeros(3))
    with pytest.raises(ValueError, match="not an archive of named arrays"):
        cl.load_state(str(single))
    empty, text, pickled = (tmp_path / name for name in ("empty.npz", "text.npz", "pickled.npz"))
    empty.write_bytes(b"")
    text.write_text("field=modular\n")
    with np.load(good) as data:
        entries = {k: data[k] for k in data.files}
    np.savez_compressed(pickled, **{**entries, "rows": np.array([1, "a"], dtype=object)})
    for path in (empty, text, pickled):
        with pytest.raises(ValueError, match=f"^closure state {path}: not a readable archive"):
            cl.load_state(str(path))


def test_load_state_corrupted_bytes(tmp_path, ralg):
    """Seeded corruptions of a saved state, 1, 3 or 20 bytes flipped
    anywhere in the file: each either loads to the saved state or raises
    ValueError naming the file, and both outcomes occur."""
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    st.save(str(good))
    data = good.read_bytes()
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(200):
        buf = bytearray(data)
        for at in rng.integers(len(buf), size=int(rng.choice([1, 3, 20]))).tolist():
            buf[at] ^= int(rng.integers(1, 256))
        bad.write_bytes(bytes(buf))
        try:
            loaded = cl.load_state(str(bad))
        except ValueError as e:
            assert str(e).startswith(f"closure state {bad}: "), e
            seen.add("rejected")
            continue
        assert loaded.pivots == st.pivots and loaded.parities == st.parities
        assert loaded.report() == st.report()
        seen.add("loaded")
    assert seen == {"rejected", "loaded"}


def test_load_state_closes_unreadable_archive(tmp_path, ralg):
    """A truncated archive is rejected without leaving its file open."""
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    good = tmp_path / "good.npz"
    st.save(str(good))
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(good.read_bytes()[:200])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ValueError, match="not a readable archive"):
            cl.load_state(str(truncated))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_generator_denominators_divide_six(ralg):
    """Every denominator in the restricted generators and their restricted
    daggers divides 6.  Accepted primes are 1 (mod 4), so none divides a
    denominator, and projecting these inputs mod p cannot collide."""
    rops = ralg.generators() + ralg.daggers((0, 1, 2, 3))
    dens = {Fraction(x).denominator
            for rop in rops for blk in rop.blocks.values() for v in blk.values()
            for x in (v.re, v.im)}
    assert dens and all(6 % d == 0 for d in dens)


def test_generators_built_once(monkeypatch):
    calls = []
    real = cl.standard_generators
    monkeypatch.setattr(cl, "standard_generators", lambda: calls.append(1) or real())
    fresh = RestrictedAlgebra()
    for name in ("iL0", "iV2", "A1"):
        fresh.generator(name)
    assert len(calls) == 1


def test_root_of_minus_one_once_per_state(monkeypatch, ralg):
    st = lie_closure(blocks=(3,), field="modular", ralg=ralg)
    calls = []
    monkeypatch.setattr(cl, "root_of_minus_one", lambda p: calls.append(p) or 1)
    rop = ralg.generator("iL1")
    for _ in range(3):
        assert st.contains_modular(cl.RestrictedOperator({3: rop.block(3)}, rop.parity))
    assert calls == []


def test_structure_checks_computed_once(monkeypatch):
    """The algebra-only checks of verify_structure (pairing identity,
    generator daggers, restricted supertraces, restricted daggers) are
    computed on the first call and read back on later ones, and by the
    structure suite."""
    fresh = RestrictedAlgebra()
    st = lie_closure(blocks=(3,), field="modular", ralg=fresh)
    calls = []
    real_adjoint, real_dagger = cl.super_adjoint, cl.dagger
    real_restrict = RestrictedAlgebra.restrict
    monkeypatch.setattr(cl, "super_adjoint", lambda g: calls.append("adjoint") or real_adjoint(g))
    monkeypatch.setattr(cl, "dagger", lambda g: calls.append("dagger") or real_dagger(g))
    monkeypatch.setattr(ops, "dagger", cl.dagger)
    monkeypatch.setattr(RestrictedAlgebra, "restrict",
                        lambda self, *a: calls.append("restrict") or real_restrict(self, *a))
    first = cl.verify_structure(st, fresh)
    assert first["pass"]
    assert [calls.count(c) for c in ("adjoint", "dagger", "restrict")] == [12, 12, 12]
    calls.clear()
    assert cl.verify_structure(st, fresh) == first
    monkeypatch.setattr(cl, "default_algebra", lambda: fresh)
    assert suites._SUITES["structure"]({})["pass"]
    assert calls == []


# ---------------------------------------------------------------------------
# batch insertion: one modular RREF per batch
# ---------------------------------------------------------------------------


def _rank_mod_p(rows, p) -> int:
    """Rank of integer rows mod p by plain Gaussian elimination."""
    rows = [[int(x) % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_batch(rng, p, width, stored) -> np.ndarray:
    """Balanced residues mod p: random rows with a random run of leading
    zeros, zero rows, duplicates and combinations of earlier rows of the
    batch, and combinations of the rows already stored."""
    h = (p - 1) // 2
    rows = []
    for _ in range(int(rng.integers(1, 12))):
        kind = int(rng.integers(5))
        if kind == 0 or (kind in (2, 3) and not rows) or (kind == 4 and not len(stored)):
            row = rng.integers(-h, h + 1, width)
            row[: int(rng.integers(width))] = 0
        elif kind == 1:
            row = np.zeros(width, dtype=np.int64)
        elif kind == 2:
            row = rows[int(rng.integers(len(rows)))].copy()
        else:
            src = np.asarray(rows if kind == 3 else stored, dtype=np.int64)
            row = rng.integers(-h, h + 1, len(src)) @ src
        rows.append((row + h) % p - h)
    return np.asarray(rows, dtype=np.float64)


@pytest.mark.parametrize("p", [13, 2065121])
def test_insert_batch_matches_plain_elimination(p):
    """One width group of three classes.  Each round feeds a seeded batch of
    its own size, empty and all-zero batches included, to a random subset
    of the classes, and every class must match a plain elimination."""
    rng = np.random.default_rng(p)
    width, classes = 40, np.array([3, 8, 21])
    ech = cl._HalfEngine(p, width, classes)
    inputs: list[list[np.ndarray]] = [[] for _ in classes]
    for _ in range(12):
        sel = np.flatnonzero(rng.random(len(classes)) < 0.8)
        if not sel.size:
            continue
        batches = []
        for k in sel:
            kind = int(rng.integers(6))
            if kind == 0:
                batches.append(np.zeros((0, width)))
            elif kind == 1:
                batches.append(np.zeros((int(rng.integers(1, 4)), width)))
            else:
                batches.append(_random_batch(rng, p, width, ech.B[k, : ech.nrows[k]]))
        C = np.zeros((len(sel), max(map(len, batches)), width))
        for i, batch in enumerate(batches):
            C[i, : len(batch)] = batch
        before = ech.nrows.copy()
        added = ech.insert_batch(ech.reduce_rows(C, sel), sel)
        assert set(added) <= set(classes[sel].tolist())
        for k, batch in zip(sel, batches):
            want = _rank_mod_p(inputs[k] + list(batch), p) - _rank_mod_p(inputs[k], p)
            new = added.get(int(classes[k]), range(before[k], before[k]))
            assert new == range(before[k], ech.nrows[k]) and len(new) == want
            assert np.all(np.diff(ech.pivots[k, new.start : new.stop]) > 0)
            inputs[k].extend(batch)
        assert all(ech.nrows[k] == before[k] for k in range(len(classes)) if k not in sel)
        assert ech.B.shape == (len(classes), ech.pivots.shape[1], width)
        assert ech.pivots.dtype == np.int64
        for k, n in enumerate(ech.nrows):
            B, piv = ech.B[k, :n], ech.pivots[k, :n]
            # every stored row leads at its pivot, with a 1 there
            assert np.array_equal(np.argmax(B != 0, axis=1), piv)
            # the basis is fully reduced: each row is 0 at every other pivot
            assert np.array_equal(B[:, piv], np.eye(n))
            # the padding past the class's rank is zero
            assert not ech.B[k, n:].any() and not ech.pivots[k, n:].any()
        assert np.abs(ech.B).max(initial=0) <= (p - 1) // 2
    # the batches neither stayed empty nor filled the space, and the ranks differ
    assert all(0 < n < width for n in ech.nrows) and len(set(ech.nrows.tolist())) > 1
    for k in range(len(classes)):
        assert ech.nrows[k] == _rank_mod_p(inputs[k], p)
        # every input is a member: it reduces to zero against its class
        for row in inputs[k]:
            assert not ech.reduce_rows(row.reshape(1, 1, -1).copy(), np.array([k])).any()


def test_hw0_closure_batches_width_groups(monkeypatch, ralg):
    """Each level makes one reduce and one elimination per width group: hw0
    has 9 class widths, so a closure of L levels (plus the generators'
    insertion) makes at most (L + 1) * 9 of each."""
    calls = []
    for name in ("reduce_rows", "insert_batch"):
        real = getattr(cl._HalfEngine, name)
        monkeypatch.setattr(cl._HalfEngine, name, lambda self, C, sel, real=real, name=name:
                            calls.append(name) or real(self, C, sel))
    st = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    assert st.pivot_hash() == HW0_HASHES["modular"] and st.levels == 8
    assert len({len(idx) for idx in st.layout.class_indices}) == 9
    for name in ("reduce_rows", "insert_batch"):
        assert 0 < calls.count(name) <= (st.levels + 1) * 9


def test_closure_phase_timers(ralg):
    """A modular run times its ad_g set-up and its bracket, reduce and
    insert phases; the closure suite records them in meta, never in
    results."""
    st = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    assert set(st.phases) == {"adjoint_s", "bracket_s", "reduce_s", "insert_s"}
    assert all(v > 0 for v in st.phases.values())
    assert sum(st.phases.values()) <= st.wall_s
    assert "phases" not in st.report()
    assert lie_closure(blocks=(3,), field="exact", ralg=ralg).phases == {}
    out = suites._SUITES["closure"]({"blocks": (3,)})
    meta = out.pop("_meta")
    assert set(meta["phase_s"]) == set(meta["wall_s"])
    for key, phases in meta["phase_s"].items():
        assert set(phases) == {"adjoint_s", "bracket_s", "reduce_s", "insert_s"}
        assert sum(phases.values()) <= meta["wall_s"][key] + 0.002  # both rounded to ms
    assert "phase_s" not in repr(out)


def test_hw0_level_bookkeeping(monkeypatch, ralg):
    """The candidate stacks are allocated once for the generators and once
    per level.  A level asks, per target class, for the frontier size of
    each source class times the channels from that source to the target,
    the channels read off the generators' ad_g entries."""
    calls, frontiers = [], []
    stacks, process = cl._ModularEngine.stacks, cl._ModularEngine.process_batch
    monkeypatch.setattr(cl._ModularEngine, "stacks", lambda self, counts:
                        calls.append(counts.copy()) or stacks(self, counts))
    monkeypatch.setattr(cl._ModularEngine, "process_batch", lambda self, s, phases:
                        frontiers.append(process(self, s, phases)) or frontiers[-1])
    st = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    assert st.pivot_hash() == HW0_HASHES["modular"]
    assert len(calls) == st.levels + 1 == len(frontiers) and not frontiers[-1]
    layout, gens = st.layout, ralg.generators()
    nclasses = len(layout.class_width)
    links = np.zeros((nclasses, nclasses), dtype=np.int64)
    for g in gens:
        src, tgt, _ = _adjoint_entries(layout, g, st.prime, st._engine.root_i)
        for d, t in set(zip(layout.coord_class[src].tolist(), layout.coord_class[tgt].tolist())):
            links[d, t] += 1
    seeds = [_operator_class(layout, g) for g in gens]
    assert np.array_equal(calls[0], np.bincount([t for t in seeds if t is not None],
                                                minlength=nclasses))
    for counts, frontier in zip(calls[1:], frontiers):
        size = np.zeros(nclasses, dtype=np.int64)
        for d, new in frontier.items():
            size[d] = len(new)
        assert np.array_equal(counts, size @ links)


@pytest.mark.parametrize("generators,blocks,argument", [
    ([], (3,), "generators"),
    (cl.GENERATOR_NAMES, (), "blocks"),
    (cl.GENERATOR_NAMES, (4,), "blocks"),
    (cl.GENERATOR_NAMES, (3, 3), "blocks"),
    (cl.GENERATOR_NAMES, (3, 0), "blocks"),
    (cl.GENERATOR_NAMES, (3,), "prime"),
    (cl.GENERATOR_NAMES, (3,), "progress"),
])
def test_lie_closure_rejects_bad_arguments(ralg, generators, blocks, argument):
    """No generators, and blocks that are not a non-empty strictly
    increasing tuple drawn from 0..3, are rejected before any work; so are
    a prime and a progress callback on the exact field, which has
    neither."""
    exact = {"prime": {"prime": 7}, "progress": {"progress": print}}.get(argument)
    with pytest.raises(ValueError, match=f"^{argument}"):
        lie_closure(generators, field="exact" if exact else "modular", blocks=blocks, ralg=ralg,
                    **(exact or {}))
