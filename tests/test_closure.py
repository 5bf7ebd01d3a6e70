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
from wsdalg.linalg import SparseEchelon
from wsdalg import operators as ops
from wsdalg import closure as cl
from wsdalg import scalars
from wsdalg import suites
from opcolumns import kernel_bracket, rop_bracket, support_class
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
    return support_class(layout, layout.entries(rop)[0])


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


def _table(layout, gens, p, root_i):
    """The generator table of the generators' ``_project``-ed entries, as
    the modular engine builds it."""
    return cl._generator_table(layout, gens, [cl._project(*layout.entries(g), p, root_i)
                                              for g in gens])


def _adjoint_entries(layout, g, p, root_i):
    """The entries of ad_g = [g, .] on the layout, as (source coordinate,
    target coordinate, coefficient) arrays: ``_bracket_rows`` on a frontier
    that holds every coordinate as a row of its own, with value 1, each
    channel's products in a block of their own."""
    table = _table(layout, [g], p, root_i)
    order = np.concatenate(layout.class_indices)  # every class's coordinates, one run each
    frontier = (layout.coord_class[order].astype(np.int32),
                layout.coord_local[order].astype(np.int32), order.astype(np.int32),
                np.ones(len(order)))
    d = np.flatnonzero(table.target[:, 0] >= 0)
    t = table.target[d, 0]
    width = layout.class_width[t]
    base = np.cumsum(layout.class_width[d] * width) - layout.class_width[d] * width
    pos, coef, ends = cl._bracket_rows(table, frontier, d, np.zeros_like(d), base, width)
    c = np.repeat(np.arange(len(d)), np.diff(ends))
    r, local = np.divmod(pos - base[c], width[c])
    first = np.cumsum(layout.class_width) - layout.class_width
    return order[first[d[c]] + r], order[first[t[c]] + local], coef


def _class_brackets(layout, table, classes):
    """[g, x] for every coordinate x of the classes ``classes`` (each a row
    of its own, with value 1, the classes' coordinates a run each, in the
    given order) and every generator g that has a channel from x's class:
    ``_bracket_rows`` on that frontier, as {(class, generator): (places
    within the channel's stack, values)}."""
    classes = np.asarray(classes)
    order = np.concatenate([layout.class_indices[d] for d in classes])
    frontier = (layout.coord_class[order].astype(np.int32),
                layout.coord_local[order].astype(np.int32), order.astype(np.int32),
                np.ones(len(order)))
    k, generator = np.nonzero(table.target[classes] >= 0)
    source = classes[k]
    width = layout.class_width[table.target[source, generator]]
    size = layout.class_width[source] * width
    base = np.cumsum(size) - size
    pos, coef, ends = cl._bracket_rows(table, frontier, source, generator, base, width)
    return {(int(d), int(i)): (pos[a:b] - base[c], coef[a:b])
            for c, (d, i, a, b) in enumerate(zip(source, generator, ends[:-1], ends[1:]))}


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


def _exact_row(layout, rop):
    """rop's ``FlatLayout.entries`` as a {coordinate: exact value} row."""
    coords, values = layout.entries(rop)
    return dict(zip(coords.tolist(), values))


def _dense(layout, rop, p, root_i):
    """rop's ``_project``-ed entries scattered into a dense vector of the
    whole layout, the test-side reference the engines never build."""
    coords, residues = cl._project(*layout.entries(rop), p, root_i)
    vec = np.zeros(layout.length)
    vec[coords] = residues
    return vec


def test_flatten_zero(ralg):
    layout = FlatLayout()
    zero = ralg.restrict(ops.zero_operator())
    assert _exact_row(layout, zero) == {}
    vec = _dense(layout, zero, DEFAULT_PRIMES[0], 1)
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
    """``FlatLayout.entries`` and ``_project`` put every nonzero part of
    the twelve restricted generators and their daggers where a cell-by-cell
    walk of the blocks puts it, with its value or its balanced residue,
    and write nothing else; on the full real and the full complex layout,
    where each value is a whole GaussRational entry."""
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
            vec = _dense(layout, rop, p, root)
            expected = np.zeros(layout.length)
            for f, v in want.items():
                expected[f] = balanced_residue(v, p, root)
            assert np.array_equal(vec, expected)
            coords = layout.entries(rop)[0]
            for f, k, r, c, m in zip(coords.tolist(), *(a.tolist() for a in layout.places(coords))):
                assert _grid(layout, k)[m, r, c] == f
                seen_imaginary |= m == 1
            row = _exact_row(layout, rop)
            assert row == want
            assert all(isinstance(v, GaussRational) is complexified for v in row.values())
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
    stored = [v for ech in st._engine.echelons.values() for row in ech.rows.values()
              for v in row.values()]
    assert all(type(v) in (int, Fraction) for v in stored)
    assert not any(type(v) is Fraction and v.denominator == 1 for v in stored)


def test_even_subalgebra_modular_matches_exact(ralg):
    st = lie_closure(generators=EVEN_GENERATOR_NAMES, field="modular", ralg=ralg)
    assert st.dim == 15


def _rows_digest(state) -> str:
    """Digest of an exact state's echelon rows, pivot by pivot over all its
    classes: a fully reduced echelon basis is unique for its span, so it
    does not depend on how the closure reached it, nor on whether it is
    kept whole or class by class (the rows are homogeneous)."""
    rows = {p: row for ech in state._engine.echelons.values() for p, row in ech.rows.items()}
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


def test_exact_full_suite_checks_the_closure(monkeypatch, ralg):
    """An exact closure-suite run on all four blocks is checked as a
    modular one is: a closure of the even generators alone (dim 15) fails
    on its dimension and its block dimensions, and verify_structure and
    the bound gap are reported for it."""
    close = cl.lie_closure
    monkeypatch.setattr(cl, "lie_closure", lambda **kw: close(EVEN_GENERATOR_NAMES, **kw))
    out = suites._SUITES["closure"]({"field": "exact"})
    run = out["runs"][0]
    assert run["field"] == "exact" and run["dim"] == 15 and out["complexified"] is None
    bd = tuple(run["block_dims"][f"hw{k}"] for k in range(4))
    assert out["pass"] is False
    assert f"dimension 15 != {cl.EXPECTED_DIMENSION}" in out["failures"]
    assert f"block dims {bd} != {cl.EXPECTED_BLOCK_DIMS}" in out["failures"]
    assert out["structure"]["dim"] == 15 and out["structure"]["supertrace_max_residue"] is None
    assert set(out["structure"]["failures"]) <= set(out["failures"])
    assert out["bound_gap"] == cl.DIMENSION_BOUND - 15


@pytest.mark.parametrize("generators,blocks", [
    (ops.GENERATOR_NAMES, (3,)),
    (EVEN_GENERATOR_NAMES, (0, 1, 2, 3)),
    (ops.GENERATOR_NAMES, (0,)),
], ids=["hw3", "even", "hw0"])
def test_exact_closure_stores_int_rows(ralg, generators, blocks):
    """The exact engine keeps one echelon per class that has rows, on
    primitive int rows of that class, each positive at its pivot, and each
    echelon's normalised view is 1 there; the state lists the pivots class
    by class, in increasing order within a class."""
    st = lie_closure(generators, field="exact", blocks=blocks, ralg=ralg)
    pivots = []
    for t, ech in sorted(st._engine.echelons.items()):
        assert ech.rank and list(ech.basis) == list(ech.rows)
        pivots += sorted(ech.basis)
        for p, row in ech.basis.items():
            assert all(type(v) is int for v in row.values())
            assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
            assert ech.rows[p][p] == 1
            assert set(st.layout.coord_class[list(row)].tolist()) == {t}
    assert pivots == st.pivots


def test_exact_membership_scales_fraction_input(ralg):
    """Exact ``contains`` scales a query with Fraction parts to an int row
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

    assert all(st.contains(scaled(s)) for s in (1, Fraction(1, 3), Fraction(-7, 6)))
    rc, v = next(iter(g.block(1).items()))
    moved = cl.RestrictedOperator({**g.blocks, 1: {**g.block(1), rc: v + Fraction(1, 2)}}, g.parity)
    assert not st.contains(moved)
    assert not st.contains(ralg.generator("iV0"))


def test_exact_hw0_closure_matches_modular(ralg):
    """The exact hw0 closure has the pivots of the modular one (dimension
    1599), which ties the two engines together beyond dimension 15."""
    st = lie_closure(blocks=(0,), field="exact", ralg=ralg)
    assert st.dim == 1599 and st.parity_dims() == (799, 800)
    assert st.pivot_hash() == HW0_HASHES["modular"] == "9db1b3b25abc0c18"
    modular = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    assert (st.pivots, st.parities) == (modular.pivots, modular.parities)


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
    """Both engines bracket level by level only the classes their frontier
    reaches, read off the one generator table: the even closure reaches 13
    of the full layout's 319 classes (those of its pivots), and brackets
    from no other class, on the exact and on the modular field."""
    reached = []
    bracket_rows = cl._bracket_rows

    def record(table, frontier, source, *rest):
        reached.extend(source.tolist())
        return bracket_rows(table, frontier, source, *rest)

    monkeypatch.setattr(cl, "_bracket_rows", record)
    for field in ("exact", "modular"):
        reached.clear()
        st = lie_closure(EVEN_GENERATOR_NAMES, field=field, ralg=ralg)
        assert st.pivot_hash() == "fd2dcc1c795c5fbe"
        assert len(set(reached)) == 13
        assert set(reached) == set(st.layout.coord_class[st.pivots].tolist())


def test_bracket_runs_hold_whole_stacks_within_one_stack(ralg, monkeypatch):
    """Each ``_bracket_rows`` call brackets a run of whole stacks of its
    level, the runs in plan order and every channel once, and a run's
    (channel, nonzero) pairs stay within the entries of the level's
    largest stack, or ``RUN_FLOOR`` if that is more: on the modular hw0
    closure and the exact hw0, hw3 and even closures.  The exact hw3
    closure brackets each of its two levels in one call."""
    levels = []
    filled_stacks, bracket_rows = cl._filled_stacks, cl._bracket_rows

    def plan(table, frontier, channels, plan, edge):
        levels.append((max(np.prod(shape) for _, shape in plan), edge, channels[0], []))
        return filled_stacks(table, frontier, channels, plan, edge)

    def record(table, frontier, source, *rest):
        pairs = np.bincount(frontier[0], minlength=len(table.most))[source].sum()
        levels[-1][-1].append((source, pairs))
        return bracket_rows(table, frontier, source, *rest)

    monkeypatch.setattr(cl, "_filled_stacks", plan)
    monkeypatch.setattr(cl, "_bracket_rows", record)
    for generators, blocks, field, pivot_hash in (
            (cl.GENERATOR_NAMES, (0,), "modular", HW0_HASHES["modular"]),
            (cl.GENERATOR_NAMES, (0,), "exact", HW0_HASHES["modular"]),
            (cl.GENERATOR_NAMES, (3,), "exact", "c8ed13bb169e713f"),
            (EVEN_GENERATOR_NAMES, (0, 1, 2, 3), "exact", "fd2dcc1c795c5fbe")):
        levels.clear()
        st = lie_closure(generators, blocks=blocks, field=field, ralg=ralg)
        assert st.pivot_hash() == pivot_hash
        for largest, edge, source, calls in levels:
            assert np.array_equal(np.concatenate([s for s, _ in calls]), source)
            assert np.isin(np.cumsum([len(s) for s, _ in calls]), edge).all()  # whole stacks
            assert all(pairs <= max(largest, cl.RUN_FLOOR) for _, pairs in calls), field
        if blocks == (3,):
            assert [len(calls) for *_, calls in levels] == [1, 1]


def _scaled(rop, s):
    blocks = {k: {rc: v * s for rc, v in b.items()} for k, b in rop.blocks.items()}
    return cl.RestrictedOperator(blocks, rop.parity)


def test_exact_closure_refuses_an_inexact_bracket(ralg):
    """Two hw3 generators scaled by 2^30 bracket to sums of 2^60, past the
    integers float64 holds: the exact closure raises InexactBracket
    rather than return a state.  Scaled by 2^10, every sum stays below
    2^53 and the closure has the pivots of the unscaled generators.  A
    generator's own row goes through float64 too, so one entry of 2^53 is
    refused even where no bracket is formed (iL0 alone brackets to
    nothing on hw3)."""
    gens = [ralg.generator("iL0"), ralg.generator("iLambda0")]
    with pytest.raises(cl.InexactBracket, match="2\\^53"):
        lie_closure([_scaled(g, 2**30) for g in gens], field="exact", blocks=(3,), ralg=ralg)
    with pytest.raises(cl.InexactBracket, match="2\\^53"):
        lie_closure([_scaled(gens[0], 2**53)], field="exact", blocks=(3,), ralg=ralg)
    assert lie_closure([_scaled(gens[0], 2**50)], field="exact", blocks=(3,), ralg=ralg).dim == 1
    st = lie_closure([_scaled(g, 2**10) for g in gens], field="exact", blocks=(3,), ralg=ralg)
    assert st.pivots == lie_closure(gens, field="exact", blocks=(3,), ralg=ralg).pivots


@pytest.mark.parametrize("blocks", [(0,), (0, 1, 2, 3)], ids=["hw0", "full"])
@pytest.mark.parametrize("complexified", [False, True], ids=["real", "complex"])
def test_adjoint_blocks_of_some_sources_match_the_full_build(ralg, blocks, complexified):
    """The ad_g channels of some source classes, and their brackets, are
    those of the same classes in the build from every class, and nothing
    for any other class: ``_bracket_rows`` on a frontier of those classes
    alone yields, channel for channel, the products it yields for them on
    a frontier of every class (the level loop brackets a frontier at a
    time), one channel per (class, generator) the generator table lists."""
    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    layout = FlatLayout(blocks, complexified=complexified)
    gens = ralg.generators()
    table = _table(layout, gens, p, root)
    nclasses = len(layout.class_width)
    every = table.target
    assert 0 < table.most.max() <= 5 and np.array_equal(every >= 0, table.most > 0)
    full = _class_brackets(layout, table, np.arange(nclasses))
    assert set(full) == set(zip(*map(np.ndarray.tolist, np.nonzero(every >= 0))))
    rng = np.random.default_rng(len(blocks) + complexified)
    for sources in ([int(rng.integers(nclasses))], rng.choice(nclasses, 40, replace=False)):
        got = _class_brackets(layout, table, sources)
        assert set(got) == {key for key in full if key[0] in set(np.ravel(sources).tolist())}
        for key, (pos, coef) in got.items():
            assert np.array_equal(pos, full[key][0]) and np.array_equal(coef, full[key][1])


@pytest.mark.parametrize("field", ["exact", "modular"])
def test_member_has_no_entry_outside_the_blocks(ralg, field):
    """A hw3 state answers for operators on all blocks: the identity on
    block 0, which the layout lacks, is no member, and neither is a member
    with that entry added, while block-3-only queries answer as before."""
    st = lie_closure(blocks=(3,), field=field, ralg=ralg)
    contains = st.contains
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
    assert st.contains(sub)
    # the identity on the block is not in a special-linear algebra
    ident = {(r, r): GaussRational(1) for r in range(8)}
    assert not st.contains(cl.RestrictedOperator({3: ident}, 0))


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
    assert st.contains(sub)
    ident = {(r, r): GaussRational(1) for r in range(8)}
    assert not st.contains(cl.RestrictedOperator({3: ident}, 0))


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
    assert loaded.contains(sub)
    ident = {(r, r): GaussRational(1) for r in range(8)}
    assert not loaded.contains(cl.RestrictedOperator({3: ident}, 0))


@pytest.mark.parametrize("field", ["modular", "modular-complex"])
def test_state_roundtrip_restores_the_engine_arrays(tmp_path, ralg, field):
    """Saving a hw0 state and loading it back restores every width group's
    basis rows, pivots and row counts exactly, the rows of a class in
    increasing pivot order (a computed state holds them in insertion
    order): ``export_rows`` gathers and ``import_rows`` scatters the rows
    one width group at a time."""
    st = lie_closure(blocks=(0,), field=field, ralg=ralg)
    st.save(str(tmp_path / "hw0.npz"))
    loaded = cl.load_state(str(tmp_path / "hw0.npz"))
    for got, want in zip(loaded._engine.groups, st._engine.groups):
        assert np.array_equal(got.nrows, want.nrows)
        for k, n in enumerate(want.nrows):
            order = np.argsort(want.pivots[k, :n])
            assert np.array_equal(got.B[k, :n], want.B[k, order])
            assert np.array_equal(got.pivots[k, :n], want.pivots[k, order])


def test_bracket_engines_agree(ralg):
    """Every channel of the generator table must agree with the exact block
    bracket after projection, coordinate for coordinate, in the real and in
    the complexified layout, on hw0 and on all four blocks: each of the
    twelve generators bracketed with every restricted generator and with i
    times it, so that imaginary parts meet imaginary parts, through the
    kernel ``_bracket_rows``.  The table holds int32 keys and offsets and
    runs of entries per (generator, key) that tile its nonzero balanced
    residues."""
    gens = ralg.generators()
    xs = gens + [cl.RestrictedOperator({k: {rc: I * v for rc, v in blk.items()}
                                        for k, blk in x.blocks.items()}, x.parity)
                 for x in gens]
    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    for blocks, complexified in itertools.product([(0,), (0, 1, 2, 3)], (False, True)):
        layout = FlatLayout(blocks, complexified=complexified)
        table = _table(layout, gens, p, root)
        assert table.start[0] == 0 and table.start[-1] == len(table.coef)
        assert np.all(np.diff(table.start) >= 0)
        assert np.all(table.coef != 0) and np.abs(table.coef).max() <= (p - 1) // 2
        assert 0 <= table.keys.min() and table.keys.max() < table.nkeys
        assert all(a.dtype == np.int32 for a in (table.keys, table.start, table.off, table.local))
        every = table.target
        assert 0 < table.most.max() <= 5 and np.array_equal(every >= 0, table.most > 0)
        checked = 0
        for x in xs:
            d = _operator_class(layout, x)
            if d is None:
                continue
            X = _dense(layout, x, p, root)[layout.class_indices[d]].reshape(1, -1)
            out = kernel_bracket(layout, table, d, X)
            assert sorted(out) == np.flatnonzero(every[d] >= 0).tolist()
            for i, g in enumerate(gens):
                want = _dense(layout, rop_bracket(g, x, blocks), p, root)
                got = np.zeros(layout.length)
                if i in out:  # the exact sums, balanced as the candidate stacks are
                    t, R = out[i]
                    assert t == every[d, i]
                    got[layout.class_indices[t]] = R[0] - np.rint(R[0] / p) * p
                    checked += bool(want.any())
                assert np.array_equal(got, want)
        assert checked > 12


def _dense_bracket(layout, gens, G, d, X, p):
    """[g, y] for each generator g, given with its dense ``_project``-ed row
    in G, and each row y of the stack X (class-local rows of class d), by
    dense block products mod p, the test-side reference the kernel never
    forms: each block of g and of y as a pair of integer matrices (real and
    imaginary parts; a complexified layout holds one residue per entry, as
    the real part), multiplied as complex matrices for every (g, y) pair at
    once, [g, y] = g y - (-1)^{|g||y|} y g, and balanced mod p.  In each
    block, y lives on the rows R and columns C that class d occupies, so
    g y is g[:, R] y[R, C], in columns C, and y g is y[R, C] g[C, :], in
    rows R, and [g, y] vanishes off those strips.  Each product sums at most
    72 products of balanced residues, so float64 holds it exactly.  Returns
    (coords, values): the strips' flat coordinates, increasing, and an
    array (generator, row, coordinate of coords)."""
    parts = 1 if layout.complexified else 2
    sign = np.where(np.array([g.parity for g in gens]) & layout.class_parity[d], -1, 1)
    sign = sign[:, None, None, None]
    Y = np.zeros((len(X), layout.length))
    Y[:, layout.class_indices[d]] = X
    in_d = np.zeros(layout.length, dtype=bool)
    in_d[layout.class_indices[d]] = True

    def product(a, b):  # of (real, imaginary) pairs
        return a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0]

    strips = []
    for k in layout.blocks:
        grid = _grid(layout, k)
        here = in_d[grid].any(axis=0)
        R, C = np.flatnonzero(here.any(axis=1)), np.flatnonzero(here.any(axis=0))
        every = np.arange(len(here))

        def at(v, rows, cols):  # v's real and imaginary parts on rows x cols of the block
            return (v[..., grid[0][rows[:, None], cols]],
                    v[..., grid[parts - 1][rows[:, None], cols]] * (parts - 1))

        y = at(Y[None], R, C)  # (generator, row, |R|, |C|)
        strips.append((grid, R, C, product(at(G[:, None], every, R), y),
                       product(y, at(G[:, None], C, every))))
    on = np.zeros(layout.length, dtype=bool)
    for grid, R, C, _, _ in strips:
        on[grid[:, :, C]] = on[grid[:, R]] = True
    place = np.cumsum(on) - 1  # a strip coordinate's place among them
    out = np.zeros((len(gens), len(X), int(on.sum())))
    for grid, R, C, gy, yg in strips:
        for m in range(parts):
            out[..., place[grid[m][:, C]]] += gy[m]
            out[..., place[grid[m][R]]] -= sign * yg[m]
    return np.flatnonzero(on), out - np.rint(out / p) * p  # p is odd: no sum is half-way


@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_bracket_rows_match_dense_reference(ralg, p):
    """``_bracket_rows`` on the generator table equals, mod p, the bracket
    of dense block matrices (``_dense_bracket``) on a seeded stack of 1 to 8
    rows of balanced residues in every class: hw0 real and complexified,
    and blocks (2, 3).  Besides the twelve generators, a diagonal one meets
    every x from both sides, so that (source, target) pairs of its ad_g
    entries repeat, and their sums cancel in places."""
    diagonal = cl.RestrictedOperator({k: {(i, i): GaussRational(i % 5, int(i % 3 == 0))
                                          for i in range(cl.BLOCK_SIZES[k])}
                                      for k in range(4)}, 0)
    gens = ralg.generators() + [diagonal]
    root = root_of_minus_one(p)
    rng = np.random.default_rng(p)
    for blocks, complexified in (((0,), False), ((0,), True), ((2, 3), False)):
        layout = FlatLayout(blocks, complexified=complexified)
        table = _table(layout, gens, p, root)
        G = np.array([_dense(layout, g, p, root) for g in gens])
        for g in gens:
            src, tgt, _ = _adjoint_entries(layout, g, p, root)
            assert (g is diagonal) == (len(set(zip(src.tolist(), tgt.tolist()))) < len(src))
        nonzero = 0
        for d in range(len(layout.class_width)):
            X = rng.integers(-(p // 2), p // 2 + 1, size=(int(rng.integers(1, 9)),
                                                         layout.class_width[d]))
            strips, bracket = _dense_bracket(layout, gens, G, d, X, p)
            out = kernel_bracket(layout, table, d, X.astype(float))
            # both on every coordinate where either can be nonzero
            on = np.zeros(layout.length, dtype=bool)
            on[strips] = True
            for t, _ in out.values():
                on[layout.class_indices[t]] = True
            place = np.cumsum(on) - 1
            want, got = np.zeros((2, len(gens), len(X), int(on.sum())))
            want[..., place[strips]] = bracket
            for i, (t, R) in out.items():  # each generator's channel from d, or zero
                got[i][:, place[layout.class_indices[t]]] = R - np.rint(R / p) * p
            assert np.array_equal(got, want), (blocks, complexified, d)
            nonzero += np.count_nonzero(want)
        assert nonzero > 1000


def test_adjoint_tables_hold_entries_not_dense_positions(ralg):
    """On the full real layout, the generator table holds the generators'
    entries, keyed by what of x each meets, and no ad_g entry: every array
    it holds takes a few words per generator-table entry, coordinate and
    (class, generator) pair, while ad_g has over 150000 entries (a dense
    ad_g buffer takes 125 MiB)."""
    p = DEFAULT_PRIMES[0]
    root = root_of_minus_one(p)
    layout = FlatLayout()
    gens = ralg.generators()
    table = _table(layout, gens, p, root)
    entries = sum(_adjoint_entries(layout, g, p, root)[0].size for g in gens)
    arrays = [a for a in table if isinstance(a, np.ndarray)]
    bases = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
    assert entries > 150_000 and 30 * len(table.coef) < entries
    assert sum(b.nbytes for b in bases.values()) <= 24 * (len(table.coef) + layout.length
                                                           + table.target.size)


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


def test_exact_path_imports_no_numpy_ma(tmp_path):
    """The exact suites and the hw3 and even exact closures never import
    ``numpy.ma``, whose first import costs about 1 MiB of heap (a plain
    ``np.unique`` loads it): a fresh process that runs them has none of
    its modules loaded."""
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import sys, wsdalg\n"
            "from wsdalg import suites, closure as cl\n"
            "out = suites.run_suites(['relations', 'table1', 'bases', 'appendix', 'structure'])\n"
            "assert all(r['pass'] for r in out['results'].values())\n"
            "assert cl.lie_closure(blocks=(3,), field='exact').dim == 15\n"
            "assert cl.lie_closure(cl.EVEN_GENERATOR_NAMES, field='exact').dim == 15\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
    assert out.stdout.strip() == "[]"


def test_modular_path_imports_no_numpy_ma(tmp_path):
    """The modular path never imports ``numpy.ma`` either: a fresh process
    that runs a hw0 modular closure on both fields, saves and reloads each
    state, and reads its supertrace residues and a membership has none of
    its modules loaded."""
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import sys, wsdalg\n"
            "from wsdalg import closure as cl\n"
            "for field in ('modular', 'modular-complex'):\n"
            "    st = cl.lie_closure(blocks=(0,), field=field)\n"
            "    assert st.dim == 1599, st.dim\n"
            "    st.save(field + '.npz')\n"
            "    loaded = cl.load_state(field + '.npz')\n"
            "    assert loaded.supertrace_residues() == 0.0\n"
            "    g = cl.default_algebra().generator('iL1')\n"
            "    assert loaded.contains(cl.RestrictedOperator({0: g.block(0)}, g.parity))\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
    assert out.stdout.strip() == "[]"


def _traced_peak(tmp_path, layout: str, run: str) -> int:
    """The traced heap peak, in bytes, of the statements ``run`` in a fresh
    process, the generators restricted and the layout ``layout`` (an
    expression) built before ``tracemalloc`` starts."""
    import subprocess

    root = Path(__file__).resolve().parent.parent
    code = ("import tracemalloc\n"
            "from wsdalg import closure as cl\n"
            "cl.default_algebra().generators()\n"
            f"{layout}\n"
            "tracemalloc.start()\n"
            f"{run}\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
    return int(out.stdout)


def test_hw0_closure_heap_peak(tmp_path):
    """A real hw0 modular closure, in a fresh process with the generators
    restricted and the layout's class tables built beforehand, peaks at no
    more than 2.8 MiB of traced heap (its peak before the generator table
    and the COO frontier)."""
    run = "assert cl.lie_closure(blocks=(0,)).dim == 1599"
    assert _traced_peak(tmp_path, "cl.FlatLayout((0,))", run) <= 2.8 * 2**20


def test_exact_even_closure_heap_peak(tmp_path):
    """The exact even closure on the full layout, in a fresh process with
    the generators restricted and the layout's class tables built
    beforehand, peaks at no more than 1.0 MiB of traced heap (0.87 MiB
    measured): its generator table's keys are built block by block for
    this closure alone, where a whole-layout build of them in int64 peaked
    at 1.35 MiB."""
    run = ("st = cl.lie_closure(cl.EVEN_GENERATOR_NAMES, field='exact')\n"
           "assert st.pivot_hash() == 'fd2dcc1c795c5fbe', st.pivot_hash()")
    assert _traced_peak(tmp_path, "cl.FlatLayout()", run) <= 1.0 * 2**20


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
    """An exact state's pivots are its echelons' keys, class by class and
    in increasing order within a class, as a modular state of the same
    generators and blocks lists them: the two have equal pivots and
    parities.  Each row's parity, read off its pivot, is that of every
    coordinate the row touches (odd exactly on the off-diagonal
    sub-blocks), and a state built from the layout and the pivots alone
    reports the same."""
    st = lie_closure(generators, field="exact", blocks=blocks, ralg=ralg)
    echelons = st._engine.echelons
    assert st.pivots == [p for t in sorted(echelons) for p in sorted(echelons[t].rows)]
    classes = st.layout.coord_class[st.pivots]
    assert np.all(np.diff(classes) >= 0)
    assert all(a < b for a, b, x, y in zip(st.pivots, st.pivots[1:], classes, classes[1:])
               if x == y)
    modular = lie_closure(generators, field="modular", blocks=blocks, ralg=ralg)
    assert (st.pivots, st.parities) == (modular.pivots, modular.parities)
    par = _parity_split(st.layout)
    assert st.parities == par[st.pivots].tolist()
    for p, row in ((p, row) for ech in echelons.values() for p, row in ech.rows.items()):
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
        assert st.contains(rop) is want
        assert loaded.contains(rop) is want


def test_empty_class_component_rejected(ralg):
    """The odd generators vanish on the smallest block, so its odd classes
    hold no rows: a component there is never a member, on the modular and
    on the exact field (where such a class has no echelon at all)."""
    odd = cl.RestrictedOperator({3: {(0, 4): GaussRational(1)}}, 1)
    rop = ralg.generator("iL1")
    member = cl.RestrictedOperator({3: {**rop.block(3), (0, 4): GaussRational(1)}}, 0)
    for field in ("modular", "exact"):
        st = lie_closure(blocks=(3,), field=field, ralg=ralg)
        contains = st.contains
        t = _operator_class(st.layout, odd)
        listed = st._engine.echelons if field == "exact" else st._engine.listing()[0]
        assert t is not None and t not in listed
        assert not contains(odd)
        assert contains(cl.RestrictedOperator({3: rop.block(3)}, 0))
        assert not contains(member)


def _dense_contains(state, rop) -> bool:
    """Membership by a dense reference: rop's flat vector from the
    cell-by-cell walk (``_reference_coordinates``), a ``balanced_residue``
    per part, and each class the nonzero residues touch reduced on its
    slice of the whole vector and balanced mod p.  On the exact field,
    each class's part must lie in the Fraction ``SparseEchelon`` of that
    class's echelon rows."""
    if not state._on_layout(rop):
        return False
    eng, layout, p = state._engine, state.layout, state.prime
    if state.field == "exact":
        parts = {}
        for f, v in _reference_coordinates(layout, rop).items():
            parts.setdefault(int(layout.coord_class[f]), {})[f] = v
        for t, part in parts.items():
            ref, ech = SparseEchelon(), eng.echelons.get(t)
            for row in ech.basis.values() if ech else ():
                ref.insert(row)
            if not ref.contains(part):
                return False
        return True
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
    answers = [states[field].contains(rop) for field, rop, _ in queries]
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
                assert st.contains(query) is want
                assert _dense_contains(st, query) is want


@pytest.mark.parametrize("field", ["modular", "modular-complex", "exact"])
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
        assert st.contains(zero) and _dense_contains(st, zero)
    layout = st.layout
    listed = set(layout.coord_class[st.pivots].tolist())
    rowless = [t for t in range(len(layout.class_width)) if t not in listed]
    assert set(np.flatnonzero(layout.class_parity)) <= set(rowless)
    for t in rowless[:1] + [t for t in rowless if not layout.class_parity[t]][:1]:
        k, r, c, m = (int(a[0]) for a in layout.places(layout.class_indices[t][:1]))
        lone = {(r, c): I if m else GaussRational(1)}
        member = ralg.generator("iL0").block(0)
        for blk in (lone, {**member, **lone}):
            query = cl.RestrictedOperator({0: blk}, int(layout.class_parity[t]))
            assert not st.contains(query) and not _dense_contains(st, query)
    assert st.contains(cl.RestrictedOperator({0: member}, 0))


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
        st.contains(cl.RestrictedOperator({3: {(0, 0): GaussRational(Fraction(1, 13))}}, 0))


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
    layout: its one row is 1 at the pivot, the (0, 0) entry of hw3.  A
    diagonal entry of the odd half counts with the opposite sign: E00 +
    E44 reads 0 and E00 - E44 reads 2, on hw3 alone, and on hw3 after
    block 0, whose offset moves every coordinate; and E00 +- E(20,20) on
    hw0 reads 0 and 2 on its larger halves."""
    for blocks, k, diag, want in [
        ((3,), 3, {(0, 0): 1}, 1.0),
        ((3,), 3, {(0, 0): 1, (4, 4): 1}, 0.0),
        ((3,), 3, {(0, 0): 1, (4, 4): -1}, 2.0),
        ((0, 3), 3, {(0, 0): 1, (4, 4): 1}, 0.0),
        ((0, 3), 3, {(0, 0): 1, (4, 4): -1}, 2.0),
        ((0,), 0, {(0, 0): 1, (20, 20): 1}, 0.0),
        ((0,), 0, {(0, 0): 1, (20, 20): -1}, 2.0),
    ]:
        g = cl.RestrictedOperator({k: {rc: unit * v for rc, v in diag.items()}}, 0)
        st = lie_closure([g], field=field, blocks=blocks, ralg=ralg)
        assert st.dim == 1
        assert st.supertrace_residues() == want, (blocks, diag)


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
        assert st.contains(cl.RestrictedOperator({3: rop.block(3)}, rop.parity))
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
    of the classes, and every class must match a plain elimination.  The
    rows returned for each slot are the rows it gained, as stored."""
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
        slots, V, gained = ech.insert_batch(ech.reduce_rows(C, sel), sel)
        assert set(slots.tolist()) <= set(sel.tolist()) and np.all(gained > 0)
        added = dict(zip(slots.tolist(), gained.tolist()))
        for k, batch in zip(sel, batches):
            want = _rank_mod_p(inputs[k] + list(batch), p) - _rank_mod_p(inputs[k], p)
            new = range(before[k], ech.nrows[k])
            assert added.get(int(k), 0) == len(new) == want
            assert np.all(np.diff(ech.pivots[k, new.start : new.stop]) > 0)
            inputs[k].extend(batch)
        for i, (k, n) in enumerate(zip(slots, gained)):
            assert np.array_equal(V[i, :n], ech.B[k, before[k] : ech.nrows[k]])
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
    """A run on either field times its ad_g set-up and its bracket, reduce
    and insert phases (the exact engine books its echelon work as insert);
    the closure suite records them in meta, never in results."""
    st = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    assert set(st.phases) == {"adjoint_s", "bracket_s", "reduce_s", "insert_s"}
    assert all(v > 0 for v in st.phases.values())
    assert sum(st.phases.values()) <= st.wall_s
    assert "phases" not in st.report()
    exact = lie_closure(blocks=(3,), field="exact", ralg=ralg)
    assert set(exact.phases) == set(st.phases) and exact.phases["insert_s"] > 0
    assert sum(exact.phases.values()) <= exact.wall_s
    for field in ("modular", "exact"):
        out = suites._SUITES["closure"]({"blocks": (3,), "field": field})
        meta = out.pop("_meta")
        assert set(meta["phase_s"]) == set(meta["wall_s"]) == set(meta["levels"])
        for key, phases in meta["phase_s"].items():
            assert set(phases) == {"adjoint_s", "bracket_s", "reduce_s", "insert_s"}
            assert sum(phases.values()) <= meta["wall_s"][key] + 0.002  # both rounded to ms
        assert "phase_s" not in repr(out)


@pytest.mark.parametrize("generators,blocks", [
    (ops.GENERATOR_NAMES, (3,)),
    (EVEN_GENERATOR_NAMES, (0, 1, 2, 3)),
    (ops.GENERATOR_NAMES, (0,)),
], ids=["hw3", "even", "hw0"])
def test_exact_levels_and_progress_match_modular(ralg, generators, blocks):
    """Both fields run one level loop, so an exact closure takes as many
    levels as a modular one and reports the same progress, call for call:
    (level, dim, brackets, frontier), the last with frontier 0."""
    seen = {}
    for field in ("exact", "modular"):
        calls = seen[field] = []
        st = lie_closure(generators, field=field, blocks=blocks, ralg=ralg,
                         progress=lambda *a, calls=calls: calls.append(a))
        assert st.levels == len(calls) > 0 and calls[-1] == (st.levels, st.dim, st.brackets, 0)
    assert seen["exact"] == seen["modular"]


def test_hw0_level_bookkeeping(monkeypatch, ralg):
    """The candidate stacks are planned once for the generators and once
    per level.  A level asks, per target class, for the frontier size of
    each source class (the rows of its COO frontier) times the channels
    from that source to the target, the channels read off the generators'
    ad_g entries."""
    calls, frontiers = [], []
    stacks, process = cl._ModularEngine.stacks, cl._ModularEngine.process_batch
    monkeypatch.setattr(cl._ModularEngine, "stacks", lambda self, counts:
                        calls.append(counts.copy()) or stacks(self, counts))
    monkeypatch.setattr(cl._ModularEngine, "process_batch", lambda self, s, phases:
                        frontiers.append(process(self, s, phases)) or frontiers[-1])
    st = lie_closure(blocks=(0,), field="modular", ralg=ralg)
    assert st.pivot_hash() == HW0_HASHES["modular"]
    assert len(calls) == st.levels + 1 == len(frontiers) and not frontiers[-1][0].size
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
        cls, row = frontier[:2]
        size = np.zeros(nclasses, dtype=np.int64)
        np.maximum.at(size, cls, row + 1)
        assert np.array_equal(counts, size @ links)


@pytest.mark.parametrize("generators,blocks,argument", [
    ([], (3,), "generators"),
    (cl.GENERATOR_NAMES, (), "blocks"),
    (cl.GENERATOR_NAMES, (4,), "blocks"),
    (cl.GENERATOR_NAMES, (3, 3), "blocks"),
    (cl.GENERATOR_NAMES, (3, 0), "blocks"),
    (cl.GENERATOR_NAMES, (3,), "prime"),
    (cl.GENERATOR_NAMES, (-1,), "blocks"),
    (["iL9"], (3,), "generators"),
    ("iL0", (3,), "generators"),
    (cl.GENERATOR_NAMES, (0.0,), "blocks"),
    (cl.GENERATOR_NAMES, (True,), "blocks"),
])
def test_lie_closure_rejects_bad_arguments(ralg, generators, blocks, argument):
    """No generators, an unknown generator name, a single name in place of
    a sequence, and blocks that are not a non-empty strictly increasing
    tuple of integers drawn from 0..3 (a float or a bool is none), are
    rejected before any work; so is a prime on the exact field, which has
    none."""
    exact = {"prime": {"prime": 7}}.get(argument)
    with pytest.raises(ValueError, match=f"^{argument}"):
        lie_closure(generators, field="exact" if exact else "modular", blocks=blocks, ralg=ralg,
                    **(exact or {}))
