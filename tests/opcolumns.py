"""Operator entries as columns, a cell-by-cell reference for products
and brackets of {(r, c): v} blocks, the shift class of a flat support,
and the closure's bracket kernel on one class's rows, for tests that read
or edit them."""

import numpy as np

from wsdalg.closure import RestrictedOperator, _bracket_rows
from wsdalg.scalars import GaussRational, ZERO, _make


def columns(op) -> dict[int, dict[int, GaussRational]]:
    """{input mask: {output mask: coeff}} built from op's coordinate view,
    with the stored components as they are (no coercion), so canonical
    form and component types stay visible to the caller."""
    v = op.coords()
    out: dict[int, dict[int, GaussRational]] = {}
    for r, c, x, y in zip(v.rows.tolist(), v.cols.tolist(), v.re.tolist(), v.im.tolist()):
        out.setdefault(c, {})[r] = _make(x, y)
    return out


def ref_product(a: dict, b: dict) -> dict:
    """The matrix product ab of two {(r, c): v} blocks, cell by cell: each
    entry of b meets the entries of a whose column is its row."""
    by_col: dict = {}
    for (r, mid), w in a.items():
        by_col.setdefault(mid, []).append((r, w))
    out: dict = {}
    for (mid, c), v in b.items():
        for r, w in by_col.get(mid, ()):
            out[(r, c)] = out.get((r, c), ZERO) + w * v
    return out


def ref_sum(*terms) -> dict:
    """Cell-by-cell sum of s * x over the (s, x) terms, zeros dropped."""
    out: dict = {}
    for s, x in terms:
        for key, v in x.items():
            out[key] = out.get(key, ZERO) + v * s
    return {key: v for key, v in out.items() if v}


def rop_bracket(x: RestrictedOperator, y: RestrictedOperator, blocks) -> RestrictedOperator:
    """[x, y] = xy - (-1)^{|x||y|} yx of two restricted operators on the
    given blocks, block by block from ``ref_product`` and ``ref_sum``."""
    sign = 1 if (x.parity and y.parity) else -1
    return RestrictedOperator({k: ref_sum((1, ref_product(x.block(k), y.block(k))),
                                          (sign, ref_product(y.block(k), x.block(k))))
                               for k in blocks}, (x.parity + y.parity) & 1)


def support_class(layout, coords):
    """Class of the flat coordinates ``coords`` on the layout (None when
    there are none); raises ValueError when they span several classes."""
    classes = set(layout.coord_class[coords].tolist())
    if len(classes) > 1:
        raise ValueError("operator is not homogeneous in the multidegree-shift grading")
    return classes.pop() if classes else None


def kernel_bracket(layout, table, d, X) -> dict:
    """[g, x] for each row x of the stack X (class-local rows of class d)
    and each generator g of the generator table ``table`` with a channel
    from d, through the closure's kernel ``_bracket_rows``, each channel's
    rows in a block of their own: {generator index: (target class, rows)},
    the rows exact unreduced sums."""
    target = table.target[d]
    gens = np.flatnonzero(target >= 0)
    width = layout.class_width[target[gens]]
    base = np.cumsum(len(X) * width) - len(X) * width
    r, c = np.nonzero(X)
    frontier = (np.full(len(r), d, dtype=np.int32), r.astype(np.int32),
                layout.class_indices[d][c].astype(np.int32), X[r, c])
    pos, val, _ = _bracket_rows(table, frontier, np.full(len(gens), d), gens, base, width)
    out = np.zeros(int((len(X) * width).sum()))
    np.add.at(out, pos, val)
    return {int(g): (int(target[g]), out[b : b + len(X) * w].reshape(len(X), w))
            for g, b, w in zip(gens, base.tolist(), width.tolist())}
