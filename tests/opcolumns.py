"""Operator entries as columns, for tests that read or edit them."""

from wsdalg.scalars import GaussRational, _make


def columns(op) -> dict[int, dict[int, GaussRational]]:
    """{input mask: {output mask: coeff}} built from op's coordinate view,
    with the stored components as they are (no coercion), so canonical
    form and component types stay visible to the caller."""
    v = op.coords()
    out: dict[int, dict[int, GaussRational]] = {}
    for r, c, x, y in zip(v.rows.tolist(), v.cols.tolist(), v.re.tolist(), v.im.tolist()):
        out.setdefault(c, {})[r] = _make(x, y)
    return out
