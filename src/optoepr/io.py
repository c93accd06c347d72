"""Tabular emission for offline plotting (CSV / JSON lines).

The column set is fixed so downstream tooling can rely on it:

    omega_rads, omega_over_gamma, n, k_x, epr_variance, S_db, eof,
    log_negativity, model, flags

The ``verify`` command appends one relative-deviation column per comparison
model after ``flags``.  A row is a tuple in column order whose cells are
floats (NaN where a value is missing) or strings; each column holds one of
the two.  Floats are serialized with 17 significant digits (binary64
round-trip exact); identical inputs produce byte-identical files.  Missing
values are ``nan`` in CSV and ``null`` in JSON lines.
"""

from __future__ import annotations

import json
import math

BASE_COLUMNS = (
    "omega_rads", "omega_over_gamma", "n", "k_x", "epr_variance",
    "S_db", "eof", "log_negativity", "model", "flags",
)


def _column_type(name: str, values: tuple) -> type:
    """``float`` or ``str``, the one type of every cell of a column; TypeError otherwise."""
    types = set(map(type, values))
    if types <= {float}:
        return float
    if types == {str}:
        return str
    raise TypeError(f"column {name!r} holds {sorted(t.__name__ for t in types)}, "
                    "expected only float or only str")


def _json_column(values: tuple, kind: type) -> tuple[str, tuple | list]:
    """The ``%`` spec of one JSON-lines column and the values it formats.

    Floats are written with ``float.__repr__``, as ``json.dumps`` writes a
    float, and NaN or inf as ``null``; each distinct string is encoded once.
    """
    if kind is str:
        encoded = {v: json.dumps(v) for v in set(values)}
        return "%s", [encoded[v] for v in values]
    if all(map(math.isfinite, values)):
        return "%r", values
    return "%s", [repr(v) if math.isfinite(v) else "null" for v in values]


def render_rows(rows, fmt: str, columns=BASE_COLUMNS) -> str:
    """Render rows (tuples in ``columns`` order) to the requested format as a single string.

    The rows are transposed once to type each column, and every row is
    then formatted with one ``%`` template.  Raises TypeError for a column
    that is not all floats or all strings, ValueError for a row of
    another length.
    """
    rows = list(rows)
    if not set(map(len, rows)) <= {len(columns)}:
        raise ValueError(f"every row must have one cell per column of {columns!r}")
    cells = list(zip(*rows)) or [()] * len(columns)
    kinds = [_column_type(col, values) for col, values in zip(columns, cells)]
    if fmt == "csv":
        template = ",".join("%.17g" if kind is float else "%s" for kind in kinds)
        return "\n".join([",".join(columns)] + [template % row for row in rows]) + "\n"
    if fmt == "jsonlines":
        encoded = list(map(_json_column, cells, kinds))
        template = "{" + ",".join(json.dumps(col).replace("%", "%%") + ":" + spec
                                  for col, (spec, _) in zip(columns, encoded)) + "}"
        lines = [template % row for row in zip(*(values for _, values in encoded))]
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown format {fmt!r}")


def read_jsonlines(text: str) -> list[dict]:
    """Parse JSON-lines output back into row dictionaries."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]
