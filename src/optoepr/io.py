"""Tabular emission for offline plotting (CSV / JSON lines).

The column set is fixed so downstream tooling can rely on it:

    omega_rads, omega_over_gamma, n, k_x, epr_variance, S_db, eof,
    log_negativity, model, flags

The ``verify`` command appends one relative-deviation column per comparison
model after ``flags``.  A row is a tuple in column order whose cells are
floats (NaN where a value is missing) or strings; each column holds one of
the two.  Floats are serialized with 17 significant digits (binary64
round-trip exact); identical inputs produce byte-identical files.  Missing
values are ``nan`` in CSV and ``null`` in JSON lines.  A table may be
written block by block (:func:`write_rows`), giving the same bytes as the
whole table rendered at once.
"""

from __future__ import annotations

import json
import math

BASE_COLUMNS = (
    "omega_rads", "omega_over_gamma", "n", "k_x", "epr_variance",
    "S_db", "eof", "log_negativity", "model", "flags",
)


def _column_type(name: str, values: tuple, kind: type | None = None) -> type:
    """``float`` or ``str``, the one type of every cell of a column; TypeError otherwise.

    ``kind``, if given, is the column's type in the table's earlier rows, and
    the cells must be of it.
    """
    types = set(map(type, values))
    if kind is not None:
        if types <= {kind}:
            return kind
        expected = f"only {kind.__name__}, as in the table's first block"
    elif types <= {float}:
        return float
    elif types == {str}:
        return str
    else:
        expected = "only float or only str"
    raise TypeError(f"column {name!r} holds {sorted(t.__name__ for t in types)}, "
                    f"expected {expected}")


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


def render_rows(rows, fmt: str, columns=BASE_COLUMNS, kinds=None) -> str:
    """Render rows (tuples in ``columns`` order) to the requested format as a single string.

    The rows are transposed once to type each column, and every row is
    then formatted with one ``%`` template.  Raises TypeError for a column
    that is not all floats or all strings, ValueError for a row of
    another length.

    ``kinds`` (one type per column) continues a table whose earlier rows
    have those column types: the rows are rendered without the CSV header,
    and a column holding a cell of another type raises TypeError.
    """
    rows = list(rows)
    if not set(map(len, rows)) <= {len(columns)}:
        raise ValueError(f"every row must have one cell per column of {columns!r}")
    cells = list(zip(*rows)) or [()] * len(columns)
    header = [] if kinds else [",".join(columns)]
    kinds = list(map(_column_type, columns, cells, kinds or [None] * len(columns)))
    if fmt == "csv":
        template = ",".join("%.17g" if kind is float else "%s" for kind in kinds)
        lines = header + [template % row for row in rows]
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "jsonlines":
        encoded = list(map(_json_column, cells, kinds))
        template = "{" + ",".join(json.dumps(col).replace("%", "%%") + ":" + spec
                                  for col, (spec, _) in zip(columns, encoded)) + "}"
        lines = [template % row for row in zip(*(values for _, values in encoded))]
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown format {fmt!r}")


def write_rows(handle, blocks, fmt: str, columns=BASE_COLUMNS) -> None:
    """Write a table given as blocks of rows to ``handle``, each block as
    :func:`render_rows` formats it, so that only one block's rows and text
    are held at a time.

    The bytes equal those of the whole table rendered at once.  The first
    block that holds rows writes the CSV header and fixes each column's
    type; a later block with a column of another type raises TypeError
    before any of its text is written.
    """
    kinds = None
    for rows in blocks:
        rows = list(rows)
        if rows:
            handle.write(render_rows(rows, fmt, columns, kinds))
            kinds = kinds or list(map(_column_type, columns, zip(*rows)))
    if kinds is None:   # a table without rows: the CSV header alone
        handle.write(render_rows([], fmt, columns))


def read_jsonlines(text: str) -> list[dict]:
    """Parse JSON-lines output back into row dictionaries."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]
