"""Tabular emission for offline plotting (CSV / JSON lines).

The column set is fixed so downstream tooling can rely on it:

    omega_rads, omega_over_gamma, n, k_x, epr_variance, S_db, eof,
    log_negativity, model, flags

The ``verify`` command appends one relative-deviation column per comparison
model after ``flags``.  Floats are serialized with 17 significant digits
(binary64 round-trip exact); identical inputs produce byte-identical files.
Missing values are ``nan`` in CSV and ``null`` in JSON lines.
"""

from __future__ import annotations

import json
import math

BASE_COLUMNS = (
    "omega_rads", "omega_over_gamma", "n", "k_x", "epr_variance",
    "S_db", "eof", "log_negativity", "model", "flags",
)


def _fmt_value(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, (int, float)):
        return f"{float(value):.17g}"
    return str(value)


def _json_value(value):
    if value is None:
        return None
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None
        return float(f"{value:.17g}")
    return value


def _csv_column(values: list) -> tuple[str, list]:
    """The ``%`` spec of one CSV column and the values it formats.

    A column of floats (missing ones included, as NaN) goes through
    ``%.17g`` as it is; any other column is formatted cell by cell.
    """
    types = set(map(type, values))
    if types == {float}:
        return "%.17g", values
    if types <= {float, type(None)}:
        return "%.17g", [math.nan if v is None else v for v in values]
    return "%s", [_fmt_value(v) for v in values]


def _json_column(values: list) -> tuple[str, list]:
    """The ``%`` spec of one JSON-lines column and the values it formats.

    A column of floats is written with ``float.__repr__``, as ``json.dumps``
    writes a float, and NaN or inf as ``null``; a column of strings encodes
    each distinct string once; any other column is encoded cell by cell.
    """
    types = set(map(type, values))
    if types == {float}:
        if all(map(math.isfinite, values)):
            return "%r", values
        return "%s", [repr(v) if math.isfinite(v) else "null" for v in values]
    if types == {str}:
        encoded = {v: json.dumps(v) for v in set(values)}
        return "%s", [encoded[v] for v in values]
    return "%s", [json.dumps(_json_value(v), separators=(",", ":")) for v in values]


def render_rows(rows, fmt: str, columns=BASE_COLUMNS) -> str:
    """Render rows (mappings) to the requested format as a single string.

    Each column's type is checked once over all rows, and every row is
    then formatted with one ``%`` template.
    """
    rows = list(rows)
    if fmt == "csv":
        specs, cells = _columns(rows, columns, _csv_column)
        template = ",".join(specs)
        lines = [",".join(columns)] + [template % values for values in cells]
        return "\n".join(lines) + "\n"
    if fmt == "jsonlines":
        columns = list(dict.fromkeys(columns))   # a repeated key is written once, as by a dict
        specs, cells = _columns(rows, columns, _json_column)
        template = "{" + ",".join(json.dumps(col).replace("%", "%%") + ":" + spec
                                  for col, spec in zip(columns, specs)) + "}"
        lines = [template % values for values in cells]
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown format {fmt!r}")


def _columns(rows, columns, encode):
    """Each column's spec from ``encode`` and, per row, the tuple of its values."""
    encoded = [encode([row.get(col) for row in rows]) for col in columns]
    specs = [spec for spec, _ in encoded]
    if not encoded:
        return specs, [()] * len(rows)
    return specs, zip(*(values for _, values in encoded))


def emit_rows(rows, fmt: str, path: str | None, columns=BASE_COLUMNS) -> str:
    """Write rows to ``path`` (or return only) in the requested format.

    Returns the rendered text so callers can also print it.
    """
    text = render_rows(list(rows), fmt, columns)
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text


def read_jsonlines(text: str) -> list[dict]:
    """Parse JSON-lines output back into row dictionaries."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]
