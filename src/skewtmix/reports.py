"""Report rows emitted by the command line front end.

Rows serialize to RFC-4180 style CSV (header row, comma separated,
4-decimal values, no locale dependence) or to JSON (full precision; a
JSON report re-parses into identical rows).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

__all__ = ["ReportRow", "rows_to_csv", "rows_to_json", "rows_from_json"]

@dataclass(frozen=True)
class ReportRow:
    case: str
    d: int
    m: int
    dofs: tuple
    alpha: float | str
    lower: float | None = None
    upper: float | None = None
    approx: float | None = None
    half_width: float | None = None
    oracle: float | None = None
    oracle_se: float | None = None
    reference: float | None = None
    abs_diff: float | None = None
    passed: bool | None = None


_FIELDS = tuple(f.name for f in fields(ReportRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDS)
    for row in rows:
        record = asdict(row)
        record["dofs"] = "|".join(f"{v:g}" for v in row.dofs)
        if isinstance(row.alpha, float):
            record["alpha"] = f"{row.alpha:g}"
        writer.writerow([_fmt(record[name]) for name in _FIELDS])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    payload = []
    for row in rows:
        record = asdict(row)
        record["dofs"] = list(row.dofs)
        payload.append(record)
    return json.dumps(payload, indent=2) + "\n"


def rows_from_json(text: str):
    out = []
    for record in json.loads(text):
        record["dofs"] = tuple(record["dofs"])
        out.append(ReportRow(**record))
    return out
