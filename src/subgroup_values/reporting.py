"""Report rows and deterministic emission in CSV, JSON, or text."""

import csv
import io
import json
from fractions import Fraction
from typing import NamedTuple

STATUS_OK = "ok"
STATUS_WINDOW_EMPTY = "window-empty"
STATUS_PERFECT_POWER = "perfect-power"
STATUS_ERROR = "error"


class ReportRow(NamedTuple):
    p: int
    d: int | None
    e: int | None
    H: int
    T: int
    u: int
    N: int | None
    bound: float | None
    ratio: float | None
    lambda_count: int | None
    status: str
    error: str = ""

    def sort_key(self):
        return (self.p, self.d if self.d is not None else -1,
                self.e if self.e is not None else -1, self.H, self.T, self.u)


def format_value(v) -> str:
    """Canonical text for one cell: rationals as num/den, reals with 12
    significant digits, None blank."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_value(v):
    """A cell as JSON: rationals as "num/den", reals rounded like format_value."""
    if isinstance(v, Fraction):
        return format_value(v)
    if isinstance(v, float):
        return float(format_value(v))
    return v


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def emit_report(rows, fmt: str = "csv", path: str | None = None) -> str:
    """Render `ReportRow`s in the chosen format, one column per field in
    field order; write to path when given.

    Identical rows yield byte-identical output.
    """
    fields = ReportRow._fields
    if fmt == "csv":
        text = _csv_text(fields, ([format_value(v) for v in row] for row in rows))
    elif fmt == "json":
        out = [{k: _json_value(v) for k, v in zip(fields, row)} for row in rows]
        text = json.dumps(out, indent=2) + "\n"
    elif fmt == "text":
        lines = (" ".join(f"{k}={format_value(v)}" for k, v in zip(fields, row)) for row in rows)
        text = "".join(line + "\n" for line in lines)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def mapping_to_output(pairs, fmt: str) -> str:
    """Render an ordered list of (key, value) pairs for the simple subcommands."""
    if fmt == "json":
        return json.dumps({k: _json_value(v) for k, v in pairs}, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text([k for k, _ in pairs], [[format_value(v) for _, v in pairs]])
    if fmt == "text":
        return "".join(f"{k} = {format_value(v)}\n" for k, v in pairs)
    raise ValueError(f"unknown format {fmt!r}")
