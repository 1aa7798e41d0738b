"""CSV serialization for iteration traces and cost tables.

The trace columns are the fields of ``TraceRow``, in order:

    iter,rnorm_natural,rnorm_true,relerr,nu_used,red_blocking,
    red_overlapped,overlap_tags,breakdown,restarted

Each column is written and read by the codec of its field's type: floats
in shortest round-trip decimal form, booleans as 0/1, absent values as
empty strings, and tag sets as "+"-joined sorted names.
Every writer's output is readable by the matching reader with zero data
loss, and identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from operator import attrgetter
from typing import Optional, Sequence, TextIO, Union, get_type_hints

from .perfmodel import IterationCost
from .solvers import TraceRow

__all__ = [
    "TRACE_COLUMNS",
    "PERFMODEL_COLUMNS",
    "write_trace_csv",
    "read_trace_csv",
    "write_compare_csv",
    "read_compare_csv",
    "write_perfmodel_csv",
    "read_perfmodel_csv",
]


def _fmt_float(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


# (format, parse) of each TraceRow field type
_CODECS = {
    int: (str, int),
    float: (_fmt_float, float),
    Optional[float]: (_fmt_float, lambda text: None if text == "" else float(text)),
    frozenset: (lambda tags: "+".join(sorted(tags)),
                lambda text: frozenset(text.split("+")) if text else frozenset()),
    bool: (lambda flag: "1" if flag else "0", lambda text: text == "1"),
}
_TYPES = get_type_hints(TraceRow)
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))
_FORMATS, _PARSES = zip(*(_CODECS[_TYPES[name]] for name in TRACE_COLUMNS))
_row_values = attrgetter(*TRACE_COLUMNS)
PERFMODEL_COLUMNS = ("nodes", "method", "t_calc", "t_red", "t_total")


def _row_fields(row: TraceRow) -> list[str]:
    return [fmt(value) for fmt, value in zip(_FORMATS, _row_values(row))]


def _parse_row(texts: Sequence[str]) -> TraceRow:
    if len(texts) != len(TRACE_COLUMNS):
        raise ValueError(
            f"trace row has {len(texts)} fields, expected {len(TRACE_COLUMNS)}")
    return TraceRow(*(parse(text) for parse, text in zip(_PARSES, texts)))


def _open_for_write(target: Union[str, TextIO]):
    if isinstance(target, str):
        return open(target, "w", encoding="utf-8", newline=""), True
    return target, False


def _write_lines(target: Union[str, TextIO], lines: list[str]) -> None:
    handle, owned = _open_for_write(target)
    try:
        handle.write("\n".join(lines) + "\n")
    finally:
        if owned:
            handle.close()


def _data_rows(path: str) -> list[list[str]]:
    """All CSV rows except blank lines and # comments, header included."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = []
        for fields in csv.reader(handle):
            if not fields:
                continue
            if fields[0].lstrip().startswith("#"):
                continue
            rows.append(fields)
    return rows


def _comment_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle
                if line.lstrip().startswith("#")]


def write_trace_csv(target: Union[str, TextIO], trace: Sequence[TraceRow]) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    lines.extend(",".join(_row_fields(row)) for row in trace)
    _write_lines(target, lines)


def read_trace_csv(path: str) -> list[TraceRow]:
    rows = _data_rows(path)
    if not rows or rows[0] != list(TRACE_COLUMNS):
        raise ValueError(f"{path!r} does not start with the trace header")
    return [_parse_row(fields) for fields in rows[1:]]


def write_compare_csv(target: Union[str, TextIO],
                      runs: Sequence[tuple[str, Sequence[TraceRow]]]) -> None:
    """Long-format trace table: a method column plus the trace columns."""
    lines = [",".join(("method",) + TRACE_COLUMNS)]
    for method, trace in runs:
        for row in trace:
            lines.append(",".join([method] + _row_fields(row)))
    _write_lines(target, lines)


def read_compare_csv(path: str) -> list[tuple[str, list[TraceRow]]]:
    rows = _data_rows(path)
    if not rows or rows[0] != ["method"] + list(TRACE_COLUMNS):
        raise ValueError(f"{path!r} does not start with the comparison header")
    runs: list[tuple[str, list[TraceRow]]] = []
    for fields in rows[1:]:
        method = fields[0]
        if not runs or runs[-1][0] != method:
            runs.append((method, []))
        runs[-1][1].append(_parse_row(fields[1:]))
    return runs


def write_perfmodel_csv(target: Union[str, TextIO],
                        costs: Sequence[IterationCost],
                        notes: Sequence[str] = ()) -> None:
    """Cost table plus optional report lines appended as # comments."""
    lines = [",".join(PERFMODEL_COLUMNS)]
    for cost in costs:
        lines.append(",".join([
            str(cost.nodes),
            cost.method,
            repr(cost.t_calc),
            repr(cost.t_red),
            repr(cost.t_total),
        ]))
    lines.extend(f"# {note}" for note in notes)
    _write_lines(target, lines)


def read_perfmodel_csv(path: str) -> tuple[list[IterationCost], list[str]]:
    """Returns the cost rows and any # report lines (stripped of the #)."""
    rows = _data_rows(path)
    if not rows or rows[0] != list(PERFMODEL_COLUMNS):
        raise ValueError(f"{path!r} does not start with the cost-table header")
    costs = []
    for fields in rows[1:]:
        if len(fields) != len(PERFMODEL_COLUMNS):
            raise ValueError(
                f"cost row has {len(fields)} fields, expected {len(PERFMODEL_COLUMNS)}")
        nodes, method, calc, red, total = fields
        cost = IterationCost(method=method, nodes=int(nodes),
                             t_calc=float(calc), t_red=float(red))
        if float(total) != cost.t_total:
            raise ValueError(f"inconsistent t_total in row {fields!r}")
        costs.append(cost)
    notes = [line.lstrip()[1:].strip() for line in _comment_lines(path)]
    return costs, notes
