"""The one writer for every CSV and JSON file the package emits.

CSV files open with ``#`` comment lines naming the package version, the
producing command or function, the parameters of the run and the numerical
tolerances in force; the column row and the data rows follow.  JSON files
and the JSON the command line prints are sorted, indented objects carrying
``version`` and ``kind`` keys.  Nothing written carries timestamps or host
information, so identical runs produce bit-identical files.  Both writers
create the parent directory of the file they write.  :func:`record_dict`
turns a report record into the plain mapping the JSON writer takes.
"""
from __future__ import annotations

import csv
import dataclasses
import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

from ._version import __version__

__all__ = [
    "format_value",
    "reproducibility_header",
    "write_csv",
    "json_text",
    "write_json",
    "record_dict",
]


def format_value(value: object) -> str:
    """Render a parameter value deterministically for a header line."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def reproducibility_header(
    kind: str,
    parameters: Mapping[str, object] | None = None,
    tolerances: Mapping[str, object] | None = None,
    extra: Iterable[str] = (),
) -> list[str]:
    """Build the comment block that opens an output file.

    ``kind`` names what the file holds (e.g. ``solution-snapshot``).  All
    lines start with ``#`` so CSV readers can skip them.
    """
    lines = [f"# subdiff {__version__} {kind}"]
    for key, value in (parameters or {}).items():
        lines.append(f"# {key} = {format_value(value)}")
    for key, value in (tolerances or {}).items():
        lines.append(f"# tolerance:{key} = {format_value(value)}")
    lines.extend(extra)
    return lines


def write_csv(
    path: "str | Path",
    header_lines: Iterable[str],
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Write the header lines, the column row, then one line per row.

    Lines end in ``\\n``.  Floats, numpy's included, are written with
    ``repr``: the shortest text that reads back to the same value.  Other
    fields are written as ``str`` gives them.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    # the builtin open (not Path.write_text), so a caller that shadows
    # ``open`` in this module sees every output file
    with open(path, "w", newline="") as handle:
        for line in header_lines:
            handle.write(line + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def json_text(kind: str, payload: Mapping[str, object]) -> str:
    """The payload as sorted, indented JSON with ``version`` and ``kind`` keys."""
    return json.dumps(
        {"version": __version__, "kind": kind, **payload}, indent=2, sort_keys=True
    )


def write_json(path: "str | Path", kind: str, payload: Mapping[str, object]) -> None:
    """Write :func:`json_text` plus a trailing newline."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json_text(kind, payload) + "\n")


def record_dict(
    record: object, omit: Iterable[str] = (), rename: Mapping[str, str] | None = None
) -> dict:
    """A dataclass record's fields as a dict, in field order.

    Arrays become lists and numpy scalars Python numbers; the ``omit``
    fields are left out, and ``rename`` maps a field name to the key it is
    written under.
    """
    rename = rename or {}
    return {
        rename.get(f.name, f.name): _plain(getattr(record, f.name))
        for f in dataclasses.fields(record)
        if f.name not in omit
    }


def _plain(value: object) -> object:
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
