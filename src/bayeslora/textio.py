"""The one byte format of every file bayeslora writes.

Files are ASCII lines joined by newlines, with a trailing newline.  A CSV
cell prints a ``str`` as given and any other value with ``repr``, so a
float reads back exactly; JSON has sorted keys and an indent of 2.  The
same values therefore always give the same bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

__all__ = ["write_lines", "write_csv", "to_json", "write_json"]


def write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A header line of column names, then one line per row."""
    cells = (",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows)
    write_lines(path, [",".join(header), *cells])


def to_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def write_json(path: str, payload) -> None:
    write_lines(path, [to_json(payload)])
