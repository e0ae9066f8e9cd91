"""The toolkit's two text syntaxes, each with one reader.

Flat ``key = value`` documents with # comments (parse_kv, numbers) hold
config and calibration files; CSV tables with a header line (read_table)
hold labels, detections, power traces and latency tables. The readers
that build typed objects live beside their types, e.g.
pipeline.pipeline_from_config, geometry.load_calibration and
labels.load_labels_csv.
"""

from __future__ import annotations

import contextlib
import csv
import math
from typing import IO, Callable, ContextManager, Dict, List, Sequence, Union

from .errors import BadRow, ConfigInvalid, MissingField


def parse_kv(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def numbers(values: Dict[str, str], key: str, n: int, kind: Callable = float) -> List:
    """The n finite values of key, read with kind; MissingField or ConfigInvalid if not."""
    if key not in values:
        raise MissingField(f"missing key {key!r}")
    parts = values[key].split()
    if len(parts) != n:
        raise ConfigInvalid(f"{key}: expected {n} values, got {len(parts)}")
    try:
        out = [kind(v) for v in parts]
    except ValueError:
        raise ConfigInvalid(f"{key}: expected {kind.__name__} values, got {values[key]!r}") from None
    if not all(math.isfinite(v) for v in out):
        raise ConfigInvalid(f"{key}: values must be finite, got {values[key]!r}")
    return out


def open_text(f: Union[str, IO[str]], mode: str = "r") -> ContextManager[IO[str]]:
    """A path opened for CSV (newline=""), or an open file left open on exit."""
    return open(f, mode, newline="") if isinstance(f, str) else contextlib.nullcontext(f)


def read_table(f: Union[str, IO[str]], columns: Sequence[str], row: Callable) -> list:
    """row(*fields) for each non-blank line of a CSV table, fields in `columns` order.

    The header names the columns; they may come in any order, extra ones are
    ignored, and an empty input is an empty table. A missing column, a short
    line, a line the csv module cannot split, or one that row() rejects with
    ValueError raises BadRow with the line number.
    """
    with open_text(f) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                return []
            names = [h.strip() for h in header]
            missing = [c for c in columns if c not in names]
            if missing:
                raise BadRow(f"line {reader.line_num}: missing column(s) {', '.join(missing)}")
            at = [names.index(c) for c in columns]
            out = []
            for fields in reader:
                if not fields:
                    continue
                if len(fields) < len(names):
                    raise BadRow(f"line {reader.line_num}: {len(fields)} of {len(names)} fields")
                out.append(row(*(fields[i] for i in at)))
        except UnicodeDecodeError:
            raise  # the file is not text, whatever its rows hold
        except (ValueError, csv.Error) as exc:
            raise BadRow(f"line {reader.line_num}: {exc}") from None
    return out
