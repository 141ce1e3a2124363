"""Exception hierarchy shared across the package.

Each class states the process exit code the CLI gives it, so anything
that should abort a run with a distinct status belongs here rather than
in a bare ValueError.  ``read_input`` and ``parse_json`` pick the error
for an input file that cannot be read and for JSON that cannot be
parsed; ``parse_input`` parses a whole input file and is the one place
that names the file in a parse error, as ``<what> <path>: <reason>``;
``write_output`` writes every output file whole and picks the
error for one that cannot be written, and ``write_csv`` writes every
table through it.  ``sized_by`` picks the error for an array too large
to allocate.
"""

import io
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path


class MtclError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(MtclError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DataError(MtclError):
    """Broken task files, manifests, vocabularies or checkpoints; unwritable output."""

    exit_code = 3


class DimensionMismatchError(DataError):
    """Tensor dimensions disagree with the tokenized label set."""


class TeacherQueryError(MtclError):
    """A teacher backend failed to produce logits."""

    exit_code = 4


class TeacherTimeoutError(TeacherQueryError):
    """Teacher endpoint unreachable or timed out after all retries."""


class TeacherProtocolError(TeacherQueryError):
    """Teacher endpoint answered with a malformed or mismatched response."""


class TeacherDimensionError(TeacherProtocolError):
    """Teacher payload dimensions disagree with the candidate label set."""


class NumericError(MtclError):
    """Non-finite loss or other numeric breakdown during training."""

    exit_code = 5


def exit_code_for(exc: Exception) -> int:
    return getattr(exc, "exit_code", 1)


def read_input(path, what: str, error=DataError, text: bool = False):
    """The whole file at ``path``, as UTF-8 text when ``text``, else bytes."""
    try:
        return Path(path).read_text(encoding="utf-8") if text else Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise error(f"cannot read {what} {path}: {exc}") from exc


def parse_input(path, what: str, parse, text: bool = False):
    """``parse`` of the file at ``path`` as ``read_input`` reads it.  Its
    DataError gets ``what`` and ``path`` before the reason, a ``struct.error``
    says the file is truncated, and a ``KeyError``, ``TypeError``,
    ``ValueError`` or ``OverflowError`` (``int`` of JSON's 1e400) that it
    is malformed."""
    data = read_input(path, what, text=text)
    try:
        return parse(data)
    except DataError as exc:
        raise type(exc)(f"{what} {path}: {exc}") from exc
    except struct.error as exc:
        raise DataError(f"{what} {path} is truncated: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{what} {path} is malformed: {exc!r}") from exc


def parse_json(data, error, where: str, encoding: str = None):
    """The JSON value in ``data``; bytes are decoded with ``encoding``, or
    as ``json.loads`` detects it.  Bad syntax or encoding, an integer over
    Python's digit limit and nesting past the recursion limit all raise
    ``error`` after ``where``."""
    try:
        return json.loads(data.decode(encoding) if encoding else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: {exc}") from exc


def write_output(path, data, what: str) -> None:
    """Write ``data`` (text as UTF-8, or bytes) to ``path.tmp`` under a made
    parent directory and rename it over ``path``, so ``path`` is never
    seen half written; the ``.tmp`` goes if anything fails, and any
    ``OSError`` or ``ValueError`` (such as a NUL in the path) raises
    ``DataError``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def write_csv(path, columns, rows, what: str) -> None:
    """Write a table with the header ``columns`` and one line per row of
    ``rows`` through ``write_output``; each float is written with ``repr``,
    which reads back exactly, so equal runs write equal bytes."""
    import csv

    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    write_output(path, text.getvalue(), what)


@contextmanager
def sized_by(*names):
    """Turn numpy's refusal of an array size (a ``ValueError`` for a
    dimension past its limit, a ``MemoryError``) inside the block into a
    ``ConfigError`` naming the settings ``names`` that set the size."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConfigError(
            f"{' and '.join(names)} ask for arrays too large to allocate: {exc!r}"
        ) from exc
