"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so anything that should
abort a run with a distinct status belongs here rather than in a bare
ValueError.  ``read_input`` and ``parse_json`` pick the error for an input
file that cannot be read and for JSON that cannot be parsed.
"""

import json
from pathlib import Path


class MtclError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(MtclError):
    """Invalid or inconsistent run configuration (exit code 2)."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DataError(MtclError):
    """Broken task files, manifests, vocabularies or checkpoints (exit code 3)."""


class DimensionMismatchError(DataError):
    """Tensor dimensions disagree with the tokenized label set (exit code 3)."""


class TeacherQueryError(MtclError):
    """A teacher backend failed to produce logits (exit code 4)."""


class TeacherTimeoutError(TeacherQueryError):
    """Teacher endpoint unreachable or timed out after all retries."""


class TeacherProtocolError(TeacherQueryError):
    """Teacher endpoint answered with a malformed or mismatched response."""


class TeacherDimensionError(TeacherProtocolError):
    """Teacher payload dimensions disagree with the candidate label set."""


class NumericError(MtclError):
    """Non-finite loss or other numeric breakdown during training (exit code 5)."""


EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TEACHER = 4
EXIT_NUMERIC = 5


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, TeacherQueryError):
        return EXIT_TEACHER
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    return 1


def read_input(path, what: str, error=DataError, text: bool = False):
    """The whole file at ``path``, as UTF-8 text when ``text``, else bytes."""
    try:
        return Path(path).read_text(encoding="utf-8") if text else Path(path).read_bytes()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def parse_json(data, error, where: str, encoding: str = None):
    """The JSON value in ``data``; bytes are decoded with ``encoding``, or
    as ``json.loads`` detects it.  Bad syntax or encoding, an integer over
    Python's digit limit and nesting past the recursion limit all raise
    ``error`` after ``where``."""
    try:
        return json.loads(data.decode(encoding) if encoding else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: {exc}") from exc
