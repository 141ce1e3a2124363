"""The failure form: one exception class per exit code, and every value rule.

Each class states the code the CLI gives it, so anything that should
abort a run with a distinct status raises one of them rather than a
bare ValueError; its message says what failed.  A single refused value
goes through ``checked``, which raises the class its caller names with
the one wording ``<name> must be <wanted>, got <value>``; a rule is a
``(wanted, valid)`` pair, and ``setting`` keeps one as a settings
field's metadata for ``check_settings``.  ``read_input`` and
``parse_json`` pick the error for an input file that cannot be read and
for JSON that cannot be parsed; ``parse_input`` parses a whole input
file, and ``parse_stream`` one that its parser reads in pieces; they are
the one place that names the file in a parse error, as
``<what> <path>: <reason>``; ``write_output`` writes every output file
whole and ``remove_outputs`` removes them, each picking the error for a
file it cannot write or remove; ``write_csv`` writes every table through
``write_output``.  ``sized_by`` picks the error for an array too large
to allocate.
"""

import io
import json
import math
import numbers
import operator
import os
import struct
from contextlib import contextmanager
from dataclasses import field, fields
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


class TeacherQueryError(MtclError):
    """A teacher backend failed to produce logits."""

    exit_code = 4


class NumericError(MtclError):
    """Non-finite loss or other numeric breakdown during training."""

    exit_code = 5


def exit_code_for(exc: Exception) -> int:
    return getattr(exc, "exit_code", 1)


def is_number(value) -> bool:
    """True for a real number that is not a bool (JSON ``true`` is no number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """True for an ``int`` that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a number (see ``is_number``) that a float holds as a finite value;
    an integer too large for a float is not one."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def integer_rule(low: int):
    """The ``(wanted, valid)`` pair of an integer >= ``low``."""
    return f"an integer >= {low}", lambda v: is_integer(v) and v >= low


# The (wanted, valid) pair of a finite number in [0, 1].
UNIT_RULE = ("a number in [0, 1]", lambda v: is_finite_number(v) and 0.0 <= v <= 1.0)


def must_be(name: str, wanted: str, value) -> str:
    """The one wording of a violation: ``<name> must be <wanted>, got <value>``."""
    return f"{name} must be {wanted}, got {value!r}"


def checked(name: str, value, wanted: str, valid, error):
    """``value`` if it passes ``valid``, else ``error`` with the ``must_be``
    wording; ``wanted`` describes a value that passes."""
    if valid(value):
        return value
    raise error(must_be(name, wanted, value))


def setting(default, wanted: str, valid):
    """A settings field holding ``default``, whose value must pass ``valid``;
    ``wanted`` describes such a value."""
    return field(default=default, metadata={"wanted": wanted, "valid": valid})


def integer_setting(default: int, low: int):
    """A setting that must be an integer >= ``low``."""
    return setting(default, *integer_rule(low))


def number_setting(default: float, bound: str, low: int):
    """A setting that must be a finite number ``bound`` (``>`` or ``>=``) ``low``."""
    above = {">": operator.gt, ">=": operator.ge}[bound]
    return setting(default, f"a finite number {bound} {low}",
                   lambda v: is_finite_number(v) and above(v, low))


def check_settings(settings, cross=()) -> None:
    """Raise ConfigError listing, in field order, the violation of each
    field of ``settings`` that its check refuses, then ``cross``, the
    violations across fields, if there is any."""
    problems = [must_be(f.name, f.metadata["wanted"], getattr(settings, f.name))
                for f in fields(settings) if not f.metadata["valid"](getattr(settings, f.name))]
    if problems or cross:
        raise ConfigError([*problems, *cross])


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
    with _parse_errors(path, what):
        return parse(data)


def parse_stream(path, what: str, parse):
    """``parse`` of the file at ``path``, open for binary reads, so that
    it reads the file in pieces instead of whole.  Its errors map as in
    ``parse_input``, and an ``OSError`` while the file is opened or read
    says, as ``read_input`` does, that it cannot be read."""
    try:
        with open(path, "rb") as file, _parse_errors(path, what):
            return parse(file)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def _parse_errors(path, what: str):
    """The error mapping of ``parse_input`` and ``parse_stream``."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{what} {path}: {exc}") from exc
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


def remove_outputs(directory, owned, what: str) -> None:
    """Remove every file in ``directory``, if it is one, whose name ``owned``
    accepts; any ``OSError`` raises ``DataError``."""
    try:
        for path in sorted(directory.iterdir()) if directory.is_dir() else ():
            if owned(path.name):
                path.unlink()
    except OSError as exc:
        raise DataError(f"cannot remove {what} from {directory}: {exc}") from exc


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
