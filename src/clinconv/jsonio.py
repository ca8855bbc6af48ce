"""Small JSON/JSONL helpers used by the data model and the CLI.

Every saved artifact is read through :class:`Fields`: a required key of a
given kind, or an error naming the file (or file and line) and the key path.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import repeat
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError, ParseError


class FieldWarnings:
    """Counter for tolerated irregularities (unknown fields) seen while parsing.

    Unknown fields are ignored rather than rejected so that corpora exported
    with extra metadata still load, but each occurrence is counted so callers
    can surface the fact.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def note(self, where: str, field: str) -> None:
        self.counts[f"{where}.{field}"] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> dict[str, int]:
        return dict(sorted(self.counts.items()))


def json_loads(text: str | bytes, line_number: int | None = None) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line_number) from exc


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield (line_number, parsed_object) for every non-blank line."""
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {line_number}: malformed JSON: {exc.msg}") from exc
            yield line_number, record


# The Python types each kind of value accepts, and its name in messages.
_KINDS = {
    dict: (dict, "an object"),
    list: (list, "a list"),
    str: (str, "a string"),
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "true or false"),
}


class Fields:
    """Checked reads from one parsed JSON object.

    ``source`` names the file (or file and line) the object came from, ``path``
    its key path there, and ``error`` the class its loader raises. A failed
    read names both: ``pipe.json: ovr.models[0].weights must be a list``.
    """

    __slots__ = ("record", "source", "error", "path")

    def __init__(self, record: Any, source: str, error: type = ParseError, path: str = ""):
        self.record, self.source, self.error, self.path = record, source, error, path
        if not isinstance(record, dict):
            raise self.fail(f"{path or 'record'} must be an object")

    def fail(self, message: str, error: type | None = None) -> Exception:
        return (error or self.error)(f"{self.source}: {message}")

    def __contains__(self, key: str) -> bool:
        return key in self.record

    def _key_path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, kind: type, null: bool = False) -> Any:
        """The value of a required ``key``, of ``kind`` (or None if ``null``)."""
        if key not in self.record:
            noun = "section" if kind is dict else "key"
            raise self.fail(
                f"{self.path!r} section lacks [{key!r}]" if self.path else f"no {key!r} {noun}"
            )
        value, (types, name) = self.record[key], _KINDS[kind]
        # A bool is an int to Python but not a number here, nor a number a bool.
        if not (isinstance(value, types) and (kind is bool) == isinstance(value, bool)):
            if not (null and value is None):
                raise self.fail(f"{self._key_path(key)} must be {name}")
        return value

    def section(self, key: str) -> "Fields":
        return Fields(self.get(key, dict), self.source, self.error, self._key_path(key))

    def records(self, key: str) -> list["Fields"]:
        """A required list of objects."""
        path = self._key_path(key)
        items = self.get(key, list)
        return [Fields(item, self.source, self.error, f"{path}[{i}]") for i, item in enumerate(items)]

    def strings(self, key: str) -> list[str]:
        value = self.get(key, list)
        if not all(map(isinstance, value, repeat(str))):
            raise self.fail(f"{self._key_path(key)} must be a list of strings")
        return value

    def array(self, key: str, shape: tuple[int | None, ...], dtype: type = float) -> np.ndarray:
        """A numeric (nested) list as one array of ``shape``; None is any length."""
        name = self._key_path(key)
        try:
            array = np.asarray(self.get(key, list))
        except (ValueError, TypeError):
            raise self.fail(f"{name} is not a rectangular array") from None
        accepted, noun = ("iu", "integers") if dtype is int else ("iuf", "finite numbers")
        if array.size and (array.dtype.kind not in accepted or not np.isfinite(array).all()):
            raise self.fail(f"{name} must hold only {noun}")
        if array.ndim != len(shape) or any(w not in (None, n) for w, n in zip(shape, array.shape)):
            raise self.fail(f"{name} has shape {array.shape}, expected {shape}")
        return array.astype(np.int64 if dtype is int else np.float64, copy=False)

    def typed(self, kinds: dict[str, type], required: bool = True) -> dict[str, Any]:
        """Each key of ``kinds`` checked against its kind; any other key is an
        error, and a missing one too if ``required``."""
        unknown = sorted(set(self.record) - set(kinds))
        if unknown:
            raise self.fail(f"unknown {self.path + ' ' if self.path else ''}keys {unknown}")
        return {k: self.get(k, kind) for k, kind in kinds.items() if required or k in self.record}


def build(source: str, constructor, /, **values):
    """``constructor(**values)``; the DataError it raises for a value read from
    ``source`` names that file (and line) too."""
    try:
        return constructor(**values)
    except DataError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def as_fields(record: Any, source: str, error: type = ParseError) -> Fields:
    """``record`` itself if it is already checked, else a reader for it."""
    return record if isinstance(record, Fields) else Fields(record, source, error)


def read_json(path: str | Path, error: type = ParseError) -> Fields:
    """The object in a JSON file; malformed JSON names the file too."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON: {exc.msg} (line {exc.lineno})") from exc
    return Fields(record, str(path), error)


def read_jsonl(path: str | Path, error: type = ParseError) -> Iterator[Fields]:
    """One reader per non-blank line; each names the file and line."""
    for line_number, record in iter_jsonl(path):
        yield Fields(record, f"{path}: line {line_number}", error)


def dump_json(obj: Any) -> str:
    # Compact separators keep artifact files diff-friendly and byte-stable.
    return json.dumps(obj, ensure_ascii=False, sort_keys=False, separators=(",", ":"))


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    atomic_write_text(path, "".join(dump_json(rec) + "\n" for rec in records))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename so failed runs leave no partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
