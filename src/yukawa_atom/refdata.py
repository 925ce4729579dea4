"""Bundled K- and L-shell reference energies and their comparison with
computed ones.

CSV schema (UTF-8, comma separated, header required)::

    z,shell,n,l,source,energy_kev[,notes]

``shell`` is one of E00, E01, E10, E11 (the (n, l) subscripts of the level),
``source`` one of ``ewa``, ``hypervirial_pade``, ``shifted_n``,
``experiment``, ``present_work``.  Energies are finite, negative keV, stored
exactly as printed in the source tables; each row keeps the printed text
(``energy_text``) beside its value.  The optional ``notes`` column carries
transcription flags.  ``compare`` returns plain dict rows and a dict
summary, ready for the command line to render.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

__all__ = [
    "ParseError",
    "DuplicateKey",
    "SignViolation",
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


class DuplicateKey(ValueError):
    """A (z, shell, source) key appeared twice."""


class SignViolation(ValueError):
    """A reference energy was not negative."""


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
    n: int
    l: int
    source: ReferenceSource
    energy_kev: float
    energy_text: str = ""
    notes: str = ""


@dataclass(frozen=True)
class ReferenceDataset:
    rows: tuple[ReferenceRow, ...]
    _index: dict = field(repr=False)

    def get(self, z: int, shell_label: str, source: ReferenceSource) -> ReferenceRow:
        try:
            return self._index[(z, shell_label, source)]
        except KeyError:
            raise MissingReference(
                f"no reference row for z={z}, shell={shell_label}, source={source.value}"
            ) from None

    def __len__(self):
        return len(self.rows)


def load_reference(path) -> ReferenceDataset:
    """Load and validate one reference CSV."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header", 1)

    header = [h.strip() for h in lines[0].split(",")]
    if header[: len(_CORE_HEADER)] != _CORE_HEADER:
        raise ParseError(
            f"header must start with {','.join(_CORE_HEADER)}, got {lines[0]!r}", 1
        )
    extras = header[len(_CORE_HEADER):]
    if extras not in ([], ["notes"]):
        raise ParseError(f"unsupported extra columns {extras}", 1)
    has_notes = extras == ["notes"]

    rows: list[ReferenceRow] = []
    index: dict = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = [p.strip() for p in raw.split(",")]
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
            raise ParseError(
                f"shell {shell} implies (n, l) = {SHELL_QUANTUM_NUMBERS[shell]}, got ({n}, {l})",
                lineno,
            )
        if z < 1:
            raise ParseError(f"atomic number must be positive, got {z}", lineno)
        if not math.isfinite(energy):
            raise ParseError(f"energy_kev must be finite, got {parts[5]}", lineno)
        if not energy < 0:
            raise SignViolation(
                f"line {lineno}: energy_kev must be negative, got {parts[5]} "
                f"(z={z}, shell={shell}, source={source.value})"
            )
        key = (z, shell, source)
        if key in index:
            raise DuplicateKey(f"line {lineno}: duplicate key z={z}, shell={shell}, "
                               f"source={source.value}")
        notes = parts[6] if len(parts) == 7 else ""
        row = ReferenceRow(z=z, shell_label=shell, n=n, l=l, source=source,
                           energy_kev=energy, energy_text=parts[5], notes=notes)
        rows.append(row)
        index[key] = row
    return ReferenceDataset(rows=tuple(rows), _index=index)


def compare(dataset: ReferenceDataset, computed, source: ReferenceSource):
    """Compare computed (z, shell, energy_kev) triples against one source
    column.

    Returns ``(rows, summary)``: one dict per triple with the keys ``z``,
    ``shell``, ``computed_kev``, ``reference_kev``, ``abs_diff_kev`` and
    ``rel_diff``, sorted by (z, shell), and a dict of ``max_abs_diff``,
    ``max_rel_diff`` and ``worst_z`` (all 0 when nothing is computed).
    Raises :class:`MissingReference` for absent keys."""
    rows = []
    for z, shell_label, energy_kev in computed:
        reference_kev = dataset.get(z, shell_label, source).energy_kev
        abs_diff = abs(energy_kev - reference_kev)
        rows.append({"z": z, "shell": shell_label, "computed_kev": energy_kev,
                     "reference_kev": reference_kev, "abs_diff_kev": abs_diff,
                     "rel_diff": abs_diff / abs(reference_kev)})
    if not rows:
        return rows, {"max_abs_diff": 0.0, "max_rel_diff": 0.0, "worst_z": 0}
    rows.sort(key=lambda r: (r["z"], r["shell"]))
    worst = max(rows, key=lambda r: r["rel_diff"])
    return rows, {"max_abs_diff": max(r["abs_diff_kev"] for r in rows),
                  "max_rel_diff": worst["rel_diff"], "worst_z": worst["z"]}


def bundled_reference_path(shell_label: str) -> Path:
    """Reference file for one shell; E11 has no published table."""
    try:
        name = _BUNDLED_FILES[shell_label]
    except KeyError:
        raise MissingReference(
            f"no reference table is bundled for shell {shell_label!r}"
        ) from None
    return Path(resources.files("yukawa_atom") / "data" / name)
