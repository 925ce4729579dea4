"""Command-line digest: a fixed list of commands, byte for byte.

Runs each command of ``COMMANDS`` in this process through ``cli.main`` and
prints one line per command, the sha256 of its (stdout, stderr, exit code)
and its arguments, then the number of commands per exit code and the
sha256 of the command lines.  Two checkouts print every command the same
way, byte for byte, when their totals agree:

    PYTHONPATH=src python tools/cli_digest.py

The list covers ``table`` for every shell in every format, over the
default Z list and over ``3..84:paper``; ``compare`` for E00, E01 and E10
under every reference source; a ``level`` grid; a ``verify`` run of six
levels; ``table`` over Z = 1..2, where Z = 1 has delta = 0; a
non-default ``--hartree-ev``; ``compare`` over a chosen Z list; and
commands that exit 1 or 2, among them an overflowing ``--delta0`` in
every format.  ``COLUMNS`` is set to 80, so that argparse lays out its
usage lines the same way in any terminal.
The script takes no options, and pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
from collections import Counter

from yukawa_atom import cli
from yukawa_atom.refdata import ReferenceSource

FORMATS = ("table", "csv", "json")

COMMANDS = [
    *(("table", "--shell", shell, *z, "--format", fmt)
      for shell in ("E00", "E01", "E10", "E11")
      for z in ((), ("--z", "3..84:paper"))
      for fmt in FORMATS),
    *(("compare", "--shell", shell, "--source", source.value, "--format", fmt)
      for shell in ("E00", "E01", "E10")
      for source in ReferenceSource
      for fmt in FORMATS),
    *(("level", "--z", z, "--n", n, "--l", l, "--format", fmt)
      for z in ("1", "2", "29", "84")
      for n in ("0", "1", "2")
      for l in ("0", "1", "2")
      for fmt in FORMATS),
    *(("verify", "--z", "1,5,29", "--state", "0,0", "--state", "1,0", "--format", fmt)
      for fmt in FORMATS),
    # Z = 1 has delta = 0 under Fermi-Amaldi; a non-default keV constant;
    # compare over a chosen Z list
    *(("table", "--shell", shell, "--z", "1..2", "--format", fmt)
      for shell in ("E00", "E11")
      for fmt in FORMATS),
    *(("table", "--shell", "E10", "--hartree-ev", "27.211386", "--format", fmt)
      for fmt in FORMATS),
    *(("level", "--z", "29", "--n", "1", "--l", "1", "--hartree-ev", "1e-3", "--format", fmt)
      for fmt in FORMATS),
    *(("compare", "--shell", "E01", "--z", "9..40,84", "--format", fmt)
      for fmt in FORMATS),
    # exit 1: above the tolerance
    ("compare", "--shell", "E00", "--tolerance", "0"),
    ("compare", "--shell", "E10", "--source", "experiment"),
    # exit 2: usage and file errors
    ("compare", "--shell", "E11"),
    ("level", "--z", "0", "--n", "0", "--l", "0"),
    ("level", "--z", "3", "--n", "0", "--l", "0", "--order", "4"),
    ("table", "--shell", "E99"),
    ("table", "--shell", "E00", "--z", "5..3"),
    ("table", "--shell", "E00", "--delta0", "nan"),
    ("verify", "--z", "1", "--state", "0.5,0"),
    # exit 2: a screening strength whose energy leaves the float range
    *(("level", "--z", "84", "--n", "0", "--l", "0", "--delta0", "1e80", "--format", fmt)
      for fmt in FORMATS),
]


def run(argv):
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    os.environ["COLUMNS"] = "80"
    lines, codes = [], Counter()
    for argv in COMMANDS:
        code, out, err = run(argv)
        codes[code] += 1
        digest = hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()
        lines.append(f"{digest} {' '.join(argv)}")
    print("\n".join(lines))
    print("commands", len(COMMANDS), "exit codes",
          " ".join(f"{code}:{count}" for code, count in sorted(codes.items())))
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
