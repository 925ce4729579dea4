"""One operation in a fresh interpreter, the way a user starts it.

    python cold.py cli <yukawa-atom arguments...>
    python cold.py correction <Z> <n> <l> <delta> <order>

CLI commands go through ``yukawa_atom.cli.main`` as the console script
does.  Prints one JSON line: the ``time.perf_counter()`` reading once the
package is imported and ready, the exit code and the command's output.
"""

import contextlib
import io
import json
import sys
import time


def main(argv):
    import yukawa_atom

    ready = time.perf_counter()
    if argv[0] == "cli":
        from yukawa_atom.cli import main as cli_main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli_main(argv[1:])
            except SystemExit as exc:
                code = exc.code
        out = buf.getvalue()
    elif argv[0] == "correction":
        z, n, l, delta, order = argv[1:]
        value = yukawa_atom.correction_via_quadrature(
            yukawa_atom.AtomicSystem(int(z)), yukawa_atom.QuantumState(int(n), int(l)),
            float(delta), int(order))
        code, out = 0, repr(value)
    else:
        raise SystemExit(f"unknown operation {argv[0]!r}")
    print(json.dumps({"ready": ready, "code": code, "out": out}))


if __name__ == "__main__":
    main(sys.argv[1:])
