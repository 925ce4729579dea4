"""``tools/pair.py``: a tree paired with a copy of itself reads alike."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _pair_tool():
    spec = importlib.util.spec_from_file_location("pair_tool", ROOT / "tools" / "pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_paired_with_its_own_copy(tmp_path):
    pair = _pair_tool()
    shutil.copytree(ROOT / "src" / "yukawa_atom", tmp_path / "src" / "yukawa_atom",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # a tenth of each list, at least two items: the tool repeats a short
    # list until a round lasts long enough to time
    routes = {name: (build, items[:max(2, len(items) // 10)])
              for name, (build, items) in pair.ROUTES.items()}
    report = pair.compare_trees(ROOT, tmp_path, routes, rounds=3)
    assert list(report) == list(pair.ROUTES)
    for name, row in report.items():
        this, other = row["sha256"]
        assert this == other, name
        assert row["work"][0] == row["work"][1], name
        assert 0.5 < row["ratio"][1] < 2.0, (name, row["ratio"])
    assert report["solve_bound_state"]["work"][0]["sweeps"] > 0
    assert report["correction_via_quadrature"]["work"][0]["integrals"] > 0
