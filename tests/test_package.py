"""The package's public names: each layer module's ``__all__``, plus ``__version__``,
and the README's library and command-line examples, run as written."""

import re
import shlex
from pathlib import Path

import yukawa_atom
from yukawa_atom import cli, oracle, perturbation, refdata, wavefunctions

README = Path(__file__).resolve().parents[1] / "README.md"

LAYERS = (perturbation, wavefunctions, oracle, refdata)


def test_all_is_the_layers_all_plus_version():
    expected = [name for layer in LAYERS for name in layer.__all__] + ["__version__"]
    assert yukawa_atom.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves_to_its_layer():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(yukawa_atom, name) is getattr(layer, name), name
    assert isinstance(yukawa_atom.__version__, str)


def test_readme_library_example_runs(capsys):
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the printed K-shell total matches the comment beside it
    assert round(float(lines[1]), 4) == -9.2876


def test_readme_cli_examples_run(capsys):
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("yukawa-atom ")]
    assert commands, "README has no yukawa-atom example"
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out, line
