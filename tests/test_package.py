"""The package's public names: each layer module's ``__all__``, plus ``__version__``."""

import yukawa_atom
from yukawa_atom import oracle, perturbation, refdata, wavefunctions

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
