import importlib
import pkgutil

import porism_lab

#: Names no module of the package defines any more: test oracles (now in
#: tests/oracles.py) and wrapper types that no command needs.
REMOVED = ("billiard_cross_checks", "conic_from_canonical", "tangency_residual",
           "SimilarityParams", "similarity_params", "TrilinearTriple", "InconicCoefficients",
           "three_periodic_orbit", "_adjugate")


def test_every_public_name_resolves_once_in_order():
    names = porism_lab.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)
    for name in names:
        assert hasattr(porism_lab, name), name


def test_removed_names_are_gone():
    modules = [importlib.import_module(f"porism_lab.{m.name}")
               for m in pkgutil.iter_modules(porism_lab.__path__)]
    for name in REMOVED:
        assert name not in porism_lab.__all__
        for module in (porism_lab, *modules):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(porism_lab.BilliardConfig, "from_axes")
