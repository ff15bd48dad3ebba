"""Meta-tests on the public API surface.

Production-quality requirements the repo commits to: every public item
is documented, every ``__all__`` entry resolves, and the package
re-exports are importable exactly as the README advertises.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.budget",
    "repro.core.cascade",
    "repro.core.estimation",
    "repro.core.filter_phase",
    "repro.core.generators",
    "repro.core.instance",
    "repro.core.maxfinder",
    "repro.core.oracle",
    "repro.core.pipeline",
    "repro.core.randomized_maxfind",
    "repro.core.selection",
    "repro.core.sorting",
    "repro.core.topk",
    "repro.core.tournament",
    "repro.core.two_maxfind",
    "repro.workers",
    "repro.platform",
    "repro.datasets",
    "repro.experiments",
    "repro.analysis",
    "repro.jobs",
    "repro.service_http",
    "repro.service_http.client",
    "repro.service_http.errors",
    "repro.service_http.wire",
    "repro.scheduler",
    "repro.durability",
    "repro.api",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()


def _documented_through_mro(cls, method_name):
    """A method is documented if it or any base's version carries a doc.

    Overrides implement the documented contract of the base (e.g. every
    ``WorkerModel.decide`` override); requiring a copy-pasted docstring
    on each override would be noise, not documentation.
    """
    for base in cls.__mro__:
        candidate = base.__dict__.get(method_name)
        if candidate is not None:
            doc = getattr(candidate, "__doc__", None)
            if doc and doc.strip():
                return True
    return False


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_are_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited elsewhere
                    if not _documented_through_mro(obj, method_name):
                        undocumented.append(f"{name}.{method_name}")
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_readme_quickstart_imports():
    from repro.api import find_max, make_worker_classes, planted_instance  # noqa: F401


def test_version_is_exposed():
    import repro

    assert repro.__version__
