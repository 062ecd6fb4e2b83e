"""Every name a module exports exists: a name deleted from a module but left
in its __all__ would otherwise fail only a star import."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import fragcov

MODULES = ["fragcov"] + [f"fragcov.{m.name}" for m in pkgutil.iter_modules(fragcov.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


# the package's names are its modules' exports, the same objects
@pytest.mark.parametrize("name", MODULES[1:])
def test_module_exports_are_package_names(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if getattr(fragcov, n, None) is not getattr(module, n)] == []


# perfbench/spans.py wraps names in these modules by setattr: a name it needs
# that a module drops fails here, not only in the benchmark's smoke run
def test_benchmark_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = SimpleNamespace(**{m: importlib.import_module(f"fragcov.{m}") for m in ("harness", "complete", "cli")})
    before = {m: dict(vars(module)) for m, module in vars(modules).items()}
    tracer = spans.Tracer()
    try:
        tracer.install(modules)
    finally:
        tracer.unpatch()
    for m, module in vars(modules).items():
        assert [k for k, v in before[m].items() if vars(module)[k] is not v] == []
