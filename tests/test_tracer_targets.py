"""The benchmark's tracer patches qregparam functions by name: each name must exist.

perfbench/tracer.py is loaded from its file and left unchanged.  A function
that moves out of its module would otherwise fail only when the benchmark
runs with --trace 1.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module: str, attr: str) -> bool:
    """The lookup Tracer makes: a module attribute, or "Class.method" in the class dict."""
    owner = importlib.import_module(f"qregparam.{module}")
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0], None)
    return owner is not None and name in vars(owner)


def test_every_target_resolves():
    targets = load_tracer().TARGETS
    assert len(targets) >= 20
    missing = [f"qregparam.{module}.{attr}" for module, attr, _, _ in targets
               if not resolves(module, attr)]
    assert not missing, f"perfbench/tracer.py TARGETS that do not resolve: {missing}"
