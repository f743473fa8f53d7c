"""The benchmark's tracer patches qregparam functions by name: each name must exist.

perfbench/tracer.py is loaded from its file and left unchanged.  A function
that moves out of its module would otherwise fail only when the benchmark
runs with --trace 1.  Two small selections also run under the tracer, so that
its attribution and the span structure it reports are checked here too.
"""
import importlib
import importlib.util
import time
from collections import Counter
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


def test_traced_selections_attribute_every_stage(tmp_path):
    """One small lcurve and one small gcv selection under the benchmark's Tracer.

    Tracing leaves the report bytes as they are, the spans add up, and each
    per-mu stage of the chain solver -> A x -> residual runs once per grid
    value, with the A x stage outside the residual stage.
    """
    import qregparam.cli as cli  # looked up per call so the tracer's wrapper is used

    tracer_module = load_tracer()
    base = dict(problem="geometric-spectrum", m=3, n=2, p=3, rho=0.5, mu0=0.8,
                n_phase_bits=6, seed=0, repeats=1)
    configs = [dict(base, method="lcurve"), dict(base, method="gcv", rank=2)]
    untraced = []
    for i, config in enumerate(configs):
        cli.run(cli.RunConfig(**config, out=str(tmp_path / f"plain{i}.jsonl")))
        untraced.append((tmp_path / f"plain{i}.jsonl").read_bytes())
    walls = {}
    with tracer_module.Tracer() as tracer:
        for i, config in enumerate(configs):
            tracer.selection = i
            start = time.perf_counter()
            cli.run(cli.RunConfig(**config, out=str(tmp_path / f"traced{i}.jsonl")))
            walls[i] = time.perf_counter() - start
        tracer.selection = None
    assert [(tmp_path / f"traced{i}.jsonl").read_bytes() for i in range(2)] == untraced
    _, _, errors = tracer.summary(walls)
    assert errors == []
    spans = tracer.spans
    stages = ("hhl.solution_state", "hhl.apply_A_state", "hhl.residual_state")
    per_selection = Counter((span[4], span[0]) for span in spans if span[0] in stages)
    assert per_selection == {(i, name): base["p"] for i in walls for name in stages}
    nested = [idx for idx, span in enumerate(spans) if span[0] == "hhl.apply_A_state"
              and tracer_module._has_ancestor(spans, idx, "hhl.residual_state")]
    assert nested == []
