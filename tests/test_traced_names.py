"""The benchmark tracer's layer names must resolve in the package.

`perfbench/tracer.py` wraps functions by `module.attr` name; a rename in
sawbound would otherwise only surface when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_names_resolve_to_callables():
    traced = _traced()
    assert len(traced) == 20
    for mod_name, attr in traced:
        obj = importlib.import_module(f"sawbound.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr}"
