"""The names that the benchmark in `perfbench/` wraps or patches exist in `delayfw`.

The benchmark replaces functions where their callers look them up, so a
refactor that drops or renames one of them makes its traced pass crash.
These checks load the benchmark's own target list and fail on such a
refactor instead.
"""

import importlib.util
import pathlib
import types

from delayfw import de2mfw, delay, geometry, losses, metrics, network, oracle, runner

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DFW = types.SimpleNamespace(runner=runner, de2mfw=de2mfw, delay=delay, geometry=geometry,
                            losses=losses, metrics=metrics, network=network, oracle=oracle)


def test_every_span_target_is_an_attribute_of_its_owner():
    tracing = load_tracing()
    targets = tracing.span_targets(DFW)
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _ in targets if attr not in vars(owner)]
    assert missing == []
    tracing.CallCounter(DFW)  # reads the code objects of the counted spans


def test_runner_names_patched_by_the_engine_hook_and_selfcheck():
    for name in ("delmfw_run", "de2mfw_run", "_write_atomic"):
        assert name in vars(runner), name
