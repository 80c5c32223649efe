"""The names that the benchmark in `perfbench/` wraps or patches exist in `delayfw`.

The benchmark replaces functions where their callers look them up, so a
refactor that drops or renames one of them makes its traced pass crash.
These checks load the benchmark's own target list and fail on such a
refactor instead.
"""

import importlib.util
import pathlib
import types

import numpy as np

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


class ReleaseLog:
    """Counts `FeedbackBuffer.push` calls and the rows `release` hands back."""

    def __init__(self, monkeypatch):
        self.pushes = self.released = 0
        push, release = delay.FeedbackBuffer.push, delay.FeedbackBuffer.release

        def counted_push(buf, d):
            self.pushes += 1
            return push(buf, d)

        def counted_release(buf, t):
            rows = release(buf, t)
            self.released += len(rows)
            return rows

        monkeypatch.setattr(delay.FeedbackBuffer, "push", counted_push)
        monkeypatch.setattr(delay.FeedbackBuffer, "release", counted_release)


def due_by_end(schedules, T):
    """The (agent, origin) pairs whose feedback arrives within T rounds."""
    return sum(int(np.count_nonzero(np.arange(1, T + 1) + s.d - 1 <= T)) for s in schedules)


def test_both_engines_push_the_table_and_release_every_due_pair(monkeypatch):
    # perfbench's delay.push.calls must not read 0, and its delay.released
    # sums len(release(t)): the number of released (agent, origin) pairs
    T, n = 16, 3
    cset = geometry.ConstraintSet("l1_ball", 1.0, 3)
    params = de2mfw.distributed_params(T, 1.0, 1.0, 2.0, 8.0, a_dist=3.0, K=2)
    schedules = [delay.gen_delays(T, 5, seed=i) for i in range(n)]
    log = ReleaseLog(monkeypatch)
    stream = losses.synth_quadratic_stream(0, T, 3)
    de2mfw.delmfw_run(cset, stream, schedules[0], params, seed=0)
    assert log.pushes >= 1
    assert log.released == due_by_end(schedules[:1], T)
    log.pushes = log.released = 0
    stream = losses.synth_quadratic_stream(0, T, 3, n_agents=n)
    de2mfw.de2mfw_run(cset, stream, schedules, network.topology("cycle", n), params, seed=0)
    assert log.pushes >= 1
    assert log.released == due_by_end(schedules, T)
