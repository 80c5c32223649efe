"""Config validation, orchestration, sweeps, and CLI exit codes."""

import copy
import dataclasses
import glob
import json
import math
import os
import re
import runpy
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import read_text, read_trace_csv, write_schedule_csv
from delayfw import cli, runner, seeding
from delayfw.de2mfw import AlgoParams, algorithm_constants
from delayfw.delay import DelaySchedule, gen_delays


def minimal_centralized(**over):
    obj = {
        "mode": "centralized",
        "T": 12,
        "set": {"kind": "l1_ball", "radius": 1.0, "dim": 3},
        "loss": {"kind": "quadratic"},
        "delay": {"dmax": 3},
        "seeds": [0],
    }
    obj.update(over)
    return obj


def minimal_distributed(**over):
    obj = minimal_centralized(mode="distributed",
                              topology={"kind": "cycle", "n": 4})
    obj.update(over)
    return obj


def parse(obj):
    return runner.config_from_dict(obj)


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SHIPPED = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))


# -- parsing -----------------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse(minimal_centralized())
    assert cfg.mode == "centralized" and cfg.T == 12
    assert cfg.zeta_mode == "true_B" and cfg.zeta is None and cfg.K_override is None
    assert cfg.loss == {"kind": "quadratic", "data": "synthetic", "batch": 1, "seed": 0}
    assert cfg.delay == {"dmax": 3, "schedule": None, "seed": 0, "delayed_agent_count": None}
    assert cfg.constants == {"G": None, "beta": None, "D": None}
    assert cfg.topology is None and cfg.n_agents == 1 and cfg.dim == 3
    assert cfg.diagnostics is True and cfg.output is None
    assert cfg.seeds == (0,)
    assert len(cfg.sha256()) == 64


def test_config_record_fields_are_the_json_keys():
    names = [f.name for f in dataclasses.fields(runner.ExperimentConfig)]
    assert names == [*runner.CONFIG_KEYS["config"], "dim", "n_agents", "raw"]
    cfg = parse(minimal_distributed())
    assert cfg.topology == {"kind": "cycle", "n": 4, "p": 0.3, "seed": 0} and cfg.n_agents == 4


def test_unknown_keys_rejected():
    with pytest.raises(runner.ConfigError, match="unknown keys"):
        parse(minimal_centralized(bogus=1))
    obj = minimal_centralized()
    obj["set"]["color"] = "red"
    with pytest.raises(runner.ConfigError, match="unknown keys"):
        parse(obj)


def test_delay_dmax_schedule_exclusive():
    obj = minimal_centralized()
    obj["delay"] = {"dmax": 3, "schedule": "s.csv"}
    with pytest.raises(runner.ConfigError, match="exactly one"):
        parse(obj)
    obj["delay"] = {"seed": 1}
    with pytest.raises(runner.ConfigError, match="exactly one"):
        parse(obj)


def test_mode_consistency():
    with pytest.raises(runner.ConfigError, match="topology"):
        parse(minimal_centralized(topology={"kind": "cycle", "n": 4}))
    obj = minimal_distributed()
    del obj["topology"]
    with pytest.raises(runner.ConfigError, match="topology"):
        parse(obj)
    obj = minimal_centralized(mode="baseline_dofw", K_override=3)
    with pytest.raises(runner.ConfigError, match="K_override"):
        parse(obj)


def test_delayed_agent_count_rules():
    obj = minimal_distributed()
    obj["delay"]["delayed_agent_count"] = 5
    with pytest.raises(runner.ConfigError, match="<= n"):
        parse(obj)
    obj["delay"]["delayed_agent_count"] = 2
    assert parse(obj).delay["delayed_agent_count"] == 2
    cen = minimal_centralized()
    cen["delay"]["delayed_agent_count"] = 1
    with pytest.raises(runner.ConfigError, match="distributed"):
        parse(cen)


def test_diagnostics_only_in_distributed_mode():
    for flag in (False, True):
        assert parse(minimal_distributed(diagnostics=flag)).diagnostics is flag
    for mode in ("centralized", "baseline_dofw", "baseline_dgd"):
        with pytest.raises(runner.ConfigError, match="diagnostics"):
            parse(minimal_centralized(mode=mode, diagnostics=mode != "centralized"))
        assert parse(minimal_centralized(mode=mode)).diagnostics is True  # the unused default


def test_softmax_set_dims():
    obj = minimal_centralized()
    obj["loss"] = {"kind": "softmax_xent", "batch": 2}
    obj["set"] = {"kind": "l1_ball", "radius": 2.0, "p": 3, "C": 2}
    cfg = parse(obj)
    assert cfg.dim == 6 and cfg.set["p"] == 3 and cfg.set["C"] == 2 and cfg.set["dim"] is None
    assert cfg.loss["batch"] == 2
    obj["set"]["dim"] = 7
    with pytest.raises(runner.ConfigError, match="p\\*C"):
        parse(obj)
    quad = minimal_centralized()
    quad["set"] = {"kind": "l1_ball", "radius": 1.0, "dim": 3, "p": 3, "C": 2}
    with pytest.raises(runner.ConfigError, match="softmax"):
        parse(quad)


def test_zeta_rules():
    cfg = parse(minimal_centralized(zeta_mode="explicit", zeta=0.25))
    assert cfg.zeta == 0.25
    with pytest.raises(runner.ConfigError, match="zeta"):
        parse(minimal_centralized(zeta_mode="explicit"))
    with pytest.raises(runner.ConfigError, match="zeta"):
        parse(minimal_centralized(zeta=0.25))
    with pytest.raises(runner.ConfigError, match="zeta_mode"):
        parse(minimal_centralized(zeta_mode="guess"))


def test_seeds_validation():
    with pytest.raises(runner.ConfigError, match="seeds"):
        parse(minimal_centralized(seeds=[]))
    with pytest.raises(runner.ConfigError, match="seeds"):
        parse(minimal_centralized(seeds=[0, -1]))
    with pytest.raises(runner.ConfigError, match="seeds"):
        parse(minimal_centralized(seeds=[True]))
    with pytest.raises(runner.ConfigError, match="seeds: must be a nonempty list of distinct"):
        parse(minimal_centralized(seeds=[0, 2, 0]))
    assert parse(minimal_centralized(seeds=[2, 0])).seeds == (2, 0)


def test_constants_validation():
    cfg = parse(minimal_centralized(constants={"G": 2.5, "beta": "auto"}))
    assert cfg.constants == {"G": 2.5, "beta": None, "D": None}
    with pytest.raises(runner.ConfigError, match="constants.G"):
        parse(minimal_centralized(constants={"G": -1.0}))
    for bad in (math.inf, math.nan, True, "x", 0):
        with pytest.raises(runner.ConfigError, match="constants.D"):
            parse(minimal_centralized(constants={"D": bad}))


def test_sha256_ignores_later_edits_to_the_parsed_dict():
    obj = minimal_centralized()
    cfg = parse(obj)
    sha = cfg.sha256()
    obj["T"] = 99
    obj["set"]["radius"] = 5.0
    assert cfg.T == 12 and cfg.sha256() == sha
    assert sha == parse(minimal_centralized()).sha256()


BAD_VALUES = (None, True, -1, 1.5, "x", [], {}, math.inf, math.nan, 10**400)
DELETE = object()


def key_paths(obj, prefix=()):
    for key, val in obj.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from key_paths(val, prefix + (key,))


def config_bodies() -> dict:
    bodies = {"minimal_centralized": minimal_centralized(),
              "minimal_distributed": minimal_distributed()}
    for path in SHIPPED:
        with open(path, encoding="utf-8") as fh:
            bodies[os.path.basename(path)] = json.load(fh)
    return bodies


@pytest.mark.parametrize("name", sorted(config_bodies()))
def test_malformed_values_raise_config_errors(name):
    """Replacing or deleting any one key's value parses or raises ConfigError.

    Whatever parses keeps its sha256 across a JSON round trip.
    """
    base = config_bodies()[name]
    for path in key_paths(base):
        for bad in BAD_VALUES + (DELETE,):
            obj = copy.deepcopy(base)
            section = obj
            for key in path[:-1]:
                section = section[key]
            if bad is DELETE:
                del section[path[-1]]
            else:
                section[path[-1]] = copy.deepcopy(bad)
            try:
                cfg = parse(obj)
            except runner.ConfigError:
                continue
            assert parse(json.loads(json.dumps(obj))).sha256() == cfg.sha256(), (path, bad)


def test_shipped_configs_parse_and_readme_lists_every_key():
    assert SHIPPED
    for path in SHIPPED:
        runner.parse_config(path)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    table = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert sorted(listed) == sorted(runner.CONFIG_KEYS["config"])


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(runner.ConfigError, match="cannot read"):
        runner.parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(runner.ConfigError, match="invalid JSON"):
        runner.parse_config(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"mode": "centr\xe9"}')
    with pytest.raises(runner.ConfigError, match="cannot read"):
        runner.parse_config(latin1)


# -- schedule assembly --------------------------------------------------------------


def test_delayed_agent_selection_seeded():
    obj = minimal_distributed()
    obj["topology"] = {"kind": "complete", "n": 30}
    obj["delay"] = {"dmax": 6, "delayed_agent_count": 5}
    cfg = parse(obj)
    scheds = runner._build_schedules(cfg, run_seed=3)
    delayed = [i for i, s in enumerate(scheds) if s.dmax > 1]
    assert len(delayed) == 5
    for i, s in enumerate(scheds):
        if i not in delayed:
            assert s.B == cfg.T  # d identically one
    again = runner._build_schedules(cfg, run_seed=3)
    assert [list(s.d) for s in again] == [list(s.d) for s in scheds]
    other = runner._build_schedules(cfg, run_seed=4)
    assert [list(s.d) for s in other] != [list(s.d) for s in scheds]


@pytest.mark.parametrize("count", [None, 2])
def test_dmax_one_schedules_are_the_ones_a_draw_gives(monkeypatch, count):
    # integers(1, 2) can only return 1, so dmax = 1 builds its schedules without a Generator
    obj = minimal_distributed()
    obj["delay"] = {"dmax": 1} if count is None else {"dmax": 1, "delayed_agent_count": count}
    cfg = parse(obj)
    drawn = [gen_delays(cfg.T, 1, seeding.rng_for(3, seeding.STREAM_DELAY, 0, i)) for i in range(4)]
    monkeypatch.setattr(runner.seeding, "rng_for", None)  # any Generator would fail the build
    for got, want in zip(runner._build_schedules(cfg, run_seed=3), drawn, strict=True):
        assert got.dmax == want.dmax == 1
        assert got.d.dtype == want.d.dtype and np.array_equal(got.d, want.d)


def test_schedule_from_file(tmp_path):
    sched = DelaySchedule((2, 1, 3, 1, 1, 2, 1, 1, 2, 1, 1, 1), dmax=3)
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, sched.d)
    obj = minimal_centralized()
    obj["delay"] = {"schedule": str(path)}
    cfg = parse(obj)
    built = runner._build_schedules(cfg, run_seed=0)
    assert list(built[0].d) == list(sched.d)
    short = DelaySchedule((1, 2), dmax=2)
    short_path = tmp_path / "short.csv"
    write_schedule_csv(short_path, short.d)
    obj["delay"] = {"schedule": str(short_path)}
    with pytest.raises(runner.ConfigError, match="horizon"):
        runner._build_schedules(parse(obj), run_seed=0)


def test_schedule_paths_fill_every_agent():
    obj = minimal_distributed()
    obj["delay"] = {"schedule": "s.csv"}
    assert parse(obj).delay["schedule"] == ("s.csv",) * 4
    obj["delay"] = {"schedule": ["a.csv", "b.csv", "c.csv", "d.csv"]}
    assert parse(obj).delay["schedule"] == ("a.csv", "b.csv", "c.csv", "d.csv")
    obj["delay"] = {"schedule": ["a.csv", "b.csv"]}
    with pytest.raises(runner.ConfigError, match="need 1 or 4 paths, got 2"):
        parse(obj)


# -- experiments ---------------------------------------------------------------------


def test_run_experiment_outputs(tmp_path):
    cfg = parse(minimal_centralized(seeds=[0, 2]))
    res = runner.run_experiment(cfg, str(tmp_path / "out"))
    assert sorted(os.listdir(res["out_dir"])) == [
        "summary.csv", "trace_seed0.csv", "trace_seed2.csv"]
    lines = read_text(res["summary"]).splitlines()
    assert lines[0] == "seed,total_loss,final_regret,wall_time_s"
    assert len(lines) == 3
    for row, path in zip(res["rows"], res["traces"]):
        meta, cols = read_trace_csv(path)
        assert float(meta["seed"]) == row[0]
        # summary totals equal the trace cumulative-loss final rows
        assert row[1] == pytest.approx(cols["cum_loss"][-1], rel=1e-8)
        assert row[2] == pytest.approx(cols["regret_prefix"][-1], rel=1e-8, abs=1e-8)
        assert meta["config_sha256"] == cfg.sha256()


@pytest.mark.parametrize("name", ["centralized_quadratic", "distributed_softmax"])
def test_shipped_config_comparator_converges(name):
    cfg = runner.parse_config(os.path.join(ROOT, "configs", f"{name}.json"))
    trace = runner.run_single(cfg, 0)
    assert trace.metadata["comparator_converged"] is True
    assert trace.metadata["comparator_iterations"] < 5000
    assert "#comparator_converged=True\n" in trace.csv_text()


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_configs_run_without_warnings(path):
    cfg = runner.parse_config(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runner.run_single(cfg, cfg.seeds[0])


@pytest.mark.parametrize("constants", [{}, {"G": 5.0, "beta": 1.0, "D": 0.5}])
def test_distributed_trace_records_the_network_a(tmp_path, constants):
    res = runner.run_experiment(parse(minimal_distributed(constants=constants)), str(tmp_path))
    meta, _ = read_trace_csv(res["traces"][0])
    a = algorithm_constants(float(meta["G"]), float(meta["beta"]), float(meta["D"]),
                            int(meta["n"]))
    assert meta["A"] == repr(float(a))
    if constants:
        assert meta["A"] == "15.0"  # 3G/(2 beta D)


def test_reruns_byte_identical(tmp_path):
    cfg = parse(minimal_distributed())
    a = runner.run_experiment(cfg, str(tmp_path / "a"))
    b = runner.run_experiment(cfg, str(tmp_path / "b"))
    assert read_text(a["traces"][0]) == read_text(b["traces"][0])
    strip = lambda p: [",".join(l.split(",")[:3]) for l in read_text(p).splitlines()]
    assert strip(a["summary"]) == strip(b["summary"])


def test_all_modes_run(tmp_path):
    for mode in runner.MODES:
        obj = minimal_distributed() if mode == "distributed" else minimal_centralized(mode=mode)
        obj["mode"] = mode
        res = runner.run_experiment(parse(obj), str(tmp_path / mode))
        assert os.path.exists(res["traces"][0])


TRACE_MODES = {"centralized": "delmfw", "distributed": "de2mfw",
               "baseline_dofw": "baseline_dofw", "baseline_dgd": "baseline_dgd"}


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(runner.MODES), T=st.integers(1, 20), softmax=st.booleans(),
       dim=st.integers(1, 3), n=st.integers(1, 5),
       topo=st.sampled_from(["complete", "cycle", "grid"]), seed=st.integers(0, 3),
       data=st.data())
def test_every_mode_returns_the_network_trace_shape(mode, T, softmax, dim, n, topo, seed, data):
    body = {"mode": mode, "T": T, "delay": {"dmax": data.draw(st.integers(1, T), label="dmax")},
            "seeds": [seed]}
    if softmax:
        body["set"] = {"kind": "l1_ball", "radius": 2.0, "p": dim, "C": 2}
        body["loss"] = {"kind": "softmax_xent", "batch": 2}
    else:
        body["set"] = {"kind": "l1_ball", "radius": 1.0, "dim": dim}
        body["loss"] = {"kind": "quadratic"}
    if mode == "distributed":
        body["topology"] = {"kind": topo, "n": n}
    cfg = parse(body)
    trace = runner.run_single(cfg, seed)
    assert trace.decisions.shape == (T, cfg.n_agents, cfg.dim)
    assert trace.per_agent_loss.shape == (T, cfg.n_agents)
    assert np.array_equal(trace.inst_loss, trace.per_agent_loss.max(axis=1))
    assert f"#mode={TRACE_MODES[mode]}" in trace.csv_text().splitlines()


def test_softmax_synthetic_run(tmp_path):
    obj = minimal_centralized(T=6)
    obj["loss"] = {"kind": "softmax_xent", "batch": 2}
    obj["set"] = {"kind": "l2_ball", "radius": 2.0, "p": 3, "C": 2}
    res = runner.run_experiment(parse(obj), str(tmp_path / "sm"))
    meta, cols = read_trace_csv(res["traces"][0])
    assert meta["loss_kind"] == "softmax_xent"
    assert np.all(cols["inst_loss"] > 0)


def test_zeta_mode_dmax_bound(tmp_path):
    cfg = parse(minimal_centralized(zeta_mode="dmax_bound"))
    res = runner.run_experiment(cfg, str(tmp_path / "zb"))
    meta, _ = read_trace_csv(res["traces"][0])
    assert float(meta["B_est"]) == cfg.T * 3
    assert float(meta["B"]) <= cfg.T * 3


def test_explicit_constants_recorded(tmp_path):
    cfg = parse(minimal_centralized(constants={"G": 5.0, "beta": 2.0, "D": 2.0}))
    res = runner.run_experiment(cfg, str(tmp_path / "ec"))
    meta, _ = read_trace_csv(res["traces"][0])
    assert float(meta["G"]) == 5.0 and float(meta["beta"]) == 2.0 and float(meta["D"]) == 2.0


def test_out_dir_resolution(monkeypatch):
    cfg = parse(minimal_centralized())
    assert runner.resolve_out_dir(cfg, "given") == "given"
    monkeypatch.setenv(runner.OUT_ENV, "/tmp/env_runs")
    assert runner.resolve_out_dir(cfg) == "/tmp/env_runs"
    monkeypatch.delenv(runner.OUT_ENV)
    assert runner.resolve_out_dir(cfg) == "runs"
    cfg2 = parse(minimal_centralized(output="cfg_dir"))
    assert runner.resolve_out_dir(cfg2) == "cfg_dir"


# -- sweeps -------------------------------------------------------------------------


def test_dmax_sweep(tmp_path):
    cfg = parse(minimal_centralized(T=8, seeds=[0, 2]))
    res = runner.run_sweep(cfg, "dmax", [1, 3], str(tmp_path / "sw"))
    lines = read_text(res["summary"]).splitlines()
    assert lines[0] == "dmax,mean_total_loss,mean_final_regret"
    assert len(lines) == 3
    assert os.path.exists(tmp_path / "sw" / "dmax1" / "trace_seed0.csv")
    assert os.path.exists(tmp_path / "sw" / "dmax3" / "trace_seed0.csv")
    runs = [line.split(",") for line in read_text(res["runs"]).splitlines()]
    assert runs[0] == ["dmax", "seed", "total_loss", "final_regret"]
    assert [r[:2] for r in runs[1:]] == [["1", "0"], ["1", "2"], ["3", "0"], ["3", "2"]]
    assert runs[1:] == [[str(d), str(s), f"{tl:.9g}", f"{fr:.9g}"]
                        for d in (1, 3) for s, tl, fr, _ in res["results"][d]["rows"]]
    for line in lines[1:]:
        dmax, mean_loss, mean_regret = line.split(",")
        mine = [r for r in runs[1:] if r[0] == dmax]
        assert float(mean_loss) == pytest.approx(np.mean([float(r[2]) for r in mine]), rel=1e-8)
        assert float(mean_regret) == pytest.approx(np.mean([float(r[3]) for r in mine]), rel=1e-8)


def test_f_sweep_matrix(tmp_path):
    cfg = parse(minimal_distributed(T=6))
    res = runner.run_sweep(cfg, "f", [0, 2], str(tmp_path / "fsw"))
    matrix = read_text(res["summary"]).splitlines()
    assert matrix[0] == "f,complete,cycle,grid,erdos_renyi"
    assert len(matrix) == 3
    assert matrix[1].startswith("0,")
    assert "%" in matrix[2]
    runs = read_text(res["runs"]).splitlines()
    assert runs[0] == "topology,f,seed,total_loss,final_regret"
    assert len(runs) == 1 + 4 * 2  # kinds x values x one seed
    for kind in ("complete", "cycle", "grid", "erdos_renyi"):
        assert (kind, 0) in res["mean_loss"]


def test_sweep_validation():
    cfg = parse(minimal_centralized())
    with pytest.raises(runner.ConfigError):
        runner.run_sweep(cfg, "speed", [1])
    with pytest.raises(runner.ConfigError):
        runner.run_sweep(cfg, "topology", ["cycle"])  # not distributed
    with pytest.raises(runner.ConfigError):
        runner.run_sweep(cfg, "dmax", [])
    with pytest.raises(runner.ConfigError):
        runner.run_sweep(cfg, "dmax", [0])


def test_sweep_cells_validated_before_any_run(tmp_path):
    cfg = parse(minimal_distributed())
    with pytest.raises(runner.ConfigError, match="<= n"):
        runner.run_sweep(cfg, "f", [0, 9], str(tmp_path / "fsw"))
    assert not any(tmp_path.rglob("*_f*"))
    # an erdos_renyi cell that cannot be drawn connected stops the complete cell too
    cfg = parse(minimal_distributed(topology={"kind": "cycle", "n": 30, "p": 0.01}))
    with pytest.raises(runner.ConfigError, match="^topology: erdos_renyi: no connected graph"):
        runner.run_sweep(cfg, "topology", ["complete", "erdos_renyi"], str(tmp_path / "sw"))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("vary,values", [("dmax", [3, 3]), ("topology", ["cycle", "grid", "cycle"]),
                                         ("f", [1, 1])])
def test_sweep_rejects_duplicate_values(tmp_path, vary, values):
    # a repeated value would run one cell twice into one directory and duplicate its rows
    cfg = parse(minimal_distributed())
    with pytest.raises(runner.ConfigError, match="distinct"):
        runner.run_sweep(cfg, vary, values, str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()


# -- cli ----------------------------------------------------------------------------


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_validate_and_run(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal_centralized())
    assert cli.main(["validate", "--config", path]) == 0
    assert "ok" in capsys.readouterr().out
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "seed 0" in out and "summary" in out
    assert os.path.exists(tmp_path / "o" / "summary.csv")


def test_python_m_delayfw_is_the_cli(tmp_path, capsys, monkeypatch):
    # python -m delayfw works without the installed console script
    for obj, code in ((minimal_centralized(), 0), (minimal_centralized(bogus=True), 1)):
        monkeypatch.setattr(sys, "argv", ["delayfw", "validate", "--config",
                                          write_cfg(tmp_path, obj)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("delayfw", run_name="__main__")
        assert exc.value.code == code
    assert "ok" in capsys.readouterr().out


def test_cli_config_errors_exit_1(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err
    bad = write_cfg(tmp_path, minimal_centralized(bogus=True), "bad.json")
    assert cli.main(["validate", "--config", bad]) == 1
    assert "unknown keys" in capsys.readouterr().err
    never_connected = minimal_distributed(topology={"kind": "erdos_renyi", "n": 30, "p": 0.01})
    assert cli.main(["validate", "--config", write_cfg(tmp_path, never_connected)]) == 1
    assert "config error: topology: erdos_renyi: no connected graph" in capsys.readouterr().err


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    for bad in (math.inf, math.nan):
        path = write_cfg(tmp_path, minimal_centralized(constants={"G": bad}))
        assert cli.main(["validate", "--config", path]) == 1
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("config error") == 2
        assert ("Infinity" if bad == math.inf else "NaN") in err
    assert not os.path.exists(tmp_path / "o")


def test_cli_rejects_integers_too_large_for_a_float(tmp_path, capsys):
    obj = minimal_centralized()
    obj["set"]["radius"] = 10**400
    path = write_cfg(tmp_path, obj)
    assert cli.main(["validate", "--config", path]) == 1
    assert "set.radius: integer too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("topo", [{"kind": "grid", "n": 10**400},
                                  {"kind": "erdos_renyi", "n": 10**9}])
def test_cli_bounds_the_agent_count(tmp_path, capsys, topo):
    # a dense n x n gossip matrix: 4096 agents take 128 MiB
    path = write_cfg(tmp_path, minimal_distributed(topology=topo))
    assert cli.main(["validate", "--config", path]) == 1
    assert "config error: topology.n: must be in 1..4096" in capsys.readouterr().err
    assert parse(minimal_distributed(topology={"kind": "cycle", "n": 4096})).n_agents == 4096


def test_cli_runtime_failure_exit_2(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, minimal_centralized())
    monkeypatch.setattr(runner, "run_experiment",
                        lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")))
    assert cli.main(["run", "--config", path]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_cli_sweep_and_values(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal_centralized(T=6))
    code = cli.main(["sweep", "--config", path, "--vary", "dmax",
                     "--values", "1,2", "--out", str(tmp_path / "sw")])
    assert code == 0
    assert cli.main(["sweep", "--config", path, "--vary", "dmax",
                     "--values", "a,b", "--out", str(tmp_path / "sw2")]) == 1
    capsys.readouterr()


def test_cli_selftest(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_selftest_weight_sum_fails_for_a_short_first_step(monkeypatch):
    # with eta_1 < 1 the weights sum to 1 - prod_k (1 - eta_k): eta_1 itself at K = 1
    monkeypatch.setattr(AlgoParams, "eta", lambda self, k: min(0.9, self.A / k))
    lines = []
    assert not runner.selftest(print_fn=lines.append)
    weight_sum = [line for line in lines if " weight_sum: " in line]
    assert len(weight_sum) == 1 and weight_sum[0].startswith("FAIL weight_sum: ")
    assert "= 0.1 (tol 1e-12)" in weight_sum[0]


def test_cli_bad_usage():
    assert cli.main([]) != 0
    assert cli.main(["frobnicate"]) != 0
