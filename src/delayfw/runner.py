"""Experiment configs, orchestration, sweeps, and the runtime selftest suite.

A config is a single JSON object (UTF-8).  Top-level keys:

    mode          "centralized" | "distributed" | "baseline_dofw" | "baseline_dgd"
    T             horizon (int >= 1)
    set           {"kind", "radius", "dim"} or, for softmax losses,
                  {"kind", "radius", "p", "C"} (then dim = p*C)
    loss          {"kind": "quadratic"|"softmax_xent", "data": "synthetic"|<csv path>,
                   "batch": int (softmax), "seed": int offset, default 0}
    delay         {"dmax": int >= 1} or {"schedule": <csv path or list of paths>};
                  plus "seed" (offset, default 0) and, distributed only,
                  "delayed_agent_count": f agents get uniform {1..dmax} delays,
                  the rest get d = 1 (omitted: every agent is delayed)
    topology      distributed only: {"kind", "n", "p" (erdos, default 0.3),
                   "seed" (default 0)}
    constants     {"G"|"beta"|"D": "auto" or a positive number}, default auto
    zeta_mode     "true_B" (default; uses the realized delay mass),
                  "dmax_bound" (uses T*dmax), or "explicit" (requires "zeta")
    zeta          positive number, only with zeta_mode = "explicit"
    K_override    optional int >= 1
    diagnostics   bool, default true (consensus/tracking columns, distributed)
    seeds         nonempty list of non-negative ints
    output        optional default output directory

Unknown keys anywhere are rejected.  Every run is deterministic in
(config, seed); wall-clock times in summary.csv are the one exception and
are excluded from that contract.  Feedback scheduled to land after round T
is silently never delivered; reported B counts scheduled delay.

Per-seed randomness is derived from the run seed through the fixed stream
constants, with the config's loss/delay seed fields acting as sub-keys, so
changing one of them reshuffles only that ingredient.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .baselines import dgd_run, dofw_run
from .de2mfw import (NetworkRun, centralized_params, de2mfw_run, delmfw_run,
                     distributed_params, run_rounds)
from .delay import DelaySchedule, gen_delays, schedule_from_csv
from .geometry import KINDS, ConstraintSet
from .losses import (
    LossStream,
    csv_ingest,
    estimate_constants,
    synth_quadratic_stream,
    synth_stream,
)
from .metrics import attach_regret, compute_comparator
from .metrics import write_atomic as _write_atomic  # the benchmark's self-check patches this name
from .network import TOPOLOGY_KINDS, algorithm_constants, metropolis_weights, topology

MODES = ("centralized", "distributed", "baseline_dofw", "baseline_dgd")
ZETA_MODES = ("true_B", "dmax_bound", "explicit")
SWEEP_KEYS = ("dmax", "topology", "f")
OUT_ENV = "DELAYFW_OUT"


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# -- config parsing ----------------------------------------------------------------


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _get(obj: dict, key: str, kinds, where: str, required=True, default=None):
    if key not in obj:
        if required:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    val = obj[key]
    if kinds is int and isinstance(val, bool):
        raise ConfigError(f"{where}.{key}: expected an integer, got a boolean")
    if kinds is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if not isinstance(val, kinds):
        raise ConfigError(f"{where}.{key}: expected {kinds}, got {type(val).__name__}")
    return val


def _positive_int(obj, key, where, required=True, default=None, minimum=1):
    val = _get(obj, key, int, where, required, default)
    if val is not None and val < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {val}")
    return val


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    mode: str
    T: int
    set_kind: str
    radius: float
    dim: int
    p_features: int | None
    n_classes: int | None
    loss_kind: str
    loss_data: str
    batch: int
    loss_seed: int
    delay_dmax: int | None
    delay_schedule: tuple | None
    delay_seed: int
    delayed_agent_count: int | None
    topo_kind: str | None
    n_agents: int
    topo_p: float
    topo_seed: int
    g_const: float | None
    beta_const: float | None
    d_const: float | None
    zeta_mode: str
    zeta_explicit: float | None
    k_override: int | None
    diagnostics: bool
    seeds: tuple
    output: str | None
    raw: dict = field(compare=False, repr=False)

    def sha256(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(obj).__name__}")
    _check_keys(obj, ("mode", "T", "set", "loss", "delay", "topology", "constants",
                      "zeta_mode", "zeta", "K_override", "diagnostics", "seeds",
                      "output"), "config")
    mode = _get(obj, "mode", str, "config")
    if mode not in MODES:
        raise ConfigError(f"config.mode: must be one of {MODES}, got '{mode}'")
    T = _positive_int(obj, "T", "config")

    loss = _get(obj, "loss", dict, "config")
    _check_keys(loss, ("kind", "data", "batch", "seed"), "loss")
    loss_kind = _get(loss, "kind", str, "loss")
    if loss_kind not in ("quadratic", "softmax_xent"):
        raise ConfigError(
            f"loss.kind: must be 'quadratic' or 'softmax_xent', got '{loss_kind}'")
    loss_data = _get(loss, "data", str, "loss", required=False, default="synthetic")
    loss_seed = _positive_int(loss, "seed", "loss", required=False, default=0, minimum=0)
    if loss_kind == "quadratic":
        if "batch" in loss:
            raise ConfigError("loss.batch: only meaningful for softmax losses")
        if loss_data != "synthetic":
            raise ConfigError("loss.data: quadratic streams are synthetic only")
        batch = 1
    else:
        batch = _positive_int(loss, "batch", "loss", required=False, default=1)

    cset_obj = _get(obj, "set", dict, "config")
    _check_keys(cset_obj, ("kind", "radius", "dim", "p", "C"), "set")
    set_kind = _get(cset_obj, "kind", str, "set")
    if set_kind not in KINDS:
        raise ConfigError(f"set.kind: must be one of {KINDS}, got '{set_kind}'")
    radius = _get(cset_obj, "radius", float, "set")
    if not (radius > 0 and math.isfinite(radius)):
        raise ConfigError(f"set.radius: must be positive and finite, got {radius}")
    if loss_kind == "quadratic":
        if "p" in cset_obj or "C" in cset_obj:
            raise ConfigError("set.p/set.C: only meaningful for softmax losses")
        dim = _positive_int(cset_obj, "dim", "set")
        p_features, n_classes = None, None
    else:
        p_features = _positive_int(cset_obj, "p", "set")
        n_classes = _positive_int(cset_obj, "C", "set", minimum=2)
        dim = _positive_int(cset_obj, "dim", "set", required=False,
                            default=p_features * n_classes)
        if dim != p_features * n_classes:
            raise ConfigError(f"set.dim: must equal p*C = {p_features * n_classes}, got {dim}")

    topo_obj = _get(obj, "topology", dict, "config", required=mode == "distributed")
    if mode != "distributed":
        if topo_obj is not None:
            raise ConfigError("topology: only meaningful in distributed mode")
        topo_kind, n_agents, topo_p, topo_seed = None, 1, 0.3, 0
    else:
        _check_keys(topo_obj, ("kind", "n", "p", "seed"), "topology")
        topo_kind = _get(topo_obj, "kind", str, "topology")
        if topo_kind not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"topology.kind: must be one of {TOPOLOGY_KINDS}, got '{topo_kind}'")
        n_agents = _positive_int(topo_obj, "n", "topology")
        topo_p = _get(topo_obj, "p", float, "topology", required=False, default=0.3)
        if not (0.0 < topo_p <= 1.0):
            raise ConfigError(f"topology.p: must be in (0, 1], got {topo_p}")
        topo_seed = _positive_int(topo_obj, "seed", "topology", required=False,
                                  default=0, minimum=0)

    delay = _get(obj, "delay", dict, "config")
    _check_keys(delay, ("dmax", "schedule", "seed", "delayed_agent_count"), "delay")
    has_dmax, has_sched = "dmax" in delay, "schedule" in delay
    if has_dmax == has_sched:
        raise ConfigError("delay: exactly one of 'dmax' and 'schedule' is required")
    delay_dmax = _positive_int(delay, "dmax", "delay", required=False)
    delay_seed = _positive_int(delay, "seed", "delay", required=False, default=0, minimum=0)
    delay_schedule = None
    if has_sched:
        sched = delay["schedule"]
        if isinstance(sched, str):
            delay_schedule = (sched,)
        elif isinstance(sched, list) and sched and all(isinstance(s, str) for s in sched):
            delay_schedule = tuple(sched)
        else:
            raise ConfigError("delay.schedule: must be a path or a nonempty list of paths")
        if len(delay_schedule) not in (1, n_agents):
            raise ConfigError(
                f"delay.schedule: need 1 or {n_agents} paths, got {len(delay_schedule)}")
    f = _positive_int(delay, "delayed_agent_count", "delay", required=False, minimum=0)
    if f is not None:
        if mode != "distributed":
            raise ConfigError("delay.delayed_agent_count: only meaningful in distributed mode")
        if not has_dmax:
            raise ConfigError("delay.delayed_agent_count: requires delay.dmax")
        if f > n_agents:
            raise ConfigError(
                f"delay.delayed_agent_count: must be <= n = {n_agents}, got {f}")

    consts = _get(obj, "constants", dict, "config", required=False, default={})
    _check_keys(consts, ("G", "beta", "D"), "constants")

    def const_value(key):
        if key not in consts or consts[key] == "auto":
            return None
        val = consts[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not val > 0:
            raise ConfigError(f"constants.{key}: must be 'auto' or a positive number")
        return float(val)

    g_const, beta_const, d_const = const_value("G"), const_value("beta"), const_value("D")

    algorithmic = mode in ("centralized", "distributed")
    zeta_mode = _get(obj, "zeta_mode", str, "config", required=False, default="true_B")
    if zeta_mode not in ZETA_MODES:
        raise ConfigError(f"config.zeta_mode: must be one of {ZETA_MODES}, got '{zeta_mode}'")
    if not algorithmic and ("zeta_mode" in obj or "zeta" in obj or "K_override" in obj):
        raise ConfigError("zeta_mode/zeta/K_override: only meaningful for "
                          "centralized or distributed mode")
    zeta_explicit = None
    if zeta_mode == "explicit":
        zeta_explicit = _get(obj, "zeta", float, "config")
        if not (zeta_explicit > 0 and math.isfinite(zeta_explicit)):
            raise ConfigError(f"config.zeta: must be positive and finite, got {zeta_explicit}")
    elif "zeta" in obj:
        raise ConfigError("config.zeta: only meaningful with zeta_mode = 'explicit'")
    k_override = _positive_int(obj, "K_override", "config", required=False)

    diagnostics = _get(obj, "diagnostics", bool, "config", required=False, default=True)

    seeds = _get(obj, "seeds", list, "config")
    if not seeds:
        raise ConfigError("config.seeds: must be a nonempty list")
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            raise ConfigError(f"config.seeds: entries must be non-negative ints, got {s!r}")
    output = _get(obj, "output", str, "config", required=False)

    return ExperimentConfig(
        mode=mode, T=T, set_kind=set_kind, radius=radius, dim=dim,
        p_features=p_features, n_classes=n_classes, loss_kind=loss_kind,
        loss_data=loss_data, batch=batch, loss_seed=loss_seed,
        delay_dmax=delay_dmax, delay_schedule=delay_schedule, delay_seed=delay_seed,
        delayed_agent_count=f, topo_kind=topo_kind, n_agents=n_agents,
        topo_p=topo_p, topo_seed=topo_seed, g_const=g_const, beta_const=beta_const,
        d_const=d_const, zeta_mode=zeta_mode, zeta_explicit=zeta_explicit,
        k_override=k_override, diagnostics=diagnostics, seeds=tuple(seeds),
        output=output, raw=obj,
    )


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return config_from_dict(obj)


# -- experiment assembly -------------------------------------------------------------


def _build_stream(cfg: ExperimentConfig, run_seed: int) -> LossStream:
    if cfg.loss_data == "synthetic":
        rng = seeding.rng_for(run_seed, seeding.STREAM_LOSS, cfg.loss_seed)
        if cfg.loss_kind == "quadratic":
            return synth_quadratic_stream(rng, cfg.T, cfg.dim, cfg.n_agents)
        return synth_stream(rng, cfg.T, cfg.p_features, cfg.n_classes, cfg.batch,
                            cfg.n_agents)
    stream = csv_ingest(cfg.loss_data, cfg.batch, cfg.T, cfg.n_agents,
                        n_classes=cfg.n_classes)
    if stream.dim != cfg.dim:
        raise ConfigError(
            f"{cfg.loss_data}: data dimension {stream.dim} != set dimension {cfg.dim}")
    return stream


def _build_schedules(cfg: ExperimentConfig, run_seed: int) -> list:
    n = cfg.n_agents
    if cfg.delay_schedule is not None:
        paths = cfg.delay_schedule if len(cfg.delay_schedule) == n \
            else cfg.delay_schedule * n
        schedules = [schedule_from_csv(p) for p in paths]
    else:
        if cfg.delayed_agent_count is None:
            delayed = set(range(n))
        else:
            rng = seeding.rng_for(run_seed, seeding.STREAM_DELAY, cfg.delay_seed, n)
            delayed = set(rng.choice(n, size=cfg.delayed_agent_count,
                                     replace=False).tolist())
        schedules = []
        for i in range(n):
            if i in delayed:
                rng = seeding.rng_for(run_seed, seeding.STREAM_DELAY, cfg.delay_seed, i)
                schedules.append(gen_delays(cfg.T, cfg.delay_dmax, rng))
            else:
                schedules.append(DelaySchedule(np.ones(cfg.T, dtype=int), 1))
    for s in schedules:
        if s.T != cfg.T:
            raise ConfigError(f"delay schedule horizon {s.T} != config T {cfg.T}")
    return schedules


def _resolve_constants(cfg: ExperimentConfig, stream: LossStream,
                       cset: ConstraintSet) -> tuple:
    if cfg.g_const is None or cfg.beta_const is None:
        g_auto, beta_auto = estimate_constants(stream, cset)
    g = cfg.g_const if cfg.g_const is not None else g_auto
    beta = cfg.beta_const if cfg.beta_const is not None else beta_auto
    d = cfg.d_const if cfg.d_const is not None else cset.diameter()
    return g, beta, d


def _b_estimate(cfg: ExperimentConfig, schedules) -> float:
    if cfg.zeta_mode == "dmax_bound":
        return float(cfg.T * max(s.dmax for s in schedules))
    return float(np.mean([s.B for s in schedules]))


def run_single(cfg: ExperimentConfig, run_seed: int):
    """One fully assembled run for one seed; returns the regret-attached trace."""
    cset = ConstraintSet(cfg.set_kind, cfg.radius, cfg.dim)
    stream = _build_stream(cfg, run_seed)
    schedules = _build_schedules(cfg, run_seed)
    g, beta, d = _resolve_constants(cfg, stream, cset)
    if cfg.mode == "centralized":
        params = centralized_params(cfg.T, g, beta, d, _b_estimate(cfg, schedules),
                                    K=cfg.k_override, zeta=cfg.zeta_explicit)
        trace = delmfw_run(cset, stream, schedules[0], params, run_seed)
    elif cfg.mode == "distributed":
        topo = topology(cfg.topo_kind, cfg.n_agents, p=cfg.topo_p, seed=cfg.topo_seed)
        gossip = metropolis_weights(topo)
        consts = algorithm_constants(gossip, topo.n, d, g, beta)
        params = distributed_params(cfg.T, g, beta, d, _b_estimate(cfg, schedules),
                                    a_dist=consts.a_dist, K=cfg.k_override,
                                    zeta=cfg.zeta_explicit)
        trace = de2mfw_run(cset, stream, schedules, topo, params, run_seed,
                           diagnostics=cfg.diagnostics)
    elif cfg.mode == "baseline_dofw":
        trace = dofw_run(cset, stream, schedules[0], seed=run_seed)
    else:
        trace = dgd_run(cset, stream, schedules[0], seed=run_seed)
    comparator = compute_comparator(stream, cset)
    attach_regret(trace, comparator, stream)
    trace.metadata.update({
        # numpy scalars repr as np.float64(...), which ties the bytes to numpy's version
        "G": repr(float(g)), "beta": repr(float(beta)), "D": repr(float(d)),
        "comparator_gap": repr(comparator.gap),
        "comparator_iterations": comparator.iterations,
        "config_sha256": cfg.sha256(),
    })
    return trace


def resolve_out_dir(cfg: ExperimentConfig, out_dir=None) -> str:
    return out_dir or cfg.output or os.environ.get(OUT_ENV) or "runs"


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run every seed, write per-seed trace CSVs plus a summary CSV.

    summary.csv rows are (seed, total_loss, final_regret, wall_time_s); the
    wall time column is informational and excluded from the byte-level
    determinism contract.
    """
    out = resolve_out_dir(cfg, out_dir)
    os.makedirs(out, exist_ok=True)
    rows, paths = [], []
    for s in cfg.seeds:
        start = time.perf_counter()
        trace = run_single(cfg, s)
        wall = time.perf_counter() - start
        path = os.path.join(out, f"trace_seed{s}.csv")
        trace.write_csv(path)
        paths.append(path)
        rows.append((s, trace.total_loss, trace.final_regret, wall))
    lines = ["seed,total_loss,final_regret,wall_time_s"]
    lines += [f"{s},{tl:.9g},{fr:.9g},{w:.9g}" for s, tl, fr, w in rows]
    summary = os.path.join(out, "summary.csv")
    _write_atomic(summary, "\n".join(lines) + "\n")
    return {"out_dir": out, "traces": paths, "summary": summary, "rows": rows}


# -- sweeps -------------------------------------------------------------------------


def _override(cfg: ExperimentConfig, section: str, key: str, value) -> ExperimentConfig:
    raw = json.loads(json.dumps(cfg.raw))
    if section is None:
        raw[key] = value
    else:
        raw.setdefault(section, {})[key] = value
    return config_from_dict(raw)


def run_sweep(cfg: ExperimentConfig, vary: str, values, out_dir=None) -> dict:
    """Iterate one config knob; write per-value runs plus a sweep summary.

    vary = "dmax":     values are ints; one run_experiment per value.
    vary = "topology": values are topology kinds (distributed configs).
    vary = "f":        values are delayed-agent counts, crossed with all four
                       topology kinds into a matrix summary (rows f, columns
                       topology, cells "loss" or "loss (+pct%)" vs the f=0 row).
    """
    if vary not in SWEEP_KEYS:
        raise ConfigError(f"sweep key must be one of {SWEEP_KEYS}, got '{vary}'")
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = resolve_out_dir(cfg, out_dir)
    os.makedirs(out, exist_ok=True)

    if vary in ("dmax", "f") and cfg.delay_dmax is None:
        raise ConfigError(f"sweep over {vary} requires a delay.dmax config")
    if vary in ("topology", "f") and cfg.mode != "distributed":
        raise ConfigError(f"sweep over {vary} requires distributed mode")

    if vary == "dmax":
        values = _int_values(values, minimum=1)
        lines = ["dmax,mean_total_loss,mean_final_regret"]
        results = {}
        for v in values:
            sub = _override(cfg, "delay", "dmax", v)
            res = run_experiment(sub, os.path.join(out, f"dmax{v}"))
            results[v] = res
            lines.append(f"{v},{_mean(res, 1):.9g},{_mean(res, 2):.9g}")
        summary = os.path.join(out, "sweep_summary.csv")
        _write_atomic(summary, "\n".join(lines) + "\n")
        return {"out_dir": out, "summary": summary, "results": results}

    if vary == "topology":
        for v in values:
            if v not in TOPOLOGY_KINDS:
                raise ConfigError(f"unknown topology '{v}' in sweep values")
        lines = ["topology,mean_total_loss,mean_final_regret"]
        results = {}
        for v in values:
            sub = _override(cfg, "topology", "kind", v)
            res = run_experiment(sub, os.path.join(out, f"topology_{v}"))
            results[v] = res
            lines.append(f"{v},{_mean(res, 1):.9g},{_mean(res, 2):.9g}")
        summary = os.path.join(out, "sweep_summary.csv")
        _write_atomic(summary, "\n".join(lines) + "\n")
        return {"out_dir": out, "summary": summary, "results": results}

    # vary == "f": cross with all four topologies (matrix layout)
    values = _int_values(values, minimum=0)
    long_lines = ["topology,f,seed,total_loss,final_regret"]
    mean_loss = {}
    results = {}
    for kind in TOPOLOGY_KINDS:
        for v in values:
            sub = _override(cfg, "topology", "kind", kind)
            sub = _override(sub, "delay", "delayed_agent_count", v)
            res = run_experiment(sub, os.path.join(out, f"{kind}_f{v}"))
            results[(kind, v)] = res
            for s, tl, fr, _ in res["rows"]:
                long_lines.append(f"{kind},{v},{s},{tl:.9g},{fr:.9g}")
            mean_loss[(kind, v)] = _mean(res, 1)
    runs_path = os.path.join(out, "runs.csv")
    _write_atomic(runs_path, "\n".join(long_lines) + "\n")
    base_f = 0 if 0 in values else values[0]
    matrix_lines = ["f," + ",".join(TOPOLOGY_KINDS)]
    for v in values:
        cells = [str(v)]
        for kind in TOPOLOGY_KINDS:
            loss = mean_loss[(kind, v)]
            if v == base_f:
                cells.append(f"{loss:.9g}")
            else:
                pct = 100.0 * (loss - mean_loss[(kind, base_f)]) / mean_loss[(kind, base_f)]
                cells.append(f"{loss:.9g} ({pct:+.1f}%)")
        matrix_lines.append(",".join(f'"{c}"' if "," in c else c for c in cells))
    matrix_path = os.path.join(out, "matrix.csv")
    _write_atomic(matrix_path, "\n".join(matrix_lines) + "\n")
    return {"out_dir": out, "summary": matrix_path, "runs": runs_path,
            "results": results, "mean_loss": mean_loss}


def _int_values(values, minimum: int):
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
            raise ConfigError(f"sweep values must be ints >= {minimum}, got {v!r}")
        out.append(v)
    return out


def _mean(res: dict, col: int) -> float:
    return float(np.mean([row[col] for row in res["rows"]]))


# -- selftest -----------------------------------------------------------------------


def _selftest_network_run():
    """Instrumented grid run shared by the identity checks: n=9, T=50, K=20."""
    n, T, K, dim = 9, 50, 20, 4
    cset = ConstraintSet("l1_ball", 1.0, dim)
    topo = topology("grid", n, seed=0)
    gossip = metropolis_weights(topo)
    stream = synth_quadratic_stream(seeding.rng_for(0, seeding.STREAM_LOSS, 0),
                                    T, dim, n_agents=n, scale=0.8)
    schedules = [gen_delays(T, 5, seeding.rng_for(0, seeding.STREAM_DELAY, 0, i))
                 for i in range(n)]
    g, beta = estimate_constants(stream, cset)
    d = cset.diameter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        consts = algorithm_constants(gossip, n, d, g, beta)
    params = distributed_params(T, g, beta, d,
                                float(np.mean([s.B for s in schedules])),
                                a_dist=consts.a_dist, K=K)
    run = NetworkRun(cset, gossip, params, seed=0, record_details=True)
    run_rounds(run, stream, schedules)
    c_d = gossip.k0 * math.sqrt(n) * d
    return run, params, c_d


def _check_doubly_stochastic():
    worst = 0.0
    for kind in TOPOLOGY_KINDS:
        for n in (4, 9, 16, 30):
            w = metropolis_weights(topology(kind, n, seed=0)).w
            worst = max(worst,
                        float(np.max(np.abs(w.sum(axis=0) - 1.0))),
                        float(np.max(np.abs(w.sum(axis=1) - 1.0))))
    return worst <= 1e-12, f"max row/col sum deviation {worst:.3g} (tol 1e-12)"


def _check_consensus(run, params, c_d):
    worst = -math.inf
    for t, det in run.details.items():
        for k in range(1, params.K + 1):
            xbar = det["subs"][:, k - 1].mean(axis=0)
            err = float(np.max(np.linalg.norm(det["y"][:, k - 1] - xbar, axis=1)))
            worst = max(worst, err - c_d / k)
    return worst <= 1e-12, f"max (error - C_d/k) = {worst:.3g}"


def _check_tracking(run, params):
    worst = 0.0
    for det in run.details.values():
        for k in range(params.K):
            gap = np.linalg.norm(det["d"][:, k].mean(axis=0) - det["s"][:, k].mean(axis=0))
            worst = max(worst, float(gap))
    return worst <= 1e-9, f"max mean-tracking gap {worst:.3g} (tol 1e-9)"


def _check_mean_recursion(run, params):
    worst = 0.0
    for det in run.details.values():
        for k in range(1, params.K + 1):
            xbar = det["subs"][:, k - 1].mean(axis=0)
            vbar = det["v"][:, k - 1].mean(axis=0)
            eta = params.eta(k)
            gap = np.linalg.norm(det["subs"][:, k].mean(axis=0) - (xbar + eta * (vbar - xbar)))
            worst = max(worst, float(gap))
    return worst <= 1e-12, f"max mean-recursion gap {worst:.3g} (tol 1e-12)"


def _check_weight_sum():
    worst_ratio = 0.0
    K = 10_000
    ks = np.arange(1, K + 1, dtype=float)
    for a in range(3, 11):
        eta = np.minimum(1.0, a / ks)
        # tail[k] = prod_{l > k} (1 - eta_l), via a reversed cumulative product
        tail = np.ones(K)
        tail[:-1] = np.cumprod((1.0 - eta)[::-1])[::-1][1:]
        total = float(np.sum(eta * tail))
        worst_ratio = max(worst_ratio, total / (3.0 * (a + 1.0)))
    return worst_ratio <= 1.0, f"max weight-sum / 3(A+1) = {worst_ratio:.3g}"


def selftest(print_fn=print) -> bool:
    """Run the identity suite; prints one PASS/FAIL line per check."""
    run, params, c_d = _selftest_network_run()
    checks = [
        ("doubly_stochastic", lambda: _check_doubly_stochastic()),
        ("consensus_bound", lambda: _check_consensus(run, params, c_d)),
        ("tracking_average", lambda: _check_tracking(run, params)),
        ("mean_recursion", lambda: _check_mean_recursion(run, params)),
        ("weight_sum", lambda: _check_weight_sum()),
    ]
    all_ok = True
    for name, fn in checks:
        start = time.perf_counter()
        ok, detail = fn()
        wall = time.perf_counter() - start
        all_ok &= ok
        print_fn(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{wall:.2f}s]")
    return all_ok
