"""Experiment configs, orchestration, sweeps, and the runtime selftest suite.

A config is a single JSON object (UTF-8).  `CONFIG_KEYS` lists every key,
section by section, with its type, default and value rule; unknown keys
anywhere are rejected.  `config_from_dict` adds the rules that tie keys
together: mode and topology, loss kind and set/batch keys, dmax or
schedule, delayed_agent_count, and zeta_mode and zeta.  The README's config
table says what each key means.

Every run is deterministic in (config, seed); wall-clock times in
summary.csv are the one exception and are excluded from that contract.
Feedback scheduled to land after round T is silently never delivered;
reported B counts scheduled delay.

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
from .metrics import attach_regret, compute_comparator, consensus_error
from .metrics import write_atomic as _write_atomic  # the benchmark's self-check patches this name
from .network import TOPOLOGY_KINDS, algorithm_constants, metropolis_weights, topology

MODES = ("centralized", "distributed", "baseline_dofw", "baseline_dgd")
ZETA_MODES = ("true_B", "dmax_bound", "explicit")
LOSS_KINDS = ("quadratic", "softmax_xent")
SWEEP_KEYS = ("dmax", "topology", "f")
OUT_ENV = "DELAYFW_OUT"


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# -- config parsing ----------------------------------------------------------------

# A rule is (a test on a value of its key's type, what the test asks for).
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: v > 0 and math.isfinite(v), "positive and finite")
REQUIRED = object()  # the default of a key that must be given

# section -> key -> (type, default, rule).  A dict-typed key is read with the
# section of its own name.  Ints exclude booleans; floats accept ints.
CONFIG_KEYS = {
    "config": {
        "mode": (str, REQUIRED, (lambda v: v in MODES, f"one of {MODES}")),
        "T": (int, REQUIRED, _AT_LEAST_1),
        "set": (dict, REQUIRED, None),
        "loss": (dict, REQUIRED, None),
        "delay": (dict, REQUIRED, None),
        "topology": (dict, None, None),
        "constants": (dict, {}, None),
        "zeta_mode": (str, "true_B", (lambda v: v in ZETA_MODES, f"one of {ZETA_MODES}")),
        "zeta": (float, None, _POSITIVE),
        "K_override": (int, None, _AT_LEAST_1),
        "diagnostics": (bool, True, None),
        "seeds": (list, REQUIRED, (lambda v: v and all(type(s) is int and s >= 0 for s in v),
                                   "a nonempty list of non-negative ints")),
        "output": (str, None, None),
    },
    "set": {
        "kind": (str, REQUIRED, (lambda v: v in KINDS, f"one of {KINDS}")),
        "radius": (float, REQUIRED, _POSITIVE),
        "dim": (int, None, _AT_LEAST_1),
        "p": (int, None, _AT_LEAST_1),
        "C": (int, None, (lambda v: v >= 2, ">= 2")),
    },
    "loss": {
        "kind": (str, REQUIRED, (lambda v: v in LOSS_KINDS, f"one of {LOSS_KINDS}")),
        "data": (str, "synthetic", None),
        "batch": (int, None, _AT_LEAST_1),
        "seed": (int, 0, _AT_LEAST_0),
    },
    "delay": {
        "dmax": (int, None, _AT_LEAST_1),
        "schedule": ((str, list), None, (
            lambda v: isinstance(v, str) or v and all(isinstance(p, str) for p in v),
            "a path or a nonempty list of paths")),
        "seed": (int, 0, _AT_LEAST_0),
        "delayed_agent_count": (int, None, _AT_LEAST_0),
    },
    "topology": {
        "kind": (str, REQUIRED, (lambda v: v in TOPOLOGY_KINDS, f"one of {TOPOLOGY_KINDS}")),
        "n": (int, REQUIRED, _AT_LEAST_1),
        "p": (float, 0.3, (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
        "seed": (int, 0, _AT_LEAST_0),
    },
    "constants": {key: ((float, str), "auto", (
        lambda v: v == "auto" or not isinstance(v, str) and v > 0 and math.isfinite(v),
        "'auto' or a positive finite number")) for key in ("G", "beta", "D")},
}


def _checked(val, kind, rule, name: str):
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if float in kinds and type(val) is int:
        try:
            val = float(val)
        except OverflowError:
            raise ConfigError(f"{name}: integer too large for a float") from None
    if not isinstance(val, kinds) or isinstance(val, bool) and bool not in kinds:
        expected = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"{name}: expected {expected}, got {type(val).__name__}")
    if rule is not None and not rule[0](val):
        raise ConfigError(f"{name}: must be {rule[1]}, got {val!r}")
    return val


def _read(obj: dict, section: str) -> dict:
    """The keys of `section` in obj, checked against CONFIG_KEYS, defaults filled in."""
    table = CONFIG_KEYS[section]
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    out = {}
    for key, (kind, default, rule) in table.items():
        if key in obj:
            val = _checked(obj[key], kind, rule, f"{section}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{section}: missing required key '{key}'")
        else:
            val = default
        out[key] = _read(val, key) if kind is dict and val is not None else val
    return out


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
    c = _read(obj, "config")
    mode, cset, loss, delay = c["mode"], c["set"], c["loss"], c["delay"]

    if loss["kind"] == "quadratic":
        if loss["batch"] is not None:
            raise ConfigError("loss.batch: only meaningful for softmax losses")
        if loss["data"] != "synthetic":
            raise ConfigError("loss.data: quadratic streams are synthetic only")
        if cset["p"] is not None or cset["C"] is not None:
            raise ConfigError("set.p/set.C: only meaningful for softmax losses")
        if cset["dim"] is None:
            raise ConfigError("set: missing required key 'dim'")
        dim = cset["dim"]
    else:
        for key in ("p", "C"):
            if cset[key] is None:
                raise ConfigError(f"set: missing required key '{key}'")
        dim = cset["p"] * cset["C"]
        if cset["dim"] not in (None, dim):
            raise ConfigError(f"set.dim: must equal p*C = {dim}, got {cset['dim']}")

    if (mode == "distributed") != (c["topology"] is not None):
        raise ConfigError("topology: required in distributed mode and only meaningful there")
    topo = c["topology"] or {"kind": None, "n": 1, "p": 0.3, "seed": 0}
    n_agents = topo["n"]

    if (delay["dmax"] is None) == (delay["schedule"] is None):
        raise ConfigError("delay: exactly one of 'dmax' and 'schedule' is required")
    schedule = delay["schedule"]
    if schedule is not None:
        schedule = (schedule,) if isinstance(schedule, str) else tuple(schedule)
        if len(schedule) not in (1, n_agents):
            raise ConfigError(
                f"delay.schedule: need 1 or {n_agents} paths, got {len(schedule)}")
    f = delay["delayed_agent_count"]
    if f is not None:
        if mode != "distributed":
            raise ConfigError("delay.delayed_agent_count: only meaningful in distributed mode")
        if delay["dmax"] is None:
            raise ConfigError("delay.delayed_agent_count: requires delay.dmax")
        if f > n_agents:
            raise ConfigError(
                f"delay.delayed_agent_count: must be <= n = {n_agents}, got {f}")

    if mode not in ("centralized", "distributed") and (
            "zeta_mode" in obj or "zeta" in obj or "K_override" in obj):
        raise ConfigError("zeta_mode/zeta/K_override: only meaningful for "
                          "centralized or distributed mode")
    if mode != "distributed" and "diagnostics" in obj:
        raise ConfigError("config.diagnostics: only meaningful in distributed mode")
    if (c["zeta_mode"] == "explicit") != (c["zeta"] is not None):
        raise ConfigError("config.zeta: required with zeta_mode = 'explicit' and only "
                          "meaningful there")

    consts = {k: None if v == "auto" else v for k, v in c["constants"].items()}
    return ExperimentConfig(
        mode=mode, T=c["T"], set_kind=cset["kind"], radius=cset["radius"], dim=dim,
        p_features=cset["p"], n_classes=cset["C"], loss_kind=loss["kind"],
        loss_data=loss["data"], batch=loss["batch"] or 1, loss_seed=loss["seed"],
        delay_dmax=delay["dmax"], delay_schedule=schedule, delay_seed=delay["seed"],
        delayed_agent_count=f, topo_kind=topo["kind"], n_agents=n_agents,
        topo_p=topo["p"], topo_seed=topo["seed"], g_const=consts["G"],
        beta_const=consts["beta"], d_const=consts["D"], zeta_mode=c["zeta_mode"],
        zeta_explicit=c["zeta"], k_override=c["K_override"],
        diagnostics=c["diagnostics"], seeds=tuple(c["seeds"]), output=c["output"],
        # a private copy, so the caller's later edits cannot move sha256()
        raw=json.loads(json.dumps(obj)),
    )


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config: {e}") from None
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError as e:
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
        "comparator_converged": comparator.converged,
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


def _override(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    raw = json.loads(json.dumps(cfg.raw))
    for section, key, value in overrides:
        raw.setdefault(section, {})[key] = value
    return config_from_dict(raw)


def run_sweep(cfg: ExperimentConfig, vary: str, values, out_dir=None) -> dict:
    """Run each cell of a grid over one config knob; write its runs and a summary.

    vary = "dmax":     values are ints; one cell per value.
    vary = "topology": values are topology kinds (distributed configs).
    vary = "f":        values are delayed-agent counts, crossed with all four
                       topology kinds.
    A cell is a list of (section, key, value) overrides of cfg.  Every cell's
    config is validated before the first run.  Each cell runs into its own
    directory; runs.csv holds one row per (cell, seed): the varied values,
    then seed, total_loss, final_regret.  The summary is sweep_summary.csv
    (per-cell means) or, for "f", matrix.csv (rows f, columns topology,
    cells "loss" or "loss (+pct%)" vs the f=0 row).
    """
    if vary not in SWEEP_KEYS:
        raise ConfigError(f"sweep key must be one of {SWEEP_KEYS}, got '{vary}'")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"sweep values must be distinct, got {list(values)}")
    if vary == "dmax":
        grid = [(f"dmax{v}", [("delay", "dmax", v)]) for v in values]
    elif vary == "topology":
        grid = [(f"topology_{v}", [("topology", "kind", v)]) for v in values]
    else:
        grid = [(f"{kind}_f{v}", [("topology", "kind", kind), ("delay", "delayed_agent_count", v)])
                for kind in TOPOLOGY_KINDS for v in values]
    cells = []  # (directory, results key, runs.csv label, config)
    for name, over in grid:
        cell = tuple(v for _, _, v in over)
        cells.append((name, cell if len(cell) > 1 else cell[0], ",".join(map(str, cell)),
                      _override(cfg, over)))
    out = resolve_out_dir(cfg, out_dir)
    os.makedirs(out, exist_ok=True)

    results = {}
    for name, key, _, sub in cells:
        results[key] = run_experiment(sub, os.path.join(out, name))
    lines = [("topology,f" if vary == "f" else vary) + ",seed,total_loss,final_regret"]
    lines += [f"{label},{s},{tl:.9g},{fr:.9g}"
              for _, key, label, _ in cells for s, tl, fr, _ in results[key]["rows"]]
    runs = os.path.join(out, "runs.csv")
    _write_atomic(runs, "\n".join(lines) + "\n")

    mean_loss = {key: float(np.mean([r[1] for r in res["rows"]])) for key, res in results.items()}
    if vary == "f":
        summary, lines = os.path.join(out, "matrix.csv"), _f_matrix(values, mean_loss)
    else:
        summary = os.path.join(out, "sweep_summary.csv")
        lines = [f"{vary},mean_total_loss,mean_final_regret"]
        for _, key, label, _ in cells:
            regret = np.mean([r[2] for r in results[key]["rows"]])
            lines.append(f"{label},{mean_loss[key]:.9g},{regret:.9g}")
    _write_atomic(summary, "\n".join(lines) + "\n")
    return {"out_dir": out, "summary": summary, "runs": runs,
            "results": results, "mean_loss": mean_loss}


def _f_matrix(values, mean_loss: dict) -> list:
    base_f = 0 if 0 in values else values[0]
    lines = ["f," + ",".join(TOPOLOGY_KINDS)]
    for v in values:
        row = [str(v)]
        for kind in TOPOLOGY_KINDS:
            loss, base = mean_loss[(kind, v)], mean_loss[(kind, base_f)]
            pct = "" if v == base_f else f" ({100.0 * (loss - base) / base:+.1f}%)"
            row.append(f"{loss:.9g}{pct}")
        lines.append(",".join(f'"{c}"' if "," in c else c for c in row))
    return lines


# -- selftest -----------------------------------------------------------------------


def _selftest_network_run() -> dict:
    """Grid run (n=9, T=50, K=20) whose observer keeps each identity's worst value:
    consensus error - C_d/k, mean-tracking gap and mean-recursion gap."""
    n, T, K, dim, dmax = 9, 50, 20, 4, 5
    cset = ConstraintSet("l1_ball", 1.0, dim)
    topo = topology("grid", n, seed=0)
    gossip = metropolis_weights(topo)
    stream = synth_quadratic_stream(seeding.rng_for(0, seeding.STREAM_LOSS, 0),
                                    T, dim, n_agents=n, scale=0.8)
    schedules = [gen_delays(T, dmax, seeding.rng_for(0, seeding.STREAM_DELAY, 0, i))
                 for i in range(n)]
    g, beta = estimate_constants(stream, cset)
    d = cset.diameter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        consts = algorithm_constants(gossip, n, d, g, beta)
    params = distributed_params(T, g, beta, d,
                                float(np.mean([s.B for s in schedules])),
                                a_dist=consts.a_dist, K=K)
    run = NetworkRun(cset, gossip, params, seed=0, window=dmax)
    bound = gossip.k0 * math.sqrt(n) * d / np.arange(1, K + 1)  # C_d / k
    etas = np.array([params.eta(k) for k in range(1, K + 1)])
    worst = {"consensus": -math.inf, "tracking": 0.0, "recursion": 0.0}

    def observe(t):
        xbar = run.ring[t % run.window].mean(axis=1)  # (K+1, m) network means
        step = xbar[:-1] + etas[:, None] * (run.vs.mean(axis=1) - xbar[:-1])
        for key, gap in (
                ("consensus", consensus_error(run.ys, xbar[:-1]) - bound),
                ("tracking", np.linalg.norm(run.ds.mean(axis=1) - run.sums.mean(axis=1), axis=-1)),
                ("recursion", np.linalg.norm(xbar[1:] - step, axis=-1))):
            worst[key] = max(worst[key], float(np.max(gap)))

    run_rounds(run, stream, schedules, observe)
    return worst


def _check_doubly_stochastic():
    worst = 0.0
    for kind in TOPOLOGY_KINDS:
        for n in (4, 9, 16, 30):
            w = metropolis_weights(topology(kind, n, seed=0)).w
            worst = max(worst,
                        float(np.max(np.abs(w.sum(axis=0) - 1.0))),
                        float(np.max(np.abs(w.sum(axis=1) - 1.0))))
    return worst <= 1e-12, f"max row/col sum deviation {worst:.3g} (tol 1e-12)"


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
    worst = _selftest_network_run()
    cons, track, rec = worst["consensus"], worst["tracking"], worst["recursion"]
    checks = [
        ("doubly_stochastic", _check_doubly_stochastic),
        ("consensus_bound", lambda: (cons <= 1e-12, f"max (error - C_d/k) = {cons:.3g}")),
        ("tracking_average", lambda: (track <= 1e-9,
                                      f"max mean-tracking gap {track:.3g} (tol 1e-9)")),
        ("mean_recursion", lambda: (rec <= 1e-12,
                                    f"max mean-recursion gap {rec:.3g} (tol 1e-12)")),
        ("weight_sum", _check_weight_sum),
    ]
    all_ok = True
    for name, fn in checks:
        start = time.perf_counter()
        ok, detail = fn()
        wall = time.perf_counter() - start
        all_ok &= ok
        print_fn(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{wall:.2f}s]")
    return all_ok
