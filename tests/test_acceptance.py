"""Acceptance suite: nine end-to-end criteria with pinned tolerances.

Each test prints a one-line verdict with its measured quantities so a full
run doubles as a report.  Runtime budgets are asserted where the criterion
pins one.
"""

import math
import time

import numpy as np
import pytest

from _fixtures import golden_de2mfw, golden_delmfw, golden_dofw, read_golden
from _reference import meta_fw_run
from delayfw import runner, seeding
from delayfw.baselines import dofw_run
from delayfw.de2mfw import AlgoParams, centralized_params, de2mfw_run, delmfw_run
from delayfw.delay import DelaySchedule, gen_delays
from delayfw.geometry import ConstraintSet
from delayfw.losses import synth_quadratic_stream, synth_stream
from delayfw.metrics import attach_regret, compute_comparator
from delayfw.network import k0_of, metropolis_weights, topology


def report(name, detail):
    print(f"criterion {name}: PASS ({detail})")


# -- 1. identity/invariant selftest suite --------------------------------------------


def test_criterion_1_selftest_suite():
    start = time.perf_counter()
    lines = []
    ok = runner.selftest(print_fn=lines.append)
    wall = time.perf_counter() - start
    assert ok, "selftest failures:\n" + "\n".join(lines)
    assert wall < 30.0, f"selftest took {wall:.1f}s (budget 30s)"
    report(1, f"5 selftest checks green in {wall:.1f}s")


# -- 2. oracle delay-perturbation (expected-output stability) ------------------------


def test_criterion_2_oracle_perturbation():
    start = time.perf_counter()
    m, T, samples, trials = 3, 20, 100_000, 200
    cset = ConstraintSet("l1_ball", 1.0, m)
    D = cset.diameter()
    G = 1.0
    hits = 0
    for trial in range(trials):
        rng = np.random.default_rng(10_000 + trial)
        zeta = rng.uniform(0.02, 0.3)
        grads = rng.normal(size=(T, m))
        grads *= (G * rng.uniform(size=(T, 1))) / np.linalg.norm(
            grads, axis=1, keepdims=True)
        size = int(rng.integers(1, T + 1))
        subset = rng.choice(T, size=size, replace=False)
        keep = np.ones(T, dtype=bool)
        keep[subset] = False
        accum_full = grads.sum(axis=0)
        accum_part = grads[keep].sum(axis=0)
        noise = rng.random((samples, m))  # paired across the two accumulators
        out_full = cset.lmo_batch(zeta * accum_full + noise)
        out_part = cset.lmo_batch(zeta * accum_part + noise)
        diff = out_full - out_part
        delta = diff.mean(axis=0)
        se = math.sqrt(float(diff.var(axis=0, ddof=1).sum()) / samples)
        if np.linalg.norm(delta) <= zeta * D * G * size + 3.0 * se:
            hits += 1
    wall = time.perf_counter() - start
    assert wall < 60.0, f"{wall:.1f}s (budget 60s)"
    assert hits >= 0.99 * trials, f"bound held in only {hits}/{trials} trials"
    report(2, f"bound held in {hits}/{trials} trials, {wall:.1f}s")


# -- 3. FTPL regret on linear losses -------------------------------------------------


def test_criterion_3_ftpl_regret():
    from _reference import ftpl_query_expected

    start = time.perf_counter()
    T, m, instances, samples = 200, 5, 20, 16_384
    cset = ConstraintSet("l1_ball", 1.0, m)
    D, G = cset.diameter(), 1.0
    zeta = 1.0 / (G * math.sqrt(T))
    bound = zeta * D * G * G * T + math.sqrt(m) * D / zeta
    worst = -math.inf
    for inst in range(instances):
        rng = np.random.default_rng(20_000 + inst)
        grads = rng.normal(size=(T, m))
        grads *= G / np.linalg.norm(grads, axis=1, keepdims=True)
        accum = np.zeros(m)
        played = 0.0
        for t in range(T):
            xhat = ftpl_query_expected(cset, zeta, accum, samples,
                                       seed=seeding.rng_for(inst, 3, t))
            played += float(grads[t] @ xhat)
            accum += grads[t]
        best = float(grads.sum(axis=0) @ cset.lmo(grads.sum(axis=0)))
        regret = played - best
        worst = max(worst, regret)
        assert regret <= bound, f"instance {inst}: regret {regret:.3f} > bound {bound:.3f}"
    wall = time.perf_counter() - start
    assert wall < 60.0, f"{wall:.1f}s (budget 60s)"
    report(3, f"worst regret {worst:.2f} <= bound {bound:.2f}, {wall:.1f}s")


# -- 4. brute-force oracles ----------------------------------------------------------


def _vertices(kind, r, m):
    if kind == "l1_ball":
        eye = r * np.eye(m)
        return np.vstack([eye, -eye])
    if kind == "simplex":
        return r * np.eye(m)
    # hypercube: all sign corners
    corners = np.array(np.meshgrid(*[[-r, r]] * m)).T.reshape(-1, m)
    return corners


def test_criterion_4_brute_force_oracles():
    rng = np.random.default_rng(40)
    cases = 1000
    for kind in ("l1_ball", "simplex", "hypercube"):
        m = 4
        cset = ConstraintSet(kind, 1.5, m)
        verts = _vertices(kind, 1.5, m)
        zs = rng.normal(size=(cases, m))
        zs[:5] = 0.0  # include degenerate inputs
        for z in zs:
            got = float(z @ cset.lmo(z))
            want = float(np.min(verts @ z))
            assert got <= want + 1e-12, f"{kind}: {got} > {want}"
    cset = ConstraintSet("l2_ball", 1.5, 4)
    for z in rng.normal(size=(cases, 4)):
        got = float(z @ cset.lmo(z))
        assert abs(got - (-1.5 * np.linalg.norm(z))) <= 1e-12

    # projection: no sampled feasible point is closer than the projection
    for kind in ("l1_ball", "l2_ball", "simplex", "hypercube"):
        cset = ConstraintSet(kind, 1.0, 3)
        cands = cset.lmo_batch(rng.normal(size=(400, 3)))
        mix = rng.uniform(size=(1000, 1))
        pool = mix * cands[rng.integers(0, 400, size=1000)] \
            + (1 - mix) * cands[rng.integers(0, 400, size=1000)]
        for x in rng.normal(scale=1.5, size=(50, 3)):
            p = cset.project(x)
            assert cset.contains(p, tol=1e-9)
            dists = np.linalg.norm(pool - x, axis=1)
            assert np.linalg.norm(x - p) <= dists.min() + 1e-9

    lam_path = metropolis_weights(topology("grid", 3)).lambda2
    assert abs(lam_path - 2.0 / 3.0) <= 1e-12
    lam_tri = metropolis_weights(topology("cycle", 3)).lambda2
    assert abs(lam_tri) <= 1e-12
    assert k0_of(2.0 / 3.0) == 5
    report(4, "LMO enumeration, projection pool, lambda fixtures, k0")


# -- 5. no-delay / single-agent reductions -------------------------------------------


def test_criterion_5_reductions():
    T, K, dim = 30, 5, 3
    cset = ConstraintSet("l1_ball", 1.0, dim)
    stream = synth_quadratic_stream(seed=77, T=T, dim=dim, scale=0.7)
    ones = DelaySchedule(np.ones(T, dtype=int), 1)
    params = AlgoParams(T=T, K=K, A=3.0, zeta=0.2, B_est=float(T))

    trace = delmfw_run(cset, stream, ones, params, seed=5)
    ref_decisions, ref_inst = meta_fw_run(cset, stream, params, seed=5)
    assert np.array_equal(trace.decisions, ref_decisions)
    assert np.array_equal(trace.inst_loss, ref_inst)

    delayed = gen_delays(T, 4, seed=9)
    central = delmfw_run(cset, stream, delayed, params, seed=5)
    single = de2mfw_run(cset, stream, [delayed], topology("complete", 1), params,
                        seed=5, diagnostics=False)
    assert np.array_equal(single.decisions[:, 0, :], central.decisions)
    assert np.array_equal(single.inst_loss, central.inst_loss)
    comp = compute_comparator(stream, cset)
    attach_regret(central, comp, stream)
    attach_regret(single, comp, stream)
    assert np.array_equal(single.regret_prefix, central.regret_prefix)
    rows = lambda tr: tr.csv_text().splitlines()
    data = lambda tr: [l for l in rows(tr) if not l.startswith("#")]
    assert data(single) == data(central)
    report(5, "dmax=1 == reference bitwise; n=1 network == centralized bitwise")


# -- 6. regret scaling in T ----------------------------------------------------------


def test_criterion_6_regret_scaling():
    start = time.perf_counter()
    dim, seeds, horizons = 6, (0, 1, 2), (256, 1024, 4096)
    cset = ConstraintSet("l1_ball", 1.0, dim)
    regrets = {}
    for seed in seeds:
        for T in horizons:
            stream = synth_quadratic_stream(seed=100 + seed, T=T, dim=dim, scale=1.0)
            schedule = DelaySchedule(np.ones(T, dtype=int), 1)
            from delayfw.losses import estimate_constants

            G, beta = estimate_constants(stream, cset)
            params = centralized_params(T, G, beta, cset.diameter(), float(T))
            trace = delmfw_run(cset, stream, schedule, params, seed=seed)
            comp = compute_comparator(stream, cset)
            attach_regret(trace, comp, stream)
            regrets[(seed, T)] = trace.final_regret
            assert trace.final_regret > 0.0
    ratios = []
    for lo, hi in ((256, 1024), (1024, 4096)):
        ratio = float(np.mean([regrets[(s, hi)] / regrets[(s, lo)] for s in seeds]))
        ratios.append(ratio)
        assert 1.2 <= ratio <= 2.6, f"R({hi})/R({lo}) mean {ratio:.3f} outside [1.2, 2.6]"
    wall = time.perf_counter() - start
    assert wall < 300.0, f"{wall:.1f}s (budget 5min)"
    report(6, f"mean R(4T)/R(T) = {ratios[0]:.2f}, {ratios[1]:.2f}, {wall:.1f}s")


# -- 7. delay sensitivity ------------------------------------------------------------


def test_criterion_7_delay_sensitivity():
    start = time.perf_counter()
    T, p, C, batch = 500, 20, 5, 10
    cset = ConstraintSet("l1_ball", 8.0, p * C)
    seeds = range(5)
    dmaxes = (1, 21, 101)
    totals = {d: [] for d in dmaxes}
    dofw_totals = []
    from delayfw.losses import estimate_constants

    for seed in seeds:
        stream = synth_stream(seeding.rng_for(seed, seeding.STREAM_LOSS, 7),
                              T, p, C, batch)
        G, beta = estimate_constants(stream, cset)
        for dmax in dmaxes:
            schedule = gen_delays(T, dmax,
                                  seeding.rng_for(seed, seeding.STREAM_DELAY, 7, dmax))
            params = centralized_params(T, G, beta, cset.diameter(), float(schedule.B))
            trace = delmfw_run(cset, stream, schedule, params, seed=seed)
            totals[dmax].append(trace.total_loss)
            if dmax == 101:
                eta_reg = cset.diameter() / (G * math.sqrt(T))  # run_single's DOFW step
                dofw_totals.append(dofw_run(cset, stream, schedule, eta_reg, seed).total_loss)
    means = [float(np.mean(totals[d])) for d in dmaxes]
    assert means[0] < means[1] < means[2], f"mean totals not increasing: {means}"
    wins = sum(1 for a, b in zip(totals[101], dofw_totals) if a < b)
    assert wins >= 4, f"DeLMFW beat DOFW at dmax=101 in only {wins}/5 seeds"
    wall = time.perf_counter() - start
    assert wall < 600.0, f"{wall:.1f}s (budget 10min)"
    report(7, f"mean totals {means[0]:.1f} < {means[1]:.1f} < {means[2]:.1f}, "
              f"DeLMFW wins {wins}/5, {wall:.1f}s")


# -- 8. topology sensitivity ---------------------------------------------------------


def test_criterion_8_topology_sensitivity():
    """Built from configs through runner.run_single, so the runs take the default tuning."""
    start = time.perf_counter()

    def total_loss(seed, kind, delayed):
        cfg = runner.config_from_dict({
            "mode": "distributed", "T": 300,
            "set": {"kind": "l1_ball", "radius": 1.0, "dim": 8},
            "loss": {"kind": "quadratic", "seed": 8},
            "topology": {"kind": kind, "n": 16},
            "delay": {"dmax": 150 if delayed else 1, "seed": 8},
            "diagnostics": False, "seeds": [seed]})
        return runner.run_single(cfg, seed).total_loss

    wins = 0
    rels = []
    for seed in range(5):
        rel = {}
        for kind in ("cycle", "complete"):
            base = total_loss(seed, kind, delayed=False)
            hit = total_loss(seed, kind, delayed=True)
            rel[kind] = (hit - base) / base
        rels.append(rel)
        if rel["cycle"] > rel["complete"]:
            wins += 1
    wall = time.perf_counter() - start
    assert wall < 900.0, f"{wall:.1f}s (budget 15min)"
    assert wins >= 4, (f"cycle degraded more than complete in only {wins}/5 seeds: "
                       + "; ".join(f"cycle {r['cycle']:+.3%} vs complete "
                                   f"{r['complete']:+.3%}" for r in rels))
    mean_c = float(np.mean([r["cycle"] for r in rels]))
    mean_k = float(np.mean([r["complete"] for r in rels]))
    report(8, f"relative increase cycle {mean_c:+.1%} vs complete {mean_k:+.1%}, "
              f"{wins}/5 seeds, {wall:.1f}s")


# -- 9. golden traces ----------------------------------------------------------------


def test_criterion_9_golden_traces():
    for name, build in (("delmfw_t4.csv", golden_delmfw),
                        ("de2mfw_n3.csv", golden_de2mfw),
                        ("dofw_t3.csv", golden_dofw)):
        committed = read_golden(name)
        assert build()[0].csv_text() == committed, f"{name} drifted"
    report(9, "three golden fixtures byte-identical")
