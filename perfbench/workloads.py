"""The four workloads: inputs made from the seed, the CLI calls, their checks.

Each workload is a list of ``entcat`` command lines that make up one round.
The seed only changes inputs that leave the amount of work alone (fiber
length and herald probability of a sweep, the seeds of a simulation), so
rounds at different seeds cost the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

NAMES = ("sweep-long-chain", "sweep-dim4", "sim-aux-rich", "sim-finite-aux")
SIZES = ("full", "tiny")

ALPHA_MIN = 0.55
ALPHA_MAX = 1.0 - 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to judge what it wrote."""

    argv: tuple
    out: Path | None  # file the call writes; None means its stdout is the output
    work: int  # CSV rows, edge-slots or trials
    check: Callable[[str], list]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    files: dict  # input files written before the first round, path -> text


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{name}:{seed}")
    tiny = size == "tiny"
    workdir = Path(workdir)
    if name == "sweep-long-chain":
        return _sweep(name, rng, workdir, n=2, edges=12 if tiny else 256,
                      modes=("aux_rich", "none"), dims=(2,), steps=12 if tiny else 200)
    if name == "sweep-dim4":
        return _sweep(name, rng, workdir, n=3, edges=32, modes=("aux_rich",), dims=(2, 4),
                      steps=6 if tiny else 200)
    if name == "sim-aux-rich":
        sim = dict(n_edges=32, max_slots=500 if tiny else 30_000, aux_mode="aux_rich")
        z = dict(edges=32, p=0.1, trials=5_000 if tiny else 500_000, seed=rng.randrange(2**31))
        return _simulation(name, rng, workdir, sim, paths=(), z=z)
    # Finite aux: path 1 ticks every slot, path 2 every fourth.  At these
    # probabilities the supply runs a little behind the catalysts lost on
    # failure, so edges sometimes wait for stock (the rate falls ~18% below
    # the aux-rich chain's).
    sim = dict(n_edges=4, max_slots=2_000 if tiny else 100_000, aux_mode="finite",
               initial_stock=1, stock_capacity=2)
    paths = ((0.8, 0.05, 2.5e-4), (0.75, 0.3, 1.0e-3))
    return _simulation(name, rng, workdir, sim, paths=paths, z=None)


def _sweep(name, rng, workdir, *, n, edges, modes, dims, steps) -> Workload:
    spec = dict(
        n=n, edges=edges, modes=modes, dims=dims, steps=steps,
        alpha_min=ALPHA_MIN, alpha_max=ALPHA_MAX,
        l0_km=round(rng.uniform(10.0, 50.0), 3), cf_km_s=2.0e5,
        p0=round(rng.uniform(0.3, 0.7), 4),
    )
    out = workdir / f"{name}.csv"
    argv = (
        "sweep", "--n", str(n), "--edges", str(edges),
        "--mode", ",".join(modes), "--dim", ",".join(str(d) for d in dims),
        "--steps", str(steps), "--alpha-min", repr(ALPHA_MIN), "--alpha-max", repr(ALPHA_MAX),
        "--l0-km", repr(spec["l0_km"]), "--cf-km-s", repr(spec["cf_km_s"]), "--p0", repr(spec["p0"]),
        "--out", str(out),
    )
    op = Op(argv, out, len(modes) * len(dims) * steps, partial(checks.check_sweep, spec=spec))
    return Workload(name, (op,), {})


def _simulation(name, rng, workdir, sim, *, paths, z) -> Workload:
    spec = dict(sim, seed=rng.randrange(2**31), alpha=0.8, n=2, p0=0.5, l0_km=25.0, cf_km_s=2.0e5)
    lines = [
        "mode = detailed",
        f"n_edges = {spec['n_edges']}",
        "trials = 1",
        f"seed = {spec['seed']}",
        f"max_slots = {spec['max_slots']}",
        f"alpha = {spec['alpha']!r}",
        f"n = {spec['n']}",
        f"L0_km = {spec['l0_km']!r}",
        f"cf_km_s = {spec['cf_km_s']!r}",
        f"P0 = {spec['p0']!r}",
        "catalyst_dim = 2",
        f"aux_mode = {spec['aux_mode']}",
    ]
    for i, (alpha, prob, period) in enumerate(paths, start=1):
        lines += [f"aux.{i}.alpha = {alpha!r}", f"aux.{i}.P = {prob!r}", f"aux.{i}.T_s = {period!r}"]
    if "initial_stock" in spec:
        lines += [f"initial_stock = {spec['initial_stock']}", f"stock_capacity = {spec['stock_capacity']}"]
    config = workdir / f"{name}.conf"
    out = workdir / f"{name}.jsonl"
    ops = [
        Op(("simulate", "--config", str(config), "--out", str(out)), out,
           spec["n_edges"] * spec["max_slots"], partial(checks.check_simulate, spec=spec)),
    ]
    if z is not None:
        argv = ("validate-z", "--edges", str(z["edges"]), "--p", repr(z["p"]),
                "--trials", str(z["trials"]), "--seed", str(z["seed"]))
        ops.append(Op(argv, None, z["trials"], partial(checks.check_validate_z, spec=z)))
    return Workload(name, tuple(ops), {config: "\n".join(lines) + "\n"})
