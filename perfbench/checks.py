"""Output checks computed apart from entcat.

Nothing here imports entcat or copies its code paths.  The oracles are exact
rational arithmetic for the monotone ratio, the positive-term series for the
waiting factor, a numeric maximisation for the optimal two-qubit catalyst and
a Markov survival recursion for the slot-level chain.  Every ``check_*``
function returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Relative tolerance for quantities printed with 12 significant digits.
REL = 1e-9
# p_cat against the exact ratio at the printed (rounded) c0: near alpha -> 1
# the slope dp/dc0 = p / (1 - c0) magnifies the 5e-13 rounding of c0.
REL_PCAT = 1e-8
# Statistical checks.  The benchmark runs at arbitrary seeds, so the
# threshold is wide enough that a correct program fails one of its three
# statistical checks on about 1 seed in 60 000; at 3 sigma it would be about
# 1 seed in 150.
SIGMAS = 4.5

SWEEP_HEADER = (
    "alpha,mode,catalyst_dim,p_locc,p_cat,c0,n_cat,eta_p,z_locc,z_cat,"
    "t_edge_cycle_s,rate_locc_hz,rate_cat_hz,eta_r,window_flag"
).split(",")
_CATALYST_FIELDS = ("p_cat", "c0", "n_cat", "eta_p", "z_cat", "t_edge_cycle_s", "rate_cat_hz", "eta_r")


def close(a: float, b: float, rel: float = REL, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def smallest_power_below(alpha: float, bound: float) -> int:
    """Smallest m >= 1 with alpha**m <= bound, for 0 < bound < alpha < 1."""
    m = max(1, math.ceil(math.log(bound) / math.log(alpha)) - 1)
    while alpha**m > bound:
        m += 1
    return m


def n_star(alpha: float) -> int:
    """Smallest m with alpha**m <= 1/2."""
    return smallest_power_below(alpha, 0.5)


@lru_cache(maxsize=4096)
def waiting_series(n_edges: int, p: float) -> float:
    """E[max of N geometric waits] = sum_m [1 - (1 - q**m)**N], all terms positive.

    Summed in blocks of slots that double in length; the tail after a block
    is at most its last term divided by p, and the sum stops once that is
    below 1e-14 of it.
    """
    if p >= 1.0:
        return 1.0
    log_q = math.log1p(-p)
    total = 0.0
    start, block = 0, 1024
    with np.errstate(divide="ignore"):
        while True:
            m = np.arange(start, start + block, dtype=float)
            terms = -np.expm1(n_edges * np.log1p(-np.exp(m * log_q)))
            total += float(terms.sum())
            if terms[-1] / p <= 1e-14 * total:
                return total
            start += block
            block = min(2 * block, 1 << 20)


def max_geometric_variance(n_edges: int, p: float) -> float:
    """Var[max of N geometric waits], from E[M^2] = sum_m (2m + 1) P(M > m)."""
    log_q = math.log1p(-p)
    m = np.arange(0, int(60.0 / p) + 64, dtype=float)
    with np.errstate(divide="ignore"):
        tail = -np.expm1(n_edges * np.log1p(-np.exp(m * log_q)))
    mean = math.fsum(tail)
    return math.fsum((2.0 * m + 1.0) * tail) - mean * mean


def exact_min_ratio(initial: list, final: list) -> Fraction:
    """Min over k of E_k(initial) / E_k(final), E_k = sum of all but the k-1 largest.

    Exact rational arithmetic on sorted, equal-length spectra; a k where the
    final tail is zero never binds, one where only the initial tail is zero
    forces 0.
    """
    a = sorted(initial, reverse=True)
    b = sorted(final, reverse=True)
    best = Fraction(1)
    e_a, e_b = sum(a), sum(b)
    for k in range(len(a)):
        if k:
            e_a -= a[k - 1]
            e_b -= b[k - 1]
        if e_b == 0:
            continue
        if e_a == 0:
            return Fraction(0)
        best = min(best, e_a / e_b)
    return best


def _copies_spectrum(alpha, n: int) -> list:
    """The 2**n coefficients of n copies of (alpha, 1 - alpha)."""
    out = [alpha**0]
    for _ in range(n):
        out = [x * alpha for x in out] + [x * (1 - alpha) for x in out]
    return out


def _with_catalyst(spectrum: list, catalyst: list) -> list:
    return [s * c for s in spectrum for c in catalyst]


def exact_two_qubit_p(alpha: Fraction, n: int, c0: Fraction) -> Fraction:
    """Optimal probability of n copies -> one Bell pair with catalyst (c0, 1 - c0)."""
    catalyst = [c0, 1 - c0]
    bell = [Fraction(1, 2), Fraction(1, 2)] + [Fraction(0)] * (2**n - 2)
    return exact_min_ratio(
        _with_catalyst(_copies_spectrum(alpha, n), catalyst),
        _with_catalyst(bell, catalyst),
    )


def _float_p_on_grid(alpha: float, n: int, c: np.ndarray) -> np.ndarray:
    """Catalytic probability at each catalyst coefficient in ``c`` (doubles)."""
    primary = np.array(_copies_spectrum(alpha, n))
    bell = np.zeros(2**n)
    bell[:2] = 0.5
    cats = np.stack([c, 1.0 - c], axis=1)
    joint_i = -np.sort(-(primary[None, :, None] * cats[:, None, :]).reshape(c.size, -1), axis=1)
    joint_f = -np.sort(-(bell[None, :, None] * cats[:, None, :]).reshape(c.size, -1), axis=1)
    # Tails from the small end, so small monotones keep their precision.
    tail_i = np.cumsum(joint_i[:, ::-1], axis=1)[:, ::-1]
    tail_f = np.cumsum(joint_f[:, ::-1], axis=1)[:, ::-1]
    binding = tail_f > 1e-15
    ratios = np.where(binding, tail_i / np.where(binding, tail_f, 1.0), np.inf)
    return np.minimum(ratios.min(axis=1), 1.0)


@lru_cache(maxsize=1024)
def best_two_qubit_p(alpha: float, n: int) -> float:
    """Largest catalytic probability over two-qubit catalysts, by zooming grids.

    Every value returned is achieved at a grid point, so it is a lower bound
    on the optimum; each zoom narrows the bracket 50-fold, to ~1e-14 after
    the last.
    """
    lo, hi = 0.5, 1.0
    best = 0.0
    for _ in range(8):
        c = np.linspace(lo, hi, 401)[1:-1]
        p = _float_p_on_grid(alpha, n, c)
        k = int(np.argmax(p))
        best = max(best, float(p[k]))
        width = 4.0 * (hi - lo) / 400.0
        lo, hi = max(0.5, c[k] - width), min(1.0, c[k] + width)
    return best


def chain_mean_slots(n_pairs: int, p0: float, p_cat: float, n_edges: int) -> float:
    """Mean slots per delivery of the slot-level chain with plentiful aux paths.

    One edge holds k < n pairs; each slot a primary attempt succeeds with p0;
    the slot the n-th pair arrives, catalysis succeeds with p_cat or the edge
    restarts at 0 pairs.  S(m) is the probability one edge is unfinished after
    m slots, and a delivery waits for the slowest of N edges:
    E = sum_m [1 - (1 - S(m))**N].
    """
    held = np.zeros(n_pairs)
    held[0] = 1.0
    total = 0.0
    for m in range(10_000_000):
        survival = float(held.sum())
        term = 1.0 if survival >= 1.0 else -math.expm1(n_edges * math.log1p(-survival))
        total += term
        if m > n_pairs and term < 1e-15 * total:
            return total
        nxt = (1.0 - p0) * held
        nxt[1:] += p0 * held[:-1]
        nxt[0] += p0 * (1.0 - p_cat) * held[-1]
        held = nxt
    raise RuntimeError("survival recursion did not converge")


# ---------------------------------------------------------------------------
# Sweep CSV
# ---------------------------------------------------------------------------


def check_sweep(text: str, spec: dict) -> list[str]:
    """Check a sweep CSV against the inputs in ``spec``.

    ``spec`` holds n, edges, modes, dims, steps, alpha_min, alpha_max, l0_km,
    cf_km_s and p0, exactly as passed on the command line.
    """
    errors: list[str] = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"sweep: header is {rows[0] if rows else None}"]
    rows = [dict(zip(SWEEP_HEADER, r)) for r in rows[1:]]
    n, edges, p0 = spec["n"], spec["edges"], spec["p0"]
    expected = [(m, d) for m in spec["modes"] for d in spec["dims"]]
    if len(rows) != len(expected) * spec["steps"]:
        return [f"sweep: {len(rows)} rows, expected {len(expected) * spec['steps']}"]

    t0 = 2.0 * spec["l0_km"] / spec["cf_km_s"]
    t_pri = n * t0 / p0
    grid = np.linspace(spec["alpha_min"], spec["alpha_max"], spec["steps"])
    dim2_p: dict = {}

    for i, row in enumerate(rows):
        where = f"sweep row {i + 1}"
        mode, dim = expected[i // spec["steps"]]
        alpha = float(row["alpha"])
        if row["mode"] != mode or int(row["catalyst_dim"]) != dim:
            errors.append(f"{where}: mode/dim {row['mode']}/{row['catalyst_dim']}, expected {mode}/{dim}")
            continue
        if not close(alpha, grid[i % spec["steps"]], 1e-11):
            errors.append(f"{where}: alpha {alpha} is not grid point {grid[i % spec['steps']]}")
        p_locc, z_locc = float(row["p_locc"]), float(row["z_locc"])
        if not close(p_locc, min(1.0, 2.0 * (1.0 - alpha**n)), REL, 1e-11):
            errors.append(f"{where}: p_locc {p_locc} != min(1, 2(1 - alpha^n))")
        if not close(z_locc, waiting_series(edges, p_locc)):
            errors.append(f"{where}: z_locc {z_locc} != series {waiting_series(edges, p_locc)}")
        if not close(float(row["rate_locc_hz"]), 1.0 / (t_pri * z_locc)):
            errors.append(f"{where}: rate_locc_hz does not equal 1 / (t_primary z_locc)")

        in_window = 2 <= n <= n_star(alpha) - 1
        flag = "ok" if in_window else "out_of_window"
        if row["window_flag"] != flag:
            errors.append(f"{where}: window_flag {row['window_flag']}, expected {flag}")
            continue
        filled = [row[f] != "" for f in _CATALYST_FIELDS]
        if not in_window:
            if any(filled):
                errors.append(f"{where}: out-of-window row carries catalyst fields")
            continue
        if not all(filled):
            errors.append(f"{where}: in-window row misses catalyst fields")
            continue
        errors += _check_catalytic_row(where, row, spec, alpha, p_locc, z_locc, t0, t_pri, dim2_p)
    return errors


def _check_catalytic_row(where, row, spec, alpha, p_locc, z_locc, t0, t_pri, dim2_p) -> list[str]:
    errors = []
    n, p0 = spec["n"], spec["p0"]
    mode, dim = row["mode"], int(row["catalyst_dim"])
    p_cat, c0, n_cat = float(row["p_cat"]), float(row["c0"]), int(row["n_cat"])
    z_cat, t_cycle = float(row["z_cat"]), float(row["t_edge_cycle_s"])
    rate_cat, rate_locc = float(row["rate_cat_hz"]), float(row["rate_locc_hz"])

    if not 0.0 < p_cat <= 1.0:
        errors.append(f"{where}: p_cat {p_cat} outside (0, 1]")
    if dim == 2:
        exact = exact_two_qubit_p(Fraction(row["alpha"]), n, Fraction(row["c0"]))
        if not close(p_cat, float(exact), REL_PCAT):
            errors.append(f"{where}: p_cat {p_cat} != exact ratio {float(exact)} at c0")
        if p_cat < best_two_qubit_p(alpha, n) - 1e-8:
            errors.append(f"{where}: p_cat {p_cat} below the best 2-dim catalyst {best_two_qubit_p(alpha, n)}")
        if not p_cat > p_locc:
            errors.append(f"{where}: p_cat {p_cat} not above p_locc {p_locc}")
        if n_cat != smallest_power_below(alpha, c0):
            errors.append(f"{where}: n_cat {n_cat}, expected {smallest_power_below(alpha, c0)}")
        dim2_p[(mode, row["alpha"])] = p_cat
    else:
        base = dim2_p.get((mode, row["alpha"]))
        if base is not None and p_cat < base - 1e-9:
            errors.append(f"{where}: dim-{dim} p_cat {p_cat} below dim-2 value {base}")
    if not close(float(row["eta_p"]), p_cat / p_locc):
        errors.append(f"{where}: eta_p does not equal p_cat / p_locc")
    if not close(z_cat, waiting_series(spec["edges"], p_cat)):
        errors.append(f"{where}: z_cat {z_cat} != series {waiting_series(spec['edges'], p_cat)}")

    if mode == "aux_rich":
        expected_cycle = t_pri
    elif mode == "none":
        t_both = (n + n_cat) * t0 / p0
        expected_cycle = p_cat * t_pri + (1.0 - p_cat) * t_both
    else:
        return errors + [f"{where}: unexpected aux mode {mode}"]
    if not close(t_cycle, expected_cycle):
        errors.append(f"{where}: t_edge_cycle_s {t_cycle}, expected {expected_cycle}")
    if not close(rate_cat, 1.0 / (t_cycle * z_cat)):
        errors.append(f"{where}: rate_cat_hz does not equal 1 / (t_edge_cycle z_cat)")
    if not close(float(row["eta_r"]), rate_cat / rate_locc):
        errors.append(f"{where}: eta_r does not equal rate_cat / rate_locc")
    return errors


# ---------------------------------------------------------------------------
# Simulation records
# ---------------------------------------------------------------------------


def check_simulate(text: str, spec: dict) -> list[str]:
    """Check one detailed-simulation JSONL record against its config ``spec``.

    ``spec`` holds n_edges, max_slots, seed, alpha, n, p0, l0_km, cf_km_s,
    aux_mode and, for finite aux, initial_stock and stock_capacity.  One trial.
    """
    lines = text.splitlines()
    if len(lines) != 1:
        return [f"simulate: {len(lines)} lines, expected 1"]
    rec = json.loads(lines[0])
    errors = []
    where = "simulate"
    cfg = rec["config"]
    echo = {
        "n_edges": cfg["n_edges"], "max_slots": cfg["max_slots"], "trials": cfg["trials"],
        "seed": rec["seed"], "aux_mode": cfg["aux"]["mode"],
    }
    want = {k: spec[k] for k in ("n_edges", "max_slots", "seed", "aux_mode")} | {"trials": 1}
    if echo != want:
        return [f"{where}: config echo {echo}, expected {want}"]
    if rec["timed_out"] or rec["deliveries"] < 1:
        return [f"{where}: timed out with {rec['deliveries']} deliveries"]

    deliveries = rec["deliveries"]
    t0 = 2.0 * spec["l0_km"] / spec["cf_km_s"]
    horizon = spec["max_slots"] * t0
    if not close(rec["rate_hz"], deliveries / horizon, 1e-12):
        errors.append(f"{where}: rate_hz {rec['rate_hz']} != deliveries / horizon")
    mean, se = rec["mean_completion_s"], rec["std_error_s"]
    # Intervals sum to the slot of the last delivery.
    last_slot = mean * deliveries / t0
    if abs(last_slot - round(last_slot)) > 1e-6 * last_slot or round(last_slot) > spec["max_slots"]:
        errors.append(f"{where}: mean interval x deliveries = {last_slot} slots is not a slot within the run")

    counters = rec["counters"]
    if len(counters) != spec["n_edges"]:
        return errors + [f"{where}: {len(counters)} counter sets for {spec['n_edges']} edges"]
    finite = spec["aux_mode"] == "finite"
    for e, c in enumerate(counters):
        at = f"{where} edge {e}"
        if c["catalysis_attempts"] != c["catalysis_successes"] + c["catalysis_failures"]:
            errors.append(f"{at}: attempts != successes + failures")
        if c["catalysts_consumed"] != c["catalysis_failures"]:
            errors.append(f"{at}: consumed != failures")
        if c["primary_attempts"] != c["loading_slots"]:
            errors.append(f"{at}: primary_attempts != loading_slots")
        if c["catalysis_successes"] - deliveries not in (0, 1):
            errors.append(f"{at}: {c['catalysis_successes']} successes for {deliveries} deliveries")
        if c["loads_completed"] - c["catalysis_attempts"] not in (0, 1):
            errors.append(f"{at}: {c['loads_completed']} loads for {c['catalysis_attempts']} attempts")
        if c["primary_attempts"] < spec["n"] * c["loads_completed"]:
            errors.append(f"{at}: fewer primary attempts than pairs loaded")
        if finite:
            stock = spec["initial_stock"] + c["catalysts_produced"] - c["catalysts_consumed"]
            if not 0 <= stock <= spec["stock_capacity"]:
                errors.append(f"{at}: final stock {stock} outside [0, {spec['stock_capacity']}]")
        elif c["catalysts_produced"] != 0:
            errors.append(f"{at}: aux-rich edge produced catalysts")

    exact_s = t0 * chain_mean_slots(
        spec["n"], spec["p0"], best_two_qubit_p(spec["alpha"], spec["n"]), spec["n_edges"]
    )
    if finite:
        # Waiting for stock only lengthens intervals.
        if mean < exact_s - SIGMAS * se:
            errors.append(f"{where}: mean interval {mean} below the aux-rich exact {exact_s} by over {SIGMAS} sigma")
    elif abs(mean - exact_s) > SIGMAS * se:
        errors.append(f"{where}: mean interval {mean} vs exact {exact_s}: {abs(mean - exact_s) / se:.2f} sigma")
    return errors


def check_validate_z(text: str, spec: dict) -> list[str]:
    """Check a validate-z JSON line against ``spec`` (edges, p, trials)."""
    rec = json.loads(text)
    where = "validate-z"
    want = (spec["edges"], spec["p"], spec["trials"])
    if (rec["n_edges"], rec["p"], rec["trials"]) != want:
        return [f"{where}: echo {(rec['n_edges'], rec['p'], rec['trials'])}, expected {want}"]
    errors = []
    analytic, mean, se = rec["analytic"], rec["empirical_mean"], rec["std_error"]
    series = waiting_series(spec["edges"], spec["p"])
    if not close(analytic, series):
        errors.append(f"{where}: analytic {analytic} != series {series}")
    sd = math.sqrt(max_geometric_variance(spec["edges"], spec["p"]))
    if not close(se, sd / math.sqrt(spec["trials"]), 0.1):
        errors.append(f"{where}: std_error {se}, expected ~{sd / math.sqrt(spec['trials'])}")
    if abs(mean - series) > SIGMAS * se:
        errors.append(f"{where}: empirical mean {mean} is {abs(mean - series) / se:.2f} sigma from {series}")
    if not close(rec["deviation_sigmas"], abs(mean - analytic) / se, 1e-12):
        errors.append(f"{where}: deviation_sigmas does not equal |mean - analytic| / std_error")
    if rec["passed"] != (rec["deviation_sigmas"] <= 3.0):
        errors.append(f"{where}: passed flag disagrees with deviation_sigmas")
    return errors
