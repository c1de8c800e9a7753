"""Independent oracles used to derive and pin expected test values.

These deliberately avoid the library's own code paths: exact rational
arithmetic for the monotone-ratio minimum, a positive-term series and a
high-precision inclusion-exclusion sum for the waiting factor, a Markov
survival recursion for the slot-level chain model, the slot-by-slot
stepper that the detailed simulator must match byte for byte, and the
per-edge geometric sampler that the abstract simulator and the waiting-factor
check must match below p = 1/3.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from entcat.catalysis import copies_for_catalyst
from entcat.errors import InvalidInputError
from entcat.network import AUX_RICH, FINITE_AUX, NO_AUX, edge_catalyst
from entcat.simulate import (
    ABSTRACT_MODE,
    DETAILED_MODE,
    EdgeCounters,
    SimResult,
    _resolved_parameters,
)


def exact_conversion_probability(initial_weights, final_weights) -> Fraction:
    """Minimum monotone ratio computed in exact rational arithmetic.

    Weights may be ints or floats (floats are exact binary rationals), so the
    result is the exact value of the quantity the library approximates in
    doubles.
    """
    def spectrum(weights):
        fr = [Fraction(w) for w in weights]
        total = sum(fr)
        return sorted((w / total for w in fr), reverse=True)

    a = spectrum(initial_weights)
    b = spectrum(final_weights)
    d = max(len(a), len(b))
    a += [Fraction(0)] * (d - len(a))
    b += [Fraction(0)] * (d - len(b))

    best = Fraction(1)
    e_i = Fraction(1)
    e_f = Fraction(1)
    for k in range(d):
        if k > 0:
            e_i -= a[k - 1]
            e_f -= b[k - 1]
        if e_f == 0:
            continue  # never binding (or both zero)
        if e_i == 0:
            return Fraction(0)
        best = min(best, e_i / e_f)
    return best


def exact_deterministic(initial_weights, final_weights) -> bool:
    return exact_conversion_probability(initial_weights, final_weights) == 1


def waiting_factor_series(n_edges: int, p: float, tol: float = 1e-15) -> float:
    """Expected maximum of N geometric waits via its positive-term series.

    Sums P(max > m) over m >= 0; all terms are positive, so there is no
    cancellation, unlike the alternating inclusion-exclusion form.
    """
    q = 1.0 - p
    total = 0.0
    m = 0
    while True:
        term = 1.0 - (1.0 - q**m) ** n_edges
        total += term
        m += 1
        if term < tol:
            return total


def waiting_factor_mp(n_edges: int, p: float) -> float:
    """Expected maximum of N geometric waits by inclusion-exclusion in mpmath.

    ``sum_j (-1)**(j+1) C(N, j) / (1 - q**j)``.  The alternating terms cancel
    ~0.302 decimal digits per edge, so the sum runs at that many digits plus
    60 of headroom and is exact to the last bit of the returned double.
    """
    with mpmath.workdps(int(n_edges * 0.302) + 60):
        q = 1 - mpmath.mpf(p)
        q_j = mpmath.mpf(1)
        total = mpmath.mpf(0)
        for j in range(1, n_edges + 1):
            q_j *= q
            term = mpmath.mpf(math.comb(n_edges, j)) / (1 - q_j)
            total += term if j % 2 else -term
        return float(total)


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


def chain_mean_completion_slots(n_pairs: int, p0: float, p_cat: float, n_edges: int) -> float:
    """Expected slots per delivery in the slot-level chain model.

    Single-edge survival follows a Markov recursion over the number of pairs
    held (catalysis attempted in the slot the last pair arrives, failures
    restart loading); the chain completes when the slowest edge finishes.
    """
    probs = np.zeros(n_pairs)
    probs[0] = 1.0
    survival = 1.0
    total = 0.0
    slots = 0
    while True:
        term = 1.0 - (1.0 - survival) ** n_edges
        total += term
        if term < 1e-13 and slots > n_pairs:
            return total
        nxt = (1.0 - p0) * probs
        nxt[1:] += p0 * probs[:-1]
        nxt[0] += p0 * probs[-1] * (1.0 - p_cat)
        probs = nxt
        survival = float(probs.sum())
        slots += 1
        if slots > 10_000_000:
            raise RuntimeError("survival recursion failed to converge")


# ---------------------------------------------------------------------------
# Slot-level chain simulator, stepped one slot at a time
# ---------------------------------------------------------------------------

_TICK_EPS = 1e-9


def _trial_rng(seed: int, trial: int, edge: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, trial, edge, stream)))
    )


@dataclass
class _EdgeState:
    pairs: int = 0
    ready: bool = False
    stock: Optional[int] = None
    aux_pairs: list = field(default_factory=list)
    aux_ticks: list = field(default_factory=list)


def _detailed_trial(cfg, trial: int, p_cat, copies_needed, rebuild_copies, counters, intervals):
    """Run one time-slotted replication; returns the delivery count.

    ``rebuild_copies`` is the number of primary pairs an edge with an empty
    stock turns into a catalyst, or 0 where catalysts come from elsewhere.
    """
    edge = cfg.edge
    t0 = edge.cycle_time_s
    p0 = edge.herald_probability
    n = edge.copies

    infinite_stock = cfg.aux.mode == AUX_RICH
    paths = cfg.aux.paths if cfg.aux.mode == FINITE_AUX else ()

    load_rngs = []
    attempt_rngs = []
    aux_rngs = []
    states = []
    for e in range(cfg.n_edges):
        load_rngs.append(_trial_rng(cfg.seed, trial, e, 0))
        attempt_rngs.append(_trial_rng(cfg.seed, trial, e, 1))
        aux_rngs.append([_trial_rng(cfg.seed, trial, e, 2 + i) for i in range(len(paths))])
        states.append(
            _EdgeState(
                stock=None if infinite_stock else cfg.initial_stock,
                aux_pairs=[0] * len(paths),
                aux_ticks=[0] * len(paths),
            )
        )

    deliveries = 0
    last_delivery_slot = 0
    for slot in range(1, cfg.max_slots + 1):
        t = slot * t0
        all_ready = True
        for e in range(cfg.n_edges):
            st = states[e]
            ctr = counters[e]
            # An empty stock without aux paths means loading n_cat extra pairs.
            if not st.ready and (
                st.pairs < n or (st.stock == 0 and st.pairs < n + rebuild_copies)
            ):
                ctr.primary_attempts += 1
                ctr.loading_slots += 1
                if load_rngs[e].random() < p0:
                    st.pairs += 1
                    if st.pairs == n + (rebuild_copies if st.stock == 0 else 0):
                        ctr.loads_completed += 1
                        if st.pairs > n:
                            # The extra pairs become a new catalyst.
                            st.pairs = n
                            st.stock = 1
                            ctr.catalysts_produced += 1
            # Auxiliary paths tick on their own period, applied at the first
            # slot boundary at or after each completion; a full stock pauses
            # the path rather than discarding finished catalysts.
            for i, path in enumerate(paths):
                while (st.aux_ticks[i] + 1) * path.gen_time_s <= t * (1.0 + _TICK_EPS):
                    st.aux_ticks[i] += 1
                    if st.stock is not None and cfg.stock_capacity is not None:
                        if st.stock >= cfg.stock_capacity:
                            continue
                    if aux_rngs[e][i].random() < path.gen_probability:
                        st.aux_pairs[i] += 1
                        if st.aux_pairs[i] == copies_needed[i]:
                            st.aux_pairs[i] = 0
                            ctr.catalysts_produced += 1
                            if st.stock is not None:
                                st.stock += 1
            if not st.ready and st.pairs == n and (st.stock is None or st.stock >= 1):
                ctr.catalysis_attempts += 1
                if attempt_rngs[e].random() < p_cat:
                    st.ready = True
                    ctr.catalysis_successes += 1
                    # Success recycles the catalyst: stock is unchanged.
                else:
                    ctr.catalysis_failures += 1
                    ctr.catalysts_consumed += 1
                    if st.stock is not None:
                        st.stock -= 1
                    st.pairs = 0
            if not st.ready:
                all_ready = False
        if all_ready:
            deliveries += 1
            intervals.append((slot - last_delivery_slot) * t0)
            last_delivery_slot = slot
            for st in states:
                st.pairs = 0
                st.ready = False
    return deliveries


def simulate_detailed_stepper(cfg):
    """Slot-by-slot reference for :func:`entcat.simulate.simulate_detailed`.

    The library's slot stepper as it was before the detailed simulator moved
    to per-edge block draws, kept whole for every aux regime so that tests
    can require byte-identical records.

    Per edge and slot: one primary-source attempt while fewer than n pairs
    are held; auxiliary paths accumulate raw pairs toward catalysts on their
    own clocks; once n pairs and a catalyst are available the edge attempts
    catalysis, recycling the catalyst on success and losing it together with
    the pairs on failure.  Without auxiliary paths an edge whose stock is
    empty loads n + n_cat pairs and turns n_cat of them into a catalyst, the
    cost :func:`entcat.network.t_edge_cycle` charges.  A delivery happens
    when every edge holds a Bell pair, after which all edges restart loading
    while stocks persist.
    """
    if cfg.mode != DETAILED_MODE:
        raise InvalidInputError("config mode must be detailed")
    if cfg.edge is None:
        raise InvalidInputError("detailed simulation requires edge parameters")
    paths = cfg.aux.paths if cfg.aux.mode == FINITE_AUX else ()
    rebuild = cfg.aux.mode == NO_AUX
    if cfg.p_cat_override is not None and not paths and not rebuild:
        p_cat = cfg.p_cat_override
        copies_needed = []
        rebuild_copies = 0
    else:
        catalyst = edge_catalyst(cfg.edge)
        p_cat = cfg.p_cat_override or catalyst.success_probability
        copies_needed = [copies_for_catalyst(catalyst.spectrum, p.alpha) for p in paths]
        rebuild_copies = copies_for_catalyst(catalyst.spectrum, cfg.edge.alpha) if rebuild else 0
    counters = [EdgeCounters() for _ in range(cfg.n_edges)]
    intervals: list[float] = []
    deliveries = 0
    for trial in range(cfg.trials):
        deliveries += _detailed_trial(
            cfg, trial, p_cat, copies_needed, rebuild_copies, counters, intervals
        )

    total_time = cfg.trials * cfg.max_slots * cfg.edge.cycle_time_s
    if deliveries == 0:
        return SimResult(
            mean_completion_s=None,
            std_error_s=None,
            rate_hz=0.0,
            deliveries=0,
            trials_completed=cfg.trials,
            timed_out=True,
            counters=tuple(counters),
        )
    arr = np.asarray(intervals)
    mean = float(arr.mean())
    std_error = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return SimResult(
        mean_completion_s=mean,
        std_error_s=std_error,
        rate_hz=deliveries / total_time,
        deliveries=deliveries,
        trials_completed=cfg.trials,
        timed_out=False,
        counters=tuple(counters),
    )


# ---------------------------------------------------------------------------
# Max-of-geometrics sampler: one numpy geometric draw per edge (the abstract
# simulator), and one inverted uniform per trial (validate-z)
# ---------------------------------------------------------------------------

_BATCH_TRIALS = 8192


def max_of_geometrics(p: float, n_edges: int, trials: int, seed: int, scale: float = 1.0):
    """Reference for the library's max-of-geometrics sampler.

    The sampler as it was before it drew exponential blocks and inverted only
    each trial's maximum.  ``Generator.geometric`` inverts the same
    exponentials below p = 1/3 and searches with uniforms from 1/3 up, so the
    two agree byte for byte below 1/3 only.  Returns the mean and standard
    error of ``scale`` times the per-trial maximum, and each column's total.
    """
    total = 0.0
    total_sq = 0.0
    column_totals = np.zeros(n_edges, dtype=np.int64)
    done = 0
    batch = 0
    while done < trials:
        size = min(_BATCH_TRIALS, trials - done)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, batch))))
        counts = rng.geometric(p, size=(size, n_edges))
        column_totals += counts.sum(axis=0)
        sample = counts.max(axis=1).astype(float) * scale
        total += float(sample.sum())
        total_sq += float((sample**2).sum())
        del counts
        done += size
        batch += 1
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / max(trials - 1, 1))
    return mean, math.sqrt(var / trials), column_totals


def max_of_inverted_uniforms(p: float, n_edges: int, trials: int, seed: int):
    """Reference for :func:`entcat.simulate.validate_waiting_factor`, one scalar at a time.

    It reads the same Philox uniforms, one per trial from the stream
    ``(seed, batch)``, and turns each into the trial's largest count with
    ``math``: the largest of N uniforms is ``u ** (1/N)``, so the largest of N
    exponentials is ``-log(-expm1(log(u) / N))`` (0.0 at u = 0.0), and its
    count is ``max(ceil(E / lam), 1)``.  Each batch's counts are summed as the
    library sums them.  Returns the mean and the standard error.
    """
    lam = math.inf if p == 1.0 else -math.log1p(-p)
    total = 0.0
    total_sq = 0.0
    for batch, done in enumerate(range(0, trials, _BATCH_TRIALS)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, batch))))
        counts = []
        for u in rng.random(min(_BATCH_TRIALS, trials - done)).tolist():
            largest = 0.0 if u == 0.0 else -math.log(-math.expm1(math.log(u) / n_edges))
            counts.append(float(max(math.ceil(largest / lam), 1)))
        sample = np.array(counts)
        total += float(sample.sum())
        total_sq += float((sample**2).sum())
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / max(trials - 1, 1))
    return mean, math.sqrt(var / trials)


def simulate_abstract_geometric(cfg):
    """Reference for :func:`entcat.simulate.simulate_abstract` on :func:`max_of_geometrics`."""
    if cfg.mode != ABSTRACT_MODE:
        raise InvalidInputError("config mode must be abstract")
    p_cat, t_cycle = _resolved_parameters(cfg)
    mean, std_error, attempts = max_of_geometrics(p_cat, cfg.n_edges, cfg.trials, cfg.seed, t_cycle)
    counters = [
        EdgeCounters(
            catalysis_attempts=int(a),
            catalysis_successes=cfg.trials,
            catalysis_failures=int(a) - cfg.trials,
        )
        for a in attempts
    ]
    return SimResult(
        mean_completion_s=mean,
        std_error_s=std_error,
        rate_hz=1.0 / mean,
        deliveries=cfg.trials,
        trials_completed=cfg.trials,
        timed_out=False,
        counters=tuple(counters),
    )
