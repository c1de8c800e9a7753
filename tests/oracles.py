"""Independent oracles used to derive and pin expected test values.

These deliberately avoid the library's own code paths: exact rational
arithmetic for the monotone-ratio minimum, a positive-term series and a
high-precision inclusion-exclusion sum for the waiting factor, a Markov
survival recursion for the slot-level chain model, the slot-by-slot
stepper that the detailed simulator must match byte for byte, the
Philox keys of its streams one SeedSequence at a time, the
per-edge geometric sampler that the abstract simulator and the waiting-factor
check must match below p = 1/3, the lockstep catalyst search as first
written, which checks its certificate at every cut, the sweep rows composed
one scalar point at a time, and the sweep CSV writer that formats each cell
by its type.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from entcat._search import _CERTIFIED_TRACE
from entcat.catalysis import (
    ConcentrationProblem,
    catalysis_probability,
    copies_for_catalyst,
    initial_spectrum,
    locc_probability,
    n_star,
    optimal_catalyst,
)
from entcat.errors import InvalidInputError
from entcat.network import (
    AUX_RICH,
    FINITE_AUX,
    NO_AUX,
    SWEEP_CSV_HEADER,
    WINDOW_OK,
    WINDOW_OUT,
    AuxConfig,
    EdgeParams,
    SweepRow,
    edge_catalyst,
    t_edge_cycle,
    t_primary,
    waiting_factor,
)
from entcat.spectra import make_schmidt
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


def copies_to_reach(catalyst, alpha: float, tol: float = 0.0) -> int:
    """Smallest m whose whole ``(alpha, 1-alpha)``-power spectrum the catalyst majorizes.

    m copies reach the catalyst with certainty exactly then (Nielsen 1999):
    for every j, the j largest entries of the 2**m power sum to at most the
    catalyst's j largest, which hold the whole mass for j at or beyond its
    dimension.  Each sum past the first may exceed the catalyst's by ``tol``,
    the slack :data:`entcat.spectra.TOL` the library's rule allows; the
    largest entries are compared exactly, and so are the Schmidt ranks: the
    power's 2**m entries must cover the catalyst's positive coefficients, as
    LOCC cannot raise the rank.  Decided at 60 digits on the power's layers,
    layer k holding ``C(m, k)`` entries ``alpha**(m-k) (1-alpha)**k``, from
    the top.  Adding a copy keeps what the catalyst majorizes, so the valid
    m are a ray; the first one is found by doubling and bisection.
    """
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        largest = list(itertools.accumulate(mpmath.mpf(c) for c in catalyst[:-1]))
        bounds = largest[:1] + [total + mpmath.mpf(tol) for total in largest[1:]]
        rank = sum(c > 0 for c in catalyst)

        def majorized(m):
            if (rank - 1).bit_length() > m:  # 2**m < rank
                return False
            top, k, left = mpmath.mpf(0), 0, 1  # left: entries of layer k not yet in top
            for bound in bounds:
                while not left and k < m:
                    k += 1
                    left = math.comb(m, k)
                if left:  # the next largest entry of the power
                    top += a ** (m - k) * (1 - a) ** k
                    left -= 1
                else:  # all 2**m entries are in: the whole mass
                    top = mpmath.mpf(1)
                if top > bound:
                    return False
            return True

        low, high = 0, 1  # no copy reaches anything but a product state
        while not majorized(high):
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if majorized(mid) else (mid, high)
        return high


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


def seedsequence_keys(prefix: tuple, suffixes) -> np.ndarray:
    """The Philox key of each stream ``prefix + row``, one SeedSequence per row.

    The reference for ``entcat._engine._philox_keys``, which derives them
    all in one pass: shaped (rows, 2), uint64.
    """
    keys = [np.random.SeedSequence(prefix + tuple(row)).generate_state(2, np.uint64)
            for row in np.asarray(suffixes).tolist()]
    return np.array(keys, np.uint64).reshape(-1, 2)


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
    p_cat, _, t_cycle = _resolved_parameters(cfg)
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


def _ordered_row_sum(terms):
    total = terms[..., 0]
    for i in range(1, terms.shape[-1]):
        total = total + terms[..., i]
    return total


def lockstep_search(problems, d_c: int, max_cuts: int):
    """The certified ellipsoid catalyst search, checking the certificate every cut.

    The library's batch search as it was first written: the supergradient
    sums the psi weights of the ranked entries with a weighted bincount, and
    the trace is tested before every cut.  Returns each problem's
    ``(coefficients, success probability)`` and the index of the cut at which
    the last problem was certified, or raises ``RuntimeError`` if the budget
    of ``max_cuts`` runs out first.
    """
    psi = np.array([initial_spectrum(problem).coefficients for problem in problems])
    size = psi.shape[1] * d_c
    free = d_c - 1
    to_c = np.vstack([-np.ones(free), np.eye(free)])
    diffs = np.eye(d_c) - np.eye(d_c, k=1)
    rows = -diffs @ to_c
    zeros = size - 2 * d_c
    target = np.zeros((2 * d_c, d_c))
    target[np.arange(2 * d_c), np.repeat(np.arange(d_c)[::-1], 2)] = 0.5
    target = np.cumsum(target, axis=0)
    weight = np.repeat(psi, d_c, axis=1)
    column = np.tile(np.arange(d_c), psi.shape[1])
    rank = np.arange(size)
    half = 0.5 / np.arange(2, d_c + 1)
    x = np.tile(half, (len(problems), 1))
    factor = np.tile(np.diag(math.sqrt(free) * half), (len(problems), 1, 1))
    spread = free / math.sqrt(free * free - 1) if free > 1 else 1.0
    along = free / (free + 1) - spread
    best = np.zeros((len(problems), d_c))
    best_p = np.full(len(problems), -1.0)
    certified = best.copy()
    active = np.arange(len(problems))

    def keep(mask, *arrays):
        return tuple(a[~mask] for a in arrays)

    for cut_index in range(max_cuts):
        done = _ordered_row_sum(_ordered_row_sum(factor * factor)) <= _CERTIFIED_TRACE
        if done.any():
            certified[active[done]] = best[done]
            active, x, factor, psi, weight, best, best_p = keep(
                done, active, x, factor, psi, weight, best, best_p
            )
            if active.size == 0:
                break
        rows_now = np.arange(active.size)
        c = np.concatenate([1.0 - _ordered_row_sum(x)[:, None], x], axis=1)
        slack = np.concatenate([c[:, 1:] - c[:, :-1], -c[:, -1:]], axis=1)
        j = np.argmax(slack, axis=1)
        inside = slack[rows_now, j] <= 0.0
        joint = (psi[:, :, None] * c[:, None, :]).reshape(active.size, size)
        order = np.argsort(joint, axis=1)
        pick = order + size * rows_now[:, None]
        e_i = np.cumsum(joint.ravel()[pick], axis=1)[:, zeros:]
        e_f = 0.5 * np.cumsum(np.repeat(c[:, ::-1], 2, axis=1), axis=1)
        ratios = np.divide(e_i, e_f, out=np.full(e_f.shape, np.inf), where=e_f > 0.0)
        k = np.argmin(ratios, axis=1)
        p = ratios[rows_now, k]
        better = inside & (p > best_p)
        best[better] = c[better]
        best_p[better] = p[better]
        smallest = rank <= zeros + k[:, None]
        gains = np.bincount(
            (column[order] + d_c * rows_now[:, None])[smallest],
            weight.ravel()[pick][smallest],
            active.size * d_c,
        ).reshape(active.size, d_c)
        grad = gains - p[:, None] * target[k]
        cut = np.where(inside[:, None], grad[:, :1] - grad[:, 1:], rows[j])
        u = _ordered_row_sum(np.swapaxes(factor, 1, 2) * cut[:, None, :])
        width = _ordered_row_sum(u * u)
        flat = width == 0.0
        if flat.any():
            certified[active[flat]] = best[flat]
            active, x, factor, psi, weight, best, best_p, u, width = keep(
                flat, active, x, factor, psi, weight, best, best_p, u, width
            )
            if active.size == 0:
                break
        u /= np.sqrt(width)[:, None]
        step = _ordered_row_sum(factor * u[:, None, :])
        x = x - step / (free + 1)
        factor = spread * factor + along * (step[:, :, None] * u[:, None, :])
    else:
        raise RuntimeError(f"not certified within {max_cuts} cuts")
    found = [make_schmidt(c) for c in certified]
    return [
        (spectrum.coefficients, catalysis_probability(problem, spectrum))
        for problem, spectrum in zip(problems, found)
    ], cut_index


# ---------------------------------------------------------------------------
# Sweep rows composed one scalar point at a time
# ---------------------------------------------------------------------------


def sweep_rows(copies, n_edges, alpha_grid, modes, catalyst_dims, *, aux_paths=(), **timing):
    """The rows of ``network.sweep_rates``, each point composed on its own.

    One row per (mode, dimension, alpha), from the public pieces alone: the
    window from ``n_star``, the catalyst from ``optimal_catalyst`` and its
    copy counts from ``copies_for_catalyst``, the edge cycle from
    ``t_edge_cycle`` and one ``waiting_factor`` call per probability.
    ``timing`` holds the edge's timing keywords.
    """
    rows = []
    for mode in modes:
        aux = AuxConfig(mode, aux_paths if mode == FINITE_AUX else ())
        for dim in catalyst_dims:
            for alpha in sorted(alpha_grid):
                edge = EdgeParams(alpha, copies, catalyst_dim=dim, **timing)
                problem = ConcentrationProblem(copies, alpha)
                p_locc = locc_probability(problem)
                z_locc = waiting_factor(n_edges, p_locc)
                t_pri = t_primary(copies, edge.cycle_time_s, edge.herald_probability)
                rate_locc = 1.0 / (t_pri * z_locc)
                if not 2 <= copies <= n_star(alpha) - 1:
                    rows.append(SweepRow(alpha=alpha, mode=mode, catalyst_dim=dim, p_locc=p_locc,
                                         z_locc=z_locc, rate_locc_hz=rate_locc,
                                         window_flag=WINDOW_OUT))
                    continue
                catalyst = optimal_catalyst(problem, dim)
                spectrum, p_cat = catalyst.spectrum, catalyst.success_probability
                n_cat = copies_for_catalyst(spectrum, alpha)
                supply = tuple(copies_for_catalyst(spectrum, path.alpha) for path in aux.paths)
                t_cycle = t_edge_cycle(p_cat, edge, aux, supply or (n_cat,)).t_edge_cycle_s
                z_cat = waiting_factor(n_edges, p_cat)
                rate_cat = 1.0 / (t_cycle * z_cat)
                rows.append(SweepRow(
                    alpha=alpha, mode=mode, catalyst_dim=dim, p_locc=p_locc, p_cat=p_cat,
                    c0=float(spectrum.coefficients[0]), n_cat=n_cat, eta_p=p_cat / p_locc,
                    z_locc=z_locc, z_cat=z_cat, t_edge_cycle_s=t_cycle, rate_locc_hz=rate_locc,
                    rate_cat_hz=rate_cat, eta_r=rate_cat / rate_locc, window_flag=WINDOW_OK,
                ))
    return rows


# ---------------------------------------------------------------------------
# Sweep CSV writer that dispatches on each cell's type
# ---------------------------------------------------------------------------


def write_sweep_csv(rows, stream) -> None:
    """Write sweep rows with the fixed header, floats to 12 significant digits.

    Each cell is formatted straight from its value: empty for None, as is for
    a string, ``str`` for an integer and ``.12g`` for the rest.  No cell needs
    CSV quoting, since the only strings are the fixed mode and window words.
    """
    stream.write(SWEEP_CSV_HEADER + "\n")
    for r in rows:
        cells = [
            "" if v is None else v if isinstance(v, str) else str(v) if isinstance(v, int)
            else f"{v:.12g}"
            for v in r
        ]
        stream.write(",".join(cells) + "\n")
