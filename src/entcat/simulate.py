"""Monte Carlo validation of the analytic chain model.

Two simulators: an abstract per-edge geometric-cycle model matching the
analytic rate composition exactly, and a slot-level discrete-event model
with catalyst stock, recycling on success, loss on failure, and
auxiliary-path replenishment.  Trials are independently seeded so results
are bit-identical however they are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .catalysis import copies_for_catalyst
from .errors import InvalidInputError
from .network import (
    AUX_RICH,
    FINITE_AUX,
    NO_AUX,
    AuxConfig,
    EdgeParams,
    edge_catalyst,
    t_edge_cycle,
    waiting_factor,
)

ABSTRACT_MODE = "abstract"
DETAILED_MODE = "detailed"

# Fixed batch size for the abstract simulator; each batch draws from its own
# seed stream, so results do not depend on how batches are scheduled.
_BATCH_TRIALS = 8192
_TICK_EPS = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Inputs for a chain simulation.

    ``stock_capacity=None`` means unlimited.  ``p_cat_override`` and
    ``cycle_time_override_s`` bypass the analytic pipeline, which is useful
    for validating the waiting-time composition at a forced success
    probability; otherwise both derive from ``edge`` and ``aux``.
    """

    n_edges: int
    mode: str
    edge: Optional[EdgeParams] = None
    aux: AuxConfig = AuxConfig(AUX_RICH)
    initial_stock: int = 0
    stock_capacity: Optional[int] = None
    max_slots: int = 100_000
    trials: int = 1
    seed: int = 0
    p_cat_override: Optional[float] = None
    cycle_time_override_s: Optional[float] = None

    def __post_init__(self):
        if self.n_edges < 1:
            raise InvalidInputError(f"edge count must be positive, got {self.n_edges}")
        if self.mode not in (ABSTRACT_MODE, DETAILED_MODE):
            raise InvalidInputError(f"mode must be abstract or detailed, got {self.mode!r}")
        if self.trials < 1:
            raise InvalidInputError("trials must be positive")
        if self.initial_stock < 0:
            raise InvalidInputError("initial stock must be non-negative")
        if self.stock_capacity is not None and self.stock_capacity < self.initial_stock:
            raise InvalidInputError("stock capacity must cover the initial stock")
        if self.max_slots < 1:
            raise InvalidInputError("max_slots must be positive")
        if self.p_cat_override is not None and not 0.0 < self.p_cat_override <= 1.0:
            raise InvalidInputError("forced success probability must lie in (0, 1]")
        if self.cycle_time_override_s is not None and self.cycle_time_override_s <= 0.0:
            raise InvalidInputError("forced cycle time must be positive")


@dataclass
class EdgeCounters:
    """Per-edge event counts accumulated over all trials."""

    primary_attempts: int = 0
    loads_completed: int = 0
    loading_slots: int = 0
    catalysis_attempts: int = 0
    catalysis_successes: int = 0
    catalysis_failures: int = 0
    catalysts_produced: int = 0
    catalysts_consumed: int = 0


@dataclass(frozen=True)
class SimResult:
    """Statistics of a simulation run.

    ``mean_completion_s`` is the average chain completion (abstract) or
    inter-delivery (detailed) time; ``rate_hz`` the long-run delivery rate.
    A detailed run that ends with zero deliveries is flagged ``timed_out``
    and carries null statistics rather than failing.
    """

    mean_completion_s: Optional[float]
    std_error_s: Optional[float]
    rate_hz: Optional[float]
    deliveries: int
    trials_completed: int
    timed_out: bool
    counters: tuple


def _resolved_parameters(cfg: SimConfig):
    """Catalysis probability and mean edge-cycle time, honoring overrides."""
    p_cat = cfg.p_cat_override
    t_cycle = cfg.cycle_time_override_s
    if p_cat is not None and t_cycle is not None:
        return p_cat, t_cycle
    if cfg.edge is None:
        raise InvalidInputError(
            "edge parameters are required unless both overrides are given"
        )
    catalyst = edge_catalyst(cfg.edge)
    if p_cat is None:
        p_cat = catalyst.success_probability
    if t_cycle is None:
        t_cycle = t_edge_cycle(p_cat, cfg.edge, cfg.aux, catalyst.spectrum).t_edge_cycle_s
    return p_cat, t_cycle


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, batch))))


def _max_of_geometrics(p: float, n_edges: int, trials: int, seed: int, scale: float = 1.0):
    """Sample ``scale`` times the maximum of N independent geometric(p) counts.

    Rows are drawn in batches of ``_BATCH_TRIALS``, batch b from the Philox
    stream ``(seed, b)``, so results do not depend on how batches are
    scheduled.  Returns the sample mean, its standard error and the total
    count drawn in each of the N columns.
    """
    total = 0.0
    total_sq = 0.0
    column_totals = np.zeros(n_edges, dtype=np.int64)
    done = 0
    batch = 0
    while done < trials:
        size = min(_BATCH_TRIALS, trials - done)
        counts = _batch_rng(seed, batch).geometric(p, size=(size, n_edges))
        column_totals += counts.sum(axis=0)
        sample = counts.max(axis=1).astype(float) * scale
        total += float(sample.sum())
        total_sq += float((sample**2).sum())
        del counts  # so that only one batch is held while the next is drawn
        done += size
        batch += 1
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / max(trials - 1, 1))
    return mean, math.sqrt(var / trials), column_totals


def simulate_abstract(cfg: SimConfig) -> SimResult:
    """Geometric-cycle chain model.

    Each edge independently needs a geometric number of fixed-length cycles;
    the chain completes when the slowest edge succeeds, so the expected
    completion equals the cycle time times the waiting factor.
    """
    if cfg.mode != ABSTRACT_MODE:
        raise InvalidInputError("config mode must be abstract")
    p_cat, t_cycle = _resolved_parameters(cfg)
    mean, std_error, attempts = _max_of_geometrics(p_cat, cfg.n_edges, cfg.trials, cfg.seed, t_cycle)
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


@dataclass
class _EdgeState:
    pairs: int = 0
    ready: bool = False
    stock: Optional[int] = None
    aux_pairs: list = field(default_factory=list)
    aux_ticks: list = field(default_factory=list)


def _detailed_trial(cfg: SimConfig, trial: int, p_cat, copies_needed, rebuild_copies, counters, intervals):
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


def _trial_rng(seed: int, trial: int, edge: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, trial, edge, stream)))
    )


def simulate_detailed(cfg: SimConfig) -> SimResult:
    """Slot-level chain simulation with catalyst stock and replenishment.

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


def run_simulation(cfg: SimConfig) -> SimResult:
    """Dispatch on the configured mode."""
    if cfg.mode == ABSTRACT_MODE:
        return simulate_abstract(cfg)
    return simulate_detailed(cfg)


@dataclass(frozen=True)
class WaitingFactorCheck:
    """Empirical max-of-geometrics mean against the analytic waiting factor."""

    n_edges: int
    p: float
    trials: int
    empirical_mean: float
    analytic: float
    std_error: float
    deviation_sigmas: float
    passed: bool


def validate_waiting_factor(n_edges: int, p: float, trials: int, seed: int) -> WaitingFactorCheck:
    """Monte Carlo check of the waiting factor at three standard errors."""
    if trials < 2:
        raise InvalidInputError("need at least two trials for a standard error")
    analytic = waiting_factor(n_edges, p)
    mean, std_error, _ = _max_of_geometrics(p, n_edges, trials, seed)
    deviation = abs(mean - analytic) / std_error if std_error > 0 else 0.0
    return WaitingFactorCheck(
        n_edges=n_edges,
        p=p,
        trials=trials,
        empirical_mean=mean,
        analytic=analytic,
        std_error=std_error,
        deviation_sigmas=deviation,
        passed=deviation <= 3.0,
    )


def result_record(cfg: SimConfig, result: SimResult) -> dict:
    """JSON-serializable record of a run: config echo plus statistics."""
    edge = asdict(cfg.edge) if cfg.edge is not None else None
    aux = {"mode": cfg.aux.mode, "paths": [asdict(p) for p in cfg.aux.paths]}
    return {
        "config": {
            "n_edges": cfg.n_edges,
            "mode": cfg.mode,
            "edge": edge,
            "aux": aux,
            "initial_stock": cfg.initial_stock,
            "stock_capacity": cfg.stock_capacity,
            "max_slots": cfg.max_slots,
            "trials": cfg.trials,
            "p_cat_override": cfg.p_cat_override,
            "cycle_time_override_s": cfg.cycle_time_override_s,
        },
        "seed": cfg.seed,
        "deliveries": result.deliveries,
        "trials_completed": result.trials_completed,
        "timed_out": result.timed_out,
        "mean_completion_s": result.mean_completion_s,
        "std_error_s": result.std_error_s,
        "rate_hz": result.rate_hz,
        "counters": [asdict(c) for c in result.counters],
    }
