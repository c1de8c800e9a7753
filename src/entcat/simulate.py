"""Monte Carlo validation of the analytic chain model.

Two simulators: an abstract per-edge geometric-cycle model matching the
analytic rate composition exactly, and a slot-level discrete-event model
with catalyst stock, recycling on success, loss on failure, and
replenishment from the edge's own pairs or from auxiliary paths.

The slot-level model and the streams of every run live in
:mod:`entcat._engine`, which the functions here import when a run first
needs it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .catalysis import _copies_for_catalysts, _count, _real
from .errors import InvalidInputError
from .network import (
    AUX_RICH,
    FINITE_AUX,
    AuxConfig,
    EdgeParams,
    _supply_copies,
    edge_catalyst,
    t_edge_cycle,
    waiting_factor,
)

ABSTRACT_MODE = "abstract"
DETAILED_MODE = "detailed"

# Most exponentials (8 MiB) the abstract simulator holds at once, unless the
# N of one trial are more.
_BLOCK_DOUBLES = 1 << 20
_DEFAULT_MAX_SLOTS = 100_000


@dataclass(frozen=True)
class SimConfig:
    """Inputs for a chain simulation.

    ``stock_capacity=None`` means unlimited.  ``p_cat_override`` and
    ``cycle_time_override_s`` bypass the analytic pipeline, which is useful
    for validating the waiting-time composition at a forced success
    probability; otherwise both derive from ``edge`` and ``aux``.

    A setting the run would not read is rejected rather than echoed: the
    cycle time outside abstract mode, whose slots fix the time scale; the
    stock capacity outside detailed finite-aux runs; an initial stock in
    abstract and aux-rich runs; ``max_slots`` in abstract runs; and the edge
    and aux mode when both overrides are given.  Every field is echoed in the
    run's record (:func:`result_record`).  Only an abstract run given both
    overrides reads no edge, so every other run without one is rejected.
    """

    n_edges: int
    mode: str
    edge: Optional[EdgeParams] = None
    aux: AuxConfig = AuxConfig(AUX_RICH)
    initial_stock: int = 0
    stock_capacity: Optional[int] = None
    max_slots: int = _DEFAULT_MAX_SLOTS
    trials: int = 1
    seed: int = 0
    p_cat_override: Optional[float] = None
    cycle_time_override_s: Optional[float] = None

    def __post_init__(self):
        # A numpy count is stored as an int and a numpy real as a float, so
        # the record echoes them as JSON.
        object.__setattr__(self, "n_edges", _count(self.n_edges, "edge count"))
        if self.mode not in (ABSTRACT_MODE, DETAILED_MODE):
            raise InvalidInputError(f"mode must be abstract or detailed, got {self.mode!r}")
        object.__setattr__(self, "trials", _count(self.trials, "trials"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        object.__setattr__(self, "initial_stock", _count(self.initial_stock, "initial stock", 0))
        if self.stock_capacity is not None:
            what = f"stock capacity covering the initial stock of {self.initial_stock}"
            object.__setattr__(self, "stock_capacity",
                               _count(self.stock_capacity, what, self.initial_stock))
        object.__setattr__(self, "max_slots", _count(self.max_slots, "max_slots"))
        for name, what, interval in (("p_cat_override", "forced success probability", "(0, 1]"),
                                     ("cycle_time_override_s", "forced cycle time", "(0, inf)")):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real(getattr(self, name), what, interval))
        detailed = self.mode == DETAILED_MODE
        if self.cycle_time_override_s is not None and detailed:
            raise InvalidInputError(
                "a forced cycle time applies to abstract mode only; detailed mode counts slots"
            )
        if self.stock_capacity is not None and not (detailed and self.aux.mode == FINITE_AUX):
            raise InvalidInputError(
                "a stock capacity applies to detailed runs with finite aux paths only"
            )
        if self.initial_stock > 0 and not (detailed and self.aux.mode != AUX_RICH):
            raise InvalidInputError(
                "an initial stock applies to detailed runs with aux mode none or finite only"
            )
        if self.max_slots != _DEFAULT_MAX_SLOTS and not detailed:
            raise InvalidInputError("max_slots applies to detailed mode only")
        forced = self.p_cat_override is not None and self.cycle_time_override_s is not None
        if forced and (self.edge is not None or self.aux != SimConfig.aux):
            raise InvalidInputError(
                "a run given both the success probability and the cycle time reads no edge"
                " parameters or aux mode"
            )
        if not forced and self.edge is None:
            raise InvalidInputError(
                "edge parameters are required unless an abstract run is given both"
                " p_cat_override and cycle_time_override_s"
            )


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

    def add_run(self, load_draws: int, loads: int, attempts: int, successes: int, produced: int):
        """Count one detailed edge run.

        Every load draw is one primary attempt in one loading slot, and every
        failed attempt spends one catalyst.
        """
        self.primary_attempts += load_draws
        self.loading_slots += load_draws
        self.loads_completed += loads
        self.catalysis_attempts += attempts
        self.catalysis_successes += successes
        self.catalysis_failures += attempts - successes
        self.catalysts_consumed += attempts - successes
        self.catalysts_produced += produced


@dataclass(frozen=True)
class SimResult:
    """Statistics of a simulation run.

    ``mean_completion_s`` is the average chain completion (abstract) or
    inter-delivery (detailed) time; ``rate_hz`` the long-run delivery rate.
    A detailed run that ends with zero deliveries is flagged ``timed_out``
    and carries a null mean and standard error and a zero rate rather than
    failing.

    :func:`result_record` writes every field, in declaration order, after the
    config echo: a field added here is a new key in every JSONL record, so
    anything a run reports beyond these statistics belongs elsewhere.
    """

    deliveries: int
    trials_completed: int
    timed_out: bool
    mean_completion_s: Optional[float]
    std_error_s: Optional[float]
    rate_hz: float
    counters: tuple


def _resolved_parameters(cfg: SimConfig):
    """A run's catalysis probability, supply copies and edge-cycle time, honoring overrides.

    The copies are as :func:`entcat.network.t_edge_cycle` reads them, plain
    ints from the sweep's copy rule on the edge catalyst's one row
    (:func:`entcat.network._supply_copies`); only an abstract run gets a
    cycle time.  A run with plentiful aux paths given
    ``p_cat_override`` (both overrides included) reads no catalyst, so
    ``alpha`` may lie outside the window; any other raises ``CatalysisWindowError`` there.
    """
    p_cat, copies, t_cycle = cfg.p_cat_override, (), cfg.cycle_time_override_s
    if p_cat is None or cfg.aux.mode != AUX_RICH:
        catalyst = edge_catalyst(cfg.edge)
        p_cat = p_cat or catalyst.success_probability
        spectra = catalyst.spectrum.coefficients[None, :]
        copies = tuple(int(column[0]) for column in _supply_copies(
            cfg.aux, spectra, _copies_for_catalysts(spectra, cfg.edge.alpha)))
    if t_cycle is None and cfg.mode == ABSTRACT_MODE:
        t_cycle = t_edge_cycle(p_cat, cfg.edge, cfg.aux, copies).t_edge_cycle_s
    return p_cat, copies, t_cycle


def simulate_abstract(cfg: SimConfig) -> SimResult:
    """Geometric-cycle chain model.

    Each edge independently needs a geometric number of fixed-length cycles;
    the chain completes when the slowest edge succeeds, so the expected
    completion equals the cycle time times the waiting factor.
    """
    if cfg.mode != ABSTRACT_MODE:
        raise InvalidInputError("config mode must be abstract")
    p_cat, _, t_cycle = _resolved_parameters(cfg)
    from ._engine import _BATCH_TRIALS, _MaxOfGeometrics

    sampler = _MaxOfGeometrics(p_cat, cfg.n_edges, cfg.trials, cfg.seed, t_cycle)
    # Every edge's count is needed for its attempt total, so each trial draws
    # all N exponentials; below p = 1/3 their counts are the ones
    # Generator.geometric inverts from the same stream.  A batch draws its
    # rows in stream order into one reused block and gathers their maxima, so
    # that its sums round as one whole batch's do.
    rows = min(max(1, _BLOCK_DOUBLES // cfg.n_edges), _BATCH_TRIALS, cfg.trials)
    block = np.empty((rows, cfg.n_edges))
    largest = np.empty(min(_BATCH_TRIALS, cfg.trials))
    # Python integers, which a long run at a small p cannot overflow.
    attempts = [0] * cfg.n_edges
    for size, rng in sampler:
        batch_attempts = np.zeros(cfg.n_edges)  # integer sums below 2**53, so exact
        for start in range(0, size, rows):
            draws = rng.standard_exponential(out=block[: min(rows, size - start)])
            draws.max(axis=1, out=largest[start : start + len(draws)])
            batch_attempts += sampler.counts(draws).sum(axis=0)
        sampler.add(largest[:size])
        attempts = [a + int(c) for a, c in zip(attempts, batch_attempts)]
    mean, std_error = sampler.mean_and_error()
    counters = [
        EdgeCounters(
            catalysis_attempts=a,
            catalysis_successes=cfg.trials,
            catalysis_failures=a - cfg.trials,
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

    An edge draws one load value per loading slot, one attempt value per
    attempt and nothing while it waits, so the load draws of each of its
    runs, from the slot after a delivery to its next successful attempt,
    depend on its own seed streams alone.  They are the run's length in
    slots unless an attempt waits for a catalyst.  A block of deliveries is
    read for all edges at once (:class:`_Runs`): each edge's load and
    attempt streams are read once, tested straight into bools, and the rest
    of the block is a fixed number of whole-array numpy calls whatever the
    edge count.  With plentiful aux paths
    there is no stock, and without aux paths a load from an empty stock
    builds its own catalyst, so no attempt waits and the chain is a renewal
    process: each delivery's interval is the largest of the edges' offsets.
    Finite aux paths tick on the wall clock, and an attempt waits when it
    finds the stock empty.  A success spends nothing, so that needs a
    failure earlier in the same run, or the first run from an empty initial
    stock.  Only those runs are stepped, from the slot their delivery
    leaves, each in one pass against the stock that applies the aux
    completions through every attempt's slot.  Every other run, and every
    block of deliveries without a stepped run, is settled from its offsets
    alone.  The result is that of stepping every
    slot, draw for draw.
    """
    if cfg.mode != DETAILED_MODE:
        raise InvalidInputError("config mode must be detailed")
    p_cat, copies, _ = _resolved_parameters(cfg)
    from ._engine import _streams, _trial

    counters = [EdgeCounters() for _ in range(cfg.n_edges)]
    intervals: list[np.ndarray] = []
    deliveries = 0
    rngs = _streams(cfg.seed, (cfg.trials, cfg.n_edges, 2 + len(cfg.aux.paths)))
    for _ in range(cfg.trials):
        deliveries += _trial(cfg, rngs, p_cat, copies, counters, intervals)

    mean = std_error = None
    if deliveries:
        arr = np.concatenate(intervals)
        del intervals  # hold the interval record once, not twice, while std runs
        mean = float(arr.mean())
        std_error = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return SimResult(
        deliveries=deliveries,
        trials_completed=cfg.trials,
        timed_out=deliveries == 0,
        mean_completion_s=mean,
        std_error_s=std_error,
        rate_hz=deliveries / (cfg.trials * cfg.max_slots * cfg.edge.cycle_time_s),
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
    """Monte Carlo check of the waiting factor at three standard errors.

    Each trial inverts one uniform to the largest of its N exponentials, so a
    trial costs one draw whatever N is.  The sampler takes p from
    ``_MIN_GEOMETRIC_P`` up, where every count and batch sum it forms is an
    exact double for N up to ~8.3e7.
    """
    n_edges = _count(n_edges, "edge count")
    trials = _count(trials, "trials", 2)
    seed = _count(seed, "seed", 0)
    p = _real(p, "success probability", "(0, 1]")
    from ._engine import _BATCH_TRIALS, _MaxOfGeometrics

    analytic = waiting_factor(n_edges, p)
    sampler = _MaxOfGeometrics(p, n_edges, trials, seed)
    uniforms = np.empty(min(_BATCH_TRIALS, trials))
    with np.errstate(divide="ignore"):  # log(0.0) is -inf, and the chain then gives 0.0
        for size, rng in sampler:
            sampler.add(sampler.negated_largest(rng.random(out=uniforms[:size])), negated=True)
    mean, std_error = sampler.mean_and_error()
    if std_error > 0.0:
        deviation = abs(mean - analytic) / std_error
    else:
        # Every trial drew the same maximum: it passes only if it is exact.
        deviation = 0.0 if mean == analytic else math.inf
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
    """JSON-serializable record of a run: config echo, seed, then every statistic.

    The statistics and each edge's counters are plain ints and floats, so
    they are copied field by field, without ``asdict``'s recursive deep copy.
    """
    config = asdict(cfg)
    record = {"config": config, "seed": config.pop("seed"), **vars(result)}
    record["counters"] = [dict(vars(counters)) for counters in result.counters]
    return record
