"""Monte Carlo validation of the analytic chain model.

Two simulators: an abstract per-edge geometric-cycle model matching the
analytic rate composition exactly, and a slot-level discrete-event model
with catalyst stock, recycling on success, loss on failure, and
replenishment from the edge's own pairs or from auxiliary paths.  The
slot-level model is computed per edge from block draws: with plentiful aux
paths an edge holds no stock and renews at every delivery, so a block of
deliveries is settled at a time; an edge that holds a stock (no aux paths,
or finite ones) advances one delivery at a time, jumping from event to
event.  Trials are independently seeded so results are bit-identical
however they are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Integral
from operator import attrgetter
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .network import (
    AUX_RICH,
    FINITE_AUX,
    AuxConfig,
    EdgeParams,
    _spectrum_catalyst,
    _supply_copies,
    edge_catalyst,
    t_edge_cycle,
    waiting_factor,
)

ABSTRACT_MODE = "abstract"
DETAILED_MODE = "detailed"

# Fixed batch size of the max-of-geometrics sampler; each batch draws from its
# own seed stream, so results do not depend on how batches are scheduled.
_BATCH_TRIALS = 8192
# Most exponentials (8 MiB) the abstract simulator holds at once, unless the
# N of one trial are more.
_BLOCK_DOUBLES = 1 << 20
# Smallest success probability the sampler takes, where lam ~ 1e-10 and a
# count below 2**39 needs E < 2**39 * lam ~ 54.98.  The abstract simulator's
# exponentials never exceed 45 (numpy's ziggurat tail is r - log1p(-U), U < 1
# on a 2**-53 grid).  validate-z's largest exponential, inverted from the
# largest uniform 1 - 2**-53, is -log(-expm1(log1p(-2**-53) / N)) ~ 36.74 +
# ln N: 45.05 at N = 4096, and below 54.98 for N up to ~8.3e7.  There a
# batch of 8192 counts sums exactly in doubles; much below 1e-10 the counts
# themselves pass 2**53, where doubles no longer hold every integer.
_MIN_GEOMETRIC_P = 1e-10
# Aux ticks are applied at the first slot boundary within this relative
# tolerance of their completion time.
_TICK_SCALE = 1.0 + 1e-9
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
        if not isinstance(self.n_edges, Integral) or self.n_edges < 1:
            raise InvalidInputError(f"edge count must be a positive integer, got {self.n_edges}")
        if self.mode not in (ABSTRACT_MODE, DETAILED_MODE):
            raise InvalidInputError(f"mode must be abstract or detailed, got {self.mode!r}")
        if not isinstance(self.trials, Integral) or self.trials < 1:
            raise InvalidInputError(f"trials must be a positive integer, got {self.trials}")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed}")
        if not isinstance(self.initial_stock, Integral) or self.initial_stock < 0:
            raise InvalidInputError("initial stock must be a non-negative integer")
        capacity = self.initial_stock if self.stock_capacity is None else self.stock_capacity
        if not isinstance(capacity, Integral) or capacity < self.initial_stock:
            raise InvalidInputError("stock capacity must be an integer covering the initial stock")
        if not isinstance(self.max_slots, Integral) or self.max_slots < 1:
            raise InvalidInputError(f"max_slots must be a positive integer, got {self.max_slots}")
        if self.p_cat_override is not None and not 0.0 < self.p_cat_override <= 1.0:
            raise InvalidInputError("forced success probability must lie in (0, 1]")
        if self.cycle_time_override_s is not None:
            if self.mode == DETAILED_MODE:
                raise InvalidInputError(
                    "a forced cycle time applies to abstract mode only; detailed mode counts slots"
                )
            if not 0.0 < self.cycle_time_override_s < math.inf:
                raise InvalidInputError("forced cycle time must be positive and finite")
        detailed = self.mode == DETAILED_MODE
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


def _catalyst_supply(cfg: SimConfig):
    """Catalysis probability, honoring its override, and the copies one catalyst takes.

    The copies are one count per finite aux path, or the edge's own ``n_cat``
    in the other modes, as :func:`entcat.network.t_edge_cycle` takes them.
    Plentiful aux paths refill no stock, so there a forced probability reads
    no catalyst and no copies, and ``alpha`` may lie outside the window.
    """
    if cfg.aux.mode == AUX_RICH and cfg.p_cat_override is not None:
        return cfg.p_cat_override, ()
    _, p_cat, copies = _spectrum_catalyst(edge_catalyst(cfg.edge))
    return cfg.p_cat_override or p_cat, _supply_copies(cfg.aux, copies, copies(cfg.edge.alpha))


def _resolved_parameters(cfg: SimConfig):
    """Catalysis probability and mean edge-cycle time, honoring overrides."""
    p_cat = cfg.p_cat_override
    t_cycle = cfg.cycle_time_override_s
    if p_cat is not None and t_cycle is not None:
        return p_cat, t_cycle
    p_cat, copies = _catalyst_supply(cfg)
    if t_cycle is None:
        t_cycle = t_edge_cycle(p_cat, cfg.edge, cfg.aux, copies).t_edge_cycle_s
    return p_cat, t_cycle


def _rng(*key: int) -> np.random.Generator:
    """The Philox stream of ``key``, e.g. (seed, batch) or (seed, trial, edge, stream)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class _MaxOfGeometrics:
    """``scale`` times the largest of N independent geometric(p) counts, per trial.

    A geometric(p) count is ``ceil(E / lam)`` with ``E ~ Exp(1)`` and
    ``lam = -log(1 - p)`` (Devroye, *Non-Uniform Random Variate Generation*,
    1986, X.2).  The map does not decrease in E, so a trial's largest count is
    the count of its largest exponential, and only that maximum is inverted.

    Iterating yields each batch of ``_BATCH_TRIALS`` trials as its size and
    the Philox stream ``(seed, b)`` of batch b.  The caller draws each trial's
    largest exponential from the stream, drawing all N exponentials or
    inverting one uniform (``largest_exponentials``), and passes them to
    ``add``.
    """

    def __init__(self, p: float, n_edges: int, trials: int, seed: int, scale: float = 1.0):
        if not _MIN_GEOMETRIC_P <= p <= 1.0:
            raise InvalidInputError(
                f"the geometric sampler needs p in [{_MIN_GEOMETRIC_P:g}, 1], got {p}"
            )
        # At p = 1, E / lam is 0 and every count is raised to 1.
        self.lam = math.inf if p == 1.0 else -math.log1p(-p)
        self.n_edges = n_edges
        self.trials = trials
        self.seed = seed
        self.scale = scale
        self.total = 0.0
        self.total_sq = 0.0

    def __iter__(self):
        for batch, done in enumerate(range(0, self.trials, _BATCH_TRIALS)):
            yield min(_BATCH_TRIALS, self.trials - done), _rng(self.seed, batch)

    def counts(self, draws: np.ndarray) -> np.ndarray:
        """The geometric counts of exponential ``draws``, written over them.

        A count is at least 1 even where a draw is exactly 0.0.
        """
        np.ceil(np.divide(draws, self.lam, out=draws), out=draws)
        return np.maximum(draws, 1.0, out=draws)

    def largest_exponentials(self, uniforms: np.ndarray) -> np.ndarray:
        """The largest of N Exp(1) draws, one per uniform, written over them.

        The largest of N uniforms is ``U**(1/N)`` (Devroye 1986, V), so the
        largest of N exponentials, whose law is ``(1 - exp(-x))**N``, is
        ``-log(-expm1(log(U) / N))``.  A uniform of exactly 0.0 gives 0.0.
        """
        with np.errstate(divide="ignore"):  # log(0.0) is -inf, and the chain then gives 0.0
            np.log(uniforms, out=uniforms)
        np.divide(uniforms, self.n_edges, out=uniforms)
        np.negative(np.expm1(uniforms, out=uniforms), out=uniforms)
        return np.negative(np.log(uniforms, out=uniforms), out=uniforms)

    def add(self, largest: np.ndarray) -> None:
        """Add the trials whose largest exponentials are ``largest``, overwriting them."""
        sample = np.multiply(self.counts(largest), self.scale, out=largest)
        self.total += float(sample.sum())
        self.total_sq += float(np.square(sample, out=sample).sum())

    def mean_and_error(self):
        """The sample mean over every trial added, and its standard error."""
        mean = self.total / self.trials
        var = max(0.0, (self.total_sq - self.trials * mean * mean) / max(self.trials - 1, 1))
        return mean, math.sqrt(var / self.trials)


def simulate_abstract(cfg: SimConfig) -> SimResult:
    """Geometric-cycle chain model.

    Each edge independently needs a geometric number of fixed-length cycles;
    the chain completes when the slowest edge succeeds, so the expected
    completion equals the cycle time times the waiting factor.
    """
    if cfg.mode != ABSTRACT_MODE:
        raise InvalidInputError("config mode must be abstract")
    p_cat, t_cycle = _resolved_parameters(cfg)
    sampler = _MaxOfGeometrics(p_cat, cfg.n_edges, cfg.trials, cfg.seed, t_cycle)
    # Every edge's count is needed for its attempt total, so each trial draws
    # all N exponentials.  Below p = 1/3 their counts are the ones
    # Generator.geometric returns from the same stream, which inverts the
    # same exponentials.  A batch draws its trials' rows a chunk at a time,
    # in stream order, into one reused block of at most _BLOCK_DOUBLES, and
    # gathers their maxima, so that its sums round as one whole batch's do.
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


# Load draws per call on one edge's stream, and deliveries settled per step;
# both bound the working memory whatever ``max_slots`` is.
_DRAW_BLOCK = 1 << 11
_DELIVERY_BLOCK = 1 << 8


class _EdgeRenewals:
    """One aux-rich edge's loads and catalysis attempts, read a block of draws at a time.

    The edge draws one load value per loading slot and one attempt value per
    completed load, and nothing while it waits ready, so the load draws at
    which its catalysis attempts succeed depend on its own two streams only.
    Every load ends at the n-th success after the last.  No edge uses more
    load values than there are slots, so at most ``max_slots`` are drawn.
    """

    def __init__(self, cfg: SimConfig, trial: int, edge: int, p_cat):
        self.load_ends = _every_nth_success(
            _rng(cfg.seed, trial, edge, 0), cfg.edge.herald_probability, cfg.edge.copies,
            cfg.max_slots,
        )
        self.attempt_rng = _rng(cfg.seed, trial, edge, 1)
        self.p_cat = p_cat
        self.loads = self.successes = 0  # settled loads, and the successes among them
        # Completed loads not yet counted: the load draw that completes each
        # (counted from 1) and its attempt outcome.
        self.done = (np.empty(0, np.int64), np.empty(0, bool))

    def ready_draws(self, count: int) -> np.ndarray:
        """Load draws of the next ``count`` successful attempts not yet counted.

        Fewer come back when the edge reaches ``max_slots`` draws first.
        """
        blocks = [self.done]
        have = np.count_nonzero(self.done[1])
        while have < count:
            ends = next(self.load_ends, None)
            if ends is None:
                break
            blocks.append((ends, self.attempt_rng.random(ends.size) < self.p_cat))
            have += np.count_nonzero(blocks[-1][1])
        at, won = self.done = tuple(map(np.concatenate, zip(*blocks)))
        return at[won][:count]

    def settle(self, used: int) -> None:
        """Tally the loads completed within the first ``used`` load draws."""
        at, won = self.done
        k = int(np.searchsorted(at, used, side="right"))
        self.loads += k
        self.successes += int(np.count_nonzero(won[:k]))
        self.done = at[k:], won[k:]


def _renewal_trial(cfg: SimConfig, trial: int, p_cat, counters, intervals):
    """One replication of an aux-rich chain; returns the delivery count.

    A ready edge draws nothing and every other edge draws one load value per
    slot, so the k-th delivery finds edge e ready after the load draws of its
    own k-th successful attempt, counted from the end of its (k-1)-th.  The
    interval is the largest of these offsets over the edges.  Deliveries are
    settled a block at a time until their running sum passes ``max_slots``;
    in the cut-off delivery each edge has used ``min(offset, slots left)``
    draws, and its counters cover exactly the draws it used.
    """
    limit = cfg.max_slots
    edges = [_EdgeRenewals(cfg, trial, e, p_cat) for e in range(cfg.n_edges)]
    used = np.zeros(cfg.n_edges, np.int64)  # load draws used by settled deliveries
    slot = 0
    deliveries = 0
    while True:
        # An edge that runs out of draws is never ready again: limit + 1
        # lies beyond every slot that is left.
        ends = np.full((cfg.n_edges, _DELIVERY_BLOCK), limit + 1, np.int64)
        for e, renewals in enumerate(edges):
            ready = renewals.ready_draws(_DELIVERY_BLOCK)
            ends[e, : ready.size] = ready
        offsets = np.diff(ends, axis=1, prepend=used[:, None])
        gaps = offsets.max(axis=0)
        elapsed = slot + np.cumsum(gaps)
        settled = int(np.searchsorted(elapsed, limit, side="right"))
        intervals.append(gaps[:settled] * cfg.edge.cycle_time_s)
        deliveries += settled
        cut = settled < _DELIVERY_BLOCK
        if settled:
            used = ends[:, settled - 1]
            slot = int(elapsed[settled - 1])
        if cut:
            used = used + np.minimum(offsets[:, settled], limit - slot)
        for renewals, draws in zip(edges, used.tolist()):
            renewals.settle(draws)
        if cut:
            for r, ctr, draws in zip(edges, counters, used.tolist()):
                # Each completed load is attempted in the slot it completes.
                ctr.add_run(draws, r.loads, r.loads, r.successes, 0)
            return deliveries


# Where a stream runs out: the next completion never comes.
_NEVER = np.array([math.inf])


def _every_nth_success(rng: np.random.Generator, p: float, n: int, limit: int):
    """Yield, a block of draws at a time, where the n-th, 2n-th, ... success falls.

    A draw ``u`` succeeds when ``u < p``; draws are counted from 1 and at most
    ``limit`` are taken, so each array holds the draws that complete a run of
    n successes within one block.
    """
    drawn = found = 0
    while drawn < limit:
        size = min(_DRAW_BLOCK, limit - drawn)
        hits = np.flatnonzero(rng.random(size) < p) + (drawn + 1)
        ends = hits[(-found - 1) % n :: n]
        drawn += size
        found += hits.size
        if ends.size:
            yield ends


class _AuxPath:
    """One auxiliary path of one edge: its ticks, draws and catalyst completions.

    Tick k (counted from 1) is applied in the first slot s with
    ``k T <= (s t0)(1 + eps)``, the slot stepper's own float test.  The path
    draws one value per tick while the stock is below capacity, so its j-th
    catalyst completes at the draw of the (j c)-th success of its stream.
    While it runs, tick = draw + ``offset``; while the stock is full it draws
    nothing and ``drawn`` holds the draws taken so far.
    """

    def __init__(self, path, rng, copies: int, t0: float, max_slots: int):
        self.period = path.gen_time_s
        self.t0 = t0
        self.completions = _every_nth_success(
            rng, path.gen_probability, copies, self.ticks_through(max_slots)
        )
        self.queue, self.taken = [], 0
        self.offset = 0
        self.drawn = 0
        self.advance()

    def ticks_through(self, slot: int) -> int:
        """The ticks applied by the end of ``slot``."""
        bound = slot * self.t0 * _TICK_SCALE
        k = int(bound // self.period)
        while k > 0 and k * self.period > bound:
            k -= 1
        while (k + 1) * self.period <= bound:
            k += 1
        return k

    def slot_of(self, tick) -> float:
        """The slot in which ``tick`` is applied."""
        if tick == math.inf:
            return math.inf
        at = tick * self.period
        slot = max(1, math.ceil(at / (self.t0 * _TICK_SCALE)))
        while slot > 1 and at <= (slot - 1) * self.t0 * _TICK_SCALE:
            slot -= 1
        while at > slot * self.t0 * _TICK_SCALE:
            slot += 1
        return slot

    def advance(self) -> None:
        """Move to the next completion: its draw and, while running, its slot."""
        if self.taken == len(self.queue):
            self.queue, self.taken = next(self.completions, _NEVER).tolist(), 0
        self.draw = self.queue[self.taken]
        self.taken += 1
        self.slot = self.slot_of(self.draw + self.offset)


class _Stock:
    """One edge's catalyst stock and the finite aux paths, if any, that refill it.

    Only a failed attempt lowers the stock, so between failures it never
    falls and the state is advanced (:meth:`sync`) only when an attempt might
    find the stock empty, at a failure, and at the end of a trial.  Within a
    slot the paths tick in index order, so a completion that fills the stock
    stops the later paths' ticks in that slot.  Without paths nothing refills
    the stock but the edge's own loads.
    """

    def __init__(self, cfg: SimConfig, trial: int, edge: int, copies_needed):
        t0 = cfg.edge.cycle_time_s
        self.paths = [
            _AuxPath(path, _rng(cfg.seed, trial, edge, 2 + i), copies, t0, cfg.max_slots)
            for i, (path, copies) in enumerate(zip(cfg.aux.paths, copies_needed))
        ]
        self.capacity = math.inf if cfg.stock_capacity is None else cfg.stock_capacity
        self.stock = cfg.initial_stock
        self.full = self.stock >= self.capacity
        self.produced = 0

    def sync(self, slot: int) -> None:
        """Apply every tick through ``slot``."""
        while self.paths and not self.full:
            path = min(self.paths, key=attrgetter("slot"))
            if path.slot > slot:
                return
            self.stock += 1
            self.produced += 1
            if self.stock >= self.capacity:
                self._pause(path)
            path.advance()

    def next_completion(self) -> float:
        """The slot of the next completion, once synced to an empty stock."""
        return math.inf if self.full else min(path.slot for path in self.paths)

    def fail(self, slot: int) -> None:
        """A failed attempt in ``slot`` spends one catalyst."""
        self.sync(slot)
        self.stock -= 1
        if self.full:
            # The paths draw again from the first tick after this slot.
            self.full = False
            for path in self.paths:
                path.offset = path.ticks_through(slot) - path.drawn
                path.slot = path.slot_of(path.draw + path.offset)

    def _pause(self, filler: _AuxPath) -> None:
        """Stop drawing: ``filler``'s completion has filled the stock."""
        slot = filler.slot
        self.full = True
        before = True
        for path in self.paths:
            if path is filler:
                path.drawn = path.draw
                before = False
            else:
                path.drawn = path.ticks_through(slot if before else slot - 1) - path.offset


def _stock_edge(cfg: SimConfig, trial: int, edge: int, p_cat, copies, ctr):
    """One edge that holds a catalyst stock, as a coroutine from delivery to delivery.

    Sent the slot of the last delivery (0 at the start), it yields the slot
    in which the edge is next ready, or ``max_slots + 1`` when it cannot be
    ready within the run.  A load takes n successes of the load stream, one
    draw per loading slot; without aux paths, a load that starts from an
    empty stock takes n + n_cat and turns n_cat of its pairs into a catalyst.
    The attempt follows in the same slot if the stock holds a catalyst, and
    otherwise in the slot of the next aux completion; a failure spends the
    catalyst and the pairs, and loading restarts in the next slot.  Closing
    the coroutine counts the edge's events through ``max_slots`` into ``ctr``.
    """
    limit = cfg.max_slots
    n = cfg.edge.copies
    supply = _Stock(cfg, trial, edge, copies)
    # Without aux paths a load from an empty stock takes n_cat more successes,
    # so the load stream is read one success at a time; with them, n at a time.
    rebuild = 0 if cfg.aux.paths else copies[0]
    unit = 1 if rebuild else n
    step = n // unit  # load-stream entries per load
    load_ends = _every_nth_success(
        _rng(cfg.seed, trial, edge, 0), cfg.edge.herald_probability, unit, limit
    )
    attempt_rng = _rng(cfg.seed, trial, edge, 1)
    # The entry of ``ends`` that ended the last load; a load from an empty
    # stock skips ``rebuild`` more, added when the stock empties.
    ends, taken = [], -1
    if supply.stock < 1:
        taken += rebuild
    outcomes, tried = [], 0
    loaded = 0  # load draws through the last completed load
    unfinished = 0  # load draws of a load cut off by the end of the run
    loads = attempts = successes = 0
    slot = 0  # loading restarts in the slot after this one
    try:
        while True:
            taken += step
            while taken >= len(ends):
                taken -= len(ends)
                ends = next(load_ends, _NEVER).tolist()
            end = ends[taken]
            ready = slot + end - loaded
            if ready > limit:
                unfinished = limit - slot
                break
            loaded = end
            loads += 1
            if supply.stock < 1:
                if rebuild:
                    # The load's n_cat extra pairs become a catalyst.
                    supply.stock += 1
                    supply.produced += 1
                else:
                    supply.sync(ready)
                    if supply.stock < 1:
                        ready = supply.next_completion()
                        if ready > limit:
                            break
                        supply.sync(ready)
            if tried == len(outcomes):
                outcomes, tried = (attempt_rng.random(_DRAW_BLOCK) < p_cat).tolist(), 0
            attempts += 1
            tried += 1
            if outcomes[tried - 1]:
                successes += 1
                slot = yield ready
            else:
                supply.fail(ready)
                slot = ready
                if supply.stock < 1:
                    taken += rebuild
        yield limit + 1
    finally:
        supply.sync(limit)
        ctr.add_run(loaded + unfinished, loads, attempts, successes, supply.produced)


def _stock_trial(cfg: SimConfig, trial: int, p_cat, copies, counters, intervals):
    """One replication of a chain whose edges hold a stock; returns the delivery count.

    Finite aux paths tick on the wall clock, so a ready edge keeps gaining
    stock until the delivery and the edges do not renew; but each edge's
    ready slot after a delivery depends only on its own streams, its stock
    and that slot.
    Each delivery is the latest of these, and the run ends when some edge
    cannot be ready by ``max_slots``.
    """
    limit = cfg.max_slots
    edges = [_stock_edge(cfg, trial, e, p_cat, copies, ctr) for e, ctr in enumerate(counters)]
    gaps = []
    last = 0
    try:
        ready = [next(edge) for edge in edges]
        while (slot := max(ready)) <= limit:
            gaps.append(slot - last)
            last = slot
            ready = [edge.send(slot) for edge in edges]
    finally:
        for edge in edges:
            edge.close()
    record = np.array(gaps, np.float64)
    record *= cfg.edge.cycle_time_s  # in place, so the gaps are held twice at most
    intervals.append(record)
    return len(gaps)


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

    With plentiful aux paths an edge holds no stock and draws nothing while
    it waits ready, so the slots each edge needs per delivery depend on its
    own seed streams alone: the chain is a renewal process, computed per
    edge from block draws with no per-slot loop.  Without aux paths or with
    finite ones an edge holds a stock, and finite paths tick on the wall
    clock and keep adding stock to ready edges until the delivery; but after
    a delivery each edge's next ready slot still depends only on its own
    streams and that slot.  Each such edge jumps from load completion to
    attempt to aux completion, and advances its aux paths only when an
    attempt might find the stock empty, at a failure and at the end of the
    run.  Both engines give the results of stepping every slot, draw for
    draw.
    """
    if cfg.mode != DETAILED_MODE:
        raise InvalidInputError("config mode must be detailed")
    p_cat, copies = _catalyst_supply(cfg)
    counters = [EdgeCounters() for _ in range(cfg.n_edges)]
    intervals: list[np.ndarray] = []
    deliveries = 0
    for trial in range(cfg.trials):
        if cfg.aux.mode == AUX_RICH:
            deliveries += _renewal_trial(cfg, trial, p_cat, counters, intervals)
        else:
            deliveries += _stock_trial(cfg, trial, p_cat, copies, counters, intervals)

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
    if not isinstance(trials, Integral) or trials < 2:
        raise InvalidInputError(f"trials must be an integer of at least 2, got {trials}")
    if not isinstance(seed, Integral) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")
    analytic = waiting_factor(n_edges, p)
    sampler = _MaxOfGeometrics(p, n_edges, trials, seed)
    uniforms = np.empty(min(_BATCH_TRIALS, trials))
    for size, rng in sampler:
        sampler.add(sampler.largest_exponentials(rng.random(out=uniforms[:size])))
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
    """JSON-serializable record of a run: config echo, seed, then every statistic."""
    config = asdict(cfg)
    return {"config": config, "seed": config.pop("seed"), **asdict(result)}
