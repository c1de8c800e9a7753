"""Spans around entcat's public functions, installed from outside the package.

Modules import each other's functions by name (``network`` holds its own
reference to ``search_catalyst``, ``simulate`` to ``waiting_factor``), so a
wrapper replaces the function in every entcat module namespace that holds it.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# <module>.<function> for each layer boundary the benchmark times.
TARGETS = (
    "cli.main",
    "network.sweep_rates",
    "network.rate_catalytic",
    "network.waiting_factor",
    "network.t_edge_cycle",
    "network.edge_catalyst",
    "network.write_sweep_csv",
    "catalysis.search_catalyst",
    "catalysis.optimal_two_qubit_catalyst",
    "catalysis.catalysis_probability",
    "spectra.conversion_probability",
    "spectra.tensor_product",
    "simulate.simulate_detailed",
    "simulate.validate_waiting_factor",
)
SIM_COUNTS = ("edge_slots", "deliveries", "catalysis_attempts", "catalysts_produced")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
    units["network.waiting_factor.distinct_ratio"] = "ratio"
    units.update({f"simulate.{name}": "count" for name in SIM_COUNTS})
    return units


class Tracer:
    """Records one span per traced call; ``round`` tags spans with the workload round.

    ``clock`` gives the span times; the benchmark passes one that stops while
    its speed probe runs.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.round = 0
        # [name, round, start, end, parent index, time covered by children]
        self.spans: list = []
        self._open: list = []
        self.waiting_args: list = []  # (round, n_edges, p) per waiting_factor call
        self.sim_work: list = []  # (round, counts dict) per simulate_detailed call

    def install(self) -> list:
        """Wrap every target in every loaded entcat module; returns what :meth:`uninstall` needs."""
        modules = [m for name, m in sys.modules.items() if name == "entcat" or name.startswith("entcat.")]
        replaced = []
        for target in TARGETS:
            module, func = target.split(".")
            original = getattr(sys.modules[f"entcat.{module}"], func)
            wrapped = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        replaced.append((mod, attr, original))
        return replaced

    @staticmethod
    def uninstall(replaced: list) -> None:
        for mod, attr, original in replaced:
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, self.round, self.clock(), None, parent, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                self._open.pop()
                if parent is not None:
                    self.spans[parent][5] += span[3] - span[2]
            if name == "network.waiting_factor":
                bound = signature.bind(*args, **kwargs).arguments
                self.waiting_args.append((self.round, bound["n_edges"], bound["p"]))
            elif name == "simulate.simulate_detailed":
                cfg = signature.bind(*args, **kwargs).arguments["cfg"]
                self.sim_work.append((self.round, {
                    "edge_slots": cfg.n_edges * cfg.max_slots * result.trials_completed,
                    "deliveries": result.deliveries,
                    "catalysis_attempts": sum(c.catalysis_attempts for c in result.counters),
                    "catalysts_produced": sum(c.catalysts_produced for c in result.counters),
                }))
            return result

        return traced

    def metrics(self, round_slowdown: list) -> dict:
        """Per-round values: calls and work counts of one round, median self time over rounds.

        Each round's self times are divided by that round's machine slowdown.
        """
        units = metric_units()
        rounds = len(round_slowdown)
        self_s = {t: [0.0] * rounds for t in TARGETS}
        calls = dict.fromkeys(TARGETS, 0)
        for name, rnd, start, end, _parent, child in self.spans:
            self_s[name][rnd] += ((end - start) - child) / round_slowdown[rnd]
            calls[name] += 1
        values = {}
        for target in TARGETS:
            values[f"{target}.calls"] = calls[target] / rounds
            values[f"{target}.self_s"] = statistics.median(self_s[target])
        first = [(n, p) for rnd, n, p in self.waiting_args if rnd == 0]
        values["network.waiting_factor.distinct_ratio"] = len(set(first)) / len(first) if first else 0.0
        for name in SIM_COUNTS:
            values[f"simulate.{name}"] = sum(c[name] for rnd, c in self.sim_work if rnd == 0)
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def write(self, path) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"id": i, "name": s[0], "round": s[1], "start": s[2] - origin, "end": s[3] - origin, "parent": s[4]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)
