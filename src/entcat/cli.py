"""Command-line front end.

Subcommands: ``monotones``, ``prob``, ``catalyst``, ``sweep``, ``simulate``
and ``validate-z``.  Exit codes: 0 on success, 1 for invalid input or domain
errors or a reader that closed stdout early, 2 for numeric failures.
``--out -`` writes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from . import catalysis, network, simulate, spectra
from .errors import InvalidInputError, NumericFailureError, ResourceLimitError


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_spectrum(text: str) -> spectra.SchmidtVector:
    try:
        weights = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"could not parse spectrum {text!r}: {exc}") from exc
    return spectra.make_schmidt(weights)


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
        return
    try:
        handle = open(path, "w", newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}") from exc
    with handle:
        yield handle


# ---------------------------------------------------------------------------
# Config files: one `key = value` per line, `#` comments, auxiliary paths as
# numbered groups (aux.1.alpha, aux.1.P, aux.1.T_s).  Unknown and repeated
# keys reject.
# ---------------------------------------------------------------------------

def _stock_capacity(value: str):
    return value if value == "unlimited" else int(value)


# Where each config key goes: its cast, the object it sets (a SimConfig,
# its EdgeParams or its AuxConfig) and the field there.  A key the file does
# not set keeps that dataclass's default.
_RUN, _EDGE, _AUX = "run", "edge", "aux"
_CONFIG_KEYS = {
    "mode": (str, _RUN, "mode"),
    "n_edges": (int, _RUN, "n_edges"),
    "trials": (int, _RUN, "trials"),
    "seed": (int, _RUN, "seed"),
    "max_slots": (int, _RUN, "max_slots"),
    "initial_stock": (int, _RUN, "initial_stock"),
    "stock_capacity": (_stock_capacity, _RUN, "stock_capacity"),  # integer or "unlimited"
    "p_cat": (float, _RUN, "p_cat_override"),
    "t_cycle_s": (float, _RUN, "cycle_time_override_s"),
    "alpha": (float, _EDGE, "alpha"),
    "n": (int, _EDGE, "copies"),
    "L0_km": (float, _EDGE, "length_km"),
    "cf_km_s": (float, _EDGE, "fiber_speed_km_s"),
    "P0": (float, _EDGE, "herald_probability"),
    "catalyst_dim": (int, _EDGE, "catalyst_dim"),
    "aux_mode": (str, _AUX, "mode"),
}
# SimConfig has no defaults for these two.
_RUN_DEFAULTS = {"mode": simulate.ABSTRACT_MODE, "n_edges": 1}

_AUX_FIELD_KEYS = {"alpha": float, "P": float, "T_s": float}


def _cast(cast, value: str, key: str, lineno: int):
    try:
        return cast(value)
    except ValueError as exc:
        raise InvalidInputError(f"config line {lineno}: bad value for {key}: {exc}") from exc


def parse_config(text: str) -> dict:
    """Parse the plain key = value format into a typed dictionary.

    Holds only the keys the text sets, plus ``aux_paths`` for the aux groups.
    """
    values: dict = {}
    aux_groups: dict = {}
    set_on: dict = {}  # the line that set each key, a group field under its integer index
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("aux."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1].isdigit() or parts[2] not in _AUX_FIELD_KEYS:
                raise InvalidInputError(f"config line {lineno}: unknown key {key!r}")
            slot = int(parts[1]), parts[2]
            target, name = aux_groups.setdefault(slot[0], {}), parts[2]
            cast = _AUX_FIELD_KEYS[name]
        elif key in _CONFIG_KEYS:
            slot = name = key
            target, cast = values, _CONFIG_KEYS[key][0]
        else:
            raise InvalidInputError(f"config line {lineno}: unknown key {key!r}")
        if slot in set_on:
            raise InvalidInputError(
                f"config line {lineno}: {key} repeats the key set on line {set_on[slot]}"
            )
        set_on[slot] = lineno
        target[name] = _cast(cast, value, key, lineno)
    if aux_groups:
        paths = []
        for index in sorted(aux_groups):
            group = aux_groups[index]
            missing = set(_AUX_FIELD_KEYS) - set(group)
            if missing:
                raise InvalidInputError(f"aux path {index} is missing keys {sorted(missing)}")
            paths.append(network.AuxPath(group["alpha"], group["P"], group["T_s"]))
        values["aux_paths"] = paths
    return values


def _sim_config_from(values: dict, args) -> simulate.SimConfig:
    fields = {_RUN: dict(_RUN_DEFAULTS), _EDGE: {}, _AUX: {}}
    for key, value in values.items():
        if key == "aux_paths":
            fields[_AUX]["paths"] = value
        else:
            _, target, name = _CONFIG_KEYS[key]
            fields[target][name] = value
    for key in ("trials", "seed"):
        flag = getattr(args, key, None)
        if flag is not None:
            fields[_RUN][key] = flag

    run, edge, aux = fields[_RUN], fields[_EDGE], fields[_AUX]
    if run.get("stock_capacity") == "unlimited":
        run["stock_capacity"] = None
    if edge:
        if "alpha" not in edge:
            given = [key for key, (_, target, _) in _CONFIG_KEYS.items()
                     if target == _EDGE and key in values]
            raise InvalidInputError(f"edge keys {given} need alpha")
        run["edge"] = network.EdgeParams(**edge)
    if aux:
        run["aux"] = replace(simulate.SimConfig.aux, **aux)
    return simulate.SimConfig(**run)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_monotones(args) -> int:
    values = spectra.monotones(_parse_spectrum(args.spectrum))
    print(",".join(_fmt(v) for v in values))
    return 0


def _cmd_prob(args) -> int:
    initial = _parse_spectrum(args.initial)
    final = _parse_spectrum(args.final)
    if args.catalyst is not None:
        catalyst = _parse_spectrum(args.catalyst)
        initial = spectra.tensor_product(initial, catalyst)
        final = spectra.tensor_product(final, catalyst)
    print(_fmt(spectra.conversion_probability(initial, final)))
    return 0


def _cmd_catalyst(args) -> int:
    spec = catalysis.optimal_catalyst(catalysis.ConcentrationProblem(args.n, args.alpha), args.dim)
    coeffs = ",".join(_fmt(c) for c in spec.spectrum.coefficients)
    print(f"{coeffs}  p={_fmt(spec.success_probability)}")
    return 0


def _cmd_sweep(args) -> int:
    steps = catalysis._count(args.steps, "--steps")
    alpha_grid = np.linspace(args.alpha_min, args.alpha_max, steps)
    modes = [m.strip() for m in args.mode.split(",")]
    try:
        dims = [int(d) for d in args.dim.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"could not parse --dim {args.dim!r}: {exc}") from exc
    rows = network.sweep_rates(
        args.n,
        args.edges,
        [float(a) for a in alpha_grid],
        modes,
        dims,
        length_km=args.l0_km,
        fiber_speed_km_s=args.cf_km_s,
        herald_probability=args.p0,
    )
    with _open_out(args.out) as handle:
        network.write_sweep_csv(rows, handle)
    return 0


def _cmd_simulate(args) -> int:
    values: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read config {args.config}: {exc.strerror}") from exc
        values = parse_config(text)
    cfg = _sim_config_from(values, args)
    result = simulate.run_simulation(cfg)
    import json

    record = simulate.result_record(cfg, result)
    with _open_out(args.out) as handle:
        handle.write(json.dumps(record) + "\n")
    return 0


def _cmd_validate_z(args) -> int:
    check = simulate.validate_waiting_factor(args.edges, args.p, args.trials, args.seed)
    import json

    print(json.dumps(asdict(check)))
    return 0


# Built once per process: parsing leaves the parser as it was, so in-process
# callers (tests, notebooks, benchmark rounds) share one.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcat",
        description="Catalysis-assisted entanglement distribution: probabilities, "
        "catalysts, rates and chain simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monotones", help="print the entanglement monotones of a spectrum")
    p.add_argument("spectrum", help="comma-separated coefficients, e.g. 0.64,0.16,0.16,0.04")
    p.set_defaults(func=_cmd_monotones)

    p = sub.add_parser("prob", help="optimal conversion probability between two spectra")
    p.add_argument("--initial", required=True)
    p.add_argument("--final", required=True)
    p.add_argument("--catalyst", default=None, help="attach this spectrum to both sides")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("catalyst", help="optimal catalyst for a concentration problem")
    p.add_argument("--n", type=int, required=True, help="copies of the primary state")
    p.add_argument("--alpha", type=float, required=True, help="larger Schmidt coefficient")
    p.add_argument("--dim", type=int, default=2, help="catalyst dimension (default 2)")
    p.set_defaults(func=_cmd_catalyst)

    p = sub.add_parser("sweep", help="rate-ratio sweep over alpha, written as CSV")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--edges", type=int, default=32)
    p.add_argument("--alpha-min", type=float, default=0.55)
    p.add_argument("--alpha-max", type=float, default=1.0 - 1e-6)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--mode", default=network.AUX_RICH, help="aux_rich or none (comma list ok)")
    p.add_argument("--dim", default="2", help="catalyst dimension, comma list ok")
    p.add_argument("--l0-km", type=float, default=25.0)
    p.add_argument("--cf-km-s", type=float, default=2.0e5)
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="run a chain simulation from a config file")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--trials", type=int, default=None, help="override trials")
    p.add_argument("--seed", type=int, default=None, help="override seed")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate-z", help="Monte Carlo check of the waiting factor")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate_z)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for numeric
        # failures here, so fold parse problems into the invalid-input code.
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early.  What is left in its buffer goes to
        # the null device, so the interpreter's flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
