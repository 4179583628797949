"""Command-line front end: run / sweep / validate with CSV and JSON output."""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from functools import lru_cache
from pathlib import Path

from .ghz import (MAX_QUBITS_EXACT, GhzDiagonalEnsemble, GhzLabel, build_binary_ensemble,
                  build_bitflip_ensemble, build_werner, canonical_label, is_real)
from .optics import DiscriminationMode, ModeKind
from .purify import check_ideal_readout
from .schedule import ENGINES, Schedule, ScheduleTrace, engine_for, run_schedule, sweep
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VALIDATION = 4

TRACE_COLUMNS = ("round", "step", "fidelity", "keep_probability", "cumulative_yield")
SWEEP_COLUMNS = ("value", "initial_fidelity", "rounds", "final_fidelity",
                 "cumulative_yield", "converged")

_DEFAULT_CONFIG = {
    "n_qubits": 3,
    "initial": {"type": "werner", "x": 0.8},
    "schedule": ["P1", "P2"],
    "mode": "even-only",
    "epsilon": 0.0,
    "engine": "fast",
    "stop": {"threshold": 0.99},
}

_KNOWN_KEYS = set(_DEFAULT_CONFIG) | {"grid"}
_INITIAL_KEYS = {"werner": {"x"}, "binary": {"F", "error_rep", "error_sign"},
                 "bitflip": {"weights"}}

MAX_GRID_POINTS = 10_000
MAX_CONFIG_BYTES = 1 << 20   # a MAX_GRID_POINTS grid takes under 250 kB
MAX_VALIDATE_CASES = 10_000


class ConfigError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as a ConfigError: one line, exit code 2, and
    no usage block.  Subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _number(value) -> float:
    """A config value that JSON wrote as a number, as a float."""
    if not is_real(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def load_config(path: str | None, overrides: dict) -> dict:
    config = dict(_DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, "rb") as fh:
                # reading the cap at once would map and unmap a buffer per call
                data = fh.read(1 << 16)
                if len(data) == 1 << 16:
                    data += fh.read(MAX_CONFIG_BYTES + 1 - len(data))
            if len(data) > MAX_CONFIG_BYTES:
                raise ConfigError(f"config file exceeds {MAX_CONFIG_BYTES} bytes")
            loaded = json.loads(data.decode("utf-8"))
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}")
        except (ValueError, RecursionError) as err:   # not UTF-8, not JSON, too deep
            raise ConfigError(f"config is not valid JSON text: {err}")
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(loaded) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        config.update(loaded)
    config.update({k: v for k, v in overrides.items() if v is not None})
    return config


def build_initial(config: dict) -> GhzDiagonalEnsemble:
    n = config["n_qubits"]
    init = config["initial"]
    if not isinstance(init, dict) or "type" not in init:
        raise ConfigError("field 'initial' must be an object with a 'type'")
    kind = init["type"]
    if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
        raise ConfigError(f"initial.type must be werner|binary|bitflip, got {kind!r}")
    unknown = set(init) - {"type"} - _INITIAL_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown fields in 'initial': {sorted(unknown)}")
    try:
        if kind == "werner":
            return build_werner(_number(init["x"]), n)
        if kind == "binary":
            return build_binary_ensemble(_number(init["F"]), _error_label(init, n), n)
        return build_bitflip_ensemble([_number(w) for w in init["weights"]], n)
    except (LookupError, TypeError, ValueError) as err:
        raise ConfigError(f"field 'initial': {err}")


def _error_label(init: dict, n: int) -> GhzLabel:
    """A binary `initial`'s error label: by default a flip of qubit 1, sign +1."""
    rep = init.get("error_rep", "1" + "0" * (n - 1))
    sign = _number(init.get("error_sign", 1))
    if sign not in (1.0, -1.0):
        raise ValueError(f"error_sign must be +1 or -1, got {sign!r}")
    return canonical_label(rep, int(sign))


def build_schedule(config: dict) -> Schedule:
    if not isinstance(config["schedule"], list):
        raise ConfigError("field 'schedule' must be a list of steps, e.g. "
                          f"[\"P1\", \"P2\"], got {config['schedule']!r}")
    try:
        mode = DiscriminationMode(config["mode"], _number(config["epsilon"]))
        check_ideal_readout(mode)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"field 'mode'/'epsilon': {err}")
    stop = config["stop"]
    if not isinstance(stop, dict) or set(stop) not in ({"rounds"}, {"threshold"}):
        raise ConfigError("field 'stop' must be {\"rounds\": k} or {\"threshold\": f}")
    try:
        return Schedule(config["schedule"], mode,
                        stop_rounds=stop.get("rounds"),
                        stop_threshold=stop.get("threshold"))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"field 'stop'/'schedule': {err}")


def _check_bounds(config: dict):
    try:
        engine_for(config["engine"], config["n_qubits"])
    except ValueError as err:
        raise ConfigError(str(err))


def _outdir(args) -> Path:
    path = Path(args.outdir or os.environ.get("GHZPURIFY_OUTDIR") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory: {err}")
    return path


_OPEN_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _rewrite(path: Path, text: str):
    """Make `text` the whole content of the file at `path`, written in place.

    An existing file is overwritten from its start and then cut to the new
    length, so it keeps its inode and permissions: truncating it to zero
    before the write costs more than the write itself on some file systems.
    A crash mid-write can leave old and new bytes mixed.  Only a regular
    file is cut: a device such as /dev/null takes the bytes but rejects
    the cut.
    """
    data = text.encode()
    fd = os.open(path, _OPEN_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_csv(path: Path, columns: tuple, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    _rewrite(path, buf.getvalue())


def write_trace_csv(path: Path, trace: ScheduleTrace):
    _write_csv(path, TRACE_COLUMNS,
               ([rec.round_index, rec.step, _fmt(rec.fidelity),
                 _fmt(rec.keep_probability), _fmt(rec.cumulative_yield)]
                for rec in trace.rounds))


def write_summary_json(path: Path, config: dict, trace: ScheduleTrace):
    summary = {
        "config": config,
        "rounds": trace.n_rounds,
        "final_fidelity": trace.final_fidelity,
        "cumulative_yield": trace.cumulative_yield,
        "converged": trace.converged,
    }
    _rewrite(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _common_flags(parser):
    parser.add_argument("--config", help="JSON scenario file")
    parser.add_argument("--outdir", help="output directory "
                        "(default: $GHZPURIFY_OUTDIR or cwd)")
    parser.add_argument("--n", type=int, dest="n_qubits")
    parser.add_argument("--schedule", help="comma-separated steps, e.g. P1,P2")
    parser.add_argument("--mode", choices=[m.value for m in ModeKind],
                        help="parity branches kept; at odd N, even-plus-odd's "
                        "P2 also keeps opposite-sign pairs, so a schedule with "
                        "P2 can plateau at F = 0.5")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--engine", choices=list(ENGINES))
    stop = parser.add_mutually_exclusive_group()
    stop.add_argument("--threshold", type=float)
    stop.add_argument("--rounds", type=int)


def _overrides_from(args) -> dict:
    overrides = {k: getattr(args, k) for k in
                 ("n_qubits", "mode", "epsilon", "engine")}
    if args.schedule is not None:
        overrides["schedule"] = args.schedule.split(",")
    if args.threshold is not None:
        overrides["stop"] = {"threshold": args.threshold}
    elif args.rounds is not None:
        overrides["stop"] = {"rounds": args.rounds}
    return overrides


def _parse_grid(text: str) -> list[float]:
    # Either "start:stop:step" or a comma-separated list.
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if not step > 0.0:
            raise ConfigError(f"grid step must be positive, got {step}")
        values, v = [], start
        while v <= stop + 1e-12:
            if len(values) == MAX_GRID_POINTS:
                raise ConfigError(f"grid expands to more than {MAX_GRID_POINTS} points")
            values.append(round(v, 12))
            v += step
        return values
    return [float(p) for p in text.split(",")]


def cmd_run(args) -> int:
    overrides = _overrides_from(args)
    if args.x is not None:
        overrides["initial"] = {"type": "werner", "x": args.x}
    elif args.F is not None:
        overrides["initial"] = {"type": "binary", "F": args.F}
    config = load_config(args.config, overrides)
    _check_bounds(config)
    initial = build_initial(config)
    sched = build_schedule(config)
    trace = run_schedule(initial, sched, config["engine"])
    outdir = _outdir(args)
    try:
        write_trace_csv(outdir / "trace.csv", trace)
        write_summary_json(outdir / "summary.json", config, trace)
    except OSError as err:
        raise ConfigError(f"cannot write output: {err}")
    print(f"rounds={trace.n_rounds} final_fidelity={_fmt(trace.final_fidelity)} "
          f"cumulative_yield={_fmt(trace.cumulative_yield)} "
          f"converged={trace.converged}")
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def _sweep_grid(args, config: dict) -> tuple[str, list]:
    """The swept parameter and its values.  Flags win over the config's
    grid, and the parameter falls back to x."""
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("field 'grid' must be an object")
    unknown = set(grid) - {"param", "values"}
    if unknown:
        raise ConfigError(f"unknown fields in 'grid': {sorted(unknown)}")
    values = grid.get("values")
    if args.grid is not None:
        try:
            values = _parse_grid(args.grid)
        except ValueError:
            raise ConfigError(f"cannot parse grid {args.grid!r}")
    if not (isinstance(values, list) and values
            and all(map(is_real, values))):
        raise ConfigError("sweep needs a nonempty grid of numbers "
                          "({\"param\": \"x\"|\"F\", \"values\": [...]})")
    if len(values) > MAX_GRID_POINTS:
        raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")
    return args.param or grid.get("param", "x"), values


def cmd_sweep(args) -> int:
    config = load_config(args.config, _overrides_from(args))
    _check_bounds(config)
    param, values = _sweep_grid(args, config)
    init, n = config["initial"], config["n_qubits"]
    if init is not _DEFAULT_CONFIG["initial"]:   # given by the config file
        # it must pass run's checks and be the input the sweep builds from the grid
        build_initial(config)
        swept = {"werner": "x", "binary": "F"}.get(init["type"])
        if swept == "F" and _error_label(init, n) != _error_label({}, n):
            swept = None
        if param in ("x", "F") and swept != param:
            raise ConfigError("field 'initial' must be werner to sweep x, or binary "
                              "with the flip on qubit 1 and error_sign +1 to sweep F")
    sched = build_schedule(config)
    try:
        rows = sweep(param, values, n, sched, config["engine"])
    except ValueError as err:
        raise ConfigError(str(err))
    outdir = _outdir(args)
    try:
        _write_csv(outdir / "sweep.csv", SWEEP_COLUMNS,
                   ([_fmt(row.value), _fmt(row.initial_fidelity), row.rounds,
                     _fmt(row.final_fidelity), _fmt(row.cumulative_yield),
                     row.converged] for row in rows))
    except OSError as err:
        raise ConfigError(f"cannot write output: {err}")
    for row in rows:
        print(f"value={row.value:g} initial={row.initial_fidelity:.6f} "
              f"rounds={row.rounds} final={row.final_fidelity:.6f} "
              f"converged={row.converged}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if not 2 <= args.n_max <= MAX_QUBITS_EXACT:
        raise ConfigError(f"--n-max must lie in [2, {MAX_QUBITS_EXACT}]")
    if not 1 <= args.cases <= MAX_VALIDATE_CASES:
        raise ConfigError(f"--cases must lie in [1, {MAX_VALIDATE_CASES}]")
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    results = run_validation(args.n_max, args.seed, args.cases)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        extra = f" ({res.detail})" if res.detail else ""
        print(f"{status} {res.name} max_deviation={res.max_deviation:.3e}{extra}")
    return EXIT_OK if all(res.passed for res in results) else EXIT_VALIDATION


@lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The parser of all subcommands, built once per process and shared:
    do not mutate it.  parse_args keeps no state between calls, since every
    default is a function or an immutable value."""
    parser = _ArgumentParser(
        prog="ghzpurify",
        description="Simulate QND-based purification of N-qubit GHZ ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one purification schedule")
    _common_flags(p_run)
    initial = p_run.add_mutually_exclusive_group()
    initial.add_argument("--x", type=float, help="Werner parameter")
    initial.add_argument("--F", type=float, help="binary-ensemble fidelity")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a schedule over a parameter grid")
    _common_flags(p_sweep)
    p_sweep.add_argument("--param", choices=["x", "F"],
                         help="swept parameter (default: grid.param, then x)")
    p_sweep.add_argument("--grid", help="start:stop:step or comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the self-validation suite")
    p_val.add_argument("--n-max", type=int, default=4, dest="n_max")
    p_val.add_argument("--seed", type=int, default=7)
    p_val.add_argument("--cases", type=int, default=50)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
