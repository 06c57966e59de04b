"""Command-line interface.

Subcommands: ``analyze`` (full bipartition report), ``check`` (maximal
entanglement verdict; exit 0 yes / 1 no / 4 not claimed), ``minimize``
(potential minimization, 2..10 qubits), ``states`` (catalog
listing/emission), ``parse`` (expression validation).

Exit codes: 0 success (or verdict yes), 1 verdict no, 2 parse/validation
error, including input above ``qstate.MAX_QUBITS`` qubits, a ``minimize``
of more than 10 and running out of memory, 3 I/O error, 4 verdict not
claimed (``check`` of a state of other than four qubits, where the K1 + K2
criterion applies; a Bell state for one), 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__
from .errors import EntpotError
from .ket_parser import eval_ket, format_ket, load_ket_file, parse_ket
from .mmes_search import MinimizeConfig, export_trace_csv, minimize_potential
from .potential import DEFAULT_TOL, analyze
from .qstate import (
    PureState,
    catalog_names,
    catalog_state,
    load_state_json,
    state_to_json_dict,
)

EXIT_OK = 0
EXIT_NOT_MMES = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NOT_CLAIMED = 4
EXIT_USAGE = 64

#: ``minimize`` reports its one descent method, so its output keeps the ``method`` key.
METHOD = "projected_gradient"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse in some Python versions drops a '--' that is an option's own value,
        # as in --expr=--, and returns an empty list; keep it as the value
        if arg_strings == ["--"] and action.option_strings and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--state", metavar="NAME/VARIANT", help="catalog state")
    sub.add_argument("--expr", metavar="EXPR", help="inline ket expression")
    sub.add_argument("--file", metavar="PATH", help="state file (.json or .ket)")
    sub.add_argument(
        "--renormalize", action="store_true",
        help="scale input amplitudes to unit norm instead of requiring it",
    )


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on first use; ``parse_args`` leaves it
    unchanged and returns a new namespace per call."""
    parser = _ArgumentParser(prog="entpot")
    parser.add_argument("--version", action="version", version=f"entpot {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="full bipartition report")
    _add_input_flags(p_analyze)
    _add_format_flag(p_analyze)
    p_analyze.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_check = subs.add_parser("check", help="maximal-entanglement verdict")
    _add_input_flags(p_check)
    _add_format_flag(p_check)
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_min = subs.add_parser("minimize", help="minimize the potential")
    _add_format_flag(p_min)
    p_min.add_argument("--n", type=int, default=4, help="qubit count")
    p_min.add_argument("--restarts", type=int, default=20)
    p_min.add_argument("--seed", type=int, default=0)
    p_min.add_argument("--trace-csv", metavar="PATH", help="write trace samples as CSV")

    p_states = subs.add_parser("states", help="list or emit catalog states")
    _add_format_flag(p_states)
    p_states.add_argument("--state", metavar="NAME/VARIANT", help="emit one state")

    p_parse = subs.add_parser("parse", help="validate an expression, echo amplitudes")
    _add_input_flags(p_parse)
    _add_format_flag(p_parse)

    return parser


class UsageError(Exception):
    pass


def _resolve_state(ns: argparse.Namespace) -> PureState:
    sources = [s for s in (ns.state, ns.expr, ns.file) if s is not None]
    if len(sources) != 1:
        raise UsageError("exactly one of --state, --expr, --file is required")
    policy = "renormalize" if ns.renormalize else "strict"
    if ns.state is not None:
        name, _, variant = ns.state.partition("/")
        return catalog_state(name, variant)
    if ns.expr is not None:
        return eval_ket(parse_ket(ns.expr), policy)
    path = Path(ns.file)
    if path.suffix == ".json":
        return load_state_json(path, policy)
    if path.suffix == ".ket":
        return load_ket_file(path, policy)
    raise EntpotError(f"unsupported state file extension {path.suffix!r} "
                      "(expected .json or .ket)")


def _cmd_analyze(ns) -> int:
    report = analyze(_resolve_state(ns), ns.tol)
    if ns.format == "json":
        print(json.dumps(report.to_json_dict()))
        return EXIT_OK
    print(f"n = {report.n_qubits}")
    for subset, value in report.purities.items():
        key = "".join(str(q) for q in subset)
        print(f"pi_{key} = {_fmt(value)}")
    print(f"pi_ME = {_fmt(report.pi_me)}")
    if report.k_total is not None:
        print(f"K1 = {_fmt(report.k1)}")
        print(f"K2 = {_fmt(report.k2)}")
        print(f"K = {_fmt(report.k_total)}")
        # K follows the convention K = 2*(3*pi_ME - 1); show the raw
        # potential gap as well so both readings are visible
        print(f"3*pi_ME - 1 = {_fmt(3.0 * report.pi_me - 1.0)}")
    print(f"verdict: {report.verdict} (tol = {report.tol:g})")
    if report.note:
        print(f"note: {report.note}")
    return EXIT_OK


#: ``check``'s exit code and text answer for each verdict of ``analyze``.
_CHECK_EXITS = {"mmes": EXIT_OK, "not_mmes": EXIT_NOT_MMES, "not_claimed": EXIT_NOT_CLAIMED}
_CHECK_ANSWERS = {"mmes": "yes", "not_mmes": "no", "not_claimed": "unclaimed"}


def _cmd_check(ns) -> int:
    report = analyze(_resolve_state(ns), ns.tol)
    if ns.format == "json":
        print(json.dumps(report.to_json_dict()))
        return _CHECK_EXITS[report.verdict]
    if report.k_total is not None:
        rel = "<=" if report.verdict == "mmes" else ">"
        detail = f"K = {report.k_total:.1e} {rel} {report.tol:g}"
    else:
        detail = report.note
    print(f"MMES: {_CHECK_ANSWERS[report.verdict]} ({detail})")
    return _CHECK_EXITS[report.verdict]


def _cmd_minimize(ns) -> int:
    config = MinimizeConfig(n_qubits=ns.n, restarts=ns.restarts, seed=ns.seed)
    result = minimize_potential(config)
    if ns.trace_csv:
        export_trace_csv(result, ns.trace_csv)
    expr = format_ket(result.best_state, precision=12)
    if ns.format == "json":
        print(json.dumps({
            "n": config.n_qubits,
            "best_value": result.best_value,
            "best_restart": result.best_restart,
            "converged": result.converged,
            "stop_reasons": result.stop_reasons,
            "evaluations": result.evaluations,
            "seed": result.seed,
            "method": METHOD,
            "best_state": state_to_json_dict(result.best_state),
            "expr": expr,
        }))
        return EXIT_OK
    print(f"best value = {_fmt(result.best_value)}")
    print(f"best state = {expr}")
    print(f"restarts = {config.restarts} (seed {result.seed}, method {METHOD})")
    print(f"converged = {sum(result.converged)}/{config.restarts}")
    return EXIT_OK


def _cmd_states(ns) -> int:
    if ns.state is not None:
        name, _, variant = ns.state.partition("/")
        state = catalog_state(name, variant)
        if ns.format == "json":
            print(json.dumps(state_to_json_dict(state)))
        else:
            print(format_ket(state, precision=12))
        return EXIT_OK
    if ns.format == "json":
        print(json.dumps(catalog_names()))
        return EXIT_OK
    for full_name in catalog_names():
        name, _, variant = full_name.partition("/")
        report = analyze(catalog_state(name, variant))
        print(f"{full_name:16s} K = {_fmt(report.k_total)}  "
              f"pi_ME = {_fmt(report.pi_me)}  {report.verdict}")
    return EXIT_OK


def _cmd_parse(ns) -> int:
    state = _resolve_state(ns)
    if ns.format == "json":
        print(json.dumps(state_to_json_dict(state)))
        return EXIT_OK
    print(f"n = {state.n_qubits}")
    for i, a in enumerate(state.amplitudes):
        if a != 0:
            sign = "+" if a.imag >= 0 else "-"
            print(f"a[{i}] |{i:0{state.n_qubits}b}> = "
                  f"{_fmt(a.real)}{sign}{_fmt(abs(a.imag))}i")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "minimize": _cmd_minimize,
    "states": _cmd_states,
    "parse": _cmd_parse,
}


def run(argv: list[str]) -> int:
    """Parse arguments and execute; returns the process exit code."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except UsageError as exc:
        print(f"entpot: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EntpotError as exc:
        print(f"entpot: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"entpot: out of memory{detail}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"entpot: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
