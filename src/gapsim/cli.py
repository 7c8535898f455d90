"""Command-line front end emitting canonical JSON reports.

All numbers in reports are exact: integers as decimal strings and
rationals as numerator/denominator pairs.  Floating point appears only in
the float_check section, printed to 12 significant digits.  Identical
inputs and flags produce byte-identical reports.

Exit codes: 0 all checks pass, 1 a verification failed or a check or cap
refused the input, 2 usage or parse errors.

Each command imports the modules it runs when it runs, so a cold
`simulate` loads the model and evolve layers and nothing else.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import GapsimError, ParseError
from .model import DEFAULT_MAX_CONFIGS, build_system, load_file

USAGE_EXIT = 2
FAIL_EXIT = 1


def _decimal(value: int) -> str:
    """Every digit of value; str() stops at sys.get_int_max_str_digits()."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def _emit(value, out: list, newline: str = "\n") -> None:
    """Append the canonical JSON text of value to out, at the indent that newline ends with.

    Exact ints become decimal strings, rationals {"den", "num"} pairs and
    floats strings at 12 digits.  Dict keys are str()ed, the last of two
    equal ones winning, and sorted.  Items nest two spaces deeper.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(f'"{_decimal(value)}"')
    elif isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(items):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _emit(items[key], out, inner)
            sep = "," + inner
        out.append(newline + "}" if items else "{}")
    elif isinstance(value, list):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, out, inner)
            sep = "," + inner
        out.append(newline + "]" if value else "[]")
    elif isinstance(value, Fraction):
        _emit({"den": value.denominator, "num": value.numerator}, out, newline)
    elif isinstance(value, float):
        out.append(f'"{value:.12g}"')
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def _write_report(args, command: str, inputs: dict, results, pass_fail: dict) -> None:
    """Write the report; inputs maps each input file's path to the bytes its loader read."""
    report = {
        "command": command,
        "inputs": {path: hashlib.sha256(data).hexdigest() for path, data in inputs.items()},
        "pass_fail": {k: bool(v) for k, v in pass_fail.items()},
        "results": results,
    }
    out: list = []
    _emit(report, out)
    text = "".join(out) + "\n"
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParseError(f"{args.json_out}: cannot write ({exc.strerror})") from exc
    sys.stdout.write(text)


def cmd_simulate(args) -> int:
    from .evolve import accept_probability, float_check, path_cap, path_sum

    if args.max_configs < 1:
        raise ParseError(f"--max-configs must be positive, got {args.max_configs}")
    path_cap()  # a bad GAPSIM_MAX_PATHS is refused before the file is read

    def simulated(doc):  # runs inside load_file, so a refusal of a run names the file too
        system = build_system(doc, args.max_configs)
        prob = accept_probability(system)
        beta = path_sum(system, system.t_bound)
        return prob, beta.entries[system.accept] ** 2, float_check(system)

    (prob, path_square, approx), data = load_file(args.machine, simulated)
    exact = prob.as_fraction()
    cross_ok = path_square == prob.numerator
    float_ok = abs(approx - float(exact)) <= 1e-9
    results = {
        "float_check": approx,
        "log5_denominator": prob.log5_denominator,
        "numerator": prob.numerator,
        "path_square": path_square,
        "probability": exact,
    }
    _write_report(
        args,
        "simulate",
        {args.machine: data},
        results,
        {"float_agrees": float_ok, "path_sum_agrees": cross_ok},
    )
    return 0 if cross_ok and float_ok else FAIL_EXIT


def cmd_gap_eval(args) -> int:
    from . import strings
    from .gapp import gap_of, read_gap_machine

    if not strings.is_binary(args.input):
        raise ParseError(f"--input must be a binary string, got {args.input!r}")
    machine, data = load_file(args.machine, read_gap_machine, args.machine)
    value = gap_of(machine, args.input)
    _write_report(args, "gap-eval", {args.machine: data}, {"gap": value, "input": args.input}, {})
    return 0


def cmd_lowness(args) -> int:
    from .lowness import read_instance_bundle, validate_instance, verify_sign_preservation

    (instance, inputs), data = load_file(args.bundle, read_instance_bundle)
    valid, why = validate_instance(instance, inputs)
    report = verify_sign_preservation(instance, inputs)
    results = {
        "instance_valid": valid,
        "reason": why,
        "rows": [
            {
                "error_budget": row.error_budget,
                "error_mass": row.error_mass,
                "inlined_gap": row.inlined_gap,
                "sign_ok": row.sign_ok,
                "true_gap": row.true_gap,
                "x": row.x,
            }
            for row in report.rows
        ],
    }
    ok = valid and report.ok
    _write_report(args, "lowness", {args.bundle: data}, results, {"signs": ok})
    return 0 if ok else FAIL_EXIT


def cmd_verify(args) -> int:
    from . import suites

    if args.suite not in suites.SUITES:
        raise ParseError(f"unknown suite {args.suite!r}; choose from {', '.join(suites.SUITES)}")
    if args.corpus is not None and args.suite not in suites.READS_CORPUS:
        raise ParseError(
            f"suite {args.suite!r} reads no corpus; --corpus is for "
            f"{', '.join(sorted(suites.READS_CORPUS))}"
        )
    ok, results = suites.RUNNERS[args.suite](args.corpus)
    _write_report(args, f"verify {args.suite}", {}, results, {args.suite: ok})
    return 0 if ok else FAIL_EXIT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    parse_args keeps no state in the parser: each call returns a fresh
    namespace, and the defaults are immutable.
    """
    parser = argparse.ArgumentParser(
        prog="gapsim",
        description="Exact gap-valued simulation of finite unitary systems "
        "and their promise-class checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json-out", metavar="PATH", help="also write the report here")

    p = sub.add_parser("simulate", help="exact acceptance probability of a machine file")
    p.add_argument("machine")
    p.add_argument(
        "--max-configs",
        type=int,
        default=DEFAULT_MAX_CONFIGS,
        metavar="N",
        help="configuration-count limit for the machine file",
    )
    common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("gap-eval", help="gap of a corpus machine on one input")
    p.add_argument("machine")
    p.add_argument("--input", default="", help="binary input string (default empty)")
    common(p)
    p.set_defaults(handler=cmd_gap_eval)

    p = sub.add_parser("lowness", help="query-inlining sign preservation of a bundle")
    p.add_argument("--bundle", metavar="PATH", required=True, help="instance bundle file")
    common(p)
    p.set_defaults(handler=cmd_lowness)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="corpus directory read by the unitarity, gaplem and closure suites",
    )
    common(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except GapsimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAIL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
