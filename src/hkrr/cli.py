"""Command-line surface: every subcommand emits one deterministic report.

A report is {"command", "inputs", "results", "claims"}.  Each command's
arguments are declared once, in ``_COMMANDS``.  run reads a well-formed
request by the table parser ``_parse_canonical`` alone, into the namespace
argparse would return; every argv it declines (help, --version,
abbreviations, ``--opt=value``, negative values, usage errors) goes to the
argparse parser that ``build_parser`` makes from the same table, imported
and built on the first such argv of a process.  An input file is read as
bytes and decoded as UTF-8 (a BOM or another encoding is refused);
render_json writes the report in one pass, with the bytes of
``json.dumps(exactpoly.jsonable(report), indent=2)``, and --markdown
renders ``jsonable(report)`` as nested sections instead.  Exit codes: 0
success, 1 validation error, 64 usage error (also an n above ``CN_MAX_N``
for ``cn`` or ``check`` and one above ``QRR_MAX_N`` for ``qrr``, reported
in one line), 70 internal error (a defect in hkrr, such as a report value
that cannot be written, reported in one line).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from functools import cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from . import __version__
from .chernrr import ChernData, q_rr_from_chern
from .cnconst import cn_value
from .exactpoly import Poly, json_level, jsonable, rat_from_json
from .hkprofile import (
    denominator_check,
    even_values_check,
    known_family_prr,
    profile_from_prr,
    real_root_classifier,
)
from .isosolver import solve_case
from .qkbasis import ROOT_TOLERANCE, qk_laurent_check, qk_poly, qk_roots, decompose_qk, decompose_shifted

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE

# The largest n whose C(n) `cn` certifies and writes within about 60 s (fresh
# process, 2-core VM, Python 3.11); `cn` and `check`, which reads C(n), refuse
# a larger n as a usage error before any work.
CN_MAX_N = 2700
# The same for `qrr`: the largest n, the size of its largest possible part,
# whose polynomial it builds and writes within about 60 s.
QRR_MAX_N = 3100


class _UsageError(Exception):
    pass


def _attach_negative_values(args: list[str], options: tuple[str, ...]) -> list[str]:
    out: list[str] = []
    tokens = iter(args)
    for token in tokens:
        if token == "--":
            return out + [token, *tokens]
        if token[:1] == "-" and (token[1:2].isdigit() or token[1:2] == ".") and out and len(out[-1]) > 2:
            if any(option.startswith(out[-1]) for option in options):
                token = f"{out.pop()}={token}"
        out.append(token)
    return out


class _Arg(NamedTuple):
    """One argument of a command, with argparse's meaning for each field.

    ``name`` is an option spelled in full, or a positional's dest.  An
    option with a ``const`` takes no value and stores the const; any other
    argument takes one value, read by ``type`` (the token itself when None)
    and checked against ``choices``.
    """

    name: str
    type: Callable[[str], Any] | None = None
    choices: tuple[str, ...] | None = None
    const: Any = None
    default: Any = None
    dest: str | None = None
    required: bool = False
    metavar: str | None = None
    help: str | None = None


class _Group(NamedTuple):
    """Mutually exclusive options; one of them is needed when required."""

    required: bool
    args: tuple[_Arg, ...]


class _Command(NamedTuple):
    summary: str
    args: tuple[_Arg | _Group, ...]
    # Options whose value may be a negative rational in its own token (see build_parser).
    rational_options: tuple[str, ...] = ()


def _switch(name: str) -> _Arg:
    """An option that stores True when given and False otherwise (argparse's store_true)."""
    return _Arg(name, const=True, default=False)


_OUTPUT_FORMAT = _Group(
    False,
    (
        _Arg("--json", const="json", default="json", dest="fmt"),
        _Arg("--markdown", const="markdown", default="json", dest="fmt"),
    ),
)

# Every command's arguments, in the order its help lists them: the one
# declaration that both the table parser and build_parser read.
_COMMANDS = {
    "cn": _Command(
        "certified gcd constant C(n)",
        (
            _Arg("n", type=int),
            # Kept so that existing invocations still parse.
            _Arg("--stability", type=int, help="ignored: C(n) is certified from its witness tuple, with no search"),
            _OUTPUT_FORMAT,
        ),
    ),
    "qk": _Command(
        "basis polynomial q_k, roots, Laurent identity",
        (_Arg("k", type=int), _switch("--roots"), _switch("--laurent-check"), _OUTPUT_FORMAT),
    ),
    "qrr": _Command(
        "Riemann-Roch polynomial from Chern data",
        (_Arg("--chern", required=True, metavar="FILE"), _OUTPUT_FORMAT),
    ),
    "profile": _Command(
        "invariant bundle of a candidate polynomial",
        (
            _Group(True, (_Arg("--family", choices=("split", "product")), _Arg("--poly", metavar="FILE"))),
            _Arg("--n", type=int),
            _OUTPUT_FORMAT,
        ),
    ),
    "decompose": _Command(
        "decompose into the q_k or shifted-power basis",
        (
            _Arg("--poly", required=True, metavar="FILE"),
            _Arg("--basis", required=True, choices=("qk", "shifted")),
            _Arg("--shift", metavar="RAT"),
            _OUTPUT_FORMAT,
        ),
        rational_options=("--shift",),
    ),
    "isotropic": _Command(
        "dimension-6 isotropic case analysis",
        (_Arg("--n", type=int, required=True), _Arg("--a", type=int, required=True), _OUTPUT_FORMAT),
    ),
    "check": _Command(
        "denominator and even-value checks",
        (
            _Arg("--poly", required=True, metavar="FILE"),
            _Arg("--n", type=int, required=True),
            _switch("--even"),
            _OUTPUT_FORMAT,
        ),
    ),
}


def _members(item: _Arg | _Group) -> tuple[_Arg, ...]:
    return item.args if isinstance(item, _Group) else (item,)


@cache
def _layout(name: str) -> tuple[dict[str, _Arg], tuple[_Arg, ...]]:
    """A command's options by name, and its positionals in order."""
    args = [arg for item in _COMMANDS[name].args for arg in _members(item)]
    return {arg.name: arg for arg in args if arg.name[0] == "-"}, tuple(arg for arg in args if arg.name[0] != "-")


def _parse_canonical(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for argv, if argv is in the canonical spelling; None otherwise.

    Canonical: a command's name, then its positionals and options in any
    order; each option spelled in full and given at most once; each value
    a token of its own that does not start with "-"; as many positionals as
    the command declares; every value of its declared type and choices;
    every required option and group present, and at most one option of a
    group.  Abbreviations, ``--opt=value``, ``--``, -h, --version, negative
    values and repeated options are left to argparse, which reads them or
    reports the usage error.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options, positionals = _layout(argv[0])
    positionals = iter(positionals)
    given: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            arg = next(positionals, None)
        else:
            arg = options.get(token)
            if arg is not None and arg.const is None:
                token = next(tokens, "-")  # its value
                if token[:1] == "-":
                    return None
        if arg is None or arg.name in given:
            return None
        if arg.const is not None:
            given[arg.name] = arg.const
            continue
        try:
            value = token if arg.type is None else arg.type(token)
        except ValueError:
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        given[arg.name] = value
    namespace = {"command": argv[0]}
    for item in command.args:
        members = _members(item)
        count = sum(arg.name in given for arg in members)
        required = item.required or members[0].name[0] != "-"  # a positional is required
        if count > 1 or (required and count == 0):
            return None
        for arg in members:
            dest = arg.dest or arg.name.lstrip("-").replace("-", "_")
            if arg.name in given or dest not in namespace:
                namespace[dest] = given.get(arg.name, arg.default)
    return SimpleNamespace(**namespace)


def _add_argument(target: Any, arg: _Arg) -> None:
    kwargs = {key: value for key, value in arg._asdict().items() if value is not None and key != "name"}
    if not arg.required:  # argparse refuses required= on a positional
        del kwargs["required"]
    target.add_argument(arg.name, action="store" if arg.const is None else "store_const", **kwargs)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``: help, --version and every argv the table parser declines.

    Built on the first call and shared after, since building the seven
    subparsers costs more than most commands and parsing leaves the parser
    unchanged.  The top-level parser's ``commands`` maps each name to its
    command's parser.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser that raises on a usage error and reads negative rationals.

        argparse takes a token that starts with "-" for an option unless it
        looks like a negative int or decimal, so ``--shift -3/2`` would leave
        --shift without its value.  A token that starts with "-" and a digit or
        "." names no option here, so after one of ``rational_options`` or its
        abbreviations (``--s``, ``--sh``, ...) it is attached as ``--shift=-3/2``
        before parsing.
        """

        def __init__(self, *args: Any, rational_options: tuple[str, ...] = (), **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.rational_options = rational_options
            self.commands: dict[str, _Parser] = {}

        def parse_known_args(self, args: Sequence[str] | None = None, namespace: Any = None) -> Any:
            if self.rational_options and args is not None:
                args = _attach_negative_values(list(args), self.rational_options)
            return super().parse_known_args(args, namespace)

        def error(self, message: str) -> None:  # noqa: A003 - argparse hook
            raise _UsageError(message)

    parser = _Parser(
        prog="hkrr",
        description="Exact reports on Riemann-Roch polynomials of holomorphic-symplectic manifolds.",
        epilog=f"exit codes: {EXIT_OK} success, {EXIT_VALIDATION} validation error, "
        f"{EXIT_USAGE} usage error, {EXIT_INTERNAL} internal error",
    )
    parser.add_argument("--version", action="version", version=f"hkrr {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        target = parser.commands[name] = sub.add_parser(
            name, help=command.summary, rational_options=command.rational_options
        )
        for item in command.args:
            if isinstance(item, _Group):
                group = target.add_mutually_exclusive_group(required=item.required)
                for arg in item.args:
                    _add_argument(group, arg)
            else:
                _add_argument(target, item)
    return parser


def _load_json(path: str) -> Any:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:  # text mode's universal newlines, which JSON error positions count in
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, nesting past the depth limit, or a literal past the digit limit
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def _check_ceiling(n: int, top: int, what: str) -> None:
    if n > top:
        raise _UsageError(f"n={n} is above the ceiling {top} for {what}")


def _cmd_cn(args: SimpleNamespace) -> tuple[dict, Any, list[str]]:
    _check_ceiling(args.n, CN_MAX_N, "C(n)")
    return (
        {"n": args.n},
        cn_value(args.n),
        [f"certified gcd constant for n={args.n}"],
    )


def _cmd_qk(args: SimpleNamespace) -> tuple[dict, Any, list[str]]:
    results: dict[str, Any] = {"k": args.k, "poly": qk_poly(args.k)}
    claims = [f"basis polynomial of degree {args.k}"]
    if args.roots:
        results["roots"] = {"values": qk_roots(args.k), "tolerance": ROOT_TOLERANCE}
        claims.append("roots verified against -4 sin^2(j pi / (2(k+1))) " f"within {ROOT_TOLERANCE}")
    if args.laurent_check:
        results["laurent_identity"] = qk_laurent_check(args.k)
        claims.append("Laurent identity T^k q_k(T + 1/T - 2) = 1 + T^2 + ... + T^2k")
    return (
        {"k": args.k, "roots": args.roots, "laurent_check": args.laurent_check},
        results,
        claims,
    )


def _cmd_qrr(args: SimpleNamespace) -> tuple[dict, Any, list[str]]:
    data = ChernData.from_json(_load_json(args.chern))
    _check_ceiling(data.n, QRR_MAX_N, "qrr")
    q = q_rr_from_chern(data)
    return (
        {"chern": data},
        {"q_rr": q, "degree": q.degree},
        ["normalized Riemann-Roch polynomial from Chern numbers"],
    )


def _cmd_profile(args: SimpleNamespace) -> tuple[dict, Any, list[str]]:
    if args.family:
        if args.n is None:
            raise ValueError("--family requires --n")
        p = known_family_prr(args.family, args.n)
        n = args.n
        inputs: dict[str, Any] = {"family": args.family, "n": n}
    else:
        p = Poly.from_json(_load_json(args.poly))
        n = args.n if args.n is not None else p.degree
        inputs = {"poly": p, "n": n}
    profile = profile_from_prr(n, p)
    results = {f.name: getattr(profile, f.name) for f in fields(profile)}
    results["roots"] = real_root_classifier(profile)
    return inputs, results, ["invariant bundle extracted and validated"]


def _cmd_decompose(args: SimpleNamespace) -> tuple[dict, Any, list[str]]:
    p = Poly.from_json(_load_json(args.poly))
    if args.basis == "qk":
        if args.shift is not None:
            raise ValueError("--shift applies only to the shifted basis")
        coeffs = decompose_qk(p)
        inputs = {"poly": p, "basis": "qk"}
        claim = "decomposition into the monic positive basis q_(n-2i)"
    else:
        if args.shift is None:
            raise ValueError("the shifted basis requires --shift")
        shift = rat_from_json(args.shift, "--shift")
        coeffs = decompose_shifted(p, shift)
        inputs = {"poly": p, "basis": "shifted", "shift": shift}
        claim = "decomposition into shifted powers (T+s)^(n-2j)"
    return (
        inputs,
        {"coefficients": coeffs},
        [claim],
    )


def _cmd_isotropic(args: SimpleNamespace) -> tuple[dict, Any, list[str]]:
    case = solve_case(args.n, args.a)
    survivors = ", ".join(str(nx) for _, nx in case.survivors)
    return (
        {"n": args.n, "a": args.a},
        case,
        [f"dimension-6 isotropic case a={args.a}: surviving n_x in {{{survivors}}}"],
    )


def _cmd_check(args: SimpleNamespace) -> tuple[dict, Any, list[str]]:
    _check_ceiling(args.n, CN_MAX_N, "C(n)")
    p = Poly.from_json(_load_json(args.poly))
    den = denominator_check(args.n, p, even_form=args.even)
    even_vals = even_values_check(args.n, p)
    return (
        {"poly": p, "n": args.n, "even": args.even},
        {"denominator": den, "even_values": even_vals},
        ["coefficient denominator bounds and even-value integrality"],
    )


# Each handler returns its report's inputs, results and claims; run adds the command.
_HANDLERS = {
    "cn": _cmd_cn,
    "qk": _cmd_qk,
    "qrr": _cmd_qrr,
    "profile": _cmd_profile,
    "decompose": _cmd_decompose,
    "isotropic": _cmd_isotropic,
    "check": _cmd_check,
}


def render_json(value: Any) -> str:
    """``json.dumps(jsonable(value), indent=2)``, byte for byte, written in one pass with no tree built.

    Each value is taken through ``json_level`` as it is met.  json's encoder
    takes its pure-Python path whenever ``indent`` is set (before Python
    3.13); this writer keeps its C string escaper and its rules:
    ``int.__repr__`` and ``float.__repr__`` (``NaN``, ``Infinity``), a list
    or tuple as an array, dict keys coerced to str, ``[]`` and ``{}`` for
    empty containers, and the same ``TypeError`` for any other value.
    """
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The text of each scalar type; json writes a subclass of str, int or float as its base.
_JSON_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_scalar(value: Any) -> str | None:
    """The JSON text of a str, int, bool, float or None; None for any other value."""
    text = _JSON_TEXT.get(type(value))
    if text is not None:
        return text(value)
    for base in (str, int, float):
        if isinstance(value, base):
            return _JSON_TEXT[base](value)
    return None


def _json_key(key: Any) -> str:
    """A dict key coerced to str as json coerces it."""
    text = key if isinstance(key, str) else _json_scalar(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(text)


def _write_json(value: Any, out: list[str], newline: str) -> None:
    """Append value's text to out; newline is the line break and indent of value's own level.

    A scalar item is written in the loop, by its exact type, with no call of this function.
    """
    if type(value) not in (dict, list, tuple):  # json_level keeps these as they are
        value = json_level(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            text = _JSON_TEXT.get(type(item))
            if text is None:
                _write_json(item, out, inner)
            else:
                out.append(text(item))
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep)
            sep = "," + inner
            out.append((encode_basestring_ascii(key) if type(key) is str else _json_key(key)) + ": ")
            text = _JSON_TEXT.get(type(item))
            if text is None:
                _write_json(item, out, inner)
            else:
                out.append(text(item))
        out.append(newline + "}")
    else:
        text = _json_scalar(value)
        if text is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        out.append(text)


def render_markdown(report: dict) -> str:
    lines = [f"# hkrr {report['command']}", ""]
    _render_value(report, lines, 0)
    return "\n".join(lines) + "\n"


def _render_value(value: Any, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}- **{key}**:")
                _render_value(sub, lines, depth + 1)
            else:
                lines.append(f"{pad}- **{key}**: {sub}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _render_value(item, lines, depth + 1)
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> SimpleNamespace:
    """``parser.parse_args(argv)``, by the command's own parser when argv starts with a command name.

    run calls it only for an argv the table parser declines.  A usage
    error is left to the top-level parser: it first reads every token
    against its own options (``--=x`` is ambiguous there).
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        try:
            args = command.parse_args(argv[1:], SimpleNamespace())
        except _UsageError:
            return parser.parse_args(argv, SimpleNamespace())
        args.command = argv[0]
        return args
    return parser.parse_args(argv, SimpleNamespace())


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # Two routes to one namespace: the table parser reads a well-formed
    # request with no argparse; any argv it declines builds the shared
    # argparse parser (once per process) and goes to _parse.
    args = _parse_canonical(argv)
    if args is None:
        parser = build_parser()
        try:
            args = _parse(parser, argv)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(parser.format_usage(), file=sys.stderr, end="")
            return EXIT_USAGE
        except SystemExit as exc:  # --version and -h print, then call parser.exit()
            return exc.code or EXIT_OK
        if args.command is None:
            print(parser.format_usage(), file=sys.stderr, end="")
            return EXIT_USAGE
    try:
        inputs, results, claims = _HANDLERS[args.command](args)
        report = {"command": args.command, "inputs": inputs, "results": results, "claims": claims}
        text = render_markdown(jsonable(report)) if args.fmt == "markdown" else render_json(report) + "\n"
    except _UsageError as exc:  # a size above a command's ceiling
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a defect, such as a failed internal assertion
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(text, end="")
    return EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
