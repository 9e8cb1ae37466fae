"""Command line front end.

Subcommands:

    flow             integrate one trajectory, write CSV
    portrait         phase-portrait SVG from the deterministic seed grid
    classify         globality verdict for a symbol on the unit disc
    evolve           apply the composition semigroup to a truncated series
    check-e          evaluation-condition verdict for a coefficient space
    generator-check  difference-quotient vs G f' residual and slope
    counterexample   radius-2-disc flow that exits the unit disc
    transfer-check   conformal conjugation residual through a Moebius map

Inputs are plain text: symbols use the grammar of holoflow.grammar
("-z", "(1-z)*(1+z)", "1-z^2", "mobius(i,i,-1,1)", "exp(z)", "poly(0,1)"),
domains are "unitdisc" / "disc:cx,cy,r" / "halfplane:right" /
"halfplane:upper", spaces are "h2" / "bergman" / "dirichlet" /
"hpbeta:p=<p>,beta=<const|pow:s|geom:r>", and complex scalars are "re,im"
pairs. A config file of "key = value" lines may stand in for flags
(--config PATH); explicit flags win and unknown keys are rejected.

One-line JSON summaries go to standard output, full artifacts to files.
JSON reports embed schema_version "1" (schemas/report-v1.json). Exit
codes: 0 success, 1 parse error, 2 numeric failure, 3 escape result,
4 inconclusive verdict. Two runs with identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import counterexample as cx
from .classify import INCONCLUSIVE, bp_classify
from .errors import EscapeError, HoloflowError, ParseError
from .expr import Mobius
from .geometry import parse_domain
from .grammar import parse_symbol
from .jsonio import dump_line
from .portrait import render_portrait
from .semigroup import (
    apply as semigroup_apply,
    generator_residual,
    matrix_summary,
    matrix_to_csv,
    operator_matrix,
)
from .semiflow import integrate, trajectory_to_csv
from .series import SeriesFn, coeff_extraction_radius, taylor
from .spaces import parse_space
from .transfer import cayley, conjugation_residual, mobius_pair, transfer_symbol

SCHEMA_VERSION = "1"

_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    name: str
    convert: Callable
    default: object
    help: str


def _cpair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("complex values are 're,im' pairs, got %r" % (text,))
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParseError("bad complex value %r" % (text,)) from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError("bad number %r" % (text,)) from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError("bad integer %r" % (text,)) from None


def _str(text: str) -> str:
    return text


_COMMANDS: dict[str, list[_Opt]] = {
    "flow": [
        _Opt("symbol", _str, _REQUIRED, "generator expression"),
        _Opt("domain", _str, "unitdisc", "flow domain"),
        _Opt("z0", _cpair, _REQUIRED, "initial point re,im"),
        _Opt("horizon", _float, 10.0, "integration horizon"),
        _Opt("tol", _float, 1e-9, "solver tolerance"),
        _Opt("out", _str, "trajectory.csv", "trajectory CSV path"),
    ],
    "portrait": [
        _Opt("symbol", _str, _REQUIRED, "generator expression"),
        _Opt("domain", _str, "unitdisc", "flow domain"),
        _Opt("density", _int, 2, "seed grid density"),
        _Opt("horizon", _float, 10.0, "integration horizon"),
        _Opt("tol", _float, 1e-9, "solver tolerance"),
        _Opt("out", _str, "portrait.svg", "SVG path"),
    ],
    "classify": [
        _Opt("symbol", _str, _REQUIRED, "generator expression"),
        _Opt("density", _int, 2, "sampling density"),
        _Opt("tol-b", _float, 1e-8, "distinguished-point tolerance"),
        _Opt("escape-tmax", _float, 20.0, "escape hunt horizon"),
        _Opt("tol", _float, 1e-9, "solver tolerance"),
        _Opt("out", _str, "classify.json", "report path"),
    ],
    "evolve": [
        _Opt("symbol", _str, _REQUIRED, "generator expression"),
        _Opt("f", _str, _REQUIRED, "series seed expression"),
        _Opt("t", _float, 1.0, "semigroup time"),
        _Opt("N", _int, 64, "truncation degree"),
        _Opt("tol", _float, 1e-9, "solver tolerance"),
        _Opt("space", _str, None, "optional norm space"),
        _Opt("out", _str, "evolve.json", "report path"),
        _Opt("matrix-out", _str, None, "optional operator matrix CSV path"),
    ],
    "check-e": [
        _Opt("space", _str, _REQUIRED, "coefficient space"),
        _Opt("out", _str, "check_e.json", "report path"),
    ],
    "generator-check": [
        _Opt("symbol", _str, _REQUIRED, "generator expression"),
        _Opt("f", _str, _REQUIRED, "series seed expression"),
        _Opt("space", _str, "h2", "norm space"),
        _Opt("h", _float, 1e-3, "difference step"),
        _Opt("N", _int, 64, "truncation degree"),
        _Opt("tol", _float, 1e-9, "solver tolerance"),
        _Opt("out", _str, "generator_check.json", "report path"),
    ],
    "counterexample": [
        _Opt("b", _cpair, 1.5 + 0j, "attracting point, 1 < |b| < 2"),
        _Opt("F", _str, "1", "Herglotz factor on the radius-2 disc"),
        _Opt("z0", _cpair, 0j, "unit-disc seed"),
        _Opt("T", _float, 20.0, "long horizon"),
        _Opt("tol", _float, 1e-9, "solver tolerance"),
        _Opt("dw-tol", _float, 1e-3, "attraction distance target"),
        _Opt("out", _str, "counterexample.json", "report path"),
        _Opt("trajectory-out", _str, "counterexample_trajectory.csv",
             "trajectory CSV path"),
    ],
    "transfer-check": [
        _Opt("symbol", _str, _REQUIRED, "generator on the target domain"),
        _Opt("map", _str, "cayley", "cayley or mobius:a,b,c,d"),
        _Opt("z0", _cpair, _REQUIRED, "source-domain seed"),
        _Opt("t", _float, 1.0, "flow time"),
        _Opt("tol", _float, 1e-9, "solver tolerance"),
        _Opt("source", _str, "unitdisc", "source domain for mobius maps"),
        _Opt("target", _str, "halfplane:upper",
             "target domain for mobius maps"),
        _Opt("out", _str, "transfer_check.json", "report path"),
    ],
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="holoflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command")
    for command, opts in _COMMANDS.items():
        sub = subs.add_parser(command)
        sub.add_argument("--config", default=None,
                         help="key = value file standing in for flags")
        for opt in opts:
            sub.add_argument("--" + opt.name,
                             dest=opt.name.replace("-", "_"),
                             default=None, help=opt.help)
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ParseError("cannot read config %r: %s" % (path, exc)) from None
    entries: dict[str, str] = {}
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(
                "config line %d is not 'key = value'" % number)
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join "--flag value" into "--flag=value" so values may start with
    a dash (symbols like "-z" are common)."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok
                and tok not in ("--help",) and i + 1 < len(argv)):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _resolve(argv) -> tuple[str, dict]:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_flag_values(list(argv)))
    if args.command is None:
        raise ParseError("a subcommand is required (try --help)")
    opts = _COMMANDS[args.command]
    config = _load_config(args.config) if args.config else {}
    known = {opt.name for opt in opts}
    for key in config:
        if key not in known:
            raise ParseError("unknown config key %r" % (key,))
    values: dict[str, object] = {}
    for opt in opts:
        raw = getattr(args, opt.name.replace("-", "_"))
        if raw is None and opt.name in config:
            raw = config[opt.name]
        if raw is None:
            if opt.default is _REQUIRED:
                raise ParseError("missing required option --%s" % opt.name)
            values[opt.name] = opt.default
        else:
            values[opt.name] = opt.convert(raw)
    return args.command, values


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _report(command: str, inputs: dict, body: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "inputs": inputs}
    doc.update(body)
    return doc


def cmd_flow(v: dict) -> tuple[int, dict]:
    G = parse_symbol(v["symbol"])
    domain = parse_domain(v["domain"])
    traj = integrate(G, domain, v["z0"], v["horizon"], v["tol"])
    _write(v["out"], trajectory_to_csv(traj))
    summary = {
        "command": "flow",
        "status": traj.status.kind,
        "final": traj.final_point,
        "t_escape": traj.status.t_escape,
        "out": v["out"],
    }
    return (3 if traj.escaped else 0), summary


def cmd_portrait(v: dict) -> tuple[int, dict]:
    G = parse_symbol(v["symbol"])
    domain = parse_domain(v["domain"])
    svg, counts = render_portrait(G, domain, v["density"], v["horizon"],
                                  v["tol"])
    _write(v["out"], svg)
    summary = {"command": "portrait", "out": v["out"]}
    summary.update(counts)
    return 0, summary


def cmd_classify(v: dict) -> tuple[int, dict]:
    G = parse_symbol(v["symbol"])
    verdict = bp_classify(G, density=v["density"], tol_b=v["tol-b"],
                          escape_t_max=v["escape-tmax"],
                          escape_tol=v["tol"])
    witness = None
    if verdict.witness is not None:
        witness = {"z0": verdict.witness.z0,
                   "t_escape": verdict.witness.t_escape}
    report = _report("classify", dict(v), {
        "status": verdict.status,
        "b": verdict.b,
        "min_re_F": verdict.min_re_F,
        "witness": witness,
    })
    _write(v["out"], dump_line(report))
    return (4 if verdict.status == INCONCLUSIVE else 0), report


def _seed_series(text: str, degree: int) -> SeriesFn:
    return taylor(parse_symbol(text), degree, coeff_extraction_radius(degree))


def cmd_evolve(v: dict) -> tuple[int, dict]:
    G = parse_symbol(v["symbol"])
    seed = _seed_series(v["f"], v["N"])
    result = semigroup_apply(G, v["t"], seed, v["tol"])
    norm = None
    if v["space"] is not None:
        norm = parse_space(v["space"]).norm(result)
    matrix_doc = None
    if v["matrix-out"] is not None:
        matrix = operator_matrix(G, v["t"], v["N"], v["tol"])
        _write(v["matrix-out"], matrix_to_csv(matrix))
        matrix_doc = matrix_summary(matrix)
    report = _report("evolve", dict(v), {
        "coeffs": [complex(c) for c in result.coeffs],
        "norm": norm,
        "matrix": matrix_doc,
    })
    _write(v["out"], dump_line(report))
    return 0, report


def cmd_check_e(v: dict) -> tuple[int, dict]:
    space = parse_space(v["space"])
    verdict = space.condition_e()
    report = _report("check-e", dict(v), {
        "status": verdict.status,
        "evidence": verdict.evidence,
    })
    _write(v["out"], dump_line(report))
    return (4 if verdict.status == "Inconclusive" else 0), report


def cmd_generator_check(v: dict) -> tuple[int, dict]:
    G = parse_symbol(v["symbol"])
    space = parse_space(v["space"])
    seed = _seed_series(v["f"], v["N"])
    steps = [v["h"], v["h"] / 2.0, v["h"] / 4.0]
    residuals = [
        {"h": h, "residual": generator_residual(G, seed, space, h, v["tol"])}
        for h in steps
    ]
    pairs = [(r["h"], r["residual"]) for r in residuals if r["residual"] > 0]
    slope = slope_reason = None
    if len(pairs) >= 2:
        slope = float(np.polyfit(
            np.log([p[0] for p in pairs]),
            np.log([p[1] for p in pairs]), 1)[0])
    else:
        slope_reason = ("fewer than two nonzero residuals: "
                        "no measurable order in h")
    report = _report("generator-check", dict(v), {
        "residual": residuals[0]["residual"],
        "residuals": residuals,
        "slope": slope,
        "slope_reason": slope_reason,
    })
    _write(v["out"], dump_line(report))
    return 0, report


def cmd_counterexample(v: dict) -> tuple[int, dict]:
    F = parse_symbol(v["F"])
    result = cx.run_counterexample(v["b"], F, v["z0"], t_long=v["T"],
                                   tol=v["tol"], dw_tol=v["dw-tol"])
    _write(v["trajectory-out"], trajectory_to_csv(result.trajectory))
    report = _report("counterexample", dict(v), {
        "t_exit": result.t_exit,
        "dw_distance": result.dw_distance,
        "warning": result.warning,
        "trajectory_csv": v["trajectory-out"],
    })
    _write(v["out"], dump_line(report))
    return (0 if result.conclusive else 4), report


def _parse_map(v: dict):
    text = v["map"].strip()
    if text == "cayley":
        return cayley()
    if text.startswith("mobius:"):
        parts = text[len("mobius:"):].split(",")
        if len(parts) != 4:
            raise ParseError("mobius map needs 4 constants, got %r" % (text,))
        consts = []
        for part in parts:
            expr = parse_symbol(part)
            consts.append(expr.eval(0j))
        return mobius_pair(Mobius(*consts), parse_domain(v["source"]),
                           parse_domain(v["target"]))
    raise ParseError("unknown map %r" % (text,))


def cmd_transfer_check(v: dict) -> tuple[int, dict]:
    G = parse_symbol(v["symbol"])
    pair = _parse_map(v)
    residual = conjugation_residual(G, pair, v["z0"], v["t"], v["tol"])
    report = _report("transfer-check", dict(v), {
        "residual": residual,
        "transferred_symbol": str(transfer_symbol(G, pair)),
    })
    _write(v["out"], dump_line(report))
    return 0, report


_HANDLERS = {
    "flow": cmd_flow,
    "portrait": cmd_portrait,
    "classify": cmd_classify,
    "evolve": cmd_evolve,
    "check-e": cmd_check_e,
    "generator-check": cmd_generator_check,
    "counterexample": cmd_counterexample,
    "transfer-check": cmd_transfer_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        command, values = _resolve(argv)
    except ParseError as exc:
        sys.stdout.write(dump_line({"error": str(exc)}))
        return 1
    try:
        code, summary = _HANDLERS[command](values)
    except ParseError as exc:
        sys.stdout.write(dump_line({"command": command, "error": str(exc)}))
        return 1
    except EscapeError as exc:
        sys.stdout.write(dump_line({"command": command, "error": str(exc)}))
        return 3
    except HoloflowError as exc:
        sys.stdout.write(dump_line({"command": command, "error": str(exc)}))
        return 2
    sys.stdout.write(dump_line(summary))
    return code


def run():
    raise SystemExit(main())
