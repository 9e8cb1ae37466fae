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

Usage: holoflow SUBCOMMAND [--name value | --name=value]... Names are
written in full (no abbreviations); a value may start with a dash
("--symbol -z"). --help or -h prints this text and the subcommand's
options.

Inputs are plain text: symbols use the grammar of holoflow.grammar
("-z", "(1-z)*(1+z)", "1-z^2", "mobius(i,i,-1,1)", "exp(z)", "poly(0,1)"),
domains are "unitdisc" / "disc:cx,cy,r" / "halfplane:right" /
"halfplane:upper", spaces are "h2" / "bergman" / "dirichlet" /
"hpbeta:p=<p>,beta=<const|pow:s|geom:r>", and complex scalars are "re,im"
pairs. Every number in them must be finite. A config file of "key =
value" lines may stand in for flags (--config PATH; blank and "#" lines
are skipped); explicit flags win and unknown keys are rejected.

One-line JSON summaries go to standard output, full artifacts to files.
JSON reports embed schema_version "1" (schemas/report-v1.json). Exit
codes: 0 success, 1 parse error or an output path that cannot be
written, 2 numeric failure, 3 escape result, 4 inconclusive verdict. A
command that fails writes no artifact. Two runs with identical configs
produce byte-identical artifacts.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import counterexample as cx
from .classify import INCONCLUSIVE, bp_classify
from .errors import EscapeError, HoloflowError, ParseError
from .expr import Mobius
from .geometry import parse_domain
from .grammar import parse_real, parse_symbol
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
from .series import SeriesFn, series_compose, taylor
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
    return complex(*map(parse_real, parts))


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError("bad integer %r" % (text,)) from None


_COMMANDS: dict[str, list[_Opt]] = {
    "flow": [
        _Opt("symbol", str, _REQUIRED, "generator expression"),
        _Opt("domain", str, "unitdisc", "flow domain"),
        _Opt("z0", _cpair, _REQUIRED, "initial point re,im"),
        _Opt("horizon", parse_real, 10.0, "integration horizon"),
        _Opt("tol", parse_real, 1e-9, "solver tolerance"),
        _Opt("out", str, "trajectory.csv", "trajectory CSV path"),
    ],
    "portrait": [
        _Opt("symbol", str, _REQUIRED, "generator expression"),
        _Opt("domain", str, "unitdisc", "flow domain"),
        _Opt("density", _int, 2, "seed grid density"),
        _Opt("horizon", parse_real, 10.0, "integration horizon"),
        _Opt("tol", parse_real, 1e-9, "solver tolerance"),
        _Opt("out", str, "portrait.svg", "SVG path"),
    ],
    "classify": [
        _Opt("symbol", str, _REQUIRED, "generator expression"),
        _Opt("density", _int, 2, "sampling density"),
        _Opt("tol-b", parse_real, 1e-8, "distinguished-point tolerance"),
        _Opt("escape-tmax", parse_real, 20.0, "escape hunt horizon"),
        _Opt("tol", parse_real, 1e-9, "solver tolerance"),
        _Opt("out", str, "classify.json", "report path"),
    ],
    "evolve": [
        _Opt("symbol", str, _REQUIRED, "generator expression"),
        _Opt("f", str, _REQUIRED, "series seed expression"),
        _Opt("t", parse_real, 1.0, "semigroup time"),
        _Opt("N", _int, 64, "truncation degree"),
        _Opt("tol", parse_real, 1e-9, "solver tolerance"),
        _Opt("space", str, None, "optional norm space"),
        _Opt("out", str, "evolve.json", "report path"),
        _Opt("matrix-out", str, None, "optional operator matrix CSV path"),
    ],
    "check-e": [
        _Opt("space", str, _REQUIRED, "coefficient space"),
        _Opt("out", str, "check_e.json", "report path"),
    ],
    "generator-check": [
        _Opt("symbol", str, _REQUIRED, "generator expression"),
        _Opt("f", str, _REQUIRED, "series seed expression"),
        _Opt("space", str, "h2", "norm space"),
        _Opt("h", parse_real, 1e-3, "difference step"),
        _Opt("N", _int, 64, "truncation degree"),
        _Opt("tol", parse_real, 1e-9, "solver tolerance"),
        _Opt("out", str, "generator_check.json", "report path"),
    ],
    "counterexample": [
        _Opt("b", _cpair, 1.5 + 0j, "attracting point, 1 < |b| < 2"),
        _Opt("F", str, "1", "Herglotz factor on the radius-2 disc"),
        _Opt("z0", _cpair, 0j, "unit-disc seed"),
        _Opt("T", parse_real, 20.0, "long horizon"),
        _Opt("tol", parse_real, 1e-9, "solver tolerance"),
        _Opt("dw-tol", parse_real, 1e-3, "attraction distance target"),
        _Opt("out", str, "counterexample.json", "report path"),
        _Opt("trajectory-out", str, "counterexample_trajectory.csv",
             "trajectory CSV path"),
    ],
    "transfer-check": [
        _Opt("symbol", str, _REQUIRED, "generator on the target domain"),
        _Opt("map", str, "cayley", "cayley or mobius:a,b,c,d"),
        _Opt("z0", _cpair, _REQUIRED, "source-domain seed"),
        _Opt("t", parse_real, 1.0, "flow time"),
        _Opt("tol", parse_real, 1e-9, "solver tolerance"),
        _Opt("source", str, "unitdisc", "source domain for mobius maps"),
        _Opt("target", str, "halfplane:upper",
             "target domain for mobius maps"),
        _Opt("out", str, "transfer_check.json", "report path"),
    ],
}


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
            raise ParseError("config line %d is not 'key = value'" % number)
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _help(opts):
    sys.stdout.write(__doc__ + "".join(
        "  --%s  %s\n" % (opt.name, opt.help) for opt in opts))
    raise SystemExit(0)


def _resolve(argv) -> tuple[str, dict]:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        raise ParseError("a subcommand is required (try --help)")
    command, flags = args.pop(0), {}
    if command in ("-h", "--help"):
        _help(())
    if command not in _COMMANDS:
        raise ParseError("unknown subcommand %r" % (command,))
    opts = _COMMANDS[command]
    known = {opt.name for opt in opts}
    while args:
        token = args.pop(0)
        if token in ("-h", "--help"):
            _help(opts)
        name, eq, raw = token[2:].partition("=")
        if token[:2] != "--" or (name not in known and name != "config"):
            raise ParseError("unknown argument %r" % (token,))
        if not (eq or args):
            raise ParseError("option --%s needs a value" % name)
        flags[name] = raw if eq else args.pop(0)
    config = _load_config(flags.pop("config")) if "config" in flags else {}
    for key in config:
        if key not in known:
            raise ParseError("unknown config key %r" % (key,))
    values: dict[str, object] = {}
    for opt in opts:
        raw = flags.get(opt.name, config.get(opt.name))
        if raw is None and opt.default is _REQUIRED:
            raise ParseError("missing required option --%s" % opt.name)
        values[opt.name] = opt.default if raw is None else opt.convert(raw)
    return command, values


def _write_all(files: dict[str, str]):
    """Write every file, or, when one cannot be written, none: the files
    written before it are removed and the OSError propagates."""
    written = []
    try:
        for path, text in files.items():
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            written.append(path)
    except OSError:
        for path in written:
            os.remove(path)
        raise


def _report(command: str, v: dict, body: dict) -> dict:
    """The JSON report of a command; main prints it and writes it to
    v["out"]."""
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "inputs": dict(v)}
    doc.update(body)
    return doc


def cmd_flow(v: dict) -> tuple[int, dict, dict]:
    G = parse_symbol(v["symbol"])
    domain = parse_domain(v["domain"])
    traj = integrate(G, domain, v["z0"], v["horizon"], v["tol"])
    summary = {
        "command": "flow",
        "status": traj.status.kind,
        "final": traj.final_point,
        "t_escape": traj.status.t_escape,
        "out": v["out"],
    }
    return (3 if traj.escaped else 0), summary, {
        v["out"]: trajectory_to_csv(traj)}


def cmd_portrait(v: dict) -> tuple[int, dict, dict]:
    G = parse_symbol(v["symbol"])
    domain = parse_domain(v["domain"])
    svg, counts = render_portrait(G, domain, v["density"], v["horizon"],
                                  v["tol"])
    summary = {"command": "portrait", "out": v["out"]}
    summary.update(counts)
    return 0, summary, {v["out"]: svg}


def cmd_classify(v: dict) -> tuple[int, dict, dict]:
    G = parse_symbol(v["symbol"])
    verdict = bp_classify(G, density=v["density"], tol_b=v["tol-b"],
                          escape_t_max=v["escape-tmax"],
                          escape_tol=v["tol"])
    witness = None
    if verdict.witness is not None:
        witness = {"z0": verdict.witness.z0,
                   "t_escape": verdict.witness.t_escape}
    report = _report("classify", v, {
        "status": verdict.status,
        "b": verdict.b,
        "min_re_F": verdict.min_re_F,
        "witness": witness,
    })
    return (4 if verdict.status == INCONCLUSIVE else 0), report, {}


def cmd_evolve(v: dict) -> tuple[int, dict, dict]:
    G = parse_symbol(v["symbol"])
    seed = taylor(parse_symbol(v["f"]), v["N"])
    matrix_doc, files = None, {}
    if v["matrix-out"] is None:
        result = semigroup_apply(G, v["t"], seed, v["tol"])
    else:
        # column 1 of the matrix is the flow series: one integration serves
        # both the matrix and the composition
        matrix = operator_matrix(G, v["t"], v["N"], v["tol"])
        result = series_compose(seed, SeriesFn(matrix.entries[:, 1]))
        matrix_doc = matrix_summary(matrix)
        files[v["matrix-out"]] = matrix_to_csv(matrix)
    norm = None
    if v["space"] is not None:
        norm = parse_space(v["space"]).norm(result)
    report = _report("evolve", v, {
        "coeffs": [complex(c) for c in result.coeffs],
        "norm": norm,
        "matrix": matrix_doc,
    })
    return 0, report, files


def cmd_check_e(v: dict) -> tuple[int, dict, dict]:
    space = parse_space(v["space"])
    verdict = space.condition_e()
    report = _report("check-e", v, {
        "status": verdict.status,
        "evidence": verdict.evidence,
    })
    return (4 if verdict.status == "Inconclusive" else 0), report, {}


def cmd_generator_check(v: dict) -> tuple[int, dict, dict]:
    G = parse_symbol(v["symbol"])
    space = parse_space(v["space"])
    seed = taylor(parse_symbol(v["f"]), v["N"])
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
    report = _report("generator-check", v, {
        "residual": residuals[0]["residual"],
        "residuals": residuals,
        "slope": slope,
        "slope_reason": slope_reason,
    })
    return 0, report, {}


def cmd_counterexample(v: dict) -> tuple[int, dict, dict]:
    F = parse_symbol(v["F"])
    result = cx.run_counterexample(v["b"], F, v["z0"], t_long=v["T"],
                                   tol=v["tol"], dw_tol=v["dw-tol"])
    report = _report("counterexample", v, {
        "t_exit": result.t_exit,
        "dw_distance": result.dw_distance,
        "warning": result.warning,
        "trajectory_csv": v["trajectory-out"],
    })
    return (0 if result.conclusive else 4), report, {
        v["trajectory-out"]: trajectory_to_csv(result.trajectory)}


def _parse_map(v: dict):
    text = v["map"].strip()
    if text == "cayley":
        return cayley()
    if text.startswith("mobius:"):
        # the grammar's mobius(...), so the constants follow its rules
        m = parse_symbol("mobius(%s)" % text[len("mobius:"):])
        if not isinstance(m, Mobius):
            raise ParseError("mobius map needs 4 constants, got %r" % (text,))
        return mobius_pair(m, parse_domain(v["source"]),
                           parse_domain(v["target"]))
    raise ParseError("unknown map %r" % (text,))


def cmd_transfer_check(v: dict) -> tuple[int, dict, dict]:
    G = parse_symbol(v["symbol"])
    pair = _parse_map(v)
    residual = conjugation_residual(G, pair, v["z0"], v["t"], v["tol"])
    report = _report("transfer-check", v, {
        "residual": residual,
        "transferred_symbol": str(transfer_symbol(G, pair)),
    })
    return 0, report, {}


# Each handler returns (exit code, summary, {path: artifact text}); main
# writes the artifacts only once the summary is serialized.
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
        code, summary, files = _HANDLERS[command](values)
        line = dump_line(summary)
        if "schema_version" in summary:  # a report: its line is --out
            files[values["out"]] = line
        _write_all(files)
    except (HoloflowError, OSError) as exc:
        sys.stdout.write(dump_line({"command": command, "error": str(exc)}))
        return (1 if isinstance(exc, (ParseError, OSError))
                else 3 if isinstance(exc, EscapeError) else 2)
    sys.stdout.write(line)
    return code


def run():
    raise SystemExit(main())
