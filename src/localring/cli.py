"""Batch command-line interface with structured JSON reports.

Exit codes: 0 = success / claims pass; 2 = UNDECIDED-AT-MU or claims fail
(distinguished in the JSON); 1 = usage or parse error.  Every report carries
the certification window, and the seed and coordinate-change matrix when
randomness was involved.  All randomness flows from a single --seed flag.

`run` checks a command line in one order: argparse, then (for every command
but `example82`, which reads no file) the file, the form and `--mu`, which
`_context` resolves, then the command's own flags, in its handler.  A
handler takes `(args, f, form, mu)` and returns its exit code and its keys,
whose values are library values (series, `Fraction`s, tuples, records);
`run` adds `command` and, unless the handler wrote its own, `window` to
every report that is not an error, and renders the whole report with
`jsonable`, the one place a value becomes JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import approx, diagram, equising, stdbasis
from .division import hironaka_divide
from .errors import LocalRingError, ParseError, UndecidedAtPrecision
from .kernel import EXACT, PrecisionSeries
from .order import LinearForm, form_label, parse_form, std_form
from .parser import IdealFile, load_ideal_file, parse_expression


#: The largest split weight `flat --weights` accepts.  Completion runs on
#: the window l * mu, so an unbounded weight would be an unbounded window.
MAX_SPLIT_WEIGHT = 100


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def jsonable(value):
    """Recursively convert report values into JSON-encodable data; an
    absent value (None) stays null, and "EXACT" is only a series' prec.
    A record (a NamedTuple) becomes an object keyed by its field names,
    a plain tuple a list."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, PrecisionSeries):
        return {
            "terms": [[list(e), str(c)] for e, c in value.sorted_terms()],
            "prec": "EXACT" if value.prec is EXACT else str(value.prec),
        }
    if isinstance(value, LinearForm):
        return form_label(value)
    if hasattr(value, "_asdict"):
        return jsonable(value._asdict())
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: jsonable(v) for k, v in value.items()}
        return [[jsonable(k), jsonable(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def _load(path: str) -> IdealFile:
    """The ideal file at `path`; bytes that are not UTF-8 are a parse error
    at their byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"the file is not UTF-8: {exc.reason}",
                         exc.start) from None
    return load_ideal_file(text)


def _mu(args, f: IdealFile) -> Fraction:
    """The --mu override, or else the file's precision; like the `prec:`
    line, it must be at least 1."""
    if getattr(args, "mu", None) is None:
        return f.mu
    try:
        mu = Fraction(args.mu)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"argument --mu: invalid rational value: {args.mu!r}")
    if mu < 1:
        raise UsageError(f"argument --mu: must be at least 1: {args.mu!r}")
    return mu


def _at_least(args, name: str, low: int) -> int:
    """The integer option --name, refused when it is below low."""
    value = getattr(args, name)
    if value < low:
        raise UsageError(f"argument --{name}: must be at least {low}: {value}")
    return value


def _weights(args) -> tuple:
    """The --weights list, each entry checked before any search runs."""
    if not args.weights:
        return ()
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError:
        raise UsageError(
            f"argument --weights: invalid integer list: {args.weights!r}")
    for w in weights:
        if not 1 <= w <= MAX_SPLIT_WEIGHT:
            raise UsageError(
                f"argument --weights: each weight must lie in "
                f"1..{MAX_SPLIT_WEIGHT}: {args.weights!r}")
    return weights


def _deltas(args, f: IdealFile, form, mu, count: int) -> tuple:
    """(deltas, source): the --delta series, parsed at window 2*mu and
    padded with zeros to one per generator, and the source that re-parses
    them on any window, as `IdealFile.presentation` does for `gen:` lines."""
    texts = args.delta or []
    zeros = (PrecisionSeries(f.n, {}),) * (count - len(texts))

    def source(L: LinearForm, window) -> tuple:
        return tuple(parse_expression(src, f.var_names, L, window)
                     for src in texts) + zeros

    return source(form, 2 * mu), source


def _window(form, mu) -> dict:
    return {"form": form, "mu": Fraction(mu)}


def _context(args) -> tuple[IdealFile, LinearForm, Fraction]:
    """The file, the form and mu of a command line, checked in that order.
    The commands that take --order (divide, sbasis, diagram) work under it,
    or else under the file's `order:` line; the others under the standard
    form, whatever the file says."""
    f = _load(args.file)
    if not hasattr(args, "order"):
        form = std_form(f.n)
    elif args.order:
        form = parse_form(args.order, f.n)
    else:
        form = f.form()
    return f, form, _mu(args, f)


def _cmd_divide(args, f, form, mu) -> tuple[int, dict]:
    gens = f.generators(form, mu)
    dividend = parse_expression(args.dividend, f.var_names, form, mu)
    result = hironaka_divide(dividend, gens, form, mu)
    return 0, {
        "dividend": args.dividend,
        "regions": [{"index": i, "head": a}
                    for i, a in enumerate(result.partition.alphas)],
        "quotients": result.quotients,
        "remainder": result.remainder,
        "remainder_zero_up_to_mu": result.remainder_is_zero,
    }


def _cmd_sbasis(args, f, form, mu) -> tuple[int, dict]:
    skip = not args.no_coprime_skip
    if args.action == "check":
        basis = stdbasis.becker_check(f.generators(form, mu), form, mu,
                                      use_coprime_skip=skip)
        code = 0 if basis.verified else 2
        report = {"pairs": basis.pair_checks}
    else:
        basis = stdbasis.complete(f.presentation(form, mu), form, mu,
                                  use_coprime_skip=skip,
                                  use_chain_criterion=False)
        code = 0
        report = {"adjoined": basis.gens[len(f.gen_sources):],
                  "steps": len(basis.completion_steps)}
    return code, {**report, "verified": basis.verified, "heads": basis.heads}


def _cmd_diagram(args, f, form, mu) -> tuple[int, dict]:
    basis = stdbasis.complete(f.presentation(form, mu), form, mu)
    return 0, {"vertices": diagram.diagram_of(basis).vertices}


def _cmd_hs(args, f, form, mu) -> tuple[int, dict]:
    eta = _at_least(args, "eta", 0)
    basis = stdbasis.complete(f.presentation(form, mu), form, mu)
    return 0, {"eta_max": eta,
               "values": diagram.hilbert_samuel(basis, eta).values}


def _cmd_oracle(args, f, form, mu) -> tuple[int, dict]:
    eta = _at_least(args, "eta", 0)
    mu = max(f.mu, eta)
    I = f.presentation(form, mu)
    values = diagram.oracle_jet_quotient_table(I, eta)
    return 0, {"window": _window(form, mu), "eta_max": eta, "values": values}


def _cmd_flat(args, f, form, mu) -> tuple[int, dict]:
    extra = _weights(args)
    I = f.presentation(form, mu)
    rep = diagram.flatness_weight_search(I, args.k, mu, extra_weights=extra)
    code = 0 if rep.verdict == "FLAT" else 2
    return code, {
        **rep._asdict(),
        "window": {**_window(form, mu), "weighted_window": rep.window},
    }


def _cmd_dim(args, f, form, mu) -> tuple[int, dict]:
    I = f.presentation(form, mu)
    rep = diagram.axis_vertex_dimension(
        I, mu, trials=_at_least(args, "trials", 1), seed=args.seed)
    return 0, {
        **rep._asdict(),
        "note": "probabilistic upper bound; tightness depends on sampled changes",
    }


def _cmd_reduction(args, f, form, mu) -> tuple[int, dict]:
    I = f.presentation(form, mu)
    rep = diagram.reduction_exponent(I, args.k, mu)
    return (0 if rep.all_ok else 2), rep._asdict()


def _cmd_perturb(args, f, form, mu) -> tuple[int, dict]:
    I = f.presentation(form, mu)
    deltas, source = _deltas(args, f, form, mu, len(I.gens))
    return 0, {"generators": approx.perturb(I, mu, deltas, source).gens}


def _cmd_ci(args, f, form, mu) -> tuple[int, dict]:
    I = f.presentation(form, mu)
    deltas, source = _deltas(args, f, form, mu, len(I.gens))
    rep = approx.ci_stability_experiment(
        I, mu, deltas, seed=args.seed,
        trials=_at_least(args, "trials", 1), source=source)
    return (0 if rep.get("all_equal") else 2), rep


def _cmd_example82(args) -> tuple[int, dict]:
    h = None
    if args.h is not None:
        h = parse_expression(args.h, ("z",), std_form(1), args.mu)
    rep = approx.cm_counterexample_runner(args.mu, h, verify_mu=args.verify_mu)
    rep["window"] = _window(std_form(3), args.mu)
    return (0 if rep["all_pass"] else 2), rep


def _cmd_tower(args, f, form, mu) -> tuple[int, dict]:
    tower = equising.build_tower(f.generators(form, mu), mu, seed=args.seed)
    report = {
        "seed": args.seed,
        "coordinate_changes": tower.coordinate_changes,
        "levels": [{k: v for k, v in lvl._asdict().items() if k != "unit_below"}
                   for lvl in tower.levels],
    }
    if args.action == "build":
        return 0, report
    report["validation"] = validation = equising.validate_tower(tower)
    return (0 if validation["all_pass"] else 2), report


def _build_argparser() -> _Parser:
    # the first two paragraphs of the docstring are for users; the rest
    # describes the handlers
    top = _Parser(prog="localring",
                  description="\n\n".join(__doc__.split("\n\n")[:2]),
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, mu=True, order=False):
        p.add_argument("--file", required=True)
        if mu:
            p.add_argument("--mu", default=None)
        if order:
            p.add_argument("--order", default=None,
                           help="override the file's order: std, w:..., split:k=,l=")

    p = sub.add_parser("divide")
    common(p, order=True)
    p.add_argument("--dividend", required=True)
    p.set_defaults(fn=_cmd_divide)

    p = sub.add_parser("sbasis")
    p.add_argument("action", choices=["check", "complete"])
    common(p, order=True)
    p.add_argument("--no-coprime-skip", action="store_true")
    p.set_defaults(fn=_cmd_sbasis)

    p = sub.add_parser("diagram")
    common(p, order=True)
    p.set_defaults(fn=_cmd_diagram)

    p = sub.add_parser("hs")
    common(p)
    p.add_argument("--eta", required=True, type=int)
    p.set_defaults(fn=_cmd_hs)

    p = sub.add_parser("oracle")
    p.add_argument("action", choices=["hs"])
    common(p, mu=False)
    p.add_argument("--eta", required=True, type=int)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("flat")
    common(p)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--weights", default=None,
                   help="extra split weights to try, comma separated, "
                   f"each in 1..{MAX_SPLIT_WEIGHT}")
    p.set_defaults(fn=_cmd_flat)

    p = sub.add_parser("dim")
    common(p)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("reduction")
    common(p)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(fn=_cmd_reduction)

    p = sub.add_parser("perturb")
    common(p)
    p.add_argument("--delta", action="append")
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("ci-experiment")
    common(p)
    p.add_argument("--delta", action="append")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=4)
    p.set_defaults(fn=_cmd_ci)

    p = sub.add_parser("example82")
    p.add_argument("--mu", required=True, type=int)
    p.add_argument("--h", default=None)
    p.add_argument("--verify-mu", dest="verify_mu", type=int, default=None)
    p.set_defaults(fn=_cmd_example82)

    p = sub.add_parser("tower")
    p.add_argument("action", choices=["build", "validate"])
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_tower)

    return top


def run(argv) -> tuple[int, dict]:
    """Dispatch a command line; returns (exit code, JSON-ready report)."""
    try:
        args = _build_argparser().parse_args(argv)
        if hasattr(args, "file"):
            f, form, mu = _context(args)
            code, report = args.fn(args, f, form, mu)
            report.setdefault("window", _window(form, mu))
        else:
            code, report = args.fn(args)
        action = getattr(args, "action", None)
        report["command"] = (f"{args.command} {action}" if action
                             else args.command)
        return code, jsonable(report)
    except UsageError as exc:
        return 1, {"error": "usage", "detail": str(exc)}
    except UndecidedAtPrecision as exc:
        return 2, {"error": "UNDECIDED-AT-MU", "detail": str(exc)}
    except ParseError as exc:
        return 1, {"error": "parse", "detail": str(exc), "position": exc.pos}
    except (LocalRingError, OSError) as exc:
        return 1, {"error": type(exc).__name__, "detail": str(exc)}


def main() -> None:
    code, report = run(sys.argv[1:])
    print(json.dumps(report, indent=2, sort_keys=True))
    sys.exit(code)


if __name__ == "__main__":
    main()
