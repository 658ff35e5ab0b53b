"""Workload catalogs, operation runners and result digests.

Every workload runs a fixed catalog of inputs, built from constant seeds, so
every catalog item has a pinned digest of its mathematical result
(``pins.json``).  One epoch runs every catalog item (some CLI commands more
than once) in an order shuffled by the run's ``--seed``; a run is a whole
number of epochs.  The operation stream is a pure function of the seed, and
the multiset of operations in a run does not depend on it: costs are heavy
tailed, and runs that drew different random subsets of inputs spread by 10
to 25% in throughput and latency percentiles at these run lengths.

An operation returns a small JSON-able summary of its mathematical result;
``digest`` hashes it.  An operation that raises a ``LocalRingError`` (or, for
the CLI, exits 1 or prints no JSON) is a refusal.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("sbasis-dense", "towers", "cli")


@dataclass(frozen=True)
class Item:
    """One catalog entry: an input and the operation to run on it."""

    key: str
    kind: str
    spec: dict

    def fingerprint(self) -> str:
        return digest({"kind": self.kind, "spec": self.spec})


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Refusal(Exception):
    """The program declined the operation (error report, traceback, no JSON)."""


class Mismatch(Exception):
    """Two ways of computing the same value disagree."""


# -- input generation helpers ----------------------------------------------

def monomials(n: int, degrees) -> list:
    out = []

    def rec(i, left, prefix):
        if i == n - 1:
            out.append(prefix + (left,))
            return
        for b in range(left + 1):
            rec(i + 1, left - b, prefix + (b,))

    for d in degrees:
        rec(0, d, ())
    return out


def nonzero_coeff(rng: random.Random) -> int:
    return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))


def random_terms(rng: random.Random, n: int, degrees, count: int) -> list:
    """`count` distinct monomials of the given degrees, integer coefficients."""
    support = rng.sample(monomials(n, degrees), count)
    return [[list(e), nonzero_coeff(rng)] for e in sorted(support)]


def expression(terms, names) -> str:
    """Render [[exponent, coeff], ...] in the CLI expression language."""
    parts = []
    for exp, c in terms:
        factors = [f"{v}^{b}" if b > 1 else v
                   for v, b in zip(names, exp) if b]
        mono = "*".join(factors)
        c = Fraction(c)
        if not mono:
            parts.append(f"({c})")
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"({c})*{mono}")
    return " + ".join(parts)


# -- sbasis-dense ------------------------------------------------------------

SB_MU = 6
SB_WINDOW_LEVELS = 5
SB_WEIGHTS = ("1/2", "1", "2", "3")


def _sbasis_catalog() -> dict:
    rng = random.Random("sbasis-dense catalog")
    strata = {}
    for form in ("std", "w"):
        for n in (3, 4):
            items = []
            for idx in range(70 if form == "std" else 30):
                gens = [random_terms(rng, n, (2, 3), rng.randint(3, 5))
                        for _ in range(rng.randint(2, 4))]
                spec = {"n": n, "gens": gens}
                if form == "std":
                    spec["mu"] = SB_MU
                else:
                    weights = [rng.choice(SB_WEIGHTS) for _ in range(n)]
                    top = max(Fraction(w) for w in weights)
                    spec["weights"] = weights
                    spec["window"] = str(SB_WINDOW_LEVELS * top)
                items.append(Item(f"{form}{n}-{idx:03d}", f"sbasis-{form}", spec))
            strata[f"{form}{n}"] = items
    return strata


def _presentation(n, gens):
    from localring import kernel as K
    return K.IdealPresentation(
        n, tuple(K.series(n, {tuple(e): c for e, c in g}) for g in gens))


def run_sbasis_std(spec):
    from localring import diagram as DG, order as O, stdbasis as SB
    n, mu = spec["n"], spec["mu"]
    L = O.std_form(n)
    B = SB.complete(_presentation(n, spec["gens"]), L, mu)
    D = DG.diagram_of(B)
    hs = DG.hilbert_samuel(B, mu)
    return lambda: {"vertices": [list(v) for v in D.vertices], "hs": list(hs.values)}


def run_sbasis_weighted(spec):
    from localring import diagram as DG, order as O, stdbasis as SB
    n, window = spec["n"], Fraction(spec["window"])
    L = O.LinearForm(tuple(Fraction(w) for w in spec["weights"]))
    B = SB.complete(_presentation(n, spec["gens"]), L, window)
    D = DG.diagram_of(B)
    count = DG.complement_count(D, L, window)
    return lambda: {"vertices": [list(v) for v in D.vertices], "count": count}


# -- towers --------------------------------------------------------------------

def _branch(rng: random.Random, a: int) -> list:
    """y^a - c x^b plus random higher terms: one branch of a plane germ."""
    b = a + rng.randint(1, 3)
    terms = {(0, a): 1, (b, 0): -rng.randint(1, 3)}
    for _ in range(rng.randint(0, 2)):
        e = (rng.randint(1, b), rng.randint(1, a))
        if e not in terms:
            terms[e] = nonzero_coeff(rng)
    return [[list(e), c] for e, c in sorted(terms.items())]


def _degree_split(rng: random.Random, total: int) -> list:
    parts = []
    while total:
        a = rng.randint(1, min(total, 3))
        parts.append(a)
        total -= a
    return parts


def _towers_catalog() -> dict:
    rng = random.Random("towers catalog")
    towers, prepares, roots, over = [], [], [], []
    for idx in range(275):
        degrees = _degree_split(rng, rng.randint(2, 5))
        towers.append(Item(f"tower-{idx:03d}", "tower", {
            "n": 2, "gens": [_branch(rng, a) for a in degrees],
            "mu": rng.randint(10, 14), "seed": rng.randrange(1000)}))
    for idx in range(100):
        unit = [[[0, 0], rng.choice((1, 2, -3))]] + random_terms(rng, 2, (1, 2), 2)
        prepares.append(Item(f"prep-{idx:03d}", "prepare", {
            "unit": unit, "poly": _branch(rng, rng.randint(2, 4)),
            "mu": rng.randint(10, 14)}))
    for idx in range(100):
        p = rng.randint(2, 5)
        roots.append(Item(f"roots-{idx:03d}", "roots", {"coeffs": _root_vector(rng, p)}))
    # top degree 6 or more: beyond the symbolic discriminant cap
    for idx in range(24):
        degrees = _degree_split(rng, rng.randint(6, 7))
        over.append(Item(f"deg6-{idx:03d}", "tower", {
            "n": 2, "gens": [_branch(rng, a) for a in degrees],
            "mu": rng.randint(10, 12), "seed": rng.randrange(1000)}))
    over.append(Item("deg6-xyz", "tower", {
        "n": 3, "gens": [[[[2, 0, 0], 1], [[0, 3, 0], 1], [[0, 0, 3], 1]],
                         [[[1, 1, 1], 1]]],
        "mu": 8, "seed": 0}))
    return {"tower": towers, "prep": prepares, "roots": roots, "deg6": over}


def _root_vector(rng: random.Random, p: int) -> list:
    """Coefficients (a_0..a_{p-1}) of a monic polynomial with chosen
    rational roots and multiplicities, as strings."""
    roots, left = [], p
    while left:
        m = rng.randint(1, left)
        r = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if any(r == prev for prev, _ in roots):
            continue
        roots.append((r, m))
        left -= m
    coeffs = [Fraction(1)]
    for r, m in roots:
        for _ in range(m):
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    return [str(c) for c in coeffs[:-1]]


def _series_json(f):
    return [[list(e), str(c)] for e, c in sorted(f.terms.items())]


def run_tower(spec):
    from localring import equising as EQ, kernel as K
    n = spec["n"]
    gens = [K.series(n, {tuple(e): c for e, c in g}) for g in spec["gens"]]
    T = EQ.build_tower(gens, spec["mu"], seed=spec["seed"])
    verdict = EQ.validate_tower(T)
    return lambda: {"levels": [[lvl.index, lvl.degree, lvl.disc_index, lvl.is_one]
                               for lvl in T.levels],
                    "all_pass": verdict["all_pass"]}


def run_prepare(spec):
    from localring import equising as EQ, kernel as K
    unit = K.series(2, {tuple(e): c for e, c in spec["unit"]})
    poly = K.series(2, {tuple(e): c for e, c in spec["poly"]})
    P, u = EQ.weierstrass_prepare(K.mul(unit, poly), 1, spec["mu"])
    return lambda: {"P": _series_json(P), "u": _series_json(u)}


def run_roots(spec):
    from localring import equising as EQ
    coeffs = [Fraction(c) for c in spec["coeffs"]]
    p = len(coeffs)
    j = EQ.distinct_root_count_check(coeffs, p)
    defect = EQ.squarefree_defect(coeffs, p)
    if j != defect:
        raise Mismatch(f"discriminant count {j} != gcd defect {defect}")
    return lambda: {"defect": j}


def warm_up_towers():
    """Count the roots of X^p for p <= 5.  Every discriminant D_1..D_p of
    X^p vanishes but the last, so this evaluates each of them once; at the
    seed that fills the symbolic discriminant cache."""
    from localring import equising as EQ
    for p in range(1, 6):
        EQ.distinct_root_count_check([0] * p, p)


# -- cli -------------------------------------------------------------------------

SAMPLES = "sample_ideals"


def _ideal_text(names, mu, gens, order="std") -> str:
    lines = [f"vars: {' '.join(names)}", f"prec: {mu}", f"order: {order}"]
    lines += [f"gen: {expression(g, names)}" for g in gens]
    return "\n".join(lines) + "\n"


def _cli_catalog() -> dict:
    rng = random.Random("cli catalog")
    S = SAMPLES
    light = [
        ["hs", "--file", f"{S}/cusp.ideal", "--eta", "6"],
        ["hs", "--file", f"{S}/plane_monomial.ideal", "--eta", "6"],
        ["hs", "--file", f"{S}/cm_family.ideal", "--eta", "8"],
        ["oracle", "hs", "--file", f"{S}/cusp.ideal", "--eta", "6"],
        ["oracle", "hs", "--file", f"{S}/plane_monomial.ideal", "--eta", "6"],
        ["sbasis", "complete", "--file", f"{S}/cm_family.ideal"],
        ["divide", "--file", f"{S}/cusp.ideal", "--dividend", "x^2*y + x*y^4"],
        ["reduction", "--file", f"{S}/plane_monomial.ideal", "--k", "1"],
        ["dim", "--file", f"{S}/cusp.ideal"],
        ["tower", "validate", "--file", f"{S}/cusp.ideal"],
        ["ci-experiment", "--file", f"{S}/plane_monomial.ideal", "--mu", "8",
         "--delta", "x^9"],
    ]
    medium = [
        ["flat", "--file", f"{S}/cm_family.ideal", "--k", "2"],
        ["oracle", "hs", "--file", f"{S}/cm_family.ideal", "--eta", "8"],
        ["example82", "--mu", "12", "--h", "z"],
    ]
    tail = [["reduction", "--file", f"{S}/cm_family.ideal", "--k", "2"]]
    slow = [["dim", "--file", f"{S}/cm_family.ideal"]]
    broken = [
        ["ci-experiment", "--file", f"{S}/cm_family.ideal", "--mu", "8",
         "--delta", "x^9"],
        ["divide", "--file", f"{S}/cusp.ideal", "--dividend", "1/0"],
        ["hs", "--file", f"{S}/cusp.ideal", "--eta", "4", "--mu", "abc"],
    ]
    strata = {
        "light": [Item(f"light-{i:02d}", "cli", {"argv": a}) for i, a in enumerate(light)],
        "medium": [Item(f"medium-{i:02d}", "cli", {"argv": a})
                   for i, a in enumerate(medium)],
        "tail": [Item(f"tail-{i:02d}", "cli", {"argv": a}) for i, a in enumerate(tail)],
        "slow": [Item(f"slow-{i:02d}", "cli", {"argv": a}) for i, a in enumerate(slow)],
        "broken": [Item(f"broken-{i:02d}", "cli", {"argv": a})
                   for i, a in enumerate(broken)],
    }
    generated = []
    for idx in range(24):
        names = ("x", "y", "z")[:rng.randint(2, 3)]
        n = len(names)
        gens = [random_terms(rng, n, (2, 3), rng.randint(2, 3))
                for _ in range(rng.randint(2, 3))]
        text = _ideal_text(names, 6, gens)
        path = f"gen-{idx:03d}.ideal"
        command = rng.choice(("hs", "oracle", "sbasis", "divide"))
        if command == "hs":
            argv = ["hs", "--file", path, "--eta", "5"]
        elif command == "oracle":
            argv = ["oracle", "hs", "--file", path, "--eta", "5"]
        elif command == "sbasis":
            argv = ["sbasis", "complete", "--file", path]
        else:
            dividend = expression(random_terms(rng, n, (2, 3, 4), 3), names)
            argv = ["divide", "--file", path, "--dividend", dividend]
        generated.append(Item(f"gen-{idx:03d}", "cli",
                              {"argv": argv, "files": {path: text}}))
    strata["generated"] = generated
    return strata


def cli_argv(spec, workdir: str) -> list:
    """The command line with generated file names placed in `workdir`."""
    files = spec.get("files", {})
    return [os.path.join(workdir, a) if a in files else a for a in spec["argv"]]


def write_cli_inputs(items, workdir: str) -> None:
    for item in items:
        for name, text in item.spec.get("files", {}).items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def child_env(root: str) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources on the path and a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_command(argv) -> list:
    return [sys.executable, "-m", "localring", *argv]


def check_cli_output(code: int, stdout: bytes) -> dict:
    """Exit 1 or a missing JSON document is a refusal; otherwise the
    operation's result is the exact stdout bytes plus the exit code."""
    try:
        json.loads(stdout)
    except ValueError:
        raise Refusal(f"exit {code}, no JSON on stdout") from None
    if code == 1:
        raise Refusal("exit 1")
    return {"exit": code, "stdout": hashlib.sha256(stdout).hexdigest()}


def run_cli(spec, workdir: str, root: str):
    proc = subprocess.run(cli_command(cli_argv(spec, workdir)), cwd=root,
                          env=child_env(root), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    return lambda: check_cli_output(proc.returncode, proc.stdout)


# -- registry --------------------------------------------------------------------

#: how often an epoch runs each item of a stratum (default once).  The CLI
#: epoch repeats the cheap sample commands so that it holds at least 100
#: operations.  Its 90th percentile sits in the middle of the ten `tail`
#: commands, which cost the same: above them are only the three refused
#: `broken` commands and the two `slow` ones, which together make up less
#: than a tenth of the epoch.
REPEATS = {"cli": {"light": 5, "generated": 1, "medium": 4, "tail": 10, "slow": 2,
                   "broken": 1}}

CATALOGS = {
    "sbasis-dense": _sbasis_catalog,
    "towers": _towers_catalog,
    "cli": _cli_catalog,
}

RUNNERS = {
    "sbasis-std": run_sbasis_std,
    "sbasis-w": run_sbasis_weighted,
    "tower": run_tower,
    "prepare": run_prepare,
    "roots": run_roots,
}


def catalog(workload: str) -> dict:
    return CATALOGS[workload]()


def epoch(workload: str, strata: dict) -> list:
    """Every catalog item, repeated as REPEATS says, in catalog order."""
    repeats = REPEATS.get(workload, {})
    return [item for name, items in strata.items()
            for item in items for _ in range(repeats.get(name, 1))]


def epochs(workload: str, seed: int, strata: dict):
    """Endless stream of epochs, each shuffled by a generator seeded once."""
    rng = random.Random(seed)
    base = epoch(workload, strata)
    while True:
        order = list(base)
        rng.shuffle(order)
        yield order


def run_item(item: Item, workdir: str = "", root: str = ""):
    """Run one operation; returns its result summary or raises Refusal."""
    return perform(item, workdir, root)()


def perform(item: Item, workdir: str = "", root: str = ""):
    """Run one operation and return a function that builds its result
    summary, so that the operation can be timed without it.  The program
    declining the operation raises Refusal, here or from that function."""
    if item.kind == "cli":
        return run_cli(item.spec, workdir, root)
    from localring.errors import LocalRingError
    try:
        return RUNNERS[item.kind](item.spec)
    except LocalRingError as exc:
        raise Refusal(f"{type(exc).__name__}: {exc}") from exc
