"""Completion builds no quotients and no division results.

With the constructors of division results and region partitions made to
raise, completion, the staircase readers and `becker_check` must still run.
Every recorded step is then re-checked after the fact, with the public
calls that the `CompletionStep` docstring names.
"""

import random
from fractions import Fraction as F

from conftest import rand_form, rand_poly, recheck_step
from localring import diagram as DG
from localring import division as DIV
from localring import kernel as K
from localring import order as O
from localring import stdbasis as SB
from localring.errors import LocalRingError


def seeded_ideals(count=30):
    rng = random.Random(2024)
    for _ in range(count):
        n = rng.randint(2, 3)
        L = O.std_form(n) if rng.random() < 0.5 else rand_form(rng, n)
        mu = F(rng.choice([4, 5, 6]))
        gens = []
        for _ in range(rng.randint(2, 4)):
            g = rand_poly(rng, n, max_terms=4, max_exp=3)
            if rng.random() < 0.5:
                g = K.truncate(g, L, mu + rng.choice([0, 1]))
            if g.terms:
                gens.append(g)
        if gens:
            yield K.IdealPresentation(n, tuple(gens)), L, mu


def _refuse(*args, **kwargs):
    raise AssertionError("completion built a division result it does not read")


def _readers(I, L, mu):
    """What the staircase readers and the checker make of I."""
    basis = SB.complete(I, L, mu)
    recorded = SB.complete(I, L, mu, use_coprime_skip=False,
                           use_chain_criterion=False)
    D = DG.diagram_of(basis)
    if O.is_standard(L):
        read = DG.hilbert_samuel(basis, int(mu)).values
    else:
        read = DG.complement_count(D, L, mu)
    given = SB.becker_check(I.gens, L, mu)
    check = SB.becker_check(basis.gens, L, mu, use_coprime_skip=False)
    return (basis, recorded, D.vertices, read,
            [p.status for p in given.pair_checks], check.verified)


def test_completion_builds_only_what_is_read(monkeypatch):
    runs = []
    with monkeypatch.context() as patch:
        patch.setattr(DIV, "DivisionResult", _refuse)
        patch.setattr(DIV, "RegionPartition", _refuse)
        for I, L, mu in seeded_ideals():
            try:
                runs.append((I, L, mu, _readers(I, L, mu)))
            except LocalRingError:
                continue
    assert len(runs) > 15
    steps = 0
    for I, L, mu, (basis, recorded, *seen) in runs:
        assert seen[-1]  # the completed basis passes the check
        assert list(_readers(I, L, mu)[2:]) == seen
        for complete in (basis, recorded):
            for step in complete.completion_steps:
                s, _ = recheck_step(complete, step)
                assert O.initial_term(L, s)  # a nonzero s-series
                steps += 1
    assert steps > 20
