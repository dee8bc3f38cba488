"""Theorem oracles: two facts of group cohomology that force H^1 = 0,
checked on seeded random subgroups of GL_2(Z/p^n).

- Coprime action (Brown, Cohomology of Groups, III.10): |G| kills
  H^1(G, M) and p^n kills M, so H^1(G, M) = 0 when p does not divide |G|.
- Sah's lemma: a central z acts on H^1(G, M) so that z - 1 kills it.
  -I is central, and -I - 1 = -2 is a unit for odd p, so H^1(G, M) = 0
  when -I lies in G.

M is V, V[p] and, for n >= 2, V/V[p]; -I acts on each as -1.  A draw is
p in {3, 5, 7}, n <= 3 and one or two random invertible generators, with
-I added to about a third of the draws, closed with a cap of 3,000
elements; a draw whose group passes the cap is skipped and counted.
"""

import functools
import random

import pytest

from h1loc import CocycleSystem, GModule, ModulusContext, ResourceLimitError, close_group, h1, howell_from_rows

DRAWS = 300
CAP = 3000


@functools.cache
def _draws():
    """(coprime, minus_id, skipped): the closed groups with p not dividing
    |G|, those containing -I (a group can be in both), and the number of
    draws skipped at the cap."""
    rng = random.Random(2017)
    coprime, minus_id, skipped = [], [], 0
    for _ in range(DRAWS):
        p, n = rng.choice((3, 5, 7)), rng.choice((1, 2, 3))
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        gens, k = [], rng.choice((1, 2))
        while len(gens) < k:
            a, b, c, d = (rng.randrange(q) for _ in range(4))
            if (a * d - b * c) % p:
                gens.append([[a, b], [c, d]])
        if rng.randrange(3) == 0:
            gens.append([[q - 1, 0], [0, q - 1]])
        try:
            group = close_group(gens, ctx, cap=CAP)
        except ResourceLimitError:
            skipped += 1
            continue
        if len(group) % p:
            coprime.append(group)
        if (q - 1, 0, 0, q - 1) in group._index:
            minus_id.append(group)
    return coprime, minus_id, skipped


def _modules(group):
    kinds = ("full", "p_torsion", "mod_p_quotient") if group.ctx.n > 1 else ("full", "p_torsion")
    return [GModule(group.ctx, kind) for kind in kinds]


def _nonzero_h1(groups):
    """The first (group, module) of groups with H^1 != 0, or None."""
    return next(((g, m) for g in groups for m in _modules(g) if h1(g, m).order != 1), None)


def test_draws_reach_both_classes():
    # 40 coprime draws, 164 with -I and 85 skipped at the cap.
    coprime, minus_id, skipped = _draws()
    assert len(coprime) >= 35 and len(minus_id) >= 150
    assert skipped <= 90


@pytest.mark.parametrize("fact", [0, 1], ids=["coprime-action", "sah-minus-identity"])
def test_h1_vanishes(fact):
    assert _nonzero_h1(_draws()[fact]) is None


@pytest.mark.parametrize("fact", [0, 1], ids=["coprime-action", "sah-minus-identity"])
def test_each_fact_fails_without_coboundaries(fact, monkeypatch):
    # With B^1 replaced by the zero submodule, H^1 reads Z^1, which is not
    # zero on some draw of each class: each fact can fail.
    monkeypatch.setattr(CocycleSystem, "b1", lambda self: howell_from_rows(self.cctx, self.dim, []))
    assert _nonzero_h1(_draws()[fact]) is not None
