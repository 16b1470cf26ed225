"""Jordan's theorem as the fast path of ``holonomy``, checked against the
chain and, where installed, against sympy.

``jordan_giant`` may return a group only when it is the symmetric or
alternating group on every point; any other group must come back None
and keep its stabilizer chain.  The groups below that are not giant are
built from explicit generators: each is transitive, primitive or has
long cycles where that makes a wrong certificate easy to get.
"""

import math
import random
import time
from collections import Counter

import pytest

from groupoids import permgroup
from groupoids.complexes import DualMultigraph
from groupoids.graphconn import GraphConnection, connection_groupoid, connection_holonomy
from groupoids.groupoid import Groupoid
from groupoids.holonomy import holonomy
from groupoids.homcx import complete_graph
from groupoids.permgroup import (
    DegreeMismatch,
    GiantGroup,
    Perm,
    PermGroup,
    jordan_giant,
    recognize,
    schreier_sims,
)


def perm(n: int, f) -> Perm:
    return Perm(tuple(f(x) for x in range(n)))


def cycles(n: int, *cs) -> Perm:
    """A permutation from 1-based cycles, as printed in the literature."""
    return Perm.from_cycles(n, *([x - 1 for x in c] for c in cs))


def loops_groupoid(gens: list[Perm]) -> Groupoid:
    """Two objects on the same points, joined by an identity edge and one
    edge per generator: the holonomy loops at object 0 are the generators."""
    n = gens[0].degree
    flips = {}
    for rid, g in enumerate([Perm.identity(n), *gens]):
        flips[(0, 1, rid)] = g.images
        flips[(1, 0, rid)] = g.inverse().images
    edges = tuple((0, 1, rid) for rid in range(len(gens) + 1))
    return Groupoid(object_vertices=(tuple(range(n)),) * 2,
                    dual=DualMultigraph(2, edges, ((),) * len(edges)), flips=flips)


def moved_first(gens):
    """The order in which ``holonomy`` hands its loops on."""
    return sorted(gens, key=lambda p: sum(i != x for i, x in enumerate(p.images)), reverse=True)


def psl2(p: int) -> list[Perm]:
    """PSL(2, p) on the projective line 0..p-1 and infinity = p:
    x -> x + 1 and x -> -1/x."""
    inv = {x: pow(x, -1, p) for x in range(1, p)}
    return [perm(p + 1, lambda x: x if x == p else (x + 1) % p),
            perm(p + 1, lambda x: 0 if x == p else p if x == 0 else (-inv[x]) % p)]


M11 = [cycles(11, range(1, 12)), cycles(11, (3, 7, 11, 8), (4, 10, 5, 6))]
M12 = [cycles(12, range(1, 12)), cycles(12, (3, 7, 11, 8), (4, 10, 5, 6)),
       cycles(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))]

# PSL(2, p) and M12 hold a cycle of prime length n - 1 among their
# generators, and S9 a 7-cycle: each is certified wrongly when the bound
# p <= n - 3 or the transitivity check is dropped.
NOT_GIANT = {
    "cyclic C12": ([perm(12, lambda x: (x + 1) % 12), perm(12, lambda x: (x + 5) % 12)], 12),
    "cyclic C13": ([perm(13, lambda x: (x + 1) % 13), perm(13, lambda x: (x + 2) % 13)], 13),
    "dihedral D10": ([perm(10, lambda x: (x + 1) % 10), perm(10, lambda x: -x % 10)], 20),
    "AGL(1,11)": ([perm(11, lambda x: (x + 1) % 11), perm(11, lambda x: 2 * x % 11)], 110),
    "PSL(2,7)": (psl2(7), 168),
    "PSL(2,11)": (psl2(11), 660),
    "PSL(2,13)": (psl2(13), 1092),
    "M11": (M11, 7920),
    "M12": (M12, 95040),
    "S9 fixing a point": ([cycles(10, (1, 2)), cycles(10, range(1, 10)),
                           cycles(10, range(1, 8))], math.factorial(9)),
    "S4 wr S2": ([cycles(8, (1, 2)), cycles(8, (1, 2, 3, 4)),
                  cycles(8, (1, 5), (2, 6), (3, 7), (4, 8))], 24 ** 2 * 2),
}


try:
    from sympy.combinatorics import Permutation, PermutationGroup
except ImportError:
    PermutationGroup = None


def sympy_order(gens) -> int:
    if PermutationGroup is None:
        pytest.skip("sympy is not installed")
    return PermutationGroup([Permutation(list(g.images)) for g in gens]).order()


@pytest.mark.parametrize("name", NOT_GIANT)
def test_groups_that_are_not_giant_keep_their_chain(name):
    gens, order = NOT_GIANT[name]
    n = gens[0].degree
    assert jordan_giant(gens, n) is None
    group = holonomy(loops_groupoid(gens)).group
    assert isinstance(group, PermGroup)
    assert group == schreier_sims(moved_first(gens), degree=n)
    assert group.order == order


@pytest.mark.parametrize("name", NOT_GIANT)
def test_groups_that_are_not_giant_match_sympy(name):
    gens, order = NOT_GIANT[name]
    assert sympy_order(gens) == order


def _random_perm(rng: random.Random, n: int) -> Perm:
    images = list(range(n))
    rng.shuffle(images)
    return Perm(tuple(images))


def _block_perm(rng: random.Random, blocks: int, size: int) -> Perm:
    """A random permutation preserving the blocks {b*size, ..., b*size + size - 1}."""
    outer = _random_perm(rng, blocks).images
    inner = [_random_perm(rng, size).images for _ in range(blocks)]
    return perm(blocks * size, lambda x: outer[x // size] * size + inner[x // size][x % size])


def _random_sets(seed: int):
    """(kind, generators) pairs of degree 8 to 30: generic sets, which
    are giant, and sets preserving a block system or a split of the
    points, which are not."""
    rng = random.Random(seed)
    for n in range(8, 31):
        yield "generic", [_random_perm(rng, n) for _ in range(rng.randint(2, 3))]
        evens = [g for g in (_random_perm(rng, n) for _ in range(12)) if g.parity() == 0]
        yield "generic", evens[:2]
        size = next((d for d in range(2, n) if n % d == 0), None)
        if size:
            yield "blocks", [_block_perm(rng, n // size, size) for _ in range(3)]
        k = rng.randint(1, n - 1)
        yield "split", [perm(n, lambda x, a=_random_perm(rng, k).images,
                             b=_random_perm(rng, n - k).images: a[x] if x < k else k + b[x - k])
                        for _ in range(3)]


def test_random_generator_sets_agree_with_the_chain():
    certified = 0
    for kind, gens in _random_sets(7):
        n = gens[0].degree
        chain = schreier_sims(gens, degree=n)
        giant = jordan_giant(gens, n)
        # every giant here is certified within the budget
        assert (giant is not None) == (chain.order * 2 >= math.factorial(n)), (kind, gens)
        if giant is not None:
            assert kind == "generic"
            assert giant.order == chain.order
            assert giant.alternating == all(g.parity() == 0 for g in gens)
            assert recognize(giant) == recognize(chain)
            certified += 1
    assert certified >= 40


def test_random_generator_sets_agree_with_sympy():
    for _, gens in _random_sets(8):
        n = gens[0].degree
        if n > 16:
            continue
        giant = jordan_giant(gens, n)
        want = sympy_order(gens)
        assert (giant is not None) == (want * 2 >= math.factorial(n))
        if giant is not None:
            assert giant.order == want


def random_connection(n: int, rng: random.Random) -> GraphConnection:
    """A seeded random connection on K_n: each oriented edge crosses to
    its reversal and sends the rest of its star to the rest of the other
    star by a random bijection; the reverse edge carries the inverse."""
    graph = complete_graph(n)
    nabla = {}
    for x, y in graph.edges:
        sx = [(x, w) for w in range(n) if w not in (x, y)]
        sy = [(y, w) for w in range(n) if w not in (x, y)]
        rng.shuffle(sy)
        table = {(x, y): (y, x), **dict(zip(sx, sy))}
        nabla[(x, y)] = table
        nabla[(y, x)] = {dst: src for src, dst in table.items()}
    return GraphConnection(graph, nabla)


def test_connection_loops_agree_with_the_chain_and_sympy():
    rng = random.Random(11)
    for n in list(range(9, 17)) * 2:
        c = random_connection(n, rng)
        r = holonomy(connection_groupoid(c), rng.randrange(n))
        chain = schreier_sims(r.generators, degree=n - 1)
        assert isinstance(r.group, GiantGroup)
        assert r.group == jordan_giant(moved_first(r.generators), n - 1)
        assert r.group.order == chain.order
        assert all(r.group.contains(g) for g in r.generators)
        if n <= 12 and PermutationGroup is not None:
            assert sympy_order(r.generators) == chain.order
        assert connection_holonomy(c, r.base) == r.group


def test_gates_skip_small_degree_and_cyclic_groups():
    # S7 is giant, but no prime lies in (7/2, 4]
    assert jordan_giant([cycles(7, (1, 2)), cycles(7, range(1, 8))], 7) is None
    c13 = perm(13, lambda x: (x + 1) % 13)
    assert jordan_giant([c13, c13, Perm.identity(13)], 13) is None
    with pytest.raises(DegreeMismatch):
        jordan_giant([c13, cycles(12, (1, 2))], 13)


def test_exhausted_budget_falls_back_to_the_chain(monkeypatch):
    # (0 1) and (0 ... 11) generate S12, but neither has a 7-cycle, so
    # only the walk can find a certificate
    gens = [cycles(12, (1, 2)), cycles(12, range(1, 13))]
    assert jordan_giant(gens, 12) == GiantGroup(12)
    monkeypatch.setattr(permgroup, "JORDAN_BUDGET", 0)
    assert jordan_giant(gens, 12) is None
    group = holonomy(loops_groupoid(gens)).group
    assert isinstance(group, PermGroup)
    assert group == schreier_sims(moved_first(gens), degree=12)
    assert group.order == math.factorial(12)


def test_certificate_is_deterministic():
    rng = random.Random(5)
    c = random_connection(14, rng)
    first = holonomy(connection_groupoid(c), 0)
    again = holonomy(connection_groupoid(c), 0)
    assert first.group == again.group == GiantGroup(13)
    assert first.generators == again.generators


def test_degree_100_is_certified_quickly():
    rng = random.Random(100)
    a, b = _random_perm(rng, 100), _random_perm(rng, 100)
    started = time.perf_counter()
    group = jordan_giant([a, b], 100)
    assert time.perf_counter() - started < 0.5
    assert group == GiantGroup(100)


def orbit_count(gens, degree: int) -> int:
    """The number of orbits of <gens>, by a search from each unseen point."""
    seen, count = [False] * degree, 0
    for start in range(degree):
        if seen[start]:
            continue
        count += 1
        seen[start], stack = True, [start]
        while stack:
            x = stack.pop()
            for a in gens:
                if not seen[a[x]]:
                    seen[a[x]] = True
                    stack.append(a[x])
    return count


def _blocks(rng: random.Random, n: int) -> list[list[int]]:
    """A random split of 0..n-1 into two or more nonempty blocks."""
    points = list(range(n))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n - 1, 4))))
    return [points[a:b] for a, b in zip([0, *cuts], [*cuts, n])]


def _within(rng: random.Random, n: int, blocks) -> tuple[int, ...]:
    """A permutation that runs through each block as one cycle, in a
    random order."""
    images = list(range(n))
    for block in blocks:
        cycle = rng.sample(block, len(block))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def _transitivity_sets(seed: int):
    """(kind, generators, degree) of degree 1 to 40: random sets; sets
    that keep a split of the points; sets that keep a split until the last
    generator, which links one point of each block to the next; each
    also with identities and duplicates mixed in."""
    rng = random.Random(seed)
    for n in range(1, 41):
        ident = tuple(range(n))
        yield "random", [_random_perm(rng, n).images for _ in range(rng.randint(1, 3))], n
        if n < 2:
            continue
        blocks = _blocks(rng, n)
        split = [_within(rng, n, blocks) for _ in range(rng.randint(1, 4))]
        yield "split", split, n
        link = list(ident)
        heads = [rng.choice(block) for block in blocks]
        for a, b in zip(heads, heads[1:] + heads[:1]):
            link[a] = b
        yield "last links", [*split, tuple(link)], n
        messy = [*split, ident, *split[:1], tuple(link), tuple(link), ident]
        yield "messy", messy, n


def test_union_find_transitivity_matches_an_orbit_search():
    kinds = Counter()
    for kind, gens, n in _transitivity_sets(21):
        want = orbit_count(gens, n) == 1
        assert permgroup._transitive(gens, n) == want, (kind, gens)
        kinds[kind, want] += 1
        if kind == "last links":
            assert not permgroup._transitive(gens[:-1], n) and want
    assert set(kinds) == {("random", True), ("random", False), ("split", False),
                          ("last links", True), ("messy", True)}, kinds


def test_union_find_stops_at_the_first_generator_that_joins_every_point():
    n = 12

    def gens():
        yield perm(n, lambda x: x ^ 1)
        yield perm(n, lambda x: (x + 2) % n).images
        raise AssertionError("read past the generator that made one class")

    pairs = (a.images if isinstance(a, Perm) else a for a in gens())
    assert permgroup._transitive(pairs, n)
    assert permgroup._transitive([], 1) and not permgroup._transitive([], 2)


def _jordan_groups():
    """Every generating set this file hands to ``jordan_giant``."""
    for gens, _ in NOT_GIANT.values():
        yield gens, gens[0].degree
    for seed in (7, 8):
        for _, gens in _random_sets(seed):
            yield gens, gens[0].degree
    yield [cycles(7, (1, 2)), cycles(7, range(1, 8))], 7
    c13 = perm(13, lambda x: (x + 1) % 13)
    yield [c13, c13, Perm.identity(13)], 13
    yield [cycles(12, (1, 2)), cycles(12, range(1, 13))], 12
    rng = random.Random(100)
    yield [_random_perm(rng, 100), _random_perm(rng, 100)], 100
    rng = random.Random(11)
    for n in list(range(9, 17)) * 2:
        r = holonomy(connection_groupoid(random_connection(n, rng)), rng.randrange(n))
        yield r.generators, n - 1


def test_jordan_verdicts_match_the_orbit_search(monkeypatch):
    """With the union-find swapped for the orbit search, every group of
    this file gets the same verdict and the same ``alternating`` flag."""
    groups = list(_jordan_groups())
    verdicts = [jordan_giant(gens, n) for gens, n in groups]
    monkeypatch.setattr(permgroup, "_transitive",
                        lambda gens, n: orbit_count(list(gens), n) == 1)
    assert [jordan_giant(gens, n) for gens, n in groups] == verdicts
    assert sum(v is not None for v in verdicts) >= 40
