import ast
import math
import random

import pytest
from hypothesis import given, strategies as st
from test_engine import SRC, _nodes_by_owner

from groupoids.permgroup import (
    ClosureTooLarge,
    DegreeMismatch,
    Perm,
    SignedPerm,
    closure_small,
    recognize,
    schreier_sims,
)


def perms(n):
    return st.permutations(list(range(n))).map(lambda xs: Perm(tuple(xs)))


def test_compose_is_left_to_right():
    # (0 1) then (1 2): 0 -> 1 -> 2
    a = Perm.from_cycles(3, (0, 1))
    b = Perm.from_cycles(3, (1, 2))
    assert (a * b).images == (2, 0, 1)
    # the other convention would give (1, 2, 0); make sure we differ
    assert (b * a).images == (1, 2, 0)


@given(perms(5), perms(5))
def test_compose_pointwise(a, b):
    for x in range(5):
        assert (a * b)(x) == b(a(x))


@given(perms(6))
def test_inverse_cancels(a):
    assert (a * a.inverse()).is_identity()
    assert (a.inverse() * a).is_identity()


@given(perms(6))
def test_identity_neutral(b):
    e = Perm.identity(6)
    assert e * b == b
    assert b * e == b


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Perm.identity(3) * Perm.identity(4)


def test_closure_examples():
    assert len(closure_small([Perm.from_cycles(2, (0, 1))])) == 2
    s3 = closure_small([Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))])
    assert len(s3) == 6
    assert closure_small([], degree=5) == frozenset({Perm.identity(5)})


def test_closure_guard():
    gens = [Perm.from_cycles(8, (0, 1)), Perm.from_cycles(8, tuple(range(8)))]
    with pytest.raises(ClosureTooLarge):
        closure_small(gens, limit=100)


def test_schreier_sims_s15():
    gens = [Perm.from_cycles(15, (0, 1)), Perm.from_cycles(15, tuple(range(15)))]
    assert schreier_sims(gens).order == 1307674368000


def test_schreier_sims_a4_matches_closure():
    gens = [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))]
    group = schreier_sims(gens)
    assert group.order == 12
    assert group.order == len(closure_small(gens))


def test_schreier_sims_empty():
    assert schreier_sims([], degree=5).order == 1


def a15():
    return schreier_sims([
        Perm.from_cycles(15, (0, 1, 2)),
        Perm.from_cycles(15, tuple(range(15))),
    ])


def test_a15_membership():
    group = a15()
    assert group.order == math.factorial(15) // 2
    assert group.contains(Perm.from_cycles(15, (3, 7, 9)))
    assert not group.contains(Perm.from_cycles(15, (13, 14)))
    assert group.contains(Perm.identity(15))


def test_every_generator_passes_membership():
    group = a15()
    for g in group.generators:
        assert group.contains(g)


def test_recognize_examples():
    assert recognize(schreier_sims([Perm.from_cycles(4, (0, 1, 2, 3))])) == "cyclic(4)"
    assert recognize(schreier_sims([], degree=3)) == "trivial"
    assert recognize(a15()) == "alternating"
    s4 = schreier_sims([Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (0, 1, 2, 3))])
    assert recognize(s4) == "symmetric"
    # order 2 on two points reports cyclic, not symmetric
    assert recognize(schreier_sims([Perm.from_cycles(2, (0, 1))])) == "cyclic(2)"


def test_alternating_contains_every_three_cycle():
    # order 15!/2 plus membership of all C(15,3) * 2 oriented 3-cycles
    from itertools import combinations
    group = a15()
    assert recognize(group) == "alternating"
    for a, b, c in combinations(range(15), 3):
        assert group.contains(Perm.from_cycles(15, (a, b, c)))
        assert group.contains(Perm.from_cycles(15, (a, c, b)))


def test_recognize_other_for_klein_four():
    gens = [Perm.from_cycles(4, (0, 1), (2, 3)), Perm.from_cycles(4, (0, 2), (1, 3))]
    assert recognize(schreier_sims(gens)) == "other"


def test_recognize_stable_under_reshuffling():
    gens = [
        Perm.from_cycles(6, (0, 1, 2)),
        Perm.from_cycles(6, (3, 4)),
        Perm.from_cycles(6, (0, 3), (1, 4), (2, 5)),
    ]
    tags = set()
    for seed in range(6):
        shuffled = gens[:]
        random.Random(seed).shuffle(shuffled)
        tags.add(recognize(schreier_sims(shuffled)))
    assert len(tags) == 1


def random_generating_sets(seed, count, max_degree=8, max_order=10 ** 5):
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        degree = rng.randint(3, max_degree)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(tuple(images)))
        try:
            cl = closure_small(gens, degree=degree, limit=max_order)
        except ClosureTooLarge:
            continue
        sets.append((degree, gens, cl))
    return sets


def test_order_matches_closure_on_random_sets():
    for degree, gens, cl in random_generating_sets(seed=11, count=15):
        assert schreier_sims(gens, degree=degree).order == len(cl)


def test_contains_matches_closure_on_random_sets():
    rng = random.Random(23)
    for degree, gens, cl in random_generating_sets(seed=5, count=8, max_degree=6):
        group = schreier_sims(gens, degree=degree)
        for p in cl:
            assert group.contains(p)
        for _ in range(20):
            images = list(range(degree))
            rng.shuffle(images)
            p = Perm(tuple(images))
            assert group.contains(p) == (p in cl)


def signed_perms(k):
    return st.tuples(
        st.permutations(list(range(k))),
        st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k),
    ).map(lambda t: SignedPerm(Perm(tuple(t[0])), tuple(t[1])))


@given(signed_perms(4), signed_perms(4))
def test_signed_parity_is_homomorphism(a, b):
    # the sign count's parity, read as i_invariant reads it: the bits of corner 0's image
    def parity(s):
        return s.apply_index(0).bit_count() & 1
    assert parity(a * b) == parity(a) ^ parity(b)


@given(signed_perms(5))
def test_signed_inverse(a):
    assert (a * a.inverse()).is_identity()


# Differential checks of the incremental chain on seeded random inputs.

def _random_support_perm(rng, degree):
    """A random permutation of a random set of 2..6 points."""
    support = rng.sample(range(degree), rng.randint(2, min(6, degree)))
    moved = support[:]
    rng.shuffle(moved)
    images = list(range(degree))
    for a, b in zip(support, moved):
        images[a] = b
    return Perm(tuple(images))


def _messy(rng, gens, degree):
    """The same generating set with duplicates and identities mixed in,
    shuffled."""
    out = list(gens) + [rng.choice(gens) for _ in range(rng.randint(1, 4))]
    out += [Perm.identity(degree)] * rng.randint(1, 3)
    rng.shuffle(out)
    return out


def _is_input_ordered_subset(kept, given):
    it = iter(given)
    return all(any(k is g for g in it) for k in kept)


def test_incremental_chain_matches_closure_on_messy_inputs():
    rng = random.Random(2024)
    for degree, gens, cl in random_generating_sets(seed=31, count=25, max_degree=7):
        messy = _messy(rng, gens, degree)
        group = schreier_sims(messy, degree=degree)
        assert group.order == len(cl)
        assert _is_input_ordered_subset(group.generators, messy)
        assert len(set(group.generators)) == len(group.generators)
        assert not any(g.is_identity() for g in group.generators)
        assert closure_small(group.generators, degree=degree) == cl
        for p in cl:
            assert group.contains(p)
        for _ in range(20):
            images = list(range(degree))
            rng.shuffle(images)
            p = Perm(tuple(images))
            assert group.contains(p) == (p in cl)


def test_kept_generators_generate_the_same_group():
    rng = random.Random(77)
    for _ in range(40):
        degree = rng.randint(2, 30)
        gens = [_random_support_perm(rng, degree) for _ in range(rng.randint(1, 6))]
        messy = _messy(rng, gens, degree)
        group = schreier_sims(messy, degree=degree)
        assert _is_input_ordered_subset(group.generators, messy)
        again = schreier_sims(group.generators, degree=degree)
        assert again.order == group.order
        assert again.generators == group.generators
        assert all(again.contains(g) for g in messy)


def test_chain_is_deterministic():
    rng = random.Random(5)
    for _ in range(10):
        degree = rng.randint(5, 20)
        gens = [_random_support_perm(rng, degree) for _ in range(4)]
        first, second = schreier_sims(gens), schreier_sims(list(gens))
        assert (first.base, first.generators, first.order) == \
            (second.base, second.generators, second.order)


def test_order_matches_sympy_up_to_degree_30():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(99)
    for degree in list(range(2, 31)) + [30] * 10:
        gens = [_random_support_perm(rng, degree) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(tuple(images)))
        want = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens]).order()
        assert schreier_sims(_messy(rng, gens, degree), degree=degree).order == want


def test_recognize_skips_duplicate_and_identity_generators():
    swap = Perm.from_cycles(5, (1, 3))
    gens = [swap] * 3000 + [Perm.identity(5)] * 3000
    random.Random(1).shuffle(gens)
    group = schreier_sims(gens)
    assert group.generators == (swap,)
    assert recognize(group) == "cyclic(2)"


@given(st.integers(0, 9).flatmap(perms))
def test_unchecked_perm_equals_the_checked_one(p):
    q = Perm._of(p.images)
    assert q == p and hash(q) == hash(p) and q.images is p.images
    assert (q * p).images == (p * p).images and q.inverse() == p.inverse()


def test_checked_perm_still_rejects_what_is_not_a_permutation():
    for images in [(0, 0), (1,), (0, 2), (1, 2, 0, 0)]:
        with pytest.raises(ValueError, match="not a permutation"):
            Perm(images)
    assert (Perm((1, 0)) * Perm((1, 0))).is_identity()
    with pytest.raises(DegreeMismatch):
        Perm((1, 0)) * Perm.identity(3)


# Where the package may build a Perm without checking its images: only
# from products, inverses and conjugates of permutations.  A call on
# parsed input (serialize, the residual of games.reachable) must fail.
UNCHECKED_PERM_SITES = {
    "permgroup.Perm.__mul__",
    "permgroup.Perm.inverse",
    "permgroup.PermGroup.conjugate",
    "holonomy.holonomy",
}


def test_unchecked_perms_are_built_only_from_products():
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _nodes_by_owner(path):
            if isinstance(node, ast.Attribute) and node.attr == "_of" \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "HomCell"):
                sites.add(f"{path.stem}.{owner}")
    assert sites == UNCHECKED_PERM_SITES
