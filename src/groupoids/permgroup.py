"""Permutations, signed permutations, and deterministic stabilizer chains.

Composition convention
----------------------
Products read left to right: ``a * b`` means "apply ``a`` first, then
``b``", so ``(a * b)(x) == b(a(x))``.  Transport along a path written
source-to-target is then a plain left-to-right product of the step
bijections.

Group orders are exact Python integers; nothing here overflows.

Two group types answer the same read-only queries (``degree``,
``generators``, ``order``, ``base``, ``contains``): ``PermGroup``,
carried by a stabilizer chain, and ``GiantGroup``, a symmetric or
alternating group known by a theorem, which needs no chain.
``jordan_giant`` certifies giants from their generators by Jordan's
theorem.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Sequence


class DegreeMismatch(ValueError):
    """Permutations of different degrees were combined."""


class ClosureTooLarge(RuntimeError):
    """Brute-force closure exceeded its element budget."""


# Raw tuple helpers used in hot loops.  images[i] is the image of point i.

def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # apply a first, then b; itemgetter of a single index returns a bare item
    return itemgetter(*a)(b) if len(a) > 1 else tuple(b[x] for x in a)


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _cycle_lengths(a: tuple[int, ...]) -> list[int]:
    """The length of every cycle of a, fixed points included."""
    seen = bytearray(len(a))
    lengths = []
    for i in range(len(a)):
        length = 0
        while not seen[i]:
            seen[i] = 1
            i = a[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _parity(a: tuple[int, ...]) -> int:
    # a permutation of n points with c cycles (fixed points included) is
    # a product of n - c transpositions
    return (len(a) - len(_cycle_lengths(a))) % 2


@dataclass(frozen=True)
class Perm:
    """A permutation of {0, ..., n-1} stored as its image tuple.

    ``Perm(images)`` checks that the images are a permutation; build
    every permutation read from input that way.  ``Perm._of(images)``
    skips the check, for image tuples that are a product, an inverse or
    a conjugate of permutations; it makes a ``Perm`` equal to, and
    hashing like, the checked one."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images!r}")

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> Perm:
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, *cycles: Sequence[int]) -> "Perm":
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return Perm(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # left-to-right: self acts first
        if len(self.images) != len(other.images):
            raise DegreeMismatch(f"{len(self.images)} vs {len(other.images)}")
        return Perm._of(_mul(self.images, other.images))

    def inverse(self) -> "Perm":
        return Perm._of(_inv(self.images))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return math.lcm(*_cycle_lengths(self.images))

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return _parity(self.images)


def closure_small(gens: Iterable[Perm], degree: int | None = None,
                  limit: int = 10 ** 6) -> frozenset[Perm]:
    """All elements of <gens> by breadth-first multiplication.

    Intended as an oracle for small groups; raises ClosureTooLarge past
    ``limit`` elements.
    """
    gens = list(gens)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DegreeMismatch("mixed degrees in generating set")
    raw = [g.images for g in gens]
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in raw:
                c = _mul(a, g)
                if c not in elements:
                    elements.add(c)
                    nxt.append(c)
                    if len(elements) > limit:
                        raise ClosureTooLarge(f"more than {limit} elements")
        frontier = nxt
    return frozenset(Perm(t) for t in elements)


class _Level:
    """One level of a stabilizer chain: a base point beta and, for each
    point gamma of its orbit, the inverse of a coset representative u
    with u(beta) == gamma.  Sifting needs nothing else."""

    __slots__ = ("beta", "inverses")

    def __init__(self, beta: int, inverses: dict[int, tuple[int, ...]]):
        self.beta = beta
        self.inverses = inverses


class _GrowingLevel:
    """A level while its chain is built.

    Its strong generators and its orbit only ever grow: a new point is
    appended with its representative and that representative's inverse,
    and no point ever changes its representative.  ``checked[k]`` counts
    the generators whose Schreier generator at ``orbit[k]`` has been
    sifted, so each (orbit point, generator) pair is sifted once.
    """

    __slots__ = ("beta", "gens", "gen_inverses", "orbit", "reps", "inverses", "checked")

    def __init__(self, beta: int, degree: int):
        ident = tuple(range(degree))
        self.beta = beta
        self.gens: list[tuple[int, ...]] = []
        self.gen_inverses: list[tuple[int, ...]] = []
        self.orbit = [beta]
        self.reps = {beta: ident}
        self.inverses = {beta: ident}
        self.checked = [0]

    def add(self, s: tuple[int, ...]) -> None:
        """Append a strong generator and extend the orbit in place."""
        self.gens.append(s)
        self.gen_inverses.append(_inv(s))
        orbit, reps, inverses = self.orbit, self.reps, self.inverses
        # the old points meet only s; every new point meets all generators
        old = len(orbit)
        pairs = [(s, self.gen_inverses[-1])]
        k = 0
        while k < len(orbit):
            if k == old:
                pairs = list(zip(self.gens, self.gen_inverses))
            gamma = orbit[k]
            for t, t_inv in pairs:
                delta = t[gamma]
                if delta not in reps:
                    orbit.append(delta)
                    reps[delta] = _mul(reps[gamma], t)
                    inverses[delta] = _mul(t_inv, inverses[gamma])
                    self.checked.append(0)
            k += 1

    def sift_pending(self, chain: list[_GrowingLevel], i: int):
        """Sift the Schreier generators of this level (level ``i``) not
        yet sifted through the levels below it.  Returns the first
        residue that is not the identity with the level it stopped at,
        or None when every pair passes."""
        gens, reps, inverses, checked = self.gens, self.reps, self.inverses, self.checked
        ident = self.reps[self.beta]
        for k, gamma in enumerate(self.orbit):
            done = checked[k]
            if done == len(gens):
                continue
            u = reps[gamma]
            for m in range(done, len(gens)):
                checked[k] = m + 1
                s = gens[m]
                us = _mul(u, s)
                delta = s[gamma]
                if us == reps[delta]:
                    continue
                residue, j = _sift(chain, _mul(us, inverses[delta]), i + 1)
                if residue != ident:
                    return residue, j
        return None


def _sift(chain: Sequence[_Level | _GrowingLevel], p: tuple[int, ...], start: int = 0):
    """Strip p through the chain; returns (residue, level reached)."""
    for lvl in range(start, len(chain)):
        level = chain[lvl]
        u_inv = level.inverses.get(p[level.beta])
        if u_inv is None:
            return p, lvl
        p = _mul(p, u_inv)
    return p, len(chain)


def _add_strong(chain: list[_GrowingLevel], residue: tuple[int, ...],
                first: int, last: int, degree: int) -> None:
    """Give a residue that fixes the base points before level ``last`` to
    levels first..last, opening level ``last`` when the chain is that short."""
    if last == len(chain):
        beta = next(p for p, x in enumerate(residue) if x != p)
        chain.append(_GrowingLevel(beta, degree))
    for level in chain[first:last + 1]:
        level.add(residue)


@dataclass(frozen=True)
class PermGroup:
    """Permutation group carried by a base and strong generating set.

    ``generators`` holds the input generators that enlarged the group
    when :func:`schreier_sims` added them, in input order: a subset of
    the input that generates the same group, without duplicates, the
    identity or any generator already in the group of those before it.
    A group made by :meth:`conjugate` holds the conjugates of those
    generators instead, not a subset of any input.

    Built once by :func:`schreier_sims` or :meth:`conjugate`; afterwards
    every query is read-only, so instances are safe to share between
    threads.  A group known to be symmetric or alternating can be a
    :class:`GiantGroup` instead, which answers the same queries without
    a chain.
    """

    degree: int
    generators: tuple[Perm, ...]
    chain: tuple[_Level, ...] = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        n = 1
        for level in self.chain:
            n *= len(level.inverses)
        return n

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.beta for level in self.chain)

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"{p.degree} vs {self.degree}")
        residue, _ = _sift(self.chain, p.images)
        return all(i == x for i, x in enumerate(residue))

    def conjugate(self, t: tuple[int, ...]) -> "PermGroup":
        """The conjugate group t^-1 G t, whose elements are x -> t(g(t^-1(x)))
        for g in G, with no new sifting.

        Each base point beta becomes t(beta), and the inverse
        representative stored for gamma becomes t^-1 u^-1 t, stored for
        t(gamma); ``generators`` are conjugated alike.  O(sum of the
        orbit sizes x degree)."""
        t_inv = _inv(t)
        return PermGroup(
            degree=self.degree,
            generators=tuple(Perm._of(_mul(_mul(t_inv, g.images), t)) for g in self.generators),
            chain=tuple(_Level(t[level.beta], {t[gamma]: _mul(_mul(t_inv, u_inv), t)
                                                for gamma, u_inv in level.inverses.items()})
                        for level in self.chain))


@dataclass(frozen=True)
class GiantGroup:
    """The symmetric group S_m on {0, ..., m-1}, or the alternating group
    A_m when ``alternating``, known without a stabilizer chain.

    It answers the queries of :class:`PermGroup`.  ``order`` is m! or
    m!/2; ``base`` is 0..m-2 or 0..m-3, the base of the natural chain;
    ``contains`` is a degree check and, for A_m, a parity check.
    ``generators`` is the standard pair: (0 1) and (0 1 ... m-1) for
    S_m; (0 1 2) and (0 1 ... m-1) for A_m with m odd, (0 1 2) and
    (1 2 ... m-1) with m even (the two coincide for A_3).
    """

    degree: int
    alternating: bool = False

    def __post_init__(self):
        if self.degree < 3:
            raise ValueError(f"giant group of degree {self.degree} < 3")

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        m = self.degree
        if not self.alternating:
            return Perm.from_cycles(m, (0, 1)), Perm.from_cycles(m, range(m))
        long = range(m) if m % 2 else range(1, m)
        return tuple(dict.fromkeys((Perm.from_cycles(m, (0, 1, 2)),
                                    Perm.from_cycles(m, long))))

    @property
    def order(self) -> int:
        return math.factorial(self.degree) // (2 if self.alternating else 1)

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(range(self.degree - (2 if self.alternating else 1)))

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"{p.degree} vs {self.degree}")
        return not self.alternating or _parity(p.images) == 0

    def conjugate(self, t: tuple[int, ...]) -> "GiantGroup":
        """S_m and A_m are normal in S_m: every conjugate is the group itself."""
        return self


def schreier_sims(gens: Iterable[Perm], degree: int | None = None) -> PermGroup:
    """Deterministic incremental Schreier-Sims: exact order and
    membership tests.

    The input generators are added one at a time.  Each is first sifted
    through the chain of those before it; one that sifts to the identity
    already lies in their group and is skipped.  Otherwise its residue
    joins the strong generators, and the chain is completed again from
    the deepest level it reached upwards, sifting each Schreier generator
    once (Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 4.4).  The returned group's ``generators`` are the input
    generators that were not skipped, in input order.

    No randomization; identical input always yields the identical chain
    and the identical ``generators``.
    """
    gens = tuple(gens)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DegreeMismatch("mixed degrees in generating set")
    ident = tuple(range(degree))
    chain: list[_GrowingLevel] = []
    kept = []
    for g in gens:
        residue, j = _sift(chain, g.images)
        if residue == ident:
            continue
        kept.append(g)
        _add_strong(chain, residue, 0, j, degree)
        i = j
        while i >= 0:
            failed = chain[i].sift_pending(chain, i)
            if failed is None:
                i -= 1
            else:
                residue, j = failed
                _add_strong(chain, residue, i + 1, j, degree)
                i = j
    return PermGroup(degree=degree, generators=tuple(kept),
                     chain=tuple(_Level(level.beta, level.inverses) for level in chain))


def _find(parent: list[int], x: int) -> int:
    """The root of the class of x in a union-find forest, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _transitive(gens: Iterable[tuple[int, ...]], degree: int) -> bool:
    """Whether the image tuples ``gens`` join the points 0..degree-1 into
    one orbit: a union-find over the points, to which each generator in
    turn joins every point with its image, stopping as soon as one class
    is left."""
    parent, classes = list(range(degree)), degree
    for a in gens:
        for x, y in enumerate(a):
            rx, ry = _find(parent, x), _find(parent, y)
            if rx != ry:
                parent[rx] = ry
                classes -= 1
                if classes == 1:
                    return True
    return classes <= 1


# Random group elements jordan_giant tries after the generators.  In a
# giant of degree n, a share 1/p of the elements has a p-cycle for each
# prime p > n/2, about ln 2 / ln n in all and at least 1 in 11 from
# degree 8 to 2000, so a giant almost never runs out; a group that is
# not giant runs the whole walk.
JORDAN_BUDGET = 100


def jordan_giant(gens: Iterable[Perm], degree: int) -> GiantGroup | None:
    """<gens> as a ``GiantGroup`` when Jordan's theorem certifies it, else None.

    The certificate has two parts: <gens> is transitive, and some element
    has a cycle of prime length p with n/2 < p <= n - 3, where n is the
    degree.  Transitivity is a union-find over the points that takes the
    generators in the order given and stops at the first one that leaves
    a single class, so a transitive set is seldom read to its end.  The
    element is looked for first among the generators, then along a
    product-replacement walk of ``JORDAN_BUDGET`` steps, seeded with a
    fixed seed so that the same generators always give the same answer
    (Seress, *Permutation Group Algorithms*, 10.2).

    Proof.  The other cycles of such an element have lengths at most
    n - p < p, hence prime to p, so a power of the element is a p-cycle
    c.  A transitive group containing c is primitive: a block system
    with blocks of size b, 1 < b <= n/2, has n/b < p blocks, and the
    orbits of <c> on the blocks have size 1 or p, so c fixes every
    block; then the p points that c moves, one orbit of <c>, lie in one
    block, of size at least p > n/2.  A primitive group containing a p-cycle with p <= n - 3
    contains A_n (Jordan; Wielandt, *Finite Permutation Groups*, 13.9).
    It is S_n when some generator is odd, A_n otherwise.

    None means only that no certificate was found: below degree 8 there
    is no such prime, and fewer than two distinct non-identity
    generators make a cyclic group, which is never giant there.
    """
    if degree < 8:
        return None
    ident = tuple(range(degree))
    raw = [a for a in dict.fromkeys(g.images for g in gens) if a != ident]
    if any(len(a) != degree for a in raw):
        raise DegreeMismatch("mixed degrees in generating set")
    if len(raw) < 2 or not _transitive(raw, degree):
        return None
    primes = {p for p in range(degree // 2 + 1, degree - 2)
              if all(p % q for q in range(2, math.isqrt(p) + 1))}

    def certifies(a: tuple[int, ...]) -> bool:
        return not primes.isdisjoint(_cycle_lengths(a))

    if not any(map(certifies, raw)):
        rng = random.Random(0)
        slots = (raw * 10)[:max(10, len(raw))]
        for _ in range(JORDAN_BUDGET):
            i, j = rng.sample(range(len(slots)), 2)
            slots[i] = _mul(slots[i], slots[j]) if rng.random() < 0.5 else _mul(slots[j], slots[i])
            if certifies(slots[i]):
                break
        else:
            return None
    return GiantGroup(degree, alternating=not any(map(_parity, raw)))


def recognize(group: PermGroup | GiantGroup) -> str:
    """Name a group when the evidence is conclusive.

    Returns one of "trivial", "cyclic(k)", "alternating", "symmetric",
    or "other".  Cyclicity is decided exactly (abelian generators whose
    order lcm equals the group order); symmetric/alternating by order
    comparison against the full degree, with a generator-parity check.
    Ambiguous cases come back "other" rather than a guess.
    """
    if group.order == 1:
        return "trivial"
    gens = [g for g in group.generators if not g.is_identity()]
    if all(a * b == b * a for a, b in combinations(gens, 2)):
        exponent = math.lcm(*(g.order() for g in gens))
        if exponent == group.order:
            return f"cyclic({group.order})"
    n = group.degree
    if group.order == math.factorial(n):
        return "symmetric"
    if n >= 3 and group.order * 2 == math.factorial(n) \
            and all(g.parity() == 0 for g in gens):
        return "alternating"
    return "other"


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation: coordinate i maps to coordinate perm(i)
    carrying orientation signs[i].

    As a matrix, column i holds signs[i] in row perm(i); the group of
    these matrices is the symmetry group of the k-cube.  Products follow
    the same left-to-right convention as Perm.
    """

    perm: Perm
    signs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "signs", tuple(self.signs))
        if len(self.signs) != self.perm.degree:
            raise ValueError("signs length must match degree")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @staticmethod
    def identity(k: int) -> "SignedPerm":
        return SignedPerm(Perm.identity(k), (1,) * k)

    @property
    def degree(self) -> int:
        return self.perm.degree

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        # left-to-right: self acts first
        perm = self.perm * other.perm
        signs = tuple(self.signs[i] * other.signs[self.perm(i)]
                      for i in range(self.degree))
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        inv = self.perm.inverse()
        signs = tuple(self.signs[inv(i)] for i in range(self.degree))
        return SignedPerm(inv, signs)

    def is_identity(self) -> bool:
        return self.perm.is_identity() and all(s == 1 for s in self.signs)

    def apply_index(self, idx: int) -> int:
        """Act on a cube corner's flat index, whose bit i is coordinate i."""
        out = 0
        for i, (j, s) in enumerate(zip(self.perm.images, self.signs)):
            out |= ((idx >> i & 1) ^ (s < 0)) << j
        return out


def signed_parity(s: SignedPerm) -> int:
    """0 when the count of -1 signs is even, 1 otherwise."""
    return sum(1 for x in s.signs if x == -1) % 2


def all_in_even_subgroup(gens: Iterable[SignedPerm]) -> bool:
    """True when every generator has even sign count.

    Sign parity is a homomorphism onto Z_2, so even generators suffice
    for the whole generated group to be even.
    """
    return all(signed_parity(g) == 0 for g in gens)
