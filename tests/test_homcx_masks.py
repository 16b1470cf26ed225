"""The mask enumeration of hom complexes against the frozenset one.

The reference below is the frozenset implementation that the int-mask
cells replaced, kept verbatim (its cell class renamed ``RefCell``) so
that cells, their order, dimensions, f-vectors, Euler characteristics,
the swap action and the face relation can be compared case by case.
"""

import random
from dataclasses import dataclass
from typing import Sequence

import pytest

from groupoids import homcx
from groupoids.homcx import (
    Graph,
    HomCell,
    TooLarge,
    _validate_cell,
    check_budget,
    complete_graph,
    cycle_graph,
    euler_characteristic,
    f_vector,
    hom_complex,
    induced_swap_action,
    is_face,
    path_graph,
)


@dataclass(frozen=True)
class RefCell:
    """One cell: a nonempty H-vertex set per G-vertex."""

    eta: tuple[frozenset[int], ...]

    @property
    def dim(self) -> int:
        return sum(len(s) - 1 for s in self.eta)

    def support_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v in s) for s in self.eta)


def ref_validate_cell(G: Graph, H: Graph, cell: RefCell) -> bool:
    if len(cell.eta) != G.vertex_count or any(not s for s in cell.eta):
        return False
    for a, b in G.edges:
        for x in cell.eta[a]:
            for y in cell.eta[b]:
                if not H.has_edge(x, y):
                    return False
    return True


def ref_hom_complex(G: Graph, H: Graph, budget: int = 10 ** 7) -> tuple[RefCell, ...]:
    h = H.vertex_count
    if ((1 << h) - 1) ** G.vertex_count > budget:
        raise TooLarge("candidate support count exceeds the enumeration budget")
    full = (1 << h) - 1
    adj_mask = [sum(1 << w for w in H.adjacency[v]) for v in range(h)]
    neighbors_before = [
        [u for u in range(i) if G.has_edge(u, i)]
        for i in range(G.vertex_count)
    ]
    cells: list[RefCell] = []
    assignment: list[int] = []

    def submasks(mask: int):
        # nonempty submasks in increasing order
        out = []
        sub = mask
        while sub:
            out.append(sub)
            sub = (sub - 1) & mask
        return sorted(out)

    def allowed_mask(i: int) -> int:
        mask = full
        for u in neighbors_before[i]:
            common = full
            s = assignment[u]
            j = 0
            while s:
                if s & 1:
                    common &= adj_mask[j]
                s >>= 1
                j += 1
            mask &= common
        return mask

    def rec(i: int):
        if i == G.vertex_count:
            eta = tuple(frozenset(v for v in range(h) if m >> v & 1)
                        for m in assignment)
            cells.append(RefCell(eta))
            return
        for sub in submasks(allowed_mask(i)):
            assignment.append(sub)
            rec(i + 1)
            assignment.pop()

    if G.vertex_count:
        rec(0)
    cells.sort(key=lambda c: c.support_masks())
    return tuple(cells)


def ref_f_vector(cells: Sequence[RefCell]) -> tuple[int, ...]:
    if not cells:
        return ()
    top = max(c.dim for c in cells)
    counts = [0] * (top + 1)
    for c in cells:
        counts[c.dim] += 1
    return tuple(counts)


def ref_euler_characteristic(cells: Sequence[RefCell]) -> int:
    return sum((-1) ** c.dim for c in cells)


def ref_is_face(sub: RefCell, sup: RefCell) -> bool:
    return all(a <= b for a, b in zip(sub.eta, sup.eta))


def ref_induced_swap_action(cells: Sequence[RefCell]) -> tuple[tuple[int, ...], bool]:
    if any(len(c.eta) != 2 for c in cells):
        raise ValueError("swap action needs cells over a single edge")
    index = {c: i for i, c in enumerate(cells)}
    mapping = []
    fixed = False
    for c in cells:
        image = RefCell((c.eta[1], c.eta[0]))
        mapping.append(index[image])
        if image == c:
            fixed = True
    return tuple(mapping), not fixed


def random_graph(rng: random.Random, n: int) -> Graph:
    return Graph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n)
                          if rng.random() < 0.5))


def _random_pairs(count: int, seed: int = 11):
    rng = random.Random(seed)
    return [(random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 6)))
            for _ in range(count)]


K2 = complete_graph(2)
NAMED = (
    [(f"k2-k{n}", K2, complete_graph(n)) for n in range(1, 9)]
    + [(f"c{m}-k3", cycle_graph(m), complete_graph(3)) for m in (3, 4, 5)]
    + [("c4-k4", cycle_graph(4), complete_graph(4)), ("c4-c5", cycle_graph(4), cycle_graph(5)),
       ("p1-k3", path_graph(1), complete_graph(3)), ("p3-k4", path_graph(3), complete_graph(4)),
       ("p4-c5", path_graph(4), cycle_graph(5)),
       ("isolated-vertex", Graph(3, ((0, 1),)), complete_graph(3)),
       ("empty-g", Graph(0, ()), complete_graph(3)),
       ("edgeless-h", K2, Graph(3, ())), ("edgeless-g", Graph(2, ()), complete_graph(3))]
)
CASES = [(G, H) for _, G, H in NAMED] + _random_pairs(40)
IDS = [name for name, _, _ in NAMED] + [f"random-{i}" for i in range(40)]
BUDGET = 2 * 10 ** 5     # keeps the reference fast; larger pairs compare as TooLarge


@pytest.mark.parametrize("G,H", CASES, ids=IDS)
def test_mask_enumeration_matches_reference(monkeypatch, G, H):
    monkeypatch.setattr(homcx, "HOM_BUDGET", BUDGET)
    try:
        ref = ref_hom_complex(G, H, BUDGET)
    except TooLarge:
        with pytest.raises(TooLarge):
            hom_complex(G, H)
        return
    cells = hom_complex(G, H)
    assert [c.eta for c in cells] == [r.eta for r in ref]
    assert [c.dim for c in cells] == [r.dim for r in ref]
    assert f_vector(cells) == ref_f_vector(ref)
    assert euler_characteristic(cells) == ref_euler_characteristic(ref)
    for c, r in zip(cells, ref):
        again = HomCell(r.eta)
        assert again == c and hash(again) == hash(c)
        assert _validate_cell(G, H, c) and ref_validate_cell(G, H, r)
    if G.vertex_count == 2:
        action = induced_swap_action(cells)
        assert (action.mapping, action.fixed_point_free) == ref_induced_swap_action(ref)


def test_random_pairs_mostly_fit_the_budget():
    # the differential test above compares only TooLarge on the others
    def fits(G, H):
        try:
            ref_hom_complex(G, H, BUDGET)
        except TooLarge:
            return False
        return True

    assert sum(fits(G, H) for G, H in _random_pairs(40)) >= 30


@pytest.mark.parametrize("G,H", [(K2, complete_graph(4)), (cycle_graph(5), complete_graph(3)),
                                 (path_graph(3), cycle_graph(4))], ids=["k2-k4", "c5-k3", "p3-c4"])
def test_is_face_matches_reference_on_all_pairs(G, H):
    cells, ref = hom_complex(G, H), ref_hom_complex(G, H)
    assert [[is_face(a, b) for b in cells] for a in cells] == \
        [[ref_is_face(a, b) for b in ref] for a in ref]


def test_validation_rejects_what_the_reference_rejects():
    C5, H = cycle_graph(5), complete_graph(3)
    for eta in [(frozenset({0}),) * 5, (frozenset({0}), frozenset({1}), frozenset({0}),
                                        frozenset({1}), frozenset()),
                (frozenset({0, 1}), frozenset({2}), frozenset({0, 1}), frozenset({2}),
                 frozenset({1}))]:
        assert _validate_cell(C5, H, HomCell(eta)) == ref_validate_cell(C5, H, RefCell(eta))


@pytest.mark.parametrize("budget", [1, 2, 15, 16, 961, 10 ** 5, 10 ** 7])
def test_check_budget_is_the_candidate_count_rule(monkeypatch, budget):
    # the closed form the check avoids computing for large vertex counts
    monkeypatch.setattr(homcx, "HOM_BUDGET", budget)
    for g in range(30):
        for h in range(40):
            over = ((1 << h) - 1) ** g > budget
            try:
                check_budget(g, h)
                assert not over, (g, h)
            except TooLarge:
                assert over, (g, h)


def test_large_graphs_within_the_candidate_budget_enumerate():
    # only the CLI refuses graphs too large to build; built ones are enumerated
    assert hom_complex(path_graph(4000), complete_graph(1)) == ()
    assert hom_complex(Graph(0, ()), Graph(4000, ())) == ()
