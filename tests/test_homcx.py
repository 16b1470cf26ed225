import pytest

from groupoids import homcx
from groupoids.homcx import (
    EdgeNotInGraph,
    Graph,
    HomCell,
    TooLarge,
    _validate_cell,
    complete_graph,
    cycle_graph,
    euler_characteristic,
    f_vector,
    graph_by_name,
    hom_complex,
    induced_swap_action,
    is_face,
    restriction_map,
)

K2 = complete_graph(2)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 5),))


def test_graph_by_name():
    assert graph_by_name("k4").vertex_count == 4
    assert len(graph_by_name("c5").edges) == 5
    assert len(graph_by_name("p4").edges) == 3
    with pytest.raises(ValueError):
        graph_by_name("x3")


def test_hom_k2_k3_counts():
    cells = hom_complex(K2, complete_graph(3))
    assert f_vector(cells) == (6, 6)
    assert euler_characteristic(cells) == 0


def test_hom_k2_k2_is_two_points():
    cells = hom_complex(K2, K2)
    assert f_vector(cells) == (2,)
    assert all(c.dim == 0 for c in cells)


def test_hom_into_edgeless_graph_is_empty():
    cells = hom_complex(K2, Graph(3, ()))
    assert cells == ()
    assert euler_characteristic(cells) == 0
    assert f_vector(cells) == ()


@pytest.mark.parametrize("m,chi", [(3, 0), (4, 2), (5, 0), (6, 2)])
def test_hom_spheres(m, chi):
    assert euler_characteristic(hom_complex(K2, complete_graph(m))) == chi


def test_cells_revalidate_independently():
    for m in (3, 4):
        H = complete_graph(m)
        for cell in hom_complex(K2, H):
            assert _validate_cell(K2, H, cell)
    H = complete_graph(3)
    for cell in hom_complex(cycle_graph(5), H):
        assert _validate_cell(cycle_graph(5), H, cell)


def test_cells_closed_under_shrinking():
    cells = set(hom_complex(K2, complete_graph(4)))
    for cell in cells:
        for i in (0, 1):
            for v in cell.eta[i]:
                if len(cell.eta[i]) == 1:
                    continue
                smaller = list(cell.eta)
                smaller[i] = cell.eta[i] - {v}
                assert HomCell(tuple(smaller)) in cells


def test_swap_action_free_and_involutive():
    for m in (2, 3, 4, 5):
        cells = hom_complex(K2, complete_graph(m))
        action = induced_swap_action(cells)
        assert action.fixed_point_free
        for idx, image in enumerate(action.mapping):
            assert action.mapping[image] == idx
            assert cells[image].dim == cells[idx].dim
        # the action respects the face relation
        for i, a in enumerate(cells):
            for j, b in enumerate(cells):
                if is_face(a, b):
                    assert is_face(cells[action.mapping[i]], cells[action.mapping[j]])


def test_restriction_map():
    C5 = cycle_graph(5)
    H = complete_graph(3)
    cells = hom_complex(C5, H)
    for cell in cells:
        r = restriction_map(C5, cell, (0, 1))
        assert r.eta == (cell.eta[0], cell.eta[1])
        if cell.dim == 0:
            assert r.dim == 0
    with pytest.raises(EdgeNotInGraph):
        restriction_map(C5, cells[0], (0, 2))
    # (-1, 0) must not wrap to the edge (4, 0)
    for e in ((-1, 0), (0, 5), (2, 2)):
        with pytest.raises(EdgeNotInGraph):
            restriction_map(C5, cells[0], e)


def test_restriction_commutes_with_faces():
    C5 = cycle_graph(5)
    H = complete_graph(3)
    cells = hom_complex(C5, H)
    for a in cells:
        for b in cells:
            if is_face(a, b):
                assert is_face(restriction_map(C5, a, (1, 2)),
                               restriction_map(C5, b, (1, 2)))


def test_restriction_intertwines_edge_flip():
    # the cycle automorphism reflecting through edge (0, 1) swaps its
    # endpoints; restricting after the flip equals swapping after
    # restricting
    C5 = cycle_graph(5)
    H = complete_graph(3)
    cells = hom_complex(C5, H)
    flip = {0: 1, 1: 0, 2: 4, 3: 3, 4: 2}
    for cell in cells:
        flipped = HomCell(tuple(cell.eta[flip[i]] for i in range(5)))
        left = restriction_map(C5, flipped, (0, 1))
        right = restriction_map(C5, cell, (0, 1))
        assert left.eta == (right.eta[1], right.eta[0])


def test_guards():
    with pytest.raises(TooLarge):
        hom_complex(complete_graph(8), complete_graph(8))


def test_cell_budget_counts_the_cells_kept(monkeypatch):
    # K1 into K3 is one batch of seven cells; two free vertices into K3
    # are seven batches of seven
    for G, cells in ((complete_graph(1), 7), (Graph(2, ()), 49)):
        monkeypatch.setattr(homcx, "HOM_CELL_BUDGET", cells)
        assert len(hom_complex(G, complete_graph(3))) == cells
        monkeypatch.setattr(homcx, "HOM_CELL_BUDGET", cells - 1)
        with pytest.raises(TooLarge, match=f"more than {cells - 1} cells"):
            hom_complex(G, complete_graph(3))


def test_default_cell_budget_refuses_before_building():
    # 2^23 - 1 cells in one batch, inside the candidate budget
    with pytest.raises(TooLarge, match="more than 1000000 cells"):
        hom_complex(complete_graph(1), complete_graph(23))


def test_deep_graph_needs_no_recursion():
    """The candidate budget admits any vertex count into K1 or K0, deeper
    than the interpreter's recursion limit."""
    (cell,) = hom_complex(Graph(4000, ()), graph_by_name("k1"))
    assert cell.masks == (1,) * 4000 and cell.dim == 0
    path = Graph(3000, tuple((i, i + 1) for i in range(2999)))
    assert hom_complex(path, graph_by_name("k1")) == ()
    assert hom_complex(Graph(0, ()), K2) == ()
