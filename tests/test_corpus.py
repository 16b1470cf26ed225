import hashlib
import subprocess
import sys
from pathlib import Path

from groupoids.corpus import (
    CorpusItem,
    cube_grid_patch,
    cube_skeleton,
    cycle_complex,
    grid_patch,
    octahedron_boundary,
    quotient_example,
    random_corpus,
    simplex_boundary,
    single_cube,
    strip_complex,
    triangle_strip,
)
from groupoids.serialize import complex_to_dict


def test_named_generators_validate():
    # construction itself runs full validation; just touch each one
    cycle_complex(9)
    simplex_boundary(4)
    octahedron_boundary()
    triangle_strip(6)
    single_cube(4)
    grid_patch(3, 2)
    cube_grid_patch(2, 2, 2)
    cube_skeleton(4, 3)
    strip_complex(6, twisted=True)
    quotient_example()


def test_grid_patch_coords_align():
    K, coords = grid_patch(2, 3)
    assert len(coords) == K.vertex_count
    assert sorted(coords) == sorted(
        (x, y) for x in range(3) for y in range(4))


def test_cube_skeleton_counts():
    surface, _ = cube_skeleton(3, 2)
    assert len(surface.cubes) == 6
    assert surface.vertex_count == 8
    edges, _ = cube_skeleton(3, 1)
    assert len(edges.cubes) == 12


def test_random_corpus_deterministic():
    a = random_corpus(seed=42, count=20)
    b = random_corpus(seed=42, count=20)
    assert [i.name for i in a] == [i.name for i in b]
    assert [complex_to_dict(i.complex) for i in a] == \
           [complex_to_dict(i.complex) for i in b]
    c = random_corpus(seed=43, count=20)
    assert [i.name for i in a] != [i.name for i in c]


def test_random_corpus_mixes_kinds():
    kinds = {item.kind for item in random_corpus(seed=0, count=80)}
    assert {"grid_subset", "strip", "cube_skeleton"} <= kinds


def test_random_corpus_items_have_coords_when_lattice():
    for item in random_corpus(seed=1, count=30):
        if item.kind in ("grid_subset", "cube3d_subset", "cube_skeleton"):
            assert item.coords is not None
            assert len(item.coords) == item.complex.vertex_count


# digests of the generators' output, each item as (name, cubes, vertex count, coords)
CORPUS_DIGEST = "3c71d07106b3647f5af9a01f1552bb3cd9e8f17c97929e4fae00c2c5f8676ee0"
GENERATORS_DIGEST = "db1f15c659e40999c0c37ea2de3b20c7b73a5f2c8bbf3b02e2ae812d5b36b91b"


def _digest(items) -> str:
    """sha256 over the repr of each (name, cubes, vertex count, coords)."""
    h = hashlib.sha256()
    for name, K, coords in items:
        h.update(repr((name, K.cubes, K.vertex_count, coords)).encode())
    return h.hexdigest()


def test_random_corpus_numbering_is_pinned():
    # any change to a generator's vertex or corner numbering moves this digest
    items = [(item.name, item.complex, item.coords)
             for seed in (0, 1, 2) for item in random_corpus(seed, 800)]
    assert _digest(items) == CORPUS_DIGEST


def test_named_cubical_generators_numbering_is_pinned():
    items = [(f"skel{d}-{k}", *cube_skeleton(d, k)) for d in range(2, 6) for k in range(1, d)]
    items += [(f"strip{n}{t}", strip_complex(n, t), None)
              for n in range(3, 9) for t in (False, True)]
    items += [(f"cube{k}", single_cube(k), None) for k in range(1, 6)]
    items += [("grid3x2", *grid_patch(3, 2)), ("cubes2x2x2", *cube_grid_patch(2, 2, 2)),
              ("quotient", quotient_example(), None)]
    assert _digest(items) == GENERATORS_DIGEST


SWEEP_OUTPUT = """\
swept 200 complexes (seed 0)
  cube3d_subset    30   i=0,nacl=0: 30
  cube_skeleton    28   i=0,nacl=0: 28
  grid_subset      96   i=0,nacl=0: 96
  quotient          8   i=0,nacl=0: 5  i=0,nacl=1: 3
  strip            38   i=0,nacl=0: 18  i=1,nacl=1: 20
connectivity hypotheses held on 153 samples
no violations: i <= nacl everywhere, equality under hypotheses
"""


def test_sweep_invariants_output_is_pinned():
    # the sweep rebuilds its quotient items through `quotient_identify`
    # and exits 1 on any item with i > nacl
    script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_invariants.py"
    done = subprocess.run([sys.executable, str(script), "--seed", "0", "--count", "200"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == SWEEP_OUTPUT
