#!/usr/bin/env python3
"""Write the seeded cubical test inputs in tests/complexes/.

Each file is a cubical complex of dimension 3 or 4 whose cubes list
their corners in a scrambled order: every cube's corners are moved by a
seeded cube symmetry (a coordinate permutation and a set of reflected
coordinates) and the vertices are then relabelled by a seeded
permutation.  The complex is the same up to isomorphism, but its flips
compose corner orders that are far from the identity, so the golden
``holonomy`` reports pin signed generators of non-trivial cube
symmetries.  The scrambling is written out here with plain bit
arithmetic so that it does not depend on the package's own cube code.

    PYTHONPATH=src python scripts/make_test_complexes.py
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from groupoids.corpus import cube_grid_patch, cube_skeleton
from groupoids.serialize import complex_to_dict

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {
    "skel4-3-scrambled.json": (lambda: cube_skeleton(4, 3)[0], 41),
    "skel5-4-scrambled.json": (lambda: cube_skeleton(5, 4)[0], 42),
    "cubes2x2x2-scrambled.json": (lambda: cube_grid_patch(2, 2, 2)[0], 43),
}


def scramble(doc: dict, seed: int) -> dict:
    """Move each cube's corners by a random cube symmetry, then relabel
    the vertices by a random permutation."""
    rng = random.Random(seed)
    k = doc["dim"]
    cubes = []
    for cube in doc["cubes"]:
        perm = rng.sample(range(k), k)
        flips = [rng.randrange(2) for _ in range(k)]
        moved = {}
        for key, v in cube.items():
            new = [0] * k
            for i, ch in enumerate(key):
                new[perm[i]] = int(ch) ^ flips[perm[i]]
            moved["".join(map(str, new))] = v
        cubes.append(moved)
    n = 1 + max(v for cube in cubes for v in cube.values())
    label = rng.sample(range(n), n)
    cubes = [{key: label[v] for key, v in cube.items()} for cube in cubes]
    return {"kind": "cubical", "dim": k, "cubes": cubes}


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    out = ROOT / "tests" / "complexes"
    out.mkdir(exist_ok=True)
    for name, (build, seed) in SOURCES.items():
        payload = scramble(complex_to_dict(build()), seed)
        (out / name).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(SOURCES)} files to {out}")


if __name__ == "__main__":
    main()
