#!/usr/bin/env python3
"""Regenerate the bundled corpus files from the named constructors.

The bundled files are committed so the test suite and CLI examples run
offline; this script exists to rebuild them reproducibly.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupoids.corpus import (
    cube_skeleton,
    cycle_complex,
    grid_patch,
    octahedron_boundary,
    quotient_example,
    simplex_boundary,
    single_cube,
    strip_complex,
    triangle_strip,
)
from groupoids.games import fifteen_puzzle_states
from groupoids.graphconn import cycle_connection, rotation_connection
from groupoids.homcx import complete_graph
from groupoids.serialize import complex_to_dict, connection_to_dict, state_to_dict


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    out = Path(__file__).resolve().parents[1] / "src" / "groupoids" / "corpus_data"
    out.mkdir(exist_ok=True)

    files = {}
    for n in range(3, 12):
        files[f"c{n}.json"] = complex_to_dict(cycle_complex(n))
    files["tetrahedron-boundary.json"] = complex_to_dict(simplex_boundary(3))
    files["octahedron-boundary.json"] = complex_to_dict(octahedron_boundary())
    files["triangle-strip.json"] = complex_to_dict(triangle_strip(4))
    files["square.json"] = complex_to_dict(grid_patch(1, 1)[0])
    files["cube.json"] = complex_to_dict(single_cube(3))
    files["cube-surface.json"] = complex_to_dict(cube_skeleton(3, 2)[0])
    files["cube4-skeleton2.json"] = complex_to_dict(cube_skeleton(4, 2)[0])
    files["grid2x2.json"] = complex_to_dict(grid_patch(2, 2)[0])
    files["grid3x3.json"] = complex_to_dict(grid_patch(3, 3)[0])
    files["strip-odd.json"] = complex_to_dict(strip_complex(5, twisted=False))
    files["twisted-strip.json"] = complex_to_dict(strip_complex(4, twisted=True))
    files["quotient-example.json"] = complex_to_dict(quotient_example())
    files["tribar.json"] = {"kind": "builtin", "name": "tribar"}

    _, start, swapped = fifteen_puzzle_states()
    files["fifteen-ordered-state.json"] = state_to_dict(start)
    files["fifteen-swapped-state.json"] = state_to_dict(swapped)

    files["c4-connection.json"] = connection_to_dict(cycle_connection(4))
    files["k4-rotation-connection.json"] = connection_to_dict(
        rotation_connection(complete_graph(4)))

    for name, payload in sorted(files.items()):
        (out / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(files)} files to {out}")


if __name__ == "__main__":
    main()
