"""Regenerate triangle_spheres.json: exact sphere sizes of the (3,3,inf)
triangle group by breadth-first search over integer reflection matrices.

The search takes several seconds and a few hundred MB, so the benchmark
reads the pinned file instead of repeating it on every run.

    python3 perfbench/pin_spheres.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import exact_lengths  # noqa: E402

TRIANGLE = ((1, 3, 3), (3, 1, 0), (3, 0, 1))
RADIUS = 22
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "triangle_spheres.json")


def main():
    sizes, _ = exact_lengths(TRIANGLE, RADIUS)
    doc = {
        "matrix": [list(r) for r in TRIANGLE],
        "radius": RADIUS,
        "method": "breadth-first search keyed by exact integer reflection matrices",
        "sphere_sizes": sizes,
    }
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {PATH}: {sum(sizes)} elements, outer sphere {sizes[-1]}")


if __name__ == "__main__":
    main()
