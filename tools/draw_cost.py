"""Print the cost of a random vector, in microseconds, at the shapes verify draws.

For each shape (group, ball radius, support size) it times one
`random_vectors` call of 1000 vectors and 1000 `random_vector` calls of
one vector each, and prints the best of 5 runs of each per vector.  The
batch reads the ball and sets up its arrays once; the one-vector calls
pay for both every time.  Run from anywhere:

    python tools/draw_cost.py
"""

import pathlib
import sys
import timeit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from orliczlab.groups import Group  # noqa: E402
from orliczlab.space import random_vector, random_vectors  # noqa: E402

SHAPES = (
    ("Z^2", Group.free_abelian(2), 4, 6),
    ("H3", Group.heisenberg(), 3, 5),
    ("Z_7", Group.cyclic(7), 3, 5),
)
COUNT = 1000
REPEAT = 5


def per_vector_us(fn) -> float:
    return min(timeit.repeat(fn, number=1, repeat=REPEAT)) / COUNT * 1e6


def main() -> None:
    print(f"{'shape':<14}{'batch us':>10}{'one-by-one us':>15}")
    for name, group, radius, size in SHAPES:
        group.ball_array(radius)  # grow the BFS table outside the timing
        rng = np.random.default_rng(0)
        batch = per_vector_us(lambda: random_vectors(group, rng, radius, size, COUNT))
        single = per_vector_us(
            lambda: [random_vector(group, rng, radius, size) for _ in range(COUNT)]
        )
        print(f"{f'{name} r{radius} k{size}':<14}{batch:>10.1f}{single:>15.1f}")


if __name__ == "__main__":
    main()
