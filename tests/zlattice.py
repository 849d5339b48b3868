"""Integer lattices Z^d with the word metric of the standard generators.

A deliberately separate backend: the L1 balls here exist only so that
integer-line and integer-plane phenomena (coset transfers, the failure of
the bounded-displacement property on Z^2) are directly testable.  The lemma
checks of paper_checks.py run on these balls and on coxtile.coxeter.Ball
alike.  Used only by tests.
"""

from dataclasses import dataclass
from itertools import product

from coxtile.errors import OutOfBallError, ValidationError


@dataclass(frozen=True)
class ZLattice:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("lattice dimension must be positive")

    def norm(self, v) -> int:
        return sum(abs(x) for x in v)

    def ball(self, radius: int) -> "LatticeBall":
        if radius < 0:
            raise ValidationError("radius must be nonnegative")
        pts = [
            p
            for p in product(range(-radius, radius + 1), repeat=self.dim)
            if self.norm(p) <= radius
        ]
        pts.sort(key=lambda p: (self.norm(p), p))
        return LatticeBall(self, radius, pts, {p: i for i, p in enumerate(pts)})


@dataclass
class LatticeBall:
    lattice: ZLattice
    radius: int
    points: list[tuple[int, ...]]
    index: dict

    def __len__(self):
        return len(self.points)

    # group-ops protocol shared with coxeter.Ball (keys are integer tuples)

    def members(self):
        return self.points

    def norm(self, v) -> int:
        return self.lattice.norm(v)

    def mul(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def mul_norm(self, u, v):
        uv = self.mul(u, v)
        return uv, self.norm(uv)

    def inv(self, u):
        return tuple(-a for a in u)

    def contains(self, v) -> bool:
        return v in self.index

    def id_of(self, v) -> int:
        if v not in self.index:
            raise OutOfBallError(f"{v} outside radius-{self.radius} ball")
        return self.index[v]

    @property
    def identity(self):
        return (0,) * self.lattice.dim
