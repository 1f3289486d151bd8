"""Aztec diamond / rectangle regions on the integer lattice.

Cells are addressed by diagonal coordinates (u, v) = (x + y, x - y) of their
centers, so that the Aztec rectangle AR(a, b) becomes the axis-aligned box
0 <= u <= 2b, 0 <= v <= 2a restricted to odd u + v.  A cell is white when u is
odd and black when u is even.  Boundary positions:

    NW side  (v = 0):     position i -> Cell(2i - 1, 0),        i = 1..b, white
    SE side  (v = 2a):    position s -> Cell(2s - 1, 2a),       s = 1..b, white
    NE side  (u = 2b):    position j -> Cell(2b, 2j - 1),       j = 1..a, black
    SW side  (u = 0):     position m -> Cell(0, 2a - 2m + 1),   m = 1..a, black
    gamma    (v = 2a+1):  position t -> Cell(2t - 2, 2a + 1),   t = 1..b, black

NW and SE positions count from the west and south corners, NE from the north
corner, SW from the south corner.  Gamma cells are the extra squares glued
under the SE staircase; position 1 sits in the south-corner notch, so a string
starting there forces the staircase reduction of the augmented rectangle down
to a diamond.

A configuration, AR(a, b) plus a gamma string minus beta and alpha defects,
is described only by numbers: ``DefectConfiguration`` holds a, b, the defect
addresses and the gamma positions, and checks each of them once, by
arithmetic, building no cell.  A ``Region`` is only a cell set;
``make_aztec_rectangle`` and ``DefectConfiguration.region`` build one for the
code that needs cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import InvalidConfigurationError, InvalidDefectError, InvalidParameterError

SIDES = ("NW", "NE", "SE", "SW")
WHITE_SIDES = ("NW", "SE")
BLACK_SIDES = ("NE", "SW")


class Cell(NamedTuple):
    """A unit lattice square in diagonal coordinates; u + v must be odd."""

    u: int
    v: int


def is_white(cell: Cell) -> bool:
    return cell.u % 2 == 1


@dataclass(frozen=True)
class DefectSpec:
    """Address of a boundary defect: side, 1-based position, defect class.

    ``kind`` is "beta" for removed white cells (NW/SE sides), "alpha" for
    removed black cells (NE/SW sides) and "gamma" for the added black cells
    under the SE side.  When omitted it is inferred from the side.
    """

    side: str
    position: int
    kind: str = ""

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise InvalidDefectError(f"unknown side {self.side!r}")
        if type(self.position) is not int:  # a bool is not a position either
            raise InvalidDefectError(f"position must be an int, got {self.position!r}")
        if self.position < 1:
            raise InvalidDefectError(f"position must be >= 1, got {self.position}")
        if not self.kind:
            inferred = "beta" if self.side in WHITE_SIDES else "alpha"
            object.__setattr__(self, "kind", inferred)
        if self.kind == "beta" and self.side not in WHITE_SIDES:
            raise InvalidDefectError(f"beta defects address white cells, not side {self.side}")
        if self.kind == "alpha" and self.side not in BLACK_SIDES:
            raise InvalidDefectError(f"alpha defects address black cells, not side {self.side}")
        if self.kind == "gamma" and self.side != "SE":
            raise InvalidDefectError("gamma squares sit along the SE side")
        if self.kind not in ("alpha", "beta", "gamma"):
            raise InvalidDefectError(f"unknown defect class {self.kind!r}")


@dataclass(frozen=True)
class Region:
    """An immutable finite set of cells."""

    cells: frozenset[Cell]

    @staticmethod
    def from_cells(cells: Iterable[Cell]) -> Region:
        cells = frozenset(Cell(u, v) for u, v in cells)
        for c in cells:
            if (c.u + c.v) % 2 == 0:
                raise InvalidParameterError(f"{c} is not a unit cell: u + v must be odd")
        return Region(cells)

    def __len__(self) -> int:
        return len(self.cells)

    def color_counts(self) -> tuple[int, int]:
        """Return (#white, #black)."""
        white = sum(1 for c in self.cells if is_white(c))
        return white, len(self.cells) - white


def make_aztec_rectangle(a: int, b: int) -> Region:
    """Canonical Aztec rectangle with a cells on the SW side and b on the NW."""
    if not 1 <= a <= b:
        raise InvalidParameterError(f"need 1 <= a <= b, got a={a}, b={b}")
    cells = frozenset(
        Cell(u, v) for u in range(2 * b + 1) for v in range(2 * a + 1) if (u + v) % 2 == 1
    )
    return Region(cells)


def _check_position(a: int, b: int, spec: DefectSpec) -> None:
    """Raise ``InvalidDefectError`` unless the address is on AR(a, b), or on its gamma string."""
    length = a if spec.side in BLACK_SIDES else b
    if spec.position > length:
        name = "gamma" if spec.kind == "gamma" else spec.side
        raise InvalidDefectError(f"{name} position {spec.position} out of range 1..{length}", spec)


def boundary_cell(a: int, b: int, spec: DefectSpec) -> Cell:
    """The cell of AR(a, b), or of its gamma string, that a defect address names."""
    _check_position(a, b, spec)
    side, pos = spec.side, spec.position
    if spec.kind == "gamma":
        return Cell(2 * pos - 2, 2 * a + 1)
    if side == "NW":
        return Cell(2 * pos - 1, 0)
    if side == "SE":
        return Cell(2 * pos - 1, 2 * a)
    if side == "NE":
        return Cell(2 * b, 2 * pos - 1)
    return Cell(0, 2 * a - 2 * pos + 1)


def perimeter_index(a: int, b: int, spec: DefectSpec) -> int:
    """Counterclockwise rank of a boundary address on AR(a, b), from SW position a.

    Sorting by it gives the order of ``boundary_cycle`` on AR(a, b) with or
    without a gamma string, which may run past b - a and start past 1: SW
    a..1, SE cells and gammas by increasing u, NE a..1, NW b..1; gamma 1
    hangs off the cut vertex SE 1, whose first visit the walk keeps, so it
    comes right after SE 1.  Ranks may skip values.
    """
    side, pos = spec.side, spec.position
    if side == "SW":
        return a - pos
    if side == "SE":
        u = 2 * pos - 2 if spec.kind == "gamma" else 2 * pos - 1
        return a + (2 * u if u else 3)
    if side == "NE":
        return 2 * a + 4 * b - pos
    return 2 * a + 5 * b - pos


@dataclass(frozen=True)
class DefectConfiguration:
    """AR(a, b) plus a string of gamma squares under the SE side, minus boundary defects.

    ``betas`` are beta-class and ``alphas`` alpha-class ``DefectSpec``s,
    distinct and in range, in tuples; ``gammas`` are consecutive SE positions
    inside 1..b, given as a tuple of ints or a range and kept as a range, so
    a string costs the same whatever its length.  a and b are ints.  All of
    it is checked here, each defect once, by arithmetic; cells are built only
    by ``region``.  An ``InvalidDefectError`` names the defect at fault in
    its ``defect``.
    """

    a: int
    b: int
    betas: tuple[DefectSpec, ...] = ()
    alphas: tuple[DefectSpec, ...] = ()
    gammas: range | tuple[int, ...] = range(0)

    def __post_init__(self) -> None:
        a, b, gammas = self.a, self.b, self.gammas
        if not all(type(x) is tuple for x in (self.betas, self.alphas)) or type(gammas) not in (tuple, range):
            raise InvalidConfigurationError("betas and alphas must be tuples, gammas a tuple or a range")
        if not all(type(x) is int for x in (a, b, *(gammas if type(gammas) is tuple else ()))):
            raise InvalidParameterError(f"a, b and the gammas must be ints, got {a!r}, {b!r}, {gammas!r}")
        if not 1 <= a <= b:
            raise InvalidParameterError(f"need 1 <= a <= b, got a={a}, b={b}")
        first, last = (gammas[0], gammas[-1]) if gammas else (1, 0)
        string = range(first, last + 1)
        if gammas != (string if type(gammas) is range else tuple(string)):
            raise InvalidParameterError(f"gamma squares must form one string, got {gammas}")
        if first < 1 or last > b:
            raise InvalidParameterError(
                f"gamma string {first}..{last} does not fit along the SE side (1..{b})"
            )
        object.__setattr__(self, "gammas", string)
        if any(d.kind != "beta" for d in self.betas):
            raise InvalidConfigurationError("betas must be beta-class defects")
        if any(d.kind != "alpha" for d in self.alphas):
            raise InvalidConfigurationError("alphas must be alpha-class defects")
        seen: set[tuple[str, int]] = set()  # the side fixes the kind
        for spec in self.betas + self.alphas:
            _check_position(a, b, spec)
            if (spec.side, spec.position) in seen:
                raise InvalidDefectError("duplicate defect", spec)
            seen.add((spec.side, spec.position))

    def __len__(self) -> int:
        """The number of cells of ``region()``."""
        a, b = self.a, self.b
        return 2 * a * b + a + b + len(self.gammas) - len(self.betas) - len(self.alphas)

    def region(self) -> Region:
        """The counted cell set: AR(a, b) plus the gamma squares minus the defects."""
        a, b = self.a, self.b
        gammas = {boundary_cell(a, b, DefectSpec("SE", t, "gamma")) for t in self.gammas}
        gone = {boundary_cell(a, b, d) for d in self.betas + self.alphas}
        return Region((make_aztec_rectangle(a, b).cells | gammas) - gone)
