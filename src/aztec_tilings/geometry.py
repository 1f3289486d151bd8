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
under the SE staircase, addressed by a side of their own; position 1 sits in
the south-corner notch, so a string starting there forces the staircase
reduction of the augmented rectangle down to a diamond.  A defect's class
follows from its side: beta on NW and SE, alpha on NE and SW, gamma below SE.

A configuration, AR(a, b) plus a gamma string minus beta and alpha defects,
is described only by numbers: ``DefectConfiguration`` holds a, b, the defect
addresses and the gamma positions, and checks each of them once, by
arithmetic, building no cell; its ``size`` and its colour balance,
``balanced``, are arithmetic too.  A ``Region`` is only a cell set;
``make_aztec_rectangle`` and ``DefectConfiguration.region`` build one for the
code that needs cells.

``Cell``, ``DefectSpec``, ``Region`` and ``DefectConfiguration`` are
``collections.namedtuple`` classes, immutable and hashed by their fields;
``DefectSpec`` and ``DefectConfiguration`` check their arguments in
``__new__`` and build the tuple by ``tuple.__new__``, without the frame of
the namedtuple's generated ``__new__``.  Like any tuple these values
index, iterate, order and compare equal to a plain tuple of their fields;
``len(region)`` is its number of cells, and ``_make`` and ``_replace``
skip the checks.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import InvalidConfigurationError, InvalidDefectError, InvalidParameterError

SIDES = ("NW", "NE", "SE", "SW")  # the rectangle's boundary, where a spec removes cells
CLASS = {"NW": "beta", "SE": "beta", "NE": "alpha", "SW": "alpha", "gamma": "gamma"}


class Cell(namedtuple("Cell", "u v")):
    """A unit lattice square in diagonal coordinates; u and v are ints and u + v is odd."""

    __slots__ = ()


def is_white(cell: Cell) -> bool:
    return cell.u % 2 == 1


class DefectSpec(namedtuple("DefectSpec", "side position kind")):
    """Address of a boundary defect: a side, one of ``CLASS``'s keys, and a 1-based position.

    Built as ``DefectSpec(side, position)``; the side fixes the defect class
    ``kind``, set from ``CLASS``: "beta" for removed white cells (NW/SE
    sides), "alpha" for removed black cells (NE/SW sides) and "gamma" for the
    added black cells under the SE side.
    """

    __slots__ = ()

    def __new__(cls, side: str, position: int) -> DefectSpec:
        if side not in CLASS:
            raise InvalidDefectError(f"unknown side {side!r}")
        if type(position) is not int:  # a bool is not a position either
            raise InvalidDefectError(f"position must be an int, got {position!r}")
        if position < 1:
            raise InvalidDefectError(f"position must be >= 1, got {position}")
        return tuple.__new__(cls, (side, position, CLASS[side]))

    def __getnewargs__(self) -> tuple[str, int]:  # copy and pickle call __new__ with these
        return self.side, self.position


class Region(namedtuple("Region", "cells")):
    """An immutable finite set of cells, a frozenset in ``cells``."""

    __slots__ = ()

    @staticmethod
    def from_cells(cells: Iterable[Cell]) -> Region:
        cells = frozenset(Cell(u, v) for u, v in cells)
        for c in cells:
            if type(c.u) is not int or type(c.v) is not int or (c.u + c.v) % 2 == 0:
                raise InvalidParameterError(f"{c} is not a unit cell: u and v must be ints with u + v odd")
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
    length = a if spec.kind == "alpha" else b
    if spec.position > length:
        raise InvalidDefectError(f"{spec.side} position {spec.position} out of range 1..{length}", spec)


def boundary_cell(a: int, b: int, spec: DefectSpec) -> Cell:
    """The cell of AR(a, b), or of its gamma string, that a defect address names."""
    _check_position(a, b, spec)
    side, pos = spec.side, spec.position
    if side == "gamma":
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
    if side == "SE" or side == "gamma":
        u = 2 * pos - 2 if side == "gamma" else 2 * pos - 1
        return a + (2 * u if u else 3)
    if side == "NE":
        return 2 * a + 4 * b - pos
    return 2 * a + 5 * b - pos


class DefectConfiguration(namedtuple("DefectConfiguration", "a b betas alphas gammas")):
    """AR(a, b) plus a string of gamma squares under the SE side, minus boundary defects.

    ``betas`` are beta-class and ``alphas`` alpha-class ``DefectSpec``s,
    distinct and in range, in tuples; ``gammas`` are consecutive SE positions
    inside 1..b, given as a tuple of ints or a range and kept as a range, so
    a string costs the same whatever its length.  a and b are ints.  All of
    it is checked here, each defect once, by arithmetic, in one pass that
    tests its class, its range and that it is new; cells are built only by
    ``region``.  An ``InvalidDefectError`` names the defect at fault in its
    ``defect``.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, betas: tuple[DefectSpec, ...] = (), alphas: tuple[DefectSpec, ...] = (),
                gammas: range | tuple[int, ...] = range(0)) -> DefectConfiguration:
        if not all(type(x) is tuple for x in (betas, alphas)) or type(gammas) not in (tuple, range):
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
        seen: set[DefectSpec] = set()  # equal specs have equal sides and positions: the side fixes the kind
        for kind, length, specs in (("beta", b, betas), ("alpha", a, alphas)):
            for d in specs:
                if type(d) is not DefectSpec or d.kind != kind:
                    raise InvalidConfigurationError(f"{kind}s must be {kind}-class DefectSpecs")
                if d.position > length or d in seen:
                    _check_position(a, b, d)  # raises when out of range
                    raise InvalidDefectError("duplicate defect", d)
                seen.add(d)
        return tuple.__new__(cls, (a, b, betas, alphas, string))

    @property
    def size(self) -> int:
        """The number of cells of ``region()``, by arithmetic: its ``len`` would stop at sys.maxsize."""
        a, b, gammas = self.a, self.b, self.gammas
        return 2 * a * b + a + b + gammas.stop - gammas.start - len(self.betas) - len(self.alphas)

    @property
    def balanced(self) -> bool:
        """Whether ``region()`` has as many white cells as black, by arithmetic; else it has no tiling.

        AR(a, b) has b - a more white cells than black, and a gamma adds one black.
        """
        gammas = self.gammas
        return len(self.betas) - len(self.alphas) == self.b - self.a - (gammas.stop - gammas.start)

    def region(self) -> Region:
        """The counted cell set: AR(a, b) plus the gamma squares minus the defects."""
        a, b = self.a, self.b
        gammas = {boundary_cell(a, b, DefectSpec("gamma", t)) for t in self.gammas}
        gone = {boundary_cell(a, b, d) for d in self.betas + self.alphas}
        return Region((make_aztec_rectangle(a, b).cells | gammas) - gone)
