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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidDefectError, InvalidParameterError, UnsupportedRegionError

SIDES = ("NW", "NE", "SE", "SW")
WHITE_SIDES = ("NW", "SE")
BLACK_SIDES = ("NE", "SW")


class Cell(NamedTuple):
    """A unit lattice square in diagonal coordinates; u + v must be odd."""

    u: int
    v: int


def is_white(cell: Cell) -> bool:
    return cell.u % 2 == 1


def is_black(cell: Cell) -> bool:
    return cell.u % 2 == 0


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
class RegionMeta:
    """Construction record: family kind, side lengths, augmentations, removals."""

    kind: str  # "AD", "AR" or "custom"
    a: int | None = None
    b: int | None = None
    gammas: tuple[int, ...] = ()
    removed: tuple[DefectSpec, ...] = ()


@dataclass(frozen=True)
class Region:
    """An immutable finite set of cells plus its construction record."""

    cells: frozenset[Cell]
    meta: RegionMeta = field(default_factory=lambda: RegionMeta("custom"))

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

    def is_color_balanced(self) -> bool:
        white, black = self.color_counts()
        return white == black


def make_aztec_rectangle(a: int, b: int) -> Region:
    """Canonical Aztec rectangle with a cells on the SW side and b on the NW."""
    if not 1 <= a <= b:
        raise InvalidParameterError(f"need 1 <= a <= b, got a={a}, b={b}")
    cells = frozenset(
        Cell(u, v) for u in range(2 * b + 1) for v in range(2 * a + 1) if (u + v) % 2 == 1
    )
    kind = "AD" if a == b else "AR"
    return Region(cells, RegionMeta(kind, a, b))


def make_aztec_diamond(n: int) -> Region:
    """Aztec diamond of order n (the a = b = n rectangle)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    return make_aztec_rectangle(n, n)


def _require_canonical(region: Region) -> tuple[int, int]:
    meta = region.meta
    if meta.kind not in ("AD", "AR") or meta.a is None or meta.b is None:
        raise UnsupportedRegionError("operation needs a region built by the AD/AR constructors")
    return meta.a, meta.b


def boundary_cell(region: Region, spec: DefectSpec) -> Cell:
    """Resolve a defect address to the unique cell it names."""
    a, b = _require_canonical(region)
    side, pos = spec.side, spec.position
    if spec.kind == "gamma":
        if not 1 <= pos <= b:
            raise InvalidDefectError(f"gamma position {pos} out of range 1..{b}")
        cell = Cell(2 * pos - 2, 2 * a + 1)
    elif side == "NW":
        if not 1 <= pos <= b:
            raise InvalidDefectError(f"NW position {pos} out of range 1..{b}")
        cell = Cell(2 * pos - 1, 0)
    elif side == "SE":
        if not 1 <= pos <= b:
            raise InvalidDefectError(f"SE position {pos} out of range 1..{b}")
        cell = Cell(2 * pos - 1, 2 * a)
    elif side == "NE":
        if not 1 <= pos <= a:
            raise InvalidDefectError(f"NE position {pos} out of range 1..{a}")
        cell = Cell(2 * b, 2 * pos - 1)
    else:  # SW
        if not 1 <= pos <= a:
            raise InvalidDefectError(f"SW position {pos} out of range 1..{a}")
        cell = Cell(0, 2 * a - 2 * pos + 1)
    if cell not in region.cells:
        raise InvalidDefectError(f"{spec} addresses {cell}, which is not in the region")
    return cell


def perimeter_index(a: int, b: int, spec: DefectSpec) -> int:
    """Counterclockwise rank of a boundary address on AR(a, b), from SW position a.

    Sorting by it gives the order of ``boundary_cycle`` on AR(a, b) with or
    without the gamma string 1..b-a: SW a..1, SE cells and gammas by increasing
    u, NE a..1, NW b..1; gamma 1 hangs off the cut vertex SE 1, whose first
    visit the walk keeps, so it comes right after SE 1.  Ranks may skip values.
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


def add_gamma_squares(region: Region, k: int, start: int = 1) -> Region:
    """Glue a string of k black cells under the SE side at positions start..start+k-1."""
    a, b = _require_canonical(region)
    if region.meta.gammas or region.meta.removed:
        raise InvalidParameterError("gamma squares must be added to a pristine rectangle")
    if k < 0:
        raise InvalidParameterError(f"need k >= 0, got {k}")
    if k == 0:
        return region
    positions = range(start, start + k)
    if start < 1 or positions[-1] > b:
        raise InvalidParameterError(
            f"gamma string {start}..{positions[-1]} does not fit along the SE side (1..{b})"
        )
    added = frozenset(Cell(2 * t - 2, 2 * a + 1) for t in positions)
    meta = RegionMeta(region.meta.kind, a, b, tuple(positions), region.meta.removed)
    return Region(region.cells | added, meta)


def remove_defects(region: Region, defects: Sequence[DefectSpec]) -> Region:
    """Remove the addressed boundary cells; they must be present and distinct."""
    cells = set()
    for spec in defects:
        cell = boundary_cell(region, spec)
        if cell in cells:
            raise InvalidDefectError(f"duplicate defect {spec}")
        cells.add(cell)
    meta = region.meta
    new_meta = RegionMeta(meta.kind, meta.a, meta.b, meta.gammas, meta.removed + tuple(defects))
    return Region(region.cells - cells, new_meta)
