"""Labels, dimensions, branching, and tensor decomposition for Spin(5).

Conventions:
  * an irrep is labeled by a pair (j1, j2) of half-integers with
    j1 >= j2 >= 0; in orthogonal coordinates the highest weight is
    (x, y) = (j1 + j2, j1 - j2).
  * restricted to the SO(3) x SO(3) subgroup, an irrep splits into a
    multiplicity-free set of (j1', j2') spin pairs, the "SO(4) content".
  * the 14-dimensional irrep is (1, 1); its weights, written as shifts
    (d1, d2) acting on SO(4) labels or on irrep labels, are the four
    (+-1, +-1), the four (+-1, 0)/(0, +-1), the four (+-1/2, +-1/2),
    and (0, 0) twice.

Every label record holds its spins and shifts as doubled ints (tj1, tj2,
tdj1, tdj2), so hashing and arithmetic stay exact and cheap; HalfInt is
the text form of one spin ("3/2") and the type of the magnetic labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import MalformedKey


def _check_twice(*values) -> None:
    for value in values:
        if not isinstance(value, int):
            raise MalformedKey(f"HalfInt needs an int doubled value, got {value!r}")


@dataclass(frozen=True, slots=True, order=True)
class HalfInt:
    """A (half-)integer stored as its doubled value: the text form of one
    spin, and the type of the magnetic labels."""

    twice: int

    def __post_init__(self):
        _check_twice(self.twice)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "2", "-1", "3/2", "+1/2"."""
        s = text.strip()
        try:
            if "/" in s:
                num, den = s.split("/")
                if int(den) != 2:
                    raise ValueError(s)
                return cls(int(num))
            return cls(2 * int(s))
        except ValueError as exc:
            raise MalformedKey(f"cannot parse half-integer {text!r}") from exc

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)


@dataclass(frozen=True, slots=True, order=True)
class _SpinPair:
    """A spin pair (j1, j2) held as its doubled values, ordered by them."""

    tj1: int
    tj2: int

    @classmethod
    def parse(cls, text: str):
        parts = text.split(",")
        if len(parts) != 2:
            raise MalformedKey(f"expected 'j1,j2', got {text!r}")
        return cls(HalfInt.parse(parts[0]).twice, HalfInt.parse(parts[1]).twice)

    @property
    def twice(self) -> tuple[int, int]:
        return (self.tj1, self.tj2)

    def __str__(self) -> str:
        return f"{HalfInt(self.tj1)},{HalfInt(self.tj2)}"


@dataclass(frozen=True, slots=True, order=True)
class So4Label(_SpinPair):
    """An SO(3) x SO(3) spin pair (j1, j2), each >= 0."""

    def __post_init__(self):
        _check_twice(self.tj1, self.tj2)
        if self.tj1 < 0 or self.tj2 < 0:
            raise MalformedKey(f"SO(4) label needs nonnegative spins, got {self}")

    def shifted(self, tdj1: int, tdj2: int) -> Optional["So4Label"]:
        """This label moved by doubled spin shifts; None on a negative spin."""
        tj1, tj2 = self.tj1 + tdj1, self.tj2 + tdj2
        if tj1 < 0 or tj2 < 0:
            return None
        return So4Label(tj1, tj2)

    @property
    def so3_dim(self) -> int:
        return (self.tj1 + 1) * (self.tj2 + 1)


@dataclass(frozen=True, slots=True, order=True)
class IrrepLabel(_SpinPair):
    """A Spin(5) irrep label (j1, j2) with j1 >= j2 >= 0."""

    def __post_init__(self):
        _check_twice(self.tj1, self.tj2)
        if not (self.tj1 >= self.tj2 >= 0):
            raise MalformedKey(f"irrep label needs j1 >= j2 >= 0, got ({self})")


FOURTEEN = IrrepLabel(2, 2)


def dim(label: IrrepLabel) -> int:
    """Dimension of the irrep (a quartic polynomial in the spins)."""
    a, b = label.tj1, label.tj2
    num = (a - b + 1) * (a + b + 3) * (a + 2) * (b + 1)
    if num % 6:
        raise AssertionError(f"dim({label}): numerator {num} not divisible by 6")
    return num // 6


@lru_cache(maxsize=None)
def branching(label: IrrepLabel) -> tuple[So4Label, ...]:
    """SO(4) content of the irrep, sorted by (j1, j2); multiplicity-free.

    In orthogonal coordinates (x, y) the content is the interleaving
    rectangle y <= s1 <= x, -y <= s2 <= y with integer steps, mapped back
    through (j1', j2') = ((s1+s2)/2, (s1-s2)/2).
    """
    tx = label.tj1 + label.tj2
    ty = label.tj1 - label.tj2
    out = []
    for ts1 in range(ty, tx + 1, 2):
        for ts2 in range(-ty, ty + 1, 2):
            out.append(So4Label((ts1 + ts2) // 2, (ts1 - ts2) // 2))
    out.sort()
    if sum(s.so3_dim for s in out) != dim(label):
        raise AssertionError(f"branching of {label} does not sum to its dimension")
    return tuple(out)


def in_branching(label: IrrepLabel, so4: So4Label) -> bool:
    """Membership test equivalent to `so4 in branching(label)`, O(1)."""
    tx = label.tj1 + label.tj2
    ty = label.tj1 - label.tj2
    ts1 = so4.tj1 + so4.tj2
    ts2 = so4.tj1 - so4.tj2
    return ty <= ts1 <= tx and -ty <= ts2 <= ty and (ts1 - ty) % 2 == 0


def reach(label: IrrepLabel, block: So4Label, tdj1: int,
          tdj2: int) -> Optional[So4Label]:
    """The block moved by doubled spin shifts if that lies in the branching
    of label, else None: the one rule by which a table entry takes a source
    block to a block of an irrep, or to nothing."""
    shifted = block.shifted(tdj1, tdj2)
    if shifted is not None and in_branching(label, shifted):
        return shifted
    return None


# The 14 weights as (twice_d1, twice_d2) shifts; (0, 0) appears twice.
SHIFTS_14: tuple[tuple[int, int], ...] = (
    (2, 2), (2, -2), (-2, 2), (-2, -2),
    (2, 0), (-2, 0), (0, 2), (0, -2),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
    (0, 0), (0, 0),
)

# Channel shifts with printed closed forms (the "raising" half plus the
# diagonal); the remaining six follow from the symmetry relation.
RAISING_SHIFTS: tuple[tuple[int, int], ...] = (
    (2, 2), (2, 0), (0, 2), (2, -2), (1, 1), (1, -1),
)
LOWERING_SHIFTS: tuple[tuple[int, int], ...] = (
    (-2, -2), (-2, 0), (0, -2), (-2, 2), (-1, -1), (-1, 1),
)


@dataclass(frozen=True, slots=True)
class Channel:
    """One coupling channel: a label shift plus a copy index.

    copy is 1 except for the doubled diagonal shift (0, 0), where it
    may be 1 or 2.
    """

    tdj1: int
    tdj2: int
    copy: int = 1

    def __post_init__(self):
        _check_twice(self.tdj1, self.tdj2)
        shift = (self.tdj1, self.tdj2)
        if shift not in SHIFTS_14:
            raise MalformedKey(f"not a coupling shift: "
                               f"({HalfInt(self.tdj1)},{HalfInt(self.tdj2)})")
        if self.copy not in (1, 2):
            raise MalformedKey(f"copy must be 1 or 2, got {self.copy}")
        if self.copy == 2 and shift != (0, 0):
            raise MalformedKey("copy 2 exists only for the (0,0) shift")

    @property
    def shift(self) -> tuple[int, int]:
        return (self.tdj1, self.tdj2)

    @property
    def is_raising(self) -> bool:
        return self.shift in RAISING_SHIFTS

    @property
    def is_lowering(self) -> bool:
        return self.shift in LOWERING_SHIFTS

    @property
    def is_diagonal(self) -> bool:
        return self.shift == (0, 0)

    def __str__(self) -> str:
        text = f"{_signed(self.tdj1)},{_signed(self.tdj2)}"
        if self.shift == (0, 0):
            text += f"#{self.copy}"
        return text


def _signed(twice: int) -> str:
    return f"+{HalfInt(twice)}" if twice > 0 else str(HalfInt(twice))


ALL_CHANNELS: tuple[Channel, ...] = tuple(
    [Channel(a, b) for (a, b) in RAISING_SHIFTS]
    + [Channel(0, 0, 1), Channel(0, 0, 2)]
    + [Channel(a, b) for (a, b) in LOWERING_SHIFTS]
)


# The three SO(4) types of states inside the 14-dimensional irrep.
PART_11 = So4Label(2, 2)
PART_HH = So4Label(1, 1)
PART_00 = So4Label(0, 0)
PARTS_14: tuple[So4Label, ...] = (PART_11, PART_HH, PART_00)


@dataclass(frozen=True, slots=True)
class EntryShift:
    """One table row: an SO(4)-label shift together with the 14-part."""

    tdj1: int
    tdj2: int
    part: So4Label

    def __post_init__(self):
        _check_twice(self.tdj1, self.tdj2)
        if self.part not in PARTS_14:
            raise MalformedKey(f"not a 14-part: {self.part}")
        for d in (self.tdj1, self.tdj2):
            if abs(d) > self.part.tj1:
                raise MalformedKey(
                    f"shift {HalfInt(d)} too large for part {self.part}")
            if (d - self.part.tj1) % 2 != 0:
                raise MalformedKey(
                    f"shift {HalfInt(d)} has wrong parity for part {self.part}")

    def __str__(self) -> str:
        return f"({_signed(self.tdj1)},{_signed(self.tdj2)};{self.part})"


ENTRY_SHIFTS: tuple[EntryShift, ...] = tuple(
    [EntryShift(a, b, PART_11) for a in (2, 0, -2) for b in (2, 0, -2)]
    + [EntryShift(a, b, PART_HH) for a in (1, -1) for b in (1, -1)]
    + [EntryShift(0, 0, PART_00)]
)

# Entry shifts by (doubled shift, doubled shift, doubled spin of the part);
# both spins of a 14-part are equal.
ENTRY_BY_TWICE: dict[tuple[int, int, int], EntryShift] = {
    (e.tdj1, e.tdj2, e.part.tj1): e for e in ENTRY_SHIFTS}


@dataclass(frozen=True, slots=True)
class DecompEntry:
    """One block of a tensor-product decomposition."""

    target: IrrepLabel
    multiplicity: int


def _reflect(tx: int, ty: int) -> Optional[tuple[int, int, int]]:
    """Map (tx, ty) to the strictly dominant chamber tx > ty > 0.

    Returns (sign, tx, ty) or None when the point sits on a reflection
    wall (one coordinate zero or equal magnitudes). The Weyl group is
    the signed permutations of the two coordinates; each sign flip or
    swap contributes a factor -1.
    """
    sign = 1
    if tx < 0:
        tx, sign = -tx, -sign
    if ty < 0:
        ty, sign = -ty, -sign
    if tx == 0 or ty == 0 or tx == ty:
        return None
    if tx < ty:
        tx, ty = ty, tx
        sign = -sign
    return sign, tx, ty


@lru_cache(maxsize=None)
def decompose_with_14(label: IrrepLabel) -> tuple[DecompEntry, ...]:
    """Blocks of (this irrep) x (14-dim irrep), sorted by target label.

    Computed by the reflection algorithm: for each weight w of the
    14-dim irrep, push the shifted highest weight plus rho into the
    dominant chamber with its sign, then tally. The result is checked
    against the total dimension.
    """
    tx = label.tj1 + label.tj2
    ty = label.tj1 - label.tj2
    # rho = (3/2, 1/2) doubled to (3, 1)
    counts: dict[tuple[int, int], int] = {}
    for td1, td2 in SHIFTS_14:
        twx, twy = td1 + td2, td1 - td2
        hit = _reflect(tx + 3 + twx, ty + 1 + twy)
        if hit is None:
            continue
        sign, vx, vy = hit
        key = (vx - 3, vy - 1)
        counts[key] = counts.get(key, 0) + sign
    out = []
    for (lx, ly), mult in counts.items():
        if mult == 0:
            continue
        if mult < 0:
            raise AssertionError(f"negative multiplicity at {(lx, ly)}")
        target = IrrepLabel((lx + ly) // 2, (lx - ly) // 2)
        out.append(DecompEntry(target, mult))
    out.sort(key=lambda e: e.target)
    total = sum(e.multiplicity * dim(e.target) for e in out)
    if total != 14 * dim(label):
        raise AssertionError(f"dimension audit failed for {label}: {total}")
    return tuple(out)


def target_of(source: IrrepLabel, channel: Channel) -> Optional[IrrepLabel]:
    """The irrep label reached by the channel shift, or None if invalid."""
    tj1 = source.tj1 + channel.tdj1
    tj2 = source.tj2 + channel.tdj2
    if not (tj1 >= tj2 >= 0):
        return None
    return IrrepLabel(tj1, tj2)


def multiplicity_of(source: IrrepLabel, target: IrrepLabel) -> int:
    """Multiplicity of target inside source x 14."""
    for entry in decompose_with_14(source):
        if entry.target == target:
            return entry.multiplicity
    return 0


def channel_present(source: IrrepLabel, channel: Channel) -> bool:
    """Whether the channel actually occurs for this source irrep."""
    target = target_of(source, channel)
    if target is None:
        return False
    return multiplicity_of(source, target) >= channel.copy


def channels_present(source: IrrepLabel) -> tuple[Channel, ...]:
    """All channels of the source, in the canonical channel order."""
    return tuple(c for c in ALL_CHANNELS if channel_present(source, c))


def m_values(j: HalfInt) -> tuple[HalfInt, ...]:
    """All magnetic quantum numbers -j..j in increasing order."""
    return tuple(HalfInt(t) for t in range(-j.twice, j.twice + 1, 2))


def iter_labels(max_twice_j1: int) -> Iterable[IrrepLabel]:
    """All irrep labels with doubled first spin up to the bound."""
    for tj1 in range(max_twice_j1 + 1):
        for tj2 in range(tj1 + 1):
            yield IrrepLabel(tj1, tj2)
