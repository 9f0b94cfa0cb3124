"""File-membership sets for preorder index propagation.

Three interchangeable representations: a plain set, a single flat bit
vector, and the two-level form (a presence bit per fixed-size block plus a
directory of allocated blocks) that keeps the footprint proportional to the
populated file-id ranges instead of the file universe.
"""

from __future__ import annotations

# SingleLayerBitmap.iter_set takes its bit vector apart in words this wide
_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


class PlainFileSet:
    """Thin wrapper over a Python set, the reference representation."""

    __slots__ = ("universe", "_items")

    def __init__(self, universe: int):
        self.universe = universe
        self._items: set[int] = set()

    def set(self, file_id: int) -> None:
        if not 0 <= file_id < self.universe:
            raise IndexError(f"file id {file_id} out of range [0, {self.universe})")
        self._items.add(file_id)

    def test(self, file_id: int) -> bool:
        if not 0 <= file_id < self.universe:
            raise IndexError(f"file id {file_id} out of range [0, {self.universe})")
        return file_id in self._items

    def update(self, other: "PlainFileSet") -> None:
        self._items |= other._items

    def iter_set(self):
        return iter(sorted(self._items))


class SingleLayerBitmap:
    """One flat bit vector over the whole file universe."""

    __slots__ = ("universe", "_bits")

    def __init__(self, universe: int):
        self.universe = universe
        self._bits = 0

    def set(self, file_id: int) -> None:
        if not 0 <= file_id < self.universe:
            raise IndexError(f"file id {file_id} out of range [0, {self.universe})")
        self._bits |= 1 << file_id

    def test(self, file_id: int) -> bool:
        if not 0 <= file_id < self.universe:
            raise IndexError(f"file id {file_id} out of range [0, {self.universe})")
        return bool(self._bits >> file_id & 1)

    def update(self, other: "SingleLayerBitmap") -> None:
        self._bits |= other._bits

    def iter_set(self):
        bits = self._bits
        base = 0
        while bits:
            word = bits & _WORD_MASK
            while word:
                low = word & -word  # the lowest set bit
                yield base + low.bit_length() - 1
                word ^= low
            bits >>= _WORD_BITS
            base += _WORD_BITS


class DoubleLayerBitmap:
    """Presence bits over fixed-size blocks, blocks allocated on first set.

    A level-1 bit is set exactly when its level-2 block is allocated and
    holds at least one member.
    """

    __slots__ = ("universe", "block_bits", "_level1", "_blocks")

    def __init__(self, universe: int, block_bits: int = 64):
        if block_bits < 1:
            raise ValueError("block size must be >= 1 bit")
        self.universe = universe
        self.block_bits = block_bits
        self._level1 = 0
        self._blocks: dict[int, int] = {}

    def set(self, file_id: int) -> None:
        if not 0 <= file_id < self.universe:
            raise IndexError(f"file id {file_id} out of range [0, {self.universe})")
        block, bit = divmod(file_id, self.block_bits)
        self._level1 |= 1 << block
        self._blocks[block] = self._blocks.get(block, 0) | (1 << bit)

    def test(self, file_id: int) -> bool:
        if not 0 <= file_id < self.universe:
            raise IndexError(f"file id {file_id} out of range [0, {self.universe})")
        block, bit = divmod(file_id, self.block_bits)
        if not self._level1 >> block & 1:
            return False
        return bool(self._blocks[block] >> bit & 1)

    def update(self, other: "DoubleLayerBitmap") -> None:
        self._level1 |= other._level1
        blocks = self._blocks
        for block, bits in other._blocks.items():
            blocks[block] = blocks.get(block, 0) | bits

    def iter_set(self):
        width = self.block_bits
        blocks = self._blocks
        for block in sorted(blocks):
            bits = blocks[block]
            base = block * width
            while bits:
                low = bits & -bits  # the lowest set bit
                yield base + low.bit_length() - 1
                bits ^= low

    # Introspection used by tests and the worked example in the docs.

    @property
    def level1_size(self) -> int:
        return -(-self.universe // self.block_bits)

    def level1_bits(self) -> list[bool]:
        return [bool(self._level1 >> i & 1) for i in range(self.level1_size)]

    def allocated_blocks(self) -> int:
        return len(self._blocks)

    def block_vector(self, block: int) -> list[bool] | None:
        """Bit vector of one block, lowest file id first; None if unallocated."""
        bits = self._blocks.get(block)
        if bits is None:
            return None
        return [bool(bits >> i & 1) for i in range(self.block_bits)]


def make_file_set(kind: str, universe: int):
    """`kind` is one of set | bitmap | twolevel."""
    if kind == "set":
        return PlainFileSet(universe)
    if kind == "bitmap":
        return SingleLayerBitmap(universe)
    if kind == "twolevel":
        return DoubleLayerBitmap(universe)
    raise ValueError(f"unknown file-set kind {kind!r}")
