import random

import pytest

from tadoc.bitmap import (
    DoubleLayerBitmap,
    PlainFileSet,
    SingleLayerBitmap,
    make_file_set,
)

KINDS = ("set", "bitmap", "twolevel")


def test_two_level_worked_example():
    bitmap = DoubleLayerBitmap(universe=12, block_bits=4)
    for file_id in (0, 1, 3, 4, 5):
        bitmap.set(file_id)
    assert bitmap.level1_bits() == [True, True, False]
    assert bitmap.block_vector(0) == [True, True, False, True]  # "1101"
    assert bitmap.block_vector(1) == [True, True, False, False]  # "1100"
    assert bitmap.block_vector(2) is None
    assert bitmap.allocated_blocks() == 2
    assert list(bitmap.iter_set()) == [0, 1, 3, 4, 5]
    assert bitmap.test(3) and not bitmap.test(2)


def test_empty_bitmap_tests_false_everywhere():
    for kind in KINDS:
        empty = make_file_set(kind, 40)
        assert all(not empty.test(i) for i in range(40))
        assert list(empty.iter_set()) == []


@pytest.mark.parametrize("kind", KINDS)
def test_random_ops_match_naive_set(kind):
    rng = random.Random(77)
    universe = 257
    mine = make_file_set(kind, universe)
    model: set[int] = set()
    others = []
    for _ in range(4000):
        op = rng.random()
        if op < 0.45:
            file_id = rng.randrange(universe)
            mine.set(file_id)
            model.add(file_id)
        elif op < 0.85:
            file_id = rng.randrange(universe)
            assert mine.test(file_id) == (file_id in model)
        elif op < 0.95 and others:
            other, other_model = rng.choice(others)
            mine.update(other)
            model |= other_model
        else:
            other = make_file_set(kind, universe)
            other_model = set()
            for _ in range(rng.randint(0, 20)):
                file_id = rng.randrange(universe)
                other.set(file_id)
                other_model.add(file_id)
            others.append((other, other_model))
    assert list(mine.iter_set()) == sorted(model)


@pytest.mark.parametrize("kind", KINDS)
def test_union_identity_and_idempotence(kind):
    a = make_file_set(kind, 64)
    b = make_file_set(kind, 64)
    for i in (3, 9, 33):
        b.set(i)
    a.update(b)
    assert list(a.iter_set()) == [3, 9, 33]
    a.update(a)
    assert list(a.iter_set()) == [3, 9, 33]


@pytest.mark.parametrize(
    "kind,cls", [("set", PlainFileSet), ("bitmap", SingleLayerBitmap)]
)
def test_make_file_set_kinds(kind, cls):
    assert isinstance(make_file_set(kind, 4), cls)
    with pytest.raises(ValueError):
        make_file_set("btree", 4)


@pytest.mark.parametrize("kind", KINDS)
def test_range_errors(kind):
    bitmap = make_file_set(kind, 10)
    with pytest.raises(IndexError):
        bitmap.set(10)
    with pytest.raises(IndexError):
        bitmap.test(-1)


@pytest.mark.parametrize(
    "make",
    [
        PlainFileSet,
        SingleLayerBitmap,
        DoubleLayerBitmap,
        lambda universe: DoubleLayerBitmap(universe, block_bits=7),
    ],
    ids=["set", "bitmap", "twolevel", "twolevel7"],
)
def test_iter_set_lists_members_in_order(make):
    rng = random.Random(91)
    cases = [(200, {0, 6, 7, 63, 64, 127, 128, 129, 199})]
    for universe in (1, 63, 64, 65, 300, 1300):
        for _ in range(15):
            density = rng.choice((0.01, 0.2, 0.9))
            cases.append((universe, {i for i in range(universe) if rng.random() < density}))
    for universe, members in cases:
        file_set = make(universe)
        for file_id in rng.sample(sorted(members), len(members)):
            file_set.set(file_id)
        assert list(file_set.iter_set()) == sorted(members), (universe, members)


def test_allocation_stays_bounded():
    rng = random.Random(5)
    universe = 10_000
    bitmap = DoubleLayerBitmap(universe)
    members = set()
    for _ in range(300):
        file_id = rng.randrange(universe)
        bitmap.set(file_id)
        members.add(file_id)
        assert bitmap.allocated_blocks() <= min(bitmap.level1_size, len(members))
