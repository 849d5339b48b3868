"""The anchored-run power-freeness scan against the numpy scanner it
replaced (tests/power_free_oracle.py): same position, same witness word,
same None, on random words, planted powers, mutated Thue-Morse and ternary
prefixes, partial scans and the full n = 20000 prefixes.
"""

import random

import pytest
from power_free_oracle import verify_power_free as oracle_scan

from coxtile.sequences import square_free_prefix, thue_morse_prefix, verify_power_free


@pytest.fixture
def seen():
    """(power, verdict) pairs met by a test, which must meet both powers and
    both verdicts."""
    pairs = set()
    yield pairs
    assert {p for p, _ in pairs} == {2, 3}
    assert {v for _, v in pairs} == {"free", "witness"}


def agree(seq, power, scan, seen):
    got = verify_power_free(seq, power, scan)
    want = oracle_scan(seq, power, scan)
    assert got == want, (seq[:scan], power, scan)
    if got is not None:
        assert type(got.word) is tuple and all(type(x) is int for x in got.word)
    seen.add((power, "free" if got is None else "witness"))


def test_random_words(seen):
    rng = random.Random(20261018)
    for alphabet in (2, 3, 4):
        for _ in range(400):
            n = rng.randrange(201)
            seq = [rng.randrange(alphabet) for _ in range(n)]
            for power in (2, 3):
                agree(seq, power, n, seen)


def test_planted_squares_and_cubes(seen):
    rng = random.Random(7)
    base = square_free_prefix(200)
    for _ in range(300):
        power = rng.choice((2, 3))
        period = rng.randrange(1, 30)
        at = rng.randrange(len(base) - power * period + 1)
        seq = list(base)
        seq[at : at + power * period] = base[at : at + period] * power
        n = rng.randrange(at + power * period, len(seq) + 1)
        for p in (2, 3):
            agree(seq[:n], p, n, seen)


def test_mutated_prefixes(seen):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 400)
        mt, tern = thue_morse_prefix(n), square_free_prefix(n)
        for seq, alphabet in ((mt, 2), (tern, 3)):
            seq = list(seq)
            for _ in range(rng.randrange(1, 4)):
                seq[rng.randrange(n)] = rng.randrange(alphabet)
            for power in (2, 3):
                agree(seq, power, n, seen)


def test_partial_scans(seen):
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 150)
        seq = [rng.randrange(rng.choice((2, 3))) for _ in range(n)]
        for power in (2, 3):
            agree(seq, power, rng.randrange(n), seen)
    for seq in (thue_morse_prefix(300), square_free_prefix(300)):
        for scan in (0, 1, 2, 3, 7, 50, 299):
            for power in (2, 3):
                agree(seq, power, scan, seen)


def test_full_prefixes(seen):
    tern, mt = square_free_prefix(20000), thue_morse_prefix(20000)
    agree(tern, 2, 20000, seen)
    agree(mt, 2, 20000, seen)
    agree(mt, 3, 20000, seen)
    # the cube-free word has squares everywhere: a late window finds one
    agree(mt[5000:], 2, 15000, seen)
    # and its cubes appear once one symbol is flipped
    flipped = list(mt)
    flipped[9999] = 1 - flipped[9999]
    agree(flipped, 3, 20000, seen)
