import random

import pytest
from paper_checks import MORSE_THUE, SQUARES, squares_limit_defect, z_color, z_witness

from coxtile import sequences
from coxtile.errors import ValidationError, WindowError
from coxtile.sequences import (
    PowerWitness,
    square_free_prefix,
    ternary_term,
    thue_morse_prefix,
    verify_power_free,
)


def substitution_oracle(k):
    # Independent re-derivation: apply 0->01, 1->10 k times starting from [0].
    word = [0]
    for _ in range(k):
        word = [b for a in word for b in (a, 1 - a)]
    return word


def digit_oracle(i):
    # Independent re-derivation from the binary digits: t(2i) = t(i), t(2i+1) = 1 - t(i).
    return 0 if i == 0 else digit_oracle(i // 2) if i % 2 == 0 else 1 - digit_oracle(i // 2)


def naive_power_scan(seq, power, n):
    # Quadratic reference scanner, kept independent of the production path.
    for i in range(n):
        for length in range(1, (n - i) // power + 1):
            w = seq[i : i + length]
            if all(seq[i + j * length : i + (j + 1) * length] == w for j in range(power)):
                return (i, tuple(w))
    return None


def test_thue_morse_first_eight():
    assert thue_morse_prefix(8) == [0, 1, 1, 0, 1, 0, 0, 1]


def test_thue_morse_single_term():
    assert thue_morse_prefix(1) == [0]
    assert thue_morse_prefix(0) == []


def test_thue_morse_matches_substitution_iterates():
    for k in range(13):
        assert thue_morse_prefix(2**k) == substitution_oracle(k)


def test_thue_morse_terms_match_the_digit_recursion():
    assert thue_morse_prefix(3000) == [digit_oracle(i) for i in range(3000)]
    codes = {(0, 1): 0, (1, 0): 1, (0, 0): 2, (1, 1): 2}
    rng = random.Random(60)
    for i in [rng.randrange(2 ** rng.randrange(1, 61)) for _ in range(400)] + [2**60 - 1, 2**60]:
        t = digit_oracle(i)
        assert z_color(MORSE_THUE, i) == z_color(MORSE_THUE, -i) == t, i
        assert ternary_term(i) == codes[(t, digit_oracle(i + 1))], i


def test_z_witness_far_from_zero():
    q = z_witness(1, 2**50)
    assert abs(q - 2**50) <= 3 and digit_oracle(q) != digit_oracle(q + 1)


def test_sequences_keep_no_growing_table():
    def sizes():
        tables = {k: v for k, v in vars(sequences).items() if not k.startswith("__")}
        return {k: len(v) for k, v in tables.items() if isinstance(v, (list, dict, set, bytearray))}

    before = sizes()
    z_color(MORSE_THUE, 10**9)
    ternary_term(2**40)
    z_witness(7, 2**45)
    square_free_prefix(5000)
    assert sizes() == before


def test_thue_morse_power_of_two_indices_are_one():
    prefix = thue_morse_prefix(2**10 + 1)
    for k in range(11):
        assert prefix[2**k] == 1


def test_square_free_prefix_paper_values():
    assert square_free_prefix(9) == [0, 2, 1, 0, 1, 2, 0, 2, 1]
    assert square_free_prefix(1) == [0]


def test_power_free_verdicts():
    assert verify_power_free(thue_morse_prefix(4096), 3, 4096) is None
    assert verify_power_free(square_free_prefix(4096), 2, 4096) is None


def test_power_free_finds_leftmost_shortest_witness():
    assert verify_power_free([0, 0, 1, 1], 2, 4) == PowerWitness(0, (0,))
    # leftmost beats shorter-but-later
    assert verify_power_free([0, 1, 0, 1, 2, 2], 2, 6) == PowerWitness(0, (0, 1))


def test_power_free_agrees_with_naive_scan():
    tern = square_free_prefix(300)
    mt = thue_morse_prefix(300)
    assert verify_power_free(tern, 2, 300) == (
        None if naive_power_scan(tern, 2, 300) is None else PowerWitness(*naive_power_scan(tern, 2, 300))
    )
    assert verify_power_free(mt, 3, 300) is None
    assert naive_power_scan(mt, 3, 300) is None
    # Thue-Morse has squares; both scanners must agree on the first one.
    w = verify_power_free(mt, 2, 300)
    assert (w.position, w.word) == naive_power_scan(mt, 2, 300)


def test_power_free_window_errors():
    with pytest.raises(WindowError):
        verify_power_free([0, 1], 2, 5)
    with pytest.raises(ValidationError):
        verify_power_free([0, 1], 4, 2)


def test_z_color_values():
    assert z_color(MORSE_THUE, 3) == 0
    assert z_color(MORSE_THUE, 1) == 1
    assert z_color(SQUARES, 4) == 1
    assert z_color(SQUARES, 5) == 0
    assert z_color(SQUARES, 0) == 1


def test_z_color_even():
    for x in range(1001):
        assert z_color(MORSE_THUE, x) == z_color(MORSE_THUE, -x)
        assert z_color(SQUARES, x) == z_color(SQUARES, -x)


def test_z_witness_basic():
    assert z_witness(1, 0) == 0
    q = z_witness(2, 4)
    assert q is not None and -2 <= q <= 10
    assert z_color(MORSE_THUE, q) != z_color(MORSE_THUE, q + 2)


def test_z_witness_tie_breaking():
    # scan order is m, m-1, m+1, m-2, ...: the reported q minimizes |q-m|,
    # preferring the smaller q on ties.
    for n in (1, -1, 3):
        for m in range(-8, 9):
            q = z_witness(n, m)
            d = abs(q - m)
            for e in range(d):
                for cand in ((m - e, m + e) if e else (m,)):
                    assert z_color(MORSE_THUE, cand) == z_color(MORSE_THUE, cand + n)
            if q == m + d and d:
                assert z_color(MORSE_THUE, m - d) == z_color(MORSE_THUE, m - d + n)


def test_z_witness_small_grid():
    for n in range(-20, 21):
        if n == 0:
            continue
        for m in range(-20, 21):
            q = z_witness(n, m)
            assert q is not None
            assert abs(q - m) <= 3 * abs(n)


def test_z_witness_rejects_zero():
    with pytest.raises(ValidationError):
        z_witness(0, 5)


def gap_oracle_defect(a, rho):
    # Reference: scan m directly with math-level square tests.
    from math import isqrt

    width = rho + abs(a)
    m = 1
    while True:
        ok = True
        for x in range(-width, width + 1):
            if x == 0:
                continue
            v = abs(m * m + x)
            r = isqrt(v)
            if r * r == v:
                ok = False
                break
        if ok:
            return m
        m += 1


def test_squares_limit_defect_small():
    assert squares_limit_defect(1, 0) == 2
    m = squares_limit_defect(1, 10)
    assert 1 <= m <= 40
    assert m == gap_oracle_defect(1, 10)


def test_squares_limit_defect_window_rechecks_zero():
    for a in (1, 2, 3):
        for rho in (0, 5, 20):
            m = squares_limit_defect(a, rho)
            width = rho + abs(a)
            for x in range(-width, width + 1):
                if x:
                    assert z_color(SQUARES, m * m + x) == 0
