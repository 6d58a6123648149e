"""The generator is a documented contract: scrambles and corpora must look
identical on every platform and release, so the raw outputs are pinned."""

import pytest

from posetalg import LCG


def test_first_outputs_are_pinned():
    rng = LCG(42)
    assert [rng.next_u64() for _ in range(4)] == [
        10481999410520546993,
        4159066171780167020,
        7615522811268512075,
        11628791489956661374,
    ]


def test_zero_seed_is_valid():
    rng = LCG(0)
    assert rng.next_u64() == 1442695040888963407


def test_seed_is_masked_to_64_bits():
    assert LCG(2**64 + 42).next_u64() == LCG(42).next_u64()


def test_next_below_range_and_pin():
    rng = LCG(7)
    draws = [rng.next_below(10) for _ in range(8)]
    assert draws == [0, 5, 2, 3, 4, 1, 4, 1]
    assert all(0 <= d < 10 for d in draws)


def test_shuffle_is_a_pinned_permutation():
    rng = LCG(7)
    xs = list(range(6))
    rng.shuffle(xs)
    assert xs == [1, 3, 5, 4, 0, 2]
    assert sorted(xs) == list(range(6))


def test_probability_edges():
    rng = LCG(3)
    assert not any(rng.next_is_below(0.0) for _ in range(50))
    assert all(rng.next_is_below(1.0) for _ in range(50))


def test_same_seed_same_stream():
    a, b = LCG(123), LCG(123)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_choice_stays_in_sequence():
    rng = LCG(5)
    xs = ["p", "q", "r"]
    assert all(rng.choice(xs) in xs for _ in range(12))


def test_next_below_needs_a_positive_bound():
    with pytest.raises(ValueError):
        LCG(1).next_below(0)
