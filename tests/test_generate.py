from itertools import combinations

import pytest

import skewgentle.generate as generate
import skewgentle.validate as validate
from skewgentle import (
    GenerationExhausted,
    random_triple,
    validate_skewed_gentle,
)


def test_deterministic():
    assert random_triple(1, 4, 4) == random_triple(1, 4, 4)


def test_always_valid():
    for seed in range(100):
        t = random_triple(seed, 6, 7)
        assert validate_skewed_gentle(t).skewed_gentle


def test_single_vertex_shape():
    t = random_triple(2, 1, 0)
    assert t.pair.quiver.vertices == {"1"}
    assert not t.pair.quiver.arrows
    assert t.special <= {"1"}


def test_distinct_seeds_vary():
    triples = {random_triple(seed, 6, 7) for seed in range(30)}
    assert len(triples) > 10


def test_max_vertices_must_be_positive():
    with pytest.raises(ValueError):
        random_triple(0, 0, 0)


def test_max_arrows_must_not_be_negative():
    with pytest.raises(ValueError, match="^max_arrows must be at least 0$"):
        random_triple(1, 3, -1)


def test_generation_exhausted(monkeypatch):
    class Rejecting:
        skewed_gentle = False

    monkeypatch.setattr(validate, "validate_skewed_gentle", lambda t: Rejecting())
    with pytest.raises(GenerationExhausted):
        generate.random_triple(0, 3, 3)


def _reference_relation_options(outs, ins):
    """Every subset of the composable pairs at a vertex, kept when both the
    chosen pairs and the leftover pairs touch every arrow at most once."""
    pairs = [(x, y) for x in outs for y in ins]
    options = []
    for size in range(len(pairs) + 1):
        for chosen in combinations(pairs, size):
            chosen_set = set(chosen)
            ok = True
            for x in outs:
                if sum(1 for p in chosen_set if p[0] == x) > 1:
                    ok = False
                if sum(1 for y in ins if (x, y) not in chosen_set) > 1:
                    ok = False
            for y in ins:
                if sum(1 for p in chosen_set if p[1] == y) > 1:
                    ok = False
                if sum(1 for x in outs if (x, y) not in chosen_set) > 1:
                    ok = False
            if ok:
                options.append(chosen)
    return options


# "l" on both sides is a loop at the vertex
@pytest.mark.parametrize("outs", [["x"], ["x", "z"], ["l"], ["l", "x"], ["x", "l"]])
@pytest.mark.parametrize("ins", [["y"], ["y", "w"], ["l"], ["l", "y"], ["y", "l"]])
def test_relation_options_match_the_subset_search(outs, ins):
    assert generate._relation_options(outs, ins) == _reference_relation_options(outs, ins)


@pytest.mark.parametrize("size,worst", [((6, 7), 24), ((8, 11), 46), ((12, 16), 44)])
def test_worst_attempt_count_per_size(monkeypatch, size, worst):
    """The most attempts any of seeds 0-299 takes, against RETRY_BUDGET = 64:
    a sampler change that eats the budget, or moves the seeded stream the
    corpus is drawn from, shows here."""
    attempts, attempt = [0], generate._attempt

    def counted(*args):
        attempts[0] += 1
        return attempt(*args)

    monkeypatch.setattr(generate, "_attempt", counted)
    counts = []
    for seed in range(300):
        attempts[0] = 0
        generate.random_triple(seed, *size)
        counts.append(attempts[0])
    assert max(counts) == worst
