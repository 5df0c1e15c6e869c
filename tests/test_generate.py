import hashlib
import random
from itertools import combinations

import pytest

import skewgentle.generate as generate
import skewgentle.validate as validate
from skewgentle import (
    GenerationExhausted,
    random_triple,
    serialize,
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


# sha256 of serialize(random_triple(seed, *size)) for seeds 0-299, a line
# each: how a draw is decided must not change what is drawn
_DRAW_DIGESTS = {
    (6, 7): "2ba097a73866e40c39c5308d238585de4ce87e7550f4f3d68014a006347ab4d5",
    (8, 11): "95cd270c0a6b2db38cff2a9528fd718cdfeadada799a11e7cf936cd960fffa6d",
    (12, 16): "20a0f50dcd2883c399d5d40dbf4878118b66339672aa0aa4ade66c5de4091924",
}


@pytest.mark.parametrize("size", sorted(_DRAW_DIGESTS))
def test_draws_are_pinned(size):
    text = "".join(serialize(random_triple(seed, *size)) + "\n" for seed in range(300))
    assert hashlib.sha256(text.encode()).hexdigest() == _DRAW_DIGESTS[size]


def test_each_attempt_is_decided_as_the_definition_decides_it():
    # the verdict a draw is kept or thrown away by, against (Q^sp, I^sp)
    # gentle and finite dimensional, on attempts of every outcome
    kept = 0
    for seed in range(300):
        rng = random.Random(seed)
        for _ in range(10):
            t = generate._attempt(rng, 8, 11)
            sp = t.sp_pair
            expected = not sp.gentle_violations and sp.walk.cycle is None
            assert validate._is_skewed_gentle(t) == expected, seed
            kept += expected
    assert 200 < kept < 2800, kept


def test_generation_exhausted(monkeypatch):
    monkeypatch.setattr(validate, "_is_skewed_gentle", lambda t: False)
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
