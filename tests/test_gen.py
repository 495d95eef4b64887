from __future__ import annotations

import hashlib
from random import Random

import pytest

from balint import (
    GenSpec,
    generate,
    greedy_mcis,
    is_three_bounded,
    is_tptn,
    oracle_mcis,
    random_three_bounded,
    random_tptn_uniform3,
    serialize_dimacs,
    serialize_instance,
)
from balint.gen import MODELS


@pytest.mark.parametrize("model", MODELS)
def test_generation_is_deterministic_per_spec(model: str):
    spec = GenSpec(n=12, k=3, seed=7, model=model)
    assert generate(spec) == generate(spec)


@pytest.mark.parametrize("model", ["uniform-random", "proper-unit", "sat-derived"])
def test_seed_changes_stochastic_models(model: str):
    # greedy-adversarial is a fixed pattern, so only the random models react.
    a = generate(GenSpec(n=12, k=3, seed=7, model=model))
    b = generate(GenSpec(n=12, k=3, seed=8, model=model))
    assert a != b


def test_uniform_random_respects_span_and_counts():
    spec = GenSpec(n=20, k=4, seed=1, model="uniform-random")
    inst = generate(spec)
    assert inst.n == 20 and inst.k == 4
    assert all(0 <= iv.left <= iv.right <= 80 for iv in inst.intervals)
    assert not inst.proper_flag


def test_uniform_random_f_target_guarantees_class_sizes():
    spec = GenSpec(n=12, k=3, seed=0, model="uniform-random", f_target=2)
    inst = generate(spec)
    assert all(len(ids) >= 2 for ids in inst.color_class_ids())


def test_proper_unit_intervals_are_unit_and_proper():
    spec = GenSpec(n=15, k=2, seed=4, model="proper-unit")
    inst = generate(spec)
    assert inst.proper_flag
    assert {iv.right - iv.left for iv in inst.intervals} == {1}


def test_empty_instance_generation():
    inst = generate(GenSpec(n=0, k=2, seed=0, model="uniform-random"))
    assert inst.n == 0
    assert inst.missing_colors() == (1, 2)


def test_adversarial_block_layout_and_color_override():
    inst = generate(GenSpec(n=6, k=9, seed=0, model="greedy-adversarial"))
    # two blocks, one ahead of the other by the fixed stride; the requested k
    # is replaced by two colors per block
    assert inst.k == 4
    assert [(iv.left, iv.right, iv.color) for iv in inst.intervals] == [
        (0, 2, 1),
        (1, 4, 2),
        (5, 6, 1),
        (8, 10, 3),
        (9, 12, 4),
        (13, 14, 3),
    ]


@pytest.mark.parametrize("blocks", [1, 2, 3, 4])
def test_adversarial_greedy_exactly_half_of_optimum(blocks: int):
    inst = generate(GenSpec(n=3 * blocks, k=1, seed=0, model="greedy-adversarial"))
    assert greedy_mcis(inst).distinct_colors == blocks
    assert oracle_mcis(inst).distinct_colors == 2 * blocks


def test_sat_derived_output_shape():
    inst = generate(GenSpec(n=10, k=3, seed=2, model="sat-derived"))
    # n is a size hint: the real count is the occurrence total of the sampled
    # formula; the layout is the independent-set reduction, hence proper.
    assert inst.proper_flag
    assert inst.n >= 2


@pytest.mark.parametrize(
    "n, k",
    [(-1, 1), (3, 0)],
)
def test_generate_validates_parameters(n: int, k: int):
    with pytest.raises(ValueError):
        generate(GenSpec(n=n, k=k, seed=0, model="uniform-random"))


@pytest.mark.parametrize(
    "model, f_target",
    [("uniform-random", -1), *((m, 3) for m in MODELS if m != "uniform-random")],
)
def test_gen_spec_refuses_an_f_target_it_would_ignore(model: str, f_target: int):
    with pytest.raises(ValueError, match="f_target"):
        GenSpec(n=6, k=2, seed=0, model=model, f_target=f_target)


def test_gen_spec_takes_f_target_zero_on_uniform_random():
    spec = GenSpec(n=6, k=2, seed=0, f_target=0)
    assert generate(spec) == generate(GenSpec(n=6, k=2, seed=0))


def test_gen_spec_replace_checks_like_the_constructor():
    spec = GenSpec(n=6, k=2, seed=0)
    assert spec._replace(seed=3) == GenSpec(n=6, k=2, seed=3)
    with pytest.raises(ValueError, match="f_target applies only to uniform-random"):
        spec._replace(model="proper-unit", f_target=1)


def test_generate_rejects_unknown_model():
    with pytest.raises(ValueError):
        generate(GenSpec(n=3, k=1, seed=0, model="bogus"))


@pytest.mark.parametrize("seed", range(20))
def test_random_three_bounded_always_three_bounded(seed: int):
    rng = Random(seed)
    phi = random_three_bounded(rng.randint(2, 8), rng)
    assert is_three_bounded(phi)
    assert 1 <= len(phi.clauses)


def test_random_three_bounded_deterministic_for_seeded_rng():
    assert random_three_bounded(5, Random(9)) == random_three_bounded(5, Random(9))
    with pytest.raises(ValueError):
        random_three_bounded(1, Random(0))


@pytest.mark.parametrize("seed", range(20))
def test_random_tptn_uniform3_is_uniform_tptn(seed: int):
    phi = random_tptn_uniform3(3, Random(seed))
    assert is_tptn(phi)
    assert all(len(c) == 3 for c in phi.clauses)
    assert len(phi.clauses) == 4


def test_random_tptn_uniform3_needs_multiple_of_three():
    with pytest.raises(ValueError):
        random_tptn_uniform3(4, Random(0))
    assert random_tptn_uniform3(6, Random(1)).num_vars == 6


def stream_digest() -> str:
    """sha256 over a grid of generated instances and formulas: every model
    (n from 0, k from 1, f_target None/1/3 on uniform-random) and both formula
    generators over a few seeds.  It pins the random streams byte for byte."""
    digest = hashlib.sha256()
    for model in MODELS:
        targets = (None, 1, 3) if model == "uniform-random" else (None,)
        for n in (0, 1, 2, 5, 17, 64, 300):
            for k in (1, 2, 3, 7, 17):
                for seed in range(4):
                    for f_target in targets:
                        spec = GenSpec(n=n, k=k, seed=seed, model=model, f_target=f_target)
                        digest.update(serialize_instance(generate(spec)).encode())
    for seed in range(4):
        for num_vars in (2, 5, 40, 300):
            digest.update(serialize_dimacs(random_three_bounded(num_vars, Random(seed))).encode())
        for num_vars in (3, 6):
            digest.update(serialize_dimacs(random_tptn_uniform3(num_vars, Random(seed))).encode())
    return digest.hexdigest()


# stream_digest() of the generators when they drew with random.randint; the
# same on Python 3.10 to 3.13.
PINNED_STREAM_DIGEST = "da29e8e17eb3e1a9d34011035b23b6a97f156e8d5f8c5e4fc112de2642ac2690"


def test_generated_streams_are_pinned():
    assert stream_digest() == PINNED_STREAM_DIGEST
