"""Seeded tree generation: determinism, validity, corpus output."""

import pytest

from sfpa import (
    GenConfig,
    InfeasibleConfigError,
    generate,
    generate_corpus,
    parse_ft,
    serialize_ft,
)
from helpers import make_rng, trees_equivalent


def test_same_seed_same_tree():
    cfg = GenConfig(seed=123, n_be=8, n_gates=6, n_multiparent=3)
    assert serialize_ft(generate(cfg)) == serialize_ft(generate(cfg))


def test_different_seed_different_tree():
    a = GenConfig(seed=1, n_be=8, n_gates=6)
    b = GenConfig(seed=2, n_be=8, n_gates=6)
    assert serialize_ft(generate(a)) != serialize_ft(generate(b))


def test_requested_counts_are_exact():
    for seed in range(20):
        cfg = GenConfig(seed=seed, n_be=10, n_gates=8, n_multiparent=4)
        t = generate(cfg)
        assert len(t.basic_events()) == 10
        assert len(t) - len(t.basic_events()) == 8
        assert len(t.multiparent_nodes()) == 4


def test_zero_multiparent_gives_a_tree():
    for seed in range(20):
        t = generate(GenConfig(seed=seed, n_be=6, n_gates=5, n_multiparent=0))
        assert not t.multiparent_nodes()


def test_single_be_config():
    t = generate(GenConfig(seed=0, n_be=1, n_gates=0))
    assert len(t) == 1


def test_prob_range_respected():
    cfg = GenConfig(seed=5, n_be=12, n_gates=6, prob_range=(0.2, 0.3))
    t = generate(cfg)
    assert all(0.2 <= p <= 0.3 for p in t.probs.values())


def test_output_round_trips_through_text_format():
    rng = make_rng(50)
    for _ in range(20):
        n_gates = rng.randint(1, 8)
        n_be = rng.randint(1, min(10, 3 * n_gates + 1))
        cfg = GenConfig(
            seed=rng.getrandbits(32),
            n_be=n_be,
            n_gates=n_gates,
            n_multiparent=rng.randint(0, min(3, n_be + n_gates - 1)),
        )
        t = generate(cfg)
        assert trees_equivalent(t, parse_ft(serialize_ft(t)))


def test_validity_fuzz():
    # FaultTree.__init__ re-validates everything, so constructing many
    # trees without an exception is the whole point of this test
    rng = make_rng(51)
    for _ in range(300):
        n_gates = rng.randint(1, 12)
        max_children = rng.randint(2, 5)
        n_be = rng.randint(1, n_gates * max_children - (n_gates - 1))
        cfg = GenConfig(
            seed=rng.getrandbits(48),
            n_be=n_be,
            n_gates=n_gates,
            max_children=max_children,
            p_and=rng.random(),
            n_multiparent=rng.randint(0, n_be + n_gates - 1),
        )
        generate(cfg)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_be=0, n_gates=2),
        dict(n_be=2, n_gates=0),
        dict(n_be=1, n_gates=0, n_multiparent=1),
        dict(n_be=4, n_gates=2, n_multiparent=6),
        dict(n_be=10, n_gates=2, max_children=3),
        dict(n_be=2, n_gates=2, max_children=1),
        dict(n_be=2, n_gates=1, prob_range=(0.5, 1.5)),
    ],
)
def test_infeasible_configs_rejected(kwargs):
    with pytest.raises(InfeasibleConfigError):
        generate(GenConfig(seed=0, **kwargs))


def test_corpus_with_manifest(tmp_path):
    configs = [GenConfig(seed=s, n_be=5, n_gates=4, n_multiparent=1)
               for s in range(3)]
    entries = generate_corpus(configs, tmp_path)
    assert len(entries) == 3
    lines = (tmp_path / "manifest.csv").read_text().splitlines()
    assert lines[0].startswith("# prng:")
    assert lines[1] == "file,nodes,bes,gates,multiparent,c,seed"
    for e in entries:
        t = parse_ft((tmp_path / e.file).read_text())
        assert len(t) == e.nodes
        assert len(t.multiparent_nodes()) == e.multiparent
