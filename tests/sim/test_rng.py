"""Tests for deterministic named RNG streams."""

from repro.sim.rng import RngRegistry


def test_same_name_same_stream_object():
    registry = RngRegistry(1)
    assert registry.stream("a") is registry.stream("a")


def test_streams_reproducible_across_registries():
    a = RngRegistry(42).stream("workload")
    b = RngRegistry(42).stream("workload")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    registry = RngRegistry(42)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_stream_isolation_from_creation_order():
    """Creating extra streams must not perturb existing ones."""
    r1 = RngRegistry(42)
    seq_direct = [r1.stream("target").random() for _ in range(5)]

    r2 = RngRegistry(42)
    r2.stream("noise1").random()
    r2.stream("noise2").random()
    seq_after_noise = [r2.stream("target").random() for _ in range(5)]
    assert seq_direct == seq_after_noise


def test_fork_is_independent_of_parent():
    parent = RngRegistry(42)
    child = parent.fork("child")
    assert child.root_seed != parent.root_seed
    assert (
        parent.stream("x").random() != child.stream("x").random()
    )


def test_fork_reproducible():
    a = RngRegistry(42).fork("w").stream("x").random()
    b = RngRegistry(42).fork("w").stream("x").random()
    assert a == b
