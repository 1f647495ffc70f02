"""The package's records are immutable NamedTuples that keep the
constructor checks, equality and defaults of the frozen records they
replaced."""

import typing

import numpy as np
import pytest

import bter
from bter import (
    ConnectivityFormula,
    DegreeDistribution,
    DegreeSequence,
    GenerationConfig,
    audit_community,
    build_graph,
    clustering_profile,
    compute_report,
    count_triangles_wedges,
    generate_bter,
    synthesize_powerlaw,
    top_eigenvalues,
)


def _one_of_each_exported_record() -> list:
    seq = synthesize_powerlaw(200, 2.0, 15)
    cfg = GenerationConfig(seed=1)
    graph, trace = generate_bter(seq, cfg)
    k4 = build_graph([(u, v) for u in range(4) for v in range(u + 1, 4)])[0]
    return [
        cfg.connectivity, cfg, seq, DegreeDistribution({1: 2, 3: 1}), trace,
        trace.stats, trace.partition, count_triangles_wedges(k4),
        clustering_profile(k4), top_eigenvalues(k4, k=2), compute_report(k4),
        audit_community([2, 2, 2]),
    ]


def test_every_exported_record_is_frozen():
    records = _one_of_each_exported_record()
    exported = {getattr(bter, name) for name in bter.__all__}
    assert {type(r) for r in records} == {
        t for t in exported if isinstance(t, type) and issubclass(t, tuple)
    }
    for record in records:
        assert "__dict__" not in dir(record)  # no attribute beside the fields
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_no_record_field_annotation_is_a_forward_ref():
    # typing.NamedTuple compiles a ForwardRef for each quoted (or
    # postponed, under `from __future__ import annotations`) field
    # annotation when the module is imported
    for record in _one_of_each_exported_record():
        for cls in type(record).__mro__:
            for name, annotation in vars(cls).get("__annotations__", {}).items():
                assert not isinstance(annotation, (str, typing.ForwardRef)), (cls, name)


def test_defaults_and_the_cubic_variant():
    assert GenerationConfig(seed=1).connectivity == ConnectivityFormula()
    assert GenerationConfig(seed=1) == GenerationConfig(1, ConnectivityFormula(), 0.75, 1.10)
    cubic = ConnectivityFormula("cubic")
    assert (cubic.rho, cubic.eta, cubic.exponent) == (0.7, 0.6, 3)
    assert ConnectivityFormula(rho=0.5)._replace(variant="cubic") == cubic
    # a record compares equal to the plain tuple of its values
    assert ConnectivityFormula() == ("standard", 0.95, 0.05)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConnectivityFormula(variant="quartic"),
        lambda: ConnectivityFormula()._replace(rho=0.0),
        lambda: GenerationConfig(seed=1)._replace(manual_fraction=1.5),
        lambda: GenerationConfig(seed=1, q_override=3),
        lambda: DegreeSequence(np.array([2, 1])),
        lambda: DegreeSequence.from_degrees([1, 2])._replace(degrees=np.array([0, 1])),
        lambda: DegreeDistribution({0: 1}),
    ],
)
def test_constructor_and_replace_check_values(make):
    with pytest.raises(ValueError):
        make()


def test_sequence_compares_its_degrees_and_trace_leaves_out_its_partition():
    a, b = DegreeSequence.from_degrees([1, 2, 2]), DegreeSequence.from_degrees([2, 1, 2])
    c = DegreeSequence.from_degrees([1, 2, 3])
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a.degrees.flags.writeable is False

    seq = synthesize_powerlaw(300, 2.0, 20)
    _, trace = generate_bter(seq, GenerationConfig(seed=4))
    other = trace._replace(partition=None)
    assert trace == other and not trace != other
    assert trace != trace._replace(q=trace.q + 2)
