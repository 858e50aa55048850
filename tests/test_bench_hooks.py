"""The benchmark's tracer finds every name it wraps in the program.

perfbench/spans.py wraps program functions by (module, attribute) name.  A
renamed or moved function would make a traced benchmark run crash, or stop
recording a layer, so this test reads spans.py (without writing anything
under perfbench/) and checks that every name resolves, that install() and
uninstall() leave the program as they found it, that a classify call
records the factorer's span through the name nonic calls it by and the
engine's analyze_phi span, and that an analysis over F_4 records the
residue-field span.
"""

import importlib
import os
import types

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("spans")
    module.__file__ = SPANS
    with open(SPANS, encoding="utf-8") as fh:
        # compiled in memory: no bytecode cache is written beside the file
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def _places(spans):
    for table in (spans.WRAPPED, spans.COUNTED):
        for places in table.values():
            yield from places


@pytest.fixture(scope="module")
def program(spans):
    names = {where.partition(".")[0] for where, _ in _places(spans)}
    return {name: importlib.import_module(f"nonicindex.{name}") for name in names}


def _owner(program, where):
    """The module, or the class in it, that a place names: "gf" or "gf.ExtField"."""
    module, _, cls = where.partition(".")
    return getattr(program[module], cls) if cls else program[module]


def _attributes(spans, program):
    return [getattr(_owner(program, where), attr) for where, attr in _places(spans)]


def test_every_hooked_name_resolves(spans, program):
    for where, attr in _places(spans):
        assert callable(getattr(_owner(program, where), attr, None)), (where, attr)


def test_install_then_uninstall_restores_the_program(spans, program):
    # earlier tests leave the polygon caches warm, which would hide the
    # residue-field build that this classify call makes from cold
    for cache in (program["polygon"]._power_digits, program["polygon"]._analysis):
        cache.cache_clear()
    tracer = spans.Tracer(program)
    before = _attributes(spans, program)
    tracer.install()
    try:
        during = _attributes(spans, program)
        assert all(x is not y for x, y in zip(before, during))
        program["nonic"].classify(51, 122)
        classified = tracer.totals()
        # x^2 + x + 1 divides x^9 + 2x + 1 mod 2; its residue field is F_4
        polygon = program["polygon"]
        polygon.analyze_phi(polygon.trinomial(2, 1), 2, (1, 1, 1))
    finally:
        tracer.uninstall()
    assert all(x is y for x, y in zip(before, _attributes(spans, program)))
    assert classified["nonic.classify"]["calls"] == 1
    assert classified["nonic.bounded_factor"]["calls"] >= 1
    # the engine runs through the names behind the per-layer metrics: at
    # p = 5, F = (x + 1)^2 g mod 5 with g of degree 7; the repeated factor
    # takes one analysis, and g Dedekind's rule, with no residue field
    assert classified["polygon.analyze_phi"]["calls"] == 1
    assert "gf.ExtField" not in classified
    totals = tracer.totals()
    assert totals["polygon.analyze_phi"]["calls"] == 2
    assert totals["gf.ExtField"]["calls"] == 1
    assert tracer.counts["arith.is_prime.calls"] >= 1
