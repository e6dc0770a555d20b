import types

import pytest

from perfbench.tracing import ITEM_SPAN, ItemLog, Span, Tracer, _covered, patched


def test_self_time_subtracts_the_children():
    tracer = Tracer()
    tracer.spans = [
        Span(ITEM_SPAN, 0.0, 10.0, -1, "a"),
        Span("core.distance_curve", 1.0, 4.0, 0, "a"),
        Span("pipeline.build_batch", 5.0, 9.0, 0, "a"),
        Span("backends.sample", 6.0, 8.0, 2, "a"),
    ]
    assert tracer.self_times() == {
        ITEM_SPAN: 3.0, "core.distance_curve": 3.0,
        "pipeline.build_batch": 2.0, "backends.sample": 2.0,
    }
    assert sum(tracer.self_times().values()) == 10.0


def test_overlapping_children_are_counted_once():
    kids = [Span("x", 1.0, 5.0, 0, None), Span("x", 3.0, 7.0, 0, None),
            Span("x", 9.0, 12.0, 0, None)]
    assert _covered(0.0, 10.0, kids) == pytest.approx(7.0)


def test_item_log_marks_failures_and_opens_root_spans():
    tracer = Tracer()
    log = ItemLog(tracer)
    with log.item("ok"):
        with tracer.span("core.distance_curve"):
            pass
    with pytest.raises(ValueError):
        with log.item("bad"):
            raise ValueError("boom")
    with log.item("ok"):
        pass
    assert [(it.id, it.ok) for it in log.items] == [
        ("0/ok", True), ("0/bad", False), ("1/ok", True)]
    assert [(s.name, s.parent, s.item) for s in tracer.spans] == [
        (ITEM_SPAN, -1, "0/ok"), ("core.distance_curve", 0, "0/ok"),
        (ITEM_SPAN, -1, "0/bad"), (ITEM_SPAN, -1, "1/ok")]


def test_patched_restores_modules_and_instances():
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f

    class Thing:
        def g(self):
            return 2

    thing = Thing()
    with patched([(module, "f", lambda: 3), (thing, "g", lambda: 4)]):
        assert (module.f(), thing.g()) == (3, 4)
    assert module.f is original
    assert "g" not in vars(thing) and thing.g() == 2
