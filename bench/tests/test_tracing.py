import types

import pytest

import tracing


def _span(sid, parent, start, end, name="x", pid=1):
    return {"run": "r", "id": sid, "parent": parent, "name": name, "pid": pid,
            "start_s": start, "end_s": end, "attrs": {}}


def test_self_time_subtracts_nested_children():
    spans = [
        _span("a", None, 0.0, 10.0),
        _span("b", "a", 1.0, 3.0),
        _span("c", "b", 1.5, 2.0),
        _span("d", "a", 5.0, 6.0),
    ]
    selves = tracing.self_times(spans)
    assert selves == pytest.approx({"a": 7.0, "b": 1.5, "c": 0.5, "d": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("a", None, 0.0, 10.0),
        _span("b", "a", 1.0, 4.0),
        _span("c", "a", 3.0, 6.0),  # overlaps b by one second
        _span("d", "a", 9.0, 12.0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans)["a"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_ignores_children_in_other_processes():
    spans = [_span("a", None, 0.0, 10.0, pid=1), _span("w", "a", 1.0, 9.0, pid=2)]
    assert tracing.self_times(spans)["a"] == pytest.approx(10.0)


def test_layer_metrics_sum_self_time_per_name():
    spans = [
        _span("root", None, 0.0, 10.0, name="run"),
        _span("e1", "root", 0.0, 6.0, name="experiments.analysis"),
        _span("g", "e1", 1.0, 3.0, name="core.diskcache.get"),
        _span("e2", "root", 6.0, 9.5, name="experiments.analysis"),
    ]
    spans[2]["attrs"]["hit"] = True
    metrics = tracing.layer_metrics(spans, main_pid=1)
    assert metrics["experiments.analysis_s"] == pytest.approx(4.0 + 3.5)
    assert metrics["core.diskcache.get_s"] == pytest.approx(2.0)
    assert metrics["core.diskcache.hit_ratio"] == 1.0
    assert metrics["trace.unattributed_s"] == pytest.approx(0.5)
    assert metrics["trace.work_s"] == pytest.approx(10.0)


def _target_module():
    module = types.ModuleType("target")

    def add(a, b):
        return a + b

    def boom():
        raise KeyError("k")

    def count(n):
        yield from range(n)

    class Thing:
        def method(self, x):
            return x * 2

        @classmethod
        def make(cls, x):
            return (cls, x)

    module.add, module.boom, module.count, module.Thing = add, boom, count, Thing
    return module


def test_wrappers_keep_results_and_exceptions_and_record_spans():
    module = _target_module()
    tracer = tracing.Tracer("t")
    assert tracer.wrap(module, "add", "layer.add", attrs=lambda r, a, k: {"result": r})
    assert tracer.wrap(module, "boom", "layer.boom")
    assert tracer.wrap(module.Thing, "method", "layer.method")
    assert tracer.wrap(module.Thing, "make", "layer.make")
    assert tracer.wrap(module, "count", "layer.next", iterate=True)

    assert module.add(2, 3) == 5
    with pytest.raises(KeyError):
        module.boom()
    assert module.Thing().method(4) == 8
    assert module.Thing.make(1) == (module.Thing, 1)
    assert list(module.count(3)) == [0, 1, 2]

    names = [s["name"] for s in tracer.spans]
    assert names.count("layer.next") == 4  # three items and the final next()
    assert {"layer.add", "layer.boom", "layer.method", "layer.make"} <= set(names)
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["layer.add"]["attrs"] == {"result": 5}
    assert by_name["layer.boom"]["attrs"] == {"error": "KeyError"}
    assert all(s["end_s"] >= s["start_s"] for s in tracer.spans)


def test_restore_puts_originals_back():
    module = _target_module()
    add, method, make = module.add, module.Thing.__dict__["method"], module.Thing.__dict__["make"]
    registry = {"a": add}
    tracer = tracing.Tracer("t")
    tracer.wrap(module, "add", "x")
    tracer.wrap(module.Thing, "method", "x")
    tracer.wrap(module.Thing, "make", "x")
    tracer.wrap(registry, "a", "x")
    assert module.add is not add and registry["a"] is not add
    tracer.restore()
    assert module.add is add
    assert registry["a"] is add
    assert module.Thing.__dict__["method"] is method
    assert module.Thing.__dict__["make"] is make


def test_inherited_method_is_restored_by_removal():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tracer = tracing.Tracer("t")
    assert tracer.wrap(Child, "f", "x")
    assert Child().f() == 1 and "f" in vars(Child)
    tracer.restore()
    assert "f" not in vars(Child) and Child().f() == 1


def test_missing_targets_are_reported_not_patched():
    module = _target_module()
    tracer = tracing.Tracer("t")
    assert not tracer.wrap(module, "gone", "x")
    assert not tracer.wrap({}, "gone", "x")
    assert not tracer._patches


def test_after_hook_runs_once_the_span_is_closed():
    module = _target_module()
    tracer = tracing.Tracer("t")
    seen = []
    tracer.wrap(module, "add", "x", after=lambda: seen.append(len(tracer.spans)))
    module.add(1, 1)
    assert seen == [1]


def test_dump_writes_only_this_process(tmp_path):
    tracer = tracing.Tracer("t")
    with tracer.span("a"):
        pass
    tracer.spans.append(_span("other", None, 0.0, 1.0, pid=-1))
    tracer.dump(tmp_path)
    lines = list(tmp_path.glob("spans-*.jsonl"))[0].read_text().splitlines()
    assert len(lines) == 1 and '"name": "a"' in lines[0]
    assert tracer.spans == []


def test_install_covers_every_layer_of_the_program(tmp_path):
    tracer = tracing.Tracer("t")
    try:
        assert tracing.install(tracer, tmp_path) == []
    finally:
        tracer.restore()
