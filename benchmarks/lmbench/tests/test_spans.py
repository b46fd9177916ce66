"""Span self time = duration minus what the children cover."""

import json

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def record_example():
    clock = FakeClock()
    recorder = spans.Recorder(rep=3, clock=clock)
    root = recorder.begin("driver.pass")          # 0 .. 10
    clock.now = 1.0
    a = recorder.begin("lmerge.insert")           # 1 .. 4
    clock.now = 2.0
    inner = recorder.begin("structures.find")     # 2 .. 3 (child of a)
    clock.now = 3.0
    recorder.end(inner)
    clock.now = 4.0
    recorder.end(a)
    clock.now = 6.0
    b = recorder.begin("lmerge.insert")           # 6 .. 9
    clock.now = 9.0
    recorder.end(b)
    clock.now = 10.0
    recorder.end(root)
    return recorder


def test_self_time_subtracts_children_only_once():
    closed = record_example().closed()
    own = spans.self_times(closed)
    assert own["structures.find"] == pytest.approx(1.0)
    # Two insert spans of 3 s each; the first loses 1 s to its child.
    assert own["lmerge.insert"] == pytest.approx(5.0)
    # The root keeps what no child covers: 10 - 3 - 3.
    assert own["driver.pass"] == pytest.approx(4.0)
    # Self times of all spans add up to the traced wall time.
    assert sum(own.values()) == pytest.approx(spans.root_wall(closed)) == 10.0


def test_spans_carry_parent_and_rep_ids():
    closed = record_example().closed()
    by_id = {span[0]: span for span in closed}
    assert by_id[0][4] == -1                      # root
    assert by_id[1][4] == 0 and by_id[2][4] == 1  # nesting
    assert {span[5] for span in closed} == {3}    # one rep id throughout
    assert spans.span_counts(closed) == {
        "driver.pass": 1, "lmerge.insert": 2, "structures.find": 1
    }


def test_only_the_innermost_span_may_close():
    recorder = spans.Recorder()
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


def test_call_closes_the_span_when_the_layer_raises():
    recorder = spans.Recorder()

    def boom():
        raise KeyError("layer failed")

    with pytest.raises(KeyError):
        recorder.call("exchange.partition", boom)
    assert [span[1] for span in recorder.closed()] == ["exchange.partition"]


def test_dump_writes_closed_spans_once(tmp_path):
    recorder = record_example()
    recorder.begin("still.open")
    path = tmp_path / "trace.json"
    spans.dump_spans(str(path), recorder.closed(), {"workload": "w"})
    document = json.loads(path.read_text())
    assert document["workload"] == "w"
    assert len(document["spans"]) == 4
    assert document["columns"][:2] == ["id", "name"]
