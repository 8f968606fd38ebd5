"""Tracer: span recording, disabled no-op path, thread safety."""

import threading

from repro.core.stitcher import Stitcher
from repro.grid.neighbors import Pair
from repro.grid.tile_grid import GridPosition
from repro.observe import NULL_TRACER, Span, Tracer


class TestSpanRecording:
    def test_context_manager_records_one_span(self):
        t = Tracer()
        with t.span("fft", "worker-0", key="(1,2)"):
            pass
        assert len(t.spans) == 1
        s = t.spans[0]
        assert s.name == "fft"
        assert s.track == "worker-0"
        assert s.key == "(1,2)"
        assert s.duration >= 0.0
        assert s.end >= s.start >= 0.0

    def test_span_records_even_when_body_raises(self):
        t = Tracer()
        try:
            with t.span("fft", "worker-0"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert t.span_count("fft") == 1

    def test_record_span_manual(self):
        t = Tracer()
        t.record_span("read", "io", 0.1, 0.3, args={"queue": "work"})
        assert t.spans == [Span("read", "io", 0.1, 0.3, None, {"queue": "work"})]

    def test_now_is_monotonic_from_creation(self):
        t = Tracer()
        a, b = t.now(), t.now()
        assert 0.0 <= a <= b

    def test_counter_samples(self):
        t = Tracer()
        t.counter("queue:work", 3, t=0.5)
        t.counter("queue:work", 1)
        t.counter("queue:events", 0, t=0.7)
        assert t.counter_names() == ["queue:work", "queue:events"]
        assert t.counters[0].value == 3.0
        assert t.counters[0].t == 0.5

    def test_tracks_first_appearance_order(self):
        t = Tracer()
        t.record_span("a", "t2", 0, 1)
        t.record_span("b", "t1", 0, 1)
        t.record_span("c", "t2", 1, 2)
        assert t.tracks() == ["t2", "t1"]

    def test_busy_seconds_excludes_wait_by_default(self):
        t = Tracer()
        t.record_span("fft", "w0", 0.0, 1.0)
        t.record_span("fft:wait", "w0", 1.0, 3.0)
        assert t.busy_seconds("w0") == 1.0
        assert t.busy_seconds("w0", include_wait=True) == 3.0
        assert t.busy_seconds("elsewhere") == 0.0

    def test_span_count_prefix(self):
        t = Tracer()
        t.record_span("fft", "w0", 0, 1)
        t.record_span("fft:wait", "w0", 1, 2)
        t.record_span("read", "w0", 2, 3)
        assert t.span_count() == 3
        assert t.span_count("fft") == 2
        assert t.span_count("read") == 1


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("fft", "w0"):
            pass
        t.record_span("read", "w0", 0, 1)
        t.counter("queue", 5)
        assert t.spans == []
        assert t.counters == []

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x", "y"):
            pass
        assert NULL_TRACER.spans == []


class TestSpanKeys:
    """Span keys are tile positions and pairs, formatted only when kept."""

    def test_untraced_stitch_formats_no_key(self, dataset_4x4, monkeypatch):
        calls = []
        for cls in (GridPosition, Pair):
            real = cls.__repr__
            monkeypatch.setattr(
                cls, "__repr__",
                lambda self, real=real: calls.append(type(self)) or real(self))
        assert str(GridPosition(0, 0)) and calls == [GridPosition]
        calls.clear()
        Stitcher().stitch(dataset_4x4)
        assert calls == []

    def test_traced_stitch_keys_spell_positions_and_pairs(self, dataset_4x4):
        tracer = Tracer()
        Stitcher(trace=tracer).stitch(dataset_4x4)
        keys: dict[str, set] = {}
        for span in tracer.spans:
            keys.setdefault(span.name, set()).add(span.key)
        tiles = {f"GridPosition(row={r}, col={c})"
                 for r in range(4) for c in range(4)}
        assert keys["read"] == keys["fft"] == keys["tilestats"] == tiles
        assert len(keys["pair"]) == 24
        assert (
            "Pair(first=GridPosition(row=1, col=2), second=GridPosition("
            "row=1, col=3), direction=<Direction.WEST: 'west'>)"
        ) in keys["pair"]
        assert (
            "Pair(first=GridPosition(row=0, col=3), second=GridPosition("
            "row=1, col=3), direction=<Direction.NORTH: 'north'>)"
        ) in keys["pair"]


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        t = Tracer()
        n_threads, per_thread = 8, 500

        def worker(wid):
            for i in range(per_thread):
                t.record_span("op", f"w{wid}", i, i + 1, key=str(i))
                t.counter(f"c{wid}", i)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert len(t.spans) == n_threads * per_thread
        assert len(t.counters) == n_threads * per_thread
        assert sorted(t.tracks()) == [f"w{w}" for w in range(n_threads)]
