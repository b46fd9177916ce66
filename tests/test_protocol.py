"""Ring-protocol verifier: the repo verifies clean, broken idioms don't."""

import textwrap

from repro.analysis.protocol import (
    DEFAULT_PROTOCOL_PATHS,
    ProtocolReport,
    verify_paths,
    verify_source,
)
from repro.engine.shm import FRAME_PROTOCOL, FrameSpec, frame_name


def _verify(source, path="src/repro/engine/example.py"):
    return ProtocolReport(verify_source(textwrap.dedent(source), path=path))


def _violations(report):
    return [v for site in report.sites for v in site.violations]


class TestFrameProtocolSpec:
    def test_every_kind_has_a_spec(self):
        assert sorted(FRAME_PROTOCOL) == list(range(1, 9))
        for kind, spec in FRAME_PROTOCOL.items():
            assert isinstance(spec, FrameSpec)
            assert spec.kind == kind
            assert spec.producer in ("driver", "worker")
            assert spec.discipline in ("blocking", "bounded", "best_effort")

    def test_terminal_kinds(self):
        terminals = {s.name for s in FRAME_PROTOCOL.values() if s.terminal}
        assert terminals == {"DONE", "ERR"}

    def test_telemetry_is_best_effort(self):
        telem = next(
            s for s in FRAME_PROTOCOL.values() if s.name == "TELEM"
        )
        assert telem.discipline == "best_effort"

    def test_frame_name_fallback(self):
        assert frame_name(1) == "CTRL"
        assert frame_name(99) == "?99"


class TestRepoSites:
    def test_every_default_module_site_is_clean(self):
        report = verify_paths(DEFAULT_PROTOCOL_PATHS)
        assert report.ok, report.render()
        sites = report.sites
        # A pin, not a floor: a site that drops out of the scanner's
        # view must fail here, and so must a second worker or a second
        # driver-side put loop.  The exchange ships 15 ring sites.
        assert len(sites) == 15, report.render()
        assert not [s for s in sites if s.role == "unknown"]
        # Every default module still speaks the protocol: a module whose
        # ring sites all moved away must leave the list, not rot in it.
        assert {s.path for s in sites} == set(DEFAULT_PROTOCOL_PATHS)
        # Every declared frame kind has a verified put site.
        assert {s.kind for s in sites if s.op != "get"} == {
            spec.name for spec in FRAME_PROTOCOL.values()
        }
        # One ring worker: every worker-role site sits in one function
        # of engine/parallel.py, so DONE/ERR terminality is checked over
        # the whole worker's CFG, supervised or not.
        assert {
            (s.path, s.function) for s in sites if s.role == "worker"
        } == {("src/repro/engine/parallel.py", "_ring_shard_loop")}
        # The driver reads a ring in two places: the drain and the
        # supervisor's wait for a respawned worker's announce.
        assert sorted(
            (s.path, s.function)
            for s in sites
            if s.role == "driver" and s.op == "get"
        ) == [
            ("src/repro/engine/parallel.py", "_drain_shm_ring"),
            ("src/repro/resilience/supervisor.py", "_await_resumed"),
        ]

    def test_report_counts_match_sites(self):
        report = verify_paths(DEFAULT_PROTOCOL_PATHS)
        payload = report.to_json()
        assert payload["summary"]["sites"] == len(report.sites)
        assert payload["summary"]["violations"] == 0


class TestBrokenFixtures:
    def test_worker_producing_ctrl(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                out_ring.put_pickle(CTRL, ("go",), timeout=1.0)
            """
        )
        assert not report.ok
        assert any("produced by the driver" in v for v in _violations(report))

    def test_blocking_telemetry_put(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                out_ring.put(TELEM, payload)
            """
        )
        assert not report.ok
        assert any("timeout=0" in v for v in _violations(report))

    def test_telemetry_with_nonzero_timeout(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                out_ring.put(TELEM, payload, 0.5)
            """
        )
        assert not report.ok

    def test_heartbeat_without_timeout(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                out_ring.put_pickle(HB, ("beat", 0))
            """
        )
        assert not report.ok
        assert any("bounded" in v.lower() for v in _violations(report))

    def test_put_after_terminal_done(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                out_ring.put_pickle(DONE, summary)
                out_ring.put(OUT, data)
            """
        )
        assert not report.ok
        assert any("terminal" in v.lower() for v in _violations(report))

    def test_undeclared_frame_kind(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                out_ring.put(SNAPSHOT, data, timeout=1.0)
            """
        )
        assert not report.ok
        assert any("FRAME_PROTOCOL" in v for v in _violations(report))

    def test_driver_untimed_get(self):
        report = _verify(
            """
            class MergeRuntime:
                def drain(self):
                    frame = self._out_ring.get()
            """
        )
        assert not report.ok

    def test_unknown_role_is_a_violation(self):
        report = _verify(
            """
            def helper(ring):
                ring.put_pickle(HB, ("beat", 0), timeout=1.0)
            """
        )
        assert not report.ok

    def test_syntax_error_becomes_site(self, tmp_path):
        # verify_paths must not die on an unparseable file — the broken
        # file itself becomes a violating site.
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n", encoding="utf-8")
        report = verify_paths([str(broken)])
        assert not report.ok
        assert report.sites[0].op == "parse"


class TestCleanFixtures:
    def test_conforming_worker_loop(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                while True:
                    frame = in_ring.get(timeout=1.0)
                    out_ring.put(OUT, result, None)
                    out_ring.put_pickle(HB, ("beat", 0), timeout=5.0)
                    out_ring.put(TELEM, stats, timeout=0)
                out_ring.put_pickle(DONE, summary)
            """
        )
        assert report.ok, report.render()

    def test_error_after_done_is_legal(self):
        # Terminal-after-terminal: a worker that failed during teardown
        # may still report ERR after DONE.
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                out_ring.put_pickle(DONE, summary)
                out_ring.put_pickle(ERR, failure, timeout=1.0)
            """
        )
        assert report.ok, report.render()

    def test_driver_side_runtime(self):
        report = _verify(
            """
            class ShardRuntime:
                def dispatch(self):
                    self._in_ring.put_frame(BATCH, size, fill, timeout=2.0)
                    self._in_ring.put_pickle(CTRL, ("stop",), timeout=2.0)
                    frame = self._out_ring.get(timeout=1.0)
            """
        )
        assert report.ok, report.render()

    def test_non_ring_put_get_ignored(self):
        report = _verify(
            """
            def shard_loop(in_ring, out_ring):
                cache = {}
                cache.get("key")
                store.put("key", "value")
            """
        )
        assert report.ok
        assert len(report.sites) == 0
