"""The stdlib /metrics + /health endpoint and the `repro top` renderer."""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.http import MetricsServer
from repro.obs.registry import MetricRegistry
from repro.obs.top import parse_metrics, render_table, top


@pytest.fixture()
def registry():
    reg = MetricRegistry()
    reg.counter(
        "events_total", {"shard": 0}, help="Events seen."
    ).inc(12)
    reg.gauge("shard_queue_depth", {"merge": "m", "shard": 0}).set(3)
    reg.histogram("lat").observe(0.5)
    return reg


@pytest.fixture()
def server(registry):
    with MetricsServer(registry, port=0) as srv:
        yield srv


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


class TestMetricsServer:
    def test_metrics_scrape(self, server):
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert 'events_total{shard="0"} 12' in body
        assert "# HELP events_total Events seen." in body
        assert "# TYPE events_total counter" in body

    def test_scrape_reflects_live_updates(self, registry, server):
        registry.counter("events_total", {"shard": 0}).inc(5)
        _, _, body = _get(server.url + "/metrics")
        assert 'events_total{shard="0"} 17' in body

    def test_health(self, server):
        status, headers, body = _get(server.url + "/health")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_ephemeral_port_resolves(self, registry):
        server = MetricsServer(registry, port=0)
        assert server.port == 0
        with server:
            assert server.port > 0
            assert str(server.port) in server.url

    def test_double_start_rejected(self, registry):
        with MetricsServer(registry, port=0) as server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_stop_idempotent(self, registry):
        server = MetricsServer(registry, port=0).start()
        server.stop()
        server.stop()  # no error


class TestTopRenderer:
    def test_parse_metrics(self):
        samples = parse_metrics(
            "# HELP c help text\n"
            "# TYPE c counter\n"
            'c{shard="0",merge="m"} 5\n'
            "plain 1.5\n"
            "weird +Inf\n"
        )
        assert ("c", (("merge", "m"), ("shard", "0")), 5.0) in samples
        assert ("plain", (), 1.5) in samples
        assert ("weird", (), float("inf")) in samples

    def test_render_table_groups_by_shard(self):
        table = render_table(
            [
                ("shard_queue_depth", (("shard", "0"),), 4.0),
                ("shard_queue_depth", (("shard", "1"),), 7.0),
                ("lmerge_inserts_in_total", (("shard", "0"),), 100.0),
                ("lmerge_inserts_in_total", (("shard", "1"),), 50.0),
            ]
        )
        assert "repro top" in table
        assert "150" in table  # headline totals fold across shards
        lines = [line for line in table.splitlines() if line.strip()]
        shard_lines = [
            line for line in lines if line.strip().startswith(("0 ", "1 "))
        ]
        assert len(shard_lines) == 2

    def test_top_loop_against_live_server(self, server):
        buffer = io.StringIO()
        status = top(
            f"{server.host}:{server.port}",
            interval=0.01,
            iterations=2,
            out=buffer,
        )
        assert status == 0
        rendered = buffer.getvalue()
        assert rendered.count("repro top — live merge telemetry") == 2
        assert "shard_queue_depth" not in rendered  # table cells, not names
        assert "events_total" not in rendered or "12" in rendered

    def test_top_unreachable_endpoint(self):
        buffer = io.StringIO()
        status = top(
            "127.0.0.1:1",  # nothing listens on port 1
            interval=0.01,
            iterations=1,
            out=buffer,
        )
        assert status == 1
        assert "cannot scrape" in buffer.getvalue()


def test_merge_import_does_not_load_the_http_stack():
    # Every process that merges (shard workers included) imports
    # repro.lmerge; the endpoint's stdlib dependencies load on first use.
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from repro.lmerge import LMergeR4, shard\n"
        "loaded = [m for m in ('http.server', 'ssl', 'email') "
        "if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import repro.obs\n"
        "assert repro.obs.MetricsServer.__module__ == 'repro.obs.http'\n"
        "assert 'http.server' in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
