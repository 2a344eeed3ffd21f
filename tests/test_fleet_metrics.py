"""Fleet metrics plumbing (repro.fleet.metrics) and ``repro metrics
--fleet``.

The parse/merge helpers are pinned against hand-written exposition
dumps (label escaping, histogram suffix folding, HELP/TYPE
deduplication); the CLI test scrapes a real worker *and* a real cache
server and asserts the merged stream tags every sample with its
instance, and that unreachable or malformed members and URLs are
reported with an exit code instead of a traceback.
"""

import threading

import pytest

from repro.fleet.cache_server import make_cache_server
from repro.fleet.metrics import (
    merge_exposition,
    parse_samples,
    sample_value,
    scrape_text,
    split_host_port,
)


class TestSplitHostPort:
    def test_full_url(self):
        assert split_host_port("http://10.0.0.7:8799") == ("10.0.0.7", 8799)

    def test_bare_host_port(self):
        assert split_host_port("localhost:8080") == ("localhost", 8080)

    def test_port_defaults_to_80(self):
        assert split_host_port("http://example.test") == ("example.test", 80)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            split_host_port("http://")


DUMP_A = """\
# HELP repro_sessions_live Sessions currently live on this worker.
# TYPE repro_sessions_live gauge
repro_sessions_live 3
# HELP repro_http_request_seconds HTTP request latency.
# TYPE repro_http_request_seconds histogram
repro_http_request_seconds_bucket{route="/healthz",le="0.1"} 4
repro_http_request_seconds_sum{route="/healthz"} 0.2
repro_http_request_seconds_count{route="/healthz"} 4
"""

DUMP_B = """\
# HELP repro_sessions_live Sessions currently live on this worker.
# TYPE repro_sessions_live gauge
repro_sessions_live 1
"""


class TestParseSamples:
    def test_names_labels_and_values(self):
        samples = parse_samples(DUMP_A)
        assert ("repro_sessions_live", {}, 3.0) in samples
        assert (
            "repro_http_request_seconds_bucket",
            {"route": "/healthz", "le": "0.1"},
            4.0,
        ) in samples

    def test_comments_and_blanks_are_skipped(self):
        assert parse_samples("# HELP x y\n\n# TYPE x counter\n") == []

    def test_escaped_label_values_survive(self):
        samples = parse_samples('m{path="a\\"b"} 1\n')
        assert samples == [("m", {"path": 'a\\"b'}, 1.0)]

    def test_sample_value_matches_label_subset(self):
        samples = parse_samples(DUMP_A)
        assert sample_value(samples, "repro_sessions_live") == 3.0
        assert (
            sample_value(
                samples,
                "repro_http_request_seconds_sum",
                {"route": "/healthz"},
            )
            == 0.2
        )
        assert sample_value(samples, "nope") is None
        assert (
            sample_value(samples, "repro_sessions_live", {"route": "/x"})
            is None
        )


class TestMergeExposition:
    def test_instance_label_lands_first(self):
        merged = merge_exposition([("w0:1", DUMP_B)])
        assert 'repro_sessions_live{instance="w0:1"} 1' in merged

    def test_existing_labels_keep_their_place(self):
        merged = merge_exposition([("w0:1", DUMP_A)])
        assert (
            'repro_http_request_seconds_sum{instance="w0:1",route="/healthz"} 0.2'
            in merged
        )

    def test_help_and_type_emitted_once_per_family(self):
        merged = merge_exposition([("a:1", DUMP_B), ("b:2", DUMP_B)])
        assert merged.count("# HELP repro_sessions_live") == 1
        assert merged.count("# TYPE repro_sessions_live") == 1
        assert 'repro_sessions_live{instance="a:1"} 1' in merged
        assert 'repro_sessions_live{instance="b:2"} 1' in merged

    def test_histogram_series_fold_under_their_family(self):
        merged = merge_exposition([("a:1", DUMP_A), ("b:2", DUMP_A)])
        # _bucket/_sum/_count stay grouped under the one histogram
        # header instead of forming families of their own
        assert merged.count("# TYPE repro_http_request_seconds histogram") == 1
        header_at = merged.index("# TYPE repro_http_request_seconds histogram")
        assert merged.index('_bucket{instance="b:2"', header_at) > header_at

    def test_empty_scrape_set_is_empty(self):
        assert merge_exposition([]) == ""


@pytest.fixture
def cache(tmp_path):
    server = make_cache_server(port=0, path=str(tmp_path / "cache.sqlite"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.store.close()
        thread.join(timeout=5)


class TestFleetScrape:
    def test_scrape_text_reads_the_metrics_route(self, cache):
        host, port = cache.server_address[:2]
        text = scrape_text(f"http://{host}:{port}")
        # the store gauges exist from boot; request counters are lazy
        assert "repro_store_entries" in text

    def test_scrape_text_raises_on_http_error(self, cache):
        host, port = cache.server_address[:2]
        with pytest.raises(OSError):
            scrape_text(f"http://{host}:{port}", path="/nope")

    def test_cli_metrics_fleet_merges_instances(self, cache, capsys):
        from repro.cli import main

        host, port = cache.server_address[:2]
        url = f"{host}:{port}"
        assert main(["metrics", "--fleet", f"{url},{url}"]) == 0
        out = capsys.readouterr().out
        assert f'instance="{url}"' in out

    @pytest.mark.parametrize(
        "member", ["127.0.0.1:9", "127.0.0.1:abc", "http://"]
    )
    def test_cli_metrics_fleet_reports_dead_members(
        self, cache, capsys, member
    ):
        from repro.cli import main

        host, port = cache.server_address[:2]
        assert main(["metrics", "--fleet", f"{host}:{port},{member}"]) == 1
        captured = capsys.readouterr()
        assert f"cannot scrape {member}" in captured.err
        # the live member is still merged into the output
        assert f'instance="{host}:{port}"' in captured.out

    def test_cli_metrics_url_reads_the_metrics_route(self, cache, capsys):
        from repro.cli import main

        host, port = cache.server_address[:2]
        assert main(["metrics", "--url", f"{host}:{port}"]) == 0
        assert "repro_store_entries" in capsys.readouterr().out

    def test_cli_metrics_bad_url_exits_2(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--url", "127.0.0.1:abc"]) == 2
        assert "bad service URL" in capsys.readouterr().err
