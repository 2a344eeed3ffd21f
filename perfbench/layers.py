"""Per-layer metrics from the spans of one traced pass.

Each action has one root span (``action``, timed by the benchmark around
the caller's ``record_action``); the program's spans join it by trace id
and parent id, across processes.  A span's self time is its duration
minus the time its children cover; ``unattributed_share`` is the share
of action time that no direct child of the root covers — for a served
action that is everything between the client's and the worker's spans:
HTTP parsing, the loopback hop and any stall in the socket layer.
"""

from __future__ import annotations

from collections import defaultdict

import common

MS = 1e6  # nanoseconds per millisecond


def _union_ns(intervals) -> int:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def _clip(span, root):
    return max(span[1], root[1]), min(span[2], root[2])


def analyze(client_spans, program_spans, sessions: int, shape: str,
            warm_traces=frozenset(), store_stats=None) -> tuple[dict, list]:
    """``(metrics, split)`` — ``split`` is ``(layer, share of action
    time)`` rows, largest first."""
    spans = list(client_spans)
    for process_spans in program_spans.values():
        spans += process_spans
    roots = [span for span in spans if span[0] == "action"]
    root_ids = {span[3]: span for span in roots}
    actions = max(1, len(roots))
    action_ns = sum(span[2] - span[1] for span in roots) or 1
    traces = {span[5] for span in roots}
    served = shape != "inproc"

    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    by_name = defaultdict(list)
    for span in spans:
        if span[5] in traces or span[0].startswith(("store.", "remote.")):
            by_name[span[0]].append(span)

    def durations_ms(name, keep=None):
        return [(s[2] - s[1]) / MS for s in by_name[name] if keep is None or keep(s)]

    def total_ms(name, keep=None):
        return sum(durations_ms(name, keep))

    # ---- action level: transport gap and unattributed time -------------
    record_ns = {span[5]: span[2] - span[1] for span in by_name["sessions.record_action"]}
    gaps = [(r[2] - r[1] - record_ns.get(r[5], 0)) / MS for r in roots] if served else []
    uncovered = sum(
        (root[2] - root[1]) - _union_ns(_clip(c, root) for c in children[root[3]])
        for root in roots
    )

    # ---- codec: only calls made directly for an action's request -------
    def for_action(span):
        return span[4] in root_ids

    codec_ms = total_ms("codec.encode", for_action) + total_ms("codec.decode", for_action)
    wire_bytes = sum(
        (span[6] or {}).get("bytes", 0)
        for span in client_spans
        if span[0] in ("codec.encode", "codec.decode") and for_action(span)
    )

    # ---- synthesis and engine counters (the program's per-call stats) --
    stats = defaultdict(float)
    cache_bytes = defaultdict(int)
    for pid, process_spans in program_spans.items():
        for span in process_spans:
            if span[0] == "synth.call" and span[5] in traces and span[6]:
                for key, value in span[6].items():
                    if key == "cache_bytes":
                        cache_bytes[pid] = max(cache_bytes[pid], value)
                    else:
                        stats[key] += value
    warm = defaultdict(float)
    for span in by_name["synth.call"]:
        if span[5] in warm_traces and span[6]:
            warm["warm"] += span[6]["warm"]
            warm["misses"] += span[6]["misses"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    remote_gets = durations_ms("remote.request", lambda s: (s[6] or {}).get("op") == "get")
    store_loads = durations_ms("store.load")
    get_p50 = common.median(remote_gets)
    load_p50 = common.median(store_loads)
    store_stats = store_stats or {}

    metrics = {
        "client.transport_gap_p50_ms": (common.median(gaps), "ms"),
        "codec.wire_bytes_per_action": (wire_bytes / actions, "bytes"),
        "codec.ms_per_action": (codec_ms / actions, "ms"),
        "sessions.record_p50_ms": (common.median(durations_ms("sessions.record_action")), "ms"),
        "sessions.proposal_ms_per_action": (total_ms("sessions.proposal") / actions, "ms"),
        "analysis.summary_ms_per_action": (total_ms("analysis.summary") / actions, "ms"),
        "synth.call_ms_per_action": (total_ms("synth.call") / actions, "ms"),
        "synth.speculate_ms_per_action": (total_ms("synth.speculate") / actions, "ms"),
        "synth.validate_ms_per_action": (total_ms("synth.validate") / actions, "ms"),
        "synth.extend_ms_per_action": (stats["extend_s"] * 1000.0 / actions, "ms"),
        "synth.pops_per_action": (stats["pops"] / actions, "count"),
        "synth.candidates_per_action": (stats["speculated"] / actions, "count"),
        "synth.validations_per_action": (stats["validations"] / actions, "count"),
        "synth.validation_yield": (ratio(stats["validated"], stats["validations"]), "ratio"),
        "analysis.prune_rate": (ratio(stats["pruned"], stats["speculated"]), "ratio"),
        "engine.execute_calls_per_action": (len(by_name["engine.execute"]) / actions, "count"),
        "engine.execute_ms_per_action": (total_ms("engine.execute") / actions, "ms"),
        "engine.hit_rate": (ratio(stats["hits"], stats["hits"] + stats["misses"]), "ratio"),
        "engine.cross_session_share": (ratio(stats["cross"], stats["hits"]), "ratio"),
        "engine.resume_hits_per_action": (stats["resume"] / actions, "count"),
        "engine.index_builds": (stats["index_builds"], "count"),
        "engine.evictions": (stats["evictions"], "count"),
        "engine.cache_mb": (sum(cache_bytes.values()) / 1e6, "MB"),
        "remote.gets_per_action": (len(remote_gets) / actions, "count"),
        "remote.get_p50_ms": (get_p50, "ms"),
        "remote.put_ms_per_session": (
            total_ms("remote.request", lambda s: (s[6] or {}).get("op") == "put") / max(1, sessions),
            "ms",
        ),
        "remote.warm_rate": (ratio(warm["warm"], warm["warm"] + warm["misses"]), "ratio"),
        "remote.failures": (
            sum(1 for s in by_name["remote.request"] if not (s[6] or {}).get("ok", True)),
            "count",
        ),
        "store.load_p50_ms": (load_p50, "ms"),
        "store.write_ms_per_session": (total_ms("store.write") / max(1, sessions), "ms"),
        "store.bytes_per_entry": (
            ratio(store_stats.get("persisted_bytes", 0), store_stats.get("entries", 0)),
            "bytes",
        ),
        "cache_server.hop_gap_p50_ms": (get_p50 - load_p50 if remote_gets else 0.0, "ms"),
        "unattributed_share": (uncovered / action_ns, "ratio"),
    }

    # ---- the split: self time of each layer as a share of action time --
    self_ns = defaultdict(int)
    for span in spans:
        if span[5] not in traces or span[0] == "action":
            continue
        inner = sum(c[2] - c[1] for c in children[span[3]])
        self_ns[span[0]] += (span[2] - span[1]) - inner
    split = [(name, ns / action_ns) for name, ns in self_ns.items()]
    split.append(("unattributed", uncovered / action_ns))
    if served:
        split.append(("client.transport_gap", sum(gaps) * MS / action_ns))
    split.sort(key=lambda row: -row[1])
    return metrics, split
