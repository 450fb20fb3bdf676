"""Per-layer numbers from an exported Chrome trace (telemetry::TraceRecorder).

For each span kind the program emits (request, queue, batch, chain,
transfer, shard, forward) this reports the count, the total duration and
the self time: each span's duration minus the part of it that its child
spans cover. Children are linked by the ids the spans carry: a request's
queue span (same ticket) and the batch it rode on (its end's batch id); a
batch's chain, transfer, shard and forward spans (same batch id).
"""

import json

KINDS = ("request", "queue", "batch", "chain", "transfer", "shard", "forward")


def load_spans(path):
    """Balanced spans as dicts: name, begin/end (us), merged args."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    open_spans = {}
    spans = []
    for event in events:
        phase = event.get("ph")
        if phase == "b":
            open_spans[event["id"]] = event
        elif phase == "e":
            begin = open_spans.pop(event["id"], None)
            if begin is None:
                continue
            args = dict(begin.get("args", {}))
            args.update(event.get("args", {}))
            spans.append({"name": begin["name"], "begin": begin["ts"],
                          "end": event["ts"], "args": args})
    return spans


def covered(begin, end, intervals):
    """Length of [begin, end] covered by the union of `intervals`."""
    clipped = sorted((max(b, begin), min(e, end)) for b, e in intervals
                     if e > begin and b < end)
    total = 0
    cur_b = cur_e = None
    for b, e in clipped:
        if cur_e is None or b > cur_e:
            if cur_e is not None:
                total += cur_e - cur_b
            cur_b, cur_e = b, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_b
    return total


def quantile(values, p):
    """Linear-interpolation quantile (0 for an empty list)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def span_metrics(path):
    """Metric name -> {"value", "unit"} for the per-span-kind numbers and
    the trace-derived per-layer metrics."""
    spans = load_spans(path)
    by_kind = {kind: [] for kind in KINDS}
    for span in spans:
        if span["name"] in by_kind:
            by_kind[span["name"]].append(span)

    def batch_of(span):
        return span["args"].get("batch")

    batch_children = {}
    for kind in ("chain", "transfer", "shard", "forward"):
        for span in by_kind[kind]:
            batch_children.setdefault(batch_of(span), []).append(
                (span["begin"], span["end"]))
    queue_by_ticket = {s["args"].get("ticket"): (s["begin"], s["end"])
                       for s in by_kind["queue"]}
    batch_by_id = {batch_of(s): (s["begin"], s["end"])
                   for s in by_kind["batch"]}

    def children(span):
        if span["name"] == "batch":
            return batch_children.get(batch_of(span), [])
        if span["name"] == "request":
            found = [queue_by_ticket.get(span["args"].get("ticket")),
                     batch_by_id.get(batch_of(span))]
            return [c for c in found if c is not None]
        return []

    metrics = {}
    self_ms = {}
    for kind in KINDS:
        total = 0.0
        own = 0.0
        for span in by_kind[kind]:
            duration = span["end"] - span["begin"]
            total += duration
            own += duration - covered(span["begin"], span["end"],
                                      children(span))
        self_ms[kind] = own / 1e3
        metrics[f"span.{kind}.count"] = {"value": len(by_kind[kind]),
                                         "unit": "count"}
        metrics[f"span.{kind}.total_ms"] = {"value": total / 1e3, "unit": "ms"}
        metrics[f"span.{kind}.self_ms"] = {"value": own / 1e3, "unit": "ms"}

    def durations_ms(kind):
        return [(s["end"] - s["begin"]) / 1e3 for s in by_kind[kind]]

    served = bool(by_kind["request"])  # spans of csaw::Service
    queue_ms = durations_ms("queue")
    batches = len(by_kind["batch"])
    metrics.update({
        "service.queue_wait_ms_p50": {"value": quantile(queue_ms, 0.5),
                                      "unit": "ms"},
        "service.queue_wait_ms_p99": {"value": quantile(queue_ms, 0.99),
                                      "unit": "ms"},
        "service.batch_self_ms_mean": {
            "value": self_ms["batch"] / batches if served and batches else 0.0,
            "unit": "ms"},
        "core.chain_ms_p50": {"value": quantile(durations_ms("chain"), 0.5),
                              "unit": "ms"},
        "oom.transfer_host_ms": {"value": sum(durations_ms("transfer")),
                                 "unit": "ms"},
        "shard.router_self_ms": {"value": self_ms["shard"], "unit": "ms"},
        "shard.forward_ms": {"value": sum(durations_ms("forward")),
                             "unit": "ms"},
    })
    return metrics
