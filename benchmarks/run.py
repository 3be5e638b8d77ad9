"""Loopback benchmark for tdmqtt.

    python3 benchmarks/run.py --workload {publish,subscribe,churn}
                              [--seed N] [--seconds S] [--trace 0|1]

Runs the real roles (edge brokers, master) as separate processes over
loopback, drives them from this process, checks every output, prints a
report and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
process wraps the package's public functions and the metrics are the
per-layer ones.  Exit status: 0 when every operation succeeded and was
verified, 1 on any mismatch or failure, 2 on bad usage or a missing
source tree.  See README.md in this directory for the workloads, the
metric map and the budgets.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("publish", "subscribe", "churn")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "p50_ms": "ms",
}

PER_LAYER = {  # name -> unit
    "packets.encode_us_per_op": "us",
    "packets.decode_us_per_op": "us",
    "packets.decode_incomplete_ratio": "ratio",
    "packets.topic_matches_calls_per_op": "count",
    "stream.decode_bytes_per_byte": "ratio",
    "stream.send_us_per_op": "us",
    "stream.connections_per_op": "count",
    "broker.route_us": "us",
    "broker.topic_matches_per_publish": "count",
    "broker.replay_matches_per_subscribe": "count",
    "master.find_us": "us",
    "master.find_calls_per_op": "count",
    "master.tcp_connects_per_redirect": "count",
    "master.refresh_ms": "ms",
    "master.refresh_wait_ms": "ms",
    "master.broker_discovery_ms": "ms",
    "master.topic_discovery_ms": "ms",
    "master.topic_discovery_topics": "count",
    "client.resolves_per_op": "count",
    "client.attach_useful_ratio": "ratio",
    "client.backoff_ms_per_op": "ms",
}

# the sample each workload's p50_ms describes
PRIMARY = {"publish": "deliver", "subscribe": "subscribe", "churn": "round"}


def div(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentile(xs: list[float], q: int) -> tuple[str, float]:
    """The q-th percentile when at least ten samples lie beyond it,
    otherwise the maximum."""
    if len(xs) * (100 - q) >= 1000:
        return f"p{q}", statistics.quantiles(xs, n=100)[q - 1]
    return "max", max(xs) if xs else 0.0


def end_to_end(workload: str, out) -> dict[str, float]:
    """The gated metrics: medians only.  Tails and rates, which moved past
    their bounds between runs of the same code, stay in the report."""
    return {
        "setup_s": _med(out.setup_s),
        "p50_ms": _med(out.samples[PRIMARY[workload]]) * 1e3,
    }


def named_metrics(workload: str, out) -> list[tuple[str, float, str, str]]:
    """The workload's metrics under their descriptive names:
    (name, value, unit, sample note)."""
    s = out.samples
    rows = []
    if workload == "publish":
        xs = s["deliver"]
        rows += [("deliver_p50_us", _med(xs) * 1e6, "us", f"n={len(xs)}")]
        rows += [(f"deliver_{kind}_us", t * 1e6, "us", f"n={len(xs)}")
                 for kind, t in (percentile(xs, 90), percentile(xs, 99))]
        stream_s = out.rates["stream_s"]
        rows += [("deliveries_per_s", div(out.rates["deliveries"], stream_s),
                  "1/s", "phase B"),
                 ("payload_mb_per_s",
                  div(out.rates["payload_bytes"] / 1e6, stream_s),
                  "MB/s", "phase B")]
    elif workload == "subscribe":
        xs = s["subscribe"]
        rows += [("subscribe_p50_ms", _med(xs) * 1e3, "ms", f"n={len(xs)}")]
        rows += [(f"subscribe_{kind}_ms", t * 1e3, "ms", f"n={len(xs)}")
                 for kind, t in (percentile(xs, 90), percentile(xs, 99))]
        rows += [("subscribes_per_s", div(len(xs), sum(xs)), "1/s",
                  "per second of subscribe time")]
    else:
        for kind in ("failover", "relocate_known", "relocate_unknown", "miss"):
            rows.append((f"{kind}_p50_ms", _med(s[kind]) * 1e3, "ms",
                         f"n={len(s[kind])}"))
        rows.append(("round_p50_ms", _med(s["round"]) * 1e3, "ms",
                     f"n={len(s['round'])} rounds of one event per kind"))
    return rows


def _med(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


# -- per-layer ---------------------------------------------------------------

def merge_dumps(bench) -> tuple[dict, dict, list]:
    """Counter deltas over the timed window, whole-run totals, and all
    spans with role spans given the op whose window they fall in."""
    by_proc: dict[str, dict[str, dict]] = {}
    for phase, path in bench.dumps:
        with open(path) as f:
            by_proc.setdefault(path.rsplit(".", 2)[0], {})[phase] = json.load(f)
    delta: dict[str, float] = {}
    total: dict[str, float] = {}
    spans = []
    for proc, phases in by_proc.items():
        end = phases.get("end", {"counts": {}, "spans": []})
        before = phases.get("setup", {"counts": {}})["counts"]
        for key, value in end["counts"].items():
            total[key] = total.get(key, 0) + value
            delta[key] = delta.get(key, 0) + value - before.get(key, 0)
        name = os.path.basename(proc)
        for sp in end["spans"]:
            op = sp[4] if sp[4] is not None else bench.op_of(sp[1])
            spans.append([name, sp[0], sp[1], sp[2], sp[3], op, sp[5]])
    spans += [["generator", *sp] for sp in bench.spans]
    spans.sort(key=lambda sp: sp[2])
    return delta, total, spans


def per_layer(d: dict, t: dict, ops: int, client) -> dict[str, float]:
    """d: counts over the timed window; t: counts including set-up (the
    master's refresh timings, so set-up's census is in them)."""
    g = lambda key: d.get(key, 0)  # noqa: E731
    h = lambda key: t.get(key, 0)  # noqa: E731
    redirect_connects = (g("master.tcp_connects") - g("master.probes")
                         - g("topic_discovery.calls"))
    return {
        "packets.encode_us_per_op": div(g("encode.s") * 1e6, ops),
        "packets.decode_us_per_op": div(g("decode.s") * 1e6, ops),
        "packets.decode_incomplete_ratio": div(g("decode.incomplete"),
                                               g("decode.calls")),
        "packets.topic_matches_calls_per_op": div(g("topic_matches.calls"),
                                                  ops),
        "stream.decode_bytes_per_byte": div(g("decode.bytes_in"),
                                            g("decode.bytes_used")),
        "stream.send_us_per_op": div(g("send.s") * 1e6, ops),
        "stream.connections_per_op": div(g("open_connection.calls"), ops),
        "broker.route_us": div(g("broker.route_s") * 1e6,
                               g("broker.route_samples")),
        "broker.topic_matches_per_publish": div(
            g("broker.matches.Publish"), g("broker.inbound.Publish")),
        "broker.replay_matches_per_subscribe": div(
            g("broker.matches.Subscribe"), g("broker.inbound.Subscribe")),
        "master.find_us": div(g("find.s") * 1e6, g("find.calls")),
        "master.find_calls_per_op": div(g("find.calls"), ops),
        "master.tcp_connects_per_redirect": div(redirect_connects,
                                                g("master.redirects")),
        "master.refresh_ms": div(h("refresh_registry.s") * 1e3,
                                 h("refresh_registry.calls")),
        "master.refresh_wait_ms": div(h("master.refresh_wait_s") * 1e3,
                                      h("broker_discovery.calls")),
        "master.broker_discovery_ms": div(h("broker_discovery.s") * 1e3,
                                          h("broker_discovery.calls")),
        "master.topic_discovery_ms": div(h("topic_discovery.s") * 1e3,
                                         h("topic_discovery.calls")),
        "master.topic_discovery_topics": div(h("master.census_topics"),
                                             h("topic_discovery.calls")),
        "client.resolves_per_op": div(client["resolves"], ops),
        "client.attach_useful_ratio": div(client["useful_attaches"],
                                          client["attaches"]),
        "client.backoff_ms_per_op": div(client["backoff_s"] * 1e3, ops),
    }


# -- provenance and the model ------------------------------------------------

def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "tdmqtt", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "traced": bool(args.trace),
            "transport": "loopback"}


def latest(workload: str, trace: int) -> dict | None:
    paths = glob.glob(os.path.join(OUT, f"{workload}-s*-t{trace}",
                                   "result.json"))
    if not paths:
        return None
    with open(max(paths, key=os.path.getmtime)) as f:
        return json.load(f)


def model_block() -> list[str]:
    """evalmodel.breakdown() beside the measured phases, report only.

    Measured values come from the newest stored result of each workload.
    """
    from tdmqtt.evalmodel import EvalParams, breakdown
    from tdmqtt.master import DiscoveryConfig

    def find(workload, trace, section, name):
        res = latest(workload, trace)
        return None if res is None else res[section].get(name) or None

    mbps = find("publish", 0, "named", "payload_mb_per_s")
    route = find("publish", 1, "metrics", "broker.route_us")
    params = EvalParams(throughput=(mbps or 1.0) * 8e6,
                        service_time=(route or 1000.0) / 1e6,
                        arrival_rate=0.0, n_brokers=4,
                        timeout=DiscoveryConfig(()).timeout)
    model = breakdown(params)
    lines = [
        "model vs measured (report only; evalmodel.breakdown with "
        f"n_brokers=4, timeout={params.timeout} s, "
        f"throughput={params.throughput / 1e6:.1f} Mbit/s "
        f"{'from payload_mb_per_s' if mbps else '(no publish run yet)'}, "
        f"service_time={params.service_time * 1e6:.1f} us "
        f"{'from broker.route_us' if route else '(no traced publish run yet)'})",
        f"  {'term':<16} {'model_ms':>12} {'measured_ms':>12}  measured as",
    ]
    pairs = [
        ("t_mr", model.t_mr, find("publish", 0, "named", "deliver_p50_us"),
         1e-3, "deliver_p50_us"),
        ("t_tts", model.t_tts, find("subscribe", 0, "named",
                                    "subscribe_p50_ms"), 1, "subscribe_p50_ms"),
        ("t_td", model.t_td, find("churn", 1, "metrics",
                                  "master.topic_discovery_ms"), 1,
         "master.topic_discovery_ms (churn, traced)"),
        ("t_change", model.t_change, find("churn", 0, "named",
                                          "relocate_unknown_p50_ms"), 1,
         "relocate_unknown_p50_ms"),
        ("t_broker_change", model.t_broker_change,
         find("churn", 0, "named", "failover_p50_ms"), 1, "failover_p50_ms"),
    ]
    for term, seconds, measured, scale, label in pairs:
        shown = f"{measured * scale:12.3f}" if measured else f"{'n/a':>12}"
        lines.append(f"  {term:<16} {seconds * 1e3:12.4f} {shown}  {label}")
    return lines


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-checksum", action="store_true",
                        help="expect a wrong checksum everywhere "
                             "(verifier self-test; the run must fail)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tdmqtt", "__init__.py")):
        print(f"benchmark: no tdmqtt source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from fleet import BenchError

    run_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = workloads.Bench(args.seed, args.seconds, bool(args.trace),
                            run_dir, args.wrong_checksum)
    try:
        out = getattr(workloads, args.workload)(bench)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.stop(bench.roles)

    failed = sum(bench.failures.values())
    attempted = max(out.attempted, 1)
    e2e = end_to_end(args.workload, out)
    named = named_metrics(args.workload, out)
    prov = provenance(args)
    result = {"provenance": prov, "end_to_end": e2e,
              "named": {name: value for name, value, _, _ in named},
              "failures": dict(bench.failures), "attempted": out.attempted}
    if args.trace:
        delta, total, all_spans = merge_dumps(bench)
        metrics = per_layer(delta, total, out.ops, out.client)
        result["metrics"] = metrics
        with open(os.path.join(run_dir, "spans.json"), "w") as f:
            json.dump(all_spans, f)
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in PER_LAYER.items()}
    else:
        result["metrics"] = e2e
        shown = {name: {"value": e2e[name], "unit": unit}
                 for name, unit in END_TO_END.items()}
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)

    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"workload {args.workload}: {args.seconds:g} s measured, "
          f"set-up {statistics.median(out.setup_s):.3f} s "
          f"(median of {len(out.setup_s)})")
    for name, value, unit, note in named:
        print(f"  {name:<26} {value:14.4f} {unit:<5} {note}")
    print(f"  {'failed_ratio':<26} {div(failed, attempted):14.4f} "
          f"{'':<5} {failed}/{out.attempted}"
          + "".join(f" {cause}={n}" for cause, n in bench.failures.items()))
    for name, unit in (END_TO_END if not args.trace else {}).items():
        print(f"  {name:<26} {e2e[name]:14.4f} {unit}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<36} {result['metrics'][name]:14.4f} {unit}")
        plain = latest(args.workload, 0)
        if plain is not None:
            for name in END_TO_END:
                base = plain["end_to_end"][name]
                print(f"  tracing overhead {name:<12} "
                      f"{div(e2e[name] - base, base) * 100:+8.1f} % "
                      f"(traced {e2e[name]:.4f} vs untraced {base:.4f}, "
                      f"seed {plain['provenance']['seed']})")
    for line in model_block():
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
