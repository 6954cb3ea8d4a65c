#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by spbla::prof, plus the
telemetry snapshot dumped alongside it.

spbla::prof only records spans; every event count lives in the telemetry
registry, so the layer checks below read span names from the trace and
counters from the --metrics snapshot (SPBLA_METRICS / spbla_MetricsDump).

Checks, in order:

  structure   The file parses as JSON and has the sections the exporter
              promises: "traceEvents" (list) plus "otherData" metadata.
  events      Every trace event is well-formed: metadata ("M") events name a
              thread, duration ("X") events carry numeric ts/dur/pid/tid and
              a non-empty name. The exporter only emits self-contained "X"
              events, so no begin/end ("B"/"E") pairing can dangle.
  balance     Per thread, span windows [ts, ts+dur] properly nest: any two
              either contain one another or are disjoint. A partial overlap
              means a corrupted ring entry or a broken scope stack.
  spgemm      (--require-spgemm) "spgemm.multiply" spans were recorded.
              With --metrics and a trace that involves more than one thread
              (on a single-core host the kernels legitimately fall back to
              serial execution), the thread pool recorded work:
              spbla.pool.tasks + spbla.pool.bulk_launches > 0.
  dispatch    (--require-dispatch, with --metrics) The format-dispatch layer
              (src/storage) ran: at least one spbla.dispatch.{csr,coo,dense,
              bitblock} pick, spbla.storage.conversions (the warm-up converts
              between representations) and spbla.storage.cache_hits (cached
              secondary representations were reused) are all non-zero.
  dist        (--require-dist, with --metrics) The sharded multi-device layer
              (src/dist) ran under tracing: dist.* operation spans exist;
              spbla.dist.sharded_ops > 0; every sharded op processed at least
              one tile (tiles_processed >= sharded_ops); shardings were built
              (shard_builds > 0); transfer_bytes >= tile_transfers (a
              transfer moves at least one byte); and tile_steals <=
              tiles_processed (only scheduled tiles can be stolen).
  bitblock    (--require-bitblock) bitblock.* operation spans were recorded.
              With --require-dispatch as well, spbla.dispatch.bitblock > 0
              proves the cost model routes work to the tier on its own.
  incr        (--require-incr, with --metrics) The incremental evaluation
              layer (src/incr) ran: incr.* spans exist, including at least one
              semi-naive round span; the op memo was consulted
              (spbla.incr.memo_lookups > 0), replayed (memo_hits > 0), and
              memo_hits + memo_stores <= memo_lookups (each lookup counts one
              hit or one store; a compute that throws counts neither);
              batches flowed through a delta overlay (spbla.incr.batches and
              spbla.incr.delta_nnz > 0); and the dispatcher's empty-operand
              short-circuit fired (spbla.incr.shortcircuit_ops > 0).

  metrics     (--require-metrics, with --metrics PATH) A telemetry snapshot
              validates: the schema tag is spbla.metrics.v1, counters are
              non-negative integers, each histogram's bucket counts sum to its
              count and its p50/p95/p99 are monotone, the per-route op-latency
              histogram counts sum exactly to spbla.dispatch.ops, each
              per-format dispatch counter covers its route's histogram count,
              and the memory peak gauge dominates the live gauge. The
              Prometheus sibling at PATH.prom (when present) must parse
              line-by-line with cumulative buckets and _count == +Inf.
  arena       (--require-arena, with --metrics PATH) The op-scoped arena
              allocator demonstrably backed the run: every dispatched op
              closed at least one arena scope (spbla.arena.resets >=
              spbla.dispatch.ops), the reserved high-water gauge dominates
              the used high-water gauge (an arena can never bump past its
              slabs), and the buffer-pool reuse counters
              (spbla.arena.pool_hits / pool_misses) are present — all
              missing means the kernels bypassed the arena tier entirely.
  flight      (--flight PATH) A crash flight-recorder dump parses as JSON
              lines with strictly increasing seq, named ops and sane fields.

Usage: tools/check_trace.py TRACE.json [--metrics METRICS.json]
           [--require-spgemm] [--require-dispatch] [--require-dist]
           [--require-bitblock] [--require-incr] [--require-metrics]
           [--require-arena] [--flight FLIGHT.jsonl]
Exits 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

# ts/dur are microseconds with three decimals (nanosecond resolution), so
# anything below half a nanosecond is formatting noise, not overlap.
EPS_US = 0.0005


class Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def error(self, msg: str) -> None:
        self.errors.append(msg)

    # --- checks ---------------------------------------------------------

    def check_structure(self, doc: object) -> dict | None:
        if not isinstance(doc, dict):
            self.error("top level is not a JSON object")
            return None
        for key, kind in (("traceEvents", list), ("otherData", dict)):
            if key not in doc:
                self.error(f"missing top-level key {key!r}")
            elif not isinstance(doc[key], kind):
                self.error(f"top-level {key!r} is not a {kind.__name__}")
        return doc if not self.errors else None

    def check_events(self, events: list) -> list[dict]:
        spans = []
        for i, e in enumerate(events):
            where = f"traceEvents[{i}]"
            if not isinstance(e, dict):
                self.error(f"{where}: not an object")
                continue
            ph = e.get("ph")
            if ph == "M":
                if e.get("name") != "thread_name":
                    self.error(f"{where}: metadata event is not a thread_name")
                if not isinstance(e.get("args", {}).get("name"), str):
                    self.error(f"{where}: thread_name without args.name")
                continue
            if ph != "X":
                self.error(f"{where}: unexpected phase {ph!r} "
                           "(exporter emits only X and M)")
                continue
            if not isinstance(e.get("name"), str) or not e["name"]:
                self.error(f"{where}: X event without a name")
            for field in ("ts", "dur", "pid", "tid"):
                if not isinstance(e.get(field), (int, float)):
                    self.error(f"{where}: X event missing numeric {field!r}")
            if isinstance(e.get("dur"), (int, float)) and e["dur"] < 0:
                self.error(f"{where}: negative duration")
            if isinstance(e.get("ts"), (int, float)) and e["ts"] < -EPS_US:
                self.error(f"{where}: negative timestamp")
            spans.append(e)
        return spans

    def check_balance(self, spans: list[dict]) -> None:
        by_tid: dict[object, list[dict]] = defaultdict(list)
        for e in spans:
            if isinstance(e.get("ts"), (int, float)) and isinstance(
                    e.get("dur"), (int, float)):
                by_tid[e.get("tid")].append(e)
        for tid, tid_spans in by_tid.items():
            # Sweep in start order, outermost (longest) first on ties, with a
            # stack of open end times: an event beginning inside an open span
            # must also end inside it.
            tid_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack: list[float] = []
            for e in tid_spans:
                start, end = e["ts"], e["ts"] + e["dur"]
                while stack and stack[-1] <= start + EPS_US:
                    stack.pop()
                if stack and end > stack[-1] + EPS_US:
                    self.error(
                        f"tid {tid}: span {e['name']!r} [{start:.3f}, "
                        f"{end:.3f}] partially overlaps an enclosing span "
                        f"ending at {stack[-1]:.3f} — spans must nest")
                stack.append(end)

    def check_spgemm(self, spans: list[dict],
                     counters: dict[str, int] | None) -> None:
        if not any(e.get("name") == "spgemm.multiply" for e in spans):
            self.error("no 'spgemm.multiply' span recorded")
        # On a single-core host every launch takes the serial fallback, so
        # only a genuinely multi-threaded trace must show pool bookkeeping.
        if counters is not None and len({e.get("tid") for e in spans}) > 1:
            pool_work = (counters.get("spbla.pool.tasks", 0)
                         + counters.get("spbla.pool.bulk_launches", 0))
            if pool_work == 0:
                self.error("multi-threaded trace but spbla.pool.tasks + "
                           "spbla.pool.bulk_launches is zero — the thread "
                           "pool's accounting is unwired")

    def check_dispatch(self, counters: dict[str, int]) -> None:
        picks = sum(counters.get(f"spbla.dispatch.{route}", 0)
                    for route in ("csr", "coo", "dense", "bitblock"))
        if picks == 0:
            self.error("no spbla.dispatch.{csr,coo,dense,bitblock} pick "
                       "counted — the storage dispatch layer never ran")
        if counters.get("spbla.storage.conversions", 0) == 0:
            self.error("spbla.storage.conversions is zero — no format "
                       "conversion ran")
        if counters.get("spbla.storage.cache_hits", 0) == 0:
            self.error("spbla.storage.cache_hits is zero — cached secondary "
                       "representations were never reused")

    def check_dist(self, spans: list[dict], counters: dict[str, int]) -> None:
        if not any(str(e.get("name", "")).startswith("dist.") for e in spans):
            self.error("no dist.* operation span recorded — the sharded "
                       "layer never ran under tracing")
        ops = counters.get("spbla.dist.sharded_ops", 0)
        if ops == 0:
            self.error("spbla.dist.sharded_ops is zero — no operation "
                       "actually routed through sharded execution")
        tiles = counters.get("spbla.dist.tiles_processed", 0)
        if tiles < ops:
            self.error(f"spbla.dist.tiles_processed ({tiles}) < "
                       f"spbla.dist.sharded_ops ({ops}) — every sharded op "
                       "must process at least one tile")
        if counters.get("spbla.dist.shard_builds", 0) == 0:
            self.error("spbla.dist.shard_builds is zero — matrices were "
                       "never scattered into tile grids")
        transfers = counters.get("spbla.dist.tile_transfers", 0)
        xfer_bytes = counters.get("spbla.dist.transfer_bytes", 0)
        if xfer_bytes < transfers:
            self.error(f"spbla.dist.transfer_bytes ({xfer_bytes}) < "
                       f"spbla.dist.tile_transfers ({transfers}) — a "
                       "transfer moves at least one byte")
        steals = counters.get("spbla.dist.tile_steals", 0)
        if steals > tiles:
            self.error(f"spbla.dist.tile_steals ({steals}) exceeds "
                       f"spbla.dist.tiles_processed ({tiles}) — only "
                       "scheduled tiles can be stolen")

    def check_bitblock(self, spans: list[dict],
                       counters: dict[str, int] | None) -> None:
        if not any(str(e.get("name", "")).startswith("bitblock.")
                   for e in spans):
            self.error("no bitblock.* operation span recorded — the broadword "
                       "tier never ran under tracing")
        if counters is not None and counters.get("spbla.dispatch.bitblock",
                                                 0) == 0:
            self.error("spbla.dispatch.bitblock is zero — the cost model "
                       "never routed an operation to the bitblock tier on "
                       "its own")

    def check_incr(self, spans: list[dict], counters: dict[str, int]) -> None:
        names = [str(e.get("name", "")) for e in spans]
        if not any(n.startswith("incr.") for n in names):
            self.error("no incr.* operation span recorded — the incremental "
                       "layer never ran under tracing")
        if not any(n in ("incr.closure.round", "incr.cfpq.round")
                   for n in names):
            self.error("no incr.closure.round / incr.cfpq.round span "
                       "recorded — no semi-naive round ever executed")

        lookups = counters.get("spbla.incr.memo_lookups", 0)
        hits = counters.get("spbla.incr.memo_hits", 0)
        stores = counters.get("spbla.incr.memo_stores", 0)
        if lookups == 0:
            self.error("spbla.incr.memo_lookups is zero — the epoch-keyed op "
                       "memo was never consulted")
        if hits == 0:
            self.error("spbla.incr.memo_hits is zero — no delta product was "
                       "ever replayed from the memo (run the replay rung)")
        # Each lookup counts one hit or one store; a compute that throws
        # counts neither, so the pair bounds lookups from below only.
        if hits + stores > lookups:
            self.error(f"spbla.incr.memo_hits + memo_stores ({hits} + "
                       f"{stores}) exceeds memo_lookups ({lookups}) — every "
                       "hit and store is a lookup")
        for counter, why in (
                ("spbla.incr.batches", "no batch flowed through an "
                 "incremental driver"),
                ("spbla.incr.delta_nnz", "no cells were ever folded into a "
                 "delta overlay"),
                ("spbla.incr.shortcircuit_ops", "the dispatcher's "
                 "empty-operand short-circuit never fired")):
            if counters.get(counter, 0) == 0:
                self.error(f"{counter} is zero — {why}")

    # --- telemetry metrics snapshot --------------------------------------

    LATENCY_HISTOGRAMS = {
        "spbla.op.latency_ns.csr": "spbla.dispatch.csr",
        "spbla.op.latency_ns.coo": "spbla.dispatch.coo",
        "spbla.op.latency_ns.dense": "spbla.dispatch.dense",
        "spbla.op.latency_ns.bitblock": "spbla.dispatch.bitblock",
        "spbla.op.latency_ns.sharded": "spbla.dist.sharded_ops",
    }

    def load_metrics(self, path: Path) -> dict | None:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            self.error(f"{path.name}: cannot load metrics JSON: {exc}")
            return None
        if not isinstance(doc, dict):
            self.error(f"{path.name}: metrics JSON is not an object")
            return None
        return doc

    def check_metrics(self, path: Path, doc: dict) -> None:
        where = path.name
        if doc.get("schema") != "spbla.metrics.v1":
            self.error(f"{where}: schema is {doc.get('schema')!r}, "
                       "expected 'spbla.metrics.v1'")
        counters = doc.get("counters")
        gauges = doc.get("gauges")
        histograms = doc.get("histograms")
        for key, section in (("counters", counters), ("gauges", gauges),
                             ("histograms", histograms)):
            if not isinstance(section, dict):
                self.error(f"{where}: missing '{key}' object")
                return

        for name, value in counters.items():
            if not isinstance(value, int) or value < 0:
                self.error(f"{where}: counter {name} is not a "
                           f"non-negative integer: {value!r}")
        for name, value in gauges.items():
            if not isinstance(value, int):
                self.error(f"{where}: gauge {name} is not an integer: {value!r}")

        for name, hist in histograms.items():
            if not isinstance(hist, dict):
                self.error(f"{where}: histogram {name} is not an object")
                continue
            count = hist.get("count", 0)
            buckets = hist.get("buckets", [])
            if sum(buckets) != count:
                self.error(f"{where}: histogram {name} buckets sum to "
                           f"{sum(buckets)}, count says {count}")
            p50, p95, p99 = (hist.get(k, 0) for k in ("p50", "p95", "p99"))
            if not p50 <= p95 <= p99:
                self.error(f"{where}: histogram {name} quantiles not "
                           f"monotone: p50={p50} p95={p95} p99={p99}")
            if count > 0 and hist.get("sum", 0) < hist.get("max", 0):
                self.error(f"{where}: histogram {name} sum < max")

        # Every completed dispatcher op lands in exactly one route histogram.
        ops = counters.get("spbla.dispatch.ops", 0)
        routed = sum(histograms.get(h, {}).get("count", 0)
                     for h in self.LATENCY_HISTOGRAMS)
        if routed != ops:
            self.error(f"{where}: op-latency histogram counts sum to {routed} "
                       f"but spbla.dispatch.ops = {ops} — every dispatched op "
                       "must land in exactly one route histogram")
        # The pick counter increments before the kernel, the histogram after
        # it, so the counter dominates (ops that threw are picked, not timed).
        for hist_name, counter_name in self.LATENCY_HISTOGRAMS.items():
            picked = counters.get(counter_name, 0)
            timed = histograms.get(hist_name, {}).get("count", 0)
            if picked < timed:
                self.error(f"{where}: {counter_name} = {picked} < {hist_name} "
                           f"count = {timed} — picks happen before timings")
        nnz_in = histograms.get("spbla.op.nnz_in", {}).get("count", 0)
        if nnz_in != ops:
            self.error(f"{where}: spbla.op.nnz_in count = {nnz_in} != "
                       f"spbla.dispatch.ops = {ops}")

        live = gauges.get("spbla.mem.live_bytes", 0)
        peak = gauges.get("spbla.mem.peak_bytes", 0)
        if live < 0:
            self.error(f"{where}: spbla.mem.live_bytes is negative ({live})")
        if peak < live:
            self.error(f"{where}: spbla.mem.peak_bytes ({peak}) < "
                       f"live_bytes ({live})")
        allocs = counters.get("spbla.mem.allocs", 0)
        frees = counters.get("spbla.mem.frees", 0)
        if frees > allocs:
            self.error(f"{where}: spbla.mem.frees ({frees}) > allocs "
                       f"({allocs})")

        prom = path.with_name(path.name + ".prom")
        if prom.is_file():
            self.check_prometheus(prom)
        else:
            print(f"check_trace: note: no Prometheus sibling at {prom}")

    def check_arena(self, path: Path, doc: dict) -> None:
        """The arena/pool tier backed the run (reads the metrics snapshot)."""
        where = path.name
        counters = doc.get("counters") or {}
        gauges = doc.get("gauges") or {}

        ops = counters.get("spbla.dispatch.ops", 0)
        resets = counters.get("spbla.arena.resets", 0)
        if resets < ops:
            self.error(f"{where}: spbla.arena.resets ({resets}) < "
                       f"spbla.dispatch.ops ({ops}) — every dispatched op "
                       "must close at least one arena scope")
        if ops > 0 and resets == 0:
            self.error(f"{where}: ops dispatched but no arena scope ever "
                       "closed — the kernels bypassed the arena tier")

        reserved = gauges.get("spbla.arena.reserved", 0)
        used = gauges.get("spbla.arena.used", 0)
        if reserved < used:
            self.error(f"{where}: spbla.arena.reserved ({reserved}) < "
                       f"spbla.arena.used ({used}) — an arena cannot bump "
                       "past its slab reserve")
        if reserved < 0 or used < 0:
            self.error(f"{where}: negative arena gauge (reserved={reserved}, "
                       f"used={used})")

        for key in ("spbla.arena.pool_hits", "spbla.arena.pool_misses"):
            if key not in counters:
                self.error(f"{where}: counter {key} missing — the buffer "
                           "pool's reuse accounting is unwired")

    def check_prometheus(self, path: Path) -> None:
        where = path.name
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            self.error(f"{where}: cannot read: {exc}")
            return
        typed: dict[str, str] = {}
        buckets: dict[str, list[tuple[str, int]]] = defaultdict(list)
        samples: dict[str, int] = {}
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "TYPE" or parts[3] not in (
                        "counter", "gauge", "histogram"):
                    self.error(f"{where}:{i + 1}: malformed TYPE line: {line!r}")
                else:
                    typed[parts[2]] = parts[3]
                continue
            parts = line.rsplit(" ", 1)
            if len(parts) != 2:
                self.error(f"{where}:{i + 1}: malformed sample line: {line!r}")
                continue
            name, value = parts
            try:
                num = int(value)
            except ValueError:
                self.error(f"{where}:{i + 1}: non-integer value: {line!r}")
                continue
            if "_bucket{le=" in name:
                base = name.split("_bucket{le=", 1)[0]
                le = name.split('le="', 1)[1].rstrip('"}')
                buckets[base].append((le, num))
            else:
                samples[name] = num
        if not typed:
            self.error(f"{where}: no # TYPE lines — not Prometheus exposition")
        for base, series in buckets.items():
            values = [v for (_le, v) in series]
            if values != sorted(values):
                self.error(f"{where}: histogram {base} buckets are not "
                           "cumulative")
            if series and series[-1][0] != "+Inf":
                self.error(f"{where}: histogram {base} is missing the "
                           "+Inf bucket")
            count = samples.get(base + "_count")
            if series and count is not None and series[-1][1] != count:
                self.error(f"{where}: histogram {base} +Inf bucket "
                           f"({series[-1][1]}) != _count ({count})")
        for name, kind in typed.items():
            if kind in ("counter", "gauge") and name not in samples:
                self.error(f"{where}: TYPE {name} declared but no sample")

    def check_flight(self, path: Path) -> None:
        where = path.name
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            self.error(f"{where}: cannot read: {exc}")
            return
        records = []
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                self.error(f"{where}:{i + 1}: not a JSON record: {exc}")
                continue
            records.append((i + 1, rec))
        if not records:
            self.error(f"{where}: flight dump holds no records")
            return
        prev_seq = 0
        for lineno, rec in records:
            seq = rec.get("seq")
            if not isinstance(seq, int) or seq <= prev_seq:
                self.error(f"{where}:{lineno}: seq {seq!r} does not increase "
                           f"(previous {prev_seq})")
            else:
                prev_seq = seq
            if not rec.get("op"):
                self.error(f"{where}:{lineno}: record without an op name")
            for field in ("rows", "cols", "nnz_in", "nnz_out", "epoch_ns",
                          "thread", "duration_ns"):
                if not isinstance(rec.get(field), int) or rec[field] < 0:
                    self.error(f"{where}:{lineno}: field {field!r} is not a "
                               "non-negative integer")
        print(f"check_trace: {path}: {len(records)} flight record(s)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", type=Path, help="Chrome trace-event JSON to check")
    ap.add_argument("--require-spgemm", action="store_true",
                    help="additionally require spgemm.multiply spans (plus "
                         "pool work in a multi-threaded trace with --metrics)")
    ap.add_argument("--require-dispatch", action="store_true",
                    help="additionally require the storage-dispatch counters "
                         "(format picks, conversions, cache hits; needs "
                         "--metrics)")
    ap.add_argument("--require-dist", action="store_true",
                    help="additionally require dist.* spans and the sharded "
                         "multi-device counters (tiles, shard builds, "
                         "transfers, steals; needs --metrics)")
    ap.add_argument("--require-bitblock", action="store_true",
                    help="additionally require bitblock.* spans (plus a "
                         "bitblock dispatch pick with --require-dispatch)")
    ap.add_argument("--require-incr", action="store_true",
                    help="additionally require incr.* round spans and the "
                         "incremental-evaluation counters (memo lookups/"
                         "hits, batches, delta nnz, short-circuits; needs "
                         "--metrics)")
    ap.add_argument("--require-metrics", action="store_true",
                    help="additionally validate a telemetry snapshot "
                         "(needs --metrics)")
    ap.add_argument("--require-arena", action="store_true",
                    help="additionally require the op-arena invariants in "
                         "the telemetry snapshot: resets >= dispatched ops, "
                         "reserved >= used, pool counters wired (needs "
                         "--metrics)")
    ap.add_argument("--metrics", type=Path, default=None,
                    help="telemetry JSON dumped by SPBLA_METRICS or "
                         "spbla_MetricsDump; the Prometheus sibling at "
                         "PATH.prom is checked too when present")
    ap.add_argument("--flight", type=Path, default=None,
                    help="flight-recorder crash dump (JSON lines) to validate")
    args = ap.parse_args()

    for flag in ("require_dispatch", "require_dist", "require_incr",
                 "require_metrics", "require_arena"):
        if getattr(args, flag) and args.metrics is None:
            ap.error(f"--{flag.replace('_', '-')} needs --metrics PATH")

    try:
        doc = json.loads(args.trace.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_trace: {args.trace}: {exc}", file=sys.stderr)
        return 1

    checker = Checker()
    metrics = None
    if args.metrics is not None:
        metrics = checker.load_metrics(args.metrics)
    counters = (metrics or {}).get("counters") or {}

    top = checker.check_structure(doc)
    spans = []
    if top is not None:
        spans = checker.check_events(top["traceEvents"])
        checker.check_balance(spans)
        if args.require_spgemm:
            checker.check_spgemm(spans, counters if metrics is not None
                                 else None)
        if args.require_dispatch:
            checker.check_dispatch(counters)
        if args.require_dist:
            checker.check_dist(spans, counters)
        if args.require_bitblock:
            checker.check_bitblock(
                spans, counters if args.require_dispatch else None)
        if args.require_incr:
            checker.check_incr(spans, counters)

    if metrics is not None and args.require_metrics:
        checker.check_metrics(args.metrics, metrics)
    if metrics is not None and args.require_arena:
        checker.check_arena(args.metrics, metrics)
    if args.flight is not None:
        checker.check_flight(args.flight)

    for err in checker.errors:
        print(f"check_trace: {args.trace}: {err}", file=sys.stderr)
    status = "FAILED" if checker.errors else "ok"
    print(f"check_trace: {args.trace}: {len(spans)} span event(s), "
          f"{len(counters)} metrics counter(s), {len(checker.errors)} "
          f"error(s) — {status}")
    return 1 if checker.errors else 0


if __name__ == "__main__":
    sys.exit(main())
