"""Schema validation for telemetry exports (no external deps).

Hand-rolled structural checks for the two on-disk formats —
:func:`validate_jsonl` for the JSONL event stream and
:func:`validate_chrome_trace` for the Chrome trace-event JSON — plus a
tiny CLI so CI can gate exported artefacts::

    python -m repro.telemetry.validate run.jsonl --trace trace.json

Each validator returns a summary dict on success and raises
:class:`TelemetrySchemaError` on the first violation, naming the line
or event index so failures are actionable.
"""

from __future__ import annotations

import json


class TelemetrySchemaError(ValueError):
    """An export file violates the telemetry schema."""


def _require(record, keys, where):
    for key in keys:
        if key not in record:
            raise TelemetrySchemaError(f"{where}: missing key {key!r}")


def _require_number(record, keys, where, minimum=None):
    for key in keys:
        value = record.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TelemetrySchemaError(
                f"{where}: {key!r} must be a number, got {value!r}")
        if minimum is not None and value < minimum:
            raise TelemetrySchemaError(
                f"{where}: {key!r} must be >= {minimum}, got {value!r}")


def _require_labels(record, where):
    labels = record.get("labels")
    if not isinstance(labels, dict):
        raise TelemetrySchemaError(
            f"{where}: 'labels' must be an object, got {type(labels).__name__}")


#: Required keys per JSONL record type (beyond ``type`` itself).
JSONL_REQUIRED = {
    "meta": ("version", "origin"),
    "counter": ("name", "labels", "value"),
    "gauge": ("name", "labels", "value"),
    "histogram": ("name", "labels", "edges", "counts", "count", "total"),
    "span": ("name", "labels", "ts_ns", "dur_ns", "depth", "pid", "tid"),
    "event": ("name", "labels", "time_ns", "seq", "pid", "tid"),
}

#: Every metric-family prefix the repo's instrumentation emits.  The
#: CLI gates counter/gauge/histogram names against this list so a typo
#: (or a new subsystem that forgot to register here) fails CI instead
#: of silently shipping an unvalidated family.
KNOWN_METRIC_PREFIXES = (
    "exec.",
    # Dispatch-overhead family (payload bytes, chunk layout) — covered
    # by "exec." above but registered explicitly so the family survives
    # any future narrowing of the exec prefix.
    "exec.dispatch.",
    # Fault-tolerance families: manifest torn-tail repairs and
    # retry/timeout/crash/quarantine/degrade transitions.
    "exec.manifest.",
    "exec.recovery.",
    # District-scale fleet simulation: deployment sizes, reroute event
    # counts, rescue rate, reroute latency histograms.
    "fleet.",
    "netsim.",
    # Observability analysis layer: SLO burn rates/alert counts and
    # profiler bookkeeping emitted by repro.obs.
    "obs.",
    "probes.",
    "relay.",
    "runtime.",
    # Always-on relay service: session/frame accounting, queue depths,
    # stage-latency histograms, storm-driven SI jumps.
    "service.",
    "supervision.",
)

#: Record types whose names are metric families (spans/events are
#: free-form trace names and stay unconstrained).
_PREFIXED_TYPES = ("counter", "gauge", "histogram")


def validate_jsonl(path, metric_prefixes=None):
    """Validate a :func:`repro.telemetry.export.write_jsonl` file.

    Checks: every line parses as a JSON object; the first line is the
    ``meta`` header; every record carries its type's required keys with
    sane value shapes (numeric timestamps/durations, object labels,
    histogram counts one longer than edges).  When ``metric_prefixes``
    is given, every counter/gauge/histogram name must start with one of
    them (the CLI passes :data:`KNOWN_METRIC_PREFIXES` by default; the
    library default stays permissive for ad-hoc collectors).  Returns
    ``{"records": n, "by_type": {...}}``.
    """
    prefixes = tuple(metric_prefixes) if metric_prefixes else None
    by_type = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise TelemetrySchemaError(f"{where}: invalid JSON: {err}")
            if not isinstance(record, dict):
                raise TelemetrySchemaError(f"{where}: record must be an object")
            kind = record.get("type")
            if kind not in JSONL_REQUIRED:
                raise TelemetrySchemaError(
                    f"{where}: unknown record type {kind!r}")
            if not by_type and kind != "meta":
                raise TelemetrySchemaError(
                    f"{where}: first record must be 'meta', got {kind!r}")
            _require(record, JSONL_REQUIRED[kind], where)
            if kind in ("counter", "gauge", "histogram", "span", "event"):
                _require_labels(record, where)
            if prefixes is not None and kind in _PREFIXED_TYPES:
                name = record.get("name", "")
                if not any(str(name).startswith(p) for p in prefixes):
                    raise TelemetrySchemaError(
                        f"{where}: metric {name!r} has an unknown prefix "
                        f"(known: {', '.join(prefixes)})")
            if kind == "span":
                _require_number(record, ("ts_ns", "dur_ns"), where)
                _require_number(record, ("dur_ns",), where, minimum=0)
            elif kind == "event":
                _require_number(record, ("time_ns", "seq"), where)
            elif kind == "histogram":
                edges, counts = record["edges"], record["counts"]
                if not isinstance(edges, list) or not isinstance(counts, list):
                    raise TelemetrySchemaError(
                        f"{where}: histogram edges/counts must be arrays")
                if len(counts) != len(edges) + 1:
                    raise TelemetrySchemaError(
                        f"{where}: histogram needs len(counts) == "
                        f"len(edges) + 1, got {len(counts)} vs {len(edges)}")
                _require_number(record, ("count",), where, minimum=0)
            by_type[kind] = by_type.get(kind, 0) + 1
    if by_type.get("meta", 0) != 1:
        raise TelemetrySchemaError(
            f"{path}: expected exactly one meta record, "
            f"got {by_type.get('meta', 0)}")
    return {"records": sum(by_type.values()), "by_type": by_type}


#: Chrome trace phases the exporter emits.
TRACE_PHASES = frozenset({"X", "M", "i"})


def validate_chrome_trace(path_or_trace):
    """Validate a Chrome trace-event export (path or already-loaded dict).

    Checks the ``traceEvents`` array shape Chrome/Perfetto require:
    every event is an object with ``name``/``ph``/``pid``/``tid``, the
    phase is one we emit, and complete (``X``) events have numeric
    non-negative ``ts``/``dur``.  Returns ``{"events": n,
    "by_phase": {...}}``.
    """
    if isinstance(path_or_trace, dict):
        trace, where = path_or_trace, "<trace>"
    else:
        where = str(path_or_trace)
        with open(path_or_trace, "r", encoding="utf-8") as fh:
            try:
                trace = json.load(fh)
            except json.JSONDecodeError as err:
                raise TelemetrySchemaError(f"{where}: invalid JSON: {err}")
    if not isinstance(trace, dict) or not isinstance(
            trace.get("traceEvents"), list):
        raise TelemetrySchemaError(
            f"{where}: top level must be an object with a "
            f"'traceEvents' array")
    by_phase = {}
    for i, event in enumerate(trace["traceEvents"]):
        at = f"{where}: traceEvents[{i}]"
        if not isinstance(event, dict):
            raise TelemetrySchemaError(f"{at}: event must be an object")
        _require(event, ("name", "ph", "pid", "tid"), at)
        ph = event["ph"]
        if ph not in TRACE_PHASES:
            raise TelemetrySchemaError(
                f"{at}: phase {ph!r} not in {sorted(TRACE_PHASES)}")
        if ph == "X":
            _require_number(event, ("ts", "dur"), at, minimum=0)
        elif ph == "i":
            _require_number(event, ("ts",), at)
        by_phase[ph] = by_phase.get(ph, 0) + 1
    return {"events": len(trace["traceEvents"]), "by_phase": by_phase}


def main(argv=None):
    """CLI: validate a JSONL export and optionally a Chrome trace."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.validate",
        description="Schema-validate telemetry export files.")
    parser.add_argument("jsonl", nargs="?", default=None,
                        help="JSONL event-stream export to validate")
    parser.add_argument("--trace", default=None,
                        help="Chrome trace-event JSON export to validate")
    parser.add_argument("--allow-prefix", action="append", default=[],
                        metavar="PREFIX",
                        help="additional metric prefix to accept "
                             "(repeatable)")
    parser.add_argument("--no-prefix-check", action="store_true",
                        help="skip the unknown-metric-prefix gate")
    args = parser.parse_args(argv)
    if args.jsonl is None and args.trace is None:
        parser.error("nothing to validate: give a JSONL path and/or --trace")
    prefixes = None if args.no_prefix_check else (
        KNOWN_METRIC_PREFIXES + tuple(args.allow_prefix))
    try:
        if args.jsonl is not None:
            summary = validate_jsonl(args.jsonl, metric_prefixes=prefixes)
            print(f"{args.jsonl}: OK — {summary['records']} records "
                  f"({', '.join(f'{k}={v}' for k, v in sorted(summary['by_type'].items()))})")
        if args.trace is not None:
            summary = validate_chrome_trace(args.trace)
            print(f"{args.trace}: OK — {summary['events']} trace events "
                  f"({', '.join(f'{k}={v}' for k, v in sorted(summary['by_phase'].items()))})")
    except TelemetrySchemaError as err:
        print(f"schema error: {err}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
