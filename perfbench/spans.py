"""Spans recorded around the calls that cross entroseal's layer boundaries.

The tracer replaces, from outside the package, the names through which
one layer calls the next, and restores them on uninstall; nothing under
src/ changes. Spans stay in memory until the process writes them out.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import json
import time

# (span name, owner the caller looks the name up in, attribute). The
# owner is "module" or "module:Class".
BOUNDARIES = (
    ("cipher.derive", "entroseal.cipher:SchemeParams", "derive"),
    ("cipher.encrypt", "entroseal.cipher", "encrypt"),
    ("cipher.decrypt", "entroseal.cipher", "decrypt"),
    ("cipher.serialize", "entroseal.cipher", "serialize"),
    ("cipher.deserialize", "entroseal.cipher", "deserialize"),
    ("keyexpand.expand_affine", "entroseal.cipher", "expand_affine"),
    ("gf2.find_irreducible", "entroseal.keyexpand", "find_irreducible"),
    ("gf2.gf_mul", "entroseal.keyexpand", "gf_mul"),
    ("gf2.clmul", "entroseal.gf2", "clmul"),
    ("gf2.reduce_mod", "entroseal.gf2", "reduce_mod"),
    ("rng.bits", "entroseal.rng:RandomSource", "bits"),
)

# The CLI imported the cipher functions into its own namespace.
CLI_BOUNDARIES = (
    ("cipher.encrypt", "entroseal.cli", "encrypt"),
    ("cipher.decrypt", "entroseal.cli", "decrypt"),
    ("cipher.serialize", "entroseal.cli", "serialize"),
    ("cipher.deserialize", "entroseal.cli", "deserialize"),
)


def _lookup_note(tracer: "Tracer", args: tuple) -> int:
    """1 for the first find_irreducible call of a lambda in this process."""
    lam = args[0]
    cold = lam not in tracer.seen_lams
    tracer.seen_lams.add(lam)
    return int(cold)


def _clmul_note(tracer: "Tracer", args: tuple) -> int:
    """Summed operand widths in bits."""
    return args[0].nbits + args[1].nbits


_NOTES = {"gf2.find_irreducible": _lookup_note, "gf2.clmul": _clmul_note}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Wraps boundary names; each call appends one span.

    A span is (name, start_ns, end_ns, parent index or -1, op id, note),
    where note is the boundary's count (see _NOTES) or None.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self.seen_lams: set[int] = set()
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap each boundary that exists; one that does not stays missing."""
        for name, owner_path, attr in boundaries:
            owner = _resolve(owner_path)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op,
                              note(self, args) if note else None)
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def summarize(spans: list) -> dict[str, dict[str, int]]:
    """Per span name: calls, total and self nanoseconds, note sum and the
    nanoseconds of the spans whose note is nonzero."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _note in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, int]] = {}
    for i, (name, start, end, _parent, _op, note) in enumerate(spans):
        s = out.setdefault(name, dict.fromkeys(
            ("calls", "total_ns", "self_ns", "note", "noted_ns"), 0))
        dur = end - start
        s["calls"] += 1
        s["total_ns"] += dur
        s["self_ns"] += dur - child_ns[i]
        if note:
            s["note"] += note
            s["noted_ns"] += dur
    return out


def merge(summaries) -> dict[str, dict[str, int]]:
    """Add up summaries of several processes."""
    out: dict[str, dict[str, int]] = {}
    for summary in summaries:
        for name, s in summary.items():
            acc = out.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                acc[key] += value
    return out


def _mean(s: dict | None, field: str, unit_ns: float):
    if not s or not s["calls"]:
        return None
    return s[field] / s["calls"] / unit_ns


def layer_metrics(summary: dict) -> dict[str, float | None]:
    """Per-layer metrics from span summaries; None marks a boundary that
    never fired, which is reported as missing, never as 0.

    Times are means per call of the named boundary, over the traced
    set-up and traced round trips; counts are totals over the same.
    """
    get = summary.get
    lookup, clmul = get("gf2.find_irreducible"), get("gf2.clmul")
    ser, deser = get("cipher.serialize"), get("cipher.deserialize")
    wire = None
    if ser and deser:
        wire = (ser["self_ns"] + deser["self_ns"]) / ser["calls"] / 1e3
    return {
        "cipher.derive_us": _mean(get("cipher.derive"), "self_ns", 1e3),
        "cipher.encrypt_self_us": _mean(get("cipher.encrypt"), "self_ns", 1e3),
        "cipher.decrypt_self_us": _mean(get("cipher.decrypt"), "self_ns", 1e3),
        "cipher.wire_us": wire,
        "keyexpand.expand_self_us":
            _mean(get("keyexpand.expand_affine"), "self_ns", 1e3),
        "gf2.lookup_ms": (lookup["noted_ns"] / lookup["note"] / 1e6
                          if lookup and lookup["note"] else None),
        "gf2.lookup_calls": lookup["calls"] if lookup else None,
        "gf2.lookup_cold_calls": lookup["note"] if lookup else None,
        "gf2.clmul_ms": _mean(clmul, "total_ns", 1e6),
        "gf2.clmul_calls": clmul["calls"] if clmul else None,
        "gf2.clmul_bits": clmul["note"] if clmul else None,
        "gf2.reduce_us": _mean(get("gf2.reduce_mod"), "self_ns", 1e3),
        "rng.bits_us": _mean(get("rng.bits"), "self_ns", 1e3),
    }
