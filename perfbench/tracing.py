"""Span tracer for the traced benchmark run.

The tracer replaces the library's public functions, at the names their
consumer modules look them up by, with wrappers that record one span per
call, and puts the originals back when it is uninstalled. A layer is named
after the module that defines the function, so calls through every consumer
add up in one layer. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import time
from collections import Counter, defaultdict

# (consumer module, attribute or "Class.method", layer).
WRAP_POINTS = (
    ("harness", "run_simulation", "harness.run_simulation"),
    ("harness", "SimulationConfig.validate", "harness.validate"),
    ("harness", "make_adversary", "harness.make_adversary"),
    ("harness", "read_events", "harness.read_events"),
    ("harness", "replay_transcript", "harness.replay_transcript"),
    ("harness", "write_transcript", "harness.write_transcript"),
    ("harness", "is_prime", "field.is_prime"),
    ("field", "is_prime", "field.is_prime"),
    ("harness", "make_cyclic", "assignment.make"),
    ("harness", "make_fractional", "assignment.make"),
    ("harness", "make_random_regular", "assignment.make"),
    ("harness", "assignment_to_text", "assignment.to_text"),
    ("harness", "assignment_from_text", "assignment.from_text"),
    ("harness", "build_code_context", "coding.build_code_context"),
    ("harness", "build_encoding_matrix", "coding.build_encoding_matrix"),
    ("protocol", "build_encoding_matrix", "coding.build_encoding_matrix"),
    ("harness", "combining_vector", "coding.combining_vector"),
    ("protocol", "combining_vector", "coding.combining_vector"),
    ("harness", "ecc_decode", "coding.ecc_decode"),
    ("protocol", "ecc_decode", "coding.ecc_decode"),
    ("protocol", "worker_response", "coding.worker_response"),
    ("coding", "solve_linear", "linalg.solve_linear"),
    ("adversary", "solve_linear", "linalg.solve_linear"),
    ("harness", "run_protocol", "protocol.run_protocol"),
    ("protocol", "ProtocolRun.run_match", "protocol.run_match"),
    ("harness", "group_response", "protocol.group_response"),
    ("protocol", "group_response", "protocol.group_response"),
    ("harness", "detect_contradiction", "protocol.detect_contradiction"),
    ("protocol", "detect_contradiction", "protocol.detect_contradiction"),
    ("protocol", "local_compute", "protocol.local_compute"),
)

# Methods wrapped on every adversary class that defines them.
ADVERSARY_METHODS = {
    "bind": "adversary.bind",
    "initial_response": "adversary.respond",
    "match_response": "adversary.respond",
}

LAYERS = tuple(dict.fromkeys([p[2] for p in WRAP_POINTS] + list(ADVERSARY_METHODS.values())))

ROOT_LAYER = "bench.op"


class Tracer:
    """Records (span_id, parent_id, run_id, layer, start_ns, end_ns) spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = None
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                # A super() chain or recursion inside one layer is one span.
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, layer))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.run_id, layer, start, end))

        return traced

    def call(self, run_id, fn, *args):
        """One benchmark operation as a root span; its layer spans share run_id."""
        self.run_id = run_id
        return self.wrap(ROOT_LAYER, fn)(*args)

    def install(self, mods: dict) -> None:
        for mod_name, path, layer in WRAP_POINTS:
            owner = mods[mod_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{mod_name}.{path}")
                continue
            self._patch(owner, attr, layer)
        base = getattr(mods["adversary"], "AdversaryStrategy", None)
        if base is None:
            self.missing.append("adversary.AdversaryStrategy")
            return
        for obj in vars(mods["adversary"]).values():
            if isinstance(obj, type) and issubclass(obj, base):
                for attr, layer in ADVERSARY_METHODS.items():
                    if attr in obj.__dict__:
                        self._patch(obj, attr, layer)

    def _patch(self, owner, attr: str, layer: str) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, int | float]:
        """Calls, total and self seconds per layer, plus parent-scoped counts.

        A span's self time is its duration minus the durations of its child
        spans; calls are single-threaded, so children never overlap.
        """
        layer_of: dict[int, str] = {}
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, layer, start, end in self.spans:
            layer_of[sid] = layer
            if parent is not None:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        edges: Counter = Counter()
        for sid, parent, _, layer, start, end in self.spans:
            calls[layer] += 1
            total_ns[layer] += end - start
            self_ns[layer] += end - start - child_ns[sid]
            edges[(layer_of.get(parent), layer)] += 1
        out: dict[str, int | float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = total_ns[layer] / 1e9
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        decodes = calls["coding.ecc_decode"]
        trials = edges[("coding.ecc_decode", "linalg.solve_linear")]
        out["coding.ecc_trials"] = trials
        out["coding.ecc_trials_per_decode"] = trials / decodes if decodes else 0.0
        out["coding.encoder_solves"] = edges[("coding.build_encoding_matrix", "linalg.solve_linear")]
        runs = calls["harness.run_simulation"]
        builds = edges[("harness.run_simulation", "coding.build_encoding_matrix")]
        out["harness.instance_cache_miss_ratio"] = builds / runs if runs else 0.0
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span_id,parent_id,run_id,layer,start_ns,end_ns\n")
            for sid, parent, run_id, layer, start, end in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{run_id},{layer},{start},{end}\n")
