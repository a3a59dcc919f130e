"""Span tracing of szwalk's layers, recorded from outside the program.

``Tracer.install`` rebinds the layers' public functions wherever a loaded
``szwalk`` module holds a name for them (``szwalk.oracle.walk_operator``,
the ``walk_operator`` that ``szwalk.synth`` imported, ...), so every call
goes through a wrapper that records a span.  ``remove`` puts the original
functions back.  A function that no longer exists is skipped; its metrics
then read zero calls.  Spans stay in memory until ``layer_metrics`` turns
them into the per-layer metrics at the end of the run.
"""

import inspect
import sys
from contextlib import contextmanager
from fnmatch import fnmatch
from functools import wraps
from time import perf_counter


def _result(args, kwargs, result):
    return result


def _n_gates(args, kwargs, result):
    return len(args[0].gates)


def _unitary_bytes(args, kwargs, result):
    return 16 * 4 ** args[0].width


def _dense_bytes(args, kwargs, result):
    return 8 * len(args[0]) ** 4


def _text_bytes(args, kwargs, result):
    return len(result.encode())


# (module, function-name pattern, span kind, note taken from each call)
TARGETS = (
    ("szwalk.cli", "main", "cli", None),
    ("szwalk.markov", "*", "markov", None),
    ("szwalk.synth", "synth_*", "synth", _result),
    ("szwalk.gates", "to_text", "gates.to_text", _text_bytes),
    ("szwalk.simulator", "unitary_of", "simulator.unitary_of", _unitary_bytes),
    ("szwalk.simulator", "apply", "simulator.apply", _n_gates),
    ("szwalk.simulator", "marginal_register2", "simulator.marginal", None),
    ("szwalk.oracle", "walk_operator", "oracle.walk_operator", _dense_bytes),
    ("szwalk.oracle", "embed", "oracle.embed", None),
    ("szwalk.oracle", "initial_superposition", "oracle.initial_superposition", None),
    ("szwalk.synth", "verify", "verify", None),
    ("szwalk.pagerank", "run", "pagerank", _result),
    ("szwalk.pagerank", "export", "export", None),
)

KIND, PARENT, START, END, NOTE = range(5)

# Per-layer counts computed from the calls' inputs and outputs, not timed.
COMPUTED = ("synth.gates", "synth.two_qubit_est", "gates.text_bytes",
            "simulator.bytes_computed", "simulator.gate_apps", "oracle.dense_bytes",
            "pagerank.steps", "export.bytes")


class Tracer:
    """Records spans ``[kind, parent index, start, end, note]`` in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, kind, fn, note):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(kind) as span:
                result = fn(*args, **kwargs)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, kind, note=None):
        """Record the enclosed code as one span of ``kind``."""
        span = [kind, self._stack[-1] if self._stack else -1, 0.0, 0.0, note]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            yield span
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def install(self):
        wrappers = {}
        for modname, pattern, kind, note in TARGETS:
            module = sys.modules.get(modname)
            for name, fn in vars(module).items() if module else ():
                if (inspect.isfunction(fn) and fn.__module__ == modname
                        and not name.startswith("_") and fnmatch(name, pattern)):
                    wrappers[fn] = self._wrap(kind, fn, note)
        for modname, module in list(sys.modules.items()):
            if modname != "szwalk" and not modname.startswith("szwalk."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def remove(self):
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


def layer_metrics(spans, passes, gate_count, facts):
    """Per-layer metrics per traced pass.

    ``gate_count(circuit) -> (total, two-qubit estimate)`` sizes synthesized
    circuits; ``facts`` are the job checks' findings over the traced passes
    (``max_deviation`` of verify jobs expected to pass, ``verdict_ok`` and
    ``export_bytes``).  Calls and the other times cover the outermost spans
    of a kind, those not nested in a span of the same kind; ``self_s``
    subtracts the time of child spans.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls, total, self_s, outer = {}, {}, {}, {}
    for i, s in enumerate(spans):
        kind, dur = s[KIND], s[END] - s[START]
        self_s[kind] = self_s.get(kind, 0.0) + dur - child[i]
        if s[PARENT] < 0 or spans[s[PARENT]][KIND] != kind:
            calls[kind] = calls.get(kind, 0) + 1
            total[kind] = total.get(kind, 0.0) + dur
            outer.setdefault(kind, []).append(s)

    def notes(kind):    # a call that raised has no note
        return [s[NOTE] for s in outer.get(kind, ()) if s[NOTE] is not None]

    synth_counts = [gate_count(c) for c in notes("synth")]
    series = notes("pagerank")
    steps = sum(q.steps - 1 for q in series)
    gate_apps = sum(notes("simulator.apply"))
    jobs = [s for s in spans if s[KIND] == "job"]
    job_s = sum(s[END] - s[START] for s in jobs)
    glue = self_s.get("job", 0.0) + self_s.get("cli", 0.0)
    m = {
        "cli.calls": calls.get("cli", 0),
        "cli.self_s": self_s.get("cli", 0.0),
        "markov.calls": calls.get("markov", 0),
        "markov.s": total.get("markov", 0.0),
        "synth.calls": calls.get("synth", 0),
        "synth.s": total.get("synth", 0.0),
        "synth.gates": sum(c[0] for c in synth_counts),
        "synth.two_qubit_est": sum(c[1] for c in synth_counts),
        "gates.to_text_s": total.get("gates.to_text", 0.0),
        "gates.text_bytes": sum(notes("gates.to_text")),
        "simulator.unitary_of_calls": calls.get("simulator.unitary_of", 0),
        "simulator.unitary_of_s": total.get("simulator.unitary_of", 0.0),
        "simulator.bytes_computed": sum(notes("simulator.unitary_of")),
        "simulator.apply_calls": calls.get("simulator.apply", 0),
        "simulator.apply_s": total.get("simulator.apply", 0.0),
        "simulator.gate_apps": gate_apps,
        "simulator.marginal_s": total.get("simulator.marginal", 0.0),
        "oracle.walk_operator_calls": calls.get("oracle.walk_operator", 0),
        "oracle.walk_operator_s": total.get("oracle.walk_operator", 0.0),
        "oracle.embed_s": total.get("oracle.embed", 0.0),
        "oracle.initial_superposition_s": total.get("oracle.initial_superposition", 0.0),
        "oracle.dense_bytes": sum(notes("oracle.walk_operator")),
        "verify.calls": calls.get("verify", 0),
        "verify.self_s": self_s.get("verify", 0.0),
        "verify.verdicts_correct": sum(f.get("verdict_ok", 0) for f in facts),
        "pagerank.calls": calls.get("pagerank", 0),
        "pagerank.self_s": self_s.get("pagerank", 0.0),
        "pagerank.steps": steps,
        "export.calls": calls.get("export", 0),
        "export.s": total.get("export", 0.0),
        "export.bytes": sum(f.get("export_bytes", 0) for f in facts),
    }
    per_pass = {k: v / passes for k, v in m.items()}
    per_pass.update({
        "simulator.us_per_gate": (1e6 * total.get("simulator.apply", 0.0) / gate_apps
                                  if gate_apps else 0.0),
        "verify.max_deviation": max((f["max_deviation"] for f in facts
                                     if "max_deviation" in f), default=0.0),
        "pagerank.us_per_step": 1e6 * total.get("pagerank", 0.0) / steps if steps else 0.0,
        "pagerank.norm_drift_max": max((float(abs(q.instantaneous.sum(axis=1) - 1).max())
                                        for q in series), default=0.0),
        "trace.coverage": (job_s - glue) / job_s if job_s else 0.0,
    })
    return per_pass
