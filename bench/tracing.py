"""Spans around the calls into each spinqc module, recorded from outside.

Each wrapped public function records one span: name, start, end, parent
span and op id.  Names are patched where the caller looks them up
(``circuit`` and ``pulse`` import ``apply_unitary`` by name, ``cli``
imports ``format_state`` by name), and ``QuantumState`` validation is
timed through its ``__post_init__``.  Spans stay in memory and are
written out when the run ends; :func:`layer_metrics` turns them into
per-op counts and self times (span time minus the time its child spans
cover).
"""

import gzip
import importlib
import time
from collections import defaultdict

# (module, attribute) pairs to wrap, each with the modules that bind the
# same object under their own name.
TRACED = (
    ("linalg", "expm_hermitian", ()),
    ("register", "QuantumState.__post_init__", ()),
    ("register", "apply_unitary", ("circuit", "pulse")),
    ("register", "format_state", ("cli",)),
    ("gates", "embed", ()),
    ("circuit", "parse_circuit", ()),
    ("circuit", "run_ideal", ()),
    ("circuit", "circuit_unitary", ()),
    ("circuit", "compile_gate", ()),
    ("circuit", "run_pulse", ()),
    ("pulse", "pulse_propagator", ()),
    ("pulse", "gate_fidelity", ()),
    ("pulse", "format_schedule", ()),
    ("pulse", "transition_spectrum", ()),
    ("pulse", "load_system_config", ()),
    ("cli", "main", ()),
    ("cli", "cmd_run", ()),
    ("cli", "cmd_spectrum", ()),
)

REFUSALS = ("FeasibilityError", "CompilationError")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[0]}"


def _bytes_of(name, args, result):
    """Computed bytes touched by one call, from array sizes (not measured traffic)."""
    if name == "gates.embed":
        return result.nbytes
    if name == "register.apply_unitary":
        state, u = args[0], args[1]
        return u.nbytes + state.amplitudes.nbytes + result.amplitudes.nbytes
    return 0


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        # span: [name, start, end, parent, op_id, bytes, error]
        self.spans = []
        self._stack = []
        self._saved = []
        self.op_id = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.op_id, 0, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[6] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            span[5] = _bytes_of(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, attr, rebinders in TRACED:
            mod = importlib.import_module(f"spinqc.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for target in (module,) + rebinders:
                tmod = importlib.import_module(f"spinqc.{target}")
                self._saved.append((tmod, attr, getattr(tmod, attr)))
                setattr(tmod, attr, wrapped)

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def op(self, op_id, fn, *args):
        """Run one op as a root span named ``op``."""
        self.op_id = op_id
        run = self._wrap("op", fn)
        try:
            return run(*args)
        finally:
            self.op_id = None

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tbytes\terror\n")
            for s in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")


def layer_metrics(spans, n_ops: int) -> tuple[dict, list[int]]:
    """Per-op calls, inclusive ms, self ms, bytes and refusals per span name,
    and the ladder depth of every propagator (``linalg.expm_hermitian``
    spans nested in one ``pulse.pulse_propagator`` span).
    """
    child_time = [0.0] * len(spans)
    levels = defaultdict(int)
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
        if name == "linalg.expm_hermitian":
            p = parent
            while p is not None and spans[p][0] != "pulse.pulse_propagator":
                p = spans[p][3]
            if p is not None:
                levels[p] += 1
    agg = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "bytes": 0, "refused": 0})
    for i, (name, start, end, parent, _op, nbytes, error) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["ms"] += (end - start) * 1e3
        a["self_ms"] += (end - start - child_time[i]) * 1e3
        a["bytes"] += nbytes
        a["refused"] += error in REFUSALS
    per_op = {
        name: {k: v / n_ops for k, v in a.items()} for name, a in agg.items()
    }
    prop_levels = [
        levels[i] for i, s in enumerate(spans) if s[0] == "pulse.pulse_propagator"
    ]
    return per_op, prop_levels
