"""Spans around the package's public functions, recorded from outside it.

`Tracer.install()` wraps every public function defined in a layer module and
rebinds the wrapper wherever the original is bound in the package, because
modules import functions by name (``from .specfun import
fundamental_solution_many``).  Each call records a span: name, start, end
and the span that was open when it started.  Spans stay in memory; the
caller takes them per pass via `take()` and writes them out at the end.

Only the traced child process installs wrappers; untimed and timed passes
run in processes that never call `install()`.
"""

import functools
import hashlib
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "geometry", "born", "disk", "linalg", "music", "sampling",
          "bayes", "fields", "cli")

# Span groups reported as `<group>.self_s`.  A pattern ending in "." is a
# module prefix; anything else is one function.
GROUPS = {
    "specfun.phi": ("specfun.fundamental_solution_many",),
    "geometry": ("geometry.",),
    "born.assemble": ("born.assemble_multistatic",),
    "disk.assemble": ("disk.",),
    "linalg.nsharp": ("linalg.nsharp", "linalg.abs_op", "linalg.real_part_op",
                      "linalg.imag_part_op"),
    "linalg.eig": ("linalg.hermitian_eig",),
    "music.build": ("music.build_music",),
    "music.field": ("music.music_field",),
    "sampling.picard": ("sampling.make_picard_data",),
    "sampling.fm_field": ("sampling.fm_field",),
    "sampling.mlsm_field": ("sampling.mlsm_field", "sampling.cutoff_at_rank",
                            "sampling.filter_value"),
    "bayes.readings": ("bayes.synthesize_readings",),
    "bayes.mh": ("bayes.run_mh", "bayes.design_matrix"),
    "fields.csv": ("fields.write_field_csv",),
    "fields.pgm": ("fields.write_field_pgm",),
    "cli": ("cli.",),
}
SCALAR = {f"specfun.{n}" for n in ("bessel_j", "bessel_y", "hankel1", "bessel_j_prime",
                                    "hankel1_prime", "fundamental_solution")}
PHI = "specfun.fundamental_solution_many"

# Per-pass values that depend only on the inputs: two traced runs must agree.
EXACT = ("specfun.phi.calls", "specfun.phi.pairs", "specfun.phi.max_call_pairs",
         "specfun.scalar.calls", "born.assemble.calls", "linalg.eig.calls",
         "sampling.steering_builds", "sampling.steering_reuse", "bayes.mh.iters",
         "bayes.mh.acceptance", "fields.csv.bytes", "fields.pgm.bytes",
         "cli.bytes_written")


def _matches(name, patterns):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "info")

    def __init__(self, sid, name, parent):
        self.sid, self.name, self.parent = sid, name, parent
        self.start = self.end = None
        self.info = {}

    def record(self, pass_id):
        return {"pass": pass_id, "id": self.sid, "name": self.name,
                "parent": self.parent, "start": self.start, "end": self.end,
                **self.info}


class Tracer:
    def __init__(self):
        self._spans = []
        self._stack = []
        self._next = 0

    def install(self):
        import nearscat

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nearscat.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for info in pkgutil.iter_modules(nearscat.__path__):
            mod = importlib.import_module(f"nearscat.{info.name}")
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(self._next, name, self._stack[-1].sid if self._stack else None)
            self._next += 1
            self._spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._annotate(span, sig, args, kwargs, out)
            return out

        return wrapper

    def _annotate(self, span, sig, args, kwargs, out):
        """Counts measured at the boundary, from arguments and results."""
        name = span.name
        if name == PHI:
            span.info["pairs"] = int(np.size(out))
            if any(s.name.startswith("sampling.") for s in self._stack):
                a = sig.bind(*args, **kwargs).arguments
                key = hashlib.sha256(repr(float(a["k"])).encode())
                for pts in (a["points_x"], a["points_y"]):
                    key.update(np.ascontiguousarray(pts, dtype=float).tobytes())
                # distinct per preset run: the root span is that run's cli.run
                span.info["steering"] = f"{self._stack[0].sid}:{key.hexdigest()}"
        elif name in ("fields.write_field_csv", "fields.write_field_pgm"):
            span.info["bytes"] = os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])
        elif name == "bayes.run_mh":
            chain = np.asarray(out.chain_gamma)
            span.info["iters"] = int(chain.size)
            span.info["accepted"] = int(np.count_nonzero(np.diff(chain)))

    def take(self, pass_id):
        """Spans recorded since the last call under a `cli.run` root, as
        records tagged with pass_id.  Calls made outside the entry point (by
        the output checks, say) are dropped."""
        spans, self._spans = self._spans, []
        root = {}
        for s in spans:  # parents start, and so are recorded, before children
            root[s.sid] = root.get(s.parent, s.name) if s.parent is not None else s.name
        return [s.record(pass_id) for s in spans if root[s.sid] == "cli.run"]


def pass_metrics(records, other_bytes):
    """Per-layer metrics of one pass from its span records.

    `other_bytes` is what the pass wrote besides manifest.json; the part the
    field writers did not write is attributed to cli.
    """
    child_time = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] += r["end"] - r["start"]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for r in records:
        own = r["end"] - r["start"] - child_time[r["id"]]
        for group, patterns in GROUPS.items():
            if _matches(r["name"], patterns):
                self_s[group] += own
                calls[group] += 1
    phi = [r for r in records if r["name"] == PHI]
    steering = [r["steering"] for r in phi if "steering" in r]
    mh = [r for r in records if r["name"] == "bayes.run_mh"]
    iters = sum(r["iters"] for r in mh)
    proposals = sum(r["iters"] - 1 for r in mh)
    pairs = sum(r["pairs"] for r in phi)

    def nbytes(name):
        return sum(r["bytes"] for r in records if r["name"] == name)

    m = {f"{g}.self_s": self_s[g] for g in GROUPS}
    m.update({
        "specfun.phi.calls": len(phi),
        "specfun.phi.pairs": pairs,
        "specfun.phi.pairs_per_s": pairs / self_s["specfun.phi"] if pairs else 0.0,
        "specfun.phi.max_call_pairs": max((r["pairs"] for r in phi), default=0),
        "specfun.scalar.calls": sum(r["name"] in SCALAR for r in records),
        "born.assemble.calls": calls["born.assemble"],
        "linalg.eig.calls": calls["linalg.eig"],
        "sampling.steering_builds": len(steering),
        "sampling.steering_reuse": len(set(steering)) / len(steering) if steering else 0.0,
        "bayes.mh.iters": iters,
        "bayes.mh.iters_per_s": iters / self_s["bayes.mh"] if iters else 0.0,
        "bayes.mh.acceptance": sum(r["accepted"] for r in mh) / proposals if proposals else 0.0,
        "fields.csv.bytes": nbytes("fields.write_field_csv"),
        "fields.pgm.bytes": nbytes("fields.write_field_pgm"),
    })
    m["cli.bytes_written"] = other_bytes - m["fields.csv.bytes"] - m["fields.pgm.bytes"]
    return m
