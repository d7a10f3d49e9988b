"""In-memory span recorder for the traced benchmark runs.

A :class:`Tracer` replaces the library's public entry points with wrappers
that record one span per call: an id, the id of the enclosing span, the
layer name, the thread, the repetition, and start and end in
``time.perf_counter_ns`` units.  Each function is wrapped under every name
its callers look it up by (``algorithms`` imports ``mix`` by name,
``manifolds`` imports the ``numerics`` kernels by name, and so on), so a
call is seen whichever module makes it.

Spans go into per-thread column buffers, so the recording path takes no
lock.  A span opened by a worker thread with nothing open on its own stack
becomes a child of the span that the installing thread has open at the
time; that is how the sweep candidates hang under ``harness.sweep``.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (layer name, home module or "module:Class,Class", attribute).  A method is
# wrapped on every class in the MRO of the listed classes that defines it.
_PROBLEM_CLASSES = "decmanopt.problems:PcaProblem,GevpProblem,LrmcProblem"
LAYERS = (
    ("network.mix", "decmanopt.network", "mix"),
    ("manifolds.project", "decmanopt.manifolds:ManifoldSpec", "project"),
    ("manifolds.project_stack", "decmanopt.manifolds:ManifoldSpec", "project_stack"),
    ("manifolds.tangent_project", "decmanopt.manifolds:ManifoldSpec", "tangent_project"),
    ("manifolds.tangent_project_stack", "decmanopt.manifolds:ManifoldSpec",
     "tangent_project_stack"),
    ("numerics.thin_svd", "decmanopt.numerics", "thin_svd"),
    ("numerics.sym_eig", "decmanopt.numerics", "sym_eig"),
    ("numerics.spd_inverse_sqrt", "decmanopt.numerics", "spd_inverse_sqrt"),
    ("numerics.lyapunov_solve", "decmanopt.numerics", "lyapunov_solve"),
    ("problems.local_grads", _PROBLEM_CLASSES, "local_grads"),
    ("problems.mean_value_and_gradient", _PROBLEM_CLASSES, "mean_value_and_gradient"),
    ("metrics.induced_mean", "decmanopt.metrics", "induced_mean"),
    ("metrics.consensus_error", "decmanopt.metrics", "consensus_error"),
    ("metrics.subspace_distance", "decmanopt.metrics", "subspace_distance"),
    ("algorithms.run", "decmanopt.algorithms", "run"),
    ("algorithms.step", "decmanopt.algorithms", "consensus_step"),
    ("algorithms.step", "decmanopt.algorithms", "dprgd_step"),
    ("algorithms.step", "decmanopt.algorithms", "dprgt_step"),
    ("algorithms.init_system", "decmanopt.algorithms", "init_system"),
    ("algorithms.init_tracker", "decmanopt.algorithms", "init_tracker"),
    ("harness.resolve_config", "decmanopt.harness", "resolve_config"),
    ("harness.build_run", "decmanopt.harness", "build_run"),
    ("harness.sweep", "decmanopt.harness", "sweep"),
    ("cli.main", "decmanopt.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


_COLUMNS = ("id", "parent", "name", "rep", "start", "end", "value")


class _Buffer:
    """Spans recorded by one thread, one array per column."""

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.cols = {k: array("q") for k in _COLUMNS}


class Tracer:
    """Wraps the library while installed; spans accumulate until :meth:`spans`.

    ``rep`` tags every span recorded after it is set.  ``values`` maps a
    layer name to a function of the call's arguments whose integer result
    is stored with the span (the computed bytes of a ``mix`` call).
    """

    def __init__(self, values=None):
        self.rep = 0
        self._values = dict(values or {})
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._home = None
        self._patches = []
        self._name_index = {name: i for i, name in enumerate(SPAN_NAMES)}

    # -- recording ---------------------------------------------------------

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer(threading.get_ident())
            self._local.buf = buf
            self._buffers.append(buf)
            return buf

    def _wrap(self, fn, name):
        name_idx = self._name_index[name]
        value_of = self._values.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            span_id = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home.stack if tracer._home is not None else ()
                parent = home[-1] if home else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                cols = buf.cols
                cols["id"].append(span_id)
                cols["parent"].append(parent)
                cols["name"].append(name_idx)
                cols["rep"].append(tracer.rep)
                cols["start"].append(start)
                cols["end"].append(end)
                cols["value"].append(value_of(args, kwargs) if value_of is not None else 0)

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every entry point in LAYERS under each name it is bound to.

        An entry point missing from the library is skipped; its layer then
        reports zero calls.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home = self._buffer()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "decmanopt" or n.startswith("decmanopt."))]
        for name, where, attr in LAYERS:
            module_name, _, class_names = where.partition(":")
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if class_names:
                for owner in _defining_classes(module, class_names.split(","), attr):
                    self._patch(owner, attr, self._wrap(owner.__dict__[attr], name))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._home = None

    # -- results -----------------------------------------------------------

    def spans(self):
        """All spans recorded so far as a dict of equal-length numpy columns,
        with a ``thread`` column and the derived ``self`` column added."""
        cols = {k: [np.array(buf.cols[k], dtype=np.int64) for buf in self._buffers]
                for k in _COLUMNS}
        cols["thread"] = [np.full(len(buf.cols["id"]), buf.thread, dtype=np.int64)
                          for buf in self._buffers]
        out = {k: np.concatenate(v) if v else np.zeros(0, np.int64) for k, v in cols.items()}
        out["self"] = self_times(out)
        return out


def _defining_classes(module, class_names, attr):
    seen = []
    for cls_name in class_names:
        cls = getattr(module, cls_name, None)
        if cls is None:
            continue
        for klass in inspect.getmro(cls):
            if attr in klass.__dict__ and klass not in seen:
                seen.append(klass)
    return seen


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (children on different threads may overlap)."""
    ids, parents = spans["id"], spans["parent"]
    starts, ends = spans["start"], spans["end"]
    pos = {int(i): k for k, i in enumerate(ids)}
    cover = np.zeros(len(ids), dtype=np.int64)
    order = np.lexsort((starts, parents))
    current, reach = None, 0
    for k in order:
        p = int(parents[k])
        if p == 0 or p not in pos:
            continue
        s, e = int(starts[k]), int(ends[k])
        if p != current:
            current, reach = p, s
        if e <= reach:
            continue
        cover[pos[p]] += e - max(s, reach)
        reach = e
    return (ends - starts) - cover


def write_spans(path, spans, workload):
    """Write spans as CSV, one line per span, in recording order."""
    names = np.array(SPAN_NAMES, dtype=object)
    with open(path, "w") as fh:
        fh.write("workload,rep,thread,id,parent,name,start_ns,end_ns,self_ns,value\n")
        for row in zip(spans["rep"].tolist(), spans["thread"].tolist(), spans["id"].tolist(),
                       spans["parent"].tolist(), names[spans["name"]].tolist(),
                       spans["start"].tolist(), spans["end"].tolist(), spans["self"].tolist(),
                       spans["value"].tolist()):
            fh.write(workload + "," + ",".join(map(str, row)) + "\n")
