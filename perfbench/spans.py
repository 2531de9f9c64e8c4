"""Layer tracing from outside the program.

The tracer replaces the public functions of each ``noonloss`` module with
wrappers that record a span (name, start, end, parent) per call into a
layer.  Spans are kept in flat arrays in memory and written out once, at the
end of the run.  A layer's self time is the length of its spans minus the
part covered by their child spans, so the self times of all layers and of
the harness's own pass span add up to the pass's wall time.

Each function is patched where its callers look it up: ``cli`` handlers are
patched before ``cli.main`` builds its parser, ``bisect_root`` and
``expand_upper`` are patched inside ``optimal_search`` and ``budget``, which
import them by name, and ``fock_oracle.oracle_moments`` finds the patched
``apply_detector``/``inner`` among its module globals.
"""

from array import array
from time import perf_counter

import numpy as np

from noonloss import analytics, budget, cli, fock_oracle, optimal_search, roots

# A call from one of these modules into itself is part of the same span,
# except for the functions listed in ALWAYS, which get spans of their own
# so that their stage shows as a split of the layer.
LAYERS = {
    "analytics": analytics,
    "budget": budget,
    "optimal_search": optimal_search,
    "roots": roots,
    "fock_oracle": fock_oracle,
    "cli": cli,
}
ALWAYS = {"fock_oracle", "cli"}
# modules that import roots functions by name
ROOT_CALLERS = (roots, optimal_search, budget)


def public_functions(module):
    """Public functions defined in ``module`` (classes excluded)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


class Tracer:
    """Span recorder with exact work counters.

    Counters: ``roots.evals`` (calls of the objective passed to a root
    finder), ``optimal_search.capped`` (results with n_star == n_cap) and
    ``fock_oracle.amplitudes`` (support size of each detector output).
    """

    HARNESS = "harness.pass"

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._layer = [None]
        self.counts = {"roots.evals": 0, "optimal_search.capped": 0, "fock_oracle.amplitudes": 0}
        self._patches = []
        self.cost_inside = self.cost_outside = self.cost_eval = 0.0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self._layer.append(name.split(".", 1)[0])
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._layer.pop()

    def wrap(self, fn, layer, name, *, always, before=None, after=None):
        nid = self._id(f"{layer}.{name}")
        stack, layers = self._stack, self._layer
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end

        # open()/close() written out inline: this runs millions of times a pass
        def traced(*args, **kwargs):
            if not always and layers[-1] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                layers.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters -----------------------------------------------------------

    def _count_evals(self, args):
        f = args[0]
        counts = self.counts

        def counted(x):
            counts["roots.evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def _count_capped(self, result, args, kwargs):
        n_cap = args[1] if len(args) > 1 else kwargs.get("n_cap", optimal_search.DEFAULT_N_CAP)
        if result.n_star == n_cap:
            self.counts["optimal_search.capped"] += 1

    def _count_amplitudes(self, result, args, kwargs):
        self.counts["fock_oracle.amplitudes"] += len(result.amps)

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        hooks = {
            ("roots", "bisect_root"): {"before": self._count_evals},
            ("roots", "expand_upper"): {"before": self._count_evals},
            ("optimal_search", "n_min_integer"): {"after": self._count_capped},
            ("fock_oracle", "apply_detector"): {"after": self._count_amplitudes},
        }
        for layer, module in LAYERS.items():
            for name, fn in public_functions(module).items():
                wrapper = self.wrap(fn, layer, name, always=layer in ALWAYS,
                                    **hooks.get((layer, name), {}))
                targets = ROOT_CALLERS if layer == "roots" else (module,)
                for target in targets:
                    self._patch(target, name, wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def reset_counts(self):
        for key in self.counts:
            self.counts[key] = 0

    # -- analysis -----------------------------------------------------------

    def calibrate(self, n=20_000, repeats=5):
        """Measure the tracer's own cost per span and per counted evaluation.

        Sets ``cost_inside`` (bookkeeping inside a span's own interval),
        ``cost_outside`` (the rest of a span's cost, which lands in its
        parent's interval) and ``cost_eval`` (counting one root-finder
        evaluation).  ``self_times`` removes these from the layers and
        reports their sum as bookkeeping.
        """

        def noop(x):
            return x

        def per_call(fn):
            best = float("inf")
            for _ in range(repeats):
                t0 = perf_counter()
                for _ in range(n):
                    fn(0.5)
                best = min(best, perf_counter() - t0)
            return best / n

        def per_loop():
            best = float("inf")
            for _ in range(repeats):
                t0 = perf_counter()
                for _ in range(n):
                    pass
                best = min(best, perf_counter() - t0)
            return best / n

        mark = len(self.span_name)
        loop, raw = per_loop(), per_call(noop)
        wrapped = per_call(self.wrap(noop, "trace", "calibrate", always=True))
        durations = sorted(e - s for s, e in zip(self.start[mark:], self.end[mark:]))
        counted = per_call(self._count_evals((noop,))[0])
        for buf in (self.span_name, self.start, self.end, self.parent):
            del buf[mark:]
        self.reset_counts()
        total = max(0.0, wrapped - raw)
        self.cost_inside = min(total, max(0.0, durations[len(durations) // 2] - (raw - loop)))
        self.cost_outside = total - self.cost_inside
        self.cost_eval = max(0.0, counted - raw)

    def arrays(self):
        """The spans as numpy arrays: name id, start, end, parent index."""
        return (np.frombuffer(self.span_name, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32))

    def self_times(self, lo, hi):
        """Per-name (self seconds, spans, entries) for spans[lo:hi], and the
        tracer bookkeeping removed from them, in seconds.

        Self time is a span's length minus its children's lengths, less the
        calibrated bookkeeping of the span and of its children.  An entry is
        a span whose parent belongs to another layer.
        """
        name, start, end, parent = (a[lo:hi] for a in self.arrays())
        name = name.astype(np.intp)
        local = parent.astype(np.intp) - lo
        has_parent = local >= 0
        dur = end - start
        child_time = np.bincount(local[has_parent], weights=dur[has_parent], minlength=len(dur))
        children = np.bincount(local[has_parent], minlength=len(dur))
        own = dur - child_time - self.cost_inside - self.cost_outside * children
        layers = sorted({n.split(".", 1)[0] for n in self.names})
        layer_of = np.array([layers.index(n.split(".", 1)[0]) for n in self.names])
        parent_layer = np.where(has_parent, layer_of[name[np.maximum(local, 0)]], -1)
        entry = parent_layer != layer_of[name]
        k = len(self.names)
        secs = np.bincount(name, weights=own, minlength=k)
        spans = np.bincount(name, minlength=k)
        entries = np.bincount(name[entry], minlength=k)
        per_name = {self.names[i]: (float(secs[i]), int(spans[i]), int(entries[i]))
                    for i in range(k) if spans[i]}
        return per_name, float(dur.sum() - child_time.sum() - own.sum())

    def save(self, path):
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end, parent=parent)
