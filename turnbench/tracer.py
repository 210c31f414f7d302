"""Span tracing of turnwave from outside the package.

`install()` wraps every public function that a layer module defines (plus
the few methods in METHODS) and patches the wrapper into every turnwave
module, and every module-level dict, that holds the function.  Calls made
through a `from .singular import muskat_rhs_periodic` binding are therefore
seen, and each wrapper remembers which module's binding was called (its
"via").  Spans (call site, start, end, parent) stay in memory until
`dump()`; `summary()` reduces them to calls, busy time and self time.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("singular", "curve", "spectral", "closures", "stepping", "strip",
          "initial_data", "diagnostics", "scenarios", "svg", "config", "cli")
METHODS = {"stepping": ("Trajectory.write_dir",)}
# kernels that touch every pair of nodes: pairs = N^2 per call
PAIR_KERNELS = ("singular.muskat_rhs_open", "singular.muskat_rhs_periodic",
                "singular.br_matrix", "singular.br_geometric_rate")
# functions whose result reports solver iterations
ITERATIONS = ("strip.ck_solve",)
ROOT_SPAN = "scenarios.run_scenario"
# summary() counts INNER spans below an OUTER span (RHS calls per ck_solve)
OUTER, INNER = "strip.ck_solve", "singular.muskat_rhs_periodic"


class Tracer:
    def __init__(self):
        self.sites = []        # (function name, via) of each wrapper
        self.spans = []        # [site, start, end, parent span index or -1]
        self.pairs = {}        # site -> sum of N^2 over calls
        self.iterations = {}   # site -> sum of reported iterations
        self._stack = []

    def wrap(self, fn, name, via):
        site = len(self.sites)
        self.sites.append((name, via))
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pairs, iterations = self.pairs, self.iterations
        count_pairs = name in PAIR_KERNELS
        count_iterations = name in ITERATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [site, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_pairs:
                pairs[site] = pairs.get(site, 0) + args[0].n ** 2
            if count_iterations:
                iterations[site] = iterations.get(site, 0) + result.iterations
            return result

        return traced

    def install(self, package="turnwave"):
        """Patch wrappers into every module of the package."""
        modules = {short: importlib.import_module(f"{package}.{short}")
                   for short in LAYERS}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = f"{short}.{attr}"
        holders = dict(modules, **{package: importlib.import_module(package)})
        for via, mod in holders.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, self.wrap(obj, originals[id(obj)], via))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            obj[key] = self.wrap(value, originals[id(value)], via)
        for short, paths in METHODS.items():
            for path in paths:
                cls_name, meth = path.split(".")
                cls = getattr(modules[short], cls_name)
                setattr(cls, meth, self.wrap(vars(cls)[meth], f"{short}.{path}", short))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"sites": self.sites, "spans": self.spans}, fh)

    def summary(self):
        """Per-function calls, busy_s (outermost spans of that function),
        self_s (span time not covered by child spans), pairs and
        iterations; per-via calls, self_s and pairs; the number of INNER
        spans below an OUTER span; and ROOT_SPAN's busy time next to the
        sum of the self times under it."""
        spans, sites = self.spans, self.sites
        covered = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        functions = {}
        inner_under_outer = 0
        root_self = root_busy = 0.0
        for i, (site, t0, t1, parent) in enumerate(spans):
            name, via = sites[site]
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(sites[spans[p][0]][0])
                p = spans[p][3]
            dur = t1 - t0
            own = dur - covered[i]
            f = functions.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                            "pairs": 0, "iterations": 0, "via": {}})
            f["calls"] += 1
            f["self_s"] += own
            if name not in ancestors:
                f["busy_s"] += dur
            v = f["via"].setdefault(via, {"calls": 0, "self_s": 0.0, "pairs": 0})
            v["calls"] += 1
            v["self_s"] += own
            if name == INNER and OUTER in ancestors:
                inner_under_outer += 1
            if name == ROOT_SPAN and ROOT_SPAN not in ancestors:
                root_busy += dur
            if name == ROOT_SPAN or ROOT_SPAN in ancestors:
                root_self += own
        for site, count in self.pairs.items():
            name, via = sites[site]
            functions[name]["pairs"] += count
            functions[name]["via"][via]["pairs"] += count
        for site, count in self.iterations.items():
            functions[sites[site][0]]["iterations"] += count
        return {"functions": functions, "inner_under_outer": inner_under_outer,
                "root_busy_s": root_busy, "root_self_sum_s": root_self}
