"""Spans around the public functions of every cnfkc layer, from outside.

`Tracer.install()` wraps each function in `SPANNED` and rebinds every
`cnfkc.*` module attribute that refers to it, because the modules import
names from one another (`from .core import resolve`) and patching only the
defining module would miss those callers.  `COUNTED` functions are too hot
and too small to be worth a span; their wrappers only bump a counter.
Private helpers (`_propagate`, `_dpll`, `_NodeBudget`) are never wrapped.

A span is (name, parent, start, end, work, outcome), kept in flat arrays
until the run ends.  `work` is the rise of one counter while the span was
open (resolvents under the closures, instantiations under `propagate`,
unit propagations under `sat_oracle`), and `outcome` is the number the
layer's useful-outcome ratio is built from.
"""

import array
import importlib
import json
import time

MODULES = ("core", "primes", "propagation", "hardness", "trigger",
           "compile", "mpsdope", "trees", "cli")

# layer -> public functions that get a span
SPANNED = {
    "core": ("apply_assignment", "subsumption_eliminate",
             "parse_dimacs_document", "emit_dimacs"),
    "primes": ("prime_implicates", "essential_primes", "implies"),
    "propagation": ("propagate", "sat_oracle"),
    "hardness": ("hd", "whd", "wid", "phd", "k_res_refutes",
                 "width_refutes", "hd_at_most", "whd_at_most"),
    "trigger": ("trigger_hypergraph", "min_equivalent_size",
                "sperner_witness", "transversal_number", "matching_number"),
    "compile": ("k_base", "answer_query", "enumerate_models"),
    "mpsdope": ("dope", "mps_enumerate", "classify_mu"),
    "trees": ("extremal_tree", "tree_to_clauses", "clauses_to_tree",
              "doped_clause_of_leafset"),
    "cli": ("main", "separation_row"),
}

# counted without a span
COUNTED = {"core": ("resolve",), "propagation": ("unit_propagate",)}

# span name -> counter whose rise during the span is its `work`
WORK = {
    "primes.prime_implicates": "core.resolve",
    "hardness.k_res_refutes": "core.resolve",
    "hardness.width_refutes": "core.resolve",
    "propagation.propagate": "core.apply_assignment",
    "propagation.sat_oracle": "propagation.unit_propagate",
}

# span name -> outcome extracted from the return value
OUTCOME = {
    "primes.prime_implicates": len,
    "propagation.propagate": lambda r: int(r.refuted),
    "propagation.sat_oracle": lambda r: int(r[0]),
    "hardness.k_res_refutes": lambda r: int(r[0]),
    "trigger.transversal_number": lambda r: int(r.exact),
    "trigger.matching_number": lambda r: int(r.exact),
}


# spanned functions whose self time is not reported (their calls are)
CALLS_ONLY = ("hardness.hd_at_most", "hardness.whd_at_most")


def _metric_specs():
    """(metric name, unit, better) of every per-layer metric."""
    spans = [layer + "." + fn for layer, fns in SPANNED.items() for fn in fns]
    specs = [(full + ".self_s", "s", "lower") for full in spans
             if full not in CALLS_ONLY]
    for full in ("core.apply_assignment", "core.resolve",
                 "core.subsumption_eliminate", "primes.prime_implicates",
                 "primes.essential_primes", "primes.implies",
                 "propagation.propagate", "propagation.sat_oracle",
                 "hardness.k_res_refutes", "hardness.width_refutes",
                 "hardness.hd_at_most", "hardness.whd_at_most",
                 "trigger.transversal_number", "trigger.matching_number",
                 "compile.k_base", "compile.answer_query",
                 "mpsdope.classify_mu"):
        specs.append((full + ".calls", "count", "lower"))
    for full, work in (("primes.prime_implicates", "resolvents"),
                       ("hardness.k_res_refutes", "resolvents"),
                       ("hardness.width_refutes", "resolvents"),
                       ("propagation.propagate", "instantiations"),
                       ("propagation.sat_oracle", "unit_propagate_calls")):
        specs.append((full + "." + work, "count", "lower"))
    specs.append(("primes.prime_implicates.resolvents_per_prime", "count",
                  "lower"))
    for full, kind in (("propagation.propagate", "refuted_ratio"),
                       ("propagation.sat_oracle", "sat_ratio"),
                       ("hardness.k_res_refutes", "refuted_ratio"),
                       ("trigger.transversal_number", "exact_ratio"),
                       ("trigger.matching_number", "exact_ratio")):
        specs.append((full + "." + kind, "ratio", "higher"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


METRICS = _metric_specs()


class Tracer:
    def __init__(self):
        self.names = [layer + "." + fn for layer, fns in SPANNED.items()
                      for fn in fns]
        self.counts = {layer + "." + fn: 0 for layer, fns in COUNTED.items()
                       for fn in fns}
        self.counts["core.apply_assignment"] = 0
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("q")
        self.outcome = array.array("q")
        self._stack = []
        self._patched = []

    def clear(self):
        """Forget the recorded spans and counts, in place, because the
        installed wrappers hold these very objects."""
        for arr in (self.name, self.parent, self.start, self.end, self.work,
                    self.outcome):
            del arr[:]
        self._stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    # ------------------------------------------------------------ wrapping

    def _span(self, index, fn):
        full = self.names[index]
        counter = WORK.get(full)
        outcome = OUTCOME.get(full)
        bump = full == "core.apply_assignment"
        counts, stack, clock = self.counts, self._stack, time.perf_counter
        name, parent, start, end = self.name, self.parent, self.start, self.end
        work, result_of = self.work, self.outcome

        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            before = counts[counter] if counter else 0
            if bump:
                counts["core.apply_assignment"] += 1
            stack.append(sid)
            start.append(clock())
            end.append(0.0)
            work.append(0)
            result_of.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                if counter:
                    work[sid] = counts[counter] - before
            if outcome:
                result_of[sid] = outcome(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every cnfkc module attribute that refers to a wrapped
        function."""
        mods = [importlib.import_module("cnfkc." + m) for m in MODULES]
        wrappers = {}
        for layer, fns in SPANNED.items():
            mod = importlib.import_module("cnfkc." + layer)
            for fn in fns:
                original = getattr(mod, fn)
                wrappers[id(original)] = (original, self._span(
                    self.names.index(layer + "." + fn), original))
        for layer, fns in COUNTED.items():
            mod = importlib.import_module("cnfkc." + layer)
            for fn in fns:
                original = getattr(mod, fn)
                wrappers[id(original)] = (original, self._counter(
                    layer + "." + fn, original))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if wrapper is not None and original is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # ---------------------------------------------------------- reduction

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last `clear`
        (one pass), except `trace.overhead_s`."""
        n = len(self.name)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        stats = {full: [0, 0.0, 0, 0] for full in self.names}
        for sid in range(n):
            s = stats[self.names[self.name[sid]]]
            s[0] += 1
            s[1] += self.end[sid] - self.start[sid] - child[sid]
            s[2] += self.work[sid]
            s[3] += self.outcome[sid]
        values = {}
        for full, (calls, self_s, work, outcome) in stats.items():
            values[full + ".calls"] = calls
            values[full + ".self_s"] = self_s
            values[full + ".work"] = work
            values[full + ".ratio"] = outcome / calls if calls else 0.0
        values.update((key + ".calls", count)
                      for key, count in self.counts.items())
        primes = stats["primes.prime_implicates"]
        out = {}
        for metric, _, _ in METRICS:
            full, _, kind = metric.rpartition(".")
            if kind in ("calls", "self_s"):
                out[metric] = values[metric]
            elif kind == "resolvents_per_prime":
                out[metric] = primes[2] / primes[3] if primes[3] else 0.0
            elif kind.endswith("ratio"):
                out[metric] = values[full + ".ratio"]
            elif full != "trace":
                out[metric] = values[full + ".work"]
        return out

    def dump(self, path):
        """Write the spans as JSON: names, then one
        [name, parent, start, end, work, outcome] row per span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write('{"names": %s, "spans": [\n' % json.dumps(self.names))
            for sid in range(len(self.name)):
                fh.write("%s[%d, %d, %.9f, %.9f, %d, %d]" % (
                    ",\n" if sid else "", self.name[sid], self.parent[sid],
                    self.start[sid] - t0, self.end[sid] - t0,
                    self.work[sid], self.outcome[sid]))
            fh.write("\n]}\n")
