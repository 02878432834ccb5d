"""Spans and counters around calls into each epicdemo module.

``Tracer.install`` replaces public entry points at the places the CLI and
the library look them up (module globals and class attributes) with
wrappers that record a span per call; ``restore`` puts the originals back.
Nothing is installed unless a traced run asks for it.

A span has a name, start, end, parent span and job id.  Spans are kept in
flat arrays while the benchmark runs and written out at the end.  Self time
is a span's duration minus the time its child spans cover; it is summed per
name as the spans close.
"""

from __future__ import annotations

import gzip
import os
from array import array
from time import perf_counter

# per-layer metrics in output order: name -> unit
LAYER_METRICS: dict = {}


def _metrics(prefix, fields):
    for f in fields:
        unit = "s" if f.endswith("_s") else "B" if f.endswith("bytes") else \
            "ratio" if f.endswith("ratio") else "count"
        LAYER_METRICS[f"{prefix}.{f}" if prefix else f] = unit


_metrics("automata.enumerate_words", ["calls", "words", "self_s"])
_metrics("automata.step", ["calls", "self_s"])
_metrics("automata.intersect", ["calls", "self_s", "states_out"])
_metrics("automata.image_hom", ["calls", "self_s", "states_out"])
for _b in ("zk", "free", "perm", "mat", "gp"):
    _metrics(f"groups.evaluate.{_b}", ["calls", "letters", "self_s"])
_metrics("groups.ball", ["calls", "elements", "self_s"])
_metrics("groups.mat_det", ["calls", "self_s"])
_metrics("graphproduct.prune", ["calls", "self_s"])
_metrics("demonstrations.verify_coverage", ["calls", "self_s"])
_metrics("demonstrations.verify_no_identity", ["calls", "self_s"])
_metrics("demonstrations", ["useful_ratio"])
for _c in ("graph_product", "fi_subgroup", "change_generators", "extension",
           "cross_section_to_demo", "autostackable_projection"):
    _metrics(f"constructions.{_c}", ["self_s", "states_out"])
_metrics("wordproblem.decide_word", ["calls", "comparisons", "self_s"])
_metrics("wordproblem.free_reduce", ["calls", "self_s"])
_metrics("wordproblem.closure_stream", ["words", "self_s"])
_metrics("wordproblem.language_stream", ["words", "self_s"])
_metrics("wordproblem", ["closure_duplicate_ratio", "frontier_bytes"])
_metrics("wordproblem.replay", ["calls", "self_s"])
_metrics("workspace.load", ["calls", "bytes", "self_s"])
_metrics("workspace.render", ["calls", "bytes", "self_s"])
_metrics("cli.main", ["calls", "self_s"])
_metrics("trace", ["overhead_s"])


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.stack: list = []          # open spans: [name id, start, child time, span id]
        self.calls: list = []
        self.self_s: list = []
        self.counts: dict = {}
        self.job = -1
        self.keep = True               # record span rows, not only sums
        self.next_id = 0
        self.rows = {k: array(t) for k, t in (("id", "q"), ("parent", "q"), ("name", "i"),
                                              ("job", "i"), ("start", "d"), ("end", "d"))}
        self._saved: list = []

    def intern(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, nid):
        sid = self.next_id
        self.next_id += 1
        frame = [nid, perf_counter(), 0.0, sid]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        self.stack.pop()
        nid, start, child, sid = frame
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            parent_id = -1
        if self.keep:
            r = self.rows
            r["id"].append(sid)
            r["parent"].append(parent_id)
            r["name"].append(nid)
            r["job"].append(self.job)
            r["start"].append(start)
            r["end"].append(end)

    def inside(self, prefix) -> bool:
        return any(self.names[f[0]].startswith(prefix) for f in self.stack)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """Span every call of fn.  A call directly inside a span of the same
        name (recursion) is not a new span."""
        nid = self.intern(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            frame = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def stream(self, enumerator, name, track_duplicates=False):
        """Span every word an Enumerator pulls from its underlying stream."""
        tracer, nid, inner = self, self.intern(name), enumerator._iter
        words, duplicates, seen = f"{name}.words", f"{name}.duplicates", set()

        class Traced:
            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer.open(nid)
                try:
                    word = next(inner)
                finally:
                    tracer.close(frame)
                tracer.add(words, 1)
                if track_duplicates:
                    if word in seen:
                        tracer.add(duplicates, 1)
                    seen.add(word)
                return word

        enumerator._iter = Traced()
        return enumerator

    def install(self):
        """Wrap the entry points each layer metric is measured at."""
        from epicdemo import automata, cli, constructions, demonstrations, graphproduct, \
            groups, wordproblem

        def sized(key, size):
            return lambda t, a, k, r: t.add(key, size(a, r))

        def states_of(result):
            nfa = getattr(result, "language", result)
            return len(nfa.states)

        Nfa = automata.Nfa

        def enumerated(t, a, k, r):
            t.add("automata.enumerate_words.words", len(r))
            if t.inside("demonstrations.verify"):
                t.add("demonstrations.words_enumerated", len(r))

        self.patch(Nfa, "enumerate_words", "automata.enumerate_words", enumerated)
        self.patch(Nfa, "step", "automata.step")
        for owner in (automata, constructions):
            self.patch(owner, "intersect", "automata.intersect",
                       sized("automata.intersect.states_out", lambda a, r: len(r.states)))
            self.patch(owner, "image_hom", "automata.image_hom",
                       sized("automata.image_hom.states_out", lambda a, r: len(r.states)))
        for backend, cls in (("zk", groups.FreeAbelianOracle), ("free", groups.FreeGroupOracle),
                             ("perm", groups.PermutationOracle),
                             ("mat", groups.IntegerMatrixOracle),
                             ("gp", graphproduct.GraphProductOracle)):
            self.patch(cls, "evaluate", f"groups.evaluate.{backend}",
                       sized(f"groups.evaluate.{backend}.letters", lambda a, r: len(a[1])))
        self.patch(groups.GroupOracle, "ball", "groups.ball",
                   sized("groups.ball.elements", lambda a, r: len(r)))
        self.patch(groups, "mat_det", "groups.mat_det")
        self.patch(graphproduct.GraphProductOracle, "prune", "graphproduct.prune")
        Demo = demonstrations.Demonstration
        self.patch(Demo, "verify_coverage", "demonstrations.verify_coverage",
                   sized("demonstrations.first_hits", lambda a, r: len(r.covered)))
        self.patch(Demo, "verify_no_identity", "demonstrations.verify_no_identity")
        for fn in ("graph_product", "fi_subgroup", "change_generators", "extension",
                   "cross_section_to_demo", "autostackable_projection"):
            self.patch(cli, fn, f"constructions.{fn}",
                       sized(f"constructions.{fn}.states_out", lambda a, r: states_of(r)))

        def decided(t, a, k, r):
            frontier = a[4] if len(a) > 4 else k.get("frontier")
            t.add("wordproblem.decide_word.comparisons",
                  r.comparisons - (frontier.comparisons if frontier else 0))

        self.patch(cli, "decide_word", "wordproblem.decide_word", decided)
        self.patch(cli, "replay", "wordproblem.replay")
        self.patch(wordproblem, "free_reduce", "wordproblem.free_reduce")
        self.patch(wordproblem.Frontier, "to_json", "wordproblem.frontier",
                   sized("wordproblem.frontier_bytes", lambda a, r: len(r.encode())))
        closure, language = cli.normal_closure_enumerator, cli.demonstration_enumerator
        self._saved += [(cli, "normal_closure_enumerator", closure),
                        (cli, "demonstration_enumerator", language)]
        cli.normal_closure_enumerator = lambda p: self.stream(
            closure(p), "wordproblem.closure_stream", track_duplicates=True)
        cli.demonstration_enumerator = lambda d: self.stream(
            language(d), "wordproblem.language_stream")
        self.patch(cli, "load", "workspace.load",
                   sized("workspace.load.bytes", lambda a, r: sum(os.path.getsize(p)
                                                                  for p in a[0])))
        for fn in ("render", "render_automaton"):
            self.patch(cli, fn, "workspace.render",
                       sized("workspace.render.bytes", lambda a, r: len(r.encode())))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int, overhead_s: float, scale: float) -> dict:
        """Per-layer metrics per traced pass; self times are multiplied by
        scale, the ratio of reference to raw time over the traced passes."""
        out = {}
        for name, unit in LAYER_METRICS.items():
            span, _, field = name.rpartition(".")
            if field == "calls":
                value = self.calls[self.ids[span]] if span in self.ids else 0
            elif field == "self_s":
                value = self.self_s[self.ids[span]] * scale if span in self.ids else 0.0
            else:
                value = self.counts.get(name, 0)
            out[name] = value / passes
        words = self.counts.get("demonstrations.words_enumerated", 0)
        out["demonstrations.useful_ratio"] = (
            self.counts.get("demonstrations.first_hits", 0) / words if words else 0.0)
        pulled = self.counts.get("wordproblem.closure_stream.words", 0)
        out["wordproblem.closure_duplicate_ratio"] = (
            self.counts.get("wordproblem.closure_stream.duplicates", 0) / pulled
            if pulled else 0.0)
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path):
        """Spans as tab-separated rows: id, parent, name, job, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        r = self.rows
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tjob\tstart\tend\n")
            for i in range(len(r["id"])):
                fh.write(f"{r['id'][i]}\t{r['parent'][i]}\t{self.names[r['name'][i]]}\t"
                         f"{r['job'][i]}\t{r['start'][i]:.9f}\t{r['end'][i]:.9f}\n")
        return len(r["id"])
