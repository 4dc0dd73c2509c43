"""Layer tracer: times calls into ggslab's public functions from outside the package.

A traced function is replaced by a wrapper in every ggslab module namespace
that binds it (``core`` binds ``solve_linear_mod_p`` and ``normalize`` by
``from ... import``, so a wrapper set only on ``fp`` or ``words`` would miss
those calls) and, for methods, on the class. Each call is a span: the wrapper
charges its duration to the span's name, adds it to the enclosing span's child
time, and counts the (parent, child) edge. Self time is the duration minus the
child time. Spans are aggregated by name as they close, so memory stays flat
however many calls a run makes. ``uninstall`` puts every original back.
"""

import sys
import time

MARKER = "__perfbench_traced__"

# (span name, module, attribute path). A dotted attribute is a method on a class.
TARGETS = (
    ("words.normalize", "ggslab.words", "normalize"),
    ("words.concat", "ggslab.words", "concat"),
    ("words.power", "ggslab.words", "power"),
    ("fp.solve_linear_mod_p", "ggslab.fp", "solve_linear_mod_p"),
    ("fp.gaussian_rank", "ggslab.fp", "gaussian_rank"),
    ("core.make_ggs", "ggslab.core", "make_ggs"),
    ("core.section_word", "ggslab.core", "GgsGroup.section_word"),
    ("core.act_word", "ggslab.core", "GgsGroup.act_word"),
    ("core.equal_words", "ggslab.core", "GgsGroup.equal_words"),
    ("core.length_word", "ggslab.core", "GgsGroup.length_word"),
    ("quotients.project", "ggslab.quotients", "project"),
    ("quotients.level_quotient", "ggslab.quotients", "level_quotient"),
    ("quotients.maximal_subgroups_census", "ggslab.quotients", "maximal_subgroups_census"),
    ("lemmas.exponent_profile", "ggslab.lemmas", "exponent_profile"),
    ("model.reduce_mod", "ggslab.model", "reduce_mod"),
    ("model.enumerate_maximal_subgroups", "ggslab.model", "enumerate_maximal_subgroups"),
    ("cli.main", "ggslab.cli", "main"),
)

SWEEPS = (
    "sweep_commutator_tuple", "sweep_derived_product", "sweep_split_case",
    "sweep_propagation", "sweep_short_section", "sweep_length_contraction",
    "sweep_circulant", "sweep_interval", "sweep_k_generator",
    "sweep_infinite_order", "sweep_maximal_census", "sweep_constant_model",
)

ALL_TARGETS = TARGETS + tuple(("lemmas." + s, "ggslab.lemmas", s) for s in SWEEPS)


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats``, ``t.edges``, ``t.counts``."""

    def __init__(self):
        self.stats = {name: SpanStat() for name, _, _ in ALL_TARGETS}
        self.edges = {}    # (parent name, child name) -> calls
        self.counts = {}   # counters fed by the result hooks below
        self.groups = []   # every GgsGroup built while installed, for memo sizes
        self._stack = []   # open spans: [name, child seconds]
        self._patched = []  # (namespace object, attribute, original)
        self._hooks = {
            "fp.solve_linear_mod_p": self._on_solve,
            "core.length_word": self._on_length,
            "core.make_ggs": self._on_group,
            "quotients.level_quotient": self._on_quotient,
        }

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _on_solve(self, result):
        if result is not None:
            self._bump("fp.solve_linear_mod_p.solved")

    def _on_length(self, result):
        if result is not None:
            self._bump("core.length_word.found")

    def _on_group(self, group):
        self.groups.append(group)

    def _on_quotient(self, quotient):
        chain = quotient._chain
        self._bump("quotients.chain.schreier_pairs", sum(len(d) for d in chain.done))
        self._bump("quotients.chain.base_len", len(chain.bases))
        self._bump("quotients.chain.orbit_points", sum(len(o) for o in chain.orbits))

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        edges = self.edges
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
            if hook is not None:
                hook(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        setattr(traced, MARKER, name)
        return traced

    def install(self):
        modules = _ggslab_modules()
        for name, modname, attr in ALL_TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, original, wrapped)
        return self

    def _set(self, namespace, attr, original, wrapped):
        setattr(namespace, attr, wrapped)
        self._patched.append((namespace, attr, original))

    def uninstall(self):
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def edge_calls(self, parent, child):
        return self.edges.get((parent, child), 0)


def _ggslab_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "ggslab" or key.startswith("ggslab.")]


def find_wrapped():
    """Names of traced wrappers still reachable from ggslab modules or their classes."""
    found = set()
    for mod in _ggslab_modules():
        for val in vars(mod).values():
            spaces = [val]
            if isinstance(val, type) and val.__module__.startswith("ggslab"):
                spaces = list(vars(val).values())
            for obj in spaces:
                name = getattr(obj, MARKER, None) if callable(obj) else None
                if name is not None:
                    found.add(name)
    return sorted(found)


# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("quotients.maximal_subgroups_census.self_s", "s", "lower"),
    ("quotients.level_quotient.self_s", "s", "lower"),
    ("quotients.project.self_s", "s", "lower"),
    ("quotients.chain.schreier_pairs", "count", "lower"),
    ("quotients.chain.base_len", "count", "lower"),
    ("quotients.chain.orbit_points", "count", "lower"),
    ("fp.solve_linear_mod_p.calls", "count", "lower"),
    ("fp.solve_linear_mod_p.self_s", "s", "lower"),
    ("fp.solve_linear_mod_p.solved_ratio", "ratio", "higher"),
    ("core.length_word.calls", "count", "lower"),
    ("core.length_word.self_s", "s", "lower"),
    ("core.length_word.confirm_ratio", "ratio", "higher"),
    ("core.section_word.calls", "count", "lower"),
    ("core.section_word.self_s", "s", "lower"),
    ("core.section_word.hit_ratio", "ratio", "higher"),
    ("core.equal_words.calls", "count", "lower"),
    ("core.equal_words.self_s", "s", "lower"),
    ("core.act_word.self_s", "s", "lower"),
    ("core.memo_entries", "count", "lower"),
    ("words.normalize.calls", "count", "lower"),
    ("words.normalize.self_s", "s", "lower"),
    ("words.concat.self_s", "s", "lower"),
    ("words.power.self_s", "s", "lower"),
    ("fp.gaussian_rank.calls", "count", "lower"),
    ("fp.gaussian_rank.self_s", "s", "lower"),
) + tuple(("lemmas.%s.total_s" % s, "s", "lower") for s in SWEEPS) + (
    ("lemmas.exponent_profile.self_s", "s", "lower"),
    ("model.reduce_mod.total_s", "s", "lower"),
    ("model.enumerate_maximal_subgroups.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_values(tracer, stdout_bytes):
    """Every per-layer metric of PER_LAYER except trace.overhead_s, by name."""
    out = {}
    for name, stat in tracer.stats.items():
        out[name + ".calls"] = stat.calls
        out[name + ".self_s"] = stat.self_s
        out[name + ".total_s"] = stat.total_s
    out.update(tracer.counts)
    for key in ("quotients.chain.schreier_pairs", "quotients.chain.base_len",
                "quotients.chain.orbit_points"):
        out.setdefault(key, 0)
    solves = tracer.stats["fp.solve_linear_mod_p"].calls
    solved = tracer.counts.get("fp.solve_linear_mod_p.solved", 0)
    out["fp.solve_linear_mod_p.solved_ratio"] = solved / solves if solves else 0.0
    confirms = tracer.edge_calls("core.length_word", "core.equal_words")
    found = tracer.counts.get("core.length_word.found", 0)
    out["core.length_word.confirm_ratio"] = found / confirms if confirms else 0.0
    sections = sum(len(g._sections) for g in tracer.groups)
    calls = tracer.stats["core.section_word"].calls
    out["core.section_word.hit_ratio"] = 1.0 - sections / calls if calls else 0.0
    out["core.memo_entries"] = sum(
        len(g._sections) + len(g._eq_true) + len(g._eq_false) + len(g._lengths)
        for g in tracer.groups)
    out["cli.stdout_bytes"] = stdout_bytes
    return {name: out[name] for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
