"""Tests of the benchmark's own code. Run from the repository root with

    python3 -m pytest perfbench
"""

import itertools
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ggslab.cli  # noqa: E402,F401  (loads every traced module)
from ggslab import core, fp, quotients, words  # noqa: E402

import run  # noqa: E402
import tracer as layer_tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_length_word_produces_nested_solver_spans():
    group = core.make_ggs(5, (1, 0, 2, 4))
    w = words.parse_word("a b^2 a^3 b a^2 b^4 a", 5)
    with layer_tracer.Tracer() as t:
        assert group.length_word(w) == 3
    solves = t.edge_calls("core.length_word", "fp.solve_linear_mod_p")
    assert solves > 0
    assert solves == t.stats["fp.solve_linear_mod_p"].calls
    assert t.edge_calls("core.length_word", "core.equal_words") > 0
    assert t.counts["core.length_word.found"] == 1
    stat = t.stats["core.length_word"]
    assert stat.calls == 1 and 0 < stat.self_s < stat.total_s


def test_wrappers_reach_every_binding_and_are_removed():
    originals = (fp.solve_linear_mod_p, core.solve_linear_mod_p, words.normalize,
                 core.normalize, core.GgsGroup.__dict__["section_word"])
    assert layer_tracer.find_wrapped() == []
    with layer_tracer.Tracer():
        assert core.solve_linear_mod_p is not originals[1]
        assert core.normalize is not originals[3]
        assert set(layer_tracer.find_wrapped()) == {
            name for name, _, _ in layer_tracer.ALL_TARGETS}
    assert layer_tracer.find_wrapped() == []
    assert (fp.solve_linear_mod_p, core.solve_linear_mod_p, words.normalize,
            core.normalize, core.GgsGroup.__dict__["section_word"]) == originals


def test_layer_values_cover_every_per_layer_metric():
    group = core.make_ggs(3, (1, 2))
    with layer_tracer.Tracer() as t:
        quotients.maximal_subgroups_census(group, 2)
    values = layer_tracer.layer_values(t, 0)
    assert set(values) == {name for name, _, _ in layer_tracer.PER_LAYER} - {"trace.overhead_s"}
    assert values["quotients.chain.base_len"] > 0
    assert values["quotients.project.self_s"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layer_tracer.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_class_sequence_follows_sieve_order():
    for p, m in ((3, 3), (5, 2), (5, 3)):
        sieve = [list(cs) for cs in itertools.product(range(p), repeat=m)
                 if all(cs[k] != cs[k + 1] for k in range(m - 1))]
        assert [workloads.class_sequence(i, p, m) for i in range(len(sieve))] == sieve


def test_closed_form_order_matches_quotient_engine():
    for e in ((1, 0), (1, 2), (2, 1), (0, 1)):
        group = core.make_ggs(3, e)
        for n in (2, 3):
            order = quotients.level_quotient(group, n).order
            assert order == 3 ** workloads.closed_form_log_order(3, e, n)


def test_length_words_are_fixed_and_recorded():
    def render():
        return [(g.p, words.format_word(w), bound) for g, w, bound in workloads.length_inputs()]

    assert render() == render()
    with open(os.path.join(HERE, "expected.json")) as fh:
        recorded = json.load(fh)["length"]
    assert sorted(f"p={p}|{w}" for p, w, _ in render()) == sorted(recorded)
    reducible = [w for g, w, bound in workloads.length_inputs() if w.syllables > bound]
    assert len(reducible) == 8


def test_speed_meter_leaves_its_probes_out_of_the_step():
    def busy():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        return "done"

    meter = worker.SpeedMeter(enabled=True)
    result, sec, probe_s = meter.time(busy)
    during = meter.readings[worker.PROBE_BURST:-worker.PROBE_BURST]
    assert result == "done"
    assert len(during) >= 2
    assert abs(sec + sum(during) - 0.35) < 0.05
    assert probe_s == statistics.mean(meter.readings)
    assert worker.SpeedMeter(enabled=False).time(busy)[2] is None
