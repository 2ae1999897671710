"""Self-tests of the benchmark. From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import filecmp
import json
import os
import sys
import types

import pytest

import checks
import layers
import run
import workloads
from tracer import Tracer, install, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
SMALL = {"holter": {"hours": 0.1, "episode_s": 90.0}, "fleet": {"patients": 5},
         "backlog": {"records": 300}}


def _build(tmp_path, workload, seed, tag):
    return workloads.build(workload, seed, str(tmp_path / tag / "inputs"), **SMALL[workload])


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    plan_a = _build(tmp_path, workload, 3, "a")
    plan_b = _build(tmp_path, workload, 3, "b")
    plan_c = _build(tmp_path, workload, 4, "c")
    assert plan_a == plan_b
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "c")


def _run_round(tmp_path, plan):
    """One in-process round of the plan; returns its directory and the
    (exit code, stdout) of each invocation."""
    import contextlib
    import io

    from edgevitals.cli import main

    cache = str(tmp_path / "w")
    run.reset(cache, plan)
    results = []
    for inv in plan["invocations"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(run.cli_args(cache, inv, 1))
        results.append((code, out.getvalue()))
    return cache, results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_the_program_as_it_is(tmp_path, workload):
    plan = _build(tmp_path, workload, 5, "w")
    cache, results = _run_round(tmp_path, plan)
    assert checks.check_round(plan, cache, results) == {}


def test_checks_catch_a_corrupt_message(tmp_path):
    plan = _build(tmp_path, "fleet", 5, "w")
    cache, results = _run_round(tmp_path, plan)
    path = os.path.join(cache, "run", "out", "day1", "fleet-001", "message.xml")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:len(text) // 2])
    failures = checks.check_round(plan, cache, results)
    assert any("does not parse" in why for why in failures[(1, "fleet-001")])


def test_checks_catch_a_record_sent_twice(tmp_path):
    plan = _build(tmp_path, "fleet", 5, "w")
    cache, results = _run_round(tmp_path, plan)
    day0 = os.path.join(cache, "run", "out", "day0", "fleet-003", "message.xml")
    day1 = os.path.join(cache, "run", "out", "day1", "fleet-003", "message.xml")
    with open(day0, encoding="utf-8") as fh:
        first = fh.read().split("<measurement ")[1].split("/>")[0]
    with open(day1, encoding="utf-8") as fh:
        text = fh.read()
    with open(day1, "w", encoding="utf-8") as fh:
        fh.write(text.replace("<measurements>", "<measurements><measurement %s/>" % first, 1))
    failures = checks.check_round(plan, cache, results)
    assert any("1 sent twice" in why for why in failures[(1, "fleet-003")])
    assert list(failures) == [(1, "fleet-003")]


def test_checks_catch_a_wrong_decision(tmp_path):
    plan = _build(tmp_path, "backlog", 5, "w")
    cache, results = _run_round(tmp_path, plan)
    code, stdout = results[0]
    failures = checks.check_round(plan, cache, [(code, stdout.replace(
        "backlog-1 alerts=2 alarm=yes decision=IMMEDIATE",
        "backlog-1 alerts=0 alarm=no decision=HOLD"))])
    assert list(failures) == [(0, "backlog-1")]


def test_rounds_stop_before_the_budget_would_be_overrun():
    assert run.more_rounds([], 1.0)
    assert run.more_rounds([6.0, 6.0], 20.0)
    assert not run.more_rounds([6.0, 6.0, 6.0], 20.0)
    assert not run.more_rounds([25.0], 20.0)


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children_only_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("t1", 1.0, 4.0, 0),
        _span("t2", 3.0, 6.0, 0),
        _span("late", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_install_wraps_every_binding_and_nests_spans(monkeypatch):
    def leaf(x):
        return x + 1

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    pkg.leaf = leaf
    sub.leaf = leaf
    sub.outer = lambda x: sub.leaf(x) * 2
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    tracer = Tracer()
    assert install(tracer, "leaf", pkg, "leaf", package="fakepkg",
                   count=lambda a, k, r: {"n": a[0]}) == 2
    install(tracer, "outer", sub, "outer", package="fakepkg")
    assert sub.outer(1) == 4 and pkg.leaf(5) == 6
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("leaf", 0, {"n": 1}), ("leaf", -1, {"n": 5})]


def test_spans_from_many_threads_keep_their_own_parents():
    import threading
    import time

    def thread(args, kwargs, result):
        return {"thread": threading.get_ident()}

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.001), count=thread)
    outer = tracer.wrap("outer", lambda: inner(), count=thread)
    threads = [threading.Thread(target=lambda: [outer() for _ in range(50)])
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans
    assert len(spans) == 4 * 50 * 2
    for span in spans:
        if span[0] == "outer":
            assert span[3] == -1
        else:
            parent = spans[span[3]]
            assert parent[0] == "outer" and parent[4] == span[4]


def test_a_failing_counter_is_recorded_not_raised():
    tracer = Tracer()
    fn = tracer.wrap("f", lambda: 1, count=lambda a, k, r: {"n": r.missing})
    assert fn() == 1
    assert len(tracer.errors) == 1 and tracer.errors[0].startswith("f: AttributeError")


def test_hooks_all_find_their_target_in_the_current_program(monkeypatch):
    bound = []
    monkeypatch.setattr(layers, "install", lambda *args: bound.append(args[1]))
    assert layers.install_all(Tracer()) == []
    assert len(bound) == len(layers.HOOKS)


def test_metric_lists_agree_with_benchmark_json_and_design():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    traced = set(layers.layer_metrics([])) | {
        "trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s",
        "trace.unaccounted_s", "trace.spans"}
    assert {m["name"] for m in bench["per_layer"]} == traced
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert set(design["per_layer"]) == traced
    assert set(design["workloads"]) == set(workloads.WORKLOADS)
    for m in bench["per_layer"]:
        assert m["unit"] == layers.unit(m["name"])
