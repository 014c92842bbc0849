"""Self-test of the benchmark harness, kept out of the tier-1 suite.

    python3 -m pytest perfbench -q

Runs a tiny bar (resolution 2, small K, one epoch) through the warm and the
cold code paths, untraced and traced, and checks the self-time arithmetic on
a hand-built span tree.
"""

import json
import re
from pathlib import Path

import pytest

import run
import tracing

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())

TINY = {
    "warm": run.Workload("tiny-warm", resolution=2, k=12,
                         deformations=(("bend", 0.6), ("twist", 0.3),
                                       ("bend", -0.4)),
                         epochs=1, warm=True, remesh_holdout=True, setups=2),
    "cold": run.Workload("tiny-cold", resolution=2, k=12,
                         deformations=(("bend", 0.6), ("twist", 0.3)),
                         epochs=1, warm=False, remesh_holdout=False, setups=2),
}


def _run(kind, trace, tmp_path, capsys):
    workload = TINY[kind]
    record = run.run_workload(workload, seed=3, seconds=0, trace=trace,
                              work_root=tmp_path)
    result = run.report(workload, 3, 0, trace, record, tmp_path / "results")
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    printed = dict(re.fullmatch(r"metric (\S+) = \S+ (\S+)", line).groups()
                   for line in lines if line.startswith("metric "))
    return result, printed


@pytest.mark.parametrize("kind", ["warm", "cold"])
def test_untraced_run_prints_every_metric_with_its_unit(kind, tmp_path, capsys):
    result, printed = _run(kind, 0, tmp_path, capsys)
    assert result["correct"] and result["failed"] == 0
    expected = run.END_TO_END | run.REPORTED
    if kind == "cold":
        del expected["age_remeshed_x100"]   # cold-bar10 has no remeshed pair
    assert printed == expected
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert gated == run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # attempted = commands + pairs: train, eval, pairs (+ one spectrum a mesh)
    pairs = 2 if kind == "warm" else 1
    assert result["attempted"] == 2 + pairs + (0 if kind == "warm" else 3)


@pytest.mark.parametrize("kind", ["warm", "cold"])
def test_traced_run_reports_every_layer(kind, tmp_path, capsys):
    result, printed = _run(kind, 1, tmp_path, capsys)
    assert result["correct"] and result["failed"] == 0
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layers == tracing.PER_LAYER == printed
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["synth.make_dataset.calls"] == 1
    assert values["network.train.self_s"] > 0
    if kind == "warm":
        # setup pays every eigensolve: 4 directions x (template, 3 poses,
        # the remeshed pose)
        assert values["spectrum.solve_eigs.calls"] == 4 * 5
    else:
        # only the traced pass is counted: 4 directions x (template, the
        # training pose, the held-out pose)
        assert values["spectrum.solve_eigs.calls"] == 4 * 3
        assert values["cli.bank_cache.hit_ratio"] == 0.0


def test_warm_check_catches_a_cache_write(tmp_path):
    op = run.Op("train")
    run._check_warm(op, {"a.spec": (1, 1)}, {"a.spec": (1, 2)})
    assert not op.ok
    op = run.Op("eval", counters={"wavelets.build_filterbank.calls": 1})
    run._check_warm(op, {}, {})
    assert not op.ok and "filter-bank" in op.why


def test_self_time_subtracts_what_children_cover():
    S = tracing.Span
    spans = [
        S("root", 0, 100, -1),
        S("a", 10, 40, 0),
        S("a1", 15, 25, 1),
        S("b", 50, 70, 0),
        S("c", 60, 80, 0),    # overlaps b: covered time counts once
        S("d", 90, 120, 0),   # runs past its parent: clipped at 100
    ]
    assert tracing.self_times(spans) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 30]


def test_tracer_nests_spans_and_restores_originals():
    from wavemesh import corresp
    original = corresp.geodesic_rows
    tracer = tracing.Tracer()
    with tracing.Probes(tracer):
        assert corresp.geodesic_rows is not original
        tracer.call("outer", lambda: tracer.call("inner", lambda: 7, (), {}),
                    (), {})
    assert corresp.geodesic_rows is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1),
                                                          ("inner", 0)]
    assert tracer.counters["outer.calls"] == tracer.counters["inner.calls"] == 1
