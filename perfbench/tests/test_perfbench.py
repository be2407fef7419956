"""Smoke tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cmcurve import shimura, tori  # noqa: E402
from cmcurve.matrices import Mat2  # noqa: E402


def one_round(name, seed):
    return run.run_pass(workloads.WORKLOADS[name], seed, tracing.Caches(), rounds=1)


def inputs(name, seed):
    """The first round's operation classes and the values each call closes
    over (points, matrices, tables, request texts)."""
    ops = workloads.WORKLOADS[name](random.Random(seed)).round()
    values = [c.cell_contents for op in ops for c in (op.run.__closure__ or ())
              if not callable(c.cell_contents)]
    return [(op.kind, op.level) for op in ops], values


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_digest(name):
    assert inputs(name, 5) == inputs(name, 5)
    a, b, c = one_round(name, 5), one_round(name, 5), one_round(name, 6)
    assert a.digest.hexdigest() == b.digest.hexdigest()
    assert a.digest.hexdigest() != c.digest.hexdigest()


def test_seed_code_answers_checked_correct():
    for name in ("small-level", "lattices"):
        p = one_round(name, 3)
        assert p.wrong == 0 and not p.failures


def test_cli_failures_are_exactly_the_known_defects():
    p = one_round("cli-requests", 3)
    assert p.wrong == 0
    kinds = {key.split(":")[0] for key in p.failures}
    assert kinds == set(workloads.KNOWN_DEFECTS)
    assert sum(p.failures.values()) == len(workloads.KNOWN_DEFECTS)


def test_forged_witness_is_caught(monkeypatch):
    def forged(P1, P2):
        return shimura.PointEqWitness(Mat2(1, 0, 0, 1), Mat2(1, 0, 0, 1), P1.level)

    monkeypatch.setattr(shimura, "point_eq_witness", forged)
    p = one_round("small-level", 4)
    assert p.wrong > 0
    assert any(key.startswith("point_eq_witness:") for key in p.failures)


def test_planted_wrong_answer_is_caught(monkeypatch):
    real = tori.independent
    monkeypatch.setattr(tori, "independent", lambda ms: not real(ms))
    p = one_round("lattices", 4)
    assert p.wrong > 0
    assert all(key.startswith("independent:") for key in p.failures)


def test_cli_forged_relation_is_caught(monkeypatch):
    from cmcurve import approx

    real = approx.relation_witness

    def forged(*pts):
        w = real(*pts)
        return None if w is None else approx.RelationWitness((w.lam + 1) % pts[0].level, w.branch, w.r1, w.r2)

    monkeypatch.setattr(approx, "relation_witness", forged)
    p = one_round("cli-requests", 4)
    assert any(key.startswith("relation:") for key in p.failures)
    assert p.wrong > 0


def last_json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def declared(section):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


@pytest.mark.parametrize("name", ["lattices", "cli-requests"])
def test_traced_output_has_every_declared_per_layer_metric(name):
    res = last_json(["--workload", name, "--seed", "1", "--seconds", "0.4", "--trace", "1"])
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("per_layer")
    assert res["correct"] is True and res["attempted"] >= 1


def test_untraced_output_has_every_end_to_end_metric():
    res = last_json(["--workload", "lattices", "--seed", "1", "--seconds", "0.4", "--trace", "0"])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lattices", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
