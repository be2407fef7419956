import copy
import dataclasses
import hashlib
import json
import random
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from cmcurve import cli, verify
from cmcurve.adele import AdelicMatrix, UnitPart
from cmcurve.errors import LevelObstruction, NormObstruction, PrecisionObstruction, UnsupportedOrbit
from cmcurve.matrices import Mat2
from cmcurve.serialize import (
    ACCEPTS,
    INT_BOUND,
    SCHEMAS,
    acceptor,
    adelic_from_json,
    adelic_to_json,
    frac_from_json,
    point_from_json,
    point_to_json,
    shadow_from_json,
    shadow_to_json,
)
from cmcurve.galois import surjective_common_det
from cmcurve.shimura import LevelPoint, QuadPoint


def run_cli(argv, payload=None):
    """The CLI in a subprocess; a str payload goes to stdin as it is."""
    if payload is not None and not isinstance(payload, str):
        payload = json.dumps(payload)
    proc = subprocess.run(
        [sys.executable, "-m", "cmcurve.cli", *argv],
        input=payload,
        capture_output=True,
        text=True,
    )
    return proc


def ident_adelic(level):
    return {"r": [[1, 1], [0, 1], [0, 1], [1, 1]], "delta": 1, "s": [1, 0, 0, 1], "level": level}


def pt(m, p, q, level, a=None):
    return {"tau": {"m": m, "p": p, "q": q}, "a": a or ident_adelic(level), "level": level}


class TestRoundTrips:
    def test_adelic_bit_exact(self):
        rng = random.Random(801)
        for _ in range(100):
            g = AdelicMatrix(
                Mat2(rng.randint(-9, 9) or 1, rng.randint(-9, 9), 0, rng.randint(1, 9)),
                UnitPart(rng.choice([1, 2, 3, 4, 6]), Mat2(1, rng.randint(-5, 5), 0, 1), 7),
                7,
            )
            obj = adelic_to_json(g)
            assert adelic_from_json(json.loads(json.dumps(obj))) == g

    def test_point_bit_exact(self):
        P = LevelPoint(
            QuadPoint(5, 1, 2), AdelicMatrix.identity(7), 7
        )
        obj = point_to_json(P, canonical=True)
        assert obj["canonical"] is True
        assert point_from_json(json.loads(json.dumps(obj))) == P

    def test_shadow_bit_exact(self):
        for sigma in surjective_common_det((1, 2), 7).values():
            obj = shadow_to_json(sigma)
            assert shadow_from_json(json.loads(json.dumps(obj))) == sigma

    def test_zero_denominator_rejected_by_decoder(self):
        with pytest.raises(ValueError, match="zero denominator"):
            frac_from_json([1, 0])


class TestSubcommands:
    def test_point_eq_spec_pair(self):
        shear = {"r": [[1, 1], [1, 1], [0, 1], [1, 1]], "delta": 1, "s": [1, 0, 0, 1], "level": 5}
        payload = {"p1": pt(1, [0, 1], [1, 1], 5), "p2": pt(1, [1, 1], [1, 1], 5, shear)}
        proc = run_cli(["point-eq"], payload)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["equal"] is True
        assert out["witness"]["q"] == [[1, 1], [1, 1], [0, 1], [1, 1]]

    def test_point_eq_form_above_enumeration_bound(self):
        # r^-1(tau) has a form with |disc| above qforms.MAX_DISC
        r = {"r": [[0, 1], [-2, 3], [2, 1], [11, 12]], "delta": 1, "s": [1, 0, 0, 1], "level": 5}
        P = pt(1, [1, 3], [1, 4], 5, r)
        proc = run_cli(["point-eq"], {"p1": P, "p2": P})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["equal"] is True

    def test_orbit_spec_example(self):
        proc = run_cli(["orbit"], {"tau": {"m": 5, "p": [1, 1], "q": [2, 1]}})
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["n"] == 5
        assert out["r"] == [[2, 1], [1, 1], [0, 1], [1, 1]]

    def test_relation_mirror_quadruple(self):
        payload = {
            "s1": pt(1, [1, 1], [1, 1], 5),
            "s2": pt(2, [2, 1], [1, 1], 5),
            "t1": pt(1, [-1, 1], [1, 1], 5),
            "t2": pt(2, [-2, 1], [1, 1], 5),
        }
        proc = run_cli(["relation"], payload)
        out = json.loads(proc.stdout)
        assert proc.returncode == 0 and out["holds"] and out["lambda"] == 4

    def test_lift_identity(self):
        rows = [
            {"s": pt(1, [0, 1], [1, 1], 5), "t": pt(1, [0, 1], [1, 1], 5)},
            {"s": pt(2, [0, 1], [1, 1], 5), "t": pt(2, [0, 1], [1, 1], 5)},
        ]
        proc = run_cli(["lift"], {"table": rows})
        out = json.loads(proc.stdout)
        assert proc.returncode == 0 and out["lifted"]
        assert out["shadow"]["branch"] == 1 and out["component_action"] == 1

    def test_lift_violation_exit_one(self):
        rows = [
            {"s": pt(1, [1, 1], [1, 1], 5), "t": pt(1, [1, 1], [1, 1], 5)},
            {"s": pt(2, [2, 1], [1, 1], 5), "t": pt(2, [-2, 1], [1, 1], 5)},
        ]
        proc = run_cli(["lift"], {"table": rows})
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["violating_row"] == 2

    def test_malformed_input_exit_two(self):
        proc = run_cli(["point-eq"], {"oops": 1})
        assert proc.returncode == 2

    def test_obstruction_exit_three(self):
        bad = {"r": [[1, 3], [0, 1], [0, 1], [1, 1]], "delta": 1, "s": [1, 0, 0, 1], "level": 3}
        payload = {"g": [0, -1, 1, 0], "point": pt(1, [0, 1], [1, 1], 3, bad)}
        proc = run_cli(["fixed"], payload)
        assert proc.returncode == 3

    def test_unsupported_orbit_exit_three(self):
        shadow = dict(SHADOW5, support=[2])
        proc = run_cli(["act"], {"point": pt(1, [0, 1], [1, 1], 5), "shadow": shadow})
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "obstruction: orbit sqrt(-1) not in shadow support\n"

    def test_act_pipeline(self):
        payload = {"point": pt(2, [0, 1], [1, 1], 15), "unit": [2, 0, 0, 1], "project": 5}
        proc = run_cli(["act"], payload)
        out = json.loads(proc.stdout)
        assert proc.returncode == 0
        assert out["point"]["level"] == 5
        assert out["component"] == pow(2, -1, 5)


class TestTotalCli:
    """Inputs that once crashed or hung the CLI: each must end with its
    documented exit code and no traceback."""

    def test_zero_denominator_exit_two(self):
        bad = pt(1, [0, 0], [1, 1], 5)
        for cmd, payload in (
            ("fixed", {"point": bad, "g": [1, 0, 0, 1]}),
            ("act", {"point": bad}),
            ("point-eq", {"p1": pt(1, [0, 1], [1, 1], 5), "p2": bad}),
        ):
            proc = run_cli([cmd], payload)
            assert proc.returncode == 2, (cmd, proc.stderr)
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("m2", [1, 2])
    def test_relation_mixed_levels_exit_two(self, m2):
        # t1 at level 7, the rest at 5; with m2 = 2, s2 and t2 lie in
        # different orbits, which must not hide the level mismatch
        payload = {
            "s1": pt(1, [1, 1], [1, 1], 5),
            "s2": pt(m2, [2, 1], [1, 1], 5),
            "t1": pt(1, [-1, 1], [1, 1], 7),
            "t2": pt(1, [-2, 1], [1, 1], 5),
        }
        proc = run_cli(["relation"], payload)
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr == "error: level mismatch\n"

    def test_zero_unit_exit_two(self):
        proc = run_cli(["act"], {"point": pt(1, [0, 1], [1, 1], 5), "unit": [0, 0, 0, 0]})
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    # a 120-bit semiprime: answering about it needs only gcds against the
    # level, never its factorization (which ran for minutes)
    SEMIPRIME = 576460752303423619 * 1152921504606847009

    def run_timed(self, argv, payload):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "cmcurve.cli", *argv],
            input=json.dumps(payload),
            capture_output=True,
            text=True,
            timeout=30,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 10, elapsed  # interpreter startup included
        assert "Traceback" not in proc.stderr
        return proc

    def test_semiprime_denominator_is_fast(self):
        a = {"r": [[1, 1], [1, self.SEMIPRIME], [0, 1], [1, 1]], "delta": 1, "s": [1, 0, 0, 1], "level": 5}
        payload = {"g": [0, -1, 1, 0], "point": pt(1, [0, 1], [1, 1], 5, a)}
        proc = self.run_timed(["fixed"], payload)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["fixed"] in (True, False)

    def test_semiprime_frame_obstruction_is_fast(self):
        # the frame (q, p; 0, 1) meets the level at 5 through 5 * semiprime
        payload = {
            "point": pt(1, [0, 1], [5 * self.SEMIPRIME, 1], 5),
            "shadow": {"support": [1], "components": [[1, 0, 0, 1]], "branch": 1, "det": 1, "level": 5},
        }
        proc = self.run_timed(["act"], payload)
        assert proc.returncode == 3, proc.stderr
        assert "prime 5" in proc.stderr

    def test_level_above_bound_exit_two(self):
        # a 150-bit semiprime level: factoring it ran past 20 s before
        # levels were capped at 2^64
        level = (2**61 - 1) * (2**89 - 1)
        payload = {"p1": pt(1, [0, 1], [1, 1], level), "p2": pt(1, [1, 1], [1, 1], level)}
        proc = self.run_timed(["point-eq"], payload)
        assert proc.returncode == 2, proc.stderr
        assert f"{level} is greater than the maximum of {2**64}" in proc.stderr

    # the cap itself, and a semiprime of two 32-bit primes below it
    @pytest.mark.parametrize("level", [2**64, 4294967291 * 4294967279])
    def test_level_at_bound_answers(self, level):
        payload = {"p1": pt(1, [0, 1], [1, 1], level), "p2": pt(1, [0, 1], [1, 1], level)}
        proc = self.run_timed(["point-eq"], payload)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["equal"] is True

    # tau.m and shadow support entries are factored in full by is_squarefree
    BIG_M = (2**61 - 1) * (2**89 - 1)

    def test_orbit_m_above_bound_exit_two(self):
        proc = self.run_timed(["orbit"], {"tau": {"m": self.BIG_M, "p": [1, 1], "q": [2, 1]}})
        assert proc.returncode == 2, proc.stderr
        assert f"{self.BIG_M} is greater than the maximum of {2**64}" in proc.stderr

    def test_support_entry_above_bound_exit_two(self):
        shadow = dict(SHADOW5, support=[1, self.BIG_M], components=[[1, 0, 0, 1]] * 2)
        proc = self.run_timed(["act"], {"point": pt(1, [0, 1], [1, 1], 5), "shadow": shadow})
        assert proc.returncode == 2, proc.stderr
        assert f"{self.BIG_M} is greater than the maximum of {2**64}" in proc.stderr

    def test_orbit_m_at_bound_answers(self):
        m = 4294967291 * 4294967279
        proc = self.run_timed(["orbit"], {"tau": {"m": m, "p": [1, 1], "q": [2, 1]}})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cm"] is True

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_out_exit_two(self, tmp_path, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
        proc = run_cli(["orbit", "--out", str(out)], VALID_REQUESTS["orbit"])
        assert proc.returncode == cli.EXIT_BAD_INPUT
        assert proc.stderr.startswith("error: cannot write output: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_verify_out_exit_two(self, tmp_path, capsys, monkeypatch, target):
        monkeypatch.setitem(verify.SUITES, "shadows", [("trivial", lambda cfg: {})])
        out = tmp_path if target == "directory" else tmp_path / "missing" / "rep.json"
        assert cli.main(["verify", "shadows", "--out", str(out)]) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200000,
            '{"tau": {"m": 5, "p": [1, 1], "q": [2, 1]}, "other": ' + "[" * 990 + "1" + "]" * 990 + "}",
        ],
        ids=["unclosed 200000 deep", "other 990 deep"],
    )
    def test_deeply_nested_json_exit_two(self, text):
        proc = run_cli(["orbit"], text)
        assert proc.returncode == cli.EXIT_BAD_INPUT
        assert proc.stderr.startswith("error: cannot read JSON input: ")
        assert "Traceback" not in proc.stderr

    # json.load itself refuses an integer literal past the interpreter's
    # 4,300-digit int-to-str limit, before any schema sees the request
    @pytest.mark.parametrize("source", ["stdin", "file"])
    def test_over_long_integer_literal_exit_two(self, tmp_path, source):
        text = '{"tau": {"m": 5, "p": [' + "7" * 5000 + ', 1], "q": [2, 1]}}'
        if source == "stdin":
            proc = run_cli(["orbit"], text)
        else:
            path = tmp_path / "request.json"
            path.write_text(text)
            proc = run_cli(["orbit", "--in", str(path)])
        assert proc.returncode == cli.EXIT_BAD_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot read JSON input: Exceeds the limit (4300 digits)")
        assert "Traceback" not in proc.stderr

    def test_long_numerator_rejected_before_work(self):
        # valid but for its size: the answer was computed, and then its
        # 4,400-digit norm_matrix_det overran the int-to-str limit in _emit
        p = int("7" * 2200)
        proc = self.run_timed(["orbit"], {"tau": {"m": 5, "p": [p, 1], "q": [2, 1]}})
        assert proc.returncode == cli.EXIT_BAD_INPUT
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: input does not match schema orbit: {p} is greater than the maximum of {INT_BOUND}\n"
        )

    @pytest.mark.parametrize("cmd", ["point-eq", "orbit", "fixed", "act", "relation", "lift"])
    def test_integers_at_bound_answer(self, cmd):
        proc = self.run_timed([cmd], AT_BOUND_REQUESTS[cmd])
        assert proc.returncode in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_OBSTRUCTED), proc.stderr
        if proc.returncode != cli.EXIT_OBSTRUCTED:
            assert isinstance(json.loads(proc.stdout), dict)


# -- schema accept/reject table --------------------------------------------------

DELETE = object()

SHADOW5 = {"support": [1], "components": [[1, 0, 0, 1]], "branch": 1, "det": 1, "level": 5}

VALID_REQUESTS = {
    "point-eq": {"p1": pt(1, [0, 1], [1, 1], 5), "p2": pt(1, [1, 1], [1, 1], 5)},
    "orbit": {"tau": {"m": 5, "p": [1, 1], "q": [2, 1]}, "other": {"m": 5, "p": [0, 1], "q": [1, 1]}},
    "fixed": {"g": [0, -1, 1, 0], "point": pt(1, [0, 1], [1, 1], 5)},
    "act": {
        "point": dict(pt(1, [0, 1], [1, 1], 5), canonical=False),
        "unit": [2, 0, 0, 1],
        "rational": [1, 1, 0, 1],
        "shadow": SHADOW5,
        "project": 5,
        "canonicalize": True,
    },
    "relation": {
        "s1": pt(1, [1, 1], [1, 1], 5),
        "s2": pt(2, [2, 1], [1, 1], 5),
        "t1": pt(1, [-1, 1], [1, 1], 5),
        "t2": pt(2, [-2, 1], [1, 1], 5),
    },
    "lift": {
        "table": [
            {"s": pt(1, [0, 1], [1, 1], 5), "t": pt(1, [0, 1], [1, 1], 5)},
            {"s": pt(2, [0, 1], [1, 1], 5), "t": pt(2, [0, 1], [1, 1], 5)},
        ]
    },
}

# requests with their integers at or next to the bounds: INT_BOUND for
# fraction parts, delta, det and integer-matrix entries, and just under 2**64
# for the level, m and the support
LEVEL_AT_BOUND = 2**64 - 59  # the largest prime below 2**64
M_AT_BOUND = 2**64 - 1  # square-free: 3 * 5 * 17 * 257 * 641 * 65537 * 6700417


def _lift_to_bound(x):
    """The largest integer up to INT_BOUND that is x mod LEVEL_AT_BOUND."""
    x %= LEVEL_AT_BOUND
    return x + (INT_BOUND - x) // LEVEL_AT_BOUND * LEVEL_AT_BOUND


def _at_bound_requests():
    B = INT_BOUND
    sl2 = [B - 1, B, B - 2, B - 1]  # determinant 1
    tau = {"m": M_AT_BOUND, "p": [B, B - 1], "q": [B - 1, B]}
    adelic = {
        "r": [[B, B - 1], [B - 1, B], [-B, B - 3], [B - 5, B]],
        "delta": B,
        "s": sl2,
        "level": LEVEL_AT_BOUND,
    }
    point = {"tau": tau, "a": adelic, "level": LEVEL_AT_BOUND}
    x, y, m = B, B - 1, M_AT_BOUND
    shadow = {
        "support": [m],
        "components": [[_lift_to_bound(v) for v in (x, m * y, -y, x)]],
        "branch": 1,
        "det": _lift_to_bound(x * x + m * y * y),
        "level": LEVEL_AT_BOUND,
    }
    return {
        "point-eq": {"p1": point, "p2": dict(point, a=dict(adelic, delta=-B))},
        "orbit": {"tau": tau, "other": dict(tau, p=[-B, B - 1])},
        "fixed": {"g": [B, -B, B - 1, B], "point": point},
        "act": {
            "point": dict(point, canonical=True),
            "unit": sl2,
            "rational": sl2,
            "shadow": shadow,
            "project": LEVEL_AT_BOUND,
            "canonicalize": True,
        },
        "relation": {"s1": point, "s2": point, "t1": point, "t2": point},
        "lift": {"table": [{"s": point, "t": point}]},
    }


AT_BOUND_REQUESTS = _at_bound_requests()

# where each request carries a level point
POINT_PATHS = {
    "point-eq": [("p1",), ("p2",)],
    "orbit": [],
    "fixed": [("point",)],
    "act": [("point",)],
    "relation": [("s1",), ("t2",)],
    "lift": [("table", 0, "s"), ("table", 1, "t")],
}

# (path inside a level point, replacement or DELETE)
POINT_MUTATIONS = [
    (("tau",), DELETE),
    (("a", "delta"), DELETE),
    (("extra",), 1),
    (("a", "extra"), 1),
    (("tau", "extra"), 1),
    (("tau", "p"), [1, 1, 1]),
    (("a", "r", 0), [1, 1, 1]),
    (("tau", "p"), [1, 0]),
    (("tau", "p"), [1, -2]),
    (("a", "r", 0), [1, 0]),
    (("a", "r", 0), [1, -2]),
    (("a", "s"), [1, 0, 0]),
    (("level",), 0),
    (("a", "level"), 0),
    (("level",), 2**64 + 1),
    (("a", "level"), 2**64 + 1),
    (("tau", "m"), 0),
    (("tau", "m"), 2**64 + 1),
    (("a", "delta"), 1.5),
    (("tau", "q", 0), "1"),
    (("a", "s", 3), 0.5),
    (("canonical",), "yes"),
]

REQUEST_MUTATIONS = {
    "point-eq": [(("p2",), DELETE), (("extra",), 1)],
    "orbit": [
        (("tau",), DELETE),
        (("tau", "q"), DELETE),
        (("extra",), 1),
        (("other", "extra"), 1),
        (("tau", "p"), [1, 1, 1]),
        (("other", "q"), [1, 1, 1]),
        (("tau", "q"), [2, 0]),
        (("other", "p"), [0, -1]),
        (("tau", "m"), 0),
        (("other", "m"), 0),
        (("tau", "m"), 2**64 + 1),
        (("other", "m"), 2**64 + 1),
        (("tau", "m"), 1.5),
        (("other", "p", 1), "1"),
    ],
    "fixed": [(("g",), DELETE), (("extra",), 1), (("g",), [0, -1, 1]), (("g", 0), 0.5)],
    "act": [
        (("point",), DELETE),
        (("extra",), 1),
        (("unit",), [2, 0, 0]),
        (("rational",), [1, 1, 0]),
        (("shadow", "components", 0), [1, 0, 0]),
        (("shadow", "det"), DELETE),
        (("shadow", "extra"), 1),
        (("shadow", "branch"), 2),
        (("shadow", "level"), 0),
        (("shadow", "level"), 2**64 + 1),
        (("shadow", "support", 0), 0),
        (("shadow", "support", 0), 2**64 + 1),
        (("shadow", "det"), 1.5),
        (("project",), 0),
        (("project",), 2**64 + 1),
        (("unit", 0), "2"),
        (("canonicalize",), "yes"),
    ],
    "relation": [(("t1",), DELETE), (("extra",), 1)],
    "lift": [
        (("table",), DELETE),
        (("table",), []),
        (("extra",), 1),
        (("table", 0, "t"), DELETE),
        (("table", 1, "extra"), 1),
    ],
}

REJECTED = [
    (cmd, path, value)
    for cmd in VALID_REQUESTS
    for path, value in REQUEST_MUTATIONS[cmd]
    + [(base + sub, v) for base in POINT_PATHS[cmd] for sub, v in POINT_MUTATIONS]
]


def mutated(payload, path, value):
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def main_in_process(tmp_path, cmd, payload):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    return cli.main([cmd, "--in", str(src), "--out", str(tmp_path / "out.json")])


def schema_message(cmd, payload):
    """The message jsonschema.validate gives for the request, or None."""
    try:
        jsonschema.validate(payload, SCHEMAS[cmd.replace("-", "_")])
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


class TestSchemas:
    """The accept and reject behaviour of every request schema, pinned, with
    jsonschema.validate (which meta-checks the schema first) as the oracle."""

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_schema_is_valid_2020_12(self, name):
        assert SCHEMAS[name]["$schema"] == "https://json-schema.org/draft/2020-12/schema"
        jsonschema.Draft202012Validator.check_schema(SCHEMAS[name])

    @pytest.mark.parametrize("cmd", sorted(VALID_REQUESTS))
    def test_valid_request_accepted(self, tmp_path, capsys, cmd):
        assert schema_message(cmd, VALID_REQUESTS[cmd]) is None
        assert main_in_process(tmp_path, cmd, VALID_REQUESTS[cmd]) != cli.EXIT_BAD_INPUT
        assert "does not match schema" not in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", sorted(VALID_REQUESTS))
    def test_request_skips_metaschema_check(self, tmp_path, capsys, monkeypatch, cmd):
        def check_schema(*args, **kwargs):
            raise AssertionError("request schemas are meta-checked by the tests only")

        monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema", check_schema)
        assert main_in_process(tmp_path, cmd, VALID_REQUESTS[cmd]) != cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "cmd, path, value",
        REJECTED,
        ids=[f"{cmd}:{'.'.join(map(str, path))}={'del' if v is DELETE else json.dumps(v)}"
             for cmd, path, v in REJECTED],
    )
    def test_mutation_rejected(self, tmp_path, capsys, cmd, path, value):
        payload = mutated(VALID_REQUESTS[cmd], path, value)
        message = schema_message(cmd, payload)
        assert message is not None
        assert main_in_process(tmp_path, cmd, payload) == cli.EXIT_BAD_INPUT
        name = cmd.replace("-", "_")
        assert capsys.readouterr().err == f"error: input does not match schema {name}: {message}\n"


# one path for each kind of integer bounded by INT_BOUND, with the sign of
# the bound tested there
BOUNDED_PATHS = [
    ("orbit", ("tau", "p", 0), -1),
    ("orbit", ("other", "q", 1), 1),
    ("fixed", ("g", 2), 1),
    ("fixed", ("point", "a", "delta"), -1),
    ("fixed", ("point", "a", "s", 0), 1),
    ("point-eq", ("p1", "a", "r", 3, 0), -1),
    ("point-eq", ("p2", "a", "r", 3, 1), 1),
    ("act", ("shadow", "det"), 1),
    ("act", ("shadow", "components", 0, 1), -1),
    ("act", ("unit", 3), 1),
]


class TestIntegerBound:
    @pytest.mark.parametrize(
        "cmd, path, sign", BOUNDED_PATHS, ids=[f"{c}:{'.'.join(map(str, p))}" for c, p, _ in BOUNDED_PATHS]
    )
    def test_bound_is_inclusive(self, tmp_path, capsys, cmd, path, sign):
        name = cmd.replace("-", "_")
        at = mutated(VALID_REQUESTS[cmd], path, sign * INT_BOUND)
        assert schema_message(cmd, at) is None
        assert ACCEPTS[name](at) is True
        beyond = mutated(VALID_REQUESTS[cmd], path, sign * (INT_BOUND + 1))
        if sign > 0:
            message = f"{INT_BOUND + 1} is greater than the maximum of {INT_BOUND}"
        else:
            message = f"{-INT_BOUND - 1} is less than the minimum of {-INT_BOUND}"
        assert schema_message(cmd, beyond) == message
        assert ACCEPTS[name](beyond) is False
        assert main_in_process(tmp_path, cmd, beyond) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: input does not match schema {name}: {message}\n"


# values near the ones the schemas ask for: bools and floats where integers
# go, integers past the 2**64 cap and past INT_BOUND, and arrays of the wrong
# length
NEAR_VALUES = [
    0, 1, -1, 2, 5, 2**64, 2**64 + 1, 2**70, -(2**70), INT_BOUND + 1, -INT_BOUND - 1,
    True, False, 1.0, 2.0, -1.0, 1.5, "1", None,
    [], {}, [1, 1], [1, 1.0], [True, 1], [1, 1, 1], [1, 0, 0, 1], [1, 0, 0, 1.0], [[1, 1]] * 4,
]


@st.composite
def near_requests(draw):
    """(command, request): a valid request with one to three edits, each at a
    drawn node: a value replaced, a key or item deleted, a key or item added."""
    def near():
        # a copy, since a later edit may descend into it
        return copy.deepcopy(draw(st.sampled_from(NEAR_VALUES)))

    cmd = draw(st.sampled_from(sorted(VALID_REQUESTS)))
    payload = copy.deepcopy(VALID_REQUESTS[cmd])
    for _ in range(draw(st.integers(1, 3))):
        node = payload
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
                continue
            edit = draw(st.sampled_from(("replace", "delete", "add")))
            if edit == "replace":
                node[key] = near()
            elif edit == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.sampled_from(("extra", "level", "m")))] = near()
            else:
                node.append(near())
            break
    return cmd, payload


def is_plain(value):
    """No float anywhere: JSON that the acceptance predicates decide exactly
    as the schema does."""
    if isinstance(value, dict):
        return all(is_plain(v) for v in value.values())
    if isinstance(value, list):
        return all(is_plain(v) for v in value)
    return type(value) is not float


class TestAcceptancePredicates:
    """serialize.ACCEPTS holds only on requests the schema accepts, so a
    request it passes may skip the validator."""

    @pytest.mark.parametrize("cmd", sorted(VALID_REQUESTS))
    def test_valid_request_accepted(self, cmd):
        assert ACCEPTS[cmd.replace("-", "_")](VALID_REQUESTS[cmd]) is True

    @pytest.mark.parametrize(
        "cmd, path, value",
        REJECTED,
        ids=[f"{cmd}:{'.'.join(map(str, path))}={'del' if v is DELETE else json.dumps(v)}"
             for cmd, path, v in REJECTED],
    )
    def test_mutation_refused(self, cmd, path, value):
        assert ACCEPTS[cmd.replace("-", "_")](mutated(VALID_REQUESTS[cmd], path, value)) is False

    @settings(max_examples=400, deadline=None)
    @given(near_requests())
    def test_never_looser_than_jsonschema(self, request):
        cmd, payload = request
        name = cmd.replace("-", "_")
        valid = jsonschema.Draft202012Validator(SCHEMAS[name]).is_valid(payload)
        accepted = ACCEPTS[name](payload)
        assert valid or not accepted
        # jsonschema takes 2.0 for an integer; the predicates refuse floats
        if is_plain(payload):
            assert accepted == valid

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "string"},
            {"type": "number"},
            {"type": "integer", "pattern": "^1$"},
            {"type": "object", "properties": {"a": {"type": "string", "pattern": "^1$"}}},
            {"type": "array", "items": {"exclusiveMinimum": 0}},
            {"type": "array", "prefixItems": [{"type": "integer"}, {"$ref": "#"}]},
            {"type": "object", "additionalProperties": {"type": "integer"}},
            {"enum": [[1, 1]]},
        ],
    )
    def test_unimplemented_keyword_raises(self, schema):
        with pytest.raises(ValueError, match="no acceptance predicate"):
            acceptor(schema)


class TestShadowBoundary:
    """A shadow the library constructor refuses is malformed input (exit 2),
    never an obstruction met while acting with it."""

    @pytest.mark.parametrize(
        "level, det, message",
        [
            # the schema caps levels below at 1, as the constructor does
            (0, 1, "input does not match schema act: 0 is less than the minimum of 1"),
            # det 2 is no unit mod 4, and no component's shape test sees it;
            # acting must not get as far as the missing orbit (exit 3)
            (4, 2, "det must be a unit mod the level"),
        ],
    )
    def test_bad_shadow_exits_two(self, tmp_path, capsys, level, det, message):
        shadow = {"support": [], "components": [], "branch": 1, "det": det, "level": level}
        payload = {"point": pt(1, [0, 1], [1, 1], 4), "shadow": shadow}
        assert main_in_process(tmp_path, "act", payload) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"


class TestVerifyCommand:
    def test_reproducible_reports(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            proc = run_cli(
                ["verify", "exactseq", "--seed", "7", "--out", str(out)]
            )
            assert proc.returncode == 0
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        for r in (r1, r2):
            r.pop("environment")
            for c in r["checks"]:
                c.pop("seconds")
        assert r1 == r2
        assert r1["config"] == {"seed": 7}

    def test_obstructed_check_exits_3(self, tmp_path, capsys, monkeypatch):
        def check_bad_level(cfg):
            raise LevelObstruction(10, (5,))

        monkeypatch.setitem(verify.SUITES, "shadows", [("bad_level", check_bad_level)])
        out = tmp_path / "rep.json"
        assert cli.main(["verify", "shadows", "--out", str(out)]) == cli.EXIT_OBSTRUCTED
        rep = json.loads(out.read_text())
        assert rep["status"] == "obstructed"
        assert [c["status"] for c in rep["checks"]] == ["obstructed"]
        assert capsys.readouterr().err.startswith("OBSTRUCTED shadows:bad_level")

    # every Obstruction, not only the level, precision and norm ones
    @pytest.mark.parametrize(
        "exc",
        [PrecisionObstruction(5), NormObstruction(3), UnsupportedOrbit(2)],
        ids=lambda exc: type(exc).__name__,
    )
    def test_every_obstruction_is_obstructed(self, tmp_path, monkeypatch, exc):
        def check_obstructed(cfg):
            raise exc

        monkeypatch.setitem(verify.SUITES, "shadows", [("obstructed", check_obstructed)])
        out = tmp_path / "rep.json"
        assert cli.main(["verify", "shadows", "--out", str(out)]) == cli.EXIT_OBSTRUCTED
        assert [c["status"] for c in json.loads(out.read_text())["checks"]] == ["obstructed"]

    # a defect inside a check is a failure of that check, not bad input or
    # a traceback, and the suite runs on after it
    @pytest.mark.parametrize(
        "exc", [ValueError("bad branch"), ArithmeticError("no lift")], ids=lambda exc: type(exc).__name__
    )
    def test_check_that_raises_fails(self, tmp_path, capsys, monkeypatch, exc):
        def check_defective(cfg):
            raise exc

        checks = [("defective", check_defective), ("trivial", lambda cfg: {"ok": 1})]
        monkeypatch.setitem(verify.SUITES, "shadows", checks)
        out = tmp_path / "rep.json"
        assert cli.main(["verify", "shadows", "--out", str(out)]) == cli.EXIT_CHECK_FAILED
        rep = json.loads(out.read_text())
        assert rep["status"] == "fail"
        assert [(c["name"], c["status"], c["detail"]) for c in rep["checks"]] == [
            ("defective", "fail", {"exception": type(exc).__name__, "message": str(exc)}),
            ("trivial", "pass", {"ok": 1}),
        ]
        err = capsys.readouterr().err
        assert err.startswith("FAIL       shadows:defective") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--level", "5"], ["--support", "1,2"], ["--count", "10"], ["--strict-good-level"]],
    )
    def test_removed_flags_are_usage_errors(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "lift", *flags])
        assert exc.value.code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flags)}" in err
        assert "Traceback" not in err

    def test_seed_is_the_only_setting(self):
        args = cli.build_parser().parse_args(["verify", "lift"])
        assert sorted(vars(args)) == ["command", "handler", "outfile", "seed", "suite"]
        assert [f.name for f in dataclasses.fields(verify.SuiteConfig)] == ["seed"]

    def test_unknown_suite_rejected(self):
        proc = run_cli(["verify", "nonsense"])
        assert proc.returncode == 2


class TestSeedEnvironment:
    """CMCURVE_SEED is the default of verify --seed and is read by no other
    subcommand."""

    def test_malformed_seed_ignored_by_other_subcommands(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CMCURVE_SEED", "abc")
        assert main_in_process(tmp_path, "orbit", VALID_REQUESTS["orbit"]) == cli.EXIT_OK
        assert json.loads((tmp_path / "out.json").read_text())["n"] == 5

    def test_malformed_seed_is_a_verify_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CMCURVE_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "lift"])
        assert exc.value.code == cli.EXIT_BAD_INPUT
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err

    def test_seed_from_environment(self, monkeypatch):
        monkeypatch.setenv("CMCURVE_SEED", "3")
        assert cli.build_parser().parse_args(["verify", "lift"]).seed == 3
        monkeypatch.setenv("CMCURVE_SEED", "abc")
        assert cli.build_parser().parse_args(["verify", "lift", "--seed", "5"]).seed == 5


# (argv, CMCURVE_SEED or None): help, usage errors and seed errors, none of
# which runs a command
PARSER_CASES = [
    ([], None), (["-h"], None), (["--help"], None), (["bogus"], None),
    (["orbi"], None), (["--in", "x"], None),
    *(([cmd, "--help"], None) for cmd in cli.COMMANDS),
    (["orbit", "--bogus"], None), (["act", "--in"], None),
    (["verify"], None), (["verify", "nosuch"], None), (["verify", "all", "--seed", "x"], None),
    (["point-eq", "extra"], None),
    (["verify", "lift"], "abc"),
]


PARSER_CASE_IDS = [" ".join(a) + (f" seed={e}" if e else "") for a, e in PARSER_CASES]

# SHA-256 prefixes of json.dumps([exit code, stdout, stderr]) of each
# PARSER_CASES argv at COLUMNS=80, taken with the parser this suite first
# pinned them on.  argparse words help and errors differently from one Python
# version to the next, so the digests hold for the version they were taken on.
PINNED_PYTHON = (3, 11)
PINNED_PARSER_OUTCOMES = {
    "": "45e198214c487515",
    "-h": "9d073e170167e93d",
    "--help": "9d073e170167e93d",
    "bogus": "7d3b8add14bde1c9",
    "orbi": "b42408c1e8792100",
    "--in x": "d6d72e6a45cb4af1",
    "point-eq --help": "8af264f8ad38fefa",
    "orbit --help": "6966a076cf3e9432",
    "fixed --help": "959dbc414db93068",
    "act --help": "b9153f5972668dae",
    "relation --help": "de70bda7f8f26c1c",
    "lift --help": "ab96762e76938cbc",
    "verify --help": "4f97d7ca1900ac2e",
    "orbit --bogus": "cfe83b0cbf95e580",
    "act --in": "26a2a6d24189c14b",
    "verify": "0b36faf9d7b6cdfb",
    "verify nosuch": "bebb882189365aa7",
    "verify all --seed x": "36c5b967bb70fa4d",
    "point-eq extra": "d1e4480083d2c062",
    "verify lift seed=abc": "5f522158b2dae169",
}


def main_outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The class keeps the name it had when main built a lone subparser for these
# argv, so that its test ids stay stable.
class TestLoneParser:
    """Help, usage and seed errors are the whole parser's: main's exit code,
    stdout and stderr on each equal the parser's own, and the pinned digests."""

    @pytest.mark.parametrize("argv, seed", PARSER_CASES, ids=PARSER_CASE_IDS)
    def test_same_as_whole_parser(self, capsys, monkeypatch, argv, seed):
        if seed is not None:
            monkeypatch.setenv("CMCURVE_SEED", seed)
        assert cli._request_args(argv) is None
        outcome = main_outcome(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        captured = capsys.readouterr()
        assert outcome == (exc.value.code, captured.out, captured.err)
        assert outcome[0] in (0, cli.EXIT_BAD_INPUT)

    @pytest.mark.skipif(
        sys.version_info[:2] != PINNED_PYTHON, reason="argparse wording differs between Python versions"
    )
    @pytest.mark.parametrize("argv, seed, case", [(*c, i) for c, i in zip(PARSER_CASES, PARSER_CASE_IDS)],
                             ids=PARSER_CASE_IDS)
    def test_pinned_outcome(self, capsys, monkeypatch, argv, seed, case):
        monkeypatch.setenv("COLUMNS", "80")
        if seed is not None:
            monkeypatch.setenv("CMCURVE_SEED", seed)
        blob = json.dumps(list(main_outcome(argv, capsys)))
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PINNED_PARSER_OUTCOMES[case]


REQUEST_COMMANDS = [name for name in cli.COMMANDS if name != "verify"]
ARGV_TOKENS = [
    *cli.COMMANDS, "--in", "--out", "--i", "--in=x", "-", "", "x", "-5", "--", "-h", "a b",
]
ARGVS = st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=6),
    # a token, then (token, token) pairs: the shape the reader accepts
    st.builds(
        lambda head, pairs: [head, *(t for pair in pairs for t in pair)],
        st.sampled_from(ARGV_TOKENS),
        st.lists(st.tuples(st.sampled_from(ARGV_TOKENS), st.sampled_from(ARGV_TOKENS)), max_size=2),
    ),
)


def parsed_request(argv):
    args = cli.build_parser().parse_args(argv)
    return args.handler, args.infile, args.outfile


class TestRequestArgv:
    """main reads a request command's --in/--out argv itself: whatever it
    accepts, it reads as the whole parser does."""

    @pytest.mark.parametrize("cmd", REQUEST_COMMANDS)
    def test_bare_command_accepted(self, cmd):
        args = cli._request_args([cmd])
        assert (args.handler, args.infile, args.outfile) == parsed_request([cmd])

    def test_every_flag_and_value_pair(self):
        pairs = [(f, v) for f in ("--in", "--out") for v in ("-", "", "x", "a b", "orbit")]
        for cmd in REQUEST_COMMANDS:
            for first in pairs:
                for rest in [(), *pairs]:
                    argv = [cmd, *first, *rest]
                    args = cli._request_args(argv)
                    assert (args.handler, args.infile, args.outfile) == parsed_request(argv), argv

    @pytest.mark.parametrize(
        "argv",
        [["verify", "all"], ["orbit", "--in"], ["orbit", "--i", "x"], ["orbit", "--in=x"],
         ["orbit", "--in", "-5"], ["orbit", "--", "x"], ["orbit", "-h"], ["orbit", "x"]],
        ids=" ".join,
    )
    def test_other_argv_left_to_the_parser(self, argv):
        assert cli._request_args(argv) is None

    @settings(max_examples=300, deadline=None)
    @given(ARGVS)
    def test_agrees_with_whole_parser(self, argv):
        args = cli._request_args(argv)
        if args is not None:
            assert (args.handler, args.infile, args.outfile) == parsed_request(argv)


class TestImportHygiene:
    """Valid requests load neither jsonschema nor argparse nor the verify
    suites; rejected ones keep jsonschema's message."""

    def test_valid_request_leaves_jsonschema_unloaded(self, tmp_path):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(VALID_REQUESTS["orbit"]))
        code = (
            "import sys\n"
            "import cmcurve.cli as cli\n"
            "code = cli.main(['orbit', '--in', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, *(m in sys.modules for m in ('jsonschema', 'argparse', 'cmcurve.verify')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src), str(out)], capture_output=True, text=True
        )
        assert proc.stdout == "0 False False False\n", proc.stderr
        assert json.loads(out.read_text())["n"] == 5

    def test_schema_violation_keeps_jsonschema_message(self):
        payload = mutated(VALID_REQUESTS["fixed"], ("point", "level"), DELETE)
        message = schema_message("fixed", payload)
        proc = run_cli(["fixed"], payload)
        assert proc.returncode == cli.EXIT_BAD_INPUT
        assert proc.stderr == f"error: input does not match schema fixed: {message}\n"


class TestCoverageAudit:
    def test_every_operation_has_one_subcommand(self):
        spec_operations = [
            "factor", "squarefree_part", "jacobi", "sqrt_mod", "hilbert_symbol",
            "form_of", "reduce_form", "automorphs", "reduced_forms", "cornacchia",
            "solve_form_rational",
            "reduce_level", "mul", "shape_test", "reciprocity_matrix",
            "in_gamma_tilde", "conj_by_dlambda",
            "point_eq", "act_unit", "act_rational", "component", "is_fixed",
            "is_cm", "orbit_rep", "same_orbit", "project",
            "shadow_mul", "shadow_act", "shadow_eq", "equalize_dets",
            "surjective_common_det", "branch_map", "component_action",
            "independent", "stable_saturation", "minimal_subtorus_check", "goursat",
            "approx_eq", "canonical_rep", "curve_component", "eval_curve",
            "relation_R", "faithfulness_check", "lift_automorphism",
        ]
        subcommands = {"point-eq", "orbit", "fixed", "act", "relation", "lift", "verify"}
        assert sorted(cli.OPERATION_COVERAGE) == sorted(spec_operations)
        for op, sub in cli.OPERATION_COVERAGE.items():
            assert sub in subcommands, op

    def test_operations_exist(self):
        import cmcurve.adele
        import cmcurve.approx
        import cmcurve.galois
        import cmcurve.numth
        import cmcurve.qforms
        import cmcurve.shimura
        import cmcurve.tori

        lookup = {
            "reduce_form": cmcurve.qforms.reduce_form,
            "relation_R": cmcurve.approx.relation_R,
        }
        modules = [
            cmcurve.numth, cmcurve.qforms, cmcurve.adele, cmcurve.shimura,
            cmcurve.galois, cmcurve.tori, cmcurve.approx,
        ]
        for op in cli.OPERATION_COVERAGE:
            if op in lookup:
                continue
            assert any(hasattr(mod, op) for mod in modules), op
