"""Command-line front end: JSON in, JSON out, verification suites.

Exit codes: 0 success, 1 check failure, 2 malformed input, 3 obstruction.
Input that cannot be read or is nested too deeply for the JSON decoder, and
an --out that cannot be written, are malformed input.
Each request is checked against its JSON Schema 2020-12 in
cmcurve.serialize.SCHEMAS.  A request that the schema's acceptance predicate
(cmcurve.serialize.ACCEPTS) passes goes straight on: valid requests never
load jsonschema.  Any other request goes to a jsonschema validator, which
either accepts it after all or words the rejection.  The schemas themselves
are constants, meta-checked by the test suite rather than on every request.
main reads a request command's --in/--out argv itself (_request_args) and
hands any other argv (help, usage errors, verify) to the whole argparse
parser, so a request loads neither argparse nor the verify suites.  Every
level, the `project` target of `act`, every `tau.m` and every shadow support
entry is an integer from 1 to 2**64: each is factored in full, so a larger
one is rejected (exit 2) instead of being factored for an unbounded time.
Every other request integer lies within +-2**512 (serialize.INT_BOUND), so
no answer reaches the interpreter's limit on int-to-str conversion.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import approx, galois, serialize, shimura
from .adele import reciprocity_matrix
from .errors import CmcurveError, Obstruction, RViolation
from .matrices import Mat2, ModMat

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_OBSTRUCTED = 3

# audit table: which subcommand exposes each public operation
OPERATION_COVERAGE = {
    "factor": "verify",
    "squarefree_part": "verify",
    "jacobi": "verify",
    "sqrt_mod": "verify",
    "hilbert_symbol": "verify",
    "form_of": "point-eq",
    "reduce_form": "point-eq",
    "automorphs": "point-eq",
    "reduced_forms": "verify",
    "cornacchia": "verify",
    "solve_form_rational": "verify",
    "reduce_level": "fixed",
    "mul": "act",
    "shape_test": "fixed",
    "reciprocity_matrix": "orbit",
    "in_gamma_tilde": "verify",
    "conj_by_dlambda": "verify",
    "point_eq": "point-eq",
    "act_unit": "act",
    "act_rational": "act",
    "component": "act",
    "is_fixed": "fixed",
    "is_cm": "orbit",
    "orbit_rep": "orbit",
    "same_orbit": "orbit",
    "project": "act",
    "shadow_mul": "verify",
    "shadow_act": "act",
    "shadow_eq": "lift",
    "equalize_dets": "verify",
    "surjective_common_det": "verify",
    "branch_map": "lift",
    "component_action": "lift",
    "independent": "verify",
    "stable_saturation": "verify",
    "minimal_subtorus_check": "verify",
    "goursat": "verify",
    "approx_eq": "relation",
    "canonical_rep": "relation",
    "curve_component": "verify",
    "eval_curve": "verify",
    "relation_R": "relation",
    "faithfulness_check": "verify",
    "lift_automorphism": "lift",
}


def _read_input(path, schema_name):
    try:
        if path and path != "-":
            with open(path) as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    # ValueError: malformed JSON, and also an integer literal longer than
    # the interpreter's int-to-str digit limit, which json.load refuses
    except (OSError, ValueError, RecursionError) as exc:
        raise _BadInput(f"cannot read JSON input: {exc}") from exc
    if serialize.ACCEPTS[schema_name](data):
        return data
    import jsonschema

    # The schemas are constants, meta-checked once by the test suite; this is
    # jsonschema.validate without its per-call check_schema, same message.
    validator = jsonschema.Draft202012Validator(serialize.SCHEMAS[schema_name])
    error = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if error is not None:
        raise _BadInput(f"input does not match schema {schema_name}: {error.message}") from error
    return data


class _BadInput(Exception):
    pass


def _emit(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    try:
        if path and path != "-":
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise _BadInput(f"cannot write output: {exc}") from exc


# -- subcommand handlers -------------------------------------------------------


def cmd_point_eq(args):
    data = _read_input(args.infile, "point_eq")
    p1 = serialize.point_from_json(data["p1"])
    p2 = serialize.point_from_json(data["p2"])
    witness = shimura.point_eq_witness(p1, p2)
    out = {"equal": witness is not None, "witness": None}
    if witness is not None:
        out["witness"] = {
            "q": serialize.mat2_to_json(witness.q),
            "integral": serialize.intmat_to_json(witness.integral),
            "level": witness.level,
        }
    _emit(out, args.outfile)
    return EXIT_OK


def cmd_orbit(args):
    data = _read_input(args.infile, "orbit")
    tau = serialize.tau_from_json(data["tau"])
    n, r = shimura.orbit_rep(tau)
    out = {
        "n": n,
        "r": serialize.mat2_to_json(r),
        "cm": True,
        "norm_matrix_det": serialize.frac_to_json(
            reciprocity_matrix(tau.p, tau.q, tau.m).det()
        ),
    }
    if "other" in data:
        out["same_orbit"] = shimura.same_orbit(tau, serialize.tau_from_json(data["other"]))
    _emit(out, args.outfile)
    return EXIT_OK


def cmd_fixed(args):
    data = _read_input(args.infile, "fixed")
    P = serialize.point_from_json(data["point"])
    g = ModMat(*data["g"], P.level)
    out = {
        "fixed": shimura.is_fixed(g, P),
        "coordinate_mod_level": serialize.modmat_to_json(P.full_matrix()),
    }
    _emit(out, args.outfile)
    return EXIT_OK


def cmd_act(args):
    data = _read_input(args.infile, "act")
    P = serialize.point_from_json(data["point"])
    if "unit" in data:
        P = shimura.act_unit(ModMat(*data["unit"], P.level), P)
    if "rational" in data:
        P = shimura.act_rational(Mat2(*data["rational"]), P)
    if "shadow" in data:
        sigma = serialize.shadow_from_json(data["shadow"])
        P = galois.shadow_act(sigma, P)
    if "project" in data:
        P = shimura.project(P, data["project"])
    canonical = bool(data.get("canonicalize"))
    if canonical:
        P = approx.canonical_rep(approx.ApproxPoint(P))
    out = {
        "point": serialize.point_to_json(P, canonical=canonical),
        "component": shimura.component(P).mu,
    }
    _emit(out, args.outfile)
    return EXIT_OK


def cmd_relation(args):
    data = _read_input(args.infile, "relation")
    pts = [
        approx.ApproxPoint(serialize.point_from_json(data[k]))
        for k in ("s1", "s2", "t1", "t2")
    ]
    witness = approx.relation_witness(*pts)
    out = {"holds": witness is not None}
    if witness is not None:
        out.update(
            {
                "lambda": witness.lam,
                "branch": witness.branch,
                "r1": serialize.modmat_to_json(witness.r1),
                "r2": serialize.modmat_to_json(witness.r2),
            }
        )
    _emit(out, args.outfile)
    return EXIT_OK


def cmd_lift(args):
    data = _read_input(args.infile, "lift")
    table = [
        (
            approx.ApproxPoint(serialize.point_from_json(row["s"])),
            approx.ApproxPoint(serialize.point_from_json(row["t"])),
        )
        for row in data["table"]
    ]
    try:
        sigma = approx.lift_automorphism(table)
    except RViolation as exc:
        _emit({"lifted": False, "violating_row": exc.index}, args.outfile)
        return EXIT_CHECK_FAILED
    out = {
        "lifted": True,
        "shadow": serialize.shadow_to_json(sigma),
        "branch": galois.branch_map(sigma),
        "component_action": galois.component_action(sigma),
    }
    _emit(out, args.outfile)
    return EXIT_OK


def cmd_verify(args):
    from . import verify

    report = verify.run_suite(args.suite, verify.SuiteConfig(args.seed))
    _emit(report.to_json(), args.outfile)
    status = report.status()
    for check in report.checks:
        line = f"{check.status.upper():10s} {report.suite}:{check.name} ({check.seconds:.2f}s)"
        print(line, file=sys.stderr)
    if status == "fail":
        return EXIT_CHECK_FAILED
    if status == "obstructed":
        return EXIT_OBSTRUCTED
    return EXIT_OK


def _io_arguments(p):
    p.add_argument("--in", dest="infile", default="-", help="input JSON file (default stdin)")
    p.add_argument("--out", dest="outfile", default="-", help="output JSON file (default stdout)")


def _verify_arguments(p):
    from . import verify

    p.add_argument("suite", choices=verify.suite_names())
    p.add_argument(
        "--seed",
        type=int,
        # a string default goes through type=int only when verify is parsed,
        # so a malformed CMCURVE_SEED is a usage error of verify alone
        default=os.environ.get("CMCURVE_SEED", "0"),
        help="random seed (falls back to CMCURVE_SEED)",
    )
    p.add_argument("--out", dest="outfile", default="-")


# name -> (handler, help, adds the arguments), in the order of the usage line
COMMANDS = {
    "point-eq": (cmd_point_eq, "decide equality of two level points", _io_arguments),
    "orbit": (cmd_orbit, "orbit data of a quadratic point", _io_arguments),
    "fixed": (cmd_fixed, "fixed-point test for a level matrix", _io_arguments),
    "act": (cmd_act, "apply unit/rational/shadow actions and projections", _io_arguments),
    "relation": (cmd_relation, "the four-point relation on CM classes", _io_arguments),
    "lift": (cmd_lift, "lift a mapping table to a shadow", _io_arguments),
    "verify": (cmd_verify, "run a verification suite", _verify_arguments),
}


def build_parser():
    """The argparse parser with every subcommand: help, usage errors and verify."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cmcurve",
        description="Exact finite-level model of the modular-curve tower: "
        "CM points, quadratic forms, and the Galois shadow action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, helptext, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


def _request_args(argv):
    """What the whole parser makes of `CMD (--in|--out VALUE)*` for a request
    command CMD, each VALUE `-` or not starting with `-` (the last flag given
    wins); None for any other argv, which is the parser's to read."""
    entry = COMMANDS.get(argv[0]) if argv else None
    if entry is None or entry[2] is not _io_arguments or len(argv) % 2 == 0:
        return None
    files = {"--in": "-", "--out": "-"}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in files or (value.startswith("-") and value != "-"):
            return None
        files[flag] = value
    return SimpleNamespace(handler=entry[0], infile=files["--in"], outfile=files["--out"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _request_args(argv) or build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Obstruction as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTED
    except (ValueError, CmcurveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
