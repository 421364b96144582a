"""Command line front end.

Exit codes: 0 = success / positive answer, 1 = negative answer,
2 = inconclusive (search bound or step limit reached), 3 = input error.
JSON reports for identical inputs are byte-identical across runs;
timing is only attached when --timing is passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from pathlib import Path

from . import perms
from .words import run_length_str
from .machine import (
    BasisChange, validate_sphere, multiset_of_lifts, portrait,
    tensor, change_basis, _quoted,
)
from .mcbiset import (
    compute_mcbiset, full_twist_generators, same_left_orbit, conjugacy_iterate,
    monodromy, correspondence_invariants,
)
from .multicurve import (
    Multicurve, SplitFailed, PromoteFailed,
    thurston_matrix, is_obstructed,
    TwistFixedPointProblem, LinExpr, solve_twist_fixed_point, mc_to_gog,
    promote_bijection,
)
from .machfile import (
    MachineFile, ParseError, parse_machine_file, print_machine_file,
    parse_word, parse_twist_word, parse_cycles, mcb_from_json, save_mcb,
)


class CliError(Exception):
    """An input error: the command exits 3 with the message."""


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors too, so they exit 3, not argparse's 2."""

    def error(self, message):
        if "expected one argument" in message:
            message += " (a value starting with '-' is written --option=value)"
        raise CliError(f"{self.prog}: {message}")


# path -> sha256 prefix of the text read from it, for the report
_inputs: dict[str, str] = {}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    _inputs[path] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return text


def _write(path: str, write) -> None:
    """Call write(), which writes path; an OSError is an input error."""
    try:
        write()
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _load_machine_file(path: str) -> MachineFile:
    try:
        return parse_machine_file(_read(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _curves_for(mf: MachineFile, arg: str | None) -> Multicurve:
    if arg:
        reps = [parse_word(x.strip(), mf.machine.source)
                for x in arg.split(",")]
        return Multicurve(mf.machine.source, reps)
    if mf.curves is not None:
        return mf.curves
    raise CliError("no multicurve: pass --curves or add a curves: block")


def _gens_for(mf: MachineFile, arg: str | None):
    M = mf.machine
    if not arg or arg == "twists":
        return full_twist_generators(M.source)
    out = {}
    for nm in (x.strip() for x in arg.split(",")):
        if nm not in mf.autos:
            raise CliError(
                f"automorphism {_quoted(nm)} not defined in the file")
        if nm in out:
            raise CliError(f"--gens: {_quoted(nm)} is named twice")
        out[nm] = mf.autos[nm]
    return list(out.items())


def _report(args, result, started: float):
    if args.json:
        payload = {"command": args.command, "inputs": _inputs,
                   "result": result}
        if args.timing:
            payload["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
        print(json.dumps(payload, sort_keys=True))
        return
    _print_plain(result)


def _print_plain(result, indent=""):
    if isinstance(result, dict):
        for k, v in result.items():
            if isinstance(v, (dict, list)) and v and not isinstance(v, str):
                print(f"{indent}{k}:")
                _print_plain(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(result, list):
        for v in result:
            _print_plain(v, indent)
    else:
        print(f"{indent}{result}")


def cmd_validate(args):
    mf = _load_machine_file(args.machine)
    rep = validate_sphere(mf.machine)
    result = {
        "relator": rep.relator_ok,
        "SB1_transitive": rep.transitive,
        "SB2_riemann_hurwitz": rep.riemann_hurwitz,
        "SB3_lifts_partition": rep.lifts_partition,
        "sphere_biset": rep.is_sphere_biset,
        "details": rep.details,
    }
    return result, 0 if rep.is_sphere_biset else 1


def cmd_lifts(args):
    mf = _load_machine_file(args.machine)
    M = mf.machine
    w = parse_word(args.word, M.source)
    lifts = multiset_of_lifts(M, w)
    entries = lifts.entries if not args.essential \
        else [(d, c) for d, c in lifts.entries if not c.is_trivial()]
    return {
        "class": M.source.word_str(w) or "1",
        "lifts": [{"degree": d, "class": M.target.word_str(c.canonical) or "1"}
                  for d, c in entries],
        "total_degree": lifts.total_degree(),
    }, 0


def cmd_portrait(args):
    mf = _load_machine_file(args.machine)
    p = portrait(mf.machine)
    return {"portrait": p.describe(mf.machine)}, 0


def cmd_tensor(args):
    m1 = _load_machine_file(args.machine)
    m2 = _load_machine_file(args.other)
    M = tensor(m1.machine, m2.machine)
    text = print_machine_file(MachineFile(M))
    if args.output:
        _write(args.output, lambda: Path(args.output).write_text(text))
        return {"written": args.output, "degree": M.degree}, 0
    sys.stdout.write(text)
    return None, 0


def cmd_rebase(args):
    mf = _load_machine_file(args.machine)
    M = mf.machine
    conj = tuple(parse_word(x.strip(), M.target)
                 for x in args.conjugators.split(","))
    try:
        relabel = parse_cycles((args.relabel or "").strip(), M.degree)
    except ParseError as exc:
        raise CliError(f"--relabel: {exc}")
    out = change_basis(M, BasisChange(conj, relabel))
    sys.stdout.write(print_machine_file(MachineFile(out)))
    return None, 0


def cmd_mcbiset(args):
    mf = _load_machine_file(args.machine)
    gens = _gens_for(mf, args.gens)
    mcb = compute_mcbiset(mf.machine, gens)
    if args.output:
        _write(args.output, lambda: save_mcb(mcb, args.output))
    return {
        "basis_size": mcb.size,
        "generators": [nm for nm, _ in gens],
        "written": args.output,
    }, 0


def cmd_iso(args):
    m1 = _load_machine_file(args.machine)
    m2 = _load_machine_file(args.other)
    phi = same_left_orbit(m1.machine, m2.machine)
    if phi is None:
        return {"same_left_orbit": False}, 1
    G = phi.group
    return {
        "same_left_orbit": True,
        "knitting": [G.word_str(w) or "1" for w in phi.images],
    }, 0


def cmd_classify_twist(args):
    try:
        mcb = mcb_from_json(json.loads(_read(args.mcb)))
    except (KeyError, ValueError) as exc:
        raise CliError(f"{args.mcb}: {exc}")
    word = parse_twist_word(args.word, mcb.alphabet)
    term = conjugacy_iterate(mcb, (word, mcb.base), max_steps=args.max_steps)
    states = [{"twist": run_length_str(mcb.alphabet, w) or "1",
               "basis": mcb.basis_names[k]} for w, k in term.states]
    result = {"kind": term.kind, "steps": term.steps, "terminal": states}
    return result, 0 if term.kind != "max-steps" else 2


def cmd_monodromy(args):
    mf = _load_machine_file(args.machine)
    rep = monodromy(mf.machine)
    return {
        "degree": rep.degree,
        "generators": [perms.cycle_string(p) or "()" for p in rep.generators],
        "order": rep.order,
        "transitive": rep.transitive,
    }, 0


def _thurston_matrix(args):
    """The Thurston matrix of the machine file's multicurve."""
    mf = _load_machine_file(args.machine)
    return thurston_matrix(mf.machine, _curves_for(mf, args.curves))


def cmd_thurston_matrix(args):
    T = _thurston_matrix(args)
    return {
        "rows": T.rows,
        "cols": T.cols,
        "matrix": [[str(x) for x in row] for row in T.entries],
    }, 0


def cmd_obstructed(args):
    T = _thurston_matrix(args)
    rep = is_obstructed(T)
    return {
        "matrix": [[str(x) for x in row] for row in T.entries],
        "obstructed": rep.obstructed,
        "perron_bracket": [rep.perron_low, rep.perron_high],
    }, 0 if rep.obstructed else 1


# a term: [-]int, [-]name or [-]int*name, where a name is an identifier
# that does not start with "_" (solve_twist_fixed_point's free parameters
# are named _w<i>)
_LIN_TERM = re.compile(r"(-?)(?:([0-9]+)|(?:([0-9]+)\*)?([^\W\d_]\w*))")


def _parse_lin_expr(text: str) -> LinExpr:
    """Affine expressions like '2*a + 3*b - 1'."""
    expr = LinExpr()
    # terms are split at each '+' and before each '-' that follows no '+'
    for term in re.split(r"\+|(?<=[^+])(?=-)", text.replace(" ", "")):
        m = _LIN_TERM.fullmatch(term)
        if m is None:
            raise CliError(f"--theta: bad term {_quoted(term)} in "
                           f"{_quoted(text)}: a term "
                           "is [-]int, [-]name or [-]int*name, and a name an "
                           "identifier not starting with '_'")
        sign = -1 if m[1] else 1
        try:
            if m[2]:
                expr = expr + LinExpr.of(sign * int(m[2]))
            else:
                expr = expr + LinExpr.var(m[4]).scale(sign * int(m[3] or 1))
        except ValueError:  # more digits than int() converts
            raise CliError(f"--theta: term {_quoted(term)} has too many "
                           "digits") from None
    return expr


def cmd_solve_twists(args):
    T = _thurston_matrix(args)
    theta = [_parse_lin_expr(x) for x in args.theta.split(",")]
    if len(theta) != len(T.cols):
        raise CliError("need one theta entry per curve")
    sol = solve_twist_fixed_point(TwistFixedPointProblem(T, theta))
    return {
        "constraints": [str(c) + " = 0" for c in sol.constraints],
        "congruences": [f"{c} = 0 mod {m}" for c, m in sol.congruences],
        "solution": {lab: str(e) for lab, e in zip(T.cols, sol.solution)},
        "free_rank": sol.free_rank,
    }, 0


def cmd_split(args):
    mf = _load_machine_file(args.machine)
    curves = _curves_for(mf, args.curves)
    tree = mc_to_gog(mf.machine.source, curves, bound=args.bound)
    if args.dot:
        print(tree.to_dot())
        return None, 0
    return {"split": True, "tree": tree.to_json()}, 0


def cmd_promote(args):
    mf1 = _load_machine_file(args.machine)
    mf2 = _load_machine_file(args.other)
    G1, G2 = mf1.machine.source, mf2.machine.source

    def tag(lbl, G):
        # a generator name first: a generator may be called c1
        if lbl in G.names:
            return ("puncture", G.index_of(lbl))
        if lbl.startswith("c") and lbl[1:].isdecimal():
            try:
                return ("curve", int(lbl[1:]))
            except ValueError:  # past int()'s limit on digits
                raise CliError(f"--map: curve label {_quoted(lbl)} has too "
                               "many digits") from None
        raise CliError(f"--map: unknown generator {_quoted(lbl)}")

    h = {}
    for pair in args.map.split(","):
        labels = [x.strip() for x in pair.split(":")]
        if len(labels) != 2:
            raise CliError("--map: expected label:label, got "
                           f"{_quoted(pair.strip())}")
        src = tag(labels[0], G1)
        if src in h:
            raise CliError(f"--map: {_quoted(labels[0])} is mapped twice")
        h[src] = tag(labels[1], G2)
    c1 = _curves_for(mf1, args.curves)
    c2 = _curves_for(mf2, args.curves_other)
    t1 = mc_to_gog(G1, c1, bound=args.bound)
    t2 = mc_to_gog(G2, c2, bound=args.bound)
    try:
        got = promote_bijection(t1, t2, h)
    except PromoteFailed as exc:
        return {"promoted": False, "failed_step": exc.step,
                "detail": str(exc)}, 1
    return {
        "promoted": True,
        "vertex_map": {t1.spheres[i].name: t2.spheres[j].name
                       for i, j in got.vertex_map.items()},
    }, 0


def cmd_invariants(args):
    mf = _load_machine_file(args.machine)
    M = mf.machine
    if M.source.n != 3:
        raise CliError("invariants needs a machine over three punctures")
    gens = [M.rows[i - 1].perm for i in M.source.relator]
    inv = correspondence_invariants(gens)
    return {
        "sheets": inv.sheets,
        "punctures": inv.punctures,
        "euler_characteristic": inv.euler_characteristic,
        "genus": inv.genus,
    }, 0


def _nonnegative(text: str) -> int:
    """The value of --bound or --max-steps: an integer >= 0."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {_quoted(text)}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(
            f"{_quoted(text)} has too many digits") from None


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="sphmach",
        description="Exact computation with sphere machines, mapping class "
                    "bisets and Thurston obstructions.")
    ap.add_argument("--json", action="store_true", help="JSON report output")
    ap.add_argument("--timing", action="store_true",
                    help="attach wall time to JSON reports")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check the sphere biset axioms")
    p.add_argument("machine")
    p = add("lifts", cmd_lifts, help="multiset of lifts of a conjugacy class")
    p.add_argument("machine")
    p.add_argument("word")
    p.add_argument("--essential", action="store_true",
                   help="suppress trivial lifts")
    p = add("portrait", cmd_portrait, help="puncture portrait with degrees")
    p.add_argument("machine")
    p = add("tensor", cmd_tensor, help="compose two machines")
    p.add_argument("machine")
    p.add_argument("other")
    p.add_argument("-o", "--output")
    p = add("rebase", cmd_rebase, help="apply a basis change")
    p.add_argument("machine")
    p.add_argument("--conjugators", required=True,
                   help="comma-separated target-group words")
    p.add_argument("--relabel", help="relabeling in cycle notation")
    p = add("mcbiset", cmd_mcbiset, help="enumerate the mapping class biset")
    p.add_argument("machine")
    p.add_argument("--gens", help="'twists' (default) or comma-separated "
                                  "automorphism names from the file")
    p.add_argument("-o", "--output", help="write the biset as JSON")
    p = add("iso", cmd_iso, help="left-orbit test with knitting witness")
    p.add_argument("machine")
    p.add_argument("other")
    p = add("classify-twist", cmd_classify_twist,
            help="conjugacy iteration in a mapping class biset")
    p.add_argument("mcb")
    p.add_argument("word")
    p.add_argument("--max-steps", type=_nonnegative, default=10_000)
    p = add("monodromy", cmd_monodromy, help="monodromy permutation group")
    p.add_argument("machine")
    p = add("thurston-matrix", cmd_thurston_matrix,
            help="exact rational transition matrix of a multicurve")
    p.add_argument("machine")
    p.add_argument("--curves")
    p = add("obstructed", cmd_obstructed,
            help="annular obstruction test (spectral radius >= 1)")
    p.add_argument("machine")
    p.add_argument("--curves")
    p = add("solve-twists", cmd_solve_twists,
            help="integer fixed-point solver v = theta + T v")
    p.add_argument("machine")
    p.add_argument("--curves")
    p.add_argument("--theta", required=True,
                   help="comma-separated affine expressions; write one "
                        "starting with '-' as --theta=-a,2*b")
    p = add("split", cmd_split, help="sphere tree of groups of a multicurve")
    p.add_argument("machine")
    p.add_argument("--curves")
    p.add_argument("--bound", type=_nonnegative, default=4)
    p.add_argument("--dot", action="store_true")
    p = add("promote", cmd_promote,
            help="promote a class bijection to a tree conjugator")
    p.add_argument("machine")
    p.add_argument("other")
    p.add_argument("--curves")
    p.add_argument("--curves-other")
    p.add_argument("--map", required=True,
                   help="comma-separated tag pairs like x1:y2,c0:c0")
    p.add_argument("--bound", type=_nonnegative, default=4)
    p = add("invariants", cmd_invariants,
            help="covering surface invariants of a three-puncture machine")
    p.add_argument("machine")
    return ap


def main(argv=None) -> int:
    _inputs.clear()
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        result, code = args.fn(args)
    except SplitFailed as exc:
        # split and promote answer a failed split alike: inconclusive when
        # the bound ran out, negative for the definite kinds
        result = {"split": False, "kind": exc.kind, "detail": str(exc)}
        code = 2 if exc.kind == "bound-exhausted" else 1
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if result is not None:
        _report(args, result, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
