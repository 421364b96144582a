"""Answers the benchmark checks against, computed without sphmach.

Everything here is plain Python over integers, fractions and strings;
``perron_oracle`` uses sympy and numpy and runs in the parent process
only, so that they never inflate the workload process's memory.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


def base4_rule(n: int) -> str:
    """Bartholdi-Nekrashevych (Acta Math. 197, 2006): the rabbit twisted
    by t^n is the airplane when a base-4 digit of n is 1 or 2, and
    otherwise the rabbit (n >= 0) or the corabbit (n < 0)."""
    if n == 0:
        return "rabbit"
    digits, m = [], n
    while m not in (0, -1):
        digits.append(m % 4)
        m //= 4
    if any(d in (1, 2) for d in digits):
        return "airplane"
    return "rabbit" if n > 0 else "corabbit"


def int_matrix_power(A, k: int):
    n = len(A)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = [[sum(out[i][m] * A[m][j] for m in range(n)) for j in range(n)]
               for i in range(n)]
    return out


# Criterion 4 of the acceptance suite: lift multisets of s, t, u in the
# 120-orbit {s,t,u} biset, as (cycle degree, (generator, power)) counts.
CRITERION4_LIFTS = {
    "u": Counter({
        (2, ("s", 1)): 16, (2, ("t", 1)): 16, (2, ("u", 1)): 16,
        (2, ("s", 2)): 4, (2, ("t", 2)): 4, (2, ("u", 2)): 4,
    }),
    "s": Counter({(6, ("1", 0)): 8, (6, ("s", 5)): 4,
                  (6, ("t", 5)): 4, (6, ("u", 5)): 4}),
    "t": Counter({(6, ("1", 0)): 8, (6, ("s", 5)): 4,
                  (6, ("t", 5)): 4, (6, ("u", 5)): 4}),
}
CRITERION4_WEIGHTED_S = 64


def render_word(names, w) -> str:
    """A word of signed 1-based letters in the machine text syntax: runs
    of one letter print as name, name^k or name^-k."""
    parts = []
    i = 0
    while i < len(w):
        x = w[i]
        j = i
        while j < len(w) and w[j] == x:
            j += 1
        k = j - i
        name = names[abs(x) - 1]
        parts.append(name if (x > 0 and k == 1)
                     else f"{name}^{k if x > 0 else -k}")
        i = j
    return "*".join(parts)


def table_mismatches(data: dict, mcb) -> list[str]:
    """Differences between the JSON that was written and the table that
    load_mcb returned, read field by field from the loaded objects."""
    out = []
    basis = data["basis"]
    if list(mcb.basis_names) != basis:
        out.append("basis names differ")
    if list(mcb.alphabet) != data["alphabet"]:
        out.append("alphabet differs")
    names = data.get("group", {}).get("generators")
    if len(mcb.table) != len(data["table"]):
        out.append(f"{len(mcb.table)} edges loaded, {len(data['table'])} written")
    if names is not None and len(mcb.machines or ()) != len(data["machines"]):
        out.append("machine count differs")
    for rec in data["table"]:
        src = basis.index(rec["from"])
        edge = mcb.table.get((rec["gen"], src))
        if edge is None:
            out.append(f"edge ({rec['gen']}, {rec['from']}) missing")
            continue
        if basis[edge.target] != rec["to"]:
            out.append(f"edge ({rec['gen']}, {rec['from']}) has another target")
        if "knitting" in rec and (
                edge.knitting_word is None
                or render_word(data["alphabet"], edge.knitting_word)
                != rec["knitting"]):
            out.append(f"edge ({rec['gen']}, {rec['from']}) twist word differs")
        if "knitting_images" in rec and (
                edge.knitting_auto is None
                or [render_word(names, w) for w in edge.knitting_auto.images]
                != rec["knitting_images"]):
            out.append(f"edge ({rec['gen']}, {rec['from']}) knitting differs")
        if "basis_change" in rec:
            bc = edge.basis_change
            want = rec["basis_change"]
            if (bc is None
                    or [render_word(names, w) for w in bc.conjugators]
                    != want["conjugators"]
                    or [p + 1 for p in bc.relabel] != want["relabel"]):
                out.append(f"edge ({rec['gen']}, {rec['from']}) basis change differs")
        if len(out) > 5:
            break
    return out


def perron_oracle(entries, obstructed: bool, low: float, high: float):
    """Check an obstruction report against exact sympy root isolation.

    The largest real eigenvalue is isolated in a rational interval; the
    floating-point eigenvalues confirm that no complex eigenvalue has a
    larger modulus, so that root is the spectral radius.  Returns None
    when the report agrees, else a description."""
    import numpy
    import sympy

    A = [[Fraction(v) for v in row] for row in entries]
    M = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                      for row in A])
    x = sympy.Symbol("x")
    P = sympy.Poly(M.charpoly(x).as_expr(), x, domain="QQ")
    lo, hi = P.intervals(eps=sympy.Rational(1, 10**15))[-1][0]
    if lo < 1 <= hi and P.eval(1) != 0:
        lo, hi = P.refine_root(lo, hi, eps=sympy.Rational(1, 10**60))
    radius = max(abs(numpy.linalg.eigvals(numpy.array(
        [[float(v) for v in row] for row in A]))))
    if radius > float(hi) * (1 + 1e-6) + 1e-6:
        return f"an eigenvalue of modulus {radius} exceeds the largest real root"
    want = bool(lo >= 1 or P.eval(1) == 0)
    if obstructed != want:
        return f"obstructed={obstructed}, spectral radius in [{float(lo)}, {float(hi)}]"
    tol = 1e-12 * max(1.0, float(hi))
    if not (low - tol <= float(hi) and float(lo) <= high + tol):
        return f"bracket [{low}, {high}] misses the root in [{float(lo)}, {float(hi)}]"
    return None
