"""Answer checking for the benchmark, kept independent of the library.

Polynomials are dicts {(qdeg, udeg): coefficient} holding only nonzero
terms.  Golden tables are the frozen k = 3 tex renderings; the evaluator
here specializes a two-variable interpolation polynomial T(u, q) to the
three families it interpolates:

    u = 0          -> V   (generic, split form)
    u = 1          -> U   (unipotent, split form)
    (u, q) = (-1, -q), times (-1)^(d/2) with
    d = n^2 (k - 2) - sum of squared parts + 2   -> U' (unipotent, twisted)
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

GOLDEN_FAMILIES = ("V", "U", "Uprime")
_TEX_ROW = re.compile(r"^((?:\$\([^)]*\)\$ & )+)\$(.*)\$\\\\$")
_TEX_TERM = re.compile(r"^(\d*)(q(?:\^(\d+))?)?$")


# partitions and literals


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts weakly decreasing, in ascending tuple order."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, largest: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for p in range(min(rest, largest), 0, -1):
            rec(rest - p, p, acc + (p,))

    rec(n, n, ())
    return sorted(out)


def partition_text(lam: tuple[int, ...]) -> str:
    """Dot form with exponents, e.g. (2, 1, 1, 1) -> "2.1^3"."""
    pieces = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        pieces.append(str(lam[i]) if j - i == 1 else f"{lam[i]}^{j - i}")
        i = j
    return ".".join(pieces)


def parse_partition_text(text: str) -> tuple[int, ...]:
    parts: list[int] = []
    for piece in text.split("."):
        base, _, exp = piece.partition("^")
        parts.extend([int(base)] * (int(exp) if exp else 1))
    return tuple(parts)


def mu_literal(mu) -> str:
    return ",".join(partition_text(c) for c in mu)


def golden_key(mu) -> tuple:
    """Families are symmetric in the components; goldens list them sorted."""
    return tuple(sorted(tuple(c) for c in mu))


# polynomials


def poly_from_json(data) -> dict:
    out = {}
    for cstr, i, j in data:
        c = Fraction(cstr)
        if c:
            out[(int(i), int(j))] = c
    return out


def parse_tex_poly(text: str) -> dict:
    """Parse a q-polynomial as the tex tables print it, e.g. "q^5 - 2q + 1"."""
    body = text.strip()
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:]
    out: dict = {}
    for n, tok in enumerate(re.split(r" ([+-]) ", body)):
        if n % 2:
            sign = 1 if tok == "+" else -1
            continue
        m = _TEX_TERM.match(tok)
        if m is None or not tok:
            raise ValueError(f"bad term {tok!r} in {text!r}")
        coeff_s, qpart, exp_s = m.groups()
        coeff = int(coeff_s) if coeff_s else 1
        deg = (int(exp_s) if exp_s else 1) if qpart else 0
        c = out.get((deg, 0), 0) + sign * coeff
        if c:
            out[(deg, 0)] = c
        else:
            out.pop((deg, 0), None)
    return out


def parse_tex_table(text: str) -> dict:
    """Rows of a tex table: {sorted multipartition: polynomial in q}."""
    rows = {}
    for line in text.splitlines()[3:-1]:
        m = _TEX_ROW.match(line)
        if m is None:
            raise ValueError(f"bad tex row {line!r}")
        cells = [c[2:-2] for c in m.group(1).split(" & ") if c]
        rows[golden_key(parse_partition_text(c) for c in cells)] = parse_tex_poly(m.group(2))
    return rows


def _collect(pairs) -> dict:
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def u_at_zero(t: dict) -> dict:
    return {(i, 0): c for (i, j), c in t.items() if j == 0}


def u_at_one(t: dict) -> dict:
    return _collect(((i, 0), c) for (i, j), c in t.items())


def twisted_sign(mu) -> int:
    k = len(mu)
    n = sum(mu[0])
    d = n * n * (k - 2) - sum(p * p for comp in mu for p in comp) + 2
    if d % 2:
        raise ValueError(f"odd pairing degree {d} for {mu}")
    return -1 if (d // 2) % 2 else 1


def u_at_minus_one(t: dict, mu) -> dict:
    """(u, q) = (-1, -q) with the sign (-1)^(d/2)."""
    s = twisted_sign(mu)
    return _collect(((i, 0), s * c * (-1) ** (i + j)) for (i, j), c in t.items())


def top_u(t: dict, n: int) -> dict:
    """[u^(n-1)] T as a polynomial in q."""
    return {(i, 0): c for (i, j), c in t.items() if j == n - 1}


def q_to_minus_q(p: dict) -> dict:
    return {(i, j): c * (-1) ** i for (i, j), c in p.items()}


def is_signed(p: dict, ref: dict) -> bool:
    """p == ref or p == -ref."""
    return p == ref or p == {key: -c for key, c in ref.items()}


def specializations(t: dict, mu) -> dict:
    """The three golden families obtained from one T polynomial."""
    return {"V": u_at_zero(t), "U": u_at_one(t), "Uprime": u_at_minus_one(t, mu)}


def poly_text(p: dict) -> str:
    if not p:
        return "0"
    return " + ".join(f"{c}*q^{i}*u^{j}" for (i, j), c in sorted(p.items(), reverse=True))


class Goldens:
    """Frozen k = 3 reference tables, loaded on demand from one directory."""

    def __init__(self, data_dir: str):
        self.data_dir = data_dir
        self._tables: dict = {}

    def path(self, which: str, n: int) -> str:
        return os.path.join(self.data_dir, f"{which}_n{n}.tex")

    def table(self, which: str, n: int) -> dict:
        key = (which, n)
        if key not in self._tables:
            with open(self.path(which, n), encoding="utf-8") as fh:
                self._tables[key] = parse_tex_table(fh.read())
        return self._tables[key]

    def row(self, which: str, mu) -> dict:
        return self.table(which, sum(mu[0])).get(golden_key(mu), {})


def check_t_table(stdout: str, goldens: Goldens, n: int) -> list[str]:
    """Every row of a k = 3 T table against the three golden tables, in
    both directions: a golden row missing from T is a mismatch too."""
    rows = json.loads(stdout)["rows"]
    got = {fam: {} for fam in GOLDEN_FAMILIES}
    for row in rows:
        mu = tuple(parse_partition_text(c) for c in row["mu"])
        for fam, p in specializations(poly_from_json(row["poly"]), mu).items():
            if p:
                got[fam][golden_key(mu)] = p
    errors = []
    for fam in GOLDEN_FAMILIES:
        want = goldens.table(fam, n)
        for key in sorted(set(want) | set(got[fam])):
            if want.get(key, {}) != got[fam].get(key, {}):
                errors.append(
                    f"T table n={n} at {mu_literal(key)}: {fam} specialization "
                    f"{poly_text(got[fam].get(key, {}))} != golden {poly_text(want.get(key, {}))}"
                )
    return errors


def check_verify_report(stdout: str) -> list[str]:
    report = json.loads(stdout)
    errors = []
    if report.get("ok") is not True:
        errors.append("verify report is not ok")
    items = report.get("items") or []
    if not items:
        errors.append("verify report has no identity families")
    for item in items:
        if item.get("failures") != 0 or not item.get("cases"):
            errors.append(f"verify item {item.get('name')}: {item.get('cases')} cases, "
                          f"{item.get('failures')} failures")
    return errors


def check_pair_group(mu, answers: dict, goldens: Goldens) -> dict:
    """Check the answers of one multipartition's queries, one per family.

    answers maps a family to its polynomial, or to None when the query
    failed.  k = 3 answers are checked against the goldens; k = 4 answers
    against the T answer of the same group, which is in turn checked by
    [u^(n-1)] T = kron.  Returns {family: error message} for each answer
    that is wrong or could not be checked."""
    k, n = len(mu), sum(mu[0])
    errors: dict = {}
    t = answers.get("T")
    want: dict = {}
    if k == 3:
        want = {fam: goldens.row(fam, mu) for fam in GOLDEN_FAMILIES}
        if t is not None and specializations(t, mu) != want:
            errors["T"] = "specializations of T disagree with the golden rows"
    elif t is not None:
        want = specializations(t, mu)
    kron = answers.get("kron")
    if t is not None and kron is not None and top_u(t, n) != kron:
        errors["T"] = errors["kron"] = f"[u^{n - 1}] T = {poly_text(top_u(t, n))} but kron = {poly_text(kron)}"
    for fam, got in answers.items():
        if got is None or fam in errors:
            continue
        if fam in GOLDEN_FAMILIES:
            ref = want.get(fam)
            ok = ref is not None and got == ref
        elif fam == "Vprime":
            ref = want.get("V")
            ok = ref is not None and is_signed(got, q_to_minus_q(ref))
        else:
            ref = t
            ok = t is not None
        if ref is None:
            errors[fam] = "reference query failed, answer unchecked"
        elif not ok:
            errors[fam] = f"{fam} = {poly_text(got)}, expected from {poly_text(ref)}"
    return errors
