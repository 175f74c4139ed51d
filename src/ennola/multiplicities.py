"""Tensor-product multiplicity polynomials for the finite general linear
and unitary groups.

The pipeline: build the Cauchy kernel Omega (transformed Hall-Littlewood
products weighted by inverse unipotent centralizer orders), take its
plethystic logarithm scaled by (q - 1) to get the master series Psi whose
Schur coefficients are the generic multiplicities, then form the
plethystic exponential of u * Psi whose Schur coefficients, divided by u,
are the two-variable interpolation polynomials.  Specializing u to 0, 1,
and -1 (the last with q -> -q and an explicit sign) recovers the generic,
general-linear unipotent, and unitary unipotent multiplicities.  Each
stage keeps degree n over a denominator known in closed form: the kernel
over (q;q)_n, its plain logarithm over q^n - 1, and the master series,
Exp(u Psi) and the product routes' log sums over 1 (symfunc.SymFunc).

Infinite products with orbit-count exponents give an independent
recomputation of the same polynomials and serve as cross-checks.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections import namedtuple
from itertools import product
from math import prod

try:  # the builtin SHA-256: importing hashlib loads OpenSSL, +3.7 MB peak RSS
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256  # builds without the builtin hashes

from .coeffs import (
    ONE,
    Q,
    U,
    PolyQU,
    norm1,
    pack,
    poly_exact_div,
    poly_from_json,
    poly_to_json,
    unpack,
)
from .characters import kronecker
from .hall_littlewood import transformed_hl
from .partitions import (
    MultiPartition,
    a_poly,
    check_multipartition,
    dual,
    enumerate_partitions,
    multipartition_to_text,
    multipartitions,
    n_stat,
    parse_partition,
    partition_to_text,
    q_pochhammer,
    size,
)
from .symfunc import (
    GradedSeries,
    SymFunc,
    mobius,
    tensor_expand,
)
from .types import (
    TypeEntries,
    from_partition,
    make_type,
    schur_of_type,
    type_size,
    type_stats,
)

CACHE_VERSION = 3
MINUS_ONE = ONE.scale(-1)


def phi_u(d: int) -> PolyQU:
    """d phi_{u,d}, an integer polynomial, for the orbit count phi_{u,d} =
    (1/d) sum over r | d of mu(r) u^{d/r} (q^{d/r} - 1), which is
    integer-valued at every integer q and u."""
    if d < 1:
        raise ValueError("d must be positive")
    acc = PolyQU()
    for r in range(1, d + 1):
        if d % r == 0 and mobius(r):
            e = d // r
            acc = acc + ((U ** e) * (Q ** e - ONE)).scale(mobius(r))
    return acc


def phi_prime(d: int) -> PolyQU:
    """d phi'_d, for the twisted-form orbit count phi'_d: phi_u at
    (u, q) = (-1, -q), which is (1/d) sum of mu(r) (q^{d/r} - (-1)^{d/r})."""
    return phi_u(d).subst(q=-Q, u=MINUS_ONE)


class SignData(namedtuple("SignData", "d_mu sign_uprime")):
    """Parity data attached to a multipartition: the even integer d and the
    sign (-1)^(d/2) of U' = (-1)^(d/2) T(-1, -q)."""

    __slots__ = ()


def d_mu(mu: MultiPartition) -> SignData:
    mu = check_multipartition(mu)
    k, n = len(mu), size(mu[0])
    d = n * n * (k - 2) - sum(p * p for comp in mu for p in comp) + 2
    if d % 2:
        raise AssertionError(f"odd pairing degree {d} for {mu}")
    return SignData(d_mu=d, sign_uprime=-1 if (d // 2) % 2 else 1)


def as_multitype(arg) -> tuple[TypeEntries, ...]:
    """Accept a multipartition or a multitype; return the multitype, each
    component validated and in canonical form (types.make_type)."""
    comps = tuple(make_type(c) if c and isinstance(c[0], tuple) else from_partition(c)
                  for c in arg)
    if len({type_size(c) for c in comps}) > 1:
        raise ValueError("components of different sizes")
    return comps


class MasterContext:
    """Shared state for one (k, N): the kernel series, the master series,
    its u-exponential, and per-degree Schur coefficient tables.  All the
    heavy series are built lazily.  A disk cache holds one file per degree,
    the master series' Schur table, and only psi_schur writes one.  So a
    V or V' query of size n reads and writes only the degree-n file and
    never builds the master series from a warm cache; verify and
    `cache build` write every degree; T, U and U' rebuild the master
    series from all N files when each is present and never write one.  A
    failed cache write does not stop a query; it is kept in
    cache_write_error."""

    def __init__(self, k: int, N: int, cache_dir: str | None = None):
        if k < 1 or N < 1:
            raise ValueError("k and N must be positive")
        self.k = k
        self.N = N
        self.cache_dir = cache_dir
        self._omega: GradedSeries | None = None
        self._psi: GradedSeries | None = None
        self._exp_u_psi: GradedSeries | None = None
        self._r_series: GradedSeries | None = None
        self._psi_schur: dict[int, dict[MultiPartition, PolyQU]] = {}
        self._tau_schur: dict[int, dict[MultiPartition, PolyQU]] = {}
        self.ignored_cache_files: list[str] = []
        self.cache_write_error: OSError | None = None

    @property
    def omega(self) -> GradedSeries:
        if self._omega is None:
            self._omega = _build_omega(self.k, self.N)
        return self._omega

    @property
    def psi(self) -> GradedSeries:
        if self._psi is None:
            self._psi = self._psi_from_cache()
            if self._psi is None:
                # Psi = (q - 1) Log Omega; degree n of Log Omega is over
                # q^n - 1, so Psi_n is its numerators over [n]_q =
                # (q^n - 1)/(q - 1), which cancels exactly
                log = self.r_series().adams_sum(mobius).coeffs
                self._psi = GradedSeries(self.k, self.N, log[:1] + [
                    f._with(f.coeffs, poly_exact_div(f.den, Q - ONE)).over(ONE) for f in log[1:]])
        return self._psi

    @property
    def exp_u_psi(self) -> GradedSeries:
        if self._exp_u_psi is None:
            self._exp_u_psi = self.psi.scale(U).pleth_exp([ONE] * (self.N + 1))
        return self._exp_u_psi

    def r_series(self) -> GradedSeries:
        """Coefficients of the plain logarithm of the kernel series; degree
        n is over q^n - 1."""
        if self._r_series is None:
            dens = [ONE] + [Q**n - ONE for n in range(1, self.N + 1)]
            self._r_series = self.omega.plain_log(dens)
        return self._r_series

    # master-series Schur tables

    def psi_schur(self, n: int) -> dict[MultiPartition, PolyQU]:
        """Schur coefficients of the degree-n master series coefficient at
        the sorted multipartitions; values are integer polynomials in q."""
        if n in self._psi_schur:
            return self._psi_schur[n]
        if not 1 <= n <= self.N:
            raise ValueError(f"degree {n} outside 1..{self.N}")
        table = self._load_cached(n) if self.cache_dir else None
        if table is None:
            table = self.psi.coeffs[n].to_schur()
            if self.cache_dir:
                try:
                    save_cache(self.cache_dir, self.k, n, table)
                except OSError as exc:
                    self.cache_write_error = exc
        self._psi_schur[n] = table
        return table

    def _load_cached(self, n: int) -> dict[MultiPartition, PolyQU] | None:
        """The cached degree-n table, or None; a file that is present but
        fails to load is recorded in ignored_cache_files."""
        table = load_cache(self.cache_dir, self.k, n)
        path = cache_path(self.cache_dir, self.k, n)
        if table is None and os.path.exists(path) and path not in self.ignored_cache_files:
            self.ignored_cache_files.append(path)
        return table

    def _psi_from_cache(self) -> GradedSeries | None:
        """Rebuild the master series from fully cached Schur tables."""
        if not self.cache_dir:
            return None
        tables = []
        for n in range(1, self.N + 1):
            t = self._psi_schur.get(n) or self._load_cached(n)
            if t is None:
                return None
            tables.append(t)
        coeffs = [SymFunc.zero(self.k, 0)]
        for n, table in enumerate(tables, start=1):
            self._psi_schur[n] = table
            coeffs.append(SymFunc.from_schur(self.k, n, table))
        return GradedSeries(self.k, self.N, coeffs)

    def tau_schur(self, n: int) -> dict[MultiPartition, PolyQU]:
        """Interpolation polynomials for the sorted multipartitions of n."""
        if n in self._tau_schur:
            return self._tau_schur[n]
        if not 1 <= n <= self.N:
            raise ValueError(f"degree {n} outside 1..{self.N}")
        table = {key: _div_u(p, key) for key, p in self.exp_u_psi.coeffs[n].to_schur().items()}
        self._tau_schur[n] = table
        return table


def _div_u(p: PolyQU, key) -> PolyQU:
    """Exact division by u with degree sanity checks."""
    shifted = {}
    for (i, j), c in p.terms.items():
        if j < 1:
            raise AssertionError(f"coefficient of {key} not divisible by u: {p}")
        shifted[(i, j - 1)] = c
    out = PolyQU(shifted)
    n = sum(key[0]) if key else 0
    if out.udeg() > max(n - 1, 0):
        raise AssertionError(f"u-degree of {out} exceeds n-1 for {key}")
    return out


def _build_omega(k: int, N: int) -> GradedSeries:
    """The kernel: sum over lam of the product over the k alphabets of
    H~_lam(x_i) / a_lam(q).  On the basis b_rho the coefficients of H~_lam
    are the Green polynomials Q^lam_rho(q) = sum over nu of
    chi^nu(rho) K~_{nu lam}(q), integer polynomials (Macdonald III.7), so
    the product is their k-fold tensor power at the sorted keys
    (symfunc.tensor_expand).  Degree n is summed over q^S (q;q)_n, S the
    largest power of q in an a_lam(q): every a_lam(q) = q^e prod
    (q;q)_{m_i} divides it, because q-multinomials are polynomials.  The
    q^S cancels exactly and Omega_n is over (q;q)_n.

    The sum runs on packed integers (coeffs.pack), unpacked once per key.
    A numerator is a sum over lam of den/a_lam times k Green polynomials;
    since |f g|_max <= |f|_1 |g|_max, its coefficients are at most
    sum over lam of |den/a_lam|_1 (max over rho of |Q^lam_rho|_1)^k."""
    coeffs = [SymFunc.one(k)]
    for n in range(1, N + 1):
        a = {lam: a_poly(lam) for lam in enumerate_partitions(n)}
        q_shift = max(min(i for i, _ in p.terms) for p in a.values())  # S
        den = Q**q_shift * q_pochhammer(n)
        terms = [(poly_exact_div(den, a_lam),
                  [(rho, v) for (rho,), v in
                   SymFunc.from_schur(1, n, transformed_hl(lam)).coeffs.items()])
                 for lam, a_lam in a.items()]
        bound = sum(norm1(start) * max(norm1(v) for _, v in items) ** k
                    for start, items in terms)
        B = bound.bit_length() + 1
        W = 1 + max(start.qdeg() + k * max(v.qdeg() for _, v in items)
                    for start, items in terms)
        acc: dict[MultiPartition, int] = {}
        for start, items in terms:
            packed = [(rho, pack(v, B, W)) for rho, v in items]
            for key, c in tensor_expand([packed] * k, pack(start, B, W)):
                acc[key] = acc.get(key, 0) + c
        nums = {key: unpack(v, B, W) for key, v in acc.items()}
        coeffs.append(SymFunc(k, n, nums, den).over(q_pochhammer(n)))
    return GradedSeries(k, N, coeffs)


def build_context(k: int, N: int, cache_dir: str | None = None) -> MasterContext:
    return MasterContext(k, N, cache_dir)


# generic multiplicities


def H_omega(ctx: MasterContext, mt) -> PolyQU:
    """Hall pairing of the degree-n master coefficient with the Schur-type
    product attached to a multitype, as as_multitype returns it: the sum
    over nu of the Schur table entry at nu times the s_{nu^i} coefficients
    of the k Schur-type factors; an integer polynomial in q."""
    if len(mt) != ctx.k:
        raise ValueError(f"expected {ctx.k} components, got {len(mt)}")
    table = ctx.psi_schur(type_size(mt[0]))
    total = PolyQU()
    for combo in product(*(schur_of_type(tau).items() for tau in mt)):
        p = table.get(tuple(sorted(nu for (nu,), _ in combo)))
        if p is not None:
            total = total + prod((c for _, c in combo), start=p)
    return total


def _multitype_signs(mt) -> tuple[int, int]:
    """The signs s, s' of V(q) = s H(q) and V'(q) = s' H(-q), H the pairing
    H_omega: s = (-1)^r and s' = (-1)^(r' + n_dual + n + 1), with r, r'
    and n_dual summed over the components."""
    n = type_size(mt[0])
    r = rp = nd = 0
    for comp in mt:
        r_c, rp_c = type_stats(comp)
        r += r_c
        rp += rp_c
        nd += sum(m * d * n_stat(dual(lam)) for d, lam, m in comp)
    return (-1) ** r, (-1) ** (rp + nd + n + 1)


def V_pair(ctx: MasterContext, omega) -> tuple[PolyQU, PolyQU]:
    """The generic multiplicities (V, V') for the split and the twisted
    form, from one pairing H = H_omega: V(q) = (-1)^r H(q) and, by the
    stated sign identity V'(q) = +-V(-q), V'(q) = (-1)^(r' + n_dual + n + 1)
    H(-q)."""
    mt = as_multitype(omega)
    h = H_omega(ctx, mt)
    s, s_prime = _multitype_signs(mt)
    return h.scale(s), h.subst(q=-Q).scale(s_prime)


def V_poly(ctx: MasterContext, omega) -> PolyQU:
    """Generic multiplicity for the split form, V of V_pair."""
    return V_pair(ctx, omega)[0]


def Vprime_poly(ctx: MasterContext, omega) -> PolyQU:
    """Generic multiplicity for the twisted form, V' of V_pair."""
    return V_pair(ctx, omega)[1]


# unipotent multiplicities and the interpolation


def T_poly(ctx: MasterContext, mu: MultiPartition) -> PolyQU:
    mu = check_multipartition(mu, ctx.k)
    return ctx.tau_schur(size(mu[0])).get(tuple(sorted(mu)), PolyQU())


def U_poly(ctx: MasterContext, mu: MultiPartition) -> PolyQU:
    return T_poly(ctx, mu).subst(u=ONE)


def Uprime_poly(ctx: MasterContext, mu: MultiPartition) -> PolyQU:
    val = T_poly(ctx, mu).subst(q=-Q, u=MINUS_ONE)
    return val.scale(d_mu(mu).sign_uprime)


# infinite-product oracles


def _signed_neg_q(r: GradedSeries) -> GradedSeries:
    """Degree-m coefficient replaced by (-1)^m times its q -> -q image."""
    return GradedSeries(r.k, r.N, [f.subst_coeffs(q=-Q).scale((-1) ** m)
                                   for m, f in enumerate(r.coeffs)])


def _product_oracle(ctx: MasterContext, log_sum: GradedSeries):
    """Schur tables, keyed by (degree, multipartition), of the plain
    exponential of log_sum, a weighted Adams sum of the kernel's plain
    logarithm r with weights d phi_d, integer polynomials.  The sum is
    integral.  Only the three-part twisted form takes an lcm, where its
    q -> -q terms meet r's; regrouped in two parts, odd d on the q -> -q
    image and even d on r, every degree-n term is over (-q)^n - 1."""
    ones = [ONE] * (ctx.N + 1)
    ser = log_sum.over(ones).plain_exp(ones)
    return {(n, key): p for n in range(1, ctx.N + 1)
            for key, p in ser.coeffs[n].to_schur().items()}


def _uprime_log_sum(r: GradedSeries) -> GradedSeries:
    """The three-part log form of the twisted infinite product: every d on
    r_alt, then the even d turned from r_alt to r."""
    r_alt = _signed_neg_q(r)
    return r_alt.adams_sum(phi_prime).add(
        r.sub(r_alt).adams_sum(lambda d: 0 if d % 2 else phi_prime(d)))


def Uprime_poly_product_oracle(ctx: MasterContext) -> dict[tuple[int, MultiPartition], PolyQU]:
    """Twisted-form unipotent multiplicities from the three-part log form
    of the twisted infinite product, converted by the explicit sign."""
    raw = _product_oracle(ctx, _uprime_log_sum(ctx.r_series()))
    return {
        (n, key): p.scale(d_mu(key).sign_uprime * (-1) ** (n + 1))
        for (n, key), p in raw.items()
    }


def T_poly_product_oracle(ctx: MasterContext) -> dict[tuple[int, MultiPartition], PolyQU]:
    """Two-variable interpolation polynomials recomputed from the
    u-deformed infinite product."""
    raw = _product_oracle(ctx, ctx.r_series().adams_sum(phi_u))
    return {key: _div_u(p, key[1]) for key, p in raw.items()}


def U_poly_product_oracle(ctx: MasterContext) -> dict[tuple[int, MultiPartition], PolyQU]:
    """Split-form unipotent multiplicities from the product route: the
    u-deformed product's table at u = 1, where phi_{u,d} is phi_d."""
    return {key: p.subst(u=ONE) for key, p in T_poly_product_oracle(ctx).items()}


# verification suite


class VerifyItem:
    __slots__ = ("name", "cases", "failures", "first_failure")

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.first_failure: str | None = None

    def record(self, ok: bool, mu: MultiPartition, why: str, args: list) -> None:
        """Count one case at mu; only a first failure's text is built."""
        self.cases += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = f"{multipartition_to_text(mu)}: {why.format(*args)}"


class VerifyReport:
    __slots__ = ("items", "audits")

    def __init__(self, items: list[VerifyItem]):
        self.items = items
        self.audits: list[str] = []

    @property
    def ok(self) -> bool:
        return all(item.failures == 0 for item in self.items)

    def summary_lines(self) -> list[str]:
        lines = []
        for item in self.items:
            status = "ok" if item.failures == 0 else "FAIL"
            line = f"{status:4} {item.name}: {item.cases} cases, {item.failures} failures"
            if item.first_failure:
                line += f" (first: {item.first_failure})"
            lines.append(line)
        for note in self.audits:
            lines.append(f"note {note}")
        total = sum(i.failures for i in self.items)
        lines.append(f"{len(self.items)} identity families, {total} failures")
        return lines

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "items": [
                {
                    "name": i.name,
                    "cases": i.cases,
                    "failures": i.failures,
                    "first_failure": i.first_failure,
                }
                for i in self.items
            ],
            "audits": list(self.audits),
        }


def verify_suite(ctx: MasterContext) -> VerifyReport:
    """Check each identity of the interpolation for all multipartitions of
    1..ctx.N against a second route, which shares at most its input series
    with T's: V through H_omega, the u-deformed product, the twisted
    product, the Kronecker coefficient, and positivity.  Failures come back
    as data, never exceptions.  Every family is symmetric in the k factors,
    so each sorted key is computed and compared once, and its outcome
    recorded, in the walk over the ordered multipartitions, for each
    ordering of it under that ordering's name."""
    at_zero = VerifyItem("tau-at-0-matches-generic")
    product_route = VerifyItem("tau-matches-u-deformed-product")
    twisted = VerifyItem("tau-at-minus-1-matches-twisted-product")
    top_u = VerifyItem("top-u-coefficient-is-kronecker")
    nonneg = VerifyItem("tau-coefficients-nonnegative")
    report = VerifyReport([at_zero, product_route, twisted, top_u, nonneg])

    t_oracle = T_poly_product_oracle(ctx)
    up_oracle = Uprime_poly_product_oracle(ctx)

    def check(n: int, rep: MultiPartition, t: PolyQU) -> tuple[list, list]:
        """The comparisons at the sorted key rep, as (family, ok, failure
        text after the key's name, *its format arguments), and the (family
        name, value) pairs whose leading coefficient is negative."""
        v, vp = V_pair(ctx, rep)
        up_val = Uprime_poly(ctx, rep)
        kron = kronecker(rep)
        top = t.coeff_of_u(n - 1)
        checks = [
            (at_zero, t.subst(u=PolyQU()) == v, "tau(0,q) != V"),
            (product_route, t_oracle.get((n, rep), PolyQU()) == t,
             "tau != u-deformed product"),
            (twisted, up_oracle.get((n, rep), PolyQU()) == up_val,
             "signed tau(-1,-q) != twisted product"),
            (top_u, top == PolyQU.const(kron), "[u^{}] tau = {}, kronecker = {}", n - 1, top, kron),
            (nonneg, all(c >= 0 for c in t.terms.values()), "negative tau coefficient in {}", t),
        ]
        negative = [(name, p) for name, p in (("U'", up_val), ("V'", vp))
                    if p and p.leading()[1] < 0]
        return checks, negative

    for n in range(1, ctx.N + 1):
        taus = ctx.tau_schur(n)
        outcomes: dict[MultiPartition, tuple[list, list]] = {}
        for mu in multipartitions(ctx.k, n):
            rep = tuple(sorted(mu))
            if rep not in outcomes:
                outcomes[rep] = check(n, rep, taus.get(rep, PolyQU()))
            checks, negative = outcomes[rep]
            for item, ok, why, *args in checks:
                item.record(ok, mu, why, args)
            report.audits.extend(f"negative leading coefficient in {name} at "
                                 f"{multipartition_to_text(mu)}: {p}" for name, p in negative)
    return report


# disk cache


def cache_path(cache_dir: str, k: int, n: int) -> str:
    return os.path.join(cache_dir, f"psi_k{k}_n{n}.json")


def save_cache(cache_dir: str, k: int, n: int, table: dict[MultiPartition, PolyQU]) -> str:
    """Write a Schur table, one entry per sorted key, in ascending order."""
    os.makedirs(cache_dir, exist_ok=True)
    entries = [{"mu": [partition_to_text(c) for c in mu], "poly": poly_to_json(p)}
               for mu, p in sorted(table.items())]
    payload = {"version": CACHE_VERSION, "k": k, "n": n, "count": len(entries),
               "sha256": _entries_digest(entries), "entries": entries}
    path = cache_path(cache_dir, k, n)
    # a private temp name, so concurrent writers of one table cannot collide
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # json.dumps runs the C encoder; json.dump, the pure-Python
            # one, whose closures leave reference cycles (see cli.run)
            fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def _entries_digest(entries: list) -> str:
    """SHA-256 of the canonical JSON text of a cache file's entries."""
    text = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    return sha256(text.encode("utf-8")).hexdigest()


def load_cache(cache_dir: str, k: int, n: int) -> dict[MultiPartition, PolyQU] | None:
    """The Schur table of a cache file, or None when the file is missing or
    malformed, or holds a key that is not k partitions of n, is not
    sorted or comes twice."""
    path = cache_path(cache_dir, k, n)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CACHE_VERSION
        or payload.get("k") != k
        or payload.get("n") != n
    ):
        return None
    try:
        entries = payload["entries"]
        if payload["count"] != len(entries) or payload["sha256"] != _entries_digest(entries):
            return None
        table = {}
        for entry in entries:
            texts = entry["mu"]
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                return None
            table[tuple(map(parse_partition, texts))] = poly_from_json(entry["poly"])
    except (KeyError, TypeError, ValueError):
        return None
    if len(table) != len(entries) or any(
            len(mu) != k or list(mu) != sorted(mu) or any(size(c) != n for c in mu)
            for mu in table):
        return None
    return table


def clear_cache(cache_dir: str, k: int | None = None) -> list[str]:
    """Remove cache files, optionally only those for one alphabet count."""
    removed = []
    if not os.path.isdir(cache_dir):
        return removed
    prefix = "psi_" if k is None else f"psi_k{k}_"
    for name in sorted(os.listdir(cache_dir)):
        if name.startswith(prefix) and name.endswith(".json"):
            path = os.path.join(cache_dir, name)
            os.remove(path)
            removed.append(path)
    return removed
