"""Tensor-product multiplicity polynomials for the finite general linear
and unitary groups.

The pipeline: build the Cauchy kernel Omega (transformed Hall-Littlewood
products weighted by inverse unipotent centralizer orders), take its
plethystic logarithm scaled by (q - 1) to get the master series Psi whose
Schur coefficients are the generic multiplicities, then form the
plethystic exponential of u * Psi whose Schur coefficients, divided by u,
are the two-variable interpolation polynomials.  Specializing u to 0, 1,
and -1 (U'(q) = s' T(-1, -q), s' the sign of V') recovers the generic,
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
from functools import lru_cache
from itertools import combinations_with_replacement, product
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
from .partitions import (
    MultiPartition,
    Partition,
    check_multipartition,
    cofactor,
    enumerate_partitions,
    kronecker,
    mobius,
    multipartition_to_text,
    parse_partition,
    partition_to_text,
    q_pochhammer,
    size,
)
from .symfunc import GradedSeries, SymFunc, orbit
from .types import (
    MINUS_ONE,
    _div_u,
    _multitype_signs,
    as_types,
    green_record,
    phi_u,
    power_weights,
    specialize,
    tensor_expand,
    type_size,
    type_sum,
)

CACHE_VERSION = 3


def phi_prime(d: int) -> PolyQU:
    """d phi'_d, for the twisted-form orbit count phi'_d: phi_u at
    (u, q) = (-1, -q), which is (1/d) sum of mu(r) (q^{d/r} - (-1)^{d/r})."""
    return phi_u(d).subst(q=-Q, u=MINUS_ONE)


class MasterContext:
    """Shared state for one (k, N): the kernel series, the master series,
    its u-exponential, and per-degree Schur coefficient tables.  All the
    heavy series are built lazily.  A disk cache holds one file per degree,
    the master series' Schur table; a context reads each file at most once,
    in stored_psi_schur, and only psi_schur writes one.  So a V or V'
    table of degree n reads and writes only the degree-n file and never
    builds the master series from a warm cache; `cache build` writes
    every missing degree; T, U and U' tables and verify, whose V is the
    class-type sum's, rebuild the master series from all N files when
    each is present and never write one; and `pair`, which takes the
    class-type sum, builds no context.  A failed cache write does not
    stop a query; it is kept in cache_write_error."""

    def __init__(self, k: int, N: int, cache_dir: str | None = None):
        if type(k) is not int or type(N) is not int or k < 1 or N < 1:
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
        self._cache_read: set[int] = set()
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
            self._exp_u_psi = self.u_log_sum().plain_exp([ONE] * (self.N + 1))
        return self._exp_u_psi

    def u_log_sum(self) -> GradedSeries:
        """log Exp(u Psi), the sum of psi_m(u Psi)/m = u^m psi_m(Psi)/m, over 1."""
        return self.psi.adams_sum(lambda m: U ** m)

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
        table = self.stored_psi_schur(n)
        if table is None:
            table = self._psi_schur[n] = self.psi.coeffs[n].to_schur()
            if self.cache_dir:
                try:
                    save_cache(self.cache_dir, self.k, n, table)
                except OSError as exc:
                    self.cache_write_error = exc
        return table

    def stored_psi_schur(self, n: int) -> dict[MultiPartition, PolyQU] | None:
        """The degree-n table held or read from the cache, or None.  The
        file is read at most once per context; one that is present but
        fails to load is recorded in ignored_cache_files."""
        self._check_degree(n)
        if self.cache_dir and n not in self._cache_read:
            self._cache_read.add(n)
            table = load_cache(self.cache_dir, self.k, n)
            if table is not None:
                self._psi_schur[n] = table
            elif os.path.exists(path := cache_path(self.cache_dir, self.k, n)):
                self.ignored_cache_files.append(path)
        return self._psi_schur.get(n)

    def _psi_from_cache(self) -> GradedSeries | None:
        """Rebuild the master series from fully cached Schur tables."""
        tables = []
        for n in range(1, self.N + 1):
            table = self.stored_psi_schur(n)
            if table is None:
                return None
            tables.append(table)
        return GradedSeries(self.k, self.N, [SymFunc.zero(self.k, 0)] + [
            SymFunc.from_schur(self.k, n, t) for n, t in enumerate(tables, start=1)])

    def tau_schur(self, n: int) -> dict[MultiPartition, PolyQU]:
        """Interpolation polynomials for the sorted multipartitions of n."""
        if n not in self._tau_schur:
            self._check_degree(n)
            schur = self.exp_u_psi.coeffs[n].to_schur()
            self._tau_schur[n] = {key: _div_u(p, n, key) for key, p in schur.items()}
        return self._tau_schur[n]

    def _check_degree(self, n: int) -> None:
        if not 1 <= n <= self.N:
            raise ValueError(f"degree {n} outside 1..{self.N}")


def _build_omega(k: int, N: int) -> GradedSeries:
    """The kernel: sum over lam of the product over the k alphabets of
    H~_lam(x_i) / a_lam(q), the one-atom types (1, lam) of the class-type
    sum (types.type_sum).  On the basis b_rho the coefficients of H~_lam are
    the Green polynomials (types.green_record), so the product is their
    k-fold tensor power at the sorted keys (types.tensor_expand).
    Degree n is summed over q^S (q;q)_n = |GL_n(F_q)|, S = n(n-1)/2: the
    term of lam starts at the unipotent class size q^(S-s) cofactor(n, ts)
    for a_lam = q^s prod (q^t - 1) (the same record), no division.
    The q^S cancels exactly and Omega_n is over (q;q)_n.

    The sum runs on packed integers (coeffs.pack), unpacked once per key.
    Since |f g|_max <= |f|_1 |g|_max, a numerator's coefficients are at
    most sum over lam of |class size|_1 (max over rho of |Q^lam_rho|_1)^k."""
    coeffs = [SymFunc.one(k)]
    for n in range(1, N + 1):
        S = n * (n - 1) // 2
        terms = [(PolyQU.monomial(1, S - s, 0) * cofactor(n, ts), pairs)
                 for lam in enumerate_partitions(n) for pairs, s, ts in [green_record(lam)]]
        bound = sum(norm1(start) * max(norm1(v) for _, v in items) ** k
                    for start, items in terms)
        B = bound.bit_length() + 1
        acc: dict[MultiPartition, int] = {}
        for start, items in terms:
            packed = [(rho, pack(v, B, 1)) for rho, v in items]
            for key, c in tensor_expand([packed] * k, pack(start, B, 1)):
                acc[key] = acc.get(key, 0) + c
        nums = {key: unpack(v, B) for key, v in acc.items()}
        coeffs.append(SymFunc(k, n, nums, Q**S * q_pochhammer(n)).over(q_pochhammer(n)))
    return GradedSeries(k, N, coeffs)


def build_context(k: int, N: int, cache_dir: str | None = None) -> MasterContext:
    return MasterContext(k, N, cache_dir)


@lru_cache(maxsize=None)
def transformed_hl(lam: Partition) -> dict[MultiPartition, PolyQU]:
    """The Schur table of the modified Hall-Littlewood function indexed by
    lam, one alphabet, read off lam's green_record: at s_nu the cocharge
    Kostka-Foulkes polynomial q^{n(lam)} K_{nu,lam}(1/q).  Only s_nu with
    nu dominating lam occur, in enumeration order.  Cached and shared, so
    no caller mutates it.  Nothing in the package calls it: it stays for
    perfbench, which wraps this name (ROADMAP item 1b removes it)."""
    table = SymFunc(1, size(lam), {(rho,): g for rho, g in green_record(lam)[0]}).to_schur()
    return dict(reversed(table.items()))


# generic multiplicities


@lru_cache(maxsize=None)
def schur_of_type(tau) -> dict[MultiPartition, PolyQU]:
    """The Schur table of the product X over the entries (d, lam, m) of the
    type tau of psi_d s_lam (alphabet powers d and q -> q^d), m times
    each, on one alphabet: X's power-sum weights w(rho) = <X, p_rho>
    (types.power_weights) are its coefficients on the basis b_rho,
    which SymFunc.to_schur takes to the Schur side.  Cached and shared, so
    no caller mutates it."""
    return SymFunc(1, type_size(tau), {(rho,): PolyQU.const(w)
                                       for rho, w in power_weights(tau).items()}).to_schur()


def H_omega(ctx: MasterContext, key) -> PolyQU:
    """Hall pairing of the degree-n master coefficient with the Schur-type
    product attached to a multipartition or a multitype of ctx.k
    components, checked by types.as_types: the sum over nu of the
    master Schur table's entry at nu times the s_{nu^i} coefficients of
    the k Schur-type factors (schur_of_type); an integer polynomial in q."""
    mt = as_types(key, ctx.k)
    table = ctx.psi_schur(type_size(mt[0]))
    total = PolyQU()
    for combo in product(*(schur_of_type(tau).items() for tau in mt)):
        p = table.get(tuple(sorted(nu for (nu,), _ in combo)))
        if p is not None:
            total = total + prod((c for _, c in combo), start=p)
    return total


def V_poly(ctx: MasterContext, omega) -> PolyQU:
    """Generic multiplicity for the split form, V(q) = s H(q)
    (types.specialize)."""
    return specialize("V", H_omega(ctx, omega), omega)


def Vprime_poly(ctx: MasterContext, omega) -> PolyQU:
    """Generic multiplicity for the twisted form, V'(q) = s' H(-q)
    (types.specialize)."""
    return specialize("Vprime", H_omega(ctx, omega), omega)


# unipotent multiplicities and the interpolation


def T_poly(ctx: MasterContext, mu: MultiPartition) -> PolyQU:
    mu = check_multipartition(mu, ctx.k)
    return ctx.tau_schur(size(mu[0])).get(tuple(sorted(mu)), PolyQU())


def U_poly(ctx: MasterContext, mu: MultiPartition) -> PolyQU:
    return specialize("U", T_poly(ctx, mu), mu)


def Uprime_poly(ctx: MasterContext, mu: MultiPartition) -> PolyQU:
    """U'(q) = s' T(-1, -q), s' the sign of V' (types.specialize)."""
    return specialize("Uprime", T_poly(ctx, mu), mu)


# infinite-product oracles


def _signed_neg_q(r: GradedSeries) -> GradedSeries:
    """Degree-m coefficient replaced by (-1)^m times its q -> -q image."""
    return GradedSeries(r.k, r.N, [f.subst_coeffs(q=-Q).scale((-1) ** m)
                                   for m, f in enumerate(r.coeffs)])


def _product_oracle(ctx: MasterContext, log_sum: GradedSeries):
    """Schur tables, keyed by (degree, multipartition), of the plain
    exponential of log_sum, a weighted Adams sum of the kernel's plain
    logarithm r with weights d phi_d, integer polynomials: the twisted
    form, or u_deformed_log_sum for the U oracle.  The sum is integral.
    Only the three-part twisted form takes an lcm, where its q -> -q terms
    meet r's; regrouped in two parts, odd d on the q -> -q image and even
    d on r, every degree-n term is over (-q)^n - 1."""
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
        (n, key): p.scale(_multitype_signs(as_types(key))[1] * (-1) ** (n + 1))
        for (n, key), p in raw.items()
    }


def u_deformed_log_sum(ctx: MasterContext) -> GradedSeries:
    """The log of the u-deformed infinite product, sum of phi_{u,d}
    psi_d(r)/d over 1: by Moebius regrouping, ctx.u_log_sum()."""
    return ctx.r_series().adams_sum(phi_u).over([ONE] * (ctx.N + 1))


def U_poly_product_oracle(ctx: MasterContext) -> dict[tuple[int, MultiPartition], PolyQU]:
    """Split-form unipotent multiplicities from the product route: the
    u-deformed product's table at u = 1, where phi_{u,d} is phi_d."""
    raw = _product_oracle(ctx, u_deformed_log_sum(ctx))
    return {(n, key): _div_u(p, n, key).subst(u=ONE) for (n, key), p in raw.items()}


# verification suite


class VerifyItem:
    __slots__ = ("name", "cases", "failures", "first_failure")

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.first_failure: str | None = None

    def record(self, ok: bool, key: MultiPartition, count: int, why: str, args: list) -> None:
        """Count the count cases of the sorted key, one per ordering of it;
        only a first failure's text is built."""
        self.cases += count
        if not ok:
            self.failures += count
            if self.first_failure is None:
                self.first_failure = f"{multipartition_to_text(key)}: {why.format(*args)}"


class VerifyReport:
    __slots__ = ("items",)

    def __init__(self, items: list[VerifyItem]):
        self.items = items

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
        }


def verify_suite(ctx: MasterContext) -> VerifyReport:
    """Check each identity of the interpolation for all multipartitions of
    1..ctx.N against a second route, which shares at most its input series
    with T's: V by the [u^1] part of the sum over class types
    (types.type_sum, one contraction per degree, which owes nothing to
    Omega, its log or Psi), the u-deformed product by its log
    (u_deformed_log_sum against ctx.u_log_sum, whose exp is T's, at the
    b_rho keys, the Schur tables' sorted keys), the twisted product, the
    Kronecker coefficient, and positivity; and that U' and V', which count
    GU_n(F_q) multiplicities and read the sign s' that the twisted product
    reads too, have positive leading coefficients where nonzero.  Failures
    come back as data, never exceptions.  Every family is symmetric in the
    k factors, so each degree visits its sorted keys once, in ascending
    order, and counts each key's outcome once per ordering."""
    names = ("tau-at-0-matches-generic", "tau-matches-u-deformed-product",
             "tau-at-minus-1-matches-twisted-product", "top-u-coefficient-is-kronecker",
             "tau-coefficients-nonnegative", "twisted-leading-coefficients-positive")
    report = VerifyReport([VerifyItem(name) for name in names])
    at_zero, product_route, twisted, top_u, nonneg, leading = report.items

    differ = {(f.n, key) for f, g in zip(ctx.u_log_sum().coeffs, u_deformed_log_sum(ctx).coeffs)
              for key in {*f.coeffs, *g.coeffs} if f.coeffs.get(key) != g.coeffs.get(key)}
    up_oracle = Uprime_poly_product_oracle(ctx)
    for n in range(1, ctx.N + 1):
        taus = ctx.tau_schur(n)
        generic = type_sum([enumerate_partitions(n)] * ctx.k, (1,))
        for key in combinations_with_replacement(sorted(enumerate_partitions(n)), ctx.k):
            t = taus.get(key, PolyQU())
            h = _div_u(generic[key], n, key)
            vp, up_val = specialize("Vprime", h, key), specialize("Uprime", t, key)
            kron, top = kronecker(key), t.coeff_of_u(n - 1)
            count = len(orbit(key))
            for item, ok, why, *args in (
                (at_zero, t.subst(u=PolyQU()) == specialize("V", h, key), "tau(0,q) != V"),
                (product_route, (n, key) not in differ, "log Exp(u Psi) != u-deformed log"),
                (twisted, up_oracle.get((n, key), PolyQU()) == up_val,
                 "signed tau(-1,-q) != twisted product"),
                (top_u, top == PolyQU.const(kron), "[u^{}] tau = {}, kronecker = {}",
                 n - 1, top, kron),
                (nonneg, all(c >= 0 for c in t.terms.values()),
                 "negative tau coefficient in {}", t),
                (leading, all(not p or p.leading()[1] > 0 for p in (up_val, vp)),
                 "negative leading coefficient in U' = {} or V' = {}", up_val, vp),
            ):
                item.record(ok, key, count, why, args)
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
    # a private temp name under the table's prefix: concurrent writers
    # cannot collide, and clear_cache finds a killed writer's leftover
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f"psi_k{k}_n{n}.", suffix=".tmp")
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
    """The Schur table of a cache file, or None when the file is missing,
    cannot be read or decoded however that fails (nesting too deep for
    the decoder too), does not match this version, k, n, its count and
    its digest, or holds a key that is not k partitions of n, is not
    sorted or comes twice: any error of reading or checking means None."""
    try:
        with open(cache_path(cache_dir, k, n), encoding="utf-8") as fh:
            payload = json.load(fh)
        entries = payload["entries"]
        found = (payload["version"], payload["k"], payload["n"], payload["count"], payload["sha256"])
        if found != (CACHE_VERSION, k, n, len(entries), _entries_digest(entries)):
            return None
        table = {}
        for entry in entries:
            texts = entry["mu"]  # a partition text that is no str: AttributeError
            mu = check_multipartition(map(parse_partition, texts), k)
            if type(texts) is not list or size(mu[0]) != n or list(mu) != sorted(mu):
                return None
            table[mu] = poly_from_json(entry["poly"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError):
        return None
    return table if len(table) == len(entries) else None


def clear_cache(cache_dir: str, k: int | None = None) -> list[str]:
    """Remove cache files and killed writers' regular temp files,
    optionally only those for one alphabet count.  A directory that does
    not exist holds none; a path that is not a directory raises
    NotADirectoryError."""
    removed = []
    if not os.path.exists(cache_dir):
        return removed
    prefix = "psi_" if k is None else f"psi_k{k}_"
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        if name.startswith(prefix) and (name.endswith(".json") or (
                name.endswith(".tmp") and os.path.isfile(path))):
            os.remove(path)
            removed.append(path)
    return removed
