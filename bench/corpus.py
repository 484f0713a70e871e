"""Seeded request corpora with answers known by construction.

Each workload yields ``Item``s: the request exactly as ``hassewitt batch``
reads it, plus the construction data the expected answer is derived from
(diagonal forms with factored entries, polynomials built from binomials
with known roots, F_p factors chosen irreducible).  Expected answers come
from ``oracle``, never from the program under test, and ``check`` compares
mathematical content (square classes, place sets, signatures, minus-places
of the Hasse table) rather than a report's full key set.

Requests are interleaved in fixed-size rounds, each holding every tier in
a fixed proportion, so any prefix of the corpus has the workload's mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import oracle
from oracle import INF, Fac, FormData

WORKLOADS = ("forms", "fields", "symbols", "splitting")

# The library call the splitting workload makes; no CLI command reaches it.
SPLIT_COMMAND = "factor-pattern"

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@dataclass(frozen=True)
class Item:
    request: dict
    facts: tuple  # construction data, read only by check()

    def line(self) -> str:
        return json.dumps(self.request, sort_keys=True, separators=(",", ":"))


def _rat_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"hassewitt-bench/{workload}/{seed}/{stream}")


# ---------------------------------------------------------------------------
# forms: unimodular transports of diagonal forms with factored entries
# ---------------------------------------------------------------------------


# Input limit for forms and fields: every leading principal minor of a Gram
# matrix is nonzero, and its part free of primes below 1000 is at most
# ROUGH_BOUND.  The program factors ratios of consecutive minors, so this
# bounds the rho work in every factorization and with it the slowest
# request; the fields heavy tier is exempt on purpose.
ROUGH_BOUND = 10**9
_TRIAL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p**0.5) + 1))]


def _rough(n: int) -> int:
    n = abs(n)
    for p in _TRIAL_PRIMES:
        while n % p == 0:
            n //= p
    return n


def _minors_within(matrix: list[list[int]]) -> bool:
    """Whether every leading principal minor of the integer matrix is
    nonzero with rough part at most ROUGH_BOUND (Bareiss elimination, so
    each pivot is the minor itself)."""
    m = [list(row) for row in matrix]
    n = len(m)
    prev = 1
    for k in range(n):
        if m[k][k] == 0 or _rough(m[k][k]) > ROUGH_BOUND:
            return False
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return True


def _small_entry(rng: random.Random, rational: bool) -> Fac:
    exps: dict[int, int] = {}
    for p in rng.sample(SMALL_PRIMES[:11], rng.randint(0, 2)):
        exps[p] = 1 if rng.random() < 0.8 else 2
    if rational and rng.random() < 0.5:
        q = rng.choice([p for p in SMALL_PRIMES[:6] if p not in exps])
        exps[q] = -1
    return Fac.of(rng.choice((1, -1)), exps)


def _transport(entries: list[Fac], rng: random.Random) -> list[list] | None:
    """U^T diag(entries) U for a random unimodular integer U, as JSON rows,
    or None when no draw keeps the minors within ROUGH_BOUND."""
    n = len(entries)
    values = [x.value() for x in entries]
    scale = lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    for _ in range(8):
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            for row in u:
                row[i] += c * row[j]
        perm = list(range(n))
        rng.shuffle(perm)
        u = [[row[k] for k in perm] for row in u]
        gram = [[sum(u[k][i] * ints[k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if _minors_within(gram):
            return [[_rat_json(Fraction(x, scale)) for x in row] for row in gram]
    return None


def _diagonal(rng: random.Random, rank: int) -> list[Fac]:
    rational = rng.random() < 0.25
    return [_small_entry(rng, rational) for _ in range(rank)]


def _isometric_variant(rng: random.Random, entries: list[Fac]) -> list[Fac]:
    """A diagonal form isometric to entries by construction: entries scaled
    by squares and permuted, with <a, b> ~ <a+b, ab(a+b)> applied once."""
    out = [x * Fac.of(1, {p: 2}) if rng.random() < 0.3 else x for x, p in
           zip(entries, rng.choices(SMALL_PRIMES[:4], k=len(entries)))]
    rng.shuffle(out)
    if len(out) >= 2:
        a, b = out[0].value(), out[1].value()
        if a + b != 0 and abs((a + b).numerator) < 10**6:
            s = a + b
            sf = oracle.fac_int(s.numerator) * Fac.of(1, {p: -e for p, e in oracle.fac_int(s.denominator).exps})
            out[0], out[1] = sf, out[0] * out[1] * sf
    return out


def _other_variant(rng: random.Random, entries: list[Fac]) -> list[Fac]:
    """A perturbation that usually breaks isometry; the oracle decides."""
    out = list(entries)
    p = rng.choice(SMALL_PRIMES[:6])
    kind = rng.randrange(3)
    if kind == 0 or len(out) < 2:
        out[0] = out[0] * Fac.of(1, {p: 1})
    elif kind == 1:
        out[0], out[1] = out[0] * Fac.of(1, {p: 1}), out[1] * Fac.of(1, {p: 1})
    else:
        out[0], out[1] = out[0] * Fac(-1, ()), out[1] * Fac(-1, ())
    rng.shuffle(out)
    return out


def forms_item(rng: random.Random, slot: int) -> Item:
    rank = rng.randint(1, 8)
    while True:
        d1 = _diagonal(rng, rank)
        if slot == 1:
            d2 = _isometric_variant(rng, d1) if rng.random() < 0.5 else _other_variant(rng, d1)
        else:
            d2 = _diagonal(rng, rank)
        g1 = _transport(d1, rng)
        g2 = _transport(d2, rng) if slot else None
        if g1 is not None and (g2 is not None or not slot):
            break
    if slot == 0:
        return Item({"command": "form-invariants", "parameters": {"gram": g1}}, ("invariants", tuple(d1)))
    if slot == 1:
        return Item({"command": "form-isometric", "parameters": {"gram1": g1, "gram2": g2}},
                    ("isometric", tuple(d1), tuple(d2)))
    return Item({"command": "delta", "parameters": {"gram_omega": g1, "gram_eta": g2}},
                ("delta", tuple(d1), tuple(d2)))


FORMS_ROUND = (0, 1, 2)


# ---------------------------------------------------------------------------
# fields: shifted products of binomials x^d - a, roots known in closed form
# ---------------------------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_shift(f: list[int], t: int) -> list[int]:
    """Coefficients of f(x + t), ascending."""
    out = [0] * len(f)
    for k, c in enumerate(f):
        for j in range(k + 1):
            out[j] += c * comb(k, j) * t ** (k - j)
    return out


def _partition(rng: random.Random, degree: int) -> list[int]:
    parts = []
    while degree:
        d = rng.randint(1, degree)
        parts.append(d)
        degree -= d
    return parts


def _binomial_constants(rng: random.Random, count: int) -> list[Fac]:
    """Pairwise coprime constants a_i with |a_i| > 1, so the binomials
    x^d - a_i share no root."""
    primes = rng.sample(SMALL_PRIMES[1:], 2 * count)
    out = []
    for i in range(count):
        exps = {primes[2 * i]: 1}
        if rng.random() < 0.3:
            exps[primes[2 * i + 1]] = 1
        out.append(Fac.of(rng.choice((1, -1)), exps))
    return out


def _binomial_product(factors) -> list[int]:
    g = [1]
    for d, a in factors:
        g = _poly_mul(g, [-int(a.value())] + [0] * (d - 1) + [1])
    return g


def fields_item(rng: random.Random, slot: int) -> Item:
    """Small tier: tracefield or quartic embedding on shifted products of
    binomials with small constants, minors within ROUGH_BOUND.  Heavy tier:
    tracefield on x^2 - s P Q shifted, P and Q primes of 26-30 bits, so its
    discriminant and trace form carry a semiprime that only rho splits."""
    command = "embedding" if slot in FIELDS_EMBED_SLOTS else "tracefield"
    while True:
        t = rng.randint(-2, 2)
        if slot in FIELDS_HEAVY_SLOTS:
            exps = {rng.choice(SMALL_PRIMES[1:]): 1}
            while len(exps) < 3:
                exps[oracle.random_prime(rng, 1 << 25, 1 << 30)] = 1
            factors = [(2, Fac.of(rng.choice((1, -1)), exps))]
        else:
            degrees = _partition(rng, 4 if command == "embedding" else rng.randint(2, 8))
            factors = list(zip(degrees, _binomial_constants(rng, len(degrees))))
        degree = sum(d for d, _ in factors)
        sums = _power_sums(factors, t, 2 * degree - 2)
        if slot in FIELDS_HEAVY_SLOTS or _minors_within([[sums[i + j] for j in range(degree)] for i in range(degree)]):
            break
    poly = _poly_shift(_binomial_product(factors), t)
    return Item({"command": command, "parameters": {"poly": poly}}, (command, tuple(factors), t))


# One round: 16 small tracefields, 3 quartic embeddings, 1 heavy tracefield.
FIELDS_ROUND = tuple(range(20))
FIELDS_EMBED_SLOTS = frozenset((5, 11, 17))
FIELDS_HEAVY_SLOTS = frozenset((19,))


# ---------------------------------------------------------------------------
# symbols: Hilbert symbols, the quartic local table, complete intersections
# ---------------------------------------------------------------------------

JEHANNE_TYPES = ("unramified", "1^2,1,1", "1^3,1", "1^2,2", "1^4", "2^2", "1^2,1^2")


class _PrimePool:
    """Odd primes below 100 and 48 primes of 21-100 bits, drawn once per corpus."""

    def __init__(self, rng: random.Random, size: int = 48):
        self.large = [oracle.random_prime(rng, 1 << rng.randint(20, 99), 1 << 100) for _ in range(size)]
        self.small = [p for p in SMALL_PRIMES if p > 2] + [73, 79, 83, 89, 97]


def _hilbert_entry(rng: random.Random, place) -> str:
    x = rng.randrange(1, 1 << rng.randint(2, 100)) * rng.choice((1, -1))
    if place != INF and rng.random() < 0.5:
        x *= place ** rng.randint(1, 2)
    if rng.random() < 0.2:
        den = rng.randrange(1, 1 << 30)
        return str(Fraction(x, den))
    return str(x)


def symbols_item(rng: random.Random, slot: int, pool: _PrimePool) -> Item:
    kind = SYMBOLS_ROUND[slot]
    if kind.startswith("hilbert"):
        place = {"hilbert-inf": INF, "hilbert-2": 2}.get(kind) or rng.choice(
            pool.small if kind == "hilbert-small" else pool.large)
        a, b = _hilbert_entry(rng, place), _hilbert_entry(rng, place)
        return Item({"command": "hilbert", "parameters": {"a": a, "b": b, "place": place}}, ("hilbert",))
    if kind.startswith("jehanne"):
        p = rng.choice(pool.small if kind == "jehanne-small" else pool.large)
        disc = rng.randrange(1, 1 << 40) * rng.choice((1, -1))
        params = {"p": p, "type": rng.choice(JEHANNE_TYPES), "disc": disc}
        return Item({"command": "jehanne", "parameters": params}, ("jehanne",))
    n = 2 * rng.randint(1, 64)
    if kind == "hypersurface":
        params = {"n": n, "d": rng.randint(1, 6)}
    else:
        params = {"n": n, "degrees": [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]}
    return Item({"command": "hypersurface", "parameters": params}, ("hypersurface",))


# Two in three requests are cheap (a small place or the real one), so the
# median falls inside that class rather than on the edge between classes;
# large places exercise is_prime, hypersurfaces euler_characteristic.
SYMBOLS_ROUND = ("hilbert-inf", "hilbert-inf", "hilbert-2", "hilbert-2", "hilbert-small", "hilbert-small",
                 "hilbert-large", "jehanne-small", "jehanne-small", "jehanne-large", "hypersurface",
                 "multidegree")


# ---------------------------------------------------------------------------
# splitting: polynomials whose factorization mod p is chosen
# ---------------------------------------------------------------------------

_PRIME_DIVISORS = {1: (), 2: (2,), 3: (3,), 4: (2,), 5: (5,), 6: (2, 3), 7: (7,), 8: (2,)}


def _irreducible_binomial(rng: random.Random, d: int, p: int, used: set[int]) -> list[int]:
    """x^d - a irreducible over F_p, for p = 1 mod 840: a is no r-th power
    for any prime r dividing d (Lidl-Niederreiter, Theorem 3.75)."""
    while True:
        a = rng.randint(2, 200) * rng.choice((1, -1))
        if (d, a % p) in used:
            continue
        if all(pow(a, (p - 1) // r, p) != 1 for r in _PRIME_DIVISORS[d]):
            used.add((d, a % p))
            return [-a] + [0] * (d - 1) + [1]


def splitting_item(rng: random.Random, slot: int) -> Item:
    """f = prod of factors irreducible mod p of the slot's degrees, and for
    the first slot also (x - r)(x - r - p): squarefree over Q, a square mod p."""
    p = oracle.random_prime(rng, 1 << 60, 1 << 61, residue=1, modulus=840)
    used: set = set()
    f = [1]
    pattern = []
    if slot == 0:
        r = rng.randint(-50, 50)
        f = _poly_mul([-r, 1], [-r - p, 1])
        used.add((1, (-r) % p))
        pattern.append((1, 2))
    for d in SPLITTING_ROUND[slot]:
        if d == 1:
            while True:
                r = rng.randint(-10**6, 10**6)
                if (1, (-r) % p) not in used:
                    used.add((1, (-r) % p))
                    break
            g = [-r, 1]
        else:
            g = _irreducible_binomial(rng, d, p, used)
        f = _poly_mul(f, g)
        pattern.append((d, 1))
    params = {"poly": f, "p": p}
    return Item({"command": SPLIT_COMMAND, "parameters": params}, ("pattern", tuple(sorted(pattern))))


# Degrees of the irreducible factors mod p, one entry per slot of a round:
# degrees 4-8, with equal-degree pairs (split by Cantor-Zassenhaus) in
# fixed proportion, so the costly tail has the same share on every seed.
SPLITTING_ROUND = ((1, 3), (4,), (2, 2), (1, 4), (2, 3), (3, 3), (1, 1, 2, 2), (2, 5), (4, 4), (1, 2, 5))


# ---------------------------------------------------------------------------
# corpus assembly
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, count: int) -> list[Item]:
    """The first count items of the workload's corpus for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    if workload == "forms":
        round_, make = FORMS_ROUND, lambda slot: forms_item(rng, slot)
    elif workload == "fields":
        round_, make = FIELDS_ROUND, lambda slot: fields_item(rng, slot)
    elif workload == "symbols":
        pool = _PrimePool(_rng(workload, seed, "primes"))
        round_, make = range(len(SYMBOLS_ROUND)), lambda slot: symbols_item(rng, slot, pool)
    else:
        round_, make = range(len(SPLITTING_ROUND)), lambda slot: splitting_item(rng, slot)
    items = []
    while len(items) < count:
        slots = list(round_)
        rng.shuffle(slots)
        for slot in slots:
            item = make(slot)
            item.request["id"] = f"{workload}-{seed}-{len(items)}"
            items.append(item)
    return items[:count]


# Strong pseudoprimes to every prime base up to 37 (Sorenson-Webster).
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def defect_probes(workload: str, seed: int) -> list[Item]:
    """Requests that hit known defects.  They run outside the timed loop,
    so the timed requests never fail on them, and their outcome is
    reported with every run: composite places accepted as primes
    (symbols), and a discriminant carrying two ~60-bit primes that
    factoring does not finish (fields)."""
    if workload == "symbols":
        return [Item({"id": f"probe-psi{k}", "command": "hilbert", "parameters": {"a": 2, "b": 3, "place": psi}},
                     ("not_prime",)) for k, psi in ((12, PSI12), (13, PSI13))]
    if workload == "fields":
        rng = _rng(workload, seed, "probes")
        exps = {oracle.random_prime(rng, 1 << 59, 1 << 60): 1, oracle.random_prime(rng, 1 << 59, 1 << 60): 1}
        factors = ((2, Fac.of(1, exps)),)
        t = rng.randint(-2, 2)
        poly = _poly_shift(_binomial_product(factors), t)
        return [Item({"id": "probe-semiprime-120", "command": "tracefield", "parameters": {"poly": poly}},
                     ("tracefield", factors, t))]
    return []


def probe_fixed(item: Item, report: dict) -> bool:
    """Whether the program now handles a defect probe: a documented error
    or a right answer."""
    if item.facts[0] == "not_prime":
        return report.get("status") == "input_error"
    return report.get("status") == "effort_exceeded" or check(item, report) is None


def corpus_bytes(items: list[Item]) -> bytes:
    return "".join(item.line() + "\n" for item in items).encode()


# ---------------------------------------------------------------------------
# expected answers and checking
# ---------------------------------------------------------------------------


def _places(values) -> frozenset:
    return frozenset(INF if v == "inf" else int(v) for v in values)


def _check_form(out: dict, data: FormData) -> str | None:
    if out["rank"] != data.rank or tuple(out["signature"]) != data.signature:
        return "rank or signature"
    if out["disc"] != data.disc.square_class() or out["w1"] != out["disc"]:
        return "disc or w1"
    if _places(out["w2"]) != data.w2:
        return "w2"
    table = out["hasse_local"]
    if any(s not in (1, -1) for s in table.values()):
        return "hasse_local values"
    if _places(k for k, s in table.items() if s == -1) != data.hasse_minus:
        return "hasse_local minus places"
    return None


def _trace_diagonal(factors) -> list[Fac]:
    """Trace form of prod Q[x]/(x^d - a): <d> + (d-1)//2 hyperbolic planes
    + <d a> for even d, orthogonally summed over the factors."""
    out = []
    for d, a in factors:
        fd = oracle.fac_int(d)
        out.append(fd)
        out.extend([Fac(1, ()), Fac(-1, ())] * ((d - 1) // 2))
        if d % 2 == 0:
            out.append(fd * a)
    return out


def _binomial_disc(d: int, a: Fac) -> Fac:
    """disc(x^d - a) = (-1)**(d(d-1)/2) d**d (-a)**(d-1)."""
    sign = (-1) ** (d * (d - 1) // 2) * (-a.sign) ** (d - 1)
    exps: dict[int, int] = {}
    for p, e in oracle.fac_int(d).exps:
        exps[p] = exps.get(p, 0) + d * e
    for p, e in a.exps:
        exps[p] = exps.get(p, 0) + (d - 1) * e
    return Fac.of(sign, exps)


def _power_sums(factors, t: int, upto: int) -> list[int]:
    """Power sums of the roots of prod(x^d - a)(x + t), i.e. of alpha - t."""
    base = [0] * (upto + 1)
    for d, a in factors:
        av = int(a.value())
        for j in range(0, upto + 1, d):
            base[j] += d * av ** (j // d)
    return [sum(comb(k, j) * (-t) ** (k - j) * base[j] for j in range(k + 1)) for k in range(upto + 1)]


def _field_facts(factors, t: int):
    degree = sum(d for d, _ in factors)
    diag = _trace_diagonal(factors)
    data = FormData.of(diag)
    disc = oracle.product(_binomial_disc(d, a) for d, a in factors)
    r1 = sum((d % 2) or (2 if a.sign > 0 else 0) for d, a in factors)
    signature = ((r1 + degree) // 2, (degree - r1) // 2)
    if disc.square_class() != data.disc.square_class() or signature != data.signature:
        raise AssertionError("trace form oracle is inconsistent")
    p = _power_sums(factors, t, 2 * degree - 2)
    gram = [[p[i + j] for j in range(degree)] for i in range(degree)]
    return data, disc, signature, gram


def check(item: Item, report: dict) -> str | None:
    """None when the report is ok and right, else a short reason."""
    if report.get("status") != "ok":
        return f"status {report.get('status')}: {report.get('error')}"
    if report.get("id") != item.request["id"]:
        return "id"
    out = report["outputs"]
    kind = item.facts[0]
    params = item.request["parameters"]
    if kind == "invariants":
        return _check_form(out, FormData.of(item.facts[1]))
    if kind == "isometric":
        a, b = FormData.of(item.facts[1]), FormData.of(item.facts[2])
        return None if out["isometric"] == (a.classifying() == b.classifying()) else "isometric"
    if kind == "delta":
        d1, d2 = oracle.delta_classes(FormData.of(item.facts[1]), FormData.of(item.facts[2]))
        return None if out["delta1"] == d1 and _places(out["delta2"]) == d2 else "delta"
    if kind in ("tracefield", "embedding"):
        data, disc, signature, gram = _field_facts(item.facts[1], item.facts[2])
        if kind == "tracefield":
            if out["gram"] != gram or out["disc_field"] != disc.square_class():
                return "gram or disc_field"
            if tuple(out["signature"]) != signature:
                return "signature"
            return _check_form(out["invariants"], data)
        two = Fac.of(1, {2: 1})
        sp2 = oracle.cup(two, disc)
        if out["field_disc"] != disc.square_class() or _places(out["w2_trace"]) != data.w2:
            return "field_disc or w2_trace"
        if _places(out["sp2"]) != sp2 or _places(out["sw2"]) != data.w2 ^ sp2:
            return "sp2 or sw2"
        if out["lift_solvable"] != (not data.w2) or out["lift_delta_solvable"] != (not data.w2 ^ sp2):
            return "lift decisions"
        table = {(INF if k == "inf" else int(k)): tuple(v) for k, v in out["local_table"].items()}
        if not (data.w2 | sp2) <= set(table):
            return "local_table misses a ramified place"
        for v, pair in table.items():
            if pair != (-1 if v in data.w2 else 1, oracle.hilbert(two, disc, v)):
                return f"local_table at {v}"
        return None
    if kind == "hilbert":
        place = params["place"]
        want = oracle.hilbert_plain(Fraction(params["a"]), Fraction(params["b"]), place)
        return None if out["symbol"] == want else "symbol"
    if kind == "jehanne":
        want = oracle.jehanne_expected(params["p"], params["type"], params["disc"])
        return None if (out["w2_p"], out["symbol_p"]) == want else "jehanne"
    if kind == "hypersurface":
        degrees = (params["d"],) if "d" in params else tuple(params["degrees"])
        want = _motive(params["n"], degrees)
        got = {key: out.get(key) for key in want}
        return None if _motive_sets(got) == _motive_sets(want) else "hypersurface"
    if kind == "pattern":
        return None if tuple(map(tuple, out["pattern"])) == item.facts[1] else "pattern"
    raise ValueError(f"unknown item kind {kind!r}")


def _motive_sets(report: dict) -> dict:
    """Place lists as sets, so only the classes are compared."""
    out = dict(report, w2_qB=_places(report["w2_qB"]))
    if isinstance(report["delta2"], dict):
        out["delta2"] = dict(report["delta2"], numeric=_places(report["delta2"]["numeric"]))
    return out


_MOTIVES: dict = {}


def _motive(n: int, degrees: tuple[int, ...]) -> dict:
    key = (n, degrees)
    if key not in _MOTIVES:
        _MOTIVES[key] = oracle.motive_expected(n, degrees)
    return _MOTIVES[key]
