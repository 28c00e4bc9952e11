"""The operations of each workload, made from the run's seed.

An operation is one argv for `cmparity.cli.main`, exactly as a user would type
it after `cmparity`. A run repeats whole rounds; round r of a workload is
`round_ops(workload, seed, r)`, a list of `(kind, argv)` pairs that depends on
nothing but its three arguments. This module uses the standard library only,
so the worker process that times the operations can import it without
growing.
"""

from __future__ import annotations

import random

WORKLOADS = ("odd-family", "complex-scatter", "lookup-stream")

# Both density workloads start from tau = (1 + sqrt(-3))/2. The odd family's
# bound makes one report take about a second; its 28,454 pairs (m, n) give
# 23,016 distinct points.
BASE = (1, -1, 1)
BASE_ARG = ",".join(map(str, BASE))
ODD_BOUND = 399
ODD_ARGV = ["density", "--mode", "odd", "--base", BASE_ARG, "--max-denominator", str(ODD_BOUND)]

COMPLEX_DRAWS = 1000

# One lookup round: kind -> number of queries. The two last kinds fail today
# because of program faults; their inputs are fixed, so the failed share of a
# run is the same whatever the seed and the run length.
LOOKUP_MIX = (
    ("classify-random", 40),
    ("classify-real", 24),
    ("enumerate-small", 20),
    ("enumerate-medium", 12),
    ("enumerate-large", 2),
    ("enumerate-pq", 1),
    ("classify-huge-tau", 1),
)
# kind -> (exit code, text in stderr) of its known failure
FAULTY = {
    # factorint.factorize tries trial division only up to 10**6
    "enumerate-pq": (2, "cannot factor cofactor"),
    # modular.is_real_j scales its tolerance with |j| ~ 1e122 and calls j real
    "classify-huge-tau": (1, "internal error"),
}
PQ_DISC = -1000003 * 1000033
HUGE_TAU = "10000019,1,20000000001"
MAX_DISC = 10**18  # the bound cmparity's factorization accepts

_SMALL_PRIMES = [p for p in range(3, 300, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if _is_prime(n):
            return n


def _odd_disc(rng: random.Random, big_lo: int | None = None, big_hi: int | None = None) -> int:
    """A negative D = 1 (mod 4): a product of 1 to 4 odd prime powers below
    300, or of 0 to 3 of them and one prime from [big_lo, big_hi)."""
    while True:
        n = 1
        for p in rng.sample(_SMALL_PRIMES, rng.randint(0 if big_lo else 1, 3 if big_lo else 4)):
            n *= p ** rng.choice((1, 1, 1, 2))
        if big_lo is not None:
            hi = min(big_hi, MAX_DISC // n)
            if hi <= big_lo:
                continue
            n *= _prime_between(rng, big_lo, hi)
        if n % 4 == 3 and n > 3:
            return -n


def _random_triple(rng: random.Random) -> tuple[int, int, int]:
    while True:
        a, b, c = rng.randint(1, 1000), rng.randint(-1000, 1000), rng.randint(1, 1000)
        if b * b < 4 * a * c:
            return a, b, c


def _real_locus_triple(rng: random.Random) -> tuple[int, int, int]:
    """A point with real j: a reduced ambiguous form (b = 0, b = a or a = c)
    moved by a short random word in tau -> tau + k and tau -> -1/tau."""
    while True:
        a = rng.randint(1, 60)
        shape = rng.choice(("axis", "line", "arc"))
        if shape == "axis":
            b, c = 0, rng.randint(a, 3000)
        elif shape == "line":
            b, c = a, rng.randint(a, 3000)
        else:
            b, c = rng.randint(-a + 1, a), a
        if b * b < 4 * a * c:
            break
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(-3, 3)
        a, b, c = a, b - 2 * a * k, a * k * k - b * k + c  # tau -> tau + k
        a, b, c = c, -b, a  # tau -> -1/tau
    return a, b, c


def _lookup_op(kind: str, rng: random.Random) -> list[str]:
    if kind == "classify-random":
        return ["classify", "--tau", "%d,%d,%d" % _random_triple(rng), "--json"]
    if kind == "classify-real":
        return ["classify", "--tau", "%d,%d,%d" % _real_locus_triple(rng), "--json"]
    if kind == "classify-huge-tau":
        return ["classify", "--tau", HUGE_TAU, "--json"]
    if kind == "enumerate-small":
        disc = _odd_disc(rng)
    elif kind == "enumerate-medium":
        disc = _odd_disc(rng, 10**9, 4 * 10**9)
    elif kind == "enumerate-large":
        # one prime above 10**12, so trial division runs to its 10**6 limit
        disc = _odd_disc(rng, 10**12, MAX_DISC)
    else:
        disc = PQ_DISC
    return ["enumerate", "--disc", str(disc), "--json"]


def odd_pairs() -> list[tuple[int, int]]:
    """The family's pairs: odd m, n <= ODD_BOUND with (m/n)*y > 1, where the
    base is (1 + i*y)/2, so y**2 = (4c - a)/a for the base triple (a, -a, c)."""
    a, _, c = BASE
    return [(m, n) for m in range(1, ODD_BOUND + 1, 2) for n in range(1, ODD_BOUND + 1, 2)
            if m * m * (4 * c - a) > n * n * a]


def complex_seed(seed: int, r: int) -> int:
    return random.Random(f"complex-scatter:{seed}:{r}").randrange(2**31)


def round_ops(workload: str, seed: int, r: int) -> list[tuple[str, list[str]]]:
    """Round r of a workload: the same argv list for the same arguments."""
    if workload == "odd-family":
        return [("odd", list(ODD_ARGV))]
    if workload == "complex-scatter":
        argv = ["density", "--mode", "complex", "--base", BASE_ARG,
                "--seed", str(complex_seed(seed, r)), "--draws", str(COMPLEX_DRAWS),
                "--format", "json"]
        return [("complex", argv)]
    if workload == "lookup-stream":
        rng = random.Random(f"lookup-stream:{seed}:{r}")
        kinds = [kind for kind, n in LOOKUP_MIX for _ in range(n)]
        rng.shuffle(kinds)
        return [(kind, _lookup_op(kind, rng)) for kind in kinds]
    raise ValueError(f"unknown workload {workload!r}")
