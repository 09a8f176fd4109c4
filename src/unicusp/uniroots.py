"""Univariate helpers over Z and Q: exact root finding and gcds.

Polynomials here are plain coefficient lists, low degree first.  Rational
root extraction avoids integer factorization entirely: roots are found
modulo a prime, lifted quadratically, recognized by rational
reconstruction and then verified exactly, so the answers are certificates
rather than heuristics.  Gcds of integer polynomials run modulo several
primes with an exact trial-division check at the end.  One inverse-free
Euclid modulo m gives both the resultant and the gcd modulo a prime, and
so every coprimality test modulo a prime: for nonzero a and b,
Res(a, b) = 0 exactly when gcd(a, b) is not constant, and `coprime_mod_p`
certifies by one prime that integral binary forms share no root.
`binary_roots` reads the rational roots of such a form, (1 : 0) included:
the tangent cones, eliminants and line restrictions of `curves`.  The
modular helpers (resultant, interpolation, CRT) also serve the
multivariate resultant in `poly`, and the slot decoder of packed ints
serves `Poly.substitute`.
"""

from fractions import Fraction
from math import factorial, gcd as _gcd, isqrt, prod

# -- basic list-polynomial operations ------------------------------------


def trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def deg(a: list) -> int:
    return len(a) - 1


def eval_uni_int(a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def derivative(a: list) -> list:
    return trim([i * a[i] for i in range(1, len(a))])


def divmod_q(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder over Q; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    db, lb = deg(b), b[-1]
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        f = r[-1] / lb
        q[k] = f
        for i in range(db + 1):
            r[k + i] -= f * b[i]
        r.pop()
        trim(r)
    return trim(q), r


def divide_exact_int(a: list[int], b: list[int]) -> list[int] | None:
    """Exact quotient in Z[x] or None when b does not divide a."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    db, lb = deg(b), b[-1]
    while r and len(r) - 1 >= db:
        c, rem = divmod(r[-1], lb)
        if rem:
            return None
        k = len(r) - 1 - db
        q[k] = c
        for i in range(db + 1):
            r[k + i] -= c * b[i]
        trim(r)
    return None if r else q


def content_int(a: list[int]) -> int:
    g = 0
    for c in a:
        g = _gcd(g, abs(c))
    return g


def primitive_int(a: list[int]) -> list[int]:
    a = trim(list(a))
    if not a:
        return a
    g = content_int(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


# -- arithmetic modulo a prime -------------------------------------------


def _mod_reduce(a: list[int], p: int) -> list[int]:
    return trim([c % p for c in a])


def _mod_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# Miller-Rabin with the bases 2, 3, 5, 7 decides primality exactly for
# every n below this bound (Jaeschke, Math. Comp. 61, 1993): the smallest
# composite that passes all four is 3215031751.  The primes asked for here
# lie near 2**30 or below a few thousand.
_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3215031751


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if n % 2 == 0:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_from(start: int):
    """The primes >= start, in increasing order."""
    n = max(start, 2)
    while True:
        if _is_prime(n):
            yield n
        n += 1


# Primes from 2**30 upward, found once per process and shared by the
# modular gcd and resultant, which can need dozens of them.
_LARGE_PRIMES: list[int] = []


def large_primes():
    """Primes from 2**30 upward, in increasing order (cached)."""
    i = 0
    while True:
        if i == len(_LARGE_PRIMES):
            start = _LARGE_PRIMES[-1] + 2 if _LARGE_PRIMES else 2 ** 30
            _LARGE_PRIMES.append(next(_primes_from(start)))
        yield _LARGE_PRIMES[i]
        i += 1


def _euclid_mod(a: list[int], b: list[int], m: int) -> tuple[int, int, list[int]]:
    """The inverse-free Euclid modulo m > 1 behind `resultant_mod_p` and
    `gcd_mod_p`: (num, den, g) with num = den * Res(a, b) (mod m), rows of
    a first, and g the last nonzero remainder ([] when a and b are both 0).

    Each pseudo-remainder row is r <- lc(b)*r - f*x**k*b with f the leading
    coefficient of r, so after `rows` rows lc(b)**rows * a = q*b + r.  These
    are Sylvester row operations, and over any commutative ring they give
        lc(b)**(rows * deg b) * Res(a, b)
            = (-1)**(deg a * deg b) * lc(b)**(deg a - deg r) * Res(b, r),
    where deg r may be any formal degree (here: after reduction mod m).
    The sign and the powers on the right accumulate in num, the powers on
    the left in den.  For a prime m trimming keeps every leading
    coefficient nonzero, so den is a unit, and each remainder is a unit
    times the one of the monic Euclid over GF(m): g is the gcd up to a
    unit, and for a and b nonzero mod m, Res(a, b) = 0 exactly when g is
    not constant.

    The degrees are taken from a and b after reduction mod m, so the caller
    keeps both leading coefficients units mod m when the formal degrees
    matter.
    """
    a, b = _mod_reduce(a, m), _mod_reduce(b, m)
    if not a or not b:
        return 0, 1, a or b
    num = den = 1
    while len(b) > 1:
        lb, db = b[-1], deg(b)
        r = list(a)
        rows = 0
        while len(r) > db:
            f = r.pop()
            k = len(r) - db
            r[:k] = [c * lb % m for c in r[:k]]
            r[k:] = [(c * lb - f * d) % m for c, d in zip(r[k:], b)]
            trim(r)
            rows += 1
        den = den * pow(lb, rows * db, m) % m
        if not r:
            return 0, den, b
        if deg(a) * db % 2:
            num = -num
        num = num * pow(lb, len(a) - len(r), m) % m
        a, b = b, r
    return num * pow(b[0], deg(a), m) % m, den, b


def resultant_mod_p(a: list[int], b: list[int], m: int) -> int | None:
    """Sylvester resultant (rows of a first) of a and b modulo any m > 1,
    by `_euclid_mod` and one inversion at the end, or None when m shares a
    factor with a leading coefficient met on the way (never for a prime m)."""
    num, den, _ = _euclid_mod(a, b, m)
    try:
        inv = pow(den, -1, m)
    except ValueError:  # den shares a factor with m
        return None
    return num * inv % m


def gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b over GF(p), p prime: the last remainder of
    `_euclid_mod` made monic ([] when a and b are both 0 mod p)."""
    g = _euclid_mod(a, b, p)[2]
    return _mod_monic(g, p) if g else []


def coprime_mod_p(forms: list[tuple[list[int], int]], p: int) -> bool:
    """True when the prime p certifies that integral binary forms share no
    root in P^1 over C; False when it cannot tell.

    Each form C(x, z) comes as the integer list of C(t, 1), low degree
    first, or its image modulo p, with its formal degree d, so that C is
    z**(d - deg) times the list homogenized.  The certificate holds when
    some list is nonzero mod p, not every list falls short of its formal
    degree mod p, and the gcd of the lists over GF(p) is constant.

    Proof, by Gauss's lemma.  Forms with a common root share an
    irreducible factor D over Q of positive degree, which we take
    primitive in Z[x, z]; then D divides each form in Z[x, z].  D stays
    nonzero mod p, of degree deg D, and divides each form mod p.  Write
    D mod p = z**j * D'.  If deg D' > 0, D'(t, 1) is a nonconstant factor
    of every list mod p (a zero list too), so their gcd is not constant.
    Otherwise z divides every form mod p, and every list falls short of
    its formal degree.
    """
    lists = [_mod_reduce(a, p) for a, _ in forms]
    if not any(lists) or all(deg(a) < d for a, (_, d) in zip(lists, forms)):
        return False
    g: list[int] = []
    for a in lists:
        g = _euclid_mod(g, a, p)[2]
    return deg(g) == 0


def binary_roots(coeffs: list[int], degree: int) -> tuple[list[tuple[Fraction | None, int]], list[int]]:
    """The rational roots of a nonzero integral binary form C(x, z), given
    as `coprime_mod_p` reads one: the integer list of C(t, 1) and the
    formal degree d.  Each root is a direction with its order: r for
    (r : 1), the roots of the list with their multiplicities
    (`rational_roots_int`), then None for (1 : 0), whose order is the
    deficit d - deg C(t, 1), as z**(d - deg) divides C.  Also the primitive
    cofactor of C(t, 1) once its rational linear factors are divided out.
    """
    coeffs = trim(list(coeffs))
    roots, cofactor = rational_roots_int(coeffs)
    dirs: list[tuple[Fraction | None, int]] = list(roots.items())
    if degree > deg(coeffs):
        dirs.append((None, degree - deg(coeffs)))
    return dirs, cofactor


def unpack_slots(val: int, size: int) -> list[int]:
    """The slots of a packed value, lowest first: the c_j with
    val = sum c_j * 2^(8*size*j) and |c_j| < 2^(8*size - 1)."""
    width = 8 * size
    n = abs(val).bit_length() // width + 1
    # Adding 2^(width-1) to every slot makes each one a nonnegative byte string.
    raw = (val + int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")).to_bytes(n * size, "little")
    half = 1 << (width - 1)
    return [int.from_bytes(raw[j * size : (j + 1) * size], "little") - half for j in range(n)]


def interpolate_mod_p(x0: int, ys: list[int], modulus: int) -> list[int]:
    """Coefficients (low to high, length n = len(ys), in [0, modulus)) of
    the polynomial of degree below n through the points (x0 + i, ys[i])
    modulo `modulus`.

    At consecutive points Newton's forward form is
        sum_j e_j * (x - x0) * (x - x0 - 1) * ... * (x - x0 - j + 1),
    e_j = Delta^j y_0 / j!, so it divides only by j! for j < n: the modulus
    must be a prime at least n or a product of such primes (any product of
    primes from `large_primes` while n < 2**30).  Each step runs on one
    Kronecker-packed int, a list of integers in slots of whole bytes with a
    sign bit (decoded by `unpack_slots`):

    - forward differences: the ys, reduced into [0, modulus), are packed
      lowest first.  The lowest slot is the next Delta^j y_0; taking it
      out, shifting down one slot and subtracting the old value gives the
      next difference of the sequence, extended by zeros, in every slot at
      once.  |Delta^j y_i| < 2^j * M for M = modulus, so bits(M) + n bits
      and a sign bit hold every slot;
    - one inverse of (n-1)!; then 1/(j-1)! = j * (1/j!);
    - Newton's form to coefficients by Horner with x -> 2^W:
      acc <- (acc << W) - (x0 + j) * acc + e_j.  Each coefficient of every
      acc is below n * M * prod_{i < n-1} (1 + |x0 + i|) in absolute value,
      so W is that bound's bit length and a sign bit; the slots are decoded
      once and reduced modulo M.
    """
    n = len(ys)
    if not n:
        return []
    size = (modulus.bit_length() + n) // 8 + 1
    width = 8 * size
    mask, half = (1 << width) - 1, 1 << (width - 1)
    packed = int.from_bytes(b"".join((y % modulus).to_bytes(size, "little") for y in ys), "little")
    diffs = []
    for _ in range(n):
        low = packed & mask
        if low >= half:
            low -= 1 << width
        diffs.append(low)
        packed = ((packed - low) >> width) - packed
    inv = pow(factorial(n - 1), -1, modulus)
    newton = [0] * n
    for j in range(n - 1, -1, -1):
        newton[j] = diffs[j] * inv % modulus
        inv = inv * j % modulus
    bound = n * modulus * prod(1 + abs(x0 + i) for i in range(n - 1))
    size = bound.bit_length() // 8 + 1
    width = 8 * size
    acc = 0
    for j in range(n - 1, -1, -1):
        acc = (acc << width) - (x0 + j) * acc + newton[j]
    coeffs = [c % modulus for c in unpack_slots(acc, size)]
    return coeffs + [0] * (n - len(coeffs))


def crt_merge(residues: list[int], modulus: int, new: list[int], p: int) -> list[int]:
    """Combine residues mod `modulus` with residues mod a prime p coprime
    to it, entry by entry, into residues mod modulus*p (in [0, modulus*p))."""
    inv = pow(modulus, -1, p)
    return [old + modulus * ((c - old) * inv % p) for old, c in zip(residues, new)]


# -- gcd in Q[x] via modular images ---------------------------------------


def gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Gcd of a and b as polynomials over Q, returned primitive in Z[x]
    with positive leading coefficient.  Certified by exact trial division.

    The loop over `large_primes` ends.  Primes dividing a leading
    coefficient are skipped; of the rest, only the finitely many dividing
    the resultant of the cofactors give an image of too high a degree, and
    a lower one replaces it.  Once the product of the lucky primes exceeds
    twice the largest coefficient of (lead / lc G)*G, for G the gcd, the
    candidate is G.  So the number of primes grows with the bit size of a, b.
    """
    a, b = primitive_int(a), primitive_int(b)
    if not a:
        return b
    if not b:
        return a
    if deg(a) == 0 or deg(b) == 0:
        return [1]
    lead = _gcd(a[-1], b[-1])
    best_deg: int | None = None
    residues: list[int] = []
    modulus = 1
    for p in large_primes():
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        g = gcd_mod_p(a, b, p)
        d = deg(g)
        if d == 0:
            return [1]
        scaled = [c * lead % p for c in g]
        if best_deg is None or d < best_deg:
            best_deg, residues, modulus = d, scaled, p
        elif d == best_deg:
            residues, modulus = crt_merge(residues, modulus, scaled, p), modulus * p
        else:
            continue
        half = modulus // 2
        cand = primitive_int([c - modulus if c > half else c for c in residues])
        if divide_exact_int(a, cand) is not None and divide_exact_int(b, cand) is not None:
            return cand


def squarefree_part_int(a: list[int]) -> list[int]:
    a = primitive_int(a)
    if deg(a) <= 0:
        return a
    g = gcd_int(a, derivative(a))
    if deg(g) == 0:
        return a
    q = divide_exact_int(a, g)
    assert q is not None
    return primitive_int(q)


# -- rational roots via Hensel lifting ------------------------------------


def _rational_reconstruct(r: int, m: int) -> tuple[int, int] | None:
    """u/w with r*w = u (mod m), |u|,w <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1 = m, r % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    if _gcd(abs(r1), t1) != 1:
        return None
    return r1, t1


def rational_roots_int(f: list[int]) -> tuple[dict[Fraction, int], list[int]]:
    """All rational roots of f with multiplicities, plus the primitive
    cofactor of f once every rational linear factor is divided out.

    Roots of the squarefree part fs are found by trying every residue
    modulo a small prime p, the first from max(2 * deg, 101) that divides
    neither lc(fs) nor the discriminant of fs, so neither lc(fs) nor
    Res(fs, fs') = +-lc(fs) * disc(fs).  The root set is complete: a root
    u/w in lowest terms has w | lc(fs), so p does not divide w and u/w
    reduces to a root mod p, a simple one because fs stays squarefree mod
    p.  A simple root lifts uniquely to a large power of p (Newton),
    rational reconstruction recovers u/w from the lift, and exact
    division by w*x - u discards the residues that are not rational
    roots: they leave a remainder.  When fs is linear, f is a power of
    it (the cone of every point of a unibranch walk), and its one root is
    read off with multiplicity deg f.
    """
    f = primitive_int(f)
    if deg(f) <= 0:
        return {}, (f or [0])
    roots: dict[Fraction, int] = {}
    # split off x^k
    k = 0
    while f[0] == 0:
        f = f[1:]
        k += 1
    if k:
        roots[Fraction(0)] = k
    if deg(f) == 0:
        return roots, f
    fs = f if deg(f) == 1 else squarefree_part_int(f)
    if deg(fs) == 1:
        roots[Fraction(-fs[0], fs[1])] = deg(f)
        return roots, [1]
    dfs = derivative(fs)
    lc, height = abs(fs[-1]), max(abs(c) for c in fs)
    bound = max(lc, lc + height)
    target = 2 * bound * bound + 1
    p = next(
        q for q in _primes_from(max(2 * deg(fs), 101))
        if fs[-1] % q and resultant_mod_p(fs, dfs, q)
    )
    fp = _mod_reduce(fs, p)
    candidates: list[Fraction] = []
    for r in range(p):
        acc = 0
        for c in reversed(fp):
            acc = (acc * r + c) % p
        if acc:
            continue
        m = p
        while m < target:
            m2 = m * m
            fr = eval_uni_int(fs, r) % m2
            inv = pow(eval_uni_int(dfs, r) % m2, -1, m2)
            r = (r - fr * inv) % m2
            m = m2
        rec = _rational_reconstruct(r, m)
        if rec is not None:
            candidates.append(Fraction(*rec))
    leftover = f
    for root in sorted(set(candidates)):
        lin = [-root.numerator, root.denominator]
        mult = 0
        while True:
            q = divide_exact_int(leftover, lin)
            if q is None:
                break
            leftover = q
            mult += 1
        if mult:
            roots[root] = roots.get(root, 0) + mult
    return roots, primitive_int(leftover or [1])


# -- exact resultants and interpolation ------------------------------------


def resultant_q(a: list[Fraction], b: list[Fraction]) -> Fraction:
    """Sylvester resultant of two univariate polynomials over Q."""
    a = trim([Fraction(c) for c in a])
    b = trim([Fraction(c) for c in b])
    if not a or not b:
        return Fraction(0)
    ma, mb = deg(a), deg(b)
    if ma == 0:
        return a[0] ** mb
    if mb == 0:
        return b[0] ** ma
    acc = Fraction(1)
    sign = 1
    while True:
        _, r = divmod_q(a, b)
        if not r:
            return Fraction(0)
        if (deg(a) * deg(b)) % 2:
            sign = -sign
        acc *= b[-1] ** (deg(a) - deg(r))
        a, b = b, r
        if deg(b) == 0:
            return sign * acc * b[0] ** deg(a)


def newton_interpolate(xs: list[int], ys: list[Fraction]) -> list[Fraction]:
    """Coefficients (low to high) of the interpolating polynomial."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly: list[Fraction] = []
    for i in range(n - 1, -1, -1):
        poly = _mul_linear_add(poly, xs[i], coef[i])
    return trim(poly)


def _mul_linear_add(p: list[Fraction], root: int, add: Fraction) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i + 1] += c
        out[i] -= c * root
    out[0] += add
    return trim(out)
