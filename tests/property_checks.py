"""Randomized identity checks, 100 seeded instances per property.

Each check draws its own deterministic generator, so the whole suite is
reproducible.  Friezes and solution data are cached per source matrix;
the identities themselves are always evaluated on the sampled objects.
"""
import random

from jugglerfrieze import (Matrix, build_frieze_det, build_frieze_twist,
                           dual_frieze, frieze_entry, inverse_twist,
                           positive_complement, residual, solution_matrix,
                           twist)

from exact_oracles import kernel_correspondence, rank, tiling

from samplers import (UNIMODULAR_POOL, random_determinant_one,
                      random_full_rank, random_juggling, random_unimodular)

INSTANCES = 100

_F_CACHE: dict = {}
_SOL_CACHE: dict = {}


def frieze_of(m, pi):
    key = (m, pi)
    if key not in _F_CACHE:
        _F_CACHE[key] = build_frieze_det(m, pi)
    return _F_CACHE[key]


def solution_of(c):
    if c not in _SOL_CACHE:
        _SOL_CACHE[c] = solution_matrix(c)
    return _SOL_CACHE[c]


def random_frieze(rng):
    m, pi = _pool_pick(rng)
    c = frieze_of(m, pi)
    if rng.random() < 0.3:
        c = dual_frieze(c)
    if rng.random() < 0.3:
        c = c.translate(rng.randint(1, pi.period))
    return c


def _pool_pick(rng):
    from samplers import _quiddity_matrices
    if rng.random() < 0.3:
        return rng.choice(_quiddity_matrices())
    return rng.choice(UNIMODULAR_POOL)


def check_shape_double_dual():
    rng = random.Random(101)
    for _ in range(INSTANCES):
        pi = random_juggling(rng)
        assert pi.dual().dual() == pi


def check_ball_conservation():
    rng = random.Random(102)
    for _ in range(INSTANCES):
        pi = random_juggling(rng)
        dual = pi.dual()
        a = rng.randint(-pi.period, 2 * pi.period)
        lhs = (pi(a) - a + len(dual.s_set(pi(a), a + pi.period))
               - len(pi.s_set(a, pi(a))))
        assert lhs == pi.balls


def check_frieze_double_dual():
    rng = random.Random(103)
    for _ in range(INSTANCES):
        c = random_frieze(rng)
        assert dual_frieze(dual_frieze(c)) == c


def check_construction_paths_agree():
    rng = random.Random(104)
    for _ in range(INSTANCES):
        m, pi = random_unimodular(rng)
        assert build_frieze_det(m, pi) == build_frieze_twist(m, pi)


def check_left_multiplication_invariance():
    rng = random.Random(105)
    for _ in range(INSTANCES):
        m, pi = _pool_pick(rng)
        g = random_determinant_one(rng, m.nrows)
        assert build_frieze_det(g * m, pi) == frieze_of(m, pi)


def check_duality_triangle():
    rng = random.Random(106)
    for _ in range(INSTANCES):
        m, pi = random_unimodular(rng)
        left = dual_frieze(build_frieze_det(m, pi))
        via_twist = build_frieze_det(positive_complement(twist(m, pi)),
                                     pi.dual())
        via_inverse = build_frieze_det(
            inverse_twist(positive_complement(m), pi.dual()), pi.dual())
        assert left == via_twist == via_inverse


def check_minor_duality():
    rng = random.Random(107)
    for _ in range(INSTANCES):
        c = random_frieze(rng)
        n = c.shape.period
        d = dual_frieze(c)
        a = rng.randint(-n, n)
        b = rng.randint(a, a + n - 1)
        size = rng.randint(0, b - a + 1)
        i_set = sorted(rng.sample(range(a, b + 1), size))
        j_set = sorted(rng.sample(range(a, b + 1), size))
        lhs = d.minor(i_set, j_set)
        rows = [x for x in range(a, b + 1) if x not in j_set]
        cols = [x for x in range(a, b + 1) if x not in i_set]
        assert lhs == c.minor(rows, cols)


def check_schedule_exchange_minors():
    rng = random.Random(108)
    for _ in range(INSTANCES):
        c = random_frieze(rng)
        pi = c.shape
        n = pi.period
        a = rng.randint(-n, n)
        b = rng.randint(a + 1, a + 2 * n)
        s = pi.s_set(a, b)
        assert c.minor(sorted(pi(i) for i in s), s) == 1


def check_rank_kernel_projection():
    rng = random.Random(109)
    for _ in range(INSTANCES):
        k = rng.randint(1, 3)
        n = rng.randint(k, k + 4)
        m = random_full_rank(rng, k, n)
        cols = sorted(rng.sample(range(n), rng.randint(0, n)))
        rest = [j for j in range(n) if j not in cols]
        proj = Matrix([[row[j] for j in rest]
                       for row in m.kernel_basis().entries], cols=len(rest))
        assert (rank(m.submatrix(range(k), cols))
                == rank(proj) + len(cols) - (n - k))


def check_kernel_correspondence():
    rng = random.Random(110)
    for _ in range(INSTANCES):
        m, pi = random_unimodular(rng)
        assert kernel_correspondence(m, pi, rng)


def check_entry_periodicity_of_construction():
    rng = random.Random(111)
    for _ in range(INSTANCES):
        m, pi = random_unimodular(rng)
        n = pi.period
        b = rng.randint(-n, n)
        a = rng.randint(b, b + n)
        assert frieze_entry(m, pi, a, b) == frieze_entry(m, pi, a + n, b + n)


def check_solution_equals_tiling_of_dual():
    rng = random.Random(112)
    for _ in range(INSTANCES):
        c = random_frieze(rng)
        assert tiling(dual_frieze(c)) == solution_of(c)


def check_solutions_annihilated():
    rng = random.Random(113)
    for _ in range(INSTANCES):
        c = random_frieze(rng)
        pi = c.shape
        n = pi.period
        sol = solution_of(c)
        b = rng.randint(1, n)
        assert all(residual(c, sol.column(b), a) == 0
                   for a in range(b - n, b + n + 1))
        a = rng.randint(1, n)
        row = lambda x, _a=a: sol.entry(_a, x)
        col = rng.randint(a - n, a)
        assert sum(row(x) * c.entry(x, col)
                   for x in range(col, col + n + 1)) == 0


def check_schedule_columns_span():
    rng = random.Random(114)
    for _ in range(INSTANCES):
        c = random_frieze(rng)
        pi = c.shape
        n, h = pi.period, pi.balls
        sol = solution_of(c)
        a = rng.randint(1, n)
        sched = pi.landing_schedule(a)
        block = Matrix([[sol.entry(r, b) for r in range(a, a + n)]
                        for b in sched], cols=n)
        assert rank(block) == h


ALL_CHECKS = [
    ("shape double dual", check_shape_double_dual),
    ("ball conservation identity", check_ball_conservation),
    ("frieze double dual", check_frieze_double_dual),
    ("determinant and twist paths agree", check_construction_paths_agree),
    ("left unimodular invariance", check_left_multiplication_invariance),
    ("duality triangle", check_duality_triangle),
    ("minor duality", check_minor_duality),
    ("schedule exchange minors", check_schedule_exchange_minors),
    ("rank via projected kernel", check_rank_kernel_projection),
    ("kernel correspondence", check_kernel_correspondence),
    ("construction entries are periodic", check_entry_periodicity_of_construction),
    ("solutions equal tiling of the dual", check_solution_equals_tiling_of_dual),
    ("solutions annihilated on both sides", check_solutions_annihilated),
    ("schedule columns span the solutions", check_schedule_columns_span),
]
