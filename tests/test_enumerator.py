"""The Fincke-Pohst enumerator pinned to the straightforward recursion it
replaced, and the per-lattice memo checked for leaks.

The reference walks every coordinate range in full, sums each centre anew
and calls a visitor once per vector.  The walks under test use the x/-x
symmetry and stepped centres.  The walk of `norm_counts` also stops at
level 2 and tallies, for each z = (x_2, ..., x_{n-1}), the class of
(b_0 . z, b_1 . z) modulo G2 Z^2 with an integer shift in 0..top; each
tallied (class, shift) then adds the norm histogram of its class, shifted
(the identity and the bound are in the `roots` docstring).  So its
histograms, and their top entries at odd and even norms, are pinned to the
reference: on leading Gram blocks G2 with 1, 3, 4, 24 and 30,000 classes,
on ranks 1-3 (which have no level 2), on negative definite lattices and on
counts wider than a byte; a shift outside 0..top raises.  The exact counts
of `enumerate_norm_vectors` are pinned beside them, and the integer square
completion under every walk is pinned to the Fraction LDL^T it was once
integerised from."""

import gc
import random
from math import isqrt

import pytest

from k3mod import lattice, qseries, reflective, roots
from k3mod.lattice import IntLattice, parse_lattice_expr

from exact_references import scaled_form


def _reference_enumerate(lat, target, visitor, exact):
    """The enumerator before the x/-x symmetry, stepped centres and the
    two-level counting leaf: every coordinate range in full, the centre
    summed anew at every level, one visitor call per vector in walk order."""
    scale, a, unum, uden = roots._scaled_form(lat)
    n = lat.rank
    x = [0] * n
    count = 0
    total = scale * target

    def recurse(i, budget):
        nonlocal count
        ai = a[i]
        di = uden[i]
        row = unum[i]
        centre = 0
        for j in range(i + 1, n):
            if x[j]:
                centre += row[j] * x[j]
        if i == 0:
            if exact:
                ysq, rem = divmod(budget, ai)
                if rem:
                    return
                y = isqrt(ysq)
                if y * y != ysq:
                    return
                for yy in {y, -y}:
                    xi, r = divmod(yy - centre, di)
                    if r == 0:
                        x[0] = xi
                        if any(x):
                            count += 1
                            if visitor is not None:
                                visitor(tuple(x), target)
                x[0] = 0
            else:
                ymax = isqrt(budget // ai)
                lo = -((ymax + centre) // di)
                hi = (ymax - centre) // di
                base = total - budget
                y = lo * di + centre
                for xi in range(lo, hi + 1):
                    x[0] = xi
                    norm, rem = divmod(base + ai * y * y, scale)
                    assert rem == 0
                    if norm:
                        count += 1
                        if visitor is not None:
                            visitor(tuple(x), norm)
                    y += di
                x[0] = 0
            return
        ymax = isqrt(budget // ai)
        lo = -((ymax + centre) // di)
        hi = (ymax - centre) // di
        y = lo * di + centre
        for xi in range(lo, hi + 1):
            x[i] = xi
            rem = budget - ai * y * y
            if rem >= 0:
                recurse(i - 1, rem)
            y += di
        x[i] = 0

    recurse(n - 1, total)
    return count


def _signed_permutation(expr, rng):
    """The lattice `expr` on a seeded signed permutation of its basis."""
    base = parse_lattice_expr(expr).gram
    n = len(base)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    return IntLattice([[sign[i] * sign[j] * base[perm[i]][perm[j]] for j in range(n)]
                       for i in range(n)])


def _reference_histogram(lat, top):
    """Number of vectors of each norm 0..top by the reference walk."""
    hist = [0] * (top + 1)
    hist[0] = 1

    def visit(_coords, norm):
        hist[norm] += 1

    _reference_enumerate(lat, top, visit, False)
    return hist


_PINNED = ["E6", "E7", "E8", "D(5)", "D(8)", "A(2)+A(4)", "E8(-1)"]


@pytest.mark.parametrize("expr", _PINNED + ["<100>+<300>+<2>", "<4>+<6>+A(2)"])
def test_square_completion_matches_the_fraction_reference(expr):
    for seed in range(4):
        lat = _signed_permutation(expr, random.Random(f"{expr}/{seed}"))
        assert roots._scaled_form(lat) == scaled_form(lat.gram), seed


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("expr", _PINNED)
def test_vector_sets_match_the_reference(expr, seed):
    lat = _signed_permutation(expr, random.Random(f"{expr}/{seed}"))
    top = 8
    for norm in range(2, top + 1, 2):
        want = []
        want_n = _reference_enumerate(lat, norm, lambda c, nrm: want.append((c, nrm)), True)
        got = []
        got_n = roots.enumerate_norm_vectors(lat, norm, lambda c, nrm: got.append((c, nrm)))
        assert got_n == want_n == len(got) == len(set(got))
        assert sorted(got) == sorted(want)
        assert roots.enumerate_norm_vectors(lat, norm) == want_n
        # the nonnegative cone: the same vectors with every coordinate >= 0
        assert roots.enumerate_cone(lat, norm) == sorted(
            c for c, _nrm in want if min(c) >= 0)
    assert roots.norm_counts(lat, top) == _reference_histogram(lat, top)


@pytest.mark.parametrize("expr", ["A(1)", "<4>", "A(2)", "A(1)+<6>", "E8(-1)"])
def test_small_ranks_and_odd_norms_match_the_reference(expr):
    lat = parse_lattice_expr(expr)
    for norm in range(1, 9):
        want = []
        assert roots.enumerate_norm_vectors(lat, norm) == \
            _reference_enumerate(lat, norm, lambda c, _n: want.append(c), True)
        assert roots.enumerate_cone(lat, norm) == sorted(c for c in want if min(c) >= 0)
    assert roots.norm_counts(lat, 9) == _reference_histogram(lat, 9)


@pytest.mark.parametrize("expr", ["E7", "D(5)", "A(2)+A(4)", "E8(-1)", "A(1)+<6>"])
def test_norm_counts_is_the_norm_histogram(expr):
    lat = _signed_permutation(expr, random.Random(expr))
    assert roots.norm_counts(lat, 10) == _reference_histogram(lat, 10)
    assert roots.norm_counts(lat, 0) == [1]
    with pytest.raises(lattice.LatticeError):
        roots.norm_counts(lat, -1)


# the leading Gram block G2 of b_0 and b_1, with |det G2| classes in Z^2 / G2 Z^2
_BLOCKS = [("<1>+<1>+<2>", 1), ("A(2)+D(4)", 3), ("A(1)+A(1)+E6", 4),
           ("<4>+<6>+A(2)", 24), ("E8(-1)", 4)]


@pytest.mark.parametrize("expr, classes", _BLOCKS)
def test_counting_leaf_matches_the_reference_for_each_class_count(expr, classes):
    lat = parse_lattice_expr(expr)
    g = lat.gram
    assert g[0][0] * g[1][1] - g[0][1] ** 2 == classes
    top = 13
    hist = _reference_histogram(lat, top)
    assert roots.norm_counts(lat, top) == hist
    # the top entry, at an even and an odd norm
    for norm in (top - 1, top):
        assert roots.norm_counts(lat, norm)[norm] == roots.enumerate_norm_vectors(lat, norm) \
            == _reference_enumerate(lat, norm, None, True) == hist[norm]


@pytest.mark.parametrize("expr", ["<3>", "<-5>", "A(2)", "<-2>+<-3>", "<2>+<3>",
                                  "A(3)", "<-1>+<-2>+<-5>", "<1>+A(2)"])
def test_counting_leaf_on_ranks_one_to_three(expr):
    lat = parse_lattice_expr(expr)
    top = 30
    hist = _reference_histogram(lat, top)
    assert roots.norm_counts(lat, top) == hist
    assert [roots.norm_counts(lat, m)[m] for m in range(1, top + 1)] == hist[1:]
    assert [roots.enumerate_norm_vectors(lat, m) for m in range(1, top + 1)] == hist[1:]


def test_counts_need_digits_wider_than_a_byte():
    # D(4) has up to 3,744 vectors of one norm <= 200
    lat = parse_lattice_expr("D(4)")
    hist = _reference_histogram(lat, 200)
    assert max(hist) > 1 << 11
    assert roots.norm_counts(lat, 200) == hist
    assert roots.enumerate_norm_vectors(lat, 200) == hist[200]


@pytest.mark.parametrize("expr, top", [("<100>+<300>+<2>", 2000), ("<4>+<6>+A(2)", 300)])
def test_counting_leaf_on_large_leading_blocks(expr, top):
    # |det G2| = 30,000 and 24: most classes are met at a few shifts only
    lat = parse_lattice_expr(expr)
    hist = _reference_histogram(lat, top)
    assert roots.norm_counts(lat, top) == hist
    assert roots.enumerate_norm_vectors(lat, top) == hist[top]


@pytest.mark.parametrize("move", [-1, 1])
def test_a_shift_outside_the_histogram_raises(monkeypatch, move):
    # a shift of class c moved below 0 or above top would index outside the
    # result; the tally is checked once per (class, shift) and raises
    lat = parse_lattice_expr("E8")
    top = 6
    g = lat.gram
    unit = roots._scaled_form(lat)[0] * (g[0][0] * g[1][1] - g[0][1] ** 2)

    def moved(p, q):
        sh, r = divmod(p, q)
        return (sh + move * (top + 1), r) if q == unit else (sh, r)

    assert roots.norm_counts(lat, top) == _reference_histogram(lat, top)
    monkeypatch.setattr(roots, "divmod", moved, raising=False)
    with pytest.raises(lattice.LatticeError, match="outside 0..top"):
        roots.norm_counts(lat, top)


def test_theta_brute_of_e8_is_240_sigma3():
    lat = _signed_permutation("E8", random.Random(3))
    series = qseries.theta_brute(lat, 8)
    sigma3 = [sum(t ** 3 for t in range(1, m + 1) if m % t == 0) for m in range(1, 9)]
    assert series.coeffs == [1] + [240 * s for s in sigma3]
    assert qseries.theta_brute(lat, 0).coeffs == [1]
    with pytest.raises(lattice.LatticeError):
        qseries.theta_brute(lat, -1)


@pytest.mark.parametrize("stop", [1, 2, 5, 6])
def test_aborting_visitor_stops_after_exactly_n_calls(stop):
    # a visitor aborts by raising, and the walk passes the exception on at
    # once; an odd stop raises between x and -x
    lat = _signed_permutation("D(5)", random.Random(stop))
    seen = []

    class Stop(Exception):
        pass

    def visit(coords, _norm):
        seen.append(coords)
        if len(seen) == stop:
            raise Stop

    with pytest.raises(Stop):
        roots.enumerate_norm_vectors(lat, 4, visit)
    assert len(seen) == stop
    assert len(set(seen)) == stop


def _live_lattices():
    return sum(1 for obj in gc.get_objects() if isinstance(obj, IntLattice))


_ATOMS = ["A(1)", "A(2)", "A(3)", "A(4)", "D(4)", "D(5)", "E6", "<2>", "<4>"]


def _exercise(rng):
    expr = "+".join(rng.choice(_ATOMS) for _ in range(rng.randint(1, 3)))
    lat = parse_lattice_expr(expr)
    data = roots.enumerate_roots(lat)
    roots.count_orth_roots(lat, data.coords[0] if data.coords else (1,) + (0,) * (lat.rank - 1))
    if lat.is_even():
        qseries.theta_brute(lat, 2)
    return lat


def test_memo_does_not_outlive_its_lattice():
    rng = random.Random(17)
    gc.collect()
    baseline = _live_lattices()
    for _ in range(50):
        lat = _exercise(rng)
        lattice.disc_group(lat)
    del lat
    gc.collect()
    assert _live_lattices() == baseline


def test_disc_group_is_memoised_on_its_lattice():
    lat = lattice.make_l2d(3)
    disc = lattice.disc_group(lat)
    assert lattice.disc_group(lat) is disc
    assert lattice.disc_group(lattice.make_l2d(3)) is not disc


def test_roots_memo_is_freed_by_reference_counting():
    # the roots layer memoises no object that refers back to the lattice,
    # so no reference cycle keeps a lattice alive until a collection
    rng = random.Random(23)
    gc.collect()
    gc.disable()
    try:
        baseline = _live_lattices()
        for _ in range(50):
            _exercise(rng)
        assert _live_lattices() == baseline
    finally:
        gc.enable()


def test_token_keyed_caches_are_gone():
    for name in ("_cholesky_cache", "_scaled_cache", "_root_cache"):
        assert not hasattr(roots, name)
    assert not hasattr(reflective, "_disc_cache")
    assert not hasattr(reflective, "cached_disc_group")
    assert not hasattr(roots.RootSystemData, "roots")
