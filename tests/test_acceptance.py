"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them on success)."""

import ast
import json
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from operator import index
from pathlib import Path

import pytest

from k3mod import e8
from k3mod import lattice as lt
from k3mod import qseries as qs
from k3mod import reflective as rf
from k3mod import roots
from k3mod import rst
from k3mod import search as se

from exact_references import bouquet_decomposition, theta_d6_eis


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} [{label}]: FAIL")
        raise
    print(f"criterion {n:2d} [{label}]: PASS")


def test_criterion_01_root_counts():
    with criterion(1, "root counts"):
        counts = {
            "E8": 240, "E7": 126, "E6": 72, "D(8)": 112,
            "A(2)": 6, "4A(1)": 8, "A(1)+A(2)": 8, "A(3)": 12, "2A(1)+A(2)": 10,
        }
        for expr, want in counts.items():
            assert roots.enumerate_roots(lt.parse_lattice_expr(expr)).count == want


def test_criterion_02_bouquet_decomposition():
    with criterion(2, "A2 bouquet"):
        lat = e8.lattice()
        all_roots = list(roots.enumerate_roots(lat).coords)
        rng = random.Random(0)
        for a in rng.sample(all_roots, 10):
            x, triples = bouquet_decomposition(lat, a)
            assert len(x) == 114
            assert len(triples) == 28
            pm_a = {tuple(a), tuple(-c for c in a)}
            for i in range(len(triples)):
                for j in range(i + 1, len(triples)):
                    assert triples[i] & triples[j] == pm_a


def test_criterion_03_theta_cross_validation():
    with criterion(3, "theta vs brute"):
        builders = {
            "E7": qs.theta_e7(12), "E6": qs.named_theta("E6", 12),
            "D5": qs.theta_dn(5, 12), "D6": qs.theta_dn(6, 12),
            "D8": qs.theta_dn(8, 12),
        }
        for name, series in builders.items():
            brute = qs.theta_brute(qs.named_definite_lattice(name), 12)
            for m in range(13):
                assert series.coeff(m) == brute.coeff(m), (name, m)
        assert theta_d6_eis(240) == qs.theta_dn(6, 240)


def test_criterion_04_e7_growth_ratio():
    with criterion(4, "N_E7(314) ratio"):
        n = qs.rep_num("E7", 314)
        # 124.72 <= N / 157^(5/2) <= 124.74, via squares of exact integers
        assert 12472**2 * 157**5 <= n * n * 10**4 <= 12474**2 * 157**5


def test_criterion_05_bound_constants():
    with criterion(5, "growth constants"):
        for m in range(1, 241):
            ne7 = qs.rep_num("E7", 2 * m)
            ne6 = qs.rep_num("E6", 2 * m)
            nd6 = qs.rep_num("D6", 2 * m)
            assert 100 * ne7 * ne7 > 1238**2 * m**5, m
            assert 100 * ne6 < 10369 * m * m, m
            assert 100 * nd6 < 7513 * m * m, m


def test_criterion_06_pex_reproduction():
    with criterion(6, "exceptional degree set"):
        want = set(range(1, 101)) - {96}
        want |= {m for m in range(101, 128) if m % 2}
        want |= {110, 131, 137, 143}
        assert set(se.compute_pex(240)) == want


def test_criterion_07_table_reproduction():
    with criterion(7, "table rows"):
        # table_rows re-embeds every row, checks the norm 2d exactly and
        # recomputes the root count with the 240-root oracle
        assert len(se.table_rows("I")) == 40
        assert len(se.table_rows("II-10")) == 18
        assert len(se.table_rows("II-14")) == 6
        assert len(se.table_rows("III")) == 10
        assert len(se.table_rows("IV")) == 4
        assert all(n in (8, 12) for _d, _t, n in se.table_rows("I"))
        assert all(n == 10 for _d, _t, n in se.table_rows("II-10"))
        assert all(n == 14 for _d, _t, n in se.table_rows("II-14"))


def test_criterion_08_predicate_oracle_equivalence():
    with criterion(8, "predicate vs oracle, d <= 150"):
        checked = 0
        for d in range(1, 151):
            for case, (claim, embed) in se.FAMILIES.items():
                for ms in se.iter_case_tuples(case, d):
                    claimed = claim(ms)
                    if claimed is None:
                        continue
                    assert e8.count_orth_roots_2x(embed(ms)) == claimed, (case, ms)
                    checked += 1
        assert checked > 20000


def test_criterion_09_verdict_suite():
    with criterion(9, "verdict suite"):
        general = {46, 50, 54, 57, 58, 60} | set(range(62, 151))
        at_least_nonneg = {40, 42, 43, 48, 49, 51, 52, 53, 55, 56, 59, 61, 63}
        for d in sorted(general):
            v = se.kodaira_verdict(d)
            assert v.kind == se.GENERAL_TYPE, (d, v.kind)
            assert v.witness is not None and 2 <= v.witness.n_l <= 12
        for d in sorted(at_least_nonneg):
            v = se.kodaira_verdict(d)
            assert v.kind in (se.GENERAL_TYPE, se.NONNEGATIVE_KODAIRA), (d, v.kind)
            assert v.witness is not None and v.witness.n_l <= 14
        for d in (1, 2, 3):
            assert se.exhaustive_search(d) is None, d


def test_criterion_10_c_min_table():
    with criterion(10, "c_min values"):
        want = {30: Fraction(92, 30), 18: Fraction(42, 18), 12: Fraction(16, 12),
                10: Fraction(12, 10), 8: Fraction(12, 8), 5: Fraction(6, 5),
                3: Fraction(1, 3), 6: Fraction(1, 3), 4: Fraction(1, 2)}
        for d, value in want.items():
            assert rst.c_min(d) == value, d
        assert rst.c_min_with_argmin(30)[1] == 19


def test_criterion_11_bigphi():
    with criterion(11, "coprime-sum bound"):
        report = rst.bigphi_verify(100)
        assert report["violations"] == []
        assert report["min_sum"] >= 1


def test_criterion_12_reflective_classification():
    with criterion(12, "reflective sampling"):
        for d in (1, 2, 5, 6):
            report = rf.reflk3_sample_check(d, samples=10**4, seed=0)
            assert report["samples"] == 10**4
            assert report["counterexamples"] == [], d
            assert report["det_mismatches"] == [], d
            assert report["det_checks"] == report["reflective"]


def test_criterion_13_discriminant_plumbing():
    with criterion(13, "discriminant groups"):
        for d in range(1, 21):
            disc = lt.disc_group(lt.make_l2d(d))
            assert disc.invariant_factors == (2 * d,)
            assert disc.q_values[0] == Fraction(-1, 2 * d) % 2
        assert lt.disc_group(lt.parse_lattice_expr("U(2)")).parity_delta == 0
        assert lt.disc_group(lt.parse_lattice_expr("<2>+<-2>")).parity_delta == 1


def test_no_check_in_the_library_is_a_plain_assert():
    # `python -O` strips assert statements, so a check that must hold raises
    paths = sorted(Path(lt.__file__).parent.rglob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert paths and found == []


# the `math` names that map integers to integers; every other one is inexact
_INTEGER_MATH = {"isqrt", "gcd", "lcm", "comb", "factorial", "prod"}
_INEXACT_CALLS = {"float", "round", "complex"}


def _inexact(node):
    """Why the AST node may leave exact arithmetic, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        try:
            exp = ast.literal_eval(node.right)
        except ValueError:  # not a constant
            return None
        # a negative exponent turns an int into a float too
        return None if type(exp) is int and exp >= 0 else f"** {exp!r}"
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"constant {node.value!r}"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _INEXACT_CALLS:
        return f"call of {node.func.id}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = sorted({alias.name for alias in node.names} - _INTEGER_MATH)
        return f"math.{names}" if names else None
    if isinstance(node, ast.Import) and any(a.name == "math" and a.asname for a in node.names):
        return "math under another name"
    if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math"
            and node.attr not in _INTEGER_MATH):
        return f"math.{node.attr}"
    return None


@pytest.mark.parametrize("source, inexact", [
    ("x / 2", True), ("x /= 2", True), ("x ** 0.5", True), ("x ** -1", True),
    ("1.5", True), ("2j", True), ("float(x)", True), ("round(x)", True),
    ("math.sqrt(x)", True), ("from math import gcd, log", True), ("import math as m", True),
    ("x // 2", False), ("x ** 2", False), ("x ** n", False), ("math.isqrt(x)", False),
    ("from math import gcd, prod", False), ("Fraction(1, 2)", False),
])
def test_the_exactness_scan_flags_what_leaves_the_integers(source, inexact):
    flagged = [why for node in ast.walk(ast.parse(source)) if (why := _inexact(node))]
    assert bool(flagged) == inexact, flagged


def test_the_library_stays_in_exact_arithmetic():
    # no true division, float or complex constant, float or round call,
    # non-integer power or inexact `math` name anywhere in the library
    paths = sorted(Path(lt.__file__).parent.rglob("*.py"))
    found = [f"{path.name}:{node.lineno}: {why}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if (why := _inexact(node))]
    assert paths
    assert found == []


_NON_INTEGER_CALLS = {
    "check_mineq": lambda: se.check_mineq(2.5),
    "check_mineqd": lambda: se.check_mineqd(2.5),
    "rep_num": lambda: qs.rep_num("E7", 5.0),
    "reflk3_sample_check": lambda: rf.reflk3_sample_check(2, samples=2.5),
    "make_l2d": lambda: lt.make_l2d(2.0),
    "theta_e7": lambda: qs.theta_e7(2.0),
    "theta_brute": lambda: qs.theta_brute(e8.lattice(), 2.0),
    "norm_counts": lambda: roots.norm_counts(e8.lattice(), 4.0),
    "enumerate_norm_vectors": lambda: roots.enumerate_norm_vectors(e8.lattice(), Fraction(2)),
    "enumerate_cone": lambda: roots.enumerate_cone(e8.lattice(), Fraction(2)),
    "euler_phi": lambda: rst.euler_phi(6.0),
    "c_min": lambda: rst.c_min(2.5),
    "c_min_with_argmin": lambda: rst.c_min_with_argmin(2.5),
    "bigphi_verify": lambda: rst.bigphi_verify(2.5),
    "cyclotomic_poly": lambda: rst.cyclotomic_poly(4.0),
    "sigma_prime": lambda: rst.sigma_prime(rst.EigenExponents(8, [2, 2, 1]), 2.0),
    "dominant_2x": lambda: e8.dominant_2x(2.0),
    "count_orth_roots_2x": lambda: e8.count_orth_roots_2x((0,) * 6 + (2, 2.5)),
    "dot2x": lambda: e8.dot2x((2.0,) + (0,) * 7, (2.0,) + (0,) * 7),
    "in_e8_2x": lambda: e8.in_e8_2x((2.0,) * 8),
    "alpha_from_2x": lambda: e8.alpha_from_2x((2, 2.0) + (0,) * 6),
    "SearchHit": lambda: se.SearchHit(1, (2.0, 2.0) + (0,) * 6, 2, "case1"),
}


@pytest.mark.parametrize("call", _NON_INTEGER_CALLS.values(), ids=_NON_INTEGER_CALLS)
def test_entry_points_reject_non_integer_arguments(call):
    # degrees, norms, precisions, sample counts, orders and coordinates are
    # read with operator.index
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


class _Degree:
    """A degree that is an integer only through `__index__`."""

    def __init__(self, d):
        self.d = d

    def __index__(self):
        return self.d


_DEGREE_CALLS = {
    "check_mineq": se.check_mineq,
    "check_mineqd": se.check_mineqd,
    "iter_case_tuples": lambda d: list(se.iter_case_tuples("IV", d)),
    "structured_search": lambda d: [h.to_dict() for h in se.structured_search(d, "I", (8, 12))],
    "structured_search_all": lambda d: [h.to_dict()
                                        for h in se.structured_search_all(d, range(2, 15))],
    "exhaustive_search": lambda d: (hit := se.exhaustive_search(d)) and hit.to_dict(),
    "kodaira_verdict": lambda d: se.kodaira_verdict(d).to_dict(),
    # a vector of norm 2d for each degree the test passes
    "SearchHit": lambda d: se.SearchHit(
        d, {1: (2, 2) + (0,) * 6, 46: (18, 6, 2, 2) + (0,) * 4}[index(d)], 2, "x").to_dict(),
    "compute_pex": se.compute_pex,
    "make_l2d": lambda d: [(lat := lt.make_l2d(d)).name, lat.gram],
    "reflk3_sample_check": lambda d: rf.reflk3_sample_check(d, samples=6),
}


@pytest.mark.parametrize("call", _DEGREE_CALLS.values(), ids=_DEGREE_CALLS)
def test_entry_points_read_the_degree_once_as_an_int(call):
    # the degree is read with operator.index and the int is used from then
    # on: a type with only __index__ works, and True is the degree 1, never
    # `"d": true` in a result (JSON tells true from 1)
    for arg, d in ((_Degree(46), 46), (True, 1)):
        got, want = call(arg), call(d)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


_WRONG_LENGTH_CALLS = {
    "dot2x": lambda: e8.dot2x((2,) + (0,) * 7, (2, 0, 0)),
    "in_e8_2x": lambda: e8.in_e8_2x((2, 2)),
    "alpha_from_2x_4": lambda: e8.alpha_from_2x((2, 2, 0, 0)),
    "alpha_from_2x_10": lambda: e8.alpha_from_2x((2, 2) + (0,) * 8),
    "SearchHit": lambda: se.SearchHit(1, (2, 2, 0), 2, "case1"),
}


@pytest.mark.parametrize("call", _WRONG_LENGTH_CALLS.values(), ids=_WRONG_LENGTH_CALLS)
def test_e8_charts_take_exactly_8_coordinates(call):
    # zip used to truncate the longer vector, and a short one could pass as in E8
    with pytest.raises(lt.LatticeError, match="8 doubled e-coordinates"):
        call()


_MUTATORS = frozenset({"add", "append", "clear", "discard", "extend", "insert", "pop",
                       "popitem", "remove", "setdefault", "update"})


def _module_level_writes(tree):
    """The module-level names whose value some function of the module writes
    to: an item assignment or deletion, or a mutating method call."""
    module_names = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in ast.walk(node)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
    written = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(ast.walk(fn))
        local = {a.arg for a in nodes if isinstance(a, ast.arg)}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in nodes:
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                target = node.func.value
            else:
                continue
            if (isinstance(target, ast.Name) and target.id in module_names
                    and target.id not in local):
                written.add(target.id)
    return written


def test_every_cache_in_the_library_follows_the_cache_policy():
    # the three rules of the `lattice` docstring: a function-level cache is
    # `functools.cache`, never `lru_cache`, and the one module-level cache is
    # the store of `lattice._grown`; no function rebinds module state
    paths = sorted(Path(lt.__file__).parent.rglob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno} global" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
        found += [f"{path.name}:{node.lineno} lru_cache" for node in ast.walk(tree)
                  if "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None))]
        found += [f"{path.name} {name}" for name in sorted(_module_level_writes(tree))]
    assert paths and found == ["lattice.py _grown_tables"]


def _reads(node):
    """How often each name is read under `node`: an ast Name or Attribute load."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _unread_names(library, readers, public):
    """The "file name" of each module-level function, class or assignment
    of the `library` trees (file name -> ast), public or private as `public`
    says, that neither the library nor the `readers` trees read outside its
    own definition."""
    total = sum((_reads(tree) for tree in [*library.values(), *readers]), Counter())
    unread = []
    for module, tree in library.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in ast.walk(node)
                         if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            else:
                continue
            own = _reads(node)
            unread += [f"{module} {name}" for name in names
                       if not name.startswith("__") and name.startswith("_") != public
                       and total[name] <= own[name]]
    return unread


def _library():
    """The package's modules, file name -> ast."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(lt.__file__).parent.rglob("*.py"))}


def test_every_private_module_name_in_the_library_is_read():
    # a module-level private function, class or assignment that nothing in
    # the package reads, outside its own definition, is dead code
    library = _library()
    assert library
    assert _unread_names(library, [], public=False) == []


def test_every_public_module_name_in_the_library_is_read_outside_the_tests():
    # a module-level public function, class or assignment that only the
    # tests read is test code, and lives in tests/exact_references.py
    root = Path(__file__).resolve().parent.parent
    library = _library()
    readers = [ast.parse(path.read_text()) for where in ("tools", "perfbench")
               for path in sorted((root / where).rglob("*.py"))]
    assert library and readers
    assert _unread_names(library, readers, public=True) == []
