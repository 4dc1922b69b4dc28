import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusbt import lattices as lat
from torusbt.catalog import FIXTURE_NAMES, all_fixtures, fixture
from torusbt.engine import (btc_predict, isogeny_invariance_check, local_table,
                            ono_l_value, shapiro_suite, weil_restriction_check)
from torusbt.errors import CharacterMismatch, NotSubgroup
from torusbt.exact import odd_part
from torusbt.groups import subgroup_classes
from torusbt.dirichlet import artin_L_minus_one


def test_catalog_names_complete():
    assert set(FIXTURE_NAMES) == {"gm_q", "res_sqrt5", "normone_5", "res_sqrt2",
                                  "dual_normone_v4", "s3_standard"}


def test_predict_gm_q():
    f = fixture("gm_q")
    rep = btc_predict(f.lattice, f.realization)
    assert rep.l_value == Fraction(-1, 12)
    assert rep.w_order == 24
    assert rep.predicted_kt_order == Fraction(2)    # |K_2(Z)|
    assert rep.motivic_verdict == "YesMetaCyclic"
    assert rep.two_defect_rank == 1
    assert not rep.warnings


def test_predict_solves_the_identity_once_and_skips_the_real_split(monkeypatch):
    """The cross-check reuses the induction identity, and the real place
    needs no decomposition on a totally real realization."""
    from torusbt import cohomology, induction
    calls = {"ono": 0, "real": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(induction, "ono_decomposition",
                        counting("ono", induction.ono_decomposition))
    monkeypatch.setattr(cohomology, "real_decomposition",
                        counting("real", cohomology.real_decomposition))
    f = fixture("dual_normone_v4")
    rep = btc_predict(f.lattice, f.realization)
    assert calls == {"ono": 1, "real": 0}
    assert rep.two_defect_rank == f.lattice.rank


def test_predict_res_sqrt5():
    f = fixture("res_sqrt5")
    rep = btc_predict(f.lattice, f.realization)
    assert (rep.l_value, rep.w_order, rep.predicted_kt_order) == \
        (Fraction(1, 30), 120, Fraction(4))


def test_predict_normone_5():
    f = fixture("normone_5")
    rep = btc_predict(f.lattice, f.realization)
    assert (rep.l_value, rep.w_order, rep.predicted_kt_order) == \
        (Fraction(-2, 5), 10, Fraction(4))
    assert rep.w_breakdown["2"]["part"] == 2
    assert rep.w_breakdown["5"]["part"] == 5


def test_predict_res_sqrt2():
    f = fixture("res_sqrt2")
    rep = btc_predict(f.lattice, f.realization)
    assert (rep.l_value, rep.w_order, rep.predicted_kt_order) == \
        (Fraction(1, 12), 48, Fraction(4))


def test_predict_dual_normone_v4_consistent():
    f = fixture("dual_normone_v4")
    rep = btc_predict(f.lattice, f.realization)
    assert rep.motivic_verdict == "YesInvertibleCertificate"
    assert rep.certificates is not None
    # both L routes agreed inside btc_predict (would have raised), and
    # the prediction factors exactly
    assert rep.predicted_kt_order == rep.l_value_abs * rep.w_order
    assert rep.two_defect_rank == f.lattice.rank


def test_predict_s3_standard_symbolic():
    f = fixture("s3_standard")
    rep = btc_predict(f.lattice, f.realization)
    assert rep.l_value is None and rep.predicted_kt_order is None
    assert any("NonAbelianRealization" in w for w in rep.warnings)
    assert rep.ono["m"] == 1


def test_predicted_multiplicative():
    f = fixture("res_sqrt5")
    zm = fixture("normone_5").lattice
    both = lat.direct_sum(f.lattice, zm)
    p = btc_predict(both, f.realization).predicted_kt_order
    p1 = btc_predict(f.lattice, f.realization).predicted_kt_order
    p2 = btc_predict(zm, f.realization).predicted_kt_order
    assert p == p1 * p2


def test_isogeny_example():
    f = fixture("res_sqrt5")
    zm = fixture("normone_5").lattice
    x1 = lat.direct_sum(zm, lat.trivial_lattice(f.group))
    out = isogeny_invariance_check(x1, f.lattice, f.realization)
    assert out["pass"] and out["ratio"] == "2" and out["two_power_exponent"] == 1


def test_isogeny_same_lattice():
    f = fixture("res_sqrt5")
    out = isogeny_invariance_check(f.lattice, f.lattice, f.realization)
    assert out["ratio"] == "1" and out["pass"]


def test_isogeny_character_mismatch():
    f = fixture("res_sqrt5")
    with pytest.raises(CharacterMismatch):
        isogeny_invariance_check(lat.trivial_lattice(f.group),
                                 fixture("normone_5").lattice, f.realization)


def test_weil_restriction_checks():
    for name in ("gm_q", "res_sqrt5", "res_sqrt2", "dual_normone_v4"):
        f = fixture(name)
        suite = shapiro_suite(f.realization)
        assert suite["pass"], (name, suite)


def test_weil_restriction_single():
    f = fixture("res_sqrt2")
    cls = subgroup_classes(f.group)
    out = weil_restriction_check(cls[0], f.realization)
    assert out["equal"]
    assert out["classical"] == "4"
    assert out["zeta_fixed_field"] == "1/12" and out["w2_fixed_field"] == 48


def test_weil_restriction_of_a_non_subgroup_is_a_typed_error():
    with pytest.raises(NotSubgroup):
        weil_restriction_check((0, 7), fixture("res_sqrt5").realization)


def test_ono_cross_check_all_catalog():
    for f in all_fixtures():
        if f.realization is None or not f.realization.totally_real:
            continue
        root, ident, warn = ono_l_value(f.lattice, f.realization)
        assert not warn
        assert root == abs(artin_L_minus_one(f.lattice, f.realization))


def test_local_table_shape():
    f = fixture("normone_5")
    table = local_table(f.lattice, f.realization, prime_cap=20)
    ells = [row["ell"] for row in table]
    assert 5 not in ells and 7 in ells
    assert all(row["count"] > 0 for row in table)


def test_report_json_roundtrip():
    f = fixture("res_sqrt5")
    rep = btc_predict(f.lattice, f.realization).to_json()
    assert rep["l_value"] == "1/30"
    assert rep["predicted_kt_order"] == "4"
    assert rep["odd_part"] == "1"
    assert rep["two_defect_note"].endswith("2^2")


def test_reports_deterministic():
    f = fixture("dual_normone_v4")
    a = btc_predict(f.lattice, f.realization).to_json()
    b = btc_predict(f.lattice, f.realization).to_json()
    assert a == b


def test_random_isogeny_pairs_odd_parts_equal():
    """Character-equal random sums have exactly equal odd predicted parts."""
    rng = random.Random(2024)
    res5 = fixture("res_sqrt5")
    zm = fixture("normone_5").lattice
    z = lat.trivial_lattice(res5.group)
    reg = res5.lattice
    checked = 0
    for _ in range(10):
        # build a pair by swapping Z + Z^- <-> Z[C2] some number of times
        base = [rng.choice([z, zm, reg]) for _ in range(rng.randint(1, 2))]
        k = rng.randint(1, 2)
        left = base + [z, zm] * k
        right = base + [reg] * k
        rng.shuffle(left)
        rng.shuffle(right)
        x1 = left[0]
        for p in left[1:]:
            x1 = lat.direct_sum(x1, p)
        x2 = right[0]
        for p in right[1:]:
            x2 = lat.direct_sum(x2, p)
        out = isogeny_invariance_check(x1, x2, res5.realization)
        assert out["odd_parts_equal"], out
        checked += 1
    assert checked == 10


PAST_THE_BOUND = """
import sys, time
from torusbt import intmat, lattices
from torusbt.engine import btc_predict
from torusbt.groups import cyclic_group
from torusbt.realization import realization_from_images
from torusbt.units import primitive_root_mod_prime
n, kind = int(sys.argv[1]), sys.argv[2]
g = cyclic_group(n)
r = realization_from_images(g, 2 * n + 1, {primitive_root_mod_prime(2 * n + 1): 1})
if kind == "regular":
    x = lattices.permutation_lattice(g, (g.identity,))
else:
    # norm_one_lattice's basis [a] - [0], a = 1..n-1, written out: its
    # validate would spend n dense products on checking it.
    def coords(a, k):
        col = [0] * (n - 1)
        for b, sign in (((a + k) % n, 1), (k, -1)):
            if b:
                col[b - 1] += sign
        return tuple(col)
    x = lattices.GLattice(g, n - 1, tuple(
        intmat.from_columns([coords(a, k) for a in range(1, n)], n - 1) for k in range(n)))
    if kind == "dual-norm-one":
        x = lattices.dual(x)
start = time.perf_counter()
btc_predict(x, r)
print(time.perf_counter() - start)
"""


@pytest.mark.parametrize("n", [50, 96])
@pytest.mark.parametrize("kind", ["regular", "norm-one", "dual-norm-one"])
def test_cyclic_predict_past_the_enumeration_bound_is_fast(n, kind):
    """Res of Q(zeta_p)^+ for p = 101, 193 (G = C50, C96): btc_predict in a
    fresh process, so that no memo is warm, with the input built untimed."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PAST_THE_BOUND, str(n), kind], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout.split()[-1]) < 2.0
