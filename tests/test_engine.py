import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import catalog_pool
from torusbt import lattices as lat
from torusbt.catalog import FIXTURE_NAMES, fixture
from torusbt.engine import (btc_predict, isogeny_invariance_check, lattice_id, local_table,
                            ono_l_value, shapiro_suite, weil_restriction_check)
from torusbt.errors import CharacterMismatch, NotSubgroup
from torusbt.exact import odd_part
from torusbt.groups import cyclic_group, subgroup_classes
from torusbt.intmat import block_diag, from_rows
from torusbt.dirichlet import artin_L_minus_one, realization_from_images
from torusbt.realization import w_group_order


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


def test_one_prediction_reads_the_diagonals_once():
    """btc_predict, w_group_order and local_table on one lattice sum its
    diagonals once: lattices.traces, kept on the lattice, is the only
    diagonal sum, and every later reader takes the kept tuple."""
    fx = fixture("dual_normone_v4")
    x, r = fx.lattice, fx.realization
    builds, reads = [], []

    class Memo(dict):
        def __setitem__(self, key, value):
            builds.append(key)
            super().__setitem__(key, value)

        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    object.__setattr__(x, "_memo", Memo())
    btc_predict(x, r)
    w_group_order(x, r)
    local_table(x, r)
    assert builds == ["traces"]
    # lattice_character and character_multiplicities in btc_predict (its
    # L-value and its W-group), then w_group_order and local_table
    assert reads.count("traces") >= 5


def test_weil_restriction_of_a_non_subgroup_is_a_typed_error():
    with pytest.raises(NotSubgroup):
        weil_restriction_check((0, 7), fixture("res_sqrt5").realization)


def test_ono_cross_check_all_catalog():
    for f in map(fixture, FIXTURE_NAMES):
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


def _hand_written_to_json(rep):
    """BTCReport.to_json as it was written out key by key, before it
    wrote every field."""
    def rat(v):
        return None if v is None else str(v)
    return {
        "lattice_id": rep.lattice_id,
        "realization_id": rep.realization_id,
        "motivic_verdict": rep.motivic_verdict,
        "l_value": rat(rep.l_value),
        "l_value_abs": rat(rep.l_value_abs),
        "w_order": rep.w_order,
        "predicted_kt_order": rat(rep.predicted_kt_order),
        "odd_part": rat(rep.odd_part),
        "two_defect_rank": rep.two_defect_rank,
        "two_defect_note": None if rep.two_defect_rank is None else
            f"equality asserted up to a power of 2 bounded by 2^{rep.two_defect_rank}",
        "ono": rep.ono,
        "certificates": rep.certificates,
        "w_breakdown": rep.w_breakdown,
        "warnings": rep.warnings,
    }


def test_report_json_is_the_hand_written_one(c2, s3, v4):
    """Every fixture's report, and each catalog_pool lattice's under no
    realization, a totally real one and one that is not, has the sorted
    JSON bytes of the hand-written to_json."""
    real = {"c2": [None, realization_from_images(c2, 5, {2: 1}),
                   realization_from_images(c2, 8, {7: 0, 5: 1}),
                   realization_from_images(c2, 4, {3: 1})],
            "s3": [None],
            "v4": [None, realization_from_images(v4, 40, {31: 0, 21: 1, 17: 2}),
                   realization_from_images(v4, 40, {31: 1, 21: 0, 17: 2})]}
    reports = [btc_predict(f.lattice, f.realization) for f in map(fixture, FIXTURE_NAMES)]
    for name, xs in catalog_pool(c2, s3, v4).items():
        reports += [btc_predict(x, r) for x in xs for r in real[name]]
    for rep in reports:
        assert json.dumps(rep.to_json(), sort_keys=True) == \
            json.dumps(_hand_written_to_json(rep), sort_keys=True), rep
    symbolic = sum(rep.realization_id is None for rep in reports)
    predicted = sum(rep.predicted_kt_order is not None for rep in reports)
    assert (symbolic, predicted, len(reports) - symbolic - predicted) == (14, 17, 9)


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


def _tolist_lattice_id(x) -> str:
    """lattice_id as first defined: the action table as nested lists."""
    payload = json.dumps([[list(r) for r in m.data] for m in x.action], separators=(",", ":"))
    return "lat-" + hashlib.sha256(payload.encode()).hexdigest()[:12]


def _ladder_shaped(n: int) -> list:
    """The lattices a cyclic ladder rung builds over C_n: regular, norm-one,
    its dual, and block sums of Z[G/H] and of the norm-one lattice."""
    g = cyclic_group(n)
    regular = lat.permutation_lattice(g, (g.identity,))
    norm_one = lat.norm_one_lattice(g)
    out = [regular, norm_one, lat.dual(norm_one), lat.direct_sum(regular, norm_one)]
    for d in (d for d in range(1, n + 1) if n % d == 0):
        summand = lat.permutation_lattice(g, tuple(range(0, n, d)))
        out.append(lat.GLattice(g, n, tuple(block_diag([m] * (n // d))
                                             for m in summand.action)))
    return out


def test_lattice_id_bytes_are_those_of_the_list_encoding(c2, s3, v4):
    """Rows are encoded once each and joined, with the bytes of the JSON of
    the whole table as nested lists: on the catalog pool, a rank-0 lattice,
    an involution with entries beyond 2**64, the ladder-shaped lattices of
    C1, C2, C7 and C12, and a trivial lattice whose elements share one
    matrix object."""
    pool = [x for xs in catalog_pool(c2, s3, v4).values() for x in xs]
    big = lat.from_generator_matrices(c2, 2, [from_rows([[1, 2**70 + 3], [0, -1]])])
    shared = lat.trivial_lattice(cyclic_group(12), 3)
    assert len({id(m) for m in shared.action}) == 1
    ladder = [x for n in (1, 2, 7, 12) for x in _ladder_shaped(n)]
    cases = pool + [lat.zero_lattice(s3), big, lat.dual(big), shared] + ladder
    for x in cases:
        assert lattice_id(x) == _tolist_lattice_id(x), x
