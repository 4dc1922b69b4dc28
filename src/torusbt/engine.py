"""Assembly of the torus Birch-Tate prediction and its consistency checks.

For a lattice X split through a totally real abelian realization, the
predicted tame-kernel order is |L(X, -1)| * |W|. The engine packages
that with the motivic-interpretation verdict, the induction identity
and its m-th-root cross-check, the archimedean 2-defect bound, and the
structural checks (isogeny invariance up to 2-powers, Weil-restriction
agreement with the classical prediction for subfields).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from fractions import Fraction

from . import cohomology, dirichlet, induction, lattices, realization as realz
from .errors import CharacterMismatch, NotTotallyReal, ShapeMismatch, TorusBTError
from .exact import odd_part, rational_nth_root, two_power_ratio
from .groups import SubgroupClass, subgroup_classes
from .lattices import GLattice
from .dirichlet import AbelianRealization

# The largest prime_cap of local_table: its primes are tested one by one.
PRIME_CAP_BOUND = 10_000


def lattice_id(x: GLattice) -> str:
    """The id "lat-<12 hex digits of SHA-256>" of the compact JSON of the
    action table, assembled row by row: each distinct row is encoded once
    (permutation, norm-one and block-sum tables repeat a few rows n^2
    times), as the repr of a list of ints with its spaces dropped.
    """
    lattices.check_lattices(x)
    encoded: dict[tuple[int, ...], str] = {}

    def row(r: tuple[int, ...]) -> str:
        text = encoded.get(r)
        if text is None:
            text = encoded[r] = repr(list(r)).replace(" ", "")
        return text

    payload = "[" + ",".join("[" + ",".join(map(row, m.data)) + "]" for m in x.action) + "]"
    return "lat-" + hashlib.sha256(payload.encode()).hexdigest()[:12]


def realization_id(r: AbelianRealization | None) -> str | None:
    if r is None:
        return None
    payload = json.dumps([r.modulus, list(map(list, r.pi_table))],
                         separators=(",", ":"))
    return "real-" + hashlib.sha256(payload.encode()).hexdigest()[:12]


def subgroup_table_json(classes: list[SubgroupClass]) -> list[dict]:
    return [{"id": c.class_id, "order": c.order, "index": c.index,
             "representative": list(c.elements),
             "normalizer_size": c.normalizer_size} for c in classes]


@dataclass
class BTCReport:
    lattice_id: str
    realization_id: str | None
    motivic_verdict: str
    ono: dict
    certificates: dict | None
    warnings: list[str]
    l_value: Fraction | None = None
    l_value_abs: Fraction | None = None
    w_order: int | None = None
    predicted_kt_order: Fraction | None = None
    two_defect_rank: int | None = None
    w_breakdown: dict | None = None
    odd_part: Fraction | None = None

    def to_json(self) -> dict:
        """Every field, Fractions as "num/den" strings, and the note on the
        2-defect bound."""
        out = {f.name: str(v) if isinstance(v := getattr(self, f.name), Fraction) else v
               for f in fields(self)}
        out["two_defect_note"] = None if self.two_defect_rank is None else \
            f"equality asserted up to a power of 2 bounded by 2^{self.two_defect_rank}"
        return out


def _ono_root(dec: induction.InductionDecomposition, r: AbelianRealization):
    """(m-th root of prod_H |zeta_{M_H}(-1)|^{a_H} or None, warnings)."""
    classes = subgroup_classes(r.group)
    prod = Fraction(1)
    for cid, a in dec.coefficients.items():
        prod *= abs(dirichlet.zeta_minus_one(classes[cid], r)) ** a
    warnings = []
    root = rational_nth_root(prod, dec.m)
    if root is None:
        warnings.append(
            f"ono cross-check: {prod} has no exact rational {dec.m}-th root")
    return root, warnings


def ono_l_value(x: GLattice, r: AbelianRealization):
    """|L(X,-1)| recovered from the induction identity:
    the m-th root of prod_H |zeta_{M_H}(-1)|^{a_H}. Returns
    (root or None, identity json, warnings)."""
    realz.check_same_group(x, r)
    dec = induction.ono_decomposition(x)[3]
    root, warnings = _ono_root(dec, r)
    return root, dec.to_json(), warnings


def btc_predict(x: GLattice, r: AbelianRealization | None,
                debug: bool = False) -> BTCReport:
    """Full prediction report; degrades to symbolic output when the
    realization is missing, non-abelian, or not totally real. A realization
    over another group raises GroupMismatch."""
    if r is not None:
        realz.check_same_group(x, r)
    verdict, found_cert, _res = cohomology.check_motivic_interpretation(x)
    dec = induction.ono_decomposition(x)[3]
    warnings: list[str] = []
    prediction: dict = {}
    if r is None and not x.group.is_abelian():
        warnings.append("NonAbelianRealization: no abelian realization exists; "
                        "emitting the symbolic induction identity only")
    elif r is None:
        warnings.append("no realization supplied; symbolic output only")
    elif not r.totally_real:
        warnings.append("NotTotallyReal: pi(-1) != identity, the conjecture's "
                        "hypothesis is unmet; no prediction")
    else:
        lv = dirichlet.artin_L_minus_one(x, r)
        wres = realz.w_group_order(x, r, debug=debug)
        kt = abs(lv) * wres.total
        if kt.denominator != 1:
            warnings.append(f"predicted order {kt} is not an integer; "
                            "reported as an exact rational")
        root, ono_warn = _ono_root(dec, r)
        warnings.extend(ono_warn)
        if root is not None and root != abs(lv):
            raise TorusBTError(
                f"ono cross-check mismatch: direct |L| = {abs(lv)}, induction route {root}")
        # r is totally real, so conj = pi(-1) is the identity: H^0 = Z^r/2Z^r
        # and H^1 = 0, and real_decomposition would return a = x.rank.
        prediction = dict(l_value=lv, l_value_abs=abs(lv), w_order=wres.total,
                          predicted_kt_order=kt, two_defect_rank=x.rank,
                          w_breakdown=wres.to_json()["breakdown"], odd_part=odd_part(kt))
    return BTCReport(lattice_id(x), realization_id(r), verdict, dec.to_json(),
                     None if found_cert is None else found_cert.to_json(), warnings,
                     **prediction)


def isogeny_invariance_check(x1: GLattice, x2: GLattice,
                             r: AbelianRealization) -> dict:
    """Predicted values of character-equal lattices must agree up to 2-powers."""
    realz.check_types(r, x1, x2)
    if lattices.lattice_character(x1) != lattices.lattice_character(x2):
        raise CharacterMismatch("lattices have different characters, not isogenous")
    if not r.totally_real:
        raise NotTotallyReal("isogeny check needs a prediction, and pi(-1) != identity")
    p1 = btc_predict(x1, r).predicted_kt_order
    p2 = btc_predict(x2, r).predicted_kt_order
    ratio = p1 / p2
    k = two_power_ratio(ratio)
    return {
        "predicted_1": str(p1), "predicted_2": str(p2), "ratio": str(ratio),
        "two_power_exponent": k,
        "odd_parts_equal": odd_part(p1) == odd_part(p2),
        "pass": k is not None and odd_part(p1) == odd_part(p2),
    }


def weil_restriction_check(h, r: AbelianRealization) -> dict:
    """Prediction through Z[G/H] must equal the classical Birch-Tate
    prediction |zeta_M(-1)| * w_2(M) for the fixed field M, exactly. w_2(M)
    is a closed form; the W-group's _stable_part uses w_2(L) only to set
    its precision cap, so an understated w_2 raises there and can never
    make the Smith route return w_2's value. A scalar block (c - 1) I,
    t = v_p(c - 1), lowers the precision to min(cap, t): with cap <= t the
    read is at cap and still raises, and with t < cap every valuation is
    at most t, so the read is exact whatever cap is."""
    realz.check_types(r)
    lat = lattices.permutation_lattice(r.group, h)
    via_lattice = btc_predict(lat, r).predicted_kt_order
    zeta = dirichlet.zeta_minus_one(h, r)
    w2 = realz.w2_of_subfield(h, r)
    classical = abs(zeta) * w2
    return {
        "via_lattice": str(via_lattice),
        "zeta_fixed_field": str(zeta), "w2_fixed_field": w2,
        "classical": str(classical),
        "equal": via_lattice == classical,
    }


def shapiro_suite(r: AbelianRealization) -> dict:
    realz.check_types(r)
    rows = [{**weil_restriction_check(cls, r), "subgroup_id": cls.class_id}
            for cls in subgroup_classes(r.group)]
    return {"instances": rows, "pass": all(row["equal"] for row in rows)}


def local_table(x: GLattice, r: AbelianRealization, prime_cap: int = 50) -> list[dict]:
    """#T(F_ell) at each prime ell <= prime_cap prime to the conductor; a
    prime_cap past PRIME_CAP_BOUND raises ShapeMismatch."""
    if type(prime_cap) is not int or not 0 < prime_cap <= PRIME_CAP_BOUND:
        raise ShapeMismatch(f"prime_cap = {prime_cap!r} is not a positive integer "
                            f"at most {PRIME_CAP_BOUND}")
    realz.check_same_group(x, r)
    mults = dirichlet.character_multiplicities(x, r)
    return [{"ell": ell, "count": realz.point_count(mults, ell)}
            for ell in range(2, prime_cap + 1) if realz.is_prime(ell) and r.modulus % ell]
