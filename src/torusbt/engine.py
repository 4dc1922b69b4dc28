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
from dataclasses import dataclass, field
from fractions import Fraction

from . import cohomology, dirichlet, induction, lattices, realization as realz
from .errors import CharacterMismatch, TorusBTError
from .exact import odd_part, rational_nth_root, two_power_ratio
from .groups import SubgroupClass, subgroup_classes
from .lattices import GLattice
from .realization import AbelianRealization


def lattice_id(x: GLattice) -> str:
    payload = json.dumps([m.tolist() for m in x.action], separators=(",", ":"))
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
    l_value: Fraction | None
    l_value_abs: Fraction | None
    w_order: int | None
    predicted_kt_order: Fraction | None
    two_defect_rank: int | None
    ono: dict = field(default_factory=dict)
    certificates: dict | None = None
    warnings: list[str] = field(default_factory=list)
    w_breakdown: dict | None = None
    odd_part: Fraction | None = None

    def to_json(self) -> dict:
        def rat(v):
            return None if v is None else str(v)
        return {
            "lattice_id": self.lattice_id,
            "realization_id": self.realization_id,
            "motivic_verdict": self.motivic_verdict,
            "l_value": rat(self.l_value),
            "l_value_abs": rat(self.l_value_abs),
            "w_order": self.w_order,
            "predicted_kt_order": rat(self.predicted_kt_order),
            "odd_part": rat(self.odd_part),
            "two_defect_rank": self.two_defect_rank,
            "two_defect_note": None if self.two_defect_rank is None else
                f"equality asserted up to a power of 2 bounded by 2^{self.two_defect_rank}",
            "ono": self.ono,
            "certificates": self.certificates,
            "w_breakdown": self.w_breakdown,
            "warnings": self.warnings,
        }


def _ono_root(m: int, p_spec: dict, q_spec: dict, r: AbelianRealization):
    """(m-th root of prod_H |zeta_{M_H}(-1)|^{a_H} or None, warnings)."""
    classes = subgroup_classes(r.group)
    prod = Fraction(1)
    for cid, mult in q_spec.items():
        prod *= abs(dirichlet.zeta_minus_one(classes[cid], r)) ** mult
    for cid, mult in p_spec.items():
        prod /= abs(dirichlet.zeta_minus_one(classes[cid], r)) ** mult
    warnings = []
    root = rational_nth_root(prod, m)
    if root is None:
        warnings.append(
            f"ono cross-check: {prod} has no exact rational {m}-th root")
    return root, warnings


def ono_l_value(x: GLattice, r: AbelianRealization):
    """|L(X,-1)| recovered from the induction identity:
    the m-th root of prod_H |zeta_{M_H}(-1)|^{a_H}. Returns
    (root or None, identity json, warnings)."""
    m, p_spec, q_spec, dec = induction.ono_decomposition(x)
    root, warnings = _ono_root(m, p_spec, q_spec, r)
    return root, dec.to_json(), warnings


def btc_predict(x: GLattice, r: AbelianRealization | None,
                stab_cap: int = realz.STABILIZATION_CAP,
                debug: bool = False) -> BTCReport:
    """Full prediction report; degrades to symbolic output when the
    realization is missing, non-abelian, or not totally real."""
    warnings: list[str] = []
    verdict, found_cert, _res = cohomology.check_motivic_interpretation(x)
    certs = None if found_cert is None else found_cert.to_json()

    report = BTCReport(
        lattice_id=lattice_id(x), realization_id=realization_id(r),
        motivic_verdict=verdict, l_value=None, l_value_abs=None,
        w_order=None, predicted_kt_order=None, two_defect_rank=None,
        certificates=certs, warnings=warnings)

    m, p_spec, q_spec, dec = induction.ono_decomposition(x)
    report.ono = dec.to_json()

    if r is None:
        if not x.group.is_abelian():
            warnings.append("NonAbelianRealization: no abelian realization exists; "
                            "emitting the symbolic induction identity only")
        else:
            warnings.append("no realization supplied; symbolic output only")
        return report
    if not r.totally_real:
        warnings.append("NotTotallyReal: pi(-1) != identity, the conjecture's "
                        "hypothesis is unmet; no prediction")
        return report

    lv = dirichlet.artin_L_minus_one(x, r)
    wres = realz.w_group_order(x, r, cap=stab_cap, debug=debug)
    report.l_value = lv
    report.l_value_abs = abs(lv)
    report.w_order = wres.total
    report.w_breakdown = wres.to_json()["breakdown"]
    report.predicted_kt_order = abs(lv) * wres.total
    report.odd_part = odd_part(report.predicted_kt_order)
    if report.predicted_kt_order.denominator != 1:
        warnings.append(f"predicted order {report.predicted_kt_order} is not an "
                        "integer; reported as an exact rational")

    root, ono_warn = _ono_root(m, p_spec, q_spec, r)
    warnings.extend(ono_warn)
    if root is not None and root != abs(lv):
        raise TorusBTError(
            f"ono cross-check mismatch: direct |L| = {abs(lv)}, induction route {root}")

    # r is totally real, so conj = pi(-1) is the identity: H^0 = Z^r/2Z^r
    # and H^1 = 0, and real_decomposition would return a = x.rank.
    report.two_defect_rank = x.rank
    return report


def isogeny_invariance_check(x1: GLattice, x2: GLattice,
                             r: AbelianRealization) -> dict:
    """Predicted values of character-equal lattices must agree up to 2-powers."""
    if lattices.lattice_character(x1) != lattices.lattice_character(x2):
        raise CharacterMismatch("lattices have different characters, not isogenous")
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


def weil_restriction_check(h, r: AbelianRealization,
                           stab_cap: int = realz.STABILIZATION_CAP) -> dict:
    """Prediction through Z[G/H] must equal the classical Birch-Tate
    prediction |zeta_M(-1)| * w_2(M) for the fixed field M, exactly. w_2(M)
    is a closed form that shares no code with the W-group's _stable_part."""
    lat = lattices.permutation_lattice(r.group, h)
    via_lattice = btc_predict(lat, r, stab_cap=stab_cap).predicted_kt_order
    zeta = dirichlet.zeta_minus_one(h, r)
    w2 = realz.w2_of_subfield(h, r)
    classical = abs(zeta) * w2
    return {
        "via_lattice": str(via_lattice),
        "zeta_fixed_field": str(zeta), "w2_fixed_field": w2,
        "classical": str(classical),
        "equal": via_lattice == classical,
    }


def shapiro_suite(r: AbelianRealization, stab_cap: int = realz.STABILIZATION_CAP) -> dict:
    rows = []
    for cls in subgroup_classes(r.group):
        row = weil_restriction_check(cls, r, stab_cap=stab_cap)
        row["subgroup_id"] = cls.class_id
        rows.append(row)
    return {"instances": rows, "pass": all(row["equal"] for row in rows)}


def local_table(x: GLattice, r: AbelianRealization, prime_cap: int = 50) -> list[dict]:
    out = []
    for ell in range(2, prime_cap + 1):
        if not realz.is_prime(ell):
            continue
        if r.modulus > 1 and r.modulus % ell == 0:
            continue
        out.append({"ell": ell, "count": realz.local_point_count(x, r, ell)})
    return out
